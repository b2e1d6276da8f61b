"""Independent oracles the tests check the package against.

Everything here is deliberately written from scratch on plain ints so
the dual-route checks stay honest: a naive Smith diagonalization, direct
simplicial homology on nondegenerate simplices, and small brute-force
helpers.  None of it imports the package's linear algebra.
"""

from __future__ import annotations

from fractions import Fraction


def naive_smith_divisors(rows):
    """Elementary divisors of an integer matrix by naive diagonalization."""
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    t = 0
    divs = []
    while t < m and t < n:
        # find pivot with smallest absolute value
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        dirty = False
        for i in range(t + 1, m):
            if a[i][t] % a[t][t]:
                dirty = True
            q = a[i][t] // a[t][t]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
        for j in range(t + 1, n):
            if a[t][j] % a[t][t]:
                dirty = True
            q = a[t][j] // a[t][t]
            if q:
                for row in a:
                    row[j] -= q * row[t]
        if dirty or any(a[i][t] for i in range(t + 1, m)) or any(a[t][j] for j in range(t + 1, n)):
            continue
        # make the pivot divide the remaining block
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        divs.append(abs(a[t][t]))
        t += 1
    return divs


def rational_rank(rows):
    a = [[Fraction(v) for v in r] for r in rows]
    if not a:
        return 0
    n = len(a[0])
    rank = 0
    for col in range(n):
        piv = None
        for i in range(rank, len(a)):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [v * inv for v in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def trace_form_gram(delta_rows, n):
    """Gram matrix of the trace form of a dual algebra, in Fractions.

    Entry (i, j) is tr(B_i B_j), with B_i the i-th n x n column block of
    the comultiplication matrix, summed entry by entry over the
    unscaled coefficients.  In characteristic zero its rank is the
    dimension of the semisimple quotient.
    """
    blocks = [[[Fraction(row[i * n + b]) for b in range(n)] for row in delta_rows] for i in range(n)]
    gram = []
    for bi in blocks:
        gram_row = []
        for bj in blocks:
            tr = Fraction(0)
            for a in range(n):
                for b in range(n):
                    tr += bi[a][b] * bj[b][a]
            gram_row.append(tr)
        gram.append(gram_row)
    return gram


def nondegenerate_chain_complex(sset):
    """Boundary matrices on nondegenerate simplices, degenerate faces dropped.

    Returns (names per level, boundary list) where boundary[n] maps
    level n to level n-1 as a dense integer matrix (rows index level n).
    """
    d = sset.dimension_bound
    degenerate = [set() for _ in range(d + 1)]
    for (n, _j), smap in sset.degeneracies.items():
        for img in smap.values():
            degenerate[n + 1].add(img)
    nd = [[s for s in sset.levels[n] if s not in degenerate[n]] for n in range(d + 1)]
    index = [{s: i for i, s in enumerate(level)} for level in nd]
    boundaries = []
    for n in range(1, d + 1):
        mat = [[0] * len(nd[n - 1]) for _ in nd[n]]
        for r, s in enumerate(nd[n]):
            sign = 1
            for i in range(n + 1):
                target = sset.faces[(n, i)][s]
                if target in index[n - 1]:
                    mat[r][index[n - 1][target]] += sign
                sign = -sign
        boundaries.append(mat)
    return nd, boundaries


def direct_homology(sset, top_degree):
    """Simplicial homology as (betti, sorted torsion) pairs, degrees 0..N."""
    nd, boundaries = nondegenerate_chain_complex(sset)
    out = []
    for n in range(top_degree + 1):
        dim = len(nd[n])
        rank_in = rational_rank(boundaries[n - 1]) if n >= 1 else 0
        rank_out = rational_rank(boundaries[n])
        divs = naive_smith_divisors(boundaries[n])
        betti = dim - rank_in - rank_out
        torsion = sorted(dv for dv in divs if dv > 1)
        out.append((betti, tuple(torsion)))
    return out


def cone_is_acyclic(dom_sset, cod_sset, level_maps, top_degree):
    """Whether the induced map on direct nondegenerate chains has acyclic cone.

    ``level_maps`` sends names to names levelwise; degenerate images of
    nondegenerate simplices contribute zero.
    """
    nd_dom, b_dom = nondegenerate_chain_complex(dom_sset)
    nd_cod, b_cod = nondegenerate_chain_complex(cod_sset)
    index_cod = [{s: i for i, s in enumerate(level)} for level in nd_cod]
    phi = []
    for n in range(dom_sset.dimension_bound + 1):
        mat = [[0] * len(nd_cod[n]) for _ in nd_dom[n]]
        for r, s in enumerate(nd_dom[n]):
            img = level_maps[n][s]
            if img in index_cod[n]:
                mat[r][index_cod[n][img]] = 1
        phi.append(mat)
    d = dom_sset.dimension_bound
    ranks = [len(nd_cod[n]) + (len(nd_dom[n - 1]) if n >= 1 else 0) for n in range(d + 1)]
    cone = []
    for n in range(1, d + 1):
        rows = []
        pad = len(nd_dom[n - 2]) if n >= 2 else 0
        for row in b_cod[n - 1]:
            rows.append(list(row) + [0] * pad)
        for r in range(len(nd_dom[n - 1])):
            left = phi[n - 1][r]
            right = [-v for v in b_dom[n - 2][r]] if n >= 2 else []
            rows.append(list(left) + right)
        cone.append(rows)
    for n in range(top_degree + 1):
        dim = ranks[n]
        rank_in = rational_rank(cone[n - 1]) if n >= 1 else 0
        rank_out = rational_rank(cone[n])
        divs = naive_smith_divisors(cone[n])
        if dim - rank_in - rank_out != 0 or any(dv > 1 for dv in divs):
            return False
    return True
