"""Independent oracles the tests check the package against.

Everything here is deliberately written from scratch on plain ints so
the dual-route checks stay honest: a naive Smith diagonalization, direct
simplicial homology on nondegenerate simplices, the character search and
idempotent lift over the fraction field in plain Fractions (or ints mod
p), and small brute-force helpers.  None of it imports the package's
linear algebra; the rational eigenvalues use the package's integer root
finder, which ``test_polyroots`` checks on its own.  The seeded random
lattices that the lattice tests draw are built with the package's
``Lattice.from_rows`` and ``saturate``, and the big-entry coalgebras
with its corpus generator and ``conjugate``.  The package's former
purity test, ``purity_by_reduction``, factors the package's Smith
divisors and reduces the cleared basis mod each of their primes.

The exceptions are the last seven sections: the package's former
tensor-square routines (subcoalgebra test, filtration compatibility,
wedge), which work in the n^2-dimensional ambient space C (x) C through
Kronecker products, Hermite forms and ``Lattice.solve``; its former
stage-by-stage and part-by-part validation of filtrations and component
decompositions on n x n blocks of Delta; its former constructions on
the dense n x n^2 matrix of Delta, its former map check on lists
formed by ``sandwich``, and its former coradical retraction
W^-1 * image on the stacked component bases; its former Hermite, Smith and membership
kernels on each ring's own Fraction arithmetic; its former per-prime
binomial test on the quotient by the nilradical, with A/pA, its
products and its Frobenius formed on the dense table
``a.mult.reduce_mod(p)``; its former binomial check with every
Frobenius row taken by binary powering; and its former saturation (the
left kernel of a right kernel) and quotient projection, section and
basis section, each from its own Hermite transform over the ring.  Their logic is kept unchanged so the current
versions can be compared with them bit for bit, and they use the
package's ``Lattice``, ``Matrix``, block products, dense ``Coalgebra``
and ``AlgebraPresentation`` constructors and ring methods, which
``test_lattice``, ``test_matrix``, ``test_tensor_blocks``,
``test_coalgebra`` and ``test_rings`` check on their own.  The
brute-force group-like scan reads the coalgebra only through its public
``comultiply`` and ``counit_of``.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from purecoalg.numtheory import xgcd
from purecoalg.polyroots import integer_roots


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


# --- linear algebra over Q (p is None) or F_p, on plain lists -------------


def _conv(v, p):
    return Fraction(v) if p is None else v % p


def _red(v, p):
    return v if p is None else v % p


def _matmul(a, b, p):
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            if x:
                acc = [u + x * v for u, v in zip(acc, brow)]
        out.append([_red(v, p) for v in acc])
    return out


def rref(rows, p=None):
    """Nonzero rows of the reduced row echelon form over Q (p None) or F_p."""
    a = [[_conv(v, p) for v in r] for r in rows]
    ncols = len(a[0]) if a else 0
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][col] if p is None else pow(a[r][col], -1, p)
        a[r] = [_red(v * inv, p) for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                c = a[i][col]
                a[i] = [_red(x - c * y, p) for x, y in zip(a[i], a[r])]
        r += 1
    return a[:r]


def _pivots(echelon):
    return [next(j for j, v in enumerate(row) if v) for row in echelon]


def _left_nullspace(rows, p):
    """Basis of { x : x * A = 0 } for a square matrix A given by its rows."""
    k = len(rows)
    echelon = rref([list(col) for col in zip(*rows)], p)
    pivots = _pivots(echelon)
    basis = []
    for free in range(k):
        if free in pivots:
            continue
        x = [_conv(int(i == free), p) for i in range(k)]
        for row, pc in zip(echelon, pivots):
            x[pc] = _red(-row[free], p)
        basis.append(x)
    return basis


def _charpoly(a, p):
    """det(x I - A) of an integer matrix by Faddeev-LeVerrier, descending.

    The divisions by 1, ..., n are exact over Z; mod p they need p > n.
    """
    n = len(a)
    if p is not None and p <= n:
        raise ValueError("Faddeev-LeVerrier divides by the degree")
    coeffs = [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        am = _matmul(a, m, p)
        m = [[_red(am[i][j] + (coeffs[-1] if i == j else 0), p) for j in range(n)] for i in range(n)]
        trace = sum(row[i] for i, row in enumerate(_matmul(a, m, p)))
        if p is None:
            quotient, remainder = divmod(-trace, k)
            assert remainder == 0
            coeffs.append(quotient)
        else:
            coeffs.append(-trace * pow(k, -1, p) % p)
    return coeffs


def _eigenvalues(a, p):
    """Eigenvalues in Q (p None) or F_p of a square matrix, ascending."""
    if p is not None:
        coeffs = _charpoly(a, p)
        return [r for r in range(p) if _horner(coeffs, r) % p == 0]
    scale = math.lcm(*(v.denominator for row in a for v in row))
    coeffs = _charpoly([[int(v * scale) for v in row] for row in a], None)
    return [Fraction(r, scale) for r in integer_roots(coeffs)]


def _horner(coeffs, x):
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def character_tuples(delta_rows, n, p=None):
    """Characters of the dual algebra, searched over the fraction field.

    The joint eigenspaces of the column blocks of Delta are split
    recursively in reduced echelon form over Q (or F_p); each surviving
    branch is one character, given by its eigenvalue tuple.
    """
    delta = [[_conv(v, p) for v in row] for row in delta_rows]
    spaces = [([[_conv(int(i == j), p) for j in range(n)] for i in range(n)], ())] if n else []
    for i in range(n):
        block = [row[i * n : (i + 1) * n] for row in delta]
        nxt = []
        for basis, prefix in spaces:
            image = _matmul(basis, block, p)
            restriction = [[row[pc] for pc in _pivots(basis)] for row in image]
            if _matmul(restriction, basis, p) != image:
                raise AssertionError("joint eigenspace lost invariance")
            for lam in _eigenvalues(restriction, p):
                shifted = [[_red(v - (lam if r == s else 0), p) for s, v in enumerate(row)]
                           for r, row in enumerate(restriction)]
                kernel = _left_nullspace(shifted, p)
                if kernel:
                    nxt.append((rref(_matmul(kernel, basis, p), p), prefix + (lam,)))
        spaces = nxt
    return [prefix for _, prefix in spaces]


def group_likes_bruteforce(c, bound=10**7):
    """Every group-like of a coalgebra over F_p, in ascending order, by an exhaustive scan of F_p^n.

    A vector g is kept when eps(g) = 1 and Delta(g) = g (x) g, read
    through the public ``counit_of`` and ``comultiply`` only, so the scan
    shares no code with the eigenvector search it checks.
    """
    if c.ring.kind != "Fp":
        raise ValueError("brute force enumeration needs a prime field")
    p, n = c.ring.p, c.rank
    if p**n > bound:
        raise ValueError(f"{p}^{n} exceeds the enumeration bound {bound}")
    return tuple(g for g in itertools.product(range(p), repeat=n)
                 if c.counit_of(list(g)) == 1 and c.comultiply(list(g)) == [x * y % p for x in g for y in g])


def _dual_multiply(delta, x, y, p):
    outer = [a * b for a in x for b in y]
    return [_red(sum(v * w for v, w in zip(row, outer) if v and w), p) for row in delta]


def component_spans(delta_rows, n, group_likes, p=None):
    """Reduced echelon span over Q (or F_p) of each group-like's component.

    The primitive idempotent e of the dual algebra with e(g) = 1 and
    e(h) = 0 at the other group-likes is found by interpolation and the
    lifting e <- 3e^2 - 2e^3; the component is the 1-eigenspace of its
    dual action x -> (id (x) e) Delta(x).
    """
    delta = [[_conv(v, p) for v in row] for row in delta_rows]
    gs = [[_conv(x, p) for x in g] for g in group_likes]
    steps = max(1, math.ceil(math.log2(max(2, n))) + 1)
    out = []
    for idx in range(len(gs)):
        system = rref([g + [_conv(int(h == idx), p)] for h, g in enumerate(gs)], p)
        if any(not any(row[:n]) for row in system):
            raise AssertionError("character interpolation must be solvable over the field")
        e = [_conv(0, p)] * n
        for row, pc in zip(system, _pivots(system)):
            e[pc] = row[n]
        for _ in range(steps):
            e2 = _dual_multiply(delta, e, e, p)
            e3 = _dual_multiply(delta, e2, e, p)
            e = [_red(3 * a - 2 * b, p) for a, b in zip(e2, e3)]
        if _dual_multiply(delta, e, e, p) != e:
            raise AssertionError("idempotent lifting did not converge")
        shifted = [[_red(sum(v * w for v, w in zip(row[j * n : (j + 1) * n], e) if v and w) - (i == j), p)
                    for j in range(n)] for i, row in enumerate(delta)]
        out.append(rref(_left_nullspace(shifted, p), p))
    return out


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


def cone_is_acyclic(dom_sset, cod_sset, level_maps, top_degree, unit=lambda t: t == 1):
    """Whether the induced map on direct nondegenerate chains has acyclic cone.

    ``level_maps`` sends names to names levelwise; degenerate images of
    nondegenerate simplices contribute zero.  Over a ring R in which the
    integer t is a unit exactly when unit(t), the cone is acyclic through
    degree N when its integral homology there has no free part and only
    torsion orders that are units: by universal coefficients H_n(C; R)
    is H_n(C) (x) R plus Tor(H_{n-1}(C), R), for R flat over Z or a
    field Z/p.
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
        if dim - rank_in - rank_out != 0 or any(not unit(dv) for dv in divs if dv > 1):
            return False
    return True


def simplicial_failure_locations(obj):
    """(check name, first-failure location) pairs of a simplicial validator, "" where the check holds.

    ``obj`` is a simplicial set, a simplicial coalgebra over Z, or a map
    of either.  Every simplicial identity (May, Def. 1.1) is written out
    as the formula it is and evaluated one simplex at a time on the
    name dicts, or one identity at a time on plain integer matrix
    products; levels and levelwise maps of coalgebras go through
    ``coalgebra_axiom_locations`` and ``map_axiom_locations``.
    """
    if hasattr(obj, "maps"):
        return _sset_map_locations(obj)
    if hasattr(obj, "domain"):
        return _scoalg_map_locations(obj)
    if hasattr(obj, "ring"):
        return _scoalg_locations(obj)
    return _sset_locations(obj)


def _sset_locations(x):
    d, X = x.dimension_bound, x.levels

    def face(n, i, s):
        return x.faces[(n, i)][s]

    def degen(n, j, s):
        return x.degeneracies[(n, j)][s]

    dup = next((f"level {n}" for n, level in enumerate(X) if len(set(level)) != len(level)), "")
    out = [("level names distinct", dup)]
    total = ""
    for n in range(1, d + 1):
        for i in range(n + 1):
            if (n, i) not in x.faces:
                total = total or f"missing face d_{i} on level {n}"
            for s in X[n] if (n, i) in x.faces else ():
                if s not in x.faces[(n, i)] or face(n, i, s) not in X[n - 1]:
                    total = total or f"face d_{i} at {s!r} (level {n})"
    for n in range(d):
        for j in range(n + 1):
            if (n, j) not in x.degeneracies:
                total = total or f"missing degeneracy s_{j} on level {n}"
            for s in X[n] if (n, j) in x.degeneracies else ():
                if s not in x.degeneracies[(n, j)] or degen(n, j, s) not in X[n + 1]:
                    total = total or f"degeneracy s_{j} at {s!r} (level {n})"
    # a d-truncation has faces d_i: X_n -> X_{n-1} for 0 <= i <= n <= d, n >= 1, and degeneracies
    # s_j: X_n -> X_{n+1} for 0 <= j <= n < d; a map recorded under any other key is no structure map
    total = total or next((f"unexpected face d_{i} on level {n}" for n, i in x.faces
                           if not (0 <= i <= n and 1 <= n <= d)), "")
    total = total or next((f"unexpected degeneracy s_{j} on level {n}" for n, j in x.degeneracies
                           if not 0 <= j <= n < d), "")
    out.append(("structure maps total", total))
    if total:
        return out
    out.append(("face-face identities", next(
        (f"d_{i} d_{j} at {s!r} (level {n})" for n in range(2, d + 1) for j in range(n + 1) for i in range(j)
         for s in X[n] if face(n - 1, i, face(n, j, s)) != face(n - 1, j - 1, face(n, i, s))), "")))
    out.append(("degeneracy-degeneracy identities", next(
        (f"s_{i} s_{j} at {s!r} (level {n})" for n in range(d - 1) for j in range(n + 1) for i in range(j + 1)
         for s in X[n] if degen(n + 1, i, degen(n, j, s)) != degen(n + 1, j + 1, degen(n, i, s))), "")))

    def face_of_degeneracy(n, i, j, s):
        if i in (j, j + 1):
            return s
        if i < j:
            return degen(n - 1, j - 1, face(n, i, s))
        return degen(n - 1, j, face(n, i - 1, s))

    out.append(("face-degeneracy identities", next(
        (f"d_{i} s_{j} at {s!r} (level {n})" for n in range(d) for j in range(n + 1) for i in range(n + 2)
         for s in X[n] if face(n + 1, i, degen(n, j, s)) != face_of_degeneracy(n, i, j, s)), "")))
    return out


def _int_product(a, b):
    return [[sum(u * v for u, v in zip(row, col)) for col in zip(*b)] for row in a]


def _first_axiom_failure(names, locations):
    return next((f"{name}: FAIL at {loc}" for name, loc in zip(names, locations) if loc), "")


_COALGEBRA_CHECKS = ("cocommutativity", "coassociativity", "counit law (left)", "counit law (right)")
_MAP_CHECKS = ("comultiplication square", "counit triangle")


class _LevelMap:
    def __init__(self, domain, codomain, matrix):
        self.domain, self.codomain, self.matrix = domain, codomain, matrix


def _map_failure(domain, codomain, matrix):
    return _first_axiom_failure(_MAP_CHECKS, map_axiom_locations(_LevelMap(domain, codomain, matrix)))


def _scoalg_locations(c):
    d, F, S = c.dimension_bound, c.faces, c.degeneracies
    levels = next((f"level {n}: {bad}" for n, level in enumerate(c.levels)
                   for bad in [_first_axiom_failure(_COALGEBRA_CHECKS, coalgebra_axiom_locations(
                       level.delta.rows, level.counit, level.rank))] if bad), "")
    maps = next((f"face d_{i} on level {n}: {bad}" for (n, i), mat in sorted(F.items())
                 for bad in [_map_failure(c.levels[n], c.levels[n - 1], mat)] if bad), "")
    maps = maps or next((f"degeneracy s_{j} on level {n}: {bad}" for (n, j), mat in sorted(S.items())
                         for bad in [_map_failure(c.levels[n], c.levels[n + 1], mat)] if bad), "")

    def path(*steps):
        out = steps[0].rows
        for mat in steps[1:]:
            out = _int_product(out, mat.rows)
        return out

    def face_of_degeneracy(n, i, j):
        if i in (j, j + 1):
            rank = c.levels[n].rank
            return [[int(a == b) for b in range(rank)] for a in range(rank)]
        if i < j:
            return path(F[(n, i)], S[(n - 1, j - 1)])
        return path(F[(n, i - 1)], S[(n - 1, j)])

    identities = next(
        (f"d_{i} d_{j} on level {n}" for n in range(2, d + 1) for j in range(n + 1) for i in range(j)
         if path(F[(n, j)], F[(n - 1, i)]) != path(F[(n, i)], F[(n - 1, j - 1)])), "")
    identities = identities or next(
        (f"s_{i} s_{j} on level {n}" for n in range(d - 1) for j in range(n + 1) for i in range(j + 1)
         if path(S[(n, j)], S[(n + 1, i)]) != path(S[(n, i)], S[(n + 1, j + 1)])), "")
    identities = identities or next(
        (f"d_{i} s_{j} on level {n}" for n in range(d) for j in range(n + 1) for i in range(n + 2)
         if path(S[(n, j)], F[(n + 1, i)]) != face_of_degeneracy(n, i, j)), "")
    return [("levels are coalgebras", levels), ("structure maps are coalgebra maps", maps),
            ("simplicial identities", identities)]


def _sset_map_locations(m):
    dom, cod, maps = m.domain, m.codomain, m.maps
    total = next((f"level {n} at {s!r}" for n, level in enumerate(dom.levels) for s in level
                  if s not in maps[n] or maps[n][s] not in cod.levels[n]), "")
    out = [("levelwise totality", total)]
    if total:
        return out
    square = next((f"face d_{i} at {s!r} (level {n})" for (n, i), fmap in dom.faces.items() for s in dom.levels[n]
                   if maps[n - 1][fmap[s]] != cod.faces[(n, i)][maps[n][s]]), "")
    square = square or next(
        (f"degeneracy s_{j} at {s!r} (level {n})" for (n, j), smap in dom.degeneracies.items() for s in dom.levels[n]
         if maps[n + 1][smap[s]] != cod.degeneracies[(n, j)][maps[n][s]]), "")
    return out + [("commutes with structure maps", square)]


def _scoalg_map_locations(f):
    dom, cod, levels = f.domain, f.codomain, f.levels
    bad = next((f"level {n}: {bad}" for n, mat in enumerate(levels)
                for bad in [_map_failure(dom.levels[n], cod.levels[n], mat)] if bad), "")
    out = [("levelwise coalgebra maps", bad)]
    if bad:
        return out

    def commutes(mat, n, target, cod_mat):
        return _int_product(mat.rows, levels[target].rows) == _int_product(levels[n].rows, cod_mat.rows)

    square = next((f"face d_{i} on level {n}" for (n, i), mat in dom.faces.items()
                   if not commutes(mat, n, n - 1, cod.faces[(n, i)])), "")
    square = square or next((f"degeneracy s_{j} on level {n}" for (n, j), mat in dom.degeneracies.items()
                             if not commutes(mat, n, n + 1, cod.degeneracies[(n, j)])), "")
    return out + [("simplicial naturality", square)]


def algebra_axiom_locations(mult_rows, unit, n, p=None):
    """(commutativity, associativity, unit law) first-failure locations, "" when they hold.

    The products are formed one triple at a time, as plain vector
    products e_i * e_j = row i*n + j, and compared after reduction mod p
    when p is given.
    """
    def red(v):
        return v % p if p else v

    def multiply(x, y):
        acc = [0] * n
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                if a and b:
                    acc = [s + a * b * m for s, m in zip(acc, mult_rows[i * n + j])]
        return acc

    def differ(x, y):
        return any(red(a - b) for a, b in zip(x, y))

    basis = [[int(t == s) for t in range(n)] for s in range(n)]
    comm = next((f"(i,j)=({i},{j})" for i in range(n) for j in range(i + 1, n)
                 if differ(mult_rows[i * n + j], mult_rows[j * n + i])), "")
    assoc = next((f"(i,j,k)=({i},{j},{k})" for i in range(n) for j in range(n) for k in range(n)
                  if differ(multiply(mult_rows[i * n + j], basis[k]),
                            multiply(basis[i], mult_rows[j * n + k]))), "")
    unit_law = next((f"basis {i}" for i in range(n) if differ(multiply(unit, basis[i]), basis[i])), "")
    return comm, assoc, unit_law


# --- random lattices ----------------------------------------------------------


def random_lattices(seed: int, count: int, ambient_max: int = 6):
    """Mixed pure and impure lattices over Z for purity cross-checks."""
    from purecoalg import ZZ, Lattice

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, ambient_max)
        r = rng.randint(0, n)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]
        if rows and rng.random() < 0.5:
            idx = rng.randrange(len(rows))
            scale = rng.randint(2, 6)
            rows[idx] = [scale * v for v in rows[idx]]
        out.append(Lattice.from_rows(ZZ, n, rows))
    return out


def purity_by_reduction(lat):
    """(flag, witness) by the package's former purity test: Smith divisors, then reduction mod each of their primes.

    The flag says every elementary divisor of the cleared basis is a
    unit; the witness is the least prime, among the primes of the
    divisors' S-free parts, at which the reduced basis loses rank.  The
    two halves must agree.
    """
    from purecoalg import elementary_divisors
    from purecoalg.numtheory import factorize

    if lat.ring.is_field or lat.rank == 0:
        return True, None
    ring = lat.ring
    basis = lat._integer_basis()
    divs = elementary_divisors(basis)
    unit_ok = all(ring.is_unit(d) for d in divs)
    primes = set()
    for d in divs:
        n = int(ring.canonicalize_unit(d)[1])
        if n != 1:
            primes.update(factorize(n))
    witness = next((p for p in sorted(primes) if basis.reduce_mod(p).rank() < lat.rank), None)
    assert unit_ok == (witness is None), "purity tests disagree: divisors vs reduction mod p"
    return unit_ok, witness


def random_pure_lattices(seed: int, count: int, ambient: int):
    """Saturated lattices over Z of random rank in one ambient rank."""
    from purecoalg import ZZ, Lattice

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        r = rng.randint(0, ambient)
        rows = [[rng.randint(-4, 4) for _ in range(ambient)] for _ in range(r)]
        out.append(Lattice.from_rows(ZZ, ambient, rows).saturate())
    return out


def big_entry_coalgebras(seed: int, count: int):
    """Rank <= 5 corpus coalgebras over Z conjugated by a product of 64 seeded unimodular matrices.

    Each factor adds about 1.5 bits to the stored entries, so a
    coalgebra of rank 3 or more has entries past 2**64.
    """
    from purecoalg import ZZ, conjugate
    from purecoalg.corpus import generate_coalgebras, random_unimodular

    rng = random.Random(seed)
    out = []
    for entry in generate_coalgebras(seed, count, max_rank=5):
        c = entry.coalgebra
        w = random_unimodular(rng, ZZ, c.rank)
        for _ in range(63):
            w = w * random_unimodular(rng, ZZ, c.rank)
        out.append(conjugate(c, w))
    return out


def off_basis_matrix(ring, n: int):
    """-U for U upper unitriangular with every entry on and above the diagonal 1, unimodular over every ring."""
    from purecoalg import Matrix

    return Matrix(ring, [[-ring.one if j >= i else ring.zero for j in range(n)] for i in range(n)], n)


def off_basis(c):
    """c conjugated by ``off_basis_matrix``: its new basis vectors -(e_i + ... + e_{n-1}) have counit -eps(...).

    A coalgebra whose group-likes are basis vectors, such as a set-like
    one or a sum of duals of Z[x]/(x^k), then has no group-like basis
    vector, so its group-likes can only come from the character search.
    """
    from purecoalg import conjugate

    return conjugate(c, off_basis_matrix(c.ring, c.rank))


# --- former n^2-ambient routines ---------------------------------------------


def kron_is_subcoalgebra(lat, c):
    """Delta(L) inside the saturation of the Kronecker lattice L (x) L."""
    square = lat.kron(lat)
    if all(square.contains(c.comultiply(row)) for row in lat.basis.rows):
        return True
    if lat.is_pure()[0]:
        return False
    saturated = square.saturate()
    return all(saturated.contains(c.comultiply(row)) for row in lat.basis.rows)


def stage_tensor_sum(stages, n):
    """The lattice sum over i of V_{min(n-i, last)} (x) V_{min(i, last)}."""
    from purecoalg import Lattice

    seen = set()
    rows = []
    for i in range(n + 1):
        left = min(n - i, len(stages) - 1)
        right = min(i, len(stages) - 1)
        if (left, right) in seen:
            continue
        seen.add((left, right))
        rows.extend(stages[left].basis.kron(stages[right].basis).rows)
    return Lattice.from_rows(stages[0].ring, stages[0].ambient_rank ** 2, rows)


def kron_incompatible_stage(stages, c):
    """First stage n with Delta(V_n) outside sum_i V_{n-i} (x) V_i, or None."""
    for n, v in enumerate(stages):
        target = stage_tensor_sum(stages, n)
        if not all(target.contains(c.comultiply(row)) for row in v.basis.rows):
            return n
    return None


def kron_wedge(d, f, c):
    """Kernel of Delta * (P_D (x) P_F) for pure subcoalgebra lattices D and F."""
    from purecoalg.lattice import kernel_lattice

    proj_d, _ = d.complement_projection()
    proj_f, _ = f.complement_projection()
    return kernel_lattice(c.delta * proj_d.kron(proj_f))


# --- former block-product validation ------------------------------------------
#
# Filtration and component validation once ran stage by stage and part by
# part on n x n blocks of Delta: a subcoalgebra test per stage or part, the
# m + 2 products P_a^T X P_{m-1-a} per basis row of stage m, and membership
# and intersection tests for the components.  The subcoalgebra test itself
# once took two such products per basis row.  They are kept here, with
# the block helpers they ran on, so the adapted-basis support checks can be
# compared with them.


def delta_blocks(c, rows):
    """Delta(x) for each row x as an n x n integer block {j: [(k, v)]}, up to one nonzero integer."""
    from purecoalg.rings import cleared_rows

    for x in rows:
        acc = {}
        for a, block in zip(cleared_rows([x])[1][0], c.blocks):
            if a:
                for j, entries in block.items():
                    row = acc.setdefault(j, {})
                    for k, v in entries:
                        row[k] = row.get(k, 0) + a * v
        yield {j: list(row.items()) for j, row in acc.items()}


def sandwich(left, block, right, n):
    """The rows of left^T * X * right, None standing for the n x n identity.

    With left None only the rows of X * right from nonzero rows of X are
    returned, which is all a zero test needs.
    """
    width = n if right is None else (len(right[0]) if right else 0)
    image = {}
    for j, entries in block.items():
        row = [0] * width
        if right is None:
            for k, v in entries:
                row[k] = v
        else:
            for k, v in entries:
                row = [s + v * r for s, r in zip(row, right[k])]
        image[j] = row
    if left is None:
        return list(image.values())
    out = [[0] * width for _ in range(len(left[0]) if left else 0)]
    for j, row in image.items():
        for a, weight in enumerate(left[j]):
            if weight:
                out[a] = [s + weight * r for s, r in zip(out[a], row)]
    return out


def vanishes(rows, ring):
    """Whether every entry is zero, mod p over F_p."""
    return not any(v for row in rows for v in ring.reduce_row(row))


def block_is_subcoalgebra(lat, c):
    """Whether X P = 0 and P^T X = 0 for the block X of each basis row, P the integral projection of sat(L)."""
    proj, n = lat.integral_projection(), c.rank
    return all(vanishes(sandwich(None, x, proj, n), c.ring) and vanishes(sandwich(proj, x, None, n), c.ring)
               for x in delta_blocks(c, lat.basis.rows))


def block_incompatible_stage(stages, c):
    """First stage m with some P_a^T X P_{m-1-a} nonzero on a basis row of V_m, or None.

    P_a is the integral projection with kernel V_a and P_{-1} the
    identity; the stages must be pure and nested.
    """
    proj = [None] + [v.integral_projection() for v in stages]
    for m, v in enumerate(stages):
        for x in delta_blocks(c, v.basis.rows):
            for a in range(-1, m + 1):
                if not vanishes(sandwich(proj[a + 1], x, proj[m - a], c.rank), c.ring):
                    return m
    return None


def decomposition_failure(c, parts):
    """The first failing check on (group-like, component) parts, as its message, or None.

    The checks and their order are the package's: the stacked bases
    must have an independent sum, fill the coalgebra and be unimodular
    (which makes each part pure); then per part the subcoalgebra test,
    its own group-like, and no second group-like.  Independence is
    tested with ``Lattice.intersect``, part by part against the sum of
    the others (for two parts, the pairwise intersection).
    """
    from purecoalg import Lattice, Matrix, elementary_divisors, is_subcoalgebra

    parts = sorted(parts, key=lambda p: tuple(p[0]))
    for idx, (_, lat) in enumerate(parts):
        others = Lattice.zero(c.ring, c.rank)
        for j, (_, other) in enumerate(parts):
            if j != idx:
                others = others.add(other)
        if lat.intersect(others).rank != 0:
            return "components intersect nontrivially"
    stacked = [row for _, lat in parts for row in lat.basis.rows]
    if len(stacked) != c.rank:
        return "components do not fill the coalgebra"
    divs = elementary_divisors(Matrix(c.ring, stacked, c.rank))
    if len(divs) != c.rank or not all(c.ring.is_unit(d) for d in divs):
        return "stacked component basis is not unimodular"
    for idx, (g, lat) in enumerate(parts):
        if not is_subcoalgebra(lat, c):
            return f"component {idx} is not a subcoalgebra"
        if not lat.contains(list(g)):
            return f"component {idx} misses its group-like"
        for h, _ in parts:
            if tuple(h) != tuple(g) and lat.contains(list(h)):
                return f"component {idx} contains a second group-like"
    return None


# --- former dense-Delta constructions ------------------------------------------
#
# The package once stored Delta as the dense n x n^2 matrix and built every
# coalgebra from such rows.  These are those constructions, kept unchanged
# apart from taking Delta through the public ``delta`` view, so the block
# versions can be compared with them entry for entry.


def _post(ring, row):
    return [v % ring.p for v in row] if ring.kind == "Fp" else row


def _nonzero(row):
    return [(j, v) for j, v in enumerate(row) if v]


def dense_set_like(ring, names):
    from purecoalg import Coalgebra, Matrix

    names = list(names)
    n = len(names)
    rows = []
    for i in range(n):
        row = [ring.zero] * (n * n)
        row[i * n + i] = ring.one
        rows.append(row)
    return Coalgebra(ring, n, Matrix(ring, rows, n * n), [ring.one] * n, basis_names=names)


def dense_dual_of_algebra(a):
    from purecoalg import Coalgebra

    names = [s[:-1] if s.endswith("*") else f"{s}*" for s in a.basis_names] if a.basis_names else None
    return Coalgebra(a.ring, a.rank, a.mult.transpose(), a.unit, basis_names=names)


def dense_dual_algebra(c):
    """The dual algebra as the former construction built it: the dense Delta view, transposed."""
    from purecoalg import AlgebraPresentation

    names = [s[:-1] if s.endswith("*") else f"{s}*" for s in c.basis_names] if c.basis_names else None
    return AlgebraPresentation(c.ring, c.rank, c.delta.transpose(), c.counit, basis_names=names)


def dense_tensor(c, d):
    from purecoalg import Coalgebra, Matrix

    ring = c.ring
    nc, nd = c.rank, d.rank
    n = nc * nd
    c_rows, d_rows = c.delta.rows, d.delta.rows
    rows = []
    for a in range(nc):
        citems = _nonzero(c_rows[a])
        for b in range(nd):
            ditems = _nonzero(d_rows[b])
            row = [ring.zero] * (n * n)
            for jk, v in citems:
                j, k = divmod(jk, nc)
                for ef, w in ditems:
                    e, f = divmod(ef, nd)
                    col = (j * nd + e) * n + (k * nd + f)
                    row[col] = row[col] + v * w
            rows.append(_post(ring, row))
    counit = _post(ring, [ec * ed for ec in c.counit for ed in d.counit])
    names = None
    if c.basis_names and d.basis_names:
        names = [f"{s}(x){t}" for s in c.basis_names for t in d.basis_names]
    return Coalgebra(ring, n, Matrix(ring, rows, n * n), counit, basis_names=names)


def dense_direct_sum(c, d):
    from purecoalg import Coalgebra, Matrix

    ring = c.ring
    nc, nd = c.rank, d.rank
    n = nc + nd
    rows = []
    for src, size, at in ((c, nc, 0), (d, nd, nc)):
        for drow in src.delta.rows:
            row = [ring.zero] * (n * n)
            for jk, v in _nonzero(drow):
                j, k = divmod(jk, size)
                row[(at + j) * n + (at + k)] = v
            rows.append(row)
    names = None
    if c.basis_names and d.basis_names:
        names = list(c.basis_names) + list(d.basis_names)
    return Coalgebra(ring, n, Matrix(ring, rows, n * n), list(c.counit) + list(d.counit), basis_names=names)


def dense_conjugate(c, w):
    from purecoalg import Coalgebra, Matrix

    winv = w.inverse()
    delta = w * c.delta * winv.kron(winv)
    counit = (w * Matrix(c.ring, [[e] for e in c.counit], 1)).rows
    return Coalgebra(c.ring, c.rank, delta, [r[0] for r in counit])


def dense_restrict(lat, c):
    """Structure constants of a pure subcoalgebra lattice, solved against the product basis b_j (x) b_k."""
    from purecoalg import Coalgebra, Matrix, solve_in_rows

    prod_basis = lat.basis.kron(lat.basis)
    rows = [solve_in_rows(prod_basis, c.comultiply(row)) for row in lat.basis.rows]
    counit = [c.counit_of(row) for row in lat.basis.rows]
    return Coalgebra(c.ring, lat.rank, Matrix(c.ring, rows, lat.rank * lat.rank), counit)


def coalgebra_axiom_locations(delta_rows, counit, n, p=None):
    """(cocommutativity, coassociativity, left counit, right counit) first-failure locations.

    Each coefficient of both sides is formed on its own from the dense
    rows, entry (i, j*n + k) the coefficient of e_j (x) e_k in Delta(e_i),
    and the first failing basis index is reported with its smallest slot;
    "" when the law holds.
    """
    def red(v):
        return v % p if p else v

    def d(i, j, k):
        return delta_rows[i][j * n + k]

    idx = range(n)
    cocomm = next((f"(i,j,k)=({i},{j},{k})" for i in idx for j in idx for k in range(j + 1, n)
                   if red(d(i, j, k) - d(i, k, j))), "")
    coassoc = next((f"basis {i}, tensor slot {(a, b, t)}" for i in idx for a in idx for b in idx for t in idx
                    if red(sum(d(i, j, t) * d(j, a, b) for j in idx) - sum(d(i, a, k) * d(k, b, t) for k in idx))),
                   "")
    left = next((f"basis {i}" for i in idx for t in idx
                 if red(sum(d(i, j, t) * counit[j] for j in idx) - (i == t))), "")
    right = next((f"basis {i}" for i in idx for t in idx
                  if red(sum(d(i, t, k) * counit[k] for k in idx) - (i == t))), "")
    return cocomm, coassoc, left, right


def map_axiom_locations(f, p=None):
    """(comultiplication square, counit triangle) first-failure locations of a map, from dense rows."""
    def red(v):
        return v % p if p else v

    nc, nd = f.domain.rank, f.codomain.rank
    dom, cod, F = f.domain.delta.rows, f.codomain.delta.rows, f.matrix.rows
    square = next((f"basis {i}, tensor slot {(a, b)}" for i in range(nc) for a in range(nd) for b in range(nd)
                   if red(sum(dom[i][j * nc + k] * F[j][a] * F[k][b] for j in range(nc) for k in range(nc))
                          - sum(F[i][m] * cod[m][a * nd + b] for m in range(nd)))), "")
    triangle = next((f"basis {i}" for i in range(nc)
                     if red(sum(F[i][m] * f.codomain.counit[m] for m in range(nd)) - f.domain.counit[i])), "")
    return square, triangle


def sandwich_map_report(f):
    """The package's former ``validate_map``: the square at each e_i formed by ``sandwich`` on n x n blocks.

    With F = F' / E cleared, D_D * F'^T X_i F' - D_C * E * sum_m F'_im Y_m
    is formed entry by entry as lists, reduced with the ring, and the
    first basis index with a nonzero entry is reported at its smallest
    tensor slot; the counit triangle is the package's.
    """
    from purecoalg.coalgebra import ValidationReport
    from purecoalg.rings import cleared_rows

    ring = f.domain.ring
    nd = f.codomain.rank
    e, F = cleared_rows(f.matrix.rows)
    lhs_scale, rhs_scale = f.codomain.denom, f.domain.denom * e
    report = ValidationReport()

    square_loc = ""
    for i, x in enumerate(f.domain.blocks):
        diff = [[lhs_scale * v for v in row] for row in sandwich(F, x, F, f.domain.rank)]
        for m, a in enumerate(F[i]):
            for j, entries in f.codomain.blocks[m].items() if a else ():
                row = diff[j]
                for k, v in entries:
                    row[k] -= rhs_scale * a * v
        bad = next((at for at, v in enumerate(ring.reduce_row([v for row in diff for v in row])) if v), None)
        if bad is not None:
            square_loc = f"basis {i}, tensor slot {divmod(bad, nd)}"
            break
    report.add("comultiplication square", not square_loc, square_loc)

    triangle = [f.codomain.counit_of(row) - eps for row, eps in zip(f.matrix.rows, f.domain.counit)]
    bad = next((i for i, v in enumerate(ring.reduce_row(triangle)) if v), None)
    tri_loc = "" if bad is None else f"basis {bad}"
    report.add("counit triangle", not tri_loc, tri_loc)
    return report


def inverse_retraction(decomposition):
    """The package's former ``split_coradical`` matrix: W^-1 * image on a component decomposition.

    W stacks the component bases, and the image of a basis row x of the
    component of g is eps(x) * g, so W^-1 * image sends each component
    to eps times its group-like.
    """
    from purecoalg import Matrix

    c = decomposition.coalgebra
    ring, n = c.ring, c.rank
    basis_rows, image_rows = [], []
    for g, lat in decomposition.parts:
        for row in lat.basis.rows:
            basis_rows.append(row)
            eps = c.counit_of(row)
            image_rows.append(ring.reduce_row([eps * x for x in g]))
    return Matrix(ring, basis_rows, n).inverse() * Matrix(ring, image_rows, n)


# --- former Fraction kernels ---------------------------------------------------
#
# Hermite and Smith elimination and lattice membership once ran on each
# ring's own arithmetic: Fractions with ``gcdex``, ``try_exact_div`` and
# ``mod_reduce`` over Q and Z[S^-1].  They are kept here unchanged so the
# integer kernels with their boundary pass can be compared with them, and
# so are those Euclidean operations, which the package keeps on Z and
# F_p only.


class _FractionDivision:
    """The Euclidean operations Q and Z[S^-1] once carried."""

    def __init__(self, ring):
        self.ring = ring

    def exact_div(self, b, a):
        """b / a within the ring; raises ZeroDivisionError or ValueError."""
        q = self.try_exact_div(b, a)
        if q is None:
            raise ValueError(f"{b} is not divisible by {a} in {self.ring}")
        return q


class _RationalDivision(_FractionDivision):
    @staticmethod
    def try_exact_div(b, a):
        if a == 0:
            return Fraction(0) if b == 0 else None
        return Fraction(b) / a

    @staticmethod
    def gcdex(a, b):
        if a != 0:
            return Fraction(1), 1 / Fraction(a), Fraction(0)
        if b != 0:
            return Fraction(1), Fraction(0), 1 / Fraction(b)
        return Fraction(0), Fraction(0), Fraction(0)

    @staticmethod
    def mod_reduce(a, m):
        # canonical pivots are 1, so the residue is always 0
        return Fraction(a) / m, Fraction(0)


class _LocalizedDivision(_FractionDivision):
    def try_exact_div(self, b, a):
        if a == 0:
            return Fraction(0) if b == 0 else None
        q = Fraction(b) / a
        d = q.denominator
        for p in self.ring.inverted:
            while d % p == 0:
                d //= p
        return q if d == 1 else None

    def gcdex(self, a, b):
        """(g, s, t) with g = s*a + t*b and g the gcd of the S-free parts of a and b."""
        if a == 0 and b == 0:
            return Fraction(0), Fraction(0), Fraction(0)
        sa, sb = self.ring.canonicalize_unit(a)[1], self.ring.canonicalize_unit(b)[1]
        g, s0, t0 = xgcd(int(sa), int(sb))
        s = s0 * sa / a if a else Fraction(0)
        t = t0 * sb / b if b else Fraction(0)
        return Fraction(g), s, t

    @staticmethod
    def mod_reduce(a, m):
        m_int = int(m)
        if m_int == 1:
            return a, Fraction(0)
        r = a.numerator * pow(a.denominator, -1, m_int) % m_int
        return (a - r) / m, Fraction(r)


def division(ring):
    """``gcdex``, ``try_exact_div``, ``exact_div`` and ``mod_reduce``: the ring's own over Z and F_p, the former Fraction ones over Q and Z[S^-1]."""
    if ring.kind == "Q":
        return _RationalDivision(ring)
    if ring.kind == "ZS":
        return _LocalizedDivision(ring)
    return ring


def fraction_hnf_rows(ring, rows, ncols: int, track: bool):
    """The former elimination kernel, on the ring's own arithmetic (Fractions over Q and Z[S^-1]).

    Returns (reduced rows, transform rows or None, rank).  The reduced
    rows hold the canonical Hermite form on top and exact zero rows
    below; when ``track`` is set, the returned transform U is a square
    matrix, invertible over the ring, with U * input = reduced.
    """
    A = [list(r) for r in rows]
    m = len(A)
    post = ring.reduce_row if ring.kind == "Fp" else None
    if post:
        A = [post(r) for r in A]
    U = [[ring.one if i == j else ring.zero for j in range(m)] for i in range(m)] if track else None
    one = ring.one
    ops = division(ring)
    try_div = ops.try_exact_div
    gcdex = ops.gcdex
    exact_div = ops.exact_div
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, m):
            if A[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
            if track:
                U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, m):
            b = A[i][c]
            if not b:
                continue
            a = A[r][c]
            q = try_div(b, a)
            if q is not None:
                Ar, Ai = A[r], A[i]
                Ai[c:] = [x - q * y for x, y in zip(Ai[c:], Ar[c:])]
                if post:
                    A[i] = post(Ai)
                if track:
                    U[i] = [x - q * y for x, y in zip(U[i], U[r])]
                    if post:
                        U[i] = post(U[i])
            else:
                g, s, t = gcdex(a, b)
                af = exact_div(a, g)
                bf = exact_div(b, g)
                Ar, Ai = A[r], A[i]
                tail_r = [s * x + t * y for x, y in zip(Ar[c:], Ai[c:])]
                tail_i = [af * y - bf * x for x, y in zip(Ar[c:], Ai[c:])]
                Ar[c:] = tail_r
                Ai[c:] = tail_i
                if post:
                    A[r] = post(Ar)
                    A[i] = post(Ai)
                if track:
                    Ur, Ui = U[r], U[i]
                    new_r = [s * x + t * y for x, y in zip(Ur, Ui)]
                    new_i = [af * y - bf * x for x, y in zip(Ur, Ui)]
                    U[r] = post(new_r) if post else new_r
                    U[i] = post(new_i) if post else new_i
        # normalize the pivot to its canonical associate
        u_, _canon = ring.canonicalize_unit(A[r][c])
        if u_ != one:
            A[r] = [u_ * x for x in A[r]]
            if post:
                A[r] = post(A[r])
            if track:
                U[r] = [u_ * x for x in U[r]]
                if post:
                    U[r] = post(U[r])
        # reduce entries above the pivot to canonical residues
        a = A[r][c]
        for i in range(r):
            b = A[i][c]
            if not b:
                continue
            q, _ = ops.mod_reduce(b, a)
            if q:
                Ai, Ar = A[i], A[r]
                Ai[c:] = [x - q * y for x, y in zip(Ai[c:], Ar[c:])]
                if post:
                    A[i] = post(Ai)
                if track:
                    U[i] = [x - q * y for x, y in zip(U[i], U[r])]
                    if post:
                        U[i] = post(U[i])
        r += 1
        if r == m:
            break
    return A, U, r


def fraction_snf_rows(ring, rows, ncols: int, track: bool):
    """The former Smith kernel, on the ring's own arithmetic: (divisors, U, V)."""
    A = [list(r) for r in rows]
    m = len(A)
    n = ncols
    post = ring.reduce_row if ring.kind == "Fp" else None
    if post:
        A = [post(r) for r in A]
    U = [[ring.one if i == j else ring.zero for j in range(m)] for i in range(m)] if track else None
    V = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)] if track else None
    ops = division(ring)
    try_div = ops.try_exact_div
    gcdex = ops.gcdex
    exact_div = ops.exact_div

    def row_combine(r, i, c):
        """Clear A[i][c] against pivot A[r][c] via a unimodular row pair."""
        a, b = A[r][c], A[i][c]
        q = try_div(b, a)
        if q is not None:
            A[i] = [x - q * y for x, y in zip(A[i], A[r])]
            if post:
                A[i] = post(A[i])
            if track:
                U[i] = [x - q * y for x, y in zip(U[i], U[r])]
                if post:
                    U[i] = post(U[i])
            return
        g, s, t = gcdex(a, b)
        af, bf = exact_div(a, g), exact_div(b, g)
        Ar, Ai = A[r], A[i]
        A[r] = [s * x + t * y for x, y in zip(Ar, Ai)]
        A[i] = [af * y - bf * x for x, y in zip(Ar, Ai)]
        if post:
            A[r], A[i] = post(A[r]), post(A[i])
        if track:
            Ur, Ui = U[r], U[i]
            U[r] = [s * x + t * y for x, y in zip(Ur, Ui)]
            U[i] = [af * y - bf * x for x, y in zip(Ur, Ui)]
            if post:
                U[r], U[i] = post(U[r]), post(U[i])

    def col_combine(c, j, r):
        """Clear A[r][j] against pivot A[r][c] via a unimodular column pair."""
        a, b = A[r][c], A[r][j]
        q = try_div(b, a)
        if q is not None:
            for row in A:
                row[j] = row[j] - q * row[c]
            if track:
                for row in V:
                    row[j] = row[j] - q * row[c]
        else:
            g, s, t = gcdex(a, b)
            af, bf = exact_div(a, g), exact_div(b, g)
            for row in A:
                x, y = row[c], row[j]
                row[c] = s * x + t * y
                row[j] = af * y - bf * x
            if track:
                for row in V:
                    x, y = row[c], row[j]
                    row[c] = s * x + t * y
                    row[j] = af * y - bf * x
        if post:
            for idx in range(m):
                A[idx] = post(A[idx])
            if track:
                for idx in range(n):
                    V[idx] = post(V[idx])

    t_idx = 0
    while True:
        # locate a pivot in the unfinished block
        piv = None
        for i in range(t_idx, m):
            for j in range(t_idx, n):
                if A[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i, j = piv
        if i != t_idx:
            A[t_idx], A[i] = A[i], A[t_idx]
            if track:
                U[t_idx], U[i] = U[i], U[t_idx]
        if j != t_idx:
            for row in A:
                row[t_idx], row[j] = row[j], row[t_idx]
            if track:
                for row in V:
                    row[t_idx], row[j] = row[j], row[t_idx]
        while True:
            for i in range(t_idx + 1, m):
                if A[i][t_idx]:
                    row_combine(t_idx, i, t_idx)
            dirty = False
            for j in range(t_idx + 1, n):
                if A[t_idx][j]:
                    col_combine(t_idx, j, t_idx)
                    dirty = True
            if dirty:
                # column work may reintroduce entries below the pivot
                if any(A[i][t_idx] for i in range(t_idx + 1, m)):
                    continue
            # force the divisibility chain: pivot must divide the rest
            a = A[t_idx][t_idx]
            offender = None
            for i in range(t_idx + 1, m):
                row = A[i]
                for j in range(t_idx + 1, n):
                    if row[j] and try_div(row[j], a) is None:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            A[t_idx] = [x + y for x, y in zip(A[t_idx], A[offender])]
            if post:
                A[t_idx] = post(A[t_idx])
            if track:
                U[t_idx] = [x + y for x, y in zip(U[t_idx], U[offender])]
                if post:
                    U[t_idx] = post(U[t_idx])
        u_, _ = ring.canonicalize_unit(A[t_idx][t_idx])
        if u_ != ring.one:
            A[t_idx] = [u_ * x for x in A[t_idx]]
            if post:
                A[t_idx] = post(A[t_idx])
            if track:
                U[t_idx] = [u_ * x for x in U[t_idx]]
                if post:
                    U[t_idx] = post(U[t_idx])
        t_idx += 1
        if t_idx == m or t_idx == n:
            break
    divisors = [A[i][i] for i in range(min(m, n)) if i < t_idx and A[i][i]]
    return divisors, U, V


def fraction_solve(lattice, vector):
    """The former ``Lattice.solve``: coordinates in the Hermite basis by the ring's own division, or None.

    Walking the pivots in order keeps earlier pivot columns intact,
    so a single pass decides membership and produces the coefficient
    vector at the same time.
    """
    ring = lattice.ring
    v = list(vector)
    coords = []
    member = True
    for row, pc in zip(lattice.basis.rows, lattice.basis.pivot_columns()):
        c = v[pc]
        if not c:
            coords.append(ring.zero)
            continue
        q = division(ring).try_exact_div(c, row[pc])
        if q is None:
            member = False
            break
        coords.append(q)
        v = ring.reduce_row([x - q * y for x, y in zip(v, row)])
    if member and any(v):
        member = False
    return coords if member else None


# --- former per-prime binomial test ----------------------------------------------
#
# At each prime the binomial check once reduced the dense multiplication
# table mod p, took the nilradical as the kernel lattice of the iterated
# Frobenius, and asked that the Frobenius induced on the quotient by it,
# section * F * projection, be the identity.  Products and powers here
# are formed term by term on that dense table.


def algebra_mod_p(a, p):
    """A/pA over F_p, built by the dense constructor from ``a.mult.reduce_mod(p)``."""
    from purecoalg import AlgebraPresentation, Matrix

    mult = a.mult.reduce_mod(p)
    return AlgebraPresentation(mult.ring, a.rank, mult, Matrix(a.ring, [a.unit], a.rank).reduce_mod(p).rows[0])


def dense_product(mult_rows, x, y, p):
    """x * y mod p in the algebra whose row i*n + j holds e_i * e_j."""
    n = len(x)
    acc = [0] * n
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if a and b:
                acc = [s + a * b * m for s, m in zip(acc, mult_rows[i * n + j])]
    return [s % p for s in acc]


def dense_frobenius(mult, p):
    """Matrix of x -> x^p for the dense F_p table ``mult``: row i is e_i^p, formed by p - 1 multiplications."""
    from purecoalg import Matrix

    n = mult.ncols
    rows = []
    for i in range(n):
        e = [int(t == i) for t in range(n)]
        x = e
        for _ in range(p - 1):
            x = dense_product(mult.rows, x, e, p)
        rows.append(x)
    return Matrix(mult.ring, rows, n)


def iterated_frobenius(fro):
    """The Frobenius matrix raised to the k-th power, for the least k with p^k >= rank.

    On a finite F_p-algebra this power kills exactly the nilradical, so
    its kernel is the nilradical and its rank is the dimension of the
    semisimple quotient.  This was the package's power before every
    caller took the stable power by squaring; it stays as the reference.
    """
    p = fro.ring.p
    power = fro
    size = p
    while size < fro.nrows:
        power = power * fro
        size *= p
    return power


def nilradical_mod_p(a, p):
    """The nilradical of A/pA: the kernel lattice of the iterated dense Frobenius."""
    from purecoalg import kernel_lattice

    return kernel_lattice(iterated_frobenius(dense_frobenius(a.mult.reduce_mod(p), p)))


def quotient_frobenius_report(a, primes):
    """The former ``binomial_check`` body after ``require_valid``: a ``BinomialReport`` of the same primes."""
    from purecoalg import Matrix, kernel_lattice
    from purecoalg.binomial import BinomialPrimeResult, BinomialReport

    results = []
    for p in primes:
        fro = dense_frobenius(a.mult.reduce_mod(p), p)
        if a.rank == 0:
            results.append(BinomialPrimeResult(p, True, True, 0))
            continue
        nil = kernel_lattice(iterated_frobenius(fro))
        proj, section = nil.complement_projection()
        residue_ok = section * fro * proj == Matrix.identity(fro.ring, proj.ncols)
        results.append(BinomialPrimeResult(p, nil.rank == 0, residue_ok, nil.rank))
    return BinomialReport(tuple(primes), tuple(results))


# --- former binomial check by binary powering ------------------------------------
#
# Before the Frobenius rows came from one multiplication chain, every
# tested prime took each e_i^p by left-to-right binary powering on the
# flat structure constants reduced mod p.  The body is kept unchanged,
# apart from reading the constants off the dual coalgebra, so reports at
# primes on both sides of the chain rule can be compared with it.


def powering_binomial_report(a, primes):
    """The former ``binomial_check`` body after ``require_valid``: the same report, every prime by powering."""
    from fractions import Fraction

    from purecoalg import Matrix, UnsupportedRing
    from purecoalg.binomial import BinomialPrimeResult, BinomialReport
    from purecoalg.rings import prime_field, reduce_rows_mod_p

    c, n = a.dual, a.rank
    scale = c.ring.one if c.denom == 1 else Fraction(1, c.denom)
    positions = [[] for _ in range(n * n)]
    integral = []
    for t, block in enumerate(c.blocks):
        for i, row in block.items():
            for j, v in row:
                positions[i * n + j].append((t, len(integral)))
                integral.append(scale * v)

    def frobenius(values, p):
        def times(x, y):
            acc = [0] * n
            ys = [(j, yj) for j, yj in enumerate(y) if yj]
            for i, xi in enumerate(x):
                if xi:
                    at = i * n
                    for j, yj in ys:
                        coeff = xi * yj
                        for t, m in positions[at + j]:
                            acc[t] += coeff * values[m]
            return [v % p for v in acc]

        rows = []
        for i in range(n):
            e = [int(t == i) for t in range(n)]
            x = e
            for bit in bin(p)[3:]:
                x = times(x, x)
                if bit == "1":
                    x = times(x, e)
            rows.append(x)
        return Matrix(prime_field(p), rows, n)

    results = []
    for p in primes:
        if a.ring.kind not in ("Z", "ZS"):
            raise UnsupportedRing("reduction mod p needs an algebra over Z or Z[S^-1]")
        values = reduce_rows_mod_p(a.ring, [integral], p)[0]
        if n == 0:
            results.append(BinomialPrimeResult(p, True, True, 0))
            continue
        fro = frobenius(values, p)
        power = iterated_frobenius(fro)
        nil_rank = n - power.rank()
        results.append(BinomialPrimeResult(p, nil_rank == 0, power * fro == power, nil_rank))
    return BinomialReport(tuple(primes), tuple(results))


# --- former lattice quotients ------------------------------------------------------


def saturation(lat):
    """The saturation as the integral points of the rational row span: the left kernel of a right-kernel matrix."""
    from purecoalg import Lattice, Matrix, kernel_lattice
    from purecoalg.matrix import left_kernel_rows

    if lat.ring.is_field or lat.rank == 0:
        return lat
    if lat.rank == lat.ambient_rank:
        return Lattice.full(lat.ring, lat.ambient_rank)
    cokernel = left_kernel_rows(lat.basis.transpose())
    return kernel_lattice(Matrix(lat.ring, cokernel, lat.ambient_rank).transpose())


def hermite_quotient(lat):
    """(projection, section, basis section) of a pure lattice from its own Hermite transform over its ring.

    U * B^T = [I; 0] with V = U^T: the projection is the last n - r columns
    of V, its section the last n - r rows of V^-1, and the basis section
    (B * T = I) the first r columns of V.  An impure lattice raises NotPure.
    """
    from purecoalg import Matrix, NotPure, hnf

    n, r = lat.ambient_rank, lat.rank
    h, u = hnf(lat.basis.transpose())
    if h != Matrix.identity(lat.ring, r):
        raise NotPure("quotient projection requires a pure lattice")
    v = u.transpose()
    proj = Matrix(lat.ring, [row[r:] for row in v.rows], n - r)
    return proj, Matrix(lat.ring, v.inverse().rows[r:], n), Matrix(lat.ring, [row[:r] for row in v.rows], r)
