"""The integer kernels against the former Fraction and Smith kernels.

Over Q and Z[1/2,1/3] the Hermite and Smith forms, left kernels and
lattice coordinates are computed over Z on rows cleared by unit
denominators, with one boundary pass to canonical associates and
residues.  Smith forms over every ring come from alternating Hermite
passes and a gcd/lcm pass.  The former kernels, which ran on each
ring's own arithmetic, are kept in ``oracles`` and must agree bit for
bit over Z, Q, Z[1/2,1/3] and F_p; the transforms need only satisfy
their defining identities.
"""

import os
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix as SympyMatrix
from sympy import ZZ as SYMPY_ZZ
from sympy.matrices.normalforms import smith_normal_form

from purecoalg import (
    Lattice,
    Matrix,
    QQ,
    ZZ,
    components,
    coradical_filtration,
    elementary_divisors,
    hnf,
    hnf_basis,
    prime_field,
    snf,
    split_coradical,
    wedge,
)
from purecoalg import serialize as sz
from purecoalg.cli import run_command
from purecoalg.corpus import generate_coalgebras
from purecoalg.matrix import left_kernel_rows
from purecoalg.rings import LocalizedIntegerRing, RationalRing, localized_integers

import oracles

Z23 = localized_integers([2, 3])
EVERY_RING = (ZZ, QQ, Z23, prime_field(2), prime_field(3), prime_field(101))
MAX_ROWS = 5
MAX_COLS = 5
KERNEL_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)
# as many examples per ring as KERNEL_SETTINGS gives each of Q and Z[1/2,1/3]
EVERY_RING_SETTINGS = settings(KERNEL_SETTINGS, max_examples=450)


@st.composite
def elements(draw, ring):
    """A ring element: S-power denominators and numerators often divisible by S; over Z and F_p an integer or residue."""
    num = draw(st.integers(-12, 12)) * draw(st.sampled_from((1, 1, 2, 3, 6, 5)))
    if ring.kind in ("Z", "Fp"):
        return ring.reduce_row([num])[0] if draw(st.integers(0, 3)) else ring.zero
    if ring == QQ:
        den = draw(st.integers(1, 12))
    else:
        den = 2 ** draw(st.integers(0, 3)) * 3 ** draw(st.integers(0, 2))
    return Fraction(num, den) if draw(st.integers(0, 3)) else Fraction(0)


@st.composite
def matrices(draw, rings=(QQ, Z23)):
    """(ring, rows, ncols) with zero rows, dependent rows and empty shapes among them."""
    ring = draw(st.sampled_from(rings))
    m = draw(st.integers(0, MAX_ROWS))
    n = draw(st.integers(0, MAX_COLS))
    rows = [[draw(elements(ring)) for _ in range(n)] for _ in range(m)]
    if m >= 3 and draw(st.booleans()):
        # a dependent row: a ring combination of two others
        a, b = draw(elements(ring)), draw(elements(ring))
        rows[2] = ring.reduce_row([a * x + b * y for x, y in zip(rows[0], rows[1])])
    if m and draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))] = [ring.zero] * n
    return ring, rows, n


def _is_unimodular(ring, rows, n):
    """Whether a square matrix is invertible over the ring, by the former Hermite kernel."""
    h, _, r = oracles.fraction_hnf_rows(ring, rows, n, False)
    return r == n and h[:r] == [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]


@EVERY_RING_SETTINGS
@given(matrices(EVERY_RING))
def test_hermite_form_and_transform_match_fraction_kernel(case):
    ring, rows, n = case
    mat = Matrix(ring, rows, n)
    want, _, r = oracles.fraction_hnf_rows(ring, rows, n, False)
    assert hnf_basis(mat).rows == want[:r]
    h, u = hnf(mat)
    assert h.rows == want[:r]
    if ring.kind in ("Z", "Fp"):
        assert u.rows == oracles.fraction_hnf_rows(ring, rows, n, True)[1]
    m = len(rows)
    assert u.nrows == u.ncols == m
    assert _is_unimodular(ring, u.rows, m)
    if m:
        prod = (u * mat).rows
        assert prod[:r] == h.rows
        assert all(not any(row) for row in prod[r:])


@EVERY_RING_SETTINGS
@given(matrices(EVERY_RING))
def test_smith_divisors_and_transforms_match_fraction_kernel(case):
    ring, rows, n = case
    mat = Matrix(ring, rows, n)
    want, _, _ = oracles.fraction_snf_rows(ring, rows, n, False)
    assert elementary_divisors(mat) == want
    divs, u, v = snf(mat)
    assert divs == want
    m = len(rows)
    assert _is_unimodular(ring, u.rows, m) and _is_unimodular(ring, v.rows, n)
    if m and n:
        diag = (u * mat * v).rows
        for i in range(m):
            for j in range(n):
                assert diag[i][j] == (divs[i] if i == j and i < len(divs) else 0)


def _assert_smith(ring, rows, n, want):
    """snf gives the divisors want, unimodular u and v, and u * rows * v = diag(want)."""
    mat = Matrix(ring, rows, n)
    divs, u, v = snf(mat)
    assert divs == want == oracles.fraction_snf_rows(ring, rows, n, False)[0] == elementary_divisors(mat)
    m = len(rows)
    assert _is_unimodular(ring, u.rows, m) and _is_unimodular(ring, v.rows, n)
    diag = (u * mat * v).rows
    assert diag == [[divs[i] if i == j and i < len(divs) else ring.zero for j in range(n)] for i in range(m)]


def test_chain_fix_cases_with_checked_transforms():
    """Diagonal blocks out of the Hermite passes whose divisors the gcd/lcm pass must reorder."""
    _assert_smith(ZZ, [[4, 0], [0, 6]], 2, [2, 12])
    _assert_smith(ZZ, [[6, 0, 0], [0, 10, 0], [0, 0, 15]], 3, [1, 30, 30])
    wide = [[4, 0, 0, 0, 0], [0, 6, 0, 0, 0], [4, 6, 0, 0, 0]]  # rank 2 in 3 x 5
    _assert_smith(ZZ, wide, 5, [2, 12])
    _assert_smith(ZZ, [list(col) for col in zip(*wide)], 3, [2, 12])  # rank 2 in 5 x 3
    _assert_smith(Z23, [[Fraction(4), Fraction(0)], [Fraction(0), Fraction(5, 2)]], 2, [1, 5])
    _assert_smith(prime_field(3), [[2, 0, 0], [0, 0, 0], [1, 0, 2]], 3, [1, 1])


@EVERY_RING_SETTINGS
@given(matrices(EVERY_RING))
def test_left_kernel_matches_fraction_kernel(case):
    ring, rows, n = case
    m = len(rows)
    _, transform, r = oracles.fraction_hnf_rows(ring, rows, n, True)
    want, _, k = oracles.fraction_hnf_rows(ring, transform[r:], m, False)
    assert left_kernel_rows(Matrix(ring, rows, n)) == want[:k]


@KERNEL_SETTINGS
@given(matrices(), st.data())
def test_solve_matches_fraction_solve(case, data):
    ring, rows, n = case
    lattice = Lattice.from_rows(ring, n, rows)
    for _ in range(4):
        kind = data.draw(st.sampled_from(("member", "vector", "outside")))
        if kind == "member":
            coeffs = [data.draw(elements(ring)) for _ in lattice.basis.rows]
            vector = [sum((c * row[j] for c, row in zip(coeffs, lattice.basis.rows)), Fraction(0)) for j in range(n)]
        else:
            vector = [data.draw(elements(ring)) for _ in range(n)]
        if kind == "outside":
            # coordinates outside Z[S^-1] (a denominator 5), and non-members over either ring
            vector = [x / 5 for x in vector]
        want = oracles.fraction_solve(lattice, vector)
        assert lattice.solve(vector) == want
        assert lattice.contains(vector) == (want is not None)
        if kind == "member" and ring == Z23:
            assert want is not None


@KERNEL_SETTINGS
@given(matrices(), matrices())
def test_contains_lattice_matches_fraction_solve(case, other):
    ring, rows, n = case
    lattice = Lattice.from_rows(ring, n, rows)
    _, more, _ = other
    rows_b = [row[:n] + [Fraction(0)] * (n - len(row)) for row in more]
    for sub_rows in (rows_b, rows[:2] + rows_b[:1]):
        sub = Lattice.from_rows(ring, n, sub_rows)
        want = all(oracles.fraction_solve(lattice, row) is not None for row in sub.basis.rows)
        assert lattice.contains_lattice(sub) == want


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.integers(0, MAX_ROWS), st.integers(0, MAX_COLS), st.data())
def test_integer_divisors_match_sympy_smith_form(m, n, data):
    rows = [[data.draw(st.integers(-30, 30)) for _ in range(n)] for _ in range(m)]
    divs = elementary_divisors(Matrix(ZZ, rows, n))
    assert divs == oracles.naive_smith_divisors(rows)
    if m and n:
        form = smith_normal_form(SympyMatrix(rows), domain=SYMPY_ZZ)
        want = [abs(int(form[i, i])) for i in range(min(m, n)) if form[i, i] != 0]
        assert divs == want


def test_fraction_ring_division_is_not_used():
    """Q and Z[1/2,1/3] have no Fraction division, gcds or residues, and every kernel, membership and purity test runs."""
    corpora = {ring: [e.coalgebra for e in generate_coalgebras(41, 6, max_rank=6, ring=ring)] for ring in (QQ, Z23)}
    for cls in (RationalRing, LocalizedIntegerRing):
        for name in ("gcdex", "try_exact_div", "exact_div", "mod_reduce", "divides"):
            assert not hasattr(cls, name)
    for ring, coalgebras in corpora.items():
        rows = [[Fraction(6), Fraction(4, 3), Fraction(0)], [Fraction(9, 2), Fraction(2), Fraction(10)]]
        mat = Matrix(ring, rows, 3)
        h, _ = hnf(mat)
        divs, _, _ = snf(mat)
        assert elementary_divisors(mat) == divs
        assert Lattice(ring, 3, h).solve(rows[0]) is not None
        for c in coalgebras:
            coradical_filtration(c)
            split_coradical(c)


DATA = os.path.join(os.path.dirname(__file__), "..", "data")
POINTED_FILES = ("setlike2.json", "zx2-dual.json", "zx3-dual.json")
SIMPLICIAL_COMMANDS = [
    (["homology", os.path.join(DATA, name), "-N", str(degree)], "sset")
    for name, degree in (("circle.json", 1), ("interval.json", 1), ("point.json", 1), ("two-points.json", 1),
                         ("rp2.json", 2))
] + [
    (["check", os.path.join(DATA, "interval-collapse.json"), *flags], "smap")
    for flags in (["--we", "-N", "1"], ["--cof"])
]


def _structure_of(c):
    filtration = coradical_filtration(c)
    parts = components(c)
    start = filtration.stages[0]
    return (
        [lat.basis.rows for lat in filtration.stages],
        [lat.basis.rows for _, lat in parts],
        split_coradical(c).matrix.rows,
        wedge(start, start, c).basis.rows,
    )


def test_no_path_needs_smith_transforms(monkeypatch):
    """Filtrations, components, splittings, wedges, homology and map checks on data/ with snf refused.

    ``elementary_divisors`` still runs; any request for Smith transforms
    raises, and every answer equals the one given with snf in place.
    """
    from purecoalg import matrix

    coalgebras = [sz.load_coalgebra(os.path.join(DATA, name)) for name in POINTED_FILES]
    want = [_structure_of(c) for c in coalgebras], [run_command(*cmd) for cmd in SIMPLICIAL_COMMANDS]
    assert all(code in (0, 1) for code, _ in want[1])

    def refuse(*_):
        raise AssertionError("Smith transforms requested")

    divisors_only = matrix._snf_rows
    for name, module in list(sys.modules.items()):
        if name.startswith("purecoalg") and hasattr(module, "snf"):
            monkeypatch.setattr(module, "snf", refuse)
    monkeypatch.setattr(matrix, "_snf_rows", lambda ring, rows, ncols, track: (
        refuse() if track else divisors_only(ring, rows, ncols, track)))
    coalgebras = [sz.load_coalgebra(os.path.join(DATA, name)) for name in POINTED_FILES]
    got = [_structure_of(c) for c in coalgebras], [run_command(*cmd) for cmd in SIMPLICIAL_COMMANDS]
    assert got == want
