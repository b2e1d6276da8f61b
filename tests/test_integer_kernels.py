"""The integer kernels over Q and Z[S^-1] against the former Fraction kernels.

Over Q and Z[1/2,1/3] the Hermite and Smith forms, left kernels and
lattice coordinates are computed over Z on rows cleared by unit
denominators, with one boundary pass to canonical associates and
residues.  The former kernels, which ran on each ring's own Fraction
arithmetic, are kept in ``oracles`` and must agree bit for bit; the
transforms need only satisfy their defining identities.
"""

from fractions import Fraction

import pytest
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
    coradical_filtration,
    elementary_divisors,
    hnf,
    hnf_basis,
    snf,
    split_coradical,
)
from purecoalg.corpus import generate_coalgebras
from purecoalg.matrix import left_kernel_rows
from purecoalg.rings import LocalizedIntegerRing, RationalRing, localized_integers

import oracles

Z23 = localized_integers([2, 3])
MAX_ROWS = 5
MAX_COLS = 5
KERNEL_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@st.composite
def elements(draw, ring):
    """A ring element: S-power denominators, and numerators often divisible by S."""
    num = draw(st.integers(-12, 12)) * draw(st.sampled_from((1, 1, 2, 3, 6, 5)))
    if ring == QQ:
        den = draw(st.integers(1, 12))
    else:
        den = 2 ** draw(st.integers(0, 3)) * 3 ** draw(st.integers(0, 2))
    return Fraction(num, den) if draw(st.integers(0, 3)) else Fraction(0)


@st.composite
def matrices(draw, ring=None):
    """(ring, rows, ncols) with zero rows, dependent rows and empty shapes among them."""
    ring = ring or draw(st.sampled_from((QQ, Z23)))
    m = draw(st.integers(0, MAX_ROWS))
    n = draw(st.integers(0, MAX_COLS))
    rows = [[draw(elements(ring)) for _ in range(n)] for _ in range(m)]
    if m >= 3 and draw(st.booleans()):
        # a dependent row: a ring combination of two others
        a, b = draw(elements(ring)), draw(elements(ring))
        rows[2] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    if m and draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))] = [Fraction(0)] * n
    return ring, rows, n


def _is_unimodular(ring, rows, n):
    """Whether a square matrix is invertible over the ring, by the former Hermite kernel."""
    h, _, r = oracles.fraction_hnf_rows(ring, rows, n, False)
    return r == n and h[:r] == [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]


@KERNEL_SETTINGS
@given(matrices())
def test_hermite_form_and_transform_match_fraction_kernel(case):
    ring, rows, n = case
    mat = Matrix(ring, rows, n)
    want, _, r = oracles.fraction_hnf_rows(ring, rows, n, False)
    assert hnf_basis(mat).rows == want[:r]
    h, u = hnf(mat)
    assert h.rows == want[:r]
    m = len(rows)
    assert u.nrows == u.ncols == m
    assert _is_unimodular(ring, u.rows, m)
    if m:
        prod = (u * mat).rows
        assert prod[:r] == h.rows
        assert all(not any(row) for row in prod[r:])


@KERNEL_SETTINGS
@given(matrices())
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


@KERNEL_SETTINGS
@given(matrices())
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


def test_fraction_ring_division_is_not_used(monkeypatch):
    """Over Q and Z[1/2,1/3] no kernel, membership or purity test divides, takes gcds or residues in Fractions."""
    corpora = {ring: [e.coalgebra for e in generate_coalgebras(41, 6, max_rank=6, ring=ring)] for ring in (QQ, Z23)}

    def refuse(*_):
        raise AssertionError("Fraction division in a kernel")

    for cls in (RationalRing, LocalizedIntegerRing):
        for name in ("gcdex", "try_exact_div", "mod_reduce"):
            monkeypatch.setattr(cls, name, refuse)
    with pytest.raises(AssertionError):
        Z23.exact_div(Fraction(1), Fraction(3))
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
