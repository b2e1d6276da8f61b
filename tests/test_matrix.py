"""Hermite and Smith forms: frozen examples, canonicality, transforms."""

import random
from fractions import Fraction

import pytest

from purecoalg import Matrix, QQ, ZZ, charpoly, hnf, hnf_basis, localized_integers, prime_field, snf
from purecoalg.corpus import random_unimodular

from oracles import naive_smith_divisors


def _mat(rows, ring=ZZ):
    return Matrix(ring, rows, len(rows[0]) if rows else 0)


def test_hnf_examples():
    h, u = hnf(_mat([[2, 4], [0, 3]]))
    # hand row reduction: pivot 2 stays, 4 reduces to 4 mod 3 = 1
    assert h.rows == [[2, 1], [0, 3]]
    assert (u * _mat([[2, 4], [0, 3]])).rows[: h.nrows] == h.rows

    ident = Matrix.identity(ZZ, 3)
    h, _ = hnf(ident)
    assert h == ident

    h, _ = hnf(_mat([[0, 0]]))
    assert h.nrows == 0 and h.ncols == 2


def test_hnf_transform_invertible():
    rng = random.Random(5)
    for _ in range(50):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = _mat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        h, u = hnf(mat)
        u.inverse()  # raises if u is not unimodular
        prod = u * mat
        assert prod.rows[: h.nrows] == h.rows
        assert all(not any(row) for row in prod.rows[h.nrows :])


def test_hnf_canonical_under_unimodular_action():
    rng = random.Random(9)
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 6)
        mat = _mat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        w = random_unimodular(rng, ZZ, m)
        assert hnf_basis(mat) == hnf_basis(w * mat)


def test_hnf_field_is_rref():
    mat = Matrix(QQ, [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(3)]], 2)
    h, _ = hnf(mat)
    assert h == Matrix.identity(QQ, 2)
    f5 = prime_field(5)
    mat = Matrix(f5, [[2, 4], [1, 2]], 2)
    h, _ = hnf(mat)
    assert h.rows == [[1, 2]]


def test_snf_examples():
    divs, u, v = snf(_mat([[2, 0], [0, 3]]))
    assert divs == [1, 6]
    divs, _, _ = snf(Matrix.identity(ZZ, 3))
    assert divs == [1, 1, 1]
    divs, _, _ = snf(_mat([[2, 4], [0, 3]]))
    assert divs == [1, 6]


def test_snf_transform_and_chain():
    rng = random.Random(13)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = _mat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        divs, u, v = snf(mat)
        u.inverse()
        v.inverse()
        prod = u * mat * v
        for i in range(m):
            for j in range(n):
                if i == j and i < len(divs):
                    assert prod.rows[i][j] == divs[i]
                else:
                    assert prod.rows[i][j] == 0
        for a, b in zip(divs, divs[1:]):
            assert b % a == 0
        assert divs == naive_smith_divisors(mat.rows)


def test_snf_zs_strips_inverted_primes():
    z2 = localized_integers([2])
    mat = Matrix(z2, [[Fraction(4), Fraction(0)], [Fraction(0), Fraction(6)]], 2)
    divs, _, _ = snf(mat)
    assert divs == [Fraction(1), Fraction(3)]


def test_charpoly_berkowitz():
    mat = _mat([[1, 2], [3, 4]])
    assert charpoly(mat) == [1, -5, -2]
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 5)
        mat = _mat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        coeffs = charpoly(mat)
        assert len(coeffs) == n + 1 and coeffs[0] == 1
        # Cayley-Hamilton: the matrix satisfies its own polynomial
        acc = Matrix.zeros(ZZ, n, n)
        power = Matrix.identity(ZZ, n)
        for c in reversed(coeffs):
            acc = acc + power.scale(c)
            power = power * mat
        assert acc.is_zero()


def test_arithmetic_results_share_no_rows_with_their_operands():
    """Results own the rows they were built on, so writing into one leaves the operands alone."""
    for ring, a_rows, b_rows in ((ZZ, [[1, 2], [3, 4]], [[0, 1], [1, 1]]),
                                 (prime_field(7), [[1, 6], [3, 4]], [[5, 1], [1, 2]]),
                                 (QQ, [[Fraction(1, 2), 2], [3, 4]], [[0, 1], [1, Fraction(2, 3)]])):
        a, b = _mat(a_rows, ring), _mat(b_rows, ring)
        results = [a + b, a - b, -a, a.scale(ring.normalize(2)), a * b, a.transpose(), a.kron(b),
                   Matrix.identity(ring, 2), Matrix.zeros(ring, 2, 2), hnf(a)[0], hnf(a)[1], snf(a)[1]]
        for out in results:
            assert all(len(row) == out.ncols for row in out.rows) and len(out.rows) == out.nrows
            for row in out.rows:
                row[0] = ring.normalize(5)
        assert a.rows == a_rows and b.rows == b_rows
        ident = Matrix.identity(ring, 2)
        assert ident.rows == [[ring.one, ring.zero], [ring.zero, ring.one]]


# --- the rank is the forward pass of the elimination kernel --------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

RANK_RINGS = {"Z": ZZ, "Q": QQ, "Z[1/2,1/3]": localized_integers([2, 3]), "F_2": prime_field(2),
              "F_101": prime_field(101)}


@st.composite
def ring_entries(draw, ring):
    num = draw(st.integers(-30, 30))
    if ring.kind == "Q":
        return ring.normalize(Fraction(num, draw(st.integers(1, 12))))
    if ring.kind == "ZS":
        return ring.normalize(Fraction(num, 2 ** draw(st.integers(0, 3)) * 3 ** draw(st.integers(0, 2))))
    return ring.normalize(num)


SHAPES = ("square", "wide", "tall", "deficient")


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", sorted(RANK_RINGS))
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_rank_equals_the_hermite_rank(name, shape, data):
    # wide and tall have 0-4 rows or columns against 5-8; deficient is a
    # tall-by-wide product, of rank at most its inner size 0-4
    ring = RANK_RINGS[name]
    small, large = data.draw(st.integers(0, 4)), data.draw(st.integers(5, 8))

    def matrix(rows, cols):
        return Matrix(ring, [[data.draw(ring_entries(ring)) for _ in range(cols)] for _ in range(rows)], cols)

    if shape == "deficient":
        mat = matrix(large, small) * matrix(small, large)
        assert mat.rank() <= small
    else:
        mat = matrix(*{"square": (large, large), "wide": (small, large), "tall": (large, small)}[shape])
    assert mat.rank() == hnf_basis(mat).nrows, mat.rows
    assert mat.transpose().rank() == mat.rank()
