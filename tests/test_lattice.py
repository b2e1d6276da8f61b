"""Lattice toolkit: saturation, intersection, purity, membership, Kronecker."""

import random
from fractions import Fraction

import pytest

from purecoalg import (
    AmbientMismatch,
    Lattice,
    Matrix,
    NotPure,
    QQ,
    ZZ,
    kernel_lattice,
    localized_integers,
    prime_field,
)
from purecoalg.corpus import random_lattices, random_pure_lattices


def L(rows, n, ring=ZZ):
    return Lattice.from_rows(ring, n, rows)


def test_kernel_examples():
    k = kernel_lattice(Matrix(ZZ, [[1], [1]], 1))
    assert k.basis.rows == [[1, -1]]
    assert kernel_lattice(Matrix.identity(ZZ, 2)).rank == 0
    # solve 2x - y = 0 over Q, clear denominators, saturate: (1, 2)
    k = kernel_lattice(Matrix(ZZ, [[2], [-1]], 1))
    assert k.basis.rows == [[1, 2]]


def test_saturate_examples():
    assert L([[2, 0]], 2).saturate().basis.rows == [[1, 0]]
    assert L([[2, 4]], 2).saturate().basis.rows == [[1, 2]]
    lat = Lattice.from_rows(QQ, 2, [[Fraction(2), Fraction(4)]])
    assert lat.saturate() == lat


def test_saturate_properties():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(1, 5)
        r = rng.randint(0, n)
        lat = L([[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)], n)
        sat = lat.saturate()
        assert sat.saturate() == sat  # idempotent
        assert sat.contains_lattice(lat)  # extensive
        assert sat.rank == lat.rank  # rank preserved
        assert sat.is_pure()[0]
        bigger = lat.add(L([[rng.randint(-9, 9) for _ in range(n)]], n))
        assert bigger.saturate().contains_lattice(sat)  # monotone


def test_intersect_examples():
    assert L([[1, 0]], 2).intersect(L([[0, 1]], 2)).rank == 0
    a = L([[2, 0], [0, 1]], 2)
    assert a.intersect(a) == a
    assert a.intersect(L([[1, 1]], 2)).basis.rows == [[2, 2]]
    with pytest.raises(AmbientMismatch):
        a.intersect(L([[1]], 1))


def test_intersect_against_rational_subspaces():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = L([[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(0, n))], n)
        b = L([[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(0, n))], n)
        cap = a.intersect(b)
        assert a.contains_lattice(cap) and b.contains_lattice(cap)
        # for pure inputs, the intersection equals the integral points of
        # the rational subspace intersection
        ap, bp = a.saturate(), b.saturate()
        capp = ap.intersect(bp)
        rational = _rational_intersection_integral_points(ap, bp)
        assert capp == rational


def _rational_intersection_integral_points(a, b):
    qa = Lattice.from_rows(QQ, a.ambient_rank, [[Fraction(v) for v in row] for row in a.basis.rows])
    qb = Lattice.from_rows(QQ, b.ambient_rank, [[Fraction(v) for v in row] for row in b.basis.rows])
    cap = qa.intersect(qb)
    cleared = []
    for row in cap.basis.rows:
        denom = 1
        for v in row:
            denom = denom * v.denominator // __import__("math").gcd(denom, v.denominator)
        cleared.append([int(v * denom) for v in row])
    return Lattice.from_rows(ZZ, a.ambient_rank, cleared).saturate()


def test_is_pure_examples_and_cross_check():
    assert L([[1, 0]], 2).is_pure() == (True, None)
    flag, witness = L([[2]], 1).is_pure()
    assert not flag and witness == 2
    flag, witness = L([[2, 4], [0, 3]], 2).is_pure()
    assert not flag and witness in (2, 3)
    for lat in random_lattices(41, 200):
        lat.is_pure()  # raises if the two purity methods disagree
        assert lat.saturate().is_pure()[0]


def test_membership_examples():
    lat = L([[1, 2]], 2)
    assert lat.solve([0, 0]) == [0]
    assert lat.solve([1, 2]) == [1]
    assert L([[2, 0]], 2).solve([1, 0]) is None
    coords = L([[2, 1], [0, 3]], 2).solve([2, 4])
    assert coords == [1, 1]


def test_tensor_intersection_identity():
    # (A^B) (x) (C^D) == (A (x) C) ^ (B (x) D) for pure lattices
    rng = random.Random(47)
    pures = random_pure_lattices(rng.randint(0, 10**6), 24, ambient=3)
    for idx in range(0, len(pures) - 3, 4):
        a, b, c, d = pures[idx : idx + 4]
        lhs = a.intersect(b).kron(c.intersect(d))
        rhs = a.kron(c).intersect(b.kron(d))
        assert lhs == rhs


def test_zs_purity_only_away_from_inverted_primes():
    z2 = localized_integers([2])
    lat = Lattice.from_rows(z2, 2, [[Fraction(2), Fraction(0)]])
    assert lat.is_pure()[0]  # 2 is a unit here
    lat3 = Lattice.from_rows(z2, 2, [[Fraction(3), Fraction(0)]])
    flag, witness = lat3.is_pure()
    assert not flag and witness == 3
    assert lat3.saturate().basis.rows == [[Fraction(1), Fraction(0)]]


def test_complement_projection_contract():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(1, 5)
        lat = L([[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n))], n).saturate()
        proj, section = lat.complement_projection()
        assert (lat.basis * proj).is_zero()
        assert section * proj == Matrix.identity(ZZ, n - lat.rank)
        assert kernel_lattice(proj) == lat


def test_complement_projection_refuses_an_impure_lattice():
    z23 = localized_integers([2, 3])
    impure = [
        L([[2, 0, 0]], 3),
        L([[1, 1, 0], [0, 3, 3]], 3),
        Lattice.from_rows(z23, 3, [[Fraction(5), Fraction(0), Fraction(0)]]),
        Lattice.from_rows(z23, 2, [[Fraction(1, 2), Fraction(5, 3)], [Fraction(0), Fraction(10)]]),
    ]
    for lat in impure:
        assert not lat.is_pure()[0]
        with pytest.raises(NotPure, match="quotient projection requires a pure lattice"):
            lat.complement_projection()
    # 6 is a unit of Z[1/2,1/3], so its line is pure there
    pure = [[[Fraction(6), Fraction(0), Fraction(1, 2)]],
            [[Fraction(1, 3), Fraction(4), Fraction(0)], [Fraction(0), Fraction(9), Fraction(2)]]]
    for lat in (Lattice.from_rows(z23, 3, rows) for rows in pure):
        assert lat.is_pure()[0]
        proj, section = lat.complement_projection()
        assert (lat.basis * proj).is_zero()
        assert section * proj == Matrix.identity(z23, 3 - lat.rank)
        assert kernel_lattice(proj) == lat


def test_is_pure_raises_when_its_two_tests_disagree(monkeypatch):
    from purecoalg import lattice as lattice_mod

    pure, impure = L([[1, 2, 0], [0, 1, 5]], 3), L([[2, 0], [0, 3]], 2)
    assert pure.is_pure() == (True, None) and impure.is_pure() == (False, 2)
    with monkeypatch.context() as patch:
        # the divisors claim a factor 2 that reduction mod 2 does not see
        patch.setattr(lattice_mod, "elementary_divisors", lambda mat: [1, 2])
        with pytest.raises(AssertionError, match="purity tests disagree"):
            pure.is_pure()
    with monkeypatch.context() as patch:
        # reduction mod p claims full rank at every prime the divisors name
        patch.setattr(Matrix, "rank", lambda self: self.nrows)
        with pytest.raises(AssertionError, match="purity tests disagree"):
            impure.is_pure()


def test_integral_projection_kernel_is_the_saturation():
    rng = random.Random(59)
    zs = localized_integers([2, 3])
    for ring in (ZZ, QQ, zs, prime_field(7)):
        def entry():
            v = rng.randint(-6, 6)
            return ring.normalize(Fraction(v, rng.choice([1, 1, 2, 3])) if ring.kind in ("Q", "ZS") else v)

        for _ in range(30):
            n = rng.randint(1, 5)
            lat = Lattice.from_rows(ring, n, [[entry() for _ in range(n)] for _ in range(rng.randint(0, n))])
            proj = lat.integral_projection()
            assert proj is lat.integral_projection()  # computed once per lattice
            assert all(isinstance(v, int) for row in proj for v in row)
            width = n - lat.rank
            assert len(proj) == n and all(len(row) == width for row in proj)
            kernel = kernel_lattice(Matrix(ring, [[ring.normalize(v) for v in row] for row in proj], width))
            assert kernel == lat.saturate()
