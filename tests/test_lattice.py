"""Lattice toolkit: saturation, intersection, purity, membership, Kronecker."""

import os
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
    coradical_filtration,
    kernel_lattice,
    localized_integers,
    prime_field,
    restrict_to_subcoalgebra,
)
from purecoalg.serialize import load_coalgebra
from oracles import hermite_quotient, purity_by_reduction, random_lattices, random_pure_lattices, saturation


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

    def pure():
        return L([[1, 2, 0], [0, 1, 5]], 3)

    def impure():
        return L([[2, 0], [0, 3]], 2)

    assert pure().is_pure() == (True, None) and impure().is_pure() == (False, 2)
    with monkeypatch.context() as patch:
        # the Smith divisors claim a factor 2 that the Hermite pivots do not show
        patch.setattr(lattice_mod, "elementary_divisors", lambda mat: [1, 2])
        with pytest.raises(AssertionError, match="purity tests disagree"):
            pure().is_pure()
    # the held transform claims unit pivots that the Smith divisors deny
    lat = impure()
    v, proj, flag = lat._hermite()
    assert not flag
    lat._transform = (v, proj, True)
    with pytest.raises(AssertionError, match="purity tests disagree"):
        lat.is_pure()


def _lattices_over_five_rings(seed, count):
    """Seeded random lattices over Z, Z[1/2,1/3], Z[1/5], F_7 and Q, a row often scaled to make them impure."""
    rng = random.Random(seed)
    # each ring with the denominators its entries may carry
    rings = [(ZZ, [1]), (localized_integers([2, 3]), [1, 1, 2, 3]), (localized_integers([5]), [1, 1, 5]),
             (prime_field(7), [1]), (QQ, [1, 1, 2, 3, 5])]
    for k in range(count):
        ring, dens = rings[k % len(rings)]
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(n)] for _ in range(rng.randint(0, n))]
        if ring.modulus:
            rows = [[int(v) for v in row] for row in rows]
        if rows and rng.random() < 0.6:
            scale = rng.choice([2, 3, 4, 5, 6, 7, 10, 12, 35])
            rows[0] = [scale * v for v in rows[0]]
        yield Lattice.from_rows(ring, n, [[ring.normalize(v) for v in row] for row in rows])


def test_is_pure_matches_the_reduction_mod_p_reference():
    impure = 0
    for lat in _lattices_over_five_rings(71, 2000):
        got = lat.is_pure()
        assert got == purity_by_reduction(lat), (lat.ring, lat.basis.rows)
        impure += not got[0]
    assert impure > 400


def test_is_pure_on_a_pure_lattice_factors_nothing_and_decides_once(monkeypatch):
    from purecoalg import lattice as lattice_mod
    from purecoalg import matrix as matrix_mod

    def refused(*args):
        raise AssertionError("called")

    eliminations = []
    original = matrix_mod._elim

    def counted(*args, **kwargs):
        eliminations.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(lattice_mod, "factorize", refused)
    monkeypatch.setattr(Matrix, "rank", refused)
    monkeypatch.setattr(matrix_mod, "_elim", counted)
    seen = 0
    for lat in _lattices_over_five_rings(73, 200):
        lat = lat.saturate()
        assert lat.is_pure() == (True, None)
        eliminations.clear()
        assert lat.is_pure() == (True, None)
        assert eliminations == []
        seen += lat.rank > 0 and not lat.ring.is_field
    assert seen > 50


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
            assert kernel == saturation(lat)
            assert lat.saturate() == saturation(lat)


def _random_lattices(rng, ring, count):
    for _ in range(count):
        n = rng.randint(1, 5)
        yield Lattice.from_rows(ring, n, [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(0, n))])


def test_quotient_and_sections_over_z_and_fp_are_those_of_the_own_hermite_transform():
    rng = random.Random(61)
    seen = 0
    for ring in (ZZ, prime_field(7), prime_field(2)):
        for lat in _random_lattices(rng, ring, 60):
            if not lat.is_pure()[0]:
                continue
            proj, section, basis_section = hermite_quotient(lat)
            assert lat.complement_projection() == (proj, section)
            assert lat.integral_projection() == proj.rows
            assert lat.section() == basis_section
            seen += 1
    assert seen > 100


def test_one_hermite_transform_serves_the_projections_and_the_restriction_section(monkeypatch):
    from purecoalg import coalgebra as coalgebra_mod
    from purecoalg import lattice as lattice_mod

    c = load_coalgebra(os.path.join(os.path.dirname(__file__), "..", "data", "zx3-dual.json"))
    stage = coradical_filtration(c).stages[1]
    lat = Lattice.from_rows(ZZ, c.rank, stage.basis.rows)
    assert 0 < lat.rank < c.rank
    passes = []
    for module in (lattice_mod, coalgebra_mod):
        def counted(mat, original=module.hnf):
            passes.append(mat == lat.basis.transpose())
            return original(mat)

        monkeypatch.setattr(module, "hnf", counted)
    assert lat.is_pure()[0]
    lat.integral_projection()
    proj, section = lat.complement_projection()
    sub, incl = restrict_to_subcoalgebra(lat, c)
    # V^-1 and (B * W)^-1 are eliminations too, of other matrices
    assert passes.count(True) == 1
    assert (lat.basis * proj).is_zero() and incl.matrix == lat.basis and sub.validate().overall


def test_a_saturation_holds_the_transform_of_its_source():
    rng = random.Random(67)
    zs = localized_integers([2, 3])
    impure = 0
    for ring in (ZZ, zs):
        for _ in range(40):
            n = rng.randint(2, 5)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(1, n - 1))]
            rows[0] = [rng.choice([5, 7]) * v for v in rows[0]]  # 5 and 7 are units of neither ring
            lat = Lattice.from_rows(ring, n, [[ring.normalize(v) for v in row] for row in rows])
            sat = lat.saturate()
            if sat is lat:
                continue
            impure += 1
            assert sat.integral_projection() is lat.integral_projection()
            assert sat == saturation(lat) and sat.saturate() is sat
            proj, section = sat.complement_projection()
            assert kernel_lattice(proj) == sat
            assert section * proj == Matrix.identity(ring, proj.ncols)
            assert sat.basis * sat.section() == Matrix.identity(ring, sat.rank)
    assert impure > 30
    pure = L([[1, 2, 0], [0, 3, 1]], 3)
    assert pure.saturate() is pure


def test_a_section_is_a_right_inverse_of_a_pure_basis_and_refused_on_an_impure_one():
    rng = random.Random(71)
    zs = localized_integers([2, 3])
    for ring in (ZZ, QQ, zs, prime_field(5)):
        for lat in _random_lattices(rng, ring, 30):
            if lat.is_pure()[0]:
                assert lat.basis * lat.section() == Matrix.identity(ring, lat.rank)
            else:
                with pytest.raises(NotPure, match="a section requires a pure lattice"):
                    lat.section()
