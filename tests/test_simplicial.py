"""Simplicial sets, chains, normalized homology, the two predicates."""

import pytest

from purecoalg import (
    DegreeTooHigh,
    Matrix,
    SimplicialCoalgebraMap,
    ZZ,
    chains_functor,
    chains_map,
    constant_map,
    gr_simplicial,
    homology,
    identity_simplicial_map,
    is_cofibration,
    is_weak_equivalence,
    normalized_complex,
    prime_field,
    projective_plane,
    simplicial_set_from_cells,
    standard_circle,
    standard_interval,
    standard_point,
    two_point_set,
    validate_sset,
)

from oracles import direct_homology


CORPUS = {
    "point": standard_point(2),
    "interval": standard_interval(2),
    "circle": standard_circle(2),
    "two-points": two_point_set(2),
    "rp2": projective_plane(3),
}


def test_validate_sset_examples():
    assert validate_sset(standard_interval(2)).overall
    assert validate_sset(standard_circle(2)).overall
    broken = standard_circle(2)
    broken.faces[(1, 0)] = {name: "missing" for name in broken.levels[1]}
    report = validate_sset(broken)
    assert not report.overall
    assert report.first_failure().name == "structure maps total"


def test_chains_functor_examples():
    pt = chains_functor(standard_point(2), ZZ)
    assert [l.rank for l in pt.levels] == [1, 1, 1]
    s1 = chains_functor(standard_circle(2), ZZ)
    assert [l.rank for l in s1.levels] == [1, 2, 3]
    tp = chains_functor(two_point_set(2), ZZ)
    assert all(l.rank == 2 for l in tp.levels)
    assert s1.validate().overall


def test_chains_levels_are_pointed():
    from purecoalg import is_pointed

    sc = chains_functor(projective_plane(3), ZZ)
    for level in sc.levels:
        assert is_pointed(level)[0]


def test_gr_simplicial_unit_isomorphism():
    for name, x in CORPUS.items():
        sc = chains_functor(x, ZZ)
        back = gr_simplicial(sc)
        assert [sorted(a) for a in back.levels] == [sorted(b) for b in x.levels], name
        assert back.faces == x.faces and back.degeneracies == x.degeneracies, name


def test_gr_simplicial_collapses_local_duals():
    from purecoalg import SimplicialCoalgebra, dual_of_algebra, truncated_polynomial_algebra

    c = dual_of_algebra(truncated_polynomial_algebra(ZZ, 2))
    ident = Matrix.identity(ZZ, 2)
    levels = [c, c, c]
    faces = {(n, i): ident for n in (1, 2) for i in range(n + 1)}
    degeneracies = {(n, j): ident for n in (0, 1) for j in range(n + 1)}
    sc = SimplicialCoalgebra(ZZ, levels, faces, degeneracies)
    assert sc.validate().overall
    back = gr_simplicial(sc)
    assert all(len(level) == 1 for level in back.levels)


def test_homology_examples():
    assert [str(h) for h in homology(chains_functor(standard_point(2), ZZ), 1)] == ["Z", "0"]
    assert [str(h) for h in homology(chains_functor(standard_circle(2), ZZ), 1)] == ["Z", "Z"]
    got = homology(chains_functor(projective_plane(3), ZZ), 2)
    assert [str(h) for h in got] == ["Z", "Z/2", "0"]
    with pytest.raises(DegreeTooHigh):
        homology(chains_functor(standard_circle(2), ZZ), 2)


def test_homology_matches_direct_oracle():
    for name, x in CORPUS.items():
        top = x.dimension_bound - 1
        package = homology(chains_functor(x, ZZ), top)
        oracle = direct_homology(x, top)
        got = [(h.betti, tuple(sorted(h.torsion))) for h in package]
        assert got == oracle, name


def test_boundary_squares_to_zero():
    for x in CORPUS.values():
        cx = normalized_complex(chains_functor(x, ZZ))
        cx.check_square_zero()


def test_homology_over_prime_field():
    f2 = prime_field(2)
    got = homology(chains_functor(projective_plane(3), f2), 2)
    # mod 2 the torsion class contributes in degrees 1 and 2
    assert [h.betti for h in got] == [1, 1, 1]
    assert all(not h.torsion for h in got)


def test_weak_equivalence_examples():
    s1 = standard_circle(2)
    ident = chains_map(identity_simplicial_map(s1), ZZ)
    assert is_weak_equivalence(ident, 1)
    pt = standard_point(2)
    two = two_point_set(2)
    collapse2 = chains_map(constant_map(two, pt, "pt"), ZZ)
    assert not is_weak_equivalence(collapse2, 1)
    retract = chains_map(constant_map(standard_interval(2), pt, "pt"), ZZ)
    assert is_weak_equivalence(retract, 1)


def test_cofibration_examples():
    s1 = standard_circle(2)
    ident = chains_map(identity_simplicial_map(s1), ZZ)
    assert is_cofibration(ident)
    sc = chains_functor(standard_point(2), ZZ)
    doubling = SimplicialCoalgebraMap(sc, sc, [Matrix(ZZ, [[2]], 1)] * 3)
    assert not is_cofibration(doubling)
    # simplicial-set inclusions linearize to pure injections
    from purecoalg import SimplicialMap

    two = two_point_set(2)
    vertex_inclusion = SimplicialMap(
        standard_point(2),
        two,
        [{name: name.replace("pt", "x") for name in level} for level in standard_point(2).levels],
    )
    assert is_cofibration(chains_map(vertex_inclusion, ZZ))


def test_mapping_cone_runs_one_projection_per_level(monkeypatch):
    """The cone reuses the projections and sections of the two normalized complexes."""
    from purecoalg.lattice import Lattice

    calls = []
    original = Lattice.complement_projection

    def counted(self):
        calls.append(self.ambient_rank)
        return original(self)

    monkeypatch.setattr(Lattice, "complement_projection", counted)
    pt = standard_point(2)
    collapse = chains_map(constant_map(standard_interval(2), pt, "pt"), ZZ)
    assert is_weak_equivalence(collapse, 1)
    # three levels on each side, one Smith decomposition each
    assert len(calls) == 6


def test_weak_equivalence_degree_guard():
    s1 = standard_circle(2)
    ident = chains_map(identity_simplicial_map(s1), ZZ)
    with pytest.raises(DegreeTooHigh):
        is_weak_equivalence(ident, 2)


def test_builder_rejects_bad_cells():
    from purecoalg import ValidationError

    with pytest.raises(ValidationError):
        simplicial_set_from_cells(2, [["v"], [("e", [((), "v")])]])
