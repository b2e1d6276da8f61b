"""Acceptance suite: the exit criteria of the workbench, one test each.

Every criterion is exact (no tolerances anywhere: all arithmetic is
exact), runs on a fixed seeded corpus, and prints one pass line on
success; a failure shows up as an ordinary pytest failure.
"""

import os
from fractions import Fraction

import pytest

from purecoalg import (
    Coalgebra,
    Lattice,
    Matrix,
    QQ,
    ZZ,
    binomial_check,
    chains_functor,
    chains_map,
    components,
    components_by_wedge,
    constant_map,
    coradical_filtration,
    dual_algebra,
    dual_of_algebra,
    elementary_divisors,
    gr_simplicial,
    gr_simplicial_map,
    group_likes,
    homology,
    identity_simplicial_map,
    is_pointed,
    is_weak_equivalence,
    monogenic_algebra,
    prime_field,
    primitives,
    projective_plane,
    set_like,
    split_coradical,
    check_splitting_naturality,
    standard_circle,
    standard_interval,
    standard_point,
    tensor,
    tensor_filtration,
    truncated_polynomial_algebra,
    two_point_set,
)
from purecoalg.cli import run_command
from purecoalg.corpus import (
    generate_coalgebras,
    generate_maps,
    generate_tensor_pairs,
)

from oracles import cone_is_acyclic, direct_homology, group_likes_bruteforce, random_lattices

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
ACCEPTANCE_SEED = 20240809


@pytest.fixture(scope="session")
def corpus200():
    entries = generate_coalgebras(ACCEPTANCE_SEED, 200, max_rank=12)
    assert len(entries) >= 200 and all(e.coalgebra.rank <= 12 for e in entries)
    return entries


@pytest.fixture(scope="session")
def decompositions(corpus200):
    return [(entry, components(entry.coalgebra)) for entry in corpus200]


def _over_q(c: Coalgebra) -> Coalgebra:
    delta = Matrix(QQ, [[Fraction(v) for v in row] for row in c.delta.rows], c.rank * c.rank)
    return Coalgebra(QQ, c.rank, delta, [Fraction(v) for v in c.counit])


def test_acceptance_01_sqrt2_counterexample():
    c = dual_of_algebra(monogenic_algebra(ZZ, [2, 0]))
    assert group_likes(c).vectors == ()
    flag, report = is_pointed(c)
    assert not flag
    code, _ = run_command(["pointed", os.path.join(DATA, "sqrt2-dual.json")], "coalg")
    assert code == 1
    print("[acceptance 1] PASS: dual of Z[x]/(x^2-2) has no group-likes and is not pointed")


def test_acceptance_02_unit_isomorphism():
    for size in range(7):
        names = [f"s{i}" for i in range(size)]
        c = set_like(ZZ, names)
        vectors = group_likes(c).vectors
        assert len(vectors) == size
        recovered = set()
        for g in vectors:
            ones = [i for i, v in enumerate(g) if v == 1]
            assert len(ones) == 1 and sum(abs(v) for v in g) == 1
            recovered.add(c.name_of(ones[0]))
        assert recovered == set(names)
    models = [
        standard_point(2),
        standard_interval(2),
        standard_circle(2),
        two_point_set(2),
        projective_plane(3),
    ]
    for x in models:
        back = gr_simplicial(chains_functor(x, ZZ))
        assert [sorted(level) for level in back.levels] == [sorted(level) for level in x.levels]
        assert back.faces == x.faces and back.degeneracies == x.degeneracies
    print("[acceptance 2] PASS: unit of the set/coalgebra adjunction is an isomorphism")


def test_acceptance_03_grouplike_independence_purity(corpus200):
    checked = 0
    for entry in corpus200:
        gl = group_likes(entry.coalgebra)
        assert len(gl) == entry.grouplike_count, entry.recipe
        if gl.vectors:
            stacked = Matrix(ZZ, [list(v) for v in gl.vectors], entry.coalgebra.rank)
            divisors = elementary_divisors(stacked)
            assert len(divisors) == len(gl.vectors)
            assert all(d in (1, -1) for d in divisors), entry.recipe
        assert gl.pure
        checked += 1
    assert checked >= 200
    print(f"[acceptance 3] PASS: unit group-like certificates on {checked}/200 corpus coalgebras")


def test_acceptance_04_component_decomposition(decompositions):
    checked = 0
    for entry, decomposition in decompositions:
        c = entry.coalgebra
        parts = decomposition.parts
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert parts[i][1].intersect(parts[j][1]).rank == 0, entry.recipe
        stacked = decomposition.stacked_basis()
        assert stacked.nrows == c.rank
        divisors = elementary_divisors(stacked)
        assert len(divisors) == c.rank and all(d in (1, -1) for d in divisors), entry.recipe
        assert tuple(sorted(lat.rank for _, lat in parts)) == entry.component_ranks
        checked += 1
    assert checked >= 200
    print(f"[acceptance 4] PASS: direct-sum decomposition on {checked}/200 corpus coalgebras")


def test_acceptance_05_splitting_naturality():
    records = generate_maps(ACCEPTANCE_SEED + 1, 100, max_rank=8)
    assert len(records) >= 100
    for record in records:
        assert check_splitting_naturality(record.map), record.kind
    print(f"[acceptance 5] PASS: coradical splitting natural on {len(records)}/100 corpus maps")


def test_acceptance_06_filtration_ranks_match_rational(corpus200):
    for entry in corpus200:
        over_z = coradical_filtration(entry.coalgebra).stage_ranks
        over_q = coradical_filtration(_over_q(entry.coalgebra)).stage_ranks
        assert over_z == over_q == entry.coradical_ranks, entry.recipe
    print("[acceptance 6] PASS: integral stage ranks equal rational stage dimensions on 200 coalgebras")


def test_acceptance_07_primitives_split_stage_one():
    c = dual_of_algebra(truncated_polynomial_algebra(ZZ, 3))
    filt = coradical_filtration(c)
    assert filt.stage_ranks == (1, 2, 3)
    pr = primitives(c, [1, 0, 0])
    assert pr.rank == 1
    assert filt.stages[1] == filt.stages[0].add(pr)
    assert filt.stages[1].rank == filt.stages[0].rank + pr.rank
    print("[acceptance 7] PASS: stage one of dual Z[x]/(x^3) splits as coradical plus primitives")


def test_acceptance_08_tensor_grouplikes_and_graded_ranks():
    pairs = generate_tensor_pairs(ACCEPTANCE_SEED + 2, 50, max_product_rank=12)
    assert len(pairs) >= 50
    for entry_a, entry_b in pairs:
        a, b = entry_a.coalgebra, entry_b.coalgebra
        product = tensor(a, b)
        got = set(group_likes(product).vectors)
        expected = {
            tuple(x * y for x in g for y in h)
            for g in group_likes(a).vectors
            for h in group_likes(b).vectors
        }
        assert got == expected
        fa = coradical_filtration(a)
        fb = coradical_filtration(b)
        tensor_filtration(fa, fb)  # asserts the graded-rank identity internally
    print(f"[acceptance 8] PASS: tensor group-likes and graded ranks on {len(pairs)}/50 pairs")


def test_acceptance_09_oracle_equivalence(corpus200, decompositions):
    scanned = 0
    for p in (2, 3, 5):
        ring = prime_field(p)
        for entry in generate_coalgebras(ACCEPTANCE_SEED + p, 15, max_rank=4, ring=ring):
            fast = group_likes(entry.coalgebra).vectors
            slow = group_likes_bruteforce(entry.coalgebra)
            assert fast == slow, entry.recipe
            scanned += 1
    for entry, decomposition in decompositions:
        oracle = components_by_wedge(entry.coalgebra)
        assert decomposition.parts == oracle.parts, entry.recipe
    print(f"[acceptance 9] PASS: brute-force oracle on {scanned} prime-field coalgebras;"
          " wedge oracle on 200 integral decompositions")


def test_acceptance_10_purity_cross_check():
    lattices = random_lattices(ACCEPTANCE_SEED + 3, 500)
    assert len(lattices) >= 500
    for lat in lattices:
        lat.is_pure()  # raises if the Smith divisors and the Hermite pivots disagree
    print("[acceptance 10] PASS: purity decided identically by both methods on 500 lattices")


def test_acceptance_11_binomial(corpus200):
    report = binomial_check(__import__("purecoalg").split_algebra(ZZ, 2), (2, 3, 5, 7, 11, 13))
    assert report.all_pass
    report = binomial_check(monogenic_algebra(ZZ, [2, 0]), (2, 3))
    by_prime = {r.p: r for r in report.results}
    assert not by_prime[2].reduced
    assert by_prime[2].residue_fields_prime
    assert by_prime[3].reduced
    assert not by_prime[3].residue_fields_prime
    for entry in corpus200:
        rep = binomial_check(dual_algebra(entry.coalgebra), (2, 3, 5, 7, 11, 13))
        for r in rep.results:
            assert r.residue_fields_prime, (entry.recipe, r.p)
    print("[acceptance 11] PASS: binomial verdicts exact; condition two holds for 200 pointed duals")


def test_acceptance_12_homology_and_weak_equivalences():
    circle = standard_circle(2)
    got = homology(chains_functor(circle, ZZ), 1)
    assert [(h.betti, h.torsion) for h in got] == [(1, ()), (1, ())]
    assert direct_homology(circle, 1) == [(1, ()), (1, ())]

    rp2 = projective_plane(3)
    got = homology(chains_functor(rp2, ZZ), 2)
    assert [(h.betti, tuple(h.torsion)) for h in got] == [(1, ()), (0, (2,)), (0, ())]
    assert direct_homology(rp2, 2) == [(1, ()), (0, (2,)), (0, ())]

    point = standard_point(2)
    interval = standard_interval(2)
    two_points = two_point_set(2)
    maps = [
        identity_simplicial_map(point),
        identity_simplicial_map(interval),
        identity_simplicial_map(circle),
        identity_simplicial_map(two_points),
        identity_simplicial_map(rp2),
        constant_map(interval, point, "pt"),
        _vertex_inclusion(point, interval, "a"),
        _vertex_inclusion(point, interval, "b"),
        constant_map(interval, interval, "a"),
        _swap_two_points(two_points),
    ]
    assert len(maps) == 10
    for m in maps:
        top = m.domain.dimension_bound - 1
        f = chains_map(m, ZZ)
        assert is_weak_equivalence(f, top)
        induced = gr_simplicial_map(f)
        assert cone_is_acyclic(induced.domain, induced.codomain, induced.maps, top)
    print("[acceptance 12] PASS: homology matches the direct oracle; group-likes respect"
          " 10 weak equivalences")


def _vertex_inclusion(point, target, vertex):
    images = [vertex]
    for n in range(target.dimension_bound):
        images.append(target.degeneracies[(n, 0)][images[-1]])
    from purecoalg import SimplicialMap

    return SimplicialMap(point, target, [{s: images[n] for s in level} for n, level in enumerate(point.levels)])


def _swap_two_points(two_points):
    from purecoalg import SimplicialMap

    swap = {"x": "y", "y": "x"}
    maps = []
    for level in two_points.levels:
        mapping = {}
        for s in level:
            out = s
            for a, b in (("x", "#"), ("y", "x"), ("#", "y")):
                out = out.replace(a, b)
            mapping[s] = out
        maps.append(mapping)
    return SimplicialMap(two_points, two_points, maps)
