"""Simplicial sets, chains, homology, the two predicates."""

import random
from pathlib import Path

import pytest

from purecoalg import (
    QQ,
    AmbientMismatch,
    ChainComplex,
    Coalgebra,
    DegreeTooHigh,
    FiniteSimplicialSet,
    Matrix,
    SimplicialCoalgebra,
    SimplicialCoalgebraMap,
    SimplicialMap,
    ValidationError,
    ZZ,
    chain_complex,
    chains_functor,
    chains_map,
    constant_map,
    gr_simplicial,
    homology,
    identity_simplicial_map,
    is_cofibration,
    is_weak_equivalence,
    localized_integers,
    mapping_cone,
    prime_field,
    projective_plane,
    simplicial_set_from_cells,
    standard_circle,
    standard_interval,
    standard_point,
    two_point_set,
    validate_sset,
)

from oracles import cone_is_acyclic, direct_homology, simplicial_failure_locations

DATA = Path(__file__).resolve().parent.parent / "data"

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
    assert [str(h) for h in homology(chains_functor(standard_circle(2), ZZ), 0)] == ["Z"]
    for bad in (-1, -5):
        with pytest.raises(ValidationError, match=f"^degree must be at least 0, got {bad}$"):
            homology(chains_functor(standard_circle(2), ZZ), bad)


def test_homology_matches_direct_oracle():
    for name, x in CORPUS.items():
        top = x.dimension_bound - 1
        package = homology(chains_functor(x, ZZ), top)
        oracle = direct_homology(x, top)
        got = [(h.betti, tuple(sorted(h.torsion))) for h in package]
        assert got == oracle, name


def test_boundary_squares_to_zero():
    for x in CORPUS.values():
        cx = chain_complex(chains_functor(x, ZZ))
        cx.check_square_zero()


def test_homology_over_prime_field():
    f2 = prime_field(2)
    got = homology(chains_functor(projective_plane(3), f2), 2)
    # mod 2 the torsion class contributes in degrees 1 and 2
    assert [h.betti for h in got] == [1, 1, 1]
    assert all(not h.torsion for h in got)


def _data_ssets():
    from purecoalg.serialize import load_json, load_sset

    paths = sorted(DATA.glob("*.json"))
    return {f"data/{path.name}": load_sset(str(path)) for path in paths if "levels" in load_json(str(path))}


def _strip(order, primes):
    for p in primes:
        while order % p == 0:
            order //= p
    return order


RINGS = (ZZ, QQ, prime_field(2), prime_field(3), localized_integers([2]), localized_integers([2, 3]))


def _is_unit(ring, t: int) -> bool:
    """Whether the positive integer t is a unit of the ring, from the ring's kind alone."""
    if ring.modulus:
        return t % ring.modulus != 0
    if ring == QQ:
        return True
    return _strip(t, getattr(ring, "inverted", ())) == 1


def _universal_coefficients(integral, ring):
    """(betti, torsion) over the ring from the integral pairs.

    Over F_p: dim H_n = b_n + t_p(H_n) + t_p(H_{n-1}), t_p counting the torsion orders p divides;
    over Q and Z[S^-1]: the free rank b_n and the torsion orders with the primes of S stripped.
    """
    want = []
    for n, (betti, torsion) in enumerate(integral):
        if ring.modulus:
            below = integral[n - 1][1] if n else ()
            betti += sum(not _is_unit(ring, t) for t in torsion + below)
            torsion = ()
        else:
            primes = getattr(ring, "inverted", ())
            torsion = tuple([t for t in (_strip(t, primes) for t in torsion) if not _is_unit(ring, t)])
        want.append((betti, torsion))
    return want


def _homology_pairs(x, ring, top):
    return [(h.betti, h.torsion) for h in homology(chains_functor(x, ring), top)]


def _corpus(d: int) -> dict:
    return {"point": standard_point(d), "interval": standard_interval(d), "circle": standard_circle(d),
            "two-points": two_point_set(d), "rp2": projective_plane(d)}


def _edge_circle(k: int, d: int):
    """The circle of k vertices v_i and k edges e_i from v_i to v_{i+1}."""
    vertices = [f"v{i}" for i in range(k)]
    edges = [(f"e{i}", [((), vertices[(i + 1) % k]), ((), vertices[i])]) for i in range(k)]
    return simplicial_set_from_cells(d, [vertices, edges])


def _degree_map(k: int, d: int) -> SimplicialMap:
    """The k-edge circle onto ``standard_circle``, each edge onto its one edge: degree k, cone H_1 = Z/k."""
    x = _edge_circle(k, d)

    def image(name):
        ops, _, base = name.rpartition("(")
        target = "v" if base.startswith("v") else "e"
        return f"{ops}({target})" if ops else target

    return SimplicialMap(x, standard_circle(d), [{s: image(s) for s in level} for level in x.levels])


def test_homology_over_every_ring_is_the_universal_coefficient_image_of_the_integral_one():
    sets = {(name, d): x for d in range(2, 6) for name, x in _corpus(d).items()}
    sets.update({(f"{k}-edge circle", d): _edge_circle(k, d) for k in range(1, 7) for d in range(2, 6)})
    sets.update({(name, x.dimension_bound): x for name, x in _data_ssets().items()})
    assert len(sets) == 49
    for key, x in sets.items():
        top = x.dimension_bound - 1
        integral = direct_homology(x, top)
        for ring in RINGS:
            assert _homology_pairs(x, ring, top) == _universal_coefficients(integral, ring), (key, ring)


def test_a_degree_k_map_is_a_weak_equivalence_exactly_where_k_is_a_unit():
    verdicts = set()
    for k in range(1, 7):
        for d in range(2, 6):
            m = _degree_map(k, d)
            assert cone_is_acyclic(m.domain, m.codomain, m.maps, d - 1) == (k == 1)
            for ring in RINGS:
                got = is_weak_equivalence(chains_map(m, ring), d - 1)
                assert got == cone_is_acyclic(m.domain, m.codomain, m.maps, d - 1, lambda t: _is_unit(ring, t))
                assert got == _is_unit(ring, k), (k, d, ring)
                verdicts.add((str(ring), k, got))
    assert {(r, k) for r, k, got in verdicts if not got} == {
        ("Z", k) for k in range(2, 7)} | {("F2", 2), ("F2", 4), ("F2", 6), ("F3", 3), ("F3", 6),
                                          ("Z[1/{2}]", 3), ("Z[1/{2}]", 5), ("Z[1/{2}]", 6), ("Z[1/{2,3}]", 5)}


def test_weak_equivalences_of_every_truncation_match_the_cone_oracle():
    """Identities, collapses to a vertex and RP^2 onto the point.

    From d = 3 the cone of RP^2 onto the point has H_2 = Z/2 in range, so it
    is acyclic over Z[1/2], Q and F_3 only.
    """
    seen = set()
    for d in range(2, 6):
        corpus = _corpus(d)
        maps = [constant_map(corpus["rp2"], corpus["point"], "pt")]
        for x in corpus.values():
            maps += [identity_simplicial_map(x)] + [constant_map(x, x, v) for v in x.levels[0]]
        for m in maps:
            for ring in RINGS:
                got = is_weak_equivalence(chains_map(m, ring), d - 1)
                assert got == cone_is_acyclic(m.domain, m.codomain, m.maps, d - 1, lambda t: _is_unit(ring, t))
                seen.add((d > 2 and m.domain is corpus["rp2"] and m.codomain is corpus["point"], str(ring), got))
    assert {ring for rp2_point, ring, got in seen if rp2_point and got} == {"Q", "F3", "Z[1/{2}]", "Z[1/{2,3}]"}
    assert {got for _, _, got in seen} == {True, False}


def test_homology_eliminates_each_boundary_once_and_takes_no_rank(monkeypatch):
    from purecoalg import simplicial

    smith, ranks = [], []
    original = simplicial.elementary_divisors

    def counted(mat):
        smith.append(mat)
        return original(mat)

    monkeypatch.setattr(simplicial, "elementary_divisors", counted)
    monkeypatch.setattr(Matrix, "rank", lambda self: ranks.append(self))
    got = homology(chains_functor(projective_plane(3), ZZ), 2)
    assert [str(h) for h in got] == ["Z", "Z/2", "0"]
    assert len(smith) == 3 and ranks == []


def test_homology_refuses_boundaries_that_are_not_cycles():
    one = Matrix.identity(ZZ, 1)
    assert str(ChainComplex(ZZ, [1, 1], {1: one}).homology(0)) == "0"  # one boundary squares to nothing
    # d_2 * d_1 = 1 is checked once, at construction, so no homology is read off it
    with pytest.raises(AssertionError, match="boundary squared is nonzero in degree 2"):
        ChainComplex(ZZ, [1, 1, 1], {1: one, 2: one})
    for bad in (-1, -5):
        with pytest.raises(ValidationError, match=f"^degree must be at least 0, got {bad}$"):
            ChainComplex(ZZ, [1, 1], {1: one}).homology(bad)


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


def test_mapping_cone_refuses_a_map_that_is_not_a_chain_map(monkeypatch):
    """With the map's own check switched off, the cone's square-zero check still refuses d f != f d'."""
    interval = chains_functor(standard_interval(2), ZZ)
    levels = chains_map(identity_simplicial_map(standard_interval(2)), ZZ).levels
    swap = Matrix(ZZ, [[0, 1], [1, 0]], 2)  # a coalgebra map on the vertices that the edge's boundary sees
    f = SimplicialCoalgebraMap(interval, interval, [swap] + levels[1:])
    with pytest.raises(ValidationError, match="simplicial naturality"):
        mapping_cone(f)
    monkeypatch.setattr(SimplicialCoalgebraMap, "require_valid", lambda self: self)
    with pytest.raises(AssertionError, match="^boundary squared is nonzero in degree 2$"):
        mapping_cone(f)


def test_maps_refuse_a_level_list_of_the_wrong_length():
    pt = standard_point(2)
    maps = identity_simplicial_map(pt).maps
    sc = chains_functor(pt, ZZ)
    levels = [Matrix.identity(ZZ, 1)] * 3
    for count in (2, 4):
        with pytest.raises(AmbientMismatch, match=f"^simplicial map needs 3 levels, got {count}$"):
            SimplicialMap(pt, pt, (maps * 2)[:count])
        with pytest.raises(AmbientMismatch, match=f"^map needs 3 levels, got {count}$"):
            SimplicialCoalgebraMap(sc, sc, (levels * 2)[:count])


def test_weak_equivalence_degree_guard():
    s1 = standard_circle(2)
    ident = chains_map(identity_simplicial_map(s1), ZZ)
    with pytest.raises(DegreeTooHigh):
        is_weak_equivalence(ident, 2)
    for bad in (-1, -5):
        with pytest.raises(ValidationError, match=f"^degree must be at least 0, got {bad}$"):
            is_weak_equivalence(ident, bad)


def test_builder_rejects_bad_cells():
    with pytest.raises(ValidationError):
        simplicial_set_from_cells(2, [["v"], [("e", [((), "v")])]])


# --- every validator report against the identity oracle ------------------------


def _shuffled(rng, table):
    """table with its keys in a random order: validators walk sorted keys or dict order, as documented."""
    keys = sorted(table)
    rng.shuffle(keys)
    return {key: table[key] for key in keys}


def _copy_sset(x, rng=None):
    faces = {k: dict(v) for k, v in x.faces.items()}
    degeneracies = {k: dict(v) for k, v in x.degeneracies.items()}
    if rng is not None:
        faces, degeneracies = _shuffled(rng, faces), _shuffled(rng, degeneracies)
    return FiniteSimplicialSet(x.dimension_bound, x.levels, faces, degeneracies)


def _mutate_sset(rng, x):
    """One to three random edits of names, entries and keys of a copy of x."""
    x = _copy_sset(x, rng)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(6)
        if kind == 0:
            level = x.levels[rng.randrange(len(x.levels))]
            level.append(rng.choice(level))
            continue
        table = rng.choice([x.faces, x.degeneracies])
        key = rng.choice(sorted(table))
        target = x.levels[key[0] - 1 if table is x.faces else key[0] + 1]
        mapping = table[key]
        if not mapping:
            continue
        s = rng.choice(sorted(mapping))
        if kind == 1:
            del table[key]
        elif kind == 2:
            del mapping[s]
        elif kind == 3:
            mapping[s] = "ghost"
        elif kind == 4:
            mapping[s] = rng.choice(target)
        else:
            t = rng.choice(sorted(mapping))
            mapping[s], mapping[t] = mapping[t], mapping[s]
    if rng.random() < 0.2:
        # a record outside the truncation: past its top, at an index above n, or a face of a vertex
        d = x.dimension_bound
        table, key = rng.choice([(x.faces, (d + 1, 0)), (x.faces, (1, rng.randint(2, 5))), (x.faces, (0, 0)),
                                 (x.degeneracies, (d, 0)), (x.degeneracies, (0, rng.randint(1, 3)))])
        table[key] = {}
    return x


def _perturbed(rng, mat, ring):
    rows = [list(row) for row in mat.rows]
    r = rng.randrange(len(rows))
    if rng.random() < 0.5:
        rows[r][rng.randrange(mat.ncols)] += rng.choice([-1, 1, 2])
    else:
        rows[r] = list(rows[rng.randrange(len(rows))])
    return Matrix(ring, rows, mat.ncols)


def _mutate_scoalg(rng, c):
    levels, faces, degeneracies = list(c.levels), _shuffled(rng, c.faces), _shuffled(rng, c.degeneracies)
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(3)
        if kind == 0:
            n = rng.randrange(len(levels))
            level = levels[n]
            rows = [list(row) for row in level.delta.rows]
            counit = list(level.counit)
            if rng.random() < 0.5:
                rows[rng.randrange(level.rank)][rng.randrange(level.rank ** 2)] += 1
            else:
                counit[rng.randrange(level.rank)] += 1
            levels[n] = Coalgebra(c.ring, level.rank, Matrix(c.ring, rows, level.rank ** 2), counit)
        else:
            table = faces if kind == 1 else degeneracies
            key = rng.choice(sorted(table))
            table[key] = _perturbed(rng, table[key], c.ring)
    return SimplicialCoalgebra(c.ring, levels, faces, degeneracies)


def _mutate_smap(rng, m):
    maps = [dict(level) for level in m.maps]
    n = rng.randrange(len(maps))
    s = rng.choice(sorted(maps[n]))
    kind = rng.randrange(3)
    if kind == 0:
        del maps[n][s]
    elif kind == 1:
        maps[n][s] = "ghost"
    else:
        maps[n][s] = rng.choice(m.codomain.levels[n])
    return SimplicialMap(m.domain, m.codomain, maps)


def _mutate_scoalg_map(rng, f):
    levels = list(f.levels)
    n = rng.randrange(len(levels))
    levels[n] = _perturbed(rng, levels[n], f.domain.ring)
    return SimplicialCoalgebraMap(f.domain, f.codomain, levels)


_REFUSALS = {
    FiniteSimplicialSet: "simplicial identity failed",
    SimplicialCoalgebra: "simplicial coalgebra check failed",
    SimplicialMap: "simplicial map check failed",
    SimplicialCoalgebraMap: "simplicial coalgebra map check failed",
}


def _checks(report):
    return [(check.name, check.passed, check.location) for check in report.checks]


def _oracle_checks(obj):
    return [(name, not loc, loc) for name, loc in simplicial_failure_locations(obj)]


def test_validators_match_the_identity_oracle():
    """Seeded edits of the standard sets, their chains and self-maps; each report equals the oracle's."""
    rng = random.Random(1109)
    failed = set()
    outside = []

    def compare(obj):
        report = obj.validate()
        got = _checks(report)
        assert got == _oracle_checks(obj), obj
        if report.overall:
            assert obj.require_valid() is obj
        else:
            with pytest.raises(ValidationError) as info:
                obj.require_valid()
            assert str(info.value) == f"{_REFUSALS[type(obj)]}: {report.first_failure()}"
        failed.update(name for name, passed, _ in got if not passed)
        outside.extend(loc for _, _, loc in got if loc.startswith("unexpected"))

    for name, x in CORPUS.items():
        compare(x)
        for _ in range(150):
            compare(_mutate_sset(rng, x))
        sc = chains_functor(x, ZZ)
        compare(sc)
        for _ in range(40):
            compare(_mutate_scoalg(rng, sc))
        shuffled = SimplicialMap(_copy_sset(x, rng), x, [{s: s for s in level} for level in x.levels])
        for m in [identity_simplicial_map(x), shuffled] + [constant_map(x, x, v) for v in x.levels[0]]:
            compare(m)
            for _ in range(30):
                compare(_mutate_smap(rng, m))
            f = chains_map(m, ZZ)
            compare(f)
            for _ in range(15):
                compare(_mutate_scoalg_map(rng, f))
    assert failed == {
        "level names distinct", "structure maps total", "face-face identities",
        "degeneracy-degeneracy identities", "face-degeneracy identities",
        "levels are coalgebras", "structure maps are coalgebra maps", "simplicial identities",
        "levelwise totality", "commutes with structure maps",
        "levelwise coalgebra maps", "simplicial naturality",
    }
    assert {loc.split()[1] for loc in outside} == {"face", "degeneracy"}
