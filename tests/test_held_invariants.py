"""Invariants held on a Coalgebra: the same answers as a fresh object, refusals that repeat."""

import math
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from purecoalg import (
    AlgebraPresentation,
    AmbientMismatch,
    Coalgebra,
    CoalgebraMap,
    Filtration,
    InvalidAlgebra,
    Lattice,
    Matrix,
    NotPointed,
    NotPure,
    PrimeInverted,
    QQ,
    UnsupportedRing,
    ValidationError,
    ZZ,
    WorkbenchError,
    binomial_check,
    check_splitting_naturality,
    components,
    conjugate,
    coradical_filtration,
    coradical_lattice,
    dual_algebra,
    dual_of_algebra,
    group_likes,
    identity_map,
    is_pointed,
    localized_integers,
    monogenic_algebra,
    prime_field,
    primitives,
    push_filtration,
    set_like,
    split_coradical,
    tensor_filtration,
    truncated_polynomial_algebra,
)
from purecoalg import binomial, coalgebra, grouplike, structure
from purecoalg.corpus import generate_coalgebras, generate_maps

import oracles


def _twin(c):
    """An equal coalgebra built separately, holding nothing."""
    return Coalgebra(c.ring, c.rank, c.delta, c.counit, c.basis_names)


def _primitives(c):
    # the group-like of an irreducible coalgebra, else any vector (NotIrreducible or NotPointed)
    vectors = group_likes(_twin(c)).vectors
    return primitives(c, vectors[0] if vectors else [c.ring.one] + [c.ring.zero] * (c.rank - 1))


ENTRIES = (is_pointed, group_likes, coradical_lattice, coradical_filtration, components, split_coradical,
           _primitives)


def _outcome(call, c):
    """What a public entry returns on c, or the type and message of the refusal it raises."""
    try:
        got = call(c)
    except WorkbenchError as err:
        return type(err), str(err)
    if isinstance(got, Filtration):
        return got.coalgebra, got.stages
    return got


def _corpus(seed, count, max_rank, ring):
    return [e.coalgebra for e in generate_coalgebras(seed, count, max_rank=max_rank, ring=ring)]


def _with_denominators(cs):
    """Each Z[1/2,1/3] coalgebra and its conjugate by diag(1/6, 1, ...), which puts denominators into Delta."""
    out = []
    for c in cs:
        w = Matrix(c.ring, [[Fraction(int(i == j), 6 if i == j == 0 else 1) for j in range(c.rank)]
                            for i in range(c.rank)], c.rank)
        out += [c, conjugate(c, w)]
    return out


def _sqrt2_dual(ring):
    return dual_of_algebra(monogenic_algebra(ring, [ring.normalize(2), ring.zero]))


def _impure_dual():
    # the dual of Z[x]/(x^2 - 2x): group-likes (1,0) and (1,2) collide mod 2
    return dual_of_algebra(monogenic_algebra(ZZ, [0, 2]))


ZS = localized_integers([2, 3])
CORPORA = {
    "Z": lambda: _corpus(43, 12, 8, ZZ) + [_sqrt2_dual(ZZ), _impure_dual()],
    "Q": lambda: _corpus(44, 10, 6, QQ) + [_sqrt2_dual(QQ)],
    "Z[1/2,1/3]": lambda: _with_denominators(_corpus(41, 5, 6, ZS)),
    "F101": lambda: _corpus(47, 10, 6, prime_field(101)) + [_sqrt2_dual(prime_field(101))],
    # p <= rank: the coradical span comes from the iterated Frobenius
    "F2": lambda: _corpus(7, 10, 6, prime_field(2))
    + [dual_of_algebra(truncated_polynomial_algebra(prime_field(2), k)) for k in (2, 4)],
    "F3": lambda: _corpus(8, 10, 6, prime_field(3))
    + [dual_of_algebra(truncated_polynomial_algebra(prime_field(3), k)) for k in (3, 5)],
}


@pytest.mark.parametrize("ring", list(CORPORA))
def test_every_entry_answers_as_on_a_fresh_equal_coalgebra(ring):
    cs = CORPORA[ring]()
    if ring in ("F2", "F3"):
        assert sum(c.rank >= c.ring.p for c in cs) >= 8
    refused = 0
    for c in cs:
        fresh = [_outcome(call, _twin(c)) for call in ENTRIES]
        first = [_outcome(call, c) for call in ENTRIES]
        again = [_outcome(call, c) for call in ENTRIES]
        assert first == fresh and again == fresh, c
        assert _twin(c) == c and hash(_twin(c)) == hash(c)
        refused += any(isinstance(x, tuple) and isinstance(x[0], type) for x in fresh[3:6])
    if ring in ("Z", "Q", "F101"):
        assert refused >= 1


def test_not_pointed_refuses_on_every_call_and_holds_only_the_search():
    c = _sqrt2_dual(ZZ)
    for call in (coradical_filtration, components, split_coradical, components):
        with pytest.raises(NotPointed, match="semisimple dimension over the fraction field: 2"):
            call(c)
        # "valid": dual_of_algebra checked the axioms when it built c
        assert set(c._derived) == {"valid", "search"}
    assert c._derived["search"] == (2, ())
    assert is_pointed(c) == is_pointed(_twin(c))


def test_impure_group_likes_refuse_on_every_call_and_hold_no_components():
    c = _impure_dual()
    for call in (components, split_coradical, coradical_filtration, coradical_lattice, components):
        with pytest.raises(NotPure, match="reduction mod 2 identifies group-likes"):
            call(c)
        assert set(c._derived) == {"valid", "search", "group_likes"}
    assert group_likes(c) == group_likes(_twin(c)) and not group_likes(c).pure


def test_refused_candidate_holds_no_group_likes(monkeypatch):
    c = _corpus(43, 12, 8, ZZ)[3]
    monkeypatch.setattr(grouplike, "_is_group_like", lambda c, g: False)
    for call in (group_likes, components, split_coradical, coradical_filtration):
        with pytest.raises(AssertionError, match="character candidate failed exact verification"):
            call(c)
        assert set(c._derived) == {"search"}
    monkeypatch.undo()
    assert components(c) == components(_twin(c))
    assert set(c._derived) == {"search", "group_likes", "components"}


def test_failed_search_holds_nothing(monkeypatch):
    c = _corpus(43, 12, 8, ZZ)[3]

    def lost(space, image):
        raise AssertionError("joint eigenspace lost invariance")

    monkeypatch.setattr(grouplike, "_restriction", lost)
    for call in (is_pointed, group_likes, components, is_pointed):
        with pytest.raises(AssertionError, match="joint eigenspace lost invariance"):
            call(c)
        assert c._derived == {}
    monkeypatch.undo()
    assert is_pointed(c) == is_pointed(_twin(c))
    # deciding pointedness certifies nothing
    assert set(c._derived) == {"search"}


def test_refused_decomposition_holds_no_components(monkeypatch):
    c = _corpus(43, 20, 8, ZZ)[9]
    monkeypatch.setattr(structure, "_lift_steps", lambda n: 0)
    for _ in range(2):
        with pytest.raises(AssertionError, match="idempotent lifting did not converge"):
            split_coradical(c)
        assert "components" not in c._derived
    monkeypatch.undo()
    assert split_coradical(c) == split_coradical(_twin(c))


def _counted(monkeypatch, module, name):
    """The list that each call of module.name appends its first argument to."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("ring", ["Z", "Q", "Z[1/2,1/3]", "F3"])
def test_the_group_like_span_is_built_and_transformed_once(monkeypatch, ring):
    # group_likes builds the span; the coradical, V_0 and its wedge projection,
    # the components' coradical and the primitives all read that one lattice
    from purecoalg import lattice as lattice_mod

    base = {"Z": ZZ, "Q": QQ, "Z[1/2,1/3]": ZS, "F3": prime_field(3)}[ring]
    irreducible = dual_of_algebra(truncated_polynomial_algebra(base, 3))
    # past rank 1 no other lattice the entries build has the group-likes as its rows
    cs = [c for c in CORPORA[ring]() + [irreducible]
          if c.rank > 1 and is_pointed(c)[0] and group_likes(_twin(c)).pure]
    assert any(len(group_likes(c)) == 1 for c in cs) and any(len(group_likes(c)) > 1 for c in cs)
    builds = _counted(monkeypatch, lattice_mod, "hnf_basis")
    transforms = _counted(monkeypatch, lattice_mod, "hnf")
    for c in cs:
        c = _twin(c)
        builds.clear()
        transforms.clear()
        for call in (group_likes, coradical_lattice, coradical_filtration, components, split_coradical):
            call(c)
        gl = group_likes(c)
        if len(gl) == 1:
            primitives(c, gl.vectors[0])
        stacked = [list(g) for g in gl]
        assert [m.rows for m in builds].count(stacked) == 1
        if gl.span.rank < c.rank:
            assert transforms.count(gl.span._integer_basis().transpose()) == 1
        assert coradical_lattice(c) is gl.span is components(c).coradical()
        assert coradical_filtration(c).stages[0] is gl.span


def test_naturality_reuses_both_decompositions(monkeypatch):
    # the retractions are rebuilt and validated, the decompositions are not
    cs = [c for c in _corpus(43, 12, 8, ZZ) if is_pointed(c)[0]]
    for c in cs:
        split_coradical(c)
    searches = _counted(monkeypatch, grouplike, "_character_tuples")
    lifts = _counted(monkeypatch, structure, "_lifted_idempotent")
    validated = _counted(monkeypatch, structure, "_validated_decomposition")
    retractions = _counted(monkeypatch, structure, "validate_map")
    for c in cs:
        assert check_splitting_naturality(identity_map(c))
    assert searches == lifts == validated == []
    assert [f.domain for f in retractions] == cs


@pytest.mark.parametrize("ring", ["Z", "Q", "F2"])
def test_filtration_wedges_and_validation_run_once_per_coalgebra(monkeypatch, ring):
    cs = [c for c in CORPORA[ring]() if is_pointed(c)[0] and group_likes(c).pure]
    wedges = _counted(monkeypatch, structure, "_unchecked_wedge")
    built = _counted(monkeypatch, structure.Filtration, "__init__")
    for c in cs:
        first = coradical_filtration(c)
        assert all(coradical_filtration(c) is first for _ in range(3))
        assert c._derived["filtration"] is first
        assert len(built) == 1 and len(wedges) == first.length - 1
        assert first.stages == coradical_filtration(_twin(c)).stages
        wedges.clear()
        built.clear()


def test_filtrations_over_a_map_corpus_check_each_domain_once(monkeypatch):
    maps = [record.map for record in generate_maps(5, 40, max_rank=6)]
    domains = {id(f.domain): f.domain for f in maps}
    # the corpus shares coalgebras between maps
    assert len(domains) < len(maps)
    built = _counted(monkeypatch, structure.Filtration, "__init__")
    for _ in range(2):
        for f in maps:
            push_filtration(f, coradical_filtration(f.domain))
    # each domain's filtration is validated once; every other Filtration is a pushed one, one per map,
    # held on the map and returned by the second pass
    held = sorted(id(c._derived["filtration"]) for c in domains.values())
    assert sorted(id(filt) for filt in built if id(filt) in held) == held
    assert len(built) == len(held) + len(maps)
    assert sorted(id(filt) for filt in built if id(filt) not in held) == sorted(id(f._pushed[1]) for f in maps)


PUSH_RINGS = {"Z": ZZ, "Q": QQ, "Z[1/2,1/3]": ZS, "F101": prime_field(101)}


@pytest.mark.parametrize("ring", list(PUSH_RINGS))
def test_a_pushed_filtration_is_built_and_certified_once_per_map_and_filtration(monkeypatch, ring):
    maps = [record.map for record in generate_maps(13, 15, max_rank=6, ring=PUSH_RINGS[ring])]
    held = [coradical_filtration(f.domain) for f in maps]
    # another filtration object on each domain, with a different answer where the domain has two stages
    others = [Filtration(f.domain, v.stages[:1]) for f, v in zip(maps, held)]
    assert sum(v.length > 1 for v in held) >= 5
    built = _counted(monkeypatch, structure.Filtration, "__init__")
    for f, v, other in zip(maps, held, others):
        first = push_filtration(f, v)
        assert len(built) == 1 and f._pushed == (v, first)
        assert push_filtration(f, v) is first and len(built) == 1
        twin = CoalgebraMap(_twin(f.domain), _twin(f.codomain), f.matrix)
        fresh = push_filtration(twin, coradical_filtration(twin.domain))
        assert (first.coalgebra, first.stages) == (fresh.coalgebra, fresh.stages)
        # an equal map is another object and builds its own
        equal = CoalgebraMap(f.domain, f.codomain, f.matrix)
        built.clear()
        own = push_filtration(equal, v)
        assert own is not first and (own.coalgebra, own.stages) == (first.coalgebra, first.stages)
        assert len(built) == 1 and f._pushed[1] is first
        # another filtration object is certified afresh and replaces the held pair
        built.clear()
        replaced = push_filtration(f, other)
        assert replaced is not first and replaced.stages == first.stages[:1]
        assert len(built) == 1 and f._pushed == (other, replaced)
        assert push_filtration(f, other) is replaced and len(built) == 1
        built.clear()


def test_a_refused_push_holds_nothing_and_certifies_afresh_once_mended(monkeypatch):
    c = _local(3)
    filt = coradical_filtration(c)
    # a filtration on another coalgebra: AmbientMismatch on every call, nothing held
    f = identity_map(_local(2))
    for _ in range(2):
        with pytest.raises(AmbientMismatch, match="filtration does not live on the domain of the map"):
            push_filtration(f, filt)
        assert f._pushed is None
    pushed = push_filtration(f, coradical_filtration(f.domain))
    assert f._pushed[1] is pushed and pushed.stage_ranks == (1, 2)
    # a map that fails its axioms is refused by require_valid on every call
    points = set_like(ZZ, ["a", "b"])
    bad = CoalgebraMap(points, points, Matrix(ZZ, [[2, -1], [1, 0]], 2))
    for _ in range(2):
        with pytest.raises(ValidationError, match="coalgebra map axiom failed"):
            push_filtration(bad, coradical_filtration(points))
        assert bad._pushed is None
    # an enlarged computed stage: the certifier refuses it as an internal failure on every call
    f = identity_map(c)
    saturate = Lattice.saturate
    monkeypatch.setattr(Lattice, "saturate", lambda lat: _enlarged(saturate(lat)))
    built = _counted(monkeypatch, structure.Filtration, "__init__")
    for calls in (1, 2):
        with pytest.raises(AssertionError, match="computed filtration refused: "):
            push_filtration(f, filt)
        assert f._pushed is None and len(built) == calls
    monkeypatch.setattr(Lattice, "saturate", saturate)
    built.clear()
    pushed = push_filtration(f, filt)
    assert len(built) == 1 and f._pushed == (filt, pushed) and pushed.stage_ranks == (1, 2, 3)
    assert push_filtration(f, filt) is pushed and len(built) == 1


@pytest.mark.parametrize("coalgebra, error, message", [
    (lambda: _sqrt2_dual(ZZ), NotPointed, "semisimple dimension over the fraction field: 2"),
    (_impure_dual, NotPure, "reduction mod 2 identifies group-likes"),
], ids=["not-pointed", "impure"])
def test_a_refused_filtration_or_retraction_holds_nothing_and_refuses_again(coalgebra, error, message):
    c = coalgebra()
    for call in (coradical_filtration, split_coradical, coradical_filtration, split_coradical):
        with pytest.raises(error, match=message) as refused:
            call(c)
        assert _outcome(call, _twin(c)) == (error, str(refused.value))
        assert "filtration" not in c._derived


def test_push_and_tensor_filtrations_on_held_filtrations_match_fresh_twins():
    for record in generate_maps(9, 20, max_rank=6):
        f = record.map
        held = coradical_filtration(f.domain)
        assert coradical_filtration(f.domain) is held
        twin = CoalgebraMap(_twin(f.domain), _twin(f.codomain), f.matrix)
        pushed, fresh = push_filtration(f, held), push_filtration(twin, coradical_filtration(twin.domain))
        assert (pushed.coalgebra, pushed.stages) == (fresh.coalgebra, fresh.stages), record.kind
    cs = [c for c in _corpus(43, 12, 8, ZZ) if is_pointed(c)[0] and c.rank <= 4]
    for a, b in zip(cs, cs[1:] + cs[:1]):
        held = tensor_filtration(coradical_filtration(a), coradical_filtration(b))
        again = tensor_filtration(coradical_filtration(a), coradical_filtration(b))
        fresh = tensor_filtration(coradical_filtration(_twin(a)), coradical_filtration(_twin(b)))
        assert (held.coalgebra, held.stages) == (again.coalgebra, again.stages) == (fresh.coalgebra, fresh.stages)


def _local(k):
    return dual_of_algebra(truncated_polynomial_algebra(ZZ, k))


def _enlarged(lat):
    """lat with the last basis vector of its ambient lattice added."""
    n = lat.ambient_rank
    return Lattice.from_rows(lat.ring, n, lat.basis.rows + [[0] * (n - 1) + [1]])


def test_a_filtration_that_stalls_below_full_rank_is_refused_and_not_held(monkeypatch):
    c = _local(3)
    monkeypatch.setattr(structure, "_unchecked_wedge", lambda d, f, c: d)
    for _ in range(2):
        with pytest.raises(AssertionError, match="coradical filtration stabilized below full rank"):
            coradical_filtration(c)
        assert "filtration" not in c._derived
    monkeypatch.undo()
    assert coradical_filtration(c).stage_ranks == (1, 2, 3)
    assert "filtration" in c._derived


def test_a_filtration_past_the_rank_bound_is_refused_and_not_held(monkeypatch):
    c = _local(3)
    v0 = coradical_lattice(c)
    other = Lattice.from_rows(ZZ, 3, [[0, 0, 1]])
    # the stages alternate between V_0 and another rank-1 lattice, never repeating the last one
    monkeypatch.setattr(structure, "_unchecked_wedge", lambda d, f, c: other if d == v0 else v0)
    for _ in range(2):
        with pytest.raises(AssertionError, match="coradical filtration exceeded the rank bound"):
            coradical_filtration(c)
        assert "filtration" not in c._derived
    monkeypatch.undo()
    assert coradical_filtration(c).stage_ranks == (1, 2, 3)


# the held idempotents (g, E, d) of set_like(ZZ, ["a", "b"]) that make row i of the retraction
# sum_g E[i] * g: e_a -> 2a - b is no coalgebra map; swapping the points is one but no idempotent,
# which the fixed group-likes refuse; sending both points to a is an idempotent coalgebra map that moves b
BROKEN_IDEMPOTENTS = {
    "validation": (((0, 1), [-1, 0], 1), ((1, 0), [2, 1], 1)),
    "idempotent": (((0, 1), [1, 0], 1), ((1, 0), [0, 1], 1)),
    "fixed": (((0, 1), [0, 0], 1), ((1, 0), [1, 1], 1)),
    # over Z a denominator can only come from a wrong lift
    "integral": (((0, 1), [1, 1], 2), ((1, 0), [1, 1], 2)),
}


@pytest.mark.parametrize("breakage, message", [
    ("validation", "coradical retraction failed validation"),
    # idempotence follows from the fixed group-likes and the image, so the fixed check refuses a swap
    pytest.param("idempotent", "retraction must fix the group-likes",
                 id="idempotent-coradical retraction must be idempotent"),
    ("fixed", "retraction must fix the group-likes"),
    ("image", "retraction image must be the coradical"),
    ("integral", "the component idempotents must be integral"),
])
def test_each_retraction_check_still_rejects(breakage, message):
    c = set_like(ZZ, ["a", "b"])
    decomposition = components(c)
    _, coradical, idempotents = c._derived["components"]
    assert idempotents == (((0, 1), (0, 1), 1), ((1, 0), (1, 0), 1))
    if breakage == "image":
        coradical = Lattice.from_rows(ZZ, 2, [[1, 0]])
    else:
        idempotents = BROKEN_IDEMPOTENTS[breakage]
    c._derived["components"] = (decomposition, coradical, idempotents)
    for _ in range(2):
        with pytest.raises(AssertionError, match=message):
            split_coradical(c)
    c._derived.clear()
    assert split_coradical(c).matrix == Matrix.identity(ZZ, 2)


@pytest.mark.parametrize("ring", list(CORPORA))
def test_retractions_equal_the_inverse_oracle_entry_types_included(ring):
    built = 0
    for c in CORPORA[ring]():
        try:
            got = split_coradical(c).matrix
        except WorkbenchError:
            continue
        want = oracles.inverse_retraction(components(c))
        assert got == want
        assert got * got == got
        assert [list(map(type, row)) for row in got.rows] == [list(map(type, row)) for row in want.rows]
        built += 1
    assert built >= 5


@pytest.mark.parametrize("ring", list(CORPORA))
def test_interpolating_elements_take_their_denominator_at_their_group_like_and_zero_elsewhere(ring):
    # G * E_i = d_i * e_i, with d_i > 0 and E_i content-free (residues over F_p, where d_i is 1)
    checked = 0
    for c in CORPORA[ring]():
        if not is_pointed(c)[0] or not group_likes(c).pure:
            continue
        gl = group_likes(c)
        elements = structure._interpolating_elements(gl, c.base)
        assert len(elements) == len(gl)
        p = c.ring.modulus
        for i, (e, d) in enumerate(elements):
            assert d > 0 and math.gcd(d, *e) == 1
            if p:
                assert d == 1 and all(0 <= v < p for v in e)
            for j, g in enumerate(gl.vectors):
                excess = sum(x * v for x, v in zip(g, e)) - (d if i == j else 0)
                assert (excess % p if p else excess) == 0
        checked += 1
    assert checked >= 5


def test_a_second_require_valid_on_a_map_validates_nothing(monkeypatch):
    maps = [record.map for record in generate_maps(5, 20, max_rank=6)]
    checked = _counted(monkeypatch, coalgebra, "validate_map")
    for f in maps:
        assert f.require_valid() is f
    assert [id(f) for f in checked] == [id(f) for f in maps]
    checked.clear()
    for f in maps:
        assert f.require_valid() is f
        assert check_splitting_naturality(f)
        push_filtration(f, coradical_filtration(f.domain))
    # the retractions of the naturality check are validated through structure's own name, on every call
    assert checked == []
    # an equal map is another object and checks again; a report is fresh on every call
    twin = CoalgebraMap(maps[0].domain, maps[0].codomain, maps[0].matrix)
    checked.clear()
    assert twin.require_valid() is twin and len(checked) == 1
    assert maps[0].validate() is not maps[0].validate() and len(checked) == 3


def test_an_invalid_map_raises_again_on_its_next_require_valid(monkeypatch):
    c = set_like(ZZ, ["a", "b"])
    f = CoalgebraMap(c, c, Matrix(ZZ, [[2, -1], [1, 0]], 2))
    checked = _counted(monkeypatch, coalgebra, "validate_map")
    for calls in (1, 2):
        with pytest.raises(ValidationError, match="coalgebra map axiom failed: comultiplication square: FAIL"):
            f.require_valid()
        assert len(checked) == calls
    assert identity_map(c).require_valid() and len(checked) == 3


# --- the binomial report, held on the dual coalgebra -------------------------------

PRIMES = (2, 3, 5, 7, 11, 13)
# on both sides of the chain rule, in any order, with a repeat
OFF_CHAIN = (13, 2**61 - 1, 5, 1000003, 13, 7)


def _counted_groups(monkeypatch):
    """Record every ``_frobenius_groups`` call, the fresh work of a binomial check."""
    calls, groups = [], binomial._frobenius_groups
    monkeypatch.setattr(binomial, "_frobenius_groups", lambda c, primes: calls.append(primes) or groups(c, primes))
    return calls


def test_a_repeated_binomial_check_returns_the_held_report(monkeypatch):
    c = next(e.coalgebra for e in generate_coalgebras(97, 40, max_rank=8) if e.coalgebra.rank >= 6)
    calls = _counted_groups(monkeypatch)
    first = binomial_check(dual_algebra(c), PRIMES)
    assert len(calls) == 1 and c._derived["binomial"] == (PRIMES, first)
    # a new dual_algebra object holds c itself; a list of the same primes is the same tuple
    for primes in (PRIMES, list(PRIMES)):
        assert binomial_check(dual_algebra(c), primes) is first
    assert len(calls) == 1
    # another tuple is computed and replaces the one held entry
    other = binomial_check(dual_algebra(c), (13, 2))
    assert len(calls) == 2 and c._derived["binomial"] == ((13, 2), other)
    again = binomial_check(dual_algebra(c), PRIMES)
    assert len(calls) == 3 and again == first and again is not first
    assert c._derived["binomial"][1] is again


def test_held_reports_equal_the_powering_body_and_a_fresh_twin():
    cs = _corpus(43, 12, 8, ZZ) + _with_denominators(_corpus(41, 5, 6, ZS))
    assert sum(c.denom > 1 for c in cs) >= 3 and {c.ring for c in cs} == {ZZ, ZS}
    sides = set()
    for c in cs:
        for primes in (PRIMES, OFF_CHAIN):
            primes = tuple(p for p in primes if c.ring == ZZ or p not in c.ring.inverted)
            sides.update(p in binomial._on_chain(c.rank, primes) for p in primes)
            first = binomial_check(dual_algebra(c), primes)
            held = binomial_check(dual_algebra(c), primes)
            assert held is first
            for want in (oracles.powering_binomial_report(dual_algebra(c), primes),
                         binomial_check(dual_algebra(_twin(c)), primes)):
                assert held == want and str(held) == str(want)
    assert sides == {True, False}


def test_a_coalgebra_and_its_dual_algebra_share_the_held_report():
    c = _corpus(43, 12, 8, ZZ)[-1]
    a = dual_algebra(c)
    assert a.dual is c
    report = binomial_check(a, PRIMES)
    assert c._derived["binomial"][1] is report
    # an algebra given by its table holds the report on its dual coalgebra
    b = monogenic_algebra(ZZ, [-1, 0, -2, 0])
    report = binomial_check(b, PRIMES)
    assert dual_of_algebra(b) is b.dual and b.dual._derived["binomial"] == (PRIMES, report)
    assert binomial_check(dual_algebra(dual_of_algebra(b)), PRIMES) is report


def _noncommutative():
    good = monogenic_algebra(ZZ, [1, 0])
    mult = good.mult
    mult.rows[1][0] = ZZ.one  # e_0 * e_1 != e_1 * e_0
    return AlgebraPresentation(ZZ, 2, mult, good.unit)


def test_a_refused_binomial_check_holds_nothing_and_refuses_again():
    cases = [
        (dual_algebra(_corpus(43, 12, 8, ZZ)[-1]), (2, 4), ValidationError, "4 is not prime"),
        (dual_algebra(_corpus(43, 12, 8, ZZ)[-1]), (2, 2**64 + 13), ValidationError, "below 2\\*\\*64"),
        (dual_algebra(_corpus(41, 5, 6, ZS)[-1]), (5, 3), PrimeInverted, "3 is inverted"),
        (dual_algebra(_corpus(44, 10, 6, QQ)[-1]), PRIMES, UnsupportedRing, "needs an algebra over Z"),
        (_noncommutative(), PRIMES, InvalidAlgebra, "commutativity"),
    ]
    for a, primes, error, message in cases:
        for _ in range(2):
            with pytest.raises(error, match=message):
                binomial_check(a, primes)
            assert "binomial" not in a.dual._derived


def test_a_bad_prime_is_refused_on_a_coalgebra_that_holds_a_report():
    c = _corpus(43, 12, 8, ZZ)[-1]
    first = binomial_check(dual_algebra(c), PRIMES)
    for primes, message in (((4,), "4 is not prime"), (PRIMES + (1,), "1 is not a prime"), ((2, 6), "6 is not prime")):
        with pytest.raises(ValidationError, match=message):
            binomial_check(dual_algebra(c), primes)
        assert c._derived["binomial"] == (PRIMES, first)
    assert binomial_check(dual_algebra(c), PRIMES) is first


def test_binomial_results_are_frozen():
    report = binomial_check(monogenic_algebra(ZZ, [-1, 0]), (3,))
    result = report.results[0]
    for obj, field, value in ((result, "reduced", False), (result, "nilradical_rank", 1),
                              (report, "results", ()), (report, "tested_primes", (2,))):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, field, value)
    assert str(report) == ("p=3: reduced=yes (nilradical rank 0), residue fields F_p=no -> fails\n"
                           "verdict: not binomial up to the tested primes {3}")
