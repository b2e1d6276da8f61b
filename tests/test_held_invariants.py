"""Invariants held on a Coalgebra: the same answers as a fresh object, refusals that repeat."""

from fractions import Fraction

import pytest

from purecoalg import (
    Coalgebra,
    CoalgebraMap,
    ComponentDecomposition,
    Filtration,
    Lattice,
    Matrix,
    NotExhaustive,
    NotPointed,
    NotPure,
    QQ,
    ZZ,
    WorkbenchError,
    check_splitting_naturality,
    components,
    conjugate,
    coradical_filtration,
    coradical_lattice,
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
from purecoalg import grouplike, structure
from purecoalg.corpus import generate_coalgebras, generate_maps


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
        assert set(c._derived) == {"search"}
    assert c._derived["search"] == (2, ())
    assert is_pointed(c) == is_pointed(_twin(c))


def test_impure_group_likes_refuse_on_every_call_and_hold_no_components():
    c = _impure_dual()
    for call in (components, split_coradical, coradical_filtration, coradical_lattice, components):
        with pytest.raises(NotPure, match="reduction mod 2 identifies group-likes"):
            call(c)
        assert set(c._derived) == {"search", "group_likes"}
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
    v0_checks = _counted(monkeypatch, structure, "is_subcoalgebra")
    for _ in range(2):
        for f in maps:
            push_filtration(f, coradical_filtration(f.domain))
    assert sorted(id(v0) for v0 in v0_checks) == sorted(id(domains[k]._derived["filtration"].stages[0])
                                                         for k in domains)


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


def test_a_filtration_that_stalls_below_full_rank_is_refused_and_not_held(monkeypatch):
    c = _local(3)
    monkeypatch.setattr(structure, "_unchecked_wedge", lambda d, f, c: d)
    for _ in range(2):
        with pytest.raises(NotExhaustive, match="coradical filtration stabilized below full rank"):
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
        with pytest.raises(NotExhaustive, match="coradical filtration exceeded the rank bound"):
            coradical_filtration(c)
        assert "filtration" not in c._derived
    monkeypatch.undo()
    assert coradical_filtration(c).stage_ranks == (1, 2, 3)


def _broken_parts(c, breakage):
    g, h = group_likes(c).vectors
    if breakage == "validation":
        # e_a + e_b has counit 2, so e_a goes to 2a - b, which is not a coalgebra map
        return ((g, Lattice.from_rows(ZZ, 2, [[1, 1]])), (h, Lattice.from_rows(ZZ, 2, [[0, 1]])))
    # each point goes to the other: a coalgebra map, not an idempotent
    return ((h, Lattice.from_rows(ZZ, 2, [list(g)])), (g, Lattice.from_rows(ZZ, 2, [list(h)])))


@pytest.mark.parametrize("breakage, message", [
    ("validation", "coradical retraction failed validation"),
    ("idempotent", "coradical retraction must be idempotent"),
    ("fixed", "retraction must fix the group-likes"),
])
def test_each_retraction_check_still_rejects(monkeypatch, breakage, message):
    c = set_like(ZZ, ["a", "b"])
    if breakage == "fixed":
        # an idempotent with image the coradical fixes it, so only a broken evaluation reaches this check
        monkeypatch.setattr(CoalgebraMap, "apply", lambda self, vector: [0] * len(vector))
    else:
        decomposition = ComponentDecomposition(c, _broken_parts(c, breakage))
        monkeypatch.setattr(structure, "components", lambda c: decomposition)
    for _ in range(2):
        with pytest.raises(AssertionError, match=message):
            split_coradical(c)
    monkeypatch.undo()
    assert split_coradical(c).matrix == Matrix.identity(ZZ, 2)
