"""Invariants held on a Coalgebra: the same answers as a fresh object, refusals that repeat."""

from fractions import Fraction

import pytest

from purecoalg import (
    Coalgebra,
    Filtration,
    Matrix,
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
    split_coradical,
    truncated_polynomial_algebra,
)
from purecoalg import grouplike, structure
from purecoalg.corpus import generate_coalgebras


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
