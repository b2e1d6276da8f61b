"""Group-likes certified by a count: candidates from a coalgebra's construction against the character search."""

from pathlib import Path

import pytest

from purecoalg import (
    QQ,
    ZZ,
    chains_functor,
    group_likes,
    gr_simplicial,
    is_pointed,
    localized_integers,
    prime_field,
    set_like,
    tensor,
)
from purecoalg import grouplike, serialize
from purecoalg.cli import run_command
from purecoalg.corpus import generate_coalgebras, generate_tensor_pairs

DATA = Path(__file__).resolve().parent.parent / "data"
RINGS = {
    "Z": ZZ,
    "Q": QQ,
    "Z[1/2,1/3]": localized_integers([2, 3]),
    "F101": prime_field(101),
    "F2": prime_field(2),
    "F3": prime_field(3),
}


def _searched(c):
    """(search result, report, group-likes) from the character search alone, the oracle of the count."""
    start = grouplike._coradical_span(c)
    found = (start.rank, tuple(grouplike._characters(c, start)))
    report = grouplike._pointedness(*found)
    return found, report, grouplike._certified(c, grouplike._verified_group_likes(c, found[1]))


def _assert_counted_matches_the_search(c):
    """c's count certifies its candidates, and the held search, the report and the group-likes equal the oracle's."""
    found, report, gl = _searched(c)
    assert grouplike._counted(c, found[0]) is not None
    assert grouplike._search(c) == found
    assert is_pointed(c) == (report.pointed, report)
    got = group_likes(c)
    assert (got.vectors, got.independence_divisors, got.pure) == (gl.vectors, gl.independence_divisors, gl.pure)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("ring", list(RINGS))
def test_tensor_pairs_are_counted_as_the_search_finds_them(ring):
    base = RINGS[ring]
    pairs = generate_tensor_pairs(7, 12, max_product_rank=12, ring=base)
    if ring in ("F2", "F3"):
        # p <= rank: the coradical span comes from the iterated Frobenius
        assert any(a.coalgebra.rank * b.coalgebra.rank >= base.modulus for a, b in pairs)
    for a, b in pairs:
        _assert_counted_matches_the_search(tensor(a.coalgebra, b.coalgebra))


@pytest.mark.parametrize("ring", list(RINGS))
def test_set_like_and_untwisted_corpus_coalgebras_are_counted_as_the_search_finds_them(ring):
    base = RINGS[ring]
    for n in (0, 1, 2, 5, 9):
        _assert_counted_matches_the_search(set_like(base, [f"s{i}" for i in range(n)]))
    for entry in generate_coalgebras(43, 12, max_rank=8, ring=base, twist=False):
        _assert_counted_matches_the_search(entry.coalgebra)


@pytest.mark.parametrize("ring", ["Z", "Q", "F2", "F3"])
def test_every_level_of_the_chains_of_the_data_files_is_counted(monkeypatch, ring):
    sets = [serialize.load_sset(str(DATA / f"{name}.json")) for name in ("point", "interval", "circle", "two-points",
                                                                        "rp2")]
    levels = [level for x in sets for level in chains_functor(x, RINGS[ring]).levels]
    for level in levels:
        _assert_counted_matches_the_search(level)
    # the functor on fresh chains makes no character search
    searches = _count_calls(monkeypatch, grouplike, "_character_tuples")
    for x in sets:
        gr_simplicial(chains_functor(x, RINGS[ring]))
    assert searches == []


@pytest.mark.parametrize("ring", ["Z", "Q", "F101", "F2"])
def test_set_like_and_product_inputs_make_no_character_search(monkeypatch, ring):
    from purecoalg import components, coradical_filtration, split_coradical

    base = RINGS[ring]
    searches = _count_calls(monkeypatch, grouplike, "_character_tuples")
    charpolys = _count_calls(monkeypatch, grouplike, "charpoly")
    points = set_like(base, ["a", "b", "c"])
    for c in (points, tensor(points, points), tensor(points, set_like(base, ["u", "v"]))):
        for call in (is_pointed, group_likes, coradical_filtration, components, split_coradical):
            call(c)
    assert searches == [] and charpolys == []


def test_a_dropped_candidate_leaves_the_answer_to_the_search(monkeypatch):
    cs = [set_like(ZZ, ["a", "b", "c"]), tensor(set_like(ZZ, ["a", "b"]), set_like(ZZ, ["x", "y"]))]
    cs += [e.coalgebra for e in generate_coalgebras(43, 12, max_rank=8, twist=False) if e.grouplike_count >= 2]
    wants = [_searched(c) for c in cs]
    searches = _count_calls(monkeypatch, grouplike, "_character_tuples")
    original = grouplike._candidates
    monkeypatch.setattr(grouplike, "_candidates", lambda c: original(c)[1:])
    for c, (found, report, gl) in zip(cs, wants):
        searches.clear()
        assert is_pointed(c) == (report.pointed, report) and group_likes(c).vectors == gl.vectors
        assert sum(blocks is c.blocks for blocks in searches) == 1


def test_a_non_group_like_candidate_is_refused_and_holds_nothing(monkeypatch):
    c = set_like(ZZ, ["a", "b"])
    original = grouplike._candidates
    # e_0 + e_1 in place of e_1: still two candidates, one of them no group-like
    monkeypatch.setattr(grouplike, "_candidates", lambda c: original(c)[:1] + [(1, 1)])
    for call in (is_pointed, group_likes, is_pointed):
        with pytest.raises(AssertionError, match="group-like candidate failed exact verification"):
            call(c)
        assert c._derived == {}
    monkeypatch.undo()
    assert group_likes(c).vectors == ((0, 1), (1, 0))


def test_more_verified_candidates_than_the_semisimple_dimension_is_refused():
    c = set_like(ZZ, ["a", "b", "c"])
    assert grouplike._counted(c, 3) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert grouplike._counted(c, 4) is None
    with pytest.raises(AssertionError, match="more group-likes than the semisimple dimension"):
        grouplike._counted(c, 2)


def _set_like_stdout(verb, n):
    """The stdout of ``coalg grouplikes`` or ``coalg pointed`` on the set-like coalgebra of n points over Z."""
    if verb == "pointed":
        return f"semisimple dimension over the fraction field: {n}\nground-field characters: {n}\npointed: yes"
    lines = ["ring: Z", f"rank: {n}", f"group-like count: {n}"]
    lines += [f"g[{k}] = (" + ", ".join("1" if i == n - 1 - k else "0" for i in range(n)) + ")" for k in range(n)]
    lines += ["independence divisors: (" + ", ".join(["1"] * n) + ")", "span pure: yes"]
    return "\n".join(lines)


def test_rank_144_set_like_file_needs_no_characteristic_polynomial(monkeypatch, tmp_path):
    small, large = tmp_path / "set12.json", tmp_path / "set144.json"
    for path, n in ((small, 12), (large, 144)):
        path.write_text(serialize.canonical_dumps(serialize.coalgebra_to_obj(set_like(ZZ, [f"s{i}" for i in range(n)]))))
    # the expected text is the search's on 12 points
    with monkeypatch.context() as m:
        m.setattr(grouplike, "_counted", lambda c, s: None)
        for verb in ("grouplikes", "pointed"):
            assert run_command([verb, str(small)], "coalg") == (0, _set_like_stdout(verb, 12))
    charpolys = _count_calls(monkeypatch, grouplike, "charpoly")
    for verb in ("grouplikes", "pointed"):
        assert run_command([verb, str(large)], "coalg") == (0, _set_like_stdout(verb, 144))
    assert charpolys == []
