"""Group-like computation, pointedness, retraction, functoriality."""

import random
from fractions import Fraction

import pytest

from purecoalg import (
    CoalgebraMap,
    Lattice,
    Matrix,
    NotGroupLike,
    TooLarge,
    UnsupportedRing,
    ZZ,
    conjugate,
    counit_retraction,
    direct_sum,
    dual_of_algebra,
    gr_of_map,
    group_likes,
    group_likes_bruteforce,
    identity_map,
    is_pointed,
    monogenic_algebra,
    prime_field,
    set_like,
    tensor,
    truncated_polynomial_algebra,
    validate_map,
)
from purecoalg import grouplike
from purecoalg.corpus import generate_coalgebras
from purecoalg.rings import QQ, localized_integers
from purecoalg.structure import ComponentDecomposition

from oracles import rational_rank, trace_form_gram


def dual_zxk(k, ring=ZZ):
    return dual_of_algebra(truncated_polynomial_algebra(ring, k))


def sqrt2_dual(ring=ZZ):
    return dual_of_algebra(monogenic_algebra(ring, [ring.normalize(2), ring.zero]))


def test_group_likes_examples():
    abc = set_like(ZZ, ["a", "b", "c"])
    assert group_likes(abc).vectors == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert group_likes(sqrt2_dual()).vectors == ()
    f7 = prime_field(7)
    assert group_likes(sqrt2_dual(f7)).vectors == ((1, 3), (1, 4))


def test_group_likes_bruteforce_examples():
    f3 = prime_field(3)
    ab = set_like(f3, ["a", "b"])
    assert group_likes_bruteforce(ab).vectors == ((0, 1), (1, 0))
    f2 = prime_field(2)
    assert group_likes_bruteforce(dual_zxk(2, f2)).vectors == ((1, 0),)
    assert group_likes_bruteforce(sqrt2_dual(f3)).vectors == ()
    with pytest.raises(UnsupportedRing):
        group_likes_bruteforce(set_like(ZZ, ["a"]))
    f13 = prime_field(13)
    with pytest.raises(TooLarge):
        group_likes_bruteforce(set_like(f13, [str(i) for i in range(8)]))


def test_oracle_equivalence_small_prime_fields():
    for p in (2, 3, 5):
        ring = prime_field(p)
        for entry in generate_coalgebras(100 + p, 12, max_rank=4, ring=ring):
            fast = group_likes(entry.coalgebra).vectors
            slow = group_likes_bruteforce(entry.coalgebra).vectors
            assert fast == slow


def test_certificates_unit_divisors():
    for entry in generate_coalgebras(19, 25, max_rank=10):
        gl = group_likes(entry.coalgebra)
        assert len(gl.independence_divisors) == len(gl.vectors)
        assert all(d in (1, -1) for d in gl.independence_divisors)
        assert gl.pure


def test_grouplike_count_matches_fraction_field():
    # pointed integral coalgebras have the same group-likes as over Q
    for entry in generate_coalgebras(23, 15, max_rank=9):
        c = entry.coalgebra
        cq = _over_q(c)
        assert len(group_likes(c)) == len(group_likes(cq))


def _over_q(c):
    from fractions import Fraction

    from purecoalg import Coalgebra

    delta = Matrix(QQ, [[Fraction(v) for v in row] for row in c.delta.rows], c.rank * c.rank)
    return Coalgebra(QQ, c.rank, delta, [Fraction(v) for v in c.counit])


def test_is_pointed_examples():
    assert is_pointed(set_like(ZZ, ["a", "b"]))[0]
    flag, report = is_pointed(sqrt2_dual())
    assert not flag
    assert report.semisimple_dimension == 2 and report.character_count == 0
    flag, report = is_pointed(dual_zxk(3))
    assert flag and report.semisimple_dimension == 1 == report.character_count
    assert is_pointed(set_like(ZZ, []))[0]


def test_is_pointed_prime_field():
    f3 = prime_field(3)
    assert not is_pointed(sqrt2_dual(f3))[0]
    assert is_pointed(dual_zxk(3, f3))[0]
    f7 = prime_field(7)
    assert is_pointed(sqrt2_dual(f7))[0]


def test_split_etale_dual_is_pointed():
    # dual of Z[x]/(x^2 - x): two integral characters, pure span
    c = dual_of_algebra(monogenic_algebra(ZZ, [0, 1]))
    assert is_pointed(c)[0]
    assert group_likes(c).pure


def test_impure_grouplike_span_is_certified_and_guarded():
    # dual of Z[x]/(x^2 - 2x): the characters send x to 0 and 2, so the
    # group-likes (1,0) and (1,2) collide mod 2 and their span has index
    # 2 in the lattice.  The purity certificate must report this, and the
    # decomposition machinery must refuse such inputs instead of
    # producing a non-direct sum.
    from purecoalg import NotPure, components, coradical_filtration

    c = dual_of_algebra(monogenic_algebra(ZZ, [0, 2]))
    assert is_pointed(c)[0]  # both characters exist and are integral
    gl = group_likes(c)
    assert gl.vectors == ((1, 0), (1, 2))
    assert gl.independence_divisors == (1, 2)
    assert not gl.pure and gl.purity_witness == 2
    with pytest.raises(NotPure):
        components(c)
    with pytest.raises(NotPure):
        coradical_filtration(c)


def test_counit_retraction():
    one = set_like(ZZ, ["a"])
    r = counit_retraction([1], one)
    assert r.matrix == Matrix.identity(ZZ, 1)
    c = dual_zxk(2)
    r = counit_retraction([1, 0], c)
    assert r.matrix.rows == [[1, 0], [0, 0]]
    ab = set_like(ZZ, ["a", "b"])
    r = counit_retraction([1, 0], ab)
    assert r.matrix.rows == [[1, 0], [1, 0]]
    with pytest.raises(NotGroupLike):
        counit_retraction([2, 0], ab)


def test_gr_of_map_examples_and_functoriality():
    ab = set_like(ZZ, ["a", "b"])
    ident = gr_of_map(identity_map(ab))
    assert ident == [((0, 1), (0, 1)), ((1, 0), (1, 0))]
    pt = set_like(ZZ, ["pt"])
    collapse = CoalgebraMap(ab, pt, Matrix(ZZ, [[1], [1]], 1))
    assert gr_of_map(collapse) == [((0, 1), (1,)), ((1, 0), (1,))]
    incl = CoalgebraMap(set_like(ZZ, ["a"]), ab, Matrix(ZZ, [[1, 0]], 2))
    assert gr_of_map(incl) == [((1,), (1, 0))]
    # functoriality on the composite
    composite = incl.compose(collapse)
    direct = gr_of_map(composite)
    chained = []
    step1 = dict(gr_of_map(incl))
    step2 = dict(gr_of_map(collapse))
    for g, h in sorted(step1.items()):
        chained.append((g, step2[h]))
    assert direct == chained


def test_unit_isomorphism_small_sets():
    for size in range(7):
        names = [f"s{i}" for i in range(size)]
        c = set_like(ZZ, names)
        gl = group_likes(c)
        assert len(gl) == size
        recovered = set()
        for g in gl.vectors:
            ones = [i for i, v in enumerate(g) if v == 1]
            assert len(ones) == 1 and sum(map(abs, g)) == 1
            recovered.add(c.name_of(ones[0]))
        assert recovered == set(names)


def test_tensor_grouplikes_are_products():
    for entry_a, entry_b in zip(
        generate_coalgebras(29, 6, max_rank=3), generate_coalgebras(31, 6, max_rank=3)
    ):
        a, b = entry_a.coalgebra, entry_b.coalgebra
        t = tensor(a, b)
        got = set(group_likes(t).vectors)
        expected = set()
        for g in group_likes(a).vectors:
            for h in group_likes(b).vectors:
                expected.add(tuple(x * y for x in g for y in h))
        assert got == expected


def _fraction_trace_rank(c):
    return rational_rank(trace_form_gram(c.delta.rows, c.rank))


def test_integral_trace_form_rank_matches_fraction_oracle():
    for entry in generate_coalgebras(20240809, 200, max_rank=12):
        c = entry.coalgebra
        want = _fraction_trace_rank(c)
        assert grouplike._trace_form_rank(c) == want
        assert grouplike._trace_form_rank(_over_q(c)) == want
    zs = localized_integers([2, 3])
    fractional = 0
    for entry in generate_coalgebras(41, 30, max_rank=8, ring=zs):
        c = entry.coalgebra
        # scaling a basis vector by the unit 1/6 puts denominators into Delta
        w = Matrix(zs, [[Fraction(int(i == j), 6 if i == j == 0 else 1) for j in range(c.rank)]
                        for i in range(c.rank)], c.rank)
        twisted = conjugate(c, w)
        fractional += any(v.denominator != 1 for row in twisted.delta.rows for v in row)
        for d in (c, twisted):
            assert grouplike._trace_form_rank(d) == _fraction_trace_rank(d)
    assert fractional >= 10


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=["Z", "Q"])
def test_not_pointed_fires_from_every_structure_entry(ring):
    from purecoalg import NotPointed, components, components_by_wedge, coradical_filtration, primitives

    c = sqrt2_dual(ring)
    for call in (coradical_filtration, components, components_by_wedge, lambda c: primitives(c, [1, 0])):
        with pytest.raises(NotPointed, match="semisimple dimension over the fraction field: 2"):
            call(c)


def _count_character_searches(monkeypatch):
    calls = []
    original = grouplike._character_tuples

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(grouplike, "_character_tuples", counted)
    return calls


def test_structure_calls_run_one_character_search(monkeypatch):
    from purecoalg import components, coradical_filtration, split_coradical

    calls = _count_character_searches(monkeypatch)
    entries = [e for e in generate_coalgebras(43, 20, max_rank=8) if e.grouplike_count >= 2]
    assert entries
    for entry in entries[:3]:
        for call in (is_pointed, group_likes, coradical_filtration, components, split_coradical):
            calls.clear()
            call(entry.coalgebra)
            assert len(calls) == 1, call.__name__


def _refuse_candidates(monkeypatch):
    monkeypatch.setattr(grouplike, "_is_group_like", lambda c, g: False)


def _refuse_independence(monkeypatch):
    monkeypatch.setattr(grouplike, "elementary_divisors", lambda mat: [])


def _misplace_coradical(monkeypatch):
    monkeypatch.setattr(
        ComponentDecomposition, "coradical", lambda self: Lattice.zero(self.coalgebra.ring, self.coalgebra.rank)
    )


@pytest.mark.parametrize(
    "breakage, message",
    [
        (_refuse_candidates, "failed exact verification"),
        (_refuse_independence, "independence certificate"),
        (_misplace_coradical, "retraction image must be the coradical"),
    ],
    ids=["candidate", "independence", "retraction-image"],
)
def test_shared_path_checks_still_reject(monkeypatch, breakage, message):
    from purecoalg import split_coradical

    c = set_like(ZZ, ["a", "b"])
    breakage(monkeypatch)
    with pytest.raises(AssertionError, match=message):
        split_coradical(c)
