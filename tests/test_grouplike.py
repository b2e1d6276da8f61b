"""Group-like computation, pointedness, retraction, functoriality."""

import random
from fractions import Fraction

import pytest

from purecoalg import (
    Coalgebra,
    CoalgebraMap,
    components,
    coradical_lattice,
    Lattice,
    Matrix,
    NotGroupLike,
    ZZ,
    conjugate,
    counit_retraction,
    direct_sum,
    dual_of_algebra,
    gr_of_map,
    group_likes,
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

import oracles
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
    assert oracles.group_likes_bruteforce(ab) == ((0, 1), (1, 0))
    f2 = prime_field(2)
    assert oracles.group_likes_bruteforce(dual_zxk(2, f2)) == ((1, 0),)
    assert oracles.group_likes_bruteforce(sqrt2_dual(f3)) == ()
    assert oracles.group_likes_bruteforce(sqrt2_dual(prime_field(7))) == ((1, 3), (1, 4))
    with pytest.raises(ValueError, match="needs a prime field"):
        oracles.group_likes_bruteforce(set_like(ZZ, ["a"]))
    f13 = prime_field(13)
    with pytest.raises(ValueError, match="exceeds the enumeration bound"):
        oracles.group_likes_bruteforce(set_like(f13, [str(i) for i in range(8)]))


def test_oracle_equivalence_small_prime_fields():
    for p in (2, 3, 5):
        ring = prime_field(p)
        for entry in generate_coalgebras(100 + p, 12, max_rank=4, ring=ring):
            fast = group_likes(entry.coalgebra).vectors
            slow = oracles.group_likes_bruteforce(entry.coalgebra)
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
    # Q(sqrt 2) stays a simple field of dimension 2 with no character when 2 and 3 are
    # inverted, and so does F_9 over F_3
    for ring in (ZZ, localized_integers([2]), localized_integers([2, 3]), prime_field(3)):
        flag, report = is_pointed(sqrt2_dual(ring))
        assert not flag
        assert report.semisimple_dimension == 2 and report.character_count == 0
        assert group_likes(sqrt2_dual(ring)).vectors == ()
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
    composite = CoalgebraMap(incl.domain, collapse.codomain, incl.matrix * collapse.matrix)
    direct = gr_of_map(composite)
    chained = []
    step1 = dict(gr_of_map(incl))
    step2 = dict(gr_of_map(collapse))
    for g, h in sorted(step1.items()):
        chained.append((g, step2[h]))
    assert direct == chained


def test_gr_of_map_reports_an_image_outside_the_group_likes_as_internal(monkeypatch):
    from types import SimpleNamespace

    ab, pt = set_like(ZZ, ["a", "b"]), set_like(ZZ, ["pt"])
    collapse = CoalgebraMap(ab, pt, Matrix(ZZ, [[1], [1]], 1))
    found = grouplike.group_likes
    # the codomain's set misses the image (1,) of both points
    monkeypatch.setattr(grouplike, "group_likes", lambda c: SimpleNamespace(vectors=()) if c is pt else found(c))
    with pytest.raises(AssertionError, match=r"image of \(0, 1\) is not group-like"):
        gr_of_map(collapse)
    monkeypatch.undo()
    assert gr_of_map(collapse) == [((0, 1), (1,)), ((1, 0), (1,))]


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


def _zs_with_conjugates():
    """30 Z[1/2,1/3] coalgebras, each followed by its conjugate by diag(1/6, 1, ...)."""
    zs = localized_integers([2, 3])
    out = []
    for entry in generate_coalgebras(41, 30, max_rank=8, ring=zs):
        c = entry.coalgebra
        # scaling a basis vector by the unit 1/6 puts denominators into Delta
        w = Matrix(zs, [[Fraction(int(i == j), 6 if i == j == 0 else 1) for j in range(c.rank)]
                        for i in range(c.rank)], c.rank)
        out += [c, conjugate(c, w)]
    return out


def _random_structure_constants(ring, rng, rank):
    """A coalgebra with random small structure constants, which mostly fails the axioms."""
    dens = [1] if ring == ZZ else [1, 1, 2, 3, 6]
    delta = [[ring.normalize(Fraction(rng.choice([-1, 0, 0, 1, 1, 2]), rng.choice(dens))) for _ in range(rank * rank)]
             for _ in range(rank)]
    counit = [ring.normalize(rng.choice([0, 1, 1])) for _ in range(rank)]
    return Coalgebra(ring, rank, Matrix(ring, delta, rank * rank), counit)


def test_every_character_is_already_a_ring_vector():
    # lam / D, lam an integer root and D a unit, lies in the integrally closed R, so no
    # character of C (x) K needs a coordinate outside R; entry types included
    zs = localized_integers([2, 3])
    inputs = [_over_q(e.coalgebra) for e in generate_coalgebras(23, 15, max_rank=8)] + _zs_with_conjugates()
    for seed, ring in enumerate((ZZ, QQ, zs, prime_field(101), prime_field(2), prime_field(3)), 31):
        inputs += [e.coalgebra for e in generate_coalgebras(seed, 12, max_rank=6, ring=ring)]
        inputs.append(sqrt2_dual(ring))
    for ring in (ZZ, zs):
        rng = random.Random(37)
        inputs += [_random_structure_constants(ring, rng, rng.choice([1, 2, 2, 3])) for _ in range(80)]
    searched = found = fractional = not_pointed = 0
    for c in inputs:
        try:
            start = grouplike._coradical_span(c)
            characters = grouplike._characters(c, start)
        except AssertionError:
            continue
        searched += 1
        for t in characters:
            found += 1
            assert [(type(x), x) for x in map(c.ring.normalize, t)] == [(type(x), x) for x in t]
            fractional += any(x.denominator != 1 for x in t)
        if start.rank != len(characters):
            not_pointed += 1
            flag, report = is_pointed(c)
            assert not flag and str(report).endswith("pointed: no")
    assert searched >= 200 and found >= 400 and fractional >= 10 and not_pointed >= 40


def test_integer_group_like_check_matches_the_definition():
    # conjugating by diag(6, 1, ...) and diag(1/6, 1, ...) puts denominators
    # into Delta and into the group-likes; the cleared integer test agrees with
    # Delta(g) = g (x) g and eps(g) = 1 in Fractions, both ways
    zs = localized_integers([2, 3])
    checked = {True: 0, False: 0, "fractional": 0}
    for entry in generate_coalgebras(41, 30, max_rank=8, ring=zs):
        c = entry.coalgebra
        for scale in (Fraction(6), Fraction(1, 6)):
            w = Matrix(zs, [[scale if i == j == 0 else Fraction(int(i == j)) for j in range(c.rank)]
                            for i in range(c.rank)], c.rank)
            d = conjugate(c, w)
            for g in group_likes(d).vectors:
                checked["fractional"] += any(x.denominator != 1 for x in g)
                for cand in (list(g), [2 * x for x in g], [x + Fraction(1, 6) for x in g]):
                    want = d.comultiply(cand) == [x * y for x in cand for y in cand] and d.counit_of(cand) == 1
                    assert grouplike._is_group_like(d, cand) == want
                    checked[want] += 1
    assert min(checked.values()) >= 30, checked


def test_integral_trace_form_rank_matches_fraction_oracle():
    for entry in generate_coalgebras(20240809, 200, max_rank=12):
        c = entry.coalgebra
        want = _fraction_trace_rank(c)
        assert grouplike._coradical_span(c).rank == want
        cq = _over_q(c)
        assert grouplike._coradical_span(cq).rank == want
    zs_corpus = _zs_with_conjugates()
    fractional = sum(any(v.denominator != 1 for row in d.delta.rows for v in row) for d in zs_corpus)
    for d in zs_corpus:
        assert grouplike._coradical_span(d).rank == _fraction_trace_rank(d)
    assert fractional >= 10


def _assert_search_and_lift_match_oracles(c, twins=(), p=None):
    """Character tuples and component spans of c (and of its twins over other rings) against the oracles."""
    chars = sorted(oracles.character_tuples(c.delta.rows, c.rank, p))
    decompositions = [components(d) for d in (c, *twins)]
    gl = [g for g, _ in decompositions[0]]
    spans = oracles.component_spans(c.delta.rows, c.rank, gl, p)
    for d, decomposition in zip((c, *twins), decompositions):
        assert sorted(grouplike._characters(d, grouplike._coradical_span(d))) == chars
        assert [oracles.rref(lat.basis.rows, p) for _, lat in decomposition] == spans


def test_search_and_lift_match_fraction_oracles_over_z_and_q():
    for entry in generate_coalgebras(20240809, 200, max_rank=12):
        _assert_search_and_lift_match_oracles(entry.coalgebra, twins=(_over_q(entry.coalgebra),))


def test_search_and_lift_match_fraction_oracles_with_denominators():
    for d in _zs_with_conjugates():
        _assert_search_and_lift_match_oracles(d)


def test_search_and_lift_match_fraction_oracles_over_f101():
    f101 = prime_field(101)
    for entry in generate_coalgebras(47, 40, max_rank=8, ring=f101):
        _assert_search_and_lift_match_oracles(entry.coalgebra, p=101)


@pytest.mark.parametrize("ring", [ZZ, prime_field(7)], ids=["Z", "F7"])
def test_noncommuting_blocks_lose_invariance(ring):
    # block 0 is diag(0, 1) and block 1 swaps the two basis vectors, so the
    # eigenline of block 0 for the eigenvalue 0 is not invariant under block 1;
    # then block 0 is diag(0, 0, 1) and block 1 sends e0 to e2, so the
    # non-invariant block meets the rank-2 eigenspace span(e0, e1)
    line = [[0, 0, 0, 1], [0, 1, 1, 0]]
    plane = [[0, 0, 0, 0, 0, 1, 0, 0, 0], [0] * 9, [0, 0, 1, 0, 0, 0, 0, 0, 0]]
    for rows in (line, plane):
        n = len(rows)
        blocks = Coalgebra(ring, n, Matrix(ring, rows, n * n), [0] * n).blocks
        with pytest.raises(AssertionError, match="joint eigenspace lost invariance"):
            grouplike._character_tuples(blocks, Lattice.full(ring, n))


@pytest.mark.parametrize("ring", [ZZ, prime_field(7)], ids=["Z", "F7"])
def test_start_that_is_not_invariant_loses_invariance(ring):
    # block 0 of two set-like points projects onto e0, which sends the
    # line of e0 + e1 out of itself
    c = set_like(ring, ["a", "b"])
    start = Lattice.from_rows(ring, 2, [[1, 1]])
    with pytest.raises(AssertionError, match="joint eigenspace lost invariance"):
        grouplike._character_tuples(c.blocks, start)


def _frobenius_rank(c):
    from purecoalg import dual_algebra
    from purecoalg.binomial import frobenius_matrix
    from oracles import iterated_frobenius

    return iterated_frobenius(frobenius_matrix(dual_algebra(c))).rank()


def _f101_corpus():
    return [e.coalgebra for e in generate_coalgebras(47, 40, max_rank=8, ring=prime_field(101))]


def test_coradical_span_over_z_is_the_group_like_span():
    # for a pointed C with a pure group-like span, rad(A)^perp over Q is
    # spanned by the group-likes, and both lattices are saturated
    compared = 0
    for entry in generate_coalgebras(20240809, 200, max_rank=12):
        c = entry.coalgebra
        if is_pointed(c)[0] and group_likes(c).pure:
            assert grouplike._coradical_span(c) == coradical_lattice(c)
            compared += 1
    assert compared == 200


def test_coradical_span_holds_every_group_like():
    from purecoalg.rings import cleared_rows

    z_corpus = [e.coalgebra for e in generate_coalgebras(20240809, 200, max_rank=12)]
    f101_corpus = _f101_corpus()
    for c in [_over_q(c) for c in z_corpus] + _zs_with_conjugates() + f101_corpus:
        span = grouplike._coradical_span(c)
        gl = group_likes(c)
        assert span.rank == len(gl)
        for g in gl:
            assert span.contains(cleared_rows([g])[1][0])
    for c in f101_corpus:
        assert grouplike._coradical_span(c).rank == _frobenius_rank(c)
    # not pointed: Q(sqrt 2) and F_25 are simple of dimension 2 with no
    # ground-field character
    for c in (sqrt2_dual(ZZ), sqrt2_dual(QQ)):
        assert grouplike._coradical_span(c).rank == _fraction_trace_rank(c) == 2
        assert len(group_likes(c)) == 0
    f5 = sqrt2_dual(prime_field(5))
    assert grouplike._coradical_span(f5).rank == _frobenius_rank(f5) == 2
    assert len(group_likes(f5)) == 0


def _frobenius_lattice(c):
    from purecoalg import dual_algebra
    from purecoalg.binomial import frobenius_matrix
    from oracles import iterated_frobenius

    return Lattice.from_rows(c.base, c.rank, iterated_frobenius(frobenius_matrix(dual_algebra(c))).transpose().rows)


def test_trace_span_is_the_frobenius_span_when_p_exceeds_the_rank():
    # Dickson's criterion: for p > rank the trace form's kernel is rad(A),
    # the kernel of the iterated Frobenius, so both give the same lattice
    compared = 0
    corpora = [
        generate_coalgebras(47, 40, max_rank=8, ring=prime_field(101)),
        generate_coalgebras(53, 40, max_rank=8, ring=prime_field(1000003)),
        generate_coalgebras(59, 60, max_rank=12, ring=prime_field(13)),
    ]
    for entries in corpora:
        for entry in entries:
            c = entry.coalgebra
            if c.rank < c.ring.p:
                assert grouplike._coradical_span(c) == _frobenius_lattice(c), entry.recipe
                compared += 1
    assert compared >= 130


@pytest.mark.parametrize("p", [2, 3, 5])
def test_small_prime_keeps_the_frobenius_span(p):
    # the dual of F_p[x]/(x^p) has rank p, a zero trace Gram matrix and one
    # group-like, so the trace span would find none
    fp = prime_field(p)
    c = dual_zxk(p, fp)
    assert c.rank == p
    assert all(v % p == 0 for row in trace_form_gram(c.delta.rows, p) for v in row)
    assert len(group_likes(c)) == 1
    pointed, report = is_pointed(c)
    assert pointed and report.character_count == 1
    assert grouplike._coradical_span(c) == _frobenius_lattice(c)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_stable_frobenius_power_spans_the_kth_power_lattice(p):
    # for p <= rank the span is read off F^K, K the least power of two >= k
    # with p^k >= rank; ker F^K is the nilradical for every K >= k, so the
    # row space of the transpose is the k-th power's
    compared, past = 0, 0
    for entry in generate_coalgebras(61 + p, 40, max_rank=12, ring=prime_field(p)):
        c = entry.coalgebra
        if p > c.rank:
            continue
        assert grouplike._coradical_span(c) == _frobenius_lattice(c), entry.recipe
        compared += 1
        k = next(k for k in range(1, c.rank + 1) if p**k >= c.rank)
        past += k & (k - 1) != 0  # k is no power of two, so K > k
    assert compared >= 20
    assert past >= 5 if p < 5 else past == 0


def test_search_from_the_coradical_span_matches_the_full_search():
    z_corpus = [e.coalgebra for e in generate_coalgebras(20240809, 200, max_rank=12)]
    corpus = z_corpus + [_over_q(c) for c in z_corpus] + _zs_with_conjugates() + _f101_corpus()
    for c in corpus:
        full = grouplike._character_tuples(c.blocks, Lattice.full(c.base, c.rank))
        assert grouplike._character_tuples(c.blocks, grouplike._coradical_span(c)) == full


def test_characteristic_polynomials_stay_within_the_group_like_count(monkeypatch):
    # the search starts in a lattice of rank the semisimple dimension,
    # which is the group-like count for a pointed C, not in Z^12
    sizes = []
    original = grouplike.charpoly

    def counted(mat):
        sizes.append(mat.nrows)
        return original(mat)

    monkeypatch.setattr(grouplike, "charpoly", counted)
    split = 0
    for entry in generate_coalgebras(20240809, 200, max_rank=12):
        c = entry.coalgebra
        if c.rank != 12:
            continue
        # the first call on c runs its one search; sizes holds all of it
        sizes.clear()
        pointed, report = is_pointed(c)
        if not pointed:
            continue
        count = len(group_likes(c))
        assert count == report.character_count
        assert all(size <= count for size in sizes)
        split += bool(sizes)
    assert split >= 30


def test_scalar_blocks_skip_the_characteristic_polynomial(monkeypatch):
    # on the set-like coalgebra of six points block i is the projection onto
    # e_i: it splits one space of rank 6 - i into a line and the rest, and is
    # a scalar on every line split off before it, so only the five splitting
    # blocks (not 1 + 2 + ... + 6 = 21 block-space pairs) need charpoly; the
    # search runs on those blocks directly, as group_likes counts set-like input
    calls = []
    original = grouplike.charpoly

    def counted(mat):
        calls.append(mat.nrows)
        return original(mat)

    monkeypatch.setattr(grouplike, "charpoly", counted)
    c = set_like(ZZ, [f"s{i}" for i in range(6)])
    assert len(grouplike._character_tuples(c.blocks, grouplike._coradical_span(c))) == 6
    assert calls == [6, 5, 4, 3, 2]


def test_unlifted_idempotent_is_refused(monkeypatch):
    from purecoalg import structure

    c = generate_coalgebras(43, 20, max_rank=8)[9].coalgebra
    monkeypatch.setattr(structure, "_lift_steps", lambda n: 0)
    with pytest.raises(AssertionError, match="idempotent lifting did not converge"):
        components(c)


def test_unsolvable_interpolation_is_refused(monkeypatch):
    from purecoalg import structure

    c = set_like(ZZ, ["a", "b"])
    collided = grouplike.GroupLikeSet(c, ((0, 1), (0, 1)), (1, 1), True)
    monkeypatch.setattr(structure, "pointed_group_likes", lambda c, need: collided)
    with pytest.raises(AssertionError, match="character interpolation must be solvable"):
        components(c)


@pytest.mark.parametrize(
    "ring",
    [ZZ, QQ, localized_integers([2]), localized_integers([2, 3]), prime_field(3)],
    ids=["Z", "Q", "Z[1/2]", "Z[1/2,1/3]", "F3"],
)
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
    # the five calls of a structure item share one search and one lift per
    # group-like on each object; an equal coalgebra built separately runs its own.
    # Taken off the basis, no group-like is a basis vector, so each object searches
    from purecoalg import components, coradical_filtration, split_coradical
    from purecoalg import structure

    calls = _count_character_searches(monkeypatch)
    lifts = []
    original = structure._lifted_idempotent

    def lifted(c, *rest):
        lifts.append(c)
        return original(c, *rest)

    monkeypatch.setattr(structure, "_lifted_idempotent", lifted)
    entries = [e for e in generate_coalgebras(43, 20, max_rank=8) if e.grouplike_count >= 2]
    assert entries
    for entry in entries[:3]:
        c = oracles.off_basis(entry.coalgebra)
        twin = Coalgebra(c.ring, c.rank, c.delta, c.counit)
        assert twin == c and twin is not c
        for obj in (c, twin):
            calls.clear()
            lifts.clear()
            for call in (is_pointed, group_likes, coradical_filtration, components, split_coradical):
                call(obj)
                assert len(calls) == 1, call.__name__
            assert len(lifts) == entry.grouplike_count and all(x is obj for x in lifts)
        # and each call alone, on an object nothing has searched, runs exactly one
        for call in (is_pointed, group_likes, coradical_filtration, components, split_coradical):
            calls.clear()
            call(Coalgebra(c.ring, c.rank, c.delta, c.counit))
            assert len(calls) == 1, call.__name__


def _off_basis_levels(x):
    """A simplicial coalgebra with each level taken off the basis (``oracles.off_basis``) and its maps carried along."""
    from purecoalg import SimplicialCoalgebra

    ws = [oracles.off_basis_matrix(x.ring, level.rank) for level in x.levels]

    def carried(table):
        # face (n, k) goes from level n to level n - 1, degeneracy (n, k) to level n + 1
        step = -1 if table is x.faces else 1
        return {(n, k): ws[n] * m * ws[n + step].inverse() for (n, k), m in table.items()}

    levels = [oracles.off_basis(level) for level in x.levels]
    return SimplicialCoalgebra(x.ring, levels, carried(x.faces), carried(x.degeneracies)), ws


def test_gr_simplicial_map_runs_one_character_search_per_level(monkeypatch):
    from purecoalg import (SimplicialCoalgebraMap, chains_map, constant_map, gr_simplicial_map, standard_interval,
                           standard_point)

    calls = _count_character_searches(monkeypatch)
    f = chains_map(constant_map(standard_interval(2), standard_point(2), "pt"), ZZ)
    # off the basis no level is set-like, so each one searches once
    (dom, ws), (cod, vs) = _off_basis_levels(f.domain), _off_basis_levels(f.codomain)
    g = SimplicialCoalgebraMap(dom, cod, [w * m * v.inverse() for w, m, v in zip(ws, f.levels, vs)])
    gr = gr_simplicial_map(g)
    assert len(calls) == len(g.domain.levels) + len(g.codomain.levels) == 6
    assert [len(level) for level in gr.domain.levels] == [level.rank for level in f.domain.levels]


def _refuse_candidates(monkeypatch):
    monkeypatch.setattr(grouplike, "_is_group_like", lambda c, g: False)


def _repeat_a_group_like(monkeypatch):
    # a verified list that names one group-like twice spans less than its length
    verified = grouplike._verified_group_likes

    def repeated(c, tuples):
        vectors = verified(c, tuples)
        return vectors + vectors[:1]

    monkeypatch.setattr(grouplike, "_verified_group_likes", repeated)


def _misplace_coradical(monkeypatch):
    monkeypatch.setattr(
        ComponentDecomposition, "coradical", lambda self: Lattice.zero(self.coalgebra.ring, self.coalgebra.rank)
    )


@pytest.mark.parametrize(
    "breakage, message",
    [
        (_refuse_candidates, "failed exact verification"),
        (_repeat_a_group_like, "independence certificate"),
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
