"""The stored form of Delta against the former dense-matrix routines.

A coalgebra holds Delta as one sparse integer block per basis element,
cleared by the lcm D of its denominators.  The constructions, the axiom
checks and the map checks work on those blocks; ``oracles`` keeps the
dense n x n^2 versions they replaced.  Both must agree over Z, Q,
Z[1/2,1/3] (with denominators in Delta) and F_101: in the coalgebra,
its dense Delta, counit, basis names and serialized bytes, and in the
first failure every check reports.  The axiom reports are also checked
over Z with entries past 2**64, over F_(2^61-1), and on random blocks
that were never validated.
"""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purecoalg import (
    Coalgebra,
    CoalgebraMap,
    Lattice,
    Matrix,
    QQ,
    ZZ,
    components,
    conjugate,
    coradical_filtration,
    direct_sum,
    dual_algebra,
    dual_of_algebra,
    group_likes,
    prime_field,
    primitives,
    restrict_to_subcoalgebra,
    set_like,
    tensor,
    truncated_polynomial_algebra,
    validate_coalgebra,
    validate_map,
)
from purecoalg import lattice as lattice_mod
from purecoalg import serialize as sz
from purecoalg.coalgebra import algebra_from_entries, coalgebra_from_entries
from purecoalg.corpus import generate_coalgebras, generate_maps, random_unimodular
from purecoalg.rings import localized_integers

import oracles

ZS = localized_integers([2, 3])
F101 = prime_field(101)


def _over(ring, c):
    """c, a coalgebra over Z, with its entries read in the ring."""
    return Coalgebra(ring, c.rank, Matrix(ring, [[ring.normalize(v) for v in row] for row in c.delta.rows],
                                          c.rank * c.rank), [ring.normalize(v) for v in c.counit], c.basis_names)


def _sixth(ring, n, k):
    """diag(1, ..., 1/6, ..., 1) at position k: conjugating by it can put denominators into Delta."""
    return Matrix(ring, [[Fraction(1, 6) if i == j == k else Fraction(int(i == j)) for j in range(n)]
                         for i in range(n)], n)


def _corpora():
    """(name, ring, coalgebras) over Z, Q, Z[1/2,1/3] with denominators in Delta, and F_101."""
    over_z = [e.coalgebra for e in generate_coalgebras(211, 10, max_rank=6)]
    over_zs = []
    for c in (e.coalgebra for e in generate_coalgebras(223, 10, max_rank=6, ring=ZS)):
        over_zs += [c, conjugate(c, _sixth(ZS, c.rank, c.rank - 1))]
    assert sum(c.denom != 1 for c in over_zs) >= 3
    f101 = [e.coalgebra for e in generate_coalgebras(227, 10, max_rank=6, ring=F101)]
    return [("Z", ZZ, over_z), ("Q", QQ, [_over(QQ, c) for c in over_z]), ("Z[1/2,1/3]", ZS, over_zs),
            ("F_101", F101, f101)]


CORPORA = _corpora()
IDS = [name for name, _, _ in CORPORA]


def _assert_same(got, want):
    assert got == want
    assert got.delta == want.delta
    assert got.counit == want.counit
    assert got.basis_names == want.basis_names
    assert sz.canonical_dumps(sz.coalgebra_to_obj(got)) == sz.canonical_dumps(sz.coalgebra_to_obj(want))
    assert sz.coalgebra_from_obj(sz.coalgebra_to_obj(got)) == got


@pytest.mark.parametrize("name,ring,corpus", CORPORA, ids=IDS)
def test_block_constructions_match_dense_oracles(name, ring, corpus):
    rng = random.Random(229)
    _assert_same(set_like(ring, ["a", "b", "c"]), oracles.dense_set_like(ring, ["a", "b", "c"]))
    _assert_same(set_like(ring, []), oracles.dense_set_like(ring, []))
    for c, d in zip(corpus, corpus[1:] + corpus[:1]):
        if c.rank * d.rank <= 16:
            _assert_same(tensor(c, d), oracles.dense_tensor(c, d))
        _assert_same(direct_sum(c, d), oracles.dense_direct_sum(c, d))
        w = random_unimodular(rng, ring, c.rank)
        _assert_same(conjugate(c, w), oracles.dense_conjugate(c, w))
        if ring.kind == "ZS":
            scaled = _sixth(ring, c.rank, 0)
            _assert_same(conjugate(c, scaled), oracles.dense_conjugate(c, scaled))
        algebra = dual_algebra(c)
        _assert_same(dual_of_algebra(algebra), oracles.dense_dual_of_algebra(algebra))
        for lat in list(coradical_filtration(c).stages) + [lat for _, lat in components(c)]:
            sub, incl = restrict_to_subcoalgebra(lat, c)
            _assert_same(sub, oracles.dense_restrict(lat, c))
            assert incl.validate().overall


def test_equal_coalgebras_have_equal_blocks():
    # there and back through a denominator: D is the lcm of the denominators
    # actually present, so the round trip lands on the same blocks
    cz = _over(ZS, generate_coalgebras(233, 1, max_rank=5)[0].coalgebra)
    there = conjugate(cz, _sixth(ZS, cz.rank, 0))
    six = Matrix(ZS, [[Fraction(6) if i == j == 0 else Fraction(int(i == j)) for j in range(cz.rank)]
                      for i in range(cz.rank)], cz.rank)
    back = conjugate(there, six)
    assert back == cz and back.denom == 1 and back.blocks == cz.blocks
    # triples in any order give the same blocks and the canonical sorted bytes
    obj = sz.coalgebra_to_obj(there)
    shuffled = dict(obj, delta=obj["delta"][::-1])
    assert sz.canonical_dumps(sz.coalgebra_to_obj(sz.coalgebra_from_obj(shuffled))) == sz.canonical_dumps(obj)
    half = Coalgebra(ZS, 1, Matrix(ZS, [[Fraction(1, 2)]], 1), [Fraction(2)])
    assert half.denom == 2 and half.blocks == [{0: ((0, 1),)}]
    # over F_p the entries and the counit are held as residues, through either builder
    point = set_like(F101, ["x"])
    for c in (Coalgebra(F101, 1, Matrix(F101, [[102]], 1), [1]), Coalgebra(F101, 1, Matrix(F101, [[1]], 1), [102]),
              coalgebra_from_entries(F101, 1, [(0, 0, 0, 1)], [102]),
              coalgebra_from_entries(F101, 1, [(0, 0, 0, -100)], [-201])):
        assert c.blocks == point.blocks and c.counit == [1] and c == point and hash(c) == hash(point)
        assert sz.coalgebra_to_obj(c) == {"ring": {"kind": "Fp", "p": 101}, "rank": 1, "delta": [[0, 0, 0, "1"]],
                                          "counit": ["1"]}


@pytest.mark.parametrize("ring", [ZZ, QQ, ZS, F101], ids=IDS)
def test_dense_view_and_comultiply_follow_the_constructor_input(ring):
    # random, far from cocommutative structure constants: the view gives back
    # the matrix the constructor took, and Delta(x) is x times that matrix
    rng = random.Random(271)
    n = 4
    values = [0, 0, 1, -2, 3] + ([Fraction(1, 6), Fraction(-5, 4)] if ring.kind in ("Q", "ZS") else [])
    rows = [[ring.normalize(rng.choice(values)) for _ in range(n * n)] for _ in range(n)]
    delta = Matrix(ring, rows, n * n)
    c = Coalgebra(ring, n, delta, [ring.one] * n)
    assert c.delta == delta
    x = [ring.normalize(rng.choice([0, 1, -1, 2])) for _ in range(n)]
    assert c.comultiply(x) == (Matrix(ring, [x], n) * delta).rows[0]


def test_set_like_stores_one_entry_per_point():
    n = 20000
    c = set_like(ZZ, [f"p{i}" for i in range(n)])
    assert c.denom == 1 and len(c.blocks) == n
    assert all(block == {i: ((i, 1),)} for i, block in enumerate(c.blocks))


def test_primitives_move_with_a_change_of_basis_that_brings_denominators():
    # e'_1 = 6 e_1 puts 1/36 into Delta(e'_2) of the dual of Z[1/2,1/3][x]/(x^3);
    # a unimodular twist on top keeps a denominator
    c = dual_of_algebra(truncated_polynomial_algebra(ZS, 3))
    w = Matrix(ZS, [[Fraction(6 if i == j == 1 else int(i == j)) for j in range(3)] for i in range(3)], 3)
    w = w * random_unimodular(random.Random(269), ZS, 3)
    moved = conjugate(c, w)
    assert moved.denom > 1
    winv = w.inverse()
    g = list(group_likes(c).vectors[0])
    want = Lattice.from_rows(ZS, 3, (primitives(c, g).basis * winv).rows)
    assert primitives(moved, (Matrix(ZS, [g], 3) * winv).rows[0]) == want


def test_conjugate_and_restriction_use_no_kronecker_products(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense tensor-square path")

    monkeypatch.setattr(Matrix, "kron", refuse)
    monkeypatch.setattr(lattice_mod, "solve_in_rows", refuse)
    c = generate_coalgebras(239, 1, max_rank=8)[0].coalgebra
    w = random_unimodular(random.Random(241), ZZ, c.rank)
    twisted = conjugate(c, w)
    for lat in coradical_filtration(twisted).stages:
        restrict_to_subcoalgebra(lat, twisted)


def _perturbed_coalgebras(rng, c):
    """Copies of c with one counit entry, or one or two structure constants of one Delta(e_i), moved."""
    ring, n = c.ring, c.rank
    for _ in range(4):
        rows = [list(row) for row in c.delta.rows]
        counit = list(c.counit)
        if rng.random() < 0.25:
            counit[rng.randrange(n)] += ring.one
        else:
            row = rows[rng.randrange(n)]
            for _ in range(rng.randint(1, 2)):
                row[rng.randrange(n * n)] += ring.normalize(rng.choice([-1, 1, 2]))
        yield Coalgebra(ring, n, Matrix(ring, rows, n * n), counit)


def _locations(report):
    return tuple(check.location if not check.passed else "" for check in report.checks)


SMALL_PRIMES = [(f"F_{q.p}", q, [e.coalgebra for e in generate_coalgebras(255, 8, max_rank=5, ring=q)])
                for q in map(prime_field, (2, 3, 7))]
M61 = prime_field(2**61 - 1)
# stored entries past 2**64 over Z, and residues of up to 61 bits: slot widths well past one machine word
WIDE = [("Z big", ZZ, oracles.big_entry_coalgebras(271, 8)),
        ("F_(2^61-1)", M61, [e.coalgebra for e in generate_coalgebras(277, 10, max_rank=6, ring=M61)])]


@pytest.mark.parametrize("name,ring,corpus", CORPORA + SMALL_PRIMES + WIDE,
                         ids=IDS + [name for name, _, _ in SMALL_PRIMES + WIDE])
def test_coalgebra_validation_matches_dense_oracle(name, ring, corpus):
    rng = random.Random(251)
    p = ring.p if ring.kind == "Fp" else None
    if name == "Z big":
        assert sum(max(abs(v) for row in c.delta.rows for v in row) > 2**64 for c in corpus) >= 4
    failures = set()
    for c in corpus:
        for d in [c, *_perturbed_coalgebras(rng, c)]:
            report = validate_coalgebra(d)
            want = oracles.coalgebra_axiom_locations(d.delta.rows, d.counit, d.rank, p)
            assert [check.name for check in report.checks] == [
                "cocommutativity", "coassociativity", "counit law (left)", "counit law (right)"]
            assert _locations(report) == want
            failures |= {check.name for check in report.checks if not check.passed}
    assert failures == {"cocommutativity", "coassociativity", "counit law (left)", "counit law (right)"}


def test_validating_a_large_sparse_tensor_holds_no_dense_buffer():
    """Rank 4096 with one nonzero per block: an n^2 list per basis index alone would take 128 MB."""
    points = set_like(ZZ, [f"p{i}" for i in range(64)])
    big = tensor(points, points)
    tracemalloc.start()
    try:
        report = validate_coalgebra(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert big.rank == 4096 and report.overall
    assert peak < 32 * 2**20


@pytest.mark.parametrize("ring", [ZZ, QQ, ZS, F101], ids=IDS)
def test_map_validation_matches_dense_oracle(ring):
    rng = random.Random(257)
    p = ring.p if ring.kind == "Fp" else None
    failures = set()
    for entry in generate_maps(263, 16, max_rank=6, ring=ring):
        f = entry.map
        maps = [f]
        for _ in range(3):
            rows = [list(row) for row in f.matrix.rows]
            rows[rng.randrange(len(rows))][rng.randrange(f.codomain.rank)] += ring.normalize(rng.choice([-1, 1, 3]))
            maps.append(CoalgebraMap(f.domain, f.codomain, Matrix(ring, rows, f.codomain.rank)))
        for g in maps:
            report = validate_map(g)
            assert _locations(report) == oracles.map_axiom_locations(g, p)
            failures |= {check.name for check in report.checks if not check.passed}
    assert failures == {"comultiplication square", "counit triangle"}


# rank <= 4 with |v| <= 2**80: Z, Z[1/2,1/3] with denominators 2^a 3^b, and F_p for p in {2, 3, 2^61 - 1}
BLOCK_RINGS = [(ZZ, None), (ZS, None)] + [(prime_field(p), p) for p in (2, 3, 2**61 - 1)]
# small values keep some laws intact; the others sit near 2**80, where the slot widths are set
BIG = st.one_of(st.integers(-3, 3), st.integers(2**78, 2**80), st.integers(-2**80, -2**78))


@st.composite
def unvalidated_blocks(draw):
    """(ring, p, rank, entries (i, j, k, v), counit) of a Delta that nothing has validated.

    Half the draws start from the divided-power coalgebra, Delta(e_k) =
    sum over i + j = k of e_i (x) e_j, so some laws hold before the drawn
    entries move it; each drawn entry may be mirrored at (i, k, j).
    """
    ring, p = draw(st.sampled_from(BLOCK_RINGS))
    n = draw(st.integers(1, 4))
    index = st.integers(0, n - 1)
    entries = {(i + j, i, j): 1 for i in range(n) for j in range(n - i)} if draw(st.booleans()) else {}
    for i, j, k, v in draw(st.lists(st.tuples(index, index, index, BIG), max_size=6)):
        entries[i, j, k] = v
        if draw(st.booleans()):
            entries[i, k, j] = v
    counit = [int(i == 0) for i in range(n)] if draw(st.booleans()) else draw(st.lists(BIG, min_size=n, max_size=n))
    if ring == ZS:
        den = st.builds(lambda a, b: 2**a * 3**b, st.integers(0, 3), st.integers(0, 2))
        entries = {key: Fraction(v, draw(den)) for key, v in entries.items()}
        counit = [Fraction(v, draw(den)) for v in counit]
    return ring, p, n, [(*key, ring.normalize(v)) for key, v in entries.items()], [ring.normalize(v) for v in counit]


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(unvalidated_blocks())
def test_unvalidated_blocks_report_the_dense_oracle_locations(drawn):
    ring, p, n, entries, counit = drawn
    c = coalgebra_from_entries(ring, n, entries, counit)
    assert _locations(validate_coalgebra(c)) == oracles.coalgebra_axiom_locations(c.delta.rows, c.counit, n, p)
    # the same table read as an algebra: e_i * e_j has e_t-coefficient the coefficient of e_i (x) e_j in Delta(e_t)
    a = algebra_from_entries(ring, n, [(i, j, t, v) for t, i, j, v in entries], counit)
    assert _locations(a.validate()) == oracles.algebra_axiom_locations(a.mult.rows, a.unit, n, p)
