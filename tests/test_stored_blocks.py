"""The stored form of Delta against the former dense-matrix routines.

A coalgebra holds Delta as one sparse integer block per basis element,
cleared by the lcm D of its denominators.  The constructions, the axiom
checks and the map checks work on those blocks; ``oracles`` keeps the
dense n x n^2 versions they replaced.  Both must agree over Z, Q,
Z[1/2,1/3] (with denominators in Delta) and F_101: in the coalgebra,
its dense Delta, counit, basis names and serialized bytes, and in the
first failure every check reports.
"""

import random
import tracemalloc
from fractions import Fraction

import pytest

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
    assert Coalgebra(F101, 1, Matrix(F101, [[102]], 1), [1]) == set_like(F101, ["x"])


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


@pytest.mark.parametrize("name,ring,corpus", CORPORA + SMALL_PRIMES, ids=IDS + [name for name, _, _ in SMALL_PRIMES])
def test_coalgebra_validation_matches_dense_oracle(name, ring, corpus):
    rng = random.Random(251)
    p = ring.p if ring.kind == "Fp" else None
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

