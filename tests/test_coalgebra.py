"""Coalgebra axioms, constructors, duality, tensor, subcoalgebras."""

import random

import pytest

from purecoalg import (
    AlgebraPresentation,
    Coalgebra,
    CoalgebraMap,
    InvalidAlgebra,
    Lattice,
    Matrix,
    NotSubcoalgebra,
    QQ,
    RingMismatch,
    ValidationError,
    ZZ,
    components,
    conjugate,
    direct_sum,
    dual_algebra,
    dual_of_algebra,
    identity_map,
    is_subcoalgebra,
    localized_integers,
    monogenic_algebra,
    prime_field,
    purify_subcoalgebra,
    restrict_to_subcoalgebra,
    set_like,
    split_algebra,
    tensor,
    truncated_polynomial_algebra,
    validate_map,
)
from purecoalg.corpus import generate_coalgebras, random_unimodular


def dual_zxk(k, ring=ZZ):
    return dual_of_algebra(truncated_polynomial_algebra(ring, k))


def test_set_like_examples():
    a = set_like(ZZ, ["a"])
    assert a.rank == 1 and a.delta.rows == [[1]] and a.counit == [1]
    ab = set_like(ZZ, ["a", "b"])
    assert ab.validate().overall
    empty = set_like(ZZ, [])
    assert empty.rank == 0 and empty.validate().overall


def test_validate_reports_first_violation():
    # hand-built failure: d[1][(0,1)] != d[1][(1,0)]
    rows = [[1, 0, 0, 0], [0, 1, 0, 0]]
    c = Coalgebra(ZZ, 2, Matrix(ZZ, rows, 4), [1, 0])
    report = c.validate()
    assert not report.overall
    bad = report.first_failure()
    assert bad.name == "cocommutativity"
    assert "(1,0,1)" in bad.location or "(1, 0, 1)" in bad.location.replace(" ", "")


def test_require_valid_names_the_first_failure():
    c = dual_zxk(2)
    a = truncated_polynomial_algebra(ZZ, 2)
    f = identity_map(c)
    assert c.require_valid() is c and a.require_valid() is a and f.require_valid() is f
    for broken, error, prefix in (
        (Coalgebra(ZZ, 2, c.delta, [1, 1]), ValidationError, "coalgebra axiom failed"),
        (AlgebraPresentation(ZZ, 2, a.mult, [0, 1]), InvalidAlgebra, "algebra axiom failed"),
        (CoalgebraMap(c, c, Matrix.identity(ZZ, 2).scale(2)), ValidationError, "coalgebra map axiom failed"),
    ):
        with pytest.raises(error) as info:
            broken.require_valid()
        assert str(info.value) == f"{prefix}: {broken.validate().first_failure()}"


def test_dual_of_sqrt2_algebra():
    # multiplication table 1*1=1, 1*x=x, x*x=2 dualizes to
    # Delta(1*) = 1*(x)1* + 2 x*(x)x*, Delta(x*) = 1*(x)x* + x*(x)1*
    c = dual_of_algebra(monogenic_algebra(ZZ, [2, 0]))
    assert c.delta.rows == [[1, 0, 0, 2], [0, 1, 1, 0]]
    assert c.counit == [1, 0]
    assert c.validate().overall


def test_dual_of_zx3():
    c = dual_zxk(3)
    # Delta((x^2)*) = 1*(x)(x^2)* + x*(x)x* + (x^2)*(x)1*
    row = c.delta.rows[2]
    n = 3
    assert row[0 * n + 2] == 1 and row[1 * n + 1] == 1 and row[2 * n + 0] == 1
    assert sum(1 for v in row if v) == 3


def test_dual_of_split_algebra_is_set_like():
    c = dual_of_algebra(split_algebra(ZZ, 2))
    assert c.delta == set_like(ZZ, ["a", "b"]).delta
    assert c.counit == [1, 1]


def test_dual_round_trip():
    for c in (set_like(ZZ, ["a", "b"]), dual_zxk(3), set_like(ZZ, [])):
        a = dual_algebra(c)
        assert a.validate().overall
        back = dual_of_algebra(a)
        assert back.delta == c.delta and back.counit == c.counit
    alg = truncated_polynomial_algebra(ZZ, 3)
    again = dual_algebra(dual_of_algebra(alg))
    assert again.mult == alg.mult and again.unit == alg.unit


def test_tensor_examples():
    ab = set_like(ZZ, ["a", "b"])
    x = set_like(ZZ, ["x"])
    t = tensor(ab, x)
    assert t.delta == set_like(ZZ, ["ax", "bx"]).delta

    c = dual_zxk(3)
    t = tensor(c, x)
    # natural isomorphism with c itself, checked as a coalgebra map
    iso = CoalgebraMap(c, t, Matrix.identity(ZZ, 3))
    assert validate_map(iso).overall

    d2 = dual_zxk(2)
    t = tensor(d2, d2)
    # equals the dual of Z[x,y]/(x^2, y^2) on the matching basis order
    kxy = _dual_of_xy_square()
    assert t.delta == kxy.delta and t.counit == kxy.counit


def _dual_of_xy_square():
    # basis 1, y, x, xy with (i, j) -> i*2 + j matching the tensor order
    from purecoalg import AlgebraPresentation

    n = 4
    rows = [[0] * n for _ in range(n * n)]

    def mul(i, j, k, v=1):
        rows[i * n + j][k] = v

    table = {
        (0, 0): 0, (0, 1): 1, (0, 2): 2, (0, 3): 3,
        (1, 0): 1, (2, 0): 2, (3, 0): 3,
        (1, 2): 3, (2, 1): 3,
    }
    for (i, j), k in table.items():
        mul(i, j, k)
    alg = AlgebraPresentation(ZZ, n, Matrix(ZZ, rows, n), [1, 0, 0, 0])
    return dual_of_algebra(alg)


def test_tensor_ring_mismatch():
    from purecoalg import prime_field

    with pytest.raises(RingMismatch):
        tensor(set_like(ZZ, ["a"]), set_like(prime_field(3), ["b"]))


def test_direct_sum_examples():
    s = direct_sum(set_like(ZZ, ["a"]), set_like(ZZ, ["b"]))
    assert s.delta == set_like(ZZ, ["a", "b"]).delta
    c = dual_zxk(2)
    z = set_like(ZZ, [])
    assert direct_sum(c, z).delta == c.delta
    s = direct_sum(dual_zxk(3), set_like(ZZ, ["a"]))
    assert s.rank == 4 and s.validate().overall


def test_tensor_associative_up_to_reindexing():
    a, b, c = set_like(ZZ, ["a"]), dual_zxk(2), set_like(ZZ, ["u", "v"])
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    # the canonical reindexing is the identity permutation here because
    # both orders flatten row-major over (rank a, rank b, rank c)
    iso = CoalgebraMap(left, right, Matrix.identity(ZZ, left.rank))
    assert validate_map(iso).overall


def test_validate_map_examples():
    c = dual_zxk(2)
    assert validate_map(identity_map(c)).overall
    collapse = CoalgebraMap(c, set_like(ZZ, ["pt"]), Matrix(ZZ, [[e] for e in c.counit], 1))
    assert validate_map(collapse).overall
    doubling = CoalgebraMap(c, c, Matrix.identity(ZZ, 2).scale(2))
    report = validate_map(doubling)
    assert not report.overall
    assert report.first_failure().name == "comultiplication square"


def test_is_subcoalgebra_examples():
    c = dual_zxk(2)
    assert is_subcoalgebra(Lattice.full(ZZ, 2), c)
    assert not is_subcoalgebra(Lattice.from_rows(ZZ, 2, [[0, 1]]), c)
    assert is_subcoalgebra(Lattice.from_rows(ZZ, 2, [[1, 0]]), c)


def test_purify_subcoalgebra_examples():
    ab = set_like(ZZ, ["a", "b"])
    doubled = Lattice.from_rows(ZZ, 2, [[2, 0]])
    assert purify_subcoalgebra(doubled, ab).basis.rows == [[1, 0]]
    c = dual_zxk(2)
    full = Lattice.from_rows(ZZ, 2, [[2, 0], [0, 1]])
    assert purify_subcoalgebra(full, c) == Lattice.full(ZZ, 2)
    pure_line = Lattice.from_rows(ZZ, 2, [[1, 0]])
    assert purify_subcoalgebra(pure_line, c) == pure_line
    with pytest.raises(NotSubcoalgebra):
        purify_subcoalgebra(Lattice.from_rows(ZZ, 2, [[0, 1]]), c)


def test_impure_lattices_answer_through_their_saturation():
    """The doubled lines above: Delta(L) lies in sat(L) (x) sat(L), as the Kronecker oracle says."""
    from oracles import kron_is_subcoalgebra

    ab = set_like(ZZ, ["a", "b"])
    c = dual_zxk(2)
    cases = [
        (Lattice.from_rows(ZZ, 2, [[2, 0]]), ab, True),
        (Lattice.from_rows(ZZ, 2, [[2, 0], [0, 1]]), c, True),
        (Lattice.from_rows(ZZ, 2, [[2, 0]]), c, True),
        (Lattice.from_rows(ZZ, 2, [[0, 2]]), c, False),
        (Lattice.from_rows(ZZ, 2, [[2, 2]]), ab, False),
    ]
    for lat, coalgebra, want in cases:
        assert not lat.is_pure()[0]
        assert is_subcoalgebra(lat, coalgebra) == kron_is_subcoalgebra(lat, coalgebra) == want
        assert is_subcoalgebra(lat.saturate(), coalgebra) == want


def test_intersection_of_pure_subcoalgebras_is_subcoalgebra():
    rng = random.Random(71)
    for entry in generate_coalgebras(71, 12, max_rank=8):
        c = entry.coalgebra
        from purecoalg import components

        parts = components(c).parts
        if len(parts) < 2:
            continue
        a = parts[0][1].add(parts[1][1])
        b = parts[1][1]
        cap = a.intersect(b)
        assert is_subcoalgebra(cap, c)
        assert cap.is_pure()[0]


def test_conjugate_preserves_validity():
    rng = random.Random(73)
    c = dual_zxk(3)
    for _ in range(10):
        w = random_unimodular(rng, ZZ, 3)
        cw = conjugate(c, w)
        assert cw.validate().overall
        iso = CoalgebraMap(c, cw, w.inverse())
        assert validate_map(iso).overall


def test_restrict_to_subcoalgebra():
    c = dual_zxk(3)
    lat = Lattice.from_rows(ZZ, 3, [[1, 0, 0], [0, 1, 0]])
    sub, incl = restrict_to_subcoalgebra(lat, c)
    assert sub.validate().overall
    assert validate_map(incl).overall
    assert sub.rank == 2


def test_restrict_to_subcoalgebra_refuses_an_impure_lattice():
    c = set_like(ZZ, ["a", "b"])
    lat = Lattice.from_rows(ZZ, 2, [[2, 0]])  # a scaled group-like: a subcoalgebra, not pure
    assert is_subcoalgebra(lat, c)
    with pytest.raises(NotSubcoalgebra, match="restriction requires a pure subcoalgebra lattice"):
        restrict_to_subcoalgebra(lat, c)


@pytest.mark.parametrize("ring", [QQ, localized_integers([2, 3]), prime_field(101)], ids=str)
def test_restrict_to_a_component_gives_a_valid_coalgebra_and_inclusion(ring):
    seen = 0
    for entry in generate_coalgebras(307, 6, max_rank=6, ring=ring):
        c = entry.coalgebra
        for _, lat in components(c):
            sub, incl = restrict_to_subcoalgebra(lat, c)
            assert sub.validate().overall and validate_map(incl).overall
            assert sub.rank == lat.rank and incl.matrix.rows == lat.basis.rows
            seen += 1
    assert seen > 6  # some coalgebra has more than one component


def test_sparse_algebra_product_matches_the_dense_tensor():
    from fractions import Fraction

    from purecoalg import QQ, prime_field

    rng = random.Random(131)
    for ring in (ZZ, QQ, prime_field(7)):
        for entry in generate_coalgebras(137, 8, max_rank=6, ring=ring):
            a = dual_algebra(entry.coalgebra)
            n = a.rank
            for _ in range(3):
                x = [ring.normalize(rng.choice((0, 0, 1, -2, 3))) for _ in range(n)]
                y = [ring.normalize(rng.choice((0, 1, -1, 5))) for _ in range(n)]
                if ring == QQ:
                    x = [v / rng.choice((1, 2, 3)) for v in x]
                dense = [ring.zero] * n
                for i in range(n):
                    for j in range(n):
                        dense = [d + x[i] * y[j] * m for d, m in zip(dense, a.mult.rows[i * n + j])]
                assert a.multiply(x, y) == ring.reduce_row(dense)
                assert a.power(x, 3) == a.multiply(a.multiply(x, x), x)
                assert all(isinstance(v, Fraction) for v in a.multiply(x, y)) == (ring == QQ)
