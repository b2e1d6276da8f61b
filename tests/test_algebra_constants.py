"""An algebra held once, as its dual coalgebra's blocks, against the dense tables it replaced.

``AlgebraPresentation`` holds only ``dual``: block X_t of the dual has
D times the coefficient of e_t in e_i * e_j at (i, j), with the nonzero
entries of each row k-ascending and residues mod p over F_p; the dense
n^2 x n ``mult`` is a view.  Over Z, Q, Z[1/2,1/3] (with denominators
in Delta), F_101, F_2 and F_3, the dual algebra of a coalgebra must hold
that coalgebra itself and equal the former ``c.delta.transpose()``
construction entry for entry and type for type, and every source of an
algebra (file, dense constructor, entries) must give the same
presentation.
"""

import random
from fractions import Fraction

import pytest

from purecoalg import (
    AlgebraPresentation,
    Matrix,
    QQ,
    ZZ,
    conjugate,
    dual_algebra,
    dual_of_algebra,
    localized_integers,
    monogenic_algebra,
    prime_field,
    split_algebra,
    truncated_polynomial_algebra,
)
from purecoalg import serialize as sz
from purecoalg import structure
from purecoalg.coalgebra import algebra_from_entries, coalgebra_from_entries, dual_columns, dual_times
from purecoalg.corpus import generate_coalgebras

import oracles

ZS = localized_integers([2, 3])


def _corpus(seed, count, max_rank, ring):
    return [e.coalgebra for e in generate_coalgebras(seed, count, max_rank=max_rank, ring=ring)]


def _with_denominators(cs):
    out = []
    for c in cs:
        w = Matrix(c.ring, [[Fraction(int(i == j), 6 if i == j == 0 else 1) for j in range(c.rank)]
                            for i in range(c.rank)], c.rank)
        out += [c, conjugate(c, w)]
    assert sum(d.denom != 1 for d in out) >= 2
    return out


CORPORA = {
    "Z": lambda: _corpus(61, 8, 7, ZZ),
    "Q": lambda: _corpus(62, 6, 6, QQ) + [dual_of_algebra(monogenic_algebra(QQ, [Fraction(1, 2), 0]))],
    "Z[1/2,1/3]": lambda: _with_denominators(_corpus(63, 4, 6, ZS)),
    "F101": lambda: _corpus(64, 6, 6, prime_field(101)),
    "F2": lambda: _corpus(65, 6, 6, prime_field(2)) + [dual_of_algebra(truncated_polynomial_algebra(prime_field(2), 4))],
    "F3": lambda: _corpus(66, 6, 6, prime_field(3)) + [dual_of_algebra(truncated_polynomial_algebra(prime_field(3), 5))],
}


def _types(mat):
    return [[type(v) for v in row] for row in mat.rows]


def _same_store(b, a):
    """b holds the same dual blocks, denominator, unit and names as a."""
    return (b == a and b.dual.blocks == a.dual.blocks and b.dual.denom == a.dual.denom and b.unit == a.unit
            and b.basis_names == a.basis_names)


def _stored_values(a):
    return [v for block in a.dual.blocks for row in block.values() for _, v in row]


@pytest.mark.parametrize("ring", list(CORPORA))
def test_dual_algebra_is_the_transposed_delta(ring):
    for c in CORPORA[ring]():
        a = dual_algebra(c)
        assert a.dual is c
        want = c.delta.transpose()
        assert a.mult == want and _types(a.mult) == _types(want)
        assert [type(v) for v in a.unit] == [type(v) for v in c.counit]
        old = oracles.dense_dual_algebra(c)
        assert _same_store(old, a)
        assert sz.canonical_dumps(sz.algebra_to_obj(a)) == sz.canonical_dumps(sz.algebra_to_obj(old))
        assert a.validate().overall
        assert dual_of_algebra(a) is c


@pytest.mark.parametrize("ring", list(CORPORA))
def test_every_source_gives_one_presentation(ring):
    algebras = [dual_algebra(c) for c in CORPORA[ring]()]
    r = algebras[0].ring
    algebras += [monogenic_algebra(r, [r.normalize(2), r.zero, r.normalize(-1)]), split_algebra(r, 3),
                 truncated_polynomial_algebra(r, 4)]
    for a in algebras:
        n = a.rank
        dense = AlgebraPresentation(r, n, a.mult, a.unit, basis_names=a.basis_names)
        obj = sz.algebra_to_obj(a)
        parsed = sz.algebra_from_obj(obj)
        shuffled = sz.algebra_from_obj(dict(obj, mult=obj["mult"][::-1]))
        entries = algebra_from_entries(r, n, [(*divmod(ij, n), t, v) for ij, row in enumerate(a.mult.rows)
                                              for t, v in enumerate(row)], a.unit, a.basis_names)
        for b in (dense, parsed, shuffled, entries):
            assert _same_store(b, a) and b.mult == a.mult
        assert sz.canonical_dumps(sz.algebra_to_obj(parsed)) == sz.canonical_dumps(obj)
        assert all(list(block) == sorted(block) for block in a.dual.blocks)
        assert all([j for j, _ in row] == sorted({j for j, _ in row}) for block in a.dual.blocks
                   for row in block.values())
        assert all(_stored_values(a))
        # the stored entries are the nonzero entries of the dense table, each once
        assert sorted(Fraction(v, a.dual.denom) for v in _stored_values(a)) == sorted(
            Fraction(v) for row in a.mult.rows for v in row if v)


@pytest.mark.parametrize("p", [2, 3, 101])
def test_unreduced_prime_field_input_is_stored_as_residues(p):
    fp = prime_field(p)
    a = monogenic_algebra(fp, [fp.normalize(-1), 0])  # F_p[x]/(x^2 + 1)
    shifted = [[v + p * (1 + t) for t, v in enumerate(row)] for row in a.mult.rows]  # zeros become p, 2p, ...
    unit = [v - 3 * p for v in a.unit]
    from_dense = AlgebraPresentation(fp, 2, Matrix(fp, shifted, 2), unit, basis_names=a.basis_names)
    from_entries = algebra_from_entries(fp, 2, [(*divmod(ij, 2), t, v) for ij, row in enumerate(shifted)
                                                for t, v in enumerate(row)], unit, a.basis_names)
    for b in (from_dense, from_entries):
        assert _same_store(b, a)
        assert all(0 < v < p for v in _stored_values(b)) and all(0 <= v < p for v in b.unit)
        assert b.validate().overall
    # a product that is zero mod p only: the commutativity check sees residues
    rows = [[0, 0], [p, 0], [0, 0], [0, 0]]
    assert AlgebraPresentation(fp, 2, Matrix(fp, rows, 2), [1, 0]).dual.blocks == [{}, {}]


def test_the_dense_table_is_only_a_view():
    assert "mult" not in AlgebraPresentation.__slots__
    a = truncated_polynomial_algebra(ZZ, 3)
    assert not hasattr(a, "__dict__")
    view = a.mult
    assert view is not a.mult and view == a.mult
    view.rows[1][0] = 5
    assert a.mult != view and a == truncated_polynomial_algebra(ZZ, 3)
    assert AlgebraPresentation(ZZ, 3, view, a.unit) != a
    with pytest.raises(AttributeError):
        a.mult = view


def _dense_blocks(c):
    """X_t as dense n x n integer matrices, read off the stored blocks of c."""
    out = []
    for block in c.blocks:
        x = [[0] * c.rank for _ in range(c.rank)]
        for a, row in block.items():
            for b, v in row:
                x[a][b] = v
        out.append(x)
    return out


def _sample(rng, c):
    if c.ring.kind == "Fp":
        return [rng.randrange(c.ring.p) for _ in range(c.rank)]
    return [rng.choice((0, 0, 1, -1, 2, -3, 5)) for _ in range(c.rank)]


def _non_cocommutative():
    """A stored block that is never validated: X_0[0][1] = 2 while X_0[1][0] = 0."""
    c = coalgebra_from_entries(ZZ, 3, [(0, 0, 1, 2), (0, 1, 1, 7), (1, 1, 0, 3), (2, 0, 2, -1), (2, 2, 1, 5)],
                               [1, 0, 0])
    assert not c.validate().overall
    return c


@pytest.mark.parametrize("ring", list(CORPORA) + ["unvalidated"])
def test_dual_times_puts_x_in_the_first_slot_and_y_in_the_second(ring):
    rng = random.Random(29)
    cs = [_non_cocommutative()] if ring == "unvalidated" else CORPORA[ring]()
    for c in cs:
        columns, xs = dual_columns(c), _dense_blocks(c)
        assert [sorted(column) for column in columns] == [
            sorted({a for x in xs for a in range(c.rank) if x[a][b]}) for b in range(c.rank)]
        for _ in range(6):
            x, y = _sample(rng, c), _sample(rng, c)
            want = [sum(x[a] * y[b] * xt[a][b] for a in range(c.rank) for b in range(c.rank)) for xt in xs]
            assert dual_times(columns, x, y) == want
    if ring == "unvalidated":
        (c,) = cs
        columns = dual_columns(c)
        assert dual_times(columns, [1, 0, 0], [0, 1, 0]) == [2, 0, 0]
        assert dual_times(columns, [0, 1, 0], [1, 0, 0]) == [0, 3, 0]


@pytest.mark.parametrize("ring", list(CORPORA))
def test_dual_times_over_the_denominator_is_the_dense_product(ring):
    rng = random.Random(31)
    for c in CORPORA[ring]():
        a, columns, n = dual_algebra(c), dual_columns(c), c.rank
        for _ in range(6):
            x, y = _sample(rng, c), _sample(rng, c)
            got = c.ring.reduce_row(dual_times(columns, x, y))
            if c.ring.kind == "Fp":
                p = c.ring.p
                assert [v * pow(c.denom, -1, p) % p for v in got] == oracles.dense_product(a.mult.rows, x, y, p)
            elif c.ring.kind == "Q":
                want = [sum(x[i] * y[j] * a.mult.rows[i * n + j][t] for i in range(n) for j in range(n))
                        for t in range(n)]
                assert [Fraction(v, c.denom) for v in got] == want
            else:
                for p in (5, 7):
                    want = oracles.dense_product(a.mult.reduce_mod(p).rows, x, y, p)
                    assert [v * pow(c.denom, -1, p) % p for v in got] == want


@pytest.mark.parametrize("ring", list(CORPORA) + ["unvalidated"])
def test_dual_action_rows_are_the_blocks_times_e(ring):
    rng = random.Random(37)
    cs = [_non_cocommutative()] if ring == "unvalidated" else CORPORA[ring]()
    for c in cs:
        columns, xs = dual_columns(c), _dense_blocks(c)
        for _ in range(4):
            e = _sample(rng, c)
            assert structure._dual_action(columns, e) == [
                [sum(v * w for v, w in zip(row, e)) for row in xt] for xt in xs]
