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
from purecoalg.coalgebra import algebra_from_entries
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
