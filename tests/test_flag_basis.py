"""The adapted basis of a flag: the Hermite rows whose pivot is new at each stage."""

import pytest

from purecoalg import (
    Lattice,
    Matrix,
    QQ,
    ZZ,
    coradical_filtration,
    is_subcoalgebra,
    push_filtration,
    tensor_filtration,
)
from purecoalg import matrix
from purecoalg.coalgebra import _flag_basis
from purecoalg.corpus import generate_coalgebras, generate_maps, generate_tensor_pairs
from purecoalg.rings import localized_integers, prime_field

RINGS = (ZZ, QQ, localized_integers([2, 3]), prime_field(101), prime_field(2), prime_field(3))


def _leading(row):
    return next(j for j, v in enumerate(row) if v)


def _filtrations():
    """Coradical, pushed and tensor filtrations over every ring, p <= rank among them."""
    out = []
    for seed, ring in enumerate(RINGS, 61):
        out += [coradical_filtration(e.coalgebra) for e in generate_coalgebras(seed, 8, max_rank=6, ring=ring)]
    for ring in (ZZ, prime_field(3)):
        for record in generate_maps(71, 6, max_rank=6, ring=ring):
            f = record.map
            out.append(push_filtration(f, coradical_filtration(f.domain)))
        for a, b in generate_tensor_pairs(73, 4, max_product_rank=9, ring=ring):
            out.append(tensor_filtration(coradical_filtration(a.coalgebra), coradical_filtration(b.coalgebra)))
    return out


FILTRATIONS = _filtrations()


def test_the_corpus_covers_every_ring_and_small_primes():
    rings = {str(f.coalgebra.ring) for f in FILTRATIONS}
    assert rings == {str(r) for r in RINGS}
    assert any(0 < f.coalgebra.ring.modulus <= f.coalgebra.rank for f in FILTRATIONS)
    assert sum(len(f.stages) > 2 for f in FILTRATIONS) >= 10


def test_the_rows_through_each_stage_have_distinct_pivots_and_span_it():
    for filt in FILTRATIONS:
        c, stages = filt.coalgebra, filt.stages
        ring, n = c.ring, c.rank
        rows, degrees = _flag_basis(c, stages)
        assert len(rows) == len(degrees) == n
        rows = [[ring.normalize(x) for x in row] for row in rows]
        leading = [_leading(row) for row in rows]
        assert len(set(leading)) == n  # so the rows are invertible over the fraction field
        assert degrees == sorted(degrees)
        for m, v in enumerate(stages):
            first = rows[: v.rank]
            assert all(d <= m for d in degrees[: v.rank]) and all(d > m for d in degrees[v.rank:])
            # rank V_m independent rows inside V_m span it over the fraction field
            assert v.contains_lattice(Lattice.from_rows(ring, n, first))


def test_the_flag_basis_eliminates_nothing_and_reads_no_projection(monkeypatch):
    calls = {"elim": 0, "projection": 0}
    elim, projection = matrix._elim, Lattice.integral_projection

    def counted_elim(*args, **kwargs):
        calls["elim"] += 1
        return elim(*args, **kwargs)

    def counted_projection(self):
        calls["projection"] += 1
        return projection(self)

    monkeypatch.setattr(matrix, "_elim", counted_elim)
    monkeypatch.setattr(Lattice, "integral_projection", counted_projection)
    for filt in FILTRATIONS:
        _flag_basis(filt.coalgebra, filt.stages)
    assert calls == {"elim": 0, "projection": 0}
    # the wrappers do see the elimination and the projection elsewhere
    filt = FILTRATIONS[0]
    Lattice.from_rows(filt.coalgebra.ring, filt.coalgebra.rank, filt.stages[-1].basis.rows).integral_projection()
    assert calls["elim"] >= 1 and calls["projection"] == 1


def test_a_stage_not_in_echelon_form_fails_the_count():
    c = next(f.coalgebra for f in FILTRATIONS if f.coalgebra.ring == ZZ and f.coalgebra.rank >= 3)
    n = c.rank
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    # two rows with leading column 0: a raw basis that no Hermite form has
    raw = Lattice(ZZ, n, Matrix(ZZ, [[1] * n, unit[0]], n))
    with pytest.raises(AssertionError, match="^flag stages through 0 have 1 distinct pivots for rank 2$"):
        _flag_basis(c, [raw])
    with pytest.raises(AssertionError, match="^flag stages through 0 have 1 distinct pivots for rank 2$"):
        is_subcoalgebra(raw, c)
    # the same over a Hermite first stage: the raw stage brings one new pivot for two rows
    first = Lattice.from_rows(ZZ, n, [unit[1]])
    raw = Lattice(ZZ, n, Matrix(ZZ, [unit[0], unit[0], unit[1]], n))
    with pytest.raises(AssertionError, match="^flag stages through 1 have 2 distinct pivots for rank 3$"):
        _flag_basis(c, [first, raw])
    # its Hermite form passes the count
    rows, degrees = _flag_basis(c, [first, Lattice.from_rows(ZZ, n, [unit[0], unit[1]])])
    assert rows[:2] == [unit[1], unit[0]] and degrees[:2] == [0, 1]
