"""The comultiplication square of ``validate_map`` on packed rows, against its former list form.

``validate_map`` packs each row of the cleared map and of the codomain
blocks into one int and tests whole rows at once; ``oracles`` keeps the
former check, which formed every entry of the square with ``sandwich``.
Both reports must agree byte for byte over Z, Q, Z[1/2,1/3], F_2, F_3
and F_101, on corpus maps, on coradical retractions and on one-entry
perturbations of both, and on maps with zero rows and zero columns,
where ``validate_map`` reads only the support of the map.  The zero
test that reads the packed rows, shared with the coassociativity check,
must name the first nonzero slot (mod p) of any row whose slots lie
within the bound its width was set from, extreme slots included.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purecoalg import (
    CoalgebraMap,
    Matrix,
    QQ,
    ZZ,
    conjugate,
    identity_map,
    prime_field,
    split_coradical,
    validate_map,
)
from purecoalg.coalgebra import _first_slot, _packed, _width, coalgebra_from_entries
from purecoalg.corpus import generate_coalgebras, generate_maps
from purecoalg.rings import localized_integers

import oracles

ZS = localized_integers([2, 3])
RINGS = [ZZ, QQ, ZS, prime_field(2), prime_field(3), prime_field(101)]
IDS = ["Z", "Q", "ZS", "F2", "F3", "F101"]


def _perturbed(rng, f, count=3):
    """count copies of f with one matrix entry moved by -1, 1 or 3."""
    ring = f.domain.ring
    out = []
    for _ in range(count):
        rows = [list(row) for row in f.matrix.rows]
        rows[rng.randrange(len(rows))][rng.randrange(f.codomain.rank)] += ring.normalize(rng.choice([-1, 1, 3]))
        out.append(CoalgebraMap(f.domain, f.codomain, Matrix(ring, rows, f.codomain.rank)))
    return out


def _zeroed(rng, f):
    """f with a random set of rows, a random set of columns, both, and every row of its matrix set to zero."""
    ring = f.domain.ring
    n, m = f.domain.rank, f.codomain.rank
    rows, cols = set(rng.sample(range(n), rng.randrange(n + 1))), set(rng.sample(range(m), rng.randrange(m + 1)))
    out = []
    for zero_rows, zero_cols in ((rows, ()), ((), cols), (rows, cols), (range(n), ())):
        matrix = [[ring.zero if i in zero_rows or j in zero_cols else v for j, v in enumerate(row)]
                  for i, row in enumerate(f.matrix.rows)]
        out.append(CoalgebraMap(f.domain, f.codomain, Matrix(ring, matrix, m)))
    return out


def _assert_matches_oracle(maps):
    """Each report equals the former one; returns the names of the checks that failed somewhere."""
    failed = set()
    for g in maps:
        report = validate_map(g)
        assert str(report) == str(oracles.sandwich_map_report(g))
        failed |= {check.name for check in report.checks if not check.passed}
    return failed


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
def test_packed_square_matches_the_sandwich_oracle(ring):
    rng = random.Random(281)
    maps = [entry.map for entry in generate_maps(283, 16, max_rank=6, ring=ring)]
    maps += [split_coradical(entry.coalgebra) for entry in generate_coalgebras(293, 12, max_rank=6, ring=ring)]
    if ring in (QQ, ZS):
        # a basis change by 6 can put denominators into Delta, and puts them into the inverse map
        scaled = []
        for entry in generate_coalgebras(307, 6, max_rank=5, ring=ring):
            c = entry.coalgebra
            w = Matrix.identity(ring, c.rank)
            w.rows[-1][-1] = ring.normalize(6)
            d = conjugate(c, w)
            scaled.append(d)
            maps += [CoalgebraMap(c, d, w.inverse()), CoalgebraMap(d, c, w), split_coradical(d)]
        assert sum(d.denom > 1 for d in scaled) >= 2
    assert all(g.require_valid() for g in maps)
    # validate_map reads only the support of F: valid maps with zero rows and zero columns are among them
    assert any(not all(map(any, g.matrix.rows)) and not all(map(any, g.matrix.transpose().rows)) for g in maps)
    failed = _assert_matches_oracle([h for g in maps for h in [g, *_perturbed(rng, g), *_zeroed(rng, g)]])
    assert failed == {"comultiplication square", "counit triangle"}


def _divided_powers(ring):
    """Basis 1, x, x2 with Delta(x2) = x2 (x) 1 + x (x) x + 1 (x) x2."""
    entries = [(0, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1), (2, 2, 0, 1), (2, 1, 1, 1), (2, 0, 2, 1)]
    return coalgebra_from_entries(ring, 3, [(i, j, k, ring.normalize(v)) for i, j, k, v in entries],
                                  [ring.one, ring.zero, ring.zero])


def test_a_slot_that_is_a_nonzero_multiple_of_p_passes():
    # x -> 2x, x2 -> x2: at basis 2, slot (1, 1), the square's integer slot is 2 * 2 - 1 = 3
    f3 = prime_field(3)
    c = _divided_powers(f3)
    f = CoalgebraMap(c, c, Matrix(f3, [[1, 0, 0], [0, 2, 0], [0, 0, 1]], 3))
    assert validate_map(f).overall
    assert str(validate_map(f)) == str(oracles.sandwich_map_report(f))
    z = _divided_powers(ZZ)
    g = CoalgebraMap(z, z, Matrix(ZZ, [[1, 0, 0], [0, 2, 0], [0, 0, 1]], 3))
    assert validate_map(g).first_failure().location == "basis 2, tensor slot (1, 1)"
    assert str(validate_map(g)) == str(oracles.sandwich_map_report(g))


def test_the_slot_width_holds_for_entries_of_200_bits():
    rng = random.Random(311)
    big = 2**200 + 235
    for entry in generate_coalgebras(313, 6, max_rank=6):
        c = entry.coalgebra
        if c.rank < 2:
            continue
        # unitriangular, so unimodular; its inverse and the conjugated Delta carry larger entries still
        w = Matrix.identity(ZZ, c.rank)
        w.rows[0][1] = big
        w.rows[0][c.rank - 1] = -big
        f = CoalgebraMap(c, conjugate(c, w), w.inverse())
        assert max(abs(v) for row in f.matrix.rows for v in row).bit_length() >= 200
        assert validate_map(f).overall
        maps = [f, identity_map(f.codomain), *_perturbed(rng, f, 6)]
        assert "comultiplication square" in _assert_matches_oracle(maps)


@st.composite
def packed_rows(draw):
    """(ring, bound, count, slot rows by key): slots within the bound, many at its edge or multiples of p."""
    ring = draw(st.sampled_from([ZZ] + [prime_field(p) for p in (2, 3, 101, 2**61 - 1)]))
    bound = draw(st.one_of(st.integers(0, 40), st.integers(2**60, 2**90)))
    p = ring.p if ring.kind == "Fp" else 1
    slot = st.one_of(st.just(0), st.sampled_from([bound, -bound]), st.integers(-bound, bound),
                     st.integers(-(bound // p), bound // p).map(lambda t: p * t),
                     st.sampled_from([p * (bound // p), -p * (bound // p)]))
    count = draw(st.integers(1, 6))
    rows = draw(st.dictionaries(st.integers(0, 20), st.lists(slot, min_size=count, max_size=count), max_size=4))
    return ring, bound, count, rows


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(packed_rows())
def test_the_zero_test_names_the_first_nonzero_slot_of_a_packed_row(drawn):
    ring, bound, count, rows = drawn
    width = _width(bound, ring)
    want = next(((key, b) for key in sorted(rows) for b, v in enumerate(ring.reduce_row(rows[key])) if v), None)
    assert _first_slot({key: _packed(enumerate(row), width) for key, row in rows.items()}, width, count, ring) == want
