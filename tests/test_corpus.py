"""The generator's ground truth and the validity of everything it emits."""

import pytest

from purecoalg import ValidationError, validate_map
from purecoalg import corpus
from purecoalg.corpus import generate_coalgebras, generate_maps, generate_tensor_pairs


def test_generation_is_deterministic():
    a = generate_coalgebras(11, 10)
    b = generate_coalgebras(11, 10)
    assert [x.recipe for x in a] == [y.recipe for y in b]
    assert all(x.coalgebra.delta == y.coalgebra.delta for x, y in zip(a, b))


def test_generated_coalgebras_are_valid_and_bounded():
    for entry in generate_coalgebras(13, 40, max_rank=12):
        assert 1 <= entry.coalgebra.rank <= 12
        assert entry.coalgebra.validate().overall
        assert entry.coradical_ranks[-1] == entry.coalgebra.rank
        assert sum(entry.component_ranks) == entry.coalgebra.rank


def test_generated_maps_are_valid():
    for record in generate_maps(17, 60, max_rank=8):
        assert validate_map(record.map).overall, record.kind


def test_tensor_pairs_respect_bound():
    for a, b in generate_tensor_pairs(19, 30, max_product_rank=12):
        assert a.coalgebra.rank * b.coalgebra.rank <= 12


@pytest.mark.parametrize("bound", [0, -3])
def test_a_rank_bound_below_one_is_refused_before_drawing(monkeypatch, bound):
    def drawn(*args, **kwargs):
        raise AssertionError("a recipe was drawn")

    # without the refusal, max_rank 0 fails in randrange and max_product_rank 0 never returns
    monkeypatch.setattr(corpus, "_recipe", drawn)
    for call, name in ((generate_coalgebras, "max_rank"), (generate_maps, "max_rank"),
                       (generate_tensor_pairs, "max_product_rank")):
        with pytest.raises(ValidationError, match=f"^{name} must be at least 1, got {bound}$"):
            call(1, 3, **{name: bound})
    monkeypatch.undo()
    assert [e.coalgebra.rank for e in generate_coalgebras(1, 3, max_rank=1)] == [1, 1, 1]
    assert [a.coalgebra.rank * b.coalgebra.rank for a, b in generate_tensor_pairs(1, 3, max_product_rank=1)] == [1] * 3
    assert all(validate_map(r.map).overall for r in generate_maps(1, 3, max_rank=1))
