"""Reproducible generator of structured test coalgebras and maps.

Instances are built exclusively by composing constructors with known
structure (set-like coalgebras, duals of the local algebras Z[x]/(x^k),
tensor products, direct sums) followed by a random unimodular change of
basis, so every generated coalgebra carries independently known ground
truth: its group-like count, component ranks, and coradical stage ranks
are computed from the recipe, never from the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .coalgebra import (
    Coalgebra,
    CoalgebraMap,
    conjugate,
    direct_sum,
    dual_of_algebra,
    identity_map,
    set_like,
    tensor,
    truncated_polynomial_algebra,
)
from .errors import ValidationError
from .matrix import Matrix
from .rings import ZZ, Ring

# the largest absolute entry of a random change of basis
ENTRY_BOUND = 6


@dataclass
class CorpusCoalgebra:
    coalgebra: Coalgebra
    grouplike_count: int
    component_ranks: tuple
    coradical_ranks: tuple
    recipe: str


@dataclass
class CorpusMap:
    map: CoalgebraMap
    kind: str


def random_unimodular(rng: random.Random, ring: Ring, n: int) -> Matrix:
    """Product of elementary shears and swaps, a shear kept only while no entry exceeds ENTRY_BOUND."""
    rows = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    if n <= 1:
        return Matrix(ring, rows, n)
    for _ in range(3 * n):
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if op == 0:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 1:
            rows[i] = [-v for v in rows[i]]
        else:
            coeff = rng.choice((1, -1))
            cand = [a + coeff * b for a, b in zip(rows[i], rows[j])]
            if max(abs(int(v)) for v in cand) <= ENTRY_BOUND:
                rows[i] = cand
    return Matrix(ring, rows, n)


def _merge_sum(a: CorpusCoalgebra, b: CorpusCoalgebra, ring: Ring) -> CorpusCoalgebra:
    c = direct_sum(a.coalgebra, b.coalgebra)
    graded_a = _graded(a.coradical_ranks)
    graded_b = _graded(b.coradical_ranks)
    length = max(len(graded_a), len(graded_b))
    graded = [
        (graded_a[i] if i < len(graded_a) else 0) + (graded_b[i] if i < len(graded_b) else 0)
        for i in range(length)
    ]
    return CorpusCoalgebra(
        c,
        a.grouplike_count + b.grouplike_count,
        tuple(sorted(a.component_ranks + b.component_ranks)),
        _cumulative(graded),
        f"sum({a.recipe}, {b.recipe})",
    )


def _merge_tensor(a: CorpusCoalgebra, b: CorpusCoalgebra, ring: Ring) -> CorpusCoalgebra:
    c = tensor(a.coalgebra, b.coalgebra)
    graded_a = _graded(a.coradical_ranks)
    graded_b = _graded(b.coradical_ranks)
    graded = [0] * (len(graded_a) + len(graded_b) - 1)
    for i, ga in enumerate(graded_a):
        for j, gb in enumerate(graded_b):
            graded[i + j] += ga * gb
    comps = tuple(sorted(x * y for x in a.component_ranks for y in b.component_ranks))
    return CorpusCoalgebra(
        c,
        a.grouplike_count * b.grouplike_count,
        comps,
        _cumulative(graded),
        f"tensor({a.recipe}, {b.recipe})",
    )


def _graded(ranks):
    return [ranks[0]] + [b - a for a, b in zip(ranks, ranks[1:])]


def _cumulative(graded):
    out = []
    total = 0
    for g in graded:
        total += g
        out.append(total)
    return tuple(out)


def _require_at_least(name: str, value: int, least: int):
    """Refuse a count below 0 or a rank bound below 1 (no recipe has rank below 1) before anything is drawn."""
    if value < least:
        raise ValidationError(f"{name} must be at least {least}, got {value}")


def _leaf(rng: random.Random, ring: Ring, max_rank: int) -> CorpusCoalgebra:
    if rng.random() < 0.45:
        k = rng.randint(1, min(3, max_rank))
        c = set_like(ring, [f"g{i}" for i in range(k)])
        return CorpusCoalgebra(c, k, tuple([1] * k), (k,), f"set{k}")
    k = rng.randint(1, min(4, max_rank))
    c = dual_of_algebra(truncated_polynomial_algebra(ring, k))
    return CorpusCoalgebra(c, 1, (k,), tuple(range(1, k + 1)), f"local{k}")


def _recipe(rng: random.Random, ring: Ring, max_rank: int, depth: int) -> CorpusCoalgebra:
    if depth <= 0 or max_rank <= 2 or rng.random() < 0.35:
        return _leaf(rng, ring, max_rank)
    op = rng.random()
    if op < 0.55:
        left = _recipe(rng, ring, max_rank - 1, depth - 1)
        right = _recipe(rng, ring, max_rank - left.coalgebra.rank, depth - 1)
        return _merge_sum(left, right, ring)
    bound = max(2, max_rank // 2)
    left = _recipe(rng, ring, bound, depth - 1)
    right_bound = max(1, max_rank // max(1, left.coalgebra.rank))
    right = _recipe(rng, ring, right_bound, depth - 1)
    return _merge_tensor(left, right, ring)


def generate_coalgebras(
    seed: int,
    count: int,
    max_rank: int = 12,
    ring: Ring = ZZ,
    twist: bool = True,
) -> list[CorpusCoalgebra]:
    """Deterministic corpus of pointed coalgebras with known invariants."""
    _require_at_least("count", count, 0)
    _require_at_least("max_rank", max_rank, 1)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        entry = _recipe(rng, ring, max_rank, depth=3)
        if entry.coalgebra.rank > max_rank or entry.coalgebra.rank == 0:
            continue
        if twist and entry.coalgebra.rank > 1 and rng.random() < 0.8:
            w = random_unimodular(rng, ring, entry.coalgebra.rank)
            twisted = conjugate(entry.coalgebra, w)
            entry = CorpusCoalgebra(
                twisted,
                entry.grouplike_count,
                entry.component_ranks,
                entry.coradical_ranks,
                f"twist({entry.recipe})",
            )
        out.append(entry)
    return out


def generate_tensor_pairs(
    seed: int,
    count: int,
    max_product_rank: int = 12,
    ring: Ring = ZZ,
) -> list[tuple[CorpusCoalgebra, CorpusCoalgebra]]:
    """Pairs whose tensor product stays at desk scale."""
    _require_at_least("count", count, 0)
    _require_at_least("max_product_rank", max_product_rank, 1)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = _recipe(rng, ring, 4, depth=2)
        b = _recipe(rng, ring, max(1, max_product_rank // max(1, a.coalgebra.rank)), depth=2)
        if a.coalgebra.rank * b.coalgebra.rank > max_product_rank:
            continue
        if a.coalgebra.rank == 0 or b.coalgebra.rank == 0:
            continue
        out.append((a, b))
    return out


def generate_maps(seed: int, count: int, max_rank: int = 10, ring: Ring = ZZ) -> list[CorpusMap]:
    """Deterministic corpus of valid maps between pointed coalgebras."""
    _require_at_least("count", count, 0)
    _require_at_least("max_rank", max_rank, 1)
    rng = random.Random(seed)
    entries = generate_coalgebras(seed + 1, max(8, count // 4), max_rank=max_rank, ring=ring)
    out = []
    point = set_like(ring, ["pt"])
    while len(out) < count:
        entry = rng.choice(entries)
        c = entry.coalgebra
        kind = rng.randrange(5)
        if kind == 0:
            out.append(CorpusMap(identity_map(c), "identity"))
        elif kind == 1:
            rows = [[e] for e in c.counit]
            out.append(CorpusMap(CoalgebraMap(c, point, Matrix(ring, rows, 1)), "counit collapse"))
        elif kind == 2:
            other = rng.choice(entries).coalgebra
            total = direct_sum(c, other)
            block = Matrix.zeros(ring, c.rank, total.rank)
            for i in range(c.rank):
                block.rows[i][i] = ring.one
            out.append(CorpusMap(CoalgebraMap(c, total, block), "sum inclusion"))
        elif kind == 3:
            # fold C (+) D onto C: identity on the C block, eps * g on the rest
            # (the plain block projection is not a coalgebra map)
            from .grouplike import group_likes

            other = rng.choice(entries).coalgebra
            total = direct_sum(other, c)
            g = group_likes(c).vectors[0]
            rows = []
            for i in range(other.rank):
                eps = other.counit[i]
                rows.append([eps * x for x in g])
            for i in range(c.rank):
                rows.append([ring.one if t == i else ring.zero for t in range(c.rank)])
            out.append(CorpusMap(CoalgebraMap(total, c, Matrix(ring, rows, c.rank)), "sum fold"))
        else:
            if c.rank < 1:
                continue
            w = random_unimodular(rng, ring, c.rank)
            out.append(CorpusMap(CoalgebraMap(c, conjugate(c, w), w.inverse()), "basis change"))
    return out
