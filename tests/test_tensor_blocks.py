"""Tensor-square checks on n x n blocks against the former n^2-ambient routines.

The wedge works on the n x n matrix X of Delta(x) through products
P^T X Q with the integral quotient projections of pure lattices; the
subcoalgebra test, filtrations and component decompositions are
validated on the support of Delta in a basis adapted to them.
``oracles`` keeps the Kronecker-product versions and the former
per-row, stage-by-stage and part-by-part block checks they replaced;
all must agree over Z, Q, Z[1/2,1/3] and F_101, on accepted inputs and
on rejected stage lists and decompositions, and the subcoalgebra
verdicts also over F_2 and F_3.
"""

import importlib
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from purecoalg import (
    Coalgebra,
    Filtration,
    Lattice,
    Matrix,
    NotSubcoalgebra,
    QQ,
    ValidationError,
    WorkbenchError,
    ZZ,
    components,
    conjugate,
    coradical_filtration,
    dual_algebra,
    dual_of_algebra,
    is_subcoalgebra,
    prime_field,
    truncated_polynomial_algebra,
    wedge,
)
from purecoalg.corpus import generate_coalgebras
from purecoalg.rings import localized_integers
from purecoalg.structure import _validated_decomposition

import oracles


def _over_q(c):
    delta = Matrix(QQ, [[Fraction(v) for v in row] for row in c.delta.rows], c.rank * c.rank)
    return Coalgebra(QQ, c.rank, delta, [Fraction(v) for v in c.counit])


def _scale_basis_vector(ring, n, k, unit):
    return Matrix(ring, [[unit if i == j == k else ring.normalize(int(i == j)) for j in range(n)]
                         for i in range(n)], n)


def _has_denominators(c):
    return any(v.denominator != 1 for row in c.delta.rows for v in row)


def _corpora():
    """(name, coalgebras) for Z, Q, Z[1/2,1/3] with denominators in Delta, and F_101."""
    over_z = [e.coalgebra for e in generate_coalgebras(83, 14, max_rank=7)]
    zs = localized_integers([2, 3])
    over_zs = []
    for entry in generate_coalgebras(89, 24, max_rank=7, ring=zs):
        c = entry.coalgebra
        if c.rank < 4:
            continue
        # scaling basis vector k by the unit 1/6 can put denominators into
        # Delta; keep the first such conjugate that has them
        twins = [conjugate(c, _scale_basis_vector(zs, c.rank, k, Fraction(1, 6))) for k in range(c.rank)]
        over_zs += [c, max(twins, key=_has_denominators)]
    f101 = [e.coalgebra for e in generate_coalgebras(97, 14, max_rank=7, ring=prime_field(101))]
    return [("Z", over_z), ("Q", [_over_q(c) for c in over_z]), ("Z[1/2,1/3]", over_zs), ("F_101", f101)]


CORPORA = _corpora()


def _scaled(lat, k):
    """The lattice spanned by k times the basis: impure over Z and Z[1/2,1/3] when k is a non-unit."""
    return Lattice.from_rows(lat.ring, lat.ambient_rank, [[k * v for v in row] for row in lat.basis.rows])


def _probe_lattices(rng, c):
    """The filtration stages, the components, a random lattice, and each of them scaled by 5."""
    lattices = list(coradical_filtration(c).stages) + [lat for _, lat in components(c)]
    rows = [[c.ring.normalize(rng.randint(-2, 2)) for _ in range(c.rank)] for _ in range(2)]
    lattices.append(Lattice.from_rows(c.ring, c.rank, rows))
    return lattices + [_scaled(lat, 5) for lat in lattices if lat.rank]


@pytest.mark.parametrize("name,corpus", CORPORA, ids=[name for name, _ in CORPORA])
def test_blocks_match_kron_oracles_on_accepted_inputs(name, corpus):
    rng = random.Random(101)
    if name == "Z[1/2,1/3]":
        assert sum(map(_has_denominators, corpus)) >= 5
    for c in corpus:
        filt = coradical_filtration(c)
        v0 = filt.stages[0]
        for lower, upper in zip(filt.stages, filt.stages[1:]):
            # bit-identical wedge, entry for entry of the Hermite basis
            want = oracles.kron_wedge(lower, v0, c).basis.rows
            assert wedge(lower, v0, c).basis.rows == want == upper.basis.rows
        assert oracles.kron_incompatible_stage(list(filt.stages), c) is None
        for lat in _probe_lattices(rng, c):
            assert is_subcoalgebra(lat, c) == oracles.kron_is_subcoalgebra(lat, c) == oracles.block_is_subcoalgebra(lat, c)
        parts = [lat for _, lat in components(c)]
        if len(parts) >= 2:
            assert wedge(parts[0], parts[1], c) == oracles.kron_wedge(parts[0], parts[1], c)


@pytest.mark.parametrize("p", (2, 3))
def test_subcoalgebra_verdicts_match_both_oracles_over_small_prime_fields(p):
    """p <= rank, where the group-likes come from the iterated Frobenius: the verdicts still agree."""
    ring = prime_field(p)
    corpus = [e.coalgebra for e in generate_coalgebras(131 + p, 10, max_rank=6, ring=ring)]
    corpus += [dual_of_algebra(truncated_polynomial_algebra(ring, k)) for k in (p, p + 2)]
    assert sum(c.rank >= p for c in corpus) >= 6
    rng = random.Random(137)
    seen = set()
    for c in corpus:
        for lat in _probe_lattices(rng, c):
            got = is_subcoalgebra(lat, c)
            assert got == oracles.kron_is_subcoalgebra(lat, c) == oracles.block_is_subcoalgebra(lat, c)
            seen.add(got)
    assert seen == {True, False}


def _verdict(c, stages):
    """How Filtration(c, stages) ends: None when accepted, else (check, stage index)."""
    try:
        Filtration(c, stages)
    except WorkbenchError as exc:
        message = str(exc)
        if message == "filtration stages must increase":
            return ("increase", None)
        index = int(message.split("stage ")[1].split()[0])
        if "not pure" in message:
            return ("pure", index)
        if isinstance(exc, NotSubcoalgebra):
            return ("subcoalgebra", index)
        assert message == f"Delta is not compatible with filtration stage {index}"
        return ("compatibility", index)
    return None


def _oracle_verdict(c, stages):
    """The same verdict, with the subcoalgebra and compatibility checks done in C (x) C."""
    for lower, upper in zip(stages, stages[1:]):
        if not upper.contains_lattice(lower):
            return ("increase", None)
    for idx, v in enumerate(stages):
        if not v.is_pure()[0]:
            return ("pure", idx)
        if not oracles.kron_is_subcoalgebra(v, c):
            return ("subcoalgebra", idx)
    index = oracles.kron_incompatible_stage(stages, c)
    return None if index is None else ("compatibility", index)


def _random_stage_lists(rng, c):
    """Stage lists of every verdict: sub-flags of the coradical filtration, components, random lattices."""
    filt = list(coradical_filtration(c).stages)
    pool = filt + [lat for _, lat in components(c)]
    for _ in range(6):
        kept = sorted(rng.sample(range(len(filt)), rng.randint(1, len(filt))))
        yield [filt[i] for i in kept]
    for _ in range(3):
        rows = [[c.ring.normalize(rng.randint(-3, 3)) for _ in range(c.rank)]
                for _ in range(rng.randint(1, c.rank))]
        random_lat = Lattice.from_rows(c.ring, c.rank, rows)
        stages = [rng.choice(pool), random_lat, random_lat.saturate()]
        yield sorted(stages[: rng.randint(1, 3)], key=lambda lat: lat.rank)
    yield [filt[0], Lattice.full(c.ring, c.rank)]
    yield [_scaled(filt[0], 5)] + filt[1:]


@pytest.mark.parametrize("name,corpus", CORPORA, ids=[name for name, _ in CORPORA])
def test_filtration_verdicts_match_kron_oracles_on_random_stage_lists(name, corpus):
    rng = random.Random(103)
    seen = set()
    for c in corpus:
        for stages in _random_stage_lists(rng, c):
            got = _verdict(c, stages)
            assert got == _oracle_verdict(c, stages)
            seen.add(got[0] if got else "accepted")
    assert {"accepted", "compatibility", "subcoalgebra"} <= seen
    if name in ("Z", "Z[1/2,1/3]"):
        assert "pure" in seen


def _block_oracle_verdict(c, stages):
    """The same verdict from the former block checks: per-stage subcoalgebra tests, m + 2 products per row."""
    for lower, upper in zip(stages, stages[1:]):
        if not upper.contains_lattice(lower):
            return ("increase", None)
    for idx, v in enumerate(stages):
        if not v.is_pure()[0]:
            return ("pure", idx)
        if not oracles.block_is_subcoalgebra(v, c):
            return ("subcoalgebra", idx)
    index = oracles.block_incompatible_stage(stages, c)
    return None if index is None else ("compatibility", index)


def _message(c, stages):
    try:
        Filtration(c, stages)
    except WorkbenchError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name,corpus", CORPORA, ids=[name for name, _ in CORPORA])
def test_filtration_verdicts_match_block_oracle_on_random_stage_lists(name, corpus):
    rng = random.Random(113)
    seen = set()
    for c in corpus:
        for stages in _random_stage_lists(rng, c):
            got = _verdict(c, stages)
            assert got == _block_oracle_verdict(c, stages)
            seen.add(got[0] if got else "accepted")
            message = _message(c, stages)
            if got and got[0] == "subcoalgebra":
                assert message == f"filtration stage {got[1]} is not a subcoalgebra"
            elif got and got[0] == "compatibility":
                assert message == f"Delta is not compatible with filtration stage {got[1]}"
    assert {"accepted", "compatibility", "subcoalgebra"} <= seen


def _decomposition_failure(c, parts):
    try:
        _validated_decomposition(c, parts)
    except AssertionError as exc:
        return str(exc)
    return None


def _perturbed_parts(rng, c, parts):
    """The decomposition itself and variants that break each of its checks."""
    ring, n = c.ring, c.rank
    gs = [g for g, _ in parts]
    lats = [lat for _, lat in parts]
    yield parts
    yield [(gs[0], _scaled(lats[0], 5))] + parts[1:]
    j = rng.randrange(len(parts))
    rows = [[ring.normalize(rng.randint(-2, 2)) for _ in range(n)] for _ in range(lats[j].rank)]
    yield parts[:j] + [(gs[j], Lattice.from_rows(ring, n, rows).saturate())] + parts[j + 1:]
    if len(parts) < 2:
        return
    rest = parts[2:]
    both = lats[0].add(lats[1])
    yield parts[1:]
    yield [(gs[0], both), (gs[1], lats[1])] + rest
    yield [(gs[0], both), (gs[1], Lattice.zero(ring, n))] + rest
    yield [(gs[0], lats[1]), (gs[1], lats[0])] + rest
    a, b = lats[0].basis.rows[0], lats[1].basis.rows[0]
    for k in (1, 5):
        # b -> k * b + a: an elementary change for k = 1, index 5 over Z otherwise
        sheared = Lattice.from_rows(ring, n, [[k * y + x for x, y in zip(a, b)]] + lats[1].basis.rows[1:])
        yield [(gs[0], lats[0]), (gs[1], sheared)] + rest


DECOMPOSITION_MESSAGES = {
    "impure": "component 0 is impure",
    "subcoalgebra": "is not a subcoalgebra",
    "misses": "misses its group-like",
    "second": "contains a second group-like",
    "intersect": "components intersect nontrivially",
    "fill": "components do not fill the coalgebra",
    "unimodular": "stacked component basis is not unimodular",
}


@pytest.mark.parametrize("name,corpus", CORPORA, ids=[name for name, _ in CORPORA])
def test_decomposition_verdicts_match_per_part_oracle(name, corpus):
    rng = random.Random(127)
    seen = set()
    for c in corpus:
        parts = list(components(c).parts)
        if not parts:
            continue
        for perturbed in _perturbed_parts(rng, c, parts):
            got = _decomposition_failure(c, perturbed)
            assert got == oracles.decomposition_failure(c, perturbed)
            seen.update(kind for kind, text in DECOMPOSITION_MESSAGES.items() if got and text in got)
            seen.add("accepted" if got is None else "rejected")
    want = {"accepted", "subcoalgebra", "misses", "second", "intersect", "fill"}
    if name in ("Z", "Z[1/2,1/3]"):
        want |= {"impure", "unimodular"}
    assert want <= seen


def test_filtration_and_components_skip_the_per_stage_and_per_part_checks(monkeypatch):
    """Validation runs no subcoalgebra test, no stage sandwich and no intersection, and moves each block once."""
    from purecoalg import coalgebra, structure

    cases = [(c, list(coradical_filtration(c).stages)) for _, corpus in CORPORA for c in corpus[:4]]

    def refuse(*args, **kwargs):
        raise AssertionError("called during validation")

    moved = []
    real_sandwich = coalgebra.sandwich
    monkeypatch.setattr(structure, "sandwich", refuse)
    monkeypatch.setattr(structure, "is_subcoalgebra", refuse)
    monkeypatch.setattr(Lattice, "intersect", refuse)
    monkeypatch.setattr(coalgebra, "sandwich", lambda *args: moved.append(1) or real_sandwich(*args))
    for c, stages in cases:
        moved.clear()
        assert Filtration(c, stages).stages == tuple(stages)
        assert len(moved) <= c.rank
        moved.clear()
        components(c)
        assert len(moved) <= c.rank


def test_filtration_of_a_twisted_rank_40_tensor():
    # dual(Z[x]/x^5) (x) dual(Z[x]/x^8) in a seeded unimodular basis: the
    # graded ranks are the convolution of 1^5 and 1^8
    from purecoalg import tensor
    from purecoalg.corpus import random_unimodular

    product = tensor(dual_of_algebra(truncated_polynomial_algebra(ZZ, 5)),
                     dual_of_algebra(truncated_polynomial_algebra(ZZ, 8)))
    c = conjugate(product, random_unimodular(random.Random(131), ZZ, 40))
    filt = coradical_filtration(c)
    assert filt.stage_ranks == (1, 3, 6, 10, 15, 20, 25, 30, 34, 37, 39, 40)
    stages = list(filt.stages)
    # stage 2 left out: Delta of stage 3 needs V_1 (x) V_1, which stage 2 no longer bounds
    skipped = stages[:2] + stages[3:]
    assert oracles.block_incompatible_stage(skipped, c) == 2
    with pytest.raises(ValidationError, match="Delta is not compatible with filtration stage 2$"):
        Filtration(c, skipped)


def dual_zxk(k):
    return dual_of_algebra(truncated_polynomial_algebra(ZZ, k))


def test_compatibility_and_subcoalgebra_rejections_fire():
    c = dual_zxk(3)
    v0 = Lattice.from_rows(ZZ, 3, [[1, 0, 0]])
    # Delta(e2) has the term e1 (x) e1, outside V_1 (x) V_0 + V_0 (x) V_1
    with pytest.raises(ValidationError, match="Delta is not compatible with filtration stage 1"):
        Filtration(c, [v0, Lattice.full(ZZ, 3)])
    assert oracles.kron_incompatible_stage([v0, Lattice.full(ZZ, 3)], c) == 1
    # span(e0, e2) is pure but Delta(e2) needs e1 (x) e1
    skip = Lattice.from_rows(ZZ, 3, [[1, 0, 0], [0, 0, 1]])
    with pytest.raises(NotSubcoalgebra, match="filtration stage 1 is not a subcoalgebra"):
        Filtration(c, [v0, skip])
    with pytest.raises(NotSubcoalgebra, match="filtration stage 0 is not a subcoalgebra"):
        Filtration(c, [skip, Lattice.full(ZZ, 3)])
    assert Filtration(c, [v0, Lattice.from_rows(ZZ, 3, [[1, 0, 0], [0, 1, 0]]), Lattice.full(ZZ, 3)])


def _algebra_families():
    """(family, [(coalgebra, p)]): corpus coalgebras over Z, F_7, Q, Z[1/2,1/3] and F_2 / F_3, p None off F_p.

    Over Z[1/2,1/3] the coalgebras are conjugated by diag(1, ..., 1/6), so
    the dual's constants are Fractions and its blocks need a denominator.
    """
    ZS = localized_integers([2, 3])

    def sixth(n):
        return Matrix(ZS, [[Fraction(1, 6 if i == n - 1 else 1) * (i == j) for j in range(n)] for i in range(n)], n)

    over_z = [e.coalgebra for e in generate_coalgebras(109, 6, max_rank=5)]
    over_zs = [conjugate(e.coalgebra, sixth(e.coalgebra.rank))
               for e in generate_coalgebras(113, 8, max_rank=5, ring=ZS)]
    small = [(e.coalgebra, p) for p in (2, 3) for e in generate_coalgebras(127, 4, max_rank=5, ring=prime_field(p))]
    return [("Z", [(c, None) for c in over_z]),
            ("F_7", [(e.coalgebra, 7) for e in generate_coalgebras(109, 6, max_rank=5, ring=prime_field(7))]),
            ("Q", [(_over_q(c), None) for c in over_z]),
            ("Z[1/2,1/3]", [(c, None) for c in over_zs]),
            ("F_2/F_3", small)]


def test_algebra_validate_matches_per_triple_oracle():
    rng = random.Random(107)
    for family, coalgebras in _algebra_families():
        cases = []
        for c, p in coalgebras:
            a = dual_algebra(c)
            cases.append((a, p))
            n = a.rank
            for _ in range(3):
                # perturb one structure constant, or the unit, by a nonzero element, and compare first failures
                rows = [list(row) for row in a.mult.rows]
                unit = list(a.unit)
                shift = a.ring.normalize(rng.choice([-1, 1, 2])) or a.ring.one
                if rng.random() < 0.25:
                    unit[rng.randrange(n)] += shift
                else:
                    rows[rng.randrange(n * n)][rng.randrange(n)] += shift
                cases.append((type(a)(a.ring, n, Matrix(a.ring, rows, n), unit), p))
        if family == "Z[1/2,1/3]":
            assert sum(dual_of_algebra(a).denom != 1 for a, _ in cases[::4]) >= 3
        failed = set()
        for a, p in cases:
            report = a.validate()
            got = tuple(check.location if not check.passed else "" for check in report.checks)
            want = oracles.algebra_axiom_locations(a.mult.rows, a.unit, a.rank, p)
            assert [check.name for check in report.checks] == ["commutativity", "associativity", "unit law"]
            assert got == want, family
            failed |= {check.name for check in report.checks if not check.passed}
        assert failed == {"commutativity", "associativity", "unit law"}, family


def test_an_algebra_and_its_dual_agree_on_validity():
    """The algebra laws are three of the dual's four, and cocommutativity makes the two counit laws one."""
    rng = random.Random(139)
    for family, coalgebras in _algebra_families():
        seen = set()
        for c, _ in coalgebras:
            a = dual_algebra(c)
            n = a.rank
            cases = [a]
            for _ in range(4):
                # move one unit entry, one structure constant, or a symmetric pair that keeps commutativity
                rows = [list(row) for row in a.mult.rows]
                unit = list(a.unit)
                shift = a.ring.normalize(rng.choice([-1, 1, 2])) or a.ring.one
                kind, i, j, t = rng.randrange(3), rng.randrange(n), rng.randrange(n), rng.randrange(n)
                if kind == 0:
                    unit[t] += shift
                else:
                    rows[i * n + j][t] += shift
                    if kind == 2 and i != j:
                        rows[j * n + i][t] += shift
                cases.append(type(a)(a.ring, n, Matrix(a.ring, rows, n), unit))
            for b in cases:
                valid = b.validate().overall
                assert valid == b.dual.validate().overall, family
                seen.add(valid)
        assert seen == {True, False}, family


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_name_resolves():
    """The benchmark's per-layer trace wraps these names with getattr; each must exist."""
    tracer = _load_tracer()
    for module_name, names in tracer.LAYERS.items():
        module = importlib.import_module(f"purecoalg.{module_name}")
        for name in names:
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            assert callable(getattr(owner, attr)), f"{module_name}.{name}"


def test_orientation_on_a_non_cocommutative_comultiplication():
    """Delta(e2) = e0 (x) e2 + e2 (x) e1: the left and right factors are not interchangeable."""
    delta = [[0] * 9 for _ in range(3)]
    delta[0][0] = delta[1][4] = 1
    delta[2][0 * 3 + 2] = delta[2][2 * 3 + 1] = 1
    c = Coalgebra(ZZ, 3, Matrix(ZZ, delta, 9), [1, 1, 0])
    d = Lattice.from_rows(ZZ, 3, [[1, 0, 0]])
    f = Lattice.from_rows(ZZ, 3, [[0, 1, 0]])
    assert wedge(d, f, c) == oracles.kron_wedge(d, f, c) == Lattice.full(ZZ, 3)
    assert wedge(f, d, c) == oracles.kron_wedge(f, d, c) == d.add(f)
    # Delta(e2) lies in C (x) span(e1, e2) but not in span(e1, e2) (x) C
    right_only = Lattice.from_rows(ZZ, 3, [[0, 1, 0], [0, 0, 1]])
    assert not is_subcoalgebra(right_only, c) and not oracles.kron_is_subcoalgebra(right_only, c)
    left_only = Lattice.from_rows(ZZ, 3, [[1, 0, 0], [0, 0, 1]])
    assert not is_subcoalgebra(left_only, c) and not oracles.kron_is_subcoalgebra(left_only, c)
