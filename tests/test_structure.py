"""Wedges, coradical filtrations, components, splitting, tensor filtrations."""

import random

import pytest

from purecoalg import (
    Coalgebra,
    CoalgebraMap,
    GroupLikeSet,
    Lattice,
    Matrix,
    NotIrreducible,
    NotPointed,
    NotPure,
    QQ,
    ZZ,
    check_splitting_naturality,
    components,
    components_by_wedge,
    coradical_filtration,
    direct_sum,
    dual_of_algebra,
    group_likes,
    identity_map,
    monogenic_algebra,
    primitives,
    push_filtration,
    set_like,
    split_coradical,
    tensor,
    tensor_filtration,
    truncated_polynomial_algebra,
    validate_map,
    wedge,
)
from purecoalg.corpus import generate_coalgebras, generate_maps
from purecoalg.rings import localized_integers, prime_field

import oracles


def dual_zxk(k, ring=ZZ):
    return dual_of_algebra(truncated_polynomial_algebra(ring, k))


def is_wedge_filtration(filt):
    """Whether V_n <= V_{n-1} ^ V_0 at every stage, with the wedge taken in C (x) C."""
    v, c = filt.stages, filt.coalgebra
    return all(oracles.kron_wedge(v[n - 1], v[0], c).contains_lattice(v[n]) for n in range(1, len(v)))


def line(c, g):
    return Lattice.from_rows(c.ring, c.rank, [list(g)])


def test_wedge_examples():
    c = dual_zxk(3)
    full = Lattice.full(ZZ, 3)
    assert wedge(full, full, c) == full
    one = line(c, [1, 0, 0])
    w = wedge(one, one, c)
    assert w.basis.rows == [[1, 0, 0], [0, 1, 0]]
    zero = Lattice.zero(ZZ, 3)
    assert wedge(zero, zero, c).rank == 0


def test_the_public_wedge_is_checked_to_contain_both_arguments(monkeypatch):
    from purecoalg import structure

    c = dual_zxk(3)
    one = line(c, [1, 0, 0])
    monkeypatch.setattr(structure, "_unchecked_wedge", lambda d, f, c: Lattice.zero(c.ring, c.rank))
    with pytest.raises(AssertionError, match="wedge must contain both arguments"):
        wedge(one, one, c)
    monkeypatch.undo()
    assert wedge(one, one, c).rank == 2


def test_wedge_preconditions():
    c = dual_zxk(2)
    impure = Lattice.from_rows(ZZ, 2, [[2, 0]])
    with pytest.raises(NotPure):
        wedge(impure, Lattice.full(ZZ, 2), c)
    from purecoalg import NotSubcoalgebra

    not_sub = Lattice.from_rows(ZZ, 2, [[0, 1]])
    with pytest.raises(NotSubcoalgebra):
        wedge(not_sub, Lattice.full(ZZ, 2), c)


def test_coradical_filtration_checks_the_coradical_once(monkeypatch):
    # the stages come from uncertified wedges of pure subcoalgebras, the
    # same lattices the checked public wedge gives, and only the
    # Filtration checks that the coradical is a subcoalgebra
    from purecoalg import structure

    calls = []
    original = structure.is_subcoalgebra

    def counted(lat, c):
        calls.append(lat.rank)
        return original(lat, c)

    monkeypatch.setattr(structure, "is_subcoalgebra", counted)
    lengths = set()
    for entry in generate_coalgebras(43, 20, max_rank=8):
        c = entry.coalgebra
        calls.clear()
        filt = coradical_filtration(c)
        assert calls == []
        stages = [filt.stages[0]]
        while len(stages) < filt.length:
            stages.append(wedge(stages[-1], stages[0], c))
        assert tuple(stages) == filt.stages
        lengths.add(filt.length)
    assert max(lengths) >= 3
    # a span that is no subcoalgebra, fed in as the group-likes, is refused by the Filtration's stage-0 test
    c = dual_zxk(3)
    fake = GroupLikeSet(c, ((0, 1, 0),), (1,), True)
    monkeypatch.setattr(structure, "pointed_group_likes", lambda c, need: fake)
    monkeypatch.setattr(structure, "_unchecked_wedge", lambda d, f, c: Lattice.full(c.ring, c.rank))
    with pytest.raises(AssertionError, match="filtration stage 0 is not a subcoalgebra"):
        coradical_filtration(c)
    assert "filtration" not in c._derived


def test_coradical_filtration_examples():
    assert coradical_filtration(set_like(ZZ, ["a", "b", "c"])).stage_ranks == (3,)
    assert coradical_filtration(dual_zxk(3)).stage_ranks == (1, 2, 3)
    assert coradical_filtration(dual_zxk(2)).stage_ranks == (1, 2)
    with pytest.raises(NotPointed):
        coradical_filtration(dual_of_algebra(monogenic_algebra(ZZ, [2, 0])))


def test_filtration_invariants_machine_checked():
    filt = coradical_filtration(dual_zxk(4))
    assert filt.exhaustive
    assert is_wedge_filtration(filt)
    for stage in filt.stages:
        assert stage.is_pure()[0]
    # rank-zero coalgebra: single empty stage, vacuously exhaustive
    triv = coradical_filtration(set_like(ZZ, []))
    assert triv.stage_ranks == (0,) and triv.exhaustive


def test_primitives_examples():
    one = set_like(ZZ, ["a"])
    assert primitives(one, [1]).rank == 0
    c2 = dual_zxk(2)
    assert primitives(c2, [1, 0]).basis.rows == [[0, 1]]
    c3 = dual_zxk(3)
    pr = primitives(c3, [1, 0, 0])
    assert pr.basis.rows == [[0, 1, 0]]  # (x^2)* is not primitive
    with pytest.raises(NotIrreducible):
        primitives(set_like(ZZ, ["a", "b"]), [1, 0])


def test_components_examples():
    ab = set_like(ZZ, ["a", "b"])
    decomposition = components(ab)
    assert [(g, lat.rank) for g, lat in decomposition.parts] == [
        ((0, 1), 1),
        ((1, 0), 1),
    ]
    s = direct_sum(dual_zxk(3), set_like(ZZ, ["a"]))
    ranks = sorted(lat.rank for _, lat in components(s).parts)
    assert ranks == [1, 3]
    t = tensor(dual_zxk(2), dual_zxk(2))
    parts = components(t).parts
    assert len(parts) == 1 and parts[0][1].rank == 4


def test_components_match_wedge_oracle():
    for entry in generate_coalgebras(37, 30, max_rank=9):
        c = entry.coalgebra
        fast = components(c)
        slow = components_by_wedge(c)
        assert fast.parts == slow.parts
        assert tuple(sorted(lat.rank for _, lat in fast.parts)) == entry.component_ranks


def test_split_coradical_examples():
    s = set_like(ZZ, ["a", "b"])
    assert split_coradical(s).matrix == Matrix.identity(ZZ, 2)
    c2 = dual_zxk(2)
    assert split_coradical(c2).matrix.rows == [[1, 0], [0, 0]]
    s = direct_sum(dual_zxk(3), set_like(ZZ, ["a"]))
    r = split_coradical(s)
    assert r.matrix.rows == [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]
    assert r.matrix * r.matrix == r.matrix


def test_splitting_naturality():
    assert check_splitting_naturality(identity_map(dual_zxk(3)))
    c = dual_zxk(3)
    pt = set_like(ZZ, ["pt"])
    collapse = CoalgebraMap(c, pt, Matrix(ZZ, [[e] for e in c.counit], 1))
    assert check_splitting_naturality(collapse)
    # inclusion dual(Z[x]/x^2) -> dual(Z[x]/x^3), dual to the quotient map
    incl = CoalgebraMap(dual_zxk(2), c, Matrix(ZZ, [[1, 0, 0], [0, 1, 0]], 3))
    assert validate_map(incl).overall
    assert check_splitting_naturality(incl)


def test_splitting_naturality_on_corpus_maps():
    for record in generate_maps(43, 40, max_rank=8):
        assert check_splitting_naturality(record.map), record.kind


def test_splitting_naturality_splits_an_endomorphism_once(monkeypatch):
    from purecoalg import structure

    real = structure.split_coradical
    calls = []
    monkeypatch.setattr(structure, "split_coradical", lambda c: calls.append(c) or real(c))
    kinds = set()
    for record in generate_maps(43, 40, max_rank=8):
        calls.clear()
        assert check_splitting_naturality(record.map), record.kind
        endo = record.map.codomain == record.map.domain
        assert len(calls) == (1 if endo else 2), record.kind
        kinds.add((record.kind, endo))
    assert ("identity", True) in kinds and any(not endo for _, endo in kinds)


def test_tensor_filtration_examples():
    c2 = dual_zxk(2)
    filt = coradical_filtration(c2)
    tf = tensor_filtration(filt, filt)
    assert tf.stage_ranks == (1, 3, 4)
    assert tf.graded_ranks() == (1, 2, 1)
    assert tf.exhaustive

    trivial = coradical_filtration(set_like(ZZ, ["a", "b"]))
    tt = tensor_filtration(trivial, trivial)
    assert tt.stage_ranks == (4,)

    other = coradical_filtration(dual_zxk(3))
    mixed = tensor_filtration(other, trivial)
    assert mixed.stage_ranks == tuple(2 * r for r in other.stage_ranks)


def test_tensor_filtration_asserts_the_graded_ranks(monkeypatch):
    # a tensor stage that lost one kron row is still a pure subcoalgebra, so only the graded ranks refuse it
    points = coradical_filtration(set_like(ZZ, ["a", "b"]))
    kron = Matrix.kron
    monkeypatch.setattr(Matrix, "kron", lambda a, b: Matrix(a.ring, kron(a, b).rows[:-1], a.ncols * b.ncols))
    with pytest.raises(AssertionError, match="tensor filtration graded rank mismatch at stage 0"):
        tensor_filtration(points, points)
    monkeypatch.undo()
    assert tensor_filtration(points, points).stage_ranks == (4,)


def _enlarged(lat):
    """lat with the last basis vector of its ambient lattice added."""
    n = lat.ambient_rank
    return Lattice.from_rows(lat.ring, n, lat.basis.rows + [[0] * (n - 1) + [1]])


@pytest.mark.parametrize("entry", ["coradical", "tensor", "push"])
def test_a_computed_filtration_with_an_enlarged_stage_is_an_internal_failure(monkeypatch, entry):
    # each finder's stages are enlarged; the Filtration refuses them, and the entry point raises AssertionError
    from purecoalg import structure

    c = dual_zxk(3)
    filt = coradical_filtration(c)
    call, want = {
        "coradical": (lambda: coradical_filtration(dual_zxk(3)), (1, 2, 3)),
        "tensor": (lambda: tensor_filtration(filt, filt), (1, 3, 6, 8, 9)),
        "push": (lambda: push_filtration(identity_map(c), filt), (1, 2, 3)),
    }[entry]
    if entry == "coradical":
        wedge_of = structure._unchecked_wedge
        monkeypatch.setattr(structure, "_unchecked_wedge", lambda d, f, c: _enlarged(wedge_of(d, f, c)))
    elif entry == "tensor":
        kron = Matrix.kron
        monkeypatch.setattr(Matrix, "kron", lambda a, b: Matrix(
            a.ring, kron(a, b).rows + [[0] * (a.ncols * b.ncols - 1) + [1]], a.ncols * b.ncols))
    else:
        saturate = Lattice.saturate
        monkeypatch.setattr(Lattice, "saturate", lambda lat: _enlarged(saturate(lat)))
    with pytest.raises(AssertionError, match="computed filtration refused: "):
        call()
    monkeypatch.undo()
    assert call().stage_ranks == want


def test_tensor_filtration_stage_zero_is_kron_of_coradicals():
    for entry_a, entry_b in zip(
        generate_coalgebras(47, 5, max_rank=3), generate_coalgebras(53, 5, max_rank=3)
    ):
        fa = coradical_filtration(entry_a.coalgebra)
        fb = coradical_filtration(entry_b.coalgebra)
        tf = tensor_filtration(fa, fb)
        assert tf.stages[0] == fa.stages[0].kron(fb.stages[0])


def test_grouplikes_lie_in_stage_zero():
    for entry in generate_coalgebras(59, 10, max_rank=8):
        filt = coradical_filtration(entry.coalgebra)
        for g in group_likes(entry.coalgebra).vectors:
            assert filt.stages[0].contains(list(g))


def test_push_filtration_examples():
    c3 = dual_zxk(3)
    filt = coradical_filtration(c3)
    pushed = push_filtration(identity_map(c3), filt)
    assert pushed.stages == filt.stages

    pt = set_like(ZZ, ["pt"])
    collapse = CoalgebraMap(c3, pt, Matrix(ZZ, [[e] for e in c3.counit], 1))
    pushed = push_filtration(collapse, filt)
    assert pushed.stage_ranks == (1, 1, 1)

    incl = CoalgebraMap(dual_zxk(2), c3, Matrix(ZZ, [[1, 0, 0], [0, 1, 0]], 3))
    pushed = push_filtration(incl, coradical_filtration(dual_zxk(2)))
    assert pushed.stage_ranks == (1, 2)
    assert not pushed.exhaustive


def test_pushed_image_stage_zero_is_grouplike_span():
    # surjective images of pointed coalgebras have group-like stage zero
    for record in generate_maps(61, 30, max_rank=7):
        f = record.map
        if record.kind not in ("sum fold", "counit collapse", "identity", "basis change"):
            continue
        filt = coradical_filtration(f.domain)
        pushed = push_filtration(f, filt)
        gl = group_likes(f.codomain)
        assert pushed.stages[0].contains_lattice(
            Lattice.from_rows(f.domain.ring, f.codomain.rank, [list(g) for g in gl.vectors]).intersect(
                pushed.stages[0]
            )
        )
        assert pushed.stages[0] == gl.span.intersect(pushed.stages[0])
        assert is_wedge_filtration(pushed)


def test_structure_theory_over_localized_integers():
    from purecoalg import localized_integers

    z2 = localized_integers([2])
    c = dual_zxk(3, z2)
    assert coradical_filtration(c).stage_ranks == (1, 2, 3)
    s = direct_sum(c, set_like(z2, ["a"]))
    assert sorted(lat.rank for _, lat in components(s).parts) == [1, 3]
    assert components(s).parts == components_by_wedge(s).parts
    r = split_coradical(s)
    assert r.matrix * r.matrix == r.matrix


def _integer_data_over(c, ring):
    """The coalgebra with the same integer structure constants, read in another ring."""
    delta = Matrix(ring, [[ring.normalize(v) for v in row] for row in c.delta.rows], c.rank * c.rank)
    return Coalgebra(ring, c.rank, delta, [ring.normalize(v) for v in c.counit])


def test_coradical_matches_rational_computation():
    for entry in generate_coalgebras(67, 12, max_rank=8):
        c = entry.coalgebra
        cq = _integer_data_over(c, QQ)
        assert coradical_filtration(c).stage_ranks == coradical_filtration(cq).stage_ranks


def test_invariants_agree_over_z_q_and_localized_integers():
    # the same integer data over Z, Q and Z[1/2,1/3]: a pointed integral
    # coalgebra has the group-likes, coradical stage ranks and component
    # ranks of its rationalization, and of every localization in between
    # and of its reduction mod a large prime that divides no divisor of the data
    corpus = generate_coalgebras(20240809, 200, max_rank=12)
    zs = localized_integers([2, 3])
    fp = prime_field(1000003)
    for entry in random.Random(2024).sample(corpus, 40):
        invariants = []
        rings = (QQ, zs, fp)
        for c in (entry.coalgebra, *(_integer_data_over(entry.coalgebra, ring) for ring in rings)):
            invariants.append((
                len(group_likes(c)),
                coradical_filtration(c).stage_ranks,
                sorted(lat.rank for _, lat in components(c)),
            ))
        want = (entry.grouplike_count, entry.coradical_ranks, sorted(entry.component_ranks))
        assert invariants == [want] * 4, entry.recipe
