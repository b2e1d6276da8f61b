"""The benchmark workloads.

``WORKLOADS[name](seed, scratch)`` makes one workload's inputs from the
seed and returns its items in pass order.  An item calls the public purecoalg
API and checks what comes back against truth that does not come from the
code under test: the recipe invariants ``purecoalg.corpus`` records while
it builds a coalgebra, identities the answer must satisfy, and CLI output
pinned at the seed commit (``cli_pins.json``).  A wrong answer raises
``Mismatch``; the caller counts it, together with any other exception, as
a failed item and never drops it.

All lookups of package functions happen when an item runs, through the
module objects, so the tracer's rebinding is seen.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import purecoalg as pc
from purecoalg import cli, corpus

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR.parent / "data"
PINS_FILE = BENCH_DIR / "cli_pins.json"

BINOMIAL_PRIMES = (2, 3, 5, 7, 11, 13)
# rings-mixed: one prime below the exhaustive F_p root scan bound of the
# seed commit (4096) and one far above it.
FP_SMALL = 101
FP_LARGE = 1000003


class Mismatch(AssertionError):
    """An item's result disagrees with its independent truth."""


@dataclass
class Item:
    name: str
    run: Callable[[], None]
    slice: str = ""


def expect(got, want, what: str):
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def sub_seed(seed: int, k: int) -> int:
    """Independent stream k of a workload seed."""
    return random.Random(seed * 1_000_003 + k).getrandbits(48)


# structure-z, rings-mixed and the maps of maps-tensor draw their items with
# the workload seed from corpora that are the same for every seed, so that
# set-up does the same work whatever the seed.  The generator's cost per
# entry is heavy-tailed: corpora of a fixed size drawn from the seed took
# from 0.37 to 0.56 s of CPU (structure-z) and from 1.0 to 1.4 s (maps)
# across five seeds.
POOL_SEED = 1


def sample(seed: int, k: int, found: list, size: int) -> list:
    """``size`` of the ``found`` entries, drawn with stream k of the seed, in draw order."""
    return random.Random(sub_seed(seed, k)).sample(found, size)


# --- truth from recipes -----------------------------------------------------


def graded(ranks):
    return [ranks[0]] + [b - a for a, b in zip(ranks, ranks[1:])]


def cumulative(parts):
    out, total = [], 0
    for g in parts:
        total += g
        out.append(total)
    return tuple(out)


def tensor_stage_ranks(ranks_a, ranks_b):
    """Stage ranks of the tensor filtration: the graded ranks convolve."""
    ga, gb = graded(ranks_a), graded(ranks_b)
    conv = [0] * (len(ga) + len(gb) - 1)
    for i, x in enumerate(ga):
        for j, y in enumerate(gb):
            conv[i + j] += x * y
    return cumulative(conv)


def sum_stage_ranks(ranks_a, ranks_b):
    """Stage ranks of a direct sum: the graded ranks add."""
    ga, gb = graded(ranks_a), graded(ranks_b)
    n = max(len(ga), len(gb))
    return cumulative([(ga[i] if i < len(ga) else 0) + (gb[i] if i < len(gb) else 0) for i in range(n)])


def padded(ranks, length):
    return tuple(ranks) + (ranks[-1],) * (length - len(ranks))


def check_retraction(matrix, ring, grouplikes: int):
    """The coradical retraction is idempotent with trace the group-like count.

    Checked with plain integer and Fraction arithmetic, not with the
    package's matrix code.  For an idempotent over a field, trace is rank.
    """
    rows = matrix.rows
    n = len(rows)
    p = ring.p if ring.kind == "Fp" else None
    square = [[sum(rows[i][k] * rows[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    if p is not None:
        square = [[v % p for v in row] for row in square]
    if square != [list(r) for r in rows]:
        raise Mismatch("coradical retraction is not idempotent")
    trace = sum(rows[i][i] for i in range(n))
    expect(trace % p if p is not None else trace, grouplikes, "retraction trace")


def check_entry(entry, filt=None, comp=None, split=None):
    if filt is not None:
        expect(tuple(filt.stage_ranks), tuple(entry.coradical_ranks), "coradical stage ranks")
    if comp is not None:
        expect(len(comp.parts), entry.grouplike_count, "component count")
        expect(tuple(sorted(lat.rank for _, lat in comp.parts)), tuple(entry.component_ranks),
               "component ranks")
    if split is not None:
        check_retraction(split.matrix, entry.coalgebra.ring, entry.grouplike_count)


# --- structure-z ------------------------------------------------------------

# Only rank 12, the top of the acceptance corpus and half of its pipeline
# time: one rank gives one unimodal item-time distribution, so a median over
# the ~30 items of a run moves little from seed to seed.
STRUCTURE_Z_RANK = 12
STRUCTURE_Z_ITEMS = 48
# 84 of its entries have rank 12
STRUCTURE_Z_CORPUS = 400


def structure_item(entry):
    def run():
        c = entry.coalgebra
        pointed, _ = pc.is_pointed(c)
        expect(pointed, True, "pointed")
        gl = pc.group_likes(c)
        expect(len(gl.vectors), entry.grouplike_count, "group-like count")
        expect(gl.pure, True, "group-like span pure")
        check_entry(entry, pc.coradical_filtration(c), pc.components(c), pc.split_coradical(c))
        report = pc.binomial_check(pc.dual_algebra(c), BINOMIAL_PRIMES)
        expect(tuple(r.p for r in report.results), BINOMIAL_PRIMES, "tested primes")
        for r in report.results:
            # residue fields of the dual of a pointed coalgebra are all F_p
            expect(r.residue_fields_prime, True, f"binomial condition two at p={r.p}")

    return Item(entry.recipe, run)


def structure_z(seed: int, scratch: Path) -> list[Item]:
    pool = corpus.generate_coalgebras(sub_seed(POOL_SEED, 0), STRUCTURE_Z_CORPUS, max_rank=STRUCTURE_Z_RANK,
                                      twist=True)
    found = [e for e in pool if e.coalgebra.rank == STRUCTURE_Z_RANK]
    return [structure_item(e) for e in sample(seed, 0, found, STRUCTURE_Z_ITEMS)]


# --- rings-mixed ------------------------------------------------------------

RINGS_RANK = 6
RINGS_ROUNDS = 24
# one round of items; Q and Z[1/{2,3}] carry the bulk, each F_p slice is a sixth
RINGS_ROUND = ("Q", "ZS", "Fp_large", "Q", "ZS", "Fp_small")
# sixths of each slice by coradical filtration length 1, 2, 3 and 4 or more,
# close to the generator's own mix; the F_p cost depends on that length
RINGS_LENGTH_SIXTHS = (1, 3, 1, 1)
# entries generated per ring; each corpus holds more rank-6 entries of each
# length than a pass needs, with the least room at length 4 or more over
# Z[1/{2,3}]: 10 found, 8 needed
RINGS_CORPUS = {"Q": 320, "ZS": 320, "Fp_small": 240, "Fp_large": 240}


def _rings():
    return {
        "Q": pc.QQ,
        "ZS": pc.localized_integers([2, 3]),
        "Fp_small": pc.prime_field(FP_SMALL),
        "Fp_large": pc.prime_field(FP_LARGE),
    }


def rings_item(entry, slice_name):
    def run():
        c = entry.coalgebra
        check_entry(entry, pc.coradical_filtration(c), pc.components(c), pc.split_coradical(c))

    return Item(f"{slice_name}:{entry.recipe}", run, slice_name)


def rings_mixed(seed: int, scratch: Path) -> list[Item]:
    pools = {}
    for r, (slice_name, ring) in enumerate(_rings().items()):
        need = RINGS_ROUND.count(slice_name) * RINGS_ROUNDS
        # one recipe family, drawn independently for each ring
        pool = corpus.generate_coalgebras(sub_seed(POOL_SEED, 1000 * r), RINGS_CORPUS[slice_name],
                                          max_rank=RINGS_RANK, ring=ring)
        found = [[] for _ in RINGS_LENGTH_SIXTHS]
        for e in pool:
            if e.coalgebra.rank == RINGS_RANK:
                found[min(len(e.coradical_ranks), len(found)) - 1].append(e)
        buckets = [sample(seed, 10 * r + i, f, need * sixths // 6)
                   for i, (f, sixths) in enumerate(zip(found, RINGS_LENGTH_SIXTHS))]
        # spread each bucket evenly through the slice, so any prefix has the mix
        spread = sorted(((j + 0.5) / len(b), i, e) for i, b in enumerate(buckets) for j, e in enumerate(b))
        pools[slice_name] = iter(e for _, _, e in spread)
    return [rings_item(next(pools[s]), s) for _ in range(RINGS_ROUNDS) for s in RINGS_ROUND]


# --- maps-tensor ------------------------------------------------------------

MAPS_COUNT = 100
MAPS_MAX_RANK = 8
MAP_KINDS = ("identity", "basis change", "counit collapse", "sum fold", "sum inclusion")
# 20 maps of each kind whose larger side has rank 8 to 10, drawn from the
# 26 to 60 such maps of each kind in 8 generate_maps corpora.  A map's cost
# follows its kind and rank, and one corpus draws its maps from only 25
# coalgebras, so fixing the mix keeps one seed's pass comparable with
# another's.
MAPS_PER_KIND = MAPS_COUNT // len(MAP_KINDS)
MAPS_SIZE = range(8, 11)
MAPS_CORPORA = 8
PAIRS_COUNT = 25


def map_truth(record, entries):
    """Stage ranks of the domain filtration and of its pushforward."""
    f = record.map
    if record.kind == "sum fold":
        # domain = other (+) c, mapped onto c = the codomain
        c = entries[f.codomain]
        for other in entries.values():
            if pc.direct_sum(other.coalgebra, c.coalgebra) == f.domain:
                domain = sum_stage_ranks(other.coradical_ranks, c.coradical_ranks)
                return domain, padded(c.coradical_ranks, len(domain))
        raise LookupError("fold summand not found among the corpus entries")
    domain = tuple(entries[f.domain].coradical_ranks)
    if record.kind == "counit collapse":
        return domain, (1,) * len(domain)
    return domain, domain


def map_item(record, domain_ranks, pushed_ranks):
    def run():
        f = record.map
        expect(pc.check_splitting_naturality(f), True, "splitting naturality")
        filt = pc.coradical_filtration(f.domain)
        expect(tuple(filt.stage_ranks), domain_ranks, "domain stage ranks")
        expect(tuple(pc.push_filtration(f, filt).stage_ranks), pushed_ranks, "pushed stage ranks")

    return Item(f"map:{record.kind}", run)


def pair_item(name, a, b, ranks_a, ranks_b, count_a, count_b):
    def run():
        gl_a, gl_b = pc.group_likes(a).vectors, pc.group_likes(b).vectors
        expect((len(gl_a), len(gl_b)), (count_a, count_b), "factor group-like counts")
        got = set(pc.group_likes(pc.tensor(a, b)).vectors)
        want = {tuple(x * y for x in g for y in h) for g in gl_a for h in gl_b}
        expect(len(want), count_a * count_b, "product group-likes distinct")
        expect(got, want, "product group-likes")
        filt = pc.tensor_filtration(pc.coradical_filtration(a), pc.coradical_filtration(b))
        expect(tuple(filt.stage_ranks), tensor_stage_ranks(ranks_a, ranks_b), "tensor stage ranks")

    return Item(name, run)


def _local(k):
    return pc.dual_of_algebra(pc.truncated_polynomial_algebra(pc.ZZ, k))


def _twisted_rank20_item(seed):
    # local5 (x) local4 in a seeded unimodular basis: rank 20, one group-like
    w = corpus.random_unimodular(random.Random(sub_seed(seed, 7)), pc.ZZ, 20)
    c = pc.conjugate(pc.tensor(_local(5), _local(4)), w)
    want = tensor_stage_ranks(tuple(range(1, 6)), tuple(range(1, 5)))

    def run():
        expect(len(pc.group_likes(c).vectors), 1, "group-like count")
        expect(tuple(pc.coradical_filtration(c).stage_ranks), want, "stage ranks")

    return Item("twist(local5 (x) local4)", run)


def _selected_maps(seed: int) -> list[Item]:
    chosen = {kind: [] for kind in MAP_KINDS}
    for k in range(MAPS_CORPORA):
        corpus_seed = sub_seed(POOL_SEED, 10 + k)
        records = corpus.generate_maps(corpus_seed, MAPS_COUNT, max_rank=MAPS_MAX_RANK)
        # generate_maps draws its coalgebras from this corpus; its recipes are the truth
        pool = corpus.generate_coalgebras(corpus_seed + 1, max(8, MAPS_COUNT // 4), max_rank=MAPS_MAX_RANK)
        entries = {e.coalgebra: e for e in pool}
        for r in records:
            if max(r.map.domain.rank, r.map.codomain.rank) in MAPS_SIZE:
                chosen[r.kind].append((r, entries))
    items = {}
    for j, (kind, found) in enumerate(chosen.items()):
        drawn = sample(seed, 20 + j, found, MAPS_PER_KIND)
        items[kind] = [map_item(r, *map_truth(r, entries)) for r, entries in drawn]
    return [items[kind][i] for i in range(MAPS_PER_KIND) for kind in MAP_KINDS]


def maps_tensor(seed: int, scratch: Path) -> list[Item]:
    maps = _selected_maps(seed)
    pairs = [
        pair_item(f"pair:{a.recipe} (x) {b.recipe}", a.coalgebra, b.coalgebra, a.coradical_ranks,
                  b.coradical_ranks, a.grouplike_count, b.grouplike_count)
        for a, b in corpus.generate_tensor_pairs(sub_seed(seed, 3), PAIRS_COUNT, max_product_rank=12)
    ]
    local4 = _local(4)
    rank16 = pair_item("pair:local4 (x) local4", local4, local4, (1, 2, 3, 4), (1, 2, 3, 4), 1, 1)
    # the two large cases sit early in the pass, so the traced prefix includes them
    pairs = [rank16, pairs[0], _twisted_rank20_item(seed)] + pairs[1:]
    # spread the pairs evenly among the maps, so any prefix of a pass has the mix
    items, placed = [], 0
    every = len(maps) / len(pairs)
    for i, item in enumerate(maps):
        items.append(item)
        while placed < len(pairs) and placed < (i + 1) / every:
            items.append(pairs[placed])
            placed += 1
    return items + pairs[placed:]


# --- cli-data ---------------------------------------------------------------


def load_pins() -> dict:
    with open(PINS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _normalize(text: str, tmp: Path) -> str:
    return text.replace(str(tmp), "{tmp}").replace(str(DATA_DIR), "{data}")


def _expand(argv, tmp: Path):
    return [a.replace("{tmp}", str(tmp)).replace("{data}", str(DATA_DIR)) for a in argv]


def run_pinned(cmd: dict, tmp: Path):
    """Run one CLI command in process; return (exit code, normalized stdout)."""
    saved = {k: os.environ.get(k) for k in cmd.get("env", {})}
    os.environ.update(cmd.get("env", {}))
    try:
        code, text = cli.run_command(_expand(cmd["argv"], tmp), cmd["prog"])
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, _normalize(text, tmp)


def cli_item(cmd: dict, tmp: Path) -> Item:
    def run():
        code, text = run_pinned(cmd, tmp)
        expect(code, cmd["exit"], "exit code")
        expect(hashlib.sha256(text.encode("utf-8")).hexdigest(), cmd["sha256"], "stdout sha256")

    return Item(f"{cmd['prog']} {' '.join(cmd['argv'])}", run)


def write_sub_lattices(tmp: Path):
    """Lattice files for the README's wedge and purify commands."""
    tmp.mkdir(parents=True, exist_ok=True)
    files = {
        "zx3-coradical.json": {"ambient_rank": 3, "basis": [["1", "0", "0"]]},
        "zx3-stage1.json": {"ambient_rank": 3, "basis": [["1", "0", "0"], ["0", "1", "0"]]},
        "zx3-impure.json": {"ambient_rank": 3, "basis": [["2", "0", "0"]]},
        "setlike2-first.json": {"ambient_rank": 2, "basis": [["1", "0"]]},
    }
    for name, obj in files.items():
        (tmp / name).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def cli_data(seed: int, scratch: Path) -> list[Item]:
    """Every pinned command: the data/ commands, then one corpus seed's block, in turn.

    The pass holds every pinned corpus seed, in an order drawn from the
    seed, so each run sees the same mix of generated files.
    """
    pins = load_pins()
    tmp = scratch / "cli"
    write_sub_lattices(tmp)
    data = [cli_item(cmd, tmp) for cmd in pins["data"]]
    pool_seeds = sorted(pins["generated"])
    random.Random(seed).shuffle(pool_seeds)
    items = []
    for pool_seed in pool_seeds:
        items += data
        items += [cli_item(cmd, tmp) for cmd in pins["generated"][pool_seed]]
    return items


WORKLOADS = {
    "structure-z": structure_z,
    "rings-mixed": rings_mixed,
    "maps-tensor": maps_tensor,
    "cli-data": cli_data,
}
