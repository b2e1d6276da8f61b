"""Self-checks of the benchmark itself.

Run from the repository root:

    python3 perfbench/selfcheck.py

1. The correctness gate fires: for each kind of item, the item passes with
   its true expectation and fails once that expectation is corrupted.
2. The exact counters repeat: two traced runs of the same seed, each in
   its own process, report identical call counts, elimination cells,
   maximum bit length and group-like calls per coalgebra.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

run.import_package()

import purecoalg as pc  # noqa: E402
import workloads as wl  # noqa: E402
from purecoalg import corpus  # noqa: E402

SEED = 97


def _gate_cases(scratch: Path):
    """(label, good item, item with one corrupted expectation)."""
    entry = next(e for e in corpus.generate_coalgebras(SEED, 30, max_rank=6) if e.coalgebra.rank >= 4)
    yield ("structure: group-like count", wl.structure_item(entry),
           wl.structure_item(dataclasses.replace(entry, grouplike_count=entry.grouplike_count + 1)))
    yield ("structure: coradical ranks", wl.structure_item(entry),
           wl.structure_item(dataclasses.replace(entry, coradical_ranks=entry.coradical_ranks[:-1])))
    q_entry = corpus.generate_coalgebras(SEED, 1, max_rank=4, ring=pc.QQ)[0]
    yield ("rings: component ranks", wl.rings_item(q_entry, "Q"),
           wl.rings_item(dataclasses.replace(q_entry, component_ranks=(99,)), "Q"))

    record = corpus.generate_maps(SEED, 1, max_rank=6)[0]
    pool = corpus.generate_coalgebras(SEED + 1, 8, max_rank=6)
    domain, pushed = wl.map_truth(record, {e.coalgebra: e for e in pool})
    yield ("maps: pushed ranks", wl.map_item(record, domain, pushed),
           wl.map_item(record, domain, pushed + (pushed[-1] + 1,)))

    a, b = corpus.generate_tensor_pairs(SEED, 1, max_product_rank=8)[0]
    args = (a.coalgebra, b.coalgebra, a.coradical_ranks, b.coradical_ranks)
    yield ("pairs: product group-likes", wl.pair_item("pair", *args, a.grouplike_count, b.grouplike_count),
           wl.pair_item("pair", *args, a.grouplike_count + 1, b.grouplike_count))

    pins = wl.load_pins()
    wl.write_sub_lattices(scratch)
    cmd = pins["data"][0]
    yield ("cli: stdout sha256", wl.cli_item(cmd, scratch),
           wl.cli_item(dict(cmd, sha256="0" * 64), scratch))
    yield ("cli: exit code", wl.cli_item(cmd, scratch),
           wl.cli_item(dict(cmd, exit=cmd["exit"] + 1), scratch))


def check_gate() -> bool:
    scratch = run.OUT_DIR / "selfcheck"
    ok = True
    try:
        for label, good, bad in _gate_cases(scratch):
            passed = run.attempt(good) is None
            fired = run.attempt(bad)
            holds = passed and fired is not None
            ok &= holds
            print(f"gate {'ok  ' if holds else 'FAIL'} {label}: true expectation"
                  f" {'passes' if passed else 'FAILS'}; corrupted one -> {fired}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return ok


def traced_counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith(".calls") or k.startswith("matrix.elim.") or k == "grouplike.calls_per_coalgebra"}


def check_counts() -> bool:
    ok = True
    for name in run.WORKLOAD_NAMES:
        first, second = traced_counts(name, SEED), traced_counts(name, SEED)
        differ = sorted(k for k in first if first[k] != second.get(k))
        holds = not differ and first.keys() == second.keys()
        ok &= holds
        print(f"counts {'ok  ' if holds else 'FAIL'} {name}: {len(first)} exact counters,"
              f" {sum(1 for v in first.values() if v)} nonzero, differing: {differ or 'none'}")
    return ok


def main() -> int:
    ok = check_gate()
    ok &= check_counts()
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
