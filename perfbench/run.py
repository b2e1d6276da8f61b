"""purecoalg benchmark: seeded workloads, checked answers, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload structure-z --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

One process runs one workload as a closed loop on one thread: each item
starts after the previous one has finished, cycling through the items of
one pass until ``--seconds`` have passed.  Every item is checked against
independent truth (see workloads.py); a wrong answer or an exception
counts as a failed item.  Between items, and between set-ups, calls of a
fixed reference computation measure the host's speed, and every time the
run reports is scaled to one host speed (see reference.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
prefix of the pass three times: to warm up, plain, and with every listed
package function wrapped by tracer.py; it reports the per-layer metrics; the
spans are written to ``.perfbench_out/``.  Human-readable lines go first
and the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ["structure-z", "rings-mixed", "maps-tensor", "cli-data"]
# deliberately not the acceptance suite's seed (20240809)
DEFAULT_SEED = 4242
DEFAULT_SECONDS = 25
# set-up runs at least this many times and for at least this long; setup_s is the median
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 0.5
# items of one pass that a traced run covers, sized to keep it within --seconds
TRACE_ITEMS = {"structure-z": 8, "rings-mixed": 30, "maps-tensor": 40, "cli-data": 1500}
# share of the timed phase's item time given to the host-speed reference
REF_SHARE = 0.1
RING_SLICES = ["Q", "ZS", "Fp_small", "Fp_large"]


def import_package():
    """Import purecoalg from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "purecoalg" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'purecoalg'} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import purecoalg

    if Path(purecoalg.__file__).resolve().parent != (src / "purecoalg").resolve():
        raise SystemExit(f"error: imported purecoalg from {purecoalg.__file__}, not from {src}")


def provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; unknown outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def attempt(item) -> str | None:
    """Run one item; return None on success or a one-line failure description."""
    try:
        item.run()
    except Exception as exc:  # every failure is counted, none is filtered
        return f"{item.name}: {type(exc).__name__}: {exc}"
    return None


def run_items(items, *, seconds=None, count=None, host_speed=False):
    """Closed loop over the pass, until ``seconds`` have passed and ``count`` items have run.

    With ``host_speed``, reference calls follow the items until they have
    taken REF_SHARE of the item time so far; their midpoints and times are
    returned with the items' own.
    """
    times, mids, slices, failures = [], [], [], []
    ref_mids, ref_times = [], []
    item_total = ref_total = 0.0
    start = time.perf_counter()
    deadline = start + (seconds or 0)
    i = 0
    while True:
        item = items[i % len(items)]
        i += 1
        t0 = time.perf_counter()
        failure = attempt(item)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        mids.append((t0 + t1) / 2)
        slices.append(item.slice)
        if failure is not None:
            failures.append(failure)
        item_total += t1 - t0
        while host_speed and ref_total < REF_SHARE * item_total:
            r0 = time.perf_counter()
            reference.call()
            r1 = time.perf_counter()
            ref_mids.append((r0 + r1) / 2)
            ref_times.append(r1 - r0)
            ref_total += r1 - r0
        now = time.perf_counter()
        if now >= deadline and i >= (count or 0):
            return {"times": times, "mids": mids, "slices": slices, "failures": failures, "wall": now - start,
                    "ref_mids": ref_mids, "ref_times": ref_times}


def tail(times):
    """Highest whole percentile with at least ten items beyond it (nearest rank)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1], n, 0
    pct = (100 * (n - 10)) // n
    index = max(0, -(-pct * n // 100) - 1)
    return pct, ordered[index], n, n - 1 - index


def report_line(name, value, unit, note=""):
    print(f"  {name:<40} {value:>14.6g} {unit}{('  ' + note) if note else ''}")


def end_to_end(items, seconds):
    run = run_items(items, seconds=seconds, host_speed=True)
    raw = run["times"]
    times = reference.normalize(run)
    attempted, failed = len(times), len(run["failures"])
    pct, tail_s, samples, beyond = tail(times)
    metrics = {
        "items_per_s": (attempted / sum(times), "1/s"),
        "item_p50_ms": (statistics.median(times) * 1000, "ms"),
        "item_tail_ms": (tail_s * 1000, "ms"),
    }
    notes = {"item_tail_ms": f"p{pct} of {samples} items, {beyond} beyond it"}
    raw_tail = tail(raw)[1]
    host = statistics.median(run["ref_times"]) / reference.NOMINAL_S
    notes["items_per_s"] = (f"host-normalized; as measured {attempted / sum(raw):.6g}/s, reference calls "
                            f"at {host:.3f}x their nominal time")
    notes["item_p50_ms"] = f"host-normalized; as measured {statistics.median(raw) * 1000:.6g} ms"
    notes["item_tail_ms"] += f"; as measured {raw_tail * 1000:.6g} ms"
    return metrics, notes, attempted, failed, run["failures"]


def per_layer(items, name, seed):
    from tracer import Tracer

    prefix = items[:TRACE_ITEMS[name]]
    warm = run_items(prefix, count=len(prefix))  # first-call and first-write costs land here
    plain = run_items(prefix, count=len(prefix))
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_items(prefix, count=len(prefix))
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{name}-{seed}.json.gz")

    metrics = {}
    for key, value in tracer.counters().items():
        metrics[key] = (value, "ratio" if key.endswith("calls_per_coalgebra") else
                        "bits" if key.endswith("max_bits") else "count")
    for key, value in tracer.self_times().items():
        metrics[key] = (value, "s")
    metrics["verify_share"] = (tracer.verify_self_s() / traced["wall"], "ratio")
    for s in RING_SLICES:
        ts = [t for t, sl in zip(plain["times"], plain["slices"]) if sl == s]
        metrics[f"rings.{s}.item_s"] = (statistics.median(ts) if ts else 0.0, "s")
    metrics["trace.overhead_s"] = (traced["wall"] - plain["wall"], "s")
    failures = warm["failures"] + plain["failures"] + traced["failures"]
    notes = {"trace.overhead_s": f"traced {traced['wall']:.3f} s vs plain {plain['wall']:.3f} s"
                                 f" over the same {len(prefix)} items"}
    return metrics, notes, 3 * len(prefix), len(failures), failures


def run_workload(name, seed, seconds, trace) -> int:
    import workloads

    scratch = OUT_DIR / f"scratch-{os.getpid()}"
    items = []

    def build():
        shutil.rmtree(scratch, ignore_errors=True)
        items[:] = workloads.WORKLOADS[name](seed, scratch)

    try:
        setup = run_items([workloads.Item("set-up", build)], seconds=SETUP_MIN_SECONDS, count=SETUP_REPEATS,
                          host_speed=True)
        if setup["failures"]:
            raise SystemExit(f"error: set-up failed: {setup['failures'][0]}")
        if trace:
            metrics, notes, attempted, failed, failures = per_layer(items, name, seed)
        else:
            metrics, notes, attempted, failed, failures = end_to_end(items, seconds)
            metrics["setup_s"] = (statistics.median(reference.normalize(setup)), "s")
            notes["setup_s"] = (f"host-normalized median of {len(setup['times'])} set-ups; as measured "
                                f"{statistics.median(setup['times']):.6g} s")
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (peak_kib / 1024, "MB")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {name} ({'traced' if trace else 'untraced'}), {len(items)} items per pass")
    print("provenance " + json.dumps(provenance(seed), sort_keys=True))
    for key, (value, unit) in metrics.items():
        report_line(key, value, unit, notes.get(key, ""))
    report_line("fail_ratio", failed / attempted, "ratio", f"{failed} of {attempted} items failed")
    for failure in failures[:20]:
        print(f"  FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_package()
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
