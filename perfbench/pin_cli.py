"""Record the pinned CLI outputs that the cli-data workload checks against.

Run from the repository root at the commit whose output is the reference:

    python3 perfbench/pin_cli.py

It runs every command below in process through ``purecoalg.cli.run_command``
and writes ``perfbench/cli_pins.json``: for each command its argv, its exit
code and the SHA-256 of its stdout, with the scratch directory written as
``{tmp}`` and the data directory as ``{data}``.  The generated part is
pinned for a fixed pool of corpus seeds; a benchmark run picks from that
pool with its own seed.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the package path above)

COALGEBRAS = ["setlike2", "sqrt2-dual", "zx2-dual", "zx3-dual"]
ALGEBRAS = ["sqrt2-algebra", "zxz-algebra"]
SSETS = ["point", "interval", "circle", "two-points", "rp2"]
COALG_VERBS = ["check", "grouplikes", "pointed", "coradical", "filtration", "primitives",
               "components", "split", "dual"]
POOL_SEEDS = list(range(7001, 7033))
GENERATED_COUNT = 10
GENERATED_MAX_RANK = 6


def data_commands():
    """Every README command over data/, rejected inputs included."""
    d = "{data}"
    cmds = []
    for f in COALGEBRAS:
        for verb in COALG_VERBS:
            cmds.append(("coalg", [verb, f"{d}/{f}.json"]))
        cmds.append(("coalg", ["tensor", f"{d}/{f}.json", f"{d}/{f}.json"]))
        cmds.append(("binomial", ["check", f"{d}/{f}.json", "--primes", "2,3,5,7,11,13"]))
    cmds += [
        ("coalg", ["wedge", f"{d}/zx3-dual.json", "--sub", "{tmp}/zx3-coradical.json",
                   "--sub", "{tmp}/zx3-coradical.json"]),
        ("coalg", ["wedge", f"{d}/zx3-dual.json", "--sub", "{tmp}/zx3-stage1.json",
                   "--sub", "{tmp}/zx3-coradical.json", "-o", "{tmp}/zx3-wedge.json"]),
        ("coalg", ["wedge", f"{d}/setlike2.json", "--sub", "{tmp}/setlike2-first.json",
                   "--sub", "{tmp}/setlike2-first.json"]),
        ("coalg", ["purify", f"{d}/zx3-dual.json", "--sub", "{tmp}/zx3-impure.json"]),
        ("coalg", ["tensor", f"{d}/zx2-dual.json", f"{d}/zx2-dual.json", "-o", "{tmp}/zx2-squared.json"]),
        ("coalg", ["check", "{tmp}/zx2-squared.json"]),
        ("coalg", ["dual", f"{d}/zx2-dual.json", "-o", "{tmp}/zx2-algebra.json"]),
        ("coalg", ["check", "{tmp}/zx2-algebra.json"]),
    ]
    for f in ALGEBRAS:
        cmds.append(("coalg", ["check", f"{d}/{f}.json"]))
        cmds.append(("coalg", ["dual", f"{d}/{f}.json"]))
        cmds.append(("binomial", ["check", f"{d}/{f}.json", "--primes", "2,3,5,7,11,13"]))
    cmds.append(("binomial", ["check", f"{d}/zxz-algebra.json"]))
    for f in SSETS:
        cmds.append(("sset", ["validate", f"{d}/{f}.json"]))
        for ring in ("Z", "Q", "F7", "Z[2,3]"):
            cmds.append(("sset", ["chains", f"{d}/{f}.json", "--ring", ring]))
        cmds.append(("sset", ["homology", f"{d}/{f}.json", "-N", "1"]))
    cmds += [
        ("sset", ["chains", f"{d}/circle.json", "--ring", "Z", "-o", "{tmp}/circle-chains.json"]),
        ("sset", ["homology", f"{d}/rp2.json", "-N", "2"]),
        ("smap", ["check", f"{d}/interval-collapse.json", "--we", "-N", "1"]),
        ("smap", ["check", f"{d}/interval-collapse.json", "--cof"]),
    ]
    out = [{"prog": prog, "argv": argv} for prog, argv in cmds]
    # the README's environment override of the prime list
    out.append({"prog": "binomial", "argv": ["check", f"{d}/sqrt2-algebra.json"],
                "env": {"COALG_PRIMES": "2,3"}})
    return out


def generated_commands(pool_seed: int, tmp: Path):
    """corpus generate, then tensor/dual -o on mid-rank files, read back with check."""
    out_dir = f"{{tmp}}/gen-{pool_seed}"
    first = {"prog": "corpus", "argv": ["generate", "--seed", str(pool_seed), "--count",
                                        str(GENERATED_COUNT), "--max-rank", str(GENERATED_MAX_RANK),
                                        "--out", out_dir]}
    workloads.run_pinned(first, tmp)
    manifest_path = tmp / f"gen-{pool_seed}" / f"manifest-{pool_seed}.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    small = [m["file"] for m in manifest if 2 <= m["rank"] <= 3]
    mid = [m["file"] for m in manifest if 4 <= m["rank"] <= 6]
    cmds = [first]
    if len(small) >= 2:
        product = f"{out_dir}/tensor.json"
        cmds += [
            {"prog": "coalg", "argv": ["tensor", f"{out_dir}/{small[0]}", f"{out_dir}/{small[1]}",
                                       "-o", product]},
            {"prog": "coalg", "argv": ["check", product]},
            {"prog": "coalg", "argv": ["grouplikes", product]},
        ]
    for name in mid[:2]:
        dual = f"{out_dir}/dual-{name}"
        cmds += [
            {"prog": "coalg", "argv": ["dual", f"{out_dir}/{name}", "-o", dual]},
            {"prog": "coalg", "argv": ["check", dual]},
            {"prog": "binomial", "argv": ["check", dual, "--primes", "2,3,5"]},
        ]
    return cmds


def pin(cmds, tmp: Path):
    """Pin every command's exit code and stdout, rejections (exit 2) included."""
    pinned = []
    for cmd in cmds:
        code, text = workloads.run_pinned(cmd, tmp)
        pinned.append(dict(cmd, exit=code, sha256=hashlib.sha256(text.encode("utf-8")).hexdigest()))
    return pinned


def main() -> int:
    tmp = ROOT / ".perfbench_out" / "pin"
    shutil.rmtree(tmp, ignore_errors=True)
    workloads.write_sub_lattices(tmp)
    try:
        pins = {
            "data": pin(data_commands(), tmp),
            "generated": {str(s): pin(generated_commands(s, tmp), tmp) for s in POOL_SEEDS},
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(workloads.PINS_FILE, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pins['data'])} data commands and"
          f" {sum(len(v) for v in pins['generated'].values())} generated commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
