"""Re-time the ROADMAP baseline rows that fall inside a benchmark workload.

Run from the repository root:

    python3 perfbench/roadmap_rows.py > perfbench/baseline/roadmap_rows.txt

Each row is timed once, untraced, on the acceptance suite's corpora
(seed 20240809), which is how the ROADMAP table describes them; the
ROADMAP does not state its seeds, so a row can differ for that reason as
well as for noise.  The corpus200 Q filtration row (82.7 s) is left out
for its length.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import purecoalg as pc  # noqa: E402
from purecoalg import corpus  # noqa: E402

ACCEPTANCE_SEED = 20240809


def timed(fn, items):
    t0 = time.perf_counter()
    for x in items:
        fn(x)
    return time.perf_counter() - t0


def over(ring, c):
    if ring.kind == "Z":
        return c
    conv = (lambda v: Fraction(v)) if ring.kind in ("Q", "ZS") else (lambda v: v % ring.p)
    delta = pc.Matrix(ring, [[conv(v) for v in row] for row in c.delta.rows], c.rank * c.rank)
    return pc.Coalgebra(ring, c.rank, delta, [conv(v) for v in c.counit])


def main() -> int:
    rows = []
    z200 = [e.coalgebra for e in corpus.generate_coalgebras(ACCEPTANCE_SEED, 200, max_rank=12)]
    rows.append(("structure-z", "Z corpus200 is_pointed", "7.9 s", timed(pc.is_pointed, z200)))
    rows.append(("structure-z", "Z corpus200 coradical_lattice", "2.4 s", timed(pc.coradical_lattice, z200)))
    rows.append(("structure-z", "Z corpus200 coradical_filtration", "about 12.5 s",
                 timed(pc.coradical_filtration, z200)))
    z50 = z200[:50]
    rings = {"Z": pc.ZZ, "Z[1/{2,3}]": pc.localized_integers([2, 3]), "Q": pc.QQ,
             "F_1000003": pc.prime_field(1000003)}
    roadmap_filtration = {"Z": "2.9 s", "Z[1/{2,3}]": "22.4 s", "Q": "22.0 s", "F_1000003": "1.85 s"}
    roadmap_split = {"Z": "4.5 s", "Z[1/{2,3}]": "6.9 s", "Q": "6.8 s", "F_1000003": "1.3 s"}
    for name, ring in rings.items():
        cs = [over(ring, c) for c in z50]
        rows.append(("rings-mixed", f"50-corpus coradical_filtration {name}", roadmap_filtration[name],
                     timed(pc.coradical_filtration, cs)))
        rows.append(("rings-mixed", f"50-corpus split_coradical {name}", roadmap_split[name],
                     timed(pc.split_coradical, cs)))
    for p, was in ((4093, "9.12 s"), (4099, "0.01 s")):
        small = [e.coalgebra for e in corpus.generate_coalgebras(ACCEPTANCE_SEED, 5, max_rank=8,
                                                                 ring=pc.prime_field(p))]
        rows.append(("rings-mixed", f"group_likes, 5 corpus coalgebras rank <= 8, F_{p}", was,
                     timed(pc.group_likes, small)))
    local = [pc.dual_of_algebra(pc.truncated_polynomial_algebra(pc.ZZ, k)) for k in (5, 4)]
    w = corpus.random_unimodular(random.Random(ACCEPTANCE_SEED), pc.ZZ, 20)
    twisted = pc.conjugate(pc.tensor(*local), w)
    rows.append(("maps-tensor", "coradical_filtration local5 (x) local4, rank 20 twisted", "1.6 s",
                 timed(pc.coradical_filtration, [twisted])))
    print(f"{'workload':<12} {'row':<58} {'ROADMAP':>12} {'now':>9}")
    for workload, row, was, now in rows:
        print(f"{workload:<12} {row:<58} {was:>12} {now:>8.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
