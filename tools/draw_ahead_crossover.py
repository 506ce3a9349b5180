"""Microseconds per step of the stepping loop, normals drawn inline and drawn ahead.

The walk is `simulate_stopped` of Brownian motion from 0 against the flat
barrier R = 1, at dt 1e-3, stopped at a horizon of STEPS steps below R,
so that every path runs every step.  It is timed with
`simulate._PREFETCH_MIN` set above every batch (inline: each step draws
its own normals) and at 1 (ahead: the next two steps' normals are drawn
on the worker threads), set in this process and restored afterwards.
The two alternate, REPEATS times per size.  Each line gives the size,
then the fastest and slowest run of each, in microseconds per step.
This walk does little besides drawing, so it shows the most that
drawing ahead can save; where observers do most of a step's work the
crossover lies higher (see the comment on `_PREFETCH_MIN`).

Usage:
    python3 tools/draw_ahead_crossover.py [--src DIR] [--sizes N,N,...] [--steps STEPS] [--repeats REPEATS]

DIR is the source tree `rootbarrier` is imported from (default: the
`src` directory of this repository).  The default sizes, 1e3 to 6e5
paths with 200 steps and 3 repeats, take about a minute on a 2-core
Xeon.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

SIZES = (1_000, 4_000, 8_192, 10_000, 20_000, 600_000)
DT = 1e-3


def per_step_us(sim, n: int, steps: int, threshold: int) -> float:
    """Microseconds per step of one walk of n paths with _PREFETCH_MIN at threshold."""
    import numpy as np
    from rootbarrier import barrier as br, measures as ms, obstacle as ob

    flat = br.Barrier(x=np.array([-10.0, 10.0]), R=np.array([1.0, 1.0]), horizon=1.0)
    saved, sim._PREFETCH_MIN = sim._PREFETCH_MIN, threshold
    try:
        t0 = time.perf_counter()
        sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), flat, n=n, dt=DT, seed=1,
                             horizon=steps * DT)
        return (time.perf_counter() - t0) / steps * 1e6
    finally:
        sim._PREFETCH_MIN = saved


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    ap.add_argument("--sizes", default=",".join(map(str, SIZES)))
    ap.add_argument("--steps", type=int, default=200)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv[1:])
    if args.steps < 1 or args.repeats < 1 or args.steps * DT >= 1.0:
        ap.error("STEPS must lie in [1, 999] and REPEATS be at least 1")
    sys.path.insert(0, args.src)
    from rootbarrier import simulate as sim

    print(f"{'paths':>8}  {'inline us/step':>16}  {'ahead us/step':>16}")
    for n in (int(float(s)) for s in args.sizes.split(",")):
        inline, ahead = [], []
        for _ in range(args.repeats):
            inline.append(per_step_us(sim, n, args.steps, 1 << 62))
            ahead.append(per_step_us(sim, n, args.steps, 1))
        print(f"{n:>8}  {min(inline):>7.1f}-{max(inline):<8.1f}  {min(ahead):>7.1f}-{max(ahead):<8.1f}",
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
