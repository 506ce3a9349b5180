"""Resident memory around each operation of a benchmark workload.

Builds one workload of perfbench/workloads.py in this process and runs
its iterations, with BLAS and OpenMP threads set to 1 as the benchmark's
worker sets them.  Around every operation it reads /proc/self/status
(Linux) and prints one line: the stage, the operation, VmRSS before and
after it and VmHWM after it, in MiB.  VmHWM is the peak resident size
since the process started, so the operation on which it rises sets the
peak so far; `setup` is the building of the workload's inputs.  The
workloads file is imported as it is: each operation goes through
`Workload.op`, which this tool wraps on the workload object.

Usage:
    python3 tools/rss_by_op.py [--src DIR] [--workload NAME] [--seed SEED] [--iterations K]

DIR is the source tree `rootbarrier` is imported from (default: the
`src` directory of this repository).  One iteration of price-dense takes
about 4 s on a 2-core Xeon.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def status_mib() -> tuple[float, float]:
    """VmRSS and VmHWM of this process, in MiB."""
    with open("/proc/self/status") as f:
        fields = dict(line.split(":", 1) for line in f if ":" in line)
    return tuple(int(fields[k].split()[0]) / 1024.0 for k in ("VmRSS", "VmHWM"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--workload", default="price-dense")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--iterations", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path[:0] = [args.src, str(ROOT / "perfbench")]
    from run import THREAD_VARS
    for k in THREAD_VARS:
        os.environ[k] = "1"     # before numpy is imported
    import spans
    from workloads import WORKLOADS

    def row(stage, name, before):
        rss, hwm = status_mib()
        print(f"{stage:<12} {name:<44} {before:10.1f} {rss:10.1f} {hwm:10.1f}", flush=True)

    print(f"{'stage':<12} {'operation':<44} {'rss_before':>10} {'rss_after':>10} {'hwm':>10}")
    before = status_mib()[0]
    wl = WORKLOADS[args.workload](args.seed)
    row("setup", args.workload, before)
    op = wl.op

    def traced(tracer, stage, name, call, check):
        before = status_mib()[0]
        try:
            return op(tracer, stage, name, call, check)
        finally:
            row(stage, name, before)

    wl.op = traced
    tracer = spans.Tracer()
    for run in range(args.iterations):
        tracer.run = run
        wl.iteration(tracer)
    failed = [c["op"] for c in wl.checks if not c["ok"]]
    if failed:
        print(f"failed operations: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
