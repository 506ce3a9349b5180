"""One workload in one fresh process: set up, iterate, print one JSON line.

run.py starts this with BLAS/OpenMP threads at 1 and PYTHONPATH at the
checkout's src/:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Set-up is everything from the first line of this file to the built inputs:
the imports of numpy, scipy and rootbarrier, and the workload's inputs.
The untraced run installs no wrappers and checks at the end that every
library function is still the original.  The traced run alternates plain
and traced iterations, so the tracing overhead is the difference of their
`run_s` medians, and writes its spans to .bench_out/.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("barrier", "embed_check", "certify")
# median wall time of calibration_s() on the reference machine (README.md)
CALIBRATION_REF_S = 0.18
# per-layer names of the workloads' accuracy figures; 0 where a workload does not compute one
FIGURES = {"pricing.bound_rel_err": "bound_rel_err", "barrier.normal_dev": "barrier_dev",
           "optimality.golden_err": "golden_err", "pricing.attaining_frac": "attaining_frac"}


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def calibration_s() -> float:
    """Wall time of a fixed numpy kernel that does not touch the library.

    It mixes what the library does: many small-array operations, as in a
    PSOR sweep, and gathers, exponentials and normal draws on 2e4 values.
    The host is shared and its speed swings by tens of percent over
    minutes, for all code alike.  So each iteration's times are scaled by
    CALIBRATION_REF_S over the mean of the calibrations just before and
    just after it, and set-up by the calibration that follows it: seconds
    on the reference machine at its usual speed.
    """
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(0))
    v = rng.standard_normal(201)
    w = 1.0 + np.abs(rng.standard_normal(201))
    for _ in range(6000):
        v[1:-1:2] = np.maximum(0.5 * (v[:-2:2] + v[2::2]) / w[1:-1:2], -1.0)
        v[2:-1:2] = np.maximum(0.5 * (v[1:-2:2] + v[3::2]) / w[2:-1:2], -1.0)
    grid = np.sort(rng.standard_normal(601))
    for k in range(60):
        z = np.random.Generator(np.random.Philox(k)).standard_normal(20_000)
        v[:] = np.exp(grid[np.searchsorted(grid, z) % 601][:201])
    return time.perf_counter() - t0


def measure(wl, tracer, rb, seconds: float, trace: bool) -> tuple[list[bool], list[float]]:
    """Iterate for about `seconds`.

    Another iteration starts only if, taking as long as the last one, it
    would end less than half an iteration past `seconds`; so the number of
    iterations is `seconds` over the iteration time, rounded.  A traced
    run makes at least two, one plain and one traced.  Returns which
    iterations were traced and the calibration times taken before the
    first iteration and after each one.
    """
    import spans

    start = time.perf_counter()
    traced: list[bool] = []
    calib = [calibration_s()]
    while True:
        tracer.run = len(traced)
        on = trace and len(traced) % 2 == 1
        with spans.wrap_layers(rb, tracer) if on else contextlib.nullcontext():
            idx = tracer.open("run")
            try:
                wl.iteration(tracer)
            finally:
                tracer.close(idx)
        traced.append(on)
        calib.append(calibration_s())
        last = tracer.spans[idx].duration
        if time.perf_counter() - start + 0.5 * last > seconds and (not trace or len(traced) >= 2):
            return traced, calib


def scale_times(metrics: dict, speed: float) -> dict:
    """Apply an iteration's speed factor to its times and rates."""
    def scaled(k, v):
        if k.endswith("_per_s"):
            return v / speed
        return v * speed if k.endswith(("_s", "_ms")) else v
    return {k: scaled(k, v) for k, v in metrics.items()}


def stage_totals(tracer, runs: list[int]) -> dict[str, list[float]]:
    out = {name: [0.0] * len(runs) for name in ("run",) + tuple(f"stage.{s}" for s in STAGES)}
    pos = {r: i for i, r in enumerate(runs)}
    for s in tracer.spans:
        if s.run in pos and s.name in out:
            out[s.name][pos[s.run]] += s.duration
    return out


def op_medians(tracer, speed: dict[int, float]) -> dict[str, float]:
    """Median scaled time of each operation over the iterations in `speed`."""
    per_op: dict[str, list[float]] = {}
    for s in tracer.spans:
        if s.run in speed and s.name.startswith("stage."):
            per_op.setdefault(s.attrs["op"], []).append(s.duration * speed[s.run])
    return {k: statistics.median(v) for k, v in per_op.items()}


def write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(exist_ok=True)
    with gzip.open(path, "wt") as f:
        f.write("index\trun\tparent\tname\tstart\tend\tattrs\n")
        for i, s in enumerate(tracer.spans):
            f.write(f"{i}\t{s.run}\t{s.parent}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t"
                    f"{json.dumps(s.attrs) if s.attrs else ''}\n")


def main(argv=None) -> int:
    args = parse(argv)
    import numpy as np
    import scipy
    import rootbarrier as rb

    if Path(rb.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        print(f"rootbarrier was imported from {rb.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s * CALIBRATION_REF_S / calibration_s()}))
        return 0

    tracer = spans.Tracer()
    before = spans.bindings(rb)
    traced, calib = measure(wl, tracer, rb, args.seconds, bool(args.trace))
    speed = [2.0 * CALIBRATION_REF_S / (a + b) for a, b in zip(calib, calib[1:])]
    if not spans.unwrapped(rb, before):
        print("a library function is still wrapped after the run", file=sys.stderr)
        return 3
    plain = [r for r, on in enumerate(traced) if not on]
    if not args.trace and any(not (s.name == "run" or s.name.startswith("stage.")) for s in tracer.spans):
        print("the untraced run recorded a layer span", file=sys.stderr)
        return 3

    totals = stage_totals(tracer, plain)
    scaled = {k: [v * speed[r] for v, r in zip(vals, plain)] for k, vals in totals.items()}
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "iterations": len(plain),
        "setup_s": setup_s * CALIBRATION_REF_S / calib[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "run_s": statistics.median(scaled["run"]),
        **{f"{s}_s": statistics.median(scaled[f"stage.{s}"]) for s in STAGES},
        "wall_run_s": statistics.median(totals["run"]),
        "speed": [speed[r] for r in plain],
        "op_s": op_medians(tracer, {r: speed[r] for r in plain}),
        "figures": wl.figures,
        "attempted": len(wl.checks),
        "failed": sum(not c["ok"] for c in wl.checks),
        "checks": wl.checks[-(len(wl.checks) // len(traced)):],
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__},
    }
    if args.trace:
        runs = [r for r, on in enumerate(traced) if on]
        per_run = [scale_times(spans.layer_metrics(tracer.spans, r), speed[r]) for r in runs]
        layer = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
        layer["trace.overhead_s"] = layer["trace.run_s"] - out["run_s"]
        layer["trace.plain_run_s"] = out["run_s"]
        layer.update({key: wl.figures.get(fig, 0.0) for key, fig in FIGURES.items()})
        out["per_layer"] = layer
        out["traced_iterations"] = len(runs)
        out["spans_file"] = f".bench_out/spans-{args.workload}-seed{args.seed}.tsv.gz"
        write_spans(tracer, ROOT / out["spans_file"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
