"""Benchmark of the rootbarrier pipeline: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload price-dense --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The workload runs in a fresh worker
process (worker.py) with BLAS and OpenMP threads set to 1 and the
library imported from the checkout's src/; three more fresh processes
only set up, for the median of `setup_s`.  The output is a readable
summary, then as the last line one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1.  README.md in this
directory says why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], timeout: float) -> dict:
    """Run worker.py to completion and return its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=worker_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    """Core count, CPU model and cache sizes, as far as the OS tells them."""
    info = {"nproc": os.cpu_count(), "cpu": "unknown", "l2": "unknown", "l3": "unknown"}
    try:
        with open("/proc/cpuinfo") as f:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "unknown")
        for key, index in (("l2", 2), ("l3", 3)):
            info[key] = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size").read_text().strip()
    except OSError:
        pass
    return info


def summary(res: dict, spec: dict, values: dict, mach: dict) -> list[str]:
    def fmt(v):
        return "n/a" if v is None else f"{v:.6g}"

    fig = res["figures"]
    lines = [f"perfbench {res['workload']} seed={res['seed']}: {res['iterations']} iteration(s), "
             f"closed loop, one caller",
             f"machine: nproc={mach['nproc']} cpu={mach['cpu']!r} L2={mach['l2']} L3={mach['l3']} "
             f"python={res['versions']['python']} "
             f"numpy={res['versions']['numpy']} scipy={res['versions']['scipy']}",
             f"times below are wall times scaled by the host speed factor of each iteration "
             f"({', '.join(f'{f:.3f}' for f in res['speed'])}); unscaled run_s {res['wall_run_s']:.6g} s",
             "end to end:"]
    lines += [f"  {m['name']:<16} {values[m['name']]:.6g} {m['unit']}" for m in spec["end_to_end"]]
    lines.append("per-call times and accuracy figures (n/a: this workload does not compute it):")
    for name, op in (("bound_s", "lower_bound"), ("subhedge_s", "verify_subhedge")):
        per_call = [t for k, t in res["op_s"].items() if k.startswith(op)]
        lines.append(f"  {name:<16} {fmt(statistics.median(per_call) if per_call else None)} s per call")
    lines.append(f"  {'ops_failed':<16} {res['failed']} of {res['attempted']}")
    for name in ("bound_rel_err", "barrier_dev", "golden_err", "attaining_frac"):
        lines.append(f"  {name:<16} {fmt(fig.get(name))}")
    lines.append("checks of the last iteration:")
    for c in res["checks"]:
        extra = " ".join(f"{k}={v:.4g}" for k, v in c.items() if k not in ("op", "ok", "error"))
        lines.append(f"  [{'PASS' if c['ok'] else 'FAIL'}] {c['op']} {extra}")
        if "error" in c:
            lines.extend("    " + ln for ln in c["error"].rstrip().splitlines())
    if "per_layer" in res:
        lines.append(f"per layer ({res['traced_iterations']} traced iteration(s), spans in {res['spans_file']}):")
        lines += [f"  {m['name']:<36} {res['per_layer'][m['name']]:.6g} {m['unit']}" for m in spec["per_layer"]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rootbarrier" / "__init__.py").is_file():
        print(f"no library source at {ROOT / 'src' / 'rootbarrier'}: run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    start = time.monotonic()
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        res = run_worker(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)], DEADLINE_S)
        setups = [res["setup_s"]]
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(base + ["--setup-only"], DEADLINE_S - (time.monotonic() - start))["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    values = {
        "setup_s": statistics.median(setups),
        "run_s": res["run_s"],
        "barrier_s": res["barrier_s"],
        "embed_check_s": res["embed_check_s"],
        "certify_s": res["certify_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "ops_ok_frac": (res["attempted"] - res["failed"]) / res["attempted"],
        # 1.0 when no solve finished: far above any tolerance, and the run is not correct
        "lcp_residual": res["figures"].get("lcp_residual", 1.0),
    }
    print("\n".join(summary(res, spec, values, machine())))
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = res["per_layer"] if args.trace else values
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in group}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
