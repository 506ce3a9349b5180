"""Record benchmark runs of checkouts as BENCH_<short sha>.json, and compare two records.

    python3 tools/bench_record.py [--root DIR ...] [--workload NAME ...] [--k 5] [--seconds 35] [--trace 0|1]
                                  [--out-dir DIR]
    python3 tools/bench_record.py --tier1 [PYTEST_ARG ...] [--root DIR ...] [--workload NAME ...]
    python3 tools/bench_record.py --compare A.json B.json

Recording runs `perfbench/run.py --workload W --seed s --seconds S --trace T`
of a checkout k times per workload, as subprocesses, on seeds 1..k, and
keeps the final JSON line of each run: the end-to-end metrics with
--trace 0 (the default), the per-layer metrics with --trace 1.  Given
several --root checkouts (default: this one), it alternates between
them run by run, the first checkout first on odd seeds and last on even
ones, so that a slow stretch of a shared host falls on both.  Each checkout gets one record: the
machine line of the runs, `git rev-parse HEAD` and whether tracked files
differ from it (`dirty`, which adds `-dirty` to the file name), the code
lines per module of its src/ (tools/code_lines.py), every run's line, and
per metric its values in seed order, median and quartiles.  A --trace 1
record is written as BENCH_<short sha>-trace.json.  Checkouts whose
records would take one name, two clean clones of one commit say, get
-2, -3, ... before `.json`, in --root order, and `wrote` names the root.
The workloads and metrics are those of this checkout's BENCHMARK.json.

With --tier1, each checkout's record also holds one timed run of its
tier-1 suite, `python -m pytest -q --continue-on-collection-errors -p
no:cacheprovider --durations=10` with its src/ first on PYTHONPATH (the
cache plugin off, so the run leaves no .pytest_cache), one checkout after
the other: the wall time, the exit status, pytest's summary line and the
ten slowest phases as [seconds, phase, test].  PYTEST_ARGs, if given,
replace the suite's default paths (one test file, say).  With --tier1
only the workloads named by --workload are run.

Comparing applies the bound of each end-to-end metric in BENCHMARK.json
to the medians of A and B, per workload: B is worse when it moves the
wrong way by more than the bound, relative to A.  Where both records ran
a seed it also counts the seeds on which B reads better.  It prints every
`peak_rss_mb` reading of both, since that metric can jump between
allocator modes for the same work, and the tier-1 wall times of both
where both hold one.  Per-layer metrics, which two --trace 1 records
hold, get the same line with no bound and no verdict.  Exit status 1 if
any end-to-end metric is worse beyond its bound, else 0; per-layer
metrics and the tier-1 time have no bound.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 600.0
TIER1_TIMEOUT_S = 3600.0

sys.path.insert(0, str(Path(__file__).resolve().parent))
from code_lines import code_lines  # noqa: E402


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git(root: Path, *args: str) -> str:
    proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def checkout(root: Path) -> dict:
    """The commit, dirty flag and code lines per module of one checkout."""
    src = root / "src"
    lines = {str(p.relative_to(src)): code_lines(p) for p in sorted(src.rglob("*.py"))}
    lines["total"] = sum(lines.values())
    return {"sha": _git(root, "rev-parse", "HEAD") or "unknown",
            "dirty": bool(_git(root, "status", "--porcelain", "--untracked-files=no")),
            "code_lines": lines}


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> tuple[dict, str]:
    """One perfbench run: its final JSON line (or the error) and its machine line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"seed": seed, "error": f"timed out after {RUN_TIMEOUT_S:.0f} s"}, ""
    out = proc.stdout.strip().splitlines()
    machine = next((ln for ln in out if ln.startswith("machine:")), "")
    if proc.returncode != 0 or not out:
        return {"seed": seed, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}, machine
    return {"seed": seed, **json.loads(out[-1])}, machine


def tier1(root: Path, pytest_args: list) -> dict:
    """One timed tier-1 run of a checkout: wall time, exit status, summary and the ten slowest phases."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
           "--durations=10", *pytest_args]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=TIER1_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"args": pytest_args, "error": f"timed out after {TIER1_TIMEOUT_S:.0f} s"}
    wall = time.perf_counter() - t0
    out = proc.stdout.strip().splitlines()
    slowest = [[float(m[1]), m[2], m[3]] for m in map(re.compile(r"^([\d.]+)s (\w+)\s+(\S+)$").match, out) if m]
    return {"args": pytest_args, "wall_s": wall, "returncode": proc.returncode,
            "summary": out[-1].strip("= ") if out else proc.stderr.strip()[-500:], "durations": slowest}


def quartiles(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"values": values, "median": med, "q1": q1, "q3": q3}


def summarize(runs: list) -> dict:
    ok = [r for r in runs if "metrics" in r]
    names = ok[0]["metrics"] if ok else {}
    return {"runs": runs,
            "metrics": {m: {"unit": names[m]["unit"], **quartiles([r["metrics"][m]["value"] for r in ok])}
                        for m in names}}


def record(roots: list, workloads: list, k: int, seconds: float, tier1_args: list = None,
           trace: int = 0) -> list:
    """Run every workload k times on each root, alternating, and build one record per root.

    With tier1_args (a list, maybe empty) each root's tier-1 suite runs once first.
    """
    recs = [{**checkout(r), "machine": "", "k": k, "seconds": seconds, "trace": trace,
             "workloads": {}} for r in roots]
    if tier1_args is not None:
        for root, rec in zip(roots, recs):
            rec["tier1"] = tier1(root, tier1_args)
            print(f"tier-1 {rec['sha'][:10]}: " + (rec["tier1"].get("error") or
                  f"{rec['tier1']['wall_s']:.1f} s, {rec['tier1']['summary']}"), flush=True)
    for w in workloads:
        runs = [[] for _ in roots]
        for seed in range(1, k + 1):
            order = list(range(len(roots)))
            for i in order if seed % 2 else order[::-1]:
                res, machine = run_once(roots[i], w, seed, seconds, trace)
                recs[i]["machine"] = recs[i]["machine"] or machine
                runs[i].append(res)
                print(f"{w} seed={seed} {recs[i]['sha'][:10]}: "
                      + (res.get("error") or " ".join(f"{m}={v['value']:.6g}" for m, v in res["metrics"].items())),
                      flush=True)
        for rec, rr in zip(recs, runs):
            rec["workloads"][w] = summarize(sorted(rr, key=lambda r: r["seed"]))
    return recs


def write(rec: dict, out_dir: Path, taken=()) -> Path:
    """Write rec as BENCH_<short sha>[-dirty][-trace].json, or with -2, -3, ... before .json while that is taken."""
    stem = f"BENCH_{rec['sha'][:10]}{'-dirty' if rec['dirty'] else ''}{'-trace' if rec.get('trace') else ''}"
    path, n = out_dir / f"{stem}.json", 1
    while path in taken:
        n += 1
        path = out_dir / f"{stem}-{n}.json"
    path.write_text(json.dumps(rec, indent=1) + "\n")
    return path


def compare(a: dict, b: dict) -> tuple[list, bool]:
    """Lines of the comparison of record b against record a, and whether b is worse anywhere."""
    lines = [f"A {a['sha'][:10]}{' (dirty)' if a['dirty'] else ''}, "
             f"B {b['sha'][:10]}{' (dirty)' if b['dirty'] else ''}",
             f"code lines of src/: {a['code_lines']['total']} -> {b['code_lines']['total']}",
             f"{'workload':<14} {'metric':<14} {'A median':>11} {'B median':>11} {'change':>8} "
             f"{'bound':>6} {'B better':>9}  verdict"]
    worse = False
    for w in (w for w in a["workloads"] if w in b["workloads"]):
        wa, wb = a["workloads"][w], b["workloads"][w]
        seeds_a = {r["seed"]: r for r in wa["runs"] if "metrics" in r}
        seeds_b = {r["seed"]: r for r in wb["runs"] if "metrics" in r}
        pairs = sorted(set(seeds_a) & set(seeds_b))
        for m in spec()["end_to_end"] + spec()["per_layer"]:
            name, lower, bound = m["name"], m["better"] == "lower", m.get("bound")
            if name not in wa["metrics"] or name not in wb["metrics"]:
                continue
            ma, mb = wa["metrics"][name]["median"], wb["metrics"][name]["median"]
            rel = (mb - ma) / abs(ma) if ma else math.copysign(math.inf, mb) if mb else 0.0
            bad = bound is not None and (rel if lower else -rel) > bound
            worse |= bad
            better = 0
            for s in pairs:
                va, vb = seeds_a[s]["metrics"][name]["value"], seeds_b[s]["metrics"][name]["value"]
                better += vb < va if lower else vb > va
            verdict = "WORSE" if bad else "ok" if bound is not None else "-"
            lines.append(f"{w:<14} {name:<14} {ma:>11.6g} {mb:>11.6g} {rel:>+8.1%} "
                         f"{'' if bound is None else f'{bound:.0%}':>6} "
                         f"{f'{better} of {len(pairs)}':>9}  {verdict}")
        for tag, wr in (("A", wa), ("B", wb)):
            failed = sum("error" in r or r["failed"] > 0 for r in wr["runs"])
            rss = wr["metrics"].get("peak_rss_mb", {}).get("values", [])     # none in a --trace 1 record
            if rss or failed:
                lines.append(f"{w:<14} {tag} peak_rss_mb readings: {' '.join(f'{v:.2f}' for v in rss)}"
                             + (f"; {failed} run(s) failed" if failed else ""))
    if "wall_s" in a.get("tier1", {}) and "wall_s" in b.get("tier1", {}):
        lines.append(f"tier-1 wall: A {a['tier1']['wall_s']:.1f} s ({a['tier1']['summary']}), "
                     f"B {b['tier1']['wall_s']:.1f} s ({b['tier1']['summary']})")
    return lines, worse


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", action="append", type=Path, help="checkout to run (repeatable; default: this one)")
    ap.add_argument("--workload", action="append", help="workload of BENCHMARK.json (repeatable; default: all)")
    ap.add_argument("--k", type=int, default=5, help="runs per workload and checkout, on seeds 1..k")
    ap.add_argument("--seconds", type=float, default=35.0, help="--seconds of each perfbench run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="--trace of each perfbench run: 1 records the per-layer metrics")
    ap.add_argument("--out-dir", type=Path, default=ROOT, help="where the records are written")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"), help="compare record B against A")
    ap.add_argument("--tier1", nargs="*", metavar="PYTEST_ARG",
                    help="also time each checkout's tier-1 suite (or these pytest arguments) once")
    args = ap.parse_args(argv[1:])
    if args.compare:
        lines, worse = compare(*(json.loads(p.read_text()) for p in args.compare))
        print("\n".join(lines))
        return 1 if worse else 0
    known = [w["name"] for w in spec()["workloads"]]
    workloads = args.workload or ([] if args.tier1 is not None else known)
    if set(workloads) - set(known) or args.k < 1:
        ap.error(f"choose workloads from {known} and k >= 1")
    roots = [r.resolve() for r in (args.root or [ROOT])]
    written = []
    for root, rec in zip(roots, record(roots, workloads, args.k, args.seconds, args.tier1, args.trace)):
        written.append(write(rec, args.out_dir, written))
        print(f"wrote {written[-1]} ({root})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
