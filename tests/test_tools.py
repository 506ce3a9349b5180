import hashlib
import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from rootbarrier import barrier as br
from rootbarrier import obstacle as ob
from rootbarrier import optimality as opt
from rootbarrier import simulate as sim

TOOLS = Path(__file__).resolve().parents[1] / "tools"

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment on its own line
import os


def join(a,
         b):
    """Function docstring."""
    return os.path.join(  # a trailing comment
        a,
        b,
    )
'''


def _load_tool(name="code_lines"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_code_lines_counts_code_only(tmp_path, capsys):
    # import, the two lines of the signature and the four of the call
    tool = _load_tool()
    src = tmp_path / "pkg" / "sample.py"
    src.parent.mkdir()
    src.write_text(SAMPLE)
    assert tool.code_lines(src) == 7
    assert tool.main(["code_lines.py", str(src.parent)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["7", "total"]


def test_draw_ahead_crossover_times_both_ways_and_restores_the_threshold(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))   # main() puts its --src first
    tool = _load_tool("draw_ahead_crossover")
    threshold, base = sim._PREFETCH_MIN, sim._PARK_BASE
    assert tool.main(["draw_ahead_crossover.py", "--sizes", "200,300", "--steps", "5", "--repeats", "2"]) == 0
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["200", "300"]
    assert all(0.0 < float(lo) <= float(hi) for r in rows for lo, hi in (c.split("-") for c in r[1:]))
    assert sim._PREFETCH_MIN == threshold and sim._PARK_BASE == base


def test_bit_digest_hashes_exact_bits(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))   # main() puts its --src first
    tool = _load_tool("bit_digest")
    assert tool.main(["bit_digest.py", "open-capped"]) == 0
    out = dict(reversed(line.split("  ")) for line in capsys.readouterr().out.splitlines())
    assert list(out) == ["open-capped.M", "open-capped.t"]
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in out.values())
    # the case's M, rebuilt here, hashes to the printed line; one ulp changes it
    x = np.linspace(-2.0, 2.0, 201)
    bar = br.Barrier(x=x, R=np.where(np.abs(x) < 1.0 - 1e-9, np.inf, 0.0), horizon=1.0)
    m = opt.compute_M(ob.brownian(), bar, opt.variance_call(0.3), x, nt=300).values
    assert tool.digest(m) == out["open-capped.M"]
    m[150, 100] = np.nextafter(m[150, 100], 2.0)
    assert tool.digest(m) != out["open-capped.M"]
    # a report spreads over one line per key
    assert [ln.split("  ")[1] for ln in tool.lines("c", {"r": {"a": 1.0, "b": [1, 2]}})] == ["c.r.a", "c.r.b"]
    # a file's bytes hash as they are
    assert tool.digest(b"x,R\n0,inf\n") == hashlib.sha256(b"x,R\n0,inf\n").hexdigest()


def test_bit_digest_reports_a_refused_case_and_goes_on(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))   # main() puts its --src first
    tool = _load_tool("bit_digest")

    def refused():
        raise ValueError("refused input")

    monkeypatch.setattr(tool, "CASES", {"refused": refused, "fine": lambda: {"r": 1.0}})
    assert tool.main(["bit_digest.py"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{tool.digest('ValueError: refused input')}  refused.error",
        f"{tool.digest(1.0)}  fine.r",
    ]


def test_bit_digest_values_prints_the_largest_move_of_each_changed_result(tmp_path, capsys, monkeypatch):
    # a second tree whose Brownian sigma reads 1.01: open-capped's M moves, its t does not
    monkeypatch.setattr(sys, "path", list(sys.path))   # main() puts its --src first
    tool = _load_tool("bit_digest")
    other = tmp_path / "src"
    shutil.copytree(Path(br.__file__).parent, other / "rootbarrier",
                    ignore=shutil.ignore_patterns("__pycache__"))
    obstacle = other / "rootbarrier" / "obstacle.py"
    text = obstacle.read_text()
    assert text.count("sigma=lambda x: 1.0,") == 1
    obstacle.write_text(text.replace("sigma=lambda x: 1.0,", "sigma=lambda x: 1.01,"))
    assert tool.main(["bit_digest.py", "--values", str(other), "open-capped"]) == 0
    x = np.linspace(-2.0, 2.0, 201)
    bar = br.Barrier(x=x, R=np.where(np.abs(x) < 1.0 - 1e-9, np.inf, 0.0), horizon=1.0)
    ms = [opt.compute_M(diff, bar, opt.variance_call(0.3), x, nt=300).values
          for diff in (ob.brownian(), ob.DiffusionSpec(sigma=lambda s: 1.01, dsigma=np.zeros_like))]
    d = ms[0] - ms[1]
    move, moved = np.max(np.abs(d)), np.mean(d != 0)
    assert move > 0 and 0 < moved < 1
    assert capsys.readouterr().out.splitlines() == [f"{move:.3e}  {d.mean():+.3e}  {moved:.4f}  open-capped.M"]
    # the numbers of a result: entries, items and the numerals of a file's text
    assert tool.deltas(b"x,R\n0,inf\n1,2.5\n", b"x,R\n0,inf\n1,2.25\n") == "2.500e-01  +6.250e-02  0.2500"
    assert tool.deltas([1.0, (np.nan, np.inf)], [1.5, (np.nan, np.inf)]) == "5.000e-01  -1.667e-01  0.3333"
    assert tool.deltas(np.zeros(3), np.zeros(4)) == "3 vs 4 numbers"


def test_rss_by_op_prints_each_operation_of_an_iteration():
    # in a process of its own, so the resident sizes are the workload's alone
    proc = subprocess.run([sys.executable, str(TOOLS / "rss_by_op.py"), "--workload", "price-atomic"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [ln.split() for ln in proc.stdout.splitlines()[1:]]
    assert [r[1] for r in rows] == ["price-atomic", "lower_bound", "verify_subhedge[attaining]",
                                    "attaining_model_ks"]
    sizes = [[float(v) for v in r[2:]] for r in rows]
    assert all(0.0 < before and 0.0 < after <= hwm for before, after, hwm in sizes)
    assert all(a[2] <= b[2] for a, b in zip(sizes, sizes[1:]))     # the peak never falls


def test_bench_record_records_a_workload_and_compares_it(tmp_path, monkeypatch):
    # one short run of the cheapest workload, in processes of their own
    tool = [sys.executable, str(TOOLS / "bench_record.py")]
    proc = subprocess.run(tool + ["--workload", "price-atomic", "--k", "1", "--seconds", "1",
                                  "--out-dir", str(tmp_path)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    (path,) = tmp_path.glob("BENCH_*.json")
    rec = json.loads(path.read_text())
    assert path.name.startswith(f"BENCH_{rec['sha'][:10]}")
    assert rec["machine"].startswith("machine: nproc=") and rec["code_lines"]["total"] > 0
    work = rec["workloads"]["price-atomic"]
    assert [r["seed"] for r in work["runs"]] == [1] and work["runs"][0]["correct"]
    rss = work["metrics"]["peak_rss_mb"]
    assert rss["values"] == [rss["median"]] == [rss["q1"]] == [rss["q3"]] and rss["median"] > 0

    # compared with itself the record shows no change and every reading of peak RSS
    proc = subprocess.run(tool + ["--compare", str(path), str(path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = [ln.split() for ln in proc.stdout.splitlines() if ln.startswith("price-atomic")]
    assert [r[1] for r in rows[:-2]] == ["setup_s", "run_s", "barrier_s", "embed_check_s", "certify_s",
                                         "peak_rss_mb", "ops_ok_frac", "lcp_residual"]
    assert all(r[4] == "+0.0%" and r[-1] == "ok" for r in rows[:-2])
    assert [r[1:] for r in rows[-2:]] == [[side, "peak_rss_mb", "readings:", f"{rss['median']:.2f}"]
                                          for side in "AB"]

    # a run time past its bound is a worse verdict
    monkeypatch.setattr(sys, "path", list(sys.path))     # the tool puts tools/ first
    slow = json.loads(path.read_text())
    slow["workloads"]["price-atomic"]["metrics"]["run_s"]["median"] *= 1.3
    lines, worse = _load_tool("bench_record").compare(rec, slow)
    assert worse and [ln.split()[-1] for ln in lines if " run_s " in ln] == ["WORSE"]


def test_bench_record_records_the_layers_of_a_traced_run(tmp_path, monkeypatch):
    # the perfbench runs are stood in for: each must ask for --trace 1, and
    # answers with every per-layer metric, as perfbench/run.py --trace 1 does
    monkeypatch.setattr(sys, "path", list(sys.path))     # the tool puts tools/ first
    tool = _load_tool("bench_record")
    layers, real = [m["name"] for m in tool.spec()["per_layer"]], subprocess.run

    def run(cmd, **kwargs):
        if "perfbench/run.py" not in cmd:
            return real(cmd, **kwargs)
        assert cmd[cmd.index("--trace") + 1] == "1"
        seed = float(cmd[cmd.index("--seed") + 1])
        line = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {name: {"value": seed, "unit": "count"} for name in layers}}
        return subprocess.CompletedProcess(cmd, 0, "machine: nproc=2\n" + json.dumps(line), "")

    monkeypatch.setattr(tool.subprocess, "run", run)
    (rec,) = tool.record([tool.ROOT], ["price-atomic"], k=2, seconds=1.0, trace=1)
    path = tool.write(rec, tmp_path)
    assert path.name.endswith("-trace.json") and json.loads(path.read_text())["trace"] == 1
    metrics = rec["workloads"]["price-atomic"]["metrics"]
    assert list(metrics) == layers and metrics["simulate.step_rng_calls"]["median"] == 1.5
    # each per-layer metric's change, with the seeds on which B reads better, and no bound
    fewer = json.loads(path.read_text())
    for r in fewer["workloads"]["price-atomic"]["runs"]:
        r["metrics"]["simulate.step_rng_calls"]["value"] /= 2
    fewer["workloads"]["price-atomic"]["metrics"]["simulate.step_rng_calls"]["median"] /= 2
    lines, worse = tool.compare(rec, fewer)
    assert not worse and not any("peak_rss_mb readings" in ln for ln in lines)
    (row,) = [ln.split() for ln in lines if " simulate.step_rng_calls " in ln]
    assert row[4:] == ["-50.0%", "2", "of", "2", "-"]
    assert len([ln for ln in lines if ln.startswith("price-atomic")]) == len(layers)


def test_bench_record_times_a_tier1_run(tmp_path, monkeypatch):
    # one small test file stands in for the suite; no workload runs
    monkeypatch.setattr(sys, "path", list(sys.path))     # the tool puts tools/ first
    proc = subprocess.run([sys.executable, str(TOOLS / "bench_record.py"), "--tier1", "tests/test_exports.py",
                           "--out-dir", str(tmp_path)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    (path,) = tmp_path.glob("BENCH_*.json")
    rec = json.loads(path.read_text())
    assert rec["workloads"] == {}
    run = rec["tier1"]
    assert run["args"] == ["tests/test_exports.py"] and run["returncode"] == 0
    assert re.fullmatch(r"\d+ passed in [\d.]+s", run["summary"])
    assert run["wall_s"] > 0 and 1 <= len(run["durations"]) <= 10
    assert all(sec >= 0 and phase in ("setup", "call", "teardown") and test.startswith("tests/test_exports.py::")
               for sec, phase, test in run["durations"])
    assert [d[0] for d in run["durations"]] == sorted((d[0] for d in run["durations"]), reverse=True)
    lines, worse = _load_tool("bench_record").compare(rec, rec)
    assert not worse and lines[-1].startswith(f"tier-1 wall: A {run['wall_s']:.1f} s ({run['summary']})")


BRANCHY = '''def sign(x):
    """Docstring: no bytecode of its own."""
    if x >= 0:
        return 1
    # the branch below is never taken
    return -1
'''


def test_line_coverage_reports_the_branch_not_taken(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))   # main() puts its --src first
    tool = _load_tool("line_coverage")
    src = tmp_path / "src"
    src.mkdir()
    (src / "lc_branchy.py").write_text(BRANCHY)
    assert tool.executable_lines(src / "lc_branchy.py") == {1, 3, 4, 6}

    def load_and_call():
        spec = importlib.util.spec_from_file_location("lc_branchy", src / "lc_branchy.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod.sign(2)

    before = sys.gettrace()
    result, hits = tool.run_traced(src, load_and_call)
    assert sys.gettrace() is before
    assert result == 1
    assert hits == {str((src / "lc_branchy.py").resolve()): {1, 3, 4}}
    assert tool.ranges({3, 4, 5, 9, 11, 12}) == "3-5,9,11-12"

    # end to end: a pytest run in the same process, traced
    test = tmp_path / "tests" / "test_branchy.py"
    test.parent.mkdir()
    test.write_text("from lc_branchy import sign\n\n\ndef test_positive():\n    assert sign(2) == 1\n")
    try:
        assert tool.main(["line_coverage.py", "--src", str(src), "--", "-q", "-p", "no:cacheprovider",
                          str(test)]) == 0
    finally:
        sys.modules.pop("lc_branchy", None)
    out = capsys.readouterr().out.splitlines()
    assert out[-2].split() == ["1/4", "lc_branchy.py", "6"]
    assert out[-1].split() == ["1/4", "total"]


def test_line_coverage_reports_the_code_that_ran(tmp_path, capsys, monkeypatch):
    # the traced run rewrites the module it imported: the report still
    # holds the lines of the code that ran, not those of the new file
    monkeypatch.setattr(sys, "path", list(sys.path))   # main() puts its --src first
    tool = _load_tool("line_coverage")
    module = tmp_path / "src" / "lc_edited.py"
    module.parent.mkdir()
    module.write_text(BRANCHY)
    test = tmp_path / "tests" / "test_edited.py"
    test.parent.mkdir()
    test.write_text("from pathlib import Path\n\nfrom lc_edited import sign\n\n\n"
                    "def test_positive_then_edit():\n    assert sign(2) == 1\n"
                    f"    Path({str(module)!r}).write_text('\\n' * 20 + 'x = 1\\n')\n")
    try:
        assert tool.main(["line_coverage.py", "--src", str(module.parent), "--", "-q", "-p", "no:cacheprovider",
                          str(test)]) == 0
    finally:
        sys.modules.pop("lc_edited", None)
    assert module.read_text().endswith("x = 1\n")
    out = capsys.readouterr().out.splitlines()
    assert out[-2].split() == ["1/4", "lc_edited.py", "6"]
