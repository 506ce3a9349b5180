"""Tests of the benchmark's own code: span arithmetic, path-step counts,
wrapping in the traced run only, and failure counting.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import rootbarrier as rb  # noqa: E402
from rootbarrier import barrier as br  # noqa: E402
from rootbarrier import simulate as sim  # noqa: E402

import spans  # noqa: E402
import worker  # noqa: E402
from workloads import Workload  # noqa: E402


def test_path_steps_from_stop_times():
    dt = 1e-3
    grid = dt * np.arange(4001)                       # stop times as the stepping loops make them
    k = np.array([0, 1, 7, 250, 4000])
    assert spans.path_steps(grid[k], dt) == k.sum()
    assert spans.path_steps((k[1:] - 0.5) * dt, dt) == k[1:].sum()   # bridge-corrected exits
    assert spans.path_steps(np.full(10, 1.0), 2e-3) == 10 * 500     # fixed-maturity price paths


def test_path_steps_of_a_stopped_batch():
    bar = br.Barrier(x=np.array([-10.0, 10.0]), R=np.array([0.25, 0.25]), horizon=1.0)
    batch = sim.simulate_stopped(rb.brownian(), rb.point_mass(0.0), bar, n=50, dt=0.01, seed=3)
    first_hit = int(np.argmax(0.01 * np.arange(101) >= 0.25))
    assert spans.path_steps(batch.stop_times, batch.dt) == 50 * first_hit


def test_covered_length_merges_and_clips():
    assert spans.covered_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert spans.covered_length([(-1, 1), (9, 12)], 0, 10) == 2
    assert spans.covered_length([], 0, 10) == 0


def test_self_times_of_nested_spans():
    s = [
        spans.Span("run", 0.0, 10.0, -1, 0),
        spans.Span("stage.a", 1.0, 4.0, 0, 0),
        spans.Span("obstacle.solve", 2.0, 3.0, 1, 0),
        spans.Span("stage.b", 5.0, 6.0, 0, 0),
        spans.Span("barrier.value_at", 5.5, 6.5, 3, 0),   # overruns its parent: clipped
    ]
    assert spans.self_times(s) == pytest.approx([6.0, 2.0, 1.0, 0.5, 1.0])
    assert spans.unattributed(s) == pytest.approx(6.0)


class _Probe(Workload):
    """Calls into two layers and notes whether they were wrapped at the time."""

    name = "probe"

    def __init__(self):
        super().__init__(0)
        self.bar = br.Barrier(x=np.array([-1.0, 1.0]), R=np.array([0.5, 0.5]), horizon=1.0)
        self.seen = []

    def iteration(self, tracer):
        def call():
            self.seen.append(hasattr(br.Barrier.value_at, "__wrapped__")
                             or hasattr(sim.step_rng, "__wrapped__"))
            sim.step_rng(0, 1)
            return self.bar.value_at(np.zeros(7))
        self.op(tracer, "barrier", "probe", call, lambda r: (bool(np.all(r == 0.5)), {}))


@pytest.mark.parametrize("trace", [False, True])
def test_only_the_traced_run_wraps(trace):
    before = spans.bindings(rb)
    probe, tracer = _Probe(), spans.Tracer()
    flags, calib = worker.measure(probe, tracer, rb, 0.0, trace)
    assert len(calib) == len(flags) + 1 and all(c > 0 for c in calib)
    assert spans.unwrapped(rb, before)
    assert probe.seen == flags == ([False] if not trace else [False, True])
    names = {s.name for s in tracer.spans}
    if trace:
        assert {"barrier.value_at", "simulate.step_rng"} <= names
        m = spans.layer_metrics(tracer.spans, 1)
        assert m["barrier.value_at_states"] == 7 and m["simulate.step_rng_calls"] == 1
    else:
        assert names == {"run", "stage.barrier"}
    assert all(c["ok"] for c in probe.checks)


def test_failed_and_raising_ops_are_counted():
    wl, tracer = Workload(0), spans.Tracer()
    wl.op(tracer, "barrier", "raises", lambda: 1 / 0, lambda r: (True, {}))
    wl.op(tracer, "barrier", "fails", lambda: 1, lambda r: (r > 1, {"value": r}))
    wl.op(tracer, "barrier", "passes", lambda: 2, lambda r: (r > 1, {}))
    assert [c["ok"] for c in wl.checks] == [False, False, True]
    assert "ZeroDivisionError" in wl.checks[0]["error"]
    assert [s.name for s in tracer.spans] == ["stage.barrier"] * 3


def test_run_refuses_a_tree_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "price-dense",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]][:1] == ["setup_s"]
    tracer = spans.Tracer()
    tracer.close(tracer.open("run"))
    per_layer = set(spans.layer_metrics(tracer.spans, 0))
    extra = {"trace.overhead_s", "trace.plain_run_s", *worker.FIGURES}
    assert {m["name"] for m in spec["per_layer"]} == per_layer | extra
