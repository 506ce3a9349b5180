"""Spans recorded in memory around calls into the library's layers.

A span is one timed call: its name ("<layer>.<call>"), start and end in
`time.perf_counter` seconds, the index of the span that was open when it
started (-1 for a root), the iteration it belongs to, and an optional dict
of counts taken where the work happens (states looked up, time steps, ...).

The untraced run records only the benchmark's own "run" and "stage.*"
spans.  The traced run also wraps the library's public functions and the
few internal attributes the pricing and path code call through
(`wrap_layers`), and restores the originals afterwards.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

LAYERS = ("obstacle", "barrier", "optimality", "simulate", "pricing", "measures")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    run: int
    attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; `run` tags every span with its iteration."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")


# -- arithmetic on spans -------------------------------------------------------

def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    return [
        s.duration - covered_length(((spans[c].start, spans[c].end) for c in kids), s.start, s.end)
        for s, kids in zip(spans, children)
    ]


def path_steps(stop_times: np.ndarray, dt: float) -> int:
    """Time steps the paths of a batch took, read off their stop times.

    A path stopped at step k reports k*dt (barrier and time-change loops)
    or (k - 1/2)*dt (the bridge-corrected interval exit), so the count is
    the stop time in steps rounded up; the tolerance absorbs the rounding
    of k*dt.
    """
    return int(np.sum(np.ceil(np.asarray(stop_times, dtype=float) / dt - 1e-9)))


# -- wrapping the library in the traced run ----------------------------------

def _batch_attrs(args, kwargs, batch) -> dict:
    return {"path_steps": path_steps(batch.stop_times, batch.dt), "horizon_mass": batch.horizon_mass}


def _size_of_first(key: str, pos: int):
    def attrs(args, kwargs, result) -> dict:
        return {key: int(np.size(args[pos]))}
    return attrs


def _solve_attrs(args, kwargs, sol) -> dict:
    return {"steps": len(sol.t) - 1, "sweeps": int(sol.iterations)}


def _grid_attrs(args, kwargs, grid) -> dict:
    return {"steps": len(grid.t) - 1}


def layer_targets(rb) -> list[tuple[object, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, counts) for every wrapped call.

    `rb` is the imported `rootbarrier` package.  Module functions are
    wrapped in every module that binds them, so internal calls such as
    `pricing.solve` or `simulate.step_rng` inside `verify_subhedge` are
    seen as well as the benchmark's own calls.
    """
    ms, ob, br, sim, opt, pr = rb.measures, rb.obstacle, rb.barrier, rb.simulate, rb.optimality, rb.pricing
    return [
        (ms, "implied_measure_from_calls", "measures.implied", None),
        (ms, "empirical", "measures.empirical", None),
        (sim, "ks_statistic", "measures.ks", None),
        (ob, "assemble", "obstacle.assemble", None),
        (ob, "solve", "obstacle.solve", _solve_attrs),
        (br, "extract_barrier", "barrier.extract", None),
        (br.Barrier, "value_at", "barrier.value_at", _size_of_first("states", 1)),
        (opt, "build_hedge", "optimality.build_hedge", None),
        (opt, "compute_M", "optimality.compute_M", _grid_attrs),
        (opt.HedgeFunctions, "G_at", "optimality.G_at", _size_of_first("points", 1)),
        (opt.HedgeFunctions, "M_at", "optimality.M_at", _size_of_first("points", 1)),
        (opt.HedgeFunctions, "delta_at", "optimality.delta_at", _size_of_first("points", 1)),
        (opt, "verify_pathwise", "optimality.verify_pathwise", None),
        (opt, "verify_martingale", "optimality.verify_martingale", None),
        (opt, "optimality_gap", "optimality.optimality_gap", None),
        (sim, "simulate_stopped", "simulate.stopped", _batch_attrs),
        (sim, "hall_competitor", "simulate.hall", _batch_attrs),
        (sim, "simulate_price_model", "simulate.price_model", _batch_attrs),
        (sim, "step_rng", "simulate.step_rng", None),
        (sim, "spike_crossings", "simulate.spike_crossings", None),
        (pr, "lower_bound", "pricing.lower_bound", None),
        (pr, "verify_subhedge", "pricing.verify_subhedge", None),
    ]


def _wrapper(tracer: Tracer, fn: Callable, name: str, attrs_fn: Optional[Callable]) -> Callable:
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if attrs_fn is not None:
            tracer.spans[idx].attrs = attrs_fn(args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    return traced


def package_modules(rb) -> list:
    return [rb] + [getattr(rb, m) for m in LAYERS + ("parabola",) if hasattr(rb, m)]


def bindings(rb) -> dict:
    """Every function and method the traced run may replace, by where it is bound."""
    out = {}
    for owner, attr, _, _ in layer_targets(rb):
        out[(owner.__name__, attr)] = vars(owner)[attr]
    for mod in package_modules(rb):
        for k, v in vars(mod).items():
            if callable(v) and not isinstance(v, type):
                out[(mod.__name__, k)] = v
    return out


def unwrapped(rb, before: dict) -> bool:
    """True when every binding is still the object it was in `before`."""
    now = bindings(rb)
    return now.keys() == before.keys() and all(now[k] is v for k, v in before.items())


class wrap_layers:
    """Context manager that installs the layer wrappers and always restores them."""

    def __init__(self, rb, tracer: Tracer) -> None:
        self.rb = rb
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "wrap_layers":
        mods = package_modules(self.rb)
        try:
            for owner, attr, name, attrs_fn in layer_targets(self.rb):
                orig = vars(owner)[attr]
                w = _wrapper(self.tracer, orig, name, attrs_fn)
                for holder in [owner] if isinstance(owner, type) else mods:
                    for k, v in list(vars(holder).items()):
                        if v is orig:
                            self._undo.append((holder, k, orig))
                            setattr(holder, k, w)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            holder, k, orig = self._undo.pop()
            setattr(holder, k, orig)


# -- per-layer metrics of one traced iteration ---------------------------------

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span], run: int) -> dict:
    """Per-layer figures of iteration `run`, from its spans alone."""
    idx = [i for i, s in enumerate(spans) if s.run == run]
    remap = {i: j for j, i in enumerate(idx)}
    local = [Span(s.name, s.start, s.end, remap.get(s.parent, -1), s.run, s.attrs)
             for s in (spans[i] for i in idx)]
    selfs = self_times(local)

    time_in: dict[str, float] = {}
    calls: dict[str, int] = {}
    sums: dict[tuple[str, str], float] = {}
    hmass = 0.0
    for s in local:
        time_in[s.name] = time_in.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.name.startswith("stage."):
            continue
        for k, v in (s.attrs or {}).items():
            if k == "horizon_mass":
                hmass = max(hmass, v)
            else:
                sums[(s.name, k)] = sums.get((s.name, k), 0.0) + v

    def t(name):
        return time_in.get(name, 0.0)

    def n(name, key=None):
        return int(sums.get((name, key), 0)) if key else calls.get(name, 0)

    # path steps marked inside verify_subhedge: one delta lookup per live path and step
    in_subhedge = [False] * len(local)
    for j, s in enumerate(local):
        p = s.parent
        in_subhedge[j] = s.name == "pricing.verify_subhedge" or (p >= 0 and in_subhedge[p])
    sub_steps = sum(s.attrs["points"] for j, s in enumerate(local)
                    if in_subhedge[j] and s.name == "optimality.delta_at")

    surface = ("optimality.G_at", "optimality.M_at", "optimality.delta_at")
    surf_calls = sum(n(k) for k in surface)
    steps = n("obstacle.solve", "steps")
    m_steps = n("optimality.compute_M", "steps")
    value_states = n("barrier.value_at", "states")
    batches = ("simulate.stopped", "simulate.hall", "simulate.price_model")
    p_steps = sum(n(k, "path_steps") for k in batches)
    out = {
        "obstacle.solve_s": t("obstacle.solve"),
        "obstacle.steps": steps,
        "obstacle.lcp_sweeps": n("obstacle.solve", "sweeps"),
        "obstacle.sweeps_per_step": _ratio(n("obstacle.solve", "sweeps"), steps),
        "obstacle.step_ms": 1e3 * _ratio(t("obstacle.solve"), steps),
        "obstacle.assemble_s": t("obstacle.assemble"),
        "barrier.extract_s": t("barrier.extract"),
        "barrier.value_at_calls": n("barrier.value_at"),
        "barrier.value_at_states": value_states,
        "barrier.value_at_s": t("barrier.value_at"),
        "barrier.states_per_s": _ratio(value_states, t("barrier.value_at")),
        "optimality.surface_calls": surf_calls,
        "optimality.surface_points": sum(n(k, "points") for k in surface),
        "optimality.surface_s": sum(t(k) for k in surface),
        "optimality.surface_calls_per_step": _ratio(surf_calls, n("simulate.step_rng")),
        "optimality.build_hedge_s": t("optimality.build_hedge"),
        "optimality.compute_M_s": t("optimality.compute_M"),
        "optimality.M_step_ms": 1e3 * _ratio(t("optimality.compute_M"), m_steps),
        "optimality.verify_martingale_s": t("optimality.verify_martingale"),
        "optimality.optimality_gap_s": t("optimality.optimality_gap"),
        "simulate.stopped_s": t("simulate.stopped"),
        "simulate.path_steps": p_steps,
        "simulate.path_steps_per_s": _ratio(p_steps, sum(t(k) for k in batches)),
        "simulate.horizon_mass": hmass,
        "simulate.hall_s": t("simulate.hall"),
        "simulate.price_model_s": t("simulate.price_model"),
        "simulate.spike_crossings_s": t("simulate.spike_crossings"),
        "simulate.step_rng_calls": n("simulate.step_rng"),
        "simulate.step_rng_s": t("simulate.step_rng"),
        "pricing.lower_bound_s": t("pricing.lower_bound"),
        "pricing.verify_subhedge_s": t("pricing.verify_subhedge"),
        "pricing.subhedge_path_steps": sub_steps,
        "pricing.subhedge_path_steps_per_s": _ratio(sub_steps, t("pricing.verify_subhedge")),
        "measures.implied_s": t("measures.implied"),
        "measures.empirical_s": t("measures.empirical"),
        "measures.ks_s": t("measures.ks"),
    }
    for layer in LAYERS:
        out[f"self.{layer}_s"] = sum(st for s, st in zip(local, selfs) if s.name.startswith(layer + "."))
    out["trace.run_s"] = t("run")
    out["trace.unattributed_s"] = unattributed(local)
    return out


def unattributed(spans: list[Span]) -> float:
    """Time of the "run" spans that no stage span directly under them covers."""
    total = 0.0
    for i, s in enumerate(spans):
        if s.name == "run":
            stages = [(c.start, c.end) for c in spans if c.parent == i and c.name.startswith("stage.")]
            total += s.duration - covered_length(stages, s.start, s.end)
    return total
