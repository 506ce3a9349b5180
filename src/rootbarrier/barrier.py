"""Stopping barriers: extraction from the obstacle solution and hit tests.

A barrier is a function R(x) >= 0 (with +inf allowed) such that the closed
region {(x, t): t >= R(x)} absorbs the space-time path (X_t, t).  The
region where the obstacle solution stays strictly above the obstacle is
the continuation region; its time-boundary is R.  Off the support of the
target law R is not determined by the embedding (any choice gives the same
stopping time), and we report the minimal choice R = 0 there.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .obstacle import ObstacleSolution

__all__ = ["Barrier", "GridIndex", "extract_barrier", "from_function", "hit_time",
           "save_barrier", "load_barrier"]

_SCAN_CELLS = 1 << 16    # grid cells per block of the contact scan
_INDEX_BINS = 1 << 16    # cap on the bin table of a GridIndex


class GridIndex:
    """np.searchsorted(x, s, side="right") in O(1) per state, exactly.

    A uniform bin table over [x[0], x[-1]] holds, per bin, the number of
    nodes in lower bins; `passes` steps of idx += s >= x[idx] then count
    the nodes of the state's own bin at or below it.  Nodes and states are
    binned by the same float expression, which is monotone in s, so the
    table never overcounts and the passes finish the count: the result is
    exact for every float, nodes, +-inf and NaN (sorted last) included.
    Bins are sized for at most two nodes each (bin width min x[i+2] - x[i]),
    up to the cap of _INDEX_BINS entries; on a grid too uneven for the cap
    `passes` grows.
    """

    def __init__(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        span = float(x[-1] - x[0])
        if not np.isfinite(span):
            raise ValueError("grid nodes must be finite")
        bins = 1
        if len(x) > 2:
            bins = math.ceil(min(span / float(np.min(x[2:] - x[:-2])), _INDEX_BINS))
        self.lo, self.scale, self.top = float(x[0]), bins / span if span > 0 else 1.0, bins + 1
        counts = np.bincount(self._bin(x), minlength=bins + 2)
        self.table = np.concatenate(([0], np.cumsum(counts[:-1])))
        self.passes = int(counts.max())
        self.x = np.append(x, np.nan)     # no state passes or equals the sentinel

    def _bin(self, s: np.ndarray) -> np.ndarray:
        # NaN and states past the grid land in the top bin, which no node shares
        u = np.subtract(s, self.lo, out=np.empty_like(s))
        u *= self.scale
        np.maximum(u, 0.0, out=u)
        return np.fmin(u, self.top, out=u).astype(np.intp)

    def __call__(self, states: np.ndarray) -> np.ndarray:
        s = np.asarray(states, dtype=float)
        idx = self.table[self._bin(s)]
        for _ in range(self.passes):
            idx += s >= self.x[idx]
        return idx


@dataclass(frozen=True)
class Barrier:
    """Lower semi-continuous stopping boundary tabulated on a grid.

    Between nodes the barrier is evaluated piecewise-constant taking the
    minimum of the two neighbouring values, which errs toward earlier
    stopping by at most one cell and preserves lower semi-continuity.
    Outside the grid R = 0 (immediate stopping).
    """

    x: np.ndarray
    R: np.ndarray
    horizon: float
    contact_tol: float = 0.0
    origin_time_positive: bool = True

    def __post_init__(self):
        if np.any(self.R < 0):
            raise ValueError("barrier values must be nonnegative")
        if np.any(np.diff(self.x) <= 0):
            raise ValueError("barrier grid must be strictly increasing")
        object.__setattr__(self, "_index", GridIndex(self.x))
        # cell-wise minima padded with the off-grid value 0 and indexed by
        # the number of nodes at or below a state, so a lookup is one
        # GridIndex call plus one gather (the hot path of every simulation)
        cells = np.minimum(self.R[:-1], self.R[1:])
        object.__setattr__(self, "_cell_floor", np.concatenate(([0.0], cells, [0.0])))
        ceil = np.maximum(self.R[:-1], self.R[1:])
        object.__setattr__(self, "_cell_ceil", np.concatenate(([0.0], ceil, [0.0])))

    def value_at(self, states: np.ndarray, exact_nodes: bool = True,
                 conservative: bool = True) -> np.ndarray:
        """R at arbitrary states: exact on nodes, min of neighbours between.

        exact_nodes=False skips the on-node correction (a.s. irrelevant for
        simulated states) and saves two gathers per call.  conservative=False
        takes the max of the bracketing nodes instead of the min, for
        callers that resolve narrow features (spikes of atomic targets) by
        an explicit crossing test rather than the cell floor.
        """
        s = np.asarray(states, dtype=float)
        idx = self._index(s)
        out = (self._cell_floor if conservative else self._cell_ceil)[idx]
        if exact_nodes:
            # left = -1 reads the index's NaN sentinel, which no state equals
            left = idx - 1
            out = np.where(s == self._index.x[left], self.R[left], out)
        return out

    def max_finite(self) -> float:
        finite = self.R[np.isfinite(self.R)]
        return float(np.max(finite)) if len(finite) else 0.0


def extract_barrier(
    sol: ObstacleSolution,
    contact_tol: Optional[float] = None,
    support: Optional[tuple[float, float]] = None,
) -> Barrier:
    """Read the barrier off the contact set of an obstacle solution.

    R(x_i) is the first grid time at which v(x_i, .) touches the obstacle
    within contact_tol (scaled by the local size of the obstacle); +inf if
    no contact occurs before the solver horizon.  Because v is
    non-increasing in time the resulting contact indicator is monotone and
    the extracted set is a genuine barrier.  Default contact_tol is
    10 * lcp_tol; outside the support of the target law R is set to 0.
    """
    x = sol.price_x
    if contact_tol is None:
        contact_tol = 10.0 * sol.cfg.lcp_tol
    tol_i = contact_tol * np.maximum(1.0, np.abs(sol.psi))
    # scan in row blocks: the contact matrix of the whole surface is never built
    first = np.full(len(x), -1)
    rows = max(1, _SCAN_CELLS // len(x))
    for j0 in range(0, len(sol.t), rows):
        contact = (sol.v[j0:j0 + rows] - sol.psi) <= tol_i
        new = (first < 0) & contact.any(axis=0)
        first[new] = j0 + contact[:, new].argmax(axis=0)
        if first.min() >= 0:
            break
    R = np.where(first >= 0, sol.t[first], np.inf)

    if support is None:
        support = sol.mu.support
    lo, hi = support
    pad = 1e-12 * max(1.0, abs(hi - lo))
    off = (x < lo - pad) | (x > hi + pad)
    R = np.where(off, 0.0, R)

    start = sol.nu.mean
    r_at_start = np.interp(start, x, np.where(np.isfinite(R), R, sol.t[-1] * 2))
    return Barrier(
        x=x,
        R=R,
        horizon=float(sol.t[-1]),
        contact_tol=float(contact_tol),
        origin_time_positive=bool(r_at_start > 0),
    )


def from_function(fn, x: np.ndarray, horizon: float) -> Barrier:
    """Tabulate a closed-form barrier function on a grid."""
    x = np.asarray(x, dtype=float)
    R = np.asarray(fn(x), dtype=float)
    R = np.where(R < 0, 0.0, R)
    return Barrier(x=x, R=R, horizon=float(horizon),
                   origin_time_positive=bool(np.interp(0.0, x, R) > 0))


def hit_time(barrier: Barrier, times: np.ndarray, states: np.ndarray) -> int:
    """Index of the first sample with t >= R(X_t), excluding the start.

    The infimum defining the stopping time runs over t > 0, so index 0 is
    never returned; if the path never enters the barrier the length of the
    path is returned and the caller decides how to treat the horizon.
    """
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    if len(times) != len(states):
        raise ValueError("times and states must align")
    r = barrier.value_at(states)
    hits = times >= r
    hits[0] = False
    if not hits.any():
        return len(times)
    return int(np.argmax(hits))


def save_barrier(b: Barrier, csv_path: str, meta_path: Optional[str] = None) -> None:
    """CSV `x,R` using the literal `inf` for never-stopping nodes."""
    with open(csv_path, "w") as fh:
        fh.write("x,R\n")
        for xi, ri in zip(b.x, b.R):
            fh.write(f"{xi:.12g},{'inf' if np.isinf(ri) else format(ri, '.12g')}\n")
    if meta_path:
        meta = {
            "contact-tol": b.contact_tol,
            "grid": {"lo": float(b.x[0]), "hi": float(b.x[-1]), "n": len(b.x)},
            "horizon": b.horizon,
            "origin_time_positive": b.origin_time_positive,
        }
        with open(meta_path, "w") as fh:
            json.dump(meta, fh, indent=2)


def load_barrier(csv_path: str, horizon: Optional[float] = None) -> Barrier:
    data = np.genfromtxt(csv_path, delimiter=",", skip_header=1)
    x, R = data[:, 0], data[:, 1]
    if horizon is None:
        finite = R[np.isfinite(R)]
        horizon = float(np.max(finite)) if len(finite) else 1.0
    return Barrier(x=x, R=R, horizon=horizon)
