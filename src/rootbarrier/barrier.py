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
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .obstacle import ObstacleSolution

__all__ = ["Barrier", "GridIndex", "extract_barrier", "from_function",
           "save_barrier", "load_barrier"]

_INDEX_BINS = 1 << 16    # cap on the bin table of a GridIndex


class GridIndex:
    """np.searchsorted(x, s, side="right") in O(1) per state, exactly.

    A uniform bin table over [x[0], x[-1]] holds, per bin, the number of
    nodes in lower bins; `passes` steps of idx += s >= x[idx] then count
    the nodes of the state's own bin at or below it.  Nodes and states are
    binned by the same float expression, which is monotone in s, so the
    table never overcounts and the passes finish the count: the result is
    exact for every float, nodes, +-inf and NaN (sorted last) included.
    Bins are half the narrowest cell wide, so no bin holds two nodes and
    one pass finishes the count, up to the cap of _INDEX_BINS entries; on
    a grid too uneven for the cap `passes` grows.
    """

    def __init__(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        span = float(x[-1] - x[0])
        if not np.isfinite(span):
            raise ValueError("grid nodes must be finite")
        bins = 1
        if len(x) > 1:
            bins = math.ceil(min(2.0 * span / float(np.min(np.diff(x))), _INDEX_BINS))
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
        idx = self.table.take(self._bin(s))
        for _ in range(self.passes):
            idx += s >= self.x.take(idx)
        return idx


@dataclass(frozen=True)
class Barrier:
    """Lower semi-continuous stopping boundary tabulated on a grid.

    R is exact on the nodes and, between two nodes, the larger of their
    two values: a cell closes when both of its nodes have closed.  The
    closed region {(x, t): t >= R(x)} is then the union of the closed
    node lines and cells, so R is lower semi-continuous (a node never
    reads above its cells).  A node that closes while both its cells are
    free (an atom of a discrete target, between never-stopping nodes) is
    a closed line of zero width inside the free section, which a path
    stops on only by crossing it.  Outside the grid R = 0 (immediate
    stopping).  x and R are 1-D arrays of one length, with at least one
    node; the nodes must be finite and R nonnegative; R = +inf (never
    stop) is allowed, NaN is not.  The horizon, the default end of a path
    batch, is a finite nonnegative real number.

    value_at looks R up per state.  A path loop instead asks, once per
    step, for the free section {x : R(x) > t} as sorted interval edges
    (free_edges) and decides stop or continue for every path against those
    edges (outside), which makes no grid lookup per path: the same decision
    as t >= value_at(states) between nodes, where a state on a node reads
    the cell to its right and a NaN state stops.
    """

    x: np.ndarray
    R: np.ndarray
    horizon: float

    def __post_init__(self):
        if np.ndim(self.x) != 1 or np.shape(self.x) != np.shape(self.R) or np.size(self.x) == 0:
            raise ValueError(f"barrier needs one value R per node x, at least one node, got "
                             f"{np.shape(self.x)} nodes and {np.shape(self.R)} values")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("barrier grid nodes must be finite")
        if not np.all(self.R >= 0):
            raise ValueError("barrier values must be nonnegative and not NaN")
        if np.any(np.diff(self.x) <= 0):
            raise ValueError("barrier grid must be strictly increasing")
        if not (isinstance(self.horizon, numbers.Real) and math.isfinite(self.horizon) and self.horizon >= 0):
            raise ValueError(f"barrier horizon must be finite and nonnegative, got {self.horizon!r}")
        object.__setattr__(self, "_index", GridIndex(self.x))
        # cell-wise maxima padded with the off-grid value 0 and indexed by
        # the number of nodes at or below a state, so a lookup is one
        # GridIndex call plus one gather; cell j covers [x_{j-1}, x_j)
        object.__setattr__(self, "_cells", np.concatenate(([0.0], np.maximum(self.R[:-1], self.R[1:]), [0.0])))

    def value_at(self, states: np.ndarray) -> np.ndarray:
        """R at arbitrary states: exact on nodes, the max of the two neighbours between."""
        s = np.asarray(states, dtype=float)
        idx = self._index(s)
        # left = -1 reads the index's NaN sentinel, which no state equals
        left = idx - 1
        return np.where(s == self._index.x[left], self.R[left], self._cells[idx])

    def free_edges(self, t: float) -> np.ndarray:
        """Sorted edges of the free section {x : R(x) > t} at a time t > 0.

        R is read cell-wise as in value_at between nodes; cells off the
        grid hold 0, so the section is a union of intervals [e_0, e_1),
        [e_2, e_3), ... bounded by nodes, and there is an even number of
        edges.  A closed node between two free cells is an edge twice, so
        that two intervals meet at it: a path that moves from one to the
        other crossed it.  The section shrinks as t grows: it is the
        continuation region of the time-t slice.
        """
        free = self._cells > t
        return np.repeat(self.x, (free[1:] != free[:-1]) + 2 * ((self.R <= t) & free[:-1] & free[1:]))

    def _first_close(self, states: np.ndarray) -> np.ndarray:
        """When the first node around each state closes: R on a node, the smaller of two between, 0 off the grid."""
        R = np.append(self.R, 0.0)      # index -1 (below the grid) and len(x) (above) read 0
        return np.minimum(R[self._index(states) - 1], R[np.searchsorted(self.x, states)])


def outside(edges: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Whether each state lies off the intervals [e_0, e_1), [e_2, e_3), ... of sorted edges.

    One interval is two comparisons per state and more take a binary
    search over the edges; a NaN state lies off every interval, and every
    state lies off an empty list of edges.
    """
    s = np.asarray(states, dtype=float)
    if len(edges) == 2:
        inside = s >= edges[0]
        return ~np.logical_and(inside, s < edges[1], out=inside)
    # inside iff an odd number of edges lie at or below the state; with no
    # edges that number is 0, and NaN sorts above every edge
    return (np.searchsorted(edges, s, side="right") & 1) == 0


def extract_barrier(sol: ObstacleSolution) -> Barrier:
    """Read the barrier off the contact set of an obstacle solution.

    R(x_i) is the grid time of sol.contact_step[i], the first step at which
    v(x_i, .) touches the obstacle (within obstacle.CONTACT_REL * lcp_tol,
    scaled by the local size of the obstacle); +inf if no contact occurs
    before the march stopped, that is before the horizon or before the
    closed nodes carried the target law.  Because v is non-increasing in
    time the contact indicator is monotone and the extracted set is a
    genuine barrier.  Outside the support of the target law R is set to 0.
    The horizon is the configured one, sol.cfg.horizon, wherever the march
    stopped.
    """
    x = sol.price_x
    R = np.where(sol.contact_step >= 0, sol.t[sol.contact_step], np.inf)
    lo, hi = sol.mu.support
    pad = 1e-12 * max(1.0, abs(hi - lo))
    off = (x < lo - pad) | (x > hi + pad)
    R = np.where(off, 0.0, R)
    return Barrier(x=x, R=R, horizon=float(sol.cfg.horizon))


def from_function(fn, x: np.ndarray, horizon: float) -> Barrier:
    """Tabulate a closed-form barrier function on a grid."""
    x = np.asarray(x, dtype=float)
    R = np.asarray(fn(x), dtype=float)
    R = np.where(R < 0, 0.0, R)
    return Barrier(x=x, R=R, horizon=float(horizon))


def save_barrier(b: Barrier, csv_path: str, meta_path: Optional[str] = None) -> None:
    """CSV `x,R` using the literal `inf` for never-stopping nodes."""
    np.savetxt(csv_path, np.column_stack([b.x, b.R]), fmt="%.12g", delimiter=",",
               header="x,R", comments="")
    if meta_path:
        meta = {
            "grid": {"lo": float(b.x[0]), "hi": float(b.x[-1]), "n": len(b.x)},
            "horizon": b.horizon,
        }
        with open(meta_path, "w") as fh:
            json.dump(meta, fh, indent=2)


def load_barrier(csv_path: str, horizon: Optional[float] = None) -> Barrier:
    """Read an `x,R` CSV; a cell that is not a number is a ValueError."""
    data = np.genfromtxt(csv_path, delimiter=",", skip_header=1, ndmin=2)
    if data.shape[1] != 2 or len(data) == 0:
        raise ValueError(f"{csv_path}: expected rows of x,R")
    x, R = data[:, 0], data[:, 1]
    if horizon is None:
        finite = R[np.isfinite(R)]
        horizon = float(np.max(finite)) if len(finite) else 1.0
    return Barrier(x=x, R=R, horizon=horizon)
