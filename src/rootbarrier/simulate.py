"""Path simulation: stopped diffusions, price models, empirical diagnostics.

Every time-stepped batch is advanced by one stepping loop, `_walk`; the
batches differ only in the pieces they hand it: a state update, a
stopping rule and per-step observers.  Paths are advanced in a single
streaming pass that keeps no per-step states, so memory stays linear in
the number of paths for million-path runs; X_{t ^ tau} at a time t is the
batch stopped at the horizon t.

Step k draws from the counter-based generator step_rng(seed, k), one
normal per path that it moves: the running paths in their order, then
the paths that land from a park (below) in the order in which they
parked.  So a draw belongs to a path's rank among the paths moved at
that step, not to the path.  Step 0 draws the start states, in amounts
that depend on n.  A batch is therefore bit-identical for a fixed
(seed, n), but a slice of its paths run on its own gets other draws;
streams keyed so that a batch can be split are ROADMAP.md item 11.

A plain Brownian batch skips the steps of the paths far from the
barrier.  Root's closed set only grows in time, so a path at step k
that lies deep enough inside its interval of the free section at step
k + p (the margin of _PARK_MARGIN) leaves it at one of the samples in
between with probability below 2^-53.  The path then parks: it is
neither drawn nor tested until step k + p, and there draws one normal
of variance p dt.  Parks last _PARK_BASE 2^j steps and start at the
steps they divide.  A step that moves no path builds no generator.  Geometric batches (whose log
walk drifts), spiked batches and batches with observers draw every
step.

While step k runs, the normals of steps k + 1 and k + 2 may be drawn
ahead on two worker threads, whose fills release the GIL and so run on
other cores: step k submits step k + 2's fill, one normal per path
drawn at step k, into one of three buffers that the walk allocates
once.  Step j reads the prefix it needs, as long as the paths it moves.
A generator's first m normals do not depend on how many it draws, so
the bits are those of drawing exactly m, on any number of cores; the
cost is at most two unused normals per path, for the paths that stop at
step j - 1 or j - 2.  A step draws ahead only when no path is parked or
can still park, its stopping rule draws nothing after the normals (its
`draws` is False; otherwise the extra normals would move its uniforms)
and at least _PREFETCH_MIN paths draw at it.

Stopping against a barrier is a check of t >= R(X_t) at every sample.
At the sample time t_k the check asks only whether X lies in the
barrier's free section {x : R(x) > t_k}, which is taken once per step as
sorted interval edges (Barrier.free_edges); every running path is then
tested against those edges, with no barrier lookup per path.  A path
that leaves the free section between two samples and comes back is
missed by that check, which stops paths late by O(sqrt(dt)).  The
continuity correction of Broadie, Glasserman & Kou (1997) removes the
leading term of that lateness at no cost per path: each edge e moves
into the free section by _BGK sigma(e) sqrt(dt) before the test, so
that the samples see the section a continuously watched path would.
Batches with spikes (atomic targets) instead keep the free section as
it is and test each armed spike by its Brownian bridge (spike_crossings).

The competitor embedding, which stops Brownian motion on leaving a random
interval, takes no time steps: `hall_competitor` draws each exit exactly
by a walk on spheres (Muller 1956), with round k drawing from
step_rng(seed, k).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np
from scipy.special import erfc, erfcinv, expit

from .measures import Measure
from .barrier import Barrier, outside
from .obstacle import DiffusionSpec, geometric_brownian

__all__ = [
    "PathBatch",
    "PriceModel",
    "simulate_stopped",
    "simulate_price_model",
    "hall_competitor",
    "ks_statistic",
    "ks_critical_value",
]


# paths drawn at a step from which the next two steps' normals are drawn
# ahead, which a step does only while no path is parked or can still park.
# Microseconds per step of a stopped walk in which every path runs (R = 1,
# dt 1e-3), inline -> two ahead, by tools/draw_ahead_crossover.py on a
# 2-core Xeon; the ranges are over runs, and a run whose workers share a
# core with the walk reads at the slow end:
#   1e3 paths  42-73 -> 65-152      1e4 paths  192-386 -> 160-294
#   4e3 paths  95-154 -> 110-194    2e4 paths  381-624 -> 266-535
#   8192 paths 160-339 -> 147-251   6e5 paths  12,300-17,000 -> 7,000-10,000
# Below 2e4 paths the gain is unsure, and it is a loss where observers do
# most of a step's work: one verify_subhedge of the dense market at 1e4
# paths took 0.368 s inline and 0.408 s ahead (medians of 8 each).
_PREFETCH_MIN = 1 << 14


def step_rng(seed: int, step: int) -> np.random.Generator:
    """Independent generator for one time step of one batch."""
    return np.random.Generator(
        np.random.Philox(seed=np.random.SeedSequence(entropy=(int(seed), int(step))))
    )


@dataclass(frozen=True)
class PathBatch:
    """Stopped-path sample: stopping times, stopped values, diagnostics."""

    n: int
    dt: float
    horizon: float
    seed: int
    stop_times: np.ndarray
    stopped_values: np.ndarray
    horizon_mass: float = 0.0
    realized_variance: Optional[np.ndarray] = None
    diagnostics: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "n": self.n,
            "dt": self.dt,
            "seed": self.seed,
            "mean-tau": float(np.mean(self.stop_times)),
            "horizon-mass": self.horizon_mass,
            **{k: v for k, v in self.diagnostics.items()
               if isinstance(v, (int, float, str, bool))},
        }


@dataclass(frozen=True)
class PriceModel:
    """Price dynamics dS/S = r dt + sigma dW with deterministic rates.

    vol: a constant, or (breakpoints, values) for a piecewise-constant
    process in time, or the barrier time-change construction (kind
    "time-change-to-barrier") that attains the variance-option bound.
    """

    kind: str                   # "constant" | "piecewise" | "time-change-to-barrier"
    s0: float
    maturity: float
    vol: Union[float, tuple] = 0.2
    rate: Union[float, tuple] = 0.0
    barrier: Optional[Barrier] = None
    # atomic targets stop on vertical spike lines of zero width, which no
    # sample lands on; the walk tests each armed spike by its Brownian
    # bridge instead, and takes no continuity correction for such a batch
    spikes: Optional[tuple] = None      # (locations, arming times)


def _piecewise_at(spec: Union[float, tuple], t: float) -> float:
    """A constant, or (breakpoints, values) right-continuous in time, at a time t."""
    if isinstance(spec, tuple):
        bp, vals = spec
        return np.asarray(vals)[min(np.searchsorted(bp, t, side="right"), len(vals) - 1)]
    return float(spec)


# -- the stepping kernel ----------------------------------------------------------

@dataclass
class _Step:
    """One time step, as the stopping rule and the observers see it."""

    k: int
    dt: float
    ids: np.ndarray | slice         # batch indices of the paths that took the step; slice(None) while all run, if none can park
    x_old: np.ndarray
    x_new: np.ndarray               # a stopping rule moves hit paths to their stop value
    dlog: Optional[np.ndarray]      # log return of the price over a geometric step
    g: np.random.Generator          # the step's generator, its normals (and maybe more) drawn


class _WalkResult(NamedTuple):
    stop_times: np.ndarray
    stopped_values: np.ndarray
    horizon_mass: float
    n_steps: int
    path_steps: int         # steps of the paths that ran, each counted until the path stopped
    normals: int            # normals the steps read, one per path drawn at a step


class _Normals:
    """Each step's generator and normals, the next two steps' drawn ahead on pool for big batches."""

    def __init__(self, seed: int, n_steps: int, pool: Optional[ThreadPoolExecutor]):
        self.seed, self.n_steps, self.pool = seed, n_steps, pool
        self.bufs = None
        self.pending = {}       # step -> (generator, fill, buffer)

    def draw(self, k: int, m: int, ahead: bool) -> tuple[Optional[np.random.Generator], Optional[np.ndarray]]:
        """Step k's generator and its first m normals, for the m paths drawn at step k.

        A step that draws nothing gets (None, None) and builds no
        generator.  Step k has m normals of steps k + 1 and k + 2 drawn
        ahead on the pool only when ahead is True (no path is parked or
        can still park, so no later step draws more than m), there is a
        pool (the stopping rule draws nothing after the normals) and m is
        at least _PREFETCH_MIN.
        """
        g = z = None
        if k in self.pending:
            g, fill, buf = self.pending.pop(k)
            fill.result()
            z = buf[:m]
        elif m:
            g = step_rng(self.seed, k)
            z = g.standard_normal(m)
        if ahead and self.pool is not None and m >= _PREFETCH_MIN:
            if self.bufs is None:
                self.bufs = (np.empty(m), np.empty(m), np.empty(m))
            for j in range(k + 1, min(k + 2, self.n_steps) + 1):
                if j not in self.pending:
                    buf = self.bufs[j % 3]      # z, if drawn ahead, is in bufs[k % 3]
                    g_j = step_rng(self.seed, j)    # on this thread: perfbench wraps step_rng
                    self.pending[j] = (g_j, self.pool.submit(g_j.standard_normal, out=buf[:m]), buf)
        return g, z

    def drain(self) -> None:
        """Wait for the draws that no step read, and raise what any of their fills raised."""
        for _, fill, _ in self.pending.values():
            fill.result()


def _check_paths(n, dt) -> None:
    """Reject a path count or time step before any draw or allocation."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be a positive whole number of paths, got {n!r}")
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be a positive finite time step, got {dt!r}")


def _walk(n, dt, seed, steps, start, move, stop=None, observers=()) -> _WalkResult:
    """Advance n paths by up to steps(dt) time steps: the one stepping loop.

    n and dt are checked before any draw or allocation, so every entry
    point rejects them with the same ValueError.  start(g) returns the
    start states, drawn from the step-0 generator.  Step k draws one
    standard normal per path it moves from step_rng(seed, k) and moves the
    paths with move(x, z, k, dt), which returns the new states and, for a
    geometric step, the log returns.  The stopping rule (None or a
    _TimeBarrier) names the paths running at time 0 through
    stop.start(x0) and then marks which running paths stop; they stop
    at k dt at their state after the step, and drop out of later steps.
    Observers are started with obs.start(x0, n_steps, dt) and see every
    step after the stopping rule, in the order given; a step's `ids` is
    slice(None) while every path runs, a basic slice in place of a
    gather of arange(n).
    Paths still running at the end keep the last step time as a sentinel
    stopping time and make up the horizon mass.

    A walk with no observers whose stopping rule parks paths (its `parks`
    is True: a plain Brownian batch) moves only the paths near the
    barrier at each step.  At every step k that _PARK_BASE divides (k = 0
    included), stop.park gives each path still running the steps p it may
    skip; such a path is parked, neither drawn, moved nor tested, until
    step k + p, where it draws one normal, scaled by sqrt(p), and joins
    that step's test with its parked state as x_old.  Each step's normals
    go to the paths moving on in their order and then to the paths
    landing, in the order in which they were parked; a step that moves no
    path builds no generator.

    Step k draws ahead only when no path is parked or can still park, the
    stopping rule draws nothing after the normals and at least
    _PREFETCH_MIN paths are drawn at it.  It then builds
    step_rng(seed, k + 2) (and step_rng(seed, k + 1), if that is not yet
    in flight) on this thread and has one of two worker threads fill one
    of three buffers with one normal per path drawn at step k.  This runs
    while step k moves, stops, observes and compacts; step k + 2 takes the
    prefix of its length, since from step k on no path lands and the
    running paths only shrink.  The draws, and so the bits, are the same
    as without it.  Draws that no step reads, because the paths ran out,
    are awaited and dropped, and the workers are joined before the walk
    returns.
    """
    _check_paths(n, dt)
    n_steps = steps(dt)
    g0 = step_rng(seed, 0)
    x0 = np.asarray(start(g0), dtype=float)
    live = np.ones(n, dtype=bool) if stop is None else stop.start(x0)
    for obs in observers:
        obs.start(x0, n_steps, dt)
    tau = np.where(live, n_steps * dt, 0.0)
    val = x0.copy()
    ids = np.flatnonzero(live)
    x = x0[ids]     # the hot loop works on compacted state, not full-size fancy indexing
    may_park = stop is not None and getattr(stop, "parks", False) and not observers
    parked = {}     # landing step -> [(batch indices, parked states, steps parked)] in park order
    if may_park:
        ids, x = _park(stop, parked, ids, x, 0, dt, n_steps)

    k = drawn = 0
    # the pool starts its threads at the first draw ahead; leaving the block joins them
    with ThreadPoolExecutor(max_workers=2) as pool:
        normals = _Normals(seed, n_steps, pool if stop is None or not stop.draws else None)
        while k < n_steps and (len(ids) or parked):
            k += 1
            landing = parked.pop(k, ())
            moving = len(ids)
            if landing:
                ids = np.concatenate([ids, *(c[0] for c in landing)])
                x = np.concatenate([x, *(c[1] for c in landing)])
            m = len(ids)
            g, z = normals.draw(k, m, not parked and not (may_park and stop.parks))
            if not m:
                continue
            drawn += m
            for c_ids, _, p in landing:
                z[moving:moving + len(c_ids)] *= math.sqrt(p)
                moving += len(c_ids)
            x_new, dlog = move(x, z, k, dt)
            s = _Step(k, dt, ids if len(ids) < n or may_park else slice(None), x, x_new, dlog, g)
            hit = None if stop is None else stop(s)
            for obs in observers:
                obs(s)
            if hit is not None and hit.any():
                tau[ids[hit]] = k * dt
                val[ids[hit]] = x_new[hit]
                x_new, ids = x_new[~hit], ids[~hit]
            x = x_new
            if may_park and k % _PARK_BASE == 0 and stop.parks:
                ids, x = _park(stop, parked, ids, x, k, dt, n_steps)
        normals.drain()
    val[ids] = x    # horizon sentinel paths keep their current state
    return _WalkResult(tau, val, len(ids) / n if stop is not None else 0.0, n_steps,
                       int(np.rint(tau / dt).sum()), drawn)


def _deep_inside(edges: np.ndarray, states: np.ndarray, r: float) -> np.ndarray:
    """Whether each state lies r or more inside one of the intervals [e_0, e_1), [e_2, e_3), ...

    No edge then lies within r of the state, and an odd number lie below it.
    """
    if len(edges) == 2:
        return np.minimum(states - edges[0], edges[1] - states) >= r
    below = np.searchsorted(edges, states - r, side="right")
    return (below == np.searchsorted(edges, states + r, side="left")) & ((below & 1) == 1)


def _park(stop, parked: dict, ids: np.ndarray, x: np.ndarray, k: int, dt: float, n_steps: int):
    """Park the paths that stop.park lets skip steps after step k; return the others."""
    chunks = stop.park(x, k, dt, n_steps)
    if not chunks:
        return ids, x
    stay = np.ones(len(x), dtype=bool)
    for steps, i in chunks:
        parked.setdefault(k + steps, []).append((ids[i], x[i], steps))
        stay[i] = False
    return ids[stay], x[stay]


def _divides(dt: float, horizon: float) -> bool:
    """Whether whole steps of dt end at the horizon, to 1e-9 relative."""
    return abs(round(horizon / dt) * dt - horizon) <= 1e-9 * max(1.0, horizon)


def _steps_to(horizon: float, dt: float) -> int:
    """Steps of dt that reach the horizon; one more when it is off the step grid."""
    return int(round(horizon / dt)) if _divides(dt, horizon) else int(math.ceil(horizon / dt))


def _additive(sigma):
    """Euler step of dX = sigma(X) dW, exact for constant sigma."""
    return lambda x, z, k, dt: (x + sigma(x) * math.sqrt(dt) * z, None)


def _geometric(vol=1.0, rate=None):
    """Exact log-normal step at the volatility of the step's start.

    vol and rate are PriceModel specs, read by _piecewise_at.  The log
    returns are those of the undiscounted price: the discounted step plus
    rate(t) dt.
    """
    def move(x, z, k, dt):
        t0 = (k - 1) * dt
        sig = _piecewise_at(vol, t0)
        dlog = sig * math.sqrt(dt) * z - 0.5 * sig * sig * dt
        return x * np.exp(dlog), dlog if rate is None else dlog + _piecewise_at(rate, t0) * dt
    return move


def _diffusion_move(diff: DiffusionSpec):
    return _geometric() if diff.geometric else _additive(diff.sigma)


# The square of the half-width m of the log-price zone around each armed
# spike, in units of dt: m = sqrt(_SPIKE_ZONE dt).  A path whose old and
# new log states lie in one gap between the merged zones has, for every
# armed spike, both ends on the same side and at least m away, so a b >=
# 25 dt and the bridge probability exp(-2 a b / dt) <= e^-50 < 2^-53; the
# three candidates together stay below 2^-53 too.  A positive uniform is a
# multiple of 2^-53 and so never selects such a spike: only u == 0 could,
# and those paths are always tested.  Unarmed spikes carry probability 0.
# The zone is not a setting: any width past this bound gives the same hits.
_SPIKE_ZONE = 25.0

# Broadie, Glasserman & Kou (1997): a level watched only every dt is first
# reached like a continuously watched one moved away from the paths by
# beta sigma sqrt(dt), beta = -zeta(1/2) / sqrt(2 pi) = 0.5826; so the walk
# watches each free-section edge moved toward the paths by as much.
_BGK = 0.5826

# The margin of a parked path, in units of sigma^2 times its park: a path
# parks for p steps only if its distance d to the edges of its own
# interval of the shifted free section at the park's end has d^2 >=
# _PARK_MARGIN p sigma^2 dt.  Root's closed set only grows in time, so
# that interval lies inside the path's interval at every step of the park;
# by Levy's inequality and the Gaussian tail the path leaves it at some
# sample with probability at most 2 exp(-d^2 / (2 p sigma^2 dt)) <=
# 2 e^-37.5 = 1.04e-16 < 2^-53, and its p steps then have the law of one
# normal step of variance p dt, to round-off (the walk on moving spheres
# of Deaconu & Herrmann 2013).  Like _SPIKE_ZONE, it is not a setting.
_PARK_MARGIN = 75.0

# The shortest park, in steps: a path parks at a step k that it divides,
# for the largest p = _PARK_BASE 2^j that divides k.  Timed on the
# 6e5-path parabola round trip at dt 1e-2 with a numpy model of the walk
# on a 2-core Xeon: a base of 1, 2 or 4 took 5.7, 3.8 and 3.0 s against
# 2.8 s for the walk that parks nothing, while a base of 8 parks no path
# there (it would need d >= 2.45 in a section at most 5 wide).
_PARK_BASE = 8


class _TimeBarrier:
    """Stop at the first sample with t >= R(X_t), corrected for the time between samples.

    At each step t_k = k dt the barrier's free section {x : R(x) > t_k} is
    taken once as sorted interval edges, and every running path is tested
    against those edges (barrier.outside), not looked up on the grid.
    Without spikes, each edge e first moves into its interval by _BGK
    sigma(e) sqrt(dt), sigma the diffusion coefficient of the paths, and
    an interval that closes is dropped (the continuity correction of
    Broadie, Glasserman & Kou 1997); a path also stops when its new state
    lies in another interval than its old one, since it crossed the
    closed set between them.  That is how a path stops at a closed node
    of zero width (an interior atom), whose shifted edges leave a gap
    2 _BGK sigma sqrt(dt) wide.  With spikes (locations, arming
    times), the edges stay where they are, and paths also stop where the
    bridge test sees an armed spike touched between samples, at the
    spike.  The log states of the running paths are carried from step to
    step for that test.

    Every step draws one uniform per running path, but only the paths
    that can reach an armed spike go to spike_crossings: those with an end
    in a zone [l - m, l + m] around an armed log location l, m =
    sqrt(_SPIKE_ZONE dt), or with the two ends in different gaps between
    the merged zones, or with u == 0.  Every other path would get no hit
    from the full test (see _SPIKE_ZONE), so the hits are the same.  The
    zones are rebuilt only at the steps that arm another spike.  Each
    running path's place among the zone ends is carried from step to step
    next to its log state, and recomputed only when the zones are rebuilt.
    spike_path_steps counts the path steps sent to the test.
    """

    def __init__(self, barrier: Barrier, sigma, spikes: Optional[tuple] = None, additive: bool = False):
        # sigma, the paths' diffusion coefficient, is read only without spikes;
        # the spike test draws uniforms after the normals
        self.barrier, self.sigma, self.spikes, self.draws = barrier, sigma, spikes, spikes is not None
        # paths of an additive move with a constant sigma (a scalar, by
        # DiffusionSpec's convention) may park, until the sections get too narrow
        self.parks = additive and spikes is None and np.ndim(sigma(barrier.x)) == 0

    def start(self, x0):
        # starts already inside the barrier stop at once (closed, regular set)
        live = self.barrier.value_at(x0) > 0.0
        if self.spikes is not None:
            at, arm = self.spikes
            # one sentinel left and two right, never armed, so that the
            # candidates j_r - 1, j_r and j_r + 1 index the padded arrays
            self.l_spike = np.pad(np.log(at), (1, 2), mode="edge")
            self.arm = np.pad(np.asarray(arm, dtype=float), (1, 2), constant_values=np.inf)
            self.l_x = np.log(x0[live])
            self.g_x = np.zeros(len(self.l_x), dtype=np.intp)
            self.arm_sorted = np.sort(self.arm)
            self.n_armed, self.zones = 0, np.empty(0)
            self.spike_path_steps = 0
        return live

    def _near(self, t, dt, l_new, u) -> np.ndarray:
        """Indices of the running paths that an armed spike could stop in this step."""
        n_armed = int(np.searchsorted(self.arm_sorted, t, side="right"))
        if n_armed != self.n_armed:
            # armed log locations are sorted, so the zone ends are too
            m = math.sqrt(_SPIKE_ZONE * dt)
            lk = self.l_spike[t >= self.arm]
            lo, hi = lk - m, lk + m
            opens = np.concatenate(([True], lo[1:] > hi[:-1]))     # a zone apart from the last
            closes = np.concatenate((opens[1:], [True]))
            self.n_armed, self.zones = n_armed, np.column_stack((lo[opens], hi[closes])).ravel()
            self.g_x = np.searchsorted(self.zones, self.l_x)
        far = u != 0.0
        if len(self.zones):
            # an even count of zone ends below a state puts it in a gap
            g_new = np.searchsorted(self.zones, l_new)
            far &= self.g_x == g_new
            far &= (self.g_x & 1) == 0
            self.g_x = g_new
        return np.flatnonzero(~far)

    def _edges(self, t: float, dt: float) -> np.ndarray:
        """Edges of the free section at t, each moved into its interval by _BGK sigma sqrt(dt)."""
        e = self.barrier.free_edges(t).reshape(-1, 2)
        e = e + np.multiply([1.0, -1.0], _BGK * math.sqrt(dt) * self.sigma(e))
        return e[e[:, 0] < e[:, 1]].ravel()

    def park(self, x: np.ndarray, k: int, dt: float, n_steps: int) -> list:
        """(p, indices) for the states at step k that may skip p steps (see _PARK_MARGIN).

        Each state parks for the largest p = _PARK_BASE 2^j that divides
        k, ends by n_steps and keeps it r = sqrt(_PARK_MARGIN p dt) sigma
        or more inside its interval of the shifted free section at step
        k + p.  A state that fails for p fails for 2 p too, since the
        sections shrink, so each longer park tests only the states that
        passed the last.  Once no interval at step k + _PARK_BASE is 2 r
        wide, no later step can park either, and `parks` turns False.
        """
        steps, sd = _PARK_BASE, math.sqrt(_PARK_MARGIN * dt) * float(self.sigma(x))
        e = self._edges((k + steps) * dt, dt) if k + steps <= n_steps else np.empty(0)
        if not (len(e) and np.max(e[1::2] - e[::2]) >= 2.0 * sd * math.sqrt(steps)):
            self.parks = False
            return []
        chunks, cand = [], np.flatnonzero(_deep_inside(e, x, sd * math.sqrt(steps)))
        while len(cand) and k % (2 * steps) == 0 and k + 2 * steps <= n_steps:
            deep = _deep_inside(self._edges((k + 2 * steps) * dt, dt), x[cand], sd * math.sqrt(2 * steps))
            chunks.append((steps, cand[~deep]))
            cand, steps = cand[deep], 2 * steps
        chunks.append((steps, cand))
        self.parks = k + 2 * _PARK_BASE <= n_steps     # whether the next park step can park
        return [(p, i) for p, i in chunks if len(i)]

    def __call__(self, s: _Step) -> np.ndarray:
        t = s.k * s.dt
        if self.spikes is None:
            e = self._edges(t, s.dt)
            if len(e) <= 2:
                return outside(e, s.x_new)
            # odd counts of edges at or below a state are the intervals; a path
            # that left its old state's interval crossed the closed set between
            new, old = (np.searchsorted(e, x, side="right") for x in (s.x_new, s.x_old))
            return (new & 1 == 0) | (old & 1 == 1) & (old != new)
        hit = outside(self.barrier.free_edges(t), s.x_new)
        at = self.spikes[0]
        l_new = np.log(s.x_new)
        u = s.g.random(len(s.x_new))
        near = self._near(t, s.dt, l_new, u)
        self.spike_path_steps += len(near)
        if len(near):
            sp_hit, which = spike_crossings(s.x_old[near], self.l_x[near], l_new[near], t, s.dt,
                                            at, self.l_spike, self.arm, u[near])
            # the spike is touched en route, before the endpoint region
            s.x_new[near[sp_hit]] = at[which[sp_hit]]
            hit[near[sp_hit]] = True
        self.l_x, self.g_x = l_new[~hit], self.g_x[~hit]
        return hit


class _RealizedVariance:
    """Observer: accumulated squared log returns of the price."""

    def start(self, x0, n_steps, dt):
        self.values = np.zeros(len(x0))

    def __call__(self, s: _Step) -> None:
        self.values[s.ids] += s.dlog ** 2


# -- stopped diffusion ---------------------------------------------------------

def simulate_stopped(
    diff: DiffusionSpec,
    nu: Measure,
    barrier: Barrier,
    n: int,
    dt: float,
    seed: int,
    horizon: Optional[float] = None,
) -> PathBatch:
    """Euler-Maruyama paths of dX = sigma(X) dW stopped at the barrier.

    Gaussian increments are exact for constant sigma; the geometric case is
    simulated exactly in log space.  Paths still running at the horizon are
    assigned the horizon as a sentinel stopping time and reported in
    horizon_mass (with a warning flag above 1%).  The diagnostics also give
    path_steps, the steps the paths took until they stopped, and normals,
    the normals drawn: fewer than path_steps where Brownian paths parked
    far from the barrier (see _walk).
    """
    if horizon is None:
        horizon = barrier.horizon
    elif not (math.isfinite(horizon) and horizon >= 0):
        raise ValueError(f"horizon must be finite and nonnegative, got {horizon!r}")

    w = _walk(n, dt, seed, lambda dt: _steps_to(horizon, dt), lambda g: nu.sample(n, g),
              _diffusion_move(diff), _TimeBarrier(barrier, diff.sigma, additive=not diff.geometric))
    return PathBatch(
        n=n, dt=dt, horizon=float(w.n_steps * dt), seed=seed,
        stop_times=w.stop_times, stopped_values=w.stopped_values,
        horizon_mass=w.horizon_mass,
        diagnostics={"horizon-warning": bool(w.horizon_mass > 0.01),
                     "path_steps": w.path_steps, "normals": w.normals},
    )


# -- price models ---------------------------------------------------------------

def simulate_price_model(
    model: PriceModel,
    n: int,
    dt: float,
    seed: int,
) -> PathBatch:
    """Discounted price paths and pathwise realized variance.

    Returns the terminal discounted price X_T = B_T^{-1} S_T in
    stopped_values and the accumulated squared log returns of S in
    realized_variance.  For the barrier time-change construction the paths
    are generated in the variance clock (quadratic variation is invariant
    under the time change, and the terminal value is the stopped value).
    """
    return _price_batch(model, n, dt, seed, _RealizedVariance())


def _price_batch(model: PriceModel, n: int, dt: float, seed: int,
                 rv: _RealizedVariance, before: tuple = ()) -> PathBatch:
    """simulate_price_model with its variance observer rv in the open.

    The observers in `before` see each step ahead of rv, so they read the
    variance accrued up to the start of the step.
    """
    if model.kind in ("constant", "piecewise"):
        def steps(dt):
            if not _divides(dt, model.maturity):
                raise ValueError(f"dt {dt!r} does not divide the maturity {model.maturity!r}")
            return int(round(model.maturity / dt))

        move, stop = _geometric(model.vol, model.rate), None
    elif model.kind == "time-change-to-barrier":
        b = model.barrier
        if b is None:
            raise ValueError("time-change model needs a barrier")
        steps = lambda dt: _steps_to(b.horizon, dt)
        # the variance clock runs dS = S dW
        move, stop = _geometric(), _TimeBarrier(b, geometric_brownian().sigma, model.spikes)
    else:
        raise ValueError(f"unknown price model kind {model.kind!r}")
    w = _walk(n, dt, seed, steps, lambda g: np.full(n, float(model.s0)), move, stop, (*before, rv))
    if stop is None:
        return PathBatch(
            n=n, dt=dt, horizon=model.maturity, seed=seed,
            stop_times=np.full(n, model.maturity),
            stopped_values=w.stopped_values, realized_variance=rv.values,
            diagnostics={"kind": model.kind},
        )
    diagnostics = {"kind": model.kind, "horizon-warning": bool(w.horizon_mass > 0.01)}
    if model.spikes is not None:
        diagnostics["spike_path_steps"] = stop.spike_path_steps
    return PathBatch(
        n=n, dt=dt, horizon=float(w.n_steps * dt), seed=seed,
        stop_times=w.stop_times, stopped_values=w.stopped_values,
        realized_variance=rv.values, horizon_mass=w.horizon_mass, diagnostics=diagnostics,
    )


def spike_crossings(x_old, l_old, l_new, t_k, dt, spike_x, l_spike, arm, u):
    """Bridge test for touching an armed vertical spike between samples.

    Works in log coordinates (the step is exponential): l_old and l_new
    are the logs of x_old and of the new states.  l_spike and arm are the
    log locations and arming times of the sorted spikes spike_x, padded
    with one entry on the left and two on the right whose arming time is
    +inf.  The candidates are the spikes bracketing the start point plus
    the next one out; straddled spikes are certain crossings, same-side
    near misses carry the exp(-2 a b / dt) bridge probability.  A single
    uniform selects among candidates, whose combined probability is
    ~disjoint for steps smaller than the spike spacing.  Returns (hit
    mask, spike index).

    The test is elementwise: a path's answer does not depend on the other
    paths passed with it, so a caller may pass only the paths that can be
    hit.  _TimeBarrier passes those near an armed spike (see _SPIKE_ZONE).
    """
    n = len(x_old)
    hit = np.zeros(n, dtype=bool)
    which = np.zeros(n, dtype=int)
    j_r = np.searchsorted(spike_x, x_old, side="right")
    acc = np.zeros(n)
    for jj in (j_r, j_r + 1, j_r + 2):     # j_r - 1, j_r and j_r + 1 in the padded arrays
        valid = (t_k >= arm[jj]) & ~hit
        if not valid.any():
            continue
        lk = l_spike[jj]
        a = lk - l_old
        bb = lk - l_new
        with np.errstate(over="ignore"):
            p = np.where(a * bb <= 0.0, 1.0, np.exp(-2.0 * a * bb / dt))
        p = np.where(valid, p, 0.0)
        cross = (u >= acc) & (u < acc + p)
        acc = acc + p
        hit |= cross
        which[cross] = jj[cross] - 1
    return hit, which


# -- competitor embedding --------------------------------------------------------

def hall_competitor(mu: Measure, n: int, dt: float, seed: int) -> PathBatch:
    """Alternative embedding of mu: exit from an independent random interval.

    For a target with mean m, draw (R, S) with R < m < S from the classical
    two-sided mixture whose exit distribution reproduces mu exactly, then
    stop Brownian motion started at m on leaving (R, S).  The embedding is
    uniformly integrable with E tau = Var(mu); it differs from the barrier
    embedding and so serves as a competitor in optimality comparisons.
    The target must be normal or atomic (ValueError otherwise).

    The exits are drawn exactly, with no time steps, by a walk on spheres
    (Muller 1956).  From x in (R, S), with r the distance to the nearer
    end, Brownian motion leaves (x - r, x + r) after r^2 T, where T is the
    exit time of (-1, 1) from 0, on either side with probability 1/2 and
    independently of T.  The side at the nearer end stops the path there;
    the other moves it to x +- r for another round, so each round stops a
    running path with probability at least 1/2.  step_rng(seed, 0) draws
    the intervals, and round k draws step_rng(seed, k).random((2, m)) for
    its m running paths: one row picks the sides, the other gives T by
    _exit_time.  dt is checked like every entry point's and recorded in
    the batch, but nothing depends on it.  The diagnostics give the rounds
    taken and the worst inversion error |F(T) - u| over the draws.
    """
    if mu.kind not in ("normal", "atoms"):
        raise ValueError(f"the interval-exit competitor needs a normal or atomic target, got {mu.kind!r}")
    _check_paths(n, dt)
    lo, hi = _hall_intervals(mu, n, step_rng(seed, 0))
    tau, val = np.zeros(n), np.full(n, float(mu.mean))
    run = np.flatnonzero(hi > lo)   # an atom at the mean has an empty interval and stops at once
    k, worst = 0, 0.0
    while len(run):
        k += 1
        side, u = step_rng(seed, k).random((2, len(run)))
        x, a, b = val[run], lo[run], hi[run]
        d_lo, d_hi = x - a, b - x
        r = np.minimum(d_lo, d_hi)
        t, err = _exit_time(u)
        tau[run] += r * r * t
        worst = max(worst, err)
        down = side < 0.5
        stop = np.where(down, d_lo, d_hi) == r      # the side picked is the nearer end
        val[run] = np.where(stop, np.where(down, a, b), np.where(down, x - r, x + r))
        run = run[~stop]
    return PathBatch(
        n=n, dt=dt, horizon=float(tau.max()), seed=seed, stop_times=tau, stopped_values=val,
        diagnostics={"kind": "hall-interval-exit", "rounds": k, "inversion-error": worst},
    )


def _exit_law(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, 1 - F, density) of the exit time T of (-1, 1) by Brownian motion from 0, at t > 0.

    The image series F = 2 sum_j (-1)^j erfc((2j + 1) / sqrt(2t)) holds
    below t = 1/2, the eigenfunction series 1 - F = (4/pi) sum_j (-1)^j
    exp(-(2j + 1)^2 pi^2 t / 8) / (2j + 1) above it (Borodin & Salminen
    2002).  Four terms of either reach double precision on its side, and
    the smaller of F and 1 - F keeps its relative precision.
    """
    t = np.asarray(t, dtype=float)
    j = np.arange(4.0)[:, None]
    odd, sign = 2.0 * j + 1.0, (-1.0) ** j
    img = t < 0.5
    a = odd / np.sqrt(2.0 * t[img])
    e = np.exp(-(math.pi ** 2 / 8.0) * odd ** 2 * t[~img])
    F, Q, f = np.empty_like(t), np.empty_like(t), np.empty_like(t)
    F[img] = 2.0 * np.sum(sign * erfc(a), axis=0)
    Q[~img] = 4.0 / math.pi * np.sum(sign / odd * e, axis=0)
    F[~img], Q[img] = 1.0 - Q[~img], 1.0 - F[img]
    f[img] = 4.0 / math.sqrt(math.pi) * a[0] ** 3 * np.sum(sign * odd * np.exp(-a * a), axis=0)
    f[~img] = math.pi / 2.0 * np.sum(sign * odd * e, axis=0)
    return F, Q, f


def _exit_time(u: np.ndarray) -> tuple[np.ndarray, float]:
    """F^-1(u) for the exit time T of _exit_law, and its worst error |F(F^-1(u)) - u|.

    Works in the log-odds s = log(u / (1 - u)), which keeps the relative
    precision of u in the lower tail and of 1 - u in the upper one.  The
    leading term of each series gives a first guess within 1%, and three
    Newton steps on the series reach double precision (about 4e-16 in u).
    u below 3e-23, u = 0 included, is read at s = -52; no double u < 1
    lies beyond s = 40.
    """
    with np.errstate(divide="ignore"):
        s = np.clip(np.log(u) - np.log1p(-u), -52.0, 40.0)
    t = np.where(s < 0.0, 0.5 / erfcinv(0.5 * expit(s)) ** 2,
                 8.0 / math.pi ** 2 * (math.log(4.0 / math.pi) + np.log1p(np.exp(s))))
    for _ in range(3):
        F, Q, f = _exit_law(t)
        t = t - (np.log(F) - np.log(Q) - s) * (F * Q / f)
    F, Q, _ = _exit_law(t)
    return t, float(np.max(np.where(u < 0.5, np.abs(F - u), np.abs(Q - (1.0 - u)))))


def _hall_intervals(mu: Measure, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw the random exit intervals (lo, hi) around the mean of mu."""
    m = mu.mean
    if mu.kind == "normal":
        s = math.sqrt(mu.params["variance"])
        # plain one-sided part: half-normal; size-biased part: Rayleigh
        pick_minus = rng.random(n) < 0.5
        plain = np.abs(s * rng.standard_normal(n))
        biased = s * np.sqrt(-2.0 * np.log(rng.random(n)))
        neg = np.where(pick_minus, plain, biased)
        pos = np.where(pick_minus, biased, plain)
        return m - neg, m + pos
    # atomic target: sample the discrete mixture exactly
    locs, w = mu.locations - m, mu.weights
    negm, posm = locs < 0, locs > 0
    if float(np.dot(w[posm], locs[posm])) <= 0:
        return np.full(n, m), np.full(n, m)
    p_minus, p_zero = w[negm].sum(), float(w[~negm & ~posm].sum())
    u = rng.random(n)
    is_zero = u < p_zero
    pick_minus = (u >= p_zero) & (u < p_zero + p_minus)

    def pick(side, wts):    # an atom of one side, with probability proportional to wts
        return locs[side][rng.choice(len(wts), size=n, p=wts / wts.sum())]
    # plain and size-biased picks on either side, drawn in this order
    neg_plain, neg_bias = pick(negm, w[negm]), pick(negm, w[negm] * (-locs[negm]))
    pos_plain, pos_bias = pick(posm, w[posm]), pick(posm, w[posm] * locs[posm])
    neg = np.where(is_zero, 0.0, np.where(pick_minus, neg_plain, neg_bias))
    pos = np.where(is_zero, 0.0, np.where(pick_minus, pos_bias, pos_plain))
    return m + neg, m + pos


# -- diagnostics -----------------------------------------------------------------

def ks_statistic(samples: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a cdf.

    Accepts a callable cdf, a Measure, or anything with a .cdf method.
    Targets with atoms are compared through both one-sided limits at every
    distinct sample value, which keeps the statistic meaningful for laws
    that put mass on points (naive tie handling would report the largest
    atom weight as a spurious discrepancy).
    """
    s = np.sort(np.asarray(samples, dtype=float))
    nn = len(s)
    if isinstance(cdf, Measure):
        measure, target = cdf, cdf.cdf
    elif isinstance(getattr(cdf, "__self__", None), Measure):
        measure, target = cdf.__self__, cdf
    else:
        measure, target = None, (cdf if callable(cdf) else cdf.cdf)
    vals, first_idx, counts = np.unique(s, return_index=True, return_counts=True)
    emp_le = (first_idx + counts) / nn
    emp_lt = first_idx / nn
    f_le = target(vals)
    if measure is not None and measure.kind == "atoms":
        f_lt = measure.cum_weights[np.searchsorted(measure.locations, vals, side="left")]
    else:
        f_lt = f_le
    d = max(float(np.max(np.abs(emp_le - f_le))), float(np.max(np.abs(emp_lt - f_lt))))
    return d


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error std / sqrt(n), as plain floats."""
    return float(np.mean(values)), float(np.std(values) / math.sqrt(len(values)))


def ks_critical_value(n: int, level: float = 0.01) -> float:
    """Asymptotic KS critical value; 1.63/sqrt(n) at the 1% level."""
    coef = {0.10: 1.22, 0.05: 1.36, 0.01: 1.63}.get(level)
    if coef is None:
        coef = math.sqrt(-0.5 * math.log(level / 2.0))
    return coef / math.sqrt(n)
