"""Path simulation: stopped diffusions, price models, empirical diagnostics.

Every batch is advanced by one stepping loop, `_walk`; the batches differ
only in the pieces they hand it: a state update, a stopping rule and
per-step observers.  Paths are advanced in a single streaming pass
(states are only retained on request), which keeps memory linear in the
number of paths for million-path runs.

Step k draws from the counter-based generator step_rng(seed, k), one
normal per running path in path order, so a draw belongs to a path's
rank among the paths still running, not to the path.  Step 0 draws the
start states or the competitor's intervals, in amounts that depend on n.
A batch is therefore bit-identical for a fixed (seed, n), but a slice of
its paths run on its own gets other draws; streams keyed so that a batch
can be split are ROADMAP.md item 4.

Stopping against a barrier is a check in time, t >= R(X_t), performed at
every sample; no bridge correction is applied for crossings between
samples (the crossing is in the time axis, not a spatial level), so the
stopping time resolution is one time step.  Interval exits for the
competitor embedding, by contrast, are spatial crossings and do use a
Brownian-bridge correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from . import measures
from .measures import Measure, Potential
from .barrier import Barrier
from .obstacle import DiffusionSpec

__all__ = [
    "PathBatch",
    "PriceModel",
    "simulate_stopped",
    "empirical_potential",
    "simulate_price_model",
    "hall_competitor",
    "ks_statistic",
    "ks_critical_value",
]


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
    times: Optional[np.ndarray] = None
    states: Optional[np.ndarray] = None      # (n_steps+1, n) if retained
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
    # atomic targets stop on vertical spike lines; crossing those between
    # samples is a spatial event, so a bridge correction is well posed and
    # removes the deposit-spread bias (unlike generic time-barrier checks)
    spikes: Optional[tuple] = None      # (locations, arming times)

    def vol_at(self, t: np.ndarray) -> np.ndarray:
        return _piecewise_at(self.vol, t)

    def rate_at(self, t: np.ndarray) -> np.ndarray:
        return _piecewise_at(self.rate, t)

    def discount(self, t: float) -> float:
        """B_t = exp(int_0^t r)."""
        if not isinstance(self.rate, tuple):
            return math.exp(float(self.rate) * t)
        bp, vals = self.rate
        grid = np.concatenate(([0.0], np.asarray(bp, dtype=float), [t]))
        grid = np.clip(grid, 0.0, t)
        acc = 0.0
        for a, b in zip(grid[:-1], grid[1:]):
            if b > a:
                acc += float(self.rate_at(np.array([a]))[0]) * (b - a)
        return math.exp(acc)


def _piecewise_at(spec: Union[float, tuple], t: np.ndarray) -> np.ndarray:
    """A constant, or (breakpoints, values) right-continuous in time, at times t."""
    if isinstance(spec, tuple):
        bp, vals = spec
        idx = np.searchsorted(np.asarray(bp), t, side="right")
        return np.asarray(vals)[np.minimum(idx, len(vals) - 1)]
    return np.full_like(np.asarray(t, dtype=float), float(spec))


# -- the stepping kernel ----------------------------------------------------------

@dataclass
class _Step:
    """One time step, as the stopping rule and the observers see it."""

    k: int
    dt: float
    ids: np.ndarray                 # batch indices of the paths that took the step
    x_old: np.ndarray
    x_new: np.ndarray               # a stopping rule moves hit paths to their stop value
    dlog: Optional[np.ndarray]      # log return of the price over a geometric step
    g: np.random.Generator          # the step's generator, its normals already drawn


class _WalkResult(NamedTuple):
    stop_times: np.ndarray
    stopped_values: np.ndarray
    horizon_mass: float
    steps: int                      # steps taken: fewer than n_steps once all paths stop
    n_steps: int


def _walk(n, dt, seed, steps, start, move, stop=None, observers=()) -> _WalkResult:
    """Advance n paths by up to steps(dt) time steps: the one stepping loop.

    n and dt are checked before any draw or allocation, so every entry
    point rejects them with the same ValueError.  start(g) returns the
    start states, drawn from the step-0 generator.  Step k draws one
    standard normal per running path from step_rng(seed, k) and moves the
    paths with move(x, z, k, dt), which returns the new states and, for a
    geometric step, the log returns.  The stopping rule (None,
    _TimeBarrier or _IntervalExit) names the paths running at time 0
    through stop.start(x0, g0) and then marks which running paths stop;
    they stop at (k - stop.lag) dt at their state after the step, and drop
    out of later steps.  Observers are started with obs.start(x0, n_steps,
    dt) and see every step after the stopping rule, in the order given.
    Paths still running at the end keep the last step time as a sentinel
    stopping time and make up the horizon mass.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be a positive whole number of paths, got {n!r}")
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be a positive finite time step, got {dt!r}")
    n_steps = steps(dt)
    g0 = step_rng(seed, 0)
    x0 = np.asarray(start(g0), dtype=float)
    live = np.ones(n, dtype=bool) if stop is None else stop.start(x0, g0)
    for obs in observers:
        obs.start(x0, n_steps, dt)
    tau = np.where(live, n_steps * dt, 0.0)
    val = x0.copy()
    ids = np.flatnonzero(live)
    x = x0[ids]     # the hot loop works on compacted state, not full-size fancy indexing
    k = 0
    while k < n_steps and len(ids):
        k += 1
        g = step_rng(seed, k)
        z = g.standard_normal(len(ids))
        x_new, dlog = move(x, z, k, dt)
        s = _Step(k, dt, ids, x, x_new, dlog, g)
        hit = None if stop is None else stop(s)
        for obs in observers:
            obs(s)
        if hit is not None and hit.any():
            tau[ids[hit]] = (k - stop.lag) * dt
            val[ids[hit]] = x_new[hit]
            x_new, ids = x_new[~hit], ids[~hit]
        x = x_new
    val[ids] = x    # horizon sentinel paths keep their current state
    return _WalkResult(tau, val, len(ids) / n if stop is not None else 0.0, k, n_steps)


def _divides(dt: float, horizon: float) -> bool:
    """Whether whole steps of dt end at the horizon, to 1e-9 relative."""
    return abs(round(horizon / dt) * dt - horizon) <= 1e-9 * max(1.0, horizon)


def _additive(sigma):
    """Euler step of dX = sigma(X) dW, exact for constant sigma."""
    return lambda x, z, k, dt: (x + sigma(x) * math.sqrt(dt) * z, None)


def _geometric(vol=lambda t: 1.0, rate=None):
    """Exact log-normal step at the volatility vol(t) of the step's start.

    The log returns are those of the undiscounted price: the discounted
    step plus rate(t) dt.
    """
    def move(x, z, k, dt):
        t0 = (k - 1) * dt
        sig = vol(t0)
        dlog = sig * math.sqrt(dt) * z - 0.5 * sig * sig * dt
        return x * np.exp(dlog), dlog if rate is None else dlog + rate(t0) * dt
    return move


def _diffusion_move(diff: DiffusionSpec):
    return _geometric() if diff.geometric else _additive(diff.sigma)


class _TimeBarrier:
    """Stop at the first sample with t >= R(X_t).

    With spikes (locations, arming times), also stop where the bridge
    test sees an armed spike touched between samples, at the spike; the
    barrier is then read at the larger of the bracketing nodes, leaving
    narrow features to the spike test.
    """

    lag = 0

    def __init__(self, barrier: Barrier, spikes: Optional[tuple] = None):
        self.barrier, self.spikes = barrier, spikes

    def start(self, x0, g0):
        # starts already inside the barrier stop at once (closed, regular set)
        return self.barrier.value_at(x0, conservative=self.spikes is None) > 0.0

    def __call__(self, s: _Step) -> np.ndarray:
        t = s.k * s.dt
        hit = t >= self.barrier.value_at(s.x_new, exact_nodes=False, conservative=self.spikes is None)
        if self.spikes is not None:
            at, arm = self.spikes
            sp_hit, which = spike_crossings(s.x_old, s.x_new, t, s.dt, at, arm, s.g.random(len(s.ids)))
            # the spike is touched en route, before the endpoint region
            s.x_new[sp_hit] = at[which[sp_hit]]
            hit |= sp_hit
        return hit


class _IntervalExit:
    """Stop Brownian paths on leaving their interval (lo, hi), drawn at step 0.

    Crossings between samples are caught by the Brownian-bridge
    probability and dated to the middle of the step.
    """

    lag = 0.5

    def __init__(self, mu: Measure):
        self.mu = mu

    def start(self, x0, g0):
        self.lo, self.hi = _hall_intervals(self.mu, len(x0), g0)
        # paths with degenerate interval (atom at the mean) stop immediately
        return ~((self.hi - self.lo) <= 0)

    def __call__(self, s: _Step) -> np.ndarray:
        u = s.g.random(len(s.ids))
        x, x_new, dt = s.x_old, s.x_new, s.dt
        up, dn = self.hi[s.ids], self.lo[s.ids]
        crossed_up = x_new >= up
        crossed_dn = x_new <= dn
        inside = ~(crossed_up | crossed_dn)
        # bridge probability of touching a level between consecutive samples
        p_up = np.zeros(len(x))
        p_dn = np.zeros(len(x))
        p_up[inside] = np.exp(-2.0 * (up[inside] - x[inside]) * (up[inside] - x_new[inside]) / dt)
        p_dn[inside] = np.exp(-2.0 * (x[inside] - dn[inside]) * (x_new[inside] - dn[inside]) / dt)
        bridge_up = inside & (u < p_up)
        bridge_dn = inside & ~bridge_up & (u < p_up + p_dn)
        hit_up = crossed_up | bridge_up
        hit = hit_up | crossed_dn | bridge_dn
        x_new[hit] = np.where(hit_up[hit], up[hit], dn[hit])
        return hit


class _RealizedVariance:
    """Observer: accumulated squared log returns of the price."""

    def start(self, x0, n_steps, dt):
        self.values = np.zeros(len(x0))

    def __call__(self, s: _Step) -> None:
        self.values[s.ids] += s.dlog ** 2


class _StoredStates:
    """Observer: every path's state at every step, held at its stop value."""

    def start(self, x0, n_steps, dt):
        self.states = np.empty((n_steps + 1, len(x0)))
        self.states[0] = x0

    def __call__(self, s: _Step) -> None:
        self.states[s.k] = self.states[s.k - 1]
        self.states[s.k, s.ids] = s.x_new


# -- stopped diffusion ---------------------------------------------------------

def simulate_stopped(
    diff: DiffusionSpec,
    nu: Measure,
    barrier: Barrier,
    n: int,
    dt: float,
    seed: int,
    horizon: Optional[float] = None,
    store_paths: bool = False,
) -> PathBatch:
    """Euler-Maruyama paths of dX = sigma(X) dW stopped at the barrier.

    Gaussian increments are exact for constant sigma; the geometric case is
    simulated exactly in log space.  Paths still running at the horizon are
    assigned the horizon as a sentinel stopping time and reported in
    horizon_mass (with a warning flag above 1%).
    """
    if horizon is None:
        horizon = barrier.horizon

    # a horizon off the step grid gets one more step
    steps = lambda dt: int(round(horizon / dt)) if _divides(dt, horizon) else int(math.ceil(horizon / dt))

    stored = _StoredStates()
    w = _walk(n, dt, seed, steps, lambda g: nu.sample(n, g), _diffusion_move(diff),
              _TimeBarrier(barrier), [stored] if store_paths else [])
    if store_paths:
        # the walk ended early with every path stopped: later rows repeat the last
        stored.states[w.steps + 1:] = stored.states[w.steps]
    return PathBatch(
        n=n, dt=dt, horizon=float(w.n_steps * dt), seed=seed,
        stop_times=w.stop_times, stopped_values=w.stopped_values,
        horizon_mass=w.horizon_mass,
        times=dt * np.arange(w.n_steps + 1) if store_paths else None,
        states=stored.states if store_paths else None,
        diagnostics={"horizon-warning": bool(w.horizon_mass > 0.01)},
    )


def empirical_potential(batch: PathBatch, grid: np.ndarray) -> Potential:
    """Potential of the empirical stopped law: -mean |X_tau - x| on a grid."""
    grid = np.asarray(grid, dtype=float)
    w = np.full(batch.n, 1.0 / batch.n)
    mad = measures._mean_abs_dev_atoms(batch.stopped_values, w, grid)
    return Potential(grid=grid, values=-mad, mean=float(np.mean(batch.stopped_values)))


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
        at = lambda path: lambda t: path(np.array([t]))[0]

        def steps(dt):
            if not _divides(dt, model.maturity):
                raise ValueError(f"dt {dt!r} does not divide the maturity {model.maturity!r}")
            return int(round(model.maturity / dt))

        move, stop = _geometric(at(model.vol_at), at(model.rate_at)), None
    elif model.kind == "time-change-to-barrier":
        b = model.barrier
        if b is None:
            raise ValueError("time-change model needs a barrier")
        steps = lambda dt: int(math.ceil(b.horizon / dt))
        move, stop = _geometric(), _TimeBarrier(b, model.spikes)
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
    return PathBatch(
        n=n, dt=dt, horizon=float(w.n_steps * dt), seed=seed,
        stop_times=w.stop_times, stopped_values=w.stopped_values,
        realized_variance=rv.values, horizon_mass=w.horizon_mass,
        diagnostics={"kind": model.kind, "horizon-warning": bool(w.horizon_mass > 0.01)},
    )


def spike_crossings(x_old, x_new, t_k, dt, spike_x, spike_t, u):
    """Bridge test for touching an armed vertical spike between samples.

    Works in log coordinates (the step is exponential).  The candidates
    are the spikes bracketing the start point plus the next one out;
    straddled spikes are certain crossings, same-side near misses carry
    the exp(-2 a b / dt) bridge probability.  A single uniform selects
    among candidates, whose combined probability is ~disjoint for steps
    smaller than the spike spacing.  Returns (hit mask, spike index).
    """
    n = len(x_old)
    hit = np.zeros(n, dtype=bool)
    which = np.zeros(n, dtype=int)
    l_old = np.log(x_old)
    l_new = np.log(x_new)
    l_spike = np.log(spike_x)
    j_r = np.searchsorted(spike_x, x_old, side="right")
    acc = np.zeros(n)
    for cand in (j_r - 1, j_r, j_r + 1):
        jj = np.clip(cand, 0, len(spike_x) - 1)
        valid = (cand >= 0) & (cand < len(spike_x)) & (t_k >= spike_t[jj]) & ~hit
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
        which[cross] = jj[cross]
    return hit, which


# -- competitor embedding --------------------------------------------------------

def hall_competitor(mu: Measure, n: int, dt: float, seed: int) -> PathBatch:
    """Alternative embedding of mu: exit from an independent random interval.

    For a target with mean m, draw (R, S) with R < m < S from the classical
    two-sided mixture whose exit distribution reproduces mu exactly, then
    stop Brownian motion started at m on leaving (R, S).  The embedding is
    uniformly integrable with E tau = Var(mu); it differs from the barrier
    embedding and so serves as a competitor in optimality comparisons.
    Interval crossings between samples use a Brownian-bridge correction.
    """
    w = _walk(n, dt, seed, lambda dt: int(5e7 // n) + 200000, lambda g: np.full(n, mu.mean),
              _additive(lambda x: 1.0), _IntervalExit(mu))
    return PathBatch(
        n=n, dt=dt, horizon=float(w.steps * dt), seed=seed,
        stop_times=w.stop_times, stopped_values=w.stopped_values,
        horizon_mass=w.horizon_mass,
        diagnostics={"kind": "hall-interval-exit"},
    )


def _hall_intervals(mu: Measure, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw the random exit intervals (lo, hi) around the mean of mu."""
    m = mu.mean
    if mu.kind == "normal":
        s = math.sqrt(mu.params["variance"])
        if s == 0:
            return np.full(n, m), np.full(n, m)
        # plain one-sided part: half-normal; size-biased part: Rayleigh
        pick_minus = rng.random(n) < 0.5
        plain = np.abs(s * rng.standard_normal(n))
        biased = s * np.sqrt(-2.0 * np.log(rng.random(n)))
        neg = np.where(pick_minus, plain, biased)
        pos = np.where(pick_minus, biased, plain)
        return m - neg, m + pos
    # generic route: atomize and sample the discrete mixture exactly
    if mu.kind in ("atoms", "tabulated-density"):
        locs, w = mu.locations - m, mu.weights
    else:
        lo0, hi0 = measures._measure_range(mu, mass_eps=1e-10)
        grid = np.linspace(lo0, hi0, 4001)
        cdf = mu.cdf(grid)
        w = np.diff(np.concatenate(([0.0], cdf)))
        w = np.append(w, max(0.0, 1.0 - w.sum()))
        locs = np.append(grid, grid[-1]) - m
        keep = w > 0
        locs, w = locs[keep], w[keep]
    negm = locs < 0
    posm = locs > 0
    p_minus = w[negm].sum()
    p_zero = float(w[~negm & ~posm].sum())
    m_plus = float(np.dot(w[posm], locs[posm]))
    if m_plus <= 0:
        return np.full(n, m), np.full(n, m)
    w_plain_neg = w[negm] / max(p_minus, 1e-300)
    w_plain_pos = w[posm] / max(w[posm].sum(), 1e-300)
    w_bias_neg = w[negm] * (-locs[negm])
    w_bias_neg = w_bias_neg / w_bias_neg.sum()
    w_bias_pos = w[posm] * locs[posm]
    w_bias_pos = w_bias_pos / w_bias_pos.sum()

    u = rng.random(n)
    is_zero = u < p_zero
    pick_minus = (u >= p_zero) & (u < p_zero + p_minus)
    neg_plain = locs[negm][rng.choice(len(w_plain_neg), size=n, p=w_plain_neg)]
    neg_bias = locs[negm][rng.choice(len(w_bias_neg), size=n, p=w_bias_neg)]
    pos_plain = locs[posm][rng.choice(len(w_plain_pos), size=n, p=w_plain_pos)]
    pos_bias = locs[posm][rng.choice(len(w_bias_pos), size=n, p=w_bias_pos)]
    neg = np.where(pick_minus, neg_plain, neg_bias)
    pos = np.where(pick_minus, pos_bias, pos_plain)
    neg = np.where(is_zero, 0.0, neg)
    pos = np.where(is_zero, 0.0, pos)
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
    if measure is not None and measure.kind in ("atoms", "tabulated-density"):
        mass = np.zeros_like(vals)
        pos = np.searchsorted(measure.locations, vals)
        inb = (pos < len(measure.locations))
        exact = inb & (measure.locations[np.minimum(pos, len(measure.locations) - 1)] == vals)
        mass[exact] = measure.weights[pos[exact]]
        f_lt = f_le - mass
    else:
        f_lt = f_le
    d = max(float(np.max(np.abs(emp_le - f_le))), float(np.max(np.abs(emp_lt - f_lt))))
    return d


def ks_critical_value(n: int, level: float = 0.01) -> float:
    """Asymptotic KS critical value; 1.63/sqrt(n) at the 1% level."""
    coef = {0.10: 1.22, 0.05: 1.36, 0.01: 1.63}.get(level)
    if coef is None:
        coef = math.sqrt(-0.5 * math.log(level / 2.0))
    return coef / math.sqrt(n)
