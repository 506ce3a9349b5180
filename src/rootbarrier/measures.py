"""Probability measures on the real line and their potential functions.

A measure enters the solver only through its potential U(x) = -E|Y - x|,
which is concave, 1-Lipschitz and behaves like -|x - mean| in the tails.
The start law nu can be embedded into the target law mu by a stopped
diffusion exactly when U_nu >= U_mu everywhere (which forces equal means),
so everything downstream keys off these two tabulated functions.

Supported families: finite atom lists, tabulated densities (reduced to
quadrature atoms on their grid), and the normal / lognormal families with
closed-form potentials.  Market call quotes are ingested by reading the
implied potential straight off the quoted curve: a piecewise-linear call
curve in strike corresponds to a purely atomic implied law with atoms at
the quoted strikes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.stats import norm

MASS_TOL = 1e-12
EMBED_TOL = 1e-10

__all__ = [
    "Measure",
    "Potential",
    "EmbeddingReport",
    "CallQuotes",
    "atoms",
    "point_mass",
    "normal",
    "lognormal",
    "tabulated_density",
    "potential",
    "check_embeddable",
    "implied_measure_from_calls",
    "call_prices",
    "truncate",
    "load_measure",
    "save_measure",
    "load_quotes",
]


class MeasureError(ValueError):
    """Invalid measure: mass, integrability or support violations."""


class ArbitrageError(ValueError):
    """Call quotes violate the static no-arbitrage shape conditions."""


@dataclass(frozen=True)
class Measure:
    """A probability law on the real line.

    kind is one of ``atoms``, ``tabulated-density``, ``normal``,
    ``lognormal``.  Atom and density data are stored as numpy arrays and
    must not be mutated after construction; all operations treat the
    measure as immutable.
    """

    kind: str
    locations: Optional[np.ndarray] = None   # atoms: positions
    weights: Optional[np.ndarray] = None     # atoms: masses
    params: Optional[dict] = None            # normal / lognormal parameters
    support: tuple[float, float] = (-np.inf, np.inf)

    def __post_init__(self):
        if self.kind in ("atoms", "tabulated-density"):
            w = self.weights
            total = float(np.sum(w))
            if abs(total - 1.0) > 1e-9:
                raise MeasureError(f"total mass {total} != 1")
            if np.any(w < -MASS_TOL):
                raise MeasureError("negative mass")
            if not np.all(np.isfinite(self.locations)):
                raise MeasureError("infinite first moment")
            if total != 1.0:
                object.__setattr__(self, "weights", w / total)
            lo = float(np.min(self.locations))
            hi = float(np.max(self.locations))
            object.__setattr__(self, "support", (lo, hi))
        elif self.kind == "normal":
            if self.params["variance"] < 0:
                raise MeasureError("negative variance")
            object.__setattr__(self, "support", (-np.inf, np.inf))
        elif self.kind == "lognormal":
            if self.params["log_variance"] < 0:
                raise MeasureError("negative log variance")
            object.__setattr__(self, "support", (0.0, np.inf))
        else:
            raise MeasureError(f"unknown measure kind {self.kind!r}")

    # -- basic statistics ---------------------------------------------------

    @property
    def mean(self) -> float:
        if self.kind in ("atoms", "tabulated-density"):
            return float(np.dot(self.weights, self.locations))
        if self.kind == "normal":
            return float(self.params["mean"])
        a, b2 = self.params["log_mean"], self.params["log_variance"]
        return float(math.exp(a + b2 / 2.0))

    @property
    def variance(self) -> float:
        if self.kind in ("atoms", "tabulated-density"):
            m = self.mean
            return float(np.dot(self.weights, (self.locations - m) ** 2))
        if self.kind == "normal":
            return float(self.params["variance"])
        a, b2 = self.params["log_mean"], self.params["log_variance"]
        return float((math.exp(b2) - 1.0) * math.exp(2 * a + b2))

    def mean_abs_dev(self, x: np.ndarray) -> np.ndarray:
        """E|Y - x| for each grid point x (vectorized)."""
        x = np.asarray(x, dtype=float)
        if self.kind in ("atoms", "tabulated-density"):
            return _mean_abs_dev_atoms(self.locations, self.weights, x)
        if self.kind == "normal":
            m = self.params["mean"]
            s = math.sqrt(self.params["variance"])
            if s == 0.0:
                return np.abs(x - m)
            z = (x - m) / s
            return s * (2.0 * norm.pdf(z) + z * (2.0 * norm.cdf(z) - 1.0))
        # lognormal: E|Y - x| = 2 E(Y - x)_+ - (EY - x), with E(Y-x)_+ the
        # undiscounted Black-Scholes call value
        a = self.params["log_mean"]
        b = math.sqrt(self.params["log_variance"])
        ey = self.mean
        out = np.empty_like(x)
        neg = x <= 0.0
        out[neg] = ey - x[neg]
        xp = x[~neg]
        if b == 0.0:
            out[~neg] = np.abs(ey - xp)
        else:
            d1 = (a + b * b - np.log(xp)) / b
            d2 = d1 - b
            call = ey * norm.cdf(d1) - xp * norm.cdf(d2)
            out[~neg] = 2.0 * call - (ey - xp)
        return out

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind in ("atoms", "tabulated-density"):
            order = np.argsort(self.locations)
            locs = self.locations[order]
            cum = np.cumsum(self.weights[order])
            idx = np.searchsorted(locs, x, side="right")
            cum = np.concatenate(([0.0], cum))
            return cum[idx]
        if self.kind == "normal":
            m = self.params["mean"]
            s = math.sqrt(self.params["variance"])
            if s == 0.0:
                return (x >= m).astype(float)
            return norm.cdf((x - m) / s)
        a = self.params["log_mean"]
        b = math.sqrt(self.params["log_variance"])
        out = np.zeros_like(x)
        pos = x > 0
        if b == 0.0:
            out[pos] = (np.log(x[pos]) >= a).astype(float)
        else:
            out[pos] = norm.cdf((np.log(x[pos]) - a) / b)
        return out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind in ("atoms", "tabulated-density"):
            idx = rng.choice(len(self.locations), size=n, p=self.weights / np.sum(self.weights))
            return self.locations[idx]
        if self.kind == "normal":
            m = self.params["mean"]
            s = math.sqrt(self.params["variance"])
            return m + s * rng.standard_normal(n)
        a = self.params["log_mean"]
        b = math.sqrt(self.params["log_variance"])
        return np.exp(a + b * rng.standard_normal(n))


@dataclass(frozen=True)
class Potential:
    """Tabulated potential U(x) = -E|Y - x| on a strictly increasing grid."""

    grid: np.ndarray
    values: np.ndarray
    mean: float


@dataclass(frozen=True)
class EmbeddingReport:
    """Result of the ordered-potential test U_nu >= U_mu."""

    passed: bool
    max_violation: float
    argmax: float
    mean_nu: float
    mean_mu: float
    mean_gap: float
    tolerance: float


@dataclass(frozen=True)
class CallQuotes:
    """Call quote curve at a single maturity plus market conventions."""

    strikes: np.ndarray
    prices: np.ndarray
    spot: float
    discount: float
    maturity: float


# -- constructors -----------------------------------------------------------

def atoms(locations: Sequence[float], weights: Sequence[float]) -> Measure:
    locs = np.asarray(locations, dtype=float)
    w = np.asarray(weights, dtype=float)
    order = np.argsort(locs)
    return Measure(kind="atoms", locations=locs[order], weights=w[order])


def point_mass(x0: float) -> Measure:
    return atoms([x0], [1.0])


def normal(mean: float, variance: float) -> Measure:
    return Measure(kind="normal", params={"mean": float(mean), "variance": float(variance)})


def lognormal(log_mean: float, log_variance: float) -> Measure:
    return Measure(
        kind="lognormal",
        params={"log_mean": float(log_mean), "log_variance": float(log_variance)},
    )


def tabulated_density(x: Sequence[float], density: Sequence[float]) -> Measure:
    """Density sampled on a grid, reduced to quadrature atoms.

    Trapezoid weights are used, so downstream potentials are exactly the
    potentials of the discretized law (concavity is preserved); the mass is
    renormalized to 1 if the tabulation is off by more than 1e-12 but less
    than 1e-6.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(density, dtype=float)
    if np.any(np.diff(x) <= 0):
        raise MeasureError("density grid must be strictly increasing")
    if np.any(f < 0):
        raise MeasureError("negative density")
    w = np.zeros_like(x)
    dx = np.diff(x)
    w[:-1] += 0.5 * dx * f[:-1]
    w[1:] += 0.5 * dx * f[1:]
    total = w.sum()
    if abs(total - 1.0) > 1e-6:
        raise MeasureError(f"density integrates to {total}, not 1")
    w = w / total
    keep = w > 0
    return Measure(kind="tabulated-density", locations=x[keep], weights=w[keep])


def empirical(samples: np.ndarray, recenter_to: Optional[float] = None) -> Measure:
    """Empirical law of a sample: equal-weight atoms (not deduplicated).

    recenter_to shifts the atoms so the sample mean matches a known true
    mean, removing the O(n^{-1/2}) mean drift that would otherwise break
    the exact ordered-potential comparison against the start law.
    """
    s = np.sort(np.asarray(samples, dtype=float))
    if recenter_to is not None:
        s = s + (recenter_to - s.mean())
    w = np.full(s.shape, 1.0 / len(s))
    return Measure(kind="atoms", locations=s, weights=w)


# -- potentials -------------------------------------------------------------

def _mean_abs_dev_atoms(locs: np.ndarray, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    # sorted prefix sums: E|Y-x| = x(2W(x) - 1) + (S_total - 2S(x))
    # where W(x), S(x) accumulate mass and first moment below x
    order = np.argsort(locs)
    ys = locs[order]
    ws = w[order]
    cw = np.concatenate(([0.0], np.cumsum(ws)))
    cs = np.concatenate(([0.0], np.cumsum(ws * ys)))
    idx = np.searchsorted(ys, x, side="right")
    total_w = cw[-1]
    total_s = cs[-1]
    return x * (2.0 * cw[idx] - total_w) + (total_s - 2.0 * cs[idx])


def potential(m: Measure, grid: np.ndarray) -> Potential:
    """Tabulate U_m(x) = -E|Y - x| on the given grid.

    Exact summation for atomic measures, closed forms for the normal and
    lognormal families; tabulated densities were already reduced to
    quadrature atoms at construction.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 1 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    vals = -m.mean_abs_dev(grid)
    return Potential(grid=grid, values=vals, mean=m.mean)


def check_embeddable(
    nu: Measure,
    mu: Measure,
    grid: Optional[np.ndarray] = None,
    tol: float = EMBED_TOL,
) -> EmbeddingReport:
    """Ordered-potential test: nu can be embedded into mu iff U_nu >= U_mu.

    The check grid contains every atom of both measures, so for atomic
    inputs the pointwise comparison of the piecewise-linear potentials is
    exact.  Equal means are checked as well (they are implied by the
    ordering when it holds, and catch scaling mistakes when it does not).
    """
    if grid is None:
        grid = _joint_grid(nu, mu)
    u_nu = potential(nu, grid).values
    u_mu = potential(mu, grid).values
    diff = u_mu - u_nu
    k = int(np.argmax(diff))
    max_violation = float(diff[k])
    scale = max(1.0, float(np.max(np.abs(u_mu))))
    mean_gap = abs(nu.mean - mu.mean)
    passed = (max_violation <= tol * scale) and (mean_gap <= 1e-7 * max(1.0, abs(mu.mean)))
    return EmbeddingReport(
        passed=passed,
        max_violation=max_violation,
        argmax=float(grid[k]),
        mean_nu=nu.mean,
        mean_mu=mu.mean,
        mean_gap=mean_gap,
        tolerance=tol * scale,
    )


def _measure_range(m: Measure, mass_eps: float = 1e-9) -> tuple[float, float]:
    """Interval carrying all but mass_eps of the measure."""
    if m.kind in ("atoms", "tabulated-density"):
        return float(m.locations.min()), float(m.locations.max())
    if m.kind == "normal":
        mm = m.params["mean"]
        s = math.sqrt(m.params["variance"])
        z = -norm.ppf(mass_eps / 2.0) if s > 0 else 0.0
        return mm - z * s, mm + z * s
    a = m.params["log_mean"]
    b = math.sqrt(m.params["log_variance"])
    z = -norm.ppf(mass_eps / 2.0) if b > 0 else 0.0
    return math.exp(a - z * b), math.exp(a + z * b)


def _joint_grid(nu: Measure, mu: Measure, n_fill: int = 801) -> np.ndarray:
    lo1, hi1 = _measure_range(nu)
    lo2, hi2 = _measure_range(mu)
    lo, hi = min(lo1, lo2), max(hi1, hi2)
    pad = 0.1 * max(hi - lo, 1.0)
    pts = [np.linspace(lo - pad, hi + pad, n_fill)]
    for m in (nu, mu):
        if m.kind in ("atoms", "tabulated-density"):
            pts.append(m.locations)
    grid = np.unique(np.concatenate(pts))
    return grid


def truncate(m: Measure, lo: float, hi: float) -> Measure:
    """Restrict a measure to [lo, hi], moving each tail to a boundary atom.

    The two boundary masses are chosen so that both the total mass and the
    mean are preserved exactly; this is the approximation knob that makes a
    finite solver domain consistent with the original law.
    """
    if m.kind in ("atoms", "tabulated-density"):
        locs, w = m.locations, m.weights
    else:
        # reduce analytic families to a fine atomization first: cell masses
        # at cell midpoints, tails at the end nodes
        lo0, hi0 = _measure_range(m, mass_eps=1e-12)
        grid = np.linspace(min(lo0, lo), max(hi0, hi), 16001)
        cdf = m.cdf(grid)
        w = np.concatenate(([cdf[0]], np.diff(cdf), [1.0 - cdf[-1]]))
        locs = np.concatenate(([grid[0]], 0.5 * (grid[:-1] + grid[1:]), [grid[-1]]))
        keep = w > 0
        locs, w = locs[keep], w[keep]
        w = w / w.sum()
    inside = (locs >= lo) & (locs <= hi)
    if np.all(inside):
        return atoms(locs, w)
    m_out = w[~inside].sum()
    s_out = np.dot(w[~inside], locs[~inside])
    # match tail mass and tail mean with two boundary atoms
    w_lo = (m_out * hi - s_out) / (hi - lo)
    w_hi = m_out - w_lo
    if w_lo < -MASS_TOL or w_hi < -MASS_TOL:
        raise MeasureError("truncation interval does not cover the measure's mean mass")
    new_locs = np.concatenate(([lo], locs[inside], [hi]))
    new_w = np.concatenate(([max(w_lo, 0.0)], w[inside], [max(w_hi, 0.0)]))
    new_w = new_w / new_w.sum()
    return atoms(new_locs, new_w)


# -- implied law from call quotes -------------------------------------------

def implied_measure_from_calls(
    quotes: CallQuotes,
    convexity_tol: float = 1e-9,
    zero_atom_tol: float = 1e-6,
) -> Measure:
    """Implied law of the discounted terminal price from a call curve.

    The quoted curve is completed with C(0) = spot on the left and a linear
    continuation to zero on the right, then interpolated piecewise-linearly.
    The implied potential is U(x) = spot - 2 C(B_T x) - x, so a
    piecewise-linear curve corresponds to a purely atomic law with atoms at
    the quoted strikes (divided by B_T) and masses given by the slope jumps.
    The resulting measure integrates to 1 and has mean equal to the spot.
    """
    k = np.asarray(quotes.strikes, dtype=float)
    c = np.asarray(quotes.prices, dtype=float)
    bt = float(quotes.discount)
    s0 = float(quotes.spot)
    if bt <= 0 or s0 <= 0:
        raise ArbitrageError("spot and discount factor must be positive")
    if np.any(np.diff(k) <= 0) or np.any(k <= 0):
        raise ArbitrageError("strikes must be positive and strictly increasing")
    if np.any(c < -convexity_tol * s0):
        raise ArbitrageError("arbitrageable call curve: negative price")

    kk = np.concatenate(([0.0], k))
    cc = np.concatenate(([s0], c))
    slopes = np.diff(cc) / np.diff(kk)
    scale = max(1.0, s0)
    if np.any(np.diff(slopes) < -convexity_tol * scale):
        raise ArbitrageError("arbitrageable call curve: not convex")
    if np.any(slopes > convexity_tol):
        raise ArbitrageError("arbitrageable call curve: not decreasing")
    if slopes[0] < -1.0 / bt - convexity_tol:
        raise ArbitrageError("arbitrageable call curve: slope below -1/B_T at zero")

    # close the curve: extend at the last slope until it crosses zero, so
    # the final kink sits at the crossing (no kink at the last quote)
    if c[-1] > convexity_tol * scale:
        s_last = slopes[-1]
        if s_last >= -convexity_tol:
            raise ArbitrageError("call curve does not decay to zero")
        k_star = k[-1] - c[-1] / s_last
        kk = np.concatenate((kk, [k_star]))
        slopes = np.concatenate((slopes, [s_last, 0.0]))
    else:
        slopes = np.concatenate((slopes, [0.0]))

    # atom at strike K_i (in discounted units K_i / B_T) = B_T * slope jump
    jumps = np.diff(slopes)
    masses = bt * jumps
    locations = kk[1:] / bt

    atom_at_zero = 1.0 + bt * slopes[0]
    if atom_at_zero > zero_atom_tol:
        raise ArbitrageError(
            f"call curve implies an atom of mass {atom_at_zero:.3e} at zero "
            "(right slope at K=0 exceeds -1/B_T)"
        )
    if atom_at_zero > 0:
        # negligible residual mass; fold into the lowest strike
        masses[0] += atom_at_zero

    keep = masses > MASS_TOL
    return atoms(locations[keep], masses[keep])


def call_prices(m: Measure, strikes: np.ndarray, discount: float) -> np.ndarray:
    """Price calls on S_T = B_T X against the law of the discounted price X.

    C(K) = B_T^{-1} E (S_T - K)_+ = E (X - K/B_T)_+.
    """
    strikes = np.asarray(strikes, dtype=float)
    x = strikes / discount
    # E(Y - x)_+ = (E|Y - x| + EY - x)/2
    return 0.5 * (m.mean_abs_dev(x) + m.mean - x)


# -- file formats -----------------------------------------------------------

def save_measure(m: Measure, path: str) -> None:
    doc: dict = {"kind": m.kind}
    if m.kind in ("atoms", "tabulated-density"):
        doc["atoms"] = [[float(x), float(w)] for x, w in zip(m.locations, m.weights)]
    else:
        doc["params"] = m.params
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def load_measure(path: str) -> Measure:
    with open(path) as fh:
        doc = json.load(fh)
    kind = doc["kind"]
    if kind == "atoms":
        arr = np.asarray(doc["atoms"], dtype=float)
        return atoms(arr[:, 0], arr[:, 1])
    if kind == "tabulated-density":
        if "density_table" in doc:
            arr = np.asarray(doc["density_table"], dtype=float)
            return tabulated_density(arr[:, 0], arr[:, 1])
        arr = np.asarray(doc["atoms"], dtype=float)
        return Measure(kind="tabulated-density", locations=arr[:, 0], weights=arr[:, 1])
    if kind == "normal":
        p = doc["params"]
        return normal(p["mean"], p["variance"])
    if kind == "lognormal":
        p = doc["params"]
        return lognormal(p["log_mean"], p["log_variance"])
    raise MeasureError(f"unknown measure kind {kind!r}")


def load_quotes(csv_path: str, sidecar_path: str) -> CallQuotes:
    """Read a `strike,price` CSV plus its JSON sidecar of market data."""
    strikes, prices = [], []
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "strike" not in reader.fieldnames:
            raise ValueError(f"{csv_path}: expected header 'strike,price'")
        for row in reader:
            strikes.append(float(row["strike"]))
            prices.append(float(row["price"]))
    with open(sidecar_path) as fh:
        meta = json.load(fh)
    return CallQuotes(
        strikes=np.asarray(strikes),
        prices=np.asarray(prices),
        spot=float(meta["spot"]),
        discount=float(meta["discount_factor"]),
        maturity=float(meta["maturity"]),
    )
