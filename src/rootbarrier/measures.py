"""Probability measures on the real line and their potential functions.

A measure enters the solver only through its potential U(x) = -E|Y - x|,
which is concave, 1-Lipschitz and behaves like -|x - mean| in the tails.
The start law nu can be embedded into the target law mu by a stopped
diffusion exactly when U_nu >= U_mu everywhere (which forces equal means),
so everything downstream keys off these two tabulated functions.

Supported families: finite atom lists and the normal / lognormal families
with closed-form potentials.  A discrete law is its table of atoms: the
locations sorted ascending once, at construction, with the prefix sums of
their masses and first moments held alongside.  Its potential is then
piecewise linear with kinks at the atoms, and the cdf, E|Y - x| and the
potential at any points are one `searchsorted` and a gather.  Tabulated
densities are reduced to quadrature atoms on their grid.  Market call
quotes are ingested by reading the implied potential straight off the
quoted curve: a piecewise-linear call curve in strike corresponds to a
purely atomic implied law with atoms at the quoted strikes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

MASS_TOL = 1e-12
EMBED_TOL = 1e-10
# slack of the no-arbitrage shape tests on a quoted call curve
CONVEXITY_TOL = 1e-9
# largest atom at zero a call curve may imply; it is folded into the
# lowest strike
ZERO_ATOM_TOL = 1e-6
# standard normal z with 0.5e-9 of the mass beyond it in each tail
_TAIL_Z = -ndtri(0.5e-9)

__all__ = [
    "Measure",
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
    "load_measure",
    "save_measure",
    "load_quotes",
]


class MeasureError(ValueError):
    """Invalid measure (mass, integrability or support) or market data file."""


class ArbitrageError(ValueError):
    """Call quotes violate the static no-arbitrage shape conditions."""


@dataclass(frozen=True)
class Measure:
    """A probability law on the real line.

    kind is one of ``atoms``, ``normal``, ``lognormal``.  For ``atoms``
    the invariant is: `locations` ascending (a stable sort at construction,
    so tied atoms keep their input order), `weights` in the same order and
    summing to 1, and the prefix sums `cum_weights[i]` and `cum_moments[i]`
    holding the mass and the first moment of the first i atoms (so both
    start at 0).  Arrays already in order are kept, not copied (`atoms`
    copies its inputs); none may be mutated after construction, as all
    operations treat the measure as immutable.  A ``normal`` or
    ``lognormal`` law needs a positive variance; `normal` and `lognormal`
    return a point mass for variance 0.
    """

    kind: str
    locations: Optional[np.ndarray] = None   # atoms: positions, ascending
    weights: Optional[np.ndarray] = None     # atoms: masses
    params: Optional[dict] = None            # normal / lognormal parameters
    support: tuple[float, float] = field(init=False)     # set from kind and locations
    cum_weights: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    cum_moments: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "atoms":
            locs = np.asarray(self.locations, dtype=float)
            w = np.asarray(self.weights, dtype=float)
            if locs.ndim != 1 or locs.shape != w.shape or locs.size == 0:
                raise MeasureError(f"atoms need one mass per location, got "
                                   f"{locs.shape} locations and {w.shape} masses")
            if np.any(locs[1:] < locs[:-1]):
                order = np.argsort(locs, kind="stable")
                locs, w = locs[order], w[order]
            if not np.all(np.isfinite(w)):
                raise MeasureError("non-finite mass")
            total = float(np.sum(w))
            if abs(total - 1.0) > 1e-9:
                raise MeasureError(f"total mass {total} != 1")
            if np.any(w < -MASS_TOL):
                raise MeasureError("negative mass")
            if not np.all(np.isfinite(locs)):
                raise MeasureError("infinite first moment")
            if total != 1.0:
                w = w / total
            # prefix sums built in place, so that a large law (an empirical
            # one of 6e5 paths) leaves no temporaries behind
            cw, cs = np.zeros(len(w) + 1), np.zeros(len(w) + 1)
            np.cumsum(w, out=cw[1:])
            np.multiply(w, locs, out=cs[1:])
            np.cumsum(cs[1:], out=cs[1:])
            for name, value in (("locations", locs), ("weights", w), ("cum_weights", cw),
                                ("cum_moments", cs), ("support", (float(locs[0]), float(locs[-1])))):
                object.__setattr__(self, name, value)
        elif self.kind in ("normal", "lognormal"):
            var = self.params["variance" if self.kind == "normal" else "log_variance"]
            if not var > 0:
                raise MeasureError(f"{self.kind} variance must be positive, got {var!r}")
            object.__setattr__(self, "support", (-np.inf if self.kind == "normal" else 0.0, np.inf))
        else:
            raise MeasureError(f"unknown measure kind {self.kind!r}")

    # -- basic statistics ---------------------------------------------------

    @property
    def mean(self) -> float:
        if self.kind == "atoms":
            return float(np.dot(self.weights, self.locations))
        if self.kind == "normal":
            return float(self.params["mean"])
        a, b2 = self.params["log_mean"], self.params["log_variance"]
        return float(math.exp(a + b2 / 2.0))

    def mean_abs_dev(self, x: np.ndarray) -> np.ndarray:
        """E|Y - x| for each grid point x (vectorized)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "atoms":
            # E|Y - x| = x (2 W(x) - 1) - (2 S(x) - S), with W(x) and S(x)
            # the mass and first moment of the atoms at or below x; written
            # so that numpy reuses each temporary in place
            cw, cs = self.cum_weights, self.cum_moments
            idx = np.searchsorted(self.locations, x, side="right")
            return x * (2.0 * cw[idx] - cw[-1]) - (2.0 * cs[idx] - cs[-1])
        if self.kind == "normal":
            m = self.params["mean"]
            s = math.sqrt(self.params["variance"])
            z = (x - m) / s
            pdf = np.exp(-z**2 / 2.0) / math.sqrt(2.0 * math.pi)
            return s * (2.0 * pdf + z * (2.0 * ndtr(z) - 1.0))
        # lognormal: E|Y - x| = 2 E(Y - x)_+ - (EY - x), with E(Y-x)_+ the
        # undiscounted Black-Scholes call value
        a = self.params["log_mean"]
        b = math.sqrt(self.params["log_variance"])
        ey = self.mean
        out = np.empty_like(x)
        neg = x <= 0.0
        out[neg] = ey - x[neg]
        xp = x[~neg]
        d1 = (a + b * b - np.log(xp)) / b
        d2 = d1 - b
        call = ey * ndtr(d1) - xp * ndtr(d2)
        out[~neg] = 2.0 * call - (ey - xp)
        return out

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "atoms":
            return self.cum_weights[np.searchsorted(self.locations, x, side="right")]
        if self.kind == "normal":
            m = self.params["mean"]
            s = math.sqrt(self.params["variance"])
            return ndtr((x - m) / s)
        a = self.params["log_mean"]
        b = math.sqrt(self.params["log_variance"])
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = ndtr((np.log(x[pos]) - a) / b)
        return out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "atoms":
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
class EmbeddingReport:
    """Result of the ordered-potential test U_nu >= U_mu."""

    passed: bool
    max_violation: float
    argmax: float
    mean_gap: float


@dataclass(frozen=True)
class CallQuotes:
    """Call quote curve at a single maturity plus market conventions.

    `discount` is the discount factor to the maturity, 1/B_T (e^{-rT} at
    a constant rate r), with B_T what one unit of cash grows to by then.
    A quote is today's price C(K) = B_T^{-1} E (S_T - K)_+.
    """

    strikes: np.ndarray
    prices: np.ndarray
    spot: float
    discount: float
    maturity: float

    @property
    def growth(self) -> float:
        """B_T = 1 / discount, the one place the library forms it."""
        return 1.0 / self.discount


# -- constructors -----------------------------------------------------------

def atoms(locations: Sequence[float], weights: Sequence[float]) -> Measure:
    """Atoms at `locations` with masses `weights`; both are copied."""
    return Measure(kind="atoms", locations=np.array(locations, dtype=float),
                   weights=np.array(weights, dtype=float))


def point_mass(x0: float) -> Measure:
    return atoms([x0], [1.0])


def normal(mean: float, variance: float) -> Measure:
    """N(mean, variance); variance 0 gives the point mass at the mean."""
    if variance == 0:
        return point_mass(mean)
    return Measure(kind="normal", params={"mean": float(mean), "variance": float(variance)})


def lognormal(log_mean: float, log_variance: float) -> Measure:
    """Law of exp(Y), Y ~ N(log_mean, log_variance); variance 0 gives the point mass at e^log_mean."""
    if log_variance == 0:
        return point_mass(math.exp(log_mean))
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
    if x.ndim != 1 or x.shape != f.shape:
        raise MeasureError("density table needs one value per grid point")
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
    return atoms(x[keep], w[keep])


def empirical(samples: np.ndarray, recenter_to: Optional[float] = None) -> Measure:
    """Empirical law of a sample: equal-weight atoms (not deduplicated).

    recenter_to shifts the atoms so the sample mean matches a known true
    mean, removing the O(n^{-1/2}) mean drift that would otherwise break
    the exact ordered-potential comparison against the start law.
    """
    s = np.sort(np.asarray(samples, dtype=float))
    if recenter_to is not None:
        s += recenter_to - s.mean()
    w = np.full(s.shape, 1.0 / len(s))
    return Measure(kind="atoms", locations=s, weights=w)


# -- potentials -------------------------------------------------------------

def potential(m: Measure, grid: np.ndarray) -> np.ndarray:
    """U_m(x) = -E|Y - x| at each point of a strictly increasing grid.

    Exact for atomic measures (prefix sums of the sorted atoms), closed
    forms for the normal and lognormal families; tabulated densities were
    already reduced to quadrature atoms at construction.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 1 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    return -m.mean_abs_dev(grid)


def check_embeddable(nu: Measure, mu: Measure) -> EmbeddingReport:
    """Ordered-potential test: nu can be embedded into mu iff U_nu >= U_mu.

    For two atomic laws the potentials are compared at the union of their
    atoms only, and the check is exact there: U_mu - U_nu is linear
    between those kinks and constant beyond the outermost ones, where it
    equals the signed mean gap (which the mean test below covers).  When
    either law is analytic the comparison runs on 801 points spanning both
    laws, padded by a tenth, plus every atom of an atomic partner.  The
    tolerance is EMBED_TOL times the largest |U_mu| on that padded span.
    Equal means are checked as well (they are implied by the ordering when
    it holds, and catch scaling mistakes when it does not).
    """
    lo1, hi1 = _measure_range(nu)
    lo2, hi2 = _measure_range(mu)
    pad = 0.1 * max(max(hi1, hi2) - min(lo1, lo2), 1.0)
    ends = np.array([min(lo1, lo2) - pad, max(hi1, hi2) + pad])
    if nu.kind == mu.kind == "atoms":
        grid = np.union1d(nu.locations, mu.locations)
    else:
        pts = [m.locations for m in (nu, mu) if m.kind == "atoms"]
        grid = np.unique(np.concatenate(pts + [np.linspace(ends[0], ends[1], 801)]))
    # U_mu is concave, so its largest magnitude on the span is at an end
    scale = max(1.0, float(np.max(np.abs(mu.mean_abs_dev(ends)))))
    diff = nu.mean_abs_dev(grid) - mu.mean_abs_dev(grid)   # U_mu - U_nu
    k = int(np.argmax(diff))
    max_violation = float(diff[k])
    mean_gap = abs(nu.mean - mu.mean)
    passed = (max_violation <= EMBED_TOL * scale) and (mean_gap <= 1e-7 * max(1.0, abs(mu.mean)))
    return EmbeddingReport(
        passed=passed,
        max_violation=max_violation,
        argmax=float(grid[k]),
        mean_gap=mean_gap,
    )


def _measure_range(m: Measure) -> tuple[float, float]:
    """Interval carrying all but 1e-9 of the measure."""
    if m.kind == "atoms":
        return m.support
    if m.kind == "normal":
        mm, s = m.params["mean"], math.sqrt(m.params["variance"])
        return mm - _TAIL_Z * s, mm + _TAIL_Z * s
    a, b = m.params["log_mean"], math.sqrt(m.params["log_variance"])
    return math.exp(a - _TAIL_Z * b), math.exp(a + _TAIL_Z * b)


# -- implied law from call quotes -------------------------------------------

def implied_measure_from_calls(quotes: CallQuotes) -> Measure:
    """Implied law of the discounted terminal price from a call curve.

    The quoted curve is completed with C(0) = spot on the left and a linear
    continuation to zero on the right, then interpolated piecewise-linearly.
    The implied potential is U(x) = spot - 2 C(B_T x) - x, so a
    piecewise-linear curve corresponds to a purely atomic law with atoms at
    the quoted strikes (divided by B_T) and masses given by the slope jumps.
    The resulting measure integrates to 1 and has mean equal to the spot.
    A quote whose strike or price is not finite raises ArbitrageError.
    """
    k = np.asarray(quotes.strikes, dtype=float)
    c = np.asarray(quotes.prices, dtype=float)
    s0 = float(quotes.spot)
    bad = np.flatnonzero(~(np.isfinite(k) & np.isfinite(c)))
    if len(bad):
        i = int(bad[0])
        raise ArbitrageError(f"quote {i + 1} of {len(k)} (strike {k[i]:g}, "
                             f"price {c[i]:g}) is not finite")
    if not (0 < quotes.discount < np.inf and 0 < s0 < np.inf):
        raise ArbitrageError("spot and discount factor must be positive and finite")
    bt = quotes.growth
    if np.any(np.diff(k) <= 0) or np.any(k <= 0):
        raise ArbitrageError("strikes must be positive and strictly increasing")
    if np.any(c < -CONVEXITY_TOL * s0):
        raise ArbitrageError("arbitrageable call curve: negative price")

    kk = np.concatenate(([0.0], k))
    cc = np.concatenate(([s0], c))
    slopes = np.diff(cc) / np.diff(kk)
    scale = max(1.0, s0)
    if np.any(np.diff(slopes) < -CONVEXITY_TOL * scale):
        raise ArbitrageError("arbitrageable call curve: not convex")
    if np.any(slopes > CONVEXITY_TOL):
        raise ArbitrageError("arbitrageable call curve: not decreasing")
    if slopes[0] < -1.0 / bt - CONVEXITY_TOL:
        raise ArbitrageError("arbitrageable call curve: slope below -1/B_T at zero")

    # close the curve: extend at the last slope until it crosses zero, so
    # the final kink sits at the crossing (no kink at the last quote)
    if c[-1] > CONVEXITY_TOL * scale:
        s_last = slopes[-1]
        if s_last >= -CONVEXITY_TOL:
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
    if atom_at_zero > ZERO_ATOM_TOL:
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

    discount is the discount factor 1/B_T, so that
    C(K) = B_T^{-1} E (S_T - K)_+ = E (X - K discount)_+.
    """
    strikes = np.asarray(strikes, dtype=float)
    x = strikes * discount
    # E(Y - x)_+ = (E|Y - x| + EY - x)/2
    return 0.5 * (m.mean_abs_dev(x) + m.mean - x)


# -- file formats -----------------------------------------------------------

def save_measure(m: Measure, path: str) -> None:
    doc: dict = {"kind": m.kind}
    if m.kind == "atoms":
        doc["atoms"] = [[float(x), float(w)] for x, w in zip(m.locations, m.weights)]
    else:
        doc["params"] = m.params
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def load_measure(path: str) -> Measure:
    """Read a measure JSON file (format in README).

    The legacy kind ``tabulated-density`` is still read, from either a
    ``density_table`` of [x, f] rows or an ``atoms`` list; it loads as an
    atom list and is saved back as ``atoms``.
    """
    with open(path) as fh:
        doc = json.load(fh)
    kind = doc.get("kind")
    if kind == "tabulated-density" and "density_table" in doc:
        return tabulated_density(*_columns(doc, "density_table"))
    if kind in ("atoms", "tabulated-density"):
        return atoms(*_columns(doc, "atoms"))
    if kind in ("normal", "lognormal"):
        keys = ("mean", "variance") if kind == "normal" else ("log_mean", "log_variance")
        try:
            args = [float(doc["params"][k]) for k in keys]
        except (KeyError, TypeError, ValueError) as exc:
            raise MeasureError(f"measure file: {kind} needs numeric params {keys} ({exc!r})") from None
        if not all(map(math.isfinite, args)):
            raise MeasureError(f"measure file: {kind} params must be finite, got {args}")
        return (normal if kind == "normal" else lognormal)(*args)
    raise MeasureError(f"unknown measure kind {kind!r}")


def _columns(doc: dict, key: str) -> tuple[np.ndarray, np.ndarray]:
    """The two columns of a JSON table of [x, value] rows."""
    try:
        table = np.asarray(doc[key], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise MeasureError(f"measure file: unreadable {key!r} table ({exc})") from None
    if table.ndim != 2 or table.shape[1] != 2:
        raise MeasureError(f"measure file: {key!r} rows must be [x, value] pairs")
    return table[:, 0], table[:, 1]


def load_quotes(csv_path: str, sidecar_path: str) -> CallQuotes:
    """Read a `strike,price` CSV plus its JSON sidecar of market data."""
    strikes, prices = [], []
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"strike", "price"} <= set(reader.fieldnames):
            raise ValueError(f"{csv_path}: expected header 'strike,price'")
        for row in reader:
            try:
                strikes.append(float(row["strike"]))
                prices.append(float(row["price"]))
            except (TypeError, ValueError):
                raise ValueError(f"{csv_path}, line {reader.line_num}: expected numbers "
                                 f"strike,price") from None
    with open(sidecar_path) as fh:
        meta = json.load(fh)
    keys = ("spot", "discount_factor", "maturity")
    try:
        spot, discount, maturity = (float(meta[key]) for key in keys)
    except (KeyError, TypeError, ValueError) as exc:
        raise MeasureError(f"{sidecar_path}: market data needs numeric {keys} ({exc!r})") from None
    if not all(map(math.isfinite, (spot, discount, maturity))):
        raise MeasureError(f"{sidecar_path}: market data must be finite, got "
                           f"spot {spot}, discount_factor {discount}, maturity {maturity}")
    return CallQuotes(strikes=np.asarray(strikes), prices=np.asarray(prices),
                      spot=spot, discount=discount, maturity=maturity)
