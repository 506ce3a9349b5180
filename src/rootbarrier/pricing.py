"""Robust lower bounds and subhedges for options on realized variance.

Given call quotes at one maturity, the implied law of the discounted
terminal price is extracted, embedded by a stopping barrier for the
driftless geometric diffusion (solved in log space), and the hedge
functions G and H are assembled with base point at the spot.  The lower
bound for a payoff F of realized variance is the setup cost

    B_T^{-1} [ G(S0, 0) + H(S0) + int C(B_T K) H''(dK) + int P(B_T K) H''(dK) ],

realized as cash, a forward position, and a strip of calls and puts whose
weights are the slope changes of H across the quoted strikes, plus a
dynamic position of B_T^{-1} dG/dx(X_t, rv_t) units of the asset marked
against accumulated squared log returns.  Any admissible price path keeps
the portfolio at or below the payoff; the barrier time-change model makes
it tight.

A price below the bound is an arbitrage; the upper bound for concave
payoffs follows from exact variance-swap replication via the log
contract (price(L) = f_inf * swap - price(F) model by model, so the
extremal prices are complementary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.stats import norm

from . import measures, simulate as sim
from .barrier import Barrier, extract_barrier
from .measures import CallQuotes, Measure
from .obstacle import SolverConfig, assemble, geometric_brownian, solve
from .optimality import HedgeFunctions, PayoffSpec, build_hedge

__all__ = [
    "MarketData",
    "PricingConfig",
    "HedgeReport",
    "ConcavePayoff",
    "lower_bound",
    "static_portfolio",
    "verify_subhedge",
    "upper_bound_concave",
    "log_contract_value",
    "swap_value",
    "black_scholes_call",
    "synthetic_lognormal_quotes",
]


@dataclass(frozen=True)
class MarketData:
    """Call quotes at one maturity plus spot, discount factor and maturity."""

    spot: float
    discount: float
    maturity: float
    strikes: np.ndarray
    prices: np.ndarray

    def quotes(self) -> CallQuotes:
        return CallQuotes(
            strikes=self.strikes, prices=self.prices,
            spot=self.spot, discount=self.discount, maturity=self.maturity,
        )

    @classmethod
    def from_files(cls, csv_path: str, sidecar_path: str) -> "MarketData":
        q = measures.load_quotes(csv_path, sidecar_path)
        return cls(spot=q.spot, discount=q.discount, maturity=q.maturity,
                   strikes=q.strikes, prices=q.prices)


@dataclass(frozen=True)
class PricingConfig:
    nx: int = 901
    nt: int = 1600
    nt_hedge: int = 2000
    horizon: Optional[float] = None      # variance-time horizon of the VI
    horizon_multiple: float = 8.0        # default horizon = multiple * swap value
    lam: float = 1.0
    lcp_tol: float = 1e-8
    domain_pad: float = 0.10             # log-space padding beyond the support
    contact_tol: Optional[float] = None


@dataclass(frozen=True)
class HedgeReport:
    lower_bound: float
    cash: float
    forward_units: float
    strike_weights: list          # (strike in S_T units, option units) pairs
    market: MarketData
    payoff: PayoffSpec
    implied_measure: Measure
    barrier: Barrier
    hedge: HedgeFunctions
    diagnostics: dict = field(default_factory=dict)

    def delta(self, x: np.ndarray, accumulated_variance: float) -> np.ndarray:
        """Units of the asset held by the dynamic account, B_T^{-1} scaled."""
        return self.hedge.delta_at(np.asarray(x, dtype=float), accumulated_variance) / self.market.discount

    def attaining_model(self) -> "sim.PriceModel":
        """The barrier time-change price model under which the bound is met.

        The implied law is atomic, so its barrier carries vertical spikes
        at the quoted strikes; their locations and arming times ride along
        for the bridge-corrected stopping test.
        """
        mu = self.implied_measure
        arm = self.barrier.value_at(mu.locations)
        return sim.PriceModel(
            kind="time-change-to-barrier", s0=self.market.spot,
            maturity=self.market.maturity, rate=0.0,
            barrier=self.barrier, spikes=(mu.locations, arm),
        )

    def to_json_dict(self) -> dict:
        return {
            "lower_bound": self.lower_bound,
            "cash": self.cash,
            "forward_units": self.forward_units,
            "strike_weights": [[float(k), float(w)] for k, w in self.strike_weights],
            "base_point": self.hedge.base_point,
            "payoff": self.payoff.label or self.payoff.kind,
            "diagnostics": self.diagnostics,
        }


# -- quote synthesis (demos and verification) ---------------------------------

def black_scholes_call(spot, strike, vol, maturity, rate=0.0):
    """Undamped Black-Scholes call; returns intrinsic value for zero variance."""
    strike = np.asarray(strike, dtype=float)
    df = math.exp(-rate * maturity)
    fwd = spot / df
    sd = vol * math.sqrt(maturity)
    if sd == 0:
        return df * np.maximum(fwd - strike, 0.0)
    d1 = (np.log(fwd / strike) + 0.5 * sd * sd) / sd
    return df * (fwd * norm.cdf(d1) - strike * norm.cdf(d1 - sd))


def synthetic_lognormal_quotes(
    spot=1.0, vol=0.2, maturity=1.0, rate=0.0,
    n_strikes=301, coverage=6.0,
) -> MarketData:
    """Dense Black-Scholes call quotes spanning +-coverage stdevs of log price."""
    sd = vol * math.sqrt(maturity)
    fwd = spot * math.exp(rate * maturity)
    lo = fwd * math.exp(-coverage * sd - 0.5 * sd * sd)
    hi = fwd * math.exp(coverage * sd - 0.5 * sd * sd)
    strikes = np.linspace(lo, hi, n_strikes)
    prices = black_scholes_call(spot, strikes, vol, maturity, rate)
    return MarketData(
        spot=spot, discount=math.exp(-rate * maturity), maturity=maturity,
        strikes=strikes, prices=prices,
    )


# -- model-free swap and log-contract values ----------------------------------

def log_contract_value(market: MarketData, mu: Optional[Measure] = None) -> float:
    """Price of the contract paying ln S_T, by quadrature against the implied law."""
    if mu is None:
        mu = measures.implied_measure_from_calls(market.quotes())
    e_ln_x = float(np.dot(mu.weights, np.log(mu.locations)))
    bt = market.discount
    return (e_ln_x + math.log(bt)) / bt


def swap_value(market: MarketData, mu: Optional[Measure] = None) -> float:
    """Model-free price of the payoff <ln S>_T: -2 B_T^{-1} E ln(X_T / S0)."""
    if mu is None:
        mu = measures.implied_measure_from_calls(market.quotes())
    e_ln = float(np.dot(mu.weights, np.log(mu.locations / market.spot)))
    return -2.0 * e_ln / market.discount


# -- static replication ---------------------------------------------------------

def static_portfolio(
    nodes: np.ndarray,
    h_values: np.ndarray,
    spot: float,
    discount: float,
) -> tuple[float, float, list]:
    """Cash, forward and option weights replicating H at the given kinks.

    The piecewise-linear interpolant of H through the nodes is written as
    H(S0) + H'_+(S0)(x - S0) plus calls above the spot and puts at or
    below it, with option units equal to the slope changes; the identity
    is exact at every node.  All units carry the B_T^{-1} prefactor of the
    terminal payoff mapping x = B_T^{-1} S_T.
    """
    x = np.asarray(nodes, dtype=float)
    h = np.asarray(h_values, dtype=float)
    i0 = int(np.argmin(np.abs(x - spot)))
    if abs(x[i0] - spot) > 1e-9 * max(1.0, spot):
        raise ValueError("the spot must be one of the portfolio nodes")
    if len(x) < 2:
        # target concentrated at the spot: a pure cash position
        return h[0] / discount, 0.0, []
    slopes = np.diff(h) / np.diff(x)
    h_s0 = h[i0]
    slope_right = slopes[i0] if i0 < len(slopes) else slopes[-1]
    cash = (h_s0 - slope_right * spot) / discount
    forward_units = slope_right / discount
    # every interior kink is an option leg; the one at the spot becomes a
    # put because the forward leg carries only the right slope there
    weights = []
    jumps = np.diff(slopes)
    total_variation = float(np.sum(np.abs(jumps)))
    if not np.isfinite(total_variation) or total_variation > 1e8 * max(1.0, spot):
        raise ValueError(
            "static payoff cannot be replicated at finite cost: the strike "
            f"weights have total variation {total_variation:.3e}"
        )
    for i, w in zip(range(1, len(x) - 1), jumps):
        if abs(w) < 1e-14:
            continue
        weights.append((discount * x[i], w / discount))
    return cash, forward_units, weights


# -- the bound -------------------------------------------------------------------

def lower_bound(
    market: MarketData,
    payoff: PayoffSpec,
    cfg: Optional[PricingConfig] = None,
) -> HedgeReport:
    """Model-independent lower bound and subhedge for F(<ln S>_T).

    Pipeline: implied law from the quotes, log-space obstacle solve for the
    embedding barrier of delta_{S0} into the implied law, hedge functions
    with base point S0, then the static strike decomposition priced off
    the quoted curve (puts via parity).
    """
    if cfg is None:
        cfg = PricingConfig()
    mu = measures.implied_measure_from_calls(market.quotes())
    nu = measures.point_mass(market.spot)
    s0 = market.spot
    bt = market.discount

    sv = swap_value(market, mu)
    horizon = cfg.horizon if cfg.horizon is not None else max(cfg.horizon_multiple * sv, 1e-4)

    lo = float(mu.locations.min())
    hi = float(mu.locations.max())
    pad = cfg.domain_pad
    x_lo = lo * math.exp(-pad)
    x_hi = hi * math.exp(pad)
    scfg = SolverConfig(
        x_lo=x_lo, x_hi=x_hi, nx=cfg.nx, horizon=horizon, nt=cfg.nt,
        lam=cfg.lam, lcp_tol=cfg.lcp_tol,
    )
    diff = geometric_brownian()
    sol = solve(assemble(diff, nu, mu, scfg))
    bar = extract_barrier(sol, contact_tol=cfg.contact_tol, support=(lo, hi))

    finite_r = bar.R[np.isfinite(bar.R)]
    r_max = float(finite_r.max()) if len(finite_r) else 0.0
    open_nodes = int(np.sum(~np.isfinite(bar.R)))
    if open_nodes and not np.isfinite(payoff.cap_time):
        raise measures.MeasureError(
            f"{open_nodes} grid nodes never reach the obstacle within the "
            f"variance horizon {horizon:.4g} and the payoff derivative never "
            "flattens; increase the horizon or cap the payoff"
        )

    cap = payoff.cap_time if np.isfinite(payoff.cap_time) else 0.0
    t_max = max(r_max, cap) + 1e-9
    hf = build_hedge(diff, bar, payoff, bar.x, nt=cfg.nt_hedge,
                     base_point=s0, t_max=t_max)

    # static decomposition at the implied atoms (the quoted strikes)
    kink_x = mu.locations
    interior = (kink_x > bar.x[0]) & (kink_x < bar.x[-1])
    nodes = np.unique(np.concatenate((kink_x[interior], [s0])))
    h_at = hf.H_at(nodes)
    cash, forward_units, weights = static_portfolio(nodes, h_at, s0, bt)

    # option legs priced off the quoted curve; puts from call-put parity
    option_cost = 0.0
    for k, w in weights:
        c_k = _quote_curve(market, np.array([k]))[0]
        if k > bt * s0:
            option_cost += w * c_k
        else:
            option_cost += w * (k / bt - s0 + c_k)   # put via parity, discounted strike leg
    g0 = float(hf.G_at(np.array([s0]), 0.0)[0])
    h0 = float(hf.H_at(np.array([s0]))[0])
    bound = (g0 + h0) / bt + option_cost

    diagnostics = {
        "swap_value": sv,
        "variance_horizon": horizon,
        "barrier_max_time": r_max,
        "lcp_max_residual": sol.max_residual,
        "G_at_spot": g0,
        "H_at_spot": h0,
        "option_cost": option_cost,
        "n_strike_weights": len(weights),
    }
    return HedgeReport(
        lower_bound=float(bound), cash=float(cash), forward_units=float(forward_units),
        strike_weights=weights, market=market, payoff=payoff,
        implied_measure=mu, barrier=bar, hedge=hf, diagnostics=diagnostics,
    )


def _quote_curve(market: MarketData, strikes: np.ndarray) -> np.ndarray:
    """Piecewise-linear quoted call curve, completed at 0 and in the tail."""
    k = np.concatenate(([0.0], market.strikes))
    c = np.concatenate(([market.spot], market.prices))
    if c[-1] > 0 and len(k) >= 2:
        s_last = (c[-1] - c[-2]) / (k[-1] - k[-2])
        if s_last < 0:
            k = np.append(k, k[-1] - c[-1] / s_last)
            c = np.append(c, 0.0)
    out = np.interp(np.asarray(strikes, dtype=float), k, c)
    return np.maximum(out, 0.0)


# -- pathwise verification --------------------------------------------------------

def verify_subhedge(
    report: HedgeReport,
    model: sim.PriceModel,
    n: int = 10_000,
    seed: int = 0,
    dt: float = 1e-3,
    allowance: Optional[float] = None,
) -> dict:
    """Mark the subhedge along the paths simulate_price_model draws.

    The dynamic account starts at G(s0, 0), s0 the model's start, and
    accumulates delta * (increment of the discounted price) with the
    delta read off dG/dx at the current accumulated variance; the static
    account pays the piecewise-linear H at the terminal discounted price.  The report gives the fraction of paths on
    which portfolio <= payoff + allowance (the allowance covers the
    documented discrete-marking bias, which shrinks like sqrt(dt)) and,
    for the attaining time-change model, the tightness of the mean; `ks`
    is the KS distance of the terminal discounted prices from the implied
    law.
    """
    hf = report.hedge
    bt = report.market.discount
    g0 = float(hf.G_at(np.array([model.s0]), 0.0)[0])
    payoff = report.payoff
    rv = sim._RealizedVariance()
    account = _HedgeAccount(hf, rv)
    batch = sim._price_batch(model, n, dt, seed, rv, before=(account,))

    static_leg = _static_value(report, batch.stopped_values)
    portfolio = g0 + account.values + static_leg    # terminal, undiscounted units
    target = payoff.F(batch.realized_variance)
    if allowance is None:
        # discrete-marking bias allowance, calibrated at dt = 1e-3 and
        # shrinking with the step like the observed overshoot does
        allowance = 1e-3 * max(1.0, payoff.f_bound) * math.sqrt(max(dt, 1e-9) / 1e-3)
    ok = portfolio <= target + allowance
    frac = float(np.mean(ok))
    mean_port = float(np.mean(portfolio)) / bt
    se_port = float(np.std(portfolio) / math.sqrt(n)) / bt
    gap = mean_port - report.lower_bound
    return {
        "fraction_subhedged": frac,
        "allowance": float(allowance),
        "mean_portfolio_discounted": mean_port,
        "se_portfolio": se_port,
        "bound": report.lower_bound,
        "tightness_gap": gap,
        "tight": bool(abs(gap) <= 3.0 * se_port),
        "ks": sim.ks_statistic(batch.stopped_values, report.implied_measure),
        "passed": bool(frac >= 0.99),
        "model": model.kind,
        "n": n,
        "dt": dt,
    }


class _HedgeAccount:
    """Path observer: gains of the dynamic hedge.

    The delta of a step is read at the variance accrued before it, so the
    account must see each step ahead of the variance observer rv.
    """

    def __init__(self, hf: HedgeFunctions, rv: sim._RealizedVariance):
        self.hf, self.rv = hf, rv

    def start(self, x0, n_steps, dt):
        self.values = np.zeros(len(x0))

    def __call__(self, s) -> None:
        phi = self.hf.delta_at(s.x_old, self.rv.values[s.ids])   # at each path's own variance
        self.values[s.ids] += phi * (s.x_new - s.x_old)


def _static_value(report: HedgeReport, x_terminal: np.ndarray) -> np.ndarray:
    bt = report.market.discount
    s_t = bt * np.asarray(x_terminal, dtype=float)
    out = np.full_like(s_t, report.cash * bt)
    out += report.forward_units * s_t
    for k, w in report.strike_weights:
        if k > bt * report.market.spot:
            out += w * np.maximum(s_t - k, 0.0)
        else:
            out += w * np.maximum(k - s_t, 0.0)
    return out


# -- concave payoffs ---------------------------------------------------------------

@dataclass(frozen=True)
class ConcavePayoff:
    """Increasing concave payoff L with derivative l vanishing beyond a time."""

    L: Callable[[np.ndarray], np.ndarray]
    l: Callable[[np.ndarray], np.ndarray]
    l_zero_time: float
    label: str = "concave"


def upper_bound_concave(
    market: MarketData,
    f_bound: float,
    payoff_L: ConcavePayoff,
    cfg: Optional[PricingConfig] = None,
) -> dict:
    """Upper bound for a concave payoff via exact swap replication.

    L(t) = f_bound * t - F(t) for the convex complement F, and the swap
    itself is priced model-independently by the log contract, so
    sup price(L) = f_bound * swap - inf price(F); the report returns the
    bound together with its ingredients.
    """
    from .optimality import custom_payoff

    def F(t):
        t = np.asarray(t, dtype=float)
        return f_bound * t - payoff_L.L(t)

    def f(t):
        t = np.asarray(t, dtype=float)
        return f_bound - payoff_L.l(t)

    convex = custom_payoff(F, f, f_bound=f_bound, cap_time=payoff_L.l_zero_time,
                           label=f"convex complement of {payoff_L.label}")
    rep = lower_bound(market, convex, cfg)
    sv = rep.diagnostics["swap_value"]
    upper = f_bound * sv - rep.lower_bound
    return {
        "upper_bound": float(upper),
        "swap_value": float(sv),
        "lower_bound_complement": rep.lower_bound,
        "log_contract_value": log_contract_value(market, rep.implied_measure),
        "identity_sum": float(upper + rep.lower_bound),
        "report": rep,
    }
