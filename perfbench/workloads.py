"""The benchmark's three workloads, each a closed loop over the library.

A workload builds its inputs once, from the workload seed, then
`iteration(tracer)` runs one pass: each stage waits for the one before.
Every operation is timed under a "stage.*" span and then checked at the
tolerance pinned by the acceptance suite (tests/test_acceptance.py); a
failed check or a raised error is counted, never skipped.

Three stages are common to all workloads, so that every workload reports
the same end-to-end metrics (README.md in this directory maps them):

- stage.barrier: laws -> Barrier; on the price workloads this is one
  `lower_bound` call, which also builds the hedge;
- stage.embed_check: barrier -> stopped batch -> law check;
- stage.certify: checks of the hedge functions; on the price workloads
  one `verify_subhedge` verdict.

Checks whose verdict is a significance test (KS at the 1% level, means
within 3 standard errors) run on the fixed seeds of the acceptance suite:
with a fresh seed each such test fails one run in a hundred by design.
Every other random input comes from the workload seed.
"""

from __future__ import annotations

import traceback

import numpy as np

from rootbarrier import barrier as br
from rootbarrier import measures as ms
from rootbarrier import obstacle as ob
from rootbarrier import optimality as opt
from rootbarrier import parabola as pb
from rootbarrier import pricing as pr
from rootbarrier import simulate as sim

from spans import Tracer

# seeds of the significance tests, as in tests/test_acceptance.py
ATTAINING_SEED = 9       # criterion 11
REEMBED_SEED = 21        # criterion 3
MARTINGALE_SEED = 41     # criterion 9
ROOT_SEED, COMPETITOR_SEED = 31, 32   # criterion 8

# 6e5 float64 paths make 4.6 MiB per array: more than the L2 of both cores
# of the reference machine together (2 x 2 MiB)
ROUND_TRIP_PATHS = 600_000


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.checks: list[dict] = []
        self.figures: dict[str, float] = {}

    def iteration(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def op(self, tracer: Tracer, stage: str, name: str, call, check):
        """Run `call` under a stage span, then `check` its result outside it.

        `check(result)` returns (passed, figures).  An exception from either
        counts as a failed operation; the result is then None, so any later
        operation that needs it fails too instead of being skipped.
        """
        idx = tracer.open(f"stage.{stage}")
        tracer.spans[idx].attrs = {"op": name}
        try:
            result = call()
        except Exception:
            tracer.close(idx)
            self.checks.append({"op": name, "ok": False, "error": traceback.format_exc(limit=3)})
            return None
        tracer.close(idx)
        try:
            ok, figures = check(result)
        except Exception:
            self.checks.append({"op": name, "ok": False, "error": traceback.format_exc(limit=3)})
            return result
        self.checks.append({"op": name, "ok": bool(ok), **{k: float(v) for k, v in figures.items()}})
        return result

    def subhedge_check(self, out: dict) -> tuple[bool, dict]:
        return out["fraction_subhedged"] >= 0.99, {"fraction": out["fraction_subhedged"]}

    def attaining_ks_check(self, rep: pr.HedgeReport):
        def check(batch):
            ks = sim.ks_statistic(batch.stopped_values, rep.implied_measure)
            crit = sim.ks_critical_value(batch.n, 0.01)
            return ks <= crit, {"ks": ks, "ks_critical": crit, "horizon_mass": batch.horizon_mass}
        return check

    def residual_check(self, residual: float, tol: float) -> tuple[bool, dict]:
        """Complementarity residual of a solve; the worst one is the `lcp_residual` figure."""
        self.figures["lcp_residual"] = max(self.figures.get("lcp_residual", 0.0), float(residual))
        return residual <= tol, {"lcp_residual": residual}


class PriceDense(Workload):
    """301 Black-Scholes quotes and a book of three variance payoffs.

    The LCP is easy (about 8 PSOR sweeps per step); the time goes to
    `compute_M` and to the hedge-surface lookups of `verify_subhedge`.  The
    three payoffs share the same assemble/solve/extract, so a solve cache
    would show here and not on price-atomic.
    """

    name = "price-dense"
    subhedge_dt = 2e-3
    subhedge_paths = 10_000
    attaining_dt = 1e-4
    attaining_paths = 10_000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.market = pr.synthetic_lognormal_quotes(spot=1.0, vol=0.2, maturity=1.0, rate=0.0, n_strikes=301)
        self.cfg = pr.PricingConfig()
        self.book = [opt.variance_swap(), opt.variance_call(0.02), opt.variance_call(0.04)]
        # the admissible models of acceptance criterion 11
        self.models = [
            sim.PriceModel(kind="constant", s0=1.0, maturity=1.0, vol=0.2, rate=0.0),
            sim.PriceModel(kind="constant", s0=1.0, maturity=1.0, vol=0.35, rate=0.02),
            sim.PriceModel(kind="piecewise", s0=1.0, maturity=1.0,
                           vol=(np.array([0.5]), np.array([0.15, 0.3])), rate=0.0),
        ]

    def iteration(self, tracer: Tracer) -> None:
        reports = []
        for payoff in self.book:
            def check(rep, payoff=payoff):
                ok, figs = self.residual_check(rep.diagnostics["lcp_max_residual"], self.cfg.lcp_tol)
                if payoff.kind == "variance-swap":
                    # acceptance criterion 10: the swap bound is the log-contract value
                    sv = pr.swap_value(self.market)
                    rel = abs(rep.lower_bound - sv) / sv
                    self.figures["bound_rel_err"] = rel
                    ok, figs = ok and rel <= 1e-4, {**figs, "bound_rel_err": rel}
                return ok, figs
            reports.append(self.op(tracer, "barrier", f"lower_bound[{payoff.label}]",
                                   lambda payoff=payoff: pr.lower_bound(self.market, payoff, self.cfg), check))
        call_rep = reports[1]
        self.op(tracer, "embed_check", "attaining_model_ks",
                lambda: sim.simulate_price_model(call_rep.attaining_model(), n=self.attaining_paths,
                                                 dt=self.attaining_dt, seed=ATTAINING_SEED),
                self.attaining_ks_check(call_rep))
        for k, model in enumerate(self.models):
            self.op(tracer, "certify", f"verify_subhedge[{k}]",
                    lambda model=model: pr.verify_subhedge(call_rep, model, n=self.subhedge_paths,
                                                           seed=self.seed, dt=self.subhedge_dt),
                    self.subhedge_check)


class PriceAtomic(Workload):
    """Two quoted atoms and a variance call at K = 0.05.

    The same layers as price-dense, used differently: the LCP is hard
    (hundreds of PSOR sweeps per step), and paths step through the
    time-change and spike-crossing loop.  One payoff only, so a solve
    cache would not help.  The grid is below the pricing default to keep a
    run short; the attaining-model fraction subhedged is reported as
    measured (acceptance 11 checks only its tightness).
    """

    name = "price-atomic"
    nx, nt, nt_hedge = 201, 400, 500
    dt = 4e-4
    paths = 10_000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # the market of tests/conftest.py::two_atom_market
        self.market = pr.MarketData(spot=1.0, discount=1.0, maturity=1.0,
                                    strikes=np.array([0.7, 1.05, 1.4]),
                                    prices=np.array([0.3, 3.0 / 7.0 * 0.35, 0.0]))
        self.cfg = pr.PricingConfig(nx=self.nx, nt=self.nt, nt_hedge=self.nt_hedge)
        self.payoff = opt.variance_call(0.05)

    def iteration(self, tracer: Tracer) -> None:
        rep = self.op(tracer, "barrier", "lower_bound",
                      lambda: pr.lower_bound(self.market, self.payoff, self.cfg),
                      lambda r: self.residual_check(r.diagnostics["lcp_max_residual"], self.cfg.lcp_tol))

        def tight(out):
            self.figures["attaining_frac"] = out["fraction_subhedged"]
            return out["tight"], {"fraction": out["fraction_subhedged"], "gap": out["tightness_gap"],
                                  "three_se": 3.0 * out["se_portfolio"]}

        self.op(tracer, "certify", "verify_subhedge[attaining]",
                lambda: pr.verify_subhedge(rep, rep.attaining_model(), n=self.paths,
                                           seed=ATTAINING_SEED, dt=self.dt),
                tight)
        self.op(tracer, "embed_check", "attaining_model_ks",
                lambda: sim.simulate_price_model(rep.attaining_model(), n=self.paths,
                                                 dt=self.dt, seed=ATTAINING_SEED),
                self.attaining_ks_check(rep))


class EmbedCertify(Workload):
    """The Brownian chain: Normal barrier, re-embedding, certificate, round trip.

    Path stepping and `Barrier.value_at` do most of the work; pricing does
    none and the LCP (9 to 50 PSOR sweeps per step) little.  Each per-path
    array of the round trip is larger than the L2 cache.
    """

    name = "embed-certify"
    reembed_paths, reembed_dt = 20_000, 1e-3
    martingale_paths, martingale_dt = 20_000, 4e-3
    round_trip_dt = 1e-2
    competitor_paths, competitor_dt = 20_000, 4e-3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.bm = ob.brownian()
        self.nu = ms.point_mass(0.0)
        self.mu = ms.normal(0.0, 1.0)
        self.normal_cfg = ob.SolverConfig(x_lo=-6.2, x_hi=6.2, nx=801, horizon=1.5, nt=6000)
        x = np.linspace(-2.5, 3.5, 601)
        self.parabola = br.from_function(pb.barrier_fn, x, horizon=4.0)
        self.parabola_payoff = opt.power_payoff(2.0, cap=6.0)
        self.round_trip_cfg = ob.SolverConfig(x_lo=-2.6, x_hi=3.6, nx=621, horizon=3.5, nt=1400)
        xg = np.linspace(-6.5, 6.5, 1301)
        self.flat = br.from_function(lambda s: np.ones_like(s), xg, 2.0)
        self.flat_payoff = opt.power_payoff(2.0, cap=4.0)
        self.root_barrier = br.Barrier(x=np.array([-10.0, 10.0]), R=np.array([1.0, 1.0]), horizon=2.0)

    def laws_to_barrier(self, mu, cfg) -> tuple[br.Barrier, float]:
        sol = ob.solve(ob.assemble(self.bm, self.nu, mu, cfg))
        return br.extract_barrier(sol), sol.max_residual

    def iteration(self, tracer: Tracer) -> None:
        cfg = self.normal_cfg

        def normal_check(res):
            b, residual = res
            ok, figs = self.residual_check(residual, cfg.lcp_tol)
            central = np.abs(b.x) <= 1.96
            dev = float(np.max(np.abs(b.R[central] - 1.0)))
            two_cells = 2.0 * float(np.max(np.diff(b.x)))
            self.figures["barrier_dev"] = dev
            return ok and dev <= two_cells, {**figs, "barrier_dev": dev, "two_cells": two_cells}

        res = self.op(tracer, "barrier", "normal_barrier",
                      lambda: self.laws_to_barrier(self.mu, cfg), normal_check)
        b = res[0] if res else None

        def reembed():
            batch = sim.simulate_stopped(self.bm, self.nu, b, n=self.reembed_paths,
                                         dt=self.reembed_dt, seed=REEMBED_SEED)
            return batch, sim.ks_statistic(batch.stopped_values, self.mu.cdf)

        def ks_check(res):
            batch, ks = res
            crit = sim.ks_critical_value(batch.n, 0.01)
            return ks <= crit, {"ks": ks, "ks_critical": crit, "horizon_mass": batch.horizon_mass}

        self.op(tracer, "embed_check", "normal_reembed_ks", reembed, ks_check)

        def certificate():
            hf = opt.build_hedge(self.bm, self.parabola, self.parabola_payoff, self.parabola.x,
                                 nt=2400, base_point=0.0, t_max=6.0)
            return hf, opt.verify_pathwise(hf)

        def golden_check(res):
            hf, pathwise = res
            window = (hf.x >= -1.9) & (hf.x <= 2.9)
            xs = hf.x[window]
            err = max(float(np.max(np.abs(hf.Z[window] - pb.Z_exact(xs)))),
                      float(np.max(np.abs(hf.H[window] - pb.H_exact(xs)))))
            for j, tv in enumerate(hf.t):
                err = max(err, float(np.max(np.abs(hf.M[j][window] - pb.M_exact(xs, tv)))),
                          float(np.max(np.abs(hf.G[j][window] - pb.G_exact(xs, tv)))))
            self.figures["golden_err"] = err
            return err <= 1e-3 and pathwise["passed"], {
                "golden_err": err, "max_violation": pathwise["max_violation"]}

        cert = self.op(tracer, "certify", "parabola_hedge", certificate, golden_check)
        self.op(tracer, "certify", "verify_martingale",
                lambda: opt.verify_martingale(cert[0], self.bm, self.nu, n=self.martingale_paths,
                                              seed=MARTINGALE_SEED, ladder=[0.5, 1.0, 2.0, 4.0],
                                              dt=self.martingale_dt),
                lambda rep: (rep["martingale_ok"] and rep["submartingale_ok"], {}))

        def round_trip_law():
            batch = sim.simulate_stopped(self.bm, self.nu, self.parabola, n=ROUND_TRIP_PATHS,
                                         dt=self.round_trip_dt, seed=self.seed)
            return batch, ms.empirical(batch.stopped_values, recenter_to=0.0)

        def horizon_check(res):
            # the library flags a batch whose horizon mass exceeds 1%
            return res[0].horizon_mass <= 0.01, {"horizon_mass": res[0].horizon_mass}

        def round_trip_check(res):
            b_hat, residual = res
            ok, figs = self.residual_check(residual, self.round_trip_cfg.lcp_tol)
            window = (b_hat.x >= -1.5) & (b_hat.x <= 2.5)
            err = float(np.max(np.abs(b_hat.R[window] - pb.barrier_fn(b_hat.x[window]))))
            finite = bool(np.all(np.isfinite(b_hat.R[window])))
            return ok and finite and err <= 0.15, {**figs, "round_trip_err": err}

        law = self.op(tracer, "embed_check", "parabola_round_trip_paths", round_trip_law, horizon_check)
        # the empirical law -> Barrier solve is laws -> Barrier work, so it counts in stage.barrier
        self.op(tracer, "barrier", "parabola_round_trip_barrier",
                lambda: self.laws_to_barrier(law[1], self.round_trip_cfg), round_trip_check)

        def competitor():
            hf = opt.build_hedge(self.bm, self.flat, self.flat_payoff, self.flat.x, nt=800, base_point=0.0)
            root = sim.simulate_stopped(self.bm, self.nu, self.root_barrier, n=self.competitor_paths,
                                        dt=1 / 100, seed=ROOT_SEED)
            comp = sim.hall_competitor(self.mu, n=self.competitor_paths, dt=self.competitor_dt,
                                       seed=COMPETITOR_SEED)
            return opt.optimality_gap(hf, self.flat_payoff, root, comp, self.mu)

        def gap_check(rep):
            exact = rep["EF_root"] == self.flat_payoff.F(np.array([1.0]))[0]
            return exact and rep["optimal"] and rep["chain_ok"], {
                "EF_root": rep["EF_root"], "EF_competitor": rep["EF_competitor"], "ks": rep["ks"]}

        self.op(tracer, "certify", "competitor_gap", competitor, gap_check)


WORKLOADS = {w.name: w for w in (PriceDense, PriceAtomic, EmbedCertify)}
