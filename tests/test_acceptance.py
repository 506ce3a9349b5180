"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every tolerance is fixed here; the configurations are the cheapest ones at
which the stated tolerances hold with margin, and all randomness is seeded
so reruns are bit-identical.
"""

import time

import numpy as np
import pytest

from rootbarrier import barrier as br
from rootbarrier import measures as ms
from rootbarrier import obstacle as ob
from rootbarrier import optimality as opt
from rootbarrier import parabola as pb
from rootbarrier import pricing as pr
from rootbarrier import simulate as sim


def verdict(num, ok, text):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, text


# -- 1 & 2: closed-form golden suite -------------------------------------------


@pytest.fixture(scope="module")
def golden():
    t0 = time.time()
    x = np.linspace(-2.5, 3.5, 601)
    bar = br.from_function(pb.barrier_fn, x, horizon=4.0)
    payoff = opt.power_payoff(2.0, cap=6.0)
    hf = opt.build_hedge(ob.brownian(), bar, payoff, x, nt=2400,
                         base_point=0.0, t_max=6.0)
    return hf, bar, payoff, time.time() - t0


def test_criterion_1_example_golden_suite(golden):
    hf, bar, payoff, elapsed = golden
    window = (hf.x >= -1.9) & (hf.x <= 2.9)
    xs = hf.x[window]
    errs = {"M": 0.0, "G": 0.0}
    for j, tv in enumerate(hf.t):
        errs["M"] = max(errs["M"], float(np.max(np.abs(hf.M[j][window] - pb.M_exact(xs, tv)))))
        errs["G"] = max(errs["G"], float(np.max(np.abs(hf.G[j][window] - pb.G_exact(xs, tv)))))
    errs["Z"] = float(np.max(np.abs(hf.Z[window] - pb.Z_exact(xs))))
    errs["H"] = float(np.max(np.abs(hf.H[window] - pb.H_exact(xs))))
    worst = max(errs.values())
    ok = worst <= 1e-3 and elapsed <= 60.0
    verdict(1, ok, f"closed forms M/Z/G/H max err {worst:.2e} (<=1e-3), "
                   f"nx=601 nt=2400, built in {elapsed:.1f}s (<=60s)")


def test_criterion_2_pathwise_inequality(golden):
    hf, bar, payoff, _ = golden
    gap = hf.G + hf.H[None, :] - hf.F_grid[:, None]
    max_violation = float(np.max(gap))
    window = (hf.x >= -1.9) & (hf.x <= 2.9)
    worst_free = 0.0
    for j, tv in enumerate(hf.t):
        exact = pb.gap_exact(hf.x[window], tv)
        free = exact < 0
        if free.any():
            worst_free = max(worst_free, float(np.max(np.abs(gap[j][window][free] - exact[free]))))
    ok = max_violation <= 1e-6 and worst_free <= 1e-3
    verdict(2, ok, f"G+H-F <= {max_violation:.1e} everywhere (<=1e-6); "
                   f"free-region profile err {worst_free:.2e} (<=1e-3)")


# -- 3: Normal-target round trip ------------------------------------------------


def test_criterion_3_normal_round_trip():
    # the re-embedding KS test resolves the barrier's one-step time
    # quantization, so the solver time grid must be finer than the KS
    # noise floor maps back to (dt ~ 2.5e-4 suffices at n = 1e5)
    cfg = ob.SolverConfig(x_lo=-6.2, x_hi=6.2, nx=801, horizon=1.5, nt=6000)
    sol = ob.solve(ob.assemble(ob.brownian(), ms.point_mass(0.0),
                               ms.normal(0.0, 1.0), cfg))
    b = br.extract_barrier(sol)
    central = np.abs(b.x) <= 1.96
    dev = float(np.max(np.abs(b.R[central] - 1.0)))
    two_cells = 2.0 * float(np.max(np.diff(sol.x)))
    batch = sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), b,
                                 n=100_000, dt=5e-4, seed=21)
    ks = sim.ks_statistic(batch.stopped_values, ms.normal(0.0, 1.0).cdf)
    crit = sim.ks_critical_value(batch.n, 0.01)
    ok = dev <= two_cells and ks <= crit and sol.max_residual <= cfg.lcp_tol
    verdict(3, ok, f"extracted R dev {dev:.4f} (<= 2 cells {two_cells:.4f}); "
                   f"re-embedding KS {ks:.5f} (<= {crit:.5f} at n=1e5)")


# -- 4: parabola round trip -------------------------------------------------------


def test_criterion_4_parabola_round_trip():
    t0 = time.time()
    x = np.linspace(-2.5, 3.5, 601)
    b_true = br.from_function(pb.barrier_fn, x, horizon=4.0)
    batch = sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), b_true,
                                 n=1_000_000, dt=2e-3, seed=123)
    mu_hat = ms.empirical(batch.stopped_values, recenter_to=0.0)
    cfg = ob.SolverConfig(x_lo=-2.6, x_hi=3.6, nx=621, horizon=3.5, nt=1400)
    sol = ob.solve(ob.assemble(ob.brownian(), ms.point_mass(0.0), mu_hat, cfg))
    b_hat = br.extract_barrier(sol)
    window = (b_hat.x >= -1.5) & (b_hat.x <= 2.5)
    err = float(np.max(np.abs(b_hat.R[window] - pb.barrier_fn(b_hat.x[window]))))
    elapsed = time.time() - t0
    ok = (np.all(np.isfinite(b_hat.R[window])) and err <= 0.15
          and elapsed <= 300.0 and sol.max_residual <= cfg.lcp_tol)
    verdict(4, ok, f"recovered barrier sup err {err:.3f} on [-1.5,2.5] (<=0.15) "
                   f"from 1e6 paths in {elapsed:.0f}s (<=300s); residual {sol.max_residual:.1e}")


# -- 5: complementarity -------------------------------------------------------------


def test_criterion_5_complementarity(gaussian_solution):
    sols = [gaussian_solution]
    cfgg = ob.SolverConfig(x_lo=0.3, x_hi=3.0, nx=401, horizon=0.25, nt=400, lam=1.0)
    sols.append(ob.solve(ob.assemble(ob.geometric_brownian(), ms.point_mass(1.0),
                                     ms.lognormal(-0.02, 0.04), cfgg)))
    worst = max(s.max_residual for s in sols)
    tol = max(s.cfg.lcp_tol for s in sols)
    ok = worst <= tol
    verdict(5, ok, f"max complementarity residual {worst:.2e} (<= lcp tol {tol:.0e}) "
                   f"across {len(sols)} solves")


# -- 6: optimal-stopping oracle agreement --------------------------------------------


def test_criterion_6_oracle_agreement(gaussian_solution):
    sol = gaussian_solution
    cfg = sol.cfg
    oracle = ob.optimal_stopping_oracle(ob.brownian(), ms.point_mass(0.0),
                                        ms.normal(0.0, 1.0), cfg)
    # budgets: first order in dt, second in h (generous for Crank-Nicolson)
    h_dp = oracle.x[1] - oracle.x[0]
    dt_dp = 0.8 * h_dp * h_dp
    tol_vi = sol.scheme_tolerance()
    tol_dp = 2.0 * dt_dp * 0.5 + 2.0 * h_dp * h_dp * 0.5

    def closed(x, t):
        s = min(t, 1.0)
        return -np.abs(x) if s == 0 else -ms.normal(0.0, s).mean_abs_dev(x)

    err_vi = err_dp = err_x = 0.0
    for j in range(0, len(oracle.t), 40):
        cf = closed(oracle.x, oracle.t[j])
        # the march stops once R = 1 has closed; v no longer changes after
        vi = np.interp(oracle.x, sol.x, sol.v[min(j, len(sol.t) - 1)])
        err_vi = max(err_vi, float(np.max(np.abs(vi - cf))))
        err_dp = max(err_dp, float(np.max(np.abs(oracle.values[j] - cf))))
        err_x = max(err_x, float(np.max(np.abs(vi - oracle.values[j]))))
    ok = err_vi <= tol_vi and err_dp <= tol_dp and err_x <= 2.0 * (tol_vi + tol_dp)
    verdict(6, ok, f"|VI-DP| {err_x:.2e} <= 2x combined budget {2*(tol_vi+tol_dp):.2e} "
                   f"(VI err {err_vi:.2e}<= {tol_vi:.1e}, DP err {err_dp:.2e}<= {tol_dp:.1e})")


# -- 7: weight-parameter independence --------------------------------------------------


def test_criterion_7_weight_independence():
    sols = {}
    for lam in (0.75, 1.5):
        cfg = ob.SolverConfig(x_lo=0.3, x_hi=3.0, nx=401, horizon=0.25, nt=400, lam=lam)
        sols[lam] = ob.solve(ob.assemble(ob.geometric_brownian(), ms.point_mass(1.0),
                                         ms.lognormal(-0.02, 0.04), cfg))
    diff = float(np.max(np.abs(sols[0.75].v - sols[1.5].v)))
    budget = 2.0 * sols[0.75].scheme_tolerance()
    ok = diff <= budget
    verdict(7, ok, f"geometric solves at lambda 0.75 vs 1.5 differ by {diff:.2e} "
                   f"(<= {budget:.1e})")


# -- 8: optimality against a competitor embedding ---------------------------------------


def test_criterion_8_optimality():
    mu = ms.normal(0.0, 1.0)
    payoff = opt.power_payoff(2.0, cap=4.0)   # F(t) = t^2/2 capped far out
    xg = np.linspace(-6.5, 6.5, 1301)
    hf = opt.build_hedge(ob.brownian(), br.from_function(lambda s: np.ones_like(s), xg, 2.0),
                         payoff, xg, nt=800, base_point=0.0)
    bar = br.Barrier(x=np.array([-10.0, 10.0]), R=np.array([1.0, 1.0]), horizon=2.0)
    root = sim.simulate_stopped(ob.brownian(), ms.point_mass(0.0), bar,
                                n=100_000, dt=1 / 100, seed=31)
    comp = sim.hall_competitor(mu, n=100_000, dt=1e-3, seed=32)
    rep = opt.optimality_gap(hf, payoff, root, comp, mu)
    exact = rep["EF_root"] == payoff.F(np.array([1.0]))[0]
    ok = exact and rep["optimal"] and rep["chain_ok"]
    verdict(8, ok, f"E F(tau_root) = {rep['EF_root']} = F(1) exactly; competitor "
                   f"{rep['EF_competitor']:.4f} >= F(1) - 3SE (KS {rep['ks']:.4f} ok); "
                   f"chain E[G+H] = {rep['E_GH_competitor']:.4f} in between")


# -- 9: martingale structure --------------------------------------------------------------


def test_criterion_9_martingale_structure(golden):
    hf, _, _, _ = golden
    rep = opt.verify_martingale(hf, ob.brownian(), ms.point_mass(0.0),
                                n=100_000, seed=41, ladder=[0.5, 1.0, 2.0, 4.0], dt=1e-3)
    ok = rep["martingale_ok"] and rep["submartingale_ok"]
    sm = ", ".join(f"{v:.4f}" for v in rep["stopped_means"])
    fm = ", ".join(f"{v:.4f}" for v in rep["unstopped_means"])
    verdict(9, ok, f"stopped-G means [{sm}] flat within 3SE; "
                   f"unstopped-G means [{fm}] non-decreasing within 3SE (n=1e5)")


# -- 10: swap consistency --------------------------------------------------------------------


def test_criterion_10_swap_consistency(dense_market, dense_swap_report):
    sv = pr.swap_value(dense_market)
    rel = abs(dense_swap_report.lower_bound - sv) / sv
    ok = rel <= 1e-4
    verdict(10, ok, f"swap payoff bound {dense_swap_report.lower_bound:.6f} vs "
                    f"log-contract quadrature {sv:.6f}: rel gap {rel:.1e} (<=1e-4)")


# -- 11: subhedge soundness and tightness ------------------------------------------------------


def test_criterion_11_subhedge(dense_call_report, two_atom_market):
    models = [
        sim.PriceModel(kind="constant", s0=1.0, maturity=1.0, vol=0.2, rate=0.0),
        sim.PriceModel(kind="constant", s0=1.0, maturity=1.0, vol=0.35, rate=0.02),
        sim.PriceModel(kind="piecewise", s0=1.0, maturity=1.0,
                       vol=(np.array([0.5]), np.array([0.15, 0.3])), rate=0.0),
    ]
    fracs = []
    for m in models:
        out = pr.verify_subhedge(dense_call_report, m, n=10_000, seed=77, dt=1e-3)
        fracs.append(out["fraction_subhedged"])
    pathwise_ok = all(f >= 0.99 for f in fracs)

    rep = pr.lower_bound(two_atom_market, opt.variance_call(0.05))
    tight = pr.verify_subhedge(rep, rep.attaining_model(), n=10_000, seed=9, dt=1e-4)
    ok = pathwise_ok and tight["tight"]
    verdict(11, ok, f"pathwise fractions {['%.4f' % f for f in fracs]} (>=0.99 each); "
                    f"attaining-model gap {tight['tightness_gap']:+.2e} within "
                    f"3SE {3*tight['se_portfolio']:.2e}")
