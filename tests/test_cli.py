import json

import numpy as np
import pytest

from rootbarrier import barrier as br
from rootbarrier import cli
from rootbarrier import measures as ms
from rootbarrier import obstacle as ob
from rootbarrier import optimality as opt
from rootbarrier import parabola as pb
from rootbarrier import pricing as pr
from rootbarrier import simulate as sim


@pytest.fixture()
def measure_files(tmp_path):
    nu = tmp_path / "delta0.json"
    mu = tmp_path / "normal.json"
    ms.save_measure(ms.point_mass(0.0), str(nu))
    ms.save_measure(ms.normal(0.0, 1.0), str(mu))
    return str(nu), str(mu)


def run(args):
    return cli.main(args)


def test_solve_barrier_normal_target(tmp_path, measure_files):
    nu, mu = measure_files
    out = tmp_path / "out"
    rc = run(["--out-dir", str(out), "--quiet", "solve-barrier",
              "--nu", nu, "--mu", mu, "--nx", "401", "--nt", "400"])
    assert rc == 0
    data = np.genfromtxt(out / "barrier.csv", delimiter=",", skip_header=1)
    x, r = data[:, 0], data[:, 1]
    central = np.abs(x) <= 1.9
    assert np.max(np.abs(r[central] - 1.0)) < 0.05
    meta = json.loads((out / "barrier_meta.json").read_text())
    assert meta["grid"]["n"] == len(x)
    assert (out / "solution_v.csv").exists()


def test_solve_barrier_two_atom_target(tmp_path):
    nu = tmp_path / "nu.json"
    mu = tmp_path / "mu.json"
    ms.save_measure(ms.point_mass(0.0), str(nu))
    ms.save_measure(ms.atoms([-1.0, 1.0], [0.5, 0.5]), str(mu))
    out = tmp_path / "out"
    rc = run(["--out-dir", str(out), "--quiet", "solve-barrier",
              "--nu", str(nu), "--mu", str(mu),
              "--x-lo", "-6", "--x-hi", "6", "--nx", "301",
              "--horizon", "1.0", "--nt", "200"])
    assert rc == 0
    data = np.genfromtxt(out / "barrier.csv", delimiter=",", skip_header=1)
    x, r = data[:, 0], data[:, 1]
    outside = (x < -1 - 1e-9) | (x > 1 + 1e-9)
    assert np.all(r[outside] == 0.0)
    assert np.all(np.isinf(r[(x > -1 + 1e-9) & (x < 1 - 1e-9)]))


def test_missing_input_file_exit_code(tmp_path, capsys):
    rc = run(["--out-dir", str(tmp_path), "solve-barrier",
              "--nu", str(tmp_path / "absent.json"), "--mu", str(tmp_path / "x.json")])
    assert rc == 2
    assert "absent.json" in capsys.readouterr().err


def test_solver_error_exit_code(tmp_path, capsys):
    nu = tmp_path / "nu.json"
    mu = tmp_path / "mu.json"
    ms.save_measure(ms.point_mass(0.0), str(nu))
    ms.save_measure(ms.normal(0.0, 1.0), str(mu))
    rc = run(["--out-dir", str(tmp_path / "out"), "solve-barrier",
              "--nu", str(nu), "--mu", str(mu), "--nx", "41", "--nt", "5",
              "--lcp-tol", "1e-20"])
    assert rc == 4
    assert "residual" in capsys.readouterr().err


def test_non_finite_horizon_exit_code(tmp_path, measure_files, capsys):
    nu, mu = measure_files
    out = tmp_path / "out"
    rc = run(["--out-dir", str(out), "solve-barrier", "--nu", nu, "--mu", mu,
              "--nx", "41", "--nt", "5", "--horizon", "nan"])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    {"kind": "atoms", "atoms": [[-1.0, float("nan")], [1.0, 1.0]]},
    {"kind": "atoms", "atoms": [[-1.0], [1.0]]},
    {"kind": "normal"},
    {"kind": "normal", "params": {"mean": 0.0}},
    {"kind": "normal", "params": {"mean": 0.0, "variance": "one"}},
    {"kind": "normal", "params": [0.0, 1.0]},
    {"kind": "lognormal", "params": {"log_mean": 0.0, "log_variance": None}},
    {"kind": "lognormal", "params": {"log_mean": float("nan"), "log_variance": 0.04}},
], ids=["nan-mass", "not-pairs", "normal-no-params", "normal-missing-key", "normal-non-numeric",
        "normal-params-list", "lognormal-null", "lognormal-nan"])
def test_malformed_measure_file_exit_code(tmp_path, measure_files, capsys, doc):
    mu = tmp_path / "bad.json"
    mu.write_text(json.dumps(doc))
    rc = run(["--out-dir", str(tmp_path / "out"), "solve-barrier",
              "--nu", measure_files[0], "--mu", str(mu), "--nx", "41", "--nt", "5"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_verify_embed_round_trip(tmp_path, measure_files):
    nu, mu = measure_files
    out = tmp_path / "out"
    rc = run(["--out-dir", str(out), "--quiet", "solve-barrier",
              "--nu", nu, "--mu", mu, "--nx", "401", "--nt", "400"])
    assert rc == 0
    rc = run(["--out-dir", str(out), "--quiet", "verify-embed",
              "--nu", nu, "--mu", mu, "--barrier", str(out / "barrier.csv"),
              "--n", "20000", "--dt", "0.002"])
    assert rc == 0
    report = json.loads((out / "embed_report.json").read_text())
    assert report["embeds"]
    assert report["ks-statistics"]["stopped-vs-target"] <= report["ks-statistics"]["critical-1pct"]


def test_verify_embed_without_paths_exit_code(tmp_path, measure_files, capsys):
    nu, mu = measure_files
    bar = tmp_path / "barrier.csv"
    br.save_barrier(br.Barrier(x=np.array([-10.0, 10.0]), R=np.array([1.0, 1.0]), horizon=2.0), str(bar))
    rc = run(["--out-dir", str(tmp_path / "out"), "verify-embed",
              "--nu", nu, "--mu", mu, "--barrier", str(bar), "--n", "0"])
    assert rc == 2
    assert "n must be" in capsys.readouterr().err


def test_price_bound_swap_consistency(tmp_path):
    # also with the quotes discounted at a 3% rate
    for rate in ("0.0", "0.03"):
        out = tmp_path / f"out{rate}"
        rc = run(["--out-dir", str(out), "--quiet", "price-bound",
                  "--bs-vol", "0.2", "--rate", rate, "--payoff", "variance-swap",
                  "--nx", "901", "--nt", "1600"])
        assert rc == 0
        report = json.loads((out / "bound_report.json").read_text())
        assert report["lower_bound"] == pytest.approx(report["diagnostics"]["swap_value"], rel=1e-4)
        assert 0.0 <= report["diagnostics"]["M_clip"] <= 1e-12
        assert (out / "gap_surface.csv").exists()
        assert (out / "barrier.csv").exists()


def test_price_bound_refused_payoff_exit_code(tmp_path, monkeypatch, capsys, falling_payoff):
    # a payoff whose derivative falls is refused by the hedge construction: exit 2
    monkeypatch.setattr(cli, "_payoff_from_args", lambda args: falling_payoff)
    rc = run(["--out-dir", str(tmp_path / "out"), "--quiet", "price-bound",
              "--bs-vol", "0.2", "--nx", "201", "--nt", "200"])
    assert rc == 2
    assert "non-decreasing" in capsys.readouterr().err


def test_price_bound_reads_the_sidecar_discount_factor(tmp_path):
    # quotes discounted at 0.97 = 1/B_T: the swap costs 0.97 sigma^2 T
    market = pr.synthetic_lognormal_quotes(vol=0.2, rate=-np.log(0.97))
    q = tmp_path / "q.csv"
    q.write_text("strike,price\n" + "".join(f"{k:.17g},{c:.17g}\n" for k, c in zip(market.strikes, market.prices)))
    side = tmp_path / "m.json"
    side.write_text(json.dumps({"spot": 1.0, "discount_factor": 0.97, "maturity": 1.0}))
    assert ms.load_quotes(str(q), str(side)).growth == 1.0 / 0.97
    out = tmp_path / "out"
    rc = run(["--out-dir", str(out), "--quiet", "price-bound", "--quotes", str(q),
              "--market", str(side), "--nx", "301", "--nt", "400"])
    assert rc == 0
    report = json.loads((out / "bound_report.json").read_text())
    assert report["lower_bound"] == pytest.approx(report["diagnostics"]["swap_value"], rel=1e-3)
    assert report["lower_bound"] == pytest.approx(0.97 * 0.04, rel=2e-3)


def test_price_bound_check_reports_ks_of_the_subhedge_paths(tmp_path):
    # the KS figure comes from verify_subhedge's own batch; it must equal the
    # figure of a separate simulate_price_model run on the same arguments
    out = tmp_path / "out"
    rc = run(["--out-dir", str(out), "--quiet", "--seed", "4", "price-bound",
              "--bs-vol", "0.2", "--payoff", "variance-call", "--strike", "0.02",
              "--nx", "301", "--nt", "400", "--check", "--check-paths", "1000"])
    assert rc == 0
    report = json.loads((out / "bound_report.json").read_text())
    rep = pr.lower_bound(pr.synthetic_lognormal_quotes(vol=0.2), opt.variance_call(0.02),
                         pr.PricingConfig(nx=301, nt=400))
    batch = sim.simulate_price_model(rep.attaining_model(), n=1000, dt=1e-4, seed=4)
    assert report["diagnostics"]["ks"] == sim.ks_statistic(batch.stopped_values, rep.implied_measure)
    # the gap samples, row by row: every step_t-th time, every step_x-th node
    hf = rep.hedge
    gap = hf.G + hf.H[None, :] - hf.F_grid[:, None]
    rows = [f"{hf.x[i]:.8g},{hf.t[j]:.8g},{gap[j, i]:.8g}\n"
            for j in range(0, len(hf.t), max(len(hf.t) // 60, 1))
            for i in range(0, len(hf.x), max(len(hf.x) // 120, 1))]
    assert (out / "gap_surface.csv").read_text() == "x,t,gap\n" + "".join(rows)


def test_price_bound_degenerate_quotes(tmp_path):
    q = tmp_path / "q.csv"
    ks = np.round(np.arange(0.1, 2.0001, 0.05), 10)
    with open(q, "w") as fh:
        fh.write("strike,price\n")
        for k in ks:
            fh.write(f"{k},{max(1.0 - k, 0.0)}\n")
    side = tmp_path / "m.json"
    side.write_text(json.dumps({"spot": 1.0, "discount_factor": 1.0, "maturity": 1.0}))
    out = tmp_path / "out"
    rc = run(["--out-dir", str(out), "--quiet", "price-bound",
              "--quotes", str(q), "--market", str(side),
              "--payoff", "variance-call", "--strike", "0.01"])
    assert rc == 0
    report = json.loads((out / "bound_report.json").read_text())
    assert report["lower_bound"] == pytest.approx(0.0, abs=1e-12)


def test_price_bound_arbitrageable_quotes(tmp_path, capsys):
    q = tmp_path / "q.csv"
    q.write_text("strike,price\n0.5,0.6\n1.0,0.5\n1.5,0.1\n")
    side = tmp_path / "m.json"
    side.write_text(json.dumps({"spot": 1.0, "discount_factor": 1.0, "maturity": 1.0}))
    rc = run(["--out-dir", str(tmp_path), "price-bound",
              "--quotes", str(q), "--market", str(side)])
    assert rc == 3
    assert "arbitrageable" in capsys.readouterr().err


GOOD_QUOTES = "strike,price\n0.5,0.5\n1.0,0.25\n1.5,0.0\n"
GOOD_SIDECAR = {"spot": 1.0, "discount_factor": 1.0, "maturity": 1.0}


@pytest.mark.parametrize("quotes, sidecar, code, message", [
    (GOOD_QUOTES, {"spot": 1.0, "maturity": 1.0}, 3, "discount_factor"),
    (GOOD_QUOTES, {**GOOD_SIDECAR, "spot": "one"}, 3, "spot"),
    (GOOD_QUOTES, {**GOOD_SIDECAR, "maturity": None}, 3, "maturity"),
    (GOOD_QUOTES, {**GOOD_SIDECAR, "discount_factor": float("nan")}, 3, "finite"),
    ("strike,price\n0.5,0.5\n1.0,nan\n1.5,0.0\n", GOOD_SIDECAR, 3, "quote 2 of 3 (strike 1, price nan)"),
    ("strike,price\n0.5,0.5\ninf,0.25\n1.5,0.0\n", GOOD_SIDECAR, 3, "quote 2 of 3 (strike inf, price 0.25)"),
    ("strike,price\n0.5\n1.0,0.25\n1.5,0.0\n", GOOD_SIDECAR, 2, "line 2: expected numbers"),
    ("strike,cost\n0.5,0.5\n1.0,0.25\n1.5,0.0\n", GOOD_SIDECAR, 2, "expected header"),
], ids=["sidecar-missing-key", "sidecar-non-numeric", "sidecar-null", "sidecar-nan",
        "nan-price", "inf-strike", "row-without-price", "no-price-column"])
def test_malformed_quote_files_exit_code(tmp_path, capsys, quotes, sidecar, code, message):
    q = tmp_path / "q.csv"
    q.write_text(quotes)
    side = tmp_path / "m.json"
    side.write_text(json.dumps(sidecar))
    rc = run(["--out-dir", str(tmp_path / "out"), "price-bound",
              "--quotes", str(q), "--market", str(side), "--nx", "101", "--nt", "50"])
    assert rc == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("x,R\n-1,1\n0,abc\n2,1\n", "barrier values must be nonnegative and not NaN"),
    ("x,R\n-1,1\nabc,1\n2,1\n", "barrier grid nodes must be finite"),
    ("x,R\n-1,1\ninf,1\n2,1\n", "barrier grid nodes must be finite"),
    ("x,R\n0\n1\n", "expected rows of x,R"),
], ids=["nan-R", "nan-x", "inf-x", "one-column"])
def test_malformed_barrier_file_exit_code(tmp_path, measure_files, capsys, text, message):
    # a cell that is not a number must not load as a NaN barrier that stops
    # every path at once
    nu, mu = measure_files
    bar = tmp_path / "barrier.csv"
    bar.write_text(text)
    rc = run(["--out-dir", str(tmp_path / "out"), "verify-embed",
              "--nu", nu, "--mu", mu, "--barrier", str(bar), "--n", "100"])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_one_node_barrier_file(tmp_path):
    # delta_0 embeds into itself by stopping at once: R(0) = 0 on one node
    nu = tmp_path / "delta0.json"
    ms.save_measure(ms.point_mass(0.0), str(nu))
    bar = tmp_path / "barrier.csv"
    bar.write_text("x,R\n0,0\n")
    out = tmp_path / "out"
    rc = run(["--out-dir", str(out), "--quiet", "verify-embed",
              "--nu", str(nu), "--mu", str(nu), "--barrier", str(bar), "--n", "100"])
    assert rc == 0
    report = json.loads((out / "embed_report.json").read_text())
    assert report["mean-tau"] == 0.0
    assert report["ks-statistics"]["stopped-vs-target"] == 0.0
    assert report["potential-sup-gap"] == 0.0


def test_hedge_report_artifacts(tmp_path):
    out = tmp_path / "out"
    rc = run(["--out-dir", str(out), "--quiet", "hedge-report",
              "--bs-vol", "0.2", "--payoff", "variance-call", "--strike", "0.02",
              "--nx", "901", "--nt", "1600"])
    assert rc == 0
    for name in ("hedge_M.csv", "hedge_G.csv", "hedge_delta.csv", "hedge_ZH.csv", "portfolio.csv"):
        assert (out / name).exists(), name


def test_demo_example_golden(tmp_path):
    out = tmp_path / "out"
    rc = run(["--out-dir", str(out), "--quiet", "demo-example",
              "--nx", "601", "--nt", "2400"])
    assert rc == 0
    report = json.loads((out / "demo_report.json").read_text())
    assert report["all_below_1e-3"]
    assert max(report["max_errors"].values()) <= 1e-3
    # the same hedge, its errors taken row by row
    x = ob._snap_grid(-2.5, 3.5, 601, np.array([-2.0, 3.0]))
    hf = opt.build_hedge(ob.brownian(), br.from_function(pb.barrier_fn, x, horizon=4.0),
                         opt.power_payoff(2.0, cap=6.0), x, nt=2400, base_point=0.0, t_max=6.0)
    win = (hf.x >= -1.9) & (hf.x <= 2.9)
    xs = hf.x[win]
    errs = {"M": 0.0, "G": 0.0, "gap": 0.0}
    for j, tv in enumerate(hf.t):
        errs["M"] = max(errs["M"], float(np.max(np.abs(hf.M[j][win] - pb.M_exact(xs, tv)))))
        errs["G"] = max(errs["G"], float(np.max(np.abs(hf.G[j][win] - pb.G_exact(xs, tv)))))
        g = hf.G[j][win] + hf.H[win] - hf.F_grid[j]
        errs["gap"] = max(errs["gap"], float(np.max(np.abs(g - pb.gap_exact(xs, tv)))))
    errs["Z"] = float(np.max(np.abs(hf.Z[win] - pb.Z_exact(xs))))
    errs["H"] = float(np.max(np.abs(hf.H[win] - pb.H_exact(xs))))
    assert report["max_errors"] == errs


def test_demo_example_martingale_and_optimality_checks(tmp_path):
    out = tmp_path / "out"
    rc = run(["--out-dir", str(out), "--quiet", "demo-example", "--nx", "601", "--nt", "1200",
              "--n", "2000", "--check-martingale", "--check-optimality"])
    assert rc == 0
    report = json.loads((out / "demo_report.json").read_text())
    assert {"martingale", "optimality"} <= set(report)
    assert {"stopped_means", "unstopped_means", "martingale_ok", "submartingale_ok",
            "passed"} <= set(report["martingale"])
    assert {"EF_root", "EF_competitor", "E_GH_competitor", "ks", "ks_critical",
            "optimal", "chain_ok"} <= set(report["optimality"])


def test_geometric_solve_and_embed_with_path_dump(tmp_path):
    nu = tmp_path / "nu.json"
    mu = tmp_path / "mu.json"
    ms.save_measure(ms.point_mass(1.0), str(nu))
    ms.save_measure(ms.lognormal(-0.02, 0.04), str(mu))
    out = tmp_path / "out"
    rc = run(["--out-dir", str(out), "--quiet", "solve-barrier", "--sigma", "gbm",
              "--nu", str(nu), "--mu", str(mu), "--x-lo", "0.3", "--x-hi", "3.0",
              "--nx", "401", "--horizon", "0.25", "--nt", "400"])
    assert rc == 0
    rc = run(["--out-dir", str(out), "--quiet", "verify-embed", "--sigma", "gbm",
              "--nu", str(nu), "--mu", str(mu), "--barrier", str(out / "barrier.csv"),
              "--n", "2000", "--dt", "1e-4", "--dump-paths"])
    assert rc == 0
    report = json.loads((out / "embed_report.json").read_text())
    assert {"n", "mean-tau", "horizon-mass", "ks-statistics", "potential-sup-gap",
            "embeds"} <= set(report)
    paths = np.genfromtxt(out / "paths.csv", delimiter=",", names=True)
    assert paths.dtype.names == ("stop_time", "stopped_value") and len(paths) == 2000
    assert np.mean(paths["stop_time"]) == pytest.approx(report["mean-tau"])


def test_price_bound_power_payoff(tmp_path):
    out = tmp_path / "out"
    rc = run(["--out-dir", str(out), "--quiet", "price-bound", "--bs-vol", "0.2",
              "--payoff", "power", "--power", "2", "--cap", "0.1", "--nx", "201", "--nt", "200"])
    assert rc == 0
    report = json.loads((out / "bound_report.json").read_text())
    assert {"lower_bound", "cash", "forward_units", "strike_weights", "base_point",
            "payoff", "diagnostics"} <= set(report)
    assert report["payoff"].startswith("power payoff p=2")
    assert report["lower_bound"] > 0.0


def test_deterministic_reruns(tmp_path, measure_files):
    nu, mu = measure_files
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = run(["--out-dir", str(out), "--seed", "5", "--quiet", "solve-barrier",
                  "--nu", nu, "--mu", mu, "--nx", "301", "--nt", "200"])
        assert rc == 0
        outs.append((out / "barrier.csv").read_bytes())
    assert outs[0] == outs[1]


def test_config_file_wins_conflicts(tmp_path, measure_files, capsys):
    nu, mu = measure_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nx": 301}))
    out = tmp_path / "out"
    rc = run(["--config", str(cfg), "--out-dir", str(out), "--quiet", "solve-barrier",
              "--nu", nu, "--mu", mu, "--nx", "999", "--nt", "200"])
    assert rc == 0
    assert "overridden" in capsys.readouterr().err
    data = np.genfromtxt(out / "barrier.csv", delimiter=",", skip_header=1)
    assert len(data) == 301


@pytest.mark.parametrize("key", ["nxx", "contact-tol", "scheme", "func"])
def test_unknown_config_key_is_an_input_error(tmp_path, measure_files, capsys, key):
    # a key that matches no flag is refused, not dropped; known keys still
    # win conflicts (test_config_file_wins_conflicts)
    nu, mu = measure_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nx": 301, key: 1e-6}))
    out = tmp_path / "out"
    rc = run(["--config", str(cfg), "--out-dir", str(out), "--quiet", "solve-barrier",
              "--nu", nu, "--mu", mu, "--nt", "200"])
    assert rc == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()
