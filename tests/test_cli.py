import json

import numpy as np
import pytest

from rootbarrier import barrier as br
from rootbarrier import cli
from rootbarrier import measures as ms
from rootbarrier import optimality as opt
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
    out = tmp_path / "out"
    rc = run(["--out-dir", str(out), "--quiet", "price-bound",
              "--bs-vol", "0.2", "--payoff", "variance-swap",
              "--nx", "901", "--nt", "1600"])
    assert rc == 0
    report = json.loads((out / "bound_report.json").read_text())
    assert report["lower_bound"] == pytest.approx(report["diagnostics"]["swap_value"], rel=1e-4)
    assert (out / "gap_surface.csv").exists()
    assert (out / "barrier.csv").exists()


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
