"""Command-line pipeline: solve barriers, verify embeddings, price bounds.

Commands
--------
solve-barrier   obstacle solve for a (nu, mu, sigma) triple; writes the
                barrier CSV and the solution dump.
verify-embed    simulate the stopped diffusion against a barrier and test
                the empirical law against the target.
price-bound     lower bound + subhedge for a variance payoff from quotes.
hedge-report    price-bound plus full hedge-function and portfolio dumps.
demo-example    golden closed-form suite for the parabolic barrier.

Flags mirror config-file keys one to one; when both are given the config
file wins and a warning is printed; a config key that matches no flag of
the subcommand, or whose value is not of its flag's type, is an input
error.  Exit codes: 0 success, 2 input error,
3 market-data error, 4 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import measures, parabola
from . import optimality as opt
from . import pricing
from . import simulate as sim
from .barrier import extract_barrier, from_function, load_barrier, save_barrier
from .measures import ArbitrageError, MeasureError
from .obstacle import (SolverConfig, SolverError, assemble, brownian,
                       geometric_brownian, save_solution, solve)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MARKET = 3
EXIT_SOLVER = 4


def _say(args, *msg):
    if not args.quiet:
        print(*msg)


def _apply_config(args, parser):
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest: a for a in sub.choices[args.command]._actions}
        for key, val in cfg.items():
            attr = key.replace("-", "_")
            # command and func are set by the parser, not by a flag
            if attr in ("command", "func") or not hasattr(args, attr):
                raise ValueError(f"config key {key!r} matches no flag of {args.command}")
            # the JSON types of a value its flag takes: a switch takes a bool
            types = (bool,) if flags[attr].nargs == 0 else {int: (int,), float: (int, float)}.get(flags[attr].type, (str,))
            if type(val) not in types:
                raise ValueError(f"config key {key!r} takes {' or '.join(t.__name__ for t in types)}, got {val!r}")
            current = getattr(args, attr)
            default = parser.get_default(attr)
            if current != default and current != val:
                print(f"warning: --{key} overridden by config file value {val!r}",
                      file=sys.stderr)
            setattr(args, attr, val)
    return args


def _diffusion(name):
    if name in ("bm", "brownian"):
        return brownian()
    if name in ("gbm", "geometric"):
        return geometric_brownian()
    raise ValueError(f"unknown sigma spec {name!r} (use 'bm' or 'gbm')")


def _solver_config(args):
    return SolverConfig(
        x_lo=args.x_lo, x_hi=args.x_hi, nx=args.nx,
        horizon=args.horizon, nt=args.nt, lam=args.lam, lcp_tol=args.lcp_tol,
    )


def cmd_solve_barrier(args) -> int:
    nu = measures.load_measure(args.nu)
    mu = measures.load_measure(args.mu)
    diff = _diffusion(args.sigma)
    sol = solve(assemble(diff, nu, mu, _solver_config(args)))
    bar = extract_barrier(sol)
    os.makedirs(args.out_dir, exist_ok=True)
    prefix = os.path.join(args.out_dir, "solution")
    save_solution(sol, prefix)
    save_barrier(bar, os.path.join(args.out_dir, "barrier.csv"),
                 os.path.join(args.out_dir, "barrier_meta.json"))
    _say(args, f"barrier written to {args.out_dir}/barrier.csv "
               f"(max residual {sol.max_residual:.2e})")
    return EXIT_OK


def cmd_verify_embed(args) -> int:
    nu = measures.load_measure(args.nu)
    mu = measures.load_measure(args.mu)
    diff = _diffusion(args.sigma)
    # the paths run to the horizon the barrier was solved for, which
    # solve-barrier writes beside the CSV; without it, to the largest finite R
    meta = os.path.join(os.path.dirname(args.barrier), "barrier_meta.json")
    horizon = None
    if os.path.exists(meta):
        with open(meta) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or type(horizon := doc.get("horizon")) not in (int, float, type(None)):
            raise ValueError(f"{meta}: expected an object whose horizon is a number, got {doc!r}")
    bar = load_barrier(args.barrier, horizon)
    batch = sim.simulate_stopped(diff, nu, bar, n=args.n, dt=args.dt, seed=args.seed)
    ks = sim.ks_statistic(batch.stopped_values, mu.cdf)
    crit = sim.ks_critical_value(args.n, 0.01)
    grid = np.unique(np.linspace(bar.x[0], bar.x[-1], 201))   # one point for a one-node barrier
    emp = measures.potential(measures.empirical(batch.stopped_values), grid)
    target = measures.potential(mu, grid)
    gap = float(np.max(np.abs(emp - target)))
    summary = batch.summary()
    summary.update({
        "ks-statistics": {"stopped-vs-target": ks, "critical-1pct": crit},
        "potential-sup-gap": gap,
        "embeds": bool(ks <= crit),
    })
    os.makedirs(args.out_dir, exist_ok=True)
    out = os.path.join(args.out_dir, "embed_report.json")
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=2)
    if args.dump_paths:
        np.savetxt(os.path.join(args.out_dir, "paths.csv"),
                   np.column_stack([batch.stop_times, batch.stopped_values]),
                   delimiter=",", header="stop_time,stopped_value", comments="")
    _say(args, f"KS {ks:.5f} (1% critical {crit:.5f}); report in {out}")
    return EXIT_OK if ks <= crit else EXIT_SOLVER


def _payoff_from_args(args):
    if args.payoff == "variance-call":
        return opt.variance_call(args.strike)
    if args.payoff == "variance-swap":
        return opt.variance_swap()
    if args.payoff == "power":
        return opt.power_payoff(args.power, cap=args.cap)
    raise ValueError(f"unknown payoff {args.payoff!r}")


def _market_from_args(args):
    if args.quotes and args.market:
        return measures.load_quotes(args.quotes, args.market)
    if args.bs_vol is not None:
        return pricing.synthetic_lognormal_quotes(
            spot=args.spot, vol=args.bs_vol, maturity=args.maturity, rate=args.rate)
    raise ValueError("supply --quotes/--market files or --bs-vol for synthetic quotes")


def cmd_price_bound(args, dump_hedge=False) -> int:
    market = _market_from_args(args)
    payoff = _payoff_from_args(args)
    cfg = pricing.PricingConfig(nx=args.nx, nt=args.nt)
    report = pricing.lower_bound(market, payoff, cfg)
    doc = report.to_json_dict()
    if args.check:
        model = report.attaining_model()
        out = pricing.verify_subhedge(report, model, n=args.check_paths,
                                      seed=args.seed, dt=1e-4)
        doc["diagnostics"]["ks"] = out["ks"]
        doc["diagnostics"]["tightness"] = out["tightness_gap"]
        doc["diagnostics"]["fraction_subhedged"] = out["fraction_subhedged"]
    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, "bound_report.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
    save_barrier(report.barrier, os.path.join(args.out_dir, "barrier.csv"))
    hf = report.hedge
    # plot-ready gap samples, one row per (t, x), t outer: columns x, t, G+H-F
    st = slice(None, None, max(len(hf.t) // 60, 1))
    sx = slice(None, None, max(len(hf.x) // 120, 1))
    gap = hf.G[st, sx] + hf.H[None, sx] - hf.F_grid[st, None]
    xs, ts = np.meshgrid(hf.x[sx], hf.t[st])
    np.savetxt(os.path.join(args.out_dir, "gap_surface.csv"),
               np.column_stack([xs.ravel(), ts.ravel(), gap.ravel()]), fmt="%.8g",
               delimiter=",", header="x,t,gap", comments="")
    if dump_hedge:
        header = "t\\x," + ",".join(f"{xi:.10g}" for xi in hf.x)
        for name, mat in (("M", hf.M), ("G", hf.G), ("delta", hf.delta)):
            rows = np.column_stack([hf.t, mat])
            np.savetxt(os.path.join(args.out_dir, f"hedge_{name}.csv"), rows,
                       delimiter=",", header=header, comments="")
        np.savetxt(os.path.join(args.out_dir, "hedge_ZH.csv"),
                   np.column_stack([hf.x, hf.Z, hf.H]), delimiter=",",
                   header="x,Z,H", comments="")
        with open(os.path.join(args.out_dir, "portfolio.csv"), "w") as fh:
            fh.write("strike,units\n")
            fh.write(f"cash,{report.cash:.10g}\n")
            fh.write(f"forward,{report.forward_units:.10g}\n")
            for k, w in report.strike_weights:
                fh.write(f"{k:.10g},{w:.10g}\n")
    _say(args, f"lower bound {report.lower_bound:.6g} "
               f"({len(report.strike_weights)} option legs); artifacts in {args.out_dir}")
    return EXIT_OK


def cmd_demo_example(args) -> int:
    alpha, beta, lam = args.alpha, args.beta, args.curvature
    from .obstacle import _snap_grid
    # the boundary's corner points must be grid nodes for full accuracy
    x = _snap_grid(-alpha - 0.5, beta + 0.5, args.nx, np.array([-alpha, beta]))
    bar = from_function(lambda s: parabola.barrier_fn(s, alpha, beta, lam), x,
                        horizon=parabola.barrier_fn(np.array([(beta - alpha) / 2.0]),
                                                    alpha, beta, lam)[0] + 1.0)
    payoff = opt.power_payoff(2.0, cap=args.t_max)
    diff = brownian()
    hf = opt.build_hedge(diff, bar, payoff, x, nt=args.nt, base_point=0.0, t_max=args.t_max)
    win = (hf.x >= -alpha + 0.1) & (hf.x <= beta - 0.1)
    xs, ts = hf.x[win], hf.t[:, None]
    gap = hf.G[:, win] + hf.H[win] - hf.F_grid[:, None]
    errs = {name: float(np.max(np.abs(num - exact))) for name, num, exact in (
        ("M", hf.M[:, win], parabola.M_exact(xs, ts, alpha, beta, lam)),
        ("G", hf.G[:, win], parabola.G_exact(xs, ts, alpha, beta, lam)),
        ("gap", gap, parabola.gap_exact(xs, ts, alpha, beta, lam)),
        ("Z", hf.Z[win], parabola.Z_exact(xs, alpha, beta, lam)),
        ("H", hf.H[win], parabola.H_exact(xs, alpha, beta, lam)))}
    report = {"alpha": alpha, "beta": beta, "curvature": lam,
              "nx": args.nx, "nt": args.nt, "max_errors": errs,
              "all_below_1e-3": bool(max(errs.values()) <= 1e-3)}
    if args.check_martingale:
        nu = measures.point_mass(0.0)
        report["martingale"] = opt.verify_martingale(
            hf, diff, nu, n=args.n, seed=args.seed, dt=1e-3)
    if args.check_optimality:
        nu = measures.point_mass(0.0)
        root_b = sim.simulate_stopped(diff, nu, bar, n=args.n, dt=1e-3, seed=args.seed)
        mu_hat = measures.empirical(root_b.stopped_values, recenter_to=0.0)
        comp = sim.hall_competitor(mu_hat, n=args.n, dt=1e-3, seed=args.seed + 1)
        report["optimality"] = {
            k: v for k, v in opt.optimality_gap(hf, payoff, root_b, comp, mu_hat).items()
        }
    os.makedirs(args.out_dir, exist_ok=True)
    out = os.path.join(args.out_dir, "demo_report.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
    with open(os.path.join(args.out_dir, "demo_errors.csv"), "w") as fh:
        fh.write("quantity,max_error\n")
        for kq, v in errs.items():
            fh.write(f"{kq},{v:.6e}\n")
    _say(args, "closed-form max errors:",
         " ".join(f"{kq}={v:.2e}" for kq, v in errs.items()))
    return EXIT_OK if max(errs.values()) <= 1e-3 else EXIT_SOLVER


def build_parser() -> argparse.ArgumentParser:
    # the global flags are accepted before or after the subcommand; the
    # per-subcommand copies use SUPPRESS defaults so they never clobber a
    # value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON config; keys mirror flags and win conflicts")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out-dir", default=argparse.SUPPRESS)
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)
    p = argparse.ArgumentParser(prog="rootbarrier", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", help="JSON config; keys mirror flags and win conflicts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="out")
    p.add_argument("--quiet", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    sb = sub.add_parser("solve-barrier", parents=[common],
                        help="solve the obstacle problem, extract the barrier")
    sb.add_argument("--nu", required=True, help="start-law JSON")
    sb.add_argument("--mu", required=True, help="target-law JSON")
    sb.add_argument("--sigma", default="bm", help="'bm' or 'gbm'")
    sb.add_argument("--x-lo", type=float, default=-6.5)
    sb.add_argument("--x-hi", type=float, default=6.5)
    sb.add_argument("--nx", type=int, default=801)
    sb.add_argument("--horizon", type=float, default=2.0)
    sb.add_argument("--nt", type=int, default=1600)
    sb.add_argument("--lam", type=float, default=1.0)
    sb.add_argument("--lcp-tol", type=float, default=1e-8)
    sb.set_defaults(func=cmd_solve_barrier)

    ve = sub.add_parser("verify-embed", parents=[common],
                        help="simulate a barrier stopping and test the law")
    ve.add_argument("--nu", required=True)
    ve.add_argument("--mu", required=True)
    ve.add_argument("--sigma", default="bm")
    ve.add_argument("--barrier", required=True,
                    help="barrier CSV from solve-barrier; the paths run to the horizon of the "
                         "barrier_meta.json beside it, if there is one")
    ve.add_argument("--n", type=int, default=100_000)
    ve.add_argument("--dt", type=float, default=1e-3)
    ve.add_argument("--dump-paths", action="store_true",
                    help="also write per-path stop times and values as CSV")
    ve.set_defaults(func=cmd_verify_embed)

    for name, dump in (("price-bound", False), ("hedge-report", True)):
        pb = sub.add_parser(name, parents=[common],
                            help="variance-payoff lower bound from call quotes")
        pb.add_argument("--quotes", help="CSV strike,price")
        pb.add_argument("--market", help="JSON sidecar {spot, discount_factor, maturity}")
        pb.add_argument("--bs-vol", type=float, default=None,
                        help="synthesize lognormal quotes at this vol instead of files")
        pb.add_argument("--spot", type=float, default=1.0)
        pb.add_argument("--rate", type=float, default=0.0)
        pb.add_argument("--maturity", type=float, default=1.0)
        pb.add_argument("--payoff", default="variance-swap",
                        choices=["variance-swap", "variance-call", "power"])
        pb.add_argument("--strike", type=float, default=0.04)
        pb.add_argument("--power", type=float, default=2.0)
        pb.add_argument("--cap", type=float, default=1.0)
        pb.add_argument("--nx", type=int, default=901)
        pb.add_argument("--nt", type=int, default=1600)
        pb.add_argument("--check", action="store_true",
                        help="simulate the attaining model; adds ks/tightness diagnostics")
        pb.add_argument("--check-paths", type=int, default=5000)
        pb.set_defaults(func=lambda a, d=dump: cmd_price_bound(a, dump_hedge=d))

    de = sub.add_parser("demo-example", parents=[common],
                        help="parabolic-barrier closed-form golden suite")
    de.add_argument("--alpha", type=float, default=2.0)
    de.add_argument("--beta", type=float, default=3.0)
    de.add_argument("--curvature", type=float, default=0.5)
    de.add_argument("--nx", type=int, default=601)
    de.add_argument("--nt", type=int, default=2400)
    de.add_argument("--t-max", type=float, default=6.0)
    de.add_argument("--n", type=int, default=50_000)
    de.add_argument("--check-martingale", action="store_true")
    de.add_argument("--check-optimality", action="store_true")
    de.set_defaults(func=cmd_demo_example)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args, parser)
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ArbitrageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MARKET
    except MeasureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MARKET
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
