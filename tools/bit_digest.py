"""Print one sha256 per named result of a fixed list of pipeline cases.

Two source trees compute the same numbers when their outputs match line
for line.  Each case runs one chain of the pipeline on fixed inputs and
seeds (the obstacle solve, the barrier, the hedge functions, path
batches, bounds and their reports) and hashes every result from its
exact bits: an array by its dtype, shape and bytes, a float by its
IEEE double.  A report (a dict) is spread over one line per key, so a
key that only one tree writes shows up as one line of the diff.

The cases follow the inputs of the acceptance suite and the three
benchmark workloads (perfbench/workloads.py, workload seed 1), plus
batches on either side of the stepping loop's draw-ahead threshold, a
time change whose spike zones merge as the spikes arm, the five hedge
lookups at fixed points off and on the grids, quotes discounted at a
nonzero rate, and the files the CLI commands write, by their bytes.  A case that raises prints one line,
`<sha256>  <case>.error`, the hash of the exception's type and message,
and the run goes on with the next case.

Usage:
    python3 tools/bit_digest.py [--src DIR] [--values OTHER] [CASE ...]

DIR is the source tree `rootbarrier` is imported from (default: the
`src` directory of this repository).  With no CASE every case runs;
the full list takes 10–12 s and peaks at 200–215 MiB on a 2-core Xeon.
Prints lines `<sha256>  <case>.<result>`.  To compare two trees:

    python3 tools/bit_digest.py --src A/src > a.txt
    python3 tools/bit_digest.py --src B/src > b.txt
    diff a.txt b.txt

With --values OTHER, a second source tree, each case also runs in a
subprocess that imports `rootbarrier` from OTHER, and only the results
whose hashes differ are printed, as `<max |delta|>  <case>.<result>`:
the largest absolute difference over every number the result holds (an
array's entries, a list's items, the numerals of a file's text), or
`<m> vs <n> numbers` when the two hold different counts, or `only in
<tree>` for a result that one tree lacks.  Positions where both hold
the same value, inf and NaN included, count as 0.  The subprocess runs
a case while this process holds that case's results, so the peak is
about twice that of a plain run.
"""

from __future__ import annotations

import argparse
import hashlib
import pickle
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

WORKLOAD_SEED = 1


def digest(value) -> str:
    """sha256 of the exact bits of an array, a number, a string or a container of them."""
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def _feed(h, value) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            h.update(repr(key).encode())
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(f"[{len(value)}".encode())
        for item in value:
            _feed(h, item)
    elif value is None or isinstance(value, (str, bool, int)):
        h.update(repr(value).encode())
    elif isinstance(value, bytes):
        h.update(value)
    else:
        a = np.ascontiguousarray(value)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


def leaves(case: str, results: dict) -> dict:
    """`<case>.<name>` -> value per result; dicts spread over one entry per key."""
    out = {}
    for name, value in results.items():
        if isinstance(value, dict):
            out.update(leaves(f"{case}.{name}", value))
        else:
            out[f"{case}.{name}"] = value
    return out


def lines(case: str, results: dict) -> list[str]:
    """`<sha256>  <case>.<name>` per result; dicts spread over one line per key."""
    return [f"{digest(value)}  {name}" for name, value in leaves(case, results).items()]


_NUMERAL = re.compile(r"[-+]?(?:inf|nan|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)", re.IGNORECASE)


def numbers(value) -> np.ndarray:
    """Every number a result holds, in order: an array's entries, a list's items, a text's numerals."""
    if isinstance(value, dict):
        return numbers([value[key] for key in sorted(value)])
    if isinstance(value, (list, tuple)):
        return np.concatenate([numbers(item) for item in value] + [np.empty(0)])
    if isinstance(value, bytes):
        value = value.decode(errors="replace")
    if isinstance(value, str):
        return np.array([float(m) for m in _NUMERAL.findall(value)])
    if value is None:
        return np.empty(0)
    return np.asarray(value, dtype=float).ravel()


def max_delta(a, b) -> str:
    """The largest |a - b| over the numbers of two results, or why there is none."""
    na, nb = numbers(a), numbers(b)
    if na.shape != nb.shape or not len(na):
        return f"{len(na)} vs {len(nb)} numbers"
    with np.errstate(invalid="ignore"):     # inf - inf, where both hold inf
        d = np.abs(na - nb)
    d[(na == nb) | (np.isnan(na) & np.isnan(nb))] = 0.0
    return f"{d.max():.3e}"


# -- the cases ------------------------------------------------------------------

def _rb():
    import rootbarrier as rb
    import rootbarrier.cli  # noqa: F401  (the package imports neither module)
    import rootbarrier.parabola  # noqa: F401
    return rb


def _batch(b) -> dict:
    return {"stop_times": b.stop_times, "stopped_values": b.stopped_values,
            "horizon_mass": b.horizon_mass}


def _hedge(hf) -> dict:
    return {"M": hf.M, "Z": hf.Z, "G": hf.G, "H": hf.H, "delta": hf.delta, "F_grid": hf.F_grid}


def _report(rep) -> dict:
    return {"lower_bound": rep.lower_bound, "cash": rep.cash, "forward_units": rep.forward_units,
            "strike_weights": rep.strike_weights, "R": rep.barrier.R,
            "diagnostics": rep.diagnostics, "hedge": _hedge(rep.hedge)}


def case_normal() -> dict:
    """delta_0 -> N(0,1): 801 x 6000 solve, barrier and the re-embedded batch."""
    rb = _rb()
    bm, nu, mu = rb.obstacle.brownian(), rb.measures.point_mass(0.0), rb.measures.normal(0.0, 1.0)
    cfg = rb.obstacle.SolverConfig(x_lo=-6.2, x_hi=6.2, nx=801, horizon=1.5, nt=6000)
    sol = rb.obstacle.solve(rb.obstacle.assemble(bm, nu, mu, cfg))
    bar = rb.barrier.extract_barrier(sol)
    batch = rb.simulate.simulate_stopped(bm, nu, bar, n=20_000, dt=1e-3, seed=21)
    return {"v": sol.v, "contact_step": sol.contact_step, "max_residual": sol.max_residual,
            "R": bar.R, "reembed": _batch(batch)}


def case_parabola() -> dict:
    """Closed-form parabolic barrier: hedge functions, both checks, the 6e5-path round trip."""
    rb = _rb()
    opt, bm, nu = rb.optimality, rb.obstacle.brownian(), rb.measures.point_mass(0.0)
    x = np.linspace(-2.5, 3.5, 601)
    bar = rb.barrier.from_function(rb.parabola.barrier_fn, x, horizon=4.0)
    hf = opt.build_hedge(bm, bar, opt.power_payoff(2.0, cap=6.0), x, nt=2400, base_point=0.0, t_max=6.0)
    mart = opt.verify_martingale(hf, bm, nu, n=20_000, seed=41, ladder=[0.5, 1.0, 2.0, 4.0], dt=4e-3)
    batch = rb.simulate.simulate_stopped(bm, nu, bar, n=600_000, dt=1e-2, seed=WORKLOAD_SEED)
    law = rb.measures.empirical(batch.stopped_values, recenter_to=0.0)
    cfg = rb.obstacle.SolverConfig(x_lo=-2.6, x_hi=3.6, nx=621, horizon=3.5, nt=1400)
    sol = rb.obstacle.solve(rb.obstacle.assemble(bm, nu, law, cfg))
    return {"hedge": _hedge(hf), "pathwise": opt.verify_pathwise(hf), "martingale": mart,
            "round_trip": _batch(batch), "round_trip_R": rb.barrier.extract_barrier(sol).R,
            "round_trip_residual": sol.max_residual}


def case_flat() -> dict:
    """Flat barrier (both edges Neumann rows) against the interval-exit competitor."""
    rb = _rb()
    opt, bm, mu = rb.optimality, rb.obstacle.brownian(), rb.measures.normal(0.0, 1.0)
    xg = np.linspace(-6.5, 6.5, 1301)
    payoff = opt.power_payoff(2.0, cap=4.0)
    hf = opt.build_hedge(bm, rb.barrier.from_function(lambda s: np.ones_like(s), xg, 2.0),
                         payoff, xg, nt=800, base_point=0.0)
    root_bar = rb.barrier.Barrier(x=np.array([-10.0, 10.0]), R=np.array([1.0, 1.0]), horizon=2.0)
    root = rb.simulate.simulate_stopped(bm, rb.measures.point_mass(0.0), root_bar, n=20_000,
                                        dt=1 / 100, seed=31)
    comp = rb.simulate.hall_competitor(mu, n=20_000, dt=4e-3, seed=32)
    return {"hedge": _hedge(hf), "root": _batch(root), "competitor": _batch(comp),
            "gap": opt.optimality_gap(hf, payoff, root, comp, mu)}


def case_open_capped() -> dict:
    """Open middle stretch with a capped payoff derivative."""
    rb = _rb()
    x = np.linspace(-2.0, 2.0, 201)
    bar = rb.barrier.Barrier(x=x, R=np.where(np.abs(x) < 1.0 - 1e-9, np.inf, 0.0), horizon=1.0)
    m = rb.optimality.compute_M(rb.obstacle.brownian(), bar, rb.optimality.variance_call(0.3), x, nt=300)
    return {"M": m.values, "t": m.t}


def case_price_dense() -> dict:
    """301 dense quotes: three bounds, the attaining batch, three subhedges."""
    rb = _rb()
    pr, opt, sim = rb.pricing, rb.optimality, rb.simulate
    market = pr.synthetic_lognormal_quotes(spot=1.0, vol=0.2, maturity=1.0, rate=0.0, n_strikes=301)
    reps = {p.label: pr.lower_bound(market, p)
            for p in (opt.variance_swap(), opt.variance_call(0.02), opt.variance_call(0.04))}
    call = reps["variance call K=0.02"]
    models = [
        sim.PriceModel(kind="constant", s0=1.0, maturity=1.0, vol=0.2, rate=0.0),
        sim.PriceModel(kind="constant", s0=1.0, maturity=1.0, vol=0.35, rate=0.02),
        sim.PriceModel(kind="piecewise", s0=1.0, maturity=1.0,
                       vol=(np.array([0.5]), np.array([0.15, 0.3])), rate=0.0),
    ]
    out = {label: _report(rep) for label, rep in reps.items()}
    out["attaining"] = _batch(sim.simulate_price_model(call.attaining_model(), n=10_000, dt=1e-4, seed=9))
    for k, model in enumerate(models):
        out[f"subhedge{k}"] = pr.verify_subhedge(call, model, n=10_000, seed=WORKLOAD_SEED, dt=2e-3)
    return out


def case_two_atom() -> dict:
    """Two quoted atoms: the benchmark's 201-node bound and the default 901-node one."""
    rb = _rb()
    pr, opt = rb.pricing, rb.optimality
    market = pr.MarketData(spot=1.0, discount=1.0, maturity=1.0, strikes=np.array([0.7, 1.05, 1.4]),
                           prices=np.array([0.3, 3.0 / 7.0 * 0.35, 0.0]))
    payoff = opt.variance_call(0.05)
    small = pr.lower_bound(market, payoff, pr.PricingConfig(nx=201, nt=400, nt_hedge=500))
    model = small.attaining_model()
    return {"nx201": _report(small),
            "nx201_subhedge": pr.verify_subhedge(small, model, n=10_000, seed=9, dt=4e-4),
            "nx201_attaining": _batch(rb.simulate.simulate_price_model(model, n=10_000, dt=4e-4, seed=9)),
            "nx901": _report(pr.lower_bound(market, payoff))}


def case_prefetch() -> dict:
    """7e4-path batches around the draw-ahead threshold of simulate._walk.

    The running paths of the parabola batch fall below the threshold as
    they stop, and every path of the other stopped batch stops at step 1.
    """
    rb = _rb()
    bm, nu, sim = rb.obstacle.brownian(), rb.measures.point_mass(0.0), rb.simulate
    parabola = rb.barrier.from_function(rb.parabola.barrier_fn, np.linspace(-2.5, 3.5, 601), horizon=4.0)
    at_once = rb.barrier.Barrier(x=np.array([-10.0, 10.0]), R=np.array([0.01, 0.01]), horizon=1.0)
    price = sim.simulate_price_model(sim.PriceModel(kind="constant", s0=1.0, maturity=1.0, vol=0.2),
                                     n=70_000, dt=1e-2, seed=5)
    return {"crossing": _batch(sim.simulate_stopped(bm, nu, parabola, n=70_000, dt=1e-2, seed=5)),
            "step_1": _batch(sim.simulate_stopped(bm, nu, at_once, n=70_000, dt=1e-2, seed=5)),
            "constant_vol": {**_batch(price), "realized_variance": price.realized_variance}}


def case_spikes() -> dict:
    """A time change whose spikes arm at staggered times, 0.2 to 0.4 apart in log price.

    At dt = 1e-3 the bridge test's zone reaches sqrt(0.025) = 0.158 to
    either side of an armed spike, so the zones of spikes closer than
    0.316 merge as the second one arms, and the others stay apart.
    """
    rb = _rb()
    sim = rb.simulate
    l_spike = np.array([-0.9, -0.5, -0.25, 0.1, 0.3, 0.7])
    arm = np.array([0.0, 0.15, 0.05, 0.3, 0.0, 0.1])
    x = np.exp(np.linspace(-1.2, 1.0, 221))
    bar = rb.barrier.Barrier(x=x, R=np.where(np.abs(np.log(x) + 0.1) < 1.0, np.inf, 0.0), horizon=1.0)
    model = sim.PriceModel(kind="time-change-to-barrier", s0=1.0, maturity=1.0, barrier=bar,
                           spikes=(np.exp(l_spike), arm))
    b = sim.simulate_price_model(model, n=20_000, dt=1e-3, seed=13)
    return {**_batch(b), "realized_variance": b.realized_variance}


def case_rate() -> dict:
    """301 quotes at r = 3%: the implied law and the variance-swap report."""
    rb = _rb()
    pr = rb.pricing
    market = pr.synthetic_lognormal_quotes(spot=1.0, vol=0.2, maturity=1.0, rate=0.03, n_strikes=301)
    mu = rb.measures.implied_measure_from_calls(market)
    return {"implied": {"locations": mu.locations, "weights": mu.weights},
            "swap": _report(pr.lower_bound(market, rb.optimality.variance_swap()))}


def _lookups(hf, x: np.ndarray, t: np.ndarray, t_all: float) -> dict:
    """The five hedge lookups at x, with one time t per point and with t_all for all."""
    out = {"H": hf.H_at(x), "Z": hf.Z_at(x)}
    for name in ("G", "M", "delta"):
        at = getattr(hf, f"{name}_at")
        out[name], out[f"{name}_scalar_t"] = at(x, t), at(x, t_all)
    return out


def case_lookups() -> dict:
    """H, Z, G, M and delta of the dense K = 0.02 report and the parabola hedge.

    Points lie off both ends of x, on nodes and between them; times lie
    before 0, on grid times, between them and past the tabulated slab.
    """
    rb = _rb()
    pr, opt = rb.pricing, rb.optimality
    market = pr.synthetic_lognormal_quotes(spot=1.0, vol=0.2, maturity=1.0, rate=0.0, n_strikes=301)
    x = np.linspace(-2.5, 3.5, 601)
    bar = rb.barrier.from_function(rb.parabola.barrier_fn, x, horizon=4.0)
    hedges = {"dense_call": pr.lower_bound(market, opt.variance_call(0.02)).hedge,
              "parabola": opt.build_hedge(rb.obstacle.brownian(), bar, opt.power_payoff(2.0, cap=6.0),
                                          x, nt=2400, base_point=0.0, t_max=6.0)}
    out = {}
    for name, hf in hedges.items():
        span, horizon = hf.x[-1] - hf.x[0], hf.T_M
        xs = np.concatenate((hf.x[0] - np.array([0.3, 0.0]) * span, hf.x[::97],
                             hf.x[-1] + np.linspace(0.0, 0.5, 13) * span,
                             np.linspace(hf.x[0], hf.x[-1], 41) + 1e-3 * span))
        ts = np.resize(np.concatenate(([-1.0, 0.0], hf.t[::131], np.linspace(0.0, 1.3 * horizon, 23),
                                       [horizon, 2.0 * horizon])), len(xs))
        out[name] = _lookups(hf, xs, ts, 0.37 * horizon)
    return out


# small grids for every CLI command: one run per command, and three for
# solve-barrier (a barrier that never stops inside two atoms writes `inf`);
# the case writes the start and target laws
CLI_RUNS = {
    "solve-barrier-bm": ["solve-barrier", "--nu", "{dir}/delta0.json", "--mu", "{dir}/normal.json",
                         "--nx", "201", "--nt", "200", "--horizon", "1.5"],
    "solve-barrier-atoms": ["solve-barrier", "--nu", "{dir}/delta0.json", "--mu", "{dir}/two_atoms.json",
                            "--nx", "201", "--nt", "200", "--horizon", "1.0"],
    "solve-barrier-gbm": ["solve-barrier", "--sigma", "gbm", "--nu", "{dir}/delta1.json",
                          "--mu", "{dir}/lognormal.json", "--x-lo", "0.3", "--x-hi", "3.0",
                          "--nx", "201", "--nt", "200", "--horizon", "0.25"],
    "price-bound": ["price-bound", "--bs-vol", "0.2", "--payoff", "variance-call", "--strike", "0.02",
                    "--nx", "201", "--nt", "400"],
    "hedge-report": ["hedge-report", "--bs-vol", "0.2", "--rate", "0.03", "--nx", "201", "--nt", "400"],
    "demo-example": ["demo-example", "--nx", "301", "--nt", "600"],
}


def case_cli() -> dict:
    """The bytes of every file each CLI command writes, and its exit code."""
    rb = _rb()
    cli, ms = rb.cli, rb.measures
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, law in (("delta0", ms.point_mass(0.0)), ("normal", ms.normal(0.0, 1.0)),
                          ("two_atoms", ms.atoms([-1.0, 1.0], [0.5, 0.5])),
                          ("delta1", ms.point_mass(1.0)), ("lognormal", ms.lognormal(-0.02, 0.04))):
            ms.save_measure(law, f"{tmp}/{name}.json")
        for run, argv in CLI_RUNS.items():
            run_dir = Path(tmp) / run
            code = cli.main(["--out-dir", str(run_dir), "--quiet"] + [a.format(dir=tmp) for a in argv])
            out[run] = {"exit": code, **{f.name: f.read_bytes() for f in sorted(run_dir.iterdir())}}
    return out


CASES = {
    "normal": case_normal,
    "parabola": case_parabola,
    "flat": case_flat,
    "open-capped": case_open_capped,
    "price-dense": case_price_dense,
    "two-atom": case_two_atom,
    "prefetch": case_prefetch,
    "spikes": case_spikes,
    "lookups": case_lookups,
    "rate": case_rate,
    "cli": case_cli,
}


def run_case(case: str) -> dict:
    """The case's results by line name; a case that raises has one, `<case>.error`, its message."""
    try:
        return leaves(case, CASES[case]())
    except Exception as exc:
        return {f"{case}.error": f"{type(exc).__name__}: {exc}"}


def save_differing(mine: dict, tmp: Path) -> None:
    """Write every result's name to tmp/values.pkl, with its value where its hash is not in tmp/digests.pkl."""
    theirs = pickle.loads((tmp / "digests.pkl").read_bytes())
    (tmp / "values.pkl").write_bytes(pickle.dumps(
        {n: None if theirs.get(n) == digest(v) else v for n, v in mine.items()}))


def value_lines(case: str, mine: dict, src: str, other: str) -> list[str]:
    """`<max |delta|>  <name>` for each result of the case that the tree `other` computes otherwise."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "digests.pkl").write_bytes(pickle.dumps({n: digest(v) for n, v in mine.items()}))
        proc = subprocess.run([sys.executable, __file__, "--src", other, "--save", tmp, case],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"case {case} under {other} failed: {proc.stderr.strip()[-500:]}")
        theirs = pickle.loads((Path(tmp) / "values.pkl").read_bytes())
    out = [f"only in {other}  {n}" for n in theirs if n not in mine]
    for name, value in mine.items():
        if name not in theirs:
            out.append(f"only in {src}  {name}")
        elif theirs[name] is not None:
            out.append(f"{max_delta(value, theirs[name])}  {name}")
    return out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    ap.add_argument("--values", metavar="OTHER", help="print each differing result's max |delta| against this tree")
    # the subprocess of --values: save the results whose hashes differ from those in DIR
    ap.add_argument("--save", metavar="DIR", help=argparse.SUPPRESS)
    ap.add_argument("cases", nargs="*", metavar="CASE", help=", ".join(CASES))
    args = ap.parse_args(argv[1:])
    unknown = set(args.cases) - set(CASES)
    if unknown:
        ap.error(f"unknown case(s) {sorted(unknown)}; choose from {list(CASES)}")
    sys.path.insert(0, args.src)
    for case in args.cases or CASES:
        mine = run_case(case)
        if args.save:
            save_differing(mine, Path(args.save))
            continue
        out = value_lines(case, mine, args.src, args.values) if args.values else \
            [f"{digest(v)}  {n}" for n, v in mine.items()]
        if out:
            print("\n".join(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
