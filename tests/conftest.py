import numpy as np
import pytest

from rootbarrier import measures as ms
from rootbarrier import obstacle as ob
from rootbarrier import barrier as br
from rootbarrier import optimality as opt
from rootbarrier import pricing as pr
from rootbarrier import parabola as pb


@pytest.fixture(scope="session")
def gaussian_solution():
    """Obstacle solve for delta_0 -> N(0,1) under unit diffusion."""
    cfg = ob.SolverConfig(x_lo=-6.2, x_hi=6.2, nx=801, horizon=2.0, nt=1600)
    prob = ob.assemble(ob.brownian(), ms.point_mass(0.0), ms.normal(0.0, 1.0), cfg)
    return ob.solve(prob)


@pytest.fixture(scope="session")
def coarse_gaussian_solution():
    """The same solve on 401 nodes and 400 time steps."""
    cfg = ob.SolverConfig(x_lo=-6.2, x_hi=6.2, nx=401, horizon=2.0, nt=400)
    return ob.solve(ob.assemble(ob.brownian(), ms.point_mass(0.0), ms.normal(0.0, 1.0), cfg))


@pytest.fixture(scope="session")
def parabola_hedge():
    """Hedge functions for the closed-form parabolic barrier."""
    x = np.linspace(-2.5, 3.5, 601)
    bar = br.from_function(pb.barrier_fn, x, horizon=4.0)
    payoff = opt.power_payoff(2.0, cap=6.0)
    hf = opt.build_hedge(ob.brownian(), bar, payoff, x, nt=2400,
                         base_point=0.0, t_max=6.0)
    return hf, bar, payoff


@pytest.fixture(scope="session")
def dense_market():
    return pr.synthetic_lognormal_quotes(
        spot=1.0, vol=0.2, maturity=1.0, rate=0.0, n_strikes=301)


@pytest.fixture(scope="session")
def dense_swap_report(dense_market):
    return pr.lower_bound(dense_market, opt.variance_swap())


@pytest.fixture(scope="session")
def dense_call_report(dense_market):
    return pr.lower_bound(dense_market, opt.variance_call(0.02))


@pytest.fixture(scope="session")
def two_atom_market():
    strikes = np.array([0.7, 1.05, 1.4])
    prices = np.array([0.3, 3.0 / 7.0 * 0.35, 0.0])
    return pr.MarketData(spot=1.0, discount=1.0, maturity=1.0,
                         strikes=strikes, prices=prices)


@pytest.fixture(scope="session")
def falling_payoff():
    """F(t) = min(t, 0.05) + 0.5 (t - 0.05)_+: f falls from 1 to 1/2, so F is not convex.

    The shape of the complement f_bound t - L of a convex L.
    """
    return opt.custom_payoff(
        lambda t: np.minimum(t, 0.05) + 0.5 * np.maximum(np.asarray(t, dtype=float) - 0.05, 0.0),
        lambda t: np.where(np.asarray(t, dtype=float) < 0.05, 1.0, 0.5),
        f_bound=1.0, cap_time=0.05)
