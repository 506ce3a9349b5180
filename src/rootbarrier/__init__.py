"""Stopping barriers for distribution embedding and robust variance bounds.

The pipeline: represent start and target laws through their potential
functions, solve a parabolic obstacle problem whose contact set is the
stopping barrier, verify the embedding by simulation, build the hedge
functions certifying that the barrier stopping time minimizes convex
payoffs of its own law, and convert everything into model-independent
price bounds and subhedges for options on realized variance.
"""

from .measures import (
    Measure, CallQuotes, EmbeddingReport,
    atoms, point_mass, normal, lognormal, tabulated_density, empirical,
    potential, check_embeddable, implied_measure_from_calls, call_prices,
    load_measure, save_measure, load_quotes,
    MeasureError, ArbitrageError,
)
from .obstacle import (
    DiffusionSpec, SolverConfig, DiscreteProblem, ObstacleSolution,
    GridFunction, SolverError, brownian, geometric_brownian,
    assemble, solve, save_solution,
)
from .barrier import Barrier, extract_barrier, from_function, save_barrier, load_barrier
from .simulate import (
    PathBatch, PriceModel, simulate_stopped,
    simulate_price_model, hall_competitor, ks_statistic, ks_critical_value,
)
from .optimality import (
    PayoffSpec, HedgeFunctions, variance_call, variance_swap, power_payoff,
    custom_payoff, compute_M, build_hedge,
    verify_pathwise, verify_martingale, optimality_gap,
)
from .pricing import (
    MarketData, PricingConfig, HedgeReport, ConcavePayoff,
    lower_bound, static_portfolio, verify_subhedge, upper_bound_concave,
    log_contract_value, swap_value, black_scholes_call, synthetic_lognormal_quotes,
)

__version__ = "0.1.0"
