"""Discounted stochastic control toolkit.

Solves finite- and infinite-horizon discounted-reward control problems
with state/control dependent (possibly unbounded) discount rates on a 1-D
grid, cross-validates the PDE solutions against Monte Carlo through the
discounted-reward representation, and ships a constrained
consumption-investment application with a closed-form constant-coefficient
benchmark.
"""

from .errors import (
    CoefficientError,
    DivergenceError,
    HjbkitError,
    ParameterError,
    PathExclusionError,
    PolicyIterationError,
    StabilityError,
)
from .finance import (
    MarketModel,
    MertonBenchmark,
    closed_form_controls,
    control_override,
    discount_admissible,
    load_market,
    merton_benchmark,
    to_control_model,
    wealth_value,
)
from .hamiltonian import HamiltonianValue, eval_H
from .model import (
    AssumptionReport,
    ControlModel,
    KappaTable,
    check_assumption1,
    estimate_kappa,
    load_model,
    truncate,
)
from .pde import (
    Grid1D,
    PolicyField,
    SolveReport,
    TimeGrid,
    ValueField,
    gradient_bound_check,
    residual,
    solve_finite_horizon,
    solve_infinite_horizon,
    solve_stationary,
)
from .simulate import (
    DiffusionDiscountBound,
    DriftDiscountBound,
    EstimatorResult,
    ExponentialEnvelopeBound,
    MonteCarloConfig,
    UniformDiscountBound,
    constant_policies,
    coupled_contraction,
    estimate_value,
    horizon_convergence,
    simulate_paths,
    verify_bounds,
)

__version__ = "0.1.0"
