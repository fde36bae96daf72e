"""Constrained consumption-investment application.

The wealth problem with power utility factors as ``x^gamma/gamma`` times a
value that depends on the stochastic factor only; after the measure change
that absorbs the portfolio-dependent wealth noise into the factor drift,
the reduced problem is exactly an instance of the general framework:

* drift   ``i(y) + rho * pi * sigma(y)``
* discount``gamma*[r + b*pi - (1-gamma)/2 * sigma^2 * pi^2 - c] - w``
* reward  ``c^gamma``
* terminal 1

with the control pair ``(pi, c)`` constrained to ``[-R, R] x [0, m]``.

A market coefficient, constant or a callable of the factor, is read by
``_coefficient`` alone: a constant stays one float until a result needs
one value per row (``coefficients._each_row``).
"""

import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import coefficients
from .coefficients import _each_row
from .errors import ParameterError, _count, _positive_finite
from .hamiltonian import control_tables
from .model import (RATIO_TOL, ControlModel, _as_box, _drift_ratio,
                    check_assumption1)
from .reports import Report

__all__ = [
    "MarketModel",
    "to_control_model",
    "closed_form_controls",
    "control_override",
    "merton_benchmark",
    "MertonBenchmark",
    "discount_admissible",
    "wealth_value",
    "load_market",
    "reduced_model_descriptor",
]


def _coefficient(value):
    """``y -> value`` of a market coefficient: a float once if constant."""
    if not callable(value):
        value = float(value)
        return lambda y: value

    def coefficient(y):
        y = np.asarray(y, float)
        out = np.asarray(value(y), float)
        # accept callables that return either (...,) or (..., 1)
        return out[..., 0] if out.shape == y.shape else out

    return coefficient


@dataclass(frozen=True)
class MarketModel:
    """Market primitives driving the consumption-investment problem."""

    short_rate: object        # r(y) or constant
    excess_drift: object      # b(y) or constant
    volatility: object        # sigma(y) or constant, > 0
    correlation: float        # rho in [-1, 1]
    risk_aversion: float      # gamma in (0, 1)
    discount: float           # w > 0
    position_cap: float       # R > 0
    consumption_cap: float    # m > 0
    factor_drift: object      # i(y) or constant
    lip_L1: float = None
    lip_L2: float = None

    def __post_init__(self):
        if not (0.0 < self.risk_aversion < 1.0):
            raise ParameterError("risk_aversion must lie strictly in (0, 1)")
        if not -1.0 <= self.correlation <= 1.0:
            raise ParameterError("correlation must lie in [-1, 1]")
        _positive_finite(discount=self.discount, position_cap=self.position_cap,
                         consumption_cap=self.consumption_cap)

    @property
    def is_constant(self):
        return not any(callable(c) for c in
                       (self.short_rate, self.excess_drift, self.volatility))

    @property
    def all_numbers(self):
        """Every coefficient is a number, the factor drift too: no reduced
        coefficient then depends on y."""
        return self.is_constant and not callable(self.factor_drift)


def _reduced_coefficients(market):
    gamma, w, rho = market.risk_aversion, market.discount, market.correlation
    i, r, b, sigma = (_coefficient(c) for c in (
        market.factor_drift, market.short_rate, market.excess_drift,
        market.volatility))

    # y is only passed on or measured: _coefficient converts what it reads
    def drift(y, delta):
        pi = np.asarray(delta, float)[..., 0]
        return _each_row(i(y) + rho * pi * sigma(y), np.shape(y)[:-1])[..., None]

    def discount_rate(y, delta):
        delta = np.asarray(delta, float)
        pi, c = delta[..., 0], delta[..., 1]
        s = sigma(y)
        # s * s, not s ** 2: a float's power goes through C pow(), the
        # array square is one product, and both must round alike
        return _each_row(gamma * (r(y) + b(y) * pi - 0.5 * (1.0 - gamma)
                                  * (s * s) * pi ** 2 - c) - w, np.shape(y)[:-1])

    def running_reward(y, delta):
        return _each_row(np.asarray(delta, float)[..., 1] ** gamma, np.shape(y)[:-1])

    def terminal_reward(y):
        return np.ones(np.shape(y)[:-1])

    return drift, discount_rate, running_reward, terminal_reward


def to_control_model(market, control_resolution):
    """Discretize (pi, c) and build the reduced factor-level ControlModel.

    One screen of the reduced model with unit constants gives the
    quotients: an absent ``L1`` or ``L2`` is inferred from them (``L2``
    only from a factor drift that contracts), and the claimed or inferred
    constants are checked against them, the drift by ``model``'s one-sided
    normalization.  The screen samples, except for a market given as
    numbers (``MarketModel.all_numbers``): its reduced coefficients do not
    depend on y, so every quotient is exactly 0 and only their finiteness
    is checked, once, for every control at ``y = 0``.
    """
    n_pi, n_c = control_resolution
    _count(2, npi=n_pi, nc=n_c)
    R, m = market.position_cap, market.consumption_cap
    grid = np.meshgrid(np.linspace(-R, R, n_pi), np.linspace(0.0, m, n_c),
                       indexing="ij")  # pi outer, c inner
    controls = np.stack(grid, axis=-1).reshape(-1, 2)
    drift, h, f, g = _reduced_coefficients(market)

    def reduced(L1, L2):
        return ControlModel(dim=1, drift=drift, discount_rate=h,
                            running_reward=f, terminal_reward=g,
                            controls=controls, lip_L1=L1, lip_L2=L2)

    box = [(-5.0, 5.0)]
    unit = reduced(1.0, 1.0)
    if market.all_numbers:
        control_tables(unit, np.zeros((1, 1)))  # raises where non-finite
        q = dict.fromkeys(("terminal_reward", "running_reward",
                           "discount_rate", "drift"), 0.0)
    else:
        q = check_assumption1(unit, box, samples=128, seed=0).ratios
    lipschitz = max(q["terminal_reward"], q["running_reward"], q["discount_rate"])
    L1, L2 = market.lip_L1, market.lip_L2
    if L1 is None:
        L1 = 1.5 * max(1.0, lipschitz)
    if L2 is None:
        if q["drift"] >= 0:
            raise ParameterError(
                "market: L2 cannot be inferred, as the factor drift shows "
                f"no contraction on the screen box {box[0]} (drift quotient "
                f"{q['drift']:.3g} >= 0); give L2")
        L2 = min(q["drift"], -1e-6)
    cm = reduced(L1, L2)  # rejects L1 <= 0 and L2 = 0 before they divide
    worst = max(lipschitz / L1, _drift_ratio(q["drift"], L2))
    if not worst <= 1.0 + RATIO_TOL:
        warnings.warn(
            "market coefficients violate the claimed Lipschitz/contraction "
            f"constants (worst ratio {worst:.3g})",
            stacklevel=2,
        )
    return cm


def closed_form_controls(y, u, u_y, market):
    """Clipped maximizers of the reduced Hamiltonian at one (y, u, u_y).

    The portfolio weight is the vertex of the concave quadratic in pi,
    clipped to [-R, R]; consumption is the stationary point of the strictly
    concave consumption term, clipped to [0, m].  Requires u > 0; floats
    for a scalar ``u``.
    """
    u_arr = np.asarray(u, float)
    if np.any(u_arr <= 0):
        raise ParameterError("closed-form controls require u > 0")
    ycol = np.asarray(y, float).reshape(-1, 1)
    gamma = market.risk_aversion
    # floats if constant: s * s, not s ** 2, as in the reduced discount rate
    s = _coefficient(market.volatility)(ycol)
    b = _coefficient(market.excess_drift)(ycol)
    pi = (market.correlation * s * np.asarray(u_y, float) + gamma * b * u_arr) \
        / ((gamma - gamma ** 2) * (s * s) * u_arr)
    pi = np.clip(pi, -market.position_cap, market.position_cap)
    # u ~ 0 early in the long-time march: the power overflows but the clip
    # pins it at the cap, so the warning is spurious
    with np.errstate(over="ignore"):
        c = np.clip(u_arr ** (1.0 / (gamma - 1.0)), 0.0, market.consumption_cap)
    if np.ndim(u) == 0:
        return float(np.ravel(pi)[0]), float(np.ravel(c)[0])
    return pi, _each_row(c, np.shape(pi))


def control_override(market):
    """Vectorized (y, u, p) -> (pi*, c*) map for the grid solvers: the
    closed-form controls at ``u`` clamped to at least ``1e-300``."""

    def override(ys, u, grad):
        uu = np.maximum(np.asarray(u, float), 1e-300)
        return np.stack(closed_form_controls(ys, uu, grad, market), axis=-1)

    return override


@dataclass(frozen=True)
class MertonBenchmark(Report):
    u: float
    pi_star: float
    c_star: float
    A: float
    pi_clipped: bool
    c_clipped: bool


def merton_benchmark(market):
    """Constant solution of the stationary reduced equation.

    For y-independent market coefficients the stationary equation collapses
    to ``A*u + (1-gamma)*u^(gamma/(gamma-1)) = 0`` with
    ``A = gamma*r - w + gamma*b^2 / (2*(1-gamma)*sigma^2)``, giving
    ``u = ((1-gamma)/(-A))^(1-gamma)``.  Valid when A < 0 and the interior
    maximizers do not clip.
    """
    if not market.is_constant:
        raise ParameterError("benchmark requires constant market coefficients")
    gamma, w = market.risk_aversion, market.discount
    r = float(market.short_rate)
    b = float(market.excess_drift)
    sigma = float(market.volatility)
    A = gamma * r - w + gamma * b ** 2 / (2.0 * (1.0 - gamma) * sigma ** 2)
    if A >= 0:
        raise ParameterError(
            "discount too small for finite value (growth rate "
            f"A={A:g} is nonnegative)"
        )
    u = ((1.0 - gamma) / (-A)) ** (1.0 - gamma)
    pi_unclipped = b / ((1.0 - gamma) * sigma ** 2)
    c_unclipped = u ** (1.0 / (gamma - 1.0))
    pi = float(np.clip(pi_unclipped, -market.position_cap, market.position_cap))
    c = float(np.clip(c_unclipped, 0.0, market.consumption_cap))
    return MertonBenchmark(
        u=float(u),
        pi_star=pi,
        c_star=c,
        A=float(A),
        pi_clipped=bool(pi != pi_unclipped),
        c_clipped=bool(c != c_unclipped),
    )


@dataclass(frozen=True)
class DiscountReport(Report):
    admissible: bool
    linear_rate: float
    prefactor_exponent: float     # coefficient of max(y0, 0)
    psi_sup: float
    martingale_correction: float
    total_rate: float
    precondition_witnesses: list


def _psi_max(market, ycol, xi):
    """Max over the capped pi of ``(xi sigma + gamma b) pi - (gamma -
    gamma^2) sigma^2 pi^2 / 2``, the discount exponent's portfolio terms."""
    gamma = market.risk_aversion
    s = _coefficient(market.volatility)(ycol)
    lin = xi * s + gamma * _coefficient(market.excess_drift)(ycol)
    quad = 0.5 * (gamma - gamma ** 2) * s ** 2
    vertex = np.where(quad > 0, lin / (2.0 * quad), 0.0)
    pi = np.clip(vertex, -market.position_cap, market.position_cap)
    return lin * pi - quad * pi ** 2


def discount_admissible(market, alpha, beta, P, Q, box=(-5.0, 5.0),
                        samples=256, seed=0):
    """Screen the discount factor for infinite-horizon admissibility.

    Decomposes the pathwise discount exponent into a linear-in-time rate,
    a start-point prefactor, the capped-portfolio quadratic term and the
    martingale correction from the stochastic integral; the total
    exponential rate must be negative for the discounted value to stay
    integrable.  Preconditions on the factor drift and short rate are
    checked by sampling and witnesses are listed on violation.
    """
    _positive_finite(alpha=alpha)
    _count(2, samples=samples)
    _count(0, 64, seed=seed)
    (lo, hi), = _as_box(box, 1)
    gamma, w = market.risk_aversion, market.discount
    rng = np.random.default_rng(seed)
    ys = np.sort(np.append(rng.uniform(lo, hi, samples), (lo, hi)))
    ycol = ys[:, None]
    i, r = (_each_row(_coefficient(c)(ycol), ys.shape)
            for c in (market.factor_drift, market.short_rate))
    witnesses = []
    for condition, value, bound in (
            ("factor_drift", i, -alpha * ys + beta),
            ("short_rate", gamma * r - w, -P + Q * ys)):
        for j in np.nonzero(value > bound + 1e-12)[0][:5]:
            witnesses.append({"condition": condition, "y": float(ys[j]),
                              "value": float(value[j]),
                              "bound": float(bound[j])})

    # h <= -P + Q y + psi, and the drift bound caps int Q Y ds
    linear_rate = -P + Q * beta / alpha
    prefactor = Q / alpha
    # the time-kernel factor (1 - e^{alpha(s-t)}) ranges over [0, 1)
    xi_hi = Q * market.correlation / alpha
    psi_sup = max(float(np.max(_psi_max(market, ycol, xi))) for xi in (0.0, xi_hi))
    martingale = 0.5 * (Q / alpha) ** 2
    total = linear_rate + psi_sup + martingale
    return DiscountReport(
        admissible=bool(total < 0 and not witnesses),
        linear_rate=float(linear_rate),
        prefactor_exponent=float(prefactor),
        psi_sup=float(psi_sup),
        martingale_correction=float(martingale),
        total_rate=float(total),
        precondition_witnesses=witnesses,
    )


def wealth_value(x, market, u):
    """Full wealth-level value x^gamma/gamma * u."""
    _positive_finite(wealth=x)
    gamma = market.risk_aversion
    return x ** gamma / gamma * float(u)


def load_market(source):
    """Build a MarketModel from a JSON market file: a path, an open text
    file or the parsed mapping."""
    doc = coefficients._read_json(source)

    def read(key, coefficient=False):
        if coefficient and isinstance(doc[key], dict):
            return coefficients.build_terminal(doc[key], 1)
        return coefficients._numbers(doc, key, where="market file")

    # every field but lip_L1 and lip_L2; one typed ``object`` is a market
    # coefficient, which may be a descriptor of the factor
    return MarketModel(**{f.name: read(f.name, f.type is object)
                          for f in fields(MarketModel)[:-2]},
                       # an absent or null L1 or L2 is inferred
                       **{f"lip_{key}": read(key) for key in ("L1", "L2")
                          if doc.get(key) is not None})


def reduced_model_descriptor(market, control_resolution):
    """JSON-serializable reduced model, for inspection from the CLI.

    Only constant-coefficient markets can be emitted in closed descriptor
    form; state-dependent coefficients would need tabulation.
    """
    if not market.all_numbers:
        raise ParameterError(
            "descriptor export supports constant-coefficient markets only"
        )
    cm = to_control_model(market, control_resolution)
    gamma, w, rho = market.risk_aversion, market.discount, market.correlation
    r = float(market.short_rate)
    b = float(market.excess_drift)
    sigma = float(market.volatility)
    return {
        "dim": 1,
        "controls": cm.controls.tolist(),
        "drift": {
            "kind": "components",
            "components": [{
                "kind": "quadratic_delta",
                "const": float(market.factor_drift),
                "delta_coeff": [rho * sigma, 0.0],
            }],
        },
        "discount_rate": {
            "kind": "quadratic_delta",
            "const": gamma * r - w,
            "delta_coeff": [gamma * b, -gamma],
            "delta_quad": [-0.5 * gamma * (1.0 - gamma) * sigma ** 2, 0.0],
        },
        "running_reward": {"kind": "power_delta", "index": 1,
                           "exponent": gamma},
        "terminal_reward": {"kind": "constant", "value": 1.0},
        "L1": cm.lip_L1,
        "L2": cm.lip_L2,
    }
