"""The shared argument rules of ``hjbkit.errors``: a positive, finite number,
a count that is an integer in its range and a step count below 2**63, at
every site that applies them."""

import math
import re
import warnings

import numpy as np
import pytest

import hjbkit as hk
from hjbkit.errors import ParameterError, _step_count

from conftest import constant_model, zero_policy


def _grid():
    return hk.Grid1D(-1.0, 1.0, 21)


def _mc():
    return hk.MonteCarloConfig(paths=4, dt=0.1, seed=0)


def _march(**change):
    args = {"dt": 2e-3, "tol_dt": 1e-5, "t_max": 10.0, **change}
    hk.solve_infinite_horizon(constant_model(), _grid(), **args)


def _market(**change):
    return hk.MarketModel(**{
        "short_rate": 0.02, "excess_drift": 0.04, "volatility": 0.2,
        "correlation": 0.5, "risk_aversion": 0.5, "discount": 0.1,
        "position_cap": 2.0, "consumption_cap": 1.0, "factor_drift": 0.0,
        "lip_L1": 0.01, "lip_L2": 0.01, **change})


def _control_model(dim):
    m = constant_model()
    return hk.ControlModel(dim, m.drift, m.discount_rate, m.running_reward,
                           m.terminal_reward, m.controls, m.lip_L1, m.lip_L2)


SITES = [
    pytest.param("horizon", lambda v: hk.TimeGrid(v, 10), id="TimeGrid"),
    pytest.param("tol", lambda v: hk.solve_stationary(constant_model(),
                                                      _grid(), v),
                 id="solve_stationary"),
    *(pytest.param(name, lambda v, name=name: _march(**{name: v}),
                   id=f"solve_infinite_horizon-{name}")
      for name in ("dt", "tol_dt", "t_max")),
    pytest.param("horizon", lambda v: hk.estimate_kappa(constant_model(),
                                                        1.0, v, _mc()),
                 id="estimate_kappa"),
    pytest.param("dt", lambda v: hk.MonteCarloConfig(paths=4, dt=v, seed=0),
                 id="MonteCarloConfig"),
    pytest.param("T", lambda v: hk.coupled_contraction(
        constant_model(), zero_policy(), [1.0], [0.0], v, _mc()),
                 id="coupled_contraction"),
    *(pytest.param(name, lambda v, name=name: _market(**{name: v}),
                   id=f"MarketModel-{name}")
      for name in ("discount", "position_cap", "consumption_cap")),
    pytest.param("k", lambda v: hk.truncate(constant_model(), v),
                 id="truncate"),
    pytest.param("alpha", lambda v: hk.discount_admissible(
        _market(), alpha=v, beta=0.0, P=1.0, Q=0.0), id="discount_admissible"),
    pytest.param("wealth", lambda v: hk.wealth_value(v, _market(), 1.0),
                 id="wealth_value"),
]


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name, call", SITES)
def test_positive_and_finite_at_every_site(name, call, value):
    with pytest.raises(ParameterError,
                       match=re.escape(f"{name} must be positive and finite")):
        call(value)


@pytest.mark.parametrize("span, dt, expected", [
    (4.0, 1e-300, "horizon 4.0 over dt 1e-300 overflows int64"),
    (np.float64(1.0), np.float64(1e-300),
     "horizon 1.0 over dt 1e-300 overflows int64"),
    (1, 0.0, "horizon 1.0 over dt 0.0 overflows int64")])
def test_step_count_past_int64_names_both_as_floats(span, dt, expected):
    # numpy scalars render as Python floats; a dt of 0 is an infinite count
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=re.escape(expected)):
            _step_count("horizon", span, dt)


COUNTS = [
    pytest.param("nodes", 3, 63, lambda v: hk.Grid1D(-1.0, 1.0, v).ys,
                 id="Grid1D"),
    pytest.param("steps", 1, 63, lambda v: hk.TimeGrid(1.0, v),
                 id="TimeGrid"),
    pytest.param("slice_stride", 1, 63, lambda v: hk.solve_finite_horizon(
        constant_model(), _grid(), hk.TimeGrid(0.1, 100), slice_stride=v),
                 id="solve_finite_horizon"),
    pytest.param("paths", 1, 63,
                 lambda v: hk.MonteCarloConfig(paths=v, dt=0.1, seed=0),
                 id="MonteCarloConfig-paths"),
    pytest.param("seed", 0, 64,
                 lambda v: hk.MonteCarloConfig(paths=4, dt=0.1, seed=v),
                 id="MonteCarloConfig-seed"),
    pytest.param("dim", 1, 63, _control_model, id="ControlModel"),
    pytest.param("samples", 2, 63, lambda v: hk.check_assumption1(
        constant_model(), [[-1.0, 1.0]], samples=v, seed=0),
                 id="check_assumption1-samples"),
    pytest.param("seed", 0, 64, lambda v: hk.check_assumption1(
        constant_model(), [[-1.0, 1.0]], samples=8, seed=v),
                 id="check_assumption1-seed"),
    pytest.param("radius", 0, 63, lambda v: hk.estimate_kappa(
        constant_model(), v, 1.0, _mc()), id="estimate_kappa"),
    pytest.param("npi", 2, 63, lambda v: hk.to_control_model(_market(), (v, 3)),
                 id="to_control_model-npi"),
    pytest.param("nc", 2, 63, lambda v: hk.to_control_model(_market(), (3, v)),
                 id="to_control_model-nc"),
]


@pytest.mark.parametrize("case", ["fraction", "whole float", "below",
                                  "2**bits"])
@pytest.mark.parametrize("name, low, bits, call", COUNTS)
def test_count_at_every_site(name, low, bits, call, case):
    # a float, even a whole one, is not a count: 1.5 read as 1 or ran on,
    # and counts of 2**63 or more ended in numpy tracebacks
    value, message = {
        "fraction": (low + 0.5, f"{name} must be an integer, not {low + 0.5!r}"),
        "whole float": (float(low + 2),
                        f"{name} must be an integer, not {float(low + 2)!r}"),
        "below": (low - 1, f"{name} must be >= {low} and < 2**{bits}"),
        "2**bits": (2 ** bits, f"{name} must be >= {low} and < 2**{bits}"),
    }[case]
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call(value)
