"""The shared argument rules of ``hjbkit.errors``: a positive, finite number
and a step count below 2**63, at every site that applies them."""

import math
import re
import warnings

import numpy as np
import pytest

import hjbkit as hk
from hjbkit.errors import ParameterError, _step_count

from conftest import constant_model


def _grid():
    return hk.Grid1D(-1.0, 1.0, 21)


def _mc():
    return hk.MonteCarloConfig(paths=4, dt=0.1, seed=0)


def _march(**change):
    args = {"dt": 2e-3, "tol_dt": 1e-5, "t_max": 10.0, **change}
    hk.solve_infinite_horizon(constant_model(), _grid(), **args)


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

