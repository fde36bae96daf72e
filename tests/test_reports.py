"""The JSON form of the report classes (``hjbkit.reports``)."""

import dataclasses
import json

import numpy as np
import pytest

from hjbkit import finance, model, pde, simulate


def _cases():
    """One report per class, its fields given as numpy and Python values."""
    return {
        "EstimatorResult": simulate.EstimatorResult(
            mean=np.float64(1.5), std_error=np.array(0.25),
            paths=np.int64(2000), seed=3, horizon=2, excluded=np.int64(1)),
        "BoundVerification": simulate.BoundVerification(
            met=np.bool_(True), worst_margin=np.array(0.5),
            rows=[{"t": np.float64(0.25), "control_index": np.int64(1),
                   "factor": "running", "estimate": 1.0,
                   "std_error": np.float64(0.125), "bound": 2,
                   "margin": np.array(0.375), "met": np.bool_(True)}]),
        "AssumptionReport": model.AssumptionReport(
            passed=np.bool_(False), worst_ratio=np.float64(1.25),
            witness={"coefficient": "drift", "y": np.array([0.5]),
                     "y_bar": [np.float64(-0.5)], "delta": None,
                     "ratio": np.float64(1.25)},
            ratios={"drift": np.float64(1.25),
                    "terminal_reward": np.array(0.5)},
            tolerance=np.float64(1e-9)),
        "KappaTable": model.KappaTable(
            t=[0.5, 1.0], kappa=[1.0, 0.5], p_terminal=[0.0, 0.0],
            policy_ids=[0, 2], radius_n=np.int64(2),
            policies_probed="constant controls (3)",
            integral_kappa=np.float64(0.75), integral_weighted=np.array(0.8),
            envelope_K=1, envelope_M=np.float64(0.125),
            decay_rate=np.float64(-0.6875), lip_L2=-1.0,
            non_integrable=np.bool_(False), divergence_info=""),
        "SolveReport": pde.SolveReport(
            scheme={"kind": "stationary_policy_iteration",
                    "dy": np.float64(0.2), "boundary": "one_sided",
                    "tol": 1e-6, "override": np.bool_(False)},
            cfl_ratio=0, residual_norm=np.array(1e-7),
            dvdt_norm=np.float64(2e-7), steps=np.int64(5), wall_time=0.123,
            converged=np.bool_(True), error_bound=np.float64(2e-7)),
        "GradientBoundReport": pde.GradientBoundReport(
            status="met", value_bound=np.float64(3.0),
            gradient_bound=np.array(4.5), worst_value_slack=1,
            worst_gradient_slack=np.float64(0.25)),
        "MertonBenchmark": finance.MertonBenchmark(
            u=np.float64(2.75), pi_star=np.array(0.5),
            c_star=np.float64(0.375), A=np.float64(-0.0625),
            pi_clipped=np.bool_(False), c_clipped=0),
        "DiscountReport": finance.DiscountReport(
            admissible=np.bool_(True), linear_rate=np.float64(-0.1),
            prefactor_exponent=0, psi_sup=np.array(0.02),
            martingale_correction=np.float64(0.0),
            total_rate=np.float64(-0.08),
            precondition_witnesses=[{"condition": "short_rate",
                                     "y": np.float64(1.0), "value": 0.1,
                                     "bound": np.int64(0)}]),
    }


# the hand-written ``as_dict`` bodies each class had before the shared
# serializer, on ``_cases()``, with their numpy values written as Python ones
PINNED = {
    "EstimatorResult": {"mean": 1.5, "std_error": 0.25, "paths": 2000,
                        "seed": 3, "horizon": 2.0, "excluded": 1},
    "BoundVerification": {
        "met": True, "worst_margin": 0.5,
        "rows": [{"t": 0.25, "control_index": 1, "factor": "running",
                  "estimate": 1.0, "std_error": 0.125, "bound": 2,
                  "margin": 0.375, "met": True}]},
    "AssumptionReport": {
        "passed": False, "worst_ratio": 1.25,
        "witness": {"coefficient": "drift", "y": [0.5], "y_bar": [-0.5],
                    "delta": None, "ratio": 1.25},
        "ratios": {"drift": 1.25, "terminal_reward": 0.5},
        "tolerance": 1e-09},
    "KappaTable": {"radius_n": 2, "policies_probed": "constant controls (3)",
                   "integral_kappa": 0.75, "integral_weighted": 0.8,
                   "envelope_K": 1.0, "envelope_M": 0.125,
                   "decay_rate": -0.6875, "non_integrable": False,
                   "divergence_info": ""},
    "SolveReport": {
        "scheme": {"kind": "stationary_policy_iteration", "dy": 0.2,
                   "boundary": "one_sided", "tol": 1e-06, "override": False},
        "cfl_ratio": 0.0, "residual_norm": 1e-07, "dvdt_norm": 2e-07,
        "steps": 5, "converged": True, "error_bound": 2e-07},
    "GradientBoundReport": {"status": "met", "value_bound": 3.0,
                            "gradient_bound": 4.5, "worst_value_slack": 1.0,
                            "worst_gradient_slack": 0.25},
    "MertonBenchmark": {"u": 2.75, "pi_star": 0.5, "c_star": 0.375,
                        "A": -0.0625, "pi_clipped": False,
                        "c_clipped": False},
    "DiscountReport": {
        "admissible": True, "linear_rate": -0.1, "prefactor_exponent": 0.0,
        "psi_sup": 0.02, "martingale_correction": 0.0, "total_rate": -0.08,
        "precondition_witnesses": [{"condition": "short_rate", "y": 1.0,
                                    "value": 0.1, "bound": 0}]},
}


def _builtin(value):
    """Whether ``value`` holds only JSON's Python types, recursively."""
    if isinstance(value, dict):
        return all(type(k) is str and _builtin(v) for k, v in value.items())
    if isinstance(value, list):
        return all(_builtin(v) for v in value)
    return value is None or type(value) in (bool, int, float, str)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_as_dict_is_plain_json_of_the_fields(name):
    report = _cases()[name]
    doc = report.as_dict()
    assert _builtin(doc)
    assert set(doc) == {f.name for f in dataclasses.fields(report)} \
        - set(type(report)._omit)
    # the JSON text, not only ==, so that 1 and 1.0 differ
    assert json.dumps(doc, sort_keys=True) == \
        json.dumps(PINNED[name], sort_keys=True)
