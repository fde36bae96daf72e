import argparse
import builtins
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hjbkit import model, pde, simulate
from hjbkit.cli import _COMMANDS, _fill, build_parser, main

DATA = __file__.rsplit("/", 1)[0] + "/data"
MODEL = DATA + "/ou_model.json"
MARKET = DATA + "/merton_market.json"


def run(*argv):
    return main([str(a) for a in argv])


class TestCheck:
    def test_passing_model(self, tmp_path):
        code = run("check", "--model", MODEL, "--out", tmp_path, "--seed", 1)
        assert code == 0
        rep = json.loads((tmp_path / "assumption_report.json").read_text())
        assert rep["passed"] is True
        assert rep["seed"] == 1
        assert "config_digest" in rep

    @pytest.mark.parametrize("key, desc, dim", [
        ("discount_rate", {"kind": "linear_ab"}, 1),
        ("running_reward", {"kind": "linear_abs"}, 1),
        ("drift", {"kind": "linear_ab"}, 1),
        ("discount_rate", {"kind": "tabulated", "y_grid": [0.0, 1.0],
                           "values": [[0.0, 1.0]]}, 2),
    ], ids=["scalar_typo", "deleted_linear_abs", "drift_typo",
            "tabulated_dim_2"])
    def test_unknown_coefficient_kind_is_usage_error(self, tmp_path, capsys,
                                                     key, desc, dim):
        doc = json.loads(open(MODEL).read())
        if dim != 1:
            doc.update(dim=dim, drift={"kind": "affine"}, domain_box=None)
        doc[key] = desc
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        assert run("check", "--model", bad, "--out", tmp_path / "out") == 2
        assert desc["kind"] in capsys.readouterr().err

    @pytest.mark.parametrize("change, bad", [
        ({"dim": 2, "domain_box": None}, "y_matrix"),
        ({"controls": [[0.0, 1.0]]}, "delta_matrix"),
        ({"drift": {"kind": "affine", "const": [0.0, 1.0],
                    "y_matrix": [[-1.0]], "delta_matrix": [[1.0]]}}, "const"),
        ({"running_reward": {"kind": "power_delta", "index": 3,
                             "exponent": 0.5}}, "index 3"),
        # controls 0, 0.5 and 1 read rows rint(0) = rint(0.5) = 0 and 1
        ({"discount_rate": {"kind": "tabulated", "y_grid": [0.0, 1.0],
                            "values": [[-1.0, -1.0]]}}, "control index 1"),
        ({"running_reward": {"kind": "quadratic_delta", "const": [1.0],
                             "delta_quad": [-1.0]}},
         "quadratic_delta descriptor: const of shape (1,)"),
        # rows of two values for three grid points
        ({"discount_rate": {"kind": "tabulated", "y_grid": [0.0, 1.0, 2.0],
                            "values": [[-1.0, -1.0]] * 3}},
         "values of shape (3, 2)"),
    ])
    def test_coefficient_that_does_not_fit_is_usage_error(self, tmp_path, capsys,
                                                          change, bad):
        doc = json.loads(open(MODEL).read())
        doc.update(change)
        bad_model = tmp_path / "bad_model.json"
        bad_model.write_text(json.dumps(doc))
        assert run("check", "--model", bad_model, "--out", tmp_path / "out") == 2
        assert bad in capsys.readouterr().err

    def test_violating_model(self, tmp_path):
        doc = json.loads(open(MODEL).read())
        doc["L2"] = -2.0  # claims a stronger contraction than the drift has
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        code = run("check", "--model", bad, "--out", tmp_path / "out")
        assert code == 1
        rep = json.loads((tmp_path / "out" / "assumption_report.json").read_text())
        assert rep["passed"] is False


class TestSolve:
    def test_finite_horizon_artifacts(self, tmp_path):
        code = run("solve", "--model", MODEL, "--out", tmp_path,
                   "--grid-min", -3, "--grid-max", 3, "--nodes", 31,
                   "--horizon", 0.5, "--steps", 500)
        assert code == 0
        for name in ("value.csv", "policy.csv", "solve_report.json"):
            assert (tmp_path / name).exists()
        rep = json.loads((tmp_path / "solve_report.json").read_text())
        assert rep["converged"] is True
        assert "wall_time" not in rep  # artifacts must be byte-stable

    def test_infinite_horizon(self, tmp_path):
        code = run("solve", "--model", MODEL, "--out", tmp_path, "--infinite",
                   "--grid-min", -3, "--grid-max", 3, "--nodes", 31,
                   "--dt", 5e-3, "--tol-dt", 1e-4, "--t-max", 100)
        assert code == 0
        lines = (tmp_path / "value.csv").read_text().strip().splitlines()
        assert lines[2] == "y,t,u"
        assert len(lines) == 3 + 31

    def test_cfl_violation_exit_code(self, tmp_path, capsys):
        code = run("solve", "--model", MODEL, "--out", tmp_path,
                   "--grid-min", -3, "--grid-max", 3, "--nodes", 31,
                   "--horizon", 1.0, "--steps", 2)
        assert code == 1
        assert "stability limit" in capsys.readouterr().err

    def test_cfl_violation_is_one_error_line(self, tmp_path, capsys):
        code = run("solve", "--model", MODEL, "--out", tmp_path,
                   "--nodes", 101, "--steps", 5)
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: ") and "stability limit" in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("stride", [0, -3])
    def test_slice_stride_validated(self, tmp_path, capsys, stride):
        code = run("solve", "--model", MODEL, "--out", tmp_path,
                   "--slice-stride", stride)
        assert code == 2
        assert "slice_stride" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, name", [
        (["--grid-min=-inf"], "y_min"), (["--grid-max=inf"], "y_max"),
        (["--grid-min=-1e308", "--grid-max=1e308"], "spacing"),
        (["--horizon=inf"], "horizon"),
        (["--grid-min=-1e-300", "--grid-max=1e-300"], "spacing")])
    def test_non_finite_grid_or_horizon_is_usage_error(self, tmp_path, capsys,
                                                       flags, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("solve", "--model", MODEL, "--out", tmp_path,
                       "--nodes", 11, "--steps", 10, "--horizon", 0.01, *flags)
        assert code == 2
        err = capsys.readouterr().err
        assert name in err and "coefficient" not in err
        assert not (tmp_path / "solve_report.json").exists()

    def test_market_solve_with_closed_form(self, tmp_path):
        code = run("solve", "--market", MARKET, "--out", tmp_path,
                   "--infinite", "--closed-form", "--grid-min", -1,
                   "--grid-max", 1, "--nodes", 21, "--dt", 4e-3,
                   "--tol-dt", 1e-4, "--t-max", 200)
        assert code == 0

    @pytest.mark.parametrize("flags, tabulations", [
        # grid controls: the scan's tables serve the residual audit too
        (["--model", MODEL, "--nodes", 21, "--steps", 20], 1),
        (["--model", MODEL, "--infinite", "--nodes", 21], 1),
        # an override: one per right-hand side (41 here), and the audit's
        # at the final centred gradient
        (["--market", MARKET, "--closed-form", "--nodes", 11, "--steps", 40,
          "--grid-min", -1, "--grid-max", 1], 42),
    ])
    def test_controls_tabulated_once_per_solve(self, tmp_path, monkeypatch,
                                               flags, tabulations):
        calls = []
        tabulate = pde._tabulate

        def spy(*args, **kwargs):
            calls.append(args)
            return tabulate(*args, **kwargs)

        monkeypatch.setattr(pde, "_tabulate", spy)
        assert run("solve", *flags, "--out", tmp_path) == 0
        assert len(calls) == tabulations


class TestVerify:
    @pytest.fixture
    def solved(self, tmp_path):
        out = tmp_path / "solve"
        assert run("solve", "--model", MODEL, "--out", out, "--infinite",
                   "--grid-min", -3, "--grid-max", 3, "--nodes", 31,
                   "--dt", 5e-3, "--tol-dt", 1e-5, "--t-max", 100) == 0
        return out

    def test_field_probes_pass(self, tmp_path, solved):
        code = run("verify", "--model", MODEL, "--out", tmp_path / "v",
                   "--field", solved / "value.csv",
                   "--policy", solved / "policy.csv",
                   "--probes", "0.0,1.0", "--horizon", 12,
                   "--paths", 2000, "--dt-sim", 2e-3, "--seed", 2)
        assert code == 0
        rep = json.loads((tmp_path / "v" / "verify_report.json").read_text())
        assert all(row["met"] for row in rep["field_probes"])

    def test_factor_market_probes_have_variance(self, tmp_path):
        # affine excess drift in y and a mean-reverting factor: the solved
        # policy varies with y and the Monte Carlo payoff is noisy
        market = tmp_path / "factor_market.json"
        market.write_text(json.dumps({
            "short_rate": 0.02, "volatility": 0.2, "correlation": 0.5,
            "excess_drift": {"kind": "affine", "const": 0.04,
                             "y_coeff": [0.03]},
            "factor_drift": {"kind": "affine", "const": 0.0,
                             "y_coeff": [-1.0]},
            "risk_aversion": 0.5, "discount": 0.1, "position_cap": 2.0,
            "consumption_cap": 1.0}))
        controls = ("--market", market, "--npi", 5, "--nc", 5)
        solved = tmp_path / "solve"
        assert run("solve", *controls, "--out", solved, "--nodes", 41,
                   "--grid-min", -2, "--grid-max", 2, "--horizon", 1,
                   "--steps", 300, "--slice-stride", 100) == 0
        code = run("verify", *controls, "--out", tmp_path / "v",
                   "--field", solved / "value.csv",
                   "--policy", solved / "policy.csv",
                   "--probes=-1,-0.5,0,0.5,1", "--horizon", 1,
                   "--paths", 1000, "--dt-sim", 1e-2, "--seed", 1)
        assert code == 0
        rows = json.loads((tmp_path / "v" / "verify_report.json")
                          .read_text())["field_probes"]
        assert [row["y"] for row in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert all(row["met"] for row in rows)
        assert all(row["std_error"] > 0 for row in rows)

    def test_default_horizon_of_stationary_field(self, tmp_path, solved):
        # the stationary field is stamped log(max|f| / (min(-h) tol)) = log(1e5)
        lines = (solved / "value.csv").read_text().splitlines()
        assert float(lines[3].split(",")[1]) == pytest.approx(np.log(1e5))
        code = run("verify", "--model", MODEL, "--out", tmp_path / "v",
                   "--field", solved / "value.csv",
                   "--policy", solved / "policy.csv", "--probes", "0.0,1.0",
                   "--paths", 2000, "--dt-sim", 1e-2, "--seed", 2)
        assert code == 0
        rows = json.loads((tmp_path / "v" / "verify_report.json")
                          .read_text())["field_probes"]
        assert len(rows) == 2 and all(row["met"] for row in rows)

    @pytest.mark.parametrize("probes", [("--probes", "-1,0,1"),
                                        ("--probes=-1,0,1",),
                                        ("--probes", "-.1e1,2")])
    def test_probes_with_leading_negative_value(self, tmp_path, solved,
                                                probes):
        code = run("verify", "--model", MODEL, "--out", tmp_path / "v",
                   "--field", solved / "value.csv",
                   "--policy", solved / "policy.csv", *probes,
                   "--paths", 200, "--dt-sim", 5e-2, "--tol", 1.0)
        assert code == 0
        rows = json.loads((tmp_path / "v" / "verify_report.json")
                          .read_text())["field_probes"]
        expected = [float(v) for v in probes[-1].split("=")[-1].split(",")]
        assert [row["y"] for row in rows] == pytest.approx(expected)

    @pytest.mark.parametrize("grid", [("-1", "1", "11"), ("-3", "3", "31")],
                             ids=["other_grid", "other_stamps"])
    def test_field_and_policy_of_two_solves_is_usage_error(
            self, tmp_path, capsys, solved, grid):
        # a finite-horizon policy against the stationary field on [-3, 3]
        lo, hi, nodes = grid
        finite = tmp_path / "finite"
        assert run("solve", "--model", MODEL, "--out", finite, "--nodes",
                   nodes, f"--grid-min={lo}", "--grid-max", hi,
                   "--horizon", 0.5, "--steps", 100) == 0
        code = run("verify", "--model", MODEL, "--out", tmp_path / "v",
                   "--field", solved / "value.csv",
                   "--policy", finite / "policy.csv", "--probes", "0,1",
                   "--paths", 200, "--dt-sim", 1e-2)
        assert code == 2
        assert "grid or stamps" in capsys.readouterr().err
        assert not (tmp_path / "v" / "verify_report.json").exists()

    def test_swapped_field_and_policy_is_usage_error(self, tmp_path, capsys,
                                                     solved):
        # the policy's control column is no value field, nor the value a policy
        code = run("verify", "--model", MODEL, "--out", tmp_path / "v",
                   "--field", solved / "policy.csv",
                   "--policy", solved / "value.csv",
                   "--paths", 200, "--dt-sim", 1e-2)
        assert code == 2
        assert str(solved / "policy.csv") in capsys.readouterr().err
        assert not (tmp_path / "v" / "verify_report.json").exists()

    def test_infinite_tol_is_usage_error(self, tmp_path, capsys, solved):
        # an infinite allowance met every probe whatever its gap
        code = run("verify", "--model", MODEL, "--out", tmp_path / "v",
                   "--field", solved / "value.csv",
                   "--policy", solved / "policy.csv", "--tol", "inf",
                   "--paths", 200, "--dt-sim", 1e-2)
        assert code == 2
        assert "tol must be" in capsys.readouterr().err
        assert not (tmp_path / "v" / "verify_report.json").exists()

    @pytest.mark.parametrize("probe", ["a,b", "99", "nan"])
    def test_unusable_probe_is_usage_error(self, tmp_path, capsys, solved,
                                           probe):
        code = run("verify", "--model", MODEL, "--out", tmp_path / "v",
                   "--field", solved / "value.csv",
                   "--policy", solved / "policy.csv", f"--probes={probe}",
                   "--paths", 200, "--dt-sim", 1e-2)
        assert code == 2
        err = capsys.readouterr().err
        assert probe.split(",")[0] in err and "[-3, 3]" in err
        assert not (tmp_path / "v" / "verify_report.json").exists()

    def test_corrupted_field_fails(self, tmp_path, solved):
        lines = (solved / "value.csv").read_text().splitlines()
        out = []
        for ln in lines:
            if ln.startswith("0.0,"):
                parts = ln.split(",")
                parts[2] = repr(float(parts[2]) + 0.5)
                ln = ",".join(parts)
            out.append(ln)
        bad = tmp_path / "corrupt.csv"
        bad.write_text("\n".join(out) + "\n")
        code = run("verify", "--model", MODEL, "--out", tmp_path / "v",
                   "--field", bad, "--policy", solved / "policy.csv",
                   "--probes", "0.0", "--horizon", 12,
                   "--paths", 2000, "--dt-sim", 2e-3, "--seed", 2)
        assert code == 1

    def test_bound_scenario(self, tmp_path):
        scenario = tmp_path / "bounds.json"
        scenario.write_text(json.dumps({
            "kind": "envelope", "K": 3.0, "M": 1.0, "y0": 0.5, "T": 1.0}))
        code = run("verify", "--model", MODEL, "--out", tmp_path / "v",
                   "--bounds", scenario, "--paths", 2000, "--dt-sim", 1e-2)
        assert code == 0
        rep = json.loads((tmp_path / "v" / "verify_report.json").read_text())
        assert rep["bounds"]["met"] is True

    def test_nothing_to_verify_is_usage_error(self, tmp_path):
        assert run("verify", "--model", MODEL, "--out", tmp_path) == 2


class TestMerton:
    def test_benchmark_only(self, tmp_path):
        code = run("merton", "--market", MARKET, "--out", tmp_path,
                   "--skip-solve")
        assert code == 0
        rep = json.loads((tmp_path / "merton.json").read_text())
        assert rep["benchmark"]["u"] == pytest.approx(2.6726124191242437)

    def test_solve_comparison(self, tmp_path):
        code = run("merton", "--market", MARKET, "--out", tmp_path,
                   "--grid-min", -1, "--grid-max", 1, "--nodes", 21,
                   "--dt", 4e-3, "--tol-dt", 1e-5, "--t-max", 300,
                   "--emit-reduced")
        assert code == 0
        rep = json.loads((tmp_path / "merton.json").read_text())
        assert rep["relative_error"] < 1e-3
        assert rep["reduced_model"]["dim"] == 1

    def test_market_is_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("merton", "--out", tmp_path, "--skip-solve")
        assert exc.value.code == 2
        assert "--market" in capsys.readouterr().err

    def test_model_is_not_an_option(self, tmp_path, capsys):
        # merton reads only its market: a model file would be ignored
        with pytest.raises(SystemExit) as exc:
            run("merton", "--model", MODEL, "--market", MARKET,
                "--out", tmp_path, "--skip-solve")
        assert exc.value.code == 2
        assert "unrecognized arguments: --model" in capsys.readouterr().err
        assert not (tmp_path / "merton.json").exists()


class TestStationarySelection:
    MERTON = ("merton", "--market", MARKET, "--grid-min", -1, "--grid-max", 1,
              "--nodes", 21, "--dt", 4e-3, "--tol-dt", 1e-5, "--t-max", 300)

    def test_policy_iteration_then_march_at_the_cap(self, tmp_path,
                                                    monkeypatch):
        assert run(*self.MERTON, "--out", tmp_path / "a") == 0
        rep = json.loads((tmp_path / "a" / "merton.json").read_text())
        assert rep["solver"]["scheme"]["kind"] == "stationary_policy_iteration"
        assert rep["solver"]["steps"] > 1
        monkeypatch.setattr(pde, "_MAX_POLICY_ITERATIONS", 1)
        assert run(*self.MERTON, "--out", tmp_path / "b") == 0
        rep = json.loads((tmp_path / "b" / "merton.json").read_text())
        assert rep["solver"]["scheme"]["kind"] == "infinite_horizon_long_time"
        assert rep["relative_error"] < 1e-3
        assert rep["solver"]["error_bound"] > 0

    def test_positive_discount_rate_exits_through_the_march(self, tmp_path,
                                                            capsys):
        doc = json.loads(open(MODEL).read())
        doc["discount_rate"] = {"kind": "constant", "value": 0.5}
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        code = run("solve", "--model", model, "--out", tmp_path / "o",
                   "--infinite", "--grid-min", -1, "--grid-max", 1,
                   "--nodes", 21, "--dt", 5e-3, "--tol-dt", 1e-9,
                   "--t-max", 1000)
        assert code == 1
        assert "long-time march diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("h", [0.5, None], ids=["march", "unedited"])
    @pytest.mark.parametrize("dt, t_max", [(0, 1000), (5e-3, 0),
                                           (np.inf, 1000), (5e-3, np.inf)])
    def test_march_step_and_horizon_validated(self, tmp_path, capsys, dt,
                                              t_max, h):
        # h = 0.5: policy iteration does not apply, the march gets the flags;
        # the unedited h = -1: policy iteration runs, the flags are checked
        # all the same, so a command line's validity does not hang on the model
        doc = json.loads(open(MODEL).read())
        if h is not None:
            doc["discount_rate"] = {"kind": "constant", "value": h}
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        code = run("solve", "--model", model, "--out", tmp_path / "o",
                   "--infinite", "--grid-min", -1, "--grid-max", 1,
                   "--nodes", 21, "--dt", dt, "--tol-dt", 1e-9,
                   "--t-max", t_max)
        assert code == 2
        assert "must be positive" in capsys.readouterr().err
        assert not (tmp_path / "o" / "solve_report.json").exists()

    @pytest.mark.parametrize("h", [0.5, None], ids=["march", "unedited"])
    @pytest.mark.parametrize("t_max", [1e300, 1])
    def test_march_step_count_must_fit_int64(self, tmp_path, capsys, t_max,
                                             h):
        # t_max / dt of 1e600 ended in an OverflowError traceback, and 1e300
        # marched without end, where policy iteration does not apply
        doc = json.loads(open(MODEL).read())
        if h is not None:
            doc["discount_rate"] = {"kind": "constant", "value": h}
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        code = run("solve", "--model", model, "--out", tmp_path / "o",
                   "--infinite", "--nodes", 5, "--grid-min", -1,
                   "--grid-max", 1, "--dt", 1e-300, "--t-max", t_max)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "t_max" in err and "over dt" in err and "overflows" in err
        assert not (tmp_path / "o" / "solve_report.json").exists()

    @pytest.mark.parametrize("flag", ["--dt", "--t-max"])
    @pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
    def test_merton_march_flags_validated(self, tmp_path, capsys, flag,
                                          value):
        # policy iteration solves the market: the march's flags were unread
        argv = list(self.MERTON)
        argv[argv.index(flag) + 1] = value
        assert run(*argv, "--out", tmp_path) == 2
        name = flag[2:].replace("-", "_")
        assert f"{name} must be positive and finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestRangeEnds:
    """Numbers near the end of the float range exit 2 with an ``error:``
    line, before any artifact is written: no traceback, no warning, no
    vacuous pass."""

    def _model(self, tmp_path, **change):
        doc = dict(json.loads(pathlib.Path(MODEL).read_text()), **change)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({k: v for k, v in doc.items()
                                    if v is not None}))
        return path

    def _run(self, capsys, out, *argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(*argv, "--out", out)
        err = capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []
        return code, err

    @pytest.mark.parametrize("box", [[[-1e160, 1e160]], [[-1e200, 1e200]]])
    def test_domain_box_with_an_infinite_squared_diagonal(self, tmp_path,
                                                          capsys, box):
        steep = {"kind": "affine", "y_coeff": [5.0]}
        ok = self._model(tmp_path, running_reward=steep, domain_box=[[-3, 3]])
        assert run("check", "--model", ok, "--out", tmp_path / "ok") == 1
        model = self._model(tmp_path, running_reward=steep, domain_box=box)
        code, err = self._run(capsys, tmp_path / "o", "check", "--model", model)
        assert code == 2 and "squared diagonal in (0, inf)" in err

    @pytest.mark.parametrize("flags", [
        ["--grid-max=inf"], ["--grid-min=-inf"], ["--grid-max=nan"],
        ["--grid-min=-1e308", "--grid-max", "1e308"]])
    def test_check_box_from_grid_flags(self, tmp_path, capsys, flags):
        model = self._model(tmp_path, domain_box=None)
        code, err = self._run(capsys, tmp_path / "o", "check", "--model",
                              model, *flags)
        assert code == 2 and err.startswith("error: ") and "box" in err

    @pytest.mark.parametrize("argv", [
        ["solve", "--model", MODEL], ["solve", "--model", MODEL, "--infinite"],
        ["merton", "--market", MARKET, "--npi", 3, "--nc", 3]])
    def test_grid_spacing_whose_square_overflows(self, tmp_path, capsys, argv):
        code, err = self._run(capsys, tmp_path / "o", *argv, "--nodes", 11,
                              "--grid-min=-1e300", "--grid-max", 1e300)
        assert code == 2 and "spacing" in err

    def test_kappa_step_count_past_int64(self, tmp_path, capsys):
        code, err = self._run(capsys, tmp_path / "o", "kappa", "--model",
                              MODEL, "--paths", 20, "--dt-sim=1e-300")
        assert code == 2
        assert err == ("error: ParameterError('horizon 4.0 over dt 1e-300 "
                       "overflows int64')\n")

    def test_verify_bounds_step_count_past_int64(self, tmp_path, capsys):
        scenario = tmp_path / "bounds.json"
        scenario.write_text(json.dumps({"kind": "envelope", "K": 3.0,
                                        "M": 1.0, "y0": 0.5}))
        code, err = self._run(capsys, tmp_path / "o", "verify", "--model",
                              MODEL, "--bounds", scenario, "--paths", 10,
                              "--horizon=1e300")
        assert code == 2 and "overflows int64" in err

    def test_verify_field_step_count_past_int64(self, tmp_path, capsys):
        assert run("solve", "--model", MODEL, "--out", tmp_path / "s",
                   "--nodes", 11, "--grid-min", -3, "--grid-max", 3,
                   "--steps", 100) == 0
        code, err = self._run(capsys, tmp_path / "o", "verify", "--model",
                              MODEL, "--field", tmp_path / "s" / "value.csv",
                              "--policy", tmp_path / "s" / "policy.csv",
                              "--paths", 10, "--horizon=1e300")
        assert code == 2 and "overflows int64" in err

    def test_verify_field_infinite_euler_step(self, tmp_path, capsys):
        # an infinite --dt-sim took the whole horizon in one Euler step: a
        # report with std_error 0.0 and exit 1
        assert run("solve", "--model", MODEL, "--out", tmp_path / "s",
                   "--nodes", 11, "--grid-min", -3, "--grid-max", 3,
                   "--steps", 100) == 0
        code, err = self._run(capsys, tmp_path / "o", "verify", "--model",
                              MODEL, "--field", tmp_path / "s" / "value.csv",
                              "--policy", tmp_path / "s" / "policy.csv",
                              "--paths", 10, "--dt-sim=inf")
        assert code == 2
        assert err == ("error: ParameterError('dt must be positive and "
                       "finite')\n")
        assert not (tmp_path / "o" / "verify_report.json").exists()

    @pytest.mark.parametrize("rate, argv, span", [
        (-1.0, ["--horizon", 1e300, "--steps", 1], "horizon 1e+300"),
        (0.5, ["--infinite", "--dt", 1, "--t-max", 1e18], "t_max 1e+18")],
        ids=["finite", "march"])
    def test_stable_step_count_past_int64(self, tmp_path, capsys, rate, argv,
                                          span):
        # the step count a StabilityError would suggest, span / dt_max, was
        # 1e318: an OverflowError traceback where any count of 2**63 or more
        # is a ParameterError (rate 0.5: the march runs, not policy iteration)
        model = self._model(tmp_path, discount_rate={"kind": "constant",
                                                     "value": rate})
        code, err = self._run(capsys, tmp_path / "o", "solve", "--model",
                              model, "--nodes", 3, "--grid-min=-1e-150",
                              "--grid-max", 1e-150, *argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{span} over dt 1e-300 overflows int64" in err

    def test_stable_step_past_the_float_range(self, tmp_path, capsys):
        # |i| / dy is 1e350: the step limit is 0, with no overflow warning
        model = self._model(tmp_path, drift={"kind": "affine", "const": 1e200,
                                             "y_matrix": [[-1.0]],
                                             "delta_matrix": [[1.0]]})
        code, err = self._run(capsys, tmp_path / "o", "solve", "--model",
                              model, "--nodes", 3, "--grid-min=-1e-150",
                              "--grid-max", 1e-150, "--horizon", 1,
                              "--steps", 1)
        assert code == 2
        assert err == ("error: ParameterError('horizon 1.0 over dt 0.0 "
                       "overflows int64')\n")


class TestKappa:
    def test_artifacts(self, tmp_path):
        code = run("kappa", "--model", MODEL, "--out", tmp_path,
                   "--radius", 1, "--horizon", 2, "--paths", 300,
                   "--dt-sim", 2e-2)
        assert code == 0
        assert (tmp_path / "kappa.csv").exists()
        rep = json.loads((tmp_path / "kappa.json").read_text())
        assert rep["non_integrable"] is False
        assert rep["decay_rate"] < 0


class TestErrorHandling:
    def test_missing_file(self, tmp_path, capsys):
        assert run("check", "--model", tmp_path / "absent.json",
                   "--out", tmp_path) == 2

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("check", "--model", bad, "--out", tmp_path) == 2

    def test_no_model_given(self, tmp_path):
        assert run("check", "--out", tmp_path) == 2

    @pytest.mark.parametrize("command, extra", [
        ("check", ("--samples", 8)),
        ("solve", ("--nodes", 11, "--steps", 10, "--npi", 3, "--nc", 3)),
        ("verify", ("--bounds", "{bounds}", "--paths", 10)),
        ("kappa", ("--paths", 10, "--horizon", 0.5, "--radius", 0)),
    ])
    def test_model_and_market_together(self, tmp_path, capsys, command,
                                       extra):
        # one source of the model: neither flag silently wins
        bounds = tmp_path / "bounds.json"
        bounds.write_text(json.dumps({"kind": "drift_discount", "alpha": 1.0,
                                      "beta": 0.0, "P": 1.0, "Q": 0.0}))
        extra = [str(bounds) if a == "{bounds}" else a for a in extra]
        assert run(command, "--model", MODEL, "--market", MARKET,
                   "--out", tmp_path, *extra) == 2
        assert "--model / --market" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra", [
        ("check", ("--samples", 8)),
        ("verify", ("--bounds", "{bounds}", "--paths", 10)),
        ("kappa", ("--paths", 10, "--horizon", 0.5, "--radius", 0)),
    ])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command,
                                          extra):
        bounds = tmp_path / "bounds.json"
        bounds.write_text(json.dumps({"kind": "drift_discount", "alpha": 1.0,
                                      "beta": 0.0, "P": 1.0, "Q": 0.0}))
        extra = [str(bounds) if a == "{bounds}" else a for a in extra]
        assert run(command, "--model", MODEL, "--out", tmp_path / "o",
                   "--seed", -1, *extra) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not any((tmp_path / "o").glob("*.json"))

    @pytest.mark.parametrize("command, extra", [
        ("verify", ("--bounds", "{bounds}", "--paths", 10)),
        ("kappa", ("--paths", 10, "--horizon", 0.5, "--radius", 0)),
        ("check", ("--samples", 8)),
    ])
    def test_seed_past_the_philox_key_is_usage_error(self, tmp_path, capsys,
                                                     command, extra):
        bounds = tmp_path / "bounds.json"
        bounds.write_text(json.dumps({"kind": "drift_discount", "alpha": 1.0,
                                      "beta": 0.0, "P": 1.0, "Q": 0.0}))
        extra = [str(bounds) if a == "{bounds}" else a for a in extra]
        assert run(command, "--model", MODEL, "--out", tmp_path / "o",
                   "--seed", 2 ** 70, *extra) == 2
        assert capsys.readouterr().err.startswith(
            "error: ParameterError('seed must be >= 0 and < 2**64')")
        assert not any((tmp_path / "o").iterdir())

    @pytest.mark.parametrize("key, message", [
        ("L1", "lip_L1 must be positive"), ("L2", "lip_L2 must be nonzero"),
    ])
    def test_zero_market_constant_is_usage_error(self, tmp_path, capsys, key,
                                                 message):
        market = tmp_path / "market.json"
        market.write_text(json.dumps(dict(
            json.loads(pathlib.Path(MARKET).read_text()), **{key: 0.0})))
        assert run("solve", "--market", market, "--out", tmp_path / "o",
                   "--nodes", 11, "--steps", 10, "--npi", 3, "--nc", 3) == 2
        assert capsys.readouterr().err == f"error: ParameterError({message!r})\n"
        assert not any((tmp_path / "o").iterdir())

    def test_infinite_kappa_horizon_is_usage_error(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("kappa", "--model", MODEL, "--out", tmp_path,
                       "--horizon", "inf", "--paths", 10) == 2
        assert capsys.readouterr().err.startswith(
            "error: ParameterError('horizon must be positive and finite')")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("model, out", [
        (None, "o"), (MODEL, "file"), (MODEL, "file/sub"),
    ], ids=["model_is_a_directory", "out_is_a_file", "out_under_a_file"])
    def test_path_of_the_wrong_kind_is_usage_error(self, tmp_path, capsys,
                                                   model, out):
        (tmp_path / "file").write_text("kept\n")
        assert run("solve", "--model", model or tmp_path, "--out",
                   tmp_path / out, "--nodes", 11, "--steps", 10) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"'{tmp_path / out if model else tmp_path}'" in err
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert (tmp_path / "file").read_text() == "kept\n"

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'frobnicate'" in err
        assert all(f"'{name}'" in err
                   for name in ("check", "solve", "verify", "merton", "kappa"))


# one argv per subcommand that sets every option, away from its default
EVERY_OPTION = {
    "check": ["--model", "m.json", "--market", "k.json", "--npi", "5",
              "--nc", "7", "--out", "o2", "--seed", "3", "--grid-min", "-1",
              "--grid-max", "2", "--samples", "16"],
    "solve": ["--model", "m.json", "--market", "k.json", "--npi", "5",
              "--nc", "7", "--out", "o2", "--seed", "3", "--grid-min", "-1",
              "--grid-max", "2", "--nodes", "11",
              "--boundary", "linear_extrapolation", "--horizon", "2",
              "--steps", "50", "--infinite", "--dt", "0.01", "--tol-dt", "1e-4",
              "--t-max", "10", "--closed-form", "--slice-stride", "5"],
    "verify": ["--model", "m.json", "--market", "k.json", "--npi", "5",
               "--nc", "7", "--out", "o2", "--seed", "3", "--field", "v.csv",
               "--policy", "p.csv", "--probes=-1,0", "--bounds", "b.json",
               "--horizon", "0.5", "--paths", "100", "--dt-sim", "0.05",
               "--tol", "0.01"],
    "merton": ["--market", "k2.json", "--npi", "5", "--nc", "7", "--out", "o2",
               "--seed", "3", "--grid-min", "-1", "--grid-max", "2",
               "--nodes", "11", "--boundary", "linear_extrapolation",
               "--dt", "0.01", "--tol-dt", "1e-4", "--t-max", "10",
               "--skip-solve", "--emit-reduced"],
    "kappa": ["--model", "m.json", "--market", "k.json", "--npi", "5",
              "--nc", "7", "--out", "o2", "--seed", "3", "--radius", "1",
              "--horizon", "2", "--paths", "100", "--dt-sim", "0.05"],
}
# the same subcommands with their required options only
DEFAULTS_ONLY = {name: ["--out", "o"] + (["--market", "k.json"]
                                          if name == "merton" else [])
                 for name in EVERY_OPTION}


def _help(parser, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


class TestParser:
    """``main`` builds one parser, the invoked subcommand's alone; it must
    parse the rest of the line as the full tree parses the whole of it."""

    @pytest.mark.parametrize("command", sorted(EVERY_OPTION))
    def test_one_subcommand_parser_equals_the_full_one(self, command, capsys):
        every = [command] + EVERY_OPTION[command]
        defaults = [command] + DEFAULTS_ONLY[command]
        full = build_parser()
        for argv in (every, defaults):
            assert (build_parser(command).parse_args(argv[1:])
                    == full.parse_args(argv))
        assert _help(build_parser(command), ["--help"], capsys) == _help(
            full, [command, "--help"], capsys)
        # the first argv sets every option the subcommand has
        given, default = (vars(full.parse_args(argv))
                          for argv in (every, defaults))
        assert {key for key in given if given[key] == default[key]} == {
            "command", "func"}

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "{check,solve,verify,merton,kappa}" in capsys.readouterr().out

    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "required: command" in capsys.readouterr().err

    def test_main_adds_no_argument_of_another_subcommand(self, tmp_path,
                                                         monkeypatch):
        added = []
        add_argument = argparse._ActionsContainer.add_argument

        def spy(self, *flags, **kwargs):
            added.extend(flags)
            return add_argument(self, *flags, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", spy)
        assert run("merton", "--market", MARKET, "--out", tmp_path,
                   "--skip-solve") == 0
        assert "--skip-solve" in added
        # --model belongs to every other subcommand
        assert not {"--model", "--samples", "--steps", "--field",
                    "--radius"} & set(added)

    @pytest.mark.parametrize("argv, parsers", [
        (["merton", "--market", MARKET, "--skip-solve"], 1),
        (["check", "--model", MODEL, "--samples", "8"], 1),
        (["--help"], 6),  # the top level and its five subcommands
    ])
    def test_one_parser_per_call(self, tmp_path, monkeypatch, argv, parsers):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        try:
            code = run(*argv, "--out", tmp_path)
        except SystemExit as exc:  # --help
            code = exc.code
        assert code == 0
        assert len(built) == parsers, built

    @pytest.mark.parametrize("command", sorted(EVERY_OPTION))
    def test_text_equals_a_plain_argparse_parser(self, command, capsys):
        # the metavar checks share one formatter; the text must not
        def plain():
            return _fill(argparse.ArgumentParser(prog=f"hjbkit {command}"),
                         command)

        assert _help(build_parser(command), ["--help"], capsys) == _help(
            plain(), ["--help"], capsys)
        errors = []
        for parser in (build_parser(command), plain()):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(["--seed", "x", "--out"])
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"usage: hjbkit {command} [-h]")

    @pytest.mark.parametrize("command", sorted(EVERY_OPTION))
    def test_argument_specs_pass_the_metavar_check(self, command):
        # build_parser adds through the options group, which skips
        # argparse's metavar/nargs check; a plain parser runs it per argument
        parser = argparse.ArgumentParser()
        _COMMANDS[command][1](parser)
        argv = EVERY_OPTION[command]
        filled = vars(build_parser(command).parse_args(argv))
        del filled["command"], filled["func"]
        assert vars(parser.parse_args(argv)) == filled

    @pytest.mark.parametrize("argv", [["--grid-min", "-1e-3"],
                                      ["--grid-min", "-.001"],
                                      ["--grid-min=-1e-3"]])
    def test_negative_value_needs_no_equals_sign(self, argv):
        argv = ["--out", "o", *argv]
        assert build_parser("solve").parse_args(argv).grid_min == -0.001
        assert build_parser().parse_args(["solve", *argv]).grid_min == -0.001

    @pytest.mark.parametrize("command, formatters", [
        ("solve", 1), ("verify", 1), (None, 6)])
    def test_one_formatter_per_parser(self, monkeypatch, command, formatters):
        built = []
        init = argparse.HelpFormatter.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.HelpFormatter, "__init__", spy)
        build_parser(command)
        # the full tree also formats the subcommand list's usage once
        assert len(built) == formatters + (command is None), built


@pytest.mark.parametrize("argv, listed", [
    (["--help"], "{check,solve,verify,merton,kappa}"),
    (["merton", "--help"], "--market"),
])
def test_module_entry_point(argv, listed):
    # ``python -m hjbkit`` reads its arguments from sys.argv
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "hjbkit", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert listed in proc.stdout


def test_grid_commands_do_not_import_numpy_random(tmp_path):
    # numpy.random takes 12-17 ms to import; only a Monte Carlo draw needs it
    root = pathlib.Path(__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "from hjbkit.cli import main\n"
        f"assert main(['solve', '--model', {MODEL!r}, '--out', "
        f"{str(tmp_path / 's')!r}, '--nodes', '11', '--steps', '10']) == 0\n"
        f"assert main(['merton', '--market', {MARKET!r}, '--out', "
        f"{str(tmp_path / 'm')!r}, '--nodes', '21']) == 0\n"
        "print('numpy.random' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_field_commands_do_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call: 17 ms and about 1 MB
    root = pathlib.Path(__file__).resolve().parent.parent
    out = tmp_path / "s"
    code = (
        "import sys\n"
        "from hjbkit.cli import main\n"
        f"assert main(['solve', '--model', {MODEL!r}, '--out', {str(out)!r}, "
        "'--nodes', '11', '--steps', '10', '--slice-stride', '5']) == 0\n"
        f"assert main(['verify', '--model', {MODEL!r}, '--out', "
        f"{str(tmp_path / 'v')!r}, '--field', {str(out / 'value.csv')!r}, "
        f"'--policy', {str(out / 'policy.csv')!r}, '--paths', '10']) in (0, 1)\n"
        "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


class TestReproducibility:
    def test_solve_reruns_byte_identical(self, tmp_path):
        args = ("solve", "--model", MODEL, "--infinite", "--grid-min", -3,
                "--grid-max", 3, "--nodes", 31, "--dt", 5e-3,
                "--tol-dt", 1e-4, "--t-max", 100, "--seed", 3)
        assert run(*args, "--out", tmp_path / "a") == 0
        assert run(*args, "--out", tmp_path / "b") == 0
        for name in ("value.csv", "policy.csv", "solve_report.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_digest_covers_input_file_content(self, tmp_path):
        model = tmp_path / "model.json"
        doc = json.loads(open(MODEL).read())
        args = ("check", "--model", model, "--samples", 32, "--seed", 1)

        def digest(out):
            assert run(*args, "--out", tmp_path / out) == 0
            rep = json.loads((tmp_path / out / "assumption_report.json").read_text())
            return rep["config_digest"]

        model.write_text(json.dumps(doc))
        first = digest("a")
        assert digest("b") == first
        doc["L1"] = doc["L1"] + 1.0  # same path, edited content
        model.write_text(json.dumps(doc))
        assert digest("c") != first

    def test_each_input_file_is_opened_once(self, tmp_path, monkeypatch):
        assert run("solve", "--model", MODEL, "--out", tmp_path / "s",
                   "--nodes", 11, "--steps", 10) == 0
        bounds = tmp_path / "bounds.json"
        bounds.write_text(json.dumps({"kind": "drift_discount", "alpha": 1.0,
                                      "beta": 0.0, "P": 1.0, "Q": 0.0}))
        inputs = [MODEL, str(tmp_path / "s" / "value.csv"),
                  str(tmp_path / "s" / "policy.csv"), str(bounds)]
        opened = []
        real_open = builtins.open

        def spy(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        # 10 paths may fail the check (exit 1), after every input is read
        assert run("verify", "--model", inputs[0], "--field", inputs[1],
                   "--policy", inputs[2], "--bounds", inputs[3],
                   "--out", tmp_path / "v", "--paths", 10) in (0, 1)
        assert (tmp_path / "v" / "verify_report.json").exists()
        assert [opened.count(path) for path in inputs] == [1, 1, 1, 1]

    def test_digest_covers_the_bytes_the_loader_parsed(self, tmp_path,
                                                       monkeypatch):
        # the model file changes between the digest and the load: the run
        # must still solve the model its digest covers
        src = tmp_path / "model.json"
        src.write_bytes(pathlib.Path(MODEL).read_bytes())
        argv = ("solve", "--model", src, "--nodes", 11, "--steps", 10)
        assert run(*argv, "--out", tmp_path / "a") == 0
        other = json.loads(src.read_text())
        other["terminal_reward"] = {"kind": "constant", "value": 2.0}
        load = model.load_model

        def edited_on_the_way(source):
            src.write_text(json.dumps(other))
            return load(source)

        monkeypatch.setattr(model, "load_model", edited_on_the_way)
        assert run(*argv, "--out", tmp_path / "b") == 0
        for name in ("value.csv", "policy.csv", "solve_report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name).read_bytes()

    def test_kappa_reruns_byte_identical(self, tmp_path):
        args = ("kappa", "--model", MODEL, "--radius", 1, "--horizon", 2,
                "--paths", 200, "--dt-sim", 2e-2, "--seed", 5)
        assert run(*args, "--out", tmp_path / "a") == 0
        assert run(*args, "--out", tmp_path / "b") == 0
        for name in ("kappa.csv", "kappa.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestSolveCsvInput:
    """``verify --field/--policy`` rejects malformed solve CSVs with exit 2."""

    GRID = pde.Grid1D(-1.0, 1.0, 5)

    def _write(self, tmp_path, stamps):
        layers = len(stamps)
        values = np.ones((layers, self.GRID.nodes))
        controls = np.zeros((layers, self.GRID.nodes, 1))
        pde.ValueField(self.GRID, values, stamps).to_csv(
            tmp_path / "value.csv", ["seed=0"])
        pde.PolicyField(self.GRID, controls, stamps).to_csv(
            tmp_path / "policy.csv", ["seed=0"])
        return tmp_path / "value.csv", tmp_path / "policy.csv"

    def _verify(self, tmp_path, field, policy, *extra):
        return run("verify", "--model", MODEL, "--out", tmp_path / "v",
                   "--field", field, "--policy", policy, "--probes", "0.0",
                   "--paths", 10, "--dt-sim", 0.1, *extra)

    def test_written_files_are_accepted(self, tmp_path):
        field, policy = self._write(tmp_path, [0.0, 0.5, 1.0])
        assert self._verify(tmp_path, field, policy, "--tol", 10.0) == 0

    @staticmethod
    def _edit(lines, case):
        data = [j for j, ln in enumerate(lines) if ln[:1] not in "#y"]
        mid = data[len(data) // 2]
        if case == "no_data_rows":
            return [ln for j, ln in enumerate(lines) if j not in data]
        if case == "non_numeric_cell":
            lines[mid] = lines[mid].rsplit(",", 1)[0] + ",abc"
        elif case == "extra_column":
            lines[mid] += ",1.0"
        elif case == "missing_row":
            del lines[mid]
        elif case == "uneven_y":
            y, rest = lines[mid].split(",", 1)
            lines[mid] = f"{float(y) + 1e-6!r},{rest}"
        elif case == "swapped_rows":
            lines[mid - 1], lines[mid] = lines[mid], lines[mid - 1]
        return lines

    # a header with no rows must not leak np.loadtxt's "no data" warning
    @pytest.mark.filterwarnings("error::UserWarning")
    @pytest.mark.parametrize("stamps", [[0.0, 0.5, 1.0], [7.0]],
                             ids=["layers", "stationary"])
    @pytest.mark.parametrize("case", ["no_data_rows", "non_numeric_cell",
                                      "extra_column", "missing_row",
                                      "uneven_y", "swapped_rows"])
    @pytest.mark.parametrize("role", ["field", "policy"])
    def test_malformed_file_is_usage_error(self, tmp_path, capsys, stamps,
                                           case, role):
        files = dict(zip(("field", "policy"), self._write(tmp_path, stamps)))
        lines = files[role].read_text().splitlines()
        bad = tmp_path / f"bad_{role}.csv"
        bad.write_text("\n".join(self._edit(lines, case)) + "\n")
        files[role] = bad
        assert self._verify(tmp_path, files["field"], files["policy"],
                            "--horizon", 1) == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", ["0", "-1"])
    def test_non_positive_horizon_with_field(self, tmp_path, capsys,
                                             horizon):
        field, policy = self._write(tmp_path, [0.0, 0.5, 1.0])
        assert self._verify(tmp_path, field, policy,
                            f"--horizon={horizon}") == 2
        assert "need T > t" in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", ["0", "-1"])
    def test_non_positive_horizon_with_bounds(self, tmp_path, capsys,
                                              horizon):
        scenario = tmp_path / "bounds.json"
        scenario.write_text(json.dumps({"kind": "envelope", "K": 3.0,
                                        "M": 1.0, "y0": 0.5}))
        assert run("verify", "--model", MODEL, "--out", tmp_path / "v",
                   "--bounds", scenario, "--paths", 10, "--dt-sim", 0.1,
                   f"--horizon={horizon}") == 2
        assert "T must be positive" in capsys.readouterr().err


class TestBoundsFile:
    SCENARIO = {"kind": "envelope", "K": 3.0, "M": 1.0, "y0": 0.5}

    def _verify(self, tmp_path, doc, *extra):
        scenario = tmp_path / "bounds.json"
        scenario.write_text(json.dumps(doc))
        return run("verify", "--model", MODEL, "--out", tmp_path / "v",
                   "--bounds", scenario, "--paths", 10, "--dt-sim", 0.1,
                   *extra)

    @pytest.mark.parametrize("horizon", ["1", "-5"])
    def test_horizon_in_file_and_flag(self, tmp_path, capsys, horizon):
        # neither source of the horizon silently wins, valid or not
        assert self._verify(tmp_path, dict(self.SCENARIO, T=1.0),
                            f"--horizon={horizon}") == 2
        assert "--horizon" in capsys.readouterr().err
        assert not (tmp_path / "v" / "verify_report.json").exists()

    def test_infinite_horizon_flag_prints_the_error_alone(self, tmp_path):
        # T is checked before the default check times are built from it
        scenario = tmp_path / "bounds.json"
        scenario.write_text(json.dumps(self.SCENARIO))
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "hjbkit", "verify", "--model", MODEL,
             "--bounds", str(scenario), "--horizon", "inf",
             "--out", str(tmp_path / "v")],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == ("error: ParameterError('T must be positive "
                               "and finite')\n")

    def test_non_positive_horizon_in_file(self, tmp_path, capsys):
        assert self._verify(tmp_path, dict(self.SCENARIO, T=-5.0)) == 2
        assert "T must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("T", "x"), ("T", None), ("y0", "x"), ("y0", [0.5, "x"]),
        ("times", [0.5, "x"]), ("times", [[0.5]]), ("K", "x"), ("M", None),
    ])
    def test_non_numeric_value(self, tmp_path, capsys, key, value):
        assert self._verify(tmp_path, dict(self.SCENARIO, **{key: value})) == 2
        assert f"bounds file: {key} must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["kind", "K"])
    def test_missing_key(self, tmp_path, capsys, missing):
        doc = {k: v for k, v in self.SCENARIO.items() if k != missing}
        assert self._verify(tmp_path, doc) == 2
        assert f"KeyError('{missing}')" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["wrong", ["envelope"]])
    def test_unknown_kind(self, tmp_path, capsys, kind):
        assert self._verify(tmp_path, dict(self.SCENARIO, kind=kind)) == 2
        assert f"unknown bound kind {kind!r}" in capsys.readouterr().err

    def test_diffusion_discount_rows_match_the_library(self, tmp_path):
        # the bound of criterion 11, reached through the kind table alone
        doc = {"kind": "diffusion_discount", "w": 1, "L2": -1.0,
               "y0": [1.0], "T": 2, "times": [0.5, 1, 2.0]}
        direct = simulate.verify_bounds(
            model.load_model(MODEL), simulate.DiffusionDiscountBound(1.0, -1.0),
            [1.0], 2.0, simulate.MonteCarloConfig(paths=400, dt=0.05, seed=7),
            times=[0.5, 1.0, 2.0])
        scenario = tmp_path / "bounds.json"
        scenario.write_text(json.dumps(doc))
        code = run("verify", "--model", MODEL, "--out", tmp_path / "v",
                   "--bounds", scenario, "--paths", 400, "--dt-sim", 0.05,
                   "--seed", 7)
        rep = json.loads((tmp_path / "v" / "verify_report.json").read_text())
        assert code == (0 if direct.met else 1)
        assert len(rep["bounds"]["rows"]) == 3 * 3
        assert rep["bounds"] == json.loads(json.dumps(direct.as_dict()))


class TestNumbersInFiles:
    """A model, market or bounds-file number that is null, NaN, infinite or
    text exits 2 naming its key, before any artifact is written."""

    BASES = {
        "model": dict(json.loads(pathlib.Path(MODEL).read_text()),
                      discount_rate={"kind": "power_delta", "coeff": -1.0,
                                     "exponent": 0.0}),
        "market": {"short_rate": 0.02, "volatility": 0.2, "correlation": 0.5,
                   "risk_aversion": 0.5, "discount": 0.1, "position_cap": 2.0,
                   "consumption_cap": 1.0,
                   "excess_drift": {"kind": "affine", "const": 0.04,
                                    "y_coeff": [0.03]},
                   "factor_drift": {"kind": "affine", "y_coeff": [-1.0]}},
        "bounds": {"kind": "envelope", "K": 3.0, "M": 1.0, "y0": 0.5, "T": 1.0},
    }
    ENTRIES = [("model", ("running_reward", "const")),
               ("model", ("terminal_reward", "value")),
               ("model", ("discount_rate", "exponent")),
               ("model", ("L1",)), ("model", ("dim",)),
               ("market", ("correlation",)), ("market", ("excess_drift", "const")),
               ("bounds", ("K",)), ("bounds", ("T",))]

    def _run(self, tmp_path, kind, doc):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        argv = {"model": ["check", "--model", path],
                "market": ["check", "--market", path, "--npi", 3, "--nc", 3],
                "bounds": ["verify", "--model", MODEL, "--bounds", path,
                           "--paths", 10, "--dt-sim", 0.1]}[kind]
        return run(*argv, "--out", tmp_path / "out")

    @pytest.mark.parametrize("kind", BASES)
    def test_the_unedited_file_runs(self, tmp_path, kind):
        assert self._run(tmp_path, kind, self.BASES[kind]) == 0

    @pytest.mark.parametrize("value", [None, float("nan"), float("inf"), "x"],
                             ids=["null", "NaN", "Infinity", "text"])
    @pytest.mark.parametrize("kind, keys", ENTRIES,
                             ids=["-".join((k,) + p) for k, p in ENTRIES])
    def test_entry_that_is_not_a_finite_number(self, tmp_path, capsys, kind,
                                               keys, value):
        doc = json.loads(json.dumps(self.BASES[kind]))
        entry = doc
        for key in keys[:-1]:
            entry = entry[key]
        entry[keys[-1]] = value
        assert self._run(tmp_path, kind, doc) == 2
        assert f"{keys[-1]} must be a number" in capsys.readouterr().err
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("dim", [-1, 0, 2.5])
    def test_dim_that_is_not_a_positive_integer(self, tmp_path, capsys, dim):
        doc = dict(json.loads(pathlib.Path(MODEL).read_text()), dim=dim)
        assert self._run(tmp_path, "model", doc) == 2
        err = capsys.readouterr().err
        assert "dim must be a positive integer" in err
        assert "y_matrix" not in err
        assert not any((tmp_path / "out").iterdir())

    def test_market_without_l2_and_a_flat_drift(self, tmp_path, capsys):
        # the flat factor drift has no contraction to infer L2 from
        doc = {k: v for k, v in json.loads(pathlib.Path(MARKET).read_text())
               .items() if k not in ("L1", "L2")}
        assert self._run(tmp_path, "market", doc) == 2
        assert "L2 cannot be inferred" in capsys.readouterr().err
        assert not any((tmp_path / "out").iterdir())


class TestOptions:
    @pytest.mark.parametrize("command, option", [
        (command, option) for command in ("verify", "kappa")
        for option in ("--grid-min=0", "--grid-max=1", "--nodes=11",
                       "--boundary=one_sided")
    ] + [("check", "--nodes=11"), ("check", "--boundary=one_sided")])
    def test_unread_option_is_usage_error(self, tmp_path, capsys, command,
                                          option):
        # no option is accepted that the subcommand would ignore
        with pytest.raises(SystemExit) as exc:
            run(command, "--model", MODEL, "--out", tmp_path, option)
        assert exc.value.code == 2
        assert (f"hjbkit {command}: error: unrecognized arguments: {option}"
                in capsys.readouterr().err)

    def test_check_box_from_grid_options(self, tmp_path):
        doc = {k: v for k, v in json.loads(open(MODEL).read()).items()
               if k != "domain_box"}
        bare = tmp_path / "model.json"
        bare.write_text(json.dumps(doc))
        assert run("check", "--model", bare, "--out", tmp_path / "c",
                   "--grid-min", -1, "--grid-max", 1) == 0

    def test_kappa_negative_radius_writes_nothing(self, tmp_path, capsys):
        assert run("kappa", "--model", MODEL, "--out", tmp_path, "--radius=-1",
                   "--paths", 20, "--horizon", 0.5, "--seed", 1) == 2
        assert "radius" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_kappa_grid_before_the_first_step_names_dt_sim(self, tmp_path,
                                                          capsys):
        # the first grid time 0.5 / 16 rounds to Euler step 0 of 0.1
        assert run("kappa", "--model", MODEL, "--out", tmp_path,
                   "--horizon", 0.5, "--dt-sim", 0.1, "--paths", 20,
                   "--radius", 0) == 2
        assert "--dt-sim" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_kappa_rows_at_the_simulated_step(self, tmp_path):
        assert run("kappa", "--model", MODEL, "--out", tmp_path,
                   "--horizon", 2, "--dt-sim", 0.1, "--paths", 20,
                   "--radius", 0, "--seed", 1) == 0
        rows = [ln for ln in (tmp_path / "kappa.csv").read_text().splitlines()
                if not ln.startswith("#")][1:3]
        assert [float(r.split(",")[0]) for r in rows] == [0.1, 0.2]
        assert float(rows[0].split(",")[1]) == pytest.approx(np.exp(-0.1))

    def test_kappa_csv_carries_provenance(self, tmp_path):
        assert run("kappa", "--model", MODEL, "--out", tmp_path,
                   "--horizon", 2, "--dt-sim", 0.1, "--paths", 20,
                   "--radius", 0, "--seed", 3) == 0
        digest = json.loads((tmp_path / "kappa.json").read_text())["config_digest"]
        lines = (tmp_path / "kappa.csv").read_text().splitlines()
        assert lines[:3] == [f"# config_digest={digest}", "# seed=3",
                             "t,kappa,p,policy_id"]

    @pytest.mark.parametrize("argv", [
        ("solve", "--model", MODEL, "--infinite", "--nodes", 41,
         "--grid-min", -3, "--grid-max", 3),
        ("merton", "--market", MARKET, "--nodes", 21),
    ], ids=["solve", "merton"])
    def test_infinite_tolerance_is_usage_error(self, tmp_path, capsys, argv):
        # an infinite tolerance stopped policy iteration after one linear
        # solve, reported converged, and wrote "tol": Infinity
        assert run(*argv, "--tol-dt", "inf", "--out", tmp_path) == 2
        assert "tol must be positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_closed_form_needs_market(self, tmp_path, capsys):
        assert run("solve", "--model", MODEL, "--out", tmp_path,
                   "--closed-form", "--nodes", 11, "--steps", 10) == 2
        assert "--closed-form needs --market" in capsys.readouterr().err
        assert not (tmp_path / "solve_report.json").exists()


def _key_paths(doc, path=""):
    """Every key path of a JSON document; list items add ``[]``."""
    if isinstance(doc, dict):
        return set().union(*({f"{path}{k}"} | _key_paths(v, f"{path}{k}.")
                             for k, v in doc.items()))
    if isinstance(doc, list):
        return set().union(*(_key_paths(v, f"{path.rstrip('.')}[].")
                             for v in doc))
    return set()


# the key paths of every JSON artifact: a report field that reaches an
# artifact by mistake (a wall-clock time, say) changes them
ARTIFACT_SCHEMAS = {
    "assumption_report.json": [
        "config_digest", "passed", "ratios", "ratios.discount_rate",
        "ratios.drift", "ratios.running_reward", "ratios.terminal_reward",
        "seed", "tolerance", "witness", "witness.coefficient",
        "witness.delta", "witness.ratio", "witness.y", "witness.y_bar",
        "worst_ratio"
    ],
    "solve_report.json": [
        "cfl_ratio", "config_digest", "converged", "dvdt_norm", "error_bound",
        "residual_norm", "scheme", "scheme.boundary", "scheme.dy",
        "scheme.kind", "scheme.override", "scheme.tol", "seed", "steps"
    ],
    "verify_report.json": [
        "bounds", "bounds.met", "bounds.rows", "bounds.rows[].bound",
        "bounds.rows[].control_index", "bounds.rows[].estimate",
        "bounds.rows[].factor", "bounds.rows[].margin", "bounds.rows[].met",
        "bounds.rows[].std_error", "bounds.rows[].t", "bounds.worst_margin",
        "config_digest", "field_probes", "field_probes[].gap",
        "field_probes[].mc", "field_probes[].met", "field_probes[].pde",
        "field_probes[].std_error", "field_probes[].y", "seed"
    ],
    "merton.json": [
        "benchmark", "benchmark.A", "benchmark.c_clipped", "benchmark.c_star",
        "benchmark.pi_clipped", "benchmark.pi_star", "benchmark.u",
        "config_digest", "seed"
    ],
    "kappa.json": [
        "config_digest", "decay_rate", "divergence_info", "envelope_K",
        "envelope_M", "integral_kappa", "integral_weighted", "non_integrable",
        "policies_probed", "radius_n", "seed"
    ],
}


def test_artifact_schemas(tmp_path):
    # criterion 10's configurations; verify also probes the solved field
    scenario = tmp_path / "bounds.json"
    scenario.write_text(json.dumps({"kind": "envelope", "K": 3.0, "M": 1.0,
                                    "y0": 0.5, "T": 1.0}))
    solved = tmp_path / "solve"
    runs = {
        "check": ("check", "--model", MODEL, "--seed", 3),
        "solve": ("solve", "--model", MODEL, "--infinite", "--grid-min", -3,
                  "--grid-max", 3, "--nodes", 31, "--dt", 5e-3,
                  "--tol-dt", 1e-4, "--t-max", 100, "--seed", 3),
        "verify": ("verify", "--model", MODEL, "--bounds", scenario,
                   "--field", solved / "value.csv",
                   "--policy", solved / "policy.csv", "--probes", "0.0",
                   "--paths", 2000, "--dt-sim", 1e-2, "--seed", 3),
        "merton": ("merton", "--market", MARKET, "--skip-solve", "--seed", 3),
        "kappa": ("kappa", "--model", MODEL, "--radius", 1, "--horizon", 2,
                  "--paths", 300, "--dt-sim", 2e-2, "--seed", 3),
    }
    schemas = {}
    for name, argv in runs.items():
        out = tmp_path / name
        assert run(*argv, "--out", out) == 0
        for artifact in sorted(out.glob("*.json")):
            schemas[artifact.name] = sorted(
                _key_paths(json.loads(artifact.read_text())))
    assert schemas == ARTIFACT_SCHEMAS

