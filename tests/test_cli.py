import json

import numpy as np
import pytest

from hjbkit import pde
from hjbkit.cli import main

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

    @pytest.mark.parametrize("stride", [0, -3])
    def test_slice_stride_validated(self, tmp_path, capsys, stride):
        code = run("solve", "--model", MODEL, "--out", tmp_path,
                   "--slice-stride", stride)
        assert code == 2
        assert "slice_stride" in capsys.readouterr().err

    def test_market_solve_with_closed_form(self, tmp_path):
        code = run("solve", "--market", MARKET, "--out", tmp_path,
                   "--infinite", "--closed-form", "--grid-min", -1,
                   "--grid-max", 1, "--nodes", 21, "--dt", 4e-3,
                   "--tol-dt", 1e-4, "--t-max", 200)
        assert code == 0


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

    @pytest.mark.parametrize("dt, t_max", [(0, 1000), (5e-3, 0)])
    def test_march_step_and_horizon_validated(self, tmp_path, capsys, dt,
                                              t_max):
        # h = 0.5: policy iteration does not apply, the march gets the flags
        doc = json.loads(open(MODEL).read())
        doc["discount_rate"] = {"kind": "constant", "value": 0.5}
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        code = run("solve", "--model", model, "--out", tmp_path / "o",
                   "--infinite", "--grid-min", -1, "--grid-max", 1,
                   "--nodes", 21, "--dt", dt, "--tol-dt", 1e-9,
                   "--t-max", t_max)
        assert code == 2
        assert "must be positive" in capsys.readouterr().err
        assert not (tmp_path / "o" / "solve_report.json").exists()


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

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2


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

    def test_kappa_reruns_byte_identical(self, tmp_path):
        args = ("kappa", "--model", MODEL, "--radius", 1, "--horizon", 2,
                "--paths", 200, "--dt-sim", 2e-2, "--seed", 5)
        assert run(*args, "--out", tmp_path / "a") == 0
        assert run(*args, "--out", tmp_path / "b") == 0
        for name in ("kappa.csv", "kappa.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
