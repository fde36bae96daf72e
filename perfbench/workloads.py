"""Workload definitions, seeded inputs and per-operation output checks.

Every workload is a list of ``hjbkit`` CLI invocations (operations).  An
operation passes when the CLI exits 0 and its artifacts meet the workload's
tolerances; its output digest is the sha256 of every artifact with the
``config_digest`` provenance line removed (that digest hashes input path
strings, so raw bytes change with the working directory).

Why each workload exists (the layer it stresses, and the one it bypasses):

* ``grid-controls`` -- a finite-horizon Merton solve over 21 x 21 = 441
  grid controls.  Nearly all time is the per-control Python loop in the
  march's control scan; no Monte Carlo runs.
* ``long-march`` -- two long-time marches with one (closed-form override)
  or three controls.  Cost is per-step overhead and the override's
  coefficient calls, so step-count changes show and control-count changes
  barely do.
* ``mc-feedback`` -- a small factor-market solve, then a five-probe Monte
  Carlo verification under the solved feedback policy.  ``simulate``
  dominates and the policy lookup is on the hot path.  ``ou_model.json`` is
  not used here: its optimal control is 0 and its payoff deterministic, so
  the PDE-MC comparison would be vacuous.
* ``mc-moments`` -- ``check`` and ``kappa`` on ``ou_model.json`` (many short
  constant-policy simulations that redraw identical streams, with
  checkpoints) and a drift-discount bound check on a copy of acceptance
  criterion 5.  No policy lookup; the only workload that reaches
  ``check_assumption1`` and ``estimate_kappa``.
"""

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("grid-controls", "long-march", "mc-feedback", "mc-moments")
SCALES = ("full", "tiny")

# relative error of the long-time Merton march allowed by the check
MERTON_TOL = 1e-3


class CheckFailed(Exception):
    """An operation's artifacts do not meet the workload's tolerances."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its arguments, its output directory and its check."""

    name: str
    argv: list
    out: str
    check: object            # callable(out_dir) -> dict of checked values


def _perturb(rng, value, rel=0.05):
    return float(value * (1.0 + rel * rng.uniform(-1.0, 1.0)))


def write_inputs(seed, inputs_dir):
    """Generate the benchmark-owned input files from the workload seed.

    The perturbations are small, so every seed gives the same amount of
    work and the same checks pass, while no two seeds share inputs.
    """
    rng = np.random.default_rng([20160202, seed])
    market = {
        "short_rate": 0.02,
        "excess_drift": {"kind": "affine", "const": _perturb(rng, 0.04),
                         "y_coeff": [_perturb(rng, 0.03)]},
        "volatility": 0.2,
        "correlation": 0.5,
        "risk_aversion": 0.5,
        "discount": 0.1,
        "position_cap": 2.0,
        "consumption_cap": 1.0,
        "factor_drift": {"kind": "affine", "const": 0.0,
                         "y_coeff": [-_perturb(rng, 1.0)]},
    }
    alpha, beta = _perturb(rng, 1.0), _perturb(rng, 1.0)
    P, Q = 2.0, 1.0
    c5_model = {
        "dim": 1,
        "controls": [[0.0]],
        "drift": {"kind": "affine", "const": beta, "y_matrix": [[-alpha]]},
        "discount_rate": {"kind": "affine", "const": -P, "y_coeff": [Q]},
        "running_reward": {"kind": "constant", "value": 1.0},
        "terminal_reward": {"kind": "constant", "value": 0.0},
        "L1": 1.0,
        "L2": -alpha,
    }
    c5_bound = {"kind": "drift_discount", "alpha": alpha, "beta": beta,
                "P": P, "Q": Q, "y0": 0.0, "T": 2.0,
                "times": [0.5, 1.0, 2.0]}
    os.makedirs(inputs_dir, exist_ok=True)
    paths = {}
    for name, doc in (("factor_market", market), ("c5_model", c5_model),
                      ("c5_bound", c5_bound)):
        paths[name] = os.path.join(inputs_dir, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
    return paths


# --- checks ---------------------------------------------------------------

def _load(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def check_solve(out):
    rep = _load(out, "solve_report.json")
    _require(rep["converged"] is True, "solve did not converge")
    for name in ("value.csv", "policy.csv"):
        with open(os.path.join(out, name)) as fh:
            body = [ln for ln in fh if not ln.startswith(("#", "y,"))]
        values = np.array([[float(v) for v in ln.split(",")] for ln in body])
        _require(len(values) > 0 and np.all(np.isfinite(values)),
                 f"{name} is empty or non-finite")
    return {}


def check_merton(out):
    doc = _load(out, "merton.json")
    _require(doc["solver"]["converged"] is True, "Merton march did not converge")
    err = float(doc["relative_error"])
    _require(0.0 <= err <= MERTON_TOL, f"Merton relative error {err:g}")
    return {"merton_rel_err": err}


def check_probes(out):
    rows = _load(out, "verify_report.json")["field_probes"]
    _require(len(rows) > 0, "no probes")
    _require(all(r["met"] is True for r in rows), "a PDE-MC probe is not met")
    return {"std_errors": [float(r["std_error"]) for r in rows]}


def check_bounds(out):
    doc = _load(out, "verify_report.json")["bounds"]
    _require(doc["met"] is True and all(r["met"] is True for r in doc["rows"]),
             "a bound row is not met")
    return {}


def check_kappa(out):
    doc = _load(out, "kappa.json")
    _require(doc["non_integrable"] is False, "kappa table is non_integrable")
    with open(os.path.join(out, "kappa.csv")) as fh:
        rows = fh.read().strip().splitlines()[1:]
    _require(len(rows) > 0, "kappa.csv is empty")
    return {}


def check_assumption(out):
    _require(_load(out, "assumption_report.json")["passed"] is True,
             "assumption screen failed")
    return {}


def artifact_digest(out):
    """sha256 over every artifact of one operation, provenance digest removed."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            raw = fh.read()
        if name.endswith(".json"):
            doc = json.loads(raw)
            doc.pop("config_digest", None)
            raw = json.dumps(doc, sort_keys=True).encode()
        else:
            raw = b"".join(ln for ln in raw.splitlines(keepends=True)
                           if not ln.startswith(b"# config_digest="))
        h.update(name.encode() + b"\0" + raw + b"\0")
    return h.hexdigest()


# --- workloads --------------------------------------------------------------

def _s(*args):
    return [str(a) for a in args]


def build_ops(workload, scale, seed, data_dir, inputs, work_dir):
    """Operations of one iteration of ``workload``, outputs under ``work_dir``."""
    tiny = scale == "tiny"
    market = os.path.join(data_dir, "merton_market.json")
    ou = os.path.join(data_dir, "ou_model.json")

    def out(name):
        return os.path.join(work_dir, name)

    def op(name, argv, check):
        return Op(name, argv + _s("--out", out(name), "--seed", seed),
                  out(name), check)

    if workload == "grid-controls":
        size = _s("--npi", 3, "--nc", 3, "--nodes", 11, "--horizon", 0.1,
                  "--steps", 20, "--slice-stride", 10) if tiny else \
            _s("--npi", 21, "--nc", 21, "--nodes", 41, "--horizon", 0.05,
               "--steps", 50, "--slice-stride", 10)
        return [op("solve", _s("solve", "--market", market, "--grid-min", -1,
                               "--grid-max", 1) + size, check_solve)]

    if workload == "long-march":
        merton = _s("--nodes", 21, "--dt", 0.05, "--tol-dt", 1e-5) if tiny \
            else _s("--nodes", 41, "--dt", 3.2e-2, "--tol-dt", 1e-6)
        ou_size = _s("--nodes", 31, "--dt", 0.02, "--tol-dt", 1e-4) if tiny \
            else _s("--nodes", 101, "--dt", 2.87e-3, "--tol-dt", 1e-6)
        return [
            op("merton", _s("merton", "--market", market, "--t-max", 400)
               + merton, check_merton),
            op("solve-ou", _s("solve", "--infinite", "--model", ou,
                              "--grid-min", -3, "--grid-max", 3,
                              "--t-max", 200) + ou_size, check_solve),
        ]

    if workload == "mc-feedback":
        fm = inputs["factor_market"]
        controls = _s("--market", fm, "--npi", 5, "--nc", 5)
        steps = 200 if tiny else 300
        mc = _s("--paths", 500, "--dt-sim", 2e-2) if tiny else \
            _s("--paths", 2000, "--dt-sim", 2.5e-3)
        return [
            op("solve", _s("solve") + controls + _s(
                "--nodes", 41, "--grid-min", -2, "--grid-max", 2,
                "--horizon", 1, "--steps", steps, "--slice-stride", 100),
               check_solve),
            op("verify", _s("verify") + controls + _s(
                "--field", os.path.join(out("solve"), "value.csv"),
                "--policy", os.path.join(out("solve"), "policy.csv"),
                # argparse reads "--probes -1,..." as an option, so join with =
                "--probes=-1,-0.5,0,0.5,1", "--horizon", 1) + mc,
               check_probes),
        ]

    if workload == "mc-moments":
        kappa = _s("--paths", 200, "--horizon", 1, "--dt-sim", 5e-2) if tiny \
            else _s("--paths", 300, "--dt-sim", 1e-2)
        bounds = _s("--paths", 1000, "--dt-sim", 1e-2) if tiny else \
            _s("--paths", 2000, "--dt-sim", 2e-3)
        return [
            op("check", _s("check", "--model", ou), check_assumption),
            op("kappa", _s("kappa", "--model", ou) + kappa, check_kappa),
            op("bounds", _s("verify", "--model", inputs["c5_model"],
                            "--bounds", inputs["c5_bound"]) + bounds,
               check_bounds),
        ]

    raise ValueError(f"unknown workload {workload!r}")
