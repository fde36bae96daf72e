"""Pinned artifact digests of small CLI runs.

A change meant to leave every output unchanged, such as a speed-up, is
checked here bit for bit.  Each call runs ``hjbkit.cli.main`` in-process
and hashes every file it writes, with the ``config_digest`` provenance
line removed: that digest hashes the input path strings, which change
with the temporary directory.  A change that moves an artifact on purpose
re-pins its digest and says which outputs moved and why.
"""

import hashlib
import json

import pytest

from hjbkit.cli import main

DATA = __file__.rsplit("/", 1)[0] + "/data"
MODEL = DATA + "/ou_model.json"
MARKET = DATA + "/merton_market.json"

# acceptance criterion 5's drift-discount scenario at alpha = beta = 1
BOUND_MODEL = {
    "dim": 1, "controls": [[0.0]],
    "drift": {"kind": "affine", "const": 1.0, "y_matrix": [[-1.0]]},
    "discount_rate": {"kind": "affine", "const": -2.0, "y_coeff": [1.0]},
    "running_reward": {"kind": "constant", "value": 1.0},
    "terminal_reward": {"kind": "constant", "value": 0.0},
    "L1": 1.0, "L2": -1.0,
}
# a market whose coefficients depend on the factor, so that the screen's
# ratios are not all 0
FACTOR_MARKET = {
    "short_rate": 0.02, "volatility": 0.2, "correlation": 0.5,
    "risk_aversion": 0.5, "discount": 0.1, "position_cap": 2.0,
    "consumption_cap": 1.0,
    "excess_drift": {"kind": "affine", "const": 0.04, "y_coeff": [0.03]},
    "factor_drift": {"kind": "affine", "const": 0.0, "y_coeff": [-1.0]},
}
BOUND = {"kind": "drift_discount", "alpha": 1.0, "beta": 1.0, "P": 2.0,
         "Q": 1.0, "y0": 0.0, "T": 2.0, "times": [0.5, 1.0, 2.0]}

CALLS = {
    "check": ["check", "--model", MODEL, "--seed", 1],
    "check-market": ["check", "--market", "{factor_market}", "--samples", 64,
                     "--seed", 7],
    # a market given as numbers: the command's own screen still samples
    "check-merton": ["check", "--market", MARKET, "--seed", 11],
    "solve-market": ["solve", "--market", MARKET, "--grid-min", -1,
                     "--grid-max", 1, "--nodes", 21, "--horizon", 0.05,
                     "--steps", 20, "--slice-stride", 10, "--seed", 2],
    "solve-infinite": ["solve", "--infinite", "--model", MODEL, "--grid-min",
                       -3, "--grid-max", 3, "--nodes", 31, "--dt", 0.02,
                       "--tol-dt", 1e-4, "--seed", 3],
    "merton": ["merton", "--market", MARKET, "--nodes", 21, "--dt", 0.05,
               "--tol-dt", 1e-5, "--t-max", 400, "--emit-reduced",
               "--seed", 4],
    "kappa": ["kappa", "--model", MODEL, "--paths", 200, "--horizon", 1,
              "--dt-sim", 5e-2, "--seed", 5],
    "verify-bounds": ["verify", "--model", "{bound_model}", "--bounds",
                      "{bound}", "--paths", 500, "--dt-sim", 1e-2,
                      "--seed", 6],
    "solve-closed-form": ["solve", "--closed-form", "--market", MARKET,
                          "--grid-min", -1, "--grid-max", 1, "--nodes", 21,
                          "--horizon", 0.05, "--steps", 20, "--seed", 8],
    # the field and policy that "verify-field" reads back
    "solve-factor": ["solve", "--market", "{factor_market}", "--npi", 3,
                     "--nc", 3, "--nodes", 21, "--grid-min", -2,
                     "--grid-max", 2, "--horizon", 1, "--steps", 200,
                     "--slice-stride", 100, "--seed", 9],
    "verify-field": ["verify", "--market", "{factor_market}", "--npi", 3,
                     "--nc", 3, "--field", "{solved}/value.csv", "--policy",
                     "{solved}/policy.csv", "--probes=-1,0,1", "--horizon", 1,
                     "--paths", 500, "--dt-sim", 2e-2, "--seed", 10],
}

# a call that reads another call's artifacts: that call runs first
NEEDS = {"verify-field": "solve-factor"}

PINNED = {  # (exit code, {artifact: sha256})
    "check": (0, {
        "assumption_report.json":
            "0e7c5c2ee98a51f9c3e30a801951f7369081a11dd6a6d86da9941637cbe30d3c",
    }),
    "check-market": (0, {
        "assumption_report.json":
            "4cd75d597baa1662d35debc02200f6edf82fc1205f63714daf056483caca2fa8",
    }),
    "check-merton": (0, {
        "assumption_report.json":
            "717bfac8ee5ab540dcaef9f01c766c9057f7cd0d33efbff80b6958744dc5a766",
    }),
    "solve-market": (0, {
        "policy.csv":
            "042ed5f6706b694d240fb65dcf248897f6fe6fcbab210bd39ec9c31962b41e15",
        "solve_report.json":
            "04aca3bdbc6361d4a4fd2341bfe3c300f3f1144e6432ca94ad4d135b28305205",
        "value.csv":
            "c01e5c81db0c8cb6ab230d096a08cc1404ddf5a18c38c03258a4909fc738a2b9",
    }),
    "solve-infinite": (0, {
        "policy.csv":
            "5a2666dd5bcdb7a9cd9a12d38dfc43819eea081b2651bd42c9ef68a7de0f7216",
        "solve_report.json":
            "dfd41fbd7040f93743dd64242ce1832e1c2f6ef74087dad392bedec8b4d40d0f",
        "value.csv":
            "5f0d9aeddc4b2bf65c0985cdd4612b7843a8f08d1fff8e732aefbbf3e95efb42",
    }),
    "merton": (0, {
        "merton.json":
            "1b0a3a491fb8802ad0d20c2c6d37822d4fadaeceefd9bb6d6175da40cdb50d45",
    }),
    "kappa": (0, {
        "kappa.csv":
            "03d4bc93abdb6804183e6d26d15ce87223b8da597293feea3c2e09b49c7fc9cb",
        "kappa.json":
            "b2657eb3a3e8ba6f7829587147d0d446b4487e8669c22c24029f3682580090fa",
    }),
    "verify-bounds": (0, {
        "verify_report.json":
            "d456c9a27599df5dd077b932451dd4c1d41e2d3a49a335761279b87c3d691029",
    }),
    "solve-closed-form": (0, {
        "policy.csv":
            "f43034d97acd88747a9aee435a62180247d3c7129f7fb97954ed22342b161896",
        "solve_report.json":
            "0bb5d0f4371f233ad7321d08578ddda839e2e4e74b0ede8227c632f7c479b727",
        "value.csv":
            "9aa06933087823fde578f9590907e84bf0c7278722090202eef7dd04396c19b8",
    }),
    "solve-factor": (0, {
        "policy.csv":
            "22226c5a007b46d258fa01a7690b6bc8d263f7419cbc0ede0a4d69ae7255320f",
        "solve_report.json":
            "bee61dd0babd0ce189bc1d8a546ec527de19d6be1e2b2e748c22fb46459f7536",
        "value.csv":
            "b81791855bd3b7c137767bf12638c624aeeac93db9c60d1b2018bf36894e1d3b",
    }),
    "verify-field": (0, {
        "verify_report.json":
            "5039dd343846b108173e41b58c19b13beae7558d70abe7ce496630c3ecdead6c",
    }),
}


def artifact_digests(out):
    """sha256 of every file in ``out`` without its ``config_digest`` line."""
    digests = {}
    for path in sorted(out.iterdir()):
        lines = path.read_bytes().splitlines(keepends=True)
        kept = b"".join(ln for ln in lines if not ln.lstrip().startswith(
            (b'"config_digest": ', b"# config_digest=")))
        assert len(kept) < sum(map(len, lines)), f"{path.name} has no digest line"
        digests[path.name] = hashlib.sha256(kept).hexdigest()
    return digests


def run_call(name, tmp_path, out="out"):
    """Exit code and artifact digests of the call ``name``, written to
    ``tmp_path / out``."""
    inputs = {"factor_market": FACTOR_MARKET, "bound_model": BOUND_MODEL,
              "bound": BOUND}
    for key, doc in inputs.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(doc))
    if name in NEEDS:
        run_call(NEEDS[name], tmp_path, "solved")
    paths = {k: tmp_path / f"{k}.json" for k in inputs}
    argv = [str(a).format(solved=tmp_path / "solved", **paths)
            for a in CALLS[name]]
    code = main(argv + ["--out", str(tmp_path / out)])
    return code, artifact_digests(tmp_path / out)


@pytest.mark.parametrize("name", CALLS)
def test_artifacts_match_the_pinned_digests(name, tmp_path):
    assert run_call(name, tmp_path) == PINNED[name]
