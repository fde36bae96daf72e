"""Fuzz the float options of every subcommand at the ends of the float range.

Each test draws every float option of one subcommand, ``--seed`` among
them, from a small set of edge values: zero, one and minus one, numbers
whose squares or quotients overflow or underflow, infinities, NaN and
integers past int64.  ``main`` must return 0, 1 or 2 without raising (a
numpy warning is an error under the pytest ``filterwarnings``), and every
exit 2 must print an ``error:`` line.  A ``--dt-sim`` that is not positive
and finite must exit 2: an infinite Euler step took the whole horizon in
one step and reported a standard error of 0.  Beside those draws the size
options (``--nodes``, ``--steps``, ``--slice-stride``, ``--paths``,
``--samples``, ``--npi``, ``--nc``, ``--radius``) stay fixed and tiny; one
more test draws each of them, and ``--seed`` of ``check``, at the edges of
the count rule: one below its lowest value, 2**63 and 2**64.  Each of those
must exit 2 with one ``error:`` line naming the argument and write nothing;
no draw lies between the defaults and 2**63, so none allocates.  The draws
are derandomized, so a run checks the same command lines every time.
"""

import contextlib
import io
import json
import math
import pathlib
import tempfile

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from hjbkit.cli import main

DATA = pathlib.Path(__file__).resolve().parent / "data"
MODEL = DATA / "ou_model.json"
MARKET = DATA / "merton_market.json"

EDGES = [0.0, -1.0, 1.0, 1e-300, 1e300, math.inf, -math.inf, math.nan,
         2.0 ** 64, 2.0 ** 70]
FLOAT = st.sampled_from(EDGES)
SEED = st.sampled_from([int(v) for v in EDGES if float(v).is_integer()])

FUZZ = settings(max_examples=500, deadline=5000, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A model without a ``domain_box`` (so ``check`` screens the grid
    flags' box), a solved value and policy pair, and a bounds file."""
    root = tmp_path_factory.mktemp("fuzz_inputs")
    doc = json.loads(MODEL.read_text())
    del doc["domain_box"]
    (root / "model.json").write_text(json.dumps(doc))
    assert main(["solve", "--model", str(MODEL), "--out", str(root),
                 "--nodes", "11", "--grid-min", "-3", "--grid-max", "3",
                 "--steps", "100"]) == 0
    (root / "bounds.json").write_text(json.dumps(
        {"kind": "envelope", "K": 3.0, "M": 1.0, "y0": 0.5}))
    return root


def options(**flags):
    """Draws of ``{flag: value}``, one value per ``--flag``."""
    return st.fixed_dictionaries(flags)


def run(argv, opts):
    """``main``'s exit code on ``argv`` and ``--flag=value`` per entry of
    ``opts``; an exit 2 must print an ``error:`` line."""
    argv = [str(a) for a in argv] + [f"--{k.replace('_', '-')}={v!r}"
                                     for k, v in opts.items()]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        code = main(argv + ["--out", out])
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
    return code


def dt_sim_checked(code, opts):
    """A ``--dt-sim`` outside ``(0, inf)`` is an exit 2, whatever else."""
    assert code == 2 or 0 < opts["dt_sim"] < math.inf, (opts, code)


def short_march(opts):
    """Excludes the draws whose long-time march is legitimately long.

    Where policy iteration cannot reach ``--tol-dt`` (1e-300, say), the
    march runs up to ``--t-max / --dt`` steps: with ``--t-max 1e300`` and a
    ``--dt`` the CFL limit admits, that is a run without end, not a fault.
    """
    dt, t_max = opts["dt"], opts["t_max"]
    return not (dt > 0 and math.inf > t_max > 1e5 * dt)


GRID = dict(grid_min=FLOAT, grid_max=FLOAT)
STATIONARY = dict(dt=FLOAT, tol_dt=FLOAT, t_max=FLOAT)
DEFAULTS = dict(dt=1e-3, tol_dt=1e-6, t_max=500.0)


@FUZZ
@given(opts=options(seed=SEED, **GRID))
@example(opts=dict(seed=0, grid_min=-1.0, grid_max=math.inf))
@example(opts=dict(seed=0, grid_min=-1e300, grid_max=1e300))
def test_check(inputs, opts):
    run(["check", "--model", inputs / "model.json", "--samples", 8], opts)


@FUZZ
@given(opts=options(seed=SEED, horizon=FLOAT, **GRID, **STATIONARY),
       infinite=st.booleans(),
       boundary=st.sampled_from(["one_sided", "linear_extrapolation"]))
@example(opts=dict(seed=0, horizon=1.0, grid_min=-1e300, grid_max=1e300,
                   **DEFAULTS), infinite=False, boundary="one_sided")
@example(opts=dict(seed=0, horizon=1.0, grid_min=-1.0, grid_max=1.0,
                   **dict(DEFAULTS, dt=math.nan)),
         infinite=True, boundary="one_sided")
def test_solve(inputs, opts, infinite, boundary):
    if infinite:
        assume(short_march(opts))
    run(["solve", "--model", MODEL, "--nodes", 5, "--steps", 4,
         "--boundary", boundary] + (["--infinite"] if infinite else []), opts)


@FUZZ
@given(opts=options(seed=SEED, horizon=FLOAT, dt_sim=FLOAT, tol=FLOAT,
                    probes=FLOAT))
@example(opts=dict(seed=0, horizon=1e300, dt_sim=0.01, tol=1.0, probes=0.0))
@example(opts=dict(seed=0, horizon=1.0, dt_sim=math.inf, tol=1.0, probes=0.0))
def test_verify_field(inputs, opts):
    dt_sim_checked(run(["verify", "--model", MODEL, "--field",
                        inputs / "value.csv", "--policy", inputs / "policy.csv",
                        "--paths", 4], opts), opts)


@FUZZ
@given(opts=options(seed=SEED, horizon=FLOAT, dt_sim=FLOAT, tol=FLOAT))
@example(opts=dict(seed=0, horizon=1e300, dt_sim=0.01, tol=1.0))
@example(opts=dict(seed=0, horizon=1.0, dt_sim=math.inf, tol=1.0))
def test_verify_bounds(inputs, opts):
    dt_sim_checked(run(["verify", "--model", MODEL, "--bounds",
                        inputs / "bounds.json", "--paths", 4], opts), opts)


@FUZZ
@given(opts=options(seed=SEED, **GRID, **STATIONARY))
@example(opts=dict(seed=0, grid_min=-1e300, grid_max=1e300, **DEFAULTS))
def test_merton(opts):
    assume(short_march(opts))
    run(["merton", "--market", MARKET, "--npi", 3, "--nc", 3, "--nodes", 5],
        opts)


@FUZZ
@given(opts=options(seed=SEED, horizon=FLOAT, dt_sim=FLOAT))
@example(opts=dict(seed=0, horizon=4.0, dt_sim=1e-300))
@example(opts=dict(seed=0, horizon=1.0, dt_sim=math.inf))
def test_kappa(opts):
    dt_sim_checked(run(["kappa", "--model", MODEL, "--radius", 1,
                        "--paths", 4], opts), opts)


# (argv, option, name in the error, lowest valid value); --npi and --nc are
# read from a --market only
SIZES = [
    (["solve", "--model", MODEL, "--steps", 4], "--nodes", "nodes", 3),
    (["merton", "--market", MARKET, "--npi", 3, "--nc", 3], "--nodes",
     "nodes", 3),
    (["solve", "--model", MODEL, "--nodes", 5], "--steps", "steps", 1),
    (["solve", "--model", MODEL, "--nodes", 5, "--steps", 4],
     "--slice-stride", "slice_stride", 1),
    (["verify", "--model", MODEL, "--bounds", "{bounds}"], "--paths",
     "paths", 1),
    (["kappa", "--model", MODEL], "--paths", "paths", 1),
    (["check", "--model", MODEL], "--samples", "samples", 2),
    (["solve", "--market", MARKET, "--nc", 3, "--nodes", 5, "--steps", 4],
     "--npi", "npi", 2),
    (["check", "--market", MARKET, "--npi", 3], "--nc", "nc", 2),
    (["kappa", "--model", MODEL, "--paths", 4], "--radius", "radius", 0),
]
DRAWS = [(argv, option, name, value) for argv, option, name, low in SIZES
         for value in (low - 1, 2 ** 63, 2 ** 64)]
DRAWS.append((["check", "--model", MODEL, "--samples", 8], "--seed", "seed",
              2 ** 64))


@FUZZ
@given(draw=st.sampled_from(DRAWS))
def test_size_options_at_the_rule_edges(inputs, draw):
    argv, option, name, value = draw
    argv = [str(inputs / "bounds.json") if a == "{bounds}" else str(a)
            for a in argv] + [f"{option}={value}"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        code = main(argv + ["--out", out])
        written = list(pathlib.Path(out).iterdir())
    lines = err.getvalue().splitlines()
    assert code == 2, (argv, code, lines)
    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    assert f"{name} must be" in lines[0], (argv, lines)
    assert not written, (argv, written)
