"""Command-line frontend: reproducible runs emitting CSV/JSON artifacts.

Subcommands: ``check`` (assumption screens), ``solve`` (grid solvers),
``verify`` (Monte Carlo cross-checks and analytic bounds), ``merton``
(constant-coefficient benchmark), ``kappa`` (discount-moment envelopes).

Exit codes: 0 success, 1 verification/convergence failure, 2 usage or
parse error.  Every artifact, JSON or CSV, embeds the config digest and the
seed; with a fixed seed reruns are byte-identical.  The loaders of
``model``, ``finance``, ``pde`` and ``simulate`` read the input files, and
``reports`` and ``pde`` write the CSV text: this module parses no input
file itself.

``main`` does its fixed work once per call and keeps nothing between
calls.  It builds its parser on every call, and for a named subcommand only
that one: an ``ArgumentParser`` named ``hjbkit <command>`` with that
subcommand's arguments, which reads the rest of the line into the namespace
the full tree gives.  The arguments go through the parser's options group,
which builds no help formatter per argument as ``ArgumentParser`` does to
check its metavar; ``tests/test_cli.py`` runs that check on every
subcommand.  An argument that starts ``-<digit>`` or ``-.`` is a value,
never an option, so ``--probes -1,0,1`` and ``--grid-min -1e-3`` need no
``=``.  The tree, every subcommand filled, is built only when the first
argument names no subcommand, so the top-level help and the "invalid
choice" message list all five.

Each input file is read once: the config digest hashes its bytes, and the
subcommand loads the same bytes, handed to it as an open text file in
place of the path.  So the digest covers exactly what was parsed, and a
loader's error still names the path.

A path the operating system refuses (a missing input file, an input that
is a directory, an ``--out`` that is or lies under a file) exits 2 with an
``error:`` line naming it; inputs are read and ``--out`` made (where
``os.path.isdir`` finds it missing) before any artifact is written.
"""

import argparse
import hashlib
import io
import json
import os
import re
import sys

import numpy as np

from . import finance, model as model_mod, pde, simulate
from .errors import (HjbkitError, ParameterError, PolicyIterationError,
                     RecordTimeError)

__all__ = ["main"]


_INPUT_FILES = ("model", "market", "field", "policy", "bounds")


def _read_inputs(args):
    """The bytes of every input file ``args`` names, each file read once."""
    inputs = {}
    for name in _INPUT_FILES:
        path = getattr(args, name, None)
        if path:
            with open(path, "rb") as fh:
                inputs[name] = fh.read()
    return inputs


def _config_digest(args, inputs):
    """Digest of the parsed arguments and of the bytes of every input file."""
    payload = {k: repr(v) for k, v in sorted(vars(args).items())
               if k not in ("func", "out")}
    for name, data in inputs.items():
        payload[f"{name}_sha256"] = hashlib.sha256(data).hexdigest()
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _text_file(path, data):
    """``data``, the bytes read from ``path``, as ``open(path)`` reads them:
    an open text file, named by ``path`` for the loaders' messages."""
    raw = io.BytesIO(data)
    raw.name = path
    return io.TextIOWrapper(raw)


def _provenance(args, digest):
    """The comment lines that head every CSV artifact."""
    return [f"config_digest={digest}", f"seed={args.seed}"]


def _write_json(args, name, payload, digest):
    doc = {"config_digest": digest, "seed": args.seed}
    doc.update(payload)
    with open(os.path.join(args.out, name), "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _load_model(args):
    """The model of ``--model`` or ``--market``, and the market (or None)."""
    if args.model and args.market:
        raise ParameterError("pass one of --model / --market, not both")
    if args.model:
        return model_mod.load_model(args.model), None
    if args.market:
        market = finance.load_market(args.market)
        return finance.to_control_model(market, (args.npi, args.nc)), market
    raise ParameterError("one of --model / --market is required")


def _grid(args):
    return pde.Grid1D(args.grid_min, args.grid_max, args.nodes,
                      boundary=args.boundary)


def cmd_check(args, digest):
    mdl, _ = _load_model(args)
    box = mdl.domain_box or [[args.grid_min, args.grid_max]] * mdl.dim
    report = model_mod.check_assumption1(mdl, box, samples=args.samples,
                                         seed=args.seed)
    _write_json(args, "assumption_report.json", report.as_dict(), digest)
    return 0 if report.passed else 1


def _solve_stationary(mdl, grid, args, override):
    """Policy iteration, or the long-time march where it does not apply; the
    march's step, time cap and step count are checked first, whichever of
    them runs."""
    pde._march_steps(args.dt, args.t_max)
    try:
        return pde.solve_stationary(mdl, grid, args.tol_dt,
                                    control_override=override)
    except PolicyIterationError:
        return pde.solve_infinite_horizon(mdl, grid, args.dt, args.tol_dt,
                                          args.t_max, control_override=override)


def cmd_solve(args, digest):
    mdl, market = _load_model(args)
    if args.closed_form and not market:
        raise ParameterError("--closed-form needs --market")
    override = finance.control_override(market) if args.closed_form else None
    grid = _grid(args)
    if args.infinite:
        vf, pf, report = _solve_stationary(mdl, grid, args, override)
    else:
        tg = pde.TimeGrid(args.horizon, args.steps)
        vf, pf, report = pde.solve_finite_horizon(
            mdl, grid, tg, control_override=override,
            slice_stride=args.slice_stride)
    header = _provenance(args, digest)
    vf.to_csv(os.path.join(args.out, "value.csv"), header)
    pf.to_csv(os.path.join(args.out, "policy.csv"), header)
    _write_json(args, "solve_report.json", report.as_dict(), digest)
    if args.infinite and not report.converged:
        print("error: long-time march did not converge before t_max",
              file=sys.stderr)
        return 1
    return 0


def _probes(text, grid):
    """The ``--probes`` states: finite numbers in ``[y_min, y_max]``."""
    probes = []
    for item in text.split(","):
        try:
            y = float(item)
        except ValueError:
            y = np.nan
        if not grid.y_min <= y <= grid.y_max:
            raise ParameterError(
                f"--probes: {item!r} is not a finite number in the field's "
                f"range [{grid.y_min:g}, {grid.y_max:g}]")
        probes.append(y)
    return probes


def cmd_verify(args, digest):
    mdl, _ = _load_model(args)
    mc = simulate.MonteCarloConfig(paths=args.paths, dt=args.dt_sim,
                                   seed=args.seed)
    status = 0
    results = {}

    if args.bounds:
        bound, y0, T, times = simulate.load_bounds(args.bounds)
        if T is not None and args.horizon is not None:
            raise ParameterError("pass one of bounds-file T / --horizon, not both")
        if T is None:
            T = 1.0 if args.horizon is None else args.horizon
        report = simulate.verify_bounds(mdl, bound, y0, T, mc, times)
        results["bounds"] = report.as_dict()
        if not report.met:
            status = 1

    if args.field:
        if not args.policy:
            raise ParameterError("--policy is required with --field")
        fld = pde.ValueField.read_csv(args.field)
        report = simulate.verify_field(
            mdl, fld, pde.PolicyField.read_csv(args.policy), mc, args.tol,
            _probes(args.probes, fld.grid) if args.probes else None,
            args.horizon)
        results["field_probes"] = report.rows
        if not report.met:
            status = 1

    if not results:
        raise ParameterError("nothing to verify: pass --field and/or --bounds")
    _write_json(args, "verify_report.json", results, digest)
    return status


def cmd_merton(args, digest):
    market = finance.load_market(args.market)
    bench = finance.merton_benchmark(market)
    payload = {"benchmark": bench.as_dict()}
    status = 0
    if not args.skip_solve:
        mdl = finance.to_control_model(market, (args.npi, args.nc))
        grid = _grid(args)
        vf, _, report = _solve_stationary(mdl, grid, args,
                                          finance.control_override(market))
        interior = vf.values[0][1:-1]
        rel_err = float(np.max(np.abs(interior - bench.u)) / bench.u)
        payload["solver"] = report.as_dict()
        payload["relative_error"] = rel_err
        if not report.converged:
            status = 1
    if args.emit_reduced:
        payload["reduced_model"] = finance.reduced_model_descriptor(
            market, (args.npi, args.nc))
    _write_json(args, "merton.json", payload, digest)
    return status


def cmd_kappa(args, digest):
    mdl, _ = _load_model(args)
    mc = simulate.MonteCarloConfig(paths=args.paths, dt=args.dt_sim,
                                   seed=args.seed)
    table = model_mod.estimate_kappa(mdl, args.radius, args.horizon, mc)
    table.to_csv(os.path.join(args.out, "kappa.csv"), _provenance(args, digest))
    _write_json(args, "kappa.json", table.as_dict(), digest)
    return 0 if not table.non_integrable else 1


def _add_common(p, market_only=False):
    if not market_only:
        p.add_argument("--model", help="model file (JSON)")
    p.add_argument("--market", required=market_only, help="market file (JSON)")
    p.add_argument("--npi", type=int, default=21,
                   help="portfolio-grid resolution")
    p.add_argument("--nc", type=int, default=21,
                   help="consumption-grid resolution")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)


def _add_grid(p, nodes=True):
    p.add_argument("--grid-min", type=float, default=-5.0)
    p.add_argument("--grid-max", type=float, default=5.0)
    if nodes:
        p.add_argument("--nodes", type=int, default=201)
        p.add_argument("--boundary", default="one_sided",
                       choices=["one_sided", "linear_extrapolation"])


def _add_stationary(p, dt, dt_help):
    p.add_argument("--dt", type=float, default=dt, help=dt_help)
    p.add_argument("--tol-dt", type=float, default=1e-6,
                   help="stationary residual tolerance")
    p.add_argument("--t-max", type=float, default=500.0,
                   help="time cap of the long-time march fallback")


def _check_arguments(p):
    _add_common(p)
    _add_grid(p, nodes=False)
    p.add_argument("--samples", type=int, default=256)


def _solve_arguments(p):
    _add_common(p)
    _add_grid(p)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--infinite", action="store_true")
    _add_stationary(p, 1e-3, "time step of the long-time march, the "
                    "--infinite fallback where policy iteration does not apply")
    p.add_argument("--closed-form", action="store_true",
                   help="use the closed-form market controls")
    p.add_argument("--slice-stride", type=int, default=10 ** 9,
                   help="retain every n-th time slice")


def _verify_arguments(p):
    _add_common(p)
    p.add_argument("--field", help="value.csv from solve")
    p.add_argument("--policy", help="policy.csv from solve")
    p.add_argument("--probes", help="comma-separated probe states")
    p.add_argument("--bounds", help="bound scenario file (JSON)")
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--paths", type=int, default=20000)
    p.add_argument("--dt-sim", type=float, default=1e-2)
    p.add_argument("--tol", type=float, default=5e-3,
                   help="extra allowance on |PDE - MC|")


def _merton_arguments(p):
    _add_common(p, market_only=True)
    _add_grid(p)
    _add_stationary(p, 2e-3, "time step of the long-time march fallback")
    p.add_argument("--skip-solve", action="store_true")
    p.add_argument("--emit-reduced", action="store_true",
                   help="embed the reduced model descriptor")


def _kappa_arguments(p):
    _add_common(p)
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--horizon", type=float, default=4.0)
    p.add_argument("--paths", type=int, default=4000)
    p.add_argument("--dt-sim", type=float, default=1e-2)


# subcommand -> (help line, function adding its arguments, function it runs)
_COMMANDS = {
    "check": ("run the assumption screens", _check_arguments, cmd_check),
    "solve": ("run a grid solver", _solve_arguments, cmd_solve),
    "verify": ("Monte Carlo cross-checks", _verify_arguments, cmd_verify),
    "merton": ("constant-coefficient benchmark", _merton_arguments, cmd_merton),
    "kappa": ("discount-moment envelope table", _kappa_arguments, cmd_kappa),
}


# "-1,0,1" and "-1e-3" are values: no option starts "-<digit>" or "-."
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _fill(parser, command):
    """``parser`` with the arguments and defaults of ``command``, added
    through its options group, where argparse files every option anyway."""
    _, add_arguments, func = _COMMANDS[command]
    parser._negative_number_matcher = _NEGATIVE_VALUE
    add_arguments(parser._optionals)
    parser.set_defaults(func=func, command=command)
    return parser


def build_parser(command=None):
    """The parser of ``hjbkit command …`` as one ``ArgumentParser`` that
    reads the arguments after ``command``; when it is None, the ``hjbkit``
    parser, every subcommand a filled subparser, that reads the whole line.
    Both give the same namespace for the same command line."""
    if command is not None:
        return _fill(argparse.ArgumentParser(prog=f"hjbkit {command}"), command)
    parser = argparse.ArgumentParser(
        prog="hjbkit",
        description="discounted stochastic control: solve, simulate, verify")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        _fill(sub.add_parser(name, help=help_line), name)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv[1:] if command else argv)
    try:
        inputs = _read_inputs(args)
        digest = _config_digest(args, inputs)
        if not os.path.isdir(args.out):
            os.makedirs(args.out, exist_ok=True)
        # the subcommand loads each input from the bytes the digest covers
        for name, data in inputs.items():
            setattr(args, name, _text_file(getattr(args, name), data))
        return args.func(args, digest)
    except OSError as err:  # a missing input, a directory, an --out file
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecordTimeError as err:
        print(f"error: {err}; lower --dt-sim", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError, ParameterError) as err:
        print(f"error: {err!r}", file=sys.stderr)
        return 2
    except HjbkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
