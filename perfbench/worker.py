"""One benchmark run in a fresh process: set up, run a workload, report.

Started by ``run.py`` with the BLAS thread variables already set.  It
imports numpy and hjbkit from the checkout's ``src/``, writes the seeded
inputs, then repeats the workload's CLI invocations in-process through
``hjbkit.cli.main`` until ``--seconds`` have passed, checking every
operation.  The result is printed as one JSON line on stdout.

With ``--setup-probe`` it stops right before the first workload call and
prints how long it took to get there, so ``run.py`` can time set-up in
several fresh processes.

Times are reported twice: as wall seconds, and rescaled to the host's
nominal speed by a reference kernel timed next to them (see
``REF_NOMINAL_S``).  The metrics use the rescaled times.
"""

import argparse
import contextlib
import gzip
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from hjbkit import (cli, coefficients, finance, hamiltonian,  # noqa: E402
                    model, pde, simulate)

import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = {"cli": cli, "coefficients": coefficients, "finance": finance,
           "hamiltonian": hamiltonian, "model": model, "pde": pde,
           "simulate": simulate}
DATA_DIR = os.path.join(ROOT, "tests", "data")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
MIN_ITERATIONS = 3   # per kind: untraced, and traced with --trace 1
# Median reference_kernel() time on the machine in README.md.  Every
# operation's wall time is rescaled by REF_NOMINAL_S / (the kernel's time
# measured right before and after it), which cancels the host's slow phases.
REF_NOMINAL_S = 0.05


def reference_kernel():
    """Fixed numpy work that shares no code with hjbkit; returns seconds.

    Small-vector steps like the grid march plus 16k-element passes like a
    Monte Carlo block, so it slows down with the host as the workloads do.
    """
    u = np.linspace(0.0, 1.0, 41)
    a = np.sin(u)
    v = np.linspace(0.0, 1.0, 1 << 14)
    t0 = time.perf_counter()
    for _ in range(5000):
        d = np.empty_like(u)
        d[:-1] = u[1:] - u[:-1]
        d[-1] = d[-2]
        u = 0.5 * (u + np.maximum(np.where(a >= 0.5, d, -d) * a + 0.1 * u, u))
    for _ in range(120):
        v = 0.9 * np.exp(-0.5 * v) + 0.1 * np.sqrt(v + 1.0)
    return time.perf_counter() - t0


def _run_op(op):
    """Run one CLI invocation; returns (seconds, exit code)."""
    os.makedirs(op.out, exist_ok=True)
    sink = io.StringIO()
    with contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        code = cli.main(op.argv)
        elapsed = time.perf_counter() - t0
    if code != 0:
        print(f"# {op.name}: exit {code}: {sink.getvalue().strip()[-300:]}",
              file=sys.stderr)
    return elapsed, code


class Run:
    """State of one run: iterations, operation outcomes and digests."""

    def __init__(self, args, inputs, work_root, ref):
        self.args = args
        self.inputs = inputs
        self.work_root = work_root
        self.attempted = 0
        self.failed = 0
        self.digests = {}        # op name -> first digest seen
        self.quality = {}        # checked values, e.g. merton_rel_err
        self.wall_s = {False: [], True: []}
        self.run_s = {False: [], True: []}     # rescaled to REF_NOMINAL_S
        self.layer = []          # per traced iteration
        self.spans = []
        self.iteration = 0
        self.ref = ref           # the latest reference kernel time

    def iterate(self, traced):
        """Run the workload's operations once and record their times."""
        work = os.path.join(self.work_root, f"it{self.iteration}")
        self.iteration += 1
        ops = workloads.build_ops(self.args.workload, self.args.scale,
                                  self.args.seed, DATA_DIR, self.inputs, work)
        tracer = tracing.Tracer(MODULES) if traced else None
        if tracer is not None:
            tracer.install()
        wall = scaled = 0.0
        try:
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.op = i
                elapsed, code = _run_op(op)
                ref = reference_kernel()
                wall += elapsed
                scaled += elapsed * REF_NOMINAL_S / (0.5 * (self.ref + ref))
                self.ref = ref
                self.attempted += 1
                ok = code == 0 and self._check(op)
                if tracer is not None and os.path.isdir(op.out):
                    tracer.add("cli.bytes_written", sum(
                        os.path.getsize(os.path.join(op.out, f))
                        for f in os.listdir(op.out)))
                if not ok:
                    self.failed += 1
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            self.layer.append(tracer.layer_metrics())
            self.spans.append(tracer.spans)
        shutil.rmtree(work, ignore_errors=True)
        self.wall_s[traced].append(wall)
        self.run_s[traced].append(scaled)

    def _check(self, op):
        try:
            values = op.check(op.out)
            digest = workloads.artifact_digest(op.out)
        except (workloads.CheckFailed, OSError, ValueError, KeyError) as err:
            print(f"# {op.name}: check failed: {err}", file=sys.stderr)
            return False
        first = self.digests.setdefault(op.name, digest)
        if digest != first:
            print(f"# {op.name}: artifacts differ from the first iteration",
                  file=sys.stderr)
            return False
        for key, value in values.items():
            self.quality.setdefault(key, value)
        return True

    def accuracy(self, run_s):
        """Workload-specific accuracy figures (0 where they do not apply)."""
        ses = self.quality.get("std_errors")
        return {
            "merton_rel_err": self.quality.get("merton_rel_err", 0.0),
            "mc_var_x_s": float(np.mean(np.square(ses))) * run_s if ses else 0.0,
        }


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=workloads.SCALES, default="full")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.time() when the parent started this process")
    p.add_argument("--setup-probe", action="store_true")
    args = p.parse_args(argv)

    os.makedirs(TMP_ROOT, exist_ok=True)
    work_root = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    try:
        inputs = workloads.write_inputs(args.seed,
                                        os.path.join(work_root, "inputs"))
        setup_wall_s = time.time() - args.spawned_at
        ref = reference_kernel()
        setup_s = setup_wall_s * REF_NOMINAL_S / ref
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s,
                              "setup_wall_s": setup_wall_s}))
            return 0
        run = Run(args, inputs, work_root, ref)
        t_end = time.perf_counter() + args.seconds
        traced = False
        while True:
            run.iterate(traced)
            done = (time.perf_counter() >= t_end
                    and len(run.run_s[False]) >= MIN_ITERATIONS)
            if args.trace:
                done = done and len(run.run_s[True]) >= MIN_ITERATIONS
                traced = not traced   # alternate, so drift hits both alike
            if done:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    run_s = _median(run.run_s[False])
    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "iterations": {"untraced": run.run_s[False],
                       "traced": run.run_s[True]},
        "wall_s": _median(run.wall_s[False]),
        "digests": run.digests,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "accuracy": run.accuracy(run_s),
    }
    if args.trace:
        layer = {k: _median([it[k] for it in run.layer]) for k in run.layer[0]}
        layer["trace.overhead_s"] = _median(run.run_s[True]) - run_s
        result["layer"] = layer
        os.makedirs(OUT_ROOT, exist_ok=True)
        path = os.path.join(OUT_ROOT, f"spans-{args.workload}.jsonl.gz")
        with gzip.open(path, "wt") as fh:
            for it, spans in enumerate(run.spans):
                for span in spans:
                    fh.write(json.dumps([it] + span) + "\n")
        result["spans_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
