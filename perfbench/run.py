"""hjbkit benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mc-feedback --seed 1 --seconds 20 --trace 0

Set-up is timed in several fresh processes (``worker.py --setup-probe``)
and reported as the median; the workload itself then runs in one more
fresh process, so its peak RSS and import cost belong to this run.  BLAS
and OpenMP thread pools are capped at one thread in every child.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  Lines before it give the artifact
digest of every operation, for bit-identity comparisons between commits.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 6        # plus the measured run's own set-up: median of 7
TIMEOUT_S = 170.0
THREAD_CAP = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _spawn(argv, env, deadline):
    """Run worker.py with ``argv``; returns its parsed last stdout line."""
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv,
         "--spawned-at", repr(t0)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metrics(names_units, values):
    return {name: {"value": values[name], "unit": unit}
            for name, unit in names_units}


def main(argv=None):
    for need in ("BENCHMARK.json", "src/hjbkit/cli.py",
                 "tests/data/ou_model.json"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"error: {need} not found under {ROOT}", file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: the self-test's sizes")
    args = p.parse_args(argv)

    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: THREAD_CAP for var in THREAD_VARS})
    deadline = time.monotonic() + TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--scale", args.scale]
    try:
        setup = [_spawn(common + ["--seconds", "0", "--setup-probe"], env,
                        deadline) for _ in range(SETUP_PROBES)]
        res = _spawn(common + ["--seconds", str(args.seconds),
                               "--trace", str(args.trace)], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    setup.append(res)

    for op, digest in res["digests"].items():
        print(f"digest {args.workload}/{op} seed={args.seed} {digest}")
    for kind, times in res["iterations"].items():
        print(f"{kind} iterations run_s: {' '.join(f'{t:.4f}' for t in times)}")
    print(f"wall seconds, not rescaled: run {res['wall_s']!r} setup "
          f"{statistics.median(s['setup_wall_s'] for s in setup)!r}")
    acc = res["accuracy"]
    print(f"accuracy merton_rel_err={acc['merton_rel_err']!r} "
          f"mc_var_x_s={acc['mc_var_x_s']!r}")

    if args.trace:
        values = dict(res["layer"])
        values["finance.merton_rel_err"] = acc["merton_rel_err"]
        values["simulate.mc_var_x_s"] = acc["mc_var_x_s"]
        print(f"spans written to {res['spans_file']}")
        group = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(s["setup_s"] for s in setup),
                  "run_s": res["run_s"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        group = spec["end_to_end"]
    metrics = _metrics([(m["name"], m["unit"]) for m in group], values)
    print(json.dumps({"correct": res["failed"] == 0 and res["attempted"] > 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
