"""Self-test of the benchmark at tiny sizes (about a minute on 2 cores).

    python3 perfbench/selftest.py

Checks that
1. every metric named in BENCHMARK.json is printed, with its unit, for every
   workload, and every operation passes its output check;
2. a corrupted artifact fails the output check: a flipped ``met`` flag fails
   the tolerance check, an edited value changes the artifact digest, and an
   edited ``config_digest`` line does not;
3. every count metric repeats exactly across two traced runs.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from hjbkit import cli  # noqa: E402

COUNT_UNITS = ("count", "bytes", "computed_bytes")


def bench(workload, trace, seed=7):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(spec):
    for workload in workloads.WORKLOADS:
        runs = {0: [bench(workload, 0)], 1: [bench(workload, 1),
                                             bench(workload, 1)]}
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            for res in runs[trace]:
                assert res["correct"] is True and res["failed"] == 0, res
                assert res["attempted"] >= 1, res
                for m in spec[group]:
                    got = res["metrics"][m["name"]]
                    assert got["unit"] == m["unit"], (m, got)
                    assert isinstance(got["value"], (int, float)), (m, got)
                assert set(res["metrics"]) == {m["name"] for m in spec[group]}
        first, second = runs[1]
        for m in spec["per_layer"]:
            if m["unit"] in COUNT_UNITS:
                a = first["metrics"][m["name"]]["value"]
                b = second["metrics"][m["name"]]["value"]
                assert a == b, f"{workload} {m['name']}: {a} != {b}"
        print(f"selftest: {workload}: metrics and units ok, counts repeat")


def _rewrite(path, old, new):
    with open(path) as fh:
        text = fh.read()
    assert old in text, (path, old)
    with open(path, "w") as fh:
        fh.write(text.replace(old, new, 1))


def check_corruption():
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root, prefix="selftest-") as tmp:
        inputs = workloads.write_inputs(7, os.path.join(tmp, "inputs"))
        ops = workloads.build_ops("mc-feedback", "tiny", 7,
                                  os.path.join(ROOT, "tests", "data"), inputs,
                                  os.path.join(tmp, "work"))
        for op in ops:
            os.makedirs(op.out, exist_ok=True)
            assert cli.main(op.argv) == 0, op.argv
            op.check(op.out)
        solve, verify = ops

        digest = workloads.artifact_digest(solve.out)
        value_csv = os.path.join(solve.out, "value.csv")
        with open(value_csv) as fh:
            lines = fh.read().splitlines()
        provenance = next(ln for ln in lines if ln.startswith("# config_digest="))
        _rewrite(value_csv, provenance, "# config_digest=0000000000000000")
        assert workloads.artifact_digest(solve.out) == digest, \
            "the provenance digest must not enter the artifact digest"
        row = lines[-1]
        y, t, u = row.split(",")
        _rewrite(value_csv, row, f"{y},{t},{float(u) + 1e-12!r}")
        assert workloads.artifact_digest(solve.out) != digest, \
            "an edited value must change the artifact digest"

        _rewrite(os.path.join(verify.out, "verify_report.json"),
                 '"met": true', '"met": false')
        try:
            verify.check(verify.out)
        except workloads.CheckFailed:
            pass
        else:
            raise AssertionError("a failed probe must fail the output check")
    print("selftest: corrupted artifacts fail the output check")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_corruption()
    check_metrics(spec)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
