"""Every benchmark operation passes its own check at the tiny scale.

The workloads of ``perfbench/workloads.py`` are imported read-only and each
operation runs in-process through ``hjbkit.cli.main``, as the benchmark's
worker runs it, for seeds 1-3.  A change that makes a benchmark check fail,
such as a Monte Carlo change that flips a bound row, fails here.
"""

import contextlib
import importlib.util
import io
import pathlib

import pytest

from hjbkit import cli

from conftest import DATA

_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_operations_pass_their_checks(tmp_path, workload, seed):
    inputs = workloads.write_inputs(seed, str(tmp_path / "inputs"))
    ops = workloads.build_ops(workload, "tiny", seed, DATA, inputs,
                              str(tmp_path / "work"))
    assert ops
    for op in ops:
        pathlib.Path(op.out).mkdir(parents=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
        assert code == 0, (op.name, err.getvalue())
        op.check(op.out)
