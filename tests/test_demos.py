"""The demos print what they printed when their output was pinned.

Each demo runs in-process, as ``python demos/<name>.py`` would run it, and
the sha256 of its standard output is compared with a pinned value, so a
change to what hjbkit computes or prints shows up here.
"""

import contextlib
import hashlib
import io
import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

PINNED = {
    "01_assumption_screen.py":
        "08a486d5fb64cbce55605ae27be51a2dbfeb231206f69caa64dd4f4d571ae441",
    "02_solve_and_verify.py":
        "0a2fe03ef880d6967c0284b6170fadab937dfc3d6ba40660c197f70ea2d0c88f",
    "03_coupling_and_bounds.py":
        "1dc6ccd46cee97097e8eeba7ff1d5b3c8c619c0c461c08d04d3a05f11ccfaeb0",
    "04_merton.py":
        "a9976cb44112b8e60bdeb1eba537fa540c7cbff3f1523854d8e2c89db41aafc5",
    "05_kappa_and_horizons.py":
        "7c52d7ffe9e6b31a0b3a25a10cea4d2a23bab586b1d9381d31ea27cb8f0e3ff3",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_demo_output_is_pinned(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINNED[name]
