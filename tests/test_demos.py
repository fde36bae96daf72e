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
        "dfb1cfbff419d36ce3242f57fbcc20642807fe37af7d32228f6e3bfd9c4ae7a1",
    "03_coupling_and_bounds.py":
        "998272c0a8028929d25787df72323b5127c45f0ea643498de4429ddf80cc8d63",
    "04_merton.py":
        "a9976cb44112b8e60bdeb1eba537fa540c7cbff3f1523854d8e2c89db41aafc5",
    "05_kappa_and_horizons.py":
        "842174af5711d0997bccf30a91481a75dbd3922fb1678c1b7fcef470075c765a",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_demo_output_is_pinned(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINNED[name]
