"""hjbkit needs nothing at run time beyond the standard library and numpy."""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hjbkit").glob("*.py"))


def _absolute_imports(path):
    """Top-level names of every absolute import in one module."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_stdlib_and_numpy(path):
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    assert sorted(set(_absolute_imports(path)) - allowed) == []


def test_sources_found():
    assert len(SOURCES) > 5


def test_project_depends_only_on_numpy():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9._-]+", d).group() for d in deps] == ["numpy"]


def test_numpy_floor_has_trapezoid():
    # np.trapezoid, which model and pde call, first shipped in numpy 2.0
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    floor = re.fullmatch(r"numpy>=(\d+)\.(\d+)(?:\.\d+)*", deps[0])
    assert floor and (int(floor[1]), int(floor[2])) >= (2, 0), deps[0]
