"""The package's imports, read from its source: the runtime needs only the
standard library, and each module imports only from the layers below it; and
no module types out a constant's digits."""

import ast
import re
import sys
from pathlib import Path

import pytest

import meanbound

SOURCES = sorted(Path(meanbound.__file__).parent.glob("*.py"))
# the oldest Python the package supports, from pyproject's requires-python, so
# syntax newer than it fails to parse
FLOOR = tuple(map(int, re.search(
    r'requires-python = ">=(\d+)\.(\d+)"', (Path(__file__).parents[1] / "pyproject.toml").read_text()).groups()))

# lowest first: a module may import only modules listed before it, so kernels,
# which holds the sin/cos Maclaurin tables, imports nothing from means, proof,
# bounds or cli
LAYERS = ("errors", "bernoulli", "kernels", "means", "proof", "bounds", "cli", "__main__", "__init__")


def _imports(path):
    """(absolute top-level module names, package-relative module names)."""
    absolute, relative = set(), set()
    for node in ast.walk(ast.parse(path.read_text(), str(path), feature_version=FLOOR)):
        if isinstance(node, ast.Import):
            absolute.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            absolute.add(node.module.partition(".")[0])
        elif isinstance(node, ast.ImportFrom):
            # "from . import kernels" names modules; "from .kernels import x" one
            relative.update([node.module] if node.module else [alias.name for alias in node.names])
    return absolute, relative


def test_every_module_is_layered():
    assert sorted(path.stem for path in SOURCES) == sorted(LAYERS)


@pytest.mark.parametrize("path", SOURCES, ids=[path.stem for path in SOURCES])
def test_absolute_imports_are_standard_library(path):
    absolute, _ = _imports(path)
    assert absolute <= sys.stdlib_module_names, absolute - sys.stdlib_module_names


@pytest.mark.parametrize("path", SOURCES, ids=[path.stem for path in SOURCES])
def test_relative_imports_come_from_lower_layers(path):
    _, relative = _imports(path)
    below = set(LAYERS[:LAYERS.index(path.stem)])
    assert relative <= below, relative - below


@pytest.mark.parametrize("path", SOURCES, ids=[path.stem for path in SOURCES])
def test_compiles_without_warnings(path):
    # ast.parse misses the compiler's SyntaxWarnings (an asserted tuple, `is`
    # with a literal); in-process imports read __pycache__, so they miss them too
    compile(path.read_text(), str(path), "exec")


@pytest.mark.parametrize("module", ["means", "bounds"])
def test_computes_in_binary64_only(module):
    # exact arithmetic lives in proof, kernels and bernoulli
    absolute, _ = _imports(Path(meanbound.__file__).parent / f"{module}.py")
    assert not absolute & {"fractions", "decimal"}


@pytest.mark.parametrize("path", SOURCES, ids=[path.stem for path in SOURCES])
def test_no_typed_digit_strings(path):
    # pi and sqrt(2) are computed (proof's brackets from math.pi, kernels'
    # _PI_LOW and math.isqrt), not typed: no run of 20 or more digits and no
    # Fraction of a string literal
    text = path.read_text()
    assert not re.search(r"[0-9]{20,}", text)
    assert not re.search(r"""Fraction\(\s*[rRuU]?["']""", text)
