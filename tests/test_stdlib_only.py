"""The library runs on the standard library alone: every module of
``psf`` imports only standard-library modules or ``psf`` itself."""

import ast
import sys
from pathlib import Path

import pytest

import psf

MODULES = sorted(Path(psf.__file__).parent.glob("*.py"))


def imported_roots(tree: ast.AST) -> set[str]:
    """Top-level names of every absolute import in ``tree``; relative
    imports stay inside the package."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"__init__", "complexes", "verify", "decompose", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_stdlib(path):
    roots = imported_roots(ast.parse(path.read_text(), filename=str(path)))
    foreign = sorted(r for r in roots if r != "psf" and r not in sys.stdlib_module_names)
    assert foreign == []


def test_foreign_import_is_caught():
    tree = ast.parse("import numpy.linalg\nfrom networkx import Graph\nfrom . import verify\n")
    roots = imported_roots(tree)
    assert roots == {"numpy", "networkx"}
    assert not roots <= set(sys.stdlib_module_names)
