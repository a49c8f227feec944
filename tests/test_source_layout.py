"""Source hygiene: a module must not define one top-level name twice, and
the public API lists must agree.

A second definition silently shadows the first, so a duplicated test
function never runs and a duplicated helper hides which one is live.  The
public API is listed in each submodule's `__all__`, in the package imports
and in the package `__all__`; a name that one list keeps after the code is
gone, or that the package exports without a submodule exporting it, is
caught here.

The package is built from plain stdlib types, so importing it (the cold start
of every CLI call) loads neither `dataclasses` nor `typing`, nor `inspect`,
which `dataclasses` pulls in.
"""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import etaforge

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "etaforge"
MODULES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")])
SUBMODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def top_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def test_modules_found():
    names = {path.name for path in MODULES}
    assert {"evaluate.py", "modgroup.py", "test_acceptance.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.parent.name + "/" + path.name)
def test_no_top_level_name_defined_twice(path):
    counts = Counter(top_level_names(ast.parse(path.read_text(), str(path))))
    assert not [name for name, count in counts.items() if count > 1]


def submodule_all(name: str) -> list[str]:
    return getattr(importlib.import_module(f"etaforge.{name}"), "__all__", [])


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_names_are_defined_there(name):
    path = PACKAGE / f"{name}.py"
    defined = set(top_level_names(ast.parse(path.read_text(), str(path))))
    assert [n for n in submodule_all(name) if n not in defined] == []


def test_package_all_names_come_from_a_submodule():
    exported = {n for name in SUBMODULES for n in submodule_all(name)}
    assert [n for n in etaforge.__all__ if n != "__version__" and n not in exported] == []


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S: the site hook may import typing itself through .pth files
    code = (
        "import etaforge.cli, sys; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"
