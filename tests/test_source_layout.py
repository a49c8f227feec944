"""Source hygiene: a module must not define one top-level name twice, and
the public API lists must agree.

A second definition silently shadows the first, so a duplicated test
function never runs and a duplicated helper hides which one is live.  The
public API is listed in each submodule's `__all__`, in the package imports
and in the package `__all__`; a name that one list keeps after the code is
gone, or that the package exports without a submodule exporting it, is
caught here.

The rule that an integer argument must be of type int lives in one helper,
`_valuetype.check_int`; no other module compares `type(x) is not int`, and
only `modgroup._check_unimodular` tests its entries inline, in one
`type(a) is ... is int` chain, before it calls the helper.

A package module reads every name it imports.  The only exceptions are the
names `campaigns` imports so that the benchmark tracer can patch them where a
campaign would look them up; each must still be a tracer site.

The package is built from plain stdlib types, so importing it (the cold start
of every CLI call) loads neither `dataclasses` nor `typing`, nor `inspect`,
which `dataclasses` pulls in.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import etaforge
from etaforge import campaigns

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


def type_is_not_int_lines(tree: ast.Module) -> list[int]:
    """Lines holding a comparison `type(...) is not int`, either way round."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, pair in zip(node.ops, zip(operands, operands[1:])):
                sides = {ast.unparse(x).partition("(")[0] for x in pair}
                if isinstance(op, ast.IsNot) and sides == {"type", "int"}:
                    lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "path",
    [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "_valuetype.py"],
    ids=lambda path: path.name,
)
def test_only_check_int_compares_a_type_against_int(path):
    assert type_is_not_int_lines(ast.parse(path.read_text(), str(path))) == []


def test_type_is_not_int_finder():
    source = "type(x) is not int\nint is not type(y)\ntype(z) is int\nx is not int"
    assert type_is_not_int_lines(ast.parse(source)) == [1, 2]
    assert type_is_not_int_lines(ast.parse((PACKAGE / "_valuetype.py").read_text())) != []


def inline_int_tests(tree: ast.Module) -> list[str]:
    """The function (or "<module>") around each `type(x) is ... is int`
    comparison, a chain or a single `is`, either way round."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif isinstance(node, ast.Compare) and all(isinstance(op, ast.Is) for op in node.ops):
            operands = [ast.unparse(x) for x in (node.left, *node.comparators)]
            if "int" in operands and any(x.startswith("type(") for x in operands):
                found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_only_check_unimodular_tests_int_types_inline(path):
    allowed = ["_check_unimodular"] if path.name == "modgroup.py" else []
    assert inline_int_tests(ast.parse(path.read_text(), str(path))) == allowed


def test_inline_int_test_finder():
    source = (
        "type(x) is int\ndef f(a, b):\n    if not type(a) is type(b) is int:\n        pass\n"
        "    return int is type(a), type(a) is not int, type(a) is str, a is int\n"
    )
    assert inline_int_tests(ast.parse(source)) == ["<module>", "f", "f"]


def unread_imports(tree: ast.Module) -> list[str]:
    """Names the module imports and never reads, `from __future__` aside."""
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    imported.discard("*")
    return sorted(imported - read)


# campaigns imports these only for benchmarks/tracer.py, which patches them there
TRACER_ONLY_IMPORTS = {
    "campaigns.py": ["dedekind_sum_fast", "jtp_product_side", "jtp_shift_residual"],
}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    unread = unread_imports(ast.parse(path.read_text(), str(path)))
    assert unread == TRACER_ONLY_IMPORTS.get(path.name, [])


def test_tracer_only_imports_are_tracer_sites():
    path = ROOT / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    sites = {(owner, attr) for owner, attr, _ in tracer._SITES}
    assert [n for n in TRACER_ONLY_IMPORTS["campaigns.py"] if (campaigns, n) not in sites] == []


def test_unread_import_finder():
    source = (
        "from __future__ import annotations\nimport os.path\nimport sys as system\n"
        "from math import *\nfrom math import floor as fl, gcd, pi\npi = 3\n"
        "def f():\n    import json\n    return json, gcd, os.path\n"
    )
    assert unread_imports(ast.parse(source)) == ["fl", "pi", "system"]
