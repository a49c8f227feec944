"""Source hygiene: a module must not define one top-level name twice.

A second definition silently shadows the first, so a duplicated test
function never runs and a duplicated helper hides which one is live.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "etaforge").glob("*.py"), *(ROOT / "tests").glob("*.py")])


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
