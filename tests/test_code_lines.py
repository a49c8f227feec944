"""`tools/code_lines.py`, the code-line count the ROADMAP quotes: lines that
hold a token, leaving out comments, blank lines and docstrings."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

import os  # a trailing comment


def f(x):
    """A one-line docstring."""
    # a comment on its own line
    return os.path.join(
        x, "y")
'''


def test_code_lines_count_tokens_outside_comments_blanks_and_docstrings():
    # import, def, and the call split over two lines
    assert code_lines.code_lines(SNIPPET) == 4
