"""The size count of tools/count_code_lines.py, which ROADMAP aim 2 quotes."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_code_lines.py"
_spec = importlib.util.spec_from_file_location("count_code_lines", _TOOL)
count_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_code_lines)

# Lines 4, 7, 10, 11 and 12 are code: the multi-line string of lines 10-11
# is an assignment, not a docstring.  The rest are docstrings, a comment
# and blank lines.
_SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment


def f(x):
    """Function docstring."""
    # a comment
    text = """a multi-line
string assignment"""
    return math.sqrt(x) + len(text)
'''


def test_count_separates_code_from_docstrings_comments_and_blanks():
    assert count_code_lines.count(_SOURCE) == (12, 5)


def test_main_refuses_a_directory_without_modules(tmp_path, capsys):
    assert count_code_lines.main([str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"no Python modules in {tmp_path}\n"
