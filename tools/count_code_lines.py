"""Count the lines and the code lines of a Python package, per module and in total.

A code line holds at least one token that is neither a comment nor part
of a docstring (the string that opens a module, class or function body).
Blank lines, comment-only lines and docstring lines are counted as lines
only.  This is the count ROADMAP aim 2 quotes for ``src/dpirls``.

Usage::

    python tools/count_code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/dpirls`` next to this script's directory.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """Return ``(lines, code lines)`` of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parent.parent / "src" / "dpirls"
    package = Path(argv[0]) if argv else default
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"no Python modules in {package}", file=sys.stderr)
        return 1
    total_lines = total_code = 0
    print(f"{'module':<20} {'lines':>6} {'code':>6}")
    for path in modules:
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.name:<20} {lines:>6,} {code:>6,}")
    print(f"{'total':<20} {total_lines:>6,} {total_code:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
