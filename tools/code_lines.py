"""Count the lines of each ``src/savanna`` module: total, and code only.

Run from the root of a checkout:

    python3 tools/code_lines.py
    python3 tools/code_lines.py src/savanna/model.py src/savanna/thresholds.py

A code line holds at least one token that is not a comment, a docstring or
layout (newlines, indentation), so blank lines, comment lines and the lines
of module, class and function docstrings do not count.  A docstring is the
string expression that opens a module, class or function body, as ``ast``
sees it.  One line per file, then the sum:

    module              total   code
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple[int, int]:
    """(total lines, code lines) of Python ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main(argv=None) -> int:
    paths = [Path(a) for a in (sys.argv[1:] if argv is None else argv)]
    if not paths:
        paths = sorted((ROOT / "src" / "savanna").glob("*.py"))
    total = code = 0
    for path in paths:
        t, c = count_lines(path.read_text(encoding="utf-8"))
        total += t
        code += c
        print(f"{path.name:<18} {t:>6} {c:>6}")
    print(f"{'total':<18} {total:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
