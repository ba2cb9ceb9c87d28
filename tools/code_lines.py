"""Count the code-only lines of a Python tree.

A line counts when it holds at least one token that is neither a comment
nor part of a docstring (the leading string statement of a module, class
or function).  Blank lines, comment-only lines and docstring lines do not
count; a multi-line expression counts every line its tokens touch.

    python tools/code_lines.py            # src/
    python tools/code_lines.py PATH ...   # files or directories
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path
from typing import Iterable, Set

#: Tokens that carry no code of their own.
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def docstring_lines(tree: ast.AST) -> Set[int]:
    """Line numbers covered by the docstrings of a parsed module."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The code-only line count of one source file."""
    source = path.read_bytes()
    docstrings = docstring_lines(ast.parse(source))
    counted: Set[int] = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type in LAYOUT:
                continue
            rows = range(token.start[0], token.end[0] + 1)
            counted.update(row for row in rows if row not in docstrings)
    return len(counted)


def python_files(paths: Iterable[str]) -> Iterable[Path]:
    for name in paths:
        path = Path(name)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def main(argv: Iterable[str]) -> int:
    paths = list(argv) or ["src"]
    total = sum(code_lines(path) for path in python_files(paths))
    print(f"{total} code-only lines in {' '.join(paths)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
