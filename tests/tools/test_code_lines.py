"""``tools/code_lines.py``: the counter a deletion reports ``src/`` lines by.

Over one small fixture file, module, class and function docstrings, comment
lines and blank lines do not count, while every line a multi-line
expression touches does, and so does a string that is not a docstring.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

# A comment-only line.
import os  # a trailing comment does not hide the code before it


class Box:
    """Class docstring."""

    size = 1

    def area(self):
        """Function docstring,

        with a blank line inside.
        """
        # Another comment-only line.
        return (
            self.size
            * self.size
        )


async def fetch():
    """Async function docstring."""
    return "a string statement that is not first"


VALUE = """a string that is
not a docstring"""
'''

#: import, class, size, def, the four lines of the return, async def, its
#: return, and the two lines of VALUE.
EXPECTED = 12


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_code_tokens_count(tmp_path):
    source = tmp_path / "fixture.py"
    source.write_text(FIXTURE)
    tool = load_tool()
    assert tool.code_lines(source) == EXPECTED
    # The module, class, method and async function docstrings, nothing else.
    assert tool.docstring_lines(ast.parse(FIXTURE)) == {1, 2, 9, 14, 15, 16, 17, 26}


def test_main_sums_a_directory(tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "one.py").write_text(FIXTURE)
    (package / "two.py").write_text("# only a comment\n\nx = 1\n")
    assert load_tool().main([str(package)]) == 0
    assert capsys.readouterr().out == f"{EXPECTED + 1} code-only lines in {package}\n"
