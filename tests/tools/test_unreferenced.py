"""``tools/unreferenced.py``: the scan that keeps unused definitions out of ``src/``.

On a small planted tree, a public definition nothing uses is reported, and
one that code in any scanned tree uses (by name, attribute, import or
identifier string) or the allow-list keeps is not; a package's re-exports,
``__all__`` entries, docstrings, tests and a function's own variable of the
same name are no use.  A stale or unreasoned allow-list entry fails the
run, and the repository itself reports nothing, called as a function and
from the command line.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "unreferenced.py"

PACKAGE_INIT = '''"""A package that re-exports everything."""

from .core import Used, kept, planted, reexported_only

__all__ = ["Used", "kept", "planted", "reexported_only"]
'''

CORE = '''def planted():
    """Nothing calls this."""


def reexported_only():
    """Only the package __init__ imports this."""


def kept():
    """Nothing calls this either, but the allow-list keeps it."""


def by_string():
    """Found through getattr."""


def _private():
    """Private names are never reported."""


class Used:
    def method_called(self):
        pass

    def method_unused(self):
        pass

    def _helper(self):
        pass
'''

CLIENT = '''from repro.core import Used

Used().method_called()
getattr(Used, "by_string")
'''

TEST = '''from repro.core import planted

planted()
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("unreferenced", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def plant(root: Path) -> Path:
    package = root / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(PACKAGE_INIT)
    (package / "core.py").write_text(CORE)
    (root / "examples").mkdir()
    (root / "examples" / "client.py").write_text(CLIENT)
    (root / "tests").mkdir()
    (root / "tests" / "test_core.py").write_text(TEST)
    return root


def test_reports_exactly_the_unused_public_definitions(tmp_path):
    found = load_tool().unreferenced(plant(tmp_path))
    assert found == [
        "repro.core:Used.method_unused",
        "repro.core:kept",
        "repro.core:planted",
        "repro.core:reexported_only",
    ]


@pytest.mark.parametrize("tree", ["src", "benchmarks", "examples", "tools"])
def test_a_use_in_each_scanned_tree_counts(tmp_path, tree):
    root = plant(tmp_path)
    (root / tree).mkdir(exist_ok=True)
    (root / tree / "user.py").write_text("from repro import core\n\ncore.planted()\n")
    assert "repro.core:planted" not in load_tool().unreferenced(root)


def test_a_from_import_outside_a_package_init_is_a_use(tmp_path):
    root = plant(tmp_path)
    (root / "examples" / "importer.py").write_text("from repro.core import reexported_only\n")
    assert "repro.core:reexported_only" not in load_tool().unreferenced(root)


def test_a_docstring_or_all_entry_is_no_use(tmp_path):
    root = plant(tmp_path)
    (root / "examples" / "mentions.py").write_text(
        '"""planted"""\n\n__all__ = ["planted"]\n\n\ndef f():\n    """planted"""\n'
    )
    assert "repro.core:planted" in load_tool().unreferenced(root)


SHADOWS = {
    "parameter": "def f(planted):\n    return planted\n",
    "assignment": "def f():\n    planted = 1\n    return planted\n",
    "loop target": "def f(items):\n    for planted in items:\n        print(planted)\n",
    "comprehension target": "def f(items):\n    return [planted for planted in items]\n",
    "with target": "def f(opened):\n    with opened as planted:\n        return planted\n",
    "import": "def f():\n    import json as planted\n    return planted\n",
    "enclosing function": (
        "def f(planted):\n    def g():\n        return planted\n\n    return g\n"
    ),
    "lambda parameter": "f = lambda planted: planted\n",
}


@pytest.mark.parametrize("binding", sorted(SHADOWS))
def test_a_local_of_the_same_name_is_no_use(tmp_path, binding):
    root = plant(tmp_path)
    (root / "examples" / "shadow.py").write_text(SHADOWS[binding])
    assert "repro.core:planted" in load_tool().unreferenced(root)


@pytest.mark.parametrize(
    "code",
    [
        # The module-level name, read inside a function that binds others.
        "from repro.core import *\n\n\ndef f(other):\n    return planted(other)\n",
        # A default is evaluated in the scope around the function.
        "from repro.core import *\n\n\ndef f(planted=planted):\n    return planted\n",
        # A global declaration makes the store the module's own.
        "def f():\n    global planted\n    planted = 1\n",
        # A function-level import in a package __init__ is a use, not a re-export.
        None,
    ],
    ids=["free", "default", "global", "local import in __init__"],
)
def test_a_name_no_function_binds_is_a_use(tmp_path, code):
    root = plant(tmp_path)
    if code is None:
        package = root / "tools" / "helpers"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(
            "def f():\n    from repro.core import planted\n\n    return planted()\n"
        )
    else:
        (root / "examples" / "user.py").write_text(code)
    assert "repro.core:planted" not in load_tool().unreferenced(root)


def test_allow_listed_definitions_pass_and_the_rest_fail(tmp_path, capsys, monkeypatch):
    tool = load_tool()
    root = plant(tmp_path)
    monkeypatch.setattr(tool, "ALLOWED", {"repro.core:kept": tool.DOCUMENTED})
    assert tool.main([str(root)]) == 1
    out = capsys.readouterr().out
    assert "unreferenced: repro.core:planted" in out
    assert "repro.core:kept" not in out
    assert "by_string" not in out and "method_called" not in out


def test_a_stale_allow_list_entry_fails_the_run(tmp_path, capsys, monkeypatch):
    tool = load_tool()
    root = plant(tmp_path)
    (root / "src" / "repro" / "core.py").write_text("def kept():\n    pass\n")
    (root / "examples" / "client.py").write_text("from repro.core import kept\n")
    monkeypatch.setattr(tool, "ALLOWED", {"repro.core:kept": tool.DOCUMENTED})
    assert tool.main([str(root)]) == 1
    assert "stale allow-list entry: repro.core:kept" in capsys.readouterr().out


def test_an_allow_list_reason_outside_the_fixed_set_fails():
    tool = load_tool()
    assert tool.problems(["repro.core:kept"], {"repro.core:kept": "handy"}) == [
        "unknown reason for repro.core:kept: 'handy'"
    ]


def test_the_repository_reports_nothing(capsys):
    tool = load_tool()
    assert tool.main([str(ROOT)]) == 0, capsys.readouterr().out
    assert set(tool.ALLOWED.values()) <= set(tool.REASONS)


def test_the_command_line_checks_its_own_repository():
    run = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.startswith("0 problem(s);")
