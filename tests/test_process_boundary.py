"""Processes start in ``repro.runtime`` and nowhere else.

Running a join on K processes is one thing: a K-partition run on the
runtime's process or socket transport.  So no module outside
``repro/runtime/`` may import :mod:`multiprocessing` or the runtime's
``preferred_context``, and no module of the package may build a process
pool.
"""

from __future__ import annotations

import ast

from tests.test_benchmark_only_modules import PACKAGE, _imported_modules


def _starts_processes(name: str) -> bool:
    """Whether an imported module or name is ``multiprocessing`` or
    ``preferred_context`` (from wherever the runtime exports it)."""
    return name.split(".")[0] == "multiprocessing" or name.endswith(".preferred_context")


def _pool_calls(path) -> list:
    """The line numbers at which ``path`` calls ``<anything>.Pool(...)``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "Pool"
    ]


def test_only_the_runtime_starts_processes_and_nothing_builds_a_pool():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        if not relative.startswith("runtime/"):
            offenders.extend(
                f"{relative} imports {name}"
                for name in sorted(_imported_modules(path))
                if _starts_processes(name)
            )
        offenders.extend(f"{relative}:{line} calls .Pool(" for line in _pool_calls(path))
    assert offenders == []
