"""``repro.columnar`` and ``repro.runtime.wire`` are benchmark-only leaves.

Every run path keeps one state layout (the object window maintainer) and
one socket frame codec (pickle).  The two modules stay only because
tpbench's layer replay times them, so no other module of the package may
import them, and no run may load numpy: a run on every transport gives the
same rows whether numpy is importable or not.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent
LEAVES = ("repro.columnar", "repro.runtime.wire")

RUNS = r"""
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # any import of numpy now raises ImportError

from repro import ExecutionOptions
from repro.datasets import ReplayConfig, stream_def, webkit_pair
from repro.engine import Catalog
from repro.stream import StreamQuery

catalog = Catalog()
for offset, (name, relation) in enumerate(zip("rs", webkit_pair(160, seed=5))):
    catalog.register_stream(name, stream_def(relation, ReplayConfig(disorder=8, seed=5 + offset)))
rows = {}
for transport, partitions in (("threads", 2), ("processes", 2), ("sockets", 2), ("threads", 1)):
    options = ExecutionOptions(
        transport=transport, partitions=partitions, materialize_probabilities=True
    )
    query = StreamQuery(catalog, "full_outer", "r", "s", [("File", "File")], config=options)
    result = query.run(merge_seed=1)
    rows[result.workers] = sorted(map(repr, result.relation.tuples))
print(json.dumps({"numpy": sys.modules.get("numpy") is not None, "rows": rows}))
"""


def _run(mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE.parent) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", RUNS, mode],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_no_run_loads_numpy_and_rows_do_not_depend_on_it():
    loaded = _run("importable")
    assert not loaded["numpy"], "a run imported numpy"
    assert sorted(loaded["rows"]) == ["inline", "processes", "sockets", "threads"]
    assert all(loaded["rows"].values())
    assert len({json.dumps(rows) for rows in loaded["rows"].values()}) == 1
    blocked = _run("blocked")
    assert blocked["rows"] == loaded["rows"]


def _imported_modules(path: Path) -> set:
    """Every absolute module name ``path`` imports, relative imports resolved."""
    package = list(path.relative_to(PACKAGE.parent).parts[:-1])
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_no_module_outside_the_leaves_imports_them():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        if relative.startswith("columnar/") or relative == "runtime/wire.py":
            continue
        for name in _imported_modules(path):
            if any(name == leaf or name.startswith(leaf + ".") for leaf in LEAVES):
                offenders.append(f"{relative} imports {name}")
    assert offenders == []
