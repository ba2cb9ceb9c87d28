"""List the public definitions under ``src/repro`` that no code uses.

A definition is a public (no leading underscore) top-level function or
class of a module under ``src/repro``, or a public method of a top-level
class.  It is *referenced* when its name appears in any Python file under
``src/``, ``benchmarks/``, ``examples/`` or ``tools/`` as

* a ``Name`` or an ``Attribute``,
* a name imported by ``from ... import``, except at the top level of a
  package ``__init__.py``, whose imports there are re-exports, or
* an identifier string (a ``getattr`` argument, a lazy-export key), except
  the entries of an ``__all__`` list and docstrings.

A ``Name`` is no use when a function around it binds that name itself —
as a parameter, an assignment, a loop, ``with`` or comprehension target, an
``except ... as``, an import or a nested definition — unless it declares
the name ``global``: there it is the function's own variable, not the
module-level definition.  Tests do not count: a definition only tests use
is not reached by a run, a CLI or the documented API.  Attributes are
matched by name, so a method shares its name with every other attribute of
that name.

Every unreferenced definition must be in :data:`ALLOWED` with one reason
from :data:`REASONS`, and every :data:`ALLOWED` entry must still be
unreferenced.  The tool prints both kinds of mismatch and exits 1 on any.

    python tools/unreferenced.py            # the repository this file is in
    python tools/unreferenced.py ROOT       # another tree of the same layout
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Set, Tuple

#: Where the scanned definitions live, relative to the root.
PACKAGE = Path("src") / "repro"

#: The trees whose code counts as a use.
USERS = ("src", "benchmarks", "examples", "tools")

DOCUMENTED = "documented API"
CLI = "CLI entry point"
REFEREE = "reference tests compare against"
SEAM = "test seam that substitutes a fake"

#: The only reasons an unreferenced definition may stay.
REASONS = (DOCUMENTED, CLI, REFEREE, SEAM)

#: ``module:qualname`` of each definition kept though nothing uses it.
ALLOWED: Dict[str, str] = {
    # Named in ``repro.__all__``.
    "repro.core.joins:tp_inner_join": DOCUMENTED,
    "repro.lineage.builders:var": DOCUMENTED,
    "repro.relation.predicates:PredicateCondition": DOCUMENTED,
    # Taught by the README.
    "repro.dataflow.query:DataflowResult.explain_analyze": DOCUMENTED,
    "repro.engine.catalog:Catalog.lookup_query": DOCUMENTED,
    "repro.obs.collector:RunIntrospection.explain_tuple": DOCUMENTED,
    "repro.recovery.chaos:ChaosInjector": DOCUMENTED,
    "repro.recovery.chaos:random_kill_plan": DOCUMENTED,
    "repro.relation.io:read_relation_csv": DOCUMENTED,
    "repro.relation.io:write_relation_csv": DOCUMENTED,
    "repro.runtime.placement:parse_placement": DOCUMENTED,
    "repro.stream.query:StreamQueryResult.explain_analyze": DOCUMENTED,
    # The window tests classify by definition and compare with the sweeps.
    "repro.core.windows:classify_window": REFEREE,
    # Tests hand a client a socket pair instead of a TCP connection.
    "repro.serve.server:ServeClient.from_socket": SEAM,
}


def module_name(root: Path, path: Path) -> str:
    parts = list(path.relative_to(root / "src").with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def python_files(root: Path, trees: Iterable[str]) -> Iterator[Path]:
    for tree in trees:
        base = root / tree
        if base.is_dir():
            yield from sorted(base.rglob("*.py"))


def definitions(root: Path) -> Iterator[Tuple[str, str]]:
    """``(key, name)`` of every public definition under ``src/repro``."""
    for path in python_files(root, [str(PACKAGE)]):
        module = module_name(root, path)
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{module}:{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not item.name.startswith("_"):
                        yield f"{module}:{node.name}.{item.name}", item.name


def docstring_nodes(tree: ast.AST) -> Set[int]:
    """``id`` of every docstring constant in a parsed module."""
    found: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def all_lists(tree: ast.AST) -> Set[int]:
    """``id`` of every constant inside an ``__all__`` assignment."""
    found: Set[int] = set()
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            found.update(id(c) for c in ast.walk(node) if isinstance(c, ast.Constant))
    return found


#: The nodes that open a function scope.
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def local_bindings(function: ast.AST) -> Set[str]:
    """The names ``function`` binds in its own scope, less its ``global``s."""
    arguments = function.args
    names = {
        argument.arg
        for argument in (
            *arguments.posonlyargs,
            *arguments.args,
            *arguments.kwonlyargs,
            arguments.vararg,
            arguments.kwarg,
        )
        if argument is not None
    }
    declared: Set[str] = set()
    pending = list(function.body) if isinstance(function.body, list) else [function.body]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Global):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.ExceptHandler, ast.MatchAs, ast.MatchStar)) and node.name:
            names.add(node.name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif not isinstance(node, ast.Lambda):
            pending.extend(ast.iter_child_nodes(node))
    return names - declared


def scoped_nodes(
    node: ast.AST, bound: frozenset = frozenset()
) -> Iterator[Tuple[ast.AST, frozenset]]:
    """``node`` and every node under it, with the names their enclosing functions bind.

    A function's decorators, defaults and annotations belong to the scope
    around it; only its body sees its own bindings.
    """
    yield node, bound
    if isinstance(node, FUNCTIONS):
        inner = bound | local_bindings(node)
        body = {id(part) for part in (node.body if isinstance(node.body, list) else [node.body])}
        for part in ast.iter_child_nodes(node):
            yield from scoped_nodes(part, inner if id(part) in body else bound)
    else:
        for child in ast.iter_child_nodes(node):
            yield from scoped_nodes(child, bound)


def used_names(root: Path) -> Set[str]:
    """Every name the code under :data:`USERS` uses."""
    names: Set[str] = set()
    for path in python_files(root, USERS):
        tree = ast.parse(path.read_text(), str(path))
        skipped = docstring_nodes(tree) | all_lists(tree)
        reexports = path.name == "__init__.py"
        for node, bound in scoped_nodes(tree):
            if isinstance(node, ast.Name):
                if node.id not in bound:
                    names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (bound or not reexports):
                # Only a package's module-level imports re-export; one
                # inside a function (whose bindings it joins) is a use.
                names.update(alias.name for alias in node.names)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
                and id(node) not in skipped
            ):
                names.add(node.value)
    return names


def unreferenced(root: Path) -> List[str]:
    """Keys of the public definitions no code under :data:`USERS` uses."""
    used = used_names(root)
    return sorted({key for key, name in definitions(root) if name not in used})


def problems(found: Iterable[str], allowed: Mapping[str, str]) -> List[str]:
    """One line per unlisted definition, stale entry or unknown reason."""
    found = set(found)
    lines = [f"unreferenced: {key}" for key in sorted(found - set(allowed))]
    lines += [f"stale allow-list entry: {key}" for key in sorted(set(allowed) - found)]
    lines += [
        f"unknown reason for {key}: {reason!r}"
        for key, reason in sorted(allowed.items())
        if reason not in REASONS
    ]
    return lines


def main(argv: List[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    lines = problems(unreferenced(root), ALLOWED)
    for line in lines:
        print(line)
    print(f"{len(lines)} problem(s); {len(ALLOWED)} allow-listed definition(s)")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
