"""Structural subplan hashing and the reference-counted subplan registry.

Two standing queries that join the same streams the same way should pay the
Table-II join cost once.  The registry makes that sharing *structural*: a
node's identity is the recursive key of what it computes —

    ("node", kind, left_key, right_key, θ, partitions)

where an input key is ``("stream", name)`` for a catalogued stream and the
producing node's own structural key otherwise.  Node *names* never enter the
key, so two graphs that spell the same plan with different names collapse
onto one entry — and so do structurally identical siblings *within* one
graph (common-subexpression elimination falls out for free).

Each distinct key owns one reference-counted :class:`SubplanEntry` holding a
*canonical* :class:`~repro.dataflow.NodeSpec` whose inputs are themselves
canonical names.  A plan group (:mod:`repro.serve.registry`) executes the
entries' specs directly: overlapping standing queries become one merged
:class:`~repro.dataflow.DataflowGraph` in which every shared subplan is one
physical operator set — same workers, same channels, same probability
computers, one per maintainer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from ..dataflow.graph import DataflowGraph, NodeSpec

#: A structural key: nested tuples of primitives, hashable and order-stable.
StructuralKey = Tuple


def graph_structural_keys(graph: DataflowGraph) -> Dict[str, StructuralKey]:
    """Structural key of every node of ``graph``, keyed by node name.

    One pass in topological order: a node's key embeds its inputs' keys, and
    inputs always precede uses, so each key is computed exactly once.
    """
    keys: Dict[str, StructuralKey] = {}
    for spec in graph.nodes:
        left = keys.get(spec.left, ("stream", spec.left))
        right = keys.get(spec.right, ("stream", spec.right))
        keys[spec.name] = (
            "node",
            spec.kind,
            left,
            right,
            tuple(spec.on),
            spec.partitions,
        )
    return keys


@dataclass
class SubplanEntry:
    """One distinct subplan: canonical spec plus its reference count."""

    key: StructuralKey
    name: str
    spec: NodeSpec
    refcount: int = 0


class SubplanRegistry:
    """Reference-counted registry of structurally distinct subplans.

    ``acquire`` interns every node of a query graph and returns the
    node-name → canonical-name mapping; ``release`` is its exact inverse.
    Entries are kept in first-acquisition order, which is a valid
    topological order of the merged plan: each graph is topological and a
    node's inputs are interned before the node itself.

    Args:
        catalog: optional; when given, canonical names are additionally
            checked against registered stream names (the same clash rule
            :class:`~repro.dataflow.DataflowGraph` enforces).
    """

    def __init__(self, catalog=None) -> None:
        self._catalog = catalog
        self._by_key: Dict[StructuralKey, SubplanEntry] = {}
        self._order: List[StructuralKey] = []
        self._names: Set[str] = set()

    def __len__(self) -> int:
        return len(self._by_key)

    def acquire(self, graph: DataflowGraph) -> Dict[str, str]:
        """Intern every node of ``graph``; returns name → canonical name."""
        keys = graph_structural_keys(graph)
        mapping: Dict[str, str] = {}
        for spec in graph.nodes:
            key = keys[spec.name]
            entry = self._by_key.get(key)
            if entry is None:
                name = self._fresh_name(spec.name)
                entry = SubplanEntry(
                    key=key,
                    name=name,
                    spec=NodeSpec(
                        name=name,
                        kind=spec.kind,
                        left=mapping.get(spec.left, spec.left),
                        right=mapping.get(spec.right, spec.right),
                        on=tuple(spec.on),
                        partitions=spec.partitions,
                    ),
                )
                self._by_key[key] = entry
                self._order.append(key)
                self._names.add(name)
            entry.refcount += 1
            mapping[spec.name] = entry.name
        return mapping

    def release(self, graph: DataflowGraph) -> None:
        """Drop one reference per node of ``graph``; removes dead entries."""
        keys = graph_structural_keys(graph)
        for spec in graph.nodes:
            entry = self._by_key.get(keys[spec.name])
            if entry is None:
                continue
            entry.refcount -= 1
            if entry.refcount <= 0:
                del self._by_key[entry.key]
                self._order.remove(entry.key)
                self._names.discard(entry.name)

    def _fresh_name(self, base: str) -> str:
        candidate = base
        suffix = 2
        while candidate in self._names or (
            self._catalog is not None
            and hasattr(self._catalog, "is_stream")
            and self._catalog.is_stream(candidate)
        ):
            candidate = f"{base}~{suffix}"
            suffix += 1
        return candidate

    # ------------------------------------------------------------------ #
    # plan assembly and sharing queries
    # ------------------------------------------------------------------ #
    def plan_nodes(self, canonical_names: Iterable[str]) -> List[NodeSpec]:
        """The canonical specs of ``canonical_names``, in topological order."""
        wanted = set(canonical_names)
        return [
            self._by_key[key].spec
            for key in self._order
            if self._by_key[key].name in wanted
        ]

    def shared_names(self) -> Set[str]:
        """Canonical names referenced more than once — the ``[shared]`` set."""
        return {
            entry.name for entry in self._by_key.values() if entry.refcount > 1
        }
