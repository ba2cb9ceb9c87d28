"""Convergence harness: settled dataflow output vs. the batch re-run.

The dataflow subsystem's core guarantee is *eventual exactness*: however
early windows were published and however many retraction/refine cycles ran,
once every watermark closes, each node's settled output equals the batch
join re-run over the settled inputs — tuple for tuple, with bitwise-equal
probabilities.  This module makes that checkable:

* :func:`batch_rerun` replays every source stream to a relation (the same
  delivered tuples the graph saw, post lateness-eviction) and evaluates the
  graph bottom-up with the unchanged batch joins of :mod:`repro.core`.
* :func:`assert_converged` compares every node of a
  :class:`~repro.dataflow.query.DataflowResult` against its batch
  counterpart in canonical order, computing probabilities on both sides the
  identical way so equality is exact (``==`` on floats), not approximate.

The check is partition-oblivious by construction: a node with
``NodeSpec.partitions = K`` settles key-disjoint outputs per partition, the
executors merge them in the canonical deterministic order, and the batch
re-run — which never partitions — must produce the identical sequence.  The
same harness therefore gates serial, pipelined and K-way partitioned runs
on every backend.

The harness is used by the randomized/property tests and, through
``assert_converged``, by every test that runs a graph.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from ..core.joins import BATCH_JOINS
from ..lineage import canonical
from ..relation import TPRelation, TPTuple
from ..stream.elements import StreamEvent
from ..stream.operators import theta_from_pairs
from .graph import NodeSpec
from .query import DataflowResult

def drained_relation(stream_def) -> TPRelation:
    """The settled content of a registered stream: one full replay's events.

    This is exactly the tuple set the graph executor delivered (the source's
    lateness eviction applies in both), so the comparison is apples to
    apples even for replays that drop late events.
    """
    tuples = [
        element.tuple
        for element in stream_def.replay()
        if isinstance(element, StreamEvent)
    ]
    return TPRelation(
        stream_def.schema,
        tuples,
        stream_def.events,
        name=stream_def.name,
        check_constraint=False,
    )


def batch_rerun(
    catalog, nodes: Sequence[NodeSpec], compute_probabilities: bool = True
) -> Dict[str, TPRelation]:
    """Evaluate the graph bottom-up with the batch joins of :mod:`repro.core`."""
    relations: Dict[str, TPRelation] = {}
    for spec in nodes:
        for input_name in (spec.left, spec.right):
            if input_name not in relations:
                relations[input_name] = drained_relation(
                    catalog.lookup_stream(input_name)
                )
        left = relations[spec.left]
        right = relations[spec.right]
        theta = theta_from_pairs(left.schema, right.schema, spec.on)
        joined = BATCH_JOINS[spec.kind](left, right, theta, compute_probabilities=False)
        # Rename to the node so downstream schema prefixing matches the graph.
        relations[spec.name] = TPRelation(
            joined.schema,
            joined.tuples,
            joined.events,
            name=spec.name,
            check_constraint=False,
        )
    result = {spec.name: relations[spec.name] for spec in nodes}
    if compute_probabilities:
        result = {name: rel.with_probabilities() for name, rel in result.items()}
    return result


def identity_rows(
    relation_or_tuples: Iterable[TPTuple], with_probability: bool = True
) -> list:
    """Canonically ordered (fact, interval, canonical lineage[, p]) rows."""
    rows = []
    for tp_tuple in sorted(relation_or_tuples, key=TPTuple.key):
        row = (
            tp_tuple.fact,
            tp_tuple.start,
            tp_tuple.end,
            str(canonical(tp_tuple.lineage)),
        )
        if with_probability:
            row += (tp_tuple.probability,)
        rows.append(row)
    return rows


class ConvergenceError(AssertionError):
    """Raised when a settled node output diverges from its batch re-run."""


def assert_converged(
    result: DataflowResult,
    catalog,
    nodes: Sequence[NodeSpec],
    check_probabilities: bool = True,
) -> Dict[str, int]:
    """Check every node of a settled run against the batch re-run.

    Probabilities are recomputed from the lineages on *both* sides with the
    same code path, so the comparison is exact float equality — bitwise, not
    approximate.  Returns the per-node settled cardinality for reporting.

    Raises:
        ConvergenceError: naming the first diverging node.
    """
    batch = batch_rerun(catalog, nodes, compute_probabilities=check_probabilities)
    cardinalities: Dict[str, int] = {}
    for spec in nodes:
        settled = result.nodes[spec.name].relation
        if check_probabilities:
            settled = settled.with_probabilities()
        got = identity_rows(settled, with_probability=check_probabilities)
        want = identity_rows(batch[spec.name], with_probability=check_probabilities)
        if got != want:
            missing = [row for row in want if row not in got]
            spurious = [row for row in got if row not in want]
            raise ConvergenceError(
                f"node {spec.name!r} did not converge to the batch re-run: "
                f"{len(missing)} missing, {len(spurious)} spurious "
                f"(of {len(want)} expected); first missing: "
                f"{missing[0] if missing else None}; first spurious: "
                f"{spurious[0] if spurious else None}"
            )
        cardinalities[spec.name] = len(want)
    return cardinalities
