"""Retractable multi-way continuous dataflow over TP streams.

Chained lineage-aware operators with revision streams and derived
watermarks — the multi-way, correction-tolerant layer above
:mod:`repro.stream`:

* :mod:`repro.dataflow.revision` — ``Emit`` / ``Retract`` / ``Refine``
  elements, the algebra every dataflow edge carries.
* :mod:`repro.dataflow.operators` — :class:`RevisionJoin`, the one
  continuous join every node runs (all five Table II kinds, reverse windows
  included), retractable and early-emitting.
* :mod:`repro.dataflow.graph` — :class:`NodeSpec` / :class:`DataflowGraph`:
  DAG description, validation, schema and watermark topology.
* :mod:`repro.dataflow.compile` — the graph compiler: worker specs, routing
  stages and source edges, and whether each node is read and checkpointable.
* :mod:`repro.dataflow.executor` — :func:`run_graph`: hands the compiled
  graph to the runtime's one router (:func:`repro.runtime.driver.run_job`)
  and gathers the reports per node.
* :mod:`repro.dataflow.query` — :class:`DataflowQuery` /
  :class:`DataflowResult`, the registered executable form.
* :mod:`repro.dataflow.convergence` — the batch re-run harness proving
  settled output is tuple-for-tuple (probabilities bitwise) equal to the
  batch joins.
"""

from .convergence import (
    BATCH_JOINS,
    ConvergenceError,
    assert_converged,
    batch_rerun,
    drained_relation,
    identity_rows,
)
from ..runtime import ChannelWatermarks
from .executor import GraphRunOutcome, run_graph
from .graph import DataflowGraph, GraphError, NodeSpec
from .operators import RevisionJoin, RevisionJoinStats
from .query import (
    DataflowQuery,
    DataflowResult,
    MultipleConsumerError,
    NodeResult,
)
from .revision import (
    Revision,
    RevisionElement,
    RevisionKind,
    as_revision,
)

__all__ = [
    "BATCH_JOINS",
    "ChannelWatermarks",
    "ConvergenceError",
    "DataflowGraph",
    "DataflowQuery",
    "DataflowResult",
    "GraphError",
    "GraphRunOutcome",
    "MultipleConsumerError",
    "NodeResult",
    "NodeSpec",
    "Revision",
    "RevisionElement",
    "RevisionJoin",
    "RevisionJoinStats",
    "RevisionKind",
    "as_revision",
    "assert_converged",
    "batch_rerun",
    "drained_relation",
    "identity_rows",
    "run_graph",
]
