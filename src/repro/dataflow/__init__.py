"""Retractable multi-way continuous dataflow over TP streams.

Chained lineage-aware operators with revision streams and derived
watermarks — the multi-way, correction-tolerant layer above
:mod:`repro.stream`:

* :mod:`repro.dataflow.revision` — ``Emit`` / ``Retract`` / ``Refine``
  elements, the algebra every dataflow edge carries.
* :mod:`repro.dataflow.operators` — :class:`RevisionJoin`, the retractable
  early-emitting continuous join (all five Table II kinds, reverse windows
  included).
* :mod:`repro.dataflow.graph` — :class:`NodeSpec` / :class:`DataflowGraph`:
  DAG description, validation, schema and watermark topology.
* :mod:`repro.dataflow.executor` — :func:`run_graph`: compiles the graph
  into worker specs, source edges and routing stages for the runtime's one
  router (:func:`repro.runtime.driver.run_job`) and merges the reports per
  node in canonical order.
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
from .executor import (
    ChannelWatermarks,
    GraphRunOutcome,
    route_partition,
    run_graph,
    stage_watermark,
)
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
    "route_partition",
    "run_graph",
    "stage_watermark",
]
