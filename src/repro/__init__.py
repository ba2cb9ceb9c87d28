"""repro — Outer and anti joins in temporal-probabilistic databases.

A from-scratch Python reproduction of

    K. Papaioannou, M. Theobald, M. Böhlen.
    "Outer and Anti Joins in Temporal-Probabilistic Databases." ICDE 2019.

The public API re-exports the pieces a typical user needs:

* the data model (:class:`Schema`, :class:`TPTuple`, :class:`TPRelation`,
  :class:`Interval`, join conditions),
* the TP join operators built on generalized lineage-aware temporal windows
  (:func:`tp_left_outer_join`, :func:`tp_anti_join`, ...),
* the window-level entry points used by the benchmarks (:func:`nj_wuo`,
  :func:`nj_wuon`, :func:`nj_wn`),
* the baselines (Temporal Alignment and the naive oracle),
* the synthetic dataset generators standing in for the paper's WebKit and
  MeteoSwiss workloads, and
* the SQL-ish query engine front end (:func:`repro.engine.execute_sql`).

Quickstart::

    from repro import Schema, TPRelation, equi_join_on, tp_left_outer_join

    a = TPRelation.from_rows(
        Schema.of("Name", "Loc"),
        [
            ("Ann", "ZAK", "a1", 2, 8, 0.7),
            ("Jim", "WEN", "a2", 7, 10, 0.8),
        ],
        name="a",
    )
    b = TPRelation.from_rows(
        Schema.of("Hotel", "Loc"),
        [
            ("hotel3", "SOR", "b1", 1, 4, 0.9),
            ("hotel2", "ZAK", "b2", 5, 8, 0.6),
            ("hotel1", "ZAK", "b3", 4, 6, 0.7),
        ],
        name="b",
    )
    theta = equi_join_on(a.schema, b.schema, [("Loc", "Loc")])
    print(tp_left_outer_join(a, b, theta).pretty())
"""

from .baselines import (
    naive_anti_join,
    naive_full_outer_join,
    naive_left_outer_join,
    naive_windows,
    ta_anti_join,
    ta_full_outer_join,
    ta_left_outer_join,
    ta_wuo,
    ta_wuon,
)
from .core import (
    Window,
    WindowClass,
    WindowSet,
    compute_windows,
    nj_wn,
    nj_wuo,
    nj_wuon,
    tp_anti_join,
    tp_full_outer_join,
    tp_inner_join,
    tp_left_outer_join,
    tp_right_outer_join,
)
from .lineage import (
    EventSpace,
    LineageExpr,
    MonteCarloEstimator,
    ProbabilityComputer,
    probability,
    var,
)
from .dataflow import DataflowQuery, NodeSpec, Revision, RevisionKind
from .options import ExecutionOptions
from .parallel import parallel_tp_join
from .recovery import RecoveryEvent
from .relation import (
    EquiJoinCondition,
    PredicateCondition,
    Schema,
    TPRelation,
    TPTuple,
    ThetaCondition,
    TrueCondition,
    equi_join_on,
)
from .stream import (
    ContinuousJoin,
    StreamDef,
    StreamQuery,
    StreamSource,
)
from .temporal import Interval

__version__ = "1.0.0"

__all__ = [
    "ContinuousJoin",
    "DataflowQuery",
    "EquiJoinCondition",
    "EventSpace",
    "ExecutionOptions",
    "Interval",
    "NodeSpec",
    "Revision",
    "RevisionKind",
    "LineageExpr",
    "MonteCarloEstimator",
    "PredicateCondition",
    "ProbabilityComputer",
    "RecoveryEvent",
    "Schema",
    "StreamDef",
    "StreamQuery",
    "StreamSource",
    "TPRelation",
    "TPTuple",
    "ThetaCondition",
    "TrueCondition",
    "Window",
    "WindowClass",
    "WindowSet",
    "compute_windows",
    "equi_join_on",
    "naive_anti_join",
    "naive_full_outer_join",
    "naive_left_outer_join",
    "naive_windows",
    "nj_wn",
    "nj_wuo",
    "nj_wuon",
    "parallel_tp_join",
    "probability",
    "ta_anti_join",
    "ta_full_outer_join",
    "ta_left_outer_join",
    "ta_wuo",
    "ta_wuon",
    "tp_anti_join",
    "tp_full_outer_join",
    "tp_inner_join",
    "tp_left_outer_join",
    "tp_right_outer_join",
    "var",
    "__version__",
]
