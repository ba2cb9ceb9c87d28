"""Early-emitting dashboard over a multi-way continuous join tree.

``meteo_monitoring_live.py`` waits for the watermark before showing an
answer — correct, but the dashboard lags the data by the watermark bound.
This example runs the retractable dataflow variant instead: a 3-way join
tree (``r ⟕ s`` feeding ``(…) ⟖ t``) with **early emission** on, and reads
the ``dashboard`` node the way a dashboard would, through
``query.iter_revisions()``: provisional windows arrive as soon as the events
do and are corrected (retracted / refined) when late readings land.  The
emits, refines and retracts it prints are the ones this reader received.

Provisional windows are published only where something reads them.  The
example then runs the same query with nobody reading the dashboard
(``query.run()``): the ``stable`` node still publishes provisionally, since
the dashboard node reads it, but the unread dashboard derives each group
once, when it closes — its counters read like a watermark-only node's (no
refines, no retracts), while its first-publication latency still says when
each group first had windows.

The example shows

* the compiled multi-join SQL plan with its ``[dataflow 2-node]`` marker,
* the revision traffic the dashboard reader received, and the net state it
  built from it,
* per-node revision traffic of the unread run and the first-publication
  latency that early emission buys,
* and the convergence check: once the final watermark closes everything,
  what the reader holds and the settled output of every node equal the
  batch re-run, probabilities bitwise.

Run with::

    python examples/meteo_dashboard_dataflow.py [size]
"""

from __future__ import annotations

import sys
from collections import Counter

from repro.dataflow import (
    DataflowQuery,
    NodeSpec,
    assert_converged,
    batch_rerun,
    identity_rows,
)
from repro.datasets import ReplayConfig, stream_def
from repro.datasets.generators import generate_relation
from repro.datasets.meteo import meteo_config
from repro.engine import Engine
from repro.lineage import EventSpace
from repro.options import ExecutionOptions
from repro.relation import TPRelation
from repro.stream import Watermark

TREE = [
    NodeSpec("stable", "left_outer", "r", "s", (("Metric", "Metric"),)),
    NodeSpec("dashboard", "right_outer", "stable", "t", (("Metric", "Metric"),)),
]


def main() -> None:
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    events = EventSpace()
    engine = Engine(options=ExecutionOptions(early_emit=True))
    for offset, name in enumerate(("r", "s", "t")):
        relation = generate_relation(meteo_config(size, seed=offset), events, name=name)
        engine.register_stream(
            name, stream_def(relation, ReplayConfig(disorder=8, seed=offset))
        )

    sql = (
        "SELECT * FROM STREAM r TP LEFT OUTER JOIN STREAM s ON r.Metric = s.Metric "
        "TP RIGHT OUTER JOIN STREAM t ON r.Metric = t.Metric"
    )
    print(engine.explain_sql(sql))
    print()

    query: DataflowQuery = engine.dataflow_query("dashboard", TREE)

    # The dashboard: the net state of every revision it received.
    shown: dict = {}
    received: Counter = Counter()
    for element in query.iter_revisions(merge_seed=0):
        if isinstance(element, Watermark):
            received["watermarks"] += 1
            continue
        received[element.kind.value] += 1
        if element.adds:
            shown[element.tuple.identity()] = element.tuple
        else:
            del shown[element.tuple.identity()]
    print(
        f"dashboard reader received  emits={received['emit']:>5}  "
        f"refines={received['refine']:>5}  retracts={received['retract']:>5}  "
        f"watermarks={received['watermarks']}; it shows {len(shown)} rows"
    )
    want = batch_rerun(engine.catalog, TREE)["dashboard"]
    got = TPRelation(want.schema, list(shown.values()), want.events, check_constraint=False)
    if identity_rows(got.with_probabilities()) != identity_rows(want.with_probabilities()):
        raise SystemExit("the dashboard's rows differ from the batch re-run")
    print("the dashboard's rows equal the batch re-run (bitwise probabilities)\n")

    print("the same query with nobody reading the dashboard:")
    result = query.run(merge_seed=0)
    for name, node in result.nodes.items():
        latency = node.latency_summary()
        print(
            f"{name:>10}  settled={len(node.relation):>5}  "
            f"emits={node.stats.emits:>5}  refines={node.stats.refines:>5}  "
            f"retracts={node.stats.retracts:>5} ({node.retraction_rate:.1%})  "
            f"first-publication p50={latency['p50_ms']:.2f}ms"
        )

    cardinalities = assert_converged(result, engine.catalog, TREE)
    print(
        f"\nconverged: every settled node equals its batch re-run "
        f"(bitwise probabilities) — {cardinalities}"
    )


if __name__ == "__main__":
    main()
