"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro import ExecutionOptions, Schema, TPRelation, equi_join_on
from repro.dataflow import DataflowGraph, NodeSpec
from repro.dataflow.compile import compile_graph, source_edges
from repro.lineage import canonical
from repro.relation import EquiJoinCondition
from repro.runtime import run_job


# --------------------------------------------------------------------------- #
# leak gate: a ResourceWarning fails the run
# --------------------------------------------------------------------------- #
#: Every ResourceWarning the session saw, as ``"<test id>: <message>"``.
#: Python emits them only in development mode (``python -X dev``), and
#: pytest's ``-W error::ResourceWarning`` cannot fail a run on one raised in
#: a destructor, so these hooks record them and fail the session instead.
RESOURCE_WARNINGS: list[str] = []


def pytest_warning_recorded(warning_message, when, nodeid, location):
    if issubclass(warning_message.category, ResourceWarning):
        RESOURCE_WARNINGS.append(f"{nodeid or when}: {warning_message.message}")


def pytest_terminal_summary(terminalreporter):
    if RESOURCE_WARNINGS:
        terminalreporter.section("leaked resources")
        for line in RESOURCE_WARNINGS:
            terminalreporter.write_line(line)


def pytest_sessionfinish(session, exitstatus):
    if RESOURCE_WARNINGS and exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


# --------------------------------------------------------------------------- #
# the paper's running example (Fig. 1a)
# --------------------------------------------------------------------------- #
@pytest.fixture()
def wants_to_visit() -> TPRelation:
    """Relation ``a`` (wantsToVisit) of the paper's Fig. 1a."""
    return TPRelation.from_rows(
        Schema.of("Name", "Loc"),
        [
            ("Ann", "ZAK", "a1", 2, 8, 0.7),
            ("Jim", "WEN", "a2", 7, 10, 0.8),
        ],
        name="a",
    )


@pytest.fixture()
def hotel_availability() -> TPRelation:
    """Relation ``b`` (hotelAvailability) of the paper's Fig. 1a."""
    return TPRelation.from_rows(
        Schema.of("Hotel", "Loc"),
        [
            ("hotel3", "SOR", "b1", 1, 4, 0.9),
            ("hotel2", "ZAK", "b2", 5, 8, 0.6),
            ("hotel1", "ZAK", "b3", 4, 6, 0.7),
        ],
        name="b",
    )


@pytest.fixture()
def loc_theta(wants_to_visit, hotel_availability) -> EquiJoinCondition:
    """The paper's join condition θ: a.Loc = b.Loc."""
    return equi_join_on(
        wants_to_visit.schema, hotel_availability.schema, [("Loc", "Loc")]
    )


# --------------------------------------------------------------------------- #
# random relation factory (shared by several test modules)
# --------------------------------------------------------------------------- #
def make_random_relations(
    seed: int,
    left_size: int = 12,
    right_size: int = 12,
    num_keys: int = 3,
    time_span: int = 30,
) -> tuple[TPRelation, TPRelation, EquiJoinCondition]:
    """Build a random but constraint-valid pair of TP relations and a θ.

    Same-fact tuples are laid out on disjoint intervals per key timeline; the
    payload attribute is a serial so facts are unique, which keeps the TP
    constraint trivially satisfied while still exercising multiple tuples per
    join key.
    """
    rng = random.Random(seed)

    def build(prefix: str, size: int) -> TPRelation:
        schema = Schema.of("Key", "Serial")
        rows = []
        for index in range(size):
            key = f"k{rng.randrange(num_keys)}"
            start = rng.randrange(0, time_span)
            end = start + rng.randrange(1, 8)
            probability = round(rng.uniform(0.05, 0.95), 3)
            rows.append((key, f"{prefix}{index}", f"{prefix}{index}", start, end, probability))
        return TPRelation.from_rows(schema, rows, name=prefix)

    left = build("l", left_size)
    right = build("r", right_size)
    theta = equi_join_on(left.schema, right.schema, [("Key", "Key")])
    return left, right, theta


@pytest.fixture()
def random_relation_factory():
    """Fixture exposing :func:`make_random_relations` to tests."""
    return make_random_relations


# --------------------------------------------------------------------------- #
# result comparison helpers
# --------------------------------------------------------------------------- #
def canonical_rows(relation: TPRelation, with_probability: bool = True) -> set[tuple]:
    """A canonical, order-insensitive representation of a join result.

    Lineages are canonicalised (commutative operands sorted) so results that
    differ only in operand order compare equal; probabilities are rounded to
    absorb floating-point noise.
    """
    rows = set()
    for tp_tuple in relation:
        probability = (
            None
            if (not with_probability or tp_tuple.probability is None)
            else round(tp_tuple.probability, 9)
        )
        rows.add(
            (
                tp_tuple.fact,
                tp_tuple.interval.start,
                tp_tuple.interval.end,
                str(canonical(tp_tuple.lineage)),
                probability,
            )
        )
    return rows


def assert_same_result(left: TPRelation, right: TPRelation, with_probability: bool = True) -> None:
    """Assert that two join results contain the same tuples (order-insensitive)."""
    assert canonical_rows(left, with_probability) == canonical_rows(right, with_probability)


# --------------------------------------------------------------------------- #
# stream shards through the graph compiler and the one router
# --------------------------------------------------------------------------- #
SHARD_ON = (("Key", "Key"),)


def shard_specs(
    catalog,
    kind: str = "left_outer",
    options: ExecutionOptions | None = None,
    partitions: int = 1,
):
    """What ``StreamQuery.run`` compiles for a ``kind`` join on ``Key`` of
    the ``l`` / ``r`` streams of ``catalog``: its one-node graph, the
    graph's worker specs and its routing stages."""
    graph = DataflowGraph(
        catalog, [NodeSpec("shard", kind, "l", "r", SHARD_ON, partitions)]
    )
    specs, stages = compile_graph(graph, options or ExecutionOptions())
    return graph, specs, stages


def run_shard_job(
    transport: str,
    catalog,
    options: ExecutionOptions | None = None,
    partitions: int = 2,
    wrap=iter,
    edit=None,
    **collectors,
):
    """Drive the compiled shards of a ``left_outer`` stream query over the
    ``l`` / ``r`` streams of ``catalog`` through the router — what
    ``StreamQuery.run`` does, for tests that need an arbitrary transport,
    element pacing or spec.  ``wrap`` decorates each replay (e.g. a
    throttle); ``edit`` rewrites each compiled spec."""
    options = options or ExecutionOptions()
    graph, specs, stages = shard_specs(catalog, options=options, partitions=partitions)
    if edit is not None:
        specs = [edit(spec) for spec in specs]
    edges = [
        (target, side, wrap(replay))
        for target, side, replay in source_edges(graph, {"shard": 0})
    ]
    return run_job(specs, edges, stages, options, transport, **collectors)
