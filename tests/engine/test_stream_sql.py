"""Engine integration of streams: SQL STREAM scans, planning, EXPLAIN."""

from __future__ import annotations

import pytest

from repro.core import tp_anti_join, tp_left_outer_join
from repro.datasets import ReplayConfig, stream_def
from repro.engine import (
    CatalogError,
    Engine,
    PlanError,
    StreamScan,
    parse_query,
)
from repro.lineage import canonical


def rows(relation):
    return sorted(
        repr((t.fact, t.start, t.end, str(canonical(t.lineage)))) for t in relation
    )


@pytest.fixture()
def stream_engine(wants_to_visit, hotel_availability):
    engine = Engine()
    engine.register("a", wants_to_visit)
    engine.register("b", hotel_availability)
    engine.register_stream("sa", stream_def(wants_to_visit, ReplayConfig(disorder=3)))
    engine.register_stream(
        "sb", stream_def(hotel_availability, ReplayConfig(disorder=3, seed=1))
    )
    return engine


def test_parser_marks_stream_scans():
    parsed = parse_query(
        "SELECT * FROM STREAM a TP ANTI JOIN STREAM b ON a.Loc = b.Loc"
    )
    assert parsed.left_is_stream and parsed.right_is_stream
    join = parsed.plan
    assert isinstance(join.left, StreamScan) and isinstance(join.right, StreamScan)


def test_parser_still_accepts_plain_relations():
    parsed = parse_query("SELECT * FROM a TP ANTI JOIN b ON a.Loc = b.Loc")
    assert not parsed.left_is_stream and not parsed.right_is_stream


def test_stream_is_a_contextual_keyword():
    # STREAM followed by a keyword is a relation *named* stream, not a marker.
    parsed = parse_query("SELECT * FROM STREAM TP ANTI JOIN b ON Loc = Loc")
    assert not parsed.left_is_stream
    assert parsed.left_relation == "STREAM"
    # A dangling STREAM at the end of the FROM clause is likewise a name.
    bare = parse_query("SELECT * FROM STREAM")
    assert not bare.left_is_stream and bare.left_relation == "STREAM"


def test_continuous_anti_join_matches_batch(
    stream_engine, wants_to_visit, hotel_availability, loc_theta
):
    batch = tp_anti_join(
        wants_to_visit, hotel_availability, loc_theta, compute_probabilities=False
    )
    streamed = stream_engine.execute_sql(
        "SELECT * FROM STREAM sa TP ANTI JOIN STREAM sb ON sa.Loc = sb.Loc",
        compute_probabilities=False,
    )
    assert rows(streamed) == rows(batch)


def test_continuous_left_outer_join_matches_batch_with_probabilities(
    stream_engine, wants_to_visit, hotel_availability, loc_theta
):
    batch = tp_left_outer_join(wants_to_visit, hotel_availability, loc_theta)
    streamed = stream_engine.execute_sql(
        "SELECT * FROM STREAM sa TP LEFT OUTER JOIN STREAM sb ON sa.Loc = sb.Loc"
    )
    by_key = {(t.fact, t.start, t.end): t.probability for t in batch}
    assert len(streamed) == len(batch)
    for t in streamed:
        assert t.probability == pytest.approx(by_key[(t.fact, t.start, t.end)])


def test_where_filter_applies_to_finalized_output(stream_engine):
    result = stream_engine.execute_sql(
        "SELECT * FROM STREAM sa TP ANTI JOIN STREAM sb ON sa.Loc = sb.Loc "
        "WHERE Name = 'Jim'",
        compute_probabilities=False,
    )
    assert result
    assert all(t.fact[0] == "Jim" for t in result)


def test_bare_stream_scan_drains_the_replay(stream_engine, wants_to_visit):
    result = stream_engine.execute_sql(
        "SELECT * FROM STREAM sa", compute_probabilities=False
    )
    assert len(result) == len(wants_to_visit)


def test_mixed_stream_relation_join_is_rejected(stream_engine):
    with pytest.raises(PlanError):
        stream_engine.execute_sql(
            "SELECT * FROM STREAM sa TP ANTI JOIN b ON sa.Loc = b.Loc"
        )


def test_full_outer_join_on_streams_matches_batch(
    stream_engine, wants_to_visit, hotel_availability, loc_theta
):
    # Supported since the reverse-window operators landed: the mirrored
    # maintainer derives the unmatched/negating windows of the right stream.
    from repro.core import tp_full_outer_join

    batch = tp_full_outer_join(
        wants_to_visit, hotel_availability, loc_theta, compute_probabilities=False
    )
    streamed = stream_engine.execute_sql(
        "SELECT * FROM STREAM sa TP FULL OUTER JOIN STREAM sb ON sa.Loc = sb.Loc",
        compute_probabilities=False,
    )
    assert rows(streamed) == rows(batch)


def test_unknown_stream_name_raises_catalog_error(stream_engine):
    with pytest.raises(CatalogError):
        stream_engine.execute_sql("SELECT * FROM STREAM nope")


def test_explain_renders_continuous_plan(stream_engine):
    text = stream_engine.explain_sql(
        "SELECT * FROM STREAM sa TP ANTI JOIN STREAM sb ON sa.Loc = sb.Loc"
    )
    assert "StreamScan(sa)" in text
    assert "DataflowJoin [anti]" in text
    assert "watermark-only, workers=inline" in text
    assert "[continuous] [dataflow 1-node]" in text
    assert "cost" not in text.split("Physical plan:")[1]


def test_registered_continuous_query_round_trips(
    stream_engine, wants_to_visit, hotel_availability, loc_theta
):
    query = stream_engine.continuous_query(
        "monitor", "anti", "sa", "sb", [("Loc", "Loc")]
    )
    assert stream_engine.catalog.lookup_query("monitor") is query
    batch = tp_anti_join(
        wants_to_visit, hotel_availability, loc_theta, compute_probabilities=False
    )
    assert rows(query.run().relation) == rows(batch)
    with pytest.raises(CatalogError):
        stream_engine.continuous_query("monitor", "anti", "sa", "sb", [("Loc", "Loc")])


def test_stream_names_listed(stream_engine):
    assert stream_engine.catalog.stream_names() == ["sa", "sb"]
    assert stream_engine.catalog.is_stream("sa")
    assert not stream_engine.catalog.is_stream("a")


def test_pinned_ta_strategy_on_stream_join_is_rejected(stream_engine):
    with pytest.raises(PlanError):
        stream_engine.execute_sql(
            "SELECT * FROM STREAM sa TP ANTI JOIN STREAM sb ON sa.Loc = sb.Loc USING TA"
        )
    # Pinning NJ is redundant but accurate: continuous execution is NJ.
    result = stream_engine.execute_sql(
        "SELECT * FROM STREAM sa TP ANTI JOIN STREAM sb ON sa.Loc = sb.Loc USING NJ",
        compute_probabilities=False,
    )
    assert result


def test_relation_named_stream_still_works(wants_to_visit):
    engine = Engine()
    engine.register("stream", wants_to_visit)
    result = engine.execute_sql("SELECT * FROM stream", compute_probabilities=False)
    assert len(result) == len(wants_to_visit)
    parsed = parse_query("SELECT * FROM stream TP ANTI JOIN stream ON Loc = Loc")
    assert not parsed.left_is_stream and not parsed.right_is_stream


def test_stream_named_stream_works():
    parsed = parse_query("SELECT * FROM STREAM stream")
    assert parsed.left_is_stream and parsed.left_relation == "stream"
