"""The value types' contract, whatever their constructor does inside.

``Interval``, ``TPTuple``, ``OverlapRecord``, ``Window``, the lineage
nodes and the runtime's elements (``StreamEvent``, ``Watermark``,
``Tagged``, ``Revision``, ``FinalizedGroup``) each have one constructor
that writes their slots directly (:mod:`repro.values`).  What callers rely on is pinned here: assignment
raises, construction validates, lineage hashes are ``hash((fields…))`` (the
first-occurrence order of ``lineage.builders._dedupe``'s set depends on
nothing else), values pickle and copy, the ``TPTuple(fact, lineage,
interval, p)`` form and ``dataclasses.replace`` work, and ``.interval``
rebuilds the stored bounds as an ``Interval``.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.core.overlap import OverlapGroup, OverlapRecord
from repro.core.windows import Window, WindowClass
from repro.dataflow.revision import Revision, RevisionKind
from repro.lineage import And, LineageError, Not, Or, Var
from repro.relation import TPTuple
from repro.stream.elements import StreamEvent, Tagged, Watermark
from repro.stream.incremental import FinalizedGroup
from repro.temporal import Interval, IntervalError

A, B, C = Var("a1"), Var("b3"), Var("b2")
R = TPTuple(("Ann", "ZAK"), A, Interval(2, 8), 0.7)
S = TPTuple(("hotel1", "ZAK"), B, Interval(4, 6), 0.5)

VALUES = {
    "interval": Interval(2, 8),
    "tptuple": R,
    "record": OverlapRecord(R, S, 4, 6),
    "window": Window(R.fact, S.fact, 4, 6, A, B, WindowClass.OVERLAPPING, 2, 8),
    "var": A,
    "not": Not(B),
    "and": And((A, Not(B))),
    "or": Or((B, C)),
    "event": StreamEvent(R, 3),
    "watermark": Watermark(6.5),
    "tagged": Tagged("left", StreamEvent(R, 3), 1.25, (7, "driver:0")),
    "revision": Revision(RevisionKind.REFINE, R, True),
}
TYPES = {
    "interval": Interval,
    "tptuple": TPTuple,
    "record": OverlapRecord,
    "window": Window,
    "var": Var,
    "not": Not,
    "and": And,
    "or": Or,
    "event": StreamEvent,
    "watermark": Watermark,
    "tagged": Tagged,
    "revision": Revision,
}


@pytest.fixture(params=sorted(VALUES))
def named(request) -> tuple[type, object]:
    return TYPES[request.param], VALUES[request.param]


class TestFrozen:
    def test_every_field_refuses_assignment_and_deletion(self, named):
        _cls, value = named
        for field in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field.name, getattr(value, field.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, field.name)

    @pytest.mark.parametrize(
        ("name", "attribute"),
        [
            ("tptuple", "interval"),
            ("record", "interval"),
            ("window", "interval"),
            ("window", "source_interval"),
        ],
    )
    def test_derived_intervals_refuse_assignment_and_deletion(self, name, attribute):
        value = VALUES[name]
        with pytest.raises(dataclasses.FrozenInstanceError, match=attribute):
            setattr(value, attribute, Interval(1, 2))
        with pytest.raises(dataclasses.FrozenInstanceError, match=attribute):
            delattr(value, attribute)

    def test_names_that_are_not_fields_refuse_assignment(self, named):
        _cls, value = named
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.extra = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del value.extra

    def test_a_built_value_is_exactly_its_type(self, named):
        cls, value = named
        assert type(value) is cls


class TestValidation:
    @pytest.mark.parametrize("bounds", [(5, 5), (6, 5)])
    def test_an_interval_must_hold_a_time_point(self, bounds):
        with pytest.raises(IntervalError):
            Interval(*bounds)

    @pytest.mark.parametrize("bounds", [(5, 5), (8, 2)])
    def test_so_must_a_tuple_built_from_bounds(self, bounds):
        with pytest.raises(IntervalError):
            TPTuple.from_bounds(("x",), A, *bounds)
        with pytest.raises(IntervalError):
            TPTuple(("x",), A, start=bounds[0], end=bounds[1])

    def test_a_tuple_needs_an_interval_or_both_bounds(self):
        with pytest.raises(TypeError):
            TPTuple(("x",), A)
        with pytest.raises(TypeError):
            TPTuple(("x",), A, start=1)

    @pytest.mark.parametrize("node", [And, Or])
    @pytest.mark.parametrize("operands", [(), (A,)])
    def test_and_or_need_two_operands(self, node, operands):
        with pytest.raises(LineageError):
            node(operands)

    def test_an_event_variable_needs_a_name(self):
        with pytest.raises(LineageError):
            Var("")


class TestEqualityAndHash:
    def test_equal_fields_make_equal_values(self, named):
        _cls, value = named
        twin = dataclasses.replace(value)
        assert twin is not value
        assert twin == value
        assert hash(twin) == hash(value)

    def test_lineage_hashes_are_the_hash_of_their_fields(self):
        operands = (A, Not(B))
        assert hash(A) == hash(("a1",))
        assert hash(Not(B)) == hash((B,))
        assert hash(And(operands)) == hash((operands,))
        assert hash(Or(operands)) == hash((operands,))

    def test_nodes_of_different_types_with_equal_fields_differ(self):
        assert And((A, B)) != Or((A, B))

    def test_intervals_still_order_by_start_then_end(self):
        assert sorted([Interval(2, 5), Interval(1, 9), Interval(2, 3)]) == [
            Interval(1, 9),
            Interval(2, 3),
            Interval(2, 5),
        ]


class TestPickleAndCopy:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trips(self, named, protocol):
        cls, value = named
        restored = pickle.loads(pickle.dumps(value, protocol))
        assert type(restored) is cls
        assert restored == value
        assert hash(restored) == hash(value)

    def test_pickling_builds_one_field_getter_per_type(self, monkeypatch):
        import repro.values as values

        calls = []

        def counted(cls):
            calls.append(cls if isinstance(cls, type) else type(cls))
            return dataclasses.fields(cls)

        monkeypatch.setattr(values, "fields", counted)
        monkeypatch.setattr(values, "_FIELD_GETTERS", {})
        batch = [
            Revision(RevisionKind.EMIT, TPTuple((f"f{i}",), And((A, Not(B))), Interval(i, i + 1)))
            for i in range(1000)
        ]
        batch += [Interval(i, i + 2) for i in range(1000)]
        batch += [Watermark(i + 0.5) for i in range(1000)]
        assert pickle.loads(pickle.dumps(batch)) == batch
        assert sorted(calls, key=lambda cls: cls.__name__) == [Interval, Revision, Watermark]

    def test_copy_and_deepcopy(self, named):
        cls, value = named
        for copied in (copy.copy(value), copy.deepcopy(value)):
            assert type(copied) is cls
            assert copied == value


class TestTupleConstructors:
    def test_the_interval_form_stores_the_bounds(self):
        assert (R.fact, R.lineage, R.start, R.end, R.probability) == (
            ("Ann", "ZAK"), A, 2, 8, 0.7,
        )
        assert TPTuple(("x",), A, Interval(1, 3)).probability is None

    def test_the_bounds_factory_builds_the_same_tuple(self):
        assert TPTuple.from_bounds(R.fact, R.lineage, 2, 8, 0.7) == R
        assert TPTuple(R.fact, R.lineage, start=2, end=8, probability=0.7) == R

    def test_rebuilding_around_a_probability(self):
        """The two forms a caller that cannot change uses to set ``p``."""
        replaced = dataclasses.replace(R, probability=0.25)
        rebuilt = TPTuple(R.fact, R.lineage, R.interval, 0.25)
        assert replaced == rebuilt
        assert (replaced.start, replaced.end, replaced.probability) == (2, 8, 0.25)

    def test_rendering_is_unchanged(self):
        assert str(R) == "(Ann, ZAK | a1 | [2,8) | 0.7)"
        assert repr(Interval(2, 8)) == "Interval(2, 8)"


class TestIntervalOnDemand:
    def test_interval_properties_rebuild_the_bounds(self):
        record, window = VALUES["record"], VALUES["window"]
        assert R.interval == Interval(R.start, R.end) == Interval(2, 8)
        assert record.interval == Interval(record.start, record.end) == Interval(4, 6)
        assert window.interval == Interval(4, 6)
        assert window.source_interval == Interval(2, 8)

    def test_a_window_without_a_source_has_no_source_interval(self):
        window = Window(R.fact, None, 2, 8, A, None, WindowClass.UNMATCHED)
        assert window.source_interval is None


class TestRuntimeElements:
    def test_defaults_are_the_dataclass_defaults(self):
        assert StreamEvent(R) == StreamEvent(R, 0)
        assert Tagged("right", Watermark(1)) == Tagged("right", Watermark(1), None, None)
        assert Revision(RevisionKind.EMIT, R).provisional is False

    def test_replace_takes_any_field_by_keyword(self):
        tagged = VALUES["tagged"]
        replaced = dataclasses.replace(tagged, trace=None, ingest_clock=None)
        assert replaced == Tagged("left", StreamEvent(R, 3))
        revision = dataclasses.replace(VALUES["revision"], kind=RevisionKind.RETRACT)
        assert revision == Revision(RevisionKind.RETRACT, R, True)

    def test_a_finalized_group_is_a_frozen_value_over_a_mutable_group(self):
        group = FinalizedGroup(OverlapGroup(R, [OverlapRecord(R, S, 4, 6)]), 0.5, ("ZAK",), 9)
        assert type(group) is FinalizedGroup
        assert FinalizedGroup(OverlapGroup(R), 0.5) == FinalizedGroup(OverlapGroup(R), 0.5, None, 0)
        for field in dataclasses.fields(group):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(group, field.name, getattr(group, field.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            group.extra = 1
        for copied in (
            pickle.loads(pickle.dumps(group)),
            copy.deepcopy(group),
            dataclasses.replace(group, serial=9),
        ):
            assert type(copied) is FinalizedGroup
            assert copied == group
        assert dataclasses.replace(group, serial=10).serial == 10
        # Hashing hashes the fields, as the generated ``__hash__`` always
        # did, and an overlap group is a mutable, unhashable list holder.
        with pytest.raises(TypeError, match="OverlapGroup"):
            hash(group)
