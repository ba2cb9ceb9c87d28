"""ResultCache: structural tuple identity, with ``TPTuple.key()`` as referee.

The cache is keyed on ``(fact, start, end, lineage)`` instead of the
rendered ``key()`` text; every test here holds it to what a dictionary keyed
on ``key()`` — the previous implementation — would contain.
"""

from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.revision import Revision, RevisionKind
from repro.lineage import Var
from repro.parallel.batch import canonical_order
from repro.relation import TPTuple
from repro.serve import ResultCache
from repro.serve.server import element_from_payload, element_payload
from repro.stream.elements import Watermark
from repro.temporal import Interval


def over_the_wire(element):
    """The element a TCP subscriber rebuilds: equal, never the same objects."""
    return element_from_payload(json.loads(json.dumps(element_payload(element))))


def output_tuple(serial: int, start: int = 0) -> TPTuple:
    """An outer-join-shaped tuple: padded fact, composite lineage."""
    lineage = Var(f"r{serial}") & ~(Var(f"s{serial}") | Var(f"s{serial + 1}"))
    fact = (f"k{serial % 3}", serial, None)
    return TPTuple(fact, lineage, Interval(start, start + 2), 0.25)


def keyed_reference(elements) -> list:
    """The net state under the rendered-text key, in canonical order."""
    entries = {}
    for element in elements:
        if not isinstance(element, Revision):
            continue
        if element.kind is RevisionKind.RETRACT:
            entries.pop(element.tuple.key(), None)
        else:
            entries[element.tuple.key()] = element.tuple
    return canonical_order(list(entries.values()))


def test_retract_after_emit_cancels_across_distinct_equal_objects():
    cache = ResultCache()
    emitted = Revision(RevisionKind.EMIT, output_tuple(1))
    cache.apply(emitted)
    cache.apply(Revision(RevisionKind.EMIT, output_tuple(2)))
    assert len(cache) == 2
    # The retraction is rebuilt from the wire: structurally equal lineage,
    # fact and interval, but no shared object with the emitted tuple.
    retraction = over_the_wire(Revision(RevisionKind.RETRACT, output_tuple(1)))
    assert retraction.tuple is not emitted.tuple
    cache.apply(retraction)
    assert cache.snapshot() == [output_tuple(2)]
    assert cache.retractions_applied == 1
    cache.apply(retraction)  # retracting an absent tuple is a no-op
    assert cache.snapshot() == [output_tuple(2)]


def test_refine_replaces_the_tuple_under_the_same_identity():
    cache = ResultCache()
    cache.apply(Revision(RevisionKind.EMIT, output_tuple(1), provisional=True))
    refined = TPTuple(
        output_tuple(1).fact, output_tuple(1).lineage, output_tuple(1).interval, 0.75
    )
    cache.apply(Revision(RevisionKind.REFINE, refined))
    assert cache.snapshot() == [refined]
    assert cache.snapshot()[0].probability == 0.75
    assert cache.snapshot(settled_only=True) == [refined]
    # Same fact and lineage over another interval is another tuple.
    cache.apply(Revision(RevisionKind.EMIT, output_tuple(1, start=5)))
    assert len(cache) == 2


def test_random_revision_streams_match_the_key_text_reference():
    rng = random.Random(11)
    for _ in range(20):
        live, stream = [], []
        for _step in range(120):
            roll = rng.random()
            if live and roll < 0.3:
                victim = live.pop(rng.randrange(len(live)))
                stream.append(Revision(RevisionKind.RETRACT, victim))
            elif roll < 0.4:
                stream.append(Watermark(float(len(stream))))
            else:
                tp_tuple = output_tuple(rng.randrange(25), start=rng.randrange(3))
                live.append(tp_tuple)
                stream.append(Revision(RevisionKind.EMIT, tp_tuple, provisional=roll > 0.8))
        server_side, client_side = ResultCache(), ResultCache()
        for element in stream:
            server_side.apply(element)
            client_side.apply(over_the_wire(element))
        reference = keyed_reference(stream)
        assert server_side.snapshot() == reference
        assert client_side.snapshot() == reference


def test_snapshot_plus_tail_equals_the_from_start_state():
    stream = [Revision(RevisionKind.EMIT, output_tuple(serial)) for serial in range(12)]
    stream[5:5] = [Revision(RevisionKind.RETRACT, output_tuple(2))]
    stream.append(Revision(RevisionKind.RETRACT, output_tuple(7)))
    from_start = ResultCache()
    for cut in range(len(stream) + 1):
        # A late joiner at ``cut``: the server-side snapshot travels as
        # tuples, the tail as revisions; both are folded into a fresh cache.
        server_side = ResultCache()
        for element in stream[:cut]:
            server_side.apply(element)
        late = ResultCache()
        for tp_tuple in server_side.snapshot():
            late.apply(over_the_wire(Revision(RevisionKind.EMIT, tp_tuple)))
        for element in stream[cut:]:
            late.apply(over_the_wire(element))
        if cut == 0:
            for element in stream:
                from_start.apply(element)
        assert late.snapshot() == from_start.snapshot() == keyed_reference(stream)


class FullScanCache:
    """The settle rule before the heap: every increasing watermark rescans
    the whole state and settles each provisional entry it has passed."""

    def __init__(self) -> None:
        self.entries = {}
        self.last_watermark = float("-inf")

    def apply(self, element) -> None:
        if isinstance(element, Watermark):
            if element.value > self.last_watermark:
                self.last_watermark = element.value
                for key, (tp_tuple, provisional) in self.entries.items():
                    if provisional and tp_tuple.end <= element.value:
                        self.entries[key] = (tp_tuple, False)
        elif element.kind is RevisionKind.RETRACT:
            self.entries.pop(element.tuple.identity(), None)
        else:
            self.entries[element.tuple.identity()] = (element.tuple, element.provisional)

    def snapshot(self, settled_only: bool = False) -> list:
        return canonical_order(
            [t for t, provisional in self.entries.values() if not (settled_only and provisional)]
        )


#: Six tuples over a few ends, so emits, retracts and re-emits collide.
POOL = [output_tuple(serial % 3, start=serial) for serial in range(6)]

steps = st.one_of(
    st.tuples(
        st.sampled_from(tuple(RevisionKind)),
        st.integers(0, len(POOL) - 1),
        st.booleans(),
    ),
    # Non-monotone on purpose: regressions must be ignored.
    st.integers(-1, 10),
)


@settings(max_examples=300)
@given(st.lists(steps, max_size=60))
def test_heap_settle_equals_the_full_scan_rule(sequence):
    cache, reference = ResultCache(), FullScanCache()
    for step in sequence:
        if isinstance(step, int):
            element = Watermark(step)
        else:
            kind, index, provisional = step
            element = Revision(kind, POOL[index], provisional=provisional)
        cache.apply(element)
        reference.apply(element)
        assert cache.snapshot() == reference.snapshot()
        assert cache.snapshot(settled_only=True) == reference.snapshot(settled_only=True)
    assert cache.last_watermark == reference.last_watermark
