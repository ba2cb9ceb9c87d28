"""Fan-out hub: cursors, eviction, and the three slow-subscriber policies.

The satellite coverage this PR promised: one fast and one stalled
subscriber under each policy, asserting settled revisions are never
dropped and cursors never regress.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time

import pytest

from repro.lineage import Var
from repro.relation import TPTuple
from repro.serve import END_OF_STREAM, FanoutHub, SlowSubscriberDisconnected
from repro.serve.hub import droppable
from repro.dataflow.revision import Revision, RevisionKind
from repro.stream.elements import Watermark
from repro.temporal import Interval


def revision(serial: int, kind=RevisionKind.EMIT, provisional=False) -> Revision:
    tp_tuple = TPTuple((f"k{serial}", f"s{serial}"), Var(f"e{serial}"), Interval(0, 1), 0.5)
    return Revision(kind, tp_tuple, provisional=provisional)


def drain(subscription) -> list:
    items = []
    while True:
        item = subscription.read(timeout=5.0)
        assert item is not None, "unexpected read timeout"
        if item is END_OF_STREAM:
            return items
        items.append(item)


def test_fanout_delivers_every_element_to_every_subscriber():
    hub = FanoutHub(capacity=16)
    first = hub.attach()
    second = hub.attach()
    elements = [revision(index) for index in range(10)]
    for element in elements:
        assert hub.publish(element)
    hub.close()
    assert drain(first) == elements
    assert drain(second) == elements


def test_late_attach_sees_only_the_tail():
    hub = FanoutHub(capacity=16)
    early = hub.attach()
    hub.publish(revision(0))
    hub.publish(revision(1))
    late = hub.attach()
    hub.publish(revision(2))
    hub.close()
    assert len(drain(early)) == 3
    assert drain(late) == [revision(2)]


def test_shared_ring_retires_entries_consumed_by_all():
    hub = FanoutHub(capacity=16)
    first = hub.attach()
    second = hub.attach()
    for index in range(8):
        hub.publish(revision(index))
    assert hub.ring_size() == 8
    for _ in range(8):
        first.read(timeout=1.0)
    # first consumed everything, second nothing: all entries still retained.
    assert hub.ring_size() == 8
    for _ in range(5):
        second.read(timeout=1.0)
    assert hub.ring_size() == 3


def test_detached_subscriber_releases_its_entries():
    hub = FanoutHub(capacity=16)
    fast = hub.attach()
    slow = hub.attach()
    for index in range(6):
        hub.publish(revision(index))
    for _ in range(6):
        fast.read(timeout=1.0)
    assert hub.ring_size() == 6
    slow.close()
    assert hub.ring_size() == 0
    with pytest.raises(ValueError):
        slow.read(timeout=0.1)


def test_block_policy_backpressures_and_loses_nothing():
    hub = FanoutHub(capacity=4, policy="block")
    fast = hub.attach()
    stalled = hub.attach()
    elements = [revision(index, provisional=index % 2 == 0) for index in range(12)]
    received_fast = []
    cursors_fast = []
    fast_done = threading.Event()

    def fast_consumer():
        while True:
            item = fast.read(timeout=10.0)
            if item is END_OF_STREAM:
                break
            received_fast.append(item)
            cursors_fast.append(fast.cursor)
        fast_done.set()

    def publisher():
        for element in elements:
            hub.publish(element)
        hub.close()

    threading.Thread(target=fast_consumer, daemon=True).start()
    threading.Thread(target=publisher, daemon=True).start()
    # The stalled subscriber pins the ring at 4 entries, so the publisher is
    # guaranteed to park on the 5th element.  Wait for that, then catch up.
    deadline = time.monotonic() + 10.0
    while hub.publish_blocks == 0 and time.monotonic() < deadline:
        time.sleep(0.005)
    assert hub.publish_blocks > 0
    received_stalled = drain(stalled)
    assert fast_done.wait(timeout=10.0)
    # Nothing was dropped for either subscriber, order preserved end to end.
    assert received_fast == elements
    assert received_stalled == elements
    assert cursors_fast == sorted(cursors_fast)
    assert hub.dropped_provisional == 0


def test_drop_provisional_drops_only_droppables_and_keeps_order():
    hub = FanoutHub(capacity=4, policy="drop_provisional")
    fast = hub.attach()
    stalled = hub.attach()
    settled = [revision(index, provisional=False) for index in range(4)]
    provisionals = [revision(100 + index, provisional=True) for index in range(5)]
    # s0 p0 s1 p1 s2 p2 s3 p3 p4 against capacity 4 with a fully stalled
    # subscriber: provisionals are evicted (or dropped on arrival) to make
    # room, settled revisions always find space — no publish ever blocks.
    sequence = [
        settled[0], provisionals[0], settled[1], provisionals[1],
        settled[2], provisionals[2], settled[3], provisionals[3], provisionals[4],
    ]
    for element in sequence:
        hub.publish(element)
    hub.close()
    assert hub.dropped_provisional > 0
    stalled_before = stalled.cursor
    stalled_items = drain(stalled)
    # Every settled revision survived for the stalled laggard, in order.
    assert [r for r in stalled_items if not droppable(r)] == settled
    assert stalled.cursor >= stalled_before
    # The fast subscriber (reading after the fact) sees the same settled set.
    fast_items = drain(fast)
    assert [r for r in fast_items if not droppable(r)] == settled


def test_drop_provisional_never_drops_watermark_only_progress_to_cache():
    # Watermarks are droppable; dropping one must not lose cache progress.
    from repro.serve import ResultCache

    hub = FanoutHub(capacity=1, policy="drop_provisional")
    cache = ResultCache()
    stalled = hub.attach()
    hub.publish(revision(0), update=cache.apply)  # fills the ring
    hub.publish(Watermark(7.0), update=cache.apply)  # dropped, cache still sees it
    assert cache.last_watermark == 7.0
    assert hub.dropped_provisional == 1
    assert stalled.cursor == 0


def test_disconnect_policy_cuts_the_slowest_and_keeps_the_fast_stream_exact():
    hub = FanoutHub(capacity=4, policy="disconnect")
    fast = hub.attach()
    stalled = hub.attach()
    elements = [revision(index) for index in range(12)]
    received = []
    # Lock-step: the fast subscriber consumes each element as published, so
    # it is deterministically ahead when the ring fills and the stalled one
    # (pinned at cursor 0) is unambiguously the slowest.
    for element in elements:
        assert hub.publish(element)
        received.append(fast.read(timeout=1.0))
    hub.close()
    assert fast.read(timeout=1.0) is END_OF_STREAM
    assert received == elements  # the fast subscriber lost nothing
    assert hub.disconnects == 1
    with pytest.raises(SlowSubscriberDisconnected):
        stalled.read(timeout=1.0)


def test_publish_without_subscribers_updates_cache_only():
    from repro.serve import ResultCache

    hub = FanoutHub(capacity=4)
    cache = ResultCache()
    assert not hub.publish(revision(0), update=cache.apply)
    assert len(cache) == 1
    assert hub.ring_size() == 0


def test_close_unblocks_a_parked_publisher():
    hub = FanoutHub(capacity=1, policy="block")
    hub.attach()  # never reads
    hub.publish(revision(0))
    result = {}

    def publisher():
        result["delivered"] = hub.publish(revision(1))

    thread = threading.Thread(target=publisher, daemon=True)
    thread.start()
    thread.join(timeout=0.2)
    assert thread.is_alive()  # parked on the full ring
    hub.close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert result["delivered"] is False


def test_snapshot_fn_runs_atomically_with_cursor_placement():
    from repro.serve import ResultCache

    hub = FanoutHub(capacity=16)
    cache = ResultCache()
    reader = hub.attach()
    for index in range(4):
        hub.publish(revision(index), update=cache.apply)
    late = hub.attach(snapshot_fn=cache.snapshot)
    hub.publish(revision(4), update=cache.apply)
    hub.close()
    assert len(late.snapshot) == 4
    assert drain(late) == [revision(4)]
    assert len(drain(reader)) == 5


# --------------------------------------------------------------------------- #
# batch delivery: read_batch is the one take path (read = a batch of one)
# --------------------------------------------------------------------------- #
def drain_batches(subscription, limits) -> list:
    """Drain through ``read_batch``, cycling ``limits``; returns the batches."""
    batches = []
    for limit in itertools.cycle(limits):
        batch = subscription.read_batch(limit, timeout=5.0)
        if batch is END_OF_STREAM:
            return batches
        assert batch, "unexpected read timeout"
        assert len(batch) <= limit
        batches.append(batch)


def test_read_batch_cursors_are_monotone_and_gap_free_across_mixed_limits():
    hub = FanoutHub(capacity=64)
    reader = hub.attach()
    other = hub.attach()  # pins the ring so positions past the head are exercised
    elements = [revision(index) for index in range(40)]
    for element in elements:
        hub.publish(element)
    hub.close()
    received, cursors = [], [reader.cursor]
    for limit in itertools.cycle((1, 7, 3, 64, 2)):
        batch = reader.read_batch(limit, timeout=1.0)
        if batch is END_OF_STREAM:
            break
        received.extend(batch)
        cursors.append(reader.cursor)
        # Gap-free: the cursor moved by exactly what the batch returned.
        assert cursors[-1] - cursors[-2] == len(batch) <= limit
    assert received == elements
    assert cursors[-1] == 40
    assert hub.ring_size() == 40  # ``other`` has read nothing
    assert [item for batch in drain_batches(other, (64,)) for item in batch] == elements
    assert hub.ring_size() == 0
    metrics = hub.metrics()
    assert metrics["elements_read"] == 80
    reader_batches = len(cursors) - 1
    assert metrics["read_batches"] == reader_batches + 1  # ``other`` took one
    with pytest.raises(ValueError, match="limit"):
        reader.read_batch(0)


def test_batch_reader_behind_a_mid_ring_eviction_sees_settled_exactly_once():
    hub = FanoutHub(capacity=6, policy="drop_provisional")
    reader = hub.attach()
    # s0 p s1 p s2 p fills the ring; reading two moves the cursor inside it.
    for index in range(3):
        hub.publish(revision(index))
        hub.publish(revision(100 + index, provisional=True))
    assert reader.read_batch(2) == [revision(0), revision(100, provisional=True)]
    laggard = hub.attach()  # keeps nothing: attached at the tail
    # Four more settled revisions against a full ring evict the provisionals
    # *ahead of* the reader's cursor, leaving non-contiguous sequences
    # (2, 4, 6, ...) and a cursor (3) that points into a gap.
    for index in range(3, 7):
        assert hub.publish(revision(index))
    hub.close()
    assert hub.dropped_provisional == 2
    tail = [item for batch in drain_batches(reader, (2, 1, 3)) for item in batch]
    assert tail == [revision(index) for index in range(1, 7)]
    assert drain(laggard) == [revision(index) for index in range(3, 7)]


def test_disconnect_raises_on_the_next_read_batch():
    hub = FanoutHub(capacity=2, policy="disconnect")
    fast = hub.attach()
    stalled = hub.attach()
    hub.publish(revision(0))
    assert stalled.read_batch(8) == fast.read_batch(8) == [revision(0)]
    for index in (1, 2):
        hub.publish(revision(index))
        assert fast.read_batch(8) == [revision(index)]
    hub.publish(revision(3))  # the ring is full of entries only ``stalled`` holds
    assert hub.disconnects == 1
    with pytest.raises(SlowSubscriberDisconnected):
        stalled.read_batch(8, waker=lambda: None)
    assert fast.read_batch(8) == [revision(3)]


def test_an_armed_waker_fires_once_on_publish_close_and_detach():
    hub = FanoutHub(capacity=8)
    reader = hub.attach()
    leaver = hub.attach()
    woken = []
    assert reader.read_batch(8, waker=lambda: woken.append("reader")) == []
    assert leaver.read_batch(8, waker=lambda: woken.append("leaver")) == []
    leaver.close()
    # The leaver's pump wakes to find itself detached; waking the bystander
    # too is allowed (it reads nothing and re-arms), losing a wake-up is not.
    assert sorted(woken) == ["leaver", "reader"]
    with pytest.raises(ValueError):
        leaver.read_batch(8, waker=lambda: woken.append("leaver again"))
    woken.clear()
    assert reader.read_batch(8, waker=lambda: woken.append("reader")) == []
    hub.publish(revision(0))
    hub.publish(revision(1))  # nothing is armed any more: no second call
    assert woken == ["reader"]
    assert reader.read_batch(8) == [revision(0), revision(1)]
    assert reader.read_batch(8, waker=lambda: woken.append("reader at end")) == []
    hub.close()
    assert woken == ["reader", "reader at end"]
    assert reader.read_batch(8, waker=lambda: woken.append("never")) is END_OF_STREAM
    assert woken == ["reader", "reader at end"]


def test_late_joiner_snapshot_plus_batched_tail_equals_from_start_state():
    from repro.serve import ResultCache

    hub = FanoutHub(capacity=64)
    cache = ResultCache()
    from_start = hub.attach()
    stream = []
    for index in range(30):
        stream.append(revision(index, provisional=index % 3 == 0))
        if index % 4 == 3:  # retract-after-emit of an earlier tuple
            stream.append(revision(index - 2, kind=RevisionKind.RETRACT))
        if index % 5 == 4:
            stream.append(Watermark(float(index)))
    late = None
    for position, element in enumerate(stream):
        if position == len(stream) // 2:
            late = hub.attach(snapshot_fn=cache.snapshot)
        hub.publish(element, update=cache.apply)
    hub.close()
    from_start_cache = ResultCache()
    for batch in drain_batches(from_start, (5, 64)):
        for element in batch:
            from_start_cache.apply(element)
    late_cache = ResultCache()
    for tp_tuple in late.snapshot:
        late_cache.apply(Revision(RevisionKind.EMIT, tp_tuple))
    for batch in drain_batches(late, (3, 1, 8)):
        for element in batch:
            late_cache.apply(element)
    assert late_cache.snapshot() == from_start_cache.snapshot() == cache.snapshot()
    assert 0 < len(cache) < 30  # the retractions removed tuples, not all of them
    retracted = revision(1).tuple
    assert retracted not in cache.snapshot()


def test_traced_sequences_get_one_cursor_advance_span_per_subscriber():
    from repro.obs.trace import Tracer, TraceSampler

    hub = FanoutHub(capacity=64, tracer=Tracer("hub/test"), sampler=TraceSampler(0.25))
    one = hub.attach()
    two = hub.attach()
    for index in range(20):
        hub.publish(revision(index))
    hub.close()
    drain_batches(one, (64,))  # one batch over every traced sequence
    drain_batches(two, (1, 6))
    spans = hub.trace_spans()
    published = [span["seq"] for span in spans if span["name"] == "hub_publish"]
    assert len(published) == 5
    for subscription in (one, two):
        advanced = [
            span["seq"]
            for span in spans
            if span["name"] == "cursor_advance" and span["subscriber"] == subscription.id
        ]
        assert advanced == published


def publish_in_batches(hub, items, size: int, update=None) -> None:
    """Publish ``items`` in order, ``size`` per ``publish_all`` (a plain
    ``publish`` each for a size of 1)."""
    for start in range(0, len(items), size):
        if size == 1:
            hub.publish(items[start], update)
        else:
            hub.publish_all(items[start:start + size], update)


@pytest.mark.parametrize("size", (1, 5))
def test_no_wakeup_is_lost_when_publish_races_the_arm(size):
    # The pump protocol: read without blocking; on [] the waker is armed
    # under the hub lock and the reader sleeps until it fires.  A publish
    # that lands between "found nothing" and "armed" would strand the
    # reader, so every wait carries a deadline: a hang fails, not times out.
    # A batch larger than the ring must wake the reader before it parks.

    rounds = 1000
    hub = FanoutHub(capacity=4, policy="block")
    reader = hub.attach()
    wake = threading.Event()
    received = []
    stranded = []

    def pump():
        while True:
            batch = reader.read_batch(3, waker=wake.set)
            if batch is END_OF_STREAM:
                return
            if batch:
                received.extend(batch)
            elif wake.wait(timeout=5.0):
                wake.clear()
            else:
                stranded.append(len(received))
                return

    def publisher():
        publish_in_batches(hub, list(range(rounds)), size)
        hub.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=pump, daemon=True)] + [
            threading.Thread(target=publisher, daemon=True)
        ]
        started = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert stranded == [], f"reader stranded after {stranded} elements"
    assert received == list(range(rounds))
    assert time.monotonic() - started < 30.0


@pytest.mark.parametrize("size", (1, 13))
def test_read_encoded_under_contention_encodes_correctly_and_counts_every_read(size):
    # More readers than cores, switching threads as often as possible: each
    # reader must get exactly the bodies of the elements in order, and the
    # per-owner read counters (updated under the hub lock) lose nothing,
    # whether elements come one by one or in batches.
    readers, count = 6, 1500
    hub = FanoutHub(capacity=32)
    subscriptions = [hub.attach(owner=f"q{index % 2}") for index in range(readers)]
    got = [[] for _ in range(readers)]

    def read(index: int) -> None:
        while True:
            batch = subscriptions[index].read_encoded(7, lambda e: repr(e).encode())
            if batch is END_OF_STREAM:
                return
            got[index].extend(batch)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(index,)) for index in range(readers)]
        for thread in threads:
            thread.start()
        elements = [revision(serial) for serial in range(count)]
        publish_in_batches(hub, elements, size)
        hub.close()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch)
    want = [repr(element).encode() for element in elements]
    assert all(bodies == want for bodies in got)
    assert hub.metrics()["elements_read"] == readers * count
    assert hub.metrics(owner="q0")["elements_read"] == readers // 2 * count


# --------------------------------------------------------------------------- #
# publish_all: a batch behaves like the same elements published one by one
# --------------------------------------------------------------------------- #
def hub_counters(hub) -> tuple:
    metrics = hub.metrics()
    return tuple(
        metrics[key]
        for key in ("published", "dropped_provisional", "publish_blocks", "disconnects")
    )


def read_outcome(subscription):
    """What is left for a subscriber: its elements and final cursor, or the
    disconnect it reads."""
    try:
        return drain(subscription), subscription.cursor
    except SlowSubscriberDisconnected:
        return "disconnected"


def policy_run(policy: str, size: int) -> tuple:
    """Two stalled subscribers over a capacity-4 ring with two entries in,
    then seven elements — more than the free space — published ``size`` at
    a time.

    Nobody reads while publishing, so the run is deterministic: under
    ``drop_provisional`` the ring holds room for every settled element by
    evicting or dropping the droppable ones, and under ``disconnect`` the
    full ring cuts the oldest cursor, then the other.
    """
    from repro.serve import ResultCache

    hub = FanoutHub(capacity=4, policy=policy)
    cache = ResultCache()
    first = hub.attach()
    for serial in (0, 1):
        hub.publish(revision(serial), cache.apply)
    second = hub.attach()
    batch = [
        revision(2, provisional=True),
        Watermark(1),
        revision(3),
        revision(4, provisional=True),
        revision(5),
        revision(6, provisional=True),
        Watermark(2),
    ]
    publish_in_batches(hub, batch, size, cache.apply)
    counters = hub_counters(hub)
    ring = hub.ring_size()
    hub.close()
    return (
        counters, ring, cache.snapshot(), cache.last_watermark,
        read_outcome(first), read_outcome(second),
    )


def blocked_run(size: int) -> tuple:
    """A 4-entry ``block`` ring, ten elements published ``size`` at a time:
    the reader drains the whole ring each time the publisher parks on it,
    and only then, so every batch size parks the same number of times."""
    from repro.serve import ResultCache

    hub = FanoutHub(capacity=4, policy="block")
    cache = ResultCache()
    subscription = hub.attach()
    items = [revision(serial, provisional=serial % 3 == 0) for serial in range(9)]
    items.append(Watermark(5))
    publisher = threading.Thread(
        target=publish_in_batches, args=(hub, items, size, cache.apply), daemon=True
    )
    publisher.start()
    received, parked = [], 0
    deadline = time.monotonic() + 10.0
    while publisher.is_alive() and time.monotonic() < deadline:
        # The counter moves under the hub lock right before the publisher
        # parks, and the lock is free again only once it has parked.
        if hub.metrics()["publish_blocks"] > parked:
            parked += 1
            received.extend(subscription.read_batch(hub.capacity, timeout=0))
    publisher.join(timeout=1.0)
    stuck = publisher.is_alive()
    hub.close()  # releases a stuck publisher either way
    assert not stuck
    received.extend(drain(subscription))
    assert received == items
    return hub_counters(hub), cache.snapshot(), cache.last_watermark, subscription.cursor


@pytest.mark.parametrize("policy", ("drop_provisional", "disconnect"))
def test_a_batch_past_the_free_space_acts_like_single_publishes(policy):
    batched = policy_run(policy, size=7)  # the whole batch in one call
    assert batched == policy_run(policy, size=1)
    counters = batched[0]
    if policy == "drop_provisional":
        # Three evicted from the ring, two dropped on arrival; nothing blocked.
        assert counters == (7, 5, 0, 0)
        assert [r.tuple.fact[0] for r in batched[4][0]] == ["k0", "k1", "k3", "k5"]
    else:
        # Both stalled cursors were cut; the last three reached the cache only.
        assert counters == (6, 0, 0, 2)
        assert batched[4:] == ("disconnected", "disconnected")
    assert batched[3] == 2  # every element, dropped or not, updated the cache


def test_a_blocked_batch_parks_like_single_publishes():
    batched = blocked_run(size=10)  # the whole batch in one call
    assert batched == blocked_run(size=1)
    assert batched[0] == (10, 0, 2, 0)  # parked at 4 and at 8 entries


@pytest.mark.parametrize("reader", ("parked", "waker"))
def test_a_batch_wakes_its_readers_before_parking_on_a_full_ring(reader):
    hub = FanoutHub(capacity=4, policy="block")
    subscription = hub.attach()
    received, failures = [], []
    woken = threading.Event()

    def read_parked() -> None:
        # Parks on the hub condition before anything is published.
        received.extend(subscription)

    def read_by_waker() -> None:
        while True:
            woken.clear()
            batch = subscription.read_batch(64, waker=woken.set)
            if batch is END_OF_STREAM:
                return
            if not batch and not woken.wait(timeout=5.0):
                failures.append("the waker never fired")
                return
            received.extend(batch)

    thread = threading.Thread(
        target=read_parked if reader == "parked" else read_by_waker, daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 5.0
    while reader == "parked" and not hub._waiting and time.monotonic() < deadline:
        time.sleep(0.001)
    items = [revision(serial) for serial in range(25)]
    publisher = threading.Thread(target=hub.publish_all, args=(items,), daemon=True)
    publisher.start()
    publisher.join(timeout=10.0)
    deadlocked = publisher.is_alive()
    hub.close()  # releases a deadlocked publisher and reader either way
    thread.join(timeout=10.0)
    assert not deadlocked, "the batch deadlocked on a full ring"
    assert not failures
    assert received == items
    assert hub.publish_blocks > 0
    assert hub.metrics()["publish_batches"] == 1
