"""The fan-out hub: one bounded ring, N subscriber cursors.

Delivering a standing query's revision stream to N subscribers by giving
each a private queue copies every element N times and lets one stalled
client buffer without bound.  The hub instead keeps **one** bounded ring of
``(sequence, element)`` entries and gives each subscriber a monotone cursor
into it; an entry is retired once every live cursor has passed it, so the
memory cost of fan-out is one ring plus N integers.  The CPU cost is per
element, not per subscriber: the serving layer keeps one hub per tapped
sink node, so standing queries sharing that sink publish into the same
ring, and a ring entry carries its wire encoding once the first reader that
needs one (:meth:`FanoutHub.read_encoded`) has computed it — every further
TCP pump reuses the bytes, and the encoding goes when the entry does.

When the ring fills — the slowest subscriber is ``capacity`` elements
behind — the configured policy decides, in publisher context:

* ``block`` — the publisher waits for the laggard (backpressure; a worker
  thread stalls, and transitively the sources do too);
* ``drop_provisional`` — *droppable* entries (provisional revisions and
  watermarks) are evicted from the ring, oldest first, and a droppable
  incoming element is discarded when nothing can be evicted.  Settled
  revisions are **never** dropped — subscribers get a best-effort
  provisional view but an exact settled stream, and the materialized cache
  (updated for every element, dropped or not) reconciles snapshots;
* ``disconnect`` — the slowest subscriber is forcibly detached (its next
  read raises :class:`SlowSubscriberDisconnected`; it can re-subscribe and
  recover through a snapshot), freeing its entries.

Cursors never regress: a read only ever advances its cursor past the last
entry it returned.  The unit of delivery is a **batch of whatever the ring
already holds** past the cursor (:meth:`FanoutHub.read_batch`; ``read`` is a
batch of one): a reader that found the ring empty either blocks on the hub
condition or arms a one-shot *waker* callback that the next ``publish`` /
``close`` / disconnect / detach fires — the bridge event loops use instead of
parking a thread per subscriber.

The unit of publication is a batch too: ``publish_all(elements,
update=cache.apply)`` carries a worker's dispatched output list (the serve
tap cuts it before each watermark) in under one lock acquisition and one
wake-up (``publish`` is a batch of one),
yet keeps per-element semantics — the cache update and the ring append of
each element are atomic together, the policy decides per element, and
readers are woken before the publisher parks on a full ring.
``attach(snapshot_fn)`` takes its snapshot under the same lock, which is
what makes a late joiner's snapshot + tail exactly equal to a from-start
subscriber's accumulated state.
"""

from __future__ import annotations

import itertools
import threading
import time
from bisect import bisect_left
from collections import deque
from operator import itemgetter
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from ..dataflow.revision import Revision
from ..stream.elements import Watermark

#: Slow-subscriber policies, in documentation order.
POLICIES = ("block", "drop_provisional", "disconnect")

#: First trace id a hub's sampler hands out.  Hub traces are rooted at the
#: hub (taps strip the per-element context workers propagate), so their id
#: space is offset far above the driver sampler's sequential ids — both
#: land in one TraceAggregator without colliding timelines.
HUB_TRACE_ID_BASE = 1_000_000

#: How many recently published traced sequences a hub remembers, so a
#: subscriber's cursor advance can be attributed to its publish span.
_TRACED_SEQ_LIMIT = 64

#: Most elements one delivery batch takes from the ring (subscription
#: iteration and the TCP pump).  There is no linger timer: a batch is what
#: the ring holds when the reader looks, so an idle stream still delivers
#: element by element and a busy one amortises the lock, the wake-up and the
#: socket write over up to this many.
DELIVERY_BATCH = 64

_SEQUENCE = itemgetter(0)


class _EndOfStream:
    """Sentinel a drained, closed hub returns from its read methods."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "END_OF_STREAM"


#: Returned by ``read``/``read_batch`` when the hub is closed and drained.
END_OF_STREAM = _EndOfStream()


class SlowSubscriberDisconnected(RuntimeError):
    """This subscriber fell ``capacity`` behind under the disconnect policy.

    The subscription is dead; the client re-subscribes and recovers the
    missed settled state through the standing query's snapshot.
    """


def droppable(item: Any) -> bool:
    """Whether the ``drop_provisional`` policy may discard this element.

    Provisional revisions are best-effort by definition; watermarks are
    monotone promises superseded by any later one (and end-of-stream is
    signalled by hub closure, not by a final watermark).  Settled revisions
    are never droppable.
    """
    if isinstance(item, Revision):
        return item.provisional
    return isinstance(item, Watermark)


class _SubscriberState:
    __slots__ = ("cursor", "disconnected", "waker", "owner", "reads")

    def __init__(self, cursor: int, owner: Any, reads: List[int]) -> None:
        self.cursor = cursor
        self.disconnected = False
        #: One-shot callback armed by a ``read_batch`` that found nothing.
        self.waker: Optional[Callable[[], None]] = None
        #: Who attached it (a standing query's name), and that owner's
        #: ``[read_batches, elements_read]`` counters, shared by its
        #: subscribers.
        self.owner = owner
        self.reads = reads


class HubSubscription:
    """One subscriber's handle: a cursor plus the snapshot taken at attach."""

    def __init__(self, hub: "FanoutHub", subscriber_id: int) -> None:
        self._hub = hub
        self.id = subscriber_id
        #: Filled by ``attach(snapshot_fn)`` — the atomically consistent
        #: snapshot this subscription's tail continues from (``None`` when
        #: no snapshot was requested).
        self.snapshot: Optional[list] = None

    @property
    def cursor(self) -> int:
        """The next sequence number this subscription will read."""
        return self._hub.cursor_of(self.id)

    def read_batch(
        self,
        limit: int,
        timeout: Optional[float] = None,
        waker: Optional[Callable[[], None]] = None,
    ):
        """Up to ``limit`` elements; see :meth:`FanoutHub.read_batch`."""
        return self._hub.read_batch(self.id, limit, timeout, waker)

    def read_encoded(
        self,
        limit: int,
        encode: Callable[[Any], bytes],
        waker: Optional[Callable[[], None]] = None,
    ):
        """Up to ``limit`` encodings; see :meth:`FanoutHub.read_encoded`."""
        return self._hub.read_encoded(self.id, limit, encode, waker)

    def read(self, timeout: Optional[float] = None):
        """Next element; ``END_OF_STREAM`` when done, ``None`` on timeout."""
        return self._hub.read(self.id, timeout)

    def __iter__(self) -> Iterator:
        while True:
            batch = self.read_batch(DELIVERY_BATCH)
            if batch is END_OF_STREAM:
                return
            yield from batch

    def close(self) -> None:
        """Detach from the hub (idempotent)."""
        self._hub.detach(self.id)


class FanoutHub:
    """Bounded shared-ring fan-out of one element stream to N cursors."""

    def __init__(
        self,
        capacity: int = 256,
        policy: str = "block",
        tracer=None,
        sampler=None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("hub capacity must be positive")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        self._capacity = capacity
        self._policy = policy
        # Optional tracing (repro.obs.trace): the sampler picks published
        # elements, ``hub_publish`` spans mark ring entry and
        # ``cursor_advance`` spans mark each subscriber's pickup of a traced
        # sequence.  Both default to None — the untraced hub path is
        # unchanged but for one ``is None`` test per publish/read.
        self._tracer = tracer
        self._sampler = sampler if tracer is not None else None
        self._traced: Dict[int, Tuple[int, str]] = {}
        # Invariant (lock held, between operations): the ring holds no entry
        # below the slowest live cursor, and is empty when nobody is live —
        # every cursor move, detach and disconnect evicts, so ``publish``
        # never has to look at the subscribers.  An entry is a
        # ``[sequence, element, encoding]`` list: the encoding slot starts
        # empty and is filled by the first ``read_encoded`` to reach it.
        self._ring: Deque[list] = deque()
        self._cond = threading.Condition()
        self._next_seq = 0
        self._states: Dict[int, _SubscriberState] = {}
        self._reads: Dict[Any, List[int]] = {}  # owner -> [batches, elements]
        self._live = 0  # attached and not disconnected
        self._waiting = 0  # threads parked on the condition
        self._armed: List[_SubscriberState] = []  # states holding a waker
        self._ids = itertools.count()
        self._closed = False
        # Statistics, all guarded by the condition's lock.
        self.published = 0
        self.publish_batches = 0  # publish_all calls that appended anything
        self.dropped_provisional = 0
        self.publish_blocks = 0
        self.disconnects = 0
        self.max_ring = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def policy(self) -> str:
        return self._policy

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    @property
    def lock(self) -> threading.Condition:
        """The hub lock; snapshots of hub-maintained state take it."""
        return self._cond

    def ring_size(self) -> int:
        with self._cond:
            return len(self._ring)

    def trace_spans(self) -> List[dict]:
        """Every span this hub's tracer retains (empty when untraced)."""
        if self._tracer is None:
            return []
        with self._cond:
            return self._tracer.dump()

    def subscriber_lags(self, owner: Any = None) -> Dict[int, int]:
        """Per-subscriber cursor lag: elements published but not yet read.

        A stalled client shows up here long before any policy fires — its
        lag climbs toward ``capacity`` while everyone else's hovers near 0.
        Disconnected subscribers are excluded (their cursor is dead).  Given
        an ``owner``, only the subscribers it attached are listed.
        """
        with self._cond:
            return self._lags(owner)

    def metrics(self, owner: Any = None) -> Dict[str, float]:
        """One consistent reading of the hub's counters and occupancy.

        ``elements_read / read_batches`` is the mean delivery batch: near 1
        the hub is ping-ponging with its readers, near ``DELIVERY_BATCH``
        the readers are the bottleneck.  ``published / publish_batches`` is
        the mean publish batch beside it: how many elements one hub lock
        carried in.  Given an ``owner``, the subscriber
        and read figures count only the subscribers it attached; the
        publish-side and ring figures are the hub's either way.
        """
        with self._cond:
            lags = list(self._lags(owner).values())
            if owner is None:
                reads = [sum(column) for column in zip(*self._reads.values())] or [0, 0]
            else:
                reads = self._reads.get(owner, [0, 0])
            return {
                "published": self.published,
                "publish_batches": self.publish_batches,
                "dropped_provisional": self.dropped_provisional,
                "publish_blocks": self.publish_blocks,
                "disconnects": self.disconnects,
                "read_batches": reads[0],
                "elements_read": reads[1],
                "ring_size": len(self._ring),
                "ring_high_watermark": self.max_ring,
                "capacity": self._capacity,
                "subscribers": len(lags),
                "max_cursor_lag": max(lags) if lags else 0,
            }

    # ------------------------------------------------------------------ #
    # subscriber side
    # ------------------------------------------------------------------ #
    def attach(
        self, snapshot_fn: Optional[Callable[[], list]] = None, owner: Any = None
    ) -> HubSubscription:
        """Attach a subscriber at the current tail.

        ``snapshot_fn`` (typically ``cache.snapshot``) runs under the hub
        lock, atomically with the cursor placement: the returned
        subscription's ``snapshot`` plus its future tail is exactly the
        element-for-element state a from-start subscriber accumulated.
        ``owner`` labels the subscriber for :meth:`metrics` and
        :meth:`subscriber_lags` (the serving layer passes the query name).
        """
        with self._cond:
            subscriber_id = next(self._ids)
            reads = self._reads.setdefault(owner, [0, 0])
            self._states[subscriber_id] = _SubscriberState(self._next_seq, owner, reads)
            self._live += 1
            subscription = HubSubscription(self, subscriber_id)
            if snapshot_fn is not None:
                subscription.snapshot = snapshot_fn()
            return subscription

    def cursor_of(self, subscriber_id: int) -> int:
        with self._cond:
            state = self._states.get(subscriber_id)
            if state is None:
                raise ValueError(f"subscriber {subscriber_id} is detached")
            return state.cursor

    def read_batch(
        self,
        subscriber_id: int,
        limit: int,
        timeout: Optional[float] = None,
        waker: Optional[Callable[[], None]] = None,
    ):
        """Up to ``limit`` elements past one subscriber's cursor, in order.

        Takes whatever the ring already holds in one lock acquisition — it
        never waits for a batch to fill.  With nothing to take it returns
        ``END_OF_STREAM`` once the hub is closed and drained; otherwise it
        blocks up to ``timeout`` (forever on ``None``) and returns ``[]`` on
        expiry — or, given a ``waker``, arms it and returns ``[]`` at once:
        the next ``publish``/``close``/disconnect/detach calls it exactly
        once, from that thread and under the hub lock, so it must neither
        block nor raise (``loop.call_soon_threadsafe`` is the intended use).
        Arming and the emptiness test share the lock, so no wake-up is lost.

        Raises :class:`SlowSubscriberDisconnected` if the disconnect policy
        evicted this subscriber, ``ValueError`` after an explicit detach.
        """
        entries = self._read_entries(subscriber_id, limit, timeout, waker)
        if entries is END_OF_STREAM:
            return entries
        return [entry[1] for entry in entries]

    def read_encoded(
        self,
        subscriber_id: int,
        limit: int,
        encode: Callable[[Any], bytes],
        waker: Optional[Callable[[], None]] = None,
    ):
        """A :meth:`read_batch` that returns ``encode(element)`` per element.

        Each ring entry keeps the first encoding any reader computed for it,
        so an element costs one ``encode`` however many subscribers read it
        this way; the bytes live exactly as long as the entry.  Encoding
        runs outside the hub lock — readers sharing a hub pass the same
        ``encode`` (the TCP pumps of one server, all on its event loop).
        """
        entries = self._read_entries(subscriber_id, limit, None, waker)
        if entries is END_OF_STREAM:
            return entries
        bodies = []
        for entry in entries:
            body = entry[2]
            if body is None:
                body = entry[2] = encode(entry[1])
            bodies.append(body)
        return bodies

    def _read_entries(
        self,
        subscriber_id: int,
        limit: int,
        timeout: Optional[float],
        waker: Optional[Callable[[], None]],
    ):
        """The ring entries behind :meth:`read_batch` / :meth:`read_encoded`."""
        if limit <= 0:
            raise ValueError("batch limit must be positive")
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                state = self._states.get(subscriber_id)
                if state is None:
                    raise ValueError(f"subscriber {subscriber_id} is detached")
                if state.disconnected:
                    raise SlowSubscriberDisconnected(
                        f"subscriber {subscriber_id} fell {self._capacity} "
                        "elements behind and was disconnected (policy="
                        "'disconnect'); re-subscribe with a snapshot to recover"
                    )
                if self._ring and self._ring[-1][0] >= state.cursor:
                    return self._take(subscriber_id, state, limit)
                if self._closed:
                    return END_OF_STREAM
                if waker is not None:
                    if state.waker is None:
                        self._armed.append(state)
                    state.waker = waker
                    return []
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return []
                self._wait(remaining)

    def read(self, subscriber_id: int, timeout: Optional[float] = None):
        """Next element for one subscriber: a :meth:`read_batch` of one.

        ``END_OF_STREAM`` once the hub is closed and drained, ``None`` on
        timeout.
        """
        batch = self.read_batch(subscriber_id, 1, timeout)
        if batch is END_OF_STREAM:
            return batch
        return batch[0] if batch else None

    def detach(self, subscriber_id: int) -> None:
        """Remove a subscriber; its retained entries become evictable."""
        with self._cond:
            state = self._states.pop(subscriber_id, None)
            if state is not None:
                if not state.disconnected:
                    self._live -= 1
                self._evict_consumed()
                self._wake()

    # ------------------------------------------------------------------ #
    # publisher side
    # ------------------------------------------------------------------ #
    def publish(self, item: Any, update: Optional[Callable[[Any], None]] = None) -> bool:
        """Deliver one element: a :meth:`publish_all` of one.

        Returns whether the element entered the ring.
        """
        return self.publish_all((item,), update) == 1

    def publish_all(
        self, items: Sequence[Any], update: Optional[Callable[[Any], None]] = None
    ) -> int:
        """Deliver a batch of elements to every subscriber, in order.

        One lock acquisition and one wake-up for the batch, with the
        per-element semantics of single publishes: ``update`` (the
        materialized-cache maintenance hook) runs under the hub lock for
        **every** element — including ones a policy drops or that no
        subscriber will read — immediately before that element's ring
        append, so an ``attach`` snapshot can never observe cache and ring
        out of step; the policy decides per element when the ring is full,
        and the trace sampler sees each appended element.  Readers are woken
        before the publisher parks on a full ring, so a batch larger than
        the free space drains as it goes.  Returns how many elements
        entered the ring.
        """
        ring = self._ring
        capacity = self._capacity
        entered = 0
        with self._cond:
            for item in items:
                if self._closed or not self._live or len(ring) >= capacity:
                    if not self._admit(item, update):
                        continue
                if update is not None:
                    update(item)
                ring.append([self._next_seq, item, None])
                self._next_seq += 1
                self.published += 1
                entered += 1
                if self._sampler is not None:
                    self._trace_publish()
                if len(ring) > self.max_ring:
                    self.max_ring = len(ring)
            if entered:
                self.publish_batches += 1
                self._wake()
        return entered

    def close(self) -> None:
        """No further elements; readers drain the ring then see the end.

        Also unblocks publishers parked on a full ring (their publish
        returns ``False``), so closing is always safe during shutdown.
        """
        with self._cond:
            self._closed = True
            self._wake()

    # ------------------------------------------------------------------ #
    # internals (lock held)
    # ------------------------------------------------------------------ #
    def _wait(self, timeout: Optional[float] = None) -> None:
        self._waiting += 1
        try:
            self._cond.wait(timeout)
        finally:
            self._waiting -= 1

    def _admit(self, item: Any, update: Optional[Callable[[Any], None]]) -> bool:
        """Make ring room for ``item`` under the policy, or settle it.

        ``True`` when the caller should append it.  ``False`` when it must
        not enter the ring: the hub is closed, or nobody is reading (the
        cache still gets ``update``; late joiners recover through
        snapshots), or ``drop_provisional`` discarded it (cache updated).
        """
        while True:
            if self._closed:
                return False
            if not self._live:
                if update is not None:
                    update(item)
                return False
            if len(self._ring) < self._capacity:
                return True
            if self._policy == "drop_provisional":
                if self._evict_droppable():
                    continue
                if droppable(item):
                    if update is not None:
                        update(item)
                    self.dropped_provisional += 1
                    return False
            elif self._policy == "disconnect":
                self._disconnect_slowest()
                continue
            self.publish_blocks += 1
            # Whatever this batch already appended must reach its readers,
            # or a full ring would wait on readers nobody woke.
            self._wake()
            self._wait()

    def _trace_publish(self) -> None:
        """Offer the element just appended to the sampler."""
        trace_id = self._sampler.sample()
        if trace_id is None:
            return
        sequence = self._next_seq - 1
        now = time.perf_counter()
        span = self._tracer.record(
            "hub_publish", trace_id, None, now, now, seq=sequence, ring=len(self._ring)
        )
        self._traced[sequence] = (trace_id, span)
        while len(self._traced) > _TRACED_SEQ_LIMIT:
            del self._traced[next(iter(self._traced))]

    def _wake(self) -> None:
        """Something changed: notify parked threads, fire armed wakers.

        Both sets are usually empty — a TCP-served hub parks no reader
        thread, and a reader that keeps up arms its waker once per burst —
        so the common publish pays two truth tests here.
        """
        if self._waiting:
            self._cond.notify_all()
        if self._armed:
            armed, self._armed = self._armed, []
            for state in armed:
                waker, state.waker = state.waker, None
                waker()

    def _lags(self, owner: Any) -> Dict[int, int]:
        return {
            subscriber_id: self._next_seq - state.cursor
            for subscriber_id, state in self._states.items()
            if not state.disconnected and (owner is None or state.owner == owner)
        }

    def _take(self, subscriber_id: int, state: _SubscriberState, limit: int) -> list:
        """Advance ``state`` over up to ``limit`` entries (one is readable)."""
        first = self._position(state.cursor)
        entries = list(itertools.islice(self._ring, first, first + limit))
        state.cursor = entries[-1][0] + 1  # monotone: every sequence >= cursor
        reads = state.reads
        reads[0] += 1
        reads[1] += len(entries)
        if self._traced:
            for entry in entries:
                sequence = entry[0]
                traced = self._traced.get(sequence)
                if traced is not None:
                    now = time.perf_counter()
                    self._tracer.record(
                        "cursor_advance", traced[0], traced[1], now, now,
                        seq=sequence, subscriber=subscriber_id,
                    )
        if first == 0:
            # Only a reader that held the ring's head can have raised the
            # floor; anyone further in is ahead of a slower cursor.
            self._evict_consumed()
            if self._waiting:
                self._cond.notify_all()
        return entries

    def _position(self, cursor: int) -> int:
        """Ring index of the first entry at or after ``cursor`` (one exists).

        Sequences are dense unless ``drop_provisional`` evicted from
        mid-ring, so the offset from the head's sequence is the answer — or,
        past a gap, an upper bound for the bisect.
        """
        ring = self._ring
        guess = cursor - ring[0][0]
        if guess <= 0:
            return 0
        if guess < len(ring) and ring[guess][0] == cursor:
            return guess
        return bisect_left(ring, cursor, 0, min(guess, len(ring)), key=_SEQUENCE)

    def _evict_consumed(self) -> None:
        ring = self._ring
        if not self._live:
            ring.clear()
            return
        floor = min(
            state.cursor for state in self._states.values() if not state.disconnected
        )
        while ring and ring[0][0] < floor:
            ring.popleft()

    def _evict_droppable(self) -> bool:
        for index, entry in enumerate(self._ring):
            if droppable(entry[1]):
                del self._ring[index]
                self.dropped_provisional += 1
                return True
        return False

    def _disconnect_slowest(self) -> None:
        live = [state for state in self._states.values() if not state.disconnected]
        floor = min(state.cursor for state in live)
        for state in live:
            if state.cursor == floor:
                state.disconnected = True
                self._live -= 1
                self.disconnects += 1
        self._evict_consumed()
        self._wake()
