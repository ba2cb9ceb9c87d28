"""Channels: the bounded, watermark-aware seam between runtime workers.

Every transport connects producers to consumers through the same two
primitives:

* :class:`Channel` — a bounded, closable, thread-safe FIFO with micro-batch
  draining and multi-producer close bookkeeping.  ``put`` blocks once the
  channel is full, so a slow consumer transparently backpressures its
  producers (and, transitively, the sources) instead of letting queues grow
  without bound; ``put_all`` takes a whole micro-batch the same way under
  one lock; ``take_batch`` drains up to a micro-batch of elements in one
  lock acquisition, amortising synchronisation the way micro-batching stream
  engines do.  A channel created with ``producers=N`` closes itself after the
  N-th :meth:`Channel.producer_done` call — the done-sentinel close protocol
  every backend shares.
* :class:`ChannelWatermarks` — the min-merge of per-channel watermarks
  feeding one operator input side, which is how the ``min over partitions``
  stage-watermark rule is enforced without cross-partition shared state.

The channel is deliberately not :class:`queue.Queue`: the batch drain, the
close protocol (producers signal completion; consumers drain the remainder
and then see ``None``) and the high-watermark statistic are all part of the
runtime's contract and easier to state explicitly than to bolt on.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Generic, Hashable, List, Optional, Sequence, TypeVar

T = TypeVar("T")


class ChannelClosed(RuntimeError):
    """Raised when putting into a channel that has been closed."""


class Channel(Generic[T]):
    """A bounded, closable, thread-safe FIFO with micro-batch draining."""

    def __init__(self, capacity: int, producers: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("channel capacity must be positive")
        if producers <= 0:
            raise ValueError("channel producer count must be positive")
        self._capacity = capacity
        self._producers = producers
        self._items: Deque[T] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self.high_watermark = 0
        self.total_put = 0
        self.put_blocks = 0
        self.total_batches = 0
        self.total_batch_elements = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def put(self, item: T) -> None:
        """Append one element; blocks while the channel is full (backpressure)."""
        self.put_all((item,))

    def put_all(self, items: Sequence[T]) -> None:
        """Append a whole micro-batch under one lock and one wake.

        Blocks while the channel is full, then takes every item at once, so
        the depth can overshoot ``capacity`` by less than one batch — the
        socket seat's frame-at-a-time intake, which credits a frame only
        once all of it is in.
        """
        with self._not_full:
            if self._closed:
                raise ChannelClosed("cannot put into a closed channel")
            if len(self._items) >= self._capacity:
                self.put_blocks += 1
                while len(self._items) >= self._capacity and not self._closed:
                    self._not_full.wait()
                if self._closed:
                    raise ChannelClosed("channel closed while waiting for space")
            self._items.extend(items)
            self.total_put += len(items)
            if len(self._items) > self.high_watermark:
                self.high_watermark = len(self._items)
            self._not_empty.notify()

    def producer_done(self) -> None:
        """One producer will put no further elements.

        The channel closes once every producer (the count fixed at
        construction) has reported done — the multi-producer half of the
        done-sentinel close protocol.
        """
        with self._lock:
            self._producers -= 1
            if self._producers <= 0:
                self._close_locked()

    def close(self) -> None:
        """Close immediately, regardless of outstanding producers.

        Consumers continue draining buffered elements; once the channel is
        empty, :meth:`take_batch` returns ``None``.  Used by failure paths to
        unblock producers parked on a full channel nobody will drain.
        """
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        self._closed = True
        self._not_empty.notify_all()
        self._not_full.notify_all()

    def take_batch(self, max_size: int) -> Optional[List[T]]:
        """Remove and return up to ``max_size`` elements, in FIFO order.

        Blocks while the channel is empty and open.  Returns ``None`` exactly
        when the channel is closed *and* fully drained — the consumer's
        signal to finish up.
        """
        if max_size <= 0:
            raise ValueError("micro-batch size must be positive")
        with self._not_empty:
            while not self._items and not self._closed:
                self._not_empty.wait()
            if not self._items:
                return None
            batch = [self._items.popleft() for _ in range(min(max_size, len(self._items)))]
            self.total_batches += 1
            self.total_batch_elements += len(batch)
            self._not_full.notify_all()
            return batch


class ChannelWatermarks:
    """Min-merge of the per-channel watermarks feeding one input side.

    A partitioned upstream stage reaches a consumer through one FIFO channel
    per partition; a source edge is a single channel.  The side's effective
    watermark — the stage *output* watermark, for a partitioned producer —
    is the minimum over all channels, so it only advances once **every**
    partition has advanced: exactly the ``min over partitions`` rule the
    derived-watermark contract requires.  Channels start at ``-inf``, so the
    merged value stays silent until every channel has reported.
    """

    __slots__ = ("_values", "_merged")

    def __init__(self, channels: Sequence[Hashable]) -> None:
        self._values: Dict[Hashable, float] = {
            channel: float("-inf") for channel in channels
        }
        self._merged = float("-inf")

    @property
    def merged(self) -> float:
        """The current min-over-channels watermark."""
        return self._merged

    def update(self, channel: Hashable, value: float) -> Optional[float]:
        """Record one channel's watermark; returns the new merged minimum
        when it advanced, ``None`` otherwise (per-channel regressions are
        ignored — watermarks are monotone promises)."""
        if value > self._values[channel]:
            self._values[channel] = value
            merged = min(self._values.values())
            if merged > self._merged:
                self._merged = merged
                return merged
        return None
