"""Runtime channel: the bounded FIFO and its producer bookkeeping.

The first four tests are the only pin on the base FIFO semantics (capacity,
blocking put, micro-batch drain, close); the rest cover the multi-producer
done-sentinel close protocol.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.runtime import Channel, ChannelClosed


def test_fifo_order_and_micro_batches():
    channel: Channel[int] = Channel(capacity=10)
    for value in range(7):
        channel.put(value)
    assert channel.take_batch(3) == [0, 1, 2]
    assert channel.take_batch(100) == [3, 4, 5, 6]


def test_close_drains_then_signals_completion():
    channel: Channel[str] = Channel(capacity=4)
    channel.put("a")
    channel.close()
    assert channel.take_batch(8) == ["a"]
    assert channel.take_batch(8) is None
    with pytest.raises(ChannelClosed):
        channel.put("b")


def test_put_blocks_until_consumer_makes_space():
    channel: Channel[int] = Channel(capacity=2)
    channel.put(0)
    channel.put(1)
    produced = []

    def producer():
        channel.put(2)  # blocks: channel full
        produced.append(2)

    thread = threading.Thread(target=producer)
    thread.start()
    time.sleep(0.05)
    assert not produced  # still blocked
    assert channel.take_batch(1) == [0]
    thread.join(timeout=2)
    assert produced == [2]
    assert channel.put_blocks == 1
    assert channel.high_watermark == 2


def test_validation():
    with pytest.raises(ValueError):
        Channel(capacity=0)
    channel: Channel[int] = Channel(capacity=1)
    with pytest.raises(ValueError):
        channel.take_batch(0)


def test_channel_closes_after_every_producer_reports_done():
    channel: Channel[int] = Channel(capacity=8, producers=3)
    channel.put(1)
    channel.producer_done()
    channel.producer_done()
    assert channel.take_batch(8) == [1]
    # Two of three producers done: the channel is still open for the third.
    channel.put(2)
    channel.producer_done()
    with pytest.raises(ChannelClosed):
        channel.put(3)
    # Remaining elements drain before the close is observed.
    assert channel.take_batch(8) == [2]
    assert channel.take_batch(8) is None


def test_producer_count_must_be_positive():
    with pytest.raises(ValueError):
        Channel(capacity=8, producers=0)


def test_immediate_close_overrides_outstanding_producers():
    channel: Channel[int] = Channel(capacity=2, producers=5)
    channel.close()
    with pytest.raises(ChannelClosed):
        channel.put(1)
    assert channel.take_batch(4) is None


def test_producer_done_unblocks_a_waiting_consumer():
    channel: Channel[int] = Channel(capacity=4, producers=1)
    seen = []

    def consume():
        seen.append(channel.take_batch(4))

    consumer = threading.Thread(target=consume)
    consumer.start()
    channel.producer_done()
    consumer.join(timeout=5)
    assert not consumer.is_alive()
    assert seen == [None]
