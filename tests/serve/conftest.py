"""Fixtures for the serving-layer tests."""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import random
import threading

import pytest

from repro import Schema, TPRelation
from repro.datasets import ReplayConfig, stream_def
from repro.engine import Catalog
from repro.serve import ServeServer


def make_relation(
    prefix: str,
    size: int,
    seed: int,
    num_keys: int = 3,
    time_span: int = 30,
    max_duration: int = 8,
) -> TPRelation:
    """One random constraint-valid TP relation with ``prefix``-unique events."""
    rng = random.Random(seed)
    rows = []
    for index in range(size):
        key = f"k{rng.randrange(num_keys)}"
        start = rng.randrange(0, time_span)
        end = start + rng.randrange(1, max_duration)
        probability = round(rng.uniform(0.05, 0.95), 3)
        rows.append(
            (key, f"{prefix}{index}", f"{prefix}{index}", start, end, probability)
        )
    return TPRelation.from_rows(Schema.of("Key", "Serial"), rows, name=prefix)


def make_stream_catalog(
    seed: int,
    sizes: tuple[int, int, int] = (20, 20, 15),
    disorder: int = 5,
    num_keys: int = 3,
    watermark_every: int = 4,
) -> Catalog:
    """A catalog with three registered streams ``a``/``b``/``c``."""
    catalog = Catalog()
    for offset, (name, size) in enumerate(zip("abc", sizes)):
        relation = make_relation(name, size, seed * 101 + offset, num_keys)
        catalog.register_stream(
            name,
            stream_def(
                relation,
                ReplayConfig(
                    disorder=disorder,
                    seed=seed * 13 + offset,
                    watermark_every=watermark_every,
                ),
            ),
        )
    return catalog


def make_gated_catalog(seed: int, gate: threading.Event):
    """A stream catalog whose sources yield nothing until ``gate`` is set.

    A plan group over this catalog provably cannot settle before the test
    releases the gate, which makes group-lifetime assertions (same group
    across a resubscribe, both queries landing in one running group)
    deterministic instead of a race against an in-memory replay.
    """
    catalog = make_stream_catalog(seed=seed)
    for name in ("a", "b", "c"):
        definition = catalog.lookup_stream(name)
        original_replay = definition.replay

        def gated_replay(inner=original_replay):
            elements = list(inner())

            def generate():
                assert gate.wait(timeout=30.0), "test never released the gate"
                yield from elements

            return generate()

        catalog.register_stream(
            name, dataclasses.replace(definition, replay=gated_replay), replace=True
        )
    return catalog


@contextlib.contextmanager
def hosted(service):
    """``service`` behind a live TCP server on a loopback port."""
    server = ServeServer(service)
    loop = asyncio.new_event_loop()
    ready = threading.Event()

    def host():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        ready.set()
        loop.run_forever()
        # Unwind the connection handlers still parked on a read or a
        # wake-up, so none is torn down by the garbage collector after the
        # loop is closed.
        handlers = asyncio.all_tasks(loop)
        for task in handlers:
            task.cancel()
        loop.run_until_complete(asyncio.gather(*handlers, return_exceptions=True))
        loop.run_until_complete(server.close())
        loop.close()

    thread = threading.Thread(target=host, name="serve-test-loop", daemon=True)
    thread.start()
    assert ready.wait(timeout=10.0)
    try:
        yield server
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10.0)
        service.shutdown()


@pytest.fixture()
def serve_catalog_factory():
    """Fixture exposing :func:`make_stream_catalog` to tests."""
    return make_stream_catalog
