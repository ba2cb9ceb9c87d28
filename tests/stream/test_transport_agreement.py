"""Transport × join kind: a partitioned stream run is bitwise the inline run.

For every join kind and every worker transport, a two-partition stream
query must settle tuple-for-tuple on the one-partition inline run, with
bitwise-identical materialized probabilities — no rounding beyond the
canonicalisation both sides share.  A frame-capture test pins what the
socket transport ships: element micro-batches are pickled ``"batch"``
frames.
"""

from __future__ import annotations

import pickle

import pytest

from repro import ExecutionOptions
from repro.datasets import ReplayConfig, stream_def
from repro.engine import Catalog
from repro.lineage import canonical
from repro.stream import StreamQuery

from tests.conftest import make_random_relations

KINDS = ("inner", "left_outer", "right_outer", "full_outer", "anti")


def _exact_rows(relation):
    """Identity rows with *exact* (unrounded) probabilities, as a multiset.

    Rows are compared via ``repr`` — outer-join facts mix ``None`` with
    strings, which plain tuple ordering cannot sort.
    """
    return sorted(
        repr((t.fact, t.start, t.end, str(canonical(t.lineage)), t.probability))
        for t in relation
    )


def _run_stream(kind: str, transport: str, partitions: int, seed: int = 41):
    left, right, _theta = make_random_relations(seed=seed, left_size=40, right_size=40)
    catalog = Catalog()
    catalog.register_stream("l", stream_def(left, ReplayConfig(disorder=3, seed=seed)))
    catalog.register_stream(
        "r", stream_def(right, ReplayConfig(disorder=3, seed=seed + 1))
    )
    query = StreamQuery(
        catalog,
        kind,
        "l",
        "r",
        [("Key", "Key")],
        config=ExecutionOptions(
            partitions=partitions,
            transport=transport,
            micro_batch_size=8,
            materialize_probabilities=True,
        ),
    )
    result = query.run(merge_seed=seed)
    return result.workers, _exact_rows(result.relation)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("transport", ("threads", "processes", "sockets"))
def test_stream_transports_agree_bitwise(kind, transport):
    inline, expected = _run_stream(kind, "threads", 1)
    assert inline == "inline"
    workers, rows = _run_stream(kind, transport, 2)
    assert workers == transport
    assert rows
    assert rows == expected


def test_socket_batches_are_pickled_frames(monkeypatch):
    """The driver ships each element micro-batch as one pickled ``"batch"``
    frame, and the socket run settles on the inline rows."""
    import repro.runtime.sockets as sockets

    batches = []
    real_send = sockets.send_frame

    def spy_send(sock, frame):
        if isinstance(frame, tuple) and frame and frame[0] == "batch":
            _tag, _key, batch = frame
            assert pickle.loads(pickle.dumps(frame)) == frame
            batches.append(len(batch))
        real_send(sock, frame)

    monkeypatch.setattr(sockets, "send_frame", spy_send)
    workers, rows = _run_stream("inner", "sockets", 2)
    assert workers == "sockets"
    assert batches and all(0 < size <= 8 for size in batches)
    assert rows == _run_stream("inner", "threads", 1)[1]
