"""ServeClient's chunked decoding, driven over a socketpair."""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.serve import ServeClient, ServeError


def line(**payload) -> bytes:
    return json.dumps(payload).encode() + b"\n"


@pytest.fixture()
def pair():
    """``(client, server end)``: whatever the test writes, the client reads.

    The client socket times out after 5 s, so a read that waits for bytes it
    does not need fails the test instead of hanging it.
    """
    ours, theirs = socket.socketpair()
    ours.settimeout(5.0)
    client = ServeClient.from_socket(ours)
    yield client, theirs
    client.close()
    theirs.close()


def test_a_partial_trailing_line_is_kept_for_the_next_read(pair):
    client, server = pair
    server.sendall(line(type="ok", n=1) + b'{"type": "ok", "n"')
    assert client.recv() == {"type": "ok", "n": 1}
    server.sendall(b": 2}\n")
    assert client.recv() == {"type": "ok", "n": 2}


def test_an_error_line_mid_chunk_raises_in_order(pair):
    client, server = pair
    server.sendall(
        line(type="ok", n=1) + line(type="error", message="boom") + line(type="ok", n=3)
    )
    assert client.recv() == {"type": "ok", "n": 1}
    with pytest.raises(ServeError, match="boom"):
        client.recv()
    assert client.recv() == {"type": "ok", "n": 3}


def test_an_end_line_stops_iteration_with_nothing_read_past_it(pair):
    client, server = pair
    server.sendall(
        line(type="watermark", value=1, name="q")
        + line(type="end", name="q", reason="settled")
        + line(type="ok", op="list", queries=[])
    )
    messages = list(client.events())
    assert [message["type"] for message in messages] == ["watermark", "end"]
    # The line after ``end`` is still there for the next request.
    assert client.recv() == {"type": "ok", "op": "list", "queries": []}


def test_a_complete_line_is_returned_without_waiting_for_more(pair):
    client, server = pair
    server.sendall(line(type="ok", n=1))
    started = time.monotonic()
    assert client.recv() == {"type": "ok", "n": 1}
    assert time.monotonic() - started < 1.0


def test_eof_decodes_an_unterminated_last_line_then_ends(pair):
    client, server = pair
    server.sendall(line(type="ok", n=1) + b'{"type": "ok", "n": 2}')
    server.shutdown(socket.SHUT_WR)
    assert client.recv() == {"type": "ok", "n": 1}
    assert client.recv() == {"type": "ok", "n": 2}
    assert client.recv() is None
