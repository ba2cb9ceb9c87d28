"""Graceful shutdown of the standalone worker server.

Covers the serving-layer satellite: SIGTERM/SIGINT drain cleanly (exit 0,
one clean-shutdown line) and ``--idle-timeout`` reaps an idle worker.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time

from repro.runtime.sockets import serve_listener


def make_listener() -> socket.socket:
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    return listener


def test_serve_listener_stops_on_shutdown_event():
    listener = make_listener()
    shutdown = threading.Event()
    thread = threading.Thread(
        target=serve_listener, args=(listener,), kwargs={"shutdown": shutdown},
        daemon=True,
    )
    thread.start()
    time.sleep(0.1)
    assert thread.is_alive()
    shutdown.set()
    asked = time.monotonic()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    # The request itself wakes the loop; nothing waits for a poll tick.
    assert time.monotonic() - asked < 0.1


def test_serve_listener_reaps_itself_after_idle_timeout():
    listener = make_listener()
    started = time.monotonic()
    serve_listener(listener, idle_timeout=0.6)
    elapsed = time.monotonic() - started
    assert 0.6 <= elapsed < 0.75


def worker_process(listen: str, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.runtime.worker", "--listen", listen, *extra],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def wait_for_line(process: subprocess.Popen, needle: str, timeout: float = 15.0) -> str:
    deadline = time.monotonic() + timeout
    lines = []
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        lines.append(line)
        if needle in line:
            return line
    raise AssertionError(f"never saw {needle!r} in worker output: {lines}")


def test_worker_process_exits_zero_on_sigterm():
    process = worker_process("127.0.0.1:0")
    try:
        wait_for_line(process, "listening on")
        process.send_signal(signal.SIGTERM)
        line = wait_for_line(process, "shut down cleanly")
        assert "SIGTERM" in line
        assert process.wait(timeout=15.0) == 0
    finally:
        process.kill()
        process.wait(timeout=5.0)
        process.stdout.close()


def test_worker_process_exits_zero_after_idle_timeout():
    process = worker_process("127.0.0.1:0", "--idle-timeout", "0.5")
    try:
        wait_for_line(process, "listening on")
        assert process.wait(timeout=15.0) == 0
    finally:
        process.kill()
        process.wait(timeout=5.0)
        process.stdout.close()
