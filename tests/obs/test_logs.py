"""Logging satellite: ``--log-json`` shape, level filtering, grep needles."""

from __future__ import annotations

import json
import logging
import os
import socket
import subprocess
import sys

import pytest

from repro.obs import configure_logging


@pytest.fixture()
def repro_logger():
    """Snapshot and restore the ``repro`` logger configure_logging mutates."""
    logger = logging.getLogger("repro")
    saved = (logger.level, list(logger.handlers), logger.propagate)
    yield logger
    logger.setLevel(saved[0])
    logger.handlers[:] = saved[1]
    logger.propagate = saved[2]


def test_default_output_is_message_only(repro_logger, capsys):
    """Plain mode keeps the readiness lines scripts grep byte-identical to
    the pre-logging ``print`` output: no level, no logger name, no time."""
    configure_logging("info")
    logging.getLogger("repro.runtime.sockets").info(
        "repro runtime worker listening on %s:%s", "127.0.0.1", 7654
    )
    captured = capsys.readouterr()
    assert captured.out == "repro runtime worker listening on 127.0.0.1:7654\n"
    assert captured.err == ""


def test_log_json_lines_parse_with_level_logger_message(repro_logger, capsys):
    configure_logging("debug", json_mode=True)
    logging.getLogger("repro.serve.cli").info("repro serve shutting down")
    logging.getLogger("repro.runtime").warning("seat %d is slow", 3)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    parsed = [json.loads(line) for line in lines]  # every line is one object
    assert parsed[0]["level"] == "info"
    assert parsed[0]["logger"] == "repro.serve.cli"
    assert parsed[0]["message"] == "repro serve shutting down"
    assert parsed[1]["level"] == "warning"
    assert parsed[1]["message"] == "seat 3 is slow"
    for payload in parsed:
        assert isinstance(payload["ts"], float)


def test_log_json_attaches_tracebacks(repro_logger, capsys):
    configure_logging("info", json_mode=True)
    try:
        raise ValueError("boom")
    except ValueError:
        logging.getLogger("repro.test").exception("operation failed")
    payload = json.loads(capsys.readouterr().out)
    assert payload["level"] == "error"
    assert "ValueError: boom" in payload["exc"]


@pytest.mark.parametrize("json_mode", (False, True))
def test_log_level_filters_in_both_modes(repro_logger, capsys, json_mode):
    configure_logging("warning", json_mode=json_mode)
    logger = logging.getLogger("repro.anything")
    logger.info("suppressed")
    logger.debug("also suppressed")
    logger.error("kept")
    out = capsys.readouterr().out
    assert "suppressed" not in out
    assert out.count("\n") == 1 and "kept" in out


def test_unknown_level_falls_back_to_info(repro_logger):
    logger = configure_logging("nonsense")
    assert logger.level == logging.INFO


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


@pytest.mark.parametrize("json_mode", (False, True))
def test_worker_entrypoint_honours_log_mode(json_mode):
    """The real ``--listen`` entrypoint emits its readiness needle either
    as the exact historical plain line or as one parseable JSON object."""
    port = _free_port()
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable, "-m", "repro.runtime.worker",
        "--listen", f"127.0.0.1:{port}",
    ]
    if json_mode:
        command.append("--log-json")
    worker = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = worker.stdout.readline()
        needle = f"repro runtime worker listening on 127.0.0.1:{port}"
        if json_mode:
            payload = json.loads(line)
            assert payload["message"] == needle
            assert payload["level"] == "info"
            assert payload["logger"].startswith("repro.runtime")
        else:
            assert line == needle + "\n"
    finally:
        worker.terminate()
        worker.wait(timeout=10)
        worker.stdout.close()
