"""Metrics HTTP endpoint: /metrics scrapes, /healthz probe, plain 404s."""

from __future__ import annotations

import urllib.error
import urllib.request

import pytest

from repro.obs import start_metrics_http_server


@pytest.fixture()
def endpoint():
    state = {"body": "# TYPE repro_up gauge\nrepro_up 1\n"}
    server = start_metrics_http_server("127.0.0.1", 0, lambda: state["body"])
    port = server.server_address[1]
    yield f"http://127.0.0.1:{port}", state
    server.shutdown()
    server.server_close()


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read()


def test_metrics_paths_serve_the_rendered_exposition(endpoint):
    base, _state = endpoint
    for path in ("/metrics", "/", "/metrics?foo=bar"):
        status, headers, body = _get(base + path)
        assert status == 200
        assert body == b"# TYPE repro_up gauge\nrepro_up 1\n"
        assert headers["Content-Type"].startswith("text/plain")


def test_healthz_answers_without_invoking_render(endpoint):
    base, state = endpoint
    # A liveness probe must survive a broken metrics render.
    state["body"] = None  # render() would raise TypeError on .encode
    status, headers, body = _get(base + "/healthz")
    assert status == 200
    assert body == b"ok\n"
    assert headers["Content-Type"] == "text/plain; charset=utf-8"


def test_unknown_path_is_a_plain_text_404(endpoint):
    base, _state = endpoint
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(base + "/nope")
    error = excinfo.value
    assert error.code == 404
    assert error.headers["Content-Type"] == "text/plain; charset=utf-8"
    # Text body, not the stdlib HTML error page.
    assert error.read() == b"not found: /nope\n"
    error.close()


def test_render_failure_is_a_500_but_healthz_still_works(endpoint):
    base, state = endpoint
    state["body"] = None
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(base + "/metrics")
    assert excinfo.value.code == 500
    excinfo.value.close()
    status, _headers, body = _get(base + "/healthz")
    assert status == 200 and body == b"ok\n"
