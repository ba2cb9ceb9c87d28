"""Prometheus-format text exposition over a stdlib HTTP server.

No third-party client library: the exposition format is plain text, so
a :class:`ThreadingHTTPServer` in a daemon thread is enough.  The
``render`` callable is invoked per scrape and must return the full
exposition body (see :meth:`MetricsAggregator.prometheus_text`).
"""

from __future__ import annotations

import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

__all__ = ["start_metrics_http_server"]

_LOGGER = logging.getLogger(__name__)


def start_metrics_http_server(
    host: str, port: int, render: Callable[[], str]
) -> ThreadingHTTPServer:
    """Serve ``GET /metrics`` (and ``/``) scrapes plus ``GET /healthz``.

    ``/healthz`` answers ``ok`` without invoking ``render`` — it is a
    liveness probe target, and must stay cheap and dependable even when
    a metrics render would fail.  Unknown paths get a plain-text 404
    body (the stdlib HTML error page confuses text-oriented probes).
    The caller stops the server with ``server.shutdown()`` and then
    closes its listening socket with ``server.server_close()`` (shutdown
    alone leaves the socket open); the listening port (useful with
    ``port=0``) is ``server.server_address[1]``.
    """

    class _Handler(BaseHTTPRequestHandler):
        def _send_text(self, status: int, body: bytes, content_type: str) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            path = self.path.split("?", 1)[0]
            if path == "/healthz":
                self._send_text(200, b"ok\n", "text/plain; charset=utf-8")
                return
            if path not in ("/", "/metrics"):
                self._send_text(
                    404,
                    f"not found: {path}\n".encode("utf-8"),
                    "text/plain; charset=utf-8",
                )
                return
            try:
                body = render().encode("utf-8")
            except Exception:
                _LOGGER.exception("metrics render failed")
                self.send_error(500)
                return
            self._send_text(200, body, "text/plain; version=0.0.4")

        def log_message(self, format: str, *args) -> None:
            _LOGGER.debug("metrics scrape: " + format, *args)

    server = ThreadingHTTPServer((host, port), _Handler)
    server.daemon_threads = True
    thread = threading.Thread(
        target=server.serve_forever, name="repro-metrics-http", daemon=True
    )
    thread.start()
    return server
