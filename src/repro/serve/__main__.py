"""``python -m repro.serve`` — serve standing TP queries, or subscribe.

Server:

    python -m repro.serve --listen 127.0.0.1:7654 --demo

binds the NDJSON front-end and (with ``--demo``) registers three demo
streams ``a``/``b``/``c`` plus a standing query ``demo`` (a left outer
join of ``a`` and ``b``).  SIGINT/SIGTERM shut the server down cleanly:
running plan groups are cancelled, hubs closed, subscribers see ``end``.

Client:

    python -m repro.serve --connect 127.0.0.1:7654 --subscribe demo

subscribes (snapshot first, unless ``--no-snapshot``) and prints each
message as one JSON line; ``--snapshot-only demo`` fetches just the
materialized state, ``--list`` the registered names, ``--explain demo``
the shared-subplan-annotated physical plan, ``--stats`` one serving
stats/telemetry reading, ``--watch SECONDS`` a stats line every interval.

Observability: the server runs with worker metrics enabled; ``--stats``
and ``--watch`` read them over NDJSON, and ``--metrics-port PORT``
additionally exposes a Prometheus text endpoint (``GET /metrics``).
``--trace`` enables span-per-element tracing (``--trace-sample-rate``
controls the sampling, default 1%); a client reads the spans live with
``--trace-dump``, and ``--trace-out PATH`` writes the full Chrome
trace-event JSON at server shutdown (open it in chrome://tracing or
Perfetto).  ``--log-level``/``--log-json`` configure stdlib logging
(default output is unchanged: message-only lines on stdout).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import os
import random
import signal
import sys
from dataclasses import replace
from typing import Optional, Sequence

from ..obs import MetricsAggregator, configure_logging, start_metrics_http_server
from ..options import ExecutionOptions
from ..runtime.placement import parse_host_port
from .registry import StandingQueryService
from .server import ServeClient, ServeServer

# Explicit name: under ``python -m repro.serve`` this module runs as
# ``__main__``, which would fall outside the configured ``repro`` tree.
_LOGGER = logging.getLogger("repro.serve.cli")


def demo_catalog(seed: int = 7, size: int = 40, num_keys: int = 4):
    """A catalog with three small random demo streams ``a``/``b``/``c``."""
    from ..datasets import ReplayConfig, stream_def
    from ..engine import Catalog
    from ..relation import Schema, TPRelation

    catalog = Catalog()
    for offset, name in enumerate("abc"):
        rng = random.Random(seed * 101 + offset)
        rows = []
        for index in range(size):
            key = f"k{rng.randrange(num_keys)}"
            start = rng.randrange(0, 30)
            end = start + rng.randrange(1, 8)
            probability = round(rng.uniform(0.05, 0.95), 3)
            serial = f"{name}{index}"
            rows.append((key, serial, serial, start, end, probability))
        relation = TPRelation.from_rows(Schema.of("Key", "Serial"), rows, name=name)
        catalog.register_stream(
            name,
            stream_def(
                relation,
                ReplayConfig(disorder=5, seed=seed * 13 + offset, watermark_every=4),
            ),
        )
    return catalog


def _register_demo_queries(service: StandingQueryService) -> None:
    from ..dataflow.graph import NodeSpec

    service.register(
        "demo",
        [NodeSpec("demo_join", "left_outer", "a", "b", (("Key", "Key"),))],
    )


def _render_prometheus(service: StandingQueryService) -> str:
    """Worker snapshots + per-query hub readings as one text exposition."""
    aggregator = MetricsAggregator()
    aggregator.update_all(service.worker_snapshots())
    for name, entry in service.metrics().items():
        hub = entry.get("hub")
        if not hub:
            continue
        aggregator.update(
            {
                "labels": {"worker": f"hub/{name}", "query": name, "component": "hub"},
                "counters": {
                    f"hub_{key}": hub[key]
                    for key in (
                        "published",
                        "publish_batches",
                        "dropped_provisional",
                        "publish_blocks",
                        "disconnects",
                        "read_batches",
                        "elements_read",
                    )
                },
                "gauges": {
                    f"hub_{key}": hub[key]
                    for key in (
                        "ring_size",
                        "ring_high_watermark",
                        "capacity",
                        "subscribers",
                        "max_cursor_lag",
                    )
                },
                "histograms": {},
            }
        )
    return aggregator.prometheus_text()


async def _serve(
    service: StandingQueryService,
    host: str,
    port: int,
    metrics_port: Optional[int],
    trace_out: Optional[str] = None,
) -> int:
    server = ServeServer(service, host, port)
    await server.start()
    metrics_server = None
    if metrics_port is not None:
        metrics_server = start_metrics_http_server(
            host, metrics_port, lambda: _render_prometheus(service)
        )
        bound = metrics_server.server_address
        _LOGGER.info("repro serve metrics on http://%s:%s/metrics", bound[0], bound[1])
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-Unix loops
            pass
    await stop.wait()
    # Exact bytes matter: clients grep this line to confirm a clean exit.
    _LOGGER.info("repro serve shutting down")
    if metrics_server is not None:
        metrics_server.shutdown()
        metrics_server.server_close()
    await server.close()
    service.shutdown()
    if trace_out is not None:
        from ..obs import TraceAggregator

        aggregator = TraceAggregator()
        aggregator.add_spans(service.trace_spans())
        aggregator.write_chrome_trace(trace_out)
        _LOGGER.info(
            "repro serve wrote %d trace span(s) to %s", len(aggregator), trace_out
        )
    return 0


def _run_client(arguments) -> int:
    host, port = parse_host_port(arguments.connect)
    with ServeClient(host, port) as client:
        if arguments.list:
            print(json.dumps(client.list_queries()))
            return 0
        if arguments.explain:
            print(client.explain(arguments.explain))
            return 0
        if arguments.snapshot_only:
            for tp_tuple in client.snapshot(arguments.snapshot_only):
                print(tp_tuple)
            return 0
        if arguments.stats:
            print(json.dumps(client.stats()))
            return 0
        if arguments.trace_dump:
            print(json.dumps(client.trace()))
            return 0
        if arguments.watch is not None:
            for message in client.watch(arguments.watch):
                print(json.dumps(message), flush=True)
            return 0
        if arguments.subscribe:
            client.subscribe(
                arguments.subscribe, snapshot=not arguments.no_snapshot
            )
            for message in client.events():
                print(json.dumps(message), flush=True)
            return 0
    print(
        "nothing to do: pass --subscribe/--snapshot-only/--list/--explain"
        "/--stats/--watch"
    )
    return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Standing-query serving front-end (NDJSON over TCP).",
    )
    parser.add_argument("--listen", metavar="HOST:PORT", help="run the server")
    parser.add_argument(
        "--demo",
        action="store_true",
        help="register demo streams a/b/c and a standing query 'demo'",
    )
    parser.add_argument("--hub-capacity", type=int, default=256)
    parser.add_argument(
        "--policy", choices=("block", "drop_provisional", "disconnect"),
        default="block", help="slow-subscriber policy",
    )
    parser.add_argument(
        "--linger", type=float, default=0.0, metavar="SECONDS",
        help="keep a query running this long after its last subscriber detaches",
    )
    parser.add_argument(
        "--transport", choices=("threads", "inline"), default=None,
        help="in-process transport of every plan group (default: inline for "
        "a one-worker group, threads otherwise)",
    )
    parser.add_argument("--connect", metavar="HOST:PORT", help="run as a client")
    parser.add_argument("--subscribe", metavar="NAME", help="subscribe to a query")
    parser.add_argument(
        "--no-snapshot", action="store_true", help="skip the snapshot on subscribe"
    )
    parser.add_argument("--snapshot-only", metavar="NAME", help="fetch one snapshot")
    parser.add_argument("--explain", metavar="NAME", help="print the physical plan")
    parser.add_argument("--list", action="store_true", help="list standing queries")
    parser.add_argument(
        "--stats", action="store_true", help="print one serving stats/metrics reading"
    )
    parser.add_argument(
        "--watch", type=float, metavar="SECONDS",
        help="print a stats line every SECONDS until interrupted",
    )
    parser.add_argument(
        "--metrics-port", type=int, metavar="PORT",
        help="also expose a Prometheus text endpoint on this port (server mode)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="enable span-per-element tracing of served queries (server mode)",
    )
    parser.add_argument(
        "--trace-sample-rate", type=float, default=None, metavar="RATE",
        help="fraction of elements to trace, 0..1 (default 0.01; implies --trace)",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH",
        help="write a Chrome trace-event JSON file at server shutdown "
        "(implies --trace; open in chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--trace-dump", action="store_true",
        help="print one live reading of the server's trace spans (client mode)",
    )
    parser.add_argument(
        "--checkpoint-interval", type=float, default=None, metavar="SECONDS",
        help="seconds between worker state checkpoints "
        "(ExecutionOptions.checkpoint_interval; 0 checkpoints every batch)",
    )
    parser.add_argument(
        "--restart-limit", type=int, default=0, metavar="N",
        help="max seat re-executions before a failure is fatal "
        "(ExecutionOptions.restart_limit; recovery applies to socket runs)",
    )
    parser.add_argument(
        "--seat-timeout", type=float, default=None, metavar="SECONDS",
        help="per-seat result-frame timeout (ExecutionOptions.seat_timeout)",
    )
    parser.add_argument(
        "--log-level", default="info",
        choices=("debug", "info", "warning", "error"),
        help="stdlib logging level for the repro logger tree",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit log lines as JSON objects instead of plain messages",
    )
    arguments = parser.parse_args(argv)
    configure_logging(arguments.log_level, json_mode=arguments.log_json)

    if arguments.connect:
        try:
            return _run_client(arguments)
        except BrokenPipeError:
            # Downstream closed our stdout (`... | head`): conventional
            # quiet exit, and point the fd at devnull so the interpreter's
            # final flush cannot raise a second BrokenPipeError.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        except OSError as error:
            print(f"repro serve: cannot reach {arguments.connect}: {error}")
            return 1
    if not arguments.listen:
        parser.error("pass --listen HOST:PORT (server) or --connect (client)")
    host, port = parse_host_port(arguments.listen)
    if arguments.demo:
        catalog = demo_catalog()
    else:
        from ..engine import Catalog

        catalog = Catalog()
    trace_on = (
        arguments.trace
        or arguments.trace_out is not None
        or arguments.trace_sample_rate is not None
    )
    config = ExecutionOptions(
        early_emit=True,
        metrics=True,
        trace=trace_on,
        checkpoint_interval=arguments.checkpoint_interval,
        restart_limit=arguments.restart_limit,
        seat_timeout=arguments.seat_timeout,
    )
    if arguments.trace_sample_rate is not None:
        config = replace(config, trace_sample_rate=arguments.trace_sample_rate)
    service = StandingQueryService(
        catalog,
        config=config,
        hub_capacity=arguments.hub_capacity,
        policy=arguments.policy,
        linger_seconds=arguments.linger,
        transport=arguments.transport,
    )
    if arguments.demo:
        _register_demo_queries(service)
    return asyncio.run(
        _serve(service, host, port, arguments.metrics_port, arguments.trace_out)
    )


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
