"""The transport-agnostic runtime: one worker/channel/watermark substrate.

Every continuous execution backend in this codebase — the partitioned
:class:`~repro.stream.StreamQuery` and the pipelined/partitioned dataflow
graphs of :mod:`repro.dataflow` — runs on the same five primitives:

* :class:`Channel` — bounded backpressuring FIFO with micro-batch draining
  and the multi-producer done-sentinel close protocol
  (:mod:`repro.runtime.channel`), plus :class:`ChannelWatermarks`, the
  per-channel min-merge that enforces the ``min over partitions`` stage
  watermark without shared state;
* :class:`Worker` — the one spec-driven operator loop (route → operate →
  emit → close-sentinel) every backend executes
  (:mod:`repro.runtime.worker`);
* :class:`Transport` — pluggable worker placement and wiring: ``inline`` /
  ``threads`` / ``processes`` / ``sockets``
  (:mod:`repro.runtime.transport`, :mod:`repro.runtime.sockets`);
* :func:`run_job` — the one source router that feeds a session of workers
  from source edges (:mod:`repro.runtime.driver`);
* :class:`Placement` — worker index → ``host:port`` map for the socket
  transport; unplaced indices spawn locally
  (:mod:`repro.runtime.placement`).

``python -m repro.runtime.worker --listen HOST:PORT`` starts a standalone
worker a remote driver can place shards on — the entry point of
distributed execution.
"""

from .channel import Channel, ChannelClosed, ChannelWatermarks
from .placement import Placement, parse_host_port, parse_placement

# Worker/transport exports resolve lazily (PEP 562) so that
# ``python -m repro.runtime.worker`` can execute the worker module as
# ``__main__`` without this package having already imported it.
_LAZY_EXPORTS = {
    "SOURCE_CHANNEL": "worker",
    "Worker": "worker",
    "WorkerReport": "worker",
    "decode_report": "worker",
    "encode_report": "worker",
    "run_worker": "worker",
    "RuntimeJob": "transport",
    "TRANSPORTS": "transport",
    "Transport": "transport",
    "TransportSession": "transport",
    "WorkerStartError": "transport",
    "get_transport": "transport",
    "preferred_context": "transport",
    "Stage": "driver",
    "merge_edges": "driver",
    "run_job": "driver",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module_name}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))


__all__ = [
    "Channel",
    "ChannelClosed",
    "ChannelWatermarks",
    "Placement",
    "RuntimeJob",
    "SOURCE_CHANNEL",
    "Stage",
    "TRANSPORTS",
    "Transport",
    "TransportSession",
    "Worker",
    "WorkerReport",
    "WorkerStartError",
    "decode_report",
    "encode_report",
    "get_transport",
    "merge_edges",
    "parse_host_port",
    "parse_placement",
    "preferred_context",
    "run_job",
    "run_worker",
]
