"""Standing-query serving: named TP queries, shared subplans, fan-out.

The serving layer sits in front of the dataflow engine and turns it into a
service: clients address **named standing queries** instead of supplying
graphs, overlapping queries share operators (and their probability
computers, one per maintainer) through a structural common-subplan registry, and every
subscriber reads the shared revision stream through a cursor over one
bounded fan-out ring instead of a private copy.

Pieces, bottom-up:

* :mod:`repro.serve.subplan` — structural hashing of
  :class:`~repro.dataflow.NodeSpec` trees and the reference-counted
  common-subplan registry behind operator sharing;
* :mod:`repro.serve.hub` — the bounded shared-ring fan-out hub with
  per-subscriber cursors and the three slow-subscriber policies
  (``block`` / ``drop_provisional`` / ``disconnect``);
* :mod:`repro.serve.cache` — the materialized result cache each tapped sink
  maintains from its Emit/Retract/Refine stream (shared by the queries
  reading that sink), so late joiners get a snapshot plus live tail instead
  of a replay;
* :mod:`repro.serve.registry` — :class:`StandingQueryService`: register /
  subscribe / snapshot / detach plus query lifecycle (start on first
  subscriber, linger, stop on last detach) over merged shared plans;
* :mod:`repro.serve.server` — the asyncio NDJSON-over-TCP front-end
  (``python -m repro.serve --listen``) bridging the threaded runtime.
"""

from .cache import ResultCache
from .hub import (
    END_OF_STREAM,
    POLICIES,
    FanoutHub,
    HubSubscription,
    SlowSubscriberDisconnected,
)
from .registry import PlanGroup, ServeError, StandingQueryService, ServingSubscription
from .server import ServeClient, ServeServer
from .subplan import SubplanRegistry, graph_structural_keys

__all__ = [
    "END_OF_STREAM",
    "FanoutHub",
    "HubSubscription",
    "POLICIES",
    "PlanGroup",
    "ResultCache",
    "ServeClient",
    "ServeError",
    "ServeServer",
    "ServingSubscription",
    "SlowSubscriberDisconnected",
    "StandingQueryService",
    "SubplanRegistry",
    "graph_structural_keys",
]
