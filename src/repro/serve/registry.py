"""Standing-query registry: lifecycle, shared plan groups, subscriptions.

:class:`StandingQueryService` is the serving layer's core object.  Clients
**register** named queries (node specs against catalogued streams),
**subscribe** to them (optionally receiving the materialized snapshot
first), and **detach**; the service owns everything in between:

* **Lifecycle** — a standing query is idle until its first subscriber
  arrives, runs while any subscriber (of its plan group) is attached, and
  stops — immediately or after ``linger_seconds`` — once the last one
  detaches.  A finite replay also settles on its own, closing the hubs.
* **Shared plan groups** — when a query starts, the service gathers every
  idle registered query that transitively shares a structural subplan with
  it (:mod:`repro.serve.subplan`) and launches them as **one** merged
  :class:`~repro.dataflow.DataflowGraph`: a subplan referenced by Q queries
  is one physical operator set — same worker instances, same channels, same
  probability computers, one per maintainer
  (:meth:`~repro.dataflow.operators.RevisionJoin.maintainer`).  One query's
  sink may be another's interior node; its tap observes the shared node's
  live output either way.
* **Fan-out** — each tapped sink node has one
  :class:`~repro.serve.hub.FanoutHub` and one
  :class:`~repro.serve.cache.ResultCache`, shared by every member query
  whose sink it is; the group taps each sink node, min-merges its
  per-partition watermarks, and publishes every element once, with the
  cache update applied atomically.  A published element therefore costs one
  publish, one cache update and (over TCP) one encoding per sink, however
  many queries and subscribers read it; :meth:`StandingQueryService.stats`
  and :meth:`~StandingQueryService.metrics` still report per query, each
  query's subscribers attaching under its name.

Execution uses the in-process transports (taps are callables).  Unless the
service names one, a plan group of one worker runs inline in its run thread
and a larger one on ``threads``; either way hub backpressure under the
``block`` policy transfers to the graph workers and, transitively, the
sources.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..dataflow.compile import output_watermarks
from ..dataflow.executor import run_graph
from ..dataflow.graph import DataflowGraph, NodeSpec
from ..dataflow.query import IN_PROCESS, DataflowQuery
from ..relation import TPTuple
from ..runtime.driver import default_transport
from ..stream.elements import Watermark
from ..options import ExecutionOptions
from .cache import ResultCache
from .hub import HUB_TRACE_ID_BASE, POLICIES, FanoutHub, HubSubscription
from .subplan import SubplanRegistry


class ServeError(RuntimeError):
    """Raised on serving-layer misuse (unknown names, double registration)."""


class StandingQuery:
    """One registered standing query and its serving state."""

    def __init__(self, name: str, query: DataflowQuery, canonical: Dict[str, str]) -> None:
        self.name = name
        self.query = query
        #: Own node name → canonical subplan name (:class:`SubplanRegistry`).
        self.canonical = canonical
        #: The hub and cache of this query's sink, shared with every query
        #: of its plan group that has the same sink.
        self.hub: Optional[FanoutHub] = None
        self.cache: ResultCache = ResultCache()
        self.subscribers = 0
        self.group: Optional["PlanGroup"] = None

    @property
    def sink_canonical(self) -> str:
        """Canonical name of this query's sink node in the merged plan."""
        return self.canonical[self.query.graph.sink]


class PlanGroup:
    """One merged execution of a structural-sharing closure of queries."""

    def __init__(
        self,
        members: Sequence[StandingQuery],
        graph: DataflowGraph,
        config: ExecutionOptions,
        transport: str,
        merge_seed: Optional[int],
        hub_capacity: int,
        policy: str,
    ) -> None:
        self.members = list(members)
        self.graph = graph
        self.config = config
        self.transport = transport
        self.merge_seed = merge_seed
        #: Canonical sink name → the one hub and cache every member query
        #: with that sink reads.
        self.sinks: Dict[str, Tuple[FanoutHub, ResultCache]] = {}
        for member in self.members:
            sink = member.sink_canonical
            if sink not in self.sinks:
                self.sinks[sink] = (
                    FanoutHub(hub_capacity, policy, *self._hub_tracing(sink)),
                    ResultCache(),
                )
        #: Live/final worker metrics for this group's run (populated only
        #: when the shared config enables metrics; ``None`` otherwise).
        self.collector = None
        if config.metrics:
            from ..obs.collector import MetricsCollector

            self.collector = MetricsCollector()
        #: Live/final span timelines for this group's run (populated only
        #: when the shared config enables tracing; ``None`` otherwise).
        self.trace_collector = None
        if config.trace:
            from ..obs.trace import TraceCollector

            self.trace_collector = TraceCollector()
        self.cancel = threading.Event()
        self.finished = threading.Event()
        self.failure: Optional[BaseException] = None
        self.subscribers = 0
        #: Canonical node name → operator instances (one per partition),
        #: collected by start-up probes; the sharing assertions read this.
        self.operators: Dict[str, List] = {}
        self._operators_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._linger_timer: Optional[threading.Timer] = None

    @property
    def names(self) -> List[str]:
        return [member.name for member in self.members]

    @property
    def hubs(self) -> List[FanoutHub]:
        return [hub for hub, _cache in self.sinks.values()]

    def _hub_tracing(self, sink: str) -> tuple:
        """``(tracer, sampler)`` for the next hub, ``(None, None)`` untraced.

        Hub traces are rooted at the hub — taps strip the worker context —
        so each hub samples its own published elements at the shared rate.
        Ids are offset into the hub id space, one disjoint block per hub, so
        no two hubs (and no hub and the driver sampler) ever share a
        timeline.
        """
        if not self.config.trace:
            return None, None
        from ..obs.trace import Tracer, TraceSampler

        readers = [member.name for member in self.members if member.sink_canonical == sink]
        sampler = TraceSampler(
            self.config.trace_sample_rate,
            first_id=HUB_TRACE_ID_BASE + len(self.sinks) * 100_000,
        )
        return Tracer(f"hub/{'+'.join(readers)}"), sampler

    def start(self) -> None:
        """Tap every member sink, probe every node, run in a daemon thread."""
        taps = {sink: self._make_tap(sink, *pair) for sink, pair in self.sinks.items()}
        probes = {name: self._make_probe(name) for name in self.graph.node_names}
        self._thread = threading.Thread(
            target=self._run,
            args=(taps, probes),
            name=f"serve-group-{'+'.join(self.names)}",
            daemon=True,
        )
        self._thread.start()

    def _make_tap(self, sink: str, hub: FanoutHub, cache: ResultCache):
        # One watermark tracker per tapped node: per-partition sink
        # watermarks min-merge into the node's true output frontier before
        # fan-out.
        tracker = output_watermarks(self.graph, sink)
        tracker_lock = threading.Lock()
        publish = hub.publish
        update = cache.apply

        def tap(channel_id, element) -> None:
            if isinstance(element, Watermark):
                with tracker_lock:
                    merged = tracker.update(channel_id, element.value)
                if merged is None:
                    return
                element = Watermark(merged)
            publish(element, update)

        return tap

    def _make_probe(self, name: str):
        def probe(_channel_id, join) -> None:
            with self._operators_lock:
                self.operators.setdefault(name, []).append(join)

        return probe

    def _run(self, taps, probes) -> None:
        try:
            run_graph(
                self.graph,
                self.config,
                self.merge_seed,
                transport=self.transport,
                taps=taps,
                probes=probes,
                cancel=self.cancel,
                collector=self.collector,
                trace_collector=self.trace_collector,
            )
        except BaseException as error:  # noqa: BLE001 - surfaced via failure
            self.failure = error
        finally:
            for hub in self.hubs:
                hub.close()
            self.finished.set()

    def stop(self) -> None:
        """Cancel cooperatively and close the group's hubs.

        Closing the hubs first guarantees progress: a publisher parked on a
        full ring (``block`` policy, stalled subscriber) wakes and returns,
        so the graph always settles over what was already ingested.
        """
        timer = self._linger_timer
        if timer is not None:
            timer.cancel()
            self._linger_timer = None
        self.cancel.set()
        for hub in self.hubs:
            hub.close()

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for the group's run thread; returns whether it finished."""
        if self._thread is not None:
            self._thread.join(timeout)
        return self.finished.is_set()

    def schedule_linger_stop(self, seconds: float, callback) -> None:
        timer = threading.Timer(seconds, callback)
        timer.daemon = True
        self._linger_timer = timer
        timer.start()

    def cancel_linger_stop(self) -> None:
        timer = self._linger_timer
        if timer is not None:
            timer.cancel()
            self._linger_timer = None


class ServingSubscription:
    """A service-level subscription: hub cursor + detach bookkeeping."""

    def __init__(
        self, service: "StandingQueryService", record: StandingQuery,
        group: PlanGroup, inner: HubSubscription,
    ) -> None:
        self._service = service
        self._record = record
        self._group = group
        self._inner = inner
        self._closed = False

    @property
    def snapshot(self) -> Optional[List[TPTuple]]:
        """The atomically consistent snapshot taken at subscribe time."""
        return self._inner.snapshot

    @property
    def cursor(self) -> int:
        return self._inner.cursor

    def read_batch(
        self,
        limit: int,
        timeout: Optional[float] = None,
        waker: Optional[Callable[[], None]] = None,
    ):
        """Up to ``limit`` elements the ring already holds (the unit of
        delivery); see :meth:`repro.serve.hub.FanoutHub.read_batch`."""
        return self._inner.read_batch(limit, timeout, waker)

    def read_encoded(
        self,
        limit: int,
        encode: Callable[[object], bytes],
        waker: Optional[Callable[[], None]] = None,
    ):
        """Up to ``limit`` encodings, one ``encode`` per element per hub;
        see :meth:`repro.serve.hub.FanoutHub.read_encoded`."""
        return self._inner.read_encoded(limit, encode, waker)

    def read(self, timeout: Optional[float] = None):
        """Next element; ``END_OF_STREAM`` when done, ``None`` on timeout."""
        return self._inner.read(timeout)

    def __iter__(self) -> Iterator:
        return iter(self._inner)

    def close(self) -> None:
        """Detach from the standing query (idempotent)."""
        if not self._closed:
            self._closed = True
            self._service.detach(self)


class StandingQueryService:
    """Register / subscribe / snapshot / detach over shared plan groups.

    Args:
        catalog: the engine catalog holding the source streams (and, when it
            has one, the query namespace standing queries register in).
        config: execution knobs for every plan group (members share
            operators, so they necessarily share knobs); defaults to
            early-emitting so subscribers see provisional revisions.
        hub_capacity / policy: fan-out ring size and slow-subscriber policy
            (see :mod:`repro.serve.hub`).
        linger_seconds: how long a group keeps running after its last
            subscriber detaches (0 stops immediately).
        transport: in-process runtime transport (``threads`` or ``inline``);
            ``None`` runs one-worker plan groups inline and larger ones on
            ``threads``.
        merge_seed: source interleaving seed forwarded to every run.
    """

    def __init__(
        self,
        catalog,
        config: Optional[ExecutionOptions] = None,
        hub_capacity: int = 256,
        policy: str = "block",
        linger_seconds: float = 0.0,
        transport: Optional[str] = None,
        merge_seed: Optional[int] = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        if transport is not None and transport not in IN_PROCESS:
            raise ValueError(
                f"serving taps the graph in-process; transport must be one "
                f"of {IN_PROCESS}, got {transport!r}"
            )
        self._catalog = catalog
        self._config = config or ExecutionOptions(early_emit=True)
        self._hub_capacity = hub_capacity
        self._policy = policy
        self._linger_seconds = linger_seconds
        self._transport = transport
        self._merge_seed = merge_seed
        self._registry = SubplanRegistry(catalog)
        self._queries: Dict[str, StandingQuery] = {}
        self._lock = threading.RLock()

    @property
    def subplans(self) -> SubplanRegistry:
        return self._registry

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(
        self, name: str, nodes: Sequence[NodeSpec], replace: bool = False
    ) -> StandingQuery:
        """Register a standing query under ``name``.

        Also records it in the catalog's query namespace when the catalog
        has one, so ``EXPLAIN``/tooling can address it.  That namespace is
        shared with the engine's queries: a name an engine query holds
        raises :class:`~repro.engine.CatalogError` unless ``replace``.
        """
        with self._lock:
            if name in self._queries:
                if not replace:
                    raise ServeError(f"standing query {name!r} already registered")
                self.unregister(name)
            query = DataflowQuery(self._catalog, nodes, self._config)
            if hasattr(self._catalog, "register_query"):
                self._catalog.register_query(name, query, replace=replace)
            canonical = self._registry.acquire(query.graph)
            record = StandingQuery(name, query, canonical)
            self._queries[name] = record
            return record

    def unregister(self, name: str) -> None:
        """Remove a standing query, stopping its plan group if running."""
        with self._lock:
            record = self._queries.pop(name, None)
            if record is None:
                raise ServeError(f"unknown standing query {name!r}")
            if record.group is not None and not record.group.finished.is_set():
                record.group.stop()
            self._registry.release(record.query.graph)
            if hasattr(self._catalog, "unregister_query"):
                self._catalog.unregister_query(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._queries)

    def lookup(self, name: str) -> StandingQuery:
        with self._lock:
            try:
                return self._queries[name]
            except KeyError:
                raise ServeError(
                    f"unknown standing query {name!r}; registered: "
                    f"{sorted(self._queries)}"
                ) from None

    # ------------------------------------------------------------------ #
    # subscription lifecycle
    # ------------------------------------------------------------------ #
    def subscribe(self, name: str, snapshot: bool = True) -> ServingSubscription:
        """Attach to a standing query, starting its plan group if idle.

        With ``snapshot`` the subscription carries the materialized state
        taken atomically with the cursor placement — the late joiner's
        snapshot + live tail equals a from-start subscriber's accumulation.
        """
        with self._lock:
            record = self.lookup(name)
            # Prepare (but do not start) the plan group first: the first
            # subscriber's cursor must be attached before any element is
            # published, or the elements preceding the attach would reach
            # only the cache and the from-start subscriber would miss them.
            started = self._prepare_group(record)
            group = record.group
            group.cancel_linger_stop()
            inner = record.hub.attach(
                record.cache.snapshot if snapshot else None, owner=name
            )
            record.subscribers += 1
            group.subscribers += 1
            if started:
                group.start()
            return ServingSubscription(self, record, group, inner)

    def detach(self, subscription: ServingSubscription) -> None:
        """Release one subscription; last detach stops (or lingers) the group."""
        with self._lock:
            record = subscription._record
            group = subscription._group
            subscription._inner.close()
            record.subscribers = max(0, record.subscribers - 1)
            group.subscribers = max(0, group.subscribers - 1)
            if group.subscribers > 0 or group.finished.is_set():
                return
            if self._linger_seconds <= 0:
                group.stop()
            else:
                group.schedule_linger_stop(
                    self._linger_seconds, lambda: self._linger_expired(group)
                )

    def _linger_expired(self, group: PlanGroup) -> None:
        with self._lock:
            if group.subscribers <= 0 and not group.finished.is_set():
                group.stop()

    def snapshot(self, name: str, settled_only: bool = False) -> List[TPTuple]:
        """The standing query's current materialized state (consistent read)."""
        with self._lock:
            record = self.lookup(name)
            hub = record.hub
        if hub is None:
            return record.cache.snapshot(settled_only)
        with hub.lock:
            return record.cache.snapshot(settled_only)

    def _prepare_group(self, record: StandingQuery) -> bool:
        """Build a fresh plan group for an idle query; returns whether the
        caller must start it (after attaching the triggering subscriber)."""
        if record.group is not None and not record.group.finished.is_set():
            return False
        members = self._sharing_closure(record)
        graph, transport = self._group_plan(members)
        group = PlanGroup(
            members, graph, self._config, transport, self._merge_seed,
            self._hub_capacity, self._policy,
        )
        for member in members:
            member.hub, member.cache = group.sinks[member.sink_canonical]
            member.group = group
        return True

    def _group_plan(self, members: Sequence[StandingQuery]) -> Tuple[DataflowGraph, str]:
        """The merged graph of a plan group of ``members`` and the transport
        it runs on: the service's, else ``threads`` sized by the graph."""
        wanted: Set[str] = set()
        for member in members:
            wanted.update(member.canonical.values())
        graph = DataflowGraph(self._catalog, self._registry.plan_nodes(wanted))
        return graph, self._transport or default_transport(
            "threads", sum(graph.partition_counts)
        )

    def _group_transport(self, record: StandingQuery) -> str:
        """The transport of ``record``'s plan group: the running group's,
        else the one :meth:`_prepare_group` would pick now."""
        group = record.group
        if group is not None and not group.finished.is_set():
            return group.transport
        return self._group_plan(self._sharing_closure(record))[1]

    def _sharing_closure(self, record: StandingQuery) -> List[StandingQuery]:
        """Idle registered queries transitively sharing a subplan with
        ``record`` (including ``record``), in registration order."""
        idle = [
            query
            for query in self._queries.values()
            if query.group is None or query.group.finished.is_set()
        ]
        chosen: Dict[str, StandingQuery] = {record.name: record}
        reachable: Set[str] = set(record.canonical.values())
        grew = True
        while grew:
            grew = False
            for query in idle:
                if query.name in chosen:
                    continue
                names = set(query.canonical.values())
                if names & reachable:
                    chosen[query.name] = query
                    reachable |= names
                    grew = True
        return [query for query in self._queries.values() if query.name in chosen]

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def operators_of(self, name: str) -> List:
        """The live operator instances behind a query's sink (per partition)."""
        with self._lock:
            record = self.lookup(name)
            if record.group is None:
                return []
            return list(record.group.operators.get(record.sink_canonical, ()))

    def shared_subplans(self) -> Set[str]:
        """Canonical subplan names currently referenced by >1 query."""
        with self._lock:
            return self._registry.shared_names()

    def explain(self, name: str) -> str:
        """EXPLAIN of a standing query, with ``shared=`` markers.

        Renders the query's canonical (merged-plan) nodes, so shared
        subplans appear under their canonical names, on the transport its
        plan group runs on (:meth:`_group_transport`).
        """
        from ..engine.explain import explain_dataflow

        with self._lock:
            record = self.lookup(name)
            canonical = set(record.canonical.values())
            nodes = self._registry.plan_nodes(canonical)
            shared = tuple(sorted(self._registry.shared_names() & canonical))
            transport = self._group_transport(record)
        graph = DataflowGraph(self._catalog, nodes)
        return explain_dataflow(graph, graph.source_names, self._config, transport, shared)

    def stats(self) -> Dict[str, dict]:
        """Per-query serving statistics (hub counters, cache size, state)."""
        with self._lock:
            report: Dict[str, dict] = {}
            for name, record in self._queries.items():
                hub = record.hub
                group = record.group
                report[name] = {
                    "subscribers": record.subscribers,
                    "cached_tuples": len(record.cache),
                    "last_watermark": record.cache.last_watermark,
                    "running": group is not None and not group.finished.is_set(),
                    "published": 0 if hub is None else hub.published,
                    "dropped_provisional": 0 if hub is None else hub.dropped_provisional,
                    "publish_blocks": 0 if hub is None else hub.publish_blocks,
                    "disconnects": 0 if hub is None else hub.disconnects,
                    "sink": record.sink_canonical,
                }
            return report

    def metrics(self) -> Dict[str, dict]:
        """Per-query telemetry: hub ring/cursor metrics + worker snapshots.

        Each entry carries the query's fan-out hub reading (occupancy,
        per-subscriber cursor lags, drop/block counters) — the hub of its
        sink, shared with any query of its group with the same sink, but
        with subscriber, lag and read figures for this query's own
        subscribers only — and, when the shared config enables metrics, the
        plan group's aggregated worker view (counters summed, watermarks
        min-merged).  Everything is plain builtins, so the serve front end
        ships it as one JSON reply.
        """
        with self._lock:
            records = list(self._queries.items())
        report: Dict[str, dict] = {}
        for name, record in records:
            hub = record.hub
            entry: Dict[str, object] = {
                "hub": None if hub is None else hub.metrics(owner=name),
                "cursor_lags": (
                    {} if hub is None
                    else {str(k): v for k, v in hub.subscriber_lags(owner=name).items()}
                ),
                "workers": None,
            }
            group = record.group
            collector = None if group is None else group.collector
            aggregate = None if collector is None else collector.aggregate()
            if aggregate is not None:
                entry["workers"] = {
                    "totals": aggregate.totals(),
                    "by_node": aggregate.by_node(),
                    "load_skew": aggregate.load_skew(),
                }
            report[name] = entry
        return report

    def trace_spans(self) -> List[dict]:
        """Every span across running plan groups and their fan-out hubs.

        Worker/driver spans come from each group's trace collector (live
        mid-run, final after); ``hub_publish``/``cursor_advance`` spans
        from each hub's own tracer, each hub visited once.  Empty unless
        the shared config enables tracing.  Spans carry unique ids, so
        feeding repeated readings into one :class:`repro.obs.TraceAggregator`
        is safe.
        """
        with self._lock:
            groups = {
                id(record.group): record.group
                for record in self._queries.values()
                if record.group is not None and record.group.trace_collector is not None
            }
        spans: List[dict] = []
        for group in groups.values():
            for hub in group.hubs:
                spans.extend(hub.trace_spans())
            spans.extend(group.trace_collector.spans())
        return spans

    def worker_snapshots(self) -> List[dict]:
        """Raw labelled worker snapshots across every running plan group.

        Deduplicated by group (members share one run), relabelled with the
        group's member names so a Prometheus scrape can tell groups apart.
        """
        with self._lock:
            groups = {
                id(record.group): record.group
                for record in self._queries.values()
                if record.group is not None and record.group.collector is not None
            }
        snapshots: List[dict] = []
        for group in groups.values():
            queries = "+".join(group.names)
            for snapshot in group.collector.snapshots():
                labels = dict(snapshot.get("labels", {}))
                labels["queries"] = queries
                labels["worker"] = f"{queries}/{labels.get('worker', '')}"
                snapshots.append({**snapshot, "labels": labels})
        return snapshots

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #
    def stop(self, name: str, join_timeout: float = 10.0) -> None:
        """Stop one query's plan group (all member queries stop with it)."""
        with self._lock:
            record = self.lookup(name)
            group = record.group
        if group is not None and not group.finished.is_set():
            group.stop()
            group.join(join_timeout)

    def shutdown(self, join_timeout: float = 10.0) -> None:
        """Stop every running plan group and wait for their threads."""
        with self._lock:
            groups = {
                id(record.group): record.group
                for record in self._queries.values()
                if record.group is not None
            }
        for group in groups.values():
            if not group.finished.is_set():
                group.stop()
        for group in groups.values():
            group.join(join_timeout)
