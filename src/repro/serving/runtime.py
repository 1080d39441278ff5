"""The online serving runtime: live traffic in, versioned k-DPP lists out.

:class:`ServingRuntime` composes the pieces of this package into the
process a service actually runs:

* a **catalog** — monolithic :class:`ItemCatalog` or
  :class:`~repro.serving.sharding.ShardedCatalog` — publishing immutable
  factor snapshots;
* a matching **server** — :class:`KDPPServer`, or the shard-funnel
  :class:`~repro.serving.sharding.ShardedKDPPServer` — doing exact
  batched k-DPP work;
* a :class:`~repro.serving.scheduler.MicroBatcher` coalescing
  single-request :meth:`submit` calls into engine batches on worker
  threads.

Request lifecycle::

    submit(request)                      # returns a Future immediately
      └─ admission: pin the current catalog snapshot to the request
           └─ micro-batch window (size max_batch / time max_wait)
                └─ shard fan-out: per-shard quality top-k funnel
                     └─ one exact k-DPP over the merged candidate pool
                          └─ Future resolves to a version-stamped Response

Snapshot hot-swap: :meth:`publish` double-buffers retrained factors
into the catalog (build fully, then one reference swap).  Because every
request pinned its snapshot at *admission*, requests already in the
micro-batch queue complete against the version they were admitted
under; requests submitted after :meth:`publish` are served — and
stamped — with the new version.  The batcher serves each distinct
snapshot in its own engine call, so one dispatched batch never mixes
factor generations.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from typing import Sequence

import numpy as np

from ..utils.metrics import CreditSampler, MetricsRegistry
from .catalog import ItemCatalog
from .config import ServingConfig
from .health import (
    _STATUS_SEVERITY,
    ALERT_KINDS,
    DEGRADED,
    HEALTHY,
    CanaryReport,
    HealthStatus,
    ResponseAuditor,
    SLOTracker,
)
from .observability import EventLog, RuntimeTelemetry, Trace
from .profiling import (
    CapacityModel,
    FootprintReport,
    HeadroomReport,
    SamplingProfiler,
    StageRegistry,
    collect_footprint,
)
from .resilience import AdmittedRequest, ResilientServer, TransientError
from .scheduler import MicroBatcher
from .server import KDPPServer, Request, Response
from .sharding import ShardedCatalog, ShardedKDPPServer

__all__ = ["ServingRuntime"]

#: transient publish failures retried (with exponential backoff from
#: ``ServingConfig.publish_backoff``) before the error propagates
PUBLISH_RETRIES = 2


class ServingRuntime:
    """Async admission + micro-batching + hot-swap over a k-DPP server.

    Parameters
    ----------
    catalog:
        :class:`ItemCatalog` or :class:`ShardedCatalog`; picks the
        default server flavor.
    server:
        Override the engine (must serve ``(requests, snapshot=...)``).
    config:
        A :class:`~repro.serving.config.ServingConfig` carrying every
        infrastructure knob — micro-batcher admission windows
        (``max_batch`` / ``max_wait`` / ``workers`` / ``clock``;
        ``workers=0`` is the deterministic inline mode, drive with
        :meth:`poll` / :meth:`flush`), default-server pool sizes
        (``funnel_width`` / ``rerank_pool``), and the funnel plug-ins
        (``source`` / ``funnel_cache``, sharded catalogs only; an
        attached cache is invalidated eagerly by :meth:`publish`).
        :meth:`from_config` is the constructor-shaped spelling.
    """

    def __init__(
        self,
        catalog: ItemCatalog | ShardedCatalog,
        server: KDPPServer | None = None,
        config: ServingConfig | None = None,
    ) -> None:
        config = config if config is not None else ServingConfig()
        self.catalog = catalog
        self.config = config
        if server is None:
            if isinstance(catalog, ShardedCatalog):
                server = ShardedKDPPServer(catalog, config=config)
            elif config.source is not None or config.funnel_cache is not None:
                raise ValueError(
                    "candidate sources / funnel caches require a sharded "
                    "catalog (the monolithic engine has no funnel stage)"
                )
            else:
                server = KDPPServer(catalog, config=config)
        elif config.source is not None or config.funnel_cache is not None:
            raise ValueError(
                "pass source/funnel_cache either to the runtime (to build "
                "the default server) or to your own server, not both"
            )
        self.server = server
        clock = config.clock if config.clock is not None else time.monotonic
        self._clock = clock
        # One registry + one event log span the whole runtime: the
        # scheduler, the resilient layer and the publish path all
        # register into them, so telemetry().to_text() is one page.
        self._registry = MetricsRegistry()
        self._event_log = EventLog(clock=clock)
        if config.alert_sink is not None:
            self._event_log.subscribe(config.alert_sink, ALERT_KINDS)
        self._telemetry = RuntimeTelemetry(
            self._registry, self._event_log, clock=clock
        )
        # Deterministic trace sampling (no RNG, so seeded sample streams
        # are untouched; rate 0 short-circuits).
        self._trace_sampler = CreditSampler(config.trace_rate)
        self._fault_plan = config.fault_plan
        # The one cost model: every engine batch's (size, seconds, mode
        # mix) feeds both the capacity fit behind headroom() and the
        # per-mode estimates the deadline check degrades against.  The
        # sampling profiler and its thread→stage registry exist only at
        # profile_hz > 0 — the registry's push/pop in the stage recorder
        # is the *only* serving-path delta, and the sampler itself is a
        # passive daemon thread (no RNG, no serving lock), keeping
        # profile_hz=0 bit-identical, samples included.
        self._capacity = CapacityModel(workers=max(1, config.workers))
        self._stage_registry: StageRegistry | None = None
        self._profiler: SamplingProfiler | None = None
        if config.profile_hz > 0:
            self._stage_registry = StageRegistry()
            self._profiler = SamplingProfiler(
                hz=config.profile_hz, registry=self._stage_registry
            )
            self._profiler.start()
        # The resilience layer sits between the batcher and the engine:
        # deadline budgets, the degradation ladder, and fault-injection
        # hooks (no-op on the default no-pressure path — parity-pinned).
        self._resilient = ResilientServer(
            server,
            clock=clock,
            fault_plan=config.fault_plan,
            registry=self._registry,
            event_log=self._event_log,
            stage_registry=self._stage_registry,
            cost_model=self._capacity,
        )
        if config.fault_plan is not None:
            source = getattr(server, "source", None)
            if source is not None:
                config.fault_plan.attach(source)
        self._publishes = self._registry.counter(
            "publish_total", "catalog versions published"
        )
        self._publish_retry_count = self._registry.counter(
            "publish_retries_total", "transient publish failures retried"
        )
        server.map_fallbacks = self._registry.counter(
            "serving_map_certificate_fallbacks_total",
            "full-catalog greedy-MAP rows rerun over the whole catalog "
            "after their top-candidate certificate failed",
        )
        breaker = getattr(getattr(server, "source", None), "breaker", None)
        if breaker is not None:
            transitions = self._registry.counter(
                "breaker_transitions_total",
                "circuit-breaker state transitions",
                labelnames=("from_state", "to_state"),
            )

            def _on_breaker(old: str, new: str) -> None:
                transitions.labels(from_state=old, to_state=new).inc()
                self._event_log.record("breaker", from_state=old, to_state=new)

            breaker.listener = _on_breaker
        # Product health (PR 9): the SLO burn tracker and the sampled
        # slate auditor — both fed post-serve by _serve_tagged, so the
        # engine's batch window never pays.  Their alerts are events.
        self._slo_tracker = SLOTracker(
            slos=tuple(config.slos) if config.slos is not None else (),
            clock=clock,
            registry=self._registry,
            event_log=self._event_log,
        )
        self._auditor = ResponseAuditor(
            self._registry,
            self._event_log,
            clock=clock,
            audit_rate=config.audit_rate,
            canary_min_audits=config.canary_min_audits,
            drift_window=config.drift_window,
            slo_tracker=self._slo_tracker,
        )
        self._health_gauge = self._registry.gauge(
            "serving_health_status",
            "runtime.health(): 0 healthy / 1 degraded / 2 unhealthy",
        )
        self._batcher = MicroBatcher.from_config(
            self._serve_tagged,
            config,
            on_overload=self._on_overload,
            registry=self._registry,
        )
        # Legacy stats() dicts ride into the merged snapshot as named
        # providers; req/s derives from the scheduler's served counter.
        self._telemetry.add_provider("scheduler", lambda: self._batcher.stats)
        self._telemetry.add_provider("resilience", self._resilient.stats)
        retrieval = getattr(server, "retrieval_stats", None)
        if retrieval is not None:
            self._telemetry.add_provider("retrieval", retrieval)
        self._telemetry.add_provider(
            "catalog", lambda: {"version": self.catalog.version}
        )
        if config.fault_plan is not None:
            self._telemetry.add_provider(
                "faults_injected", config.fault_plan.stats
            )
        self._telemetry.add_provider("audit", self._auditor.stats)
        # Performance-introspection sections (telemetry schema v3):
        # memory accounting and the capacity headroom report always,
        # the profiler's sample/attribution stats when it runs.
        self._telemetry.add_provider(
            "footprint", lambda: self.footprint().to_dict()
        )
        self._telemetry.add_provider(
            "headroom", lambda: self.headroom().to_dict()
        )
        if self._profiler is not None:
            self._telemetry.add_provider("profile", self._profiler.stats)
        self._telemetry.set_health(lambda: self.health().to_dict())
        served_counter = self._registry.get("scheduler_served_total")
        self._telemetry.set_served_total(lambda: served_counter.value)

    @classmethod
    def from_config(
        cls,
        catalog: ItemCatalog | ShardedCatalog,
        config: ServingConfig | None = None,
        server: KDPPServer | None = None,
    ) -> "ServingRuntime":
        """Build a runtime from one :class:`ServingConfig` (the preferred
        spelling; ``config=None`` means all defaults)."""
        return cls(catalog, server=server, config=config)

    def _serve_tagged(
        self, admitted: list[AdmittedRequest], snapshot
    ) -> Sequence:
        start = self._clock()
        results = self._resilient.serve_admitted(admitted, snapshot)
        # Post-serve product-health hook: version counters land in the
        # resilient layer, SLO windows and credit-sampled slate audits
        # here — after the batch resolved, never inside its window.
        self._auditor.observe_batch(
            admitted, results, snapshot, self._clock() - start
        )
        return results

    def _on_overload(self, item: AdmittedRequest, depth: int) -> None:
        """Degrade-policy callback: each full multiple of the cap in the
        queue is one more degradation-ladder rung (cap → 1 rung,
        2×cap → 2, ...) — pressure scales with how far behind we are."""
        cap = self.config.queue_cap
        item.pressure += 1 + (depth - cap) // cap

    def _maybe_trace(self) -> Trace | None:
        """A fresh trace when this request is sampled, else ``None``: at
        rate ``r`` exactly every ``1/r``-th submission traces, and no RNG
        is consumed, so the seeded sample streams the parity tests pin
        are byte-identical whether tracing is on or off."""
        return Trace(self._clock) if self._trace_sampler.take() else None

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> Future:
        """Admit one request; resolves to its version-stamped Response.

        The catalog snapshot is captured here — at admission — so a
        concurrent :meth:`publish` never retroactively changes what an
        already-queued request serves against.  ``request.deadline``
        rides along: the batcher caps retry work with it, the resilience
        layer degrades or sheds against it.
        """
        return self._batcher.submit(
            AdmittedRequest(request, trace=self._maybe_trace()),
            tag=self.catalog.snapshot(),
            deadline=request.deadline,
        )

    def submit_many(self, requests: Sequence[Request]) -> list[Future]:
        snapshot = self.catalog.snapshot()
        return [
            self._batcher.submit(
                AdmittedRequest(request, trace=self._maybe_trace()),
                tag=snapshot,
                deadline=request.deadline,
            )
            for request in requests
        ]

    def serve_now(self, requests: Sequence[Request]) -> list[Response]:
        """Bypass admission: serve synchronously on the caller's thread
        against the current snapshot (baselines, offline evaluation)."""
        return self.server.serve(requests, snapshot=self.catalog.snapshot())

    # ------------------------------------------------------------------
    # Snapshot publication
    # ------------------------------------------------------------------
    def publish(self, factors: np.ndarray) -> int:
        """Hot-swap retrained factors; returns the new catalog version.

        Safe under in-flight traffic: double-buffered inside the
        catalog, and queued requests keep their admission snapshot.  An
        attached funnel cache is invalidated down to the new version —
        correctness never depends on it (cache keys carry the version),
        but the displaced generation's pools are reclaimed eagerly.

        Transient failures (:class:`TransientError`, e.g. a publish race
        injected by a fault plan) are retried up to
        :data:`PUBLISH_RETRIES` times with exponential backoff from
        ``config.publish_backoff`` — slept through the injected clock
        when it is a manual one, so chaos tests never block on wall
        time.  Non-transient errors propagate immediately.

        When auditing is on, the pre-swap version's audit windows are
        frozen *before* the swap as the canary baseline; once the new
        version accrues ``config.canary_min_audits`` audited responses
        the auditor emits a :class:`~repro.serving.health.CanaryReport`
        (and a ``canary_regression`` event if quality regressed).
        """
        # Freeze the baseline before the swap: audits racing this
        # publish keep landing in the old version's windows, but the
        # comparison point is pinned to the moment the swap began.
        # (Skipped entirely when auditing is off — no extra events.)
        baseline = (
            self._auditor.aggregate(self.catalog.version)
            if self._auditor.rate > 0
            else None
        )
        delay = self.config.publish_backoff
        for attempt in range(PUBLISH_RETRIES + 1):
            try:
                if self._fault_plan is not None:
                    self._fault_plan.publish_tick()
                version = self.catalog.publish(factors)
                break
            except TransientError:
                if attempt == PUBLISH_RETRIES:
                    raise
                self._publish_retry_count.inc()
                self._event_log.record("publish_retry", attempt=attempt + 1)
                if delay > 0:
                    advance = getattr(self._clock, "advance", None)
                    if advance is not None:
                        advance(delay)
                    else:
                        time.sleep(delay)
                    delay *= 2
        cache = getattr(self.server, "funnel_cache", None)
        if cache is not None:
            cache.invalidate(keep_version=version)
        self._publishes.inc()
        self._event_log.record("publish", version=version)
        if baseline is not None:
            self._auditor.arm_canary(baseline, version)
        return version

    @property
    def version(self) -> int:
        return self.catalog.version

    # ------------------------------------------------------------------
    # Product health
    # ------------------------------------------------------------------
    def health(self) -> HealthStatus:
        """The runtime's product-health verdict right now.

        SLO burn rates (fast/slow multi-window, on the injected clock)
        decide ``unhealthy`` (both windows burning) vs ``degraded``
        (one window hot); a regressed canary targeting the live catalog
        version or flagged metric drift lifts ``healthy`` to
        ``degraded``.  Also refreshes the ``serving_health_status`` /
        ``slo_burn_rate`` gauges the text exposition renders.
        """
        status, reasons, evaluations = self._slo_tracker.health(self._clock())
        audit_reasons = self._auditor.health_reasons(self.catalog.version)
        if audit_reasons and status == HEALTHY:
            status = DEGRADED
        reasons.extend(audit_reasons)
        self._health_gauge.set(_STATUS_SEVERITY[status])
        return HealthStatus(
            status=status, reasons=tuple(reasons), slos=evaluations
        )

    # ------------------------------------------------------------------
    # Performance introspection (PR 10)
    # ------------------------------------------------------------------
    def footprint(self) -> FootprintReport:
        """Byte accounting of everything the stack is holding alive:
        every retained snapshot generation's structures (factors, Gram,
        dual spectrum, outer-product table, retrieval extensions), the
        funnel cache's pools, plus current/peak RSS.  An old version
        still reported here long after a publish is the leak signature
        (a displaced generation pinned by in-flight requests)."""
        return collect_footprint(self.catalog, self.server)

    def headroom(self) -> HeadroomReport:
        """Utilization and predicted saturation at the current mix.

        From the capacity model's affine batch-cost fit and per-mode
        EWMA cost estimates, both fed by every engine batch the
        resilient layer timed; the profiling benchmark validates the
        saturation estimate within ±30% of the measured closed-loop
        knee.  Meaningful once traffic has flowed — a cold model
        reports zero saturation, never a guess.
        """
        return self._capacity.headroom(
            uptime_s=self._telemetry.uptime,
            observed_req_per_s=self._telemetry.requests_per_second(),
        )

    @property
    def profiler(self) -> SamplingProfiler | None:
        """The continuous sampling profiler (None at ``profile_hz=0``);
        ``profiler.collapsed()`` is the flame-graph export."""
        return self._profiler

    @property
    def auditor(self) -> ResponseAuditor:
        return self._auditor

    @property
    def last_canary(self) -> CanaryReport | None:
        """The most recent post-publish canary verdict (None before
        any canary completed)."""
        return self._auditor.last_canary

    # ------------------------------------------------------------------
    # Scheduling controls / lifecycle
    # ------------------------------------------------------------------
    def poll(self) -> int:
        """Manual mode: dispatch due micro-batches inline (see batcher)."""
        return self._batcher.poll()

    def flush(self) -> int:
        """Manual mode: dispatch everything pending inline."""
        return self._batcher.flush()

    @property
    def pending(self) -> int:
        return self._batcher.pending

    @property
    def stats(self) -> dict:
        stats = self._batcher.stats
        stats["catalog_version"] = self.catalog.version
        retrieval = getattr(self.server, "retrieval_stats", None)
        if retrieval is not None:
            # Funnel time (source) vs queue time (admission_wait_*): the
            # two halves of the pre-kernel request cost, split out so
            # the retrieval benchmark can attribute wins correctly.
            stats["retrieval"] = retrieval()
        # Degradation / shed accounting, and the running per-mode cost
        # estimates the deadline-budget check degrades against.
        stats["resilience"] = self._resilient.stats()
        stats["publish_retries"] = int(self._publish_retry_count.value)
        if self._fault_plan is not None:
            stats["faults_injected"] = self._fault_plan.stats()
        return stats

    def telemetry(self) -> RuntimeTelemetry:
        """The unified telemetry facade: ``telemetry().snapshot()`` is
        the one versioned dict over every layer's visibility,
        ``telemetry().to_text()`` the Prometheus-style page."""
        return self._telemetry

    def close(self, drain: bool = True) -> None:
        """Close the batcher: ``drain=True`` serves queued requests,
        ``drain=False`` fails them with :class:`ShutdownError` (see
        :meth:`MicroBatcher.close`)."""
        self._batcher.close(drain=drain)
        if self._profiler is not None:
            self._profiler.stop()

    def __enter__(self) -> "ServingRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
