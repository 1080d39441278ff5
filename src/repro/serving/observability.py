"""Unified serving telemetry: metrics, stage traces, one snapshot.

The stack below this module answers "what did we serve?"; this module
answers "where did the milliseconds go, and why did requests degrade?"
— the two questions the ROADMAP's millions-of-users north star needs
before any capacity claim means anything.  Three pieces:

**Metrics registry** — the thread-safe :class:`Counter` / :class:`Gauge`
/ log-bucketed :class:`Histogram` primitives (re-exported from
:mod:`repro.utils.metrics`, which lives under ``utils`` so retrieval
sources can adopt them without importing the serving layer).  Every
layer of one :class:`~repro.serving.runtime.ServingRuntime` registers
into a single :class:`MetricsRegistry`, so
``runtime.telemetry().to_text()`` is one Prometheus-style page covering
admission, engine stages, degradations, sheds and breaker trips.

**Per-request stage tracing** — a sampled :class:`Trace`
(``ServingConfig.trace_rate``; the default 0 keeps the fast path
bit-identical, seeded samples included) carries spans opened and closed
through the *injected clock* at each lifecycle stage: queue wait at the
resilient layer's entry, ``funnel`` / ``source`` in the sharded
lowering, ``resolve`` / ``dual_build`` / ``eigh`` / ``normalizer`` /
``selection`` / ``emit`` inside the engine.  Engine stages are batch
phases, timed for *every* engine batch by one :class:`StageRecorder`
(the runtime hands one to each batch; a direct ``serve`` call makes its
own): they feed the ``serving_stage_seconds`` histogram, and because
every member of a batch waits on the whole batch, the recorder attaches
the same spans to every traced member.  The finished trace rides out on
``Response.trace``.

Sampling is deterministic — a
:class:`~repro.utils.metrics.CreditSampler`, not an RNG — because
consuming random numbers on the serving path would perturb the seeded
sample streams the parity tests pin.

**Events** — degradations, sheds, deadline failures, breaker
transitions, publishes, canary verdicts, drift and SLO burns are
recorded into the bounded ring-buffer :class:`EventLog`.  Alerts are
events too: :meth:`EventLog.subscribe` fires a callback at record time
for the kinds it names (``ServingConfig.alert_sink`` subscribes to
:data:`~repro.serving.health.ALERT_KINDS`).

**RuntimeTelemetry** — the facade merging every scattered ``stats()``
dict (scheduler, resilience, retrieval, faults, catalog) into one
versioned snapshot schema (:data:`TELEMETRY_SCHEMA_VERSION`), plus a
:class:`MetricsReporter` that emits snapshots periodically — threaded
against a real clock, or driven by explicit :meth:`~MetricsReporter.tick`
calls in the batcher's ``workers=0`` deterministic mode.
"""

from __future__ import annotations

import logging
import os
import platform
import threading
import time
from contextlib import contextmanager
from collections import deque
from typing import Any, Callable, Sequence

from ..utils.metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Trace",
    "StageRecorder",
    "EventLog",
    "RuntimeTelemetry",
    "MetricsReporter",
    "LoggingBridge",
    "attach_logging",
    "telemetry_meta",
    "TELEMETRY_SCHEMA_VERSION",
]

#: bump when the RuntimeTelemetry.snapshot() key layout changes
#: (2: product-health sections — top-level ``health`` / ``audit`` keys,
#: ``new_events`` tails on MetricsReporter-emitted snapshots;
#: 3: the host-identifying ``meta`` section, plus the performance-
#: introspection providers — ``footprint`` / ``headroom`` always,
#: ``profile`` when ``ServingConfig.profile_hz > 0``)
TELEMETRY_SCHEMA_VERSION = 3


def telemetry_meta() -> dict:
    """The host/interpreter identity block snapshots carry (schema v3).

    Benchmarks always recorded python/numpy versions; runtime snapshots
    did not, which made archived snapshots from different hosts
    ambiguous.  Computed once per process (the values cannot change).
    """
    global _TELEMETRY_META
    if _TELEMETRY_META is None:
        try:
            import numpy

            numpy_version = numpy.__version__
        except ImportError:  # pragma: no cover - numpy is a hard dep here
            numpy_version = None
        _TELEMETRY_META = {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "python": platform.python_version(),
            "numpy": numpy_version,
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "pid": os.getpid(),
        }
    return dict(_TELEMETRY_META)


_TELEMETRY_META: dict | None = None

#: events an :class:`EventLog` retains by default
EVENT_LOG_CAPACITY = 1024


class Span:
    """One closed stage interval inside a trace.

    ``nested=True`` marks a span contained in another span of the same
    trace (``source`` runs inside ``funnel``); coverage accounting
    skips nested spans so wall-clock time is never counted twice.
    """

    __slots__ = ("name", "start", "end", "nested")

    def __init__(
        self, name: str, start: float, end: float, nested: bool = False
    ) -> None:
        self.name = name
        self.start = float(start)
        self.end = float(end)
        self.nested = bool(nested)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "nested": self.nested,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, {self.duration:.6f}s)"


class Trace:
    """The per-request span tree, clocked by the injected clock.

    A trace is created at admission (``started``), handed through the
    queue inside the :class:`~repro.serving.resilience.AdmittedRequest`
    envelope, filled by the layers the request crosses, and finished
    when its response is stamped — at which point it rides out on
    ``Response.trace``.  Ownership is sequential (submit thread →
    worker thread → caller via the future), so no lock: each handoff
    already synchronizes through the batcher's condition / the future.
    """

    __slots__ = ("started", "finished", "spans", "events", "annotations", "_clock")

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        started: float | None = None,
    ) -> None:
        self._clock = clock
        self.started = clock() if started is None else float(started)
        self.finished: float | None = None
        self.spans: list[Span] = []
        self.events: list[tuple[float, str, dict]] = []
        self.annotations: dict[str, Any] = {}

    def add_span(
        self, name: str, start: float, end: float, nested: bool = False
    ) -> Span:
        span = Span(name, start, end, nested=nested)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, nested: bool = False):
        start = self._clock()
        try:
            yield self
        finally:
            self.add_span(name, start, self._clock(), nested=nested)

    def event(self, name: str, **fields) -> None:
        self.events.append((self._clock(), name, fields))

    def annotate(self, **fields) -> None:
        self.annotations.update(fields)

    def finish(self) -> "Trace":
        if self.finished is None:
            self.finished = self._clock()
        return self

    @property
    def duration(self) -> float:
        """Admission-to-finish in clock seconds (to now if unfinished)."""
        end = self.finished if self.finished is not None else self._clock()
        return end - self.started

    def span_seconds(self, include_nested: bool = False) -> float:
        return sum(
            span.duration
            for span in self.spans
            if include_nested or not span.nested
        )

    def coverage(self, total: float | None = None) -> float:
        """Fraction of the request's latency its top-level spans explain.

        ``total`` defaults to the trace's own duration; pass the
        caller-measured end-to-end latency to audit against an external
        clock.  1.0 when the total is zero (manual clocks that never
        advanced have nothing unaccounted for).
        """
        denominator = self.duration if total is None else total
        if denominator <= 0:
            return 1.0
        return self.span_seconds() / denominator

    def to_dict(self) -> dict:
        """The JSON-friendly dump README's example shows."""
        return {
            "started": self.started,
            "finished": self.finished,
            "duration": self.duration,
            "spans": [span.to_dict() for span in self.spans],
            "events": [
                {"time": when, "name": name, **fields}
                for when, name, fields in self.events
            ],
            "annotations": dict(self.annotations),
        }


class StageRecorder:
    """Collects one batch's phase spans: the one stage-timing spine.

    The engine serves a whole batch through shared phases (one dual
    build, one stacked ``eigh``) and times each through
    :meth:`stage`; every engine batch carries a recorder, so the
    per-stage histogram covers every batch, traced or not.  Every member
    of the batch waited on every phase, so :meth:`extend_trace` attaches
    the full recorded list to each traced member.

    When the runtime profiles (``ServingConfig.profile_hz > 0``) a
    :class:`~repro.utils.profiling.StageRegistry` rides along: every
    stage entry/exit additionally pushes/pops the serving thread's
    current stage, which is how the sampling profiler attributes its
    stack samples — the recorder *is* the thread→stage publisher, no
    second instrumentation point exists.
    """

    __slots__ = ("_clock", "spans", "registry")

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        registry=None,
    ) -> None:
        self._clock = clock
        self.registry = registry
        self.spans: list[tuple[str, float, float, bool]] = []

    @contextmanager
    def stage(self, name: str, nested: bool = False):
        registry = self.registry
        if registry is not None:
            registry.push(name)
        start = self._clock()
        try:
            yield self
        finally:
            end = self._clock()
            if registry is not None:
                registry.pop()
            self.spans.append((name, start, end, nested))

    def extend_trace(self, trace: Trace, nested: bool | None = None) -> None:
        """Attach every recorded span; ``nested=True`` forces all of
        them nested (the resilient layer wraps the whole serve window in
        one top-level ``engine`` span, so stage spans must not
        double-count in coverage sums)."""
        for name, start, end, span_nested in self.spans:
            trace.add_span(
                name,
                start,
                end,
                nested=span_nested if nested is None else nested,
            )

    def seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)


class EventLog:
    """Bounded ring buffer of notable serving moments.

    Degradations, sheds, deadline failures, breaker transitions,
    publishes, canary verdicts, drift and SLO burns land here with a
    sequence number and an injected-clock timestamp; the buffer holds the
    last ``capacity`` events (drops are counted, never silent).
    :meth:`subscribe` callbacks see each event of their kinds as it is
    recorded — that is how alerts fan out.  Thread-safe — workers record
    concurrently.
    """

    def __init__(
        self,
        capacity: int = EVENT_LOG_CAPACITY,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._clock = clock
        self._lock = threading.Lock()
        self._events: deque[dict] = deque(maxlen=self.capacity)
        self._recorded = 0
        self._callback_errors = 0
        self._subscribers: list[tuple[Callable[[dict], None], frozenset | None]] = []

    def subscribe(
        self, callback: Callable[[dict], None], kinds: Sequence[str] | None = None
    ) -> None:
        """Call ``callback(event)`` with a copy of every event recorded
        from now on whose kind is in ``kinds`` (every kind when
        ``None``), synchronously on the recording thread.  A raising
        callback is swallowed — alerting never fails a request — and
        counted in :meth:`stats` as ``callback_errors``."""
        entry = (callback, None if kinds is None else frozenset(kinds))
        with self._lock:
            # Copy-on-write: record() iterates the list outside the lock.
            self._subscribers = [*self._subscribers, entry]

    def record(self, kind: str, **fields) -> dict:
        event = {"kind": kind, "time": self._clock(), **fields}
        with self._lock:
            self._recorded += 1
            event["seq"] = self._recorded
            self._events.append(event)
            subscribers = self._subscribers
        for callback, kinds in subscribers:
            if kinds is None or kind in kinds:
                try:
                    callback(dict(event))
                except Exception:
                    with self._lock:
                        self._callback_errors += 1
        return event

    def snapshot(
        self,
        kind: str | None = None,
        limit: int | None = None,
        since_seq: int | None = None,
    ) -> list[dict]:
        """Oldest-first retained events, optionally filtered by kind,
        restricted to sequence numbers after ``since_seq`` (incremental
        tailing: pass the last ``seq`` you saw to get only new events —
        overwritten ones surface in :meth:`stats`'s ``dropped``), and
        truncated to the most recent ``limit``."""
        with self._lock:
            events = list(self._events)
        if since_seq is not None:
            events = [event for event in events if event["seq"] > since_seq]
        if kind is not None:
            events = [event for event in events if event["kind"] == kind]
        if limit is not None:
            events = events[-limit:]
        return events

    @property
    def last_seq(self) -> int:
        """The most recently assigned sequence number (0 before any)."""
        with self._lock:
            return self._recorded

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "recorded": self._recorded,
                "retained": len(self._events),
                "dropped": self._recorded - len(self._events),
                "callback_errors": self._callback_errors,
            }


class RuntimeTelemetry:
    """One versioned snapshot over the whole runtime's visibility.

    Merges the metrics registry, the event log, and every legacy
    ``stats()`` dict (registered as named *providers* by the runtime)
    into a single dict under :data:`TELEMETRY_SCHEMA_VERSION`, and
    renders the registry — plus derived uptime / req/s gauges — as one
    Prometheus-style text page.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        event_log: EventLog | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.event_log = (
            event_log if event_log is not None else EventLog(clock=clock)
        )
        self._clock = clock
        self._started = clock()
        self._providers: dict[str, Callable[[], Any]] = {}
        self._served_total: Callable[[], float] | None = None
        self._health_provider: Callable[[], dict] | None = None

    def add_provider(self, name: str, provider: Callable[[], Any]) -> None:
        """Register one legacy ``stats()`` callable under a snapshot key."""
        self._providers[name] = provider

    def set_health(self, provider: Callable[[], dict]) -> None:
        """The ``runtime.health()`` dict provider: fills the snapshot's
        ``health`` section and refreshes the health/burn gauges before
        every :meth:`to_text` render."""
        self._health_provider = provider

    def set_served_total(self, served_total: Callable[[], float]) -> None:
        """The running served-request count req/s is derived from."""
        self._served_total = served_total

    @property
    def uptime(self) -> float:
        return self._clock() - self._started

    def requests_per_second(self) -> float:
        if self._served_total is None:
            return 0.0
        uptime = self.uptime
        if uptime <= 0:
            return 0.0
        return float(self._served_total()) / uptime

    def snapshot(self) -> dict:
        """The one merged, versioned view of the runtime right now."""
        out: dict[str, Any] = {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "meta": telemetry_meta(),
            "uptime_s": self.uptime,
            "requests_per_second": self.requests_per_second(),
            "metrics": self.registry.snapshot(),
            "events": self.event_log.snapshot(),
            "event_log": self.event_log.stats(),
        }
        for name, provider in self._providers.items():
            out[name] = provider()
        if self._health_provider is not None:
            out["health"] = self._health_provider()
        return out

    def to_text(self) -> str:
        """Prometheus exposition: every registered family plus the
        derived ``serving_uptime_seconds`` / ``serving_requests_per_second``
        (and, when a health provider is wired, a
        ``serving_health_info{status=...}`` marker — evaluating health
        first also refreshes the registry's status/burn gauges)."""
        health = (
            self._health_provider() if self._health_provider is not None else None
        )
        lines = [
            "# TYPE serving_uptime_seconds gauge",
            f"serving_uptime_seconds {self.uptime!r}",
            "# TYPE serving_requests_per_second gauge",
            f"serving_requests_per_second {self.requests_per_second()!r}",
        ]
        if health is not None:
            lines.extend(
                [
                    "# TYPE serving_health_info gauge",
                    f'serving_health_info{{status="{health["status"]}"}} 1',
                ]
            )
        return self.registry.to_text() + "\n".join(lines) + "\n"


class MetricsReporter:
    """Periodic snapshot emitter over one :class:`RuntimeTelemetry`.

    ``workers=1`` (default) runs a daemon thread that emits every
    ``interval`` wall seconds; ``workers=0`` is the deterministic mode:
    nothing runs until :meth:`tick` is called, which emits exactly when
    the *injected* clock says an interval has elapsed — the same
    manual-clock discipline as ``MicroBatcher(workers=0)``.  Emitted
    snapshots go to the ``emit`` callback (when given) and are retained
    in ``reports`` (a bounded deque) either way.

    A sink (``emit`` callback) that raises never kills the reporter:
    the exception is swallowed and counted in ``reporter_errors_total``
    on the telemetry registry, and the snapshot still lands in
    ``reports`` — a flaky exporter degrades shipping, not observing.
    The interval thread additionally survives a *provider* that raises
    mid-snapshot (counted the same way); in manual :meth:`tick` mode
    provider errors propagate to the driving test instead.
    """

    def __init__(
        self,
        telemetry: RuntimeTelemetry,
        interval: float = 10.0,
        workers: int = 1,
        clock: Callable[[], float] | None = None,
        emit: Callable[[dict], None] | None = None,
        keep: int = 16,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if workers not in (0, 1):
            raise ValueError(f"workers must be 0 or 1, got {workers}")
        if keep < 1:
            raise ValueError(f"keep must be positive, got {keep}")
        self.telemetry = telemetry
        self.interval = float(interval)
        self._clock = clock if clock is not None else telemetry._clock
        self._emit = emit
        self.reports: deque[dict] = deque(maxlen=keep)
        self._errors = telemetry.registry.counter(
            "reporter_errors_total",
            "snapshot emissions that raised (sink or provider) and were swallowed",
        )
        self._last = self._clock()
        self._event_cursor = 0
        self._closed = threading.Event()
        self._thread: threading.Thread | None = None
        if workers:
            self._thread = threading.Thread(
                target=self._loop, name="metrics-reporter", daemon=True
            )
            self._thread.start()

    def _loop(self) -> None:
        while not self._closed.wait(self.interval):
            try:
                self.emit_now()
            except Exception:
                # A provider raising mid-snapshot must not kill the
                # interval thread; sink errors are already absorbed
                # (and counted) inside emit_now.
                self._errors.inc()

    def tick(self) -> dict | None:
        """Manual mode: emit if an interval elapsed on the injected
        clock; returns the snapshot emitted, else ``None``."""
        if self._clock() - self._last >= self.interval:
            return self.emit_now()
        return None

    def emit_now(self) -> dict:
        snapshot = self.telemetry.snapshot()
        # Incremental tail: only events this reporter has not emitted
        # before (the seq cursor survives ring-buffer overwrites — what
        # was overwritten unseen shows up in event_log stats' dropped).
        new_events = self.telemetry.event_log.snapshot(
            since_seq=self._event_cursor
        )
        if new_events:
            self._event_cursor = new_events[-1]["seq"]
        snapshot["new_events"] = new_events
        self.reports.append(snapshot)
        self._last = self._clock()
        if self._emit is not None:
            try:
                self._emit(snapshot)
            except Exception:
                # Poison sink: swallow and count — the retained report
                # and the next interval are unaffected.
                self._errors.inc()
        return snapshot

    def close(self) -> None:
        self._closed.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "MetricsReporter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Structured stdlib-logging bridge over the event log
# ----------------------------------------------------------------------
#: event kind → stdlib logging level for LoggingBridge replays
_EVENT_LOG_LEVELS = {
    "degraded": logging.WARNING,
    "shed": logging.WARNING,
    "deadline_exceeded": logging.WARNING,
    "breaker": logging.WARNING,
    "publish": logging.INFO,
    "publish_retry": logging.WARNING,
    "canary": logging.INFO,
    "canary_skipped": logging.INFO,
    "canary_regression": logging.ERROR,
    "drift": logging.WARNING,
    "slo_burn": logging.ERROR,
    "slo_recovered": logging.INFO,
}


class LoggingBridge:
    """Replays :class:`EventLog` entries as structured stdlib records.

    Opt-in (the serving stack itself never touches ``logging`` — hot
    paths must not pay handler locks): call :meth:`pump` whenever log
    shipping should catch up — from a :class:`MetricsReporter` emit
    callback, a request hook, or a test.  The ``since_seq`` cursor
    makes pumping incremental and loss-aware: each event is emitted
    exactly once, and events overwritten in the ring buffer before a
    pump surface in the event log's ``dropped`` stat, never as silent
    gaps.

    Each record carries the event's fields as ``extra`` attributes
    (prefixed ``serving_`` to dodge :class:`logging.LogRecord`'s
    reserved names) plus the correlation fields formatters key on:
    ``serving_event`` (the kind), ``serving_seq``, ``serving_time``
    (injected-clock timestamp) and — when the event names one —
    ``serving_version`` / ``serving_trace``.
    """

    def __init__(
        self,
        event_log: EventLog,
        logger: logging.Logger,
        level_map: dict[str, int] | None = None,
        default_level: int = logging.INFO,
    ) -> None:
        self.event_log = event_log
        self.logger = logger
        self._levels = dict(_EVENT_LOG_LEVELS)
        if level_map:
            self._levels.update(level_map)
        self._default_level = int(default_level)
        self._cursor = 0
        self._lock = threading.Lock()

    def pump(self) -> int:
        """Emit every event recorded since the last pump; returns how
        many records were emitted."""
        with self._lock:
            events = self.event_log.snapshot(since_seq=self._cursor)
            if events:
                self._cursor = events[-1]["seq"]
        for event in events:
            kind = event["kind"]
            extra = {
                f"serving_{name}": value
                for name, value in event.items()
                if name != "kind"
            }
            extra["serving_event"] = kind
            detail = ", ".join(
                f"{name}={event[name]!r}"
                for name in sorted(event)
                if name not in ("kind", "seq", "time")
            )
            self.logger.log(
                self._levels.get(kind, self._default_level),
                "serving event %s%s",
                kind,
                f" ({detail})" if detail else "",
                extra=extra,
            )
        return len(events)


def attach_logging(
    runtime,
    logger: logging.Logger | str | None = None,
    level_map: dict[str, int] | None = None,
) -> LoggingBridge:
    """Wire a :class:`LoggingBridge` onto ``runtime``'s event log.

    ``logger`` accepts a :class:`logging.Logger`, a logger name, or
    ``None`` for the ``"repro.serving"`` logger.  Returns the bridge;
    drive it with ``bridge.pump()`` (e.g. as a ``MetricsReporter`` emit
    callback: ``MetricsReporter(..., emit=lambda _s: bridge.pump())``).
    """
    if logger is None or isinstance(logger, str):
        logger = logging.getLogger(logger or "repro.serving")
    return LoggingBridge(
        runtime.telemetry().event_log, logger, level_map=level_map
    )
