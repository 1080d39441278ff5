"""Overload-safe serving: the traffic-safety layer above the engine.

The serving math below this module is exact and fast — but a front door
for live traffic needs three guarantees the engine alone cannot give:

* **bounded queues** — :class:`~repro.serving.scheduler.MicroBatcher`
  admission is capped (``ServingConfig.queue_cap``) with a configurable
  overload policy: ``"reject"`` fails the submit with a structured
  :class:`OverloadError`, ``"degrade"`` admits the request but walks it
  down the degradation ladder so the queue drains faster than it grows;
* **bounded latency** — every :class:`~repro.serving.server.Request`
  may carry a ``deadline`` (absolute injected-clock time).  A request
  whose remaining budget cannot cover its admitted mode (per the
  :class:`~repro.serving.profiling.CapacityModel`'s running per-mode
  estimates) is degraded rather than served late; a request whose
  deadline has already passed is failed with :class:`DeadlineExceeded`
  instead of wasting kernel work;
* **bounded blast radius** — a :class:`BreakerSource` wraps an
  approximate retrieval source (quantile funnel, IVF) in a
  :class:`CircuitBreaker`: consecutive failures or deadline blowouts
  trip it and route candidate generation to the exact oracle
  (:class:`~repro.retrieval.exact.ExactTopK`) until a half-open probe
  succeeds, so one sick index never takes the request path down.

Degradation ladder
------------------
``DEGRADATION_LADDER = ("sample", "map", "topk-rerank", "quality-topk")``
orders the serving modes by cost.  Queue pressure and deadline pressure
both walk a request *rightward* (never left); the terminal rung,
``quality-topk``, is served inline by this module — plain quality top-k
with pins leading and exclusions/history respected, no kernel work at
all.  Every degraded response is stamped (``Response.degraded=True``,
``Response.served_mode``) so callers can always distinguish an exact
slate from a shed one.  Requests carrying an explicit candidate slice
skip the ``topk-rerank`` rung (the engine rejects explicit-slice
rerank) and fall straight to ``quality-topk``.

Error taxonomy
--------------
:class:`ServingError` (a :class:`RuntimeError`) roots the structured
traffic-path errors: :class:`OverloadError` (admission shed),
:class:`DeadlineExceeded`, :class:`SourceUnavailable` (retrieval dead
even through its fallback), :class:`ShutdownError` (submitted to / left
queued in a closing batcher) and :class:`TransientError` (retryable,
e.g. an injected publish race).  All carry optional ``index`` /
``request`` context.

Fault injection
---------------
:class:`FaultPlan` is the deterministic chaos harness: slow shards,
failing or slow sources, exception-throwing or slow serves, and
transient publish failures — all counted down deterministically (or
drawn from a seeded RNG when a probability is given) and delayed through
the *injected* clock (a :class:`~repro.utils.timing.ManualClock` is
advanced; a real clock sleeps).  Attach it via
``ServingConfig(fault_plan=...)`` and the runtime wires every hook;
``tests/test_resilience.py`` and ``benchmarks/bench_overload.py`` are
the consumers.

The no-fault, no-pressure path is bit-identical to the stack without
this module: with no deadline, no queue pressure and no plan, the
:class:`ResilientServer` hands the engine the *same request objects* in
one batch and returns its responses unmodified (seeded samples
included) — pinned by the parity tests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace as dataclass_replace
from typing import Callable, Sequence

import numpy as np

from ..retrieval import CandidateSource, ExactTopK
from ..utils.metrics import Counter, MetricsRegistry
from ..utils.topk import top_k_indices
from .observability import EventLog, StageRecorder
from .profiling import CapacityModel
from .server import Request, Response, effective_request_quality

__all__ = [
    "ServingError",
    "OverloadError",
    "DeadlineExceeded",
    "SourceUnavailable",
    "ShutdownError",
    "TransientError",
    "DEGRADATION_LADDER",
    "QUALITY_TOPK",
    "AdmittedRequest",
    "ResilientServer",
    "CircuitBreaker",
    "BreakerSource",
    "FaultPlan",
    "degrade_mode",
]


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------
class ServingError(RuntimeError):
    """Root of the structured serving errors (traffic paths only).

    Subclasses :class:`RuntimeError` so pre-taxonomy callers that catch
    broadly keep working; ``index`` / ``request`` attach the batch
    position and the offending request when known.
    """

    def __init__(self, message: str, index: int | None = None, request=None) -> None:
        super().__init__(message)
        self.index = index
        self.request = request


class OverloadError(ServingError):
    """Admission shed: the queue is at its cap and the policy is reject."""


class DeadlineExceeded(ServingError):
    """The request's deadline passed before (or while) it could be served."""


class SourceUnavailable(ServingError):
    """A candidate source failed, and so did its fallback (or none exists)."""


class ShutdownError(ServingError):
    """Submitted to a closed batcher, or left queued when one closed."""


class TransientError(ServingError):
    """A retryable infrastructure fault (e.g. a publish race); the
    runtime's retry-with-backoff loop absorbs these up to its budget."""


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------
#: serving modes ordered by cost, cheapest last; pressure walks rightward
DEGRADATION_LADDER = ("sample", "map", "topk-rerank", "quality-topk")

#: the terminal rung: plain quality top-k, served inline with no kernel
QUALITY_TOPK = "quality-topk"


def degrade_mode(request: Request, rungs: int, mode: str | None = None) -> str:
    """The mode ``request`` is served in after walking ``rungs`` rungs
    down from ``mode`` (default: its requested mode).

    Explicitly-sliced requests skip ``topk-rerank`` (the engine rejects
    explicit-slice rerank) and land on ``quality-topk`` directly.
    """
    mode = request.mode if mode is None else mode
    if rungs <= 0:
        return mode
    position = DEGRADATION_LADDER.index(mode)
    target = DEGRADATION_LADDER[min(position + rungs, len(DEGRADATION_LADDER) - 1)]
    if target == "topk-rerank" and request.candidates is not None:
        return QUALITY_TOPK
    return target


class AdmittedRequest:
    """The envelope the runtime queues: the request plus the queue
    pressure (ladder rungs) it accumulated at admission, and — when the
    request was sampled for tracing — its in-flight
    :class:`~repro.serving.observability.Trace`."""

    __slots__ = ("request", "pressure", "trace")

    def __init__(self, request: Request, pressure: int = 0, trace=None) -> None:
        self.request = request
        self.pressure = int(pressure)
        self.trace = trace


# ----------------------------------------------------------------------
# Inline quality top-k (the terminal rung)
# ----------------------------------------------------------------------
def _quality_topk_response(request: Request, index: int, snap) -> Response:
    """Serve one request as plain quality top-k: pins lead (request
    order), exclusions and history stay zeroed, positive-quality items
    fill the rest by descending quality.  Best effort — a short list is
    returned rather than an error when positive quality runs out, this
    being the shed path."""
    request.validate(snap.num_items, index)
    candidates = request.candidates
    if candidates is not None:
        candidates = np.asarray(candidates, dtype=np.int64)
    local = effective_request_quality(request, index, candidates)
    items: list[int] = []
    if request.pins is not None:
        items = [int(pin) for pin in np.asarray(request.pins).reshape(-1)]
    taken = set(items)
    need = request.k - len(items)
    if need > 0:
        budget = min(local.shape[0], request.k + len(items))
        for position in top_k_indices(local, budget):
            if local[position] <= 0:
                break
            item = int(position if candidates is None else candidates[position])
            if item in taken:
                continue
            items.append(item)
            need -= 1
            if need == 0:
                break
    return Response(
        items=items,
        log_probability=None,
        mode=request.mode,
        k=request.k,
        version=snap.version,
        degraded=True,
        served_mode=QUALITY_TOPK,
    )


# ----------------------------------------------------------------------
# The resilient serving wrapper
# ----------------------------------------------------------------------
class ResilientServer:
    """Deadline budgets + degradation ladder around one engine.

    ``serve_admitted`` takes :class:`AdmittedRequest` envelopes and
    returns, position for position, either a stamped
    :class:`~repro.serving.server.Response` or a :class:`ServingError`
    *instance* (the batcher sets it on the matching future) — a shed
    request never poisons its batch neighbors.

    Every engine batch gets a fresh ``StageRecorder`` (``serve(...,
    stages=)``) feeding ``serving_stage_seconds`` and the traced members'
    spans, and feeds its (size, seconds, mode mix) to ``cost_model``,
    whose per-mode estimates the deadline-budget check reads.
    """

    def __init__(
        self,
        server,
        clock: Callable[[], float] | None = None,
        cost_model: CapacityModel | None = None,
        fault_plan: "FaultPlan | None" = None,
        registry: MetricsRegistry | None = None,
        event_log: EventLog | None = None,
        stage_registry=None,
    ) -> None:
        self.server = server
        self._clock = clock if clock is not None else time.monotonic
        self.cost_model = cost_model if cost_model is not None else CapacityModel()
        self.fault_plan = fault_plan
        self.stage_registry = stage_registry
        metrics = registry if registry is not None else MetricsRegistry()
        self.registry = metrics
        self.event_log = (
            event_log if event_log is not None else EventLog(clock=self._clock)
        )
        # Every batch's stage spans feed one per-stage latency family —
        # the breakdown the telemetry page exposes.
        self._stage_seconds = metrics.histogram(
            "serving_stage_seconds",
            "per-stage time of every engine batch (clock seconds)",
            labelnames=("stage",),
        )
        self._batch_seconds = metrics.histogram(
            "serving_engine_batch_seconds",
            "engine serve() wall time per batch (clock seconds)",
        )
        self._admitted = metrics.counter(
            "resilience_admitted_total", "requests entering the resilient layer"
        )
        self._degraded = metrics.counter(
            "resilience_degraded_total", "responses served below requested mode"
        )
        self._queue_degraded = metrics.counter(
            "resilience_queue_degraded_total", "requests degraded by queue pressure"
        )
        self._deadline_degraded = metrics.counter(
            "resilience_deadline_degraded_total",
            "requests degraded by deadline budget",
        )
        self._deadline_exceeded = metrics.counter(
            "resilience_deadline_exceeded_total",
            "requests failed with an expired deadline",
        )
        self._quality_topk = metrics.counter(
            "resilience_quality_topk_total",
            "requests shed to the terminal quality-topk rung",
        )
        # Version-labeled hot-path families (the unlabeled totals above
        # keep the legacy stats() shapes), declared here only: the
        # auditor's publish canaries read degradation rate and p99
        # service time per catalog version back through registry.get.
        self._served_by_version = metrics.counter(
            "runtime_served_total",
            "responses served, labeled by catalog version",
            labelnames=("version",),
        )
        self._degraded_by_version = metrics.counter(
            "runtime_degraded_total",
            "degraded (incl. shed) responses, labeled by catalog version",
            labelnames=("version",),
        )
        self._failed_by_version = metrics.counter(
            "runtime_failed_total",
            "requests resolved with a serving error, labeled by catalog version",
            labelnames=("version",),
        )
        self._request_seconds_by_version = metrics.histogram(
            "runtime_request_seconds",
            "per-request engine service time, labeled by catalog version",
            labelnames=("version",),
        )

    def stats(self) -> dict:
        return {
            "admitted": int(self._admitted.value),
            "degraded": int(self._degraded.value),
            "queue_degraded": int(self._queue_degraded.value),
            "deadline_degraded": int(self._deadline_degraded.value),
            "deadline_exceeded": int(self._deadline_exceeded.value),
            "quality_topk_served": int(self._quality_topk.value),
            "mode_costs": self.cost_model.mode_costs(),
        }

    # ------------------------------------------------------------------
    def serve_admitted(
        self, admitted: Sequence[AdmittedRequest], snapshot
    ) -> list:
        self._admitted.inc(len(admitted))
        now = self._clock()
        version = str(getattr(snapshot, "version", "none"))
        served = self._served_by_version.labels(version=version)
        degraded = self._degraded_by_version.labels(version=version)
        seconds = self._request_seconds_by_version.labels(version=version)
        results: list = [None] * len(admitted)
        engine: list[tuple[int, AdmittedRequest, str]] = []
        shed: list[tuple[int, AdmittedRequest]] = []
        for position, item in enumerate(admitted):
            request = item.request
            trace = item.trace
            if trace is not None:
                # The queue span: submit time (trace start) to batch
                # pickup — the admission wait the scheduler histogram
                # also observes, now visible per traced request.
                trace.add_span("queue", trace.started, now)
            deadline = request.deadline
            if deadline is not None and now >= deadline:
                self._deadline_exceeded.inc()
                self._failed_by_version.labels(version=version).inc()
                self.event_log.record(
                    "deadline_exceeded",
                    index=position,
                    overrun_s=now - deadline,
                )
                if trace is not None:
                    trace.event("deadline_exceeded", overrun_s=now - deadline)
                    trace.annotate(outcome="deadline_exceeded")
                    trace.finish()
                results[position] = DeadlineExceeded(
                    f"request {position}: deadline passed "
                    f"{now - deadline:.6f}s before serving began",
                    index=position,
                    request=request,
                )
                continue
            mode = degrade_mode(request, item.pressure)
            if mode != request.mode:
                self._queue_degraded.inc()
                self.event_log.record(
                    "degraded",
                    reason="queue",
                    index=position,
                    from_mode=request.mode,
                    to_mode=mode,
                )
                if trace is not None:
                    trace.event(
                        "degraded",
                        reason="queue",
                        from_mode=request.mode,
                        to_mode=mode,
                    )
            if deadline is not None:
                remaining = deadline - now
                budget_mode = mode
                while (
                    mode != QUALITY_TOPK
                    and self.cost_model.estimate(mode) > remaining
                ):
                    mode = degrade_mode(request, 1, mode)
                if mode != budget_mode:
                    self._deadline_degraded.inc()
                    self.event_log.record(
                        "degraded",
                        reason="deadline",
                        index=position,
                        from_mode=budget_mode,
                        to_mode=mode,
                    )
                    if trace is not None:
                        trace.event(
                            "degraded",
                            reason="deadline",
                            from_mode=budget_mode,
                            to_mode=mode,
                        )
            if mode == QUALITY_TOPK:
                shed.append((position, item))
            else:
                engine.append((position, item, mode))
        if engine:
            # The parity contract lives here: with nothing degraded the
            # engine receives the original request objects, untouched
            # and in admission order, in a single serve call.
            requests = [
                item.request
                if mode == item.request.mode
                else dataclass_replace(item.request, mode=mode)
                for _, item, mode in engine
            ]
            # One recorder per dispatched batch: stage spans are batch-
            # phase times, so every traced member carries the same ones,
            # and the recorder doubles as the profiler's thread→stage
            # publisher when a stage registry rides along.
            recorder = StageRecorder(self._clock, registry=self.stage_registry)
            # The coarse "engine" window marker brackets the whole serve
            # call so every profiler sample during engine work carries at
            # least a stage; the engine's own stage spans nest inside it
            # (innermost wins at attribution time).
            if self.stage_registry is not None:
                self.stage_registry.push("engine")
            start = self._clock()
            try:
                if self.fault_plan is not None:
                    # Inside the timed window: injected serve delays feed
                    # the cost model exactly like real service time would.
                    self.fault_plan.serve_tick(len(requests))
                responses = self.server.serve(
                    requests, snapshot=snapshot, stages=recorder
                )
            finally:
                if self.stage_registry is not None:
                    self.stage_registry.pop()
            elapsed = self._clock() - start
            self._batch_seconds.observe(elapsed)
            mode_counts: dict[str, int] = {}
            for _, _, batch_mode in engine:
                mode_counts[batch_mode] = mode_counts.get(batch_mode, 0) + 1
            self.cost_model.observe(len(requests), elapsed, mode_counts)
            self._observe_stages(recorder)
            engine_end = start + elapsed
            per_request = elapsed / len(requests)
            served.inc(len(requests))
            for (position, item, mode), response in zip(engine, responses):
                request = item.request
                seconds.observe(per_request)
                restamp: dict = {}
                if mode != request.mode:
                    self._degraded.inc()
                    degraded.inc()
                    restamp.update(
                        mode=request.mode, served_mode=mode, degraded=True
                    )
                trace = item.trace
                if trace is not None:
                    # Top-level coverage comes from three wall-to-wall
                    # spans — dispatch (admission bookkeeping), engine
                    # (the whole serve window), stamp (response fan-out
                    # up to this member) — with the recorder's stage
                    # spans nested inside ``engine`` so batch-phase
                    # detail never double-counts.
                    if start > now:
                        trace.add_span("dispatch", now, start)
                    trace.add_span("engine", start, engine_end)
                    recorder.extend_trace(trace, nested=True)
                    trace.annotate(
                        served_mode=mode, degraded=mode != request.mode
                    )
                    stamp_end = self._clock()
                    if stamp_end > engine_end:
                        trace.add_span("stamp", engine_end, stamp_end)
                    trace.finish()
                    restamp["trace"] = trace
                results[position] = (
                    dataclass_replace(response, **restamp)
                    if restamp
                    else response
                )
        if shed:
            start = self._clock()
            recorder = StageRecorder(self._clock, registry=self.stage_registry)
            for position, item in shed:
                request = item.request
                with recorder.stage("quality_topk"):
                    response = _quality_topk_response(
                        request, position, snapshot
                    )
                _, span_start, span_end, _ = recorder.spans[-1]
                self.event_log.record(
                    "shed", index=position, rung=QUALITY_TOPK
                )
                trace = item.trace
                if trace is not None:
                    # Shed members resolve with the rest of their batch:
                    # the engine serve and earlier shed neighbors ran
                    # first, and that wait is part of this request's
                    # latency — account it so coverage stays honest.
                    if span_start > now:
                        trace.add_span("batch_wait", now, span_start)
                    trace.add_span("quality_topk", span_start, span_end)
                    trace.event("shed", rung=QUALITY_TOPK)
                    trace.annotate(served_mode=QUALITY_TOPK, degraded=True)
                    trace.finish()
                    response = dataclass_replace(response, trace=trace)
                results[position] = response
            elapsed = self._clock() - start
            self._observe_stages(recorder)
            self.cost_model.observe(
                len(shed), elapsed, {QUALITY_TOPK: len(shed)}, fit=False
            )
            per_request = elapsed / len(shed)
            for _ in shed:
                seconds.observe(per_request)
            self._degraded.inc(len(shed))
            self._quality_topk.inc(len(shed))
            served.inc(len(shed))
            degraded.inc(len(shed))
        return results

    def _observe_stages(self, recorder: StageRecorder) -> None:
        for name, start, end, _ in recorder.spans:
            self._stage_seconds.labels(stage=name).observe(end - start)


# ----------------------------------------------------------------------
# Circuit breaker around retrieval sources
# ----------------------------------------------------------------------
class CircuitBreaker:
    """Closed → open → half-open failure gate (thread-safe).

    ``allow()`` answers "may the protected call run?": always in the
    closed state; in the open state only once the cooldown has elapsed,
    and then exactly one caller wins the half-open probe (concurrent
    callers keep falling back until the probe reports).  A probe success
    closes the breaker; a probe failure re-opens it for another
    cooldown.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be positive, got {failure_threshold}"
            )
        if cooldown < 0:
            raise ValueError(f"cooldown must be non-negative, got {cooldown}")
        self.failure_threshold = int(failure_threshold)
        self.cooldown = float(cooldown)
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._trips = 0
        # Optional ``listener(old_state, new_state)`` — the runtime hangs
        # its event log off this.  Transitions are captured inside the
        # lock but the listener fires outside it, so a listener that
        # reads breaker state back can never deadlock.
        self.listener: Callable[[str, str], None] | None = None

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def trips(self) -> int:
        with self._lock:
            return self._trips

    def _notify(self, transition: tuple[str, str] | None) -> None:
        if transition is None:
            return
        listener = self.listener
        if listener is not None:
            listener(transition[0], transition[1])

    def allow(self) -> bool:
        transition = None
        with self._lock:
            if self._state == "closed":
                allowed = True
            elif self._state == "open":
                if self._clock() - self._opened_at >= self.cooldown:
                    self._state = "half-open"
                    transition = ("open", "half-open")
                    allowed = True  # this caller is the probe
                else:
                    allowed = False
            else:
                allowed = False  # half-open: a probe is already in flight
        self._notify(transition)
        return allowed

    def record_success(self) -> None:
        with self._lock:
            previous = self._state
            self._state = "closed"
            self._failures = 0
        if previous != "closed":
            self._notify((previous, "closed"))

    def record_failure(self) -> None:
        transition = None
        with self._lock:
            if self._state == "half-open":
                self._state = "open"
                self._opened_at = self._clock()
                self._trips += 1
                transition = ("half-open", "open")
            else:
                self._failures += 1
                if (
                    self._state == "closed"
                    and self._failures >= self.failure_threshold
                ):
                    self._state = "open"
                    self._opened_at = self._clock()
                    self._trips += 1
                    transition = ("closed", "open")
        self._notify(transition)


class BreakerSource(CandidateSource):
    """A circuit breaker around one candidate source, exact fallback.

    While the breaker is closed, pools come from ``primary``; a raised
    exception — or a call slower than ``slow_threshold`` injected-clock
    seconds (a deadline blowout; the slow result is still *used*, it
    just counts against the breaker) — records a failure.  At
    ``failure_threshold`` consecutive failures the breaker opens and
    every batch routes to ``fallback`` (default
    :class:`~repro.retrieval.exact.ExactTopK` — the oracle, so recall is
    unaffected while tripped) until the cooldown elapses and a half-open
    probe of the primary succeeds.  Fallback-served batches count as
    ``fallback_rows`` in the standard source stats; if the fallback
    itself fails, :class:`SourceUnavailable` is raised.
    """

    name = "breaker"

    def __init__(
        self,
        primary: CandidateSource,
        fallback: CandidateSource | None = None,
        failure_threshold: int = 3,
        cooldown: float = 30.0,
        slow_threshold: float | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        super().__init__()
        self.primary = primary
        self.fallback = fallback if fallback is not None else ExactTopK()
        self.slow_threshold = slow_threshold
        self._clock = clock if clock is not None else time.monotonic
        self.breaker = CircuitBreaker(
            failure_threshold=failure_threshold, cooldown=cooldown, clock=self._clock
        )
        self._primary_failures = Counter(
            "breaker_primary_failures_total", "primary source exceptions"
        )
        self._slow_calls = Counter(
            "breaker_slow_calls_total", "primary calls over slow_threshold"
        )
        self._fallback_batches = Counter(
            "breaker_fallback_batches_total", "batches served by the fallback"
        )

    def _serve_fallback(
        self, quality: np.ndarray, width: int, snapshot, cause: Exception | None
    ) -> tuple[np.ndarray, int]:
        self._fallback_batches.inc()
        try:
            out = self.fallback.pools(quality, width, snapshot)
        except Exception as error:
            raise SourceUnavailable(
                f"candidate source '{self.primary.name}' is unavailable and "
                f"its fallback '{self.fallback.name}' failed: {error}"
            ) from (cause if cause is not None else error)
        return out, int(quality.shape[0])

    def _pools(
        self, quality: np.ndarray, width: int, snapshot
    ) -> tuple[np.ndarray, int]:
        if not self.breaker.allow():
            return self._serve_fallback(quality, width, snapshot, None)
        start = self._clock()
        try:
            out = self.primary.pools(quality, width, snapshot)
        except Exception as error:
            self.breaker.record_failure()
            self._primary_failures.inc()
            return self._serve_fallback(quality, width, snapshot, error)
        elapsed = self._clock() - start
        if self.slow_threshold is not None and elapsed > self.slow_threshold:
            # A deadline blowout is a failure signal even though the
            # (late) pools are still returned to this caller.
            self.breaker.record_failure()
            self._slow_calls.inc()
        else:
            self.breaker.record_success()
        return out, 0

    def stats(self) -> dict:
        out = super().stats()
        out["breaker"] = {
            "state": self.breaker.state,
            "trips": self.breaker.trips,
            "primary_failures": int(self._primary_failures.value),
            "slow_calls": int(self._slow_calls.value),
            "fallback_batches": int(self._fallback_batches.value),
        }
        out["primary"] = self.primary.stats()
        return out

    def reset_stats(self) -> None:
        """Zero the wrapper's counters *and* the primary's (uniform
        contract, see :meth:`CandidateSource.reset_stats`); breaker gate
        state — open/closed, trip count — is state, not a counter, and
        survives."""
        super().reset_stats()
        self._primary_failures.reset()
        self._slow_calls.reset()
        self._fallback_batches.reset()
        self.primary.reset_stats()


# ----------------------------------------------------------------------
# Deterministic fault injection
# ----------------------------------------------------------------------
class _Fault:
    """One armed fault: fires ``times`` more times (None = always), or
    with ``probability`` per tick from the plan's seeded RNG."""

    __slots__ = ("seconds", "times", "probability")

    def __init__(
        self,
        seconds: float = 0.0,
        times: int | None = 1,
        probability: float | None = None,
    ) -> None:
        self.seconds = float(seconds)
        self.times = times
        self.probability = probability

    def fire(self, rng: np.random.Generator) -> bool:
        if self.times is not None and self.times <= 0:
            return False
        if self.probability is not None and rng.random() >= self.probability:
            return False
        if self.times is not None:
            self.times -= 1
        return True


class FaultPlan:
    """Deterministic chaos: armed faults consumed by the serving stack.

    All faults count down deterministically (``times``) or draw from one
    seeded RNG (``probability``), and every delay goes through the
    injected clock — a :class:`~repro.utils.timing.ManualClock` is
    *advanced* (no wall time passes), a real clock sleeps — so a chaos
    test replays exactly.  Hand the plan to the runtime via
    ``ServingConfig(fault_plan=...)``; it wires the serve and publish
    hooks itself and calls :meth:`attach` on its candidate source.
    """

    def __init__(self, clock: Callable[[], float] | None = None, seed: int = 0) -> None:
        self._clock = clock
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self._source_failures: list[_Fault] = []
        self._source_delays: list[_Fault] = []
        self._shard_delays: dict[int, list[_Fault]] = {}
        self._serve_failures: list[_Fault] = []
        self._serve_delays: list[_Fault] = []
        self._publish_failures: list[_Fault] = []
        self._injected = {
            "source_failures": 0,
            "source_delays": 0,
            "shard_delays": 0,
            "serve_failures": 0,
            "serve_delays": 0,
            "publish_failures": 0,
        }

    # -------------------------------------------------------------- arming
    def fail_source(
        self, times: int | None = 1, probability: float | None = None
    ) -> "FaultPlan":
        """Arm candidate-source failures (raised as :class:`SourceUnavailable`)."""
        with self._lock:
            self._source_failures.append(_Fault(times=times, probability=probability))
        return self

    def slow_source(self, seconds: float, times: int | None = 1) -> "FaultPlan":
        """Arm whole-source delays (applied before the source runs)."""
        with self._lock:
            self._source_delays.append(_Fault(seconds=seconds, times=times))
        return self

    def slow_shard(
        self, shard: int, seconds: float, times: int | None = None
    ) -> "FaultPlan":
        """Arm per-shard delays — fires on every funnel pass over
        ``shard`` (``times=None``) or the next ``times`` passes."""
        with self._lock:
            self._shard_delays.setdefault(int(shard), []).append(
                _Fault(seconds=seconds, times=times)
            )
        return self

    def fail_serve(
        self, times: int | None = 1, probability: float | None = None
    ) -> "FaultPlan":
        """Arm engine-serve failures (raised as :class:`TransientError`;
        the batcher's solo-retry isolates them per request)."""
        with self._lock:
            self._serve_failures.append(_Fault(times=times, probability=probability))
        return self

    def slow_serve(self, seconds: float, times: int | None = 1) -> "FaultPlan":
        """Arm engine-serve delays — they land inside the resilient
        layer's timed window, so the cost model sees them."""
        with self._lock:
            self._serve_delays.append(_Fault(seconds=seconds, times=times))
        return self

    def fail_publish(self, times: int | None = 1) -> "FaultPlan":
        """Arm transient publish failures (:class:`TransientError`) —
        the runtime's retry-with-backoff loop is their consumer."""
        with self._lock:
            self._publish_failures.append(_Fault(times=times))
        return self

    # ------------------------------------------------------------- plumbing
    def _delay(self, seconds: float) -> None:
        if seconds <= 0:
            return
        advance = getattr(self._clock, "advance", None)
        if advance is not None:
            advance(seconds)
        else:
            time.sleep(seconds)

    def _consume(self, faults: list[_Fault]) -> _Fault | None:
        for fault in faults:
            if fault.fire(self._rng):
                return fault
        return None

    # ---------------------------------------------------------------- hooks
    def source_tick(self, name: str, rows: int) -> None:
        """Candidate-source entry hook (``CandidateSource.fault_hook``)."""
        with self._lock:
            delay = self._consume(self._source_delays)
            failure = self._consume(self._source_failures)
            if delay is not None:
                self._injected["source_delays"] += 1
            if failure is not None:
                self._injected["source_failures"] += 1
        if delay is not None:
            self._delay(delay.seconds)
        if failure is not None:
            raise SourceUnavailable(
                f"injected fault: candidate source '{name}' unavailable"
            )

    def shard_tick(self, shard: int) -> None:
        """Per-shard funnel hook (``CandidateSource.shard_hook``)."""
        with self._lock:
            fault = self._consume(self._shard_delays.get(int(shard), []))
            if fault is not None:
                self._injected["shard_delays"] += 1
        if fault is not None:
            self._delay(fault.seconds)

    def serve_tick(self, batch_size: int) -> None:
        """Engine-serve hook, called inside the resilient timed window."""
        with self._lock:
            delay = self._consume(self._serve_delays)
            failure = self._consume(self._serve_failures)
            if delay is not None:
                self._injected["serve_delays"] += 1
            if failure is not None:
                self._injected["serve_failures"] += 1
        if delay is not None:
            self._delay(delay.seconds)
        if failure is not None:
            raise TransientError(
                f"injected fault: serve failed for a batch of {batch_size}"
            )

    def publish_tick(self) -> None:
        """Publish hook — fires mid-flight races as retryable errors."""
        with self._lock:
            fault = self._consume(self._publish_failures)
            if fault is not None:
                self._injected["publish_failures"] += 1
        if fault is not None:
            raise TransientError("injected fault: transient publish failure")

    def attach(self, source: CandidateSource) -> None:
        """Wire the source hooks onto ``source`` — onto its primary when
        it is a :class:`BreakerSource`, so the exact fallback path stays
        clean (that is the whole point of the breaker)."""
        target = getattr(source, "primary", source)
        target.fault_hook = self.source_tick
        target.shard_hook = self.shard_tick

    def stats(self) -> dict:
        with self._lock:
            return dict(self._injected)
