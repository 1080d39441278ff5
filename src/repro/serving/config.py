"""One configuration object for the whole serving stack.

Every serving infrastructure knob lives on :class:`ServingConfig`:
build one (frozen, validated) config and hand it to any layer —
:class:`~repro.serving.server.KDPPServer`,
:class:`~repro.serving.sharding.ShardedKDPPServer`,
:class:`~repro.serving.runtime.ServingRuntime`,
:class:`~repro.serving.bridge.RecommenderBridge` — via ``config=``;
each layer reads the fields it owns and forwards the rest.  It is the
only way to configure them: no constructor takes the knobs as
keyword arguments.

The fields are serving *infrastructure* knobs — engine pool sizes,
funnel plumbing, micro-batcher windows.  Per-request semantics (``k``,
``mode``, ``alpha``, history, pins, quotas) stay on
:class:`~repro.serving.server.Request`, and model-side knobs
(temperature, per-user candidate pools) stay on
:class:`~repro.serving.bridge.RecommenderBridge`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["ServingConfig"]

@dataclass(frozen=True)
class ServingConfig:
    """Consolidated serving-stack configuration.

    Parameters
    ----------
    rerank_pool:
        Default pool size for ``topk-rerank`` requests
        (:class:`~repro.serving.server.KDPPServer`; per-request
        ``Request.rerank_pool`` overrides it).
    funnel_width:
        Per-shard candidate budget of the sharded funnel
        (:class:`~repro.serving.sharding.ShardedKDPPServer`).
    max_batch / max_wait / workers / clock:
        Micro-batcher admission windows
        (:class:`~repro.serving.scheduler.MicroBatcher`); ``clock=None``
        means ``time.monotonic``.
    source / funnel_cache:
        Candidate-generation plug-ins for the sharded funnel: any
        :class:`~repro.retrieval.base.CandidateSource` and an optional
        :class:`~repro.retrieval.cache.FunnelCache`.
    queue_cap / overload_policy:
        Admission control (:mod:`repro.serving.resilience`).
        ``queue_cap=None`` (default) means unbounded admission — the
        pre-resilience behavior.  With a cap, a submit that finds the
        queue at or past it is handled per ``overload_policy``:
        ``"reject"`` raises a structured
        :class:`~repro.serving.resilience.OverloadError`, ``"degrade"``
        (the default policy) admits the request with queue-pressure
        rungs that walk it down the degradation ladder.
    publish_backoff:
        First backoff of the retries of transient
        :meth:`ServingRuntime.publish` failures
        (:class:`~repro.serving.resilience.TransientError`): up to
        :data:`~repro.serving.runtime.PUBLISH_RETRIES` retries with
        exponential backoff starting at ``publish_backoff`` seconds
        (slept through the injected clock when it is a manual one).
    fault_plan:
        An optional :class:`~repro.serving.resilience.FaultPlan`; the
        runtime wires its deterministic fault hooks through the whole
        stack (chaos tests and the overload benchmark only — leave
        ``None`` in production).
    trace_rate:
        Observability (:mod:`repro.serving.observability`): the
        fraction of submitted requests that carry a per-stage
        :class:`~repro.serving.observability.Trace` (deterministic credit
        sampling, no RNG consumed); the default ``0.0`` keeps the
        serving path bit-identical to the un-instrumented stack, seeded
        samples included.
    audit_rate:
        Product-health auditing (:mod:`repro.serving.health`): the
        fraction of served responses whose slate quality (quality mass,
        ILAD, log-probability, length) is measured post-serve by the
        :class:`~repro.serving.health.ResponseAuditor` — the same
        deterministic credit sampling as ``trace_rate``, so the default
        ``0.0`` stays bit-identical, seeded samples included.
    canary_min_audits:
        Publish canaries: a :meth:`ServingRuntime.publish` arms a
        comparison of the new version's audit windows against the
        pre-swap baseline once both sides hold ``canary_min_audits``
        audited responses; a metric moving beyond
        :data:`~repro.serving.health.CANARY_TOLERANCE` in the bad
        direction records a ``canary_regression`` event (see
        :class:`~repro.serving.health.CanaryReport` for the per-metric
        direction rules).
    drift_window:
        Drift detection over audited quality mass and ILAD:
        reference-vs-current windows of ``drift_window`` samples; a
        mean shift beyond :data:`~repro.serving.health.DRIFT_THRESHOLD`
        pooled standard errors (with a relative floor) records a
        ``drift`` event.
    profile_hz:
        Continuous sampling profiler (:mod:`repro.serving.profiling`).
        The background sampling rate, in stack samples per second, of
        the runtime's :class:`~repro.utils.profiling.SamplingProfiler`;
        sampled stacks are attributed to the active engine stage via
        the thread→stage registry every batch's stage recorder updates.
        The default ``0.0`` starts no sampler thread and keeps the
        serving path bit-identical, seeded samples included — the same
        parity contract as ``trace_rate`` / ``audit_rate``.
    slos:
        Declarative :class:`~repro.serving.health.SLO` objectives the
        runtime's :class:`~repro.serving.health.SLOTracker` evaluates
        with fast/slow burn-rate windows; ``None`` (default) tracks no
        SLOs and ``runtime.health()`` reports from canary/drift flags
        alone.
    alert_sink:
        Optional ``callable(event: dict)`` subscribed to the runtime's
        :class:`~repro.serving.observability.EventLog` for the
        :data:`~repro.serving.health.ALERT_KINDS` — each
        ``canary_regression``, ``drift`` and ``slo_burn`` event, as
        recorded.  A raising callback is swallowed.
    """

    rerank_pool: int = 100
    funnel_width: int = 32
    max_batch: int = 32
    max_wait: float = 0.002
    workers: int = 1
    clock: Callable[[], float] | None = None
    source: Any | None = None
    funnel_cache: Any | None = None
    queue_cap: int | None = None
    overload_policy: str = "degrade"
    publish_backoff: float = 0.05
    fault_plan: Any | None = None
    trace_rate: float = 0.0
    audit_rate: float = 0.0
    canary_min_audits: int = 32
    drift_window: int = 128
    profile_hz: float = 0.0
    slos: Any | None = None
    alert_sink: Callable[[dict], None] | None = None

    def __post_init__(self) -> None:
        if self.rerank_pool < 1:
            raise ValueError(
                f"rerank_pool must be positive, got {self.rerank_pool}"
            )
        if self.funnel_width < 1:
            raise ValueError(
                f"funnel_width must be positive, got {self.funnel_width}"
            )
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be positive, got {self.max_batch}")
        if self.max_wait < 0:
            raise ValueError(
                f"max_wait must be non-negative, got {self.max_wait}"
            )
        if self.workers < 0:
            raise ValueError(f"workers must be non-negative, got {self.workers}")
        if self.queue_cap is not None and self.queue_cap < 1:
            raise ValueError(
                f"queue_cap must be positive (or None for unbounded), "
                f"got {self.queue_cap}"
            )
        if self.overload_policy not in ("reject", "degrade"):
            raise ValueError(
                "overload_policy must be 'reject' or 'degrade', "
                f"got {self.overload_policy!r}"
            )
        if self.publish_backoff < 0:
            raise ValueError(
                f"publish_backoff must be non-negative, got {self.publish_backoff}"
            )
        if not 0.0 <= self.trace_rate <= 1.0:
            raise ValueError(
                f"trace_rate must be in [0, 1], got {self.trace_rate}"
            )
        if not 0.0 <= self.audit_rate <= 1.0:
            raise ValueError(
                f"audit_rate must be in [0, 1], got {self.audit_rate}"
            )
        if self.canary_min_audits < 1:
            raise ValueError(
                f"canary_min_audits must be positive, "
                f"got {self.canary_min_audits}"
            )
        if self.drift_window < 2:
            raise ValueError(
                f"drift_window must be >= 2, got {self.drift_window}"
            )
        if self.profile_hz < 0:
            raise ValueError(
                f"profile_hz must be non-negative, got {self.profile_hz}"
            )
        if self.slos is not None:
            from .health import SLO

            for slo in self.slos:
                if not isinstance(slo, SLO):
                    raise ValueError(
                        f"slos must be SLO instances, got {slo!r}"
                    )
        if self.alert_sink is not None and not callable(self.alert_sink):
            raise ValueError("alert_sink must be callable (or None)")

    def replace(self, **changes) -> "ServingConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)
