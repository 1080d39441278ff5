"""``repro.serving`` — the online multi-user k-DPP serving stack.

The paper's deployment story: one shared item factor matrix ``V`` serves
every user, because Eq. 2's personalization only rescales rows and
columns by the user's quality scores.  This package turns that structure
into a full serving runtime:

* :class:`~repro.serving.catalog.ItemCatalog` — publisher of immutable
  :class:`~repro.serving.catalog.CatalogSnapshot` factor versions
  (Gram, once-per-version dual spectra, the outer-product table behind
  one-matmul dual builds for groups of four or more), hot-swapped
  double-buffered;
* :class:`~repro.serving.server.KDPPServer` — serves batches of
  :class:`~repro.serving.server.Request` objects (per-request ``k``,
  exclusion sets, ``sample`` / ``map`` / ``topk-rerank`` modes) with one
  batched dual-kernel build, one stacked ``eigh``, batched Eq. 6
  normalizers and vectorized sampling / greedy MAP — parity-pinned to
  the per-user ``KDPP.from_factors`` loop, which survives as
  ``serve_sequential`` (the benchmark baseline);
* :class:`~repro.serving.sharding.ShardedCatalog` /
  :class:`~repro.serving.sharding.ShardedKDPPServer` — catalogs ≥10⁵
  items, partitioned on the item axis and served by a pluggable
  candidate-generation funnel (any ``repro.retrieval`` source — exact
  top-k by default, quantile-sketch or IVF approximations at scale,
  optionally short-circuited per user by a funnel cache) into one exact
  k-DPP over the merged candidate pool;
* :class:`~repro.serving.scheduler.MicroBatcher` — async admission:
  single ``submit()`` calls coalesce into engine batches under size and
  time windows on worker threads, returning futures;
* :class:`~repro.serving.runtime.ServingRuntime` — the facade wiring
  admission-time snapshot pinning, micro-batching and live snapshot
  publication together (version-stamped responses);
* :class:`~repro.serving.bridge.RecommenderBridge` — plugs any trained
  :class:`~repro.models.base.Recommender` in as the quality source, with
  candidate-pool restriction and a thread-safe LRU response cache.

Session-aware serving (PR 6) extends the request model — per-request
diversity strength ``alpha``, cross-page ``history`` conditioning via
:class:`~repro.serving.session.Session`, constrained MAP (``pins`` /
``quotas``) — and consolidates the stack's constructor knobs into one
:class:`~repro.serving.config.ServingConfig`.

Overload safety (PR 7) lives in :mod:`repro.serving.resilience`:
bounded admission (``queue_cap`` / ``overload_policy``), per-request
deadline budgets (``Request.deadline``), the degradation ladder
(:data:`~repro.serving.resilience.DEGRADATION_LADDER`, with every shed
or degraded response stamped via ``Response.degraded`` /
``Response.served_mode``), circuit breakers around approximate
retrieval sources (:class:`~repro.serving.resilience.BreakerSource`),
the structured :class:`~repro.serving.resilience.ServingError` taxonomy
and the deterministic :class:`~repro.serving.resilience.FaultPlan`
chaos harness.

Unified telemetry (PR 8) lives in :mod:`repro.serving.observability`:
thread-safe :class:`Counter` / :class:`Gauge` / :class:`Histogram`
primitives in one :class:`MetricsRegistry` (Prometheus-style
``to_text()``), sampled per-request stage tracing
(``ServingConfig.trace_rate``; the finished :class:`Trace` rides out on
``Response.trace``), the bounded :class:`EventLog` of degradations /
sheds / breaker transitions / publishes, and the
:class:`RuntimeTelemetry` facade behind
:meth:`~repro.serving.runtime.ServingRuntime.telemetry` — one versioned
snapshot over every layer's stats, with a :class:`MetricsReporter` for
periodic emission.

Product health (PR 9) lives in :mod:`repro.serving.health`: sampled
slate-quality auditing (``ServingConfig.audit_rate`` →
:class:`ResponseAuditor` — quality mass, intra-list distance,
log-probability per audited slate, from the pinned snapshot's factor
rows), post-publish canary comparisons (:class:`CanaryReport`,
``canary_regression`` events), windowed drift detection
(:class:`DriftDetector`), declarative :class:`SLO` objectives with
fast/slow burn-rate evaluation (:class:`SLOTracker`), alerts recorded
as events that ``ServingConfig.alert_sink`` subscribes to, and
:meth:`~repro.serving.runtime.ServingRuntime.health` returning a
:class:`HealthStatus` verdict.

Performance introspection (PR 10) lives in
:mod:`repro.serving.profiling` over zero-dependency primitives in
:mod:`repro.utils.profiling`: a continuous sampling profiler
(``ServingConfig.profile_hz`` → :class:`SamplingProfiler` folding
``sys._current_frames()`` samples into a bounded :class:`StackProfile`,
stage-attributed through the :class:`StageRegistry` each batch's stage
recorder updates), per-version memory accounting
(:meth:`~repro.serving.runtime.ServingRuntime.footprint` →
:class:`FootprintReport`), the :class:`CapacityModel` behind
:meth:`~repro.serving.runtime.ServingRuntime.headroom`
(:class:`HeadroomReport` — utilization and predicted saturation from
the affine batch-cost fit; the same model keeps the per-mode cost
estimates deadline budgets degrade against), and the opt-in
:func:`attach_logging` bridge replaying the event log as structured
stdlib ``logging`` records.
"""

from .bridge import RecommenderBridge, quality_from_scores
from .catalog import CatalogSnapshot, ItemCatalog
from .config import ServingConfig
from .health import (
    DEGRADED,
    HEALTHY,
    SLO,
    UNHEALTHY,
    CanaryReport,
    DriftDetector,
    HealthStatus,
    ResponseAuditor,
    SLOTracker,
    WindowedStat,
)
from .observability import (
    TELEMETRY_SCHEMA_VERSION,
    Counter,
    EventLog,
    Gauge,
    Histogram,
    LoggingBridge,
    MetricsRegistry,
    MetricsReporter,
    RuntimeTelemetry,
    Span,
    StageRecorder,
    Trace,
    attach_logging,
)
from .profiling import (
    CapacityModel,
    FootprintReport,
    HeadroomReport,
    SamplingProfiler,
    StackProfile,
    StageRegistry,
)
from .resilience import (
    DEGRADATION_LADDER,
    BreakerSource,
    CircuitBreaker,
    DeadlineExceeded,
    FaultPlan,
    OverloadError,
    ServingError,
    ShutdownError,
    SourceUnavailable,
    TransientError,
)
from .runtime import ServingRuntime
from .scheduler import MicroBatcher
from .server import REQUEST_MODES, KDPPServer, Request, Response
from .session import Session
from .sharding import ShardedCatalog, ShardedKDPPServer, ShardedSnapshot

__all__ = [
    "CatalogSnapshot",
    "ItemCatalog",
    "KDPPServer",
    "Request",
    "Response",
    "REQUEST_MODES",
    "ServingConfig",
    "Session",
    "MicroBatcher",
    "ServingRuntime",
    "ShardedCatalog",
    "ShardedKDPPServer",
    "ShardedSnapshot",
    "RecommenderBridge",
    "quality_from_scores",
    "ServingError",
    "OverloadError",
    "DeadlineExceeded",
    "SourceUnavailable",
    "ShutdownError",
    "TransientError",
    "BreakerSource",
    "CircuitBreaker",
    "FaultPlan",
    "DEGRADATION_LADDER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsReporter",
    "RuntimeTelemetry",
    "Span",
    "StageRecorder",
    "Trace",
    "EventLog",
    "TELEMETRY_SCHEMA_VERSION",
    "ResponseAuditor",
    "CanaryReport",
    "SLO",
    "SLOTracker",
    "HealthStatus",
    "DriftDetector",
    "WindowedStat",
    "HEALTHY",
    "DEGRADED",
    "UNHEALTHY",
    "LoggingBridge",
    "attach_logging",
    "StageRegistry",
    "StackProfile",
    "SamplingProfiler",
    "FootprintReport",
    "CapacityModel",
    "HeadroomReport",
]
