"""Public-surface snapshot: accidental API changes must fail CI.

``repro.serving`` and ``repro.retrieval`` are the packages external
callers import from; their ``__all__`` is the supported surface.  This
test pins the exact contents — adding a name is a deliberate one-line
diff here, removing or renaming one is a breaking change that should
never happen by accident.
"""

import dataclasses

import repro.retrieval
import repro.serving

SERVING_API = {
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
}

RETRIEVAL_API = {
    "CandidateSource",
    "ExactTopK",
    "QuantileFunnel",
    "IVFIndex",
    "FunnelCache",
    "exclusion_token",
    "session_token",
    "shard_offsets",
    "shard_snapshots",
}


def test_serving_public_surface_is_pinned():
    assert set(repro.serving.__all__) == SERVING_API
    for name in SERVING_API:
        assert getattr(repro.serving, name) is not None


def test_retrieval_public_surface_is_pinned():
    assert set(repro.retrieval.__all__) == RETRIEVAL_API
    for name in RETRIEVAL_API:
        assert getattr(repro.retrieval, name) is not None


def test_request_and_response_shapes():
    """The request/response dataclass fields are API too."""
    request_fields = {f.name for f in dataclasses.fields(repro.serving.Request)}
    assert {
        "quality",
        "k",
        "mode",
        "exclude",
        "candidates",
        "seed",
        "user",
        "rerank_pool",
        "alpha",
        "history",
        "pins",
        "quotas",
        "categories",
        "deadline",
    } <= request_fields
    response = dataclasses.fields(repro.serving.Response)
    assert {f.name for f in response} >= {
        "items",
        "log_probability",
        "mode",
        "k",
        "version",
        "cached",
        "degraded",
        "served_mode",
        "trace",
    }
    # Frozen responses: the dataclass params say so.
    assert repro.serving.Response.__dataclass_params__.frozen
    config_fields = {f.name for f in dataclasses.fields(repro.serving.ServingConfig)}
    assert config_fields == {
        "rerank_pool",
        "funnel_width",
        "max_batch",
        "max_wait",
        "workers",
        "clock",
        "source",
        "funnel_cache",
        "queue_cap",
        "overload_policy",
        "publish_backoff",
        "fault_plan",
        "trace_rate",
        "audit_rate",
        "canary_min_audits",
        "drift_window",
        "profile_hz",
        "slos",
        "alert_sink",
    }
