"""Shared utilities: deterministic RNG handling, top-k selection, timing,
the zero-dependency metrics primitives behind serving telemetry, and the
two lanes (:mod:`repro.utils.lanes`) the catalog-scale kernels split
across."""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .rng import ensure_rng, seeded_children, spawn
from .timing import (
    ManualClock,
    Stopwatch,
    histogram_percentile,
    latency_percentiles,
    log_buckets,
    timed,
)
from .topk import rank_of_items, top_k_indices, top_k_indices_rows

__all__ = [
    "ensure_rng",
    "spawn",
    "seeded_children",
    "top_k_indices",
    "top_k_indices_rows",
    "rank_of_items",
    "ManualClock",
    "Stopwatch",
    "timed",
    "latency_percentiles",
    "log_buckets",
    "histogram_percentile",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]
