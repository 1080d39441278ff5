"""Performance introspection over the serving stack (PR 10).

Three answers the observability layers below (PR 8 stage spans, PR 9
health verdicts) cannot give:

* **Where do the milliseconds go, inside a stage?**  The continuous
  sampling profiler (:class:`~repro.utils.profiling.SamplingProfiler`
  at ``ServingConfig.profile_hz``) attributes ``sys._current_frames()``
  samples to the active stage span via a
  :class:`~repro.utils.profiling.StageRegistry` every batch's
  ``StageRecorder`` keeps updated — so
  "selection is 76 ms" decomposes into the actual numpy callees,
  exportable as collapsed-stack text.
* **What is the memory actually holding?**  :func:`collect_footprint`
  walks the live snapshot generations (factors, Gram, dual spectra,
  outer-product tables, retrieval-index extensions), the funnel cache
  and the bridge LRU — nbytes via numpy, per version and per structure
  — plus RSS sampling, so a publish-driven leak (an old version pinned
  by in-flight requests) is one ``telemetry()`` read away.
* **How much headroom is left, and what does a mode cost?**
  :class:`CapacityModel` is the one cost model: fed the resilient
  layer's per-batch timings, it fits engine batch cost as
  ``fixed + per_request × B`` (the dual-path structure — one matmul +
  one stacked ``eigh`` amortize over the batch), so max sustainable
  req/s at the current mix falls out of the fit, and it keeps the
  per-mode EWMA service-time estimates the deadline-budget check
  degrades against.  ``runtime.headroom()`` reports utilization and
  predicted saturation; the profiling benchmark validates the estimate
  within ±30% of the measured closed-loop knee.

``profile_hz=0`` (default) builds none of this into the serving path —
bit-identical to the uninstrumented stack, seeded samples included,
parity-pinned like ``trace_rate`` / ``audit_rate``.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from ..utils.profiling import (
    SamplingProfiler,
    StackProfile,
    StageRegistry,
    current_rss_bytes,
    peak_rss_bytes,
)

__all__ = [
    "StageRegistry",
    "StackProfile",
    "SamplingProfiler",
    "FootprintReport",
    "collect_footprint",
    "snapshot_footprint",
    "nbytes_of",
    "CapacityModel",
    "HeadroomReport",
]


# ----------------------------------------------------------------------
# Memory & footprint accounting
# ----------------------------------------------------------------------
def nbytes_of(obj, _depth: int = 4, _seen: set | None = None) -> int:
    """Best-effort deep byte count of ``obj``'s array payloads.

    ndarrays count their buffer (``nbytes``); containers and plain
    object ``__dict__``s recurse a few levels with cycle protection.
    Scalars/strings count ``sys.getsizeof``.  This is accounting, not
    allocation truth — shared buffers (views) count once per distinct
    base array, and exotic objects are skipped rather than guessed.
    """
    if _seen is None:
        _seen = set()
    marker = id(obj)
    if marker in _seen:
        return 0
    if isinstance(obj, np.ndarray):
        # Dedup on the owning buffer: a view and its base (or two views
        # of one base) count once.  The array's own id must not poison
        # the check — for a base array they are the same object.
        base = obj.base if obj.base is not None else obj
        if id(base) in _seen:
            return 0
        _seen.add(id(base))
        return int(base.nbytes)
    if obj is None or isinstance(obj, (bool, int, float, complex, str, bytes)):
        return sys.getsizeof(obj)
    if _depth <= 0:
        return 0
    _seen.add(marker)
    if isinstance(obj, dict):
        return sum(
            nbytes_of(key, _depth - 1, _seen) + nbytes_of(value, _depth - 1, _seen)
            for key, value in obj.items()
        )
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(nbytes_of(item, _depth - 1, _seen) for item in obj)
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        return sum(nbytes_of(value, _depth - 1, _seen) for value in attrs.values())
    return 0


def _monolithic_footprint(snap) -> dict[str, int]:
    """Per-structure bytes of one :class:`CatalogSnapshot` (built lazies
    only — an unbuilt Gram costs nothing and reports nothing)."""
    out = {"factors": int(snap.factors.nbytes)}
    gram = snap.__dict__.get("_gram")
    if gram is not None:
        out["gram"] = int(gram.nbytes)
    spectrum = snap.__dict__.get("_spectrum")
    if spectrum is not None:
        out["dual_spectrum"] = int(spectrum[0].nbytes + spectrum[1].nbytes)
    table = snap.__dict__.get("_gram_products")
    if table is not None:
        out["gram_products"] = int(table.nbytes)
    extensions = snap.__dict__.get("_extensions")
    if extensions:
        out["extensions"] = sum(
            nbytes_of(value) for value in extensions.values()
        )
    return out


def snapshot_footprint(snap) -> dict[str, int]:
    """Per-structure byte accounting for either snapshot flavor.

    A :class:`~repro.serving.sharding.ShardedSnapshot` aggregates its
    shards' structures (each shard is a CatalogSnapshot) plus its own
    lazily-stacked concat view and extensions.
    """
    shards = getattr(snap, "shards", None)
    if shards is None:
        return _monolithic_footprint(snap)
    out: dict[str, int] = {}
    for shard in shards:
        for name, nbytes in _monolithic_footprint(shard).items():
            out[name] = out.get(name, 0) + nbytes
    concat = snap.__dict__.get("_factors")
    if concat is not None:
        out["concat_factors"] = int(concat.nbytes)
    extensions = snap.__dict__.get("_extensions")
    if extensions:
        out["extensions"] = out.get("extensions", 0) + sum(
            nbytes_of(value) for value in extensions.values()
        )
    return out


@dataclass
class FootprintReport:
    """One walk over everything the serving stack is holding alive.

    ``versions`` maps catalog version → per-structure bytes for every
    generation the catalog retains (published + displaced back buffer);
    a version that should have been reclaimed showing up here after a
    publish is the leak signature this report exists to expose.
    """

    versions: dict[int, dict[str, int]] = field(default_factory=dict)
    caches: dict[str, dict] = field(default_factory=dict)
    rss_bytes: int | None = None
    peak_rss_bytes: int | None = None

    @property
    def total_tracked_bytes(self) -> int:
        total = sum(
            sum(structures.values()) for structures in self.versions.values()
        )
        total += sum(
            int(cache.get("bytes", 0)) for cache in self.caches.values()
        )
        return total

    def to_dict(self) -> dict:
        return {
            "versions": {
                str(version): dict(structures)
                for version, structures in self.versions.items()
            },
            "caches": {name: dict(stats) for name, stats in self.caches.items()},
            "total_tracked_bytes": self.total_tracked_bytes,
            "rss_bytes": self.rss_bytes,
            "peak_rss_bytes": self.peak_rss_bytes,
        }


def collect_footprint(catalog, server=None) -> FootprintReport:
    """Walk the live generations of ``catalog`` (+ the server's funnel
    cache, when present) into one :class:`FootprintReport`."""
    report = FootprintReport(
        rss_bytes=current_rss_bytes(), peak_rss_bytes=peak_rss_bytes()
    )
    generations = [catalog.snapshot()]
    previous = getattr(catalog, "_previous", None)
    if previous is not None:
        generations.append(previous)
    for snap in generations:
        report.versions[int(snap.version)] = snapshot_footprint(snap)
    cache = getattr(server, "funnel_cache", None) if server is not None else None
    if cache is not None and hasattr(cache, "footprint"):
        report.caches["funnel_cache"] = cache.footprint()
    return report


# ----------------------------------------------------------------------
# Capacity headroom model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HeadroomReport:
    """``runtime.headroom()``'s answer: how close is saturation.

    ``utilization`` is engine-busy fraction (batch wall seconds over
    worker-seconds of uptime); ``saturation_req_per_s`` the predicted
    closed-loop knee at the current request mix and batch amortization;
    ``headroom_fraction`` what is left before it (0 = at the knee).
    """

    utilization: float
    observed_req_per_s: float
    saturation_req_per_s: float
    headroom_fraction: float
    busy_seconds: float
    uptime_s: float
    workers: int
    fixed_s: float
    per_request_s: float
    mean_batch: float
    request_weighted_batch: float
    batch_size_counts: dict[int, int]
    per_mode: dict[str, dict]

    def to_dict(self) -> dict:
        return {
            "utilization": self.utilization,
            "observed_req_per_s": self.observed_req_per_s,
            "saturation_req_per_s": self.saturation_req_per_s,
            "headroom_fraction": self.headroom_fraction,
            "busy_seconds": self.busy_seconds,
            "uptime_s": self.uptime_s,
            "workers": self.workers,
            "batch_cost_fit": {
                "fixed_s": self.fixed_s,
                "per_request_s": self.per_request_s,
            },
            "mean_batch": self.mean_batch,
            "request_weighted_batch": self.request_weighted_batch,
            "batch_size_counts": {
                str(size): count
                for size, count in sorted(self.batch_size_counts.items())
            },
            "per_mode": {mode: dict(row) for mode, row in self.per_mode.items()},
        }


class CapacityModel:
    """The serving cost model: engine-batch fit plus per-mode estimates.

    The dual serving path makes batch cost affine in the batch size:
    one ``(B, M) @ (M, r(r+1)/2)`` build + one stacked ``eigh`` grow
    per-request, dispatch and Python fan-out stay fixed — so the model
    fits ``T(B) = fixed + per_request · B`` by least squares over every
    observed engine batch and predicts the closed-loop knee as::

        saturation = workers · B* / T(B*)

    with ``B*`` the *request-weighted* observed batch size (the batch a
    random request actually rides in — under saturation that converges
    to ``max_batch``, which is exactly when the prediction matters).
    Degenerate histories (one batch size only) fall back to the
    observed mean rate.

    The same observations keep one EWMA per served mode (``decay``
    weighting the newest sample) of the per-request service time — the
    batch's seconds over its size, applied once per request of that
    mode.  :meth:`estimate` is what the deadline-budget check compares a
    request's remaining budget against; an unseen mode estimates
    ``0.0``, so a cold model never degrades.  Thread-safe; fed by the
    resilient layer from its timed window around each engine call.
    """

    def __init__(self, workers: int = 1, decay: float = 0.3) -> None:
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.workers = max(1, int(workers))
        self.decay = float(decay)
        self._lock = threading.Lock()
        self._costs: dict[str, float] = {}
        self._n = 0
        self._sum_b = 0.0
        self._sum_t = 0.0
        self._sum_bb = 0.0
        self._sum_bt = 0.0
        self._busy = 0.0
        self._requests = 0
        self._batch_sizes: dict[int, int] = {}
        self._mode_requests: dict[str, int] = {}

    def observe(
        self,
        batch_size: int,
        seconds: float,
        modes: dict[str, int] | None = None,
        fit: bool = True,
    ) -> None:
        """One timed batch of ``batch_size`` requests, ``modes`` counting
        them per served mode.  ``fit=False`` feeds only the per-mode
        estimates (requests served inline, outside the engine)."""
        if batch_size < 1 or seconds < 0:
            return
        b = float(batch_size)
        with self._lock:
            if modes:
                share = seconds / b
                decay = self.decay
                for mode, count in modes.items():
                    cost = self._costs.get(mode)
                    for _ in range(int(count)):
                        cost = (
                            share
                            if cost is None
                            else decay * share + (1.0 - decay) * cost
                        )
                    if cost is not None:
                        self._costs[mode] = cost
            if not fit:
                return
            self._n += 1
            self._sum_b += b
            self._sum_t += seconds
            self._sum_bb += b * b
            self._sum_bt += b * seconds
            self._busy += seconds
            self._requests += batch_size
            self._batch_sizes[int(batch_size)] = (
                self._batch_sizes.get(int(batch_size), 0) + 1
            )
            if modes:
                for mode, count in modes.items():
                    self._mode_requests[mode] = (
                        self._mode_requests.get(mode, 0) + int(count)
                    )

    def estimate(self, mode: str) -> float:
        """The EWMA per-request service seconds of ``mode`` (0.0 unseen)."""
        with self._lock:
            return self._costs.get(mode, 0.0)

    def mode_costs(self) -> dict[str, float]:
        with self._lock:
            return dict(self._costs)

    # ------------------------------------------------------------------
    def _fit_locked(self) -> tuple[float, float]:
        """``(fixed_s, per_request_s)`` of the affine batch-cost fit."""
        if self._n == 0 or self._sum_b <= 0:
            return 0.0, 0.0
        mean_rate = self._sum_t / self._sum_b
        if self._n < 2:
            return 0.0, mean_rate
        var = self._sum_bb - self._sum_b * self._sum_b / self._n
        if var <= 1e-12:
            return 0.0, mean_rate
        cov = self._sum_bt - self._sum_b * self._sum_t / self._n
        slope = cov / var
        intercept = (self._sum_t - slope * self._sum_b) / self._n
        if slope <= 0 or intercept < 0:
            # Noise dominated the fit; the mean per-request rate is the
            # honest degenerate answer (fixed cost folded into it).
            return 0.0, mean_rate
        return intercept, slope

    def fit(self) -> tuple[float, float]:
        with self._lock:
            return self._fit_locked()

    def saturation_req_per_s(self, batch_size: float | None = None) -> float:
        """Max sustainable req/s at batch size ``B`` (default: the
        request-weighted observed batch size)."""
        with self._lock:
            fixed, per_request = self._fit_locked()
            if batch_size is None:
                batch_size = (
                    self._sum_bb / self._sum_b if self._sum_b > 0 else 0.0
                )
        if batch_size <= 0:
            return 0.0
        denom = fixed + per_request * batch_size
        if denom <= 0:
            return 0.0
        return self.workers * batch_size / denom

    def headroom(
        self, uptime_s: float, observed_req_per_s: float
    ) -> HeadroomReport:
        """Assemble the full report (see :class:`HeadroomReport`)."""
        with self._lock:
            mode_costs = dict(self._costs)
            fixed, per_request = self._fit_locked()
            busy = self._busy
            n = self._n
            sum_b = self._sum_b
            sum_bb = self._sum_bb
            batch_sizes = dict(self._batch_sizes)
            mode_requests = dict(self._mode_requests)
        mean_batch = sum_b / n if n else 0.0
        weighted_batch = sum_bb / sum_b if sum_b > 0 else 0.0
        utilization = (
            busy / (uptime_s * self.workers) if uptime_s > 0 else 0.0
        )
        saturation = self.saturation_req_per_s(weighted_batch or None)
        headroom = (
            max(0.0, 1.0 - observed_req_per_s / saturation)
            if saturation > 0
            else 0.0
        )
        total_requests = sum(mode_requests.values())
        per_mode: dict[str, dict] = {}
        for mode, count in sorted(mode_requests.items()):
            row: dict = {
                "requests": count,
                "share": count / total_requests if total_requests else 0.0,
            }
            cost = mode_costs.get(mode)
            if cost is not None and cost > 0:
                # The EWMA cost is per request *at the observed batch
                # amortization*, so workers/cost is that mode's pure-mix
                # sustainable rate.
                row["cost_s"] = cost
                row["saturation_req_per_s"] = self.workers / cost
            per_mode[mode] = row
        return HeadroomReport(
            utilization=utilization,
            observed_req_per_s=observed_req_per_s,
            saturation_req_per_s=saturation,
            headroom_fraction=headroom,
            busy_seconds=busy,
            uptime_s=uptime_s,
            workers=self.workers,
            fixed_s=fixed,
            per_request_s=per_request,
            mean_batch=mean_batch,
            request_weighted_batch=weighted_batch,
            batch_size_counts=batch_sizes,
            per_mode=per_mode,
        )

    def stats(self) -> dict:
        with self._lock:
            fixed, per_request = self._fit_locked()
            return {
                "batches": self._n,
                "requests": self._requests,
                "busy_seconds": self._busy,
                "fixed_s": fixed,
                "per_request_s": per_request,
            }
