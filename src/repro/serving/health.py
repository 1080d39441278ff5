"""Product-health observability: is the product still *good*?

PR 8's telemetry answers "where did the milliseconds go"; this module
watches the slates themselves.  The paper's whole contribution is a
relevance–diversity tradeoff (NDCG vs. intra-list distance, the
``e_k``-normalized log-probability), and a stack that hot-swaps
retrained factors under live traffic can silently regress exactly those
quantities on every :meth:`~repro.serving.runtime.ServingRuntime.publish`
— or drift slowly as quality models age.  Four pieces:

**ResponseAuditor** — ``ServingConfig.audit_rate`` drives the same
:class:`~repro.utils.metrics.CreditSampler` as ``trace_rate`` (no RNG
consumed, so ``audit_rate=0`` keeps seeded sample streams bit-identical
— parity-pinned).  An audited response costs O(k²·r) *after* the engine
batch resolves: slate quality mass, intra-list distance (ILAD — the
:func:`repro.eval.metrics.intra_list_distance` math, fed the pinned
snapshot's factor rows), mean pairwise cosine similarity, the slate's
``log_probability``, its length, and degradation/alpha context — all
feeding ``slate_quality_*`` histograms labeled ``{mode, degraded,
version}`` plus bounded per-version :class:`WindowedStat` windows of
:data:`AUDIT_WINDOW` samples.

**Publish canaries** — the runtime snapshots the pre-swap version's
audit windows as a baseline before every publish; once the new version
accrues ``canary_min_audits`` audited responses, a :class:`CanaryReport`
compares quality mass, ILAD, log-probability, p99 service latency and
degradation rate against that baseline and records a
``canary_regression`` event when any metric regresses beyond
:data:`CANARY_TOLERANCE`.

**Drift detection** — a :class:`DriftDetector` per audited metric holds
two :class:`WindowedStat` windows, a frozen reference and a rolling
current one, and runs a simple mean-shift test (pooled standard error
beyond :data:`DRIFT_THRESHOLD`, with a relative floor so stationary
noise stays quiet); a shift records a ``drift`` event and flags
:meth:`ResponseAuditor.health_reasons` until the metric settles.

**SLOTracker** — declarative :class:`SLO` objectives (latency target,
error rate, degradation/shed rate, availability) evaluated on the
*injected* clock over fast/slow burn-rate windows (the multi-window
convention: page when the error budget burns on both horizons, warn
when only one is hot).  ``runtime.health()`` folds the SLO verdicts and
the auditor's canary/drift flags into one :class:`HealthStatus`
(``healthy`` / ``degraded`` / ``unhealthy`` with reasons).

Alerts are events: the ``slo_burn``, ``drift`` and ``canary_regression``
kinds (:data:`ALERT_KINDS`) land in the runtime's
:class:`~repro.serving.observability.EventLog` like every other event,
and ``ServingConfig.alert_sink`` is subscribed to them there.

Nothing here touches the batch critical path: auditing runs after the
engine call returns, sampling consumes no randomness, and every window
is bounded.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..utils.metrics import CreditSampler, MetricsRegistry
from .observability import EventLog

__all__ = [
    "HEALTHY",
    "DEGRADED",
    "UNHEALTHY",
    "HealthStatus",
    "WindowedStat",
    "DriftDetector",
    "ALERT_KINDS",
    "SLO",
    "SLOTracker",
    "CanaryReport",
    "ResponseAuditor",
]

#: the three health verdicts, ordered benign-first
HEALTHY = "healthy"
DEGRADED = "degraded"
UNHEALTHY = "unhealthy"

_STATUS_SEVERITY = {HEALTHY: 0, DEGRADED: 1, UNHEALTHY: 2}

#: the event kinds ``ServingConfig.alert_sink`` is subscribed to
ALERT_KINDS = ("slo_burn", "drift", "canary_regression")

#: samples each per-version audit window keeps
AUDIT_WINDOW = 256

#: relative move (absolute for degradation rate) a canary tolerates
CANARY_TOLERANCE = 0.1

#: pooled standard errors a drift mean shift must exceed
DRIFT_THRESHOLD = 3.0


@dataclass(frozen=True)
class HealthStatus:
    """One ``runtime.health()`` verdict: the status, why, and the
    per-SLO burn evaluations it was derived from."""

    status: str
    reasons: tuple[str, ...] = ()
    slos: tuple[dict, ...] = ()

    @property
    def healthy(self) -> bool:
        return self.status == HEALTHY

    @property
    def severity(self) -> int:
        return _STATUS_SEVERITY[self.status]

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "reasons": list(self.reasons),
            "slos": [dict(evaluation) for evaluation in self.slos],
        }


class WindowedStat:
    """A bounded ring buffer of float samples with summary statistics.

    The auditor's per-version quality windows and the drift detector's
    reference/current buffers are all this class: the last ``capacity``
    samples, thread-safe, O(capacity) memory forever.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._values: deque[float] = deque(maxlen=self.capacity)
        self._added = 0
        # Running first/second moments maintained across ring eviction
        # keep mean/std O(1) — the drift detector re-tests on every
        # sample, so O(capacity) summing here would dominate audits.
        self._sum = 0.0
        self._sumsq = 0.0

    def add(self, value: float) -> None:
        value = float(value)
        with self._lock:
            if len(self._values) == self.capacity:
                evicted = self._values[0]
                self._sum -= evicted
                self._sumsq -= evicted * evicted
            self._values.append(value)
            self._sum += value
            self._sumsq += value * value
            self._added += 1

    def clear(self) -> None:
        with self._lock:
            self._values.clear()
            self._sum = 0.0
            self._sumsq = 0.0

    def values(self) -> list[float]:
        with self._lock:
            return list(self._values)

    @property
    def count(self) -> int:
        with self._lock:
            return len(self._values)

    @property
    def added(self) -> int:
        """Lifetime samples offered (retained or since evicted)."""
        with self._lock:
            return self._added

    @property
    def full(self) -> bool:
        with self._lock:
            return len(self._values) == self.capacity

    def mean(self) -> float | None:
        with self._lock:
            if not self._values:
                return None
            return self._sum / len(self._values)

    def std(self) -> float | None:
        """Population standard deviation (None when empty)."""
        moments = self.moments()
        return None if moments is None else moments[2] ** 0.5

    def moments(self) -> tuple[int, float, float] | None:
        """(count, mean, population variance) in one lock acquisition."""
        with self._lock:
            n = len(self._values)
            if n == 0:
                return None
            mean = self._sum / n
            variance = max(self._sumsq / n - mean * mean, 0.0)
            return n, mean, variance


class DriftDetector:
    """Mean-shift detection over reference-vs-current sample windows.

    The first ``window`` samples freeze into the *reference*
    :class:`WindowedStat`; later samples roll through the *current* one
    (each add O(1) through the windows' running moments).  Once current
    is full, every new sample re-runs a simple two-sample mean test:
    drift fires when the mean gap exceeds ``threshold`` pooled standard
    errors *and* a relative floor (``min_shift`` of the reference mean's
    magnitude) — the floor is what keeps tight stationary distributions
    quiet under repeated testing.  On a firing the reference rebases to the current
    window (so one regime change fires once, not forever) and the
    detector stays ``flagged`` until a post-rebase full window passes.
    """

    def __init__(
        self,
        metric: str,
        window: int = 128,
        threshold: float = 3.0,
        min_shift: float = 0.05,
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if min_shift < 0:
            raise ValueError(f"min_shift must be non-negative, got {min_shift}")
        self.metric = metric
        self.window = int(window)
        self.threshold = float(threshold)
        self.min_shift = float(min_shift)
        self._lock = threading.Lock()
        self._reference = WindowedStat(self.window)
        self._current = WindowedStat(self.window)
        self.fired = 0
        self.flagged = False

    def add(self, value: float) -> dict | None:
        """Feed one sample; returns the drift record when a shift fires."""
        with self._lock:
            if not self._reference.full:
                self._reference.add(value)
                return None
            self._current.add(value)
            if not self._current.full:
                return None
            n, ref_mean, ref_var = self._reference.moments()
            _, cur_mean, cur_var = self._current.moments()
            pooled_stderr = ((ref_var + cur_var) / n) ** 0.5
            delta = abs(cur_mean - ref_mean)
            floor = self.min_shift * max(abs(ref_mean), 1e-12)
            if delta > max(self.threshold * pooled_stderr, floor):
                self.fired += 1
                self.flagged = True
                # Rebase: the new regime becomes the reference, so a
                # single shift fires once and recovery is observable.
                stale = self._reference
                stale.clear()
                self._reference, self._current = self._current, stale
                return {
                    "metric": self.metric,
                    "reference_mean": ref_mean,
                    "current_mean": cur_mean,
                    "shift": cur_mean - ref_mean,
                }
            self.flagged = False
        return None

    def stats(self) -> dict:
        with self._lock:
            return {
                "metric": self.metric,
                "fired": self.fired,
                "flagged": self.flagged,
                "reference_mean": self._reference.mean(),
                "current_mean": self._current.mean(),
            }


# ----------------------------------------------------------------------
# SLOs and burn-rate tracking
# ----------------------------------------------------------------------
#: the objectives SLOTracker knows how to score
SLO_OBJECTIVES = ("latency", "error_rate", "degraded_rate", "availability")


@dataclass(frozen=True)
class SLO:
    """One declarative service-level objective.

    ``objective`` picks what counts as a *bad* event:

    ===============  ====================================  ==============
    objective        target means                          default budget
    ===============  ====================================  ==============
    ``latency``      per-request service seconds; bad      ``0.01``
                     when over ``target`` (a p99 target:
                     1% of requests may exceed it)
    ``error_rate``   bad = request failed; budget is the   ``target``
                     target failure fraction itself
    ``degraded_rate``bad = served below requested mode     ``target``
                     (incl. quality-topk sheds)
    ``availability`` ``target`` is the success fraction    ``1 - target``
                     (e.g. 0.999); bad = request failed
    ===============  ====================================  ==============

    Burn rate = (bad fraction over a window) / budget; 1.0 means the
    error budget is being spent exactly at the rate that exhausts it.
    Both the slow ``window`` and the ``fast_window`` must exceed
    ``burn_threshold`` to breach (the standard multi-window rule: the
    fast window catches the fire, the slow window proves it is not a
    blip).
    """

    name: str
    objective: str
    target: float
    window: float = 300.0
    fast_window: float = 60.0
    burn_threshold: float = 1.0
    budget: float | None = None

    def __post_init__(self) -> None:
        if self.objective not in SLO_OBJECTIVES:
            raise ValueError(
                f"objective must be one of {SLO_OBJECTIVES}, "
                f"got {self.objective!r}"
            )
        if self.target <= 0:
            raise ValueError(f"target must be positive, got {self.target}")
        if self.objective == "availability" and not self.target < 1.0:
            raise ValueError(
                f"availability target must be < 1, got {self.target}"
            )
        if self.window <= 0 or self.fast_window <= 0:
            raise ValueError("windows must be positive seconds")
        if self.fast_window > self.window:
            raise ValueError(
                f"fast_window ({self.fast_window}) must not exceed "
                f"window ({self.window})"
            )
        if self.burn_threshold <= 0:
            raise ValueError(
                f"burn_threshold must be positive, got {self.burn_threshold}"
            )
        if self.budget is not None and not 0 < self.budget <= 1:
            raise ValueError(f"budget must be in (0, 1], got {self.budget}")

    @property
    def error_budget(self) -> float:
        if self.budget is not None:
            return self.budget
        if self.objective == "latency":
            return 0.01
        if self.objective == "availability":
            return 1.0 - self.target
        return self.target


class _RateWindow:
    """Good/bad event counts over a sliding time window.

    Time-bucketed ring: ``segments`` buckets of ``seconds/segments``
    each, expired buckets evicted on touch — O(segments) memory
    regardless of traffic, exact to one bucket's granularity.
    """

    __slots__ = ("seconds", "segment_s", "segments", "_cells")

    def __init__(self, seconds: float, segments: int = 12) -> None:
        self.seconds = float(seconds)
        self.segments = int(segments)
        self.segment_s = self.seconds / self.segments
        self._cells: deque[list] = deque()  # [bucket_index, good, bad]

    def _evict(self, index: int) -> None:
        horizon = index - self.segments + 1
        while self._cells and self._cells[0][0] < horizon:
            self._cells.popleft()

    def record(self, now: float, bad: bool) -> None:
        index = int(now // self.segment_s)
        self._evict(index)
        if not self._cells or self._cells[-1][0] != index:
            self._cells.append([index, 0, 0])
        self._cells[-1][2 if bad else 1] += 1

    def totals(self, now: float) -> tuple[int, int]:
        """(bad, total) still inside the window at ``now``."""
        self._evict(int(now // self.segment_s))
        bad = sum(cell[2] for cell in self._cells)
        good = sum(cell[1] for cell in self._cells)
        return bad, good + bad


class SLOTracker:
    """Multi-window burn-rate evaluation over declarative :class:`SLO`s.

    Fed one call per served request (from the auditor's post-serve
    hook), evaluated on demand against the *injected* clock — so burn
    math is exact and deterministic under a
    :class:`~repro.utils.timing.ManualClock`.  Breach transitions are
    edge-triggered into the event log (``slo_burn`` / ``slo_recovered``);
    per-window burn rates land in the registry's
    ``slo_burn_rate{slo, window}`` gauge family.
    """

    def __init__(
        self,
        slos: Sequence[SLO] = (),
        clock: Callable[[], float] = time.monotonic,
        registry: MetricsRegistry | None = None,
        event_log: EventLog | None = None,
        segments: int = 12,
    ) -> None:
        for slo in slos:
            if not isinstance(slo, SLO):
                raise TypeError(f"slos must be SLO instances, got {slo!r}")
        names = [slo.name for slo in slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {sorted(names)}")
        self.objectives: tuple[SLO, ...] = tuple(slos)
        self._clock = clock
        self._event_log = event_log
        self._lock = threading.Lock()
        self._windows: dict[str, dict[str, _RateWindow]] = {
            slo.name: {
                "slow": _RateWindow(slo.window, segments),
                "fast": _RateWindow(slo.fast_window, segments),
            }
            for slo in self.objectives
        }
        self._breached: dict[str, bool] = {slo.name: False for slo in self.objectives}
        self._burn_gauge = None
        if registry is not None and self.objectives:
            self._burn_gauge = registry.gauge(
                "slo_burn_rate",
                "error-budget burn rate per SLO and window",
                labelnames=("slo", "window"),
            )

    @staticmethod
    def _is_bad(slo: SLO, seconds: float | None, error: bool, degraded: bool):
        """Whether this request spends ``slo``'s budget; None = no sample
        (e.g. a failed request contributes no latency observation)."""
        if slo.objective == "latency":
            if error or seconds is None:
                return None
            return seconds > slo.target
        if slo.objective == "degraded_rate":
            return degraded
        # error_rate and availability both count failures.
        return error

    def record(
        self,
        now: float | None = None,
        seconds: float | None = None,
        error: bool = False,
        degraded: bool = False,
    ) -> None:
        if not self.objectives:
            return
        if now is None:
            now = self._clock()
        with self._lock:
            for slo in self.objectives:
                bad = self._is_bad(slo, seconds, error, degraded)
                if bad is None:
                    continue
                windows = self._windows[slo.name]
                windows["slow"].record(now, bad)
                windows["fast"].record(now, bad)

    def evaluate(self, now: float | None = None) -> tuple[dict, ...]:
        """Per-SLO burn verdicts right now (edge-triggering alerts)."""
        if now is None:
            now = self._clock()
        out = []
        transitions: list[tuple[SLO, bool, dict]] = []
        with self._lock:
            for slo in self.objectives:
                windows = self._windows[slo.name]
                slow_bad, slow_total = windows["slow"].totals(now)
                fast_bad, fast_total = windows["fast"].totals(now)
                budget = slo.error_budget
                slow_burn = (slow_bad / slow_total / budget) if slow_total else 0.0
                fast_burn = (fast_bad / fast_total / budget) if fast_total else 0.0
                over_slow = slow_burn > slo.burn_threshold
                over_fast = fast_burn > slo.burn_threshold
                breached = over_slow and over_fast
                evaluation = {
                    "name": slo.name,
                    "objective": slo.objective,
                    "target": slo.target,
                    "budget": budget,
                    "slow_burn": slow_burn,
                    "fast_burn": fast_burn,
                    "slow_events": slow_total,
                    "fast_events": fast_total,
                    "breached": breached,
                    "warning": over_slow != over_fast,
                }
                out.append(evaluation)
                if breached != self._breached[slo.name]:
                    self._breached[slo.name] = breached
                    transitions.append((slo, breached, evaluation))
        if self._burn_gauge is not None:
            for evaluation in out:
                for window in ("slow", "fast"):
                    self._burn_gauge.labels(
                        slo=evaluation["name"], window=window
                    ).set(evaluation[f"{window}_burn"])
        if self._event_log is not None:
            for slo, breached, evaluation in transitions:
                self._event_log.record(
                    "slo_burn" if breached else "slo_recovered",
                    slo=slo.name,
                    objective=slo.objective,
                    slow_burn=evaluation["slow_burn"],
                    fast_burn=evaluation["fast_burn"],
                )
        return tuple(out)

    def health(self, now: float | None = None) -> tuple[str, list[str], tuple[dict, ...]]:
        """(status, reasons, evaluations): ``unhealthy`` when any SLO
        burns on both windows, ``degraded`` when exactly one window is
        hot (igniting or recovering), else ``healthy``."""
        evaluations = self.evaluate(now)
        status = HEALTHY
        reasons: list[str] = []
        for evaluation in evaluations:
            if evaluation["breached"]:
                status = UNHEALTHY
                reasons.append(
                    f"SLO {evaluation['name']} ({evaluation['objective']}) "
                    f"burning {evaluation['fast_burn']:.2f}x fast / "
                    f"{evaluation['slow_burn']:.2f}x slow"
                )
            elif evaluation["warning"]:
                if status == HEALTHY:
                    status = DEGRADED
                reasons.append(
                    f"SLO {evaluation['name']} ({evaluation['objective']}) "
                    f"burning on one window "
                    f"(fast {evaluation['fast_burn']:.2f}x, "
                    f"slow {evaluation['slow_burn']:.2f}x)"
                )
        return status, reasons, evaluations


# ----------------------------------------------------------------------
# Publish canaries
# ----------------------------------------------------------------------
#: canary-compared metrics where a *drop* beyond tolerance regresses
_LOWER_IS_WORSE = ("quality_mass", "ilad", "log_probability")


@dataclass(frozen=True)
class CanaryReport:
    """The verdict of one post-publish canary comparison.

    ``metrics`` maps each compared metric to ``{"baseline", "current",
    "delta", "regressed"}``; ``regressions`` names the ones that moved
    beyond tolerance in the bad direction.  Quality mass, ILAD and
    log-probability regress on a *relative drop*; p99 service latency on
    a relative rise (skipped when the baseline saw no measurable
    latency); degradation rate on an absolute rise.
    """

    baseline_version: int
    version: int
    audits: int
    tolerance: float
    metrics: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    regressions: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict:
        return {
            "baseline_version": self.baseline_version,
            "version": self.version,
            "audits": self.audits,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "regressions": list(self.regressions),
            "metrics": {name: dict(values) for name, values in self.metrics.items()},
        }


class _PendingCanary:
    """An armed canary: the frozen pre-swap baseline, waiting for the
    new version to accrue enough audited responses."""

    __slots__ = ("baseline_version", "version", "baseline", "min_audits")

    def __init__(
        self, baseline_version: int, version: int, baseline: dict, min_audits: int
    ) -> None:
        self.baseline_version = int(baseline_version)
        self.version = int(version)
        self.baseline = dict(baseline)
        self.min_audits = int(min_audits)


def _compare_canary_metric(
    name: str, baseline, current, tolerance: float
) -> tuple[dict, bool]:
    entry = {"baseline": baseline, "current": current, "delta": None}
    if baseline is None or current is None:
        return entry, False
    delta = current - baseline
    entry["delta"] = delta
    if name in _LOWER_IS_WORSE:
        regressed = delta < -tolerance * max(abs(baseline), 1e-12)
    elif name == "latency_p99_s":
        # A zero baseline means latency was never measurable (manual
        # clocks, cold histograms) — nothing to compare against.
        regressed = baseline > 0 and current > baseline * (1.0 + tolerance)
    else:  # degraded_rate: absolute rise
        regressed = delta > tolerance
    entry["regressed"] = regressed
    return entry, regressed


# ----------------------------------------------------------------------
# The response auditor
# ----------------------------------------------------------------------
class _VersionWindows:
    """Bounded audit windows for one catalog version."""

    __slots__ = (
        "quality_mass",
        "ilad",
        "similarity",
        "log_probability",
        "slate_size",
        "alpha",
        "audited",
        "degraded_audited",
    )

    def __init__(self, capacity: int) -> None:
        self.quality_mass = WindowedStat(capacity)
        self.ilad = WindowedStat(capacity)
        self.similarity = WindowedStat(capacity)
        self.log_probability = WindowedStat(capacity)
        self.slate_size = WindowedStat(capacity)
        self.alpha = WindowedStat(capacity)
        self.audited = 0
        self.degraded_audited = 0


class ResponseAuditor:
    """Sampled post-serve slate-quality auditing + canary evaluation.

    Wired by the runtime between the resilient layer and the futures:
    :meth:`observe_batch` runs once per resolved engine batch, stamping
    version-labeled hot-path counters, feeding the SLO tracker, and —
    for credit-sampled responses when ``audit_rate > 0`` — computing the
    slate-quality metrics from the *pinned* snapshot's factor rows (the
    exact factors the slate was served from, even mid-hot-swap).

    Sampling is the trace sampler's :class:`CreditSampler`, no RNG
    consumed, so ``audit_rate=0`` leaves seeded sample streams
    bit-identical (parity-pinned) and any rate is reproducible under the
    manual-clock test harness.  The version-labeled ``runtime_*``
    families it reads are declared by the resilient layer, which must
    already have registered them on ``registry``.
    """

    #: distinct catalog versions whose audit windows stay retained
    MAX_VERSION_WINDOWS = 4

    def __init__(
        self,
        registry: MetricsRegistry,
        event_log: EventLog,
        clock: Callable[[], float] = time.monotonic,
        audit_rate: float = 0.0,
        canary_min_audits: int = 32,
        drift_window: int = 128,
        slo_tracker: SLOTracker | None = None,
    ) -> None:
        if not 0.0 <= audit_rate <= 1.0:
            raise ValueError(f"audit_rate must be in [0, 1], got {audit_rate}")
        if canary_min_audits < 1:
            raise ValueError(
                f"canary_min_audits must be positive, got {canary_min_audits}"
            )
        self._sampler = CreditSampler(audit_rate)
        self.canary_min_audits = int(canary_min_audits)
        self._clock = clock
        self._event_log = event_log
        self._slo_tracker = slo_tracker
        self._lock = threading.Lock()
        self._audited_total = 0
        self._label_cache: dict[tuple, tuple] = {}
        self._windows: dict[int, _VersionWindows] = {}
        self._canary: _PendingCanary | None = None
        self._last_canary: CanaryReport | None = None
        self._drift = {
            name: DriftDetector(name, window=drift_window, threshold=DRIFT_THRESHOLD)
            for name in ("quality_mass", "ilad")
        }
        # The hot-path per-version families the resilient layer
        # increments, read here for canary comparisons.
        self._served_by_version = registry.get("runtime_served_total")
        self._degraded_by_version = registry.get("runtime_degraded_total")
        self._request_seconds = registry.get("runtime_request_seconds")
        labels = ("mode", "degraded", "version")
        self._audited_counter = registry.counter(
            "slate_audits_total", "responses audited", labelnames=labels
        )
        self._quality_hist = registry.histogram(
            "slate_quality_mass",
            "summed item quality of audited slates",
            labelnames=labels,
            buckets=_quality_buckets(),
        )
        self._ilad_hist = registry.histogram(
            "slate_quality_ilad",
            "intra-list distance of audited slates (factor space)",
            labelnames=labels,
            buckets=_ilad_buckets(),
        )
        self._neg_logp_hist = registry.histogram(
            "slate_quality_neg_log_probability",
            "negated k-DPP log-probability of audited slates",
            labelnames=labels,
            buckets=_neg_logp_buckets(),
        )
        self._size_hist = registry.histogram(
            "slate_quality_size",
            "slate length of audited responses",
            labelnames=labels,
            buckets=list(range(1, 33)),
        )

    @property
    def rate(self) -> float:
        return self._sampler.rate

    def _labeled(self, mode: str, degraded: bool, version: int):
        """Resolved metric children for one label combination, cached —
        label resolution costs a lock per family, and audits at rate 1
        would pay it five times per response."""
        key = (mode, degraded, version)
        children = self._label_cache.get(key)
        if children is None:
            labels = {
                "mode": mode,
                "degraded": "true" if degraded else "false",
                "version": str(version),
            }
            children = (
                self._audited_counter.labels(**labels),
                self._quality_hist.labels(**labels),
                self._ilad_hist.labels(**labels),
                self._size_hist.labels(**labels),
                self._neg_logp_hist.labels(**labels),
            )
            if len(self._label_cache) >= 64:  # modes x 2 x live versions
                self._label_cache.clear()
            self._label_cache[key] = children
        return children

    # ------------------------------------------------------------ the hook
    def observe_batch(self, admitted, results, snapshot, elapsed: float) -> None:
        """Post-serve accounting for one resolved batch (runtime hook).

        Runs after the resilient layer returned — never inside the
        engine's timed window — and touches no request or response
        object, so the ``audit_rate=0`` path stays bit-identical.
        """
        if not results:
            return
        now = self._clock()
        version = int(getattr(snapshot, "version", -1))
        share = max(elapsed, 0.0) / len(results)
        tracker = self._slo_tracker
        audits: list = []
        for item, result in zip(admitted, results):
            error = isinstance(result, BaseException)
            degraded = (not error) and bool(result.degraded)
            if tracker is not None:
                tracker.record(
                    now,
                    seconds=None if error else share,
                    error=error,
                    degraded=degraded,
                )
            if not error and self._sampler.take():
                audits.append((item.request, result))
        if audits:
            measurements = self._slate_measurements(audits, snapshot)
            for (request, response), measured in zip(audits, measurements):
                self._audit(request, response, version, *measured)
            self._maybe_evaluate_canary()
        if tracker is not None and tracker.objectives:
            tracker.evaluate(now)

    @staticmethod
    def _slate_measurements(audits, snapshot) -> list[tuple]:
        """(items, ILAD, mean |cos|) per audited slate; the geometry is
        vectorized across the batch (grouped by slate shape) so numpy
        dispatch overhead amortizes over every audit in it.  Factor
        rows come from the pinned snapshot via ``take_rows`` — indexed
        locally, so sharded snapshots never materialize full factors."""
        measurements: list = [None] * len(audits)
        gathered: dict[int, tuple] = {}
        groups: dict[tuple, list[int]] = {}
        for index, (_, response) in enumerate(audits):
            items = np.asarray(response.items, dtype=np.int64)
            if items.shape[0] < 2:
                measurements[index] = (items, 0.0, 0.0)
                continue
            rows = np.asarray(snapshot.take_rows(items), dtype=np.float64)
            gathered[index] = (items, rows)
            groups.setdefault(rows.shape, []).append(index)
        for indices in groups.values():
            stacked = np.stack([gathered[index][1] for index in indices])
            ilads, similarities = _slate_geometry_batch(stacked)
            for position, index in enumerate(indices):
                measurements[index] = (
                    gathered[index][0],
                    float(ilads[position]),
                    float(similarities[position]),
                )
        return measurements

    def _audit(
        self, request, response, version: int, items, ilad: float, similarity: float
    ) -> None:
        size = int(items.shape[0])
        if size:
            quality = np.asarray(request.quality, dtype=np.float64)
            mass = float(quality[items].sum())
        else:
            mass = 0.0
        log_probability = response.log_probability
        mode = request.mode
        degraded = bool(response.degraded)
        children = self._labeled(mode, degraded, version)
        audited_counter, quality_hist, ilad_hist, size_hist, neg_logp_hist = children
        audited_counter.inc()
        quality_hist.observe(mass)
        ilad_hist.observe(ilad)
        size_hist.observe(size)
        if log_probability is not None:
            neg_logp_hist.observe(max(-float(log_probability), 0.0))
        with self._lock:
            windows = self._windows.get(version)
            if windows is None:
                windows = _VersionWindows(AUDIT_WINDOW)
                self._windows[version] = windows
                while len(self._windows) > self.MAX_VERSION_WINDOWS:
                    del self._windows[min(self._windows)]
            windows.audited += 1
            if degraded:
                windows.degraded_audited += 1
            self._audited_total += 1
        windows.quality_mass.add(mass)
        windows.ilad.add(ilad)
        windows.similarity.add(similarity)
        windows.slate_size.add(size)
        windows.alpha.add(float(request.alpha))
        if log_probability is not None:
            windows.log_probability.add(float(log_probability))
        for name, value in (("quality_mass", mass), ("ilad", ilad)):
            record = self._drift[name].add(value)
            if record is not None:
                self._event_log.record("drift", **record)

    # ----------------------------------------------------------- aggregates
    def aggregate(self, version: int) -> dict:
        """Point-in-time audit summary for one catalog version: window
        means plus the registry-derived degradation rate and p99
        service latency the canary comparison reads."""
        version = int(version)
        with self._lock:
            windows = self._windows.get(version)
            audited = windows.audited if windows is not None else 0
            degraded_audited = (
                windows.degraded_audited if windows is not None else 0
            )
        label = str(version)
        served = self._served_by_version.labels(version=label).value
        degraded = self._degraded_by_version.labels(version=label).value
        out = {
            "version": version,
            "audits": audited,
            "degraded_audits": degraded_audited,
            "served": int(served),
            "degraded_rate": (degraded / served) if served else 0.0,
            "latency_p99_s": self._request_seconds.labels(
                version=label
            ).percentile(99.0),
        }
        for name in (
            "quality_mass",
            "ilad",
            "similarity",
            "log_probability",
            "slate_size",
            "alpha",
        ):
            out[name] = getattr(windows, name).mean() if windows is not None else None
        return out

    # -------------------------------------------------------------- canary
    def arm_canary(self, baseline: dict, version: int) -> bool:
        """Arm the post-publish comparison; returns False (recording a
        ``canary_skipped`` event) when the baseline never accrued
        enough audited responses to compare against."""
        if baseline["audits"] < self.canary_min_audits:
            self._event_log.record(
                "canary_skipped",
                baseline_version=baseline["version"],
                version=int(version),
                baseline_audits=baseline["audits"],
                needed=self.canary_min_audits,
            )
            return False
        with self._lock:
            self._canary = _PendingCanary(
                baseline["version"], version, baseline, self.canary_min_audits
            )
        return True

    def _maybe_evaluate_canary(self) -> None:
        with self._lock:
            pending = self._canary
            if pending is None:
                return
            windows = self._windows.get(pending.version)
            if windows is None or windows.audited < pending.min_audits:
                return
            self._canary = None
        current = self.aggregate(pending.version)
        metrics: dict[str, dict] = {}
        regressions: list[str] = []
        for name in (
            "quality_mass",
            "ilad",
            "log_probability",
            "latency_p99_s",
            "degraded_rate",
        ):
            entry, regressed = _compare_canary_metric(
                name,
                pending.baseline.get(name),
                current.get(name),
                CANARY_TOLERANCE,
            )
            metrics[name] = entry
            if regressed:
                regressions.append(name)
        report = CanaryReport(
            baseline_version=pending.baseline_version,
            version=pending.version,
            audits=current["audits"],
            tolerance=CANARY_TOLERANCE,
            metrics=metrics,
            regressions=tuple(regressions),
        )
        with self._lock:
            self._last_canary = report
        self._event_log.record(
            "canary",
            baseline_version=report.baseline_version,
            version=report.version,
            passed=report.passed,
            regressions=list(report.regressions),
        )
        if report.regressions:
            details = {
                name: report.metrics[name]["delta"] for name in report.regressions
            }
            self._event_log.record(
                "canary_regression",
                baseline_version=report.baseline_version,
                version=report.version,
                regressions=list(report.regressions),
                deltas=details,
            )

    @property
    def last_canary(self) -> CanaryReport | None:
        with self._lock:
            return self._last_canary

    @property
    def pending_canary(self) -> dict | None:
        with self._lock:
            pending = self._canary
            if pending is None:
                return None
            return {
                "baseline_version": pending.baseline_version,
                "version": pending.version,
                "min_audits": pending.min_audits,
                "baseline": dict(pending.baseline),
            }

    @property
    def audited(self) -> int:
        with self._lock:
            return self._audited_total

    # -------------------------------------------------------------- health
    def health_reasons(self, current_version: int) -> list[str]:
        """Why the product (not the infrastructure) looks off right now:
        a regressed canary targeting the live version, or flagged
        metric drift.  Feeds ``runtime.health()``."""
        reasons: list[str] = []
        with self._lock:
            report = self._last_canary
            drift = [d for d in self._drift.values() if d.flagged]
        if (
            report is not None
            and report.regressions
            and report.version == int(current_version)
        ):
            reasons.append(
                f"canary regression on v{report.version}: "
                + ", ".join(report.regressions)
            )
        for detector in drift:
            reasons.append(f"drift detected on {detector.metric}")
        return reasons

    def stats(self) -> dict:
        """The telemetry snapshot's ``audit`` section."""
        with self._lock:
            versions = sorted(self._windows)
        return {
            "audit_rate": self.rate,
            "audited": self.audited,
            "windows": {version: self.aggregate(version) for version in versions},
            "pending_canary": self.pending_canary,
            "last_canary": (
                self.last_canary.to_dict() if self.last_canary is not None else None
            ),
            "drift": {
                name: detector.stats() for name, detector in self._drift.items()
            },
        }


def _slate_geometry(rows: np.ndarray) -> tuple[float, float]:
    """(mean pairwise Euclidean distance, mean pairwise |cosine|) over
    distinct row pairs — the exact
    :func:`repro.eval.metrics.intra_list_distance` math, vectorized
    (both 0.0 for lists under 2)."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[0] < 2:
        return 0.0, 0.0
    ilads, similarities = _slate_geometry_batch(rows[None, :, :])
    return float(ilads[0]), float(similarities[0])


def _slate_geometry_batch(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched :func:`_slate_geometry` over ``(batch, k, rank)`` stacks
    of factor rows, one gram per slate, k >= 2."""
    _, k, _ = rows.shape
    gram = rows @ rows.transpose(0, 2, 1)
    squared = np.einsum("bii->bi", gram)
    distances_sq = squared[:, :, None] + squared[:, None, :] - 2.0 * gram
    np.maximum(distances_sq, 0.0, out=distances_sq)
    pairs = k * (k - 1)  # ordered pairs; the x2 cancels in both means
    ilads = np.sqrt(distances_sq, out=distances_sq).sum(axis=(1, 2)) / pairs
    norms = np.sqrt(np.maximum(squared, 1e-300))
    cosine = np.abs(gram) / (norms[:, :, None] * norms[:, None, :])
    similarities = (cosine.sum(axis=(1, 2)) - np.einsum("bii->b", cosine)) / pairs
    return ilads, similarities


def _quality_buckets() -> list[float]:
    return [round(0.01 * 10 ** (i / 2), 10) for i in range(13)]


def _ilad_buckets() -> list[float]:
    return [round(0.001 * 10 ** (i / 4), 12) for i in range(17)]


def _neg_logp_buckets() -> list[float]:
    return [round(0.1 * 10 ** (i / 2), 10) for i in range(11)]
