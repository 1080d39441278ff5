"""Product-health suite: auditing, canaries, drift, SLO burn rates.

Contracts pinned here:

1. **Parity** — ``audit_rate=0`` (the default) is bit-identical to the
   audited stack, seeded samples included: the auditor's sampler is the
   trace sampler's credit accumulator, never an RNG draw, and auditing
   runs strictly after the engine batch resolves.
2. **Burn math** — under a :class:`~repro.utils.timing.ManualClock` the
   fast/slow burn rates are exact rational numbers: breach needs both
   windows hot, a single hot window only warns, and events age out of
   the fast window before the slow one (the multi-window convention).
3. **Drift** — an injected quality shift fires exactly once (reference
   rebases) and flags health until a post-rebase window settles;
   stationary traffic stays quiet forever; a seeded shifted sequence
   fires at the recorded sample indices with the recorded records.
4. **Canaries** — the baseline freezes *before* the catalog swap, so
   requests admitted (pinned to the old snapshot) but audited during or
   after the publish cannot move it; a collapsed-factor publish trips
   ``canary_regression`` while a clean one passes.
5. **Alerts are events** — an ``alert_sink`` callback receives exactly
   the ``slo_burn`` / ``drift`` / ``canary_regression`` events the event
   log records, field for field, and a raising one fails no request.

No sleeps: manual clocks everywhere, ``workers=0`` inline dispatch.
"""

import numpy as np
import pytest

from repro.serving import (
    DEGRADED,
    HEALTHY,
    SLO,
    UNHEALTHY,
    CanaryReport,
    DriftDetector,
    EventLog,
    HealthStatus,
    ItemCatalog,
    MetricsRegistry,
    Request,
    ServingConfig,
    ServingRuntime,
    SLOTracker,
    WindowedStat,
)
from repro.serving.health import ALERT_KINDS
from repro.serving.resilience import DeadlineExceeded
from repro.utils.timing import ManualClock


def _factors(seed: int, m: int, r: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    diversity = rng.normal(size=(m, r))
    diversity /= np.linalg.norm(diversity, axis=1, keepdims=True)
    return diversity


def _quality(seed: int, m: int, scale: float = 1.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return scale * np.exp(rng.normal(scale=0.3, size=m))


def _serve(rt: ServingRuntime, requests) -> list:
    futures = rt.submit_many(requests)
    rt.flush()
    return [future.result() for future in futures]


# ----------------------------------------------------------------------
# WindowedStat / DriftDetector / alert-subscription primitives
# ----------------------------------------------------------------------
def test_windowed_stat_ring_semantics():
    stat = WindowedStat(capacity=4)
    assert stat.mean() is None and stat.std() is None
    assert stat.count == 0 and not stat.full
    for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
        stat.add(value)
    # capacity 4: the first two samples were evicted
    assert stat.values() == [3.0, 4.0, 5.0, 6.0]
    assert stat.count == 4 and stat.added == 6 and stat.full
    assert stat.mean() == pytest.approx(4.5)
    assert stat.std() == pytest.approx(np.std([3.0, 4.0, 5.0, 6.0]))
    stat.clear()
    assert stat.count == 0 and stat.added == 6
    with pytest.raises(ValueError, match="capacity"):
        WindowedStat(capacity=1)


def test_drift_detector_quiet_on_stationary_traffic():
    rng = np.random.default_rng(11)
    detector = DriftDetector("quality_mass", window=16, threshold=3.0)
    for value in 1.0 + 0.05 * rng.standard_normal(200):
        assert detector.add(float(value)) is None
    assert detector.fired == 0 and not detector.flagged


def test_drift_detector_fires_once_on_shift_then_recovers():
    rng = np.random.default_rng(12)
    detector = DriftDetector("ilad", window=8, threshold=3.0)
    for value in 1.0 + 0.02 * rng.standard_normal(16):
        detector.add(float(value))
    assert detector.fired == 0
    # regime change: the mean doubles — drift fires mid-stream
    record = None
    for value in 2.0 + 0.02 * rng.standard_normal(16):
        record = detector.add(float(value))
        if record is not None:
            break
    assert record is not None and record["metric"] == "ilad"
    assert record["shift"] == pytest.approx(
        record["current_mean"] - record["reference_mean"]
    )
    assert detector.flagged and detector.fired == 1
    # a full post-rebase window at the new level clears the flag
    # without re-firing: one regime change alerts exactly once
    for value in 2.0 + 0.02 * rng.standard_normal(detector.window):
        assert detector.add(float(value)) is None
    assert not detector.flagged and detector.fired == 1
    stats = detector.stats()
    assert stats["fired"] == 1 and not stats["flagged"]


#: (sample index, record) of every firing of a window-32 detector on the
#: seeded sequence below, as recorded before DriftDetector was rebuilt on
#: two WindowedStat windows
_RECORDED_DRIFT = [
    (159, 1.00018593702041, 1.0918132211793319, 0.09162728415892185),
    (191, 1.0918132211793319, 1.2997292888403091, 0.20791606766097726),
    (434, 1.2997292888403091, 1.2333304868745267, -0.0663988019657824),
    (466, 1.2333304868745267, 1.1242301054848227, -0.10910038138970402),
    (498, 1.1242301054848227, 1.0108527443745026, -0.11337736111032015),
    (530, 1.0108527443745026, 0.8957077051239725, -0.1151450392505301),
    (562, 0.8957077051239725, 0.785119005854408, -0.1105886992695645),
    (594, 0.785119005854408, 0.6724617093388195, -0.11265729651558842),
]


def test_drift_detector_fires_at_the_recorded_samples():
    rng = np.random.default_rng(29)
    values = np.concatenate([
        rng.normal(1.0, 0.05, 150),
        rng.normal(1.3, 0.05, 150),
        rng.normal(1.3, 0.2, 100),
        np.linspace(1.3, 0.6, 200) + rng.normal(0, 0.02, 200),
    ])
    detector = DriftDetector("ilad", window=32, threshold=3.0)
    fired = []
    for index, value in enumerate(values):
        record = detector.add(value)
        if record is not None:
            fired.append((index, record))
    assert fired == [
        (index, {"metric": "ilad", "reference_mean": ref, "current_mean": cur,
                 "shift": shift})
        for index, ref, cur, shift in _RECORDED_DRIFT
    ]
    assert detector.stats() == {
        "metric": "ilad",
        "fired": 8,
        "flagged": True,
        "reference_mean": 0.6724617093388195,
        "current_mean": 0.603435887176354,
    }


def test_drift_detector_validates():
    with pytest.raises(ValueError, match="window"):
        DriftDetector("m", window=1)
    with pytest.raises(ValueError, match="threshold"):
        DriftDetector("m", threshold=0.0)
    with pytest.raises(ValueError, match="min_shift"):
        DriftDetector("m", min_shift=-0.1)


def test_alert_sink_callbacks_and_retention():
    """Alert callbacks are event-log subscriptions: they see each event
    of their kinds as recorded, a raising one is swallowed, and the log
    keeps its bounded retention."""
    clock = ManualClock(start=3.0)
    seen = []
    log = EventLog(capacity=2, clock=clock)
    log.subscribe(seen.append, ALERT_KINDS)

    def _raising(event):
        raise RuntimeError("pager down")

    log.subscribe(_raising)  # must never take the caller down, only counted
    first = log.record("drift", metric="ilad")
    clock.advance(1.0)
    log.record("publish", version=1)  # not an alert kind
    log.record("slo_burn", slo="latency")
    log.record("slo_burn", slo="availability")
    assert first == {"kind": "drift", "time": 3.0, "metric": "ilad", "seq": 1}
    assert seen[0] == first and seen[0] is not first
    assert [alert["kind"] for alert in seen] == ["drift", "slo_burn", "slo_burn"]
    assert log.stats()["recorded"] == 4
    assert log.stats()["callback_errors"] == 4
    # capacity 2: the drift and publish events rolled off; kind filter works
    assert [event["kind"] for event in log.snapshot()] == ["slo_burn", "slo_burn"]
    assert log.snapshot(kind="drift") == []


# ----------------------------------------------------------------------
# SLO declarations and burn-rate math
# ----------------------------------------------------------------------
def test_slo_validation_and_budget_defaults():
    assert SLO("a", "latency", target=0.05).error_budget == 0.01
    assert SLO("b", "availability", target=0.999).error_budget == pytest.approx(0.001)
    assert SLO("c", "error_rate", target=0.02).error_budget == 0.02
    assert SLO("d", "degraded_rate", target=0.1, budget=0.5).error_budget == 0.5
    with pytest.raises(ValueError, match="objective"):
        SLO("e", "throughput", target=1.0)
    with pytest.raises(ValueError, match="target"):
        SLO("e", "latency", target=0.0)
    with pytest.raises(ValueError, match="availability target"):
        SLO("e", "availability", target=1.0)
    with pytest.raises(ValueError, match="fast_window"):
        SLO("e", "latency", target=0.05, window=60.0, fast_window=120.0)
    with pytest.raises(ValueError, match="burn_threshold"):
        SLO("e", "latency", target=0.05, burn_threshold=0.0)
    with pytest.raises(ValueError, match="budget"):
        SLO("e", "latency", target=0.05, budget=2.0)


def test_slo_tracker_rejects_bad_declarations():
    with pytest.raises(TypeError, match="SLO instances"):
        SLOTracker(slos=("not-an-slo",))
    slo = SLO("dup", "error_rate", target=0.01)
    with pytest.raises(ValueError, match="duplicate"):
        SLOTracker(slos=(slo, slo))


def test_burn_rates_are_exact_under_manual_clock():
    """5% failures against a 1% budget burn at exactly 5.0x."""
    clock = ManualClock()
    registry = MetricsRegistry()
    log = EventLog(capacity=32)
    alerts = []
    log.subscribe(alerts.append, ALERT_KINDS)
    slo = SLO("avail", "availability", target=0.99, window=60.0, fast_window=10.0)
    tracker = SLOTracker(
        slos=(slo,), clock=clock, registry=registry, event_log=log
    )
    clock.advance(100.0)
    for i in range(100):
        tracker.record(error=(i < 5))
    (evaluation,) = tracker.evaluate()
    assert evaluation["slow_burn"] == pytest.approx(5.0)
    assert evaluation["fast_burn"] == pytest.approx(5.0)
    assert evaluation["slow_events"] == 100 and evaluation["fast_events"] == 100
    assert evaluation["breached"] and not evaluation["warning"]
    status, reasons, _ = tracker.health()
    assert status == UNHEALTHY and "avail" in reasons[0]
    # edge-triggered: one slo_burn event + alert, not one per evaluate
    tracker.evaluate()
    assert [event["kind"] for event in log.snapshot()] == ["slo_burn"]
    assert [alert["kind"] for alert in alerts] == ["slo_burn"]
    burn_gauge = registry.gauge(
        "slo_burn_rate",
        "error-budget burn rate per SLO and window",
        labelnames=("slo", "window"),
    )
    assert burn_gauge.labels(slo="avail", window="fast").value == pytest.approx(5.0)


def test_fast_window_ages_out_before_slow_window():
    """Multi-window semantics: breach -> warning -> recovery as the
    errors age out of the fast then the slow window."""
    clock = ManualClock()
    log = EventLog(capacity=32)
    slo = SLO("avail", "availability", target=0.99, window=60.0, fast_window=10.0)
    tracker = SLOTracker(slos=(slo,), clock=clock, event_log=log)
    clock.advance(100.0)
    for i in range(100):
        tracker.record(error=(i < 5))
    assert tracker.health()[0] == UNHEALTHY
    # +11s: the failures left the 10s fast window but sit in the slow one
    clock.advance(11.0)
    for _ in range(100):
        tracker.record(error=False)
    (evaluation,) = tracker.evaluate()
    assert evaluation["fast_burn"] == 0.0
    assert evaluation["slow_burn"] == pytest.approx(5.0 / 2)  # 5 bad / 200 total
    assert not evaluation["breached"] and evaluation["warning"]
    assert tracker.health()[0] == DEGRADED
    # +100s: everything expired; fresh traffic is clean
    clock.advance(100.0)
    tracker.record(error=False)
    (evaluation,) = tracker.evaluate()
    assert evaluation["slow_burn"] == 0.0 and evaluation["fast_burn"] == 0.0
    assert tracker.health()[0] == HEALTHY
    assert [event["kind"] for event in log.snapshot()] == [
        "slo_burn",
        "slo_recovered",
    ]


def test_latency_slo_skips_failed_requests():
    clock = ManualClock()
    slo = SLO("lat", "latency", target=0.05, window=60.0, fast_window=10.0)
    tracker = SLOTracker(slos=(slo,), clock=clock)
    clock.advance(50.0)
    tracker.record(seconds=0.01)          # good
    tracker.record(seconds=0.20)          # over target: bad
    tracker.record(error=True)            # failed: no latency sample
    (evaluation,) = tracker.evaluate()
    assert evaluation["slow_events"] == 2
    # 1 bad / 2 total / 0.01 budget
    assert evaluation["slow_burn"] == pytest.approx(50.0)


# ----------------------------------------------------------------------
# Audit sampling parity and determinism
# ----------------------------------------------------------------------
def _sampled_requests(m: int) -> list[Request]:
    return [
        Request(quality=_quality(31, m), k=4, mode="sample", seed=101),
        Request(quality=_quality(32, m), k=4, mode="map"),
        Request(quality=_quality(33, m), k=3, mode="sample", seed=55, alpha=1.5),
        Request(quality=_quality(34, m), k=3, mode="topk-rerank", rerank_pool=20),
    ]


def _serve_at_audit_rate(factors: np.ndarray, requests, audit_rate: float):
    catalog = ItemCatalog(factors)
    config = ServingConfig(workers=0, clock=ManualClock(), audit_rate=audit_rate)
    with ServingRuntime(catalog, config=config) as rt:
        return _serve(rt, requests)


def test_audit_rate_zero_is_bitwise_identical_to_auditing():
    """Auditing never perturbs payloads: seeded samples byte-match."""
    m = 70
    factors = _factors(31, m, 6)
    requests = _sampled_requests(m)
    unaudited = _serve_at_audit_rate(factors, requests, audit_rate=0.0)
    audited = _serve_at_audit_rate(factors, requests, audit_rate=1.0)
    for off, on in zip(unaudited, audited):
        assert off.items == on.items
        assert off.log_probability == on.log_probability
        assert off == on


def test_audit_rate_zero_stays_silent():
    catalog = ItemCatalog(_factors(35, 40, 5))
    config = ServingConfig(workers=0, clock=ManualClock())  # audit_rate=0 default
    with ServingRuntime(catalog, config=config) as rt:
        _serve(rt, [Request(quality=_quality(35, 40), k=3, mode="map")] * 4)
        rt.publish(_factors(36, 40, 5))
        assert rt.auditor.audited == 0
        assert rt.auditor.pending_canary is None and rt.last_canary is None
        # no canary/audit events pollute the log when auditing is off
        assert [e["kind"] for e in rt.telemetry().event_log.snapshot()] == ["publish"]


def test_fractional_audit_rate_samples_deterministically():
    m = 40
    catalog = ItemCatalog(_factors(41, m, 5))
    config = ServingConfig(workers=0, clock=ManualClock(), audit_rate=0.5)
    with ServingRuntime(catalog, config=config) as rt:
        _serve(rt, [Request(quality=_quality(41, m), k=2, mode="map")] * 6)
        # credit accumulator at rate 0.5: every second response audits
        assert rt.auditor.audited == 3


def test_audit_aggregates_match_response_payloads():
    m = 50
    catalog = ItemCatalog(_factors(42, m, 6))
    config = ServingConfig(workers=0, clock=ManualClock(), audit_rate=1.0)
    quality = _quality(42, m)
    with ServingRuntime(catalog, config=config) as rt:
        responses = _serve(
            rt, [Request(quality=quality, k=4, mode="map") for _ in range(5)]
        )
        aggregate = rt.auditor.aggregate(0)
    assert aggregate["audits"] == 5 and aggregate["served"] == 5
    expected_mass = float(np.mean([quality[list(r.items)].sum() for r in responses]))
    assert aggregate["quality_mass"] == pytest.approx(expected_mass)
    expected_logp = float(np.mean([r.log_probability for r in responses]))
    assert aggregate["log_probability"] == pytest.approx(expected_logp)
    assert aggregate["slate_size"] == pytest.approx(4.0)
    assert aggregate["ilad"] > 0.0 and 0.0 <= aggregate["similarity"] <= 1.0
    assert aggregate["degraded_rate"] == 0.0


def test_slate_geometry_matches_eval_metrics_math():
    """The audit path's vectorized ILAD is the reference
    intra_list_distance, not a reimplementation that can skew."""
    from repro.eval.metrics import intra_list_distance
    from repro.serving.health import _slate_geometry

    rng = np.random.default_rng(9)
    for k, r in ((2, 4), (5, 16), (12, 8)):
        rows = rng.normal(size=(k, r))
        ilad, similarity = _slate_geometry(rows)
        assert ilad == pytest.approx(
            intra_list_distance(np.arange(k), rows), rel=1e-12
        )
        assert 0.0 <= similarity <= 1.0
    assert _slate_geometry(rng.normal(size=(1, 4))) == (0.0, 0.0)


def test_audit_config_validation():
    with pytest.raises(ValueError, match="audit_rate"):
        ServingConfig(audit_rate=1.5)
    with pytest.raises(ValueError, match="canary_min_audits"):
        ServingConfig(canary_min_audits=0)
    with pytest.raises(ValueError, match="drift_window"):
        ServingConfig(drift_window=1)
    with pytest.raises(ValueError, match="SLO"):
        ServingConfig(slos=("nope",))
    with pytest.raises(ValueError, match="alert_sink"):
        ServingConfig(alert_sink="not-callable")


# ----------------------------------------------------------------------
# Publish canaries
# ----------------------------------------------------------------------
def test_canary_baseline_survives_submits_during_publish():
    """Requests admitted before the swap (pinned to the old snapshot)
    but audited after it cannot move the frozen baseline."""
    m = 60
    catalog = ItemCatalog(_factors(61, m, 6))
    config = ServingConfig(
        workers=0, clock=ManualClock(), audit_rate=1.0, canary_min_audits=4
    )
    with ServingRuntime(catalog, config=config) as rt:
        _serve(rt, [Request(quality=_quality(61, m), k=3, mode="map")] * 6)
        frozen = rt.auditor.aggregate(0)
        assert frozen["audits"] == 6
        # admitted (and snapshot-pinned) but NOT yet flushed
        in_flight = rt.submit_many(
            [Request(quality=_quality(62, m), k=3, mode="map")] * 6
        )
        rt.publish(_factors(63, m, 6))
        rt.flush()
        for future in in_flight:
            assert future.result().version == 0  # served off the old pins
        assert rt.auditor.aggregate(0)["audits"] == 12
        pending = rt.auditor.pending_canary
        # the armed baseline is the pre-publish freeze, not the 12-audit view
        assert pending["baseline"]["audits"] == 6
        assert pending["baseline"]["quality_mass"] == pytest.approx(
            frozen["quality_mass"]
        )
        # v1 traffic completes the canary against that frozen baseline
        _serve(rt, [Request(quality=_quality(64, m), k=3, mode="map")] * 4)
        report = rt.last_canary
        assert report is not None and report.baseline_version == 0
        assert report.version == 1 and report.audits == 4
        assert report.metrics["quality_mass"]["baseline"] == pytest.approx(
            frozen["quality_mass"]
        )


def test_canary_skipped_without_enough_baseline_audits():
    catalog = ItemCatalog(_factors(65, 40, 5))
    config = ServingConfig(
        workers=0, clock=ManualClock(), audit_rate=1.0, canary_min_audits=8
    )
    with ServingRuntime(catalog, config=config) as rt:
        _serve(rt, [Request(quality=_quality(65, 40), k=3, mode="map")] * 2)
        rt.publish(_factors(66, 40, 5))
        assert rt.auditor.pending_canary is None
        events = rt.telemetry().event_log.snapshot(kind="canary_skipped")
        assert len(events) == 1
        assert events[0]["baseline_audits"] == 2 and events[0]["needed"] == 8


def _collapsed_factors(seed: int, m: int, r: int) -> np.ndarray:
    """Nearly rank-1 factors: every item points the same way, so any
    slate's intra-list distance collapses — a catastrophic publish."""
    rng = np.random.default_rng(seed)
    direction = np.ones(r) / np.sqrt(r)
    factors = np.tile(direction, (m, 1)) + 0.01 * rng.normal(size=(m, r))
    return factors / np.linalg.norm(factors, axis=1, keepdims=True)


def _canary_runtime(m: int = 60):
    catalog = ItemCatalog(_factors(71, m, 6))
    clock = ManualClock()
    config = ServingConfig(
        workers=0, clock=clock, audit_rate=1.0, canary_min_audits=6
    )
    return ServingRuntime(catalog, config=config)


def test_corrupted_publish_trips_canary_regression():
    m = 60
    requests = [
        Request(quality=_quality(72, m), k=4, mode="sample", seed=i) for i in range(8)
    ]
    with _canary_runtime(m) as rt:
        _serve(rt, requests)
        rt.publish(_collapsed_factors(73, m, 6))
        _serve(rt, requests)
        report = rt.last_canary
        assert report is not None and not report.passed
        assert "ilad" in report.regressions
        assert report.metrics["ilad"]["delta"] < 0
        kinds = [e["kind"] for e in rt.telemetry().event_log.snapshot()]
        assert "canary_regression" in kinds
        health = rt.health()
        assert health.status == DEGRADED
        assert any("canary regression" in reason for reason in health.reasons)
        # the verdict rides out in telemetry too
        snapshot = rt.telemetry().snapshot()
        assert snapshot["audit"]["last_canary"]["passed"] is False
        assert snapshot["health"]["status"] == DEGRADED


def test_clean_publish_passes_canary_and_stays_healthy():
    m = 60
    requests = [
        Request(quality=_quality(72, m), k=4, mode="sample", seed=i) for i in range(8)
    ]
    with _canary_runtime(m) as rt:
        _serve(rt, requests)
        rt.publish(_factors(74, m, 6))  # a healthy retrain
        _serve(rt, requests)
        report = rt.last_canary
        assert report is not None and report.passed
        assert report.regressions == ()
        kinds = [e["kind"] for e in rt.telemetry().event_log.snapshot()]
        assert "canary" in kinds and "canary_regression" not in kinds
        assert rt.health().status == HEALTHY


def test_canary_report_comparison_rules():
    from repro.serving.health import _compare_canary_metric

    # lower-is-worse metrics regress on a relative drop
    entry, regressed = _compare_canary_metric("ilad", 1.0, 0.8, tolerance=0.1)
    assert regressed and entry["delta"] == pytest.approx(-0.2)
    _, regressed = _compare_canary_metric("ilad", 1.0, 0.95, tolerance=0.1)
    assert not regressed
    _, regressed = _compare_canary_metric("quality_mass", 1.0, 1.5, tolerance=0.1)
    assert not regressed  # improvements never regress
    # log-probability is negative-valued: relative to |baseline|
    _, regressed = _compare_canary_metric("log_probability", -10.0, -12.0, 0.1)
    assert regressed
    # latency regresses on a relative rise, but a zero baseline
    # (manual clocks, cold histograms) is incomparable
    _, regressed = _compare_canary_metric("latency_p99_s", 0.010, 0.012, 0.1)
    assert regressed
    _, regressed = _compare_canary_metric("latency_p99_s", 0.0, 5.0, 0.1)
    assert not regressed
    # degraded rate regresses on an absolute rise
    _, regressed = _compare_canary_metric("degraded_rate", 0.0, 0.15, tolerance=0.1)
    assert regressed
    # missing sides are incomparable, never regressions
    entry, regressed = _compare_canary_metric("ilad", None, 1.0, tolerance=0.1)
    assert not regressed and entry["delta"] is None
    report = CanaryReport(baseline_version=0, version=1, audits=8, tolerance=0.1)
    assert report.passed and report.to_dict()["regressions"] == []


# ----------------------------------------------------------------------
# Drift through the runtime
# ----------------------------------------------------------------------
def test_quality_drift_fires_through_the_runtime():
    m = 50
    catalog = ItemCatalog(_factors(81, m, 5))
    config = ServingConfig(
        workers=0, clock=ManualClock(), audit_rate=1.0, drift_window=8
    )
    with ServingRuntime(catalog, config=config) as rt:
        # 16 stationary audits fill reference + current: no drift
        _serve(rt, [Request(quality=_quality(81, m), k=3, mode="map")] * 16)
        assert rt.telemetry().event_log.snapshot(kind="drift") == []
        # the quality model breaks: scores quadruple
        _serve(
            rt, [Request(quality=_quality(81, m, scale=4.0), k=3, mode="map")] * 8
        )
        drift_events = rt.telemetry().event_log.snapshot(kind="drift")
        assert drift_events and drift_events[0]["metric"] == "quality_mass"
        assert drift_events[0]["shift"] > 0
        health = rt.health()
        assert health.status == DEGRADED
        assert any("drift" in reason for reason in health.reasons)
        assert rt.telemetry().snapshot()["audit"]["drift"]["quality_mass"]["fired"] >= 1


def test_stationary_traffic_never_drifts():
    m = 50
    catalog = ItemCatalog(_factors(82, m, 5))
    config = ServingConfig(
        workers=0, clock=ManualClock(), audit_rate=1.0, drift_window=8
    )
    with ServingRuntime(catalog, config=config) as rt:
        requests = [
            Request(quality=_quality(100 + i, m), k=3, mode="map") for i in range(48)
        ]
        _serve(rt, requests)
        assert rt.telemetry().event_log.snapshot(kind="drift") == []
        assert rt.health().status == HEALTHY


# ----------------------------------------------------------------------
# runtime.health() end to end
# ----------------------------------------------------------------------
def test_runtime_health_goes_unhealthy_on_slo_breach():
    m = 40
    clock = ManualClock()
    alerts = []
    catalog = ItemCatalog(_factors(91, m, 5))
    config = ServingConfig(
        workers=0,
        clock=clock,
        slos=(SLO("avail", "availability", target=0.99, window=60, fast_window=10),),
        alert_sink=alerts.append,
    )
    with ServingRuntime(catalog, config=config) as rt:
        assert rt.health().status == HEALTHY
        futures = rt.submit_many(
            [Request(quality=_quality(91, m), k=3, mode="map", deadline=0.5)] * 4
        )
        clock.advance(1.0)  # every deadline expires before dispatch
        rt.flush()
        for future in futures:
            with pytest.raises(DeadlineExceeded):
                future.result()
        health = rt.health()
        assert health.status == UNHEALTHY and not health.healthy
        assert health.severity == 2
        assert any("avail" in reason for reason in health.reasons)
        assert (health.slos[0]["breached"], health.slos[0]["name"]) == (True, "avail")
        assert [alert["kind"] for alert in alerts] == ["slo_burn"]
        # the gauge and the text exposition carry the verdict
        snapshot = rt.telemetry().snapshot()
        assert snapshot["health"]["status"] == UNHEALTHY
        text = rt.telemetry().to_text()
        assert 'serving_health_info{status="unhealthy"} 1' in text
        assert "serving_health_status 2" in text
        assert "slo_burn_rate" in text


def test_health_status_round_trip():
    status = HealthStatus(status=HEALTHY, reasons=("all good",), slos=({"name": "x"},))
    assert status.healthy and status.severity == 0
    assert status.to_dict() == {
        "status": "healthy",
        "reasons": ["all good"],
        "slos": [{"name": "x"}],
    }


# ----------------------------------------------------------------------
# Alerts are events
# ----------------------------------------------------------------------
def _alert_stream(alert_sink):
    """A stream that records every alert kind: a collapsed publish
    (canary regression, ILAD drift), a quality blow-up (quality drift)
    and a burst of expired deadlines (availability SLO burn)."""
    m = 60
    clock = ManualClock()
    config = ServingConfig(
        workers=0,
        clock=clock,
        audit_rate=1.0,
        canary_min_audits=4,
        drift_window=8,
        slos=(SLO("avail", "availability", target=0.99, window=60, fast_window=10),),
        alert_sink=alert_sink,
    )
    requests = [
        Request(quality=_quality(72, m), k=4, mode="sample", seed=i) for i in range(8)
    ]
    with ServingRuntime(ItemCatalog(_factors(71, m, 6)), config=config) as rt:
        served = _serve(rt, requests)
        rt.publish(_collapsed_factors(73, m, 6))
        served += _serve(rt, requests)
        served += _serve(
            rt, [Request(quality=_quality(81, m, scale=4.0), k=3, mode="map")] * 16
        )
        expired = rt.submit_many(
            [Request(quality=_quality(91, m), k=3, mode="map", deadline=clock() + 0.5)] * 4
        )
        clock.advance(1.0)
        rt.flush()
        events = rt.telemetry().event_log.snapshot()
        stats = rt.telemetry().event_log.stats()
    return served, expired, events, stats


def test_alert_sink_gets_one_identical_dict_per_alert_event():
    alerts = []
    _, _, events, stats = _alert_stream(alerts.append)
    recorded = [event for event in events if event["kind"] in ALERT_KINDS]
    assert {event["kind"] for event in recorded} == set(ALERT_KINDS)
    assert alerts == recorded
    assert stats["callback_errors"] == 0


def test_raising_alert_sink_fails_no_request():
    calls = []

    def _raising(alert):
        calls.append(alert["kind"])
        raise RuntimeError("pager down")

    served, expired, events, stats = _alert_stream(_raising)
    assert len(served) == 32 and all(response.items for response in served)
    for future in expired:
        with pytest.raises(DeadlineExceeded):
            future.result()
    assert calls == [event["kind"] for event in events if event["kind"] in ALERT_KINDS]
    assert stats["callback_errors"] == len(calls)
