"""Telemetry suite: metrics primitives, stage tracing, the merged snapshot.

Contracts pinned here:

1. **Primitives** — Counter/Gauge/Histogram are thread-safe (exact
   totals under concurrent increments), labeled children share one
   family, the registry is get-or-create with hard kind/label mismatch
   errors, and the histogram's percentile math agrees with the benches'
   ``latency_percentiles`` convention.
2. **Tracing** — under a :class:`~repro.utils.timing.ManualClock` the
   span tree is fully deterministic: the ``queue`` span equals the
   admission window, a degraded trace names its ladder rung, and
   breaker trips land in the event log.  ``trace_rate=0`` (the default)
   is bit-identical to the untraced stack — seeded samples included —
   because sampling is a credit accumulator, not an RNG draw.
3. **Snapshot** — ``runtime.telemetry().snapshot()`` is one versioned
   dict over every layer's stats, consistent even while worker threads
   are mid-flight; ``to_text()`` is a Prometheus-style page.

No sleeps, no flaky timing — manual clocks everywhere determinism
matters, real threads only where concurrency itself is the contract.
"""

import threading

import numpy as np
import pytest

from repro.retrieval import QuantileFunnel
from repro.serving import (
    TELEMETRY_SCHEMA_VERSION,
    BreakerSource,
    Counter,
    EventLog,
    FaultPlan,
    Gauge,
    Histogram,
    ItemCatalog,
    MetricsRegistry,
    MetricsReporter,
    Request,
    RuntimeTelemetry,
    ServingConfig,
    ServingRuntime,
    ShardedCatalog,
    StageRecorder,
    Trace,
)
from repro.serving.resilience import QUALITY_TOPK
from repro.utils.timing import (
    ManualClock,
    Stopwatch,
    histogram_percentile,
    latency_percentiles,
    log_buckets,
)


def _factors(seed: int, m: int, r: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    diversity = rng.normal(size=(m, r))
    diversity /= np.linalg.norm(diversity, axis=1, keepdims=True)
    return diversity


def _quality(seed: int, m: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.exp(rng.normal(scale=0.5, size=m))


# ----------------------------------------------------------------------
# Metric primitives
# ----------------------------------------------------------------------
def test_counter_basics_and_monotonicity():
    counter = Counter("requests_total", "help text")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == pytest.approx(3.5)
    with pytest.raises(ValueError, match="only go up"):
        counter.inc(-1)
    counter.reset()
    assert counter.value == 0.0


def test_gauge_set_incdec_and_ratchet():
    gauge = Gauge("queue_depth")
    gauge.set(4)
    gauge.inc()
    gauge.dec(2)
    assert gauge.value == 3.0
    gauge.set_max(10)
    gauge.set_max(5)  # ratchet never goes down
    assert gauge.value == 10.0


def test_histogram_buckets_percentiles_and_text():
    hist = Histogram("latency_seconds", buckets=[0.01, 0.1, 1.0])
    for value in (0.005, 0.05, 0.05, 0.5, 5.0):
        hist.observe(value)
    assert hist.count == 5
    assert hist.total == pytest.approx(5.605)
    # p50 lands in the (0.01, 0.1] bucket, overflow reports the last bound
    assert 0.01 <= hist.percentile(50.0) <= 0.1
    assert hist.percentile(99.9) == pytest.approx(1.0)
    text = hist.to_text()
    assert 'latency_seconds_bucket{le="+Inf"} 5' in text
    assert "latency_seconds_count 5" in text
    snap = hist.snapshot()
    assert snap["series"][0]["count"] == 5
    assert snap["series"][0]["buckets"][-1][1] == 5


def test_labeled_children_share_one_family():
    hist = Histogram("stage_seconds", labelnames=("stage",))
    hist.labels(stage="eigh").observe(0.25)
    hist.labels(stage="eigh").observe(0.75)
    hist.labels(stage="funnel").observe(0.1)
    assert hist.labels(stage="eigh").count == 2
    assert hist.labels(stage="funnel").count == 1
    with pytest.raises(ValueError, match="expects labels"):
        hist.labels(wrong="x")
    text = hist.to_text()
    assert 'stage_seconds_count{stage="eigh"} 2' in text
    # unlabeled observe on a family is meaningless — families hold no value
    plain = Counter("plain_total")
    with pytest.raises(ValueError, match="takes no labels"):
        plain.labels(stage="x")


def test_registry_get_or_create_and_mismatch_errors():
    registry = MetricsRegistry()
    first = registry.counter("served_total", "help")
    again = registry.counter("served_total")
    assert first is again
    with pytest.raises(ValueError, match="already registered as counter"):
        registry.gauge("served_total")
    with pytest.raises(ValueError, match="labels"):
        registry.counter("served_total", labelnames=("mode",))
    registry.histogram("lat", buckets=[1.0])
    assert registry.names() == ["lat", "served_total"]
    assert registry.get("missing") is None
    assert "# TYPE served_total counter" in registry.to_text()
    assert set(registry.snapshot()) == {"lat", "served_total"}


def test_counter_is_thread_safe_under_contention():
    counter = Counter("hits_total")
    hist = Histogram("obs_seconds", buckets=list(log_buckets()))

    def hammer():
        for _ in range(5000):
            counter.inc()
            hist.observe(0.001)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert counter.value == 8 * 5000
    assert hist.count == 8 * 5000


def test_histogram_percentile_matches_offline_convention():
    # Dense buckets → the histogram estimate brackets the exact
    # latency_percentiles answer within one bucket's width.
    samples = [0.001 * (index + 1) for index in range(100)]
    bounds = [0.005 * (index + 1) for index in range(40)]
    hist = Histogram("check_seconds", buckets=bounds)
    for sample in samples:
        hist.observe(sample)
    exact = latency_percentiles(samples, (50.0,))["p50"]
    estimate = hist.percentile(50.0)
    assert abs(estimate - exact) <= 0.005
    # and the free function agrees with the method (same counts)
    counts = [0] * (len(bounds) + 1)
    from bisect import bisect_left

    for sample in samples:
        counts[bisect_left(bounds, sample)] += 1
    assert histogram_percentile(bounds, counts, 50.0) == pytest.approx(estimate)


def test_stopwatch_span_api_with_manual_clock():
    clock = ManualClock()
    watch = Stopwatch(clock=clock)
    with watch.span("warm"):
        clock.advance(0.5)
    with watch.span("serve"):
        clock.advance(0.25)
    assert watch.spans == [("warm", 0.0, 0.5), ("serve", 0.5, 0.75)]
    assert watch.elapsed == pytest.approx(0.75)


# ----------------------------------------------------------------------
# Trace / StageRecorder / EventLog units
# ----------------------------------------------------------------------
def test_trace_spans_events_and_coverage():
    clock = ManualClock()
    trace = Trace(clock)
    with trace.span("a"):
        clock.advance(0.6)
    with trace.span("inner", nested=True):
        clock.advance(0.1)
    trace.event("degraded", reason="queue")
    trace.annotate(served_mode="map")
    clock.advance(0.3)
    trace.finish()
    trace.finish()  # idempotent
    assert trace.duration == pytest.approx(1.0)
    # nested spans never double-count wall time
    assert trace.span_seconds() == pytest.approx(0.6)
    assert trace.span_seconds(include_nested=True) == pytest.approx(0.7)
    assert trace.coverage() == pytest.approx(0.6)
    dump = trace.to_dict()
    assert [span["name"] for span in dump["spans"]] == ["a", "inner"]
    assert dump["events"][0]["name"] == "degraded"
    assert dump["annotations"] == {"served_mode": "map"}


def test_stage_recorder_fans_out():
    clock = ManualClock()
    recorder = StageRecorder(clock)
    with recorder.stage("eigh"):
        clock.advance(0.2)
    with recorder.stage("selection"):
        clock.advance(0.3)
    assert recorder.seconds("eigh") == pytest.approx(0.2)
    left, right = Trace(clock), Trace(clock)
    recorder.extend_trace(left)
    recorder.extend_trace(right)
    assert [span.name for span in left.spans] == ["eigh", "selection"]
    assert [span.duration for span in right.spans] == [
        pytest.approx(0.2),
        pytest.approx(0.3),
    ]


def test_event_log_is_a_bounded_ring():
    clock = ManualClock()
    log = EventLog(capacity=4, clock=clock)
    for index in range(7):
        clock.advance(1.0)
        log.record("degraded" if index % 2 else "shed", index=index)
    assert len(log) == 4
    stats = log.stats()
    assert stats == {
        "capacity": 4, "recorded": 7, "retained": 4, "dropped": 3, "callback_errors": 0
    }
    retained = log.snapshot()
    assert [event["index"] for event in retained] == [3, 4, 5, 6]
    assert [event["seq"] for event in retained] == [4, 5, 6, 7]
    assert [e["index"] for e in log.snapshot(kind="shed")] == [4, 6]
    assert [e["index"] for e in log.snapshot(limit=2)] == [5, 6]
    with pytest.raises(ValueError, match="capacity"):
        EventLog(capacity=0)


# ----------------------------------------------------------------------
# Deterministic span trees through the runtime
# ----------------------------------------------------------------------
def test_traced_request_queue_span_equals_admission_window():
    clock = ManualClock()
    catalog = ItemCatalog(_factors(21, 60, 5))
    config = ServingConfig(workers=0, clock=clock, trace_rate=1.0)
    with ServingRuntime(catalog, config=config) as rt:
        future = rt.submit(
            Request(quality=_quality(21, 60), k=3, mode="sample", seed=7)
        )
        clock.advance(0.25)  # the request waits in the queue this long
        rt.flush()
        response = future.result()
    trace = response.trace
    assert trace is not None and trace.finished is not None
    by_name = {span.name: span for span in trace.spans}
    assert by_name["queue"].duration == pytest.approx(0.25)
    # engine batch phases rode along via the StageRecorder fan-out
    for stage in ("resolve", "dual_build", "eigh", "normalizer", "selection"):
        assert stage in by_name
    assert trace.annotations == {"served_mode": "sample", "degraded": False}
    # manual clock: all elapsed time is the queue wait, fully covered
    assert trace.coverage() == pytest.approx(1.0)
    # the engine histogram saw the batch phases
    stage_hist = rt.telemetry().registry.get("serving_stage_seconds")
    assert stage_hist.labels(stage="eigh").count == 1


def test_degraded_trace_names_its_ladder_rung():
    clock = ManualClock()
    catalog = ItemCatalog(_factors(22, 50, 5))
    quality = _quality(22, 50)
    config = ServingConfig(
        workers=0, clock=clock, trace_rate=1.0, queue_cap=1, max_batch=16
    )
    with ServingRuntime(catalog, config=config) as rt:
        futures = [
            rt.submit(Request(quality=quality, k=3, mode="sample", seed=5))
            for _ in range(4)  # pressure rungs 0, 1, 2, 3
        ]
        rt.flush()
        responses = [f.result() for f in futures]
    shed = responses[3]
    assert shed.served_mode == QUALITY_TOPK
    trace = shed.trace
    assert trace.annotations["served_mode"] == QUALITY_TOPK
    assert trace.annotations["degraded"] is True
    assert "quality_topk" in {span.name for span in trace.spans}
    assert ("shed", {"rung": QUALITY_TOPK}) in [
        (name, fields) for _, name, fields in trace.events
    ]
    # the middle rungs annotated their degraded mode too
    assert responses[1].trace.annotations["served_mode"] == "map"
    events = rt.telemetry().event_log
    degraded = events.snapshot(kind="degraded")
    assert {event["to_mode"] for event in degraded} >= {"map", "topk-rerank"}
    assert all(event["reason"] == "queue" for event in degraded)
    assert len(events.snapshot(kind="shed")) == 1


def test_breaker_trip_lands_in_the_event_log():
    clock = ManualClock()
    factors = _factors(23, 200, 6)
    plan = FaultPlan(clock=clock).fail_source(times=1)
    breaker = BreakerSource(QuantileFunnel(), failure_threshold=1, clock=clock)
    config = ServingConfig(
        workers=0,
        clock=clock,
        funnel_width=10,
        source=breaker,
        fault_plan=plan,
    )
    catalog = ShardedCatalog(factors, num_shards=2)
    with ServingRuntime(catalog, config=config) as rt:
        future = rt.submit(Request(quality=_quality(23, 200), k=3, mode="map"))
        rt.flush()
        future.result()  # served via the exact fallback
        assert breaker.breaker.state == "open"
        trips = rt.telemetry().event_log.snapshot(kind="breaker")
        assert trips == [
            {
                "kind": "breaker",
                "time": trips[0]["time"],
                "from_state": "closed",
                "to_state": "open",
                "seq": trips[0]["seq"],
            }
        ]
        transitions = rt.telemetry().registry.get("breaker_transitions_total")
        child = transitions.labels(from_state="closed", to_state="open")
        assert child.value == 1


def test_deadline_failures_are_logged():
    clock = ManualClock(start=5.0)
    catalog = ItemCatalog(_factors(24, 40, 5))
    config = ServingConfig(workers=0, clock=clock, trace_rate=1.0)
    with ServingRuntime(catalog, config=config) as rt:
        future = rt.submit(
            Request(quality=_quality(24, 40), k=2, mode="map", deadline=5.5)
        )
        clock.advance(1.0)  # the deadline passes while queued
        rt.flush()
        with pytest.raises(Exception, match="deadline"):
            future.result()
    expired = rt.telemetry().event_log.snapshot(kind="deadline_exceeded")
    assert len(expired) == 1
    assert expired[0]["overrun_s"] == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Sampling determinism and the parity contract
# ----------------------------------------------------------------------
def _sampled_requests(m: int) -> list[Request]:
    return [
        Request(quality=_quality(31, m), k=4, mode="sample", seed=101),
        Request(quality=_quality(32, m), k=4, mode="map"),
        Request(quality=_quality(33, m), k=3, mode="sample", seed=55, alpha=1.5),
        Request(quality=_quality(34, m), k=3, mode="topk-rerank", rerank_pool=20),
    ]


def _serve_at_rate(factors: np.ndarray, requests, trace_rate: float):
    catalog = ItemCatalog(factors)
    config = ServingConfig(
        workers=0, clock=ManualClock(), trace_rate=trace_rate
    )
    with ServingRuntime(catalog, config=config) as rt:
        futures = rt.submit_many(requests)
        rt.flush()
        return [future.result() for future in futures]


def test_trace_rate_zero_is_bitwise_identical_to_tracing():
    """Tracing never perturbs payloads: seeded samples byte-match."""
    m = 70
    factors = _factors(31, m, 6)
    requests = _sampled_requests(m)
    untraced = _serve_at_rate(factors, requests, trace_rate=0.0)
    traced = _serve_at_rate(factors, requests, trace_rate=1.0)
    for off, on in zip(untraced, traced):
        assert off.trace is None and on.trace is not None
        assert off.items == on.items
        assert off.log_probability == on.log_probability
        # traces are compare=False: the dataclasses still compare equal
        assert off == on


def test_fractional_trace_rate_samples_deterministically():
    m = 40
    catalog = ItemCatalog(_factors(41, m, 5))
    config = ServingConfig(workers=0, clock=ManualClock(), trace_rate=0.5)
    with ServingRuntime(catalog, config=config) as rt:
        futures = [
            rt.submit(Request(quality=_quality(41, m), k=2, mode="map"))
            for _ in range(6)
        ]
        rt.flush()
        responses = [future.result() for future in futures]
    # credit accumulator at rate 0.5: every second submission traces
    assert [r.trace is not None for r in responses] == [
        False, True, False, True, False, True,
    ]


def test_untraced_unprofiled_batch_times_every_engine_stage():
    """Stage timing is not a tracing feature: at ``trace_rate=0`` and
    ``profile_hz=0`` one flushed batch still lands every engine stage in
    ``serving_stage_seconds``."""
    m = 60
    config = ServingConfig(workers=0, clock=ManualClock())
    with ServingRuntime(ItemCatalog(_factors(42, m, 5)), config=config) as rt:
        futures = rt.submit_many([
            Request(quality=_quality(42, m), k=3, mode="sample", seed=1),
            Request(quality=_quality(43, m), k=3, mode="map"),
        ])
        rt.flush()
        assert all(future.result().trace is None for future in futures)
        family = rt.telemetry().registry.get("serving_stage_seconds")
        counts = {
            series["labels"]["stage"]: series["count"]
            for series in family.snapshot()["series"]
        }
    for stage in ("resolve", "dual_build", "eigh", "normalizer", "selection", "emit"):
        assert counts.get(stage, 0) >= 1, (stage, counts)


def test_trace_rate_is_validated():
    with pytest.raises(ValueError, match="trace_rate"):
        ServingConfig(trace_rate=1.5)


# ----------------------------------------------------------------------
# RuntimeTelemetry / MetricsReporter
# ----------------------------------------------------------------------
def test_telemetry_snapshot_schema_and_text():
    clock = ManualClock()
    catalog = ItemCatalog(_factors(51, 50, 5))
    config = ServingConfig(workers=0, clock=clock, trace_rate=1.0)
    with ServingRuntime(catalog, config=config) as rt:
        future = rt.submit(Request(quality=_quality(51, 50), k=3, mode="map"))
        clock.advance(2.0)
        rt.flush()
        future.result()
        rt.publish(_factors(52, 50, 5))
        snapshot = rt.telemetry().snapshot()
    assert snapshot["schema_version"] == TELEMETRY_SCHEMA_VERSION
    assert snapshot["uptime_s"] == pytest.approx(2.0)
    # one served request over 2 manual-clock seconds
    assert snapshot["requests_per_second"] == pytest.approx(0.5)
    assert snapshot["scheduler"]["served"] == 1
    assert snapshot["resilience"]["degraded"] == 0
    assert snapshot["catalog"]["version"] == 1  # bumped by the publish
    assert snapshot["event_log"]["recorded"] == 1  # the publish
    assert [event["kind"] for event in snapshot["events"]] == ["publish"]
    assert snapshot["metrics"]["scheduler_served_total"]["series"][0]["value"] == 1
    text = rt.telemetry().to_text()
    assert "serving_requests_per_second" in text
    assert "scheduler_queue_wait_seconds_bucket" in text
    assert "resilience_admitted_total 1" in text
    assert "publish_total 1" in text


def test_telemetry_standalone_defaults():
    clock = ManualClock()
    telemetry = RuntimeTelemetry(clock=clock)
    assert telemetry.requests_per_second() == 0.0  # no served counter wired
    clock.advance(1.0)
    telemetry.add_provider("extra", lambda: {"answer": 42})
    snapshot = telemetry.snapshot()
    assert snapshot["extra"] == {"answer": 42}
    assert snapshot["uptime_s"] == pytest.approx(1.0)


def test_metrics_reporter_manual_tick_mode():
    clock = ManualClock()
    telemetry = RuntimeTelemetry(clock=clock)
    emitted = []
    reporter = MetricsReporter(
        telemetry, interval=10.0, workers=0, clock=clock, emit=emitted.append
    )
    assert reporter.tick() is None  # interval not yet elapsed
    clock.advance(9.0)
    assert reporter.tick() is None
    clock.advance(1.0)
    snapshot = reporter.tick()
    assert snapshot is not None and emitted == [snapshot]
    assert reporter.tick() is None  # the interval restarts after an emit
    assert list(reporter.reports) == [snapshot]
    reporter.close()
    with pytest.raises(ValueError, match="interval"):
        MetricsReporter(telemetry, interval=0.0, workers=0)
    with pytest.raises(ValueError, match="workers"):
        MetricsReporter(telemetry, workers=2)


def test_metrics_reporter_threaded_emits_and_closes():
    telemetry = RuntimeTelemetry()
    seen = threading.Event()
    with MetricsReporter(
        telemetry, interval=0.01, emit=lambda _snapshot: seen.set()
    ):
        assert seen.wait(timeout=5.0)
    # closed: the worker joined, emit_now still works inline
    assert telemetry.snapshot()["schema_version"] == TELEMETRY_SCHEMA_VERSION


# ----------------------------------------------------------------------
# Concurrency: snapshots stay consistent mid-flight
# ----------------------------------------------------------------------
def test_concurrent_submits_keep_snapshots_consistent():
    catalog = ItemCatalog(_factors(61, 60, 5))
    config = ServingConfig(workers=2, max_batch=8, trace_rate=1.0)
    total = 48
    with ServingRuntime(catalog, config=config) as rt:
        quality = _quality(61, 60)
        futures = []
        lock = threading.Lock()

        def submit_some(count):
            for _ in range(count):
                future = rt.submit(Request(quality=quality, k=2, mode="map"))
                with lock:
                    futures.append(future)

        threads = [
            threading.Thread(target=submit_some, args=(total // 4,))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        # snapshots taken while workers race must stay internally sane
        for _ in range(10):
            snapshot = rt.telemetry().snapshot()
            sched = snapshot["scheduler"]
            assert (
                sched["served"] + sched["failed"] + sched["cancelled"]
                <= sched["submitted"]
            )
        for thread in threads:
            thread.join()
        responses = [future.result() for future in futures]
    assert len(responses) == total
    assert all(response.trace is not None for response in responses)
    final = rt.telemetry().snapshot()
    assert final["scheduler"]["served"] == total
    assert final["scheduler"]["submitted"] == total
    stage_hist = rt.telemetry().registry.get("serving_stage_seconds")
    assert stage_hist.labels(stage="selection").count >= 1


# ----------------------------------------------------------------------
# Incremental event consumption / percentile edge cases (PR 9)
# ----------------------------------------------------------------------
def test_event_log_incremental_consumption_with_since_seq():
    log = EventLog(capacity=4)
    assert log.last_seq == 0 and log.snapshot(since_seq=0) == []
    for index in range(3):
        log.record("shed", index=index)
    assert log.last_seq == 3
    first = log.snapshot(since_seq=0)
    assert [event["seq"] for event in first] == [1, 2, 3]
    cursor = first[-1]["seq"]
    # nothing new yet: the cursor-filtered tail is empty
    assert log.snapshot(since_seq=cursor) == []
    # ring overwrite: 5 more events on capacity 4 drop seq 1-4 entirely
    for index in range(5):
        log.record("degraded", index=index)
    tail = log.snapshot(since_seq=cursor)
    assert [event["seq"] for event in tail] == [5, 6, 7, 8]
    # what rolled off unseen (seq 4) is visible only as dropped count
    assert log.stats()["dropped"] == 4
    # since_seq composes with kind and limit filters
    assert [e["seq"] for e in log.snapshot(kind="degraded", since_seq=6)] == [7, 8]
    assert [e["seq"] for e in log.snapshot(since_seq=cursor, limit=2)] == [7, 8]


def test_metrics_reporter_emits_only_new_events():
    clock = ManualClock()
    telemetry = RuntimeTelemetry(clock=clock)
    reporter = MetricsReporter(telemetry, interval=1.0, workers=0, clock=clock)
    telemetry.event_log.record("publish", version=1)
    telemetry.event_log.record("shed")
    first = reporter.emit_now()
    assert [event["kind"] for event in first["new_events"]] == ["publish", "shed"]
    # no new events between emissions: the tail is empty, not repeated
    second = reporter.emit_now()
    assert second["new_events"] == []
    telemetry.event_log.record("drift", metric="ilad")
    third = reporter.emit_now()
    assert [event["kind"] for event in third["new_events"]] == ["drift"]
    reporter.close()


def test_histogram_percentile_accuracy_against_exact():
    """Dense log buckets: every estimate within one bucket's width of
    the exact order-statistic percentile, across the distribution."""
    rng = np.random.default_rng(17)
    samples = np.exp(rng.normal(loc=-4.0, scale=0.8, size=2000)).tolist()
    bounds = log_buckets(1e-4, 10.0, per_decade=16)
    hist = Histogram("latency_seconds", buckets=bounds)
    for sample in samples:
        hist.observe(sample)
    labels = ("p50", "p90", "p99")
    exact = latency_percentiles(samples, (50.0, 90.0, 99.0))
    ratio = 10.0 ** (1.0 / 16)  # adjacent log-bucket spacing
    for label, percentile in zip(labels, (50.0, 90.0, 99.0)):
        estimate = hist.percentile(percentile)
        # interpolation inside the winning bucket: the estimate sits
        # within one bucket's width of the exact order statistic
        assert abs(estimate - exact[label]) <= exact[label] * (ratio - 1.0)


def test_histogram_percentile_empty_and_single_bucket():
    # empty histogram: percentile is 0.0 by convention, where the exact
    # helper refuses (no samples to rank)
    hist = Histogram("empty_seconds", buckets=[0.1, 1.0])
    assert hist.count == 0
    assert hist.percentile(50.0) == 0.0
    assert hist.percentile(99.0) == 0.0
    with pytest.raises(ValueError, match="at least one"):
        latency_percentiles([])
    # single finite bucket: estimates interpolate inside [0, bound];
    # overflow observations clamp to the largest finite bound (there is
    # no upper edge to interpolate toward)
    single = Histogram("single_seconds", buckets=[1.0])
    single.observe(0.2)
    assert single.percentile(50.0) == pytest.approx(0.5)  # halfway through [0, 1]
    assert single.percentile(100.0) == pytest.approx(1.0)
    single.observe(25.0)  # lands in the +Inf overflow bucket
    assert single.percentile(99.0) == pytest.approx(1.0)
    assert single.count == 2
