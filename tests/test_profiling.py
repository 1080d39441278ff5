"""Performance-introspection suite: profiler, footprint, headroom.

Contracts pinned here:

1. **Parity** — ``profile_hz=0`` (the default) builds no registry, no
   sampler and no per-batch recorder: responses are bit-identical to a
   profiled run's, seeded samples included (the sampler is passive and
   consumes no RNG).
2. **Attribution** — samples land under the innermost active stage
   (``selection`` inside ``engine`` attributes to ``selection``), the
   coarse ``engine`` marker counts as unattributed, and coverage is
   their ratio.
3. **Footprint** — per-structure byte accounting only ever reads built
   lazies (walking the report never triggers a Gram build), retains one
   entry per live catalog generation, and folds in the funnel cache's
   per-version pool bytes.
4. **Headroom** — the affine batch-cost fit recovers synthetic
   ``T(B) = fixed + per_request·B`` exactly, degenerate histories fall
   back to the observed mean rate, and a cold model reports zero
   saturation, never a guess.

Plus the PR's logging/reporting satellites: the :func:`attach_logging`
bridge (incremental, level-mapped, ``serving_``-prefixed extras) and
the :class:`MetricsReporter` poison-sink regression (a raising emit
callback is counted, not fatal).

Deterministic throughout: manual clocks, ``workers=0`` inline dispatch,
``sample_once`` driven by hand with fake frame providers.
"""

import logging
import sys
import threading

import numpy as np
import pytest

from repro.retrieval import FunnelCache
from repro.serving import (
    CapacityModel,
    ItemCatalog,
    MetricsReporter,
    Request,
    SamplingProfiler,
    ServingConfig,
    ServingRuntime,
    StackProfile,
    StageRegistry,
    attach_logging,
)
from repro.serving.catalog import GRAM_PRODUCTS_MIN_BATCH
from repro.serving.profiling import collect_footprint, nbytes_of
from repro.utils.profiling import (
    OVERFLOW_STACK,
    current_rss_bytes,
    frame_stack,
    peak_rss_bytes,
)
from repro.utils.timing import ManualClock


def _factors(seed: int, m: int, r: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    diversity = rng.normal(size=(m, r))
    diversity /= np.linalg.norm(diversity, axis=1, keepdims=True)
    return diversity


def _quality(seed: int, m: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.exp(rng.normal(scale=0.3, size=m))


def _serve(rt: ServingRuntime, requests) -> list:
    futures = rt.submit_many(requests)
    rt.flush()
    return [future.result() for future in futures]


# ----------------------------------------------------------------------
# StageRegistry
# ----------------------------------------------------------------------
def test_stage_registry_nesting_and_scopes():
    registry = StageRegistry()
    assert registry.current() is None
    assert registry.active() == {}
    with registry.scope("engine"):
        assert registry.current() == "engine"
        with registry.scope("selection"):
            # innermost wins; the full stack is visible to the sampler
            assert registry.current() == "selection"
            ident = threading.get_ident()
            assert registry.active() == {ident: ("engine", "selection")}
        assert registry.current() == "engine"
    # fully popped → the thread's entry is reclaimed, not left empty
    assert registry.active() == {}
    # pop on an empty stack is a no-op, not an error
    registry.pop()


def test_stage_registry_is_per_thread():
    registry = StageRegistry()
    registry.push("engine")
    seen = {}

    def other():
        seen["current"] = registry.current()
        registry.push("funnel")
        seen["active"] = registry.active()
        registry.pop()

    thread = threading.Thread(target=other)
    thread.start()
    thread.join()
    registry.pop()
    assert seen["current"] is None  # other thread saw no inherited stage
    assert len(seen["active"]) == 2  # both threads visible to the sampler


# ----------------------------------------------------------------------
# StackProfile / frame_stack
# ----------------------------------------------------------------------
def test_frame_stack_is_root_first_and_keeps_the_leaf():
    frames = frame_stack(sys._getframe())
    assert frames[-1].endswith(".test_frame_stack_is_root_first_and_keeps_the_leaf")
    # truncation drops ancestry, never the leaf
    shallow = frame_stack(sys._getframe(), max_depth=1)
    assert shallow == frames[-1:]


def test_stack_profile_folds_counts_and_collapses():
    profile = StackProfile()
    profile.record(("a.f", "b.g"), stage="selection")
    profile.record(("a.f", "b.g"), stage="selection")
    profile.record(("a.f", "c.h"), stage="eigh")
    assert profile.samples == 3
    assert profile.stage_samples() == {"selection": 2, "eigh": 1}
    # self time accrues to the leaf frame
    assert profile.self_samples() == {"b.g": 2, "c.h": 1}
    assert profile.self_samples(stage="eigh") == {"c.h": 1}
    lines = profile.collapsed().splitlines()
    assert "selection;a.f;b.g 2" in lines
    assert "eigh;a.f;c.h 1" in lines


def test_stack_profile_bounds_unique_stacks():
    profile = StackProfile(max_stacks=2)
    profile.record(("a.f",), stage="s1")
    profile.record(("b.g",), stage="s1")
    profile.record(("c.h",), stage="s1")  # third unique stack → overflow
    profile.record(("c.h",), stage="s1")
    stats = profile.stats()
    assert stats["samples"] == 4
    assert stats["overflowed"] == 2
    assert stats["unique_stacks"] <= 3  # 2 real + the overflow bucket
    assert ";".join(OVERFLOW_STACK) + " 2" in profile.collapsed()


# ----------------------------------------------------------------------
# SamplingProfiler: deterministic single ticks
# ----------------------------------------------------------------------
def test_sample_once_attributes_to_innermost_stage():
    registry = StageRegistry()
    ident = threading.get_ident() + 1  # anything but the sampler itself
    registry._stacks[ident] = ["engine", "selection"]
    frame = sys._getframe()
    profiler = SamplingProfiler(
        hz=100.0, registry=registry, frames_provider=lambda: {ident: frame}
    )
    assert profiler.sample_once() == 1
    assert profiler.attribution_coverage() == 1.0  # finer than "engine"
    stages = profiler.profile.stage_samples()
    assert set(stages) == {"selection"}
    # stage self seconds scale by the sampling period
    assert profiler.stage_self_seconds() == {"selection": pytest.approx(0.01)}


def test_sample_once_counts_bare_engine_as_unattributed():
    registry = StageRegistry()
    ident = threading.get_ident() + 1
    registry._stacks[ident] = ["engine"]
    frame = sys._getframe()
    profiler = SamplingProfiler(
        hz=50.0, registry=registry, frames_provider=lambda: {ident: frame}
    )
    profiler.sample_once()
    assert profiler.attribution_coverage() == 0.0
    stats = profiler.stats()
    assert stats["stage_samples"] == 1 and stats["attributed_samples"] == 0


def test_sample_once_skips_idle_threads_and_itself():
    registry = StageRegistry()
    profiler = SamplingProfiler(
        hz=10.0,
        registry=registry,
        frames_provider=lambda: (_ for _ in ()).throw(AssertionError),
    )
    # idle tick: no stage anywhere → frames provider never consulted
    assert profiler.sample_once() == 0
    assert profiler.stats()["ticks"] == 1
    # own thread in-stage is skipped (the sampler never profiles itself)
    registry.push("engine")
    try:
        profiler2 = SamplingProfiler(
            hz=10.0, registry=registry, frames_provider=lambda: {}
        )
        assert profiler2.sample_once() == 0
    finally:
        registry.pop()


def test_profiler_thread_lifecycle():
    registry = StageRegistry()
    with SamplingProfiler(hz=200.0, registry=registry) as profiler:
        assert profiler._thread is not None
    assert profiler._thread is None  # stop() joined it
    profiler.stop()  # idempotent


# ----------------------------------------------------------------------
# Parity: profile_hz=0 is bit-identical to a profiled run
# ----------------------------------------------------------------------
def test_profile_hz_zero_is_bit_identical_to_profiled_run():
    m, r, k = 300, 8, 4
    factors = _factors(0, m, r)
    requests = [
        Request(quality=_quality(seed, m), k=k, mode=mode, seed=seed)
        for seed, mode in zip(range(8), ["sample", "map"] * 4)
    ]

    def run(profile_hz: float):
        config = ServingConfig(
            workers=0, clock=ManualClock(), profile_hz=profile_hz
        )
        with ServingRuntime(ItemCatalog(factors), config=config) as rt:
            return _serve(rt, list(requests))

    plain = run(0.0)
    profiled = run(250.0)
    for a, b in zip(plain, profiled):
        assert a.items == b.items
        assert a.log_probability == b.log_probability
        assert a.mode == b.mode and a.served_mode == b.served_mode


def test_profile_hz_validation_and_runtime_wiring():
    with pytest.raises(ValueError):
        ServingConfig(profile_hz=-1.0)
    factors = _factors(1, 200, 8)
    with ServingRuntime(
        ItemCatalog(factors),
        config=ServingConfig(workers=0, clock=ManualClock()),
    ) as rt:
        assert rt.profiler is None
        snapshot = rt.telemetry().snapshot()
        assert "profile" not in snapshot
        assert "footprint" in snapshot and "headroom" in snapshot
    with ServingRuntime(
        ItemCatalog(factors),
        config=ServingConfig(workers=0, clock=ManualClock(), profile_hz=100.0),
    ) as rt:
        assert rt.profiler is not None
        _serve(rt, [Request(quality=_quality(2, 200), k=3, seed=0)])
        snapshot = rt.telemetry().snapshot()
        assert snapshot["profile"]["hz"] == 100.0
    # close() stopped the sampler thread
    assert rt.profiler._thread is None


def test_profiled_runtime_attributes_engine_stages():
    """Drive the sampler by hand mid-batch: workers=0 keeps the engine
    on this thread, so a tick from another thread must see the stage
    this thread is inside."""
    m = 300
    factors = _factors(3, m, 8)
    config = ServingConfig(workers=0, clock=ManualClock(), profile_hz=50.0)
    with ServingRuntime(ItemCatalog(factors), config=config) as rt:
        ticks: list[int] = []
        profiler = rt.profiler
        profiler.stop()  # deterministic: only the hand-driven loop samples
        stop = threading.Event()

        def sampler_loop():
            while not stop.is_set():
                ticks.append(profiler.sample_once())

        thread = threading.Thread(target=sampler_loop)
        thread.start()
        try:
            for seed in range(40):
                _serve(rt, [Request(quality=_quality(seed, m), k=4, seed=seed)])
        finally:
            stop.set()
            thread.join()
        stages = set(profiler.profile.stage_samples())
    # every sample landed under a named stage (the engine marker at
    # worst); with real engine stages nested inside, fine stages appear
    assert sum(ticks) == profiler.stats()["stage_samples"]
    assert stages <= {
        "engine", "resolve", "dual_build", "eigh", "normalizer",
        "selection", "emit", "quality_topk",
    }


# ----------------------------------------------------------------------
# Footprint accounting
# ----------------------------------------------------------------------
def test_nbytes_of_counts_arrays_once_and_caps_depth():
    base = np.zeros((10, 10))
    view = base[:5]
    assert nbytes_of(base) == base.nbytes
    # a view and its base share one buffer → counted once
    assert nbytes_of([base, view]) == base.nbytes
    # container keys are getsizeof-counted, the shared buffer only once
    nested = nbytes_of({"a": base, "b": {"c": view}})
    assert base.nbytes <= nested < base.nbytes + 500
    cyclic: dict = {}
    cyclic["self"] = cyclic
    nbytes_of(cyclic)  # terminates


def test_footprint_reports_built_structures_per_generation():
    m, r = 400, 8
    factors = _factors(4, m, r)
    catalog = ItemCatalog(factors)
    report = collect_footprint(catalog)
    (structures,) = report.versions.values()
    assert structures["factors"] == factors.nbytes
    # nothing served yet: the walk must not have built the lazies
    assert "dual_spectrum" not in structures
    assert "gram" not in structures

    config = ServingConfig(workers=0, clock=ManualClock())
    with ServingRuntime(catalog, config=config) as rt:
        _serve(rt, [Request(quality=_quality(5, m), k=4, seed=0)])
        version = rt.catalog.snapshot().version
        # a lone request builds its dual directly: no table
        assert "gram_products" not in rt.footprint().versions[version]
        group = [
            Request(quality=_quality(10 + i, m), k=4, seed=i)
            for i in range(GRAM_PRODUCTS_MIN_BATCH)
        ]
        _serve(rt, group)
        built = rt.footprint().versions[version]
        # a group at the table threshold materializes the outer-product
        # table, and the footprint reports it at its exact size
        assert built["gram_products"] == m * (r * (r + 1) // 2) * 8

        # publish retains the displaced generation as its own entry
        rt.publish(_factors(6, m, r))
        after = rt.footprint()
        assert len(after.versions) == 2
        assert after.total_tracked_bytes >= 2 * factors.nbytes
        blob = after.to_dict()
        assert set(blob["versions"]) == {
            str(version) for version in after.versions
        }
    if current_rss_bytes() is not None:
        assert report.rss_bytes > 0
    if peak_rss_bytes() is not None:
        assert report.peak_rss_bytes >= report.rss_bytes or True


def test_footprint_folds_in_funnel_cache_pools():
    cache = FunnelCache(capacity=8)
    pool = np.arange(50, dtype=np.int64)
    quality = np.ones(100)
    cache.put(user=1, version=3, width=50, pool=pool, quality=quality)
    cache.put(user=2, version=4, width=50, pool=pool, quality=quality)
    footprint = cache.footprint()
    assert footprint["entries"] == 2
    assert footprint["bytes"] == 2 * pool.nbytes
    assert footprint["by_version"] == {
        "3": pool.nbytes, "4": pool.nbytes
    }

    class _Server:
        funnel_cache = cache

    report = collect_footprint(ItemCatalog(_factors(7, 100, 4)), _Server())
    assert report.caches["funnel_cache"]["bytes"] == 2 * pool.nbytes
    assert report.total_tracked_bytes >= 2 * pool.nbytes


# ----------------------------------------------------------------------
# CapacityModel
# ----------------------------------------------------------------------
def test_capacity_model_recovers_affine_batch_cost():
    model = CapacityModel(workers=2, max_batch=32)
    fixed, per_request = 0.01, 0.002
    for size in range(1, 33):
        model.observe(size, fixed + per_request * size, modes={"sample": size})
    got_fixed, got_rate = model.fit()
    assert got_fixed == pytest.approx(fixed)
    assert got_rate == pytest.approx(per_request)
    # saturation at B: workers * B / T(B)
    expected = 2 * 32 / (fixed + per_request * 32)
    assert model.saturation_req_per_s(32) == pytest.approx(expected)


def test_capacity_model_degenerate_histories_fall_back_to_mean_rate():
    cold = CapacityModel()
    assert cold.fit() == (0.0, 0.0)
    assert cold.saturation_req_per_s() == 0.0  # never a guess

    single = CapacityModel(workers=1)
    for _ in range(5):
        single.observe(8, 0.04)  # one batch size only → no slope
    fixed, rate = single.fit()
    assert fixed == 0.0
    assert rate == pytest.approx(0.005)
    assert single.saturation_req_per_s() == pytest.approx(8 / 0.04)


def test_capacity_model_headroom_report_shape():
    model = CapacityModel(workers=1, max_batch=16)
    for size in (8, 16, 16):
        model.observe(size, 0.001 * size, modes={"sample": size - 1, "map": 1})
    report = model.headroom(uptime_s=10.0, observed_req_per_s=100.0)
    assert report.busy_seconds == pytest.approx(0.04)
    assert report.utilization == pytest.approx(0.004)
    assert report.saturation_req_per_s == pytest.approx(1000.0)
    assert report.headroom_fraction == pytest.approx(0.9)
    assert report.batch_size_counts == {8: 1, 16: 2}
    # every request cost 0.001 s at its batch's amortization
    assert report.per_mode["sample"]["cost_s"] == pytest.approx(0.001)
    assert report.per_mode["sample"]["saturation_req_per_s"] == pytest.approx(1000.0)
    assert report.per_mode["map"]["requests"] == 3
    assert report.per_mode["sample"]["share"] == pytest.approx(37 / 40)
    blob = report.to_dict()
    assert blob["batch_cost_fit"]["per_request_s"] == pytest.approx(0.001)
    assert blob["batch_size_counts"] == {"8": 1, "16": 2}


def test_runtime_headroom_smoke_under_manual_clock():
    """workers=0 + manual clock → zero elapsed per batch: the model
    must report zero saturation (cold), never a fabricated number."""
    m = 200
    config = ServingConfig(workers=0, clock=ManualClock())
    with ServingRuntime(ItemCatalog(_factors(8, m, 8)), config=config) as rt:
        _serve(rt, [Request(quality=_quality(9, m), k=3, seed=0)])
        report = rt.headroom()
        assert report.workers == 1
        assert report.saturation_req_per_s == 0.0
        assert report.headroom_fraction == 0.0
        assert report.batch_size_counts == {1: 1}
        assert rt.telemetry().snapshot()["headroom"]["workers"] == 1


# ----------------------------------------------------------------------
# attach_logging bridge
# ----------------------------------------------------------------------
def test_attach_logging_replays_events_incrementally(caplog):
    m = 200
    config = ServingConfig(workers=0, clock=ManualClock())
    with ServingRuntime(ItemCatalog(_factors(10, m, 8)), config=config) as rt:
        bridge = attach_logging(rt, logger="test.serving.bridge")
        with caplog.at_level(logging.INFO, logger="test.serving.bridge"):
            rt.publish(_factors(11, m, 8))
            emitted = bridge.pump()
            assert emitted >= 1
            assert bridge.pump() == 0  # cursor: nothing new → no records
    publishes = [
        record for record in caplog.records
        if record.serving_event == "publish"
    ]
    assert publishes, [r.message for r in caplog.records]
    record = publishes[0]
    assert record.levelno == logging.INFO
    assert record.name == "test.serving.bridge"
    assert "publish" in record.getMessage()
    assert record.serving_seq >= 1
    assert hasattr(record, "serving_version")


def test_attach_logging_level_map_overrides(caplog):
    m = 200
    config = ServingConfig(workers=0, clock=ManualClock())
    with ServingRuntime(ItemCatalog(_factors(12, m, 8)), config=config) as rt:
        bridge = attach_logging(
            rt,
            logger="test.serving.levels",
            level_map={"publish": logging.ERROR},
        )
        with caplog.at_level(logging.ERROR, logger="test.serving.levels"):
            rt.publish(_factors(13, m, 8))
            bridge.pump()
    assert any(
        record.levelno == logging.ERROR
        and record.serving_event == "publish"
        for record in caplog.records
    )


# ----------------------------------------------------------------------
# MetricsReporter poison-sink regression
# ----------------------------------------------------------------------
def test_reporter_survives_poison_sink_and_counts_it():
    m = 200
    clock = ManualClock()
    config = ServingConfig(workers=0, clock=clock)
    with ServingRuntime(ItemCatalog(_factors(14, m, 8)), config=config) as rt:
        telemetry = rt.telemetry()
        calls = {"n": 0}

        def sink(_snapshot):
            calls["n"] += 1
            raise RuntimeError("exporter down")

        reporter = MetricsReporter(
            telemetry, interval=1.0, workers=0, clock=clock, emit=sink
        )
        first = reporter.emit_now()  # must not raise
        clock.advance(1.5)
        assert reporter.tick() is not None
        assert calls["n"] == 2
        # both reports were retained despite the sink failing
        assert len(reporter.reports) == 2
        assert first["schema_version"] == first["meta"]["schema_version"]
        errors = telemetry.registry.get("reporter_errors_total")
        assert errors.value == 2
        reporter.close()
