"""Chaos suite: overload-safe serving under deterministic fault injection.

Contracts pinned here:

1. **No-pressure parity** — with no faults, no deadlines and queue depth
   below the cap, the resilience layer is invisible: runtime-served
   responses are bit-identical to direct engine serving (seeded samples
   included), monolithic and sharded.
2. **Admission control** — the queue cap rejects with a structured
   ``OverloadError`` or degrades down the ladder, every degraded
   response stamped (``degraded`` / ``served_mode``).
3. **Deadline budgets** — expired requests fail with
   ``DeadlineExceeded``; requests whose remaining budget is below their
   mode's learned cost degrade instead of serving late.
4. **Circuit breaker** — injected source failures trip to the exact
   fallback (recall unaffected: pools equal the oracle's), recovery is
   half-open, deadline blowouts count as failures.
5. **Lifecycle** — ``close(drain=)`` never strands a future, even
   racing concurrent submits; ``try_cancel`` removes queued entries;
   solo retries are counted and capped by deadlines; transient publish
   failures retry with backoff.

Everything runs against :class:`~repro.utils.timing.ManualClock` and
seeded faults — no sleeps, no flaky timing.
"""

import threading

import numpy as np
import pytest

from repro.retrieval import ExactTopK, QuantileFunnel
from repro.serving import (
    DEGRADATION_LADDER,
    BreakerSource,
    DeadlineExceeded,
    FaultPlan,
    ItemCatalog,
    KDPPServer,
    MicroBatcher,
    OverloadError,
    Request,
    ServingConfig,
    ServingError,
    ServingRuntime,
    ShardedCatalog,
    ShardedKDPPServer,
    ShutdownError,
    SourceUnavailable,
    TransientError,
)
from oracles import mode_cost_ewma_reference

from repro.serving.profiling import CapacityModel
from repro.serving.resilience import QUALITY_TOPK, degrade_mode
from repro.utils.timing import ManualClock
from repro.utils.topk import top_k_indices


def _factors(seed: int, m: int, r: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    diversity = rng.normal(size=(m, r))
    diversity /= np.linalg.norm(diversity, axis=1, keepdims=True)
    return diversity


def _quality(seed: int, m: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.exp(rng.normal(scale=0.5, size=m))


def _same_response(left, right) -> None:
    assert left.items == right.items
    assert left.log_probability == right.log_probability
    assert left.mode == right.mode and left.k == right.k
    assert left.version == right.version
    assert left.degraded == right.degraded
    assert left.served_mode == right.served_mode


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------
def test_error_taxonomy_roots_in_runtime_error():
    for cls in (OverloadError, DeadlineExceeded, SourceUnavailable, ShutdownError,
                TransientError):
        error = cls("boom", index=3)
        assert isinstance(error, ServingError)
        assert isinstance(error, RuntimeError)
        assert error.index == 3 and error.request is None


def test_degrade_mode_walks_the_ladder():
    quality = np.ones(8)
    sample = Request(quality=quality, k=2, mode="sample")
    assert degrade_mode(sample, 0) == "sample"
    assert degrade_mode(sample, 1) == "map"
    assert degrade_mode(sample, 2) == "topk-rerank"
    assert degrade_mode(sample, 3) == QUALITY_TOPK
    assert degrade_mode(sample, 99) == QUALITY_TOPK
    # Explicitly-sliced requests skip the rerank rung (the engine
    # rejects explicit-slice rerank) and land on quality top-k.
    sliced = Request(quality=quality, k=2, mode="map", candidates=np.arange(4))
    assert degrade_mode(sliced, 1) == QUALITY_TOPK
    # One rung from an already-walked mode: the deadline check's step.
    assert degrade_mode(sample, 1, "map") == "topk-rerank"
    assert degrade_mode(sample, 1, "topk-rerank") == QUALITY_TOPK
    assert degrade_mode(sliced, 1, "sample") == "map"
    assert degrade_mode(sliced, 1, "map") == QUALITY_TOPK
    assert DEGRADATION_LADDER == ("sample", "map", "topk-rerank", QUALITY_TOPK)


def test_cost_model_ewma_and_cold_estimates():
    model = CapacityModel(decay=0.5)
    assert model.estimate("sample") == 0.0  # cold model never degrades
    model.observe(1, 1.0, {"sample": 1})
    model.observe(1, 0.0, {"sample": 1})
    assert model.estimate("sample") == pytest.approx(0.5)
    assert model.mode_costs() == {"sample": pytest.approx(0.5)}
    with pytest.raises(ValueError, match="decay"):
        CapacityModel(decay=0.0)


def test_cost_model_estimates_equal_the_per_request_ewma():
    """The capacity model's per-mode estimates are the EWMA applied once
    per request at the batch's per-request share — bit for bit, so no
    deadline decision moves."""
    rng = np.random.default_rng(29)
    modes = ("sample", "map", "topk-rerank")
    batches = []
    for _ in range(200):
        mix = [modes[i] for i in rng.integers(0, 3, size=int(rng.integers(1, 33)))]
        batches.append((mix, float(rng.exponential(0.02))))
    shed = [([QUALITY_TOPK] * int(rng.integers(1, 5)), float(rng.exponential(1e-4)))
            for _ in range(20)]
    model = CapacityModel()
    for mix, elapsed in batches:
        model.observe(len(mix), elapsed, {mode: mix.count(mode) for mode in set(mix)})
    for mix, elapsed in shed:
        model.observe(len(mix), elapsed, {QUALITY_TOPK: len(mix)}, fit=False)
    reference = mode_cost_ewma_reference(batches + shed)
    assert model.mode_costs() == reference
    for mode in (*modes, QUALITY_TOPK):
        assert model.estimate(mode) == reference[mode]
    # shed batches feed the estimates only, never the batch-cost fit
    assert model.stats()["batches"] == len(batches)


# ----------------------------------------------------------------------
# No-pressure parity (the bit-identical contract)
# ----------------------------------------------------------------------
def _parity_requests(m: int) -> list[Request]:
    return [
        Request(quality=_quality(11, m), k=4, mode="sample", seed=101),
        Request(quality=_quality(12, m), k=4, mode="map"),
        Request(quality=_quality(13, m), k=3, mode="topk-rerank", rerank_pool=25),
        Request(
            quality=_quality(14, m),
            k=3,
            mode="sample",
            seed=202,
            alpha=2.0,
            history=np.array([1, 5]),
            # A far deadline must not perturb anything: the cost model
            # is cold, so the budget check cannot fire.
            deadline=1e9,
        ),
        Request(
            quality=_quality(15, m),
            k=3,
            mode="map",
            pins=np.array([7]),
            exclude=np.array([2]),
        ),
    ]


def test_runtime_parity_monolithic():
    factors = _factors(1, 80, 6)
    catalog = ItemCatalog(factors)
    requests = _parity_requests(80)
    direct = KDPPServer(ItemCatalog(factors)).serve(requests)
    clock = ManualClock()
    with ServingRuntime(catalog, config=ServingConfig(workers=0, clock=clock)) as rt:
        futures = rt.submit_many(requests)
        rt.flush()
        served = [f.result() for f in futures]
    for mine, reference in zip(served, direct):
        _same_response(mine, reference)
        assert not mine.degraded and mine.served_mode is None
    stats = rt.stats
    assert stats["resilience"]["degraded"] == 0
    assert stats["resilience"]["deadline_exceeded"] == 0


def test_runtime_parity_sharded():
    factors = _factors(2, 300, 6)
    config = ServingConfig(workers=0, clock=ManualClock(), funnel_width=24)
    requests = _parity_requests(300)
    direct = ShardedKDPPServer(
        ShardedCatalog(factors, num_shards=4), config=config
    ).serve(requests)
    catalog = ShardedCatalog(factors, num_shards=4)
    with ServingRuntime(catalog, config=config) as rt:
        futures = rt.submit_many(requests)
        rt.flush()
        served = [f.result() for f in futures]
    for mine, reference in zip(served, direct):
        _same_response(mine, reference)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_queue_cap_reject_policy():
    catalog = ItemCatalog(_factors(3, 40, 5))
    config = ServingConfig(
        workers=0, clock=ManualClock(), queue_cap=2, overload_policy="reject"
    )
    with ServingRuntime(catalog, config=config) as rt:
        quality = _quality(3, 40)
        rt.submit(Request(quality=quality, k=2, mode="map"))
        rt.submit(Request(quality=quality, k=2, mode="map"))
        with pytest.raises(OverloadError, match="cap"):
            rt.submit(Request(quality=quality, k=2, mode="map"))
        rt.flush()
    assert rt.stats["rejected"] == 1
    assert rt.stats["served"] == 2


def test_queue_cap_degrade_policy_walks_ladder_and_stamps():
    m = 60
    factors = _factors(4, m, 5)
    catalog = ItemCatalog(factors)
    quality = _quality(4, m)
    config = ServingConfig(
        workers=0, clock=ManualClock(), queue_cap=1, max_batch=16
    )
    with ServingRuntime(catalog, config=config) as rt:
        # Depths at submit: 0, 1, 2, 3 → pressure rungs 0, 1, 2, 3.
        futures = [
            rt.submit(Request(quality=quality, k=3, mode="sample", seed=9))
            for _ in range(4)
        ]
        rt.flush()
        responses = [f.result() for f in futures]
    assert [r.degraded for r in responses] == [False, True, True, True]
    assert responses[0].served_mode is None
    assert [r.served_mode for r in responses[1:]] == [
        "map", "topk-rerank", QUALITY_TOPK,
    ]
    # The caller's mode is always echoed; the stamps carry the truth.
    assert all(r.mode == "sample" for r in responses)
    # The terminal rung is plain quality top-k: no kernel, no probability.
    shed = responses[3]
    assert shed.log_probability is None
    assert shed.items == top_k_indices(quality, 3).tolist()
    stats = rt.stats
    assert stats["degraded_admissions"] == 3
    assert stats["resilience"]["queue_degraded"] == 3
    assert stats["resilience"]["quality_topk_served"] == 1


def test_quality_topk_respects_exclusions_and_slices():
    m = 30
    catalog = ItemCatalog(_factors(5, m, 4))
    quality = np.linspace(1.0, 2.0, m)  # item m-1 is the best
    config = ServingConfig(workers=0, clock=ManualClock(), queue_cap=1)
    with ServingRuntime(catalog, config=config) as rt:
        filler = rt.submit(Request(quality=quality, k=2, mode="map"))
        for _ in range(3):  # push pressure to the terminal rung
            filler2 = rt.submit(Request(quality=quality, k=2, mode="map"))
        excluded = rt.submit(
            Request(quality=quality, k=2, mode="map", exclude=np.array([m - 1]))
        )
        sliced = rt.submit(
            Request(quality=quality, k=2, mode="map", candidates=np.array([3, 9, 4]))
        )
        rt.flush()
        for future in (filler, filler2):
            future.result()
        top = excluded.result()
        assert top.served_mode == QUALITY_TOPK
        assert top.items == [m - 2, m - 3]  # best two after the exclusion
        narrow = sliced.result()
        assert narrow.served_mode == QUALITY_TOPK
        assert narrow.items == [9, 4]  # best of the explicit slice


# ----------------------------------------------------------------------
# Deadline budgets
# ----------------------------------------------------------------------
def test_expired_deadline_fails_structurally():
    catalog = ItemCatalog(_factors(6, 40, 5))
    clock = ManualClock(start=5.0)
    config = ServingConfig(workers=0, clock=clock)
    with ServingRuntime(catalog, config=config) as rt:
        future = rt.submit(
            Request(quality=_quality(6, 40), k=2, mode="map", deadline=4.0)
        )
        rt.flush()
        with pytest.raises(DeadlineExceeded):
            future.result()
    assert rt.stats["resilience"]["deadline_exceeded"] == 1
    assert rt.stats["failed"] == 1


def test_deadline_budget_degrades_against_learned_costs():
    catalog = ItemCatalog(_factors(7, 50, 5))
    clock = ManualClock()
    plan = FaultPlan(clock=clock)
    plan.slow_serve(0.5, times=1)  # teach the cost model: sample ≈ 0.5s
    config = ServingConfig(workers=0, clock=clock, fault_plan=plan)
    quality = _quality(7, 50)
    with ServingRuntime(catalog, config=config) as rt:
        teach = rt.submit(Request(quality=quality, k=3, mode="sample", seed=1))
        rt.flush()
        teach.result()
        assert rt.stats["resilience"]["mode_costs"]["sample"] == pytest.approx(0.5)
        now = clock()
        tight = rt.submit(
            Request(quality=quality, k=3, mode="sample", seed=2, deadline=now + 0.1)
        )
        roomy = rt.submit(
            Request(quality=quality, k=3, mode="sample", seed=3, deadline=now + 9.0)
        )
        rt.flush()
        degraded = tight.result()
        assert degraded.degraded and degraded.served_mode == "map"
        assert degraded.mode == "sample"
        clean = roomy.result()
        assert not clean.degraded and clean.served_mode is None
    assert rt.stats["resilience"]["deadline_degraded"] == 1


def test_deadline_is_validated_and_propagated_through_the_funnel():
    with pytest.raises(ValueError, match="deadline"):
        Request(quality=np.ones(8), k=2, deadline=float("nan")).validate(8)
    catalog = ShardedCatalog(_factors(8, 120, 5), num_shards=3)
    server = ShardedKDPPServer(catalog, config=ServingConfig(funnel_width=8))
    lowered = server._lower(
        [Request(quality=_quality(8, 120), k=2, mode="map", deadline=42.0)],
        catalog.snapshot(),
    )[0]
    assert lowered.candidates is not None and lowered.deadline == 42.0


# ----------------------------------------------------------------------
# Circuit breaker around retrieval sources
# ----------------------------------------------------------------------
def test_breaker_trips_to_exact_and_recovers_half_open():
    factors = _factors(9, 300, 6)
    snap = ShardedCatalog(factors, num_shards=3).snapshot()
    quality = np.stack([_quality(90 + b, 300) for b in range(4)])
    oracle = ExactTopK().pools(quality, 6, snap)

    clock = ManualClock()
    primary = QuantileFunnel()
    breaker = BreakerSource(primary, failure_threshold=2, cooldown=10.0, clock=clock)
    plan = FaultPlan(clock=clock)
    plan.attach(breaker)  # hooks land on the primary, never the fallback
    plan.fail_source(times=3)

    # Two consecutive primary failures trip the breaker; pools keep
    # flowing from the exact fallback — recall is oracle-grade.
    for _ in range(2):
        np.testing.assert_array_equal(breaker.pools(quality, 6, snap), oracle)
    assert breaker.breaker.state == "open"
    # While open (cooldown pending) the primary is not even consulted:
    # the third armed failure stays armed.
    np.testing.assert_array_equal(breaker.pools(quality, 6, snap), oracle)
    assert plan.stats()["source_failures"] == 2
    # Half-open probe after the cooldown: the primary fails once more,
    # so the breaker re-opens (a second trip)...
    clock.advance(10.0)
    np.testing.assert_array_equal(breaker.pools(quality, 6, snap), oracle)
    assert breaker.breaker.state == "open" and breaker.breaker.trips == 2
    # ...and the next probe succeeds, closing it for good.
    clock.advance(10.0)
    np.testing.assert_array_equal(breaker.pools(quality, 6, snap), oracle)
    assert breaker.breaker.state == "closed"
    stats = breaker.stats()
    assert stats["breaker"]["primary_failures"] == 3
    assert stats["breaker"]["fallback_batches"] == 4
    assert stats["fallback_rows"] == 4 * quality.shape[0]
    assert stats["primary"]["source"] == "quantile"


def test_slow_shard_counts_as_deadline_blowout():
    factors = _factors(10, 240, 5)
    snap = ShardedCatalog(factors, num_shards=3).snapshot()
    quality = np.stack([_quality(50, 240)])
    oracle = ExactTopK().pools(quality, 5, snap)
    clock = ManualClock()
    primary = ExactTopK()
    breaker = BreakerSource(
        primary, failure_threshold=1, cooldown=30.0,
        slow_threshold=0.2, clock=clock,
    )
    plan = FaultPlan(clock=clock)
    plan.attach(breaker)
    plan.slow_shard(1, seconds=0.5, times=None)
    # The slow batch still returns its (late, correct) pools, but the
    # blowout trips the breaker.
    np.testing.assert_array_equal(breaker.pools(quality, 5, snap), oracle)
    assert breaker.breaker.state == "open"
    assert breaker.stats()["breaker"]["slow_calls"] == 1
    # Tripped traffic routes to the clean fallback: no injected delay.
    before = clock()
    np.testing.assert_array_equal(breaker.pools(quality, 5, snap), oracle)
    assert clock() == before


def test_runtime_serves_identically_through_a_tripped_breaker():
    factors = _factors(11, 300, 6)
    requests = [
        Request(quality=_quality(60 + i, 300), k=3, mode="sample", seed=500 + i)
        for i in range(4)
    ]
    reference_config = ServingConfig(
        workers=0, clock=ManualClock(), funnel_width=10, source=ExactTopK()
    )
    with ServingRuntime(
        ShardedCatalog(factors, num_shards=3), config=reference_config
    ) as rt:
        futures = rt.submit_many(requests)
        rt.flush()
        reference = [f.result() for f in futures]

    clock = ManualClock()
    plan = FaultPlan(clock=clock)
    plan.fail_source(times=None)  # the primary never works again
    breaker = BreakerSource(QuantileFunnel(), failure_threshold=1, clock=clock)
    config = ServingConfig(
        workers=0, clock=clock, funnel_width=10, source=breaker, fault_plan=plan
    )
    with ServingRuntime(ShardedCatalog(factors, num_shards=3), config=config) as rt:
        futures = rt.submit_many(requests)
        rt.flush()
        served = [f.result() for f in futures]
    for mine, ref in zip(served, reference):
        _same_response(mine, ref)
    assert breaker.breaker.state == "open"


def test_source_unavailable_without_a_breaker_is_isolated_per_request():
    factors = _factors(12, 200, 5)
    clock = ManualClock()
    plan = FaultPlan(clock=clock)
    plan.fail_source(times=None)
    config = ServingConfig(
        workers=0, clock=clock, funnel_width=8,
        source=QuantileFunnel(), fault_plan=plan,
    )
    with ServingRuntime(ShardedCatalog(factors, num_shards=2), config=config) as rt:
        future = rt.submit(Request(quality=_quality(12, 200), k=2, mode="map"))
        rt.flush()
        with pytest.raises(SourceUnavailable, match="injected fault"):
            future.result()


# ----------------------------------------------------------------------
# MicroBatcher lifecycle: close semantics, cancellation, retry caps
# ----------------------------------------------------------------------
def test_close_without_drain_fails_queued_futures_with_shutdown_error():
    clock = ManualClock()
    batcher = MicroBatcher(
        lambda requests, tag: list(requests), workers=0, clock=clock
    )
    futures = [batcher.submit(i) for i in range(3)]
    batcher.close(drain=False)
    for future in futures:
        with pytest.raises(ShutdownError, match="closed"):
            future.result(timeout=0)
    with pytest.raises(RuntimeError, match="closed"):  # the legacy spelling
        batcher.submit(99)
    stats = batcher.stats
    assert stats["failed"] == 3 and stats["served"] == 0


def test_submit_racing_close_never_strands_a_future():
    barrier = threading.Barrier(5)
    batcher = MicroBatcher(
        lambda requests, tag: list(requests), max_batch=8, max_wait=0.0, workers=1
    )
    futures: list = []
    lock = threading.Lock()
    shutdown_raises = [0]

    def submitter() -> None:
        barrier.wait()
        for i in range(50):
            try:
                future = batcher.submit(i)
            except ShutdownError:
                shutdown_raises[0] += 1
            else:
                with lock:
                    futures.append(future)

    threads = [threading.Thread(target=submitter) for _ in range(4)]
    for thread in threads:
        thread.start()
    barrier.wait()
    batcher.close()  # drain=True: racing submits are served or refused
    for thread in threads:
        thread.join()
    # close() may have finished its drain before the last racing submit
    # landed; those stragglers sit resolved-or-pending only if submit
    # accepted them, which it cannot after the closed flag — so flush
    # finds nothing and every accepted future is already resolved.
    assert batcher.pending == 0
    assert all(future.done() for future in futures)
    resolved = sum(1 for future in futures if future.result() is not None)
    assert resolved == len(futures)
    stats = batcher.stats
    assert stats["submitted"] == len(futures)
    assert stats["served"] == len(futures)
    assert stats["submitted"] + shutdown_raises[0] == 200


def test_try_cancel_removes_queued_entries():
    clock = ManualClock()
    batcher = MicroBatcher(
        lambda requests, tag: list(requests), workers=0, clock=clock
    )
    first = batcher.submit("a")
    second = batcher.submit("b")
    third = batcher.submit("c")
    assert batcher.try_cancel(second) is True
    assert second.cancelled()
    assert batcher.pending == 2
    batcher.flush()
    assert first.result() == "a" and third.result() == "c"
    # Already-resolved futures cannot be cancelled.
    assert batcher.try_cancel(first) is False
    stats = batcher.stats
    assert stats["cancelled"] == 1 and stats["served"] == 2
    batcher.close()


def test_solo_retry_counters_and_isolation():
    def serve(requests, tag):
        if len(requests) > 1:
            raise ValueError("batch poisoned")
        if requests[0] == "bad":
            raise ValueError("request 0: bad request")
        return [requests[0]]

    clock = ManualClock()
    batcher = MicroBatcher(serve, workers=0, clock=clock)
    good_one = batcher.submit("x")
    bad = batcher.submit("bad")
    good_two = batcher.submit("y")
    batcher.flush()
    assert good_one.result() == "x" and good_two.result() == "y"
    with pytest.raises(ValueError, match="bad request"):
        bad.result()
    stats = batcher.stats
    assert stats["retries"] == 3
    assert stats["isolated_failures"] == 1
    assert stats["served"] == 2 and stats["failed"] == 1
    batcher.close()


def test_solo_retry_is_capped_by_deadlines():
    clock = ManualClock()

    def serve(requests, tag):
        if len(requests) > 1:
            # The failing batch burns the latency budget: by the time
            # the solo retry loop runs, one member's deadline is gone.
            clock.advance(1.0)
            raise ValueError("batch poisoned")
        return [requests[0]]

    batcher = MicroBatcher(serve, workers=0, clock=clock)
    expired = batcher.submit("a", deadline=0.5)
    alive = batcher.submit("b", deadline=10.0)
    batcher.flush()
    with pytest.raises(DeadlineExceeded):
        expired.result()
    assert alive.result() == "b"
    stats = batcher.stats
    assert stats["deadline_expired"] == 1
    assert stats["retries"] == 1  # only the live member was re-served
    batcher.close()


# ----------------------------------------------------------------------
# Publish retry + concurrent chaos
# ----------------------------------------------------------------------
def test_publish_retries_transient_failures_with_backoff():
    factors = _factors(13, 40, 5)
    clock = ManualClock()
    plan = FaultPlan(clock=clock)
    plan.fail_publish(times=2)
    config = ServingConfig(
        workers=0, clock=clock, fault_plan=plan, publish_backoff=0.01,
    )
    with ServingRuntime(ItemCatalog(factors), config=config) as rt:
        version = rt.publish(_factors(14, 40, 5))
        assert version == 1
        assert rt.stats["publish_retries"] == 2
        assert clock() == pytest.approx(0.01 + 0.02)  # exponential backoff
        # Exhausted budgets propagate the transient error.
        plan.fail_publish(times=None)
        with pytest.raises(TransientError):
            rt.publish(_factors(15, 40, 5))


def test_concurrent_publish_submit_close_resolves_everything():
    factors = _factors(16, 60, 5)
    plan = FaultPlan()  # real clock: backoff sleeps are tiny
    plan.fail_publish(times=2)
    config = ServingConfig(
        workers=2, max_batch=8, max_wait=0.0005,
        fault_plan=plan, publish_backoff=0.001,
    )
    runtime = ServingRuntime(ItemCatalog(factors), config=config)
    quality = _quality(16, 60)
    futures = []
    for i in range(40):
        futures.append(
            runtime.submit(Request(quality=quality, k=2, mode="sample", seed=i))
        )
        if i == 19:
            assert runtime.publish(_factors(17, 60, 5)) == 1
    runtime.close()
    versions = {future.result().version for future in futures}
    assert versions <= {0, 1} and 1 in versions
    assert runtime.stats["publish_retries"] == 2
    assert runtime.stats["served"] == 40


def test_fault_plan_probability_is_seeded_and_replayable():
    def count_failures(seed: int) -> int:
        plan = FaultPlan(seed=seed)
        plan.fail_serve(times=None, probability=0.3)
        failures = 0
        for _ in range(200):
            try:
                plan.serve_tick(1)
            except TransientError:
                failures += 1
        return failures

    first, second = count_failures(7), count_failures(7)
    assert first == second  # deterministic replay
    assert 20 < first < 120  # and genuinely probabilistic
    assert count_failures(8) != first or count_failures(9) != first
