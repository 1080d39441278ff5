"""The candidate-generation subsystem: parity, recall, caching.

Contracts pinned here:

1. **Exact parity** — :class:`ExactTopK` is the PR 4 inlined funnel:
   its pools equal ``ShardedSnapshot.shard_topk``, it is the default
   source of :class:`ShardedKDPPServer`, and a server running it
   produces identical seeded samples to the pre-subsystem funnel
   (monolithic engine over the same merged pool).
2. **Approximate sources** — :class:`QuantileFunnel` pools are exact
   whenever the threshold mask fills (and recall@funnel is 1.0 there);
   :class:`IVFIndex` reaches recall@funnel ≥ 0.95 on structured
   synthetic catalogs where quality follows the factor geometry.
3. **Funnel cache** — repeat visitors hit, hits reproduce the source's
   pools bit for bit, publish() invalidates, a changed quality vector
   under the same user id cannot serve a stale pool, and the cache
   stays consistent under concurrent micro-batched submits.
"""

import threading

import numpy as np
import pytest

from repro.retrieval import (
    CandidateSource,
    ExactTopK,
    FunnelCache,
    IVFIndex,
    QuantileFunnel,
    shard_offsets,
    shard_snapshots,
)
from repro.serving import (
    ItemCatalog,
    KDPPServer,
    Request,
    ServingConfig,
    ServingRuntime,
    ShardedCatalog,
    ShardedKDPPServer,
)


def _factors(seed: int, m: int, r: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    diversity = rng.normal(size=(m, r))
    diversity /= np.linalg.norm(diversity, axis=1, keepdims=True)
    return diversity


def _quality_batch(seed: int, batch: int, m: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.exp(rng.normal(scale=0.5, size=(batch, m)))


def _clustered_world(seed: int, m: int, r: int, batch: int, clusters: int = 12):
    """Factors drawn around cluster centers and quality following the
    same geometry (``q_u = exp(t · V u)``) — the regime IVF probing is
    built for: a user's high-quality items live in few cells."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(clusters, r))
    assignment = rng.integers(0, clusters, size=m)
    factors = centers[assignment] + 0.35 * rng.normal(size=(m, r))
    factors /= np.linalg.norm(factors, axis=1, keepdims=True)
    users = centers[rng.integers(0, clusters, size=batch)]
    users += 0.2 * rng.normal(size=(batch, r))
    quality = np.exp(2.0 * (factors @ users.T).T)
    return factors, quality


def _recall(pools: np.ndarray, reference: np.ndarray) -> float:
    per_row = [
        len(set(pools[b].tolist()) & set(reference[b].tolist()))
        / len(set(reference[b].tolist()))
        for b in range(reference.shape[0])
    ]
    return float(np.mean(per_row))


# ----------------------------------------------------------------------
# Snapshot duck-typing helpers
# ----------------------------------------------------------------------
def test_shard_helpers_cover_both_catalog_flavors():
    factors = _factors(0, 120, 6)
    mono = ItemCatalog(factors).snapshot()
    sharded = ShardedCatalog(factors, num_shards=4).snapshot()
    np.testing.assert_array_equal(shard_offsets(mono), [0, 120])
    np.testing.assert_array_equal(sharded.offsets, shard_offsets(sharded))
    assert shard_snapshots(mono) == (mono,)
    assert len(shard_snapshots(sharded)) == 4


def test_snapshot_extension_builds_once_and_keeps_none_results():
    factors = _factors(1, 60, 4)
    for snap in (
        ItemCatalog(factors).snapshot(),
        ShardedCatalog(factors, num_shards=3).snapshot(),
    ):
        calls = []

        def build(s):
            calls.append(s)
            return None  # a legitimate "index declined" result

        assert snap.extension("probe", build) is None
        assert snap.extension("probe", build) is None
        assert len(calls) == 1  # None was cached, not rebuilt


def test_source_validation():
    factors = _factors(2, 80, 4)
    snap = ShardedCatalog(factors, num_shards=2).snapshot()
    source = ExactTopK()
    with pytest.raises(ValueError, match="quality stack"):
        source.pools(np.ones(80), 4, snap)
    with pytest.raises(ValueError, match="funnel width"):
        source.pools(np.ones((2, 80)), 0, snap)
    with pytest.raises(ValueError, match="sketch_size"):
        QuantileFunnel(sketch_size=0)
    with pytest.raises(ValueError, match="overshoot"):
        QuantileFunnel(overshoot=0.5)
    with pytest.raises(ValueError, match="nprobe"):
        IVFIndex(nprobe=0)
    with pytest.raises(ValueError, match="capacity"):
        FunnelCache(capacity=0)
    with pytest.raises(NotImplementedError):
        CandidateSource().pools(np.ones((1, 80)), 4, snap)


# ----------------------------------------------------------------------
# ExactTopK: the parity oracle
# ----------------------------------------------------------------------
def test_exact_source_equals_shard_topk_and_is_default():
    factors = _factors(3, 300, 6)
    catalog = ShardedCatalog(factors, num_shards=5)
    snap = catalog.snapshot()
    quality = _quality_batch(3, 6, 300)
    source = ExactTopK()
    np.testing.assert_array_equal(
        source.pools(quality, 9, snap), snap.shard_topk(quality, 9)
    )
    server = ShardedKDPPServer(catalog)
    assert isinstance(server.source, ExactTopK)
    assert server.funnel_cache is None
    stats = source.stats()
    assert stats["batches"] == 1 and stats["rows"] == 6
    assert stats["fallback_rows"] == 0 and stats["time_s"] > 0


def test_exact_source_serves_identical_seeded_samples_to_prerefactor_funnel():
    """The pre-subsystem funnel == monolithic engine over the merged
    per-shard top-k pool; the ExactTopK server must reproduce it draw
    for draw."""
    factors = _factors(4, 600, 8)
    catalog = ShardedCatalog(factors, num_shards=5)
    server = ShardedKDPPServer(
        catalog,
        config=ServingConfig(funnel_width=12, source=ExactTopK()),
    )
    mono = KDPPServer(ItemCatalog(factors))
    quality = _quality_batch(4, 6, 600)
    requests = [
        Request(
            quality=quality[b],
            k=4,
            mode="sample" if b % 2 == 0 else "map",
            seed=40 + b,
        )
        for b in range(6)
    ]
    responses = server.serve(requests)
    snap = catalog.snapshot()
    for b, request in enumerate(requests):
        pool = snap.shard_topk(quality[b : b + 1], max(12, request.k))[0]
        reference = mono.serve(
            [
                Request(
                    quality=quality[b],
                    k=4,
                    mode=request.mode,
                    candidates=pool,
                    seed=40 + b,
                )
            ]
        )[0]
        assert responses[b].items == reference.items
        assert np.isclose(
            responses[b].log_probability, reference.log_probability, rtol=1e-10
        )


# ----------------------------------------------------------------------
# QuantileFunnel
# ----------------------------------------------------------------------
def test_quantile_pools_match_exact_on_wide_shards():
    factors = _factors(5, 6000, 8)
    snap = ShardedCatalog(factors, num_shards=4).snapshot()
    quality = _quality_batch(5, 7, 6000)
    source = QuantileFunnel(sketch_size=256, seed=11)
    pools = source.pools(quality, 16, snap)
    exact = ExactTopK().pools(quality, 16, snap)
    assert _recall(pools, exact) >= 0.95
    filled_cells = pools.shape[0] * 4 - source.stats()["fallback_rows"]
    assert filled_cells > 0
    # Non-fallback cells are exact by construction; with zero fallbacks
    # the whole pool matrix matches item for item and order for order.
    if source.stats()["fallback_rows"] == 0:
        np.testing.assert_array_equal(pools, exact)


def test_quantile_fallback_path_stays_exact():
    # A sketch of 1 with no overshoot headroom misestimates constantly:
    # fallbacks must keep the result exact anyway.
    factors = _factors(6, 4000, 6)
    snap = ShardedCatalog(factors, num_shards=2).snapshot()
    quality = _quality_batch(6, 5, 4000)
    source = QuantileFunnel(sketch_size=2, overshoot=1.0, seed=3)
    pools = source.pools(quality, 25, snap)
    np.testing.assert_array_equal(pools, ExactTopK().pools(quality, 25, snap))


def test_quantile_degenerate_geometry_serves_exactly():
    factors = _factors(7, 90, 5)
    snap = ShardedCatalog(factors, num_shards=3).snapshot()
    quality = _quality_batch(7, 4, 90)
    source = QuantileFunnel()
    pools = source.pools(quality, 10, snap)
    np.testing.assert_array_equal(pools, ExactTopK().pools(quality, 10, snap))
    assert source.stats()["fallback_rows"] == 4  # whole batch served exactly


def test_quantile_end_to_end_seeded_samples_match_exact_source():
    factors = _factors(8, 5000, 8)
    catalog = ShardedCatalog(factors, num_shards=4)
    quality = _quality_batch(8, 6, 5000)
    requests = [
        Request(quality=quality[b], k=5, mode="sample", seed=800 + b)
        for b in range(6)
    ]
    exact_server = ShardedKDPPServer(catalog, config=ServingConfig(funnel_width=24))
    quantile_server = ShardedKDPPServer(
        catalog,
        config=ServingConfig(funnel_width=24, source=QuantileFunnel(seed=1)),
    )
    exact_responses = exact_server.serve(requests)
    quantile_responses = quantile_server.serve(requests)
    for left, right in zip(exact_responses, quantile_responses):
        if quantile_server.source.stats()["fallback_rows"] == 0:
            assert left.items == right.items


def test_quantile_sketch_is_per_version():
    factors = _factors(9, 4000, 6)
    catalog = ShardedCatalog(factors, num_shards=2)
    source = QuantileFunnel(sketch_size=64, seed=5)
    quality = _quality_batch(9, 3, 4000)
    old_snap = catalog.snapshot()
    source.pools(quality, 8, old_snap)
    key = ("quantile-sketch", 64, 5)
    old_sketch = old_snap.extension(key, lambda s: pytest.fail("should be cached"))
    catalog.publish(_factors(10, 4000, 6))
    new_snap = catalog.snapshot()
    source.pools(quality, 8, new_snap)
    new_sketch = new_snap.extension(key, lambda s: pytest.fail("should be cached"))
    assert not np.array_equal(old_sketch, new_sketch)  # version-seeded redraw


# ----------------------------------------------------------------------
# IVFIndex
# ----------------------------------------------------------------------
def test_ivf_recall_at_funnel_on_structured_catalog():
    factors, quality = _clustered_world(20, 8000, 12, batch=16)
    snap = ShardedCatalog(factors, num_shards=4).snapshot()
    source = IVFIndex(seed=2)
    pools = source.pools(quality, 24, snap)
    exact = ExactTopK().pools(quality, 24, snap)
    assert _recall(pools, exact) >= 0.95
    # Each pool row: unique ids, quality-descending within each shard.
    offsets = shard_offsets(snap)
    for b in range(4):
        row = pools[b]
        assert len(set(row.tolist())) == row.shape[0]
        for s in range(4):
            segment = row[(row >= offsets[s]) & (row < offsets[s + 1])]
            values = quality[b, segment]
            assert np.all(np.diff(values) <= 0)


def test_ivf_small_shards_serve_exactly():
    factors = _factors(21, 400, 6)  # below min_shard_items per shard
    snap = ShardedCatalog(factors, num_shards=4).snapshot()
    quality = _quality_batch(21, 5, 400)
    source = IVFIndex(min_shard_items=256)
    pools = source.pools(quality, 12, snap)
    np.testing.assert_array_equal(pools, ExactTopK().pools(quality, 12, snap))


def test_ivf_index_built_once_per_version():
    factors, quality = _clustered_world(22, 3000, 8, batch=4)
    catalog = ShardedCatalog(factors, num_shards=2)
    source = IVFIndex(seed=7, kmeans_iters=2)
    snap = catalog.snapshot()
    source.pools(quality, 8, snap)
    key = ("ivf-index", None, 2, 7, 256)
    shard_states = [
        shard.extension(key, lambda s: pytest.fail("should be cached"))
        for shard in shard_snapshots(snap)
    ]
    assert all(state is not None for state in shard_states)
    # A second batch reuses the cached layouts (pytest.fail would fire
    # inside extension() if a rebuild were attempted).
    source.pools(quality, 8, snap)


def test_ivf_end_to_end_through_sharded_server():
    factors, quality = _clustered_world(23, 4000, 10, batch=6)
    catalog = ShardedCatalog(factors, num_shards=2)
    server = ShardedKDPPServer(
        catalog,
        config=ServingConfig(funnel_width=20, source=IVFIndex(seed=3, kmeans_iters=3)),
    )
    requests = [
        Request(quality=quality[b], k=5, mode=("sample", "map")[b % 2], seed=b)
        for b in range(6)
    ]
    responses = server.serve(requests)
    for b, response in enumerate(responses):
        assert len(response.items) == 5
        pool = server.funnel_pool(requests[b])
        assert set(response.items) <= set(pool.tolist())


# ----------------------------------------------------------------------
# FunnelCache
# ----------------------------------------------------------------------
def test_funnel_cache_hit_returns_stored_pool():
    cache = FunnelCache(capacity=4)
    quality = _quality_batch(30, 1, 200)[0]
    pool = np.arange(10, dtype=np.int64)
    assert cache.get(7, 0, 16, quality) is None
    cache.put(7, 0, 16, pool, quality)
    hit = cache.get(7, 0, 16, quality)
    np.testing.assert_array_equal(hit, pool)
    assert not hit.flags.writeable
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1 and stats["entries"] == 1


def test_funnel_cache_distinguishes_version_width_and_quality():
    cache = FunnelCache()
    quality = _quality_batch(31, 2, 200)
    cache.put(1, 0, 16, np.arange(16), quality[0])
    assert cache.get(1, 1, 16, quality[0]) is None  # other version
    assert cache.get(1, 0, 32, quality[0]) is None  # other width
    assert cache.get(2, 0, 16, quality[0]) is None  # other user
    # Same key, different quality vector: the fingerprint guard refuses
    # the stale pool (and drops the entry).
    assert cache.get(1, 0, 16, quality[1]) is None
    assert len(cache) == 0


def test_funnel_cache_lru_eviction():
    cache = FunnelCache(capacity=2)
    quality = _quality_batch(32, 1, 50)[0]
    for user in range(3):
        cache.put(user, 0, 8, np.arange(8), quality)
    assert len(cache) == 2
    assert cache.get(0, 0, 8, quality) is None  # oldest evicted
    assert cache.get(2, 0, 8, quality) is not None


def test_funnel_cache_invalidate():
    cache = FunnelCache()
    quality = _quality_batch(33, 1, 50)[0]
    cache.put(1, 0, 8, np.arange(8), quality)
    cache.put(2, 1, 8, np.arange(8), quality)
    assert cache.invalidate(keep_version=1) == 1
    assert cache.get(2, 1, 8, quality) is not None
    assert cache.invalidate() == 1
    assert len(cache) == 0
    assert cache.stats()["invalidations"] == 2


def test_server_reuses_cached_funnel_for_repeat_users():
    factors = _factors(34, 3000, 8)
    catalog = ShardedCatalog(factors, num_shards=3)
    cache = FunnelCache()
    server = ShardedKDPPServer(
        catalog,
        config=ServingConfig(
            funnel_width=16,
            source=QuantileFunnel(seed=4),
            funnel_cache=cache,
        ),
    )
    quality = _quality_batch(34, 4, 3000)
    requests = [
        Request(quality=quality[b], k=4, mode="sample", seed=340 + b, user=b)
        for b in range(4)
    ]
    first = server.serve(requests)
    assert cache.stats() == {
        "entries": 4,
        "capacity": 4096,
        "hits": 0,
        "misses": 4,
        "invalidations": 0,
    }
    second = server.serve(requests)
    assert cache.stats()["hits"] == 4
    for left, right in zip(first, second):
        assert left.items == right.items  # same seed, same cached pool
    # Requests without a user id never touch the cache.
    anonymous = Request(quality=quality[0], k=4, mode="map")
    server.serve([anonymous])
    assert cache.stats()["hits"] == 4 and cache.stats()["misses"] == 4


def test_funnel_cache_keys_on_exclusions():
    """Same user, same scores, different exclusion set: the cached pool
    (built from exclusion-zeroed quality) must not be reused — the
    exclusion token is an exact key component, not fingerprint luck."""
    factors = _factors(40, 3000, 8)
    catalog = ShardedCatalog(factors, num_shards=3)
    cache = FunnelCache()
    server = ShardedKDPPServer(
        catalog,
        config=ServingConfig(funnel_width=16, source=ExactTopK(), funnel_cache=cache),
    )
    quality = _quality_batch(40, 1, 3000)[0]
    plain = Request(quality=quality, k=4, mode="map", user=5)
    top_item = int(np.argmax(quality))
    excluding = Request(
        quality=quality,
        k=4,
        mode="map",
        user=5,
        exclude=np.array([top_item]),
    )
    first = server.serve([plain])[0]
    assert top_item in set(server.funnel_pool(plain).tolist())
    second = server.serve([excluding])[0]
    assert top_item not in second.items
    assert top_item not in set(server.funnel_pool(excluding).tolist())
    assert len(cache) == 2  # two distinct keys, no stale sharing
    # And the plain request still hits its own entry.
    again = server.serve([plain])[0]
    assert again.items == first.items
    assert cache.stats()["hits"] >= 1


def test_runtime_publish_invalidates_funnel_cache():
    factors = _factors(35, 2000, 6)
    catalog = ShardedCatalog(factors, num_shards=2)
    cache = FunnelCache()
    from repro.utils.timing import ManualClock

    with ServingRuntime(
        catalog,
        config=ServingConfig(
            workers=0,
            max_batch=8,
            max_wait=0.0,
            clock=ManualClock(),
            funnel_width=12,
            source=QuantileFunnel(seed=6),
            funnel_cache=cache,
        ),
    ) as runtime:
        quality = _quality_batch(35, 2, 2000)
        future = runtime.submit(
            Request(quality=quality[0], k=3, mode="map", user=0)
        )
        runtime.flush()
        future.result(0)
        assert len(cache) == 1
        runtime.publish(_factors(36, 2000, 6))
        assert len(cache) == 0  # eagerly reclaimed on hot swap
        future = runtime.submit(
            Request(quality=quality[0], k=3, mode="map", user=0)
        )
        runtime.flush()
        assert future.result(0).version == 1
        assert len(cache) == 1  # repopulated under the new version
        stats = runtime.stats
        assert stats["retrieval"]["cache"]["invalidations"] == 1
        assert stats["retrieval"]["source"]["source"] == "quantile"


def test_runtime_rejects_source_for_monolithic_catalog():
    factors = _factors(37, 200, 5)
    with pytest.raises(ValueError, match="sharded"):
        ServingRuntime(
            ItemCatalog(factors),
            config=ServingConfig(workers=0, source=ExactTopK()),
        )
    server = KDPPServer(ItemCatalog(factors))
    with pytest.raises(ValueError, match="not both"):
        ServingRuntime(
            ItemCatalog(factors),
            server=server,
            config=ServingConfig(workers=0, source=ExactTopK()),
        )


def test_bridge_forwards_source_and_stamps_user_ids():
    from repro.models import MFRecommender
    from repro.serving import RecommenderBridge

    factors = _factors(38, 600, 6)
    catalog = ShardedCatalog(factors, num_shards=3)
    model = MFRecommender(4, 600, dim=8, rng=0)
    cache = FunnelCache()
    bridge = RecommenderBridge(
        model,
        catalog,
        config=ServingConfig(source=QuantileFunnel(seed=8), funnel_cache=cache),
    )
    assert isinstance(bridge.server.source, QuantileFunnel)
    request = bridge.build_request(2, k=4)
    assert request.user == 2
    first = bridge.recommend([0, 1], k=4, mode="map")
    # recommend() caches responses; go through the server again to see
    # the funnel-cache hit for a repeat visitor.
    bridge.server.serve([bridge.build_request(0, k=4)])
    assert cache.stats()["hits"] >= 1
    assert all(len(response.items) == 4 for response in first)
    with pytest.raises(ValueError, match="not both"):
        RecommenderBridge(
            model,
            catalog,
            server=bridge.server,
            config=ServingConfig(source=QuantileFunnel()),
        )


def test_funnel_cache_thread_safety_under_concurrent_submits():
    """Many threads submitting overlapping users through the threaded
    runtime: every future resolves correctly and the cache's counters
    stay consistent (no lost updates, no torn entries)."""
    factors = _factors(39, 3000, 8)
    catalog = ShardedCatalog(factors, num_shards=3)
    cache = FunnelCache()
    quality = _quality_batch(39, 8, 3000)
    with ServingRuntime(
        catalog,
        config=ServingConfig(
            workers=2,
            max_batch=8,
            max_wait=0.001,
            funnel_width=16,
            source=QuantileFunnel(seed=9),
            funnel_cache=cache,
        ),
    ) as runtime:
        futures = []
        futures_lock = threading.Lock()

        def client(c: int) -> None:
            for j in range(12):
                user = (c + j) % 8
                future = runtime.submit(
                    Request(
                        quality=quality[user],
                        k=4,
                        mode="sample",
                        seed=1000 * c + j,
                        user=user,
                    )
                )
                with futures_lock:
                    futures.append((user, future))

        threads = [threading.Thread(target=client, args=(c,)) for c in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        results = [(user, future.result(30)) for user, future in futures]
    assert len(results) == 48
    for user, response in results:
        assert len(response.items) == 4
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == 48
    assert stats["entries"] == 8  # one pool per user, single version/width
    # Every user's pool is the one the source would build fresh.
    snap = catalog.snapshot()
    source = QuantileFunnel(seed=9)
    for user in range(8):
        expected = source.pools(quality[user : user + 1], 16, snap)[0]
        cached = cache.get(user, snap.version, 16, quality[user])
        np.testing.assert_array_equal(cached, expected)


def test_microbatcher_queue_and_admission_counters():
    from repro.serving import MicroBatcher
    from repro.utils.timing import ManualClock

    clock = ManualClock()
    batcher = MicroBatcher(
        lambda requests, tag: [f"ok:{r}" for r in requests],
        max_batch=4,
        max_wait=10.0,
        workers=0,
        clock=clock,
    )
    batcher.submit("a")
    clock.advance(2.0)
    batcher.submit("b")
    stats = batcher.stats
    assert stats["queue_depth"] == 2 and stats["max_queue_depth"] == 2
    assert stats["dispatched"] == 0
    clock.advance(1.0)
    batcher.flush()
    stats = batcher.stats
    assert stats["queue_depth"] == 0 and stats["dispatched"] == 2
    # "a" waited 3s, "b" waited 1s against the injected clock.
    assert stats["admission_wait_total_s"] == pytest.approx(4.0)
    assert stats["admission_wait_max_s"] == pytest.approx(3.0)
