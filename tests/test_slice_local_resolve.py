"""Slice-local request resolution and the quality value-scan contract.

Three guarantees of the serving engine are pinned here:

* **Value scan.**  Whatever can reach a kernel must be finite and
  non-negative.  Full-catalog requests scan the whole vector; sliced
  requests scan only their slice (a bad value outside it is never read);
  funnel-lowered requests scan their pool, and the funnel ranks NaN and
  ``+inf`` above every number, so those always reach the pool and fail.
  Every case ends in either a valid slate without the bad item or a
  request-indexed ``ValueError`` — and never poisons its batch.
* **One NaN policy.**  ``ExactTopK`` and ``QuantileFunnel`` (mask path
  and fallbacks) put the same items in a pool when quality holds NaN,
  ``inf`` or negative values.
* **Slice-local resolve.**  A sliced request's exclusions, history,
  ``alpha`` and pins are applied to ``quality[candidates]`` only, and the
  slates and log-probabilities equal an oracle built from the full
  catalog vector (zero, then power, then slice).
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles import sliced_request_oracle

from repro.retrieval import ExactTopK, QuantileFunnel
from repro.serving import (
    ItemCatalog,
    KDPPServer,
    Request,
    ServingConfig,
    ServingRuntime,
    ShardedCatalog,
    ShardedKDPPServer,
)
from repro.utils.timing import ManualClock
from repro.utils.topk import top_k_indices_rows

NUM_ITEMS = 2000
RANK = 8
SHARDS = 4
WIDTH = 16
K = 4
SCAN_ERROR = "quality must be finite and non-negative"


def _factors(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    factors = rng.normal(size=(NUM_ITEMS, RANK))
    return factors / np.linalg.norm(factors, axis=1, keepdims=True)


def _quality(seed: int) -> np.ndarray:
    return np.exp(np.random.default_rng(seed).normal(scale=0.5, size=NUM_ITEMS))


def _sources():
    # Shards of 500 items are wider than both the width and the sketch,
    # so the quantile source runs its mask path, not the degenerate one.
    return [ExactTopK(), QuantileFunnel(sketch_size=64, overshoot=4.0, seed=3)]


def _assert_valid(response, bad_item: int | None = None, k: int = K) -> None:
    assert len(response.items) == k
    assert len(set(response.items)) == k
    assert bad_item not in response.items
    assert response.log_probability is not None
    assert np.isfinite(response.log_probability)


# ----------------------------------------------------------------------
# Value scan: full catalog and explicit slices
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("mode", ["sample", "map", "topk-rerank"])
def test_full_catalog_request_with_a_bad_value_fails_indexed(bad, mode):
    server = KDPPServer(ItemCatalog(_factors()), config=ServingConfig(rerank_pool=20))
    quality = _quality(1)
    quality[1234] = bad
    requests = [
        Request(quality=_quality(2), k=K, mode="map"),
        Request(quality=quality, k=K, mode=mode, seed=5),
    ]
    with pytest.raises(ValueError, match=f"request 1: {SCAN_ERROR}"):
        server.serve(requests)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("mode", ["sample", "map"])
@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_explicit_slice_scans_only_the_slice(bad, mode, alpha):
    server = KDPPServer(ItemCatalog(_factors()))
    candidates = np.arange(100, 160)
    inside, outside = 130, 1500
    quality = _quality(3)
    quality[inside] = bad
    with pytest.raises(ValueError, match=f"request 0: {SCAN_ERROR}"):
        server.serve(
            [Request(quality=quality, k=K, mode=mode, candidates=candidates,
                     alpha=alpha, seed=9)]
        )
    quality = _quality(3)
    quality[outside] = bad
    response = server.serve(
        [Request(quality=quality, k=K, mode=mode, candidates=candidates,
                 alpha=alpha, seed=9)]
    )[0]
    _assert_valid(response, outside)
    assert set(response.items) <= set(candidates.tolist())


def test_excluded_bad_value_inside_a_slice_is_zeroed_before_the_scan():
    """The scan reads the *effective* slice: an excluded entry is zero
    whatever the caller put there."""
    server = KDPPServer(ItemCatalog(_factors()))
    candidates = np.arange(100, 160)
    quality = _quality(4)
    quality[130] = np.nan
    response = server.serve(
        [Request(quality=quality, k=K, mode="map", candidates=candidates,
                 exclude=np.array([130, 1900]))]
    )[0]
    _assert_valid(response, 130)


# ----------------------------------------------------------------------
# Value scan: funnel-lowered (sharded) requests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("source", _sources(), ids=lambda s: s.name)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("mode", ["sample", "map", "topk-rerank"])
def test_sharded_nan_and_inf_always_fail_the_request(source, bad, mode):
    server = ShardedKDPPServer(
        ShardedCatalog(_factors(), num_shards=SHARDS),
        config=ServingConfig(funnel_width=WIDTH, rerank_pool=20, source=source),
    )
    quality = _quality(5)
    quality[777] = bad
    requests = [
        Request(quality=_quality(6), k=K, mode="sample", seed=1),
        Request(quality=quality, k=K, mode=mode, seed=2),
    ]
    with pytest.raises(ValueError, match=f"request 1: {SCAN_ERROR}"):
        server.serve(requests)


@pytest.mark.parametrize("source", _sources(), ids=lambda s: s.name)
@pytest.mark.parametrize("bad", [-1.0, -np.inf])
@pytest.mark.parametrize("mode", ["sample", "map", "topk-rerank"])
def test_sharded_negative_value_outside_the_pool_is_served_without_it(
    source, bad, mode
):
    server = ShardedKDPPServer(
        ShardedCatalog(_factors(), num_shards=SHARDS),
        config=ServingConfig(funnel_width=WIDTH, rerank_pool=20, source=source),
    )
    quality = _quality(7)
    quality[777] = bad
    response = server.serve([Request(quality=quality, k=K, mode=mode, seed=3)])[0]
    _assert_valid(response, 777)


@pytest.mark.parametrize("source", _sources(), ids=lambda s: s.name)
def test_sharded_negative_values_a_pool_needs_fail_the_request(source):
    """A shard with fewer than ``width`` non-negative items hands its
    negative items to the pool, and the pool scan rejects them."""
    server = ShardedKDPPServer(
        ShardedCatalog(_factors(), num_shards=SHARDS),
        config=ServingConfig(funnel_width=WIDTH, source=source),
    )
    quality = _quality(8)
    quality[:495] = -1.0  # shard 0 keeps 5 non-negative items
    with pytest.raises(ValueError, match=f"request 0: {SCAN_ERROR}"):
        server.serve([Request(quality=quality, k=K, mode="map")])


@pytest.mark.parametrize("source", _sources(), ids=lambda s: s.name)
def test_runtime_bad_quality_requests_do_not_poison_their_batch(source):
    config = ServingConfig(
        workers=0, max_batch=8, max_wait=0.0, clock=ManualClock(),
        funnel_width=WIDTH, rerank_pool=20, source=source,
    )
    nan_quality, inf_quality, negative_quality = _quality(9), _quality(10), _quality(11)
    nan_quality[5] = np.nan
    inf_quality[1999] = np.inf
    negative_quality[1000] = -1.0
    requests = [
        Request(quality=_quality(12), k=K, mode="sample", seed=1),
        Request(quality=nan_quality, k=K, mode="sample", seed=2),
        Request(quality=_quality(13), k=K, mode="map"),
        Request(quality=inf_quality, k=K, mode="topk-rerank"),
        Request(quality=negative_quality, k=K, mode="map"),
    ]
    with ServingRuntime(
        ShardedCatalog(_factors(), num_shards=SHARDS), config=config
    ) as runtime:
        futures = runtime.submit_many(requests)
        runtime.flush()
        for position in (1, 3):
            with pytest.raises(ValueError, match=SCAN_ERROR):
                futures[position].result(0)
        _assert_valid(futures[0].result(0))
        _assert_valid(futures[2].result(0))
        _assert_valid(futures[4].result(0), bad_item=1000)


# ----------------------------------------------------------------------
# One NaN policy for both exact sources
# ----------------------------------------------------------------------
def test_top_k_rows_ranks_nan_and_inf_first_and_negatives_last():
    scores = np.array([[0.5, np.nan, -1.0, 2.0, np.inf, 0.0, -np.inf, 1.0]])
    top = top_k_indices_rows(scores, 4)[0]
    assert set(top.tolist()) == {1, 3, 4, 7}
    assert top[-1] == 1  # NaN is placed after the finite winners
    assert top_k_indices_rows(scores, 3)[0].tolist() == [4, 3, 1]
    assert set(top_k_indices_rows(scores, 7)[0].tolist()) == set(range(8)) - {6}


def test_quantile_pools_match_exact_pools_on_non_finite_and_negative_quality():
    snap = ShardedCatalog(_factors(), num_shards=SHARDS).snapshot()
    rng = np.random.default_rng(14)
    quality = np.exp(rng.normal(scale=0.5, size=(6, NUM_ITEMS)))
    quality[0, 17] = np.nan
    quality[1, [3, 600, 1400]] = np.nan
    quality[2, 900] = np.inf
    quality[3, rng.choice(NUM_ITEMS, 300, replace=False)] = -1.0
    quality[4, 500:995] = -np.linspace(1.0, 2.0, 495)  # the pool needs 11
    quality[4, 1700] = -np.inf
    # Ten NaNs per shard: fewer than the width, so pool membership is
    # fully determined (more would tie at the cutoff).
    quality[5, (np.arange(SHARDS)[:, None] * 500 + np.arange(0, 70, 7)).ravel()] = np.nan
    exact = ExactTopK().pools(quality, WIDTH, snap)
    quantile = QuantileFunnel(sketch_size=64, overshoot=4.0, seed=3).pools(
        quality, WIDTH, snap
    )
    for b in range(quality.shape[0]):
        for s in range(SHARDS):
            segment = slice(s * WIDTH, (s + 1) * WIDTH)
            assert set(exact[b, segment].tolist()) == set(quantile[b, segment].tolist())
    for b, item in ((0, 17), (1, 600), (2, 900)):
        assert item in exact[b]
    # The NaN and inf rows reach those pools through the survivor mask,
    # not through the exact fallback.
    masked = QuantileFunnel(sketch_size=64, overshoot=4.0, seed=3)
    masked.pools(quality[:3], WIDTH, snap)
    assert masked.stats()["fallback_rows"] == 0


# ----------------------------------------------------------------------
# Slice-local resolve parity against a full-catalog oracle
# ----------------------------------------------------------------------
def _slice_requests(seed: int) -> list[Request]:
    rng = np.random.default_rng(seed)
    requests = []
    for b in range(8):
        quality = np.exp(rng.normal(scale=1.0, size=NUM_ITEMS))
        candidates = rng.choice(NUM_ITEMS, size=60, replace=False)
        # The best slice member is excluded, so a slice that skipped the
        # zeroing would put it in every MAP slate; other exclusions and
        # history ids fall inside the slice as well as outside it.
        best = candidates[int(np.argmax(quality[candidates]))]
        others = [c for c in candidates.tolist() if c != best]
        outside = np.setdiff1d(np.arange(NUM_ITEMS), candidates)
        exclude = np.array([best, others[0], *rng.choice(outside, 3, replace=False)])
        history = np.array([others[1], others[2], *rng.choice(outside, 2, replace=False)])
        mode = "map" if b % 2 else "sample"
        requests.append(
            Request(
                quality=quality,
                k=5,
                mode=mode,
                candidates=candidates,
                exclude=exclude,
                history=history,
                alpha=(0.5, 2.0)[(b // 2) % 2],
                pins=np.array(others[3:5]) if mode == "map" else None,
                seed=1000 * seed + b,
            )
        )
    return requests


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_slice_local_resolve_matches_full_catalog_oracle(seed):
    # Rank 16 leaves room for k=5 after deflating up to 4 history rows.
    rng = np.random.default_rng(seed)
    factors = rng.normal(size=(NUM_ITEMS, 16))
    factors /= np.linalg.norm(factors, axis=1, keepdims=True)
    requests = _slice_requests(seed)
    for server in (
        KDPPServer(ItemCatalog(factors)),
        ShardedKDPPServer(ShardedCatalog(factors, num_shards=SHARDS)),
    ):
        for serve in (server.serve, server.serve_sequential):
            for request, response in zip(requests, serve(requests)):
                items, log_probability = sliced_request_oracle(factors, request)
                assert response.items == items
                assert response.log_probability == pytest.approx(
                    log_probability, rel=1e-8, abs=1e-8
                )
                if request.pins is not None:
                    assert response.items[:2] == request.pins.tolist()
