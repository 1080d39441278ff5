"""One serving path over a ground set.

Every request is one k-DPP over a ground set — all M catalog items over
the shared factors, or an explicit or funnel-built pool over gathered
rows — served by one group method and one greedy-MAP round loop.  Pinned
here:

* **Rank below k fails structured on every path.**  History conditioning
  can leave fewer than k nonzero eigenvalues; the full-catalog, sliced,
  sharded-funnel and sequential paths all raise the request-indexed
  rank ``ValueError`` for a sample (never a bare sampler error, never a
  slate drawn from round-off eigenvalues), and MAP returns a partial
  slate.
* **The session greedy entry points with no constraints are the plain
  ones.**  With no seeds, pins or quotas they return the plain entry
  points' picks, for shared and stacked factors alike.
* **Every request shape in one batch.**  Each slate equals the same
  request served alone and the ``serve_sequential`` oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dpp.map_inference import (
    batched_greedy_map_shared,
    batched_greedy_map_shared_session,
    batched_greedy_map_stacked,
    batched_greedy_map_stacked_session,
)
from repro.serving import (
    ItemCatalog,
    KDPPServer,
    Request,
    ServingConfig,
    ShardedCatalog,
    ShardedKDPPServer,
)

RANK_ERROR = r"request 1: factor rank is below k=8"


# ----------------------------------------------------------------------
# Rank below k
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def deficient_world():
    """M=5000, r=16 and 12 shown items: conditioning leaves rank 4 < k=8."""
    rng = np.random.default_rng(0)
    factors = rng.normal(size=(5000, 16))
    quality = np.exp(rng.normal(size=5000))
    history = rng.choice(5000, 12, replace=False)
    mono = KDPPServer(ItemCatalog(factors))
    sharded = ShardedKDPPServer(ShardedCatalog(factors, num_shards=4))
    # The explicit slice is items 0-399 minus the shown ones.
    return quality, history, np.setdiff1d(np.arange(400), history), mono, sharded


PATHS = {
    "full": ("mono", False, "serve"),
    "sliced": ("mono", True, "serve"),
    "sharded-funnel": ("sharded", False, "serve"),
    "sequential": ("mono", False, "serve_sequential"),
    "sequential-sliced": ("mono", True, "serve_sequential"),
}


def _deficient_batch(world, path, mode):
    quality, history, candidates, mono, sharded = world
    server_name, sliced, method = PATHS[path]
    server = mono if server_name == "mono" else sharded
    extra = {"candidates": candidates} if sliced else {}
    healthy = Request(quality=quality, k=3, mode=mode, seed=1, **extra)
    deficient = Request(
        quality=quality, k=8, mode=mode, seed=0, history=history, **extra
    )
    return getattr(server, method), [healthy, deficient]


@pytest.mark.parametrize("path", sorted(PATHS))
def test_rank_below_k_sample_raises_request_indexed(deficient_world, path):
    serve, batch = _deficient_batch(deficient_world, path, "sample")
    with pytest.raises(ValueError, match=RANK_ERROR):
        serve(batch)


@pytest.mark.parametrize("path", sorted(PATHS))
def test_rank_below_k_map_returns_partial_slate(deficient_world, path):
    serve, batch = _deficient_batch(deficient_world, path, "map")
    healthy, deficient = serve(batch)
    assert len(healthy.items) == 3 and healthy.log_probability is not None
    assert 1 <= len(deficient.items) <= 4
    assert deficient.log_probability is None


# ----------------------------------------------------------------------
# Session greedy with no constraints == plain greedy
# ----------------------------------------------------------------------
def _greedy_inputs(kind: str, seed: int):
    rng = np.random.default_rng(seed)
    batch, ground, rank = 3, int(rng.integers(40, 300)), 8
    factors = rng.normal(size=(ground, rank))
    if kind == "skewed":
        quality = np.exp(rng.normal(scale=2.0, size=(batch, ground)))
    elif kind == "flat":
        quality = np.exp(rng.normal(scale=0.02, size=(batch, ground)))
    elif kind == "uniform":
        factors /= np.linalg.norm(factors, axis=1, keepdims=True)
        quality = np.full((batch, ground), 0.7)
    else:  # rank-deficient: k exceeds the rank, so the greedy ε-stops
        factors[:, 3:] = 0.0
        quality = np.exp(rng.normal(size=(batch, ground)))
    return factors, quality


@pytest.mark.parametrize("kind", ["skewed", "flat", "uniform", "rank-deficient"])
@pytest.mark.parametrize("seed", range(4))
def test_unconstrained_session_greedy_equals_plain_greedy(kind, seed):
    factors, quality = _greedy_inputs(kind, seed)
    stack = quality[:, :, None] * factors[None]
    for k in (1, 5, 10):
        shared = batched_greedy_map_shared(factors, quality, k)
        assert batched_greedy_map_shared_session(factors, quality, k) == shared
        stacked = batched_greedy_map_stacked(stack, k)
        assert batched_greedy_map_stacked_session(stack, k) == stacked
        if kind == "rank-deficient" and k > 3:
            assert all(len(picks) == 3 for picks in shared + stacked)


# ----------------------------------------------------------------------
# Every shape in one batch
# ----------------------------------------------------------------------
def _every_shape(num_items: int, rng: np.random.Generator) -> list[Request]:
    categories = rng.integers(0, 3, size=num_items)
    requests = []
    for mode in ("sample", "map"):
        for copy in range(2):
            quality = np.exp(rng.normal(size=num_items))
            slice_ids = rng.choice(num_items, size=80, replace=False)
            history = slice_ids[:3]
            session = {"history": history}
            if mode == "map":
                session.update(
                    pins=slice_ids[3:5],
                    quotas={1: 2},
                    categories=categories,
                    alpha=2.0,
                )
            common = dict(quality=quality, k=5, mode=mode, seed=10 * copy + 1)
            requests += [
                Request(**common),
                Request(**common, **session),
                Request(**common, candidates=slice_ids),
                Request(**common, candidates=slice_ids, **session),
            ]
        rerank = dict(quality=np.exp(rng.normal(size=num_items)), k=5)
        requests += [
            Request(mode="topk-rerank", **rerank),
            Request(
                mode="topk-rerank", history=np.arange(3), pins=np.arange(3, 5), **rerank
            ),
        ]
    return requests


def test_every_shape_in_one_batch_matches_alone_and_sequential():
    rng = np.random.default_rng(5)
    factors = rng.normal(size=(300, 10))
    server = KDPPServer(ItemCatalog(factors), config=ServingConfig(rerank_pool=40))
    requests = _every_shape(300, rng)
    batched = server.serve(requests)
    sequential = server.serve_sequential(requests)
    for request, response, oracle in zip(requests, batched, sequential):
        alone = server.serve([request])[0]
        assert len(response.items) == request.k
        assert response.items == alone.items == oracle.items
        assert response.mode == request.mode
        for other in (alone, oracle):
            assert response.log_probability == pytest.approx(
                other.log_probability, rel=1e-9
            )
        if request.pins is not None:
            assert response.items[:2] == list(request.pins)
