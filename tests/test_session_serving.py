"""Session-aware serving: alpha, history conditioning, constrained MAP.

Three contracts are pinned here:

1. **Bit-parity off-switch** — requests that leave every session field
   at its default (``alpha=1``, no history, no pins/quotas) are served
   through the exact pre-session code paths: identical items, identical
   seeded samples, identical ``log_probability`` floats.
2. **Conditioning math** — the batched dual deflation (``C̃ = PCP``)
   and the sequential primal deflation (``B̃ = B(I − UUᵀ)``) are two
   different routes to the same conditional kernel; both must agree
   with a manually deflated :class:`~repro.dpp.KDPP` oracle.
3. **Constraint semantics** — pins lead the slate and seed the greedy
   state, quotas are satisfied whenever the pool allows, every invalid
   combination raises a request-indexed ``ValueError``, and cached
   funnel pools never resurface already-shown items.
"""

import dataclasses

import numpy as np
import pytest

from repro.dpp import KDPP, LowRankKernel, greedy_map
from repro.retrieval import ExactTopK, FunnelCache, exclusion_token, session_token
from repro.serving import (
    ItemCatalog,
    KDPPServer,
    RecommenderBridge,
    Request,
    ServingConfig,
    ServingRuntime,
    Session,
    ShardedCatalog,
    ShardedKDPPServer,
)
from repro.serving.server import extend_pool_for_constraints
from repro.utils.topk import top_k_indices


def _factors(seed: int, m: int, r: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    diversity = rng.normal(size=(m, r))
    diversity /= np.linalg.norm(diversity, axis=1, keepdims=True)
    return diversity


def _quality(seed: int, m: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.exp(rng.normal(scale=0.5, size=m))


def _deflated_factors(factors, quality, history):
    """The conditional kernel's factor rows, built independently of the
    engine: zero the shown items' quality, deflate every row by an
    orthonormal basis of the shown items' raw factor rows."""
    base = quality.copy()
    base[np.asarray(history, dtype=np.int64)] = 0.0
    rows = base[:, None] * factors
    shown = factors[np.asarray(history, dtype=np.int64)]
    _, s, vt = np.linalg.svd(shown, full_matrices=False)
    keep = s > max(shown.shape) * np.finfo(np.float64).eps * s[0]
    basis = vt[keep].T  # (r, h')
    return rows - (rows @ basis) @ basis.T


# ----------------------------------------------------------------------
# 1. Off-switch bit-parity
# ----------------------------------------------------------------------
def test_default_session_fields_are_bit_identical():
    factors = _factors(0, 60, 8)
    server = KDPPServer(ItemCatalog(factors))
    quality = _quality(1, 60)
    plain = [
        Request(quality=quality, k=5, mode="sample", seed=11),
        Request(quality=_quality(2, 60), k=4, mode="map"),
        Request(quality=_quality(3, 60), k=3, mode="topk-rerank"),
        Request(quality=quality, k=3, mode="map", candidates=np.arange(20)),
    ]
    spelled = [
        dataclasses.replace(r, alpha=1.0, history=None, pins=None, quotas=None)
        for r in plain
    ]
    for a, b in zip(server.serve(plain), server.serve(spelled)):
        assert a.items == b.items
        assert a.log_probability == b.log_probability  # bitwise, not approx
        assert a.mode == b.mode and a.k == b.k

    # ... and the batch path still reproduces the manual per-user
    # KDPP.from_factors loop draw for draw (the pre-session oracle).
    served = server.serve([plain[0]])[0]
    kernel = LowRankKernel(quality[:, None] * factors)
    manual = KDPP.from_factors(kernel, 5).sample(np.random.default_rng(11))
    assert served.items == list(manual)


# ----------------------------------------------------------------------
# Alpha
# ----------------------------------------------------------------------
def test_alpha_is_an_exponent_rescale_of_quality():
    factors = _factors(4, 50, 7)
    server = KDPPServer(ItemCatalog(factors))
    quality = _quality(5, 50)
    for mode, seed in (("map", None), ("sample", 3), ("topk-rerank", None)):
        for alpha in (0.5, 1.7, 3.0):
            via_alpha = server.serve(
                [Request(quality=quality, k=4, mode=mode, seed=seed, alpha=alpha)]
            )[0]
            manual = server.serve(
                [Request(quality=quality ** (1.0 / alpha), k=4, mode=mode, seed=seed)]
            )[0]
            assert via_alpha.items == manual.items, (mode, alpha)
            assert via_alpha.log_probability == manual.log_probability


def test_alpha_extremes_sharpen_and_survive():
    factors = _factors(6, 40, 6)
    server = KDPPServer(ItemCatalog(factors))
    quality = _quality(7, 40)
    # alpha → 0 sharpens toward pure top-k by quality (0.02 keeps
    # q^(1/alpha) under the overflow clip; past the clip the top
    # qualities tie at the ceiling and diversity breaks the ties).
    sharp = server.serve(
        [Request(quality=quality, k=3, mode="map", alpha=0.02)]
    )[0]
    assert set(sharp.items) == set(top_k_indices(quality, 3).tolist())
    # Huge alpha must not overflow: qualities clip, serving still works.
    flat = server.serve(
        [Request(quality=quality * 1e8, k=3, mode="map", alpha=1e-6)]
    )[0]
    assert len(flat.items) == 3


# ----------------------------------------------------------------------
# 2. History conditioning
# ----------------------------------------------------------------------
def test_history_conditioning_matches_deflated_oracle():
    factors = _factors(8, 50, 9)
    server = KDPPServer(ItemCatalog(factors))
    quality = _quality(9, 50)
    history = [3, 11, 19]
    deflated = _deflated_factors(factors, quality, history)
    oracle = LowRankKernel(deflated)

    request = Request(quality=quality, k=4, mode="map", history=history)
    batched = server.serve([request])[0]
    sequential = server.serve_sequential([request])[0]
    reference = greedy_map(oracle, 4)
    assert batched.items == sequential.items == list(reference)
    assert not set(batched.items) & set(history)
    expected_lp = KDPP.from_factors(oracle, 4).log_subset_probability(batched.items)
    assert batched.log_probability == pytest.approx(expected_lp, rel=1e-9)
    assert sequential.log_probability == pytest.approx(expected_lp, rel=1e-9)

    sampled = server.serve(
        [Request(quality=quality, k=4, mode="sample", seed=21, history=history)]
    )[0]
    manual = KDPP.from_factors(oracle, 4).sample(np.random.default_rng(21))
    assert sampled.items == list(manual)
    assert not set(sampled.items) & set(history)


def test_history_works_on_candidate_slices_and_duplicated_rows():
    factors = _factors(10, 40, 8)
    # Make two history rows linearly dependent: the rank-revealing basis
    # must deflate one direction, not two.
    factors[12] = 2.0 * factors[5]
    server = KDPPServer(ItemCatalog(factors))
    quality = _quality(11, 40)
    request = Request(
        quality=quality,
        k=3,
        mode="map",
        candidates=np.arange(30),
        history=[5, 12, 7],
    )
    batched = server.serve([request])[0]
    sequential = server.serve_sequential([request])[0]
    assert batched.items == sequential.items
    assert not set(batched.items) & {5, 12, 7}
    assert batched.log_probability == pytest.approx(
        sequential.log_probability, rel=1e-9
    )


def test_history_exhausting_rank_stops_early():
    factors = _factors(12, 30, 4)
    server = KDPPServer(ItemCatalog(factors))
    quality = _quality(13, 30)
    # Conditioning out 3 of 4 rank dimensions leaves at most one pick.
    response = server.serve(
        [Request(quality=quality, k=3, mode="map", history=[0, 1, 2])]
    )[0]
    assert len(response.items) <= 1
    assert response.log_probability is None


# ----------------------------------------------------------------------
# Session helper
# ----------------------------------------------------------------------
def test_session_accumulates_pages_without_repeats():
    factors = _factors(14, 80, 16)
    server = KDPPServer(ItemCatalog(factors))
    quality = _quality(15, 80)
    session = Session(user=7, alpha=1.2)
    shown: set = set()
    for _ in range(3):
        response = server.serve([session.request(quality, k=5, mode="map")])[0]
        assert not set(response.items) & shown
        shown |= set(response.items)
        session.record(response)
    assert len(session) == len(shown)
    assert sorted(session.shown) == sorted(shown)
    session.reset()
    assert len(session) == 0 and session.history is None


def test_session_window_keeps_old_pages_excluded():
    factors = _factors(16, 80, 6)
    server = KDPPServer(ItemCatalog(factors))
    quality = _quality(17, 80)
    session = Session(window=4)
    session.record([0, 1, 2, 3, 4, 5])
    request = session.request(quality, k=3, mode="map")
    # Conditioning window = last 4; older items fall back to exclusion.
    assert request.history.tolist() == [2, 3, 4, 5]
    assert sorted(np.asarray(request.exclude).tolist()) == [0, 1]
    response = server.serve([request])[0]
    assert not set(response.items) & {0, 1, 2, 3, 4, 5}
    with pytest.raises(ValueError, match="window"):
        Session(window=0)


# ----------------------------------------------------------------------
# 3. Constrained MAP: pins
# ----------------------------------------------------------------------
def test_pins_lead_the_slate_and_seed_the_greedy_state():
    factors = _factors(18, 50, 8)
    server = KDPPServer(ItemCatalog(factors))
    quality = _quality(19, 50)
    pins = [30, 41]
    response = server.serve(
        [Request(quality=quality, k=5, mode="map", pins=pins)]
    )[0]
    assert response.items[:2] == pins
    assert len(response.items) == 5
    # The remaining picks are greedy *given* the pins: every later item
    # must differ from what unconstrained greedy would pick only when
    # the pins change the conditional gains — pin parity against the
    # sequential path is the exact check.
    sequential = server.serve_sequential(
        [Request(quality=quality, k=5, mode="map", pins=pins)]
    )[0]
    assert response.items == sequential.items
    expected_lp = KDPP.from_factors(
        LowRankKernel(quality[:, None] * factors), 5
    ).log_subset_probability(response.items)
    assert response.log_probability == pytest.approx(expected_lp, rel=1e-9)


def test_pins_with_history_and_rerank_pool_extension():
    factors = _factors(20, 60, 10)
    server = KDPPServer(ItemCatalog(factors), config=ServingConfig(rerank_pool=10))
    quality = _quality(21, 60)
    # Pin an item that cannot be in the top-10 rerank pool; condition
    # on another low-quality item (guaranteed distinct from the pin).
    order = np.argsort(quality)
    low, shown = int(order[0]), int(order[1])
    request = Request(
        quality=quality, k=4, mode="topk-rerank", pins=[low], history=[shown]
    )
    response = server.serve([request])[0]
    assert response.items[0] == low
    assert shown not in response.items
    assert response.mode == "topk-rerank"
    parity = server.serve_sequential([request])[0]
    assert response.items == parity.items


def test_full_pin_slate_and_pin_quality_guard():
    factors = _factors(22, 30, 6)
    server = KDPPServer(ItemCatalog(factors))
    quality = _quality(23, 30)
    response = server.serve(
        [Request(quality=quality, k=3, mode="map", pins=[4, 9, 17])]
    )[0]
    assert response.items == [4, 9, 17]
    with pytest.raises(ValueError, match="positive effective quality"):
        zeroed = quality.copy()
        zeroed[4] = 0.0
        server.serve([Request(quality=zeroed, k=3, mode="map", pins=[4])])


# ----------------------------------------------------------------------
# Constrained MAP: quotas
# ----------------------------------------------------------------------
def test_quota_minimums_are_met_when_satisfiable():
    factors = _factors(24, 60, 10)
    server = KDPPServer(ItemCatalog(factors))
    quality = _quality(25, 60)
    categories = np.arange(60) % 5
    for quotas in ({0: 2}, {1: 1, 3: 2}, {2: 4}):
        request = Request(
            quality=quality, k=4, mode="map", quotas=quotas, categories=categories
        )
        for response in (
            server.serve([request])[0],
            server.serve_sequential([request])[0],
        ):
            assert len(response.items) == 4
            counts = {c: 0 for c in quotas}
            for item in response.items:
                c = int(categories[item])
                if c in counts:
                    counts[c] += 1
            assert all(counts[c] >= need for c, need in quotas.items()), (
                quotas,
                response.items,
            )
    # Quotas must not perturb an unconstrained-equivalent request: a
    # quota the greedy slate satisfies anyway leaves the slate unchanged.
    free = server.serve([Request(quality=quality, k=4, mode="map")])[0]
    satisfied = {int(categories[free.items[0]]): 1}
    quotaed = server.serve(
        [
            Request(
                quality=quality,
                k=4,
                mode="map",
                quotas=satisfied,
                categories=categories,
            )
        ]
    )[0]
    assert quotaed.items == free.items


def test_unsatisfiable_quota_yields_partial_slate():
    factors = _factors(26, 30, 8)
    server = KDPPServer(ItemCatalog(factors))
    quality = _quality(27, 30)
    categories = np.zeros(30, dtype=np.int64)
    categories[:2] = 7  # only two members of category 7
    response = server.serve(
        [
            Request(
                quality=quality,
                k=5,
                mode="map",
                quotas={7: 3},
                categories=categories,
            )
        ]
    )[0]
    assert len(response.items) < 5
    assert response.log_probability is None
    assert {0, 1} <= set(response.items)  # it took every member it could


def test_pins_and_quotas_compose():
    factors = _factors(28, 50, 10)
    server = KDPPServer(ItemCatalog(factors))
    quality = _quality(29, 50)
    categories = np.arange(50) % 3
    request = Request(
        quality=quality,
        k=5,
        mode="map",
        pins=[9],  # category 0
        quotas={1: 2},
        categories=categories,
    )
    batched = server.serve([request])[0]
    sequential = server.serve_sequential([request])[0]
    assert batched.items == sequential.items
    assert batched.items[0] == 9
    assert sum(1 for i in batched.items if categories[i] == 1) >= 2


# ----------------------------------------------------------------------
# Funnel / cache interaction
# ----------------------------------------------------------------------
def test_sharded_session_pools_respect_history_despite_cache_hits():
    factors = _factors(30, 120, 10)
    catalog = ShardedCatalog(factors, num_shards=3)
    cache = FunnelCache()
    server = ShardedKDPPServer(
        catalog, config=ServingConfig(funnel_width=8, funnel_cache=cache)
    )
    quality = _quality(31, 120)
    page1 = server.serve(
        [Request(quality=quality, k=5, mode="map", user=9)]
    )[0]
    misses_before = cache.stats()["misses"]
    page2_request = Request(
        quality=quality, k=5, mode="map", user=9, history=page1.items
    )
    page2 = server.serve([page2_request])[0]
    # Different session token → page 2 funnels fresh (no false hit) ...
    assert cache.stats()["misses"] == misses_before + 1
    assert not set(page2.items) & set(page1.items)
    # ... and an identical repeat of page 2 is a pure cache hit that
    # still reflects the history-zeroed pool.
    hits_before = cache.stats()["hits"]
    repeat = server.serve([page2_request])[0]
    assert cache.stats()["hits"] == hits_before + 1
    assert repeat.items == page2.items


def test_session_token_separates_history_from_exclusions():
    assert session_token(None, None) is None
    assert session_token([1, 2], None) == exclusion_token([1, 2])
    assert session_token(None, [1, 2]) != exclusion_token([1, 2])
    assert session_token([1], [2]) != session_token([2], [1])
    assert session_token([1], [2]) == session_token([1], [2])


def test_extend_pool_for_constraints_is_deterministic_and_minimal():
    quality = np.array([0.5, 0.9, 0.1, 0.8, 0.0, 0.7, 0.6, 0.2])
    categories = np.array([0, 0, 1, 1, 1, 2, 2, 2])
    pool = np.array([1, 3], dtype=np.int64)
    # Pins append in request order; quota top-ups by descending quality,
    # skipping zero-quality members; already-present items never repeat.
    extended = extend_pool_for_constraints(
        pool, quality, np.array([6, 1]), {1: 2, 2: 1}, categories
    )
    assert extended.tolist() == [1, 3, 6, 2]
    untouched = extend_pool_for_constraints(pool, quality, None, None, None)
    assert untouched is pool


def test_sharded_session_parity_with_monolithic_pool():
    factors = _factors(32, 90, 8)
    catalog = ShardedCatalog(factors, num_shards=3)
    sharded = ShardedKDPPServer(catalog, config=ServingConfig(funnel_width=12))
    mono = KDPPServer(ItemCatalog(factors))
    quality = _quality(33, 90)
    request = Request(
        quality=quality, k=4, mode="sample", seed=5, history=[8, 40], alpha=1.4
    )
    pool = sharded.funnel_pool(request)
    sliced = dataclasses.replace(request, candidates=pool)
    assert sharded.serve([request])[0].items == mono.serve([sliced])[0].items


# ----------------------------------------------------------------------
# Validation: every new error path, request-indexed
# ----------------------------------------------------------------------
def _hetero_batch(quality, bad_request):
    """A batch whose third member (index 2) is the invalid one."""
    return [
        Request(quality=quality, k=2, mode="map"),
        Request(quality=quality, k=2, mode="sample", seed=0),
        bad_request,
    ]


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"alpha": 0.0}, r"request 2: alpha must be a positive finite number"),
        ({"alpha": -1.5}, r"request 2: alpha must be a positive finite number"),
        ({"alpha": float("nan")}, r"request 2: alpha must be a positive"),
        ({"history": [0, 99]}, r"request 2: history ids must be in \[0, 40\)"),
        ({"history": [-1]}, r"request 2: history ids must be in \[0, 40\)"),
        ({"pins": [40]}, r"request 2: pin ids must be in \[0, 40\)"),
        ({"pins": [1, 1]}, r"request 2: pin ids must be unique"),
        ({"pins": [1, 2, 3]}, r"request 2: 3 pins exceed k=2"),
        (
            {"pins": [1], "exclude": [1, 5]},
            r"request 2: pins overlap the exclusion set",
        ),
        (
            {"pins": [1], "history": [1]},
            r"request 2: pins overlap the session history",
        ),
        (
            {"pins": [30], "candidates": np.arange(10)},
            r"request 2: pins must be members of the explicit candidate slice",
        ),
        (
            {"quotas": {0: 1}},
            r"request 2: quotas need a catalog-sized 'categories'",
        ),
        (
            {"quotas": {0: 1}, "categories": np.zeros(5, dtype=np.int64)},
            r"request 2: categories must be an integer array",
        ),
        (
            {"quotas": {0: 0}, "categories": np.zeros(40, dtype=np.int64)},
            r"request 2: quota minimum for category 0 must be positive",
        ),
        (
            {"quotas": {0: 2, 1: 1}, "categories": np.zeros(40, dtype=np.int64)},
            r"request 2: quota minimums sum to 3, exceeding k=2",
        ),
    ],
)
def test_session_validation_errors_are_request_indexed(fields, message):
    factors = _factors(34, 40, 6)
    quality = _quality(35, 40)
    bad = Request(quality=quality, k=2, mode="map", **fields)
    server = KDPPServer(ItemCatalog(factors))
    with pytest.raises(ValueError, match=message):
        server.serve(_hetero_batch(quality, bad))
    # The sharded funnel front end raises the same indexed message.
    sharded = ShardedKDPPServer(ShardedCatalog(factors, num_shards=2))
    with pytest.raises(ValueError, match=message):
        sharded.serve(_hetero_batch(quality, bad))


@pytest.mark.parametrize("mode", ["sample"])
@pytest.mark.parametrize(
    "fields, message",
    [
        ({"pins": [1]}, r"request 2: pins require a MAP mode"),
        (
            {"quotas": {0: 1}, "categories": None},
            r"request 2: quotas require a MAP mode",
        ),
    ],
)
def test_sample_mode_rejects_map_only_constraints(mode, fields, message):
    factors = _factors(36, 40, 6)
    quality = _quality(37, 40)
    server = KDPPServer(ItemCatalog(factors))
    bad = Request(quality=quality, k=2, mode=mode, seed=1, **fields)
    with pytest.raises(ValueError, match=message):
        server.serve(_hetero_batch(quality, bad))


def test_request_validate_is_directly_callable():
    quality = np.ones(10)
    Request(quality=quality, k=2, mode="map", alpha=2.0).validate(10)
    with pytest.raises(ValueError, match=r"request 0: alpha"):
        Request(quality=quality, k=2, mode="map", alpha=0).validate(10)
    with pytest.raises(ValueError, match=r"request 4: history"):
        Request(quality=quality, k=2, mode="map", history=[11]).validate(
            10, index=4
        )


# ----------------------------------------------------------------------
# ServingConfig + deprecation shims
# ----------------------------------------------------------------------
def test_serving_config_validates_and_replaces():
    config = ServingConfig()
    assert config.rerank_pool == 100 and config.funnel_width == 32
    assert config.replace(max_batch=4).max_batch == 4
    for bad in (
        {"rerank_pool": 0},
        {"funnel_width": 0},
        {"max_batch": 0},
        {"max_wait": -1.0},
        {"workers": -1},
    ):
        with pytest.raises(ValueError):
            ServingConfig(**bad)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.rerank_pool = 5


def test_runtime_from_config_builds_the_whole_stack():
    factors = _factors(39, 60, 6)
    cache = FunnelCache()
    config = ServingConfig(
        funnel_width=10, workers=0, source=ExactTopK(), funnel_cache=cache
    )
    with ServingRuntime.from_config(
        ShardedCatalog(factors, num_shards=2), config
    ) as runtime:
        assert runtime.config is config
        assert runtime.server.funnel_cache is cache
        future = runtime.submit(
            Request(quality=_quality(40, 60), k=3, mode="map", user=1)
        )
        runtime.flush()
        assert len(future.result().items) == 3
    # Monolithic catalogs still reject funnel plug-ins.
    with pytest.raises(ValueError, match="sharded"):
        ServingRuntime.from_config(
            ItemCatalog(factors), ServingConfig(source=ExactTopK())
        )


def test_response_is_frozen_and_restamping_builds_new_instances():
    factors = _factors(41, 50, 6)
    quality = _quality(42, 50)
    server = ShardedKDPPServer(ShardedCatalog(factors, num_shards=2))
    response = server.serve(
        [Request(quality=quality, k=3, mode="topk-rerank")]
    )[0]
    assert response.mode == "topk-rerank"
    with pytest.raises(dataclasses.FrozenInstanceError):
        response.mode = "map"
    with pytest.raises(dataclasses.FrozenInstanceError):
        response.items = []


# ----------------------------------------------------------------------
# Bridge integration
# ----------------------------------------------------------------------
def test_bridge_alpha_is_part_of_the_cache_key():
    from repro.models import MFRecommender

    model = MFRecommender(4, 30, dim=5, rng=0)
    factors = _factors(43, 30, 5)
    bridge = RecommenderBridge(model, ItemCatalog(factors))
    sharp = bridge.recommend([0], k=3, alpha=0.2)[0]
    flat = bridge.recommend([0], k=3, alpha=5.0)[0]
    again = bridge.recommend([0], k=3, alpha=0.2)[0]
    assert again.cached and again.items == sharp.items
    assert bridge.cache_hits == 1  # alpha=5.0 was a distinct key
    assert sharp.items != flat.items or sharp.log_probability != flat.log_probability


def test_bridge_build_request_threads_session_fields():
    from repro.models import MFRecommender

    model = MFRecommender(4, 30, dim=5, rng=1)
    factors = _factors(44, 30, 5)
    bridge = RecommenderBridge(
        model, ItemCatalog(factors), candidate_pool=8
    )
    request = bridge.build_request(
        1, k=3, mode="map", alpha=1.5, history=[2, 4], pins=[7]
    )
    assert request.alpha == 1.5
    assert list(request.history) == [2, 4]
    assert 7 in np.asarray(request.candidates).tolist()
    assert not {2, 4} & set(np.asarray(request.candidates).tolist())
    response = bridge.server.serve([request])[0]
    assert response.items[0] == 7
    assert not {2, 4} & set(response.items)
