"""The serving engine: batched results pinned to per-user serving.

The contract of :class:`repro.serving.KDPPServer` is that batching is a
pure performance transform — for a fixed seeded RNG per request, the
batch path returns exactly what the PR 2 one-request-at-a-time loop
(``KDPP.from_factors(...).sample(rng)`` / ``greedy_map``) returns,
including heterogeneous ``k``, exclusion sets, rank-deficient quality
vectors (zeros) and candidate slices.  The suites below pin that
contract against *manually built* per-user references (not just
``serve_sequential``), plus the catalog/bridge plumbing around it.
"""

import tracemalloc

import numpy as np
import pytest
from oracles import gram_products_reference

from repro.dpp import (
    KDPP,
    LowRankKernel,
    batched_greedy_map_shared,
    batched_greedy_map_stacked,
    batched_log_esp,
    batched_sample_elementary_shared,
    batched_sample_elementary_stacked,
    greedy_map,
    log_esp,
)
from repro.dpp.kdpp import _sample_from_elementary
from repro.models import MFRecommender
from repro.serving import catalog as catalog_module
from repro.serving import (
    CatalogSnapshot,
    ItemCatalog,
    KDPPServer,
    RecommenderBridge,
    Request,
    ServingConfig,
    quality_from_scores,
)
from repro.serving.catalog import GRAM_PRODUCTS_MIN_BATCH
from repro.utils import lanes
from repro.utils.topk import top_k_indices


def _factors(seed: int, m: int, r: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    diversity = rng.normal(size=(m, r))
    diversity /= np.linalg.norm(diversity, axis=1, keepdims=True)
    return diversity


def _quality_batch(seed: int, batch: int, m: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.exp(rng.normal(scale=0.5, size=(batch, m)))


# ----------------------------------------------------------------------
# ItemCatalog
# ----------------------------------------------------------------------
def test_catalog_validation_and_snapshots():
    with pytest.raises(ValueError):
        ItemCatalog(np.ones(3))
    with pytest.raises(ValueError):
        ItemCatalog(np.array([[1.0, np.nan]]))
    factors = _factors(0, 30, 6)
    catalog = ItemCatalog(factors)
    assert catalog.num_items == 30 and catalog.rank == 6
    # The snapshot is a copy and read-only: the engine's caches key on
    # the version token alone, so factors must be immutable per version.
    factors[0, 0] = 99.0
    assert catalog.factors[0, 0] != 99.0
    with pytest.raises(ValueError):
        catalog.factors[0, 0] = 1.0


def test_catalog_gram_and_spectrum_cached_per_version():
    factors = _factors(1, 25, 5)
    catalog = ItemCatalog(factors)
    np.testing.assert_allclose(catalog.gram(), factors.T @ factors, rtol=1e-12)
    first = catalog.dual_spectrum()
    assert catalog.dual_spectrum() is first  # cached, not recomputed
    eigenvalues, _ = first
    np.testing.assert_allclose(
        np.sort(eigenvalues), np.sort(np.linalg.eigvalsh(factors.T @ factors)),
        rtol=1e-9, atol=1e-12,
    )
    version = catalog.version
    refreshed = _factors(2, 25, 5)
    assert catalog.refresh(refreshed) == version + 1
    assert catalog.version == version + 1
    second = catalog.dual_spectrum()
    assert second is not first
    np.testing.assert_allclose(catalog.gram(), refreshed.T @ refreshed, rtol=1e-12)


def test_catalog_gram_products_refuses_wide_factors(monkeypatch):
    catalog = ItemCatalog(_factors(2, 30, 6))
    monkeypatch.setattr(CatalogSnapshot, "GRAM_PRODUCTS_MAX_BYTES", 1024)
    with pytest.raises(ValueError, match="outer-product table"):
        catalog.gram_products()


@pytest.mark.parametrize("rank", [1, 7, 32])
def test_catalog_gram_products_fill_in_place_matches_the_gather(rank):
    # An item count that is not a multiple of the fill tile covers the
    # ragged last tile.
    m = 2 * catalog_module._FILL_TILE_ROWS + 37
    snap = ItemCatalog(_factors(5, m, rank)).snapshot()
    reference = gram_products_reference(snap.factors)
    # The fill splits its tiles across the two lanes; the lane thread is
    # started once per process, so its start is no allocation of a build.
    lanes.both(lambda: None, lambda: None)
    tracemalloc.start()
    try:
        table, _ = snap.gram_products()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape == reference.shape
    assert table.tobytes() == reference.tobytes()
    # the table is the build's only allocation: no gathered temporaries
    tile_bytes = catalog_module._FILL_TILE_ROWS * table.shape[1] * 8
    assert peak <= table.nbytes + tile_bytes


def test_catalog_refresh_keeps_item_axis():
    catalog = ItemCatalog(_factors(2, 30, 6))
    with pytest.raises(ValueError, match="item axis"):
        catalog.refresh(_factors(3, 29, 6))
    # A rank change on the same items is a legal retrain.
    assert catalog.refresh(_factors(3, 30, 4)) == 1
    assert catalog.rank == 4


def test_catalog_build_duals_matches_per_user_grams():
    factors = _factors(3, 40, 8)
    catalog = ItemCatalog(factors)
    quality = _quality_batch(3, 6, 40)
    duals = catalog.build_duals(quality**2)
    for b in range(quality.shape[0]):
        scaled = quality[b][:, None] * factors
        np.testing.assert_allclose(duals[b], scaled.T @ scaled, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("batch", [1, 2, 3, 4])
def test_catalog_build_duals_direct_and_table_routes_agree(monkeypatch, batch):
    factors = _factors(4, 2000, 16)
    squared_quality = _quality_batch(4, batch, 2000) ** 2
    snap = ItemCatalog(factors).snapshot()
    # a zero size cap forces the direct route, a unit threshold the table
    monkeypatch.setattr(CatalogSnapshot, "GRAM_PRODUCTS_MAX_BYTES", 0)
    direct = snap.build_duals(squared_quality)
    monkeypatch.undo()
    monkeypatch.setattr(catalog_module, "GRAM_PRODUCTS_MIN_BATCH", 1)
    table = snap.build_duals(squared_quality)
    scale = np.abs(table).max()
    assert np.abs(direct - table).max() <= 1e-12 * scale
    for b in range(batch):
        assert np.array_equal(direct[b], direct[b].T)
        scaled = np.sqrt(squared_quality[b])[:, None] * factors
        assert np.abs(direct[b] - scaled.T @ scaled).max() <= 1e-12 * scale


# ----------------------------------------------------------------------
# Batched DPP primitives
# ----------------------------------------------------------------------
def test_batched_log_esp_matches_scalar_including_hetero_k():
    rng = np.random.default_rng(4)
    spectra = np.abs(rng.normal(size=(7, 12))) * np.exp(rng.normal(scale=3, size=(7, 12)))
    spectra[5, 3:] = 0.0  # rank 3 row
    for k in (1, 3, 7):
        batched = batched_log_esp(spectra, k)
        for b in range(7):
            expected = log_esp(spectra[b], k)
            if np.isfinite(expected):
                assert np.isclose(batched[b], expected, rtol=1e-12)
            else:
                assert batched[b] == -np.inf
    ks = np.array([1, 2, 3, 4, 5, 2, 6])
    batched = batched_log_esp(spectra, ks)
    for b in range(7):
        expected = log_esp(spectra[b], int(ks[b]))
        assert batched[b] == -np.inf if not np.isfinite(expected) else np.isclose(
            batched[b], expected, rtol=1e-12
        )
    assert np.all(batched_log_esp(spectra, 0) == 0.0)
    with pytest.raises(ValueError):
        batched_log_esp(spectra, 13)
    with pytest.raises(ValueError):
        batched_log_esp(spectra[0], 2)


def test_elementary_choice_clamps_rounded_up_uniform():
    # u < 1 strictly, but u * total can round to exactly total; the
    # right-sided CDF search must not step past the last item then.
    from repro.dpp.kdpp import _elementary_choice

    class _EdgeRng:
        def random(self):
            return 1.0 - 2.0**-53

    norms = np.array([1e-3, 3.0])  # 3.0 * (1 - 2^-53) rounds to 3.0... not
    # necessarily on every platform, so force the exact edge with u -> 1.0:
    class _OneRng:
        def random(self):
            return 1.0

    assert _elementary_choice(norms, _EdgeRng()) in (0, 1)
    assert _elementary_choice(norms, _OneRng()) == 1


def _orthonormal_bases(seed: int, batch: int, ground: int, p: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    bases = np.empty((batch, ground, p))
    for b in range(batch):
        q, _ = np.linalg.qr(rng.normal(size=(ground, p)))
        bases[b] = q
    return bases


def test_batched_stacked_elementary_sampler_matches_reference():
    bases = _orthonormal_bases(5, 9, 40, 4)
    rngs = [np.random.default_rng(100 + b) for b in range(9)]
    batched = batched_sample_elementary_stacked(bases, rngs)
    for b in range(9):
        reference = _sample_from_elementary(
            bases[b].copy(), np.random.default_rng(100 + b)
        )
        assert batched[b] == reference


def test_batched_shared_elementary_sampler_matches_reference():
    m, r, p, batch = 50, 8, 4, 6
    factors = _factors(6, m, r)
    quality = _quality_batch(6, batch, m)
    rng = np.random.default_rng(7)
    coefficients = np.empty((batch, r, p))
    for b in range(batch):
        # Orthonormalize Diag(q) V W by QR in coefficient space.
        scaled = quality[b][:, None] * factors
        raw = rng.normal(size=(r, p))
        basis, _ = np.linalg.qr(scaled @ raw)
        coefficients[b], *_ = np.linalg.lstsq(scaled, basis, rcond=None)
    rngs = [np.random.default_rng(300 + b) for b in range(batch)]
    batched = batched_sample_elementary_shared(factors, quality, coefficients, rngs)
    for b in range(batch):
        basis = (quality[b][:, None] * factors) @ coefficients[b]
        reference = _sample_from_elementary(basis, np.random.default_rng(300 + b))
        assert batched[b] == reference


def test_batched_greedy_map_matches_per_request():
    m, r, batch, k = 60, 6, 8, 5
    factors = _factors(8, m, r)
    quality = _quality_batch(8, batch, m)
    shared = batched_greedy_map_shared(factors, quality, k)
    stack = quality[:, :, None] * factors[None]
    stacked = batched_greedy_map_stacked(stack, k)
    for b in range(batch):
        reference = greedy_map(LowRankKernel(quality[b][:, None] * factors), k)
        assert shared[b] == reference
        assert stacked[b] == reference


def test_batched_greedy_map_early_stop_matches():
    # rank 3 < k: both paths must stop after the rank is exhausted.
    factors = _factors(9, 30, 3)
    quality = _quality_batch(9, 4, 30)
    shared = batched_greedy_map_shared(factors, quality, 6)
    for b in range(4):
        reference = greedy_map(LowRankKernel(quality[b][:, None] * factors), 6)
        assert shared[b] == reference
        assert len(shared[b]) <= 3 + 1


# ----------------------------------------------------------------------
# KDPPServer vs per-user KDPP.from_factors loops
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def world():
    factors = _factors(10, 80, 8)
    catalog = ItemCatalog(factors)
    return catalog, KDPPServer(catalog)


def _manual_sample(factors, quality, k, seed):
    dpp = KDPP.from_factors(quality[:, None] * factors, k)
    rng = np.random.default_rng(seed)
    sample = dpp.sample(rng)
    return sample, dpp.log_subset_probability(sample)


def test_server_sample_batch_matches_per_user_loop(world):
    catalog, server = world
    quality = _quality_batch(11, 10, catalog.num_items)
    requests = [
        Request(quality=quality[b], k=4, mode="sample", seed=500 + b)
        for b in range(10)
    ]
    responses = server.serve(requests)
    for b, response in enumerate(responses):
        items, log_probability = _manual_sample(
            catalog.factors, quality[b], 4, 500 + b
        )
        assert response.items == items
        assert np.isclose(response.log_probability, log_probability, rtol=1e-8)
        assert response.mode == "sample" and response.k == 4


def test_server_heterogeneous_k_and_modes(world):
    catalog, server = world
    quality = _quality_batch(12, 9, catalog.num_items)
    requests, references = [], []
    for b in range(9):
        k = 2 + b % 5
        if b % 3 == 0:
            requests.append(Request(quality=quality[b], k=k, mode="map"))
            references.append(
                ("map", greedy_map(LowRankKernel(quality[b][:, None] * catalog.factors), k))
            )
        else:
            requests.append(
                Request(quality=quality[b], k=k, mode="sample", seed=700 + b)
            )
            references.append(
                ("sample", _manual_sample(catalog.factors, quality[b], k, 700 + b)[0])
            )
    responses = server.serve(requests)
    for response, (mode, expected) in zip(responses, references):
        assert response.mode == mode
        assert response.items == expected


def test_server_exclusions_and_rank_deficient_quality(world):
    catalog, server = world
    rng = np.random.default_rng(13)
    quality = _quality_batch(13, 6, catalog.num_items)
    requests, expected = [], []
    for b in range(6):
        exclude = rng.choice(catalog.num_items, size=15, replace=False)
        q = quality[b].copy()
        q[rng.choice(catalog.num_items, size=25, replace=False)] = 0.0  # rank-deficient
        requests.append(
            Request(quality=q, k=4, mode="sample", exclude=exclude, seed=900 + b)
        )
        zeroed = q.copy()
        zeroed[exclude] = 0.0
        expected.append(
            (set(exclude.tolist()), _manual_sample(catalog.factors, zeroed, 4, 900 + b))
        )
    responses = server.serve(requests)
    for response, (excluded, (items, log_probability)) in zip(responses, expected):
        assert response.items == items
        assert not excluded & set(response.items)
        assert np.isclose(response.log_probability, log_probability, rtol=1e-8)


def test_server_candidate_slices_match_sliced_loop(world):
    catalog, server = world
    rng = np.random.default_rng(14)
    quality = _quality_batch(14, 8, catalog.num_items)
    requests, expected = [], []
    for b in range(8):
        candidates = np.sort(rng.choice(catalog.num_items, size=30, replace=False))
        mode = "sample" if b % 2 == 0 else "map"
        requests.append(
            Request(
                quality=quality[b], k=5, mode=mode, candidates=candidates,
                seed=1100 + b,
            )
        )
        sliced = quality[b][candidates][:, None] * catalog.factors[candidates]
        if mode == "sample":
            dpp = KDPP.from_factors(sliced, 5)
            local = dpp.sample(np.random.default_rng(1100 + b))
        else:
            local = greedy_map(LowRankKernel(sliced), 5)
        expected.append([int(candidates[i]) for i in local])
    responses = server.serve(requests)
    for response, items in zip(responses, expected):
        assert response.items == items


def test_server_topk_rerank_matches_manual_pool(world):
    catalog, server = world
    quality = _quality_batch(15, 5, catalog.num_items)
    requests = [
        Request(quality=quality[b], k=4, mode="topk-rerank", rerank_pool=20)
        for b in range(5)
    ]
    responses = server.serve(requests)
    for b, response in enumerate(responses):
        pool = top_k_indices(quality[b], 20)
        sliced = quality[b][pool][:, None] * catalog.factors[pool]
        local = greedy_map(LowRankKernel(sliced), 4)
        assert response.items == [int(pool[i]) for i in local]
        assert response.mode == "topk-rerank"


def test_server_serve_sequential_is_the_same_oracle(world):
    catalog, server = world
    quality = _quality_batch(16, 7, catalog.num_items)
    requests = [
        Request(
            quality=quality[b],
            k=3 + b % 3,
            mode=("sample", "map", "topk-rerank")[b % 3],
            seed=1300 + b,
        )
        for b in range(7)
    ]
    batched = server.serve(requests)
    sequential = server.serve_sequential(requests)
    for left, right in zip(batched, sequential):
        assert left.items == right.items
        if left.log_probability is None:
            assert right.log_probability is None
        else:
            assert np.isclose(left.log_probability, right.log_probability, rtol=1e-8)


def test_server_request_validation(world):
    catalog, server = world
    good = np.ones(catalog.num_items)
    with pytest.raises(ValueError, match="quality shape"):
        server.serve([Request(quality=np.ones(3), k=2)])
    with pytest.raises(ValueError, match="non-negative"):
        server.serve([Request(quality=-good, k=2)])
    with pytest.raises(ValueError, match="mode"):
        server.serve([Request(quality=good, k=2, mode="bogus")])
    with pytest.raises(ValueError, match="k must be positive"):
        server.serve([Request(quality=good, k=0)])
    with pytest.raises(ValueError, match="exceeds ground-set size"):
        server.serve([Request(quality=good, k=5, candidates=np.arange(3))])
    with pytest.raises(ValueError, match="unique"):
        server.serve([Request(quality=good, k=2, candidates=np.array([1, 1, 2]))])
    with pytest.raises(ValueError, match="exclusion ids"):
        server.serve([Request(quality=good, k=2, exclude=np.array([-1]))])
    with pytest.raises(ValueError, match="own candidate"):
        server.serve(
            [Request(quality=good, k=2, mode="topk-rerank", candidates=np.arange(5))]
        )
    with pytest.raises(ValueError):
        KDPPServer(catalog, config=ServingConfig(rerank_pool=0))


def test_server_uniform_quality_served_from_cached_spectrum(world):
    catalog, server = world
    # Constant-quality requests reuse the catalog's version-cached dual
    # spectrum: no per-batch dual build may happen for them.
    catalog.dual_spectrum()  # warm the version cache
    quality = np.full(catalog.num_items, 1.7)
    requests = [
        Request(quality=quality, k=4, mode="sample", seed=1500 + b) for b in range(4)
    ] + [Request(quality=quality, k=4, mode="map")]
    # Serving pins the current snapshot, so the guard patches it (not
    # the catalog facade) to prove no dual build happens.
    snap = catalog.snapshot()
    original = snap.build_duals
    snap.build_duals = lambda *_: (_ for _ in ()).throw(
        AssertionError("uniform requests must not rebuild duals")
    )
    try:
        responses = server.serve(requests)
    finally:
        snap.build_duals = original
    for b in range(4):
        items, log_probability = _manual_sample(
            catalog.factors, quality, 4, 1500 + b
        )
        assert responses[b].items == items
        assert np.isclose(responses[b].log_probability, log_probability, rtol=1e-8)
    # Exactly uniform quality ties every initial MAP gain, so batched
    # and per-user greedy may legitimately pick different (equally
    # greedy) sets; assert the response is self-consistent instead.
    map_response = responses[4]
    assert len(set(map_response.items)) == 4
    dpp = KDPP.from_factors(quality[:, None] * catalog.factors, 4)
    assert np.isclose(
        map_response.log_probability,
        dpp.log_subset_probability(map_response.items),
        rtol=1e-8,
    )


def test_small_groups_serve_the_same_slates_as_table_groups():
    # Groups below GRAM_PRODUCTS_MIN_BATCH build their duals directly and
    # every group lifts its sampler norms; a request must get the same
    # slate alone, in a direct-route group and in a table-route group.
    m, r, k = 2000, 16, 5
    factors = _factors(40, m, r)
    server = KDPPServer(ItemCatalog(factors))
    quality = _quality_batch(41, GRAM_PRODUCTS_MIN_BATCH, m)
    history, pin = [7, 300, 1200], 55

    def sample(b):
        return Request(quality=quality[b], k=k, mode="sample", seed=60 + b)

    def session(b):
        return Request(
            quality=quality[b], k=k, mode="map", history=history,
            pins=[pin] if b == 0 else None,
        )

    def given(shown):
        """Factor rows of the kernel conditioned on ``shown``: zeroed
        and deflated by an orthonormal basis of their raw rows."""
        basis, _ = np.linalg.qr(factors[shown].T)
        rows = quality[0][:, None] * factors
        rows[shown] = 0.0
        return rows - (rows @ basis) @ basis.T

    dpp = KDPP.from_factors(quality[0][:, None] * factors, k)
    cases = [
        (sample, dpp.sample(np.random.default_rng(60)), dpp),
        (
            lambda b: Request(quality=quality[b], k=k, mode="map"),
            greedy_map(LowRankKernel(quality[0][:, None] * factors), k),
            dpp,
        ),
        (
            session,
            [pin] + greedy_map(LowRankKernel(given(history + [pin])), k - 1),
            KDPP.from_factors(LowRankKernel(given(history)), k),
        ),
    ]
    for build, expected, oracle in cases:
        served = [
            server.serve([build(b) for b in range(size)])[0]
            for size in (1, GRAM_PRODUCTS_MIN_BATCH - 1, GRAM_PRODUCTS_MIN_BATCH)
        ]
        log_probability = oracle.log_subset_probability(expected)
        for response in served:
            assert response.items == list(expected)
            assert response.log_probability == pytest.approx(
                served[0].log_probability, abs=1e-10
            )
            assert response.log_probability == pytest.approx(
                log_probability, rel=1e-9
            )


def test_batch_builds_its_full_catalog_duals_in_one_call(monkeypatch):
    # Every full-catalog row that needs a dual — across modes, k values
    # and clean/session groups — goes through one build_duals call per
    # batch; uniform-quality rows use the cached spectrum and sliced rows
    # their own stack, so neither reaches the build.
    m, r = 1500, 16
    factors = _factors(44, m, r)
    quality = _quality_batch(45, 6, m)
    groups = [
        [Request(quality=quality[b], k=5, mode="sample", seed=90 + b) for b in (0, 1)],
        [Request(quality=quality[b], k=4, mode="map") for b in (2, 3)],
        [Request(quality=quality[4], k=4, mode="map", history=[3, 800, 1400])],
        [Request(quality=np.full(m, 1.3), k=5, mode="sample", seed=95)],
        [
            Request(
                quality=quality[5], k=4, mode="sample", seed=96,
                candidates=np.arange(100, 400),
            )
        ],
    ]
    batch = [request for group in groups for request in group]
    calls = []
    build_duals = CatalogSnapshot.build_duals

    def spy(snap, squared_quality):
        calls.append(np.array(squared_quality))
        return build_duals(snap, squared_quality)

    monkeypatch.setattr(CatalogSnapshot, "build_duals", spy)
    server = KDPPServer(ItemCatalog(factors))
    merged = server.serve(batch)
    (built,) = calls
    expected = quality[:5].copy()
    expected[4, [3, 800, 1400]] = 0.0  # shown items leave the ground set
    assert built.tobytes() == (expected**2).tobytes()
    assert built.shape[0] >= GRAM_PRODUCTS_MIN_BATCH

    # Served alone, each group reads the table too (unit threshold), so
    # its duals — and every log-probability — are byte-equal; on the
    # direct route they agree to round-off.
    solo = {}
    for threshold in (1, GRAM_PRODUCTS_MIN_BATCH):
        monkeypatch.setattr(catalog_module, "GRAM_PRODUCTS_MIN_BATCH", threshold)
        solo[threshold] = [
            response
            for group in groups
            for response in KDPPServer(ItemCatalog(factors)).serve(group)
        ]
    for response, table, direct in zip(merged, solo[1], solo[GRAM_PRODUCTS_MIN_BATCH]):
        assert response.items == table.items == direct.items
        assert response.log_probability == table.log_probability
        assert response.log_probability == pytest.approx(
            direct.log_probability, rel=1e-12
        )


def test_wide_factor_batches_serve_without_the_table(monkeypatch):
    # Past the table's size cap every group builds its duals directly,
    # so whether a request is served never depends on its batch-mates.
    factors = _factors(42, 300, 8)
    quality = _quality_batch(43, 8, 300)
    requests = [
        Request(quality=quality[b], k=4, mode="sample", seed=80 + b)
        for b in range(8)
    ]
    uncapped = KDPPServer(ItemCatalog(factors)).serve(requests)
    monkeypatch.setattr(CatalogSnapshot, "GRAM_PRODUCTS_MAX_BYTES", 1024)
    catalog = ItemCatalog(factors)
    capped = KDPPServer(catalog).serve(requests)
    assert [response.items for response in capped] == [
        response.items for response in uncapped
    ]
    with pytest.raises(ValueError, match="outer-product table"):
        catalog.gram_products()


def test_server_k_exceeds_effective_candidates_raises_clearly(world):
    """k above the positive-quality count must fail at validation, not
    surface a downstream eigensolver/ESP error — for every mode."""
    catalog, server = world
    sparse = np.zeros(catalog.num_items)
    sparse[:3] = 1.0  # only 3 selectable items
    for mode in ("sample", "map"):
        with pytest.raises(ValueError, match="effective candidate count 3"):
            server.serve([Request(quality=sparse, k=4, mode=mode)])
    # Exclusions shrink the effective set the same way.
    rich = np.ones(catalog.num_items)
    exclude = np.arange(catalog.num_items - 2)
    with pytest.raises(ValueError, match="effective candidate count 2"):
        server.serve([Request(quality=rich, k=3, mode="map", exclude=exclude)])
    # Candidate slices count only their own positive entries.
    sliced = np.zeros(catalog.num_items)
    sliced[10:12] = 1.0
    with pytest.raises(ValueError, match="effective candidate count 2"):
        server.serve(
            [Request(quality=sliced, k=3, mode="sample", candidates=np.arange(8, 14))]
        )
    # k within the effective count still works (and the error is not
    # about total ground size).
    fits = server.serve([Request(quality=sparse, k=3, mode="map")])
    assert sorted(fits[0].items) == [0, 1, 2]


def test_server_effective_count_error_names_request_in_hetero_batch(world):
    """A heterogeneous batch reports the offending request's index."""
    catalog, server = world
    good = _quality_batch(40, 2, catalog.num_items)
    starving = np.zeros(catalog.num_items)
    starving[5] = 2.0
    batch = [
        Request(quality=good[0], k=3, mode="sample", seed=1),
        Request(quality=good[1], k=5, mode="map"),
        Request(quality=starving, k=2, mode="sample", seed=2),
    ]
    with pytest.raises(ValueError, match="request 2: k=2 exceeds the effective"):
        server.serve(batch)
    with pytest.raises(ValueError, match="request 2"):
        server.serve_sequential(batch)
    # The same batch without the starving request serves fine.
    assert len(server.serve(batch[:2])) == 2


def test_server_responses_are_version_stamped(world):
    catalog, server = world
    quality = _quality_batch(41, 2, catalog.num_items)
    before = catalog.version
    responses = server.serve(
        [Request(quality=quality[b], k=3, mode="map") for b in range(2)]
    )
    assert all(response.version == before for response in responses)
    sequential = server.serve_sequential(
        [Request(quality=quality[0], k=3, mode="map")]
    )
    assert sequential[0].version == before


def test_server_rerank_pool_validation(world):
    catalog, server = world
    good = np.ones(catalog.num_items)
    for bad_pool in (0, -5):
        with pytest.raises(ValueError, match="rerank_pool"):
            server.serve(
                [Request(quality=good, k=2, mode="topk-rerank", rerank_pool=bad_pool)]
            )


def test_server_rank_below_k_raises_like_from_factors(world):
    catalog, server = world
    quality = np.ones(catalog.num_items)
    with pytest.raises(ValueError, match="rank is below"):
        server.serve([Request(quality=quality, k=catalog.rank + 1, mode="sample")])
    # MAP tolerates rank deficiency: it stops early like greedy_map.
    responses = server.serve(
        [Request(quality=quality, k=catalog.rank + 1, mode="map")]
    )
    assert len(responses[0].items) <= catalog.rank + 1
    assert responses[0].log_probability is None


# ----------------------------------------------------------------------
# RecommenderBridge
# ----------------------------------------------------------------------
def test_quality_from_scores_transforms():
    scores = np.array([-20.0, -1.0, 0.0, 2.0, 20.0])
    exp = quality_from_scores(scores, "exp")
    np.testing.assert_allclose(exp, np.exp(np.clip(scores, -12, 12)))
    tempered = quality_from_scores(scores, "exp", temperature=4.0)
    np.testing.assert_allclose(tempered, np.exp(np.clip(scores / 4.0, -12, 12)))
    sigmoid = quality_from_scores(scores, "sigmoid")
    np.testing.assert_allclose(sigmoid, 1.0 / (1.0 + np.exp(-scores)) + 1e-4)
    identity = quality_from_scores(scores, "identity")
    assert identity.min() >= 1e-4
    with pytest.raises(ValueError):
        quality_from_scores(scores, "bogus")
    with pytest.raises(ValueError):
        quality_from_scores(scores, "exp", temperature=0.0)


@pytest.fixture()
def bridge_world():
    num_users, num_items, r = 6, 50, 6
    factors = _factors(20, num_items, r)
    catalog = ItemCatalog(factors)
    model = MFRecommender(num_users, num_items, dim=8, rng=0)
    known = [
        np.random.default_rng(30 + u).choice(num_items, size=10, replace=False)
        for u in range(num_users)
    ]
    return model, catalog, known


def test_bridge_excludes_known_items_and_matches_server(bridge_world):
    model, catalog, known = bridge_world
    bridge = RecommenderBridge(model, catalog, known_items=known)
    responses = bridge.recommend([0, 1, 2], k=4, mode="map")
    for user, response in zip([0, 1, 2], responses):
        assert not set(known[user].tolist()) & set(response.items)
        quality = quality_from_scores(
            model.full_scores()[user], model.quality_transform
        )
        quality[known[user]] = 0.0
        expected = greedy_map(LowRankKernel(quality[:, None] * catalog.factors), 4)
        assert response.items == expected


def test_bridge_candidate_pool_restricts_ground_set(bridge_world):
    model, catalog, known = bridge_world
    bridge = RecommenderBridge(
        model, catalog, known_items=known, candidate_pool=15
    )
    responses = bridge.recommend([0, 1], k=4, mode="map")
    for user, response in zip([0, 1], responses):
        quality = bridge.quality_for_user(user).copy()
        quality[known[user]] = 0.0
        pool = set(top_k_indices(quality, 15).tolist())
        assert set(response.items) <= pool


def test_bridge_lru_cache_and_invalidation(bridge_world):
    model, catalog, known = bridge_world
    bridge = RecommenderBridge(model, catalog, known_items=known, cache_size=8)
    first = bridge.recommend([0, 1], k=3, mode="map")
    assert bridge.cache_misses == 2 and bridge.cache_hits == 0
    second = bridge.recommend([0, 1], k=3, mode="map")
    assert bridge.cache_hits == 2
    for left, right in zip(first, second):
        assert left.items == right.items
        assert right.cached and not left.cached
    # Callers own their responses: mutating one must not corrupt the cache.
    pristine = list(second[0].items)
    first[0].items.reverse()
    second[0].items.pop()
    assert bridge.recommend([0], k=3, mode="map")[0].items == pristine
    # Seeded samples are cacheable; unseeded ones are not.
    hits_after_mutation_check = bridge.cache_hits
    bridge.recommend([2], k=3, mode="sample", seeds=[7])
    bridge.recommend([2], k=3, mode="sample", seeds=[7])
    assert bridge.cache_hits == hits_after_mutation_check + 1
    hits_before = bridge.cache_hits
    bridge.recommend([2], k=3, mode="sample")
    bridge.recommend([2], k=3, mode="sample")
    assert bridge.cache_hits == hits_before
    # A catalog refresh changes the version, so stale entries miss.
    catalog.refresh(np.array(catalog.factors))
    bridge.recommend([0], k=3, mode="map")
    assert bridge.cache_misses >= 5


def test_bridge_cache_eviction(bridge_world):
    model, catalog, known = bridge_world
    bridge = RecommenderBridge(model, catalog, known_items=known, cache_size=2)
    bridge.recommend([0, 1, 2], k=3, mode="map")
    assert len(bridge._cache) == 2  # user 0 evicted
    bridge.recommend([0], k=3, mode="map")
    assert bridge.cache_hits == 0


def test_bridge_cache_thread_safety_under_concurrent_access(bridge_world):
    """Worker threads (the micro-batcher's callers) hammer one bridge:
    every response must stay correct, the LRU must respect its bound,
    and the hit/miss counters must reconcile — no lost updates."""
    import threading

    model, catalog, known = bridge_world
    bridge = RecommenderBridge(model, catalog, known_items=known, cache_size=3)
    users = list(range(6))
    expected = {}
    for user in users:
        quality = bridge.quality_for_user(user).copy()
        quality[known[user]] = 0.0
        expected[user] = greedy_map(
            LowRankKernel(quality[:, None] * catalog.factors), 4
        )
    rounds, errors = 25, []

    def hammer(offset: int) -> None:
        try:
            for i in range(rounds):
                user = users[(i + offset) % len(users)]
                response = bridge.recommend([user], k=4, mode="map")[0]
                assert response.items == expected[user], user
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(bridge._cache) <= 3  # eviction bound held under races
    total = 4 * rounds
    assert bridge.cache_hits + bridge.cache_misses == total
    assert bridge.cache_hits > 0  # reuse actually happened


def test_bridge_cache_eviction_under_concurrent_inserts(bridge_world):
    """Concurrent misses that all insert must still evict down to the
    configured size (the lock makes insert + evict atomic)."""
    import threading

    model, catalog, known = bridge_world
    bridge = RecommenderBridge(model, catalog, known_items=known, cache_size=2)
    barrier = threading.Barrier(3)

    def insert(user: int) -> None:
        barrier.wait()
        bridge.recommend([user], k=3, mode="map")

    threads = [threading.Thread(target=insert, args=(u,)) for u in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(bridge._cache) == 2
    assert bridge.cache_misses == 3


def test_bridge_cached_responses_carry_catalog_version(bridge_world):
    model, catalog, known = bridge_world
    bridge = RecommenderBridge(model, catalog, known_items=known)
    first = bridge.recommend([0], k=3, mode="map")[0]
    assert first.version == catalog.version
    again = bridge.recommend([0], k=3, mode="map")[0]
    assert again.cached and again.version == first.version


def test_bridge_validation(bridge_world):
    model, catalog, _ = bridge_world
    with pytest.raises(ValueError, match="catalog covers"):
        RecommenderBridge(
            MFRecommender(3, catalog.num_items + 1, dim=4, rng=0), catalog
        )
    with pytest.raises(ValueError, match="candidate_pool"):
        RecommenderBridge(model, catalog, candidate_pool=0)
    with pytest.raises(ValueError, match="cache_size"):
        RecommenderBridge(model, catalog, cache_size=-1)
    # cache_size=0 is a valid "no caching" configuration, not a crash.
    uncached = RecommenderBridge(model, catalog, cache_size=0)
    uncached.recommend([0], k=2, mode="map")
    uncached.recommend([0], k=2, mode="map")
    assert uncached.cache_hits == 0 and len(uncached._cache) == 0
    bridge = RecommenderBridge(model, catalog)
    with pytest.raises(ValueError, match="one seed per user"):
        bridge.recommend([0, 1], k=2, mode="sample", seeds=[1])
