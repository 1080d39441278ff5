"""Full-catalog selection: the two-level block sampler and the certified
top-C greedy MAP.

The sampler is checked against exact enumeration and against per-user
``KDPP.from_factors(...).sample`` draws with a block size small enough
that several blocks and a partial tail block take part; the greedy MAP
certificate is checked on the inputs where it holds and where it must
fail and fall back to the whole-catalog rounds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dpp import (
    KDPP,
    LowRankKernel,
    batched_greedy_map_shared,
    batched_sample_elementary_shared,
    greedy_map,
)
from repro.dpp import kdpp as kdpp_module
from repro.dpp import map_inference
from repro.serving import ItemCatalog, KDPPServer, Request, ServingConfig, ServingRuntime
from repro.serving import server as server_module
from repro.utils.timing import ManualClock


def _factors(seed: int, m: int, r: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    factors = rng.normal(size=(m, r))
    return factors / np.linalg.norm(factors, axis=1, keepdims=True)


def _quality(seed: int, m: int, sigma: float = 0.5) -> np.ndarray:
    return np.exp(np.random.default_rng(seed).normal(scale=sigma, size=m))


# ----------------------------------------------------------------------
# Two-level block sampler
# ----------------------------------------------------------------------
def test_block_sampler_matches_enumeration(monkeypatch):
    # M=9 in blocks of 4: two full blocks and a one-item tail block.
    monkeypatch.setattr(kdpp_module, "_BLOCK", 4)
    m, k, draws = 9, 3, 3000
    factors = _factors(0, m, 5)
    quality = _quality(1, m)
    quality[6] = 0.0
    server = KDPPServer(ItemCatalog(factors))
    counts: dict[frozenset[int], int] = {}
    for start in range(0, draws, 100):
        requests = [
            Request(quality=quality, k=k, mode="sample", seed=start + i)
            for i in range(100)
        ]
        for response in server.serve(requests):
            subset = frozenset(response.items)
            assert len(subset) == k and 6 not in subset
            counts[subset] = counts.get(subset, 0) + 1
    exact = KDPP.from_factors(quality[:, None] * factors, k).enumerate_probabilities()
    tv = 0.5 * sum(
        abs(counts.get(subset, 0) / draws - probability)
        for subset, probability in exact.items()
    )
    assert tv < 0.06


def _deflated_factors(factors, quality, history):
    """Factor rows of the kernel conditioned on shown ``history``."""
    base = quality.copy()
    base[history] = 0.0
    rows = base[:, None] * factors
    _, _, vt = np.linalg.svd(factors[history], full_matrices=False)
    return rows - (rows @ vt.T) @ vt


def test_block_sampler_reproduces_per_user_draws():
    # M=1000 at the default block size: seven full blocks and a tail.
    m, r, k = 1000, 16, 6
    assert m % kdpp_module._BLOCK
    factors = _factors(2, m, r)
    server = KDPPServer(ItemCatalog(factors))
    rng = np.random.default_rng(3)
    requests, oracles = [], []
    for b in range(12):
        quality = _quality(10 + b, m)
        exclude = rng.choice(m, size=40, replace=False) if b % 3 == 1 else None
        history = rng.choice(m, size=5, replace=False) if b % 4 == 2 else None
        requests.append(
            Request(
                quality=quality,
                k=k,
                mode="sample",
                seed=40 + b,
                exclude=exclude,
                history=history,
            )
        )
        effective = quality.copy()
        if exclude is not None:
            effective[exclude] = 0.0
        if history is not None:
            oracle = _deflated_factors(factors, effective, history)
        else:
            oracle = effective[:, None] * factors
        oracles.append(oracle)
    responses = server.serve(requests)
    for b, (response, oracle) in enumerate(zip(responses, oracles)):
        expected = KDPP.from_factors(oracle, k).sample(np.random.default_rng(40 + b))
        assert response.items == list(expected)


class _TopOfUnitInterval:
    """Always draws ``u = 1``, so ``u * total`` is exactly the CDF's
    total: the inversion lands on the last block holding any computed
    mass, rounding residue included."""

    def random(self) -> float:
        return 1.0


def test_block_sampler_never_returns_a_massless_item(monkeypatch):
    # One item per block, exact duplicate rows (a duplicate of a pick
    # keeps only rounding mass) and zero-quality items.
    monkeypatch.setattr(kdpp_module, "_BLOCK", 1)
    m, k = 30, 4
    factors = _factors(4, m, 6)
    factors[15:] = factors[:15]
    quality = _quality(5, m)
    quality[[2, 9, 20, 27]] = 0.0
    server = KDPPServer(ItemCatalog(factors))
    requests = [
        Request(quality=quality, k=k, mode="sample", seed=seed) for seed in range(400)
    ]
    for response in server.serve(requests):
        assert len(set(response.items)) == k
        assert np.all(quality[response.items] > 0)
    # The rounding edge: catalogs ending in duplicates of their head,
    # sampled at u = 1 so every step inverts onto the last massive block.
    for seed in range(100):
        rng = np.random.default_rng(seed)
        factors = rng.normal(size=(12, 6))
        factors[-4:] = factors[:4]
        quality = np.exp(rng.normal(size=12))
        quality[5] = 0.0
        rows = quality[:, None] * factors
        eigenvalues, eigenvectors = np.linalg.eigh(rows.T @ rows)
        lift = eigenvectors[:, -k:] / np.sqrt(eigenvalues[-k:])
        (slate,) = batched_sample_elementary_shared(
            factors, quality[None], lift[None], [_TopOfUnitInterval()]
        )
        assert len(set(slate)) == k
        assert np.all(quality[slate] > 0)
        assert np.linalg.matrix_rank(rows[slate]) == k


# ----------------------------------------------------------------------
# Certified top-C greedy MAP
# ----------------------------------------------------------------------
def _certified(factors, quality, k):
    fallbacks = []
    picks = batched_greedy_map_shared(
        factors, quality, k, on_fallback=fallbacks.append
    )
    return picks, sum(fallbacks)


def _unrestricted(monkeypatch, factors, quality, k):
    with monkeypatch.context() as patch:
        patch.setattr(map_inference, "_MAP_CANDIDATES", factors.shape[0])
        return batched_greedy_map_shared(factors, quality, k)


def _assert_matches_references(monkeypatch, factors, quality, k, picks):
    assert picks == _unrestricted(monkeypatch, factors, quality, k)
    for b, row in enumerate(picks):
        assert row == greedy_map(LowRankKernel(quality[b][:, None] * factors), k)


@pytest.mark.parametrize(
    "sigma, k, expected_fallbacks", [(1.0, 5, 0), (0.05, 8, 4), (0.0, 5, 4)]
)
def test_certificate_holds_on_skewed_and_falls_back_on_flat_quality(
    monkeypatch, sigma, k, expected_fallbacks
):
    m, r, batch = 1000, 8, 4
    factors = _factors(6, m, r)
    quality = np.stack([_quality(20 + b, m, sigma) for b in range(batch)])
    picks, fallbacks = _certified(factors, quality, k)
    assert fallbacks == expected_fallbacks
    _assert_matches_references(monkeypatch, factors, quality, k, picks)


def test_certificate_with_rank_below_k_stops_early(monkeypatch):
    monkeypatch.setattr(map_inference, "_MAP_CANDIDATES", 8)
    m, k, batch = 60, 6, 3
    factors = _factors(7, m, 3)
    quality = np.stack([_quality(30 + b, m) for b in range(batch)])
    picks, _ = _certified(factors, quality, k)
    assert all(len(row) < k for row in picks)
    _assert_matches_references(monkeypatch, factors, quality, k, picks)


def test_certificate_skips_restriction_when_candidates_cover_the_catalog(
    monkeypatch,
):
    m, k = 40, 4
    monkeypatch.setattr(map_inference, "_MAP_CANDIDATES", m - 1)
    factors = _factors(8, m, 6)
    # Exactly uniform quality: a restriction here would fail its
    # certificate, so no fallback shows that none was applied.
    quality = np.ones((2, m))
    picks, fallbacks = _certified(factors, quality, k)
    assert fallbacks == 0
    _assert_matches_references(monkeypatch, factors, quality, k, picks)


def test_map_certificate_fallbacks_are_counted_by_the_runtime():
    m = 1000
    catalog = ItemCatalog(_factors(9, m, 8))
    config = ServingConfig(workers=0, clock=ManualClock())
    with ServingRuntime(catalog, config=config) as rt:

        def fallbacks() -> float:
            metrics = rt.telemetry().snapshot()["metrics"]
            series = metrics["serving_map_certificate_fallbacks_total"]["series"]
            return series[0]["value"]

        def serve(quality) -> None:
            future = rt.submit(Request(quality=quality, k=8, mode="map"))
            rt.flush()
            future.result()

        serve(_quality(40, m, sigma=1.0))
        assert fallbacks() == 0
        serve(_quality(41, m, sigma=0.05))
        assert fallbacks() == 1


def test_item_norms_are_built_once_per_version(monkeypatch):
    m, r = 500, 8
    builds = []

    def counted(snap):
        builds.append(snap.version)
        return (snap.factors**2).sum(axis=1)

    monkeypatch.setattr(server_module, "_item_norms", counted)
    catalog = ItemCatalog(_factors(10, m, r))
    config = ServingConfig(workers=0, clock=ManualClock())
    with ServingRuntime(catalog, config=config) as rt:

        def serve_maps() -> None:
            for seed in range(3):
                future = rt.submit(Request(quality=_quality(seed, m), k=4, mode="map"))
                rt.flush()
                future.result()

        first = rt.catalog.version
        assert "extensions" not in rt.footprint().versions[first]
        serve_maps()
        assert builds == [first]
        assert rt.footprint().versions[first]["extensions"] == m * 8
        second = rt.publish(_factors(11, m, r))
        assert "extensions" not in rt.footprint().versions[second]
        serve_maps()
        assert builds == [first, second]
        assert rt.footprint().versions[second]["extensions"] == m * 8
