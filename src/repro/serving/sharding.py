"""Sharded catalogs: k-DPP serving past the single-dual-build ceiling.

Above ~10⁵ items the monolithic fast path starts to strain — the
outer-product table behind :meth:`CatalogSnapshot.build_duals` grows as
``O(M r²/2)`` and every full-catalog request drags ``O(M)`` state
through each sampling/MAP step.  :class:`ShardedCatalog` partitions the
item axis into contiguous per-shard :class:`CatalogSnapshot` slices, and
:class:`ShardedKDPPServer` serves them with a **shard-then-batch
funnel**:

1. every request's per-item quality funnels through a pluggable
   :class:`~repro.retrieval.base.CandidateSource` — by default the
   exact per-shard top-``w`` (:class:`~repro.retrieval.exact.ExactTopK`,
   two vectorized passes per shard for a whole request batch), or the
   approximate quantile-sketch / IVF sources of ``repro.retrieval`` —
   optionally short-circuited per user by a
   :class:`~repro.retrieval.cache.FunnelCache`;
2. the per-shard winners are merged into one candidate pool per request
   (disjoint global ids, shard order);
3. one **exact** k-DPP — Liu/Walder/Xie's LkP semantics, via the same
   batched dual build + stacked ``eigh`` + projector samplers the
   engine uses for candidate slices — runs over the merged pool.

The k-DPP stage is exact for *every* source: approximation, when
chosen, lives entirely in pool membership (step 1), which is why
recall@funnel is the one number that characterizes an approximate
source end to end (``benchmarks/bench_retrieval.py`` measures it along
with the NDCG delta).

Because the per-pool duals stay ``r × r`` (Gartrell/Paquet/Koenigstein's
low-rank construction), step 3 costs the same as serving a small
catalog: the funnel turns catalog scale into pool scale without
approximating the k-DPP on the pool.  Step 1 is where the catalog size
lives, and it is embarrassingly shardable — the levers later PRs pull
(per-shard processes, replicas) all slot in behind the same
:class:`ShardedSnapshot` read interface.

Parity contract (pinned by ``tests/test_runtime.py``): for the same
merged candidate pool, :meth:`ShardedKDPPServer.serve` returns exactly
what a monolithic :class:`KDPPServer` over the unsharded factors
returns for ``Request(candidates=pool)`` — identical seeded samples,
identical MAP selections, identical log-probabilities.  One caveat,
analogous to the engine's greedy-MAP tie caveat: quality values tied
*exactly at a pool cutoff* may break differently between per-shard and
whole-catalog top-k, so pool membership (and hence `topk-rerank`
equality with the monolithic server) is guaranteed only for tie-free
qualities — which continuous scores are almost surely.

Publication is double-buffered like :meth:`ItemCatalog.refresh`: a
:meth:`ShardedCatalog.publish` builds every new shard snapshot first,
then swaps one :class:`ShardedSnapshot` reference, so readers captured
mid-swap keep a consistent all-old view and never see shards from two
generations.
"""

from __future__ import annotations

import threading
from dataclasses import replace as dataclass_replace
from typing import Sequence

import numpy as np

from ..retrieval import ExactTopK
from ..retrieval.cache import session_token
from ..utils.topk import top_k_indices_rows
from .catalog import CatalogSnapshot, VersionedExtensions
from .config import ServingConfig
from .observability import StageRecorder, stage_span
from .server import (
    KDPPServer,
    Request,
    effective_request_quality,
    extend_pool_for_constraints,
)

__all__ = ["ShardedCatalog", "ShardedSnapshot", "ShardedKDPPServer"]


class ShardedSnapshot(VersionedExtensions):
    """One immutable published generation of all shard snapshots.

    Exposes the same read surface the serving engine needs from a
    :class:`CatalogSnapshot` (``num_items`` / ``rank`` / ``version`` /
    ``take_rows``), plus the shard-funnel primitive ``shard_topk``.
    """

    def __init__(
        self, shards: Sequence[CatalogSnapshot], offsets: np.ndarray, version: int
    ) -> None:
        self.shards = tuple(shards)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self._version = int(version)
        self._lock = threading.Lock()
        self._factors: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        return self._version

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def num_items(self) -> int:
        return int(self.offsets[-1])

    @property
    def rank(self) -> int:
        return self.shards[0].rank

    @property
    def factors(self) -> np.ndarray:
        """The concatenated ``(M, r)`` view (lazy; debugging/parity use —
        the serving paths only gather rows per shard)."""
        if self._factors is None:
            with self._lock:
                if self._factors is None:
                    stacked = np.concatenate([s.factors for s in self.shards])
                    stacked.setflags(write=False)
                    self._factors = stacked
        return self._factors

    def shard_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    # ------------------------------------------------------------------
    def take_rows(self, indices: np.ndarray) -> np.ndarray:
        """Gather factor rows for global item ids of any index shape.

        Ids are mapped to ``(shard, local)`` with one ``searchsorted``
        against the shard boundaries, then gathered shard by shard —
        no concatenated factor matrix is ever materialized.
        """
        indices = np.asarray(indices, dtype=np.int64)
        flat = indices.ravel()
        rows = np.empty((flat.shape[0], self.rank), dtype=np.float64)
        owners = np.searchsorted(self.offsets, flat, side="right") - 1
        for s, shard in enumerate(self.shards):
            positions = np.flatnonzero(owners == s)
            if positions.size:
                rows[positions] = np.take(
                    shard.factors, flat[positions] - self.offsets[s], axis=0
                )
        return rows.reshape(*indices.shape, self.rank)

    def shard_topk(self, quality: np.ndarray, width: int) -> np.ndarray:
        """Per-shard quality top-``width`` funnel for a request batch.

        ``quality`` is the ``(B, M)`` effective-quality stack; each shard
        contributes its ``min(width, shard size)`` highest-quality items
        per request (descending within a shard), reported as global ids
        and concatenated in shard order — every request's merged
        candidate pool is one row of the ``(B, P)`` result.  This is
        :class:`~repro.retrieval.exact.ExactTopK` (where the PR 4
        inlined implementation moved), kept as a snapshot method for
        direct callers and the parity tests.
        """
        return ExactTopK().pools(quality, width, self)


class ShardedCatalog:
    """Partitioned item catalog: contiguous shards, atomic publication."""

    def __init__(
        self, factors: np.ndarray, num_shards: int = 4, version: int = 0
    ) -> None:
        factors = np.asarray(factors)
        if factors.ndim != 2:
            raise ValueError(f"factors must be (M, r), got shape {factors.shape}")
        if not 1 <= num_shards <= factors.shape[0]:
            raise ValueError(
                f"num_shards must be in [1, {factors.shape[0]}], got {num_shards}"
            )
        bounds = np.linspace(0, factors.shape[0], num_shards + 1).astype(np.int64)
        self._offsets = bounds
        self._swap_lock = threading.Lock()
        self._current = self._build(factors, version)
        self._previous: ShardedSnapshot | None = None

    def _build(self, factors: np.ndarray, version: int) -> ShardedSnapshot:
        shards = [
            CatalogSnapshot(
                factors[self._offsets[s] : self._offsets[s + 1]], version
            )
            for s in range(len(self._offsets) - 1)
        ]
        return ShardedSnapshot(shards, self._offsets, version)

    # ------------------------------------------------------------------
    def snapshot(self) -> ShardedSnapshot:
        return self._current

    def publish(self, factors: np.ndarray) -> int:
        """Swap in retrained factors under the next version (atomic).

        All shard snapshots of the new generation are built (validated,
        copied, frozen) *before* the single reference assignment that
        publishes them; the displaced generation is retained as the back
        buffer for in-flight readers.  Returns the new version.
        """
        factors = np.asarray(factors)
        if factors.ndim != 2 or factors.shape[0] != self.num_items:
            raise ValueError(
                f"published factors must keep the catalog's item axis "
                f"({self.num_items}), got shape {factors.shape}"
            )
        with self._swap_lock:
            fresh = self._build(factors, self._current.version + 1)
            self._previous = self._current
            self._current = fresh
            return fresh.version

    #: the runtime hot-swaps either catalog flavor through one name.
    refresh = publish

    # ------------------------------------------------------------------
    @property
    def num_items(self) -> int:
        return int(self._offsets[-1])

    @property
    def num_shards(self) -> int:
        return len(self._offsets) - 1

    @property
    def rank(self) -> int:
        return self._current.rank

    @property
    def version(self) -> int:
        return self._current.version


class ShardedKDPPServer(KDPPServer):
    """Funnelled k-DPP serving over a :class:`ShardedCatalog`.

    Requests keep the full :class:`~repro.serving.server.Request`
    semantics (catalog-sized quality, per-request ``k``, exclusions,
    modes, seeds).  Serving *lowers* each request to an explicit
    candidate slice — the merged per-shard top-``funnel_width`` pool —
    and then reuses the engine's exact candidate-slice path, so the
    result over the pool is an exact k-DPP draw / greedy MAP, bit-equal
    to a monolithic :class:`KDPPServer` handed the same pool.

    ``funnel_width`` is the per-shard candidate budget (clipped to the
    shard size; at least ``k`` is always taken).  ``topk-rerank``
    requests funnel per-shard top-``rerank_pool`` and then keep the
    exact global top-``rerank_pool`` of the union — per-shard top-N
    contains global top-N, so for tie-free qualities the rerank pool
    matches the monolithic server's item for item (exact ties at the
    cutoff may resolve to different, equally-ranked members).  With an
    approximate ``source`` the same global re-selection runs over the
    approximate union instead.

    ``source`` picks the candidate-generation implementation (default:
    :class:`~repro.retrieval.exact.ExactTopK`, which keeps this server
    bit-identical to the pre-subsystem funnel).  ``funnel_cache``
    short-circuits the source for requests that carry a ``user`` id:
    repeat visitors within one catalog version reuse their pool.
    """

    def __init__(
        self, catalog: ShardedCatalog, config: ServingConfig | None = None
    ) -> None:
        config = config if config is not None else ServingConfig()
        super().__init__(catalog, config=config)  # type: ignore[arg-type]
        self.funnel_width = config.funnel_width
        self.source = config.source if config.source is not None else ExactTopK()
        self.funnel_cache = config.funnel_cache

    # ------------------------------------------------------------------
    def _funnel_pools(
        self,
        members: list[tuple[int, Request]],
        width: int,
        snap: ShardedSnapshot,
        stages: StageRecorder | None = None,
    ) -> list[np.ndarray]:
        """One pool per member: funnel cache first, then the source.

        Cache hits (requests carrying a ``user`` id with a pool already
        memoized for this catalog version and width) skip candidate
        generation entirely and never touch a catalog-sized vector.  The
        misses write their effective quality once, straight into the
        ``(B, M)`` source stack, run through ``self.source`` as one
        batch, and are written back for the next visit.
        """
        cache = self.funnel_cache
        pools: list[np.ndarray | None] = [None] * len(members)
        miss_rows: list[int] = []
        tokens: list[int | None] = [None] * len(members)
        for row, (_, request) in enumerate(members):
            if cache is not None and request.user is not None:
                # Exclusions and session history are zeroed into the
                # quality the funnel sees, so they are part of the
                # pool's identity — the token keys them exactly, and the
                # strided fingerprint reads the caller's raw vector (it
                # could miss a few zeroed entries anyway, and a cached
                # pool must never resurface an already-shown item).
                tokens[row] = session_token(request.exclude, request.history)
                hit = cache.get(
                    request.user,
                    snap.version,
                    width,
                    np.asarray(request.quality, dtype=np.float64),
                    tokens[row],
                )
                if hit is not None:
                    pools[row] = hit
                    continue
            miss_rows.append(row)
        if miss_rows:
            stacked = np.empty((len(miss_rows), snap.num_items))
            for out_row, row in enumerate(miss_rows):
                index, request = members[row]
                effective_request_quality(
                    request, index, out=stacked[out_row], check_values=False
                )
            # "source" nests inside the enclosing "funnel" span, so it
            # is marked nested — coverage sums must not count it twice.
            with stage_span(stages, "source", nested=True):
                fresh = self.source.pools(stacked, width, snap)
            for out_row, row in enumerate(miss_rows):
                pools[row] = fresh[out_row]
                _, request = members[row]
                if cache is not None and request.user is not None:
                    cache.put(
                        request.user,
                        snap.version,
                        width,
                        fresh[out_row],
                        np.asarray(request.quality, dtype=np.float64),
                        tokens[row],
                    )
        return pools  # type: ignore[return-value]

    def _lower(
        self,
        requests: Sequence[Request],
        snap: ShardedSnapshot,
        stages: StageRecorder | None = None,
    ) -> list[Request]:
        """Rewrite every request as an explicit merged-pool slice.

        Each request is validated here, once: the lowered request keeps
        the caller's already-checked fields (quality, exclusions,
        history, pins, ...) and only gains ``candidates`` — a pool that
        holds unique ids and contains the pins by construction — so the
        engine resolves it without validating again.  Funnel pools for
        same-width requests, rerank included, come from one
        :meth:`CandidateSource.pools` batch over the stacked effective
        qualities (cache hits excepted).

        Nothing here scans quality *values*: the finite/non-negative
        scan runs in ``_resolve``, on the pool only, so a bad value
        fails the request exactly when the funnel puts it in the pool
        (the policy is stated in :mod:`repro.retrieval.exact`).
        """
        lowered: list[Request | None] = [None] * len(requests)
        by_width: dict[int, list[tuple[int, Request]]] = {}
        for index, request in enumerate(requests):
            request.validate(snap.num_items, index)
            if request.candidates is not None:
                # Caller-specified slices bypass the funnel untouched
                # (the engine serves them as-is).
                lowered[index] = request
                continue
            if request.mode == "topk-rerank":
                pool_size = (
                    self.rerank_pool
                    if request.rerank_pool is None
                    else request.rerank_pool
                )
                width = max(pool_size, request.k)
            else:
                width = max(self.funnel_width, request.k)
            by_width.setdefault(width, []).append((index, request))
        for width, members in by_width.items():
            pools = self._funnel_pools(members, width, snap, stages)
            for (index, request), pool in zip(members, pools):
                mode = request.mode
                if mode == "topk-rerank":
                    # Exact global top-N over the union: per-shard top-N
                    # covers it, so rank the union and keep the winners
                    # (same NaN-first order as the funnel itself).
                    union = effective_request_quality(
                        request, index, pool, check_values=False
                    )
                    keep = min(width, union.shape[0])
                    pool = pool[top_k_indices_rows(union[None], keep)[0]]
                    mode = "map"
                # Constraint extras join *after* the cache/rerank stage:
                # the cached pool stays the pure funnel output (reusable
                # across constraint changes) while pins and quota'd
                # categories are guaranteed pool membership.  Only quota
                # top-ups read the catalog-sized quality.
                quality = (
                    effective_request_quality(request, index, check_values=False)
                    if request.quotas
                    else None
                )
                pool = extend_pool_for_constraints(
                    pool, quality, request.pins, request.quotas, request.categories
                )
                lowered[index] = dataclass_replace(
                    request, mode=mode, candidates=pool
                )
        return lowered  # type: ignore[return-value]

    def retrieval_stats(self) -> dict:
        """Funnel-side counters: the source's batches/rows/fallbacks/time
        plus the cache's hits/misses (None when no cache is attached) —
        what the retrieval benchmark reads to split funnel time from
        queue time."""
        return {
            "source": self.source.stats(),
            "cache": None if self.funnel_cache is None else self.funnel_cache.stats(),
        }

    @staticmethod
    def _restamp_modes(requests: Sequence[Request], responses: list) -> list:
        """Report the caller's mode for funnel-lowered rerank requests
        (the engine saw them as ``map`` over an explicit slice).
        ``Response`` is frozen, so restamping builds replacements."""
        return [
            dataclass_replace(response, mode="topk-rerank")
            if request.mode == "topk-rerank" and request.candidates is None
            else response
            for request, response in zip(requests, responses)
        ]

    # ------------------------------------------------------------------
    def serve(
        self,
        requests: Sequence[Request],
        snapshot: ShardedSnapshot | None = None,
        stages: StageRecorder | None = None,
    ) -> list:
        snap = self._pin(snapshot)
        with stage_span(stages, "funnel"):
            lowered = self._lower(requests, snap, stages)
        responses = self._serve_batch(lowered, snap, stages, validated=True)
        return self._restamp_modes(requests, responses)

    def serve_sequential(
        self,
        requests: Sequence[Request],
        snapshot: ShardedSnapshot | None = None,
    ) -> list:
        snap = self._pin(snapshot)
        responses = super().serve_sequential(
            self._lower(requests, snap), snapshot=snap
        )
        return self._restamp_modes(requests, responses)

    def funnel_pool(self, request: Request, snapshot: ShardedSnapshot | None = None) -> np.ndarray:
        """The merged candidate pool this server would build for one
        request — exposed so callers (tests, monolithic parity baselines)
        can serve the identical pool elsewhere."""
        snap = self._pin(snapshot)
        lowered = self._lower([request], snap)[0]
        if lowered.candidates is None:  # pragma: no cover - lowering always slices
            raise RuntimeError("lowering produced no candidate pool")
        return np.asarray(lowered.candidates, dtype=np.int64)
