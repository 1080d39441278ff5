"""The exact per-shard top-k funnel — PR 4's inlined path, as a source.

This is the parity oracle of the retrieval subsystem: pool membership
*and* within-shard ordering are exact (descending quality, stable under
the same tie-breaking as :func:`~repro.utils.topk.top_k_indices`), so a
:class:`~repro.serving.sharding.ShardedKDPPServer` running this source
reproduces the pre-subsystem funnel bit for bit — including identical
seeded samples downstream.  Cost: one row-wise ``argpartition`` per
shard, straight on the ``(B, shard_size)`` quality slice (no negated
copy), plus a ``(B, width)`` sort of the winners — the O(M)-per-request
scan the approximate sources exist to avoid.

Non-finite and negative quality (the policy
:class:`~repro.retrieval.quantile.QuantileFunnel` shares): NaN and
``+inf`` rank above every number, so such an item always enters its
shard's pool — after the finite winners — and the engine's value scan
of the pool then fails the request with a request-indexed
``ValueError``.  Negative and ``-inf`` quality rank below every
non-negative value, so such an item enters a pool only when its shard
has fewer than ``width`` non-negative items (and then fails the request
the same way); otherwise the request is served without it.
"""

from __future__ import annotations

import numpy as np

from ..utils.topk import top_k_indices_rows
from .base import CandidateSource, shard_offsets

__all__ = ["ExactTopK"]


class ExactTopK(CandidateSource):
    """Exact vectorized per-shard quality top-``width`` candidate pools."""

    name = "exact"

    def _pools(
        self, quality: np.ndarray, width: int, snapshot
    ) -> tuple[np.ndarray, int]:
        offsets = shard_offsets(snapshot)
        parts = []
        for s in range(offsets.shape[0] - 1):
            self._shard_tick(s)
            lo, hi = int(offsets[s]), int(offsets[s + 1])
            local_width = min(width, hi - lo)
            parts.append(top_k_indices_rows(quality[:, lo:hi], local_width) + lo)
        return np.concatenate(parts, axis=1), 0
