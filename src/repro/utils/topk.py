"""Top-k selection helpers for ranking evaluation."""

from __future__ import annotations

import numpy as np

__all__ = ["top_k_indices", "top_k_indices_rows", "rank_of_items"]


def top_k_indices(scores: np.ndarray, k: int, exclude: np.ndarray | None = None) -> np.ndarray:
    """Indices of the k highest scores, in descending score order.

    Parameters
    ----------
    scores:
        1-D score vector over the catalog.
    k:
        List length; truncated to the number of rankable items.
    exclude:
        Item ids never to recommend (the user's training/validation
        interactions, per standard leave-out evaluation).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if exclude is not None and len(exclude) > 0:
        scores = scores.copy()
        scores[np.asarray(exclude, dtype=np.int64)] = -np.inf
    k = min(k, int(np.isfinite(scores).sum()))
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    candidates = np.argpartition(-scores, k - 1)[:k]
    return candidates[np.argsort(-scores[candidates], kind="stable")]


def top_k_indices_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Row-wise :func:`top_k_indices` for a ``(B, M)`` score stack.

    One ``argpartition`` + one ``argsort`` over the whole stack instead
    of B python-level calls — :class:`~repro.retrieval.exact.ExactTopK`
    runs this per shard to build every request's candidate pool in two
    vectorized passes (and the approximate sources fall back to it row
    by row).  The partition selects the top ``k`` in place of the
    ``(B, M)`` stack (at position ``M - k``), so no negated copy of the
    stack is made; only the ``(B, k)`` winners are sorted descending.
    ``k`` must not exceed the row length.  Returns ``(B, k)`` indices in
    descending score order per row.

    NaN ranks above every number in the partition (numpy sorts NaN
    last), so a NaN entry is always among its row's ``k`` winners —
    placed after the finite ones.  ``-inf`` and negative scores rank
    below every non-negative one.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"expected a (B, M) score stack, got {scores.shape}")
    size = scores.shape[1]
    if not 1 <= k <= size:
        raise ValueError(f"k must be in [1, {size}], got {k}")
    if k == size:
        candidates = np.broadcast_to(np.arange(k), (scores.shape[0], k))
    else:
        candidates = np.argpartition(scores, size - k, axis=1)[:, size - k :]
    picked = np.take_along_axis(scores, candidates, axis=1)
    order = np.argsort(-picked, axis=1, kind="stable")
    return np.take_along_axis(candidates, order, axis=1)


def rank_of_items(scores: np.ndarray, items: np.ndarray) -> np.ndarray:
    """0-based rank of each item under descending ``scores``."""
    order = np.argsort(-scores, kind="stable")
    positions = np.empty_like(order)
    positions[order] = np.arange(order.shape[0])
    return positions[np.asarray(items, dtype=np.int64)]
