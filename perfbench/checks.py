"""Correctness checks: every served slate, plus oracle checks on a probe batch.

``slate_problem`` is the per-response validity check every response of a
run goes through (k distinct in-range ids, no history item, pins first,
a finite ``log_probability``, not degraded).  ``oracle_problems``
recomputes a probe batch's answers with the repository's reference
routes instead of the batched serving paths: greedy MAP via
``greedy_map(LowRankKernel(...), k, candidates)`` and Eq. 4 via
``KDPP.from_factors(...).log_subset_probability``, both over a pool and
a history-conditioned kernel this module builds on its own.
"""

from __future__ import annotations

import numpy as np

LOG_PROBABILITY_TOLERANCE = 1e-8


def slate_problem(request, response, meta, num_items: int) -> str | None:
    """Why ``response`` is not a valid slate for ``request`` (None if it is)."""
    if isinstance(response, BaseException):
        return f"failed: {type(response).__name__}: {response}"
    if response.degraded:
        return f"degraded to {response.served_mode}"
    items = np.asarray(response.items, dtype=np.int64)
    if items.shape != (request.k,):
        return f"{items.shape[0]} items for k={request.k}"
    if np.unique(items).shape[0] != items.shape[0]:
        return f"duplicate ids in {items.tolist()}"
    if items.min() < 0 or items.max() >= num_items:
        return f"ids out of range in {items.tolist()}"
    if meta.history is not None and np.isin(items, meta.history).any():
        return "slate repeats a shown (history) item"
    if meta.pins is not None and not np.array_equal(
        items[: meta.pins.shape[0]], meta.pins
    ):
        return f"pins {meta.pins.tolist()} do not lead {items.tolist()}"
    value = response.log_probability
    if value is None or not np.isfinite(value) or value > 1e-9:
        return f"log_probability {value} is not a finite log-probability"
    return None


def _orthonormal(rows: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis (r, s) of the row span, or None when empty."""
    if rows.size == 0:
        return None
    u, s, _ = np.linalg.svd(rows.T, full_matrices=False)
    keep = s > max(rows.shape) * np.finfo(np.float64).eps * s[0]
    return u[:, keep] if keep.any() else None


def _top(values: np.ndarray, width: int) -> np.ndarray:
    order = np.argsort(-values, kind="stable")
    return order[:width]


def expected_pool(request, spec: dict, num_items: int) -> np.ndarray | None:
    """The candidate pool the request's k-DPP must run over (None: the
    whole catalog), built from the request alone: per-shard quality
    top-``funnel_width`` for sharded catalogs, the global top
    ``rerank_pool`` for ``topk-rerank``, pins appended."""
    quality = np.asarray(request.quality, dtype=np.float64).copy()
    if request.history is not None:
        quality[np.asarray(request.history)] = 0.0
    pool = None
    if request.mode == "topk-rerank":
        pool = _top(quality, max(spec["rerank_pool"], request.k))
    elif spec["catalog"] == "sharded":
        bounds = np.linspace(0, num_items, spec["num_shards"] + 1).astype(np.int64)
        width = max(spec["funnel_width"], request.k)
        pool = np.concatenate(
            [
                _top(quality[lo:hi], min(width, hi - lo)) + lo
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
        )
    if pool is not None and request.pins is not None:
        extra = [int(p) for p in request.pins if p not in set(pool.tolist())]
        pool = np.concatenate([pool, np.asarray(extra, dtype=np.int64)])
    return pool


def oracle_problems(requests, responses, factors: np.ndarray, spec: dict) -> list[str]:
    """Recompute each (valid) probe slate with the reference routes."""
    from repro.dpp import KDPP, LowRankKernel, greedy_map

    problems = []
    num_items = factors.shape[0]
    for index, (request, response) in enumerate(zip(requests, responses)):
        pool = expected_pool(request, spec, num_items)
        ground = np.arange(num_items) if pool is None else pool
        quality = np.asarray(request.quality, dtype=np.float64)[ground].copy()
        if request.history is not None:
            quality[np.isin(ground, request.history)] = 0.0
        if request.alpha != 1.0:
            quality = np.minimum(quality ** (1.0 / request.alpha), 1e150)
        rows = quality[:, None] * factors[ground]
        if request.history is not None:
            basis = _orthonormal(factors[np.asarray(request.history)])
            if basis is not None:
                rows = rows - (rows @ basis) @ basis.T
        position = {int(item): i for i, item in enumerate(ground)}
        try:
            local = [position[int(item)] for item in response.items]
        except KeyError:
            problems.append(f"probe {index}: slate leaves the candidate pool")
            continue
        if request.mode != "sample":
            pinned = [] if request.pins is None else [position[int(p)] for p in request.pins]
            greedy_rows = rows
            if pinned:
                basis = _orthonormal(rows[pinned])
                if basis is not None:
                    greedy_rows = rows - (rows @ basis) @ basis.T
            free = np.setdiff1d(np.arange(ground.shape[0]), pinned)
            picks = greedy_map(
                LowRankKernel(greedy_rows), request.k - len(pinned), candidates=free
            )
            expected = [int(ground[i]) for i in pinned + picks]
            if expected != list(response.items):
                problems.append(
                    f"probe {index}: MAP slate {list(response.items)} != "
                    f"greedy_map oracle {expected}"
                )
        oracle = KDPP.from_factors(LowRankKernel(rows), request.k)
        expected_lp = oracle.log_subset_probability(local)
        if not abs(expected_lp - response.log_probability) <= LOG_PROBABILITY_TOLERANCE:
            problems.append(
                f"probe {index}: log_probability {response.log_probability!r} != "
                f"Eq. 4 oracle {expected_lp!r}"
            )
    return problems
