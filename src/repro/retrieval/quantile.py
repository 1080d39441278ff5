"""Quantile-sketch funnels: threshold masks instead of argpartitions.

The exact funnel pays a row-wise ``argpartition`` over every shard's
full quality slice — an O(M) selection per request whose constant
dominates serving at catalog scale (the PR 4 funnel-bound ceiling).
:class:`QuantileFunnel` replaces the selection with a comparison:

1. **Sketch (once per catalog version).**  Each shard contributes a
   fixed random subsample of ``sketch_size`` item ids, drawn with a
   version-seeded RNG and cached on the snapshot's per-version
   ``extension`` hook.  The sketch is the quantile estimator: a
   request's quality over the sampled ids is an empirical distribution
   of its quality over the shard.
2. **Threshold (per batch).**  For each request and shard, the sketch
   yields a cutoff estimating the quality of the shard's
   ``overshoot × width``-th best item — one partition of the small
   ``(B, shards, sketch_size)`` stack instead of per-shard
   ``(B, shard_size)`` selections.
3. **Mask (per batch).**  Survivors are ``quality >= cutoff``, one
   vectorized comparison per shard slice written into a single boolean
   buffer; a single flat scan then extracts every ``(request, shard)``
   cell's survivors at once, and the final top-``width`` per cell runs
   batched over the padded ``(B · shards, ~overshoot × width)``
   survivor matrix — never over the catalog axis.

Exactness: if a cell's survivor count reaches ``width``, its cutoff was
at or below the shard's true ``width``-th quality value, so the top
``width`` among survivors *is* the exact per-shard top ``width`` — the
pool matches :class:`~repro.retrieval.exact.ExactTopK` item for item
(and, for tie-free qualities, order for order).  When the sketch
overshoots and the mask under-fills, the cell falls back to the exact
per-shard selection, counted in ``stats()["fallback_rows"]``.  The
``overshoot`` margin trades mask width (a few× more survivors to scan)
against fallback frequency; recall@funnel is 1.0 on every non-fallback
cell by construction and the retrieval benchmark measures it anyway,
alongside the funnel-time win this source exists for.

Degenerate geometries — a shard no wider than the funnel, or no wider
than the sketch — gain nothing from masking; the whole batch is then
served exactly (and counted as fallback rows), which keeps the source
safe to use on toy catalogs.

Non-finite quality follows :class:`~repro.retrieval.exact.ExactTopK`'s
order (NaN above every number): the mask keeps items that are *not
below* the cutoff, so NaN always survives, and every selection —
survivors and fallbacks alike — is
:func:`~repro.utils.topk.top_k_indices_rows`.  Survivors therefore
stay an upper set of the exact order, exactness on success still
holds, and a request's pool contains a NaN or ``+inf`` item exactly
when the exact funnel's would.
"""

from __future__ import annotations

import numpy as np

from ..utils.topk import top_k_indices_rows
from .base import CandidateSource, shard_offsets

__all__ = ["QuantileFunnel"]


class QuantileFunnel(CandidateSource):
    """Sketch-thresholded per-shard funnel (exact-on-success, see module).

    Parameters
    ----------
    sketch_size:
        Items sampled per shard for the quantile sketch.  Bigger
        sketches estimate cutoffs more tightly (fewer survivors to scan,
        fewer fallbacks) at O(sketch_size) per-request threshold cost.
    overshoot:
        Safety factor on the survivor target: the cutoff aims at the
        ``overshoot × width``-th best item so sampling error rarely
        pushes it above the true ``width``-th value.
    seed:
        Base seed of the version-keyed sketch RNG (the sketch for
        catalog version ``v`` is drawn from ``(seed, v)``, so hot-swaps
        re-sketch deterministically).
    """

    name = "quantile"

    def __init__(
        self, sketch_size: int = 512, overshoot: float = 4.0, seed: int = 0
    ) -> None:
        super().__init__()
        if sketch_size < 1:
            raise ValueError(f"sketch_size must be positive, got {sketch_size}")
        if overshoot < 1.0:
            raise ValueError(f"overshoot must be >= 1, got {overshoot}")
        self.sketch_size = int(sketch_size)
        self.overshoot = float(overshoot)
        self.seed = int(seed)

    # ------------------------------------------------------------------
    def _sketch(self, snapshot) -> np.ndarray:
        """The ``(shards, sketch_size)`` sampled global item ids, built
        once per catalog version (only called when every shard is wider
        than the sketch, so rows are rectangular)."""
        key = ("quantile-sketch", self.sketch_size, self.seed)

        def build(snap) -> np.ndarray:
            offsets = shard_offsets(snap)
            rng = np.random.default_rng([self.seed, snap.version])
            rows = []
            for s in range(offsets.shape[0] - 1):
                lo, hi = int(offsets[s]), int(offsets[s + 1])
                rows.append(
                    np.sort(rng.choice(hi - lo, size=self.sketch_size, replace=False))
                    + lo
                )
            return np.stack(rows)

        return snapshot.extension(key, build)

    # ------------------------------------------------------------------
    def _pools(
        self, quality: np.ndarray, width: int, snapshot
    ) -> tuple[np.ndarray, int]:
        offsets = shard_offsets(snapshot)
        sizes = np.diff(offsets)
        num_shards = sizes.shape[0]
        batch, total = quality.shape
        if int(sizes.min()) <= max(width, self.sketch_size):
            # Degenerate geometry: mask + sketch cannot pay for
            # themselves (see module docstring) — serve exactly.
            parts = []
            for s in range(num_shards):
                self._shard_tick(s)
                parts.append(
                    top_k_indices_rows(
                        quality[:, offsets[s] : offsets[s + 1]],
                        min(width, int(sizes[s])),
                    )
                    + int(offsets[s])
                )
            return np.concatenate(parts, axis=1), batch
        sketch = self._sketch(snapshot)
        sketch_size = sketch.shape[1]
        sketched = quality[:, sketch.ravel()].reshape(
            batch, num_shards, sketch_size
        )
        # Per-shard cutoff: the sketch's (overshoot*width/size)-quantile.
        targets = np.minimum(1.0, self.overshoot * width / sizes)
        ranks = np.clip(
            np.ceil(targets * sketch_size).astype(np.int64), 1, sketch_size
        )
        positions = sketch_size - ranks  # shard sizes differ by ±1, so
        kths = np.unique(positions)  # this is one or two distinct kths
        partitioned = np.partition(sketched, kths, axis=2)
        cutoffs = np.take_along_axis(
            partitioned, positions[None, :, None], axis=2
        )[:, :, 0]
        # Survivor mask, one shard slice at a time into one buffer, then
        # one flat scan; (request, shard) cell boundaries come from a
        # searchsorted against the flat indices (no second scan).
        # Survivors are "not below the cutoff" rather than ">= cutoff"
        # so NaN survives, as it would win an exact top-k (module doc).
        mask = np.empty((batch, total), dtype=bool)
        for s in range(num_shards):
            self._shard_tick(s)
            lo, hi = int(offsets[s]), int(offsets[s + 1])
            cell = mask[:, lo:hi]
            np.less(quality[:, lo:hi], cutoffs[:, s, None], out=cell)
            np.logical_not(cell, out=cell)
        flat = np.flatnonzero(mask)
        bounds = (
            np.arange(batch, dtype=np.int64)[:, None] * total
            + offsets[1:][None, :]
        ).ravel()
        cell_ends = np.searchsorted(flat, bounds)
        counts = np.diff(cell_ends, prepend=0)
        num_cells = counts.shape[0]
        filled = counts >= width
        # Scatter the ragged per-cell survivor lists into one padded
        # (cells, max_count) matrix (pads at -inf) and run the final
        # selection batched over the *survivors only* — a few×width
        # columns instead of the catalog axis, one argpartition for the
        # whole batch across all shards.
        max_count = max(int(counts.max()), width)
        cell_of = np.repeat(np.arange(num_cells), counts)
        rows = flat // total
        ids = flat - rows * total
        values = quality[rows, ids]
        slot = np.arange(flat.shape[0]) - np.repeat(cell_ends - counts, counts)
        padded_values = np.full((num_cells, max_count), -np.inf)
        padded_ids = np.zeros((num_cells, max_count), dtype=np.int64)
        padded_ids[cell_of, slot] = ids
        padded_values[cell_of, slot] = values
        top = top_k_indices_rows(padded_values, width)
        pools = np.take_along_axis(padded_ids, top, axis=1).reshape(
            batch, num_shards * width
        )
        fallback_rows = 0
        if not np.all(filled):
            # Rare sketch overshoot: redo the affected cells exactly.
            for cell in np.flatnonzero(~filled):
                fallback_rows += 1
                b, s = divmod(int(cell), num_shards)
                lo, hi = int(offsets[s]), int(offsets[s + 1])
                pools[b, s * width : (s + 1) * width] = (
                    top_k_indices_rows(quality[b : b + 1, lo:hi], width)[0] + lo
                )
        return pools, fallback_rows
