"""The shared item-factor snapshot behind the serving engine.

Serving a k-DPP recommendation is per-user only in a rank-r reweighting:
every user's kernel is ``L_u = Diag(q_u) V Vᵀ Diag(q_u)`` (Eq. 2) over
the *same* item factor matrix ``V``.  :class:`ItemCatalog` publishes
that shared state as a sequence of immutable :class:`CatalogSnapshot`
versions.  Each snapshot precomputes everything requests can reuse:

* the ``r × r`` Gram ``VᵀV`` and its eigendecomposition, built lazily
  and exactly once per version;
* the symmetric outer-product table ``P[m] = vec(v_m v_mᵀ)`` (upper
  triangle), which turns at least ``GRAM_PRODUCTS_MIN_BATCH`` dual
  kernels ``C_u = Vᵀ Diag(q_u²) V = Σ_m q_um² v_m v_mᵀ`` into a single
  ``(B, M) @ (M, r(r+1)/2)`` matmul.  The serving engine makes one
  :meth:`CatalogSnapshot.build_duals` call per batch, over all of the
  batch's full-catalog rows that need a dual; fewer rows than the
  threshold are built directly from ``V`` and never touch the table.
  The table is built lazily, on the first call that reads it, by
  filling a preallocated array in place.

Hot-swap contract (the serving runtime relies on it): a snapshot is a
plain immutable object, so a reader that captured one — via
:meth:`ItemCatalog.snapshot` — keeps serving from it no matter how many
:meth:`ItemCatalog.refresh` calls happen meanwhile.  ``refresh`` is
double-buffered: it validates, copies and freezes the new factors
*before* publishing them with one reference assignment, and keeps the
previous snapshot alive so in-flight readers never race a teardown.
The new snapshot's derived state starts empty and is built on first
use.  Response caches and spectrum caches key on the version token
alone.
"""

from __future__ import annotations

import threading

import numpy as np

from ..dpp.diversity_kernel import DiversityKernelLearner
from ..dpp.kernels import clip_dual_spectrum
from ..utils import lanes

__all__ = ["CatalogSnapshot", "ItemCatalog", "VersionedExtensions"]

#: fewest rows of one :meth:`CatalogSnapshot.build_duals` call — the
#: serving engine makes one per batch, so this counts a batch's
#: full-catalog rows that need a dual — built from the outer-product
#: table.  One table matmul reads all ``M r(r+1)/2`` entries whatever
#: the row count, while a direct ``(V q_b)ᵀ(V q_b)`` reads only ``M r``
#: per row.  Inside ``KDPPServer.serve`` at M=2e4, r=32, one BLAS thread
#: per lane, the table route (its matmul split across the two lanes)
#: takes 5.4-5.7 ms at two rows against 6.3-6.6 ms direct, and wins by
#: more from three rows on; one row is 2.9 ms direct against 8+ ms.  A
#: process confined to one CPU runs the table matmul in one lane, where
#: direct stays ahead up to three rows.
GRAM_PRODUCTS_MIN_BATCH = 2

#: item rows per tile of the outer-product table fill: a tile's factor
#: rows and its ``r(r+1)/2``-wide slice of the table (1 MB at r=32) stay
#: in cache across the tile's ``r`` broadcast multiplies
_FILL_TILE_ROWS = 256

#: distinguishes "extension never built" from a legitimately-None build
#: result (e.g. an IVF index declining a too-small shard)
_UNBUILT = object()


class VersionedExtensions:
    """Per-version ``extension(key, build)`` cache, shared by both
    snapshot flavors (:class:`CatalogSnapshot` and
    :class:`~repro.serving.sharding.ShardedSnapshot`).

    The retrieval subsystem hangs its index structures here — a
    :class:`~repro.retrieval.quantile.QuantileFunnel` sketch, an
    :class:`~repro.retrieval.ivf.IVFIndex` k-means layout — so the
    "built lazily, exactly once per version, invalidated by snapshot
    creation" contract of the Gram/spectrum caches extends to any
    per-version index without the snapshot knowing its type.  Hosts
    provide ``self._lock``; ``build(snapshot)`` runs under it the first
    time ``key`` (any hashable) is seen — ``None`` results included —
    and later calls are lock-free reads.
    """

    _lock: threading.Lock

    def extension(self, key, build):
        extensions = self.__dict__.setdefault("_extensions", {})
        value = extensions.get(key, _UNBUILT)
        if value is _UNBUILT:
            with self._lock:
                if key in extensions:
                    value = extensions[key]
                else:
                    value = extensions[key] = build(self)
        return value


class CatalogSnapshot(VersionedExtensions):
    """One immutable published version of the ``(M, r)`` factors ``V``.

    All derived state (Gram, dual spectrum, outer-product table) is
    built lazily under the snapshot's own lock, so concurrent serving
    threads compute each piece exactly once per version and later reads
    are lock-free dictionary-style attribute hits.
    """

    #: refuse to build an outer-product table beyond this size — the
    #: table is O(M r²/2) and wide factor matrices (e.g. the identity-
    #: augmented ``shrink > 0`` form, rank r + M) would silently turn
    #: the dual build into a terabyte allocation; :meth:`build_duals`
    #: takes the direct route for them at every group size
    GRAM_PRODUCTS_MAX_BYTES = 1 << 31

    def __init__(self, factors: np.ndarray, version: int) -> None:
        factors = np.array(factors, dtype=np.float64, copy=True)
        if factors.ndim != 2:
            raise ValueError(f"factors must be (M, r), got shape {factors.shape}")
        if not np.all(np.isfinite(factors)):
            raise ValueError("factors contain non-finite entries")
        factors.setflags(write=False)
        self._factors = factors
        self._version = int(version)
        self._lock = threading.Lock()
        self._gram: np.ndarray | None = None
        self._gram_products: np.ndarray | None = None
        self._spectrum: tuple[np.ndarray, np.ndarray] | None = None
        self._triu = np.triu_indices(factors.shape[1])
        #: how many times the dual spectrum was actually eigendecomposed
        #: for this version — the hot-swap tests pin this to exactly 1.
        self.spectrum_builds = 0

    # ------------------------------------------------------------------
    @property
    def factors(self) -> np.ndarray:
        """The read-only ``(M, r)`` factor snapshot."""
        return self._factors

    @property
    def num_items(self) -> int:
        return self._factors.shape[0]

    @property
    def rank(self) -> int:
        return self._factors.shape[1]

    @property
    def version(self) -> int:
        return self._version

    def take_rows(self, indices: np.ndarray) -> np.ndarray:
        """Gather factor rows for an integer index array of any shape.

        The monolithic snapshot is a plain fancy-index; the sharded
        twin (:class:`~repro.serving.sharding.ShardedSnapshot`)
        reimplements this as a per-shard gather — the serving engine's
        candidate-slice path only ever touches factors through here.
        """
        return self._factors[indices]

    # ------------------------------------------------------------------
    def gram(self) -> np.ndarray:
        """``VᵀV`` — the unweighted dual kernel, computed once per version."""
        if self._gram is None:
            with self._lock:
                if self._gram is None:
                    self._gram = self._factors.T @ self._factors
        return self._gram

    def dual_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition of :meth:`gram`, built once per version.

        This is the exact serving state for uniform-quality requests
        (``q_u = 1`` makes ``C_u = VᵀV``) and the warm-start diagnostic
        spectrum for everything else; eigenvalues ascending, round-off
        zeroed like :meth:`LowRankKernel.eigh_dual`.
        """
        if self._spectrum is None:
            gram = self.gram()
            with self._lock:
                if self._spectrum is None:
                    eigenvalues, eigenvectors = np.linalg.eigh(gram)
                    self.spectrum_builds += 1
                    self._spectrum = (clip_dual_spectrum(eigenvalues), eigenvectors)
        return self._spectrum

    def _gram_products_bytes(self) -> int:
        return self.num_items * self._triu[0].shape[0] * 8

    def gram_products(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """The ``(M, r(r+1)/2)`` symmetric outer-product table (lazy).

        ``gram_products()[0][m]`` is the upper triangle of ``v_m v_mᵀ``,
        so a batch of dual kernels is one matmul:
        ``C_stack[b][triu] = (q_b²) @ table``.  Costs ``M r²/2 · 8``
        bytes (≈ 84 MB at M=20k, r=32).  It is built once per version,
        on the first :meth:`build_duals` call of at least
        ``GRAM_PRODUCTS_MIN_BATCH`` rows, by filling a preallocated
        table in place: per tile of item rows, ``r`` broadcast multiplies
        ``v_m[i] · v_m[i:]``, one per row of the upper triangle.  The
        build allocates nothing but the table, and each entry is the
        same single product as ``V[:, rows] * V[:, cols]``.  The tiles
        split in two halves on the two :mod:`~repro.utils.lanes`.
        Raises when the table would exceed ``GRAM_PRODUCTS_MAX_BYTES``.
        """
        if self._gram_products is None:
            table_bytes = self._gram_products_bytes()
            if table_bytes > self.GRAM_PRODUCTS_MAX_BYTES:
                raise ValueError(
                    f"outer-product table would need {table_bytes / 1e9:.1f} GB "
                    f"(M={self.num_items}, rank={self.rank}); wide factor "
                    "matrices (e.g. shrink-augmented ones) get no table — "
                    "build_duals builds their duals directly"
                )
            with self._lock:
                if self._gram_products is None:
                    self._gram_products = self._fill_gram_products()
        return self._gram_products, self._triu

    def _fill_gram_products(self) -> np.ndarray:
        factors, rank, items = self._factors, self.rank, self.num_items
        table = np.empty((items, self._triu[0].shape[0]), dtype=np.float64)

        def fill(first: int, last: int) -> None:
            stop = min(last * _FILL_TILE_ROWS, items)
            for start in range(first * _FILL_TILE_ROWS, stop, _FILL_TILE_ROWS):
                block = factors[start : start + _FILL_TILE_ROWS]
                tile = table[start : start + _FILL_TILE_ROWS]
                column = 0
                for i in range(rank):
                    width = rank - i
                    np.multiply(
                        block[:, i : i + 1],
                        block[:, i:],
                        out=tile[:, column : column + width],
                    )
                    column += width

        lanes.halves(-(-items // _FILL_TILE_ROWS), fill)
        return table

    def build_duals(self, squared_quality: np.ndarray) -> np.ndarray:
        """The dual kernels ``C_b = Vᵀ Diag(q_b²) V`` of a stack of rows.

        ``squared_quality`` is the ``(B, M)`` stack of ``q_b²``; returns
        the symmetric ``(B, r, r)`` dual-kernel stack.  The serving
        engine calls this once per batch, over every full-catalog row
        that needs a dual, whatever its mode, ``k`` or session state.
        At least ``GRAM_PRODUCTS_MIN_BATCH`` rows are one matmul against
        :meth:`gram_products` (building the table on first use), its
        output columns split in two halves on the two
        :mod:`~repro.utils.lanes`, each writing its own columns of one
        result allocated here; every entry is the same length-``M`` dot
        product as in the unsplit matmul.  Fewer
        rows, and any stack whose table would exceed
        ``GRAM_PRODUCTS_MAX_BYTES``, compute each ``(V q_b)ᵀ(V q_b)``
        directly through one reused ``(M, r)`` buffer, without reading or
        building the table.  Either route computes each row's dual
        independently of the other rows.
        """
        squared_quality = np.asarray(squared_quality, dtype=np.float64)
        batch = squared_quality.shape[0]
        duals = np.empty((batch, self.rank, self.rank), dtype=np.float64)
        if (
            batch >= GRAM_PRODUCTS_MIN_BATCH
            and self._gram_products_bytes() <= self.GRAM_PRODUCTS_MAX_BYTES
        ):
            table, (rows, cols) = self.gram_products()
            flat = np.empty((batch, table.shape[1]), dtype=np.float64)

            def columns(start: int, stop: int) -> None:
                np.matmul(
                    squared_quality, table[:, start:stop], out=flat[:, start:stop]
                )

            lanes.halves(table.shape[1], columns)
            duals[:, rows, cols] = flat
            duals[:, cols, rows] = flat
            return duals
        scaled = np.empty_like(self._factors)
        for b, weights in enumerate(np.sqrt(squared_quality)):
            np.multiply(self._factors, weights[:, None], out=scaled)
            np.matmul(scaled.T, scaled, out=duals[b])
        return duals


class ItemCatalog:
    """Versioned publisher of :class:`CatalogSnapshot` factor versions.

    The catalog itself retains two generations: the published snapshot
    and the one it displaced (in-flight readers additionally hold their
    own snapshot references, which keep older generations alive as long
    as needed).  The outer-product-table size limit lives on
    :class:`CatalogSnapshot` (``GRAM_PRODUCTS_MAX_BYTES``), where the
    allocation guard runs.
    """

    def __init__(self, factors: np.ndarray, version: int = 0) -> None:
        self._current = CatalogSnapshot(factors, version)
        self._previous: CatalogSnapshot | None = None
        self._swap_lock = threading.Lock()

    @classmethod
    def from_learner(
        cls,
        learner: DiversityKernelLearner,
        normalize: str = "correlation",
        shrink: float = 0.0,
    ) -> "ItemCatalog":
        """Snapshot a trained Eq. 3 learner via ``factors_normalized``.

        Keep ``shrink = 0`` for catalog-scale serving: the shrunk form's
        identity augmentation raises the factor width to ``r + M``, so
        every dual becomes an ``(r+M) × (r+M)`` problem and
        :meth:`gram_products` would need O(M³) memory (it refuses, see
        ``GRAM_PRODUCTS_MAX_BYTES``, and :meth:`CatalogSnapshot.build_duals`
        falls back to one O(M²) direct build per request).  Shrunk
        factors are meant for the training criterion's small row gathers,
        not the serving engine.
        """
        return cls(learner.factors_normalized(normalize=normalize, shrink=shrink))

    # ------------------------------------------------------------------
    def snapshot(self) -> CatalogSnapshot:
        """The currently published snapshot (capture once per request
        batch: everything read through it is one consistent version)."""
        return self._current

    def refresh(self, factors: np.ndarray) -> int:
        """Publish new factors under the next version; returns the version.

        Double-buffered: the new factors are validated, copied and frozen
        before a single reference assignment makes them the served
        version, and the displaced snapshot is kept as the back buffer
        so readers that captured it finish against intact state.  The
        new snapshot's per-version caches (Gram, spectrum, outer-product
        table, extensions) start empty and are built on first use —
        invalidation is creation.
        """
        factors = np.asarray(factors)
        if factors.ndim != 2 or factors.shape[0] != self.num_items:
            raise ValueError(
                f"published factors must keep the catalog's item axis "
                f"({self.num_items}), got shape {factors.shape}"
            )
        with self._swap_lock:
            fresh = CatalogSnapshot(factors, self._current.version + 1)
            self._previous = self._current
            self._current = fresh
            return fresh.version

    #: :class:`ShardedCatalog` calls the same operation ``publish``; the
    #: alias lets the runtime hot-swap either catalog flavor uniformly.
    publish = refresh

    # ------------------------------------------------------------------
    # Reads delegate to the current snapshot (one-shot callers; batch
    # code paths capture ``snapshot()`` once instead).
    # ------------------------------------------------------------------
    @property
    def factors(self) -> np.ndarray:
        return self._current.factors

    @property
    def num_items(self) -> int:
        return self._current.num_items

    @property
    def rank(self) -> int:
        return self._current.rank

    @property
    def version(self) -> int:
        return self._current.version

    def take_rows(self, indices: np.ndarray) -> np.ndarray:
        return self._current.take_rows(indices)

    def gram(self) -> np.ndarray:
        return self._current.gram()

    def dual_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        return self._current.dual_spectrum()

    def gram_products(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        return self._current.gram_products()

    def build_duals(self, squared_quality: np.ndarray) -> np.ndarray:
        return self._current.build_duals(squared_quality)
