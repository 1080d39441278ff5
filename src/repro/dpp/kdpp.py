"""The k-DPP distribution (Kulesza & Taskar 2011) and the standard DPP.

A k-DPP conditions a DPP on the sampled set having cardinality exactly
``k``; the paper's tailored k-DPP (Eq. 4) places this distribution over a
small ``k + n`` ground set so that the observed target subset competes
only against same-sized subsets — the property that gives the criterion
its ranking interpretation.

:class:`KDPP` here is the exact, numpy-side object used for analysis
(Figure 4's probability groups, sampling, tests); the differentiable
training path lives in :func:`log_kdpp_probability` /
:mod:`repro.losses.lkp` and shares the same math through
:mod:`repro.dpp.esp`.

Both distributions support two constructions:

* the **dense** path (``__init__``) eigendecomposes the full ``M × M``
  kernel — exact for anything, O(M³);
* the **dual** path (``from_factors``) takes the ``(M, r)`` factor matrix
  ``B`` of a low-rank kernel ``L = B Bᵀ`` and works entirely off the
  ``r × r`` dual kernel ``C = Bᵀ B`` (Gartrell, Paquet & Koenigstein):
  ``C`` shares the nonzero spectrum of ``L``, so normalizers, subset
  probabilities and exact sampling cost O(M r²) — the serving-scale fast
  path for the paper's rank-32 kernels.

The two paths are parity-pinned by ``tests/test_lowrank_dual.py``: same
float64 probabilities and, under a shared seeded RNG, the same samples.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from ..autodiff import Tensor, functional as F
from ..utils import lanes
from .esp import (
    batched_differentiable_log_esp,
    differentiable_log_esp,
    esp_table,
    log_esp,
)
from .kernels import LowRankKernel

__all__ = [
    "KDPP",
    "StandardDPP",
    "log_kdpp_probability",
    "batched_log_kdpp_probability",
    "validate_psd_kernel",
    "kdpp_spectrum_scale",
    "select_eigenvectors_from_esp_table",
    "batched_sample_elementary_shared",
    "batched_sample_elementary_stacked",
]


def validate_psd_kernel(
    kernel: np.ndarray,
    tol: float = 1e-8,
    eigenvalues: np.ndarray | None = None,
) -> np.ndarray:
    """Check symmetry and positive semi-definiteness of a DPP kernel.

    Callers that eigendecompose the kernel anyway (both DPP constructors,
    the batched training path) pass their ``eigenvalues`` in so validation
    reuses the spectrum instead of running a second ``eigvalsh``.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise ValueError(f"kernel must be square, got shape {kernel.shape}")
    if not np.allclose(kernel, kernel.T, atol=tol):
        raise ValueError("kernel must be symmetric")
    if eigenvalues is None:
        eigenvalues = np.linalg.eigvalsh(kernel)
    smallest = float(np.min(eigenvalues))
    if smallest < -tol * max(1.0, np.abs(kernel).max()):
        raise ValueError(
            f"kernel must be positive semi-definite (min eigenvalue {smallest:.3e})"
        )
    return kernel


def _as_lowrank(factors: np.ndarray | LowRankKernel) -> LowRankKernel:
    if isinstance(factors, LowRankKernel):
        return factors
    return LowRankKernel(factors)


def _subset_log_determinant(
    kernel: np.ndarray | None,
    lowrank: LowRankKernel | None,
    subset: list[int],
) -> float:
    """``log det(L_S)`` via ``slogdet``; ``-inf`` for singular subsets.

    Shared by both distributions.  Log-space is the whole point: a
    well-conditioned submatrix whose determinant is below ~1e-308
    (routine when Eq. 13's exponential qualities are small) keeps an
    exact finite log-determinant here where ``np.linalg.det`` collapses
    to 0.  On the low-rank path the submatrix is a Gram of factor rows,
    and any subset larger than the rank is exactly singular.
    """
    if len(subset) == 0:
        return 0.0
    if lowrank is not None:
        if len(subset) > lowrank.rank:
            return -np.inf  # rank(L_S) <= r < |S|, det exactly 0
        sub = lowrank.gram_rows(np.asarray(subset, dtype=np.int64))
    else:
        sub = kernel[np.ix_(subset, subset)]
    sign, logdet = np.linalg.slogdet(sub)
    if sign <= 0.0:
        return -np.inf
    return float(logdet)


def _exp_or_inf(log_value: float) -> float:
    """``exp`` that saturates to ``inf``/``0`` instead of raising.

    The linear-domain accessors (``normalizer``, ``subset_determinant``)
    are conveniences around log-space state; for spectra whose ``e_k`` or
    determinant exceeds float64 range they should degrade the way the
    pre-log-space code did (to ``inf``), not crash.
    """
    if log_value == -np.inf:
        return 0.0
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


class KDPP:
    """Exact k-DPP over a ground set described by an L-ensemble.

    Parameters
    ----------
    kernel:
        The ``m x m`` PSD L-ensemble kernel (``L^{(u, k+n)}`` of Eq. 4).
    k:
        Cardinality of the distribution's subsets.
    validate:
        When True (default) the kernel is checked for symmetry / PSD-ness.

    For low-rank kernels use :meth:`from_factors`, which never touches an
    ``M × M`` matrix (``self.kernel`` is then ``None``).
    """

    def __init__(self, kernel: np.ndarray, k: int, validate: bool = True) -> None:
        kernel = np.asarray(kernel, dtype=np.float64)
        if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
            raise ValueError(f"kernel must be square, got shape {kernel.shape}")
        eigenvalues, eigenvectors = np.linalg.eigh(kernel)
        # Validation reuses the spectrum: one eigh serves both the PSD
        # check and the normalizer/sampler tables.
        self.kernel = (
            validate_psd_kernel(kernel, eigenvalues=eigenvalues) if validate else kernel
        )
        self.ground_size = self.kernel.shape[0]
        self._lowrank: LowRankKernel | None = None
        if not 1 <= k <= self.ground_size:
            raise ValueError(
                f"k must be in [1, {self.ground_size}], got {k}"
            )
        self.k = k
        self._eigenvectors = eigenvectors
        # Clip tiny negative eigenvalues produced by floating point.
        self._eigenvalues = np.clip(eigenvalues, 0.0, None)
        self._log_normalizer = log_esp(self._eigenvalues, k)
        if not np.isfinite(self._log_normalizer):
            raise ValueError(
                f"kernel rank is below k={k} (e_k of the spectrum is 0); "
                "a k-DPP needs at least k nonzero eigenvalues — add jitter "
                "or lower k"
            )

    @classmethod
    def from_factors(
        cls, factors: np.ndarray | LowRankKernel, k: int
    ) -> "KDPP":
        """Dual-kernel construction from the ``(M, r)`` factors of ``L = B Bᵀ``.

        Everything spectral runs on the ``r × r`` dual ``C = Bᵀ B``: the
        ``e_k`` normalizer needs only the r dual eigenvalues (the other
        ``M - r`` eigenvalues of L are exactly zero and contribute nothing
        to any ESP), and sampling lifts the chosen dual eigenvectors via
        ``v_i = B ĉ_i / sqrt(λ_i)``.  Cost: O(M r² + r³) to build instead
        of O(M³).
        """
        lowrank = _as_lowrank(factors)
        self = cls.__new__(cls)
        self.kernel = None
        self._lowrank = lowrank
        self.ground_size = lowrank.ground_size
        if not 1 <= k <= self.ground_size:
            raise ValueError(f"k must be in [1, {self.ground_size}], got {k}")
        self.k = k
        eigenvalues, _ = lowrank.eigh_dual()
        self._eigenvalues = eigenvalues
        self._eigenvectors = None
        self._log_normalizer = (
            log_esp(eigenvalues, k) if k <= eigenvalues.shape[0] else -np.inf
        )
        if not np.isfinite(self._log_normalizer):
            raise ValueError(
                f"factor rank is below k={k} (e_k of the dual spectrum is 0); "
                "a k-DPP needs at least k nonzero eigenvalues"
            )
        return self

    # ------------------------------------------------------------------
    # Probabilities
    # ------------------------------------------------------------------
    @property
    def is_lowrank(self) -> bool:
        return self._lowrank is not None

    @property
    def normalizer(self) -> float:
        """``Z_k = e_k(eigenvalues)`` — Eq. 6 (``inf`` past float64 range)."""
        return _exp_or_inf(self._log_normalizer)

    @property
    def log_normalizer(self) -> float:
        """``log Z_k``, finite even when ``Z_k`` itself over/underflows."""
        return self._log_normalizer

    @property
    def eigenvalues(self) -> np.ndarray:
        """The stored spectrum: all M eigenvalues on the dense path, the r
        dual eigenvalues on the low-rank path (the rest are exactly 0)."""
        return self._eigenvalues

    def subset_log_determinant(self, subset: Sequence[int]) -> float:
        """``log det(L_S)``; see :func:`_subset_log_determinant`."""
        subset = self._check_subset(subset, require_size_k=False)
        return _subset_log_determinant(self.kernel, self._lowrank, subset)

    def subset_determinant(self, subset: Sequence[int]) -> float:
        return _exp_or_inf(self.subset_log_determinant(subset))

    def log_subset_probability(self, subset: Sequence[int]) -> float:
        """``log P(S) = log det(L_S) - log Z_k`` for a k-sized subset."""
        subset = self._check_subset(subset, require_size_k=True)
        return self.subset_log_determinant(subset) - self._log_normalizer

    def subset_probability(self, subset: Sequence[int]) -> float:
        """``P(S) = det(L_S) / Z_k`` for a k-sized subset (Eq. 4)."""
        log_probability = self.log_subset_probability(subset)
        return math.exp(log_probability) if np.isfinite(log_probability) else 0.0

    def enumerate_probabilities(self) -> dict[frozenset[int], float]:
        """Probability of every k-subset.  Exponential — small sets only.

        The paper enumerates C(10, 5) = 252 subsets per ground set for its
        Figure 4 analysis; this mirrors that computation exactly.
        """
        if self.ground_size > 16:
            raise ValueError(
                "refusing to enumerate subsets of a ground set larger than 16 "
                f"items (got {self.ground_size})"
            )
        table: dict[frozenset[int], float] = {}
        for combo in itertools.combinations(range(self.ground_size), self.k):
            table[frozenset(combo)] = self.subset_probability(combo)
        return table

    def _check_subset(self, subset: Sequence[int], require_size_k: bool) -> list[int]:
        subset = [int(i) for i in subset]
        if len(set(subset)) != len(subset):
            raise ValueError(f"subset contains duplicates: {subset}")
        if any(i < 0 or i >= self.ground_size for i in subset):
            raise ValueError(
                f"subset indices must be in [0, {self.ground_size}), got {subset}"
            )
        if require_size_k and len(subset) != self.k:
            raise ValueError(
                f"k-DPP subsets must have size {self.k}, got {len(subset)}"
            )
        return subset

    # ------------------------------------------------------------------
    # Sampling (Kulesza & Taskar, Algorithms 1 & 8)
    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> list[int]:
        """Draw an exact k-DPP sample.

        Phase 1 selects exactly ``k`` eigenvectors by walking the ESP
        table backwards (this is where the k-DPP differs from a standard
        DPP, which flips an independent coin per eigenvector); phase 2 is
        the shared elementary-DPP projection sampler.  On the low-rank
        path phase 1 walks only the r dual eigenvalues — the zero modes
        can never be selected — and the chosen eigenvectors are lifted
        from the dual, so a seeded run consumes the same uniform stream
        as the dense sampler and yields the same subset.
        """
        chosen = _select_k_eigenvector_indices(self._eigenvalues, self.k, rng)
        if self._lowrank is not None:
            vectors = self._lowrank.lift_eigenvectors(np.asarray(chosen))
        else:
            vectors = self._eigenvectors[:, chosen]
        return _sample_from_elementary(vectors, rng)


class StandardDPP:
    """The unconditioned L-ensemble DPP: ``P(S) = det(L_S) / det(L + I)``.

    Included both as the substrate the k-DPP conditions on and to
    reproduce the paper's ablation showing that standard-DPP probabilities
    (which let subsets of *different* sizes compete) make a poor ranking
    criterion.  :meth:`from_factors` is the O(M r²) dual-kernel path.
    """

    def __init__(self, kernel: np.ndarray, validate: bool = True) -> None:
        kernel = np.asarray(kernel, dtype=np.float64)
        if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
            raise ValueError(f"kernel must be square, got shape {kernel.shape}")
        eigenvalues, eigenvectors = np.linalg.eigh(kernel)
        self.kernel = (
            validate_psd_kernel(kernel, eigenvalues=eigenvalues) if validate else kernel
        )
        self.ground_size = self.kernel.shape[0]
        self._lowrank: LowRankKernel | None = None
        self._eigenvectors = eigenvectors
        self._eigenvalues = np.clip(eigenvalues, 0.0, None)
        self._log_normalizer = float(np.log1p(self._eigenvalues).sum())

    @classmethod
    def from_factors(cls, factors: np.ndarray | LowRankKernel) -> "StandardDPP":
        """Dual-kernel construction from the factors of ``L = B Bᵀ``.

        ``log det(L + I) = Σ log(1 + λ_i)`` needs only the r nonzero
        eigenvalues — the zero modes contribute ``log 1 = 0`` exactly.
        """
        lowrank = _as_lowrank(factors)
        self = cls.__new__(cls)
        self.kernel = None
        self._lowrank = lowrank
        self.ground_size = lowrank.ground_size
        eigenvalues, _ = lowrank.eigh_dual()
        self._eigenvalues = eigenvalues
        self._eigenvectors = None
        self._log_normalizer = float(np.log1p(eigenvalues).sum())
        return self

    @property
    def is_lowrank(self) -> bool:
        return self._lowrank is not None

    @property
    def log_normalizer(self) -> float:
        """``log det(L + I)``, computed from eigenvalues for stability."""
        return self._log_normalizer

    def subset_log_determinant(self, subset: Sequence[int]) -> float:
        """``log det(L_S)``; see :func:`_subset_log_determinant`."""
        subset = [int(i) for i in subset]
        return _subset_log_determinant(self.kernel, self._lowrank, subset)

    def log_subset_probability(self, subset: Iterable[int]) -> float:
        return self.subset_log_determinant(list(subset)) - self._log_normalizer

    def subset_probability(self, subset: Iterable[int]) -> float:
        log_probability = self.log_subset_probability(subset)
        return math.exp(log_probability) if np.isfinite(log_probability) else 0.0

    def sample(self, rng: np.random.Generator) -> list[int]:
        """Exact DPP sample: independent eigenvector coins + projection.

        The dual path draws a full ground-set's worth of coins even though
        only the last r (matching the nonzero, ascending-sorted spectrum)
        can come up heads: the M - r zero eigenvalues keep their
        eigenvectors with probability 0/(1+0) = 0 on the dense path too,
        so a seeded dual run consumes the identical uniform stream and
        returns the same sample as its dense twin.
        """
        coins = rng.random(self.ground_size)
        if self._lowrank is not None:
            # Align the top of the ascending dual spectrum with the top of
            # the dense one.  With more factor columns than items (r > M)
            # the lowest r - M dual eigenvalues are exactly zero — rank(L)
            # <= M — and need no coin at all.
            rank = self._eigenvalues.shape[0]
            count = min(rank, self.ground_size)
            top = self._eigenvalues[rank - count :]
            keep = coins[self.ground_size - count :] < top / (1.0 + top)
            if not np.any(keep):
                return []
            vectors = self._lowrank.lift_eigenvectors(
                np.flatnonzero(keep) + (rank - count)
            )
        else:
            keep = coins < self._eigenvalues / (1.0 + self._eigenvalues)
            vectors = self._eigenvectors[:, keep]
            if vectors.shape[1] == 0:
                return []
        return _sample_from_elementary(vectors, rng)


def kdpp_spectrum_scale(eigenvalues: np.ndarray, k: int) -> float:
    """Geometric mean of the top-k eigenvalues (1.0 for deficient spectra).

    The pre-scaling applied before any ESP-table work: every inclusion
    probability in the sampler is a ratio of ESPs, hence scale-invariant,
    but dividing by this scale keeps the table entries inside float64
    range even for the huge/tiny spectra Eq. 13's exponential qualities
    produce.  Exposed so the batched serving path can reproduce the
    per-request scaling bit for bit.
    """
    top_k = np.sort(np.asarray(eigenvalues, dtype=np.float64))[-k:]
    return float(np.exp(np.mean(np.log(top_k)))) if top_k[0] > 0 else 1.0


def select_eigenvectors_from_esp_table(
    scaled_eigenvalues: np.ndarray,
    table: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> list[int]:
    """Walk a precomputed ESP table backwards (Kulesza & Taskar Alg. 8).

    ``table`` is :func:`~repro.dpp.esp.esp_table` of the scaled spectrum
    (or one row of its batched twin — the recursions are elementwise
    identical, so precomputing tables for a whole request batch leaves
    each request's walk, and hence its RNG stream, unchanged).  One
    uniform is consumed per index whose conditional is well defined.
    """
    m = scaled_eigenvalues.shape[0]
    remaining = k
    chosen: list[int] = []
    for index in range(m, 0, -1):
        if remaining == 0:
            break
        # Probability that eigenvector `index - 1` is in the selection
        # given `remaining` picks are left among the first `index`.
        denominator = table[remaining, index]
        if denominator <= 0:
            continue
        include = (
            scaled_eigenvalues[index - 1] * table[remaining - 1, index - 1] / denominator
        )
        if rng.random() < include:
            chosen.append(index - 1)
            remaining -= 1
    if remaining != 0:  # pragma: no cover - only with degenerate kernels
        raise RuntimeError(
            "k-DPP eigenvector selection failed; kernel rank is likely "
            f"below k={k}"
        )
    return chosen


def _select_k_eigenvector_indices(
    eigenvalues: np.ndarray, k: int, rng: np.random.Generator
) -> list[int]:
    """Phase 1 of k-DPP sampling: pick exactly k eigenvector indices."""
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    scaled = eigenvalues / kdpp_spectrum_scale(eigenvalues, k)
    return select_eigenvectors_from_esp_table(scaled, esp_table(scaled, k), k, rng)


def _sample_from_elementary(vectors: np.ndarray, rng: np.random.Generator) -> list[int]:
    """Sample from the elementary (projection) DPP spanned by ``vectors``.

    Standard iterative procedure: pick an item with probability
    proportional to the squared row norms of the current (orthonormal)
    basis, then restrict the basis to the subspace with zero component
    along the chosen coordinate.  The restriction is a single Householder
    reflection applied from the right — rotate the chosen row onto the
    last coordinate and drop that column — which keeps the basis exactly
    orthonormal in O(M p) per step, replacing the former per-step O(M p²)
    QR re-orthonormalization.  Returns exactly ``vectors.shape[1]``
    distinct items.
    """
    basis = np.array(vectors, dtype=np.float64, copy=True)
    sample: list[int] = []
    for remaining in range(basis.shape[1], 0, -1):
        row_norms = (basis**2).sum(axis=1)
        total = row_norms.sum()
        if total <= 0:  # pragma: no cover - degenerate basis
            raise RuntimeError("elementary DPP sampler ran out of mass")
        item = int(rng.choice(row_norms.shape[0], p=row_norms / total))
        sample.append(item)
        if remaining == 1:
            break
        row = basis[item].copy()
        norm = float(np.linalg.norm(row))
        if norm <= 0:  # pragma: no cover - contradicts a positive pick prob
            raise RuntimeError("chosen item has zero basis row")
        # Householder vector sending the row to ∓||row|| e_last; the sign
        # choice avoids cancellation.  Right-multiplying by the reflection
        # zeroes the item's coordinate in every column but the last, so
        # dropping the last column is exactly the conditioning step.
        reflector = row
        reflector[-1] += math.copysign(norm, row[-1])
        reflector /= np.linalg.norm(reflector)
        basis -= 2.0 * np.outer(basis @ reflector, reflector)
        basis = basis[:, :-1]
    return sample


def _elementary_choice(norms: np.ndarray, rng: np.random.Generator) -> int:
    """One inverse-CDF draw replicating ``rng.choice(m, p=norms/total)``.

    ``Generator.choice`` with a probability vector consumes exactly one
    uniform and inverts the normalized CDF with a right-sided
    ``searchsorted``; doing the same by hand lets the batched samplers
    share a vectorized per-step norm update while each request keeps the
    identical RNG stream (and, away from measure-zero CDF boundaries,
    the identical pick) of the per-request Householder sampler.  The
    inversion runs on the unnormalized CDF — one pass instead of three —
    which matches the normalized form up to the same boundary-width
    caveat.
    """
    cdf = np.cumsum(norms)
    total = cdf[-1]
    if total <= 0:  # pragma: no cover - degenerate basis
        raise RuntimeError("elementary DPP sampler ran out of mass")
    # u < 1 strictly, but u * total can round up to exactly total, where
    # a right-sided search would step past the last item; clamp.  (The
    # normalized form in Generator.choice sidesteps this by construction.)
    index = int(cdf.searchsorted(rng.random() * total, side="right"))
    return min(index, norms.shape[0] - 1)


def _projector_sample_steps(
    row_norm_stack: np.ndarray,
    gather_coordinates,
    apply_direction,
    rngs: Sequence[np.random.Generator],
    steps: int,
) -> list[list[int]]:
    """Step loop of :func:`batched_sample_elementary_stacked`.

    Where the per-request sampler conditions by reflecting an explicit
    ``(N, p)`` basis, the batched form tracks each request's subspace as
    a tiny ``p × p`` coordinate matrix ``A`` (projector ``P = G A Gᵀ``
    for the fixed orthonormal basis ``G``): conditioning on item ``j``
    subtracts the rank-one direction ``c = A g_j / sqrt(n_j)`` from
    ``A`` and ``(G c)²`` from the row norms.  The O(N) work — computing
    ``G c`` and updating the norms — is delegated to ``apply_direction``,
    one batched ``einsum`` over the candidate stack per step.  Candidate
    slices are small, so a full CDF pass per step is cheap here; the
    full-catalog sampler inverts a two-level block CDF instead.
    """
    batch = row_norm_stack.shape[0]
    coordinate_dim = steps
    projectors = np.broadcast_to(
        np.eye(coordinate_dim), (batch, coordinate_dim, coordinate_dim)
    ).copy()
    samples: list[list[int]] = [[] for _ in range(batch)]
    for step in range(steps):
        items = np.empty(batch, dtype=np.int64)
        for b in range(batch):
            items[b] = _elementary_choice(row_norm_stack[b], rngs[b])
            samples[b].append(int(items[b]))
        if step == steps - 1:
            break
        # g_j = Gᵀ e_j for each request's chosen item, in coordinates.
        g = gather_coordinates(items)  # (B, p)
        picked_norms = row_norm_stack[np.arange(batch), items]
        c = np.einsum("bpq,bq->bp", projectors, g)
        c /= np.sqrt(np.maximum(picked_norms, 1e-300))[:, None]
        projectors -= c[:, :, None] * c[:, None, :]
        # One batched pass updates every request's row norms: n -= (G c)².
        apply_direction(c, row_norm_stack)
        np.maximum(row_norm_stack, 0.0, out=row_norm_stack)
        row_norm_stack[np.arange(batch), items] = 0.0
    return samples


#: items per block of the shared sampler's two-level inverse CDF (the
#: last block may be partial)
_BLOCK = 128

#: bytes of the shared sampler's lift buffer: the whole batch is lifted
#: one item tile at a time, the tile sized to this budget so the lifted
#: rows stay in cache while they are scaled and reduced to block Grams
_LIFT_BYTES = 2 << 20

#: an item whose computed residual norm is at most this fraction of its
#: initial norm lies in the span of the picks up to rounding, and counts
#: as zero mass
_NOISE = 1e-10


def _block_grams(
    diversity_factors: np.ndarray, quality: np.ndarray, coefficients: np.ndarray
) -> np.ndarray:
    """Per-request ``p × p`` Grams ``H_bn = G_bnᵀ G_bn`` of every
    ``_BLOCK``-item block ``n`` of ``G_b = Diag(q_b) V W_b``, as a
    ``(B, ⌈M/_BLOCK⌉, p, p)`` array.  Each item tile is one
    ``(B p, r) @ (r, tile)`` matmul into a buffer of at most
    ``_LIFT_BYTES`` (one block at least).  The request rows split into
    two halves on the two :mod:`~repro.utils.lanes`, each lifting into
    its own rows of the buffer and writing its own rows of the Grams."""
    batch, ground = quality.shape
    rank, steps = coefficients.shape[1:]
    blocks = -(-ground // _BLOCK)
    grams = np.empty((batch, blocks, steps, steps))
    tile = max(1, _LIFT_BYTES // (batch * steps * _BLOCK * 8)) * _BLOCK
    buffer = np.empty((batch * steps, min(tile, ground)))
    lift = coefficients.transpose(0, 2, 1).reshape(batch * steps, rank)

    def lift_rows(first: int, last: int) -> None:
        requests, lifted_rows = slice(first, last), slice(first * steps, last * steps)
        for start in range(0, ground, tile):
            stop = min(start + tile, ground)
            lifted = buffer[lifted_rows, : stop - start]
            np.matmul(lift[lifted_rows], diversity_factors[start:stop].T, out=lifted)
            lifted = lifted.reshape(last - first, steps, stop - start)
            lifted *= quality[requests, None, start:stop]
            first_block = start // _BLOCK
            full, tail = divmod(stop - start, _BLOCK)
            head = lifted[:, :, : full * _BLOCK].reshape(
                last - first, steps, full, _BLOCK
            )
            head = head.transpose(0, 2, 1, 3)
            np.matmul(
                head,
                head.transpose(0, 1, 3, 2),
                out=grams[requests, first_block : first_block + full],
            )
            if tail:
                rest = lifted[:, :, full * _BLOCK :]
                np.matmul(
                    rest,
                    rest.transpose(0, 2, 1),
                    out=grams[requests, first_block + full],
                )

    lanes.halves(batch, lift_rows)
    return grams


def _first_reaching(cdf: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Row-wise right-sided ``searchsorted`` of ``targets`` in the
    nondecreasing rows of ``cdf``, clamped to the entry where the row
    reaches its total: ``u < 1`` strictly, but ``u * total`` can round up
    to exactly the total.  The result always has positive mass when the
    row total is positive."""
    found = (cdf <= targets[:, None]).sum(axis=1)
    return np.minimum(found, (cdf < cdf[:, -1:]).sum(axis=1))


def batched_sample_elementary_shared(
    diversity_factors: np.ndarray,
    quality: np.ndarray,
    coefficients: np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> list[list[int]]:
    """Elementary-DPP samples for a batch of requests sharing one ``V``.

    Each request ``b`` samples the projection DPP spanned by the columns
    of ``G_b = Diag(q_b) V W_b`` — the lifted dual eigenvectors of its
    personalized kernel — where ``V`` is the shared ``(M, r)`` catalog
    factor matrix, ``quality`` is ``(B, M)`` and ``coefficients`` holds
    the ``(B, r, p)`` lift matrices ``W_b`` (columns of ``G_b`` must be
    orthonormal, which the dual lift guarantees).

    The request's subspace is tracked as a ``p × p`` projector ``A_b``
    in the coordinates of ``G_b`` (item ``i``'s mass is ``g_iᵀ A_b g_i``
    for its row ``g_i`` of ``G_b``), and the item axis is cut into
    ``_BLOCK``-item blocks.  One lift per request precomputes every
    block's Gram ``H_bn = G_bnᵀ G_bn``; after that no step touches the
    catalog.  A step inverts a two-level CDF: every block's mass
    ``⟨A_b, H_bn⟩`` (one batched matmul), a block by ``cumsum`` over the
    ``⌈M/_BLOCK⌉`` blocks, then the exact masses of that block's items,
    lifted on the fly from their factor rows.  Conditioning on the pick
    updates ``A_b`` alone.  The lift, the one catalog-scale pass, splits
    the requests in two halves on the two :mod:`~repro.utils.lanes`
    (:func:`_block_grams`); every Gram is computed as without the
    split, so samples do not depend on it.

    Each request consumes one uniform per step from its own generator,
    the same stream the per-request sampler uses, and inverts it over
    the same item-ordered CDF, so seeded batch results reproduce
    per-user :meth:`KDPP.sample` draws (up to the measure-zero CDF
    boundaries :func:`_elementary_choice` documents).  An item whose
    mass is rounding noise — already picked, zero quality, or in the
    span of the picks — is never returned: a block holding only such
    items counts as massless and the same uniform is inverted again.
    """
    quality = np.asarray(quality, dtype=np.float64)
    batch, ground = quality.shape
    steps = coefficients.shape[2]
    if coefficients.shape != (batch, diversity_factors.shape[1], steps):
        raise ValueError(
            f"coefficients shape {coefficients.shape} does not match "
            f"(batch={batch}, rank={diversity_factors.shape[1]}, p)"
        )
    if len(rngs) != batch:
        raise ValueError(f"need {batch} generators, got {len(rngs)}")
    grams = _block_grams(diversity_factors, quality, coefficients)
    grams = grams.reshape(batch, grams.shape[1], steps * steps)
    projectors = np.broadcast_to(np.eye(steps), (batch, steps, steps)).copy()
    picks = np.empty((batch, steps), dtype=np.int64)
    offsets = np.arange(_BLOCK)
    for step in range(steps):
        uniforms = np.array([rng.random() for rng in rngs])
        masses = (grams @ projectors.reshape(batch, steps * steps, 1))[..., 0]
        np.maximum(masses, 0.0, out=masses)
        chosen = np.empty((batch, steps))
        chosen_norms = np.empty(batch)
        rows = np.arange(batch)
        while rows.size:
            cdf = np.cumsum(masses[rows], axis=1)
            if np.any(cdf[:, -1] <= 0):  # pragma: no cover - degenerate basis
                raise RuntimeError("elementary DPP sampler ran out of mass")
            targets = uniforms[rows] * cdf[:, -1]
            block = _first_reaching(cdf, targets)
            mass = masses[rows, block]
            before = np.where(block > 0, cdf[np.arange(rows.size), block - 1], 0.0)
            fraction = np.clip((targets - before) / mass, 0.0, 1.0)
            ids = block[:, None] * _BLOCK + offsets
            padding = ids >= ground  # past the end of a partial tail block
            ids[padding] = ground - 1
            scale = quality[rows[:, None], ids]
            scale[padding] = 0.0
            g = diversity_factors[ids] @ coefficients[rows]
            g *= scale[..., None]
            norms = np.einsum("nip,nip->ni", g @ projectors[rows], g)
            norms[norms <= _NOISE * np.einsum("nip,nip->ni", g, g)] = 0.0
            # Picked items carry only rounding residue; zero them exactly.
            local = picks[rows, :step] - block[:, None] * _BLOCK
            hit = (local >= 0) & (local < _BLOCK)
            norms[np.nonzero(hit)[0], local[hit]] = 0.0
            block_cdf = np.cumsum(norms, axis=1)
            live = block_cdf[:, -1] > 0
            item = _first_reaching(block_cdf, fraction * block_cdf[:, -1])
            done = rows[live]
            picks[done, step] = ids[live, item[live]]
            chosen[done] = g[live, item[live]]
            chosen_norms[done] = norms[live, item[live]]
            masses[rows[~live], block[~live]] = 0.0
            rows = rows[~live]
        if step == steps - 1:
            break
        c = np.einsum("bpq,bq->bp", projectors, chosen)
        c /= np.sqrt(chosen_norms)[:, None]
        projectors -= c[:, :, None] * c[:, None, :]
    return picks.tolist()


def batched_sample_elementary_stacked(
    bases: np.ndarray, rngs: Sequence[np.random.Generator]
) -> list[list[int]]:
    """Elementary-DPP samples from an explicit ``(B, N, p)`` basis stack.

    The candidate-slice twin of :func:`batched_sample_elementary_shared`:
    when each request already gathered its own (small) ground set, the
    orthonormal bases are materialized and every per-step update is one
    batched ``einsum`` over the stack.  Column orthonormality per request
    is assumed (the dual lift provides it); RNG-stream semantics match
    the per-request sampler exactly.
    """
    bases = np.asarray(bases, dtype=np.float64)
    if bases.ndim != 3:
        raise ValueError(f"expected (B, N, p) bases, got {bases.shape}")
    batch, _, steps = bases.shape
    if len(rngs) != batch:
        raise ValueError(f"need {batch} generators, got {len(rngs)}")
    norms = np.einsum("bnp,bnp->bn", bases, bases)

    def gather_coordinates(items: np.ndarray) -> np.ndarray:
        return bases[np.arange(batch), items]

    def apply_direction(c: np.ndarray, norm_stack: np.ndarray) -> None:
        w = np.einsum("bnp,bp->bn", bases, c)
        norm_stack -= w**2

    return _projector_sample_steps(
        norms, gather_coordinates, apply_direction, rngs, steps
    )


def log_kdpp_probability(kernel: Tensor, subset: Sequence[int], k: int) -> Tensor:
    """Differentiable ``log P_k(S) = log det(L_S) - log e_k(lambda(L))``.

    This is the training-time form of Eq. 4: ``kernel`` is the autodiff
    tensor holding the personalized ground-set kernel, so gradients flow
    into the model's quality scores (and into item embeddings for the
    E-variant kernels).

    A stacked ``(B, m, m)`` kernel with a ``(B, k)`` subset array routes
    through :func:`batched_log_kdpp_probability`, returning all B
    log-probabilities from one fused graph.
    """
    if kernel.ndim == 3:
        return batched_log_kdpp_probability(kernel, np.asarray(subset), k)
    subset = [int(i) for i in subset]
    if len(subset) != k:
        raise ValueError(f"subset size {len(subset)} != k={k}")
    sub = kernel[np.ix_(subset, subset)]
    return F.logdet_psd(sub) - differentiable_log_esp(kernel, k)


def batched_log_kdpp_probability(
    kernels: Tensor, subsets: np.ndarray, k: int
) -> Tensor:
    """``log P_k(S_b)`` for every kernel of a ``(B, m, m)`` stack (Eq. 4).

    ``subsets`` is a ``(B, k)`` integer array of per-instance target
    positions.  One stacked Cholesky covers all the numerators and one
    stacked eigendecomposition (inside the batched ESP normalizer) covers
    all the denominators, replacing B per-instance graphs with a single
    fused one.
    """
    subsets = np.asarray(subsets, dtype=np.int64)
    if kernels.ndim != 3:
        raise ValueError(f"expected stacked (B, m, m) kernels, got {kernels.shape}")
    if subsets.shape != (kernels.shape[0], k):
        raise ValueError(
            f"subsets shape {subsets.shape} does not match "
            f"(batch={kernels.shape[0]}, k={k})"
        )
    sub = F.gather_submatrices(kernels, subsets)
    return F.logdet_psd(sub) - batched_differentiable_log_esp(kernels, k)
