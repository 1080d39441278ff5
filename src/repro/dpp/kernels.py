"""DPP kernel construction: the quality × diversity decomposition.

Eq. 2 of the paper builds the personalized kernel

    L_u = Diag(y_u) · K · Diag(y_u),

where ``y_u`` are the model's (positive) quality scores for the ground-set
items and ``K`` is a diversity kernel.  Eq. 13 specializes the quality to
``exp(e_u · e_i)``.  This module provides both the differentiable (Tensor)
and plain-numpy versions, the Gaussian similarity kernel used by the
paper's E-variants, and the quality transforms appropriate to each
backbone (exp of a dot product for MF/GCN, a probability for NeuMF/GCMC).
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, as_tensor

__all__ = [
    "LowRankKernel",
    "clip_dual_spectrum",
    "quality_diversity_kernel",
    "quality_diversity_kernel_np",
    "batched_quality_diversity_kernel",
    "gaussian_similarity_kernel",
    "gaussian_similarity_kernel_np",
    "batched_gaussian_similarity_kernel",
    "exp_quality",
    "sigmoid_quality",
    "identity_quality",
    "QUALITY_TRANSFORMS",
]

#: Default clip range applied to raw scores before ``exp``; keeps the
#: kernel entries (products of two exponentials) within float64 range and
#: reproduces the stabilization the paper reports needing.
SCORE_CLIP = 12.0


def clip_dual_spectrum(eigenvalues: np.ndarray) -> np.ndarray:
    """Zero the round-off of (a stack of) ``r × r`` Gram-dual spectra.

    ``eigh`` returns a PSD dual's null directions as ``±O(eps·λ_max)``
    noise, and a history deflation leaves such noise where it removed a
    direction.  Every eigenvalue below the relative cutoff
    ``r·eps·λ_max`` counts as exactly 0, so a kernel whose rank is below
    ``k`` has ``e_k = 0`` and fails with the rank error instead of
    drawing from round-off.  Eigenvalues at or above the cutoff are
    returned unchanged.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    top = eigenvalues.max(axis=-1, keepdims=True, initial=0.0)
    cutoff = eigenvalues.shape[-1] * np.finfo(np.float64).eps * top
    return np.where(eigenvalues < cutoff, 0.0, eigenvalues)


class LowRankKernel:
    """A PSD kernel ``L = B Bᵀ`` held in factored form — never the M×M Gram.

    ``B`` is the ``(M, r)`` factor matrix.  The paper's kernels are low
    rank by construction: the diversity kernel is ``K = V Vᵀ`` with
    ``r = 32`` (Eq. 3) and the Eq. 2 personalization only rescales rows
    and columns, so ``L = Diag(q) V (Diag(q) V)ᵀ`` keeps rank ≤ r.  All
    catalog-scale inference (spectra, normalizers, sampling, MAP) then
    runs off the ``r × r`` dual kernel ``C = Bᵀ B`` — the Gartrell,
    Paquet & Koenigstein low-rank DPP trick — at O(M r²) instead of
    O(M³).

    The dual eigendecomposition is computed once, lazily, and cached;
    instances are treated as immutable.
    """

    def __init__(self, factors: np.ndarray) -> None:
        factors = np.asarray(factors, dtype=np.float64)
        if factors.ndim != 2:
            raise ValueError(f"factors must be (M, r), got shape {factors.shape}")
        if not np.all(np.isfinite(factors)):
            raise ValueError("factors contain non-finite entries")
        self.factors = factors
        self._dual_spectrum: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_quality_diversity(
        cls, quality: np.ndarray, diversity_factors: np.ndarray
    ) -> "LowRankKernel":
        """Eq. 2 in factored form: ``Diag(q) V`` so ``L = Diag(q) V Vᵀ Diag(q)``."""
        quality = np.asarray(quality, dtype=np.float64)
        diversity_factors = np.asarray(diversity_factors, dtype=np.float64)
        if quality.ndim != 1:
            raise ValueError(f"quality must be a vector, got shape {quality.shape}")
        if diversity_factors.ndim != 2 or diversity_factors.shape[0] != quality.shape[0]:
            raise ValueError(
                f"diversity factors shape {diversity_factors.shape} does not "
                f"match quality length {quality.shape[0]}"
            )
        return cls(quality[:, None] * diversity_factors)

    # ------------------------------------------------------------------
    @property
    def ground_size(self) -> int:
        return self.factors.shape[0]

    @property
    def rank(self) -> int:
        """Upper bound on the kernel rank (the factor width r)."""
        return self.factors.shape[1]

    def diagonal(self) -> np.ndarray:
        """``diag(L)`` — the squared factor row norms."""
        return (self.factors**2).sum(axis=1)

    def gram_rows(self, items: np.ndarray) -> np.ndarray:
        """The submatrix ``L[items, items]`` as a Gram of factor rows."""
        rows = self.factors[np.asarray(items, dtype=np.int64)]
        return rows @ rows.T

    def dense(self) -> np.ndarray:
        """Materialize the full ``M × M`` kernel (tests / small fallbacks only)."""
        return self.factors @ self.factors.T

    def dual(self) -> np.ndarray:
        """The ``r × r`` dual kernel ``C = Bᵀ B``."""
        return self.factors.T @ self.factors

    def eigh_dual(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition of the dual kernel, cached.

        Returns ``(eigenvalues, dual_vectors)`` with eigenvalues ascending
        and round-off zeroed by :func:`clip_dual_spectrum`.  ``C = Bᵀ B`` and ``L = B Bᵀ`` share their
        nonzero spectrum, so these r eigenvalues *are* the kernel's
        spectrum — the remaining ``M - r`` eigenvalues are exactly zero.
        """
        if self._dual_spectrum is None:
            eigenvalues, dual_vectors = np.linalg.eigh(self.dual())
            self._dual_spectrum = (clip_dual_spectrum(eigenvalues), dual_vectors)
        return self._dual_spectrum

    def lift_eigenvectors(self, indices: np.ndarray | None = None) -> np.ndarray:
        """Primal eigenvectors ``v_i = B ĉ_i / sqrt(λ_i)`` for nonzero λ_i.

        ``indices`` selects dual eigenpairs (default: all with λ > 0); the
        lifted columns are orthonormal eigenvectors of ``L = B Bᵀ``.
        """
        eigenvalues, dual_vectors = self.eigh_dual()
        if indices is None:
            indices = np.flatnonzero(eigenvalues > 0.0)
        indices = np.asarray(indices, dtype=np.int64)
        selected = eigenvalues[indices]
        if np.any(selected <= 0.0):
            raise ValueError("cannot lift eigenvectors of zero eigenvalues")
        return (self.factors @ dual_vectors[:, indices]) / np.sqrt(selected)


def quality_diversity_kernel(quality: Tensor, diversity: Tensor | np.ndarray) -> Tensor:
    """Differentiable ``L = Diag(q) K Diag(q)`` (Eq. 2).

    ``quality`` is a length-m tensor of positive scores; ``diversity`` may
    be a fixed numpy kernel (default LkP variants, where K is pre-learned
    and frozen) or a tensor (E-variants, where K depends on trainable item
    embeddings).
    """
    quality = as_tensor(quality)
    if quality.ndim != 1:
        raise ValueError(f"quality must be a vector, got shape {quality.shape}")
    m = quality.shape[0]
    diversity = as_tensor(diversity)
    if diversity.shape != (m, m):
        raise ValueError(
            f"diversity kernel shape {diversity.shape} does not match "
            f"quality length {m}"
        )
    column = quality.reshape(m, 1)
    row = quality.reshape(1, m)
    return column * diversity * row


def batched_quality_diversity_kernel(
    quality: Tensor, diversity: Tensor | np.ndarray
) -> Tensor:
    """Stacked Eq. 2: ``L_b = Diag(q_b) K_b Diag(q_b)`` for a whole batch.

    ``quality`` is ``(B, m)``, ``diversity`` ``(B, m, m)`` (a fixed numpy
    stack for the pre-learned kernels, a tensor for the E-variants).  The
    reweighting is a pair of broadcast multiplies, so one graph node
    covers what the per-instance path spreads over B kernel assemblies.
    """
    quality = as_tensor(quality)
    if quality.ndim != 2:
        raise ValueError(f"quality must be (B, m), got shape {quality.shape}")
    batch, m = quality.shape
    diversity = as_tensor(diversity)
    if diversity.shape != (batch, m, m):
        raise ValueError(
            f"diversity stack shape {diversity.shape} does not match "
            f"quality shape {quality.shape}"
        )
    column = quality.reshape(batch, m, 1)
    row = quality.reshape(batch, 1, m)
    return column * diversity * row


def quality_diversity_kernel_np(quality: np.ndarray, diversity: np.ndarray) -> np.ndarray:
    """Numpy version of Eq. 2 for analysis-side code."""
    quality = np.asarray(quality, dtype=np.float64)
    diversity = np.asarray(diversity, dtype=np.float64)
    return quality[:, None] * diversity * quality[None, :]


def gaussian_similarity_kernel(
    embeddings: Tensor, bandwidth: float = 1.0, jitter: float = 1e-6
) -> Tensor:
    """Differentiable Gaussian (RBF) similarity kernel over item embeddings.

    ``K_ij = exp(-||e_i - e_j||^2 / (2 bandwidth^2))``.  This is the
    paper's "E" diversity-factor formulation: instead of the pre-learned
    K, item embeddings double as feature vectors and the optimization
    pushes them apart.  Gaussian kernels are PSD; a diagonal jitter keeps
    Cholesky factorizations of submatrices stable when two embeddings
    nearly coincide.
    """
    embeddings = as_tensor(embeddings)
    if embeddings.ndim != 2:
        raise ValueError(f"embeddings must be (m, d), got {embeddings.shape}")
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    m = embeddings.shape[0]
    squared_norms = (embeddings * embeddings).sum(axis=1)
    gram = embeddings @ embeddings.transpose()
    distances = (
        squared_norms.reshape(m, 1) + squared_norms.reshape(1, m) - gram * 2.0
    )
    # Floating point can make tiny distances slightly negative.
    distances = distances.clip(0.0, np.inf)
    kernel = (distances * (-0.5 / bandwidth**2)).exp()
    return kernel + Tensor(jitter * np.eye(m))


def batched_gaussian_similarity_kernel(
    embeddings: Tensor, bandwidth: float = 1.0, jitter: float = 1e-6
) -> Tensor:
    """Stacked Gaussian kernels over per-instance embedding sets.

    ``embeddings`` is ``(B, m, d)``; the result is a ``(B, m, m)`` stack of
    RBF kernels, one per training instance, computed with a single batched
    Gram matmul.  Numerics (distance clipping, diagonal jitter) mirror
    :func:`gaussian_similarity_kernel` exactly so the fused E-variant path
    matches the per-instance reference.
    """
    embeddings = as_tensor(embeddings)
    if embeddings.ndim != 3:
        raise ValueError(f"embeddings must be (B, m, d), got {embeddings.shape}")
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    batch, m, _ = embeddings.shape
    squared_norms = (embeddings * embeddings).sum(axis=2)
    gram = embeddings @ embeddings.mT
    distances = (
        squared_norms.reshape(batch, m, 1)
        + squared_norms.reshape(batch, 1, m)
        - gram * 2.0
    )
    distances = distances.clip(0.0, np.inf)
    kernel = (distances * (-0.5 / bandwidth**2)).exp()
    return kernel + Tensor(jitter * np.eye(m))


def gaussian_similarity_kernel_np(
    embeddings: np.ndarray, bandwidth: float = 1.0, jitter: float = 1e-6
) -> np.ndarray:
    """Numpy Gaussian kernel (evaluation-side twin of the tensor version)."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    squared = (embeddings**2).sum(axis=1)
    distances = squared[:, None] + squared[None, :] - 2.0 * embeddings @ embeddings.T
    np.clip(distances, 0.0, None, out=distances)
    kernel = np.exp(-0.5 * distances / bandwidth**2)
    return kernel + jitter * np.eye(embeddings.shape[0])


def exp_quality(scores: Tensor, clip: float = SCORE_CLIP) -> Tensor:
    """Eq. 13's quality: ``exp(score)`` with clipping for stability."""
    return as_tensor(scores).clip(-clip, clip).exp()


def sigmoid_quality(scores: Tensor, floor: float = 1e-4) -> Tensor:
    """Quality for probability-output backbones (NeuMF, GCMC).

    A small floor keeps the kernel strictly positive definite when the
    classifier is confidently negative about an item.
    """
    return as_tensor(scores).sigmoid() + floor


def identity_quality(scores: Tensor, floor: float = 1e-4) -> Tensor:
    """Pass-through for models that already emit positive quality values."""
    return as_tensor(scores).clip(floor, np.inf)


QUALITY_TRANSFORMS = {
    "exp": exp_quality,
    "sigmoid": sigmoid_quality,
    "identity": identity_quality,
}
