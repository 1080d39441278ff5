"""Brute-force reference implementations the tests check production against.

Each oracle recomputes its answer from first principles — explicit
determinants, the full catalog vector — with none of the engine's
shortcuts, so a test comparing the two checks the math rather than one
implementation against a copy of itself.
"""

from __future__ import annotations

import numpy as np

from repro.dpp.kdpp import KDPP
from repro.dpp.kernels import LowRankKernel


def greedy_map_reference(kernel: np.ndarray, k: int) -> list[int]:
    """O(M k^4) textbook greedy MAP via explicit determinants: every round
    recomputes ``det(L_{S + {i}})`` anew for every candidate."""
    kernel = np.asarray(kernel, dtype=np.float64)
    m = kernel.shape[0]
    selected: list[int] = []
    for _ in range(k):
        best_item, best_det = -1, -np.inf
        for i in range(m):
            if i in selected:
                continue
            trial = selected + [i]
            det = np.linalg.det(kernel[np.ix_(trial, trial)])
            if det > best_det:
                best_det, best_item = det, i
        if best_item < 0 or best_det <= 0:
            break
        selected.append(best_item)
    return selected


def gram_products_reference(factors: np.ndarray) -> np.ndarray:
    """The ``(M, r(r+1)/2)`` outer-product table by two fancy-index
    gathers: row ``m`` is the upper triangle of ``v_m v_mᵀ``, row-major,
    each entry the single product ``v_m[i] * v_m[j]``."""
    rows, cols = np.triu_indices(factors.shape[1])
    return factors[:, rows] * factors[:, cols]


def _log_esp(eigenvalues: np.ndarray, k: int) -> float:
    e = np.zeros(k + 1)
    e[0] = 1.0
    for value in eigenvalues:
        e[1:] = e[1:] + value * e[:-1].copy()
    return float(np.log(e[k]))


def sliced_request_oracle(factors: np.ndarray, request) -> tuple[list[int], float]:
    """Slate and log-probability of a sliced session request, built from
    the full catalog vector: zero the excluded and shown items, raise to
    ``1/alpha``, then slice; deflate the slice rows by the history span;
    sample through ``KDPP.from_factors`` or run a brute-force determinant
    greedy seeded with the pins."""
    quality = np.asarray(request.quality, dtype=np.float64).copy()
    quality[np.asarray(request.exclude)] = 0.0
    quality[np.asarray(request.history)] = 0.0
    quality = np.minimum(quality ** (1.0 / request.alpha), 1e150)
    candidates = np.asarray(request.candidates)
    rows = quality[candidates][:, None] * factors[candidates]
    u, s, _ = np.linalg.svd(factors[np.asarray(request.history)].T, full_matrices=False)
    basis = u[:, s > 1e-10 * s[0]]
    rows = rows - (rows @ basis) @ basis.T
    if request.mode == "sample":
        kdpp = KDPP.from_factors(LowRankKernel(rows), request.k)
        local = [int(i) for i in kdpp.sample(np.random.default_rng(request.seed))]
    else:
        local = [int(np.flatnonzero(candidates == pin)[0]) for pin in request.pins]
        while len(local) < request.k:
            best, best_value = None, -np.inf
            for i in range(candidates.shape[0]):
                if i in local or quality[candidates[i]] <= 0:
                    continue
                chosen = rows[local + [i]]
                sign, value = np.linalg.slogdet(chosen @ chosen.T)
                if sign > 0 and value > best_value:
                    best, best_value = i, value
            local.append(best)
    chosen = rows[local]
    _, log_det = np.linalg.slogdet(chosen @ chosen.T)
    log_normalizer = _log_esp(np.linalg.eigvalsh(rows.T @ rows).clip(0.0), request.k)
    return [int(candidates[i]) for i in local], log_det - log_normalizer


def mode_cost_ewma_reference(batches, decay: float = 0.3) -> dict[str, float]:
    """Per-mode EWMA service-time estimates, one update per request.

    Each batch is ``(modes, seconds)``: its requests' served modes in
    order and the batch's timed seconds; every request is charged the
    per-request share ``seconds / len(modes)``, the first sample of a
    mode taken as is and each later one weighted by ``decay``."""
    costs: dict[str, float] = {}
    for modes, seconds in batches:
        share = seconds / len(modes)
        for mode in modes:
            previous = costs.get(mode)
            if previous is None:
                costs[mode] = float(share)
            else:
                costs[mode] = decay * float(share) + (1.0 - decay) * previous
    return costs
