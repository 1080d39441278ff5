"""Fast greedy MAP inference for DPPs (Chen, Zhang & Zhou, NeurIPS 2018).

The related-work systems the paper cites diversify recommendations by
greedily maximizing ``log det(L_S)``; this module implements the
O(M k^2) incremental-Cholesky version of that greedy algorithm.  In this
reproduction it powers the example applications (generating a diversified
top-k list from a trained model's kernel) and serves as a baseline
post-processing re-ranker to contrast with LkP's in-training approach.

``greedy_map`` also accepts a :class:`~repro.dpp.kernels.LowRankKernel`:
the algorithm only ever touches the kernel's diagonal and one row per
round, and both are inner products of factor rows, so catalog-wide
diversified top-k runs in O(M k (r + k)) without materializing — or even
being handed — the M×M Gram matrix.
"""

from __future__ import annotations

import numpy as np

from .kernels import LowRankKernel

__all__ = [
    "greedy_map",
    "batched_greedy_map_shared",
    "batched_greedy_map_stacked",
    "batched_greedy_map_shared_session",
    "batched_greedy_map_stacked_session",
]


def greedy_map(
    kernel: np.ndarray | LowRankKernel,
    k: int,
    candidates: np.ndarray | None = None,
    epsilon: float = 1e-10,
) -> list[int]:
    """Greedily select ``k`` items maximizing ``log det(L_S)``.

    Implements the fast greedy algorithm: maintain, for every remaining
    item, the squared Cholesky residual ``d_i^2`` (its marginal determinant
    gain) and the partial Cholesky row ``c_i``, updating both in O(1) per
    item per round.

    Parameters
    ----------
    kernel:
        PSD L-ensemble kernel over the full candidate ground set — either
        a dense matrix or a :class:`LowRankKernel`, whose factor inner
        products supply the diagonal and the per-round row on demand.
    k:
        Number of items to select (the paper's fixed result-list size).
    candidates:
        Optional subset of indices to restrict the selection to.
    epsilon:
        Stop early if the best remaining marginal gain falls below this,
        which mirrors the reference implementation's stopping rule.
    """
    factors: np.ndarray | None = None
    if isinstance(kernel, LowRankKernel):
        factors = kernel.factors
        m = kernel.ground_size
    else:
        kernel = np.asarray(kernel, dtype=np.float64)
        m = kernel.shape[0]
    if candidates is None:
        candidates = np.arange(m)
    else:
        candidates = np.asarray(candidates, dtype=np.int64)
    if not 1 <= k <= candidates.shape[0]:
        raise ValueError(
            f"k must be in [1, {candidates.shape[0]}], got {k}"
        )

    num_candidates = candidates.shape[0]
    if factors is not None:
        candidate_factors = factors[candidates]
        di2 = (candidate_factors**2).sum(axis=1)
    else:
        candidate_factors = None
        di2 = kernel[candidates, candidates].copy()
    # cis[j, i]: j-th Cholesky coefficient of candidate i (row-incremental).
    cis = np.zeros((k, num_candidates), dtype=np.float64)

    selected_local = int(np.argmax(di2))
    selected = [selected_local]
    for round_index in range(1, k):
        last = selected_local
        ci_last = cis[:round_index, last]
        di_last = np.sqrt(max(di2[last], epsilon))
        if candidate_factors is not None:
            row = candidate_factors @ candidate_factors[last]
        else:
            row = kernel[candidates[last], candidates]
        eis = (row - ci_last @ cis[:round_index, :]) / di_last
        cis[round_index, :] = eis
        di2 = di2 - eis**2
        di2[selected] = -np.inf  # never re-pick
        selected_local = int(np.argmax(di2))
        if di2[selected_local] < epsilon:
            break
        selected.append(selected_local)
    return [int(candidates[i]) for i in selected]


def _greedy_rounds(
    di2: np.ndarray,
    row_factor,
    project,
    rank: int,
    k: int,
    epsilon: float,
    seeds: np.ndarray | None = None,
    pins: list | None = None,
    quota: list | None = None,
) -> tuple[list[list[int]], np.ndarray]:
    """The greedy rounds behind every batched greedy-MAP variant, in factor space.

    ``di2`` is the ``(B, N)`` stack of marginal-gain residuals.  All
    kernels here are low-rank — item ``i`` of request ``b`` is a factor
    row ``b_i ∈ R^r`` — so instead of storing every request's partial
    Cholesky rows (a ``(B, k, N)`` history whose per-round correction
    matmul rereads the whole prefix, O(B·k²·N) traffic over a full run),
    the driver maintains the orthonormal directions ``u_1..u_j ∈ R^r``
    spanning the selected rows.  The classic update

        ``e_i = (L[last, i] - Σ_j c_last,j c_i,j) / d_last``

    collapses exactly to ``e_i = ⟨b_i, u_new⟩`` with
    ``u_new = (b_last - Σ_j ⟨b_last, u_j⟩ u_j) / d_last``: the
    correction becomes an O(B·k·r) Gram–Schmidt step on the tiny
    coefficient state, and the only O(N) work per round is the single
    ``project`` matmul — the same shape the batched sampler pays per
    step.

    ``row_factor(lasts)`` returns the ``(B, r)`` factor rows of the
    per-request last-selected items; ``project(u)`` returns the
    ``(B, N)`` inner products of every item's factor row with each
    request's new direction.

    Session constraints are optional; without them this is plain greedy
    MAP.  ``seeds`` is a zero-padded ``(B, s, r)`` stack of orthonormal
    conditioning directions the Gram–Schmidt state starts from (zero
    rows are inert); ``di2`` must already be deflated against them.
    ``pins[b]`` is a local-id array of force-included items — they
    occupy the front of request ``b``'s picks and their directions are
    assumed to be part of ``seeds`` (so their gains are zero and they
    are additionally hard-masked here).  ``quota[b]`` is ``None`` or
    ``(categories, {category: minimum})`` with ``categories`` a local
    ``(N,)`` int array: whenever a request's remaining slots are all
    needed to close quota deficits, its argmax is restricted to the
    deficit categories.

    Early stopping mirrors :func:`greedy_map`: a request's very first
    pick (no pins) is always kept; every later pick — quota-restricted
    or not — requires a gain of at least ``epsilon``, so an exhausted
    rank or an unsatisfiable quota yields a partial slate rather than
    padding with zero-gain items (other requests keep running).

    Returns the per-request picks and each request's last-decision gain:
    the best remaining gain of its last pick or of its ε-stop (what the
    top-candidate certificate of :func:`batched_greedy_map_shared`
    reads).
    """
    batch, _ = di2.shape
    rows_index = np.arange(batch)
    s_max = 0 if seeds is None else seeds.shape[1]
    # At most k - 1 directions join the seeds: the round that makes a
    # request's k-th pick stops it before projecting.
    ortho = np.zeros((batch, s_max + max(k - 1, 1), rank), dtype=np.float64)
    if seeds is not None:
        ortho[:, :s_max] = seeds
    filled = s_max
    # One spare column: a finished request's whole-row write lands past
    # its slate (see the loop).
    picks = np.full((batch, k + 1), -1, dtype=np.int64)
    counts = np.zeros(batch, dtype=np.int64)
    last_gains = np.zeros(batch, dtype=np.float64)
    cat_counts: list[dict | None] = [None] * batch
    if quota is not None:
        for b, spec in enumerate(quota):
            if spec is not None:
                cat_counts[b] = {}
    if pins is not None:
        for b, pinned in enumerate(pins):
            if pinned is None or len(pinned) == 0:
                continue
            pinned = np.asarray(pinned, dtype=np.int64)
            picks[b, : pinned.shape[0]] = pinned
            counts[b] = pinned.shape[0]
            di2[b, pinned] = -np.inf
            if cat_counts[b] is not None:
                categories = quota[b][0]
                for item in pinned:
                    cat = int(categories[item])
                    cat_counts[b][cat] = cat_counts[b].get(cat, 0) + 1
    active = counts < k
    # counts == 0 only holds for a pin-less request's first pick, which
    # is kept whatever its gain.
    first = counts == 0
    # A pass with no active request leaves every slate and gain as it
    # was and ends the loop: the one emptiness check precedes projecting.
    while True:
        lasts = np.argmax(di2, axis=1)
        gains = di2[rows_index, lasts]
        if quota is not None:
            for b in np.flatnonzero(active):
                spec = quota[b]
                if spec is None:
                    continue
                categories, minimums = spec
                seen = cat_counts[b]
                deficits = {
                    cat: need - seen.get(cat, 0)
                    for cat, need in minimums.items()
                    if need - seen.get(cat, 0) > 0
                }
                if not deficits:
                    continue
                if sum(deficits.values()) >= k - counts[b]:
                    # Every remaining slot is spoken for: restrict the
                    # pick to categories still short of their minimum.
                    allowed = np.isin(categories, list(deficits))
                    row = np.where(allowed, di2[b], -np.inf)
                    lasts[b] = int(np.argmax(row))
                    gains[b] = row[lasts[b]]
        np.copyto(last_gains, gains, where=active)
        keep = gains >= epsilon
        if first is not None:
            keep |= first
            first = None
        active &= keep
        # Whole-row writes: a finished request writes past its slate and
        # masks an item it never picks, and its row feeds no output.
        picks[rows_index, counts] = lasts
        di2[rows_index, lasts] = -np.inf  # masked argmax: never re-pick
        counts += active
        if quota is not None:
            for b in np.flatnonzero(active):
                if cat_counts[b] is not None:
                    cat = int(quota[b][0][lasts[b]])
                    cat_counts[b][cat] = cat_counts[b].get(cat, 0) + 1
        active &= counts < k
        if not active.any():
            break
        di_last = np.sqrt(np.maximum(gains, epsilon))
        residual = row_factor(lasts)
        residual[~active] = 0.0
        if filled:
            previous = ortho[:, :filled]
            overlaps = np.einsum("bjr,br->bj", previous, residual)
            residual = residual - np.einsum("bj,bjr->br", overlaps, previous)
        direction = residual / di_last[:, None]
        ortho[:, filled] = direction
        filled += 1
        eis = project(direction)
        di2 -= eis**2
    return [picks[b, : counts[b]].tolist() for b in range(batch)], last_gains


#: candidates per request of the certified restricted greedy rounds in
#: :func:`batched_greedy_map_shared`
_MAP_CANDIDATES = 128


def _shared_rounds(
    diversity_factors: np.ndarray,
    quality: np.ndarray,
    gains: np.ndarray,
    k: int,
    epsilon: float,
    **constraints,
) -> tuple[list[list[int]], np.ndarray]:
    """Greedy rounds over the whole catalog; ``gains`` (consumed) holds
    the initial gains ``q_bi² ‖v_i‖²``.  Each round's catalog-sized work
    is one shared ``(B, r) @ (r, M)`` matmul (``e_bi = q_bi ⟨v_i, u_b⟩``,
    see :func:`_greedy_rounds`, which receives ``constraints``)."""
    rows_index = np.arange(quality.shape[0])

    def row_factor(lasts: np.ndarray) -> np.ndarray:
        return diversity_factors[lasts] * quality[rows_index, lasts][:, None]

    def project(direction: np.ndarray) -> np.ndarray:
        eis = direction @ diversity_factors.T
        eis *= quality
        return eis

    return _greedy_rounds(
        gains, row_factor, project, diversity_factors.shape[1], k, epsilon,
        **constraints,
    )


def _stacked_rounds(
    factor_stack: np.ndarray,
    gains: np.ndarray,
    k: int,
    epsilon: float,
    **constraints,
) -> tuple[list[list[int]], np.ndarray]:
    """Greedy rounds over an explicit ``(B, N, r)`` factor stack whose
    initial gains are ``gains`` (consumed); each round is one batched
    ``einsum`` over the stack."""
    rows_index = np.arange(factor_stack.shape[0])

    def row_factor(lasts: np.ndarray) -> np.ndarray:
        return factor_stack[rows_index, lasts]

    def project(direction: np.ndarray) -> np.ndarray:
        return np.einsum("bnr,br->bn", factor_stack, direction)

    return _greedy_rounds(
        gains, row_factor, project, factor_stack.shape[2], k, epsilon,
        **constraints,
    )


def _shared_inputs(
    diversity_factors: np.ndarray, quality: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Checked float64 ``(M, r)`` factors and ``(B, M)`` quality."""
    diversity_factors = np.asarray(diversity_factors, dtype=np.float64)
    quality = np.asarray(quality, dtype=np.float64)
    ground = quality.shape[1]
    if diversity_factors.shape[0] != ground:
        raise ValueError(
            f"factors cover {diversity_factors.shape[0]} items but quality "
            f"has {ground}"
        )
    if not 1 <= k <= ground:
        raise ValueError(f"k must be in [1, {ground}], got {k}")
    return diversity_factors, quality


def batched_greedy_map_shared(
    diversity_factors: np.ndarray,
    quality: np.ndarray,
    k: int,
    epsilon: float = 1e-10,
    *,
    item_norms: np.ndarray | None = None,
    on_fallback=None,
) -> list[list[int]]:
    """Greedy MAP for a batch of kernels sharing one factor matrix ``V``.

    Request ``b``'s kernel is ``L_b = Diag(q_b) V Vᵀ Diag(q_b)`` (Eq. 2);
    the stacked factor matrices are never materialized.  The lazy
    evaluation of Chen, Zhang & Zhou, vectorized: an item's gain
    ``d_i²`` only decreases, so its initial gain ``q_i² ‖v_i‖²`` bounds
    every later one.  Each request first runs the greedy rounds over
    its top ``_MAP_CANDIDATES`` items by initial gain (ordered by item
    id, so argmax ties break as on the whole catalog).  With ``τ_b`` the
    largest initial gain left out, a request whose last decision — its
    last pick or its ε-stop — had a best gain strictly above ``τ_b`` made
    every decision the whole-catalog rounds make (picked gains never
    increase, so the last decision certifies the earlier ones).  Rows
    that fail this check rerun the whole-catalog rounds, whose only
    catalog-sized work per round is one shared ``(B, r) @ (r, M)``
    matmul; ``on_fallback(count)`` is told how many rows did.

    ``item_norms`` optionally supplies the precomputed ``‖v_i‖²``.
    Matches per-request :func:`greedy_map` on a :class:`LowRankKernel`
    of the same factors, with one caveat: when marginal gains are
    *exactly* tied (e.g. perfectly uniform quality over a unit-diagonal
    catalog), the two paths may break the tie differently — each then
    returns a valid greedy solution, just not the same one.
    """
    diversity_factors, quality = _shared_inputs(diversity_factors, quality, k)
    ground = quality.shape[1]
    if item_norms is None:
        item_norms = (diversity_factors**2).sum(axis=1)
    gains = quality**2 * item_norms[None, :]
    width = _MAP_CANDIDATES
    if k > width or width >= ground - 1:
        return _shared_rounds(diversity_factors, quality, gains, k, epsilon)[0]
    order = np.argpartition(gains, ground - width - 1, axis=1)
    candidates = np.sort(order[:, ground - width :], axis=1)
    bound = np.take_along_axis(gains, order[:, ground - width - 1, None], axis=1)
    stack = diversity_factors[candidates]
    stack *= np.take_along_axis(quality, candidates, axis=1)[:, :, None]
    local, last_gains = _stacked_rounds(
        stack, np.take_along_axis(gains, candidates, axis=1), k, epsilon
    )
    results = [candidates[b, picks].tolist() for b, picks in enumerate(local)]
    failed = np.flatnonzero(last_gains <= bound[:, 0])
    if failed.size:
        if on_fallback is not None:
            on_fallback(int(failed.size))
        rerun, _ = _shared_rounds(
            diversity_factors, quality[failed], gains[failed], k, epsilon
        )
        for b, picks in zip(failed, rerun):
            results[b] = picks
    return results


def batched_greedy_map_stacked(
    factor_stack: np.ndarray, k: int, epsilon: float = 1e-10
) -> list[list[int]]:
    """Greedy MAP over an explicit ``(B, N, r)`` per-request factor stack.

    The candidate-slice twin of :func:`batched_greedy_map_shared`: each
    request brings its own (small) gathered ground set and every round is
    a batched ``einsum`` over the stack.  It is
    :func:`batched_greedy_map_stacked_session` with no constraints.
    """
    return batched_greedy_map_stacked_session(factor_stack, k, epsilon=epsilon)


def _deflate_gains(di2: np.ndarray, projections: np.ndarray) -> np.ndarray:
    """``di2 - Σ_s projections²``, clipped at zero (deflated squared
    norms can dip a few ulp negative)."""
    di2 = di2 - np.einsum("bsn,bsn->bn", projections, projections)
    return np.clip(di2, 0.0, None, out=di2)


def batched_greedy_map_shared_session(
    diversity_factors: np.ndarray,
    quality: np.ndarray,
    k: int,
    seeds: np.ndarray | None = None,
    pins: list | None = None,
    quota: list | None = None,
    epsilon: float = 1e-10,
) -> list[list[int]]:
    """Session/constrained greedy MAP over one shared factor matrix.

    Same kernel family as :func:`batched_greedy_map_shared` (request
    ``b`` scores item ``i`` as ``q_bi v_i``), but the selection is
    conditioned and constrained: ``seeds`` is a zero-padded ``(B, s, r)``
    stack of orthonormal directions (history items already shown, plus
    the span of pinned rows) that are projected out of every marginal
    gain before the first round, ``pins``/``quota`` are forwarded to
    :func:`_greedy_rounds`.  With no seeds, pins or quotas these are the
    plain whole-catalog rounds (no top-candidate certificate).
    """
    diversity_factors, quality = _shared_inputs(diversity_factors, quality, k)
    di2 = quality**2 * (diversity_factors**2).sum(axis=1)[None, :]
    if seeds is not None:
        projections = np.einsum("bsr,nr->bsn", seeds, diversity_factors)
        projections *= quality[:, None, :]
        di2 = _deflate_gains(di2, projections)
    return _shared_rounds(
        diversity_factors, quality, di2, k, epsilon,
        seeds=seeds, pins=pins, quota=quota,
    )[0]


def batched_greedy_map_stacked_session(
    factor_stack: np.ndarray,
    k: int,
    seeds: np.ndarray | None = None,
    pins: list | None = None,
    quota: list | None = None,
    epsilon: float = 1e-10,
) -> list[list[int]]:
    """Session/constrained greedy MAP over a ``(B, N, r)`` factor stack.

    The candidate-slice twin of
    :func:`batched_greedy_map_shared_session`.  The serving engine hands
    it stacks whose rows are already deflated against the request's
    history, so ``seeds`` here carries only the pin directions (an
    orthonormal basis of each request's pinned rows, zero-padded).
    """
    factor_stack = np.asarray(factor_stack, dtype=np.float64)
    if factor_stack.ndim != 3:
        raise ValueError(f"expected (B, N, r) factors, got {factor_stack.shape}")
    ground = factor_stack.shape[1]
    if not 1 <= k <= ground:
        raise ValueError(f"k must be in [1, {ground}], got {k}")
    di2 = np.einsum("bnr,bnr->bn", factor_stack, factor_stack)
    if seeds is not None:
        projections = np.einsum("bsr,bnr->bsn", seeds, factor_stack)
        di2 = _deflate_gains(di2, projections)
    return _stacked_rounds(
        factor_stack, di2, k, epsilon, seeds=seeds, pins=pins, quota=quota
    )[0]
