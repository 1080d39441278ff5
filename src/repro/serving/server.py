"""Batched multi-user k-DPP serving.

One :class:`KDPPServer` turns a batch of personalization requests over a
shared :class:`~repro.serving.catalog.ItemCatalog` into recommendation
lists.  Per Eq. 2 a request only reweights the shared factors — its
kernel is ``L_u = Diag(q_u) V Vᵀ Diag(q_u)`` — so the whole batch shares
every catalog-sized computation:

* all full-catalog dual kernels ``C_u = Vᵀ Diag(q_u²) V`` of a batch —
  every mode, ``k`` and session state — come from one
  :meth:`CatalogSnapshot.build_duals` call: a ``(B, M)``-by-table matmul
  for two or more rows, split across the two :mod:`~repro.utils.lanes`,
  a direct ``(V q_u)ᵀ(V q_u)`` for a single request;
* one stacked ``eigh`` factorizes every full-catalog request's dual;
* one :func:`~repro.dpp.esp.batched_log_esp` produces every Eq. 6
  normalizer, heterogeneous ``k`` included;
* sampling and greedy MAP run vectorized across the batch, and neither
  scans the catalog once per step.
  :func:`~repro.dpp.kdpp.batched_sample_elementary_shared` lifts each
  request once into per-block ``p × p`` Grams, then inverts a two-level
  (block, then item) CDF per step; each request consumes its own seeded
  RNG stream, so a batch reproduces the per-user
  ``KDPP.from_factors(...).sample(rng)`` loop draw for draw.
  :func:`~repro.dpp.map_inference.batched_greedy_map_shared` runs the
  greedy rounds over each request's top-128 items by initial gain and
  keeps them when a gain bound certifies they equal the whole-catalog
  rounds; rows that fail rerun over the whole catalog and are counted in
  ``serving_map_certificate_fallbacks_total`` under a runtime.

Request semantics
-----------------
``mode`` is one of:

* ``"sample"`` — an exact k-DPP draw (diversity by randomization);
* ``"map"`` — greedy MAP over the ground set (deterministic);
* ``"topk-rerank"`` — restrict to the request's top ``rerank_pool``
  items by quality, then greedy MAP inside that slice (the classic
  serving pattern of post-hoc DPP re-rankers).

``exclude`` removes items from the ground set by zeroing their quality:
a zero factor row can never be selected and contributes nothing to the
dual kernel, so this is exactly equivalent to deleting the rows — while
keeping every request in the batch the same shape.  ``candidates``
restricts a request to an explicit item slice (the
:class:`~repro.serving.bridge.RecommenderBridge` uses it for
user-specific top-N candidate pools); results are reported in catalog
ids either way.

Session-aware serving
---------------------
Four request fields extend the model to multi-page sessions and
constrained slates; all default to "off".  Clean and session requests
share one group path per ground set and one greedy-MAP round loop — a clean
request simply has no history deflation, seeds, pins or quotas — but
they are grouped apart, so a clean request's slate does not depend on
the session requests batched with it:

* ``alpha`` — per-request diversity strength.  The effective quality is
  ``q_u^(1/alpha)``: ``alpha=1`` is the paper's Eq. 2 kernel, larger
  values flatten quality so the determinant's diversity term dominates
  (ReAgent's DPP-wrapper knob), smaller values sharpen quality toward
  plain top-k.  A monotone transform, so funnels and rerank pools are
  unchanged — only the kernel trade-off moves.
* ``history`` — items already shown earlier in the session.  They are
  zeroed out of the ground set like exclusions *and* conditioned out of
  the kernel: the low-rank Schur complement of ``L_u`` given a shown
  set A is exactly the kernel of the factor rows deflated by an
  orthonormal basis ``U`` of ``span{v_h : h ∈ A}`` (``B̃ = B(I - UUᵀ)``,
  dual ``C̃ = PCP`` with ``P = I - UUᵀ`` — still r × r, one O(r²h)
  correction per request after the shared batched dual build).  Samples
  and MAP slates are therefore diverse *against the pages the user
  already saw*, not just internally.
* ``pins`` — must-include items (MAP modes only).  They occupy the
  front of the returned list and seed the greedy Gram–Schmidt state, so
  the remaining ``k - |pins|`` picks maximize the determinant *given*
  the pins.
* ``quotas`` / ``categories`` — per-category minimum counts (MAP modes
  only).  The batched greedy loop restricts its argmax to deficit
  categories whenever the remaining slots are all needed to close the
  quotas; the funnel guarantees each quota'd category enough
  positive-quality pool members.

``serve_sequential`` is the PR 2 one-request-at-a-time loop over the
same request semantics — the parity oracle for the tests and the
baseline the serving benchmark measures against.  One caveat: greedy
MAP under *exactly* tied marginal gains (perfectly uniform quality on a
unit-diagonal catalog) may break ties differently on the two paths —
each returns a valid greedy solution.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np

from ..dpp.esp import batched_esp_table, batched_log_esp
from ..dpp.kdpp import (
    KDPP,
    batched_sample_elementary_shared,
    batched_sample_elementary_stacked,
    kdpp_spectrum_scale,
    select_eigenvectors_from_esp_table,
)
from ..dpp.kernels import LowRankKernel, clip_dual_spectrum
from ..dpp.map_inference import (
    batched_greedy_map_shared,
    batched_greedy_map_shared_session,
    batched_greedy_map_stacked,
    batched_greedy_map_stacked_session,
    greedy_map,
)
from ..utils.topk import top_k_indices
from .catalog import CatalogSnapshot, ItemCatalog
from .config import ServingConfig
from .observability import StageRecorder

__all__ = [
    "Request",
    "Response",
    "KDPPServer",
    "REQUEST_MODES",
    "effective_request_quality",
    "extend_pool_for_constraints",
]

REQUEST_MODES = ("sample", "map", "topk-rerank")

#: ceiling on ``quality ** (1/alpha)`` — keeps extreme alpha values from
#: overflowing to inf (the kernel only needs quality *ratios*)
ALPHA_QUALITY_CLIP = 1e150


def _item_norms(snap: CatalogSnapshot) -> np.ndarray:
    """``‖v_i‖²`` of every item: the certified greedy MAP's gain bounds,
    built once per catalog version (``snap.extension``)."""
    return (snap.factors**2).sum(axis=1)


def _as_ids(values, dtype=np.int64) -> np.ndarray | None:
    """``None``/empty → ``None``; otherwise a 1-D int64 id array."""
    if values is None:
        return None
    ids = np.asarray(values, dtype=dtype)
    if ids.size == 0:
        return None
    return ids.reshape(-1)


def _isin(values: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``np.isin(values, ids)`` by one sort and one ``searchsorted``:
    the same mask at a fraction of ``np.isin``'s fixed cost for the
    pool- and session-sized id arrays served per request."""
    ids = np.sort(ids)
    positions = np.searchsorted(ids, values)
    np.minimum(positions, ids.shape[0] - 1, out=positions)
    return ids[positions] == values


def _orthonormal_columns(rows: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis (r, s) of the span of ``rows`` (h, r), rank-
    revealing: linearly dependent rows contribute no spurious basis
    vector (a QR would), so conditioning never over-deflates."""
    if rows.size == 0:
        return None
    u, s, _ = np.linalg.svd(rows.T, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return None
    keep = s > max(rows.shape) * np.finfo(np.float64).eps * s[0]
    if not np.any(keep):
        return None
    return np.ascontiguousarray(u[:, keep])


def effective_request_quality(
    request: "Request",
    index: int,
    candidates: np.ndarray | None = None,
    out: np.ndarray | None = None,
    check_values: bool = True,
) -> np.ndarray:
    """The request's quality over a ground set, with exclusions *and*
    history zeroed (shown items must never re-enter a pool or a slate).

    ``candidates=None``: the ground set is the catalog and the result is
    catalog-sized (written into ``out`` when given — the sharded funnel
    fills its source stack rows this way).  With ``candidates`` only
    ``quality[candidates]`` is gathered and the exclusion/history ids
    that fall inside the slice are zeroed there: O(slice + zeroed ids),
    never O(M).

    ``check_values`` scans the *returned* entries — the whole catalog,
    or just the slice — and raises the request-indexed "finite and
    non-negative" error; a bad value outside a slice is never read.
    The request must already have passed :meth:`Request.validate`,
    which owns the shape and id-bounds checks.
    """
    quality = np.asarray(request.quality, dtype=np.float64)
    shown = [
        ids
        for ids in (_as_ids(request.exclude), _as_ids(request.history))
        if ids is not None
    ]
    zero = np.concatenate(shown) if shown else None
    if candidates is not None:
        quality = quality[candidates]
        if zero is not None:
            quality[_isin(candidates, zero)] = 0.0
    else:
        if out is not None:
            np.copyto(out, quality)
            quality = out
        elif zero is not None:
            quality = quality.copy()
        if zero is not None:
            quality[zero] = 0.0
    if check_values and (
        not np.all(np.isfinite(quality)) or np.any(quality < 0)
    ):
        raise ValueError(
            f"request {index}: quality must be finite and non-negative"
        )
    return quality


def extend_pool_for_constraints(
    pool: np.ndarray,
    quality: np.ndarray | None,
    pins: np.ndarray | None,
    quotas: Mapping[int, int] | None,
    categories: np.ndarray | None,
) -> np.ndarray:
    """Union pins and per-category quota tops into a candidate pool.

    Used wherever serving builds a pool on the caller's behalf (the
    engine's ``topk-rerank`` lowering, the sharded funnel): the pool
    stays the pure quality funnel output — so funnel caches stay
    reusable across constraint changes — and the constraint extras are
    appended after it in deterministic order (pins in request order,
    then quota top-ups by ascending category, each descending quality).
    Explicit caller-provided ``candidates`` are never extended.
    ``quality`` (the catalog-sized effective quality) is read only for
    quota top-ups and may be ``None`` without quotas.
    """
    pins = _as_ids(pins)
    if pins is None and not quotas:
        return pool
    pool = np.asarray(pool, dtype=np.int64)
    present = set(pool.tolist())
    extras: list[int] = []
    if pins is not None:
        for pin in pins.tolist():
            if pin not in present:
                extras.append(pin)
                present.add(pin)
    if quotas:
        merged = np.concatenate([pool, np.asarray(extras, dtype=np.int64)])
        for category, need in sorted(quotas.items()):
            in_pool = int(
                np.count_nonzero(
                    (categories[merged] == category) & (quality[merged] > 0)
                )
            )
            if in_pool >= need:
                continue
            mask = (categories == category) & (quality > 0)
            mask[merged] = False
            eligible = np.flatnonzero(mask)
            if eligible.size == 0:
                continue
            order = eligible[
                np.argsort(-quality[eligible], kind="stable")[: need - in_pool]
            ]
            extras.extend(int(item) for item in order)
            merged = np.concatenate([merged, order])
    if not extras:
        return pool
    return np.concatenate([pool, np.asarray(extras, dtype=np.int64)])


@dataclass(frozen=True)
class Request:
    """One user's recommendation request against the shared catalog.

    ``quality`` is the catalog-sized vector of positive per-item quality
    scores ``q_u`` (Eq. 2 / Eq. 13) — typically produced by a trained
    :class:`~repro.models.base.Recommender` through the
    :class:`~repro.serving.bridge.RecommenderBridge`.

    ``user`` is an optional stable requester id.  The engine itself
    ignores it; the sharded funnel's
    :class:`~repro.retrieval.cache.FunnelCache` keys on it, under the
    contract that one ``user`` id maps to one quality vector per catalog
    version (the bridge guarantees this via its score snapshot).

    Session fields (see the module docstring for the semantics):
    ``alpha`` rescales quality to ``q_u^(1/alpha)`` (diversity strength;
    1.0 is the neutral pre-session kernel), ``history`` conditions
    already-shown items out of the kernel, ``pins`` force-includes items
    at the front of a MAP slate, and ``quotas`` (with the catalog-sized
    ``categories`` labeling) imposes per-category minimum counts on a
    MAP slate.  All default to off; :meth:`validate` is the single
    authority on their invariants.

    ``deadline`` is an absolute latency budget in the serving clock's
    domain (the injected micro-batcher clock; ``time.monotonic`` by
    default).  The engine itself ignores it — the resilience layer
    (:mod:`repro.serving.resilience`) degrades a request whose remaining
    budget cannot cover its mode and fails an expired one with
    :class:`~repro.serving.resilience.DeadlineExceeded` instead of
    serving it late.  ``None`` (the default) means unbounded.
    """

    quality: np.ndarray
    k: int
    mode: str = "sample"
    exclude: np.ndarray | None = None
    candidates: np.ndarray | None = None
    seed: int | None = None
    rerank_pool: int | None = None
    user: int | None = None
    alpha: float = 1.0
    history: np.ndarray | None = None
    pins: np.ndarray | None = None
    quotas: Mapping[int, int] | None = None
    categories: np.ndarray | None = None
    deadline: float | None = None

    def validate(self, num_items: int, index: int = 0) -> None:
        """Check every structural field invariant, raising request-
        indexed ``ValueError``s: modes, ``k``, session fields, the
        quality shape and the bounds of every id array (an explicit
        candidate slice must also be unique ids).  The quality *values*
        are scanned separately by :func:`effective_request_quality`,
        which knows whether the request is sliced.

        This is the one source of truth for request validation, and it
        runs once per request: the engine's ``_resolve`` starts here,
        and the sharded funnel's ``_lower`` runs it before funnelling
        and hands the engine requests it has already checked.
        """
        if self.mode not in REQUEST_MODES:
            raise ValueError(
                f"request {index}: mode must be one of {REQUEST_MODES}, "
                f"got {self.mode!r}"
            )
        if self.k < 1:
            raise ValueError(f"request {index}: k must be positive, got {self.k}")
        if self.rerank_pool is not None and self.rerank_pool < 1:
            raise ValueError(
                f"request {index}: rerank_pool must be positive, got "
                f"{self.rerank_pool}"
            )
        if self.deadline is not None and not np.isfinite(float(self.deadline)):
            raise ValueError(
                f"request {index}: deadline must be a finite clock time, "
                f"got {self.deadline}"
            )
        alpha = float(self.alpha)
        if not np.isfinite(alpha) or alpha <= 0:
            raise ValueError(
                f"request {index}: alpha must be a positive finite number, "
                f"got {self.alpha}"
            )
        history = _as_ids(self.history)
        exclude = _as_ids(self.exclude)
        if history is not None and (
            np.any(history < 0) or np.any(history >= num_items)
        ):
            raise ValueError(
                f"request {index}: history ids must be in [0, {num_items})"
            )
        pins = _as_ids(self.pins)
        if pins is not None:
            if self.mode == "sample":
                raise ValueError(
                    f"request {index}: pins require a MAP mode ('map' or "
                    "'topk-rerank'); a sample cannot force-include items"
                )
            if np.any(pins < 0) or np.any(pins >= num_items):
                raise ValueError(
                    f"request {index}: pin ids must be in [0, {num_items})"
                )
            if len(set(pins.tolist())) != pins.shape[0]:
                raise ValueError(f"request {index}: pin ids must be unique")
            if pins.shape[0] > self.k:
                raise ValueError(
                    f"request {index}: {pins.shape[0]} pins exceed k={self.k}"
                )
            if exclude is not None and np.any(_isin(pins, exclude)):
                raise ValueError(
                    f"request {index}: pins overlap the exclusion set"
                )
            if history is not None and np.any(_isin(pins, history)):
                raise ValueError(
                    f"request {index}: pins overlap the session history"
                )
            if self.candidates is not None and not np.all(
                _isin(pins, np.asarray(self.candidates, dtype=np.int64))
            ):
                raise ValueError(
                    f"request {index}: pins must be members of the explicit "
                    "candidate slice"
                )
        if self.quotas:
            if self.mode == "sample":
                raise ValueError(
                    f"request {index}: quotas require a MAP mode ('map' or "
                    "'topk-rerank')"
                )
            if self.categories is None:
                raise ValueError(
                    f"request {index}: quotas need a catalog-sized "
                    "'categories' labeling"
                )
            categories = np.asarray(self.categories)
            if categories.shape != (num_items,) or not np.issubdtype(
                categories.dtype, np.integer
            ):
                raise ValueError(
                    f"request {index}: categories must be an integer array "
                    f"of shape ({num_items},), got shape {categories.shape} "
                    f"dtype {categories.dtype}"
                )
            total = 0
            for category, need in self.quotas.items():
                if int(need) < 1:
                    raise ValueError(
                        f"request {index}: quota minimum for category "
                        f"{category} must be positive, got {need}"
                    )
                total += int(need)
            if total > self.k:
                raise ValueError(
                    f"request {index}: quota minimums sum to {total}, "
                    f"exceeding k={self.k}"
                )
        if np.shape(self.quality) != (num_items,):
            raise ValueError(
                f"request {index}: quality shape {np.shape(self.quality)} "
                f"does not match catalog size {num_items}"
            )
        if exclude is not None and (
            np.any(exclude < 0) or np.any(exclude >= num_items)
        ):
            raise ValueError(
                f"request {index}: exclusion ids must be in [0, {num_items})"
            )
        if self.candidates is not None:
            if self.mode == "topk-rerank":
                raise ValueError(
                    f"request {index}: topk-rerank builds its own candidate "
                    "pool; pass mode='map' to rerank an explicit slice"
                )
            candidates = np.asarray(self.candidates, dtype=np.int64)
            if candidates.ndim != 1 or np.unique(candidates).size != candidates.size:
                raise ValueError(
                    f"request {index}: candidates must be unique item ids"
                )
            if np.any(candidates < 0) or np.any(candidates >= num_items):
                raise ValueError(
                    f"request {index}: candidate ids must be in [0, {num_items})"
                )


@dataclass(frozen=True)
class Response:
    """Result of one request (immutable — callers and caches share
    instances safely; derive variants with :func:`dataclasses.replace`).

    ``items`` are catalog ids in selection order; pinned items lead.
    ``log_probability`` is the set's k-DPP log-probability under the
    request's personalized kernel — conditioned on the request's
    ``history`` when one was given — and is ``None`` exactly when
    greedy MAP stopped early with fewer than ``k`` items (exhausted
    rank, unsatisfiable quota, or all remaining marginal gains below
    the stopping epsilon); the short ``items`` list is still a valid
    prefix slate.  ``version`` stamps the catalog snapshot the request
    was served against — under live snapshot hot-swaps it tells the
    caller exactly which factor generation produced the list.

    ``degraded`` / ``served_mode`` are the overload stamps (see
    :mod:`repro.serving.resilience`): ``degraded=True`` means queue or
    deadline pressure walked the request down the degradation ladder and
    ``served_mode`` names the rung that actually produced ``items``
    (``mode`` still echoes what the caller asked for).  On the terminal
    ``"quality-topk"`` rung no kernel runs, so ``log_probability`` is
    ``None`` for the same reason as a short greedy slate: there is no
    exact k-DPP probability to report.  ``served_mode=None`` on a
    non-degraded response means "as requested".

    ``trace`` carries the finished per-stage
    :class:`~repro.serving.observability.Trace` when the request was
    sampled for tracing (``ServingConfig.trace_rate``), else ``None``.
    It is diagnostic payload, excluded from equality and repr — two
    responses that served the same slate compare equal whether or not
    one was traced."""

    items: list[int]
    log_probability: float | None
    mode: str
    k: int
    cached: bool = False
    version: int | None = None
    degraded: bool = False
    served_mode: str | None = None
    trace: Any | None = field(default=None, compare=False, repr=False)


@dataclass
class _Resolved:
    """A validated request: zero-quality exclusions/history applied,
    alpha folded into the quality, topk-rerank lowered to MAP over an
    explicit candidate slice.

    ``quality``, ``pins`` and ``categories`` are in ground-set
    coordinates: catalog-sized / catalog ids for full-catalog requests,
    slice-sized / positions inside ``candidates`` for sliced ones.
    ``history`` stays in catalog ids (its factor rows deflate the
    kernel whatever the ground set)."""

    index: int
    quality: np.ndarray  # ground-set effective quality (alpha applied)
    k: int
    mode: str  # "sample" | "map" after lowering
    report_mode: str  # the caller's mode, echoed in the Response
    candidates: np.ndarray | None
    seed: int | None
    history: np.ndarray | None = None
    pins: np.ndarray | None = None
    quotas: Mapping[int, int] | None = None
    categories: np.ndarray | None = None

    @property
    def has_session(self) -> bool:
        """True when the request conditions or constrains its slate
        (history, pins or quotas), so its group runs the session greedy
        MAP and history deflation.  ``alpha`` does not count: it only
        rescales the quality vector."""
        return (
            self.history is not None
            or self.pins is not None
            or bool(self.quotas)
        )


class _Spectrum(NamedTuple):
    """A full-catalog request's clipped dual spectrum, with the session
    inputs its group reuses: the history-and-pin factor rows and the
    orthonormal history basis its dual was deflated by (``None`` when
    the request has none)."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    seed_rows: np.ndarray | None = None
    history_unit: np.ndarray | None = None


class KDPPServer:
    """Batched k-DPP recommendation engine over one :class:`ItemCatalog`,
    configured by ``config=ServingConfig(...)`` (it reads
    ``rerank_pool``)."""

    def __init__(
        self, catalog: ItemCatalog, config: ServingConfig | None = None
    ) -> None:
        self.config = config if config is not None else ServingConfig()
        self.catalog = catalog
        self.rerank_pool = self.config.rerank_pool
        # Unseeded requests draw from generators spawned off one entropy
        # source under a lock: numpy Generators are not thread-safe, and
        # the micro-batcher serves batches from worker threads.
        self._seed_sequence = np.random.SeedSequence()
        self._seed_lock = threading.Lock()
        #: counts full-catalog greedy-MAP rows whose top-candidate
        #: certificate failed; a runtime attaches its registry's counter
        self.map_fallbacks = None

    def _pin(self, snapshot: CatalogSnapshot | None) -> CatalogSnapshot:
        """The snapshot a batch serves against, captured exactly once.

        The runtime passes the snapshot each request was *admitted*
        under, so in-flight work survives a concurrent
        :meth:`ItemCatalog.refresh`; direct callers get the catalog's
        current version.
        """
        return snapshot if snapshot is not None else self.catalog.snapshot()

    # ------------------------------------------------------------------
    # Request resolution
    # ------------------------------------------------------------------
    def _resolve(
        self,
        request: Request,
        index: int,
        snap: CatalogSnapshot,
        validated: bool = False,
    ) -> _Resolved:
        """Validate one request and bring it into ground-set coordinates.

        ``validated=True`` skips :meth:`Request.validate` for requests a
        front end already checked (the sharded funnel validates each
        request once, before lowering it to a pool).

        Exclusions, history, ``alpha``, the finite/non-negative value
        scan and the pin-positivity check apply to whatever can reach a
        kernel: the whole catalog vector for full-catalog and
        ``topk-rerank`` requests (the latter ranks the whole vector),
        but only ``quality[candidates]`` for sliced ones — a
        funnel-lowered request at catalog scale pays for its pool, not
        the catalog.  A bad value outside a slice is never read.
        """
        num_items = snap.num_items
        if not validated:
            request.validate(num_items, index)
        mode = request.mode
        candidates = request.candidates
        if candidates is not None:
            candidates = np.asarray(candidates, dtype=np.int64)
        quality = effective_request_quality(request, index, candidates)
        alpha = float(request.alpha)
        if alpha != 1.0:
            # q^(1/alpha) after the value scan, so the clip below can
            # never turn an inf into a servable value.
            with np.errstate(over="ignore"):
                quality = np.power(quality, 1.0 / alpha)
            np.minimum(quality, ALPHA_QUALITY_CLIP, out=quality)
        pins = _as_ids(request.pins)
        categories = (
            np.asarray(request.categories, dtype=np.int64) if request.quotas else None
        )
        if mode == "topk-rerank":
            pool = (
                self.rerank_pool if request.rerank_pool is None else request.rerank_pool
            )
            candidates = top_k_indices(quality, max(pool, request.k))
            candidates = extend_pool_for_constraints(
                candidates, quality, pins, request.quotas, categories
            )
            quality = quality[candidates]
            mode = "map"
        if candidates is not None:
            if pins is not None:
                # Pins are slice members (validated, or added to a built
                # pool), so each matches exactly one position.
                pins = np.argmax(candidates[:, None] == pins, axis=0)
            if categories is not None:
                categories = categories[candidates]
        ground = quality.shape[0]
        if request.k > ground:
            raise ValueError(
                f"request {index}: k={request.k} exceeds ground-set size {ground}"
            )
        # A zero-quality item can never be selected, so the *effective*
        # ground set is the positive-quality slice; catching k overruns
        # here turns an opaque downstream eigensolver/ESP failure into a
        # request-indexed error before any batch work starts.
        effective = int(np.count_nonzero(quality))
        if request.k > effective:
            raise ValueError(
                f"request {index}: k={request.k} exceeds the effective "
                f"candidate count {effective} (items with positive quality "
                f"left after exclusions and candidate slicing; ground set "
                f"has {ground})"
            )
        if pins is not None and np.any(quality[pins] <= 0):
            raise ValueError(
                f"request {index}: pins must have positive effective "
                "quality (an excluded or zero-quality item cannot be pinned)"
            )
        return _Resolved(
            index=index,
            quality=quality,
            k=int(request.k),
            mode=mode,
            report_mode=request.mode,
            candidates=candidates,
            seed=request.seed,
            history=_as_ids(request.history),
            pins=pins,
            quotas=dict(request.quotas) if request.quotas else None,
            categories=categories,
        )

    def _request_rng(self, resolved: _Resolved) -> np.random.Generator:
        if resolved.seed is None:
            with self._seed_lock:
                child = self._seed_sequence.spawn(1)[0]
            return np.random.default_rng(child)
        return np.random.default_rng(resolved.seed)

    # ------------------------------------------------------------------
    # Batched serving
    # ------------------------------------------------------------------
    def serve(
        self,
        requests: Sequence[Request],
        snapshot: CatalogSnapshot | None = None,
        stages: StageRecorder | None = None,
    ) -> list[Response]:
        """Serve a batch of requests with shared catalog-scale work.

        ``snapshot`` pins the batch to one published catalog version
        (default: the current one); every response is stamped with it.
        ``stages`` collects the engine's batch-phase spans — resolve /
        dual_build / eigh / normalizer / selection / emit — through the
        recorder's clock; the runtime passes one per batch, and a call
        without one times into a fresh recorder of its own.
        """
        if stages is None:
            stages = StageRecorder()
        return self._serve_batch(requests, self._pin(snapshot), stages)

    def _serve_batch(
        self,
        requests: Sequence[Request],
        snap: CatalogSnapshot,
        stages: StageRecorder,
        validated: bool = False,
    ) -> list[Response]:
        """:meth:`serve` on a pinned snapshot (``validated``: see
        :meth:`_resolve`)."""
        with stages.stage("resolve"):
            resolved = [
                self._resolve(request, i, snap, validated)
                for i, request in enumerate(requests)
            ]
        spectra = self._full_catalog_spectra(
            [item for item in resolved if item.candidates is None], snap, stages
        )
        responses: list[Response | None] = [None] * len(resolved)
        groups: dict[tuple, list[_Resolved]] = {}
        for item in resolved:
            # A group's composition decides its BLAS blocking, and so its
            # seeded draws: session requests group apart from clean ones.
            key = (
                item.candidates is None,
                item.quality.shape[0],
                item.k,
                item.mode,
                item.has_session,
            )
            groups.setdefault(key, []).append(item)
        for (_, _, k, mode, session), members in groups.items():
            self._serve_group(
                members, k, mode, session, responses, snap, spectra, stages
            )
        return responses  # type: ignore[return-value]

    def _log_normalizers(
        self, eigenvalues: np.ndarray, members, k: int, mode: str
    ) -> np.ndarray:
        """Batched Eq. 6 normalizers, mirroring ``KDPP.from_factors``.

        Sample mode enforces the k-DPP's rank requirement with the same
        ``ValueError`` the per-request constructor raises; MAP mode
        tolerates deficient spectra (the greedy selection simply stops
        early, exactly like the sequential loop) and reports ``-inf``.
        """
        if k <= eigenvalues.shape[1]:
            log_normalizers = batched_log_esp(eigenvalues, k)
        else:
            log_normalizers = np.full(len(members), -np.inf)
        if mode == "sample" and not np.all(np.isfinite(log_normalizers)):
            bad = members[int(np.flatnonzero(~np.isfinite(log_normalizers))[0])]
            hint = (
                " (history conditioning removes one eigenvalue per "
                "independent shown item)"
                if bad.history is not None
                else ""
            )
            raise ValueError(
                f"request {bad.index}: factor rank is below k={k} (e_k of "
                "the dual spectrum is 0); a k-DPP needs at least k nonzero "
                f"eigenvalues{hint}"
            )
        return log_normalizers

    def _phase1_coefficients(
        self,
        eigenvalues: np.ndarray,
        dual_vectors: np.ndarray,
        k: int,
        rngs: list[np.random.Generator],
    ) -> np.ndarray:
        """Batched phase 1: pick k dual eigenvectors per request and
        assemble the ``(B, r, k)`` lift coefficient stack
        ``W_b = Ĉ_b[:, chosen] / sqrt(λ_chosen)``.

        The ESP tables for every request are built in one vectorized
        recursion; the backward walks consume each request's own RNG
        stream, matching the per-user sampler exactly.
        """
        batch = eigenvalues.shape[0]
        scales = np.array(
            [kdpp_spectrum_scale(eigenvalues[b], k) for b in range(batch)]
        )
        scaled = eigenvalues / scales[:, None]
        tables = batched_esp_table(scaled, k)
        chosen = np.array(
            [
                select_eigenvectors_from_esp_table(scaled[b], tables[b], k, rngs[b])
                for b in range(batch)
            ],
            dtype=np.int64,
        )
        selected = np.take_along_axis(eigenvalues, chosen, axis=1)
        if np.any(selected <= 0):  # pragma: no cover - unreachable: zero
            # eigenvalues have zero inclusion probability in the walk
            raise RuntimeError("phase 1 selected a zero eigenvalue")
        coefficients = np.take_along_axis(dual_vectors, chosen[:, None, :], axis=2)
        return coefficients / np.sqrt(selected)[:, None, :]

    def _full_catalog_spectra(
        self,
        members: list[_Resolved],
        snap: CatalogSnapshot,
        stages: StageRecorder,
    ) -> dict[int, _Spectrum]:
        """Dual spectra of a batch's full-catalog requests, keyed by
        request index.

        Clean constant-quality requests (``q_u = c``) are served straight
        from the catalog's version-cached spectrum — ``C_u = c² VᵀV``, so
        the cached eigenvectors apply verbatim and the eigenvalues only
        rescale.  Every other request, whatever its mode, ``k`` or
        session state, goes through one :meth:`CatalogSnapshot.build_duals`
        call, so the outer-product table is read at most once per batch.
        History deflates each session dual two-sided,
        ``C̃ = (I-UUᵀ) C (I-UUᵀ)`` — an O(r²h) correction whose
        positive-eigenvalue eigenvectors lie in the deflated subspace,
        so the projector samplers draw from the conditional k-DPP as-is
        — before one stacked ``eigh`` over all built rows.  Each row's
        dual and spectrum are computed independently of the others, so
        a request's spectrum does not depend on its batch-mates beyond
        the table-or-direct route their count picks.
        """
        spectra: dict[int, _Spectrum] = {}
        built = []
        for member in members:
            first = member.quality[0]
            if not member.has_session and first > 0 and np.all(member.quality == first):
                values, vectors = snap.dual_spectrum()
                spectra[member.index] = _Spectrum(first * first * values, vectors)
            else:
                built.append(member)
        if not built:
            return spectra
        with stages.stage("dual_build"):
            rows = self._session_rows(built, snap, pins=True)
            units = self._history_units(built, rows)
            squared = np.stack([member.quality for member in built])
            np.square(squared, out=squared)
            duals = snap.build_duals(squared)
            for b, basis in enumerate(units):
                if basis is not None:
                    correction = duals[b] @ basis
                    duals[b] -= correction @ basis.T
                    duals[b] -= basis @ (
                        correction.T - (basis.T @ correction) @ basis.T
                    )
        with stages.stage("eigh"):
            eigenvalues, vectors = np.linalg.eigh(duals)
        eigenvalues = clip_dual_spectrum(eigenvalues)
        for b, member in enumerate(built):
            spectra[member.index] = _Spectrum(eigenvalues[b], vectors[b], rows[b], units[b])
        return spectra

    def _group_log_probabilities(
        self,
        factor_rows: np.ndarray,
        log_normalizers: np.ndarray,
    ) -> np.ndarray:
        """``log P_k(S_b) = log det(L_{S_b}) - log Z_k`` for a ``(B, k, r)``
        stack of selected factor rows, via one stacked ``slogdet``."""
        grams = np.matmul(factor_rows, np.swapaxes(factor_rows, 1, 2))
        signs, logdets = np.linalg.slogdet(grams)
        logdets = np.where(signs > 0, logdets, -np.inf)
        return logdets - log_normalizers

    def _serve_group(
        self,
        members: list[_Resolved],
        k: int,
        mode: str,
        session: bool,
        responses: list,
        snap: CatalogSnapshot,
        spectra: dict[int, _Spectrum],
        stages: StageRecorder,
    ) -> None:
        """Serve one group of same-shape requests over their ground sets.

        A full-catalog ground set is all M items over the shared factors:
        its members' spectra (and session inputs) come from ``spectra``,
        which :meth:`_full_catalog_spectra` built for the whole batch.  A
        sliced ground set is the request's gathered ``(N, r)`` stack
        rows, which history deflates directly (``b̃_i = b_i(I - UUᵀ)``,
        the low-rank Schur complement of conditioning) before the stacked
        duals are formed and factorized by one ``eigh``.  From there the
        batched normalizers and one selection entry point serve the
        group; session groups (history, pins, quotas) run the
        constrained greedy MAP.
        """
        full = members[0].candidates is None
        quality = np.stack([member.quality for member in members])
        stack = rows = units = None
        if full:
            parts = [spectra[member.index] for member in members]
            eigenvalues = np.stack([part.eigenvalues for part in parts])
            vectors = np.stack([part.vectors for part in parts])
            if session:
                rows = [part.seed_rows for part in parts]
                units = [part.history_unit for part in parts]
        else:
            with stages.stage("dual_build"):
                candidates = np.stack([member.candidates for member in members])
                stack = quality[:, :, None] * snap.take_rows(candidates)
                if session:
                    rows = self._session_rows(members, snap, pins=False)
                    units = self._history_units(members, rows)
                    for b, basis in enumerate(units):
                        if basis is not None:
                            stack[b] -= (stack[b] @ basis) @ basis.T
                duals = np.matmul(np.swapaxes(stack, 1, 2), stack)
            with stages.stage("eigh"):
                eigenvalues, vectors = np.linalg.eigh(duals)
            eigenvalues = clip_dual_spectrum(eigenvalues)
        with stages.stage("normalizer"):
            log_normalizers = self._log_normalizers(eigenvalues, members, k, mode)
        with stages.stage("selection"):
            if mode == "sample":
                rngs = [self._request_rng(member) for member in members]
                coefficients = self._phase1_coefficients(
                    eigenvalues, vectors, k, rngs
                )
                if full:
                    samples = batched_sample_elementary_shared(
                        snap.factors, quality, coefficients, rngs
                    )
                else:
                    samples = batched_sample_elementary_stacked(
                        np.matmul(stack, coefficients), rngs
                    )
            elif not session and full:
                fallbacks = self.map_fallbacks
                samples = batched_greedy_map_shared(
                    snap.factors,
                    quality,
                    k,
                    item_norms=snap.extension("item_norms", _item_norms),
                    on_fallback=fallbacks.inc if fallbacks is not None else None,
                )
            elif not session:
                samples = batched_greedy_map_stacked(stack, k)
            else:
                if not full:
                    # The stack rows are already history-deflated, so
                    # only the (deflated) pinned rows seed the greedy.
                    rows = [
                        None if member.pins is None else stack[b, member.pins]
                        for b, member in enumerate(members)
                    ]
                seeds, pins, quota = self._session_map_inputs(
                    members, rows, snap.rank
                )
                if full:
                    samples = batched_greedy_map_shared_session(
                        snap.factors, quality, k, seeds=seeds, pins=pins, quota=quota
                    )
                else:
                    samples = batched_greedy_map_stacked_session(
                        stack, k, seeds=seeds, pins=pins, quota=quota
                    )
        with stages.stage("emit"):
            self._emit(
                members, samples, log_normalizers, quality, stack, units, k,
                responses, snap,
            )

    # ------------------------------------------------------------------
    # Session inputs (history conditioning, pins, quotas)
    # ------------------------------------------------------------------
    def _session_rows(
        self, members: list[_Resolved], snap: CatalogSnapshot, pins: bool
    ) -> list[np.ndarray | None]:
        """Each member's history factor rows, followed by its pin rows
        when ``pins`` (catalog ids: the full-catalog path), gathered for
        the whole group with one ``take_rows`` call; ``None`` for a
        member with neither."""
        ids = []
        for member in members:
            parts = [
                part
                for part in (member.history, member.pins if pins else None)
                if part is not None
            ]
            ids.append(np.concatenate(parts) if parts else None)
        lengths = [0 if part is None else part.shape[0] for part in ids]
        if not any(lengths):
            return [None] * len(members)
        rows = snap.take_rows(np.concatenate([part for part in ids if part is not None]))
        split = np.split(rows, np.cumsum(lengths)[:-1])
        return [part if length else None for length, part in zip(lengths, split)]

    @staticmethod
    def _history_units(
        members: list[_Resolved], rows: list[np.ndarray | None]
    ) -> list[np.ndarray | None]:
        """Per member, the orthonormal ``(r, h')`` basis of its history
        rows' span (the deflation directions of the conditioned kernel),
        or ``None``; ``rows`` comes from :meth:`_session_rows`."""
        return [
            None
            if member.history is None
            else _orthonormal_columns(part[: member.history.shape[0]])
            for member, part in zip(members, rows)
        ]

    @staticmethod
    def _session_map_inputs(
        members: list[_Resolved], seed_rows: list[np.ndarray | None], rank: int
    ) -> tuple[np.ndarray | None, list, list | None]:
        """Assemble the constrained-greedy inputs for one session group:
        zero-padded seed directions spanning each member's ``seed_rows``,
        per-member local pins and quota specs.

        On the full-catalog path the seed rows are each member's history
        *and* pin rows (both from the shared factors); on the sliced
        path the stack rows are already history-deflated, so they are
        only the (deflated) pinned rows.
        """
        bases = [
            None if rows is None else _orthonormal_columns(rows) for rows in seed_rows
        ]
        quota = [
            (member.categories, member.quotas) if member.quotas else None
            for member in members
        ]
        widths = [0 if basis is None else basis.shape[1] for basis in bases]
        seeds = None
        if any(widths):
            seeds = np.zeros((len(members), max(widths), rank), dtype=np.float64)
            for b, basis in enumerate(bases):
                if basis is not None:
                    seeds[b, : basis.shape[1]] = basis.T
        pins = [member.pins for member in members]
        has_quota = any(spec is not None for spec in quota)
        return seeds, pins, (quota if has_quota else None)

    def _emit(
        self,
        members: list[_Resolved],
        samples: list[list[int]],
        log_normalizers: np.ndarray,
        quality: np.ndarray,
        stack: np.ndarray | None,
        units: list | None,
        k: int,
        responses: list,
        snap: CatalogSnapshot,
    ) -> None:
        """Attach log-probabilities and map local picks to catalog ids.

        Full-catalog groups (``stack=None``) rebuild the selected rows
        from the shared factors and ``quality``, and deflate them by the
        members' history ``units`` before the stacked ``slogdet``, so
        reported probabilities are those of the history-*conditioned*
        kernel, matching the conditioned normalizers.  Sliced groups
        read the (already deflated) ``stack``.
        """
        complete = [
            b
            for b, sample in enumerate(samples)
            if len(sample) == k and np.isfinite(log_normalizers[b])
        ]
        log_probabilities: dict[int, float] = {}
        if complete:
            picks = np.array([samples[b] for b in complete], dtype=np.int64)
            members_index = np.asarray(complete)[:, None]
            if stack is None:
                rows = snap.factors[picks] * quality[members_index, picks][:, :, None]
                for j, b in enumerate(complete):
                    basis = None if units is None else units[b]
                    if basis is not None:
                        rows[j] -= (rows[j] @ basis) @ basis.T
            else:
                rows = stack[members_index, picks]
            values = self._group_log_probabilities(rows, log_normalizers[complete])
            log_probabilities = dict(zip(complete, values))
        for b, member in enumerate(members):
            local = samples[b]
            if member.candidates is None:
                items = [int(i) for i in local]
            else:
                items = [int(member.candidates[i]) for i in local]
            value = log_probabilities.get(b)
            responses[member.index] = Response(
                items=items,
                log_probability=None if value is None else float(value),
                mode=member.report_mode,
                k=member.k,
                version=snap.version,
            )

    # ------------------------------------------------------------------
    # Sequential reference (the PR 2 loop)
    # ------------------------------------------------------------------
    def serve_sequential(
        self,
        requests: Sequence[Request],
        snapshot: CatalogSnapshot | None = None,
    ) -> list[Response]:
        """One ``KDPP.from_factors`` / ``greedy_map`` per request.

        This is exactly the serving loop PR 2 made fast for a *single*
        request — rebuild the low-rank kernel, eigendecompose its dual,
        sample or rerank — repeated per request with no shared work.  It
        is both the benchmark baseline and the parity oracle: for seeded
        requests, :meth:`serve` must return identical items.
        """
        snap = self._pin(snapshot)
        responses: list[Response] = []
        for i, request in enumerate(requests):
            member = self._resolve(request, i, snap)
            rows = (
                snap.factors
                if member.candidates is None
                else snap.take_rows(member.candidates)
            )
            factors = member.quality[:, None] * rows
            basis = self._history_units(
                [member], self._session_rows([member], snap, pins=False)
            )[0]
            if basis is not None:
                # Primal deflation — deliberately a different route than
                # the batched dual deflation, so the two paths cross-
                # check the conditioning math, not just each other.
                factors = factors - (factors @ basis) @ basis.T
            lowrank = LowRankKernel(factors)
            if member.mode == "sample":
                try:
                    dpp = KDPP.from_factors(lowrank, member.k)
                except ValueError as error:  # rank below k
                    raise ValueError(f"request {i}: {error}") from None
                local = dpp.sample(self._request_rng(member))
                log_probability = dpp.log_subset_probability(local)
            else:
                if member.pins is None and not member.quotas:
                    local = greedy_map(lowrank, member.k)
                else:
                    seeds, pins, quota = self._session_map_inputs(
                        [member],
                        [None if member.pins is None else factors[member.pins]],
                        snap.rank,
                    )
                    local = batched_greedy_map_stacked_session(
                        factors[None], member.k, seeds=seeds, pins=pins, quota=quota
                    )[0]
                log_probability = None
                complete = len(local) == member.k
                # A rank-deficient kernel has no k-DPP to report against.
                if complete and np.count_nonzero(lowrank.eigh_dual()[0]) >= member.k:
                    dpp = KDPP.from_factors(lowrank, member.k)
                    log_probability = dpp.log_subset_probability(local)
            if member.candidates is None:
                items = [int(item) for item in local]
            else:
                items = [int(member.candidates[item]) for item in local]
            responses.append(
                Response(
                    items=items,
                    log_probability=log_probability,
                    mode=member.report_mode,
                    k=member.k,
                    version=snap.version,
                )
            )
        return responses
