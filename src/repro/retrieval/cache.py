"""Per-user funnel cache: repeat visitors skip candidate generation.

The runtime's load profile is dominated by repeat visitors — the same
user submitting again within one score/catalog generation — and their
funnel output is deterministic given (user quality, catalog version,
funnel width).  :class:`FunnelCache` memoizes exactly that: the serving
funnel (:meth:`~repro.serving.sharding.ShardedKDPPServer._lower`)
consults it per request before running its
:class:`~repro.retrieval.base.CandidateSource`, so a hit replaces the
whole candidate-generation stage with one dictionary read.

Keying and correctness
----------------------
Entries are keyed on ``(user, catalog_version, width, exclusions)``.
The catalog version in the key makes hot-swap correctness automatic — a
:meth:`publish` bumps the version and every old entry stops matching —
while the explicit :meth:`invalidate` hook (wired into
:meth:`~repro.serving.runtime.ServingRuntime.publish`) reclaims the
stale generation's memory immediately instead of waiting for LRU
pressure.  The exclusion component matters because exclusions are
zeroed *into* the quality the funnel sees: the same user with a
different exclusion set funnels to a different pool, and exclusion
arrays are small (a user's interaction history), so hashing them is
O(|exclude|), not O(M) — see :func:`exclusion_token`.  Session history
(items shown on earlier pages) is folded into the same key component
via :func:`session_token`: a cached pool computed before page 1 must
not resurface page-1 items on page 2.

The ``user`` id must identify one underlying quality vector per catalog
version (the :class:`~repro.serving.bridge.RecommenderBridge`
guarantees this: one score snapshot per user per generation).  As cheap
insurance against callers that re-score without re-versioning, every
entry also stores a strided fingerprint of the quality vector it was
built from; a lookup whose fingerprint disagrees is treated as a miss
and overwritten — an O(64) guard, not an O(M) hash.  The fingerprint is
insurance with stride-sized holes; the exclusion token is exact, which
is why exclusions get a key component instead of relying on the
fingerprint to notice a handful of zeroed entries.

Thread safety: one lock guards the LRU dict and all counters (the
micro-batch runtime funnels from multiple worker threads).  Stored
pools are frozen read-only arrays shared by reference — every consumer
(the engine's candidate-slice path) only reads them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..utils.metrics import Counter

__all__ = ["FunnelCache", "exclusion_token", "session_token"]

#: quality entries sampled for the fingerprint guard
_FINGERPRINT_PROBES = 64


def _fingerprint(quality: np.ndarray) -> float:
    """A cheap strided checksum of the quality vector (see module doc)."""
    stride = max(1, quality.shape[0] // _FINGERPRINT_PROBES)
    return float(quality[::stride].sum())


def exclusion_token(exclude) -> int | None:
    """A hashable exact key component for a request's exclusion set.

    ``None`` / empty → ``None``; otherwise a hash of the id array's
    bytes — O(|exclude|), and exclusion sets are user-history sized.
    The serving funnel passes this as :meth:`FunnelCache.get`'s
    ``exclusions`` so requests differing only in exclusions can never
    share a pool.
    """
    if exclude is None:
        return None
    ids = np.asarray(exclude, dtype=np.int64)
    if ids.size == 0:
        return None
    return hash(ids.tobytes())


def session_token(exclude, history) -> int | None:
    """Key component covering both exclusions and session history.

    Session history is zeroed into the funnel quality exactly like
    exclusions (a page the user already saw must never re-enter a
    cached pool), so the cache key has to separate requests that differ
    in *either* set — and keep them distinct from each other, since
    history additionally conditions the kernel downstream.  Both
    ``None``/empty → ``None``, which collapses to the plain
    :func:`exclusion_token` key for history-free traffic (pre-session
    entries stay valid).
    """
    history_component = exclusion_token(history)
    if history_component is None:
        return exclusion_token(exclude)
    return hash((exclusion_token(exclude), history_component))


class FunnelCache:
    """Thread-safe LRU of funnel pools keyed by (user, version, width)."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[float, np.ndarray]] = OrderedDict()
        # Registry-grade counters (self-locking) so a stats() read never
        # tears against worker-thread lookups; the int-valued .hits /
        # .misses / .invalidations attributes survive as properties.
        self._hits = Counter("funnel_cache_hits_total", "pool lookups served")
        self._misses = Counter("funnel_cache_misses_total", "pool lookups missed")
        self._invalidations = Counter(
            "funnel_cache_invalidations_total", "entries dropped by invalidate()"
        )

    # ------------------------------------------------------------------
    def get(
        self,
        user: int,
        version: int,
        width: int,
        quality: np.ndarray,
        exclusions: int | None = None,
    ) -> np.ndarray | None:
        """The cached pool, or None on miss / fingerprint disagreement.

        ``exclusions`` is the request's :func:`exclusion_token` /
        :func:`session_token`; the serving funnel hands the caller's raw
        quality here, since the token already keys what it zeroes.
        """
        key = (int(user), int(version), int(width), exclusions)
        probe = _fingerprint(quality)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == probe:
                self._entries.move_to_end(key)
                self._hits.inc()
                return entry[1]
            if entry is not None:
                # Same user, same version, different quality: the entry
                # is stale insurance-wise; drop it so put() replaces it.
                del self._entries[key]
            self._misses.inc()
            return None

    def put(
        self,
        user: int,
        version: int,
        width: int,
        pool: np.ndarray,
        quality: np.ndarray,
        exclusions: int | None = None,
    ) -> None:
        key = (int(user), int(version), int(width), exclusions)
        frozen = np.array(pool, dtype=np.int64, copy=True)
        frozen.setflags(write=False)
        with self._lock:
            self._entries[key] = (_fingerprint(quality), frozen)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    # ------------------------------------------------------------------
    def invalidate(self, keep_version: int | None = None) -> int:
        """Drop entries (all, or every version except ``keep_version``).

        Returns the number of entries dropped.  The runtime calls this
        on :meth:`publish` with the new version — correctness never
        depends on it (stale versions can't match a lookup key), it just
        frees the displaced generation's pools eagerly.
        """
        with self._lock:
            if keep_version is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                stale = [
                    key for key in self._entries if key[1] != int(keep_version)
                ]
                for key in stale:
                    del self._entries[key]
                dropped = len(stale)
            self._invalidations.inc(dropped)
            return dropped

    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    @property
    def invalidations(self) -> int:
        return int(self._invalidations.value)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            entries = len(self._entries)
        return {
            "entries": entries,
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }

    def footprint(self) -> dict:
        """Byte accounting of the retained pools, per catalog version.

        The footprint report (:mod:`repro.serving.profiling`) reads this
        to surface generation-pinning: pool bytes still attributed to a
        displaced version after a publish mean :meth:`invalidate` never
        ran (or in-flight traffic re-populated the old generation).
        """
        by_version: dict[str, int] = {}
        total = 0
        with self._lock:
            entries = len(self._entries)
            for key, (_probe, pool) in self._entries.items():
                nbytes = int(pool.nbytes)
                total += nbytes
                label = str(key[1])
                by_version[label] = by_version.get(label, 0) + nbytes
        return {
            "entries": entries,
            "bytes": total,
            "by_version": by_version,
        }

    def reset_stats(self) -> None:
        """Zero the hit/miss/invalidation counters (entries stay cached)."""
        self._hits.reset()
        self._misses.reset()
        self._invalidations.reset()
