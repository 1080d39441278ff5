"""The three serving workloads: catalogs, runtime settings and request streams.

Every input is a pure function of the run seed: the factor matrix, the
per-user lognormal quality (Eq. 2's ``q_u``), and request ``i`` of a
stream (user, mode, per-request sampling seed, session history, pin).
The program under test only ever receives the generated requests.

Shared settings: r=32, k=10, unit-norm factor rows, ``max_batch=32``,
``max_wait=2 ms``, ``workers=1``.

``fixed_rate_rps`` is an absolute rate, fixed here and never derived at
run time from the code under test.  It sits well below the rate at which
the micro-batcher starts forming multi-request batches.  An engine batch
has a large fixed cost, so at half of saturated throughput the batches
grow until the engine is busy nearly all the time, and latency there
swung by 25-40% between runs on a 2-core host.  At these rates the
engine serves mostly one request per batch and is busy about a third of
the time on the reference machine (``reference.json``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RANK = 32
K = 10
MAX_BATCH = 32
MAX_WAIT_S = 0.002
QUALITY_SIGMA = 0.5

WORKLOADS = {
    "mono-20k": dict(
        catalog="mono",
        num_items=20_000,
        users=64,
        modes=("sample", "map"),
        fixed_rate_rps=20.0,
    ),
    "sharded-exact-100k": dict(
        catalog="sharded",
        num_items=100_000,
        num_shards=8,
        funnel_width=32,
        rerank_pool=100,
        source="exact",
        users=64,
        modes=("sample", "topk-rerank"),
        fixed_rate_rps=80.0,
    ),
    "sharded-churn-100k": dict(
        catalog="sharded",
        num_items=100_000,
        num_shards=8,
        funnel_width=32,
        rerank_pool=100,
        source="quantile",
        funnel_cache=True,
        trace_rate=0.1,
        audit_rate=0.1,
        profile_hz=20.0,
        deadline_s=1.0,
        publish_every_s=2.0,
        scrape_every_s=1.0,
        users=64,
        sessions_per_user=4,
        history=(10, 20),
        alphas=(0.5, 1.0, 2.0),
        modes=("sample", "map"),
        fixed_rate_rps=60.0,
    ),
}


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


@dataclass
class Meta:
    """What the checker needs to know about one sent request."""

    history: np.ndarray | None
    pins: np.ndarray | None
    topk_mass: float


class World:
    """Seeded inputs of one workload: factors, quality, request stream."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        spec = self.spec
        rng = np.random.default_rng([seed, 0])
        self.num_items = spec["num_items"]
        self.factors = unit_rows(rng.normal(size=(self.num_items, RANK)))
        self.quality = np.exp(
            rng.normal(scale=QUALITY_SIGMA, size=(spec["users"], self.num_items))
        )
        # Each user's K+20 best items, best first: enough to find the
        # top-k quality mass (slate_quality_ratio's denominator) once up
        # to 20 shown items are removed.
        spare = K + 20
        top = np.argpartition(-self.quality, spare, axis=1)[:, :spare]
        order = np.argsort(-np.take_along_axis(self.quality, top, axis=1), axis=1)
        self._top_ids = np.take_along_axis(top, order, axis=1)
        self._doubled = None
        if name == "sharded-exact-100k":
            # Each user's quality twice over, read-only: a rotation of it
            # is then a view, where a copy cost the generator thread more
            # than the engine spends on the request.
            self._doubled = np.concatenate([self.quality, self.quality], axis=1)
            self._doubled.flags.writeable = False
        self.sessions = None
        if "sessions_per_user" in spec:
            low, high = spec["history"]
            self.sessions = [
                [
                    np.sort(
                        rng.choice(
                            self.num_items,
                            size=int(rng.integers(low, high + 1)),
                            replace=False,
                        )
                    )
                    for _ in range(spec["sessions_per_user"])
                ]
                for _ in range(spec["users"])
            ]
        self.publishes = []
        if "publish_every_s" in spec:
            # Retrained factors the churn generator publishes in turn.
            self.publishes = [
                unit_rows(self.factors + 0.05 * rng.normal(size=self.factors.shape))
                for _ in range(2)
            ]

    # ------------------------------------------------------------------
    def _topk_mass(self, user: int, history: np.ndarray | None = None) -> float:
        top = self._top_ids[user]
        if history is not None:
            top = top[~np.isin(top, history)]
        return float(self.quality[user, top[:K]].sum())

    def request(self, index: int, now: float | None = None):
        """Request ``index`` of the stream and its checker metadata.

        ``now`` (the serving clock at send time) anchors the churn
        workload's per-request deadline.
        """
        from repro.serving import Request

        spec = self.spec
        rng = np.random.default_rng([self.seed, 1, index])
        mode = spec["modes"][index % len(spec["modes"])]
        user = int(rng.integers(spec["users"]))
        seed = int(rng.integers(2**31))
        if self._doubled is not None:
            # A user never repeats: a fresh rotation of one base quality
            # vector per request (rotation keeps the top-k mass), the
            # values of ``np.roll(self.quality[user], shift)``.
            shift = int(rng.integers(self.num_items))
            start = (self.num_items - shift) % self.num_items
            quality = self._doubled[user, start : start + self.num_items]
            request = Request(quality=quality, k=K, mode=mode, seed=seed, user=index)
            return request, Meta(None, None, self._topk_mass(user))
        if self.sessions is None:
            request = Request(
                quality=self.quality[user], k=K, mode=mode, seed=seed, user=user
            )
            return request, Meta(None, None, self._topk_mass(user))
        history = self.sessions[user][int(rng.integers(len(self.sessions[user])))]
        alpha = float(spec["alphas"][int(rng.integers(len(spec["alphas"])))])
        pins = None
        if mode == "map":
            while True:
                pin = int(rng.integers(self.num_items))
                if pin not in history:
                    break
            pins = np.array([pin], dtype=np.int64)
        deadline = None
        if now is not None:
            deadline = now + spec["deadline_s"]
        request = Request(
            quality=self.quality[user],
            k=K,
            mode=mode,
            seed=seed if mode == "sample" else None,
            user=user,
            alpha=alpha,
            history=history,
            pins=pins,
            deadline=deadline,
        )
        return request, Meta(history, pins, self._topk_mass(user, history))

    # ------------------------------------------------------------------
    def config(self):
        from repro.retrieval import ExactTopK, FunnelCache, QuantileFunnel
        from repro.serving import ServingConfig

        spec = self.spec
        fields = dict(
            max_batch=MAX_BATCH,
            max_wait=MAX_WAIT_S,
            workers=1,
            trace_rate=spec.get("trace_rate", 0.0),
            audit_rate=spec.get("audit_rate", 0.0),
            profile_hz=spec.get("profile_hz", 0.0),
        )
        if spec["catalog"] == "sharded":
            fields.update(
                funnel_width=spec["funnel_width"],
                rerank_pool=spec["rerank_pool"],
                source=QuantileFunnel() if spec["source"] == "quantile" else ExactTopK(),
                funnel_cache=FunnelCache() if spec.get("funnel_cache") else None,
            )
        return ServingConfig(**fields)

    def build_runtime(self):
        """A fresh catalog + runtime over version 0 of the factors."""
        from repro.serving import ItemCatalog, ServingRuntime, ShardedCatalog

        spec = self.spec
        if spec["catalog"] == "sharded":
            catalog = ShardedCatalog(self.factors, num_shards=spec["num_shards"])
        else:
            catalog = ItemCatalog(self.factors)
        return ServingRuntime(catalog, config=self.config())
