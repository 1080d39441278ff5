"""Cross-commit parity digest of every serving path.

Serves a fixed, seeded suite of request shapes through every serving
path at small scale (M <= 5e3) and records, per path, a SHA-1 of the
served slates: item ids, requested and served mode, degradation flag
and catalog version (or the error type for a failed request).  Every
log-probability is checked against Eq. 4 instead of being hashed —
``KDPP.from_factors(...).log_subset_probability`` over the request's
ground set, rebuilt from the catalog factors — to within 1e-9 relative.

Usage::

    python tests/parity_digest.py --write   # record tests/parity_golden.json
    python tests/parity_digest.py --check   # exit 1 naming the first differing path

A change that means to move slates regenerates the golden file with
``--write`` and names the paths it changed.  Item ids depend only on
the seeded draws and on comparisons of floating-point values; a
different BLAS build could round a near-tie the other way, and that
has not been checked across builds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.dpp.kdpp import KDPP  # noqa: E402
from repro.dpp.kernels import LowRankKernel  # noqa: E402
from repro.retrieval import ExactTopK, FunnelCache, QuantileFunnel  # noqa: E402
from repro.serving import (  # noqa: E402
    ItemCatalog,
    KDPPServer,
    Request,
    ServingConfig,
    ServingRuntime,
    ShardedCatalog,
    ShardedKDPPServer,
)
from repro.serving.resilience import FaultPlan  # noqa: E402
from repro.utils.timing import ManualClock  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "parity_golden.json"

MONO_ITEMS = 2000
SHARDED_ITEMS = 4000
NUM_SHARDS = 4
RANK = 8
K = 5
SLICE = 120
LOG_PROBABILITY_RTOL = 1e-9
CONFIG = dict(rerank_pool=40, funnel_width=16)


# ----------------------------------------------------------------------
# The request suite
# ----------------------------------------------------------------------
def _shapes(num_items: int, seed: int, sliced: bool) -> dict[str, list[Request]]:
    """Named batches of every request shape over one ground-set kind:
    the full catalog (``sliced=False``, rerank included) or explicit
    candidate slices."""
    rng = np.random.default_rng(seed)
    categories = rng.integers(0, 3, size=num_items)
    counter = iter(range(10_000))

    def request(mode: str, **fields) -> Request:
        index = next(counter)
        quality = np.exp(rng.normal(size=num_items))
        ids = rng.choice(num_items, size=SLICE, replace=False)
        if sliced:
            fields["candidates"] = ids
        session = fields.pop("session", ())
        if "history" in session:
            fields["history"] = ids[:3]
        if "pins" in session:
            fields["pins"] = ids[3:5]
        if "exclude" in session:
            fields["exclude"] = ids[5:9]
        if "quotas" in session:
            fields.update(quotas={1: 2}, categories=categories)
        return Request(
            quality=quality, k=K, mode=mode, seed=1000 + index, user=index, **fields
        )

    shapes: dict[str, list[Request]] = {}
    for mode in ("sample", "map"):
        shapes[mode] = [request(mode) for _ in range(4)]
        shapes[f"{mode}-alpha"] = [request(mode, alpha=a) for a in (2.0, 0.5)]
        shapes[f"{mode}-history"] = [request(mode, session=("history",)) for _ in range(3)]
        shapes[f"{mode}-exclude"] = [request(mode, session=("exclude",)) for _ in range(3)]
    shapes["map-pins"] = [request("map", session=("pins", "history")) for _ in range(3)]
    shapes["map-quotas"] = [
        request("map", session=("quotas", "exclude"), alpha=1.5) for _ in range(3)
    ]
    uniform = [request("sample") for _ in range(2)]
    shapes["sample-uniform"] = [
        Request(quality=np.full(num_items, 0.7 + 0.2 * b), k=K, seed=50 + b,
                candidates=r.candidates)
        for b, r in enumerate(uniform)
    ]
    if not sliced:
        shapes["topk-rerank"] = [request("topk-rerank") for _ in range(3)]
        shapes["topk-rerank-session"] = [
            request("topk-rerank", session=("history", "pins")) for _ in range(2)
        ]
    shapes["mixed"] = [r for batch in list(shapes.values()) for r in batch[:2]]
    return shapes


# ----------------------------------------------------------------------
# The Eq. 4 log-probability oracle
# ----------------------------------------------------------------------
def _effective_quality(request: Request) -> np.ndarray:
    quality = np.asarray(request.quality, dtype=np.float64).copy()
    for ids in (request.exclude, request.history):
        if ids is not None:
            quality[np.asarray(ids)] = 0.0
    if request.alpha != 1.0:
        quality = np.minimum(quality ** (1.0 / request.alpha), 1e150)
    return quality


def _ground_set(request: Request, num_items: int, pool_of) -> np.ndarray:
    if request.candidates is not None:
        return np.asarray(request.candidates, dtype=np.int64)
    if pool_of is not None:
        return pool_of(request)
    if request.mode != "topk-rerank":
        return np.arange(num_items)
    quality = _effective_quality(request)
    top = np.argsort(-quality, kind="stable")[: max(CONFIG["rerank_pool"], K)]
    extra = [] if request.pins is None else [int(p) for p in request.pins]
    return np.unique(np.concatenate([top, np.asarray(extra, dtype=np.int64)]))


def eq4_log_probability(factors: np.ndarray, request: Request, items, pool_of=None) -> float:
    """``log det(L_S) - log e_k`` of the k-DPP over the request's ground
    set: effective quality times factor rows, history-deflated."""
    ground = _ground_set(request, factors.shape[0], pool_of)
    rows = _effective_quality(request)[ground][:, None] * factors[ground]
    if request.history is not None:
        u, s, _ = np.linalg.svd(factors[np.asarray(request.history)].T, full_matrices=False)
        basis = u[:, s > 1e-10 * s[0]]
        rows = rows - (rows @ basis) @ basis.T
    position = {int(item): i for i, item in enumerate(ground)}
    local = [position[int(item)] for item in items]
    return KDPP.from_factors(LowRankKernel(rows), request.k).log_subset_probability(local)


# ----------------------------------------------------------------------
# Paths
# ----------------------------------------------------------------------
class _Digest:
    def __init__(self) -> None:
        self.paths: dict[str, str] = {}
        self.slates = 0
        self.checked = 0
        self.problems: list[str] = []

    def record(self, path: str, requests, results, factors_of, pool_of=None) -> None:
        rows = []
        for index, (request, result) in enumerate(zip(requests, results)):
            if isinstance(result, BaseException):
                rows.append(["error", type(result).__name__, index])
                continue
            rows.append(
                [list(map(int, result.items)), result.mode, result.served_mode,
                 bool(result.degraded), int(result.version)]
            )
            self.slates += 1
            if result.log_probability is None or result.degraded:
                continue
            oracle = eq4_log_probability(
                factors_of(result.version), request, result.items, pool_of
            )
            self.checked += 1
            got = float(result.log_probability)
            if not abs(got - oracle) <= LOG_PROBABILITY_RTOL * max(abs(oracle), 1e-12):
                self.problems.append(
                    f"{path}[{index}]: log-probability {got!r} vs Eq. 4 {oracle!r}"
                )
        self.paths[path] = hashlib.sha1(json.dumps(rows).encode()).hexdigest()


def _serve_paths(digest: _Digest, name: str, server, shapes, factors, pool_of=None) -> None:
    def factors_of(version: int) -> np.ndarray:
        return factors  # one catalog version on these paths
    for shape, requests in shapes.items():
        digest.record(f"{name}/{shape}", requests, server.serve(requests), factors_of, pool_of)
    mixed = shapes["mixed"]
    digest.record(
        f"{name}/mixed/alone", mixed,
        [server.serve([request])[0] for request in mixed], factors_of, pool_of,
    )
    digest.record(
        f"{name}/mixed/sequential", mixed, server.serve_sequential(mixed),
        factors_of, pool_of,
    )


def _runtime_path(digest, name, catalog, versions, requests, config, pool_of=None):
    """A ``workers=0`` runtime at full trace and audit rates, with one
    publish between the two halves of the stream."""
    half = len(requests) // 2
    with ServingRuntime(catalog, config=config) as runtime:
        futures = runtime.submit_many(requests[:half])
        runtime.flush()
        runtime.publish(versions[1])
        futures += runtime.submit_many(requests[half:])
        runtime.flush()
        results = [future.exception(0) or future.result(0) for future in futures]
    digest.record(name, requests, results, versions.__getitem__, pool_of)


def _deadline_path(digest, factors) -> None:
    """Deadline and queue-pressure degradation on a manual clock: an
    injected slow batch seeds the per-mode cost estimates, then budgets
    below the sample estimate degrade, an expired deadline fails, and a
    queue past its cap walks requests down the ladder."""
    clock = ManualClock()
    plan = FaultPlan(clock=clock).slow_serve(0.08, times=1)
    config = ServingConfig(
        workers=0, max_batch=4, max_wait=0.0, clock=clock, fault_plan=plan,
        queue_cap=3, **CONFIG,
    )
    shapes = _shapes(MONO_ITEMS, 7, sliced=False)
    warm = shapes["sample"]
    budgeted = shapes["sample-history"] + shapes["map"][:2] + shapes["sample-alpha"]
    pressured = shapes["map-pins"] + shapes["sample-exclude"]
    with ServingRuntime(ItemCatalog(factors), config=config) as runtime:
        futures = runtime.submit_many(warm)
        runtime.flush()
        now = clock()
        for b, request in enumerate(budgeted):
            deadline = now - 1.0 if b == 0 else now + (0.01 if b % 2 else 1.0)
            futures.append(runtime.submit(replace(request, deadline=deadline)))
        runtime.flush()
        futures += runtime.submit_many(pressured)
        runtime.flush()
        results = [future.exception(0) or future.result(0) for future in futures]
        costs = runtime.stats["resilience"]["mode_costs"]
    digest.record(
        "runtime/deadline", warm + budgeted + pressured, results, lambda _: factors
    )
    digest.paths["runtime/deadline/mode_costs"] = hashlib.sha1(
        json.dumps(sorted((mode, repr(cost)) for mode, cost in costs.items())).encode()
    ).hexdigest()


def compute() -> _Digest:
    digest = _Digest()
    rng = np.random.default_rng(2024)
    mono = rng.normal(size=(MONO_ITEMS, RANK))
    sharded = rng.normal(size=(SHARDED_ITEMS, RANK))
    config = ServingConfig(**CONFIG)

    server = KDPPServer(ItemCatalog(mono), config=config)
    for ground, sliced in (("full", False), ("slice", True)):
        _serve_paths(digest, f"mono/{ground}", server, _shapes(MONO_ITEMS, 1, sliced), mono)

    exact_oracle = ShardedKDPPServer(ShardedCatalog(sharded, NUM_SHARDS), config=config)
    pool_of = exact_oracle.funnel_pool
    for source in ("exact", "quantile-cache"):
        plugins = (
            dict(source=ExactTopK())
            if source == "exact"
            else dict(source=QuantileFunnel(seed=3), funnel_cache=FunnelCache())
        )
        server = ShardedKDPPServer(
            ShardedCatalog(sharded, NUM_SHARDS), config=config.replace(**plugins)
        )
        for ground, sliced in (("full", False), ("slice", True)):
            _serve_paths(
                digest, f"sharded-{source}/{ground}", server,
                _shapes(SHARDED_ITEMS, 2, sliced), sharded, pool_of,
            )
        if source == "quantile-cache":
            # A second visit of the same users reads the cached pools.
            repeat = _shapes(SHARDED_ITEMS, 2, False)["mixed"]
            digest.record(
                "sharded-quantile-cache/full/mixed/repeat", repeat,
                server.serve(repeat), lambda _: sharded, pool_of,
            )

    runtime_config = ServingConfig(
        workers=0, max_batch=8, max_wait=0.0, clock=ManualClock(),
        trace_rate=1.0, audit_rate=1.0, **CONFIG,
    )
    mono_next = mono + 0.1 * rng.normal(size=mono.shape)
    requests = _shapes(MONO_ITEMS, 3, False)["mixed"] + _shapes(MONO_ITEMS, 4, True)["mixed"]
    _runtime_path(
        digest, "runtime/mono", ItemCatalog(mono), [mono, mono_next], requests,
        runtime_config,
    )
    sharded_next = sharded + 0.1 * rng.normal(size=sharded.shape)
    requests = _shapes(SHARDED_ITEMS, 5, False)["mixed"]
    _runtime_path(
        digest, "runtime/sharded-quantile-cache", ShardedCatalog(sharded, NUM_SHARDS),
        [sharded, sharded_next], requests,
        runtime_config.replace(
            clock=ManualClock(), source=QuantileFunnel(seed=3), funnel_cache=FunnelCache()
        ),
        pool_of,
    )
    _deadline_path(digest, mono)
    return digest


def first_difference(golden: dict, current: dict) -> str | None:
    """The first path (in golden order) whose digest differs or that one
    side lacks, described; ``None`` when every path matches."""
    for path, value in golden.items():
        if path not in current:
            return f"{path}: missing from the current digest"
        if current[path] != value:
            return f"{path}: slates differ from the golden digest"
    for path in current:
        if path not in golden:
            return f"{path}: not in the golden digest"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record the golden file")
    mode.add_argument("--check", action="store_true", help="compare against it")
    args = parser.parse_args(argv)
    digest = compute()
    print(
        f"{len(digest.paths)} paths, {digest.slates} slates, "
        f"{digest.checked} log-probabilities checked against Eq. 4"
    )
    if digest.problems:
        print("\n".join(digest.problems), file=sys.stderr)
        return 1
    if args.write:
        GOLDEN.write_text(
            json.dumps({"slates": digest.slates, "paths": digest.paths}, indent=1) + "\n"
        )
        print(f"wrote {GOLDEN}")
        return 0
    golden = json.loads(GOLDEN.read_text())["paths"]
    difference = first_difference(golden, digest.paths)
    if difference is not None:
        print(f"parity digest differs: {difference}", file=sys.stderr)
        return 1
    print("parity digest matches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
