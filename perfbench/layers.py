"""The per-layer table: spans of a traced run folded into named metrics.

Layer times are the median milliseconds per engine batch (one
``server.serve`` call) of the traced saturation phase, over the batches
in which the layer ran at all; a layer that never ran reads 0.  Metrics
marked per call are medians over calls.  Flop and byte figures are
*computed* from the recorded argument shapes (B requests, M items, rank
r), not measured.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

#: layer metric -> span names summed per engine batch
PER_BATCH = {
    "retrieval.pools_ms": ("retrieval.pools",),
    "catalog.build_duals_ms": ("catalog.build_duals",),
    "catalog.take_rows_ms": ("catalog.take_rows",),
    "linalg.eigh_ms": ("linalg.eigh",),
    "esp.log_esp_ms": ("esp.log_esp",),
    "esp.table_ms": ("esp.table",),
    "kdpp.sample_shared_ms": ("kdpp.sample_shared",),
    "kdpp.sample_stacked_ms": ("kdpp.sample_stacked",),
    "kdpp.select_eigvecs_ms": ("kdpp.select_eigvecs",),
    "map.greedy_shared_ms": ("map.greedy_shared",),
    "map.greedy_stacked_ms": ("map.greedy_stacked",),
    "map.greedy_session_ms": ("map.greedy_session",),
}

#: runtime stage (``serving_stage_seconds{stage}``) -> outside-timed spans
CROSS_CHECK = {
    "dual_build": ("catalog.take_rows", "catalog.build_duals"),
    "eigh": ("linalg.eigh",),
    "selection": (
        "esp.table",
        "kdpp.select_eigvecs",
        "kdpp.sample_shared",
        "kdpp.sample_stacked",
        "map.greedy_shared",
        "map.greedy_stacked",
        "map.greedy_session",
    ),
    "funnel": ("retrieval.pools", "funnel_cache.get"),
}


# ----------------------------------------------------------------------
# Computed cost models (float64: 8 bytes per value)
# ----------------------------------------------------------------------
def build_duals_cost(batch: int, items: int, rank: int) -> tuple[float, float]:
    """``(B, M) @ (M, r(r+1)/2)`` plus the symmetric scatter to (B, r, r)."""
    packed = rank * (rank + 1) // 2
    flops = 2.0 * batch * items * packed
    moved = 8.0 * (batch * items + items * packed + batch * packed + 2 * batch * rank**2)
    return flops, moved


def sample_step_cost(batch: int, items: int, rank: int) -> tuple[float, float]:
    """One shared-sampler step: the ``(B, r) @ (r, M)`` direction matmul,
    the norm update (scale, square, subtract, clip) and the per-request
    CDF cumsum — reading V once and about 13 (B, M) passes."""
    flops = 2.0 * batch * rank * items + 5.0 * batch * items
    moved = 8.0 * (items * rank + 13 * batch * items)
    return flops, moved


def greedy_round_cost(batch: int, items: int, rank: int) -> tuple[float, float]:
    """One shared greedy MAP round: the ``(B, r) @ (r, M)`` projection,
    quality scaling, gain update and argmax — V once, ~10 (B, M) passes."""
    flops = 2.0 * batch * rank * items + 4.0 * batch * items
    moved = 8.0 * (items * rank + 10 * batch * items)
    return flops, moved


def pools_cost(batch: int, items: int) -> tuple[float, float]:
    """``ExactTopK.pools``: negate + introselect per shard slice, ~3
    operations per value; reads the quality stack, writes its negation
    and an int64 index array of the same size."""
    return 3.0 * batch * items, 32.0 * batch * items


# ----------------------------------------------------------------------
def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_table(
    saturated,
    fixed,
    sent: dict,
    resolved: dict,
    publishes: list,
    scrapes: list,
    late_ms: list,
) -> dict:
    """Per-layer metrics of one traced run.

    Layer times and computed costs come from ``saturated``, the spans of
    the traced saturation phase, where every engine batch is full — so a
    batch has the same shape however fast the code is.  Queueing, the
    publish pair and the scrape cost come from ``fixed``, the spans of
    the fixed-rate phase, whose offered load does not depend on speed.
    ``sent`` / ``resolved`` map the fixed phase's request sequence
    numbers to the scheduled send time and the future's resolution time;
    ``publishes`` holds ``(version, ms)`` per publish call, ``scrapes``
    the ms per telemetry scrape, ``late_ms`` how late each send was.
    """
    metrics: dict[str, float] = {}
    batches, by_batch = _batches(fixed)
    waits, post = [], []
    for batch in batches:
        for seq in batch.info["seqs"]:
            if seq in sent:
                waits.append((batch.start - sent[seq]) * 1e3)
            if seq in resolved:
                post.append((resolved[seq] - batch.end) * 1e3)
    metrics["scheduler.queue_wait_p50_ms"] = _percentile(waits, 50)
    metrics["scheduler.queue_wait_p99_ms"] = _percentile(waits, 99)
    metrics["scheduler.batch_size_mean"] = (
        float(np.mean([b.info["size"] for b in batches])) if batches else 0.0
    )
    metrics["scheduler.post_ms_p50"] = _percentile(post, 50)
    versions = {version for version, _ in publishes}
    first: dict = {}
    for batch in sorted(batches, key=lambda b: b.start):
        version = batch.info["version"]
        if version in versions and version not in first:
            first[version] = batch.ms
    metrics["catalog.publish_ms"] = _median([ms for _, ms in publishes])
    metrics["catalog.first_batch_after_publish_ms"] = _median(list(first.values()))
    metrics["observability.scrape_ms"] = _median(scrapes)
    metrics["gen.late_p99_ms"] = _percentile(late_ms, 99)

    batches, by_batch = _batches(saturated)
    metrics["server.serve_ms"] = _median([b.ms for b in batches])
    metrics["server.self_ms"] = _median(
        [
            b.ms
            - sum(s.ms for s in by_batch[b.span_id] if s.parent == b.span_id)
            for b in batches
        ]
    )
    for metric, names in PER_BATCH.items():
        totals = [
            sum(s.ms for s in by_batch[b.span_id] if s.name in names)
            for b in batches
            if any(s.name in names for s in by_batch[b.span_id])
        ]
        metrics[metric] = _median(totals)
    pools = [s for s in saturated if s.name == "retrieval.pools"]
    metrics["retrieval.rows_per_batch"] = (
        sum(s.info[0] for s in pools) / len(batches) if batches else 0.0
    )
    metrics["health.observe_batch_ms"] = _median(
        [s.ms for s in saturated if s.name == "health.observe_batch"]
    )
    metrics.update(_computed_costs(saturated, by_batch, batches))
    return metrics


def _batches(spans):
    """The phase's engine batches and, per batch id, the spans inside."""
    batches = [span for span in spans if span.name == "server.serve"]
    by_batch: dict = defaultdict(list)
    for span in spans:
        if span.batch is not None and span.name != "server.serve":
            by_batch[span.batch].append(span)
    return batches, by_batch


def _computed_costs(spans, by_batch, batches) -> dict:
    def per_batch(name, cost):
        totals = []
        for batch in batches:
            calls = [cost(*s.info) for s in by_batch[batch.span_id] if s.name == name]
            if calls:
                totals.append(np.sum(calls, axis=0))
        return np.median(totals, axis=0) if totals else (0.0, 0.0)

    def per_step(name, cost):
        calls = [cost(*s.info[:3]) for s in spans if s.name == name and s.batch]
        return np.median(calls, axis=0) if calls else (0.0, 0.0)

    duals = per_batch("catalog.build_duals", build_duals_cost)
    step = per_step("kdpp.sample_shared", sample_step_cost)
    greedy = per_step("map.greedy_shared", greedy_round_cost)
    pools = per_batch(
        "retrieval.pools", lambda batch, items: pools_cost(batch, items)
    )
    return {
        "catalog.build_duals_mflop": float(duals[0]) / 1e6,
        "catalog.build_duals_mb": float(duals[1]) / 1e6,
        "kdpp.shared_step_mflop": float(step[0]) / 1e6,
        "kdpp.shared_step_mb": float(step[1]) / 1e6,
        "map.shared_round_mflop": float(greedy[0]) / 1e6,
        "map.shared_round_mb": float(greedy[1]) / 1e6,
        "retrieval.pools_mop": float(pools[0]) / 1e6,
        "retrieval.pools_mb": float(pools[1]) / 1e6,
    }


def cross_check(spans, stage_seconds: dict) -> dict:
    """The runtime's own ``serving_stage_seconds`` per stage over the
    phase, divided by the outside-timed spans of the same batches (the
    batches the runtime handed a stage recorder)."""
    traced = {s.span_id for s in spans if s.name == "server.serve" and s.info["traced"]}
    ratios = {}
    for stage, names in CROSS_CHECK.items():
        outside = sum(
            s.end - s.start for s in spans if s.batch in traced and s.name in names
        )
        inside = stage_seconds.get(stage, 0.0)
        ratios[f"xcheck.{stage}_ratio"] = inside / outside if outside > 0 else 0.0
    return ratios
