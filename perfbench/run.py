#!/usr/bin/env python3
"""The serving benchmark: one open-loop generator driving a ServingRuntime.

Usage, from the repository root::

    python3 perfbench/run.py --workload mono-20k --seed 1 --seconds 30 --trace 0

The workloads, metric names and bounds are listed in ``BENCHMARK.json``;
the inputs each workload sends are built in ``workloads.py``.  An
untraced run (``--trace 0``):

* builds the workload's catalog and runtime SETUP_REPS times, each timed
  to its first served batch (``setup_s`` is the median).  That batch is
  the seeded probe; the first one is checked against the repository's
  reference routes (``checks.oracle_problems``);
* runs ROUNDS rounds, each on a freshly built runtime, of a
  **saturation** phase, where the generator keeps four full batches in
  flight so at least two sit queued behind the one being served
  (``throughput_rps`` is the requests served over the saturated time of
  all rounds), then a **fixed-rate** phase, open loop at the workload's
  absolute ``fixed_rate_rps``, whose latency runs from each request's
  *scheduled* send time to the moment its future resolves
  (``latency_p50_ms`` / ``latency_p99_ms`` are percentiles of all
  rounds' latencies pooled);
* scales every timing to the reference machine's speed by the
  ``HostGauge`` read between phases (the raw timings go to the result
  file);
* checks every response (``checks.slate_problem``).

Numpy runs with one BLAS thread (set before it is imported), so the
engine worker and the generator thread are the only busy threads.

A traced run (``--trace 1``) measures untraced saturation, installs the
timing wrappers of ``tracing.py`` and reports the per-layer table of
``layers.py``, the tracing overhead and, where the runtime traces
itself, its own stage telemetry over the spans timed from outside.  It
also checks that every replaced name is restored and that the probe
batch's slates are the same traced and untraced.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with its host and settings record, goes to ``.perfbench_out/`` (compare
two with ``compare.py``).  A failed check exits 1.  ``--corrupt``
damages two probe responses (a duplicate id, a wrong log-probability)
to show that the checks fail the run.
"""

from __future__ import annotations

import argparse
import collections
import functools
import gc
import hashlib
import json
import os
import platform
import resource
import sys
import threading
import time
from pathlib import Path

# One BLAS thread: with the engine worker and the generator thread the
# 2-core reference host is full, and a spinning BLAS helper thread on top
# made the rates depend on where the kernel placed three busy threads.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import numpy as np  # noqa: E402 - after the BLAS thread settings

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

SETUP_REPS = 9
ROUNDS = 5
ROUND_SEQ_STRIDE = 1_000_000
SATURATION_BATCHES = 4
#: share of each round spent in the saturation phase (the rest is fixed-rate)
SATURATION_SHARE = 0.5
#: how long each reading of the host gauge runs
GAUGE_SECONDS = 0.3
#: gauge calls per second on the reference machine (``reference.json``),
#: between the rates of its slow and fast states
GAUGE_REFERENCE_RATE = 100.0
FIXED_SEQ_BASE = 10_000_000
PROBE_SEQ_BASE = 20_000_000
PROBE_SIZE = 32
#: a fixed-rate phase whose generator sent its p99 request later than
#: this is invalid: its latencies would measure the generator
LATE_BOUND_MS = 50.0
DRAIN_TIMEOUT_S = 60.0
BATCH_GAP_S = 1e-3

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "slate_quality_ratio": "ratio",
    "slate_ilad": "distance",
}


def per_layer_units(name: str) -> str:
    if name.endswith("_mflop"):
        return "Mflop_computed"
    if name.endswith("_mop"):
        return "Mop_computed"
    if name.endswith("_mb"):
        return "MB_computed"
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name == "scheduler.batch_size_mean" or name == "retrieval.rows_per_batch":
        return "requests"
    return "ratio"


# ----------------------------------------------------------------------
# Host and settings record
# ----------------------------------------------------------------------
def _blas_threads() -> str:
    """OpenBLAS's own thread count, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return str(function())
    return "unknown"


def host_record(workload: str, seed: int, seconds: int, spec: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "fixed_rate_rps": spec["fixed_rate_rps"],
        "saturation_in_flight": SATURATION_BATCHES * 32,
        "gauge_reference_rate": GAUGE_REFERENCE_RATE,
    }


def served_span(resolved: list[float]) -> tuple[int, float]:
    """(requests served, seconds) while the engine never idles.

    The futures of one engine batch resolve within a millisecond of each
    other, so sorted resolution times split into batches at gaps longer
    than BATCH_GAP_S.  The span runs from the end of the first batch to
    the end of the last and counts the requests of every batch after the
    first, so no partial batch sits at either edge.  Spans of several
    rounds add up to one rate: on a shared host the engine's speed
    drifts over seconds, and a count over the whole saturated time
    averages that drift where a median of short windows picks one level.
    """
    times = sorted(resolved)
    ends, counts = [], []
    for position, moment in enumerate(times):
        if position and moment - times[position - 1] <= BATCH_GAP_S:
            counts[-1] += 1
            ends[-1] = moment
        else:
            ends.append(moment)
            counts.append(1)
    if len(ends) < 2:
        return 0, 0.0
    return sum(counts[1:]), ends[-1] - ends[0]


class HostGauge:
    """The host's speed now, relative to the reference machine.

    A shared host's speed moves with its other tenants: on the 2-core
    reference machine it flips between two states a quarter apart every
    few seconds and drifts over minutes, and every timing of a run moves
    with it (the raw saturated rate spread 16-32% over ten runs).  The
    gauge is a fixed numpy routine, none of it the program's code, shaped
    like the engine's work: a copy and a top-k partition of rows of 100k,
    a tall matmul, small square matmuls.  Read between phases
    (the runtime idle), its rate over GAUGE_REFERENCE_RATE is the host's
    speed, and the timings of the phase between two readings are scaled
    by their mean: rates divided by it, durations multiplied by it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.rows = rng.normal(size=(8, 100_000))
        self.tall = rng.normal(size=(100_000, 32))
        self.square = rng.normal(size=(256, 256))
        # Every output preallocated: a reading allocates nothing, so it
        # does not depend on the heap the runtime left behind.
        self.work = np.empty_like(self.rows)
        self.product = np.empty((8, 32))
        self.square_product = np.empty_like(self.square)

    def _call(self) -> None:
        np.copyto(self.work, self.rows)
        self.work.partition(32, axis=1)
        np.matmul(self.rows, self.tall, out=self.product)
        for _ in range(4):
            np.matmul(self.square, self.square, out=self.square_product)

    def read(self) -> float:
        """Calls per second, from the median call over GAUGE_SECONDS (a
        momentary stall moves one call, not the reading), over
        GAUGE_REFERENCE_RATE."""
        self._call()
        durations = []
        start = time.perf_counter()
        while time.perf_counter() - start < GAUGE_SECONDS:
            began = time.perf_counter()
            self._call()
            durations.append(time.perf_counter() - began)
        return 1.0 / float(np.median(durations)) / GAUGE_REFERENCE_RATE


# ----------------------------------------------------------------------
# The open-loop generator
# ----------------------------------------------------------------------
class Load:
    """Sends seeded requests to a runtime and checks every completion."""

    def __init__(self, world, checks) -> None:
        self.world = world
        self.runtime = None  # set per round
        self.checks = checks
        self.inflight: dict = {}
        self.request_seq: dict = {}  # id(request) -> seq, read by the tracer
        self.done: collections.deque = collections.deque()
        self.wake = threading.Event()
        self.sent: dict = {}  # seq -> scheduled send time
        self.resolved: dict = {}  # seq -> future resolution time
        self.phase_of: dict = {}
        self.problems: list[str] = []
        self.failed = collections.Counter()
        self.attempted = collections.Counter()
        self.quality_ratio: list[float] = []
        self.ilad: list[float] = []
        self.slates: dict = {}
        self.publishes: list = []  # (phase, version, ms)
        self.scrapes: list = []  # (phase, ms)
        spec = world.spec
        self._publish_every = spec.get("publish_every_s")
        self._scrape_every = spec.get("scrape_every_s")
        self._next_publish = self._next_scrape = None
        self._publish_count = 0
        self.phase = None

    # -- sending -------------------------------------------------------
    def send(self, seq: int, scheduled: float) -> float:
        request, meta = self.world.request(seq, now=time.monotonic())
        self.request_seq[id(request)] = seq
        self.inflight[seq] = (request, meta)
        self.sent[seq] = scheduled
        self.phase_of[seq] = self.phase
        self.attempted[self.phase] += 1
        sent_at = time.perf_counter()
        try:
            future = self.runtime.submit(request)
        except Exception as error:  # noqa: BLE001 - a refused request is a failure
            self._finish(seq, sent_at, error)
            return sent_at
        future.add_done_callback(functools.partial(self._on_done, seq))
        return sent_at

    def _on_done(self, seq: int, future) -> None:
        self.done.append((seq, time.perf_counter(), future))
        self.wake.set()

    def collect(self) -> None:
        while self.done:
            seq, resolved, future = self.done.popleft()
            error = future.exception()
            self._finish(seq, resolved, error if error is not None else future.result())

    def _finish(self, seq: int, resolved: float, response) -> None:
        request, meta = self.inflight.pop(seq)
        self.request_seq.pop(id(request), None)
        self.resolved[seq] = resolved
        phase = self.phase_of[seq]
        problem = self.checks.slate_problem(
            request, response, meta, self.world.num_items
        )
        if problem is not None:
            self.failed[phase] += 1
            if len(self.problems) < 20:
                self.problems.append(f"request {seq}: {problem}")
            return
        if phase == "fixed":
            items = np.asarray(response.items)
            quality = np.asarray(request.quality)
            self.quality_ratio.append(float(quality[items].sum()) / meta.topk_mass)
            rows = self.world.factors[items]
            cosine = rows @ rows.T
            upper = np.triu_indices(items.shape[0], 1)
            self.ilad.append(float(np.mean(1.0 - cosine[upper])))
            self.slates[seq] = (tuple(response.items), response.log_probability)

    # -- periodic writes and scrapes (churn workload) --------------------
    def start_clock(self) -> None:
        now = time.perf_counter()
        if self._publish_every:
            self._next_publish = now + self._publish_every
        if self._scrape_every:
            self._next_scrape = now + self._scrape_every

    def tick(self) -> None:
        now = time.perf_counter()
        if self._next_publish is not None and now >= self._next_publish:
            factors = self.world.publishes[self._publish_count % len(self.world.publishes)]
            self._publish_count += 1
            start = time.perf_counter()
            version = self.runtime.publish(factors)
            self.publishes.append((self.phase, version, (time.perf_counter() - start) * 1e3))
            self._next_publish += self._publish_every
        if self._next_scrape is not None and now >= self._next_scrape:
            start = time.perf_counter()
            self.runtime.telemetry().to_text()
            self.scrapes.append((self.phase, (time.perf_counter() - start) * 1e3))
            self._next_scrape += self._scrape_every

    def drain(self) -> None:
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while self.inflight:
            if time.perf_counter() > deadline:
                raise RuntimeError(f"{len(self.inflight)} requests never resolved")
            self.wake.clear()
            self.collect()
            self.tick()
            if self.inflight:
                self.wake.wait(0.005)

    # -- phases -----------------------------------------------------------
    def saturation(
        self, phase: str, seconds: float, first_seq: int
    ) -> tuple[tuple[int, float], int]:
        """Keep SATURATION_BATCHES full batches in flight; returns the
        ``served_span`` after warm-up and the next sequence number."""
        self.phase = phase
        self.start_clock()
        depth = SATURATION_BATCHES * 32
        start = time.perf_counter()
        warm = start + min(0.3, 0.2 * seconds)
        end = start + seconds
        seq = first_seq
        while time.perf_counter() < end:
            self.wake.clear()
            self.collect()
            while len(self.inflight) < depth:
                self.send(seq, time.perf_counter())
                seq += 1
            self.tick()
            self.wake.wait(0.005)
        self.drain()
        times = [
            self.resolved[s]
            for s in range(first_seq, seq)
            if warm <= self.resolved[s] <= end
        ]
        return served_span(times), seq

    def fixed_rate(
        self, phase: str, seconds: float, rate: float, first_seq: int
    ) -> tuple[list[float], list[float]]:
        """Open loop at ``rate``; returns how late each send was and each
        request's latency from its scheduled send time (both in ms)."""
        self.phase = phase
        self.start_clock()
        count = int(round(rate * seconds))
        start = time.perf_counter() + 0.01
        late = []
        for j in range(count):
            scheduled = start + j / rate
            # Completions are timestamped by their callbacks, so checking
            # them can wait for the gap before the next send; waking the
            # generator only then keeps it off the interpreter lock the
            # engine's worker thread needs.
            self.collect()
            self.tick()
            delay = scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late.append((self.send(first_seq + j, scheduled) - scheduled) * 1e3)
        self.drain()
        latency = [
            (self.resolved[s] - self.sent[s]) * 1e3
            for s in range(first_seq, first_seq + count)
        ]
        return late, latency


# ----------------------------------------------------------------------
def timed_setup(world):
    """A fresh catalog + runtime, timed from the start to its first
    served batch: the seeded probe batch, served as one engine batch, so
    it also pays for the lazy structures built on first use."""
    start = time.perf_counter()
    runtime = world.build_runtime()
    now = time.monotonic()
    pairs = [world.request(PROBE_SEQ_BASE + i, now=now) for i in range(PROBE_SIZE)]
    responses = runtime.serve_now([request for request, _ in pairs])
    return runtime, time.perf_counter() - start, pairs, responses


def probe_problems(world, checks, pairs, responses, corrupt: bool) -> list[str]:
    """Check the probe batch: every slate valid, and each valid one equal
    to the reference routes.  ``corrupt`` first damages two responses."""
    if corrupt:
        from dataclasses import replace

        first, second = responses[0], responses[1]
        responses = [
            replace(first, items=[first.items[0]] * 2 + first.items[2:]),
            replace(second, log_probability=second.log_probability + 1e-3),
            *responses[2:],
        ]
    problems, valid = [], []
    for i, ((request, meta), response) in enumerate(zip(pairs, responses)):
        problem = checks.slate_problem(request, response, meta, world.num_items)
        if problem is not None:
            problems.append(f"probe {i}: {problem}")
        else:
            valid.append((request, response))
    problems.extend(
        checks.oracle_problems(
            [r for r, _ in valid], [r for _, r in valid], world.factors, world.spec
        )
    )
    return problems


def close(runtime) -> None:
    runtime.close()
    gc.collect()


def stage_seconds(runtime) -> dict:
    family = runtime.telemetry().registry.get("serving_stage_seconds")
    if family is None:
        return {}
    return {
        series["labels"]["stage"]: series["sum"]
        for series in family.snapshot()["series"]
    }


def funnel_counters(runtime) -> tuple[int, int, int, int]:
    """(rows, fallback rows, cache hits, cache misses) so far."""
    source = getattr(runtime.server, "source", None)
    cache = getattr(runtime.server, "funnel_cache", None)
    rows = fallback = hits = misses = 0
    if source is not None:
        stats = source.stats()
        rows, fallback = stats["rows"], stats["fallback_rows"]
    if cache is not None:
        hits, misses = cache.hits, cache.misses
    return rows, fallback, hits, misses


def direct_probe(runtime, world, snapshot) -> list:
    """Serve the seeded probe batch straight through the engine, pinned
    to the version-0 snapshot (same answer whenever it is asked)."""
    probe = [world.request(PROBE_SEQ_BASE + i)[0] for i in range(PROBE_SIZE)]
    return [
        (tuple(r.items), r.log_probability)
        for r in runtime.server.serve(probe, snapshot=snapshot)
    ]


def run(args) -> tuple[dict, dict]:
    import checks
    import layers
    import tracing
    from workloads import WORKLOADS, World

    import repro.serving  # noqa: F401 - a one-time cost, not a set-up one

    spec = WORKLOADS[args.workload]
    world = World(args.workload, args.seed)
    # The 40k objects of the imported modules and the seeded inputs live
    # as long as the process, as in a server that freezes them after
    # start-up; a full collection that scanned them paused the engine for
    # ~20 ms about once a round, and where it fell decided the p99.
    gc.collect()
    gc.freeze()
    rate = spec["fixed_rate_rps"]
    seconds = float(args.seconds)
    rounds = 1 if args.trace else ROUNDS
    gauge = HostGauge()
    speeds = [gauge.read()]
    setup_times, problems = [], []
    for rep in range(max(1, SETUP_REPS - rounds)):
        runtime, elapsed, pairs, responses = timed_setup(world)
        close(runtime)
        setup_times.append(elapsed)
        if rep == 0:
            problems.extend(probe_problems(world, checks, pairs, responses, args.corrupt))
    speeds.append(gauge.read())
    scaled_setup = [t * (speeds[0] + speeds[1]) / 2 for t in setup_times]
    # High-water mark through set-up: the seeded inputs, the catalog's
    # built structures and one full first batch.  Serving-phase peaks
    # depend on when a publish lands relative to a batch, so they go to
    # the result file only.
    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    load = Load(world, checks)
    metrics: dict = {}
    extra: dict = {}
    late: list[float] = []
    if not args.trace:
        # Each round serves from freshly built structures, so the results
        # below span several memory layouts, not one process's luck; each
        # phase's timings are scaled by the host gauge read on either side.
        spans, seq, latency, scaled_latency = [], 0, [], []
        round_seconds = seconds / rounds
        for round_index in range(rounds):
            runtime, elapsed, _, _ = timed_setup(world)
            setup_times.append(elapsed)
            load.runtime = runtime
            try:
                span, seq = load.saturation(
                    "saturation", SATURATION_SHARE * round_seconds, seq
                )
                speeds.append(gauge.read())
                saturated_speed = (speeds[-2] + speeds[-1]) / 2
                round_late, round_latency = load.fixed_rate(
                    "fixed",
                    (1.0 - SATURATION_SHARE) * round_seconds,
                    rate,
                    FIXED_SEQ_BASE + round_index * ROUND_SEQ_STRIDE,
                )
            finally:
                close(runtime)
            speeds.append(gauge.read())
            fixed_speed = (speeds[-2] + speeds[-1]) / 2
            scaled_setup.append(elapsed * saturated_speed)
            spans.append((*span, saturated_speed))
            late += round_late
            latency += round_latency
            scaled_latency += [ms * fixed_speed for ms in round_latency]
        extra["raw_round_throughput_rps"] = [n / d for n, d, _ in spans]
        extra["raw_latency_p50_p99_ms"] = np.percentile(latency, [50, 99]).tolist()
        # Served requests over scaled saturated seconds, and percentiles
        # of all rounds' scaled latencies pooled.
        throughput = sum(n for n, _, _ in spans) / sum(d * s for _, d, s in spans)
        latency_p50, latency_p99 = np.percentile(scaled_latency, [50, 99])
    else:
        runtime, _, _, _ = timed_setup(world)
        load.runtime = runtime
        snapshot0 = runtime.catalog.snapshot()
        try:
            untraced_probe = direct_probe(runtime, world, snapshot0)
            (served, span), seq = load.saturation("saturation", 0.25 * seconds, 0)
            throughput_untraced = served / span
            tracer = tracing.Tracer()
            tracing.install(tracer, runtime, load.request_seq)
            try:
                traced_probe = direct_probe(runtime, world, snapshot0)
                saturation_start = time.perf_counter()
                before_stages = stage_seconds(runtime)
                (served, span), _ = load.saturation("traced-saturation", 0.25 * seconds, seq)
                throughput = served / span
                after_stages = stage_seconds(runtime)
                before_funnel = funnel_counters(runtime)
                fixed_start = time.perf_counter()
                late, latency = load.fixed_rate("fixed", 0.5 * seconds, rate, FIXED_SEQ_BASE)
                after_funnel = funnel_counters(runtime)
            finally:
                wrong = tracer.restore()
        finally:
            close(runtime)
        if wrong:
            problems.append(f"traced run left wrapped names behind: {wrong}")
        if traced_probe != untraced_probe:
            problems.append("traced and untraced probe slates differ")
        saturated = [s for s in tracer.spans if saturation_start <= s.start < fixed_start]
        fixed = [s for s in tracer.spans if s.start >= fixed_start]
        fixed_seqs = {s for s, p in load.phase_of.items() if p == "fixed"}
        metrics.update(
            layers.layer_table(
                saturated,
                fixed,
                {s: load.sent[s] for s in fixed_seqs},
                {s: load.resolved[s] for s in fixed_seqs if s in load.resolved},
                [(v, ms) for p, v, ms in load.publishes if p == "fixed"],
                [ms for p, ms in load.scrapes if p == "fixed"],
                late,
            )
        )
        rows, fallback, hits, misses = (a - b for a, b in zip(after_funnel, before_funnel))
        metrics["retrieval.fallback_frac"] = fallback / rows if rows else 0.0
        metrics["funnel_cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        metrics["trace.overhead_frac"] = (throughput_untraced - throughput) / throughput_untraced
        stage_delta = {
            stage: after_stages.get(stage, 0.0) - before_stages.get(stage, 0.0)
            for stage in after_stages
        }
        metrics.update(layers.cross_check(saturated, stage_delta))
        extra["spans"] = len(tracer.spans)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", "w") as out:
            for span in tracer.spans:
                out.write(json.dumps(span.to_dict()) + "\n")
    extra["raw_setup_times_s"] = setup_times
    extra["host_speed"] = speeds
    attempted = sum(load.attempted.values()) + PROBE_SIZE
    failed = sum(load.failed.values()) + len(problems)
    late_p99 = float(np.percentile(late, 99))
    if late_p99 > LATE_BOUND_MS:
        problems.append(
            f"fixed-rate phase invalid: the generator sent its p99 request "
            f"{late_p99:.1f} ms late (bound {LATE_BOUND_MS} ms)"
        )
    problems.extend(load.problems)
    if not args.trace:
        metrics.update(
            setup_s=float(np.median(scaled_setup)),
            throughput_rps=throughput,
            latency_p50_ms=float(latency_p50),
            latency_p99_ms=float(latency_p99),
            peak_rss_mb=setup_rss_mb,
            slate_quality_ratio=float(np.mean(load.quality_ratio)),
            slate_ilad=float(np.mean(load.ilad)),
        )
    metrics["error_rate"] = failed / attempted
    extra.update(
        peak_rss_run_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        latency_samples=len(latency),
        gen_late_p99_ms=late_p99,
        fixed_rate_rps=rate,
        publishes=len(load.publishes),
        attempted=dict(load.attempted),
        failed=dict(load.failed),
        problems=problems,
        slates_sha1=hashlib.sha1(
            json.dumps(sorted(load.slates.items())).encode()
        ).hexdigest(),
    )
    summary = dict(attempted=attempted, failed=failed, problems=problems)
    return metrics, dict(extra=extra, **summary)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "serving" / "runtime.py").is_file():
        print(f"perfbench: no serving package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    record = host_record(
        args.workload, args.seed, args.seconds, WORKLOADS[args.workload]
    )
    metrics, summary = run(args)
    units = {
        name: END_TO_END.get(name) or per_layer_units(name) for name in metrics
    }
    reported = metrics if args.trace else {n: metrics[n] for n in END_TO_END}
    correct = not summary["problems"]
    extra = summary["extra"]
    print(f"record {json.dumps(record)}")
    for problem in summary["problems"]:
        print(f"FAIL {problem}")
    for name, value in sorted(metrics.items()):
        note = ""
        if name.startswith("latency_"):
            note = (
                f"  ({extra['latency_samples']} requests at"
                f" {extra['fixed_rate_rps']} req/s over {ROUNDS} rounds)"
            )
        print(f"{name:40s} {value:14.6g} {units[name]}{note}")
    OUT.mkdir(exist_ok=True)
    result = dict(
        record=record,
        correct=correct,
        attempted=summary["attempted"],
        failed=summary["failed"],
        metrics={n: dict(value=v, unit=units[n]) for n, v in metrics.items()},
        extra=extra,
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=2, default=str))
    print(
        json.dumps(
            dict(
                correct=correct,
                attempted=summary["attempted"],
                failed=summary["failed"],
                metrics={
                    n: dict(value=v, unit=units[n]) for n, v in reported.items()
                },
            )
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
