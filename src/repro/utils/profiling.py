"""Zero-dependency sampling-profiler primitives.

Three building blocks, stdlib-only so any layer (retrieval, serving,
benchmarks) can adopt them without importing the serving package:

* :class:`StageRegistry` — a thread → current-stage stack, updated by
  the serving layer's per-batch ``StageRecorder`` on stage
  entry/exit.  The profiler reads it to attribute each sampled
  stack to the stage the thread was inside at sample time (innermost
  wins, so ``source`` inside ``funnel`` inside ``engine`` attributes to
  ``source``).
* :class:`StackProfile` — a bounded flame-style aggregation of folded
  stacks: each sample collapses a thread's frame chain into one
  ``stage;module.func;module.func`` key.  Export as collapsed-stack
  text (``flamegraph.pl`` / speedscope input) or a per-stage self-time
  table.
* :class:`SamplingProfiler` — the background thread driving
  ``sys._current_frames()`` at a configurable hz.  Purely passive: it
  never touches serving state, consumes no RNG, and holds no serving
  lock, so ``hz=0`` (never constructed) is bit-identical and ``hz>0``
  costs only the GIL slices the sampler takes.

Plus the RSS helpers (``/proc``/``resource``-based, no psutil) the
footprint report samples.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable

__all__ = [
    "StageRegistry",
    "StackProfile",
    "SamplingProfiler",
    "frame_stack",
    "current_rss_bytes",
    "peak_rss_bytes",
]

#: StackProfile's overflow bucket: samples whose folded stack was new
#: after the unique-stack bound was hit land here (counted, not lost)
OVERFLOW_STACK = ("(overflow)",)


class StageRegistry:
    """Thread-id → stack of active stage names (thread-safe).

    The serving layer pushes on stage entry and pops on exit (see
    ``StageRecorder.stage`` / ``ResilientServer``); the sampling
    profiler snapshots :meth:`active` to attribute stacks.  Push/pop is
    one dict access under a lock — cheap enough for per-stage (not
    per-request) granularity.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stacks: dict[int, list[str]] = {}

    def push(self, name: str) -> None:
        ident = threading.get_ident()
        with self._lock:
            self._stacks.setdefault(ident, []).append(name)

    def pop(self) -> None:
        ident = threading.get_ident()
        with self._lock:
            stack = self._stacks.get(ident)
            if stack:
                stack.pop()
                if not stack:
                    del self._stacks[ident]

    @contextmanager
    def scope(self, name: str):
        """``with registry.scope("engine"): ...`` — push/pop bracket."""
        self.push(name)
        try:
            yield self
        finally:
            self.pop()

    def current(self) -> str | None:
        """The calling thread's innermost active stage (None outside)."""
        with self._lock:
            stack = self._stacks.get(threading.get_ident())
            return stack[-1] if stack else None

    def active(self) -> dict[int, tuple[str, ...]]:
        """Snapshot of every thread's stage stack (root first)."""
        with self._lock:
            return {
                ident: tuple(stack) for ident, stack in self._stacks.items()
            }


#: code object → "module.func" label, so repeat samples of the same
#: frames (the common case — the sampler hits the same hot loop over
#: and over) skip the string formatting.  Grows with the number of
#: distinct code objects sampled, i.e. bounded by program size.
_FRAME_LABELS: dict = {}


def frame_stack(frame, max_depth: int = 48) -> tuple[str, ...]:
    """Collapse a frame chain into a root-first ``module.func`` tuple.

    Walks ``f_back`` up to ``max_depth`` frames; deeper ancestry is
    dropped from the *root* end (the leaf — where time is actually
    spent — always survives truncation).  The walk runs on the sampler
    thread holding the GIL, so per-frame work is kept to two dict hits.
    """
    names: list[str] = []
    while frame is not None and len(names) < max_depth:
        code = frame.f_code
        label = _FRAME_LABELS.get(code)
        if label is None:
            module = frame.f_globals.get("__name__", "?")
            label = f"{module}.{code.co_name}"
            _FRAME_LABELS[code] = label
        names.append(label)
        frame = frame.f_back
    names.reverse()
    return tuple(names)


class StackProfile:
    """Bounded flame-style aggregation of folded stack samples.

    Keys are ``(stage, frame, frame, ...)`` tuples; values are sample
    counts.  The unique-stack bound keeps worst-case memory O(bound):
    once hit, unseen stacks fold into one ``(overflow)`` bucket — the
    count is preserved, only the distinction is lost.  Thread-safe (the
    sampler records while readers export).
    """

    def __init__(self, max_stacks: int = 4096) -> None:
        if max_stacks < 1:
            raise ValueError(f"max_stacks must be positive, got {max_stacks}")
        self.max_stacks = int(max_stacks)
        self._lock = threading.Lock()
        self._counts: dict[tuple[str, ...], int] = {}
        self._samples = 0
        self._overflowed = 0

    def record(
        self, frames: tuple[str, ...], stage: str | None = None, count: int = 1
    ) -> None:
        key = (stage if stage is not None else "(unattributed)",) + tuple(frames)
        with self._lock:
            self._samples += count
            if key not in self._counts and len(self._counts) >= self.max_stacks:
                key = OVERFLOW_STACK
                self._overflowed += count
            self._counts[key] = self._counts.get(key, 0) + count

    @property
    def samples(self) -> int:
        with self._lock:
            return self._samples

    def collapsed(self) -> str:
        """Collapsed-stack text: one ``a;b;c count`` line per unique
        stack (flamegraph.pl / speedscope "collapsed" input; the stage
        name is the root frame, so the flame graph groups by stage)."""
        with self._lock:
            items = sorted(self._counts.items())
        return "\n".join(f"{';'.join(key)} {count}" for key, count in items)

    def stage_samples(self) -> dict[str, int]:
        """Sample counts aggregated by stage (the key's root)."""
        out: dict[str, int] = {}
        with self._lock:
            for key, count in self._counts.items():
                out[key[0]] = out.get(key[0], 0) + count
        return out

    def self_samples(self, stage: str | None = None) -> dict[str, int]:
        """Sample counts per *leaf* frame — self time, optionally
        restricted to one stage (how "selection is 76 ms" decomposes
        into its actual numpy callees)."""
        out: dict[str, int] = {}
        with self._lock:
            for key, count in self._counts.items():
                if stage is not None and key[0] != stage:
                    continue
                out[key[-1]] = out.get(key[-1], 0) + count
        return out

    def stats(self) -> dict:
        with self._lock:
            return {
                "samples": self._samples,
                "unique_stacks": len(self._counts),
                "max_stacks": self.max_stacks,
                "overflowed": self._overflowed,
            }


class SamplingProfiler:
    """Continuous ``sys._current_frames()`` sampler with stage attribution.

    Every ``1/hz`` wall seconds the sampler snapshots the stage registry
    and the interpreter's live frames, and folds — for each thread that
    is currently *inside a stage* — that thread's stack into the
    :class:`StackProfile` under the thread's innermost stage.  Threads
    outside any stage (idle workers, the submit thread, unrelated
    machinery) are skipped: the profile answers "where does engine time
    go", not "what is every thread doing".

    Attribution accounting: a sample whose innermost stage is the
    coarse ``engine`` window marker (pushed by the resilient layer
    around the whole serve call) is *engine work without a finer
    stage*; samples inside ``resolve`` / ``eigh`` / ``selection`` / ...
    are *attributed*.  ``attribution_coverage`` is their ratio — the
    CI guard pins it ≥ 0.8 under load.

    ``start()`` spawns the daemon thread; :meth:`sample_once` drives
    one tick inline (deterministic tests).  The sampler is passive —
    no serving lock is held while it walks frames, so the only cost to
    the serving path is the GIL time the walk takes.
    """

    def __init__(
        self,
        hz: float,
        registry: StageRegistry,
        max_stacks: int = 4096,
        max_depth: int = 48,
        engine_marker: str = "engine",
        frames_provider: Callable[[], dict] = sys._current_frames,
    ) -> None:
        if hz <= 0:
            raise ValueError(f"hz must be positive, got {hz}")
        self.hz = float(hz)
        self.registry = registry
        self.max_depth = int(max_depth)
        self.engine_marker = engine_marker
        self.profile = StackProfile(max_stacks=max_stacks)
        self._frames_provider = frames_provider
        self._lock = threading.Lock()
        self._ticks = 0
        self._stage_samples = 0
        self._attributed = 0
        self._overhead_s = 0.0
        self._closed = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        if self._thread is None:
            self._closed.clear()
            self._thread = threading.Thread(
                target=self._loop, name="sampling-profiler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._closed.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def _loop(self) -> None:
        # A plain sleep/flag loop, not Event.wait: Condition.wait costs
        # a waiter-lock allocation and several lock round-trips per tick
        # — pure-Python work that, on a single-core host, all comes out
        # of the serving thread's budget.  stop() tolerates the ≤1
        # interval of staleness the flag check leaves.
        interval = 1.0 / self.hz
        sleep = time.sleep
        while not self._closed.is_set():
            sleep(interval)
            if self._closed.is_set():
                break
            self.sample_once()

    # ------------------------------------------------------------------
    def sample_once(self) -> int:
        """One sampling tick; returns how many thread-samples landed."""
        active = self.registry.active()
        if not active:
            # Idle tick: nothing in-stage, so skip the frame snapshot
            # and the timing bookkeeping — this is the fast path
            # whenever the serving threads are between batches.
            with self._lock:
                self._ticks += 1
            return 0
        started = time.perf_counter()
        own = threading.get_ident()
        landed = 0
        attributed = 0
        frames = self._frames_provider()
        for ident, stack in active.items():
            if ident == own:
                continue
            frame = frames.get(ident)
            if frame is None:
                continue
            stage = stack[-1]
            self.profile.record(
                frame_stack(frame, self.max_depth), stage=stage
            )
            landed += 1
            if stage != self.engine_marker:
                attributed += 1
        with self._lock:
            self._ticks += 1
            self._stage_samples += landed
            self._attributed += attributed
            self._overhead_s += time.perf_counter() - started
        return landed

    # ------------------------------------------------------------------
    def attribution_coverage(self) -> float:
        """Fraction of in-stage samples carrying a stage finer than the
        bare ``engine`` window (1.0 before any sample landed)."""
        with self._lock:
            if self._stage_samples == 0:
                return 1.0
            return self._attributed / self._stage_samples

    def stage_self_seconds(self) -> dict[str, float]:
        """Per-stage self time, samples × sampling period."""
        period = 1.0 / self.hz
        return {
            stage: count * period
            for stage, count in self.profile.stage_samples().items()
        }

    def collapsed(self) -> str:
        return self.profile.collapsed()

    def stats(self) -> dict:
        with self._lock:
            ticks = self._ticks
            stage_samples = self._stage_samples
            attributed = self._attributed
            overhead = self._overhead_s
        return {
            "hz": self.hz,
            "ticks": ticks,
            "stage_samples": stage_samples,
            "attributed_samples": attributed,
            "attribution_coverage": (
                attributed / stage_samples if stage_samples else 1.0
            ),
            "stage_self_seconds": self.stage_self_seconds(),
            "sampler_overhead_s": overhead,
            "profile": self.profile.stats(),
        }

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# RSS sampling (stdlib only — no psutil)
# ----------------------------------------------------------------------
def current_rss_bytes() -> int | None:
    """Resident set size right now, via ``/proc/self/statm`` (None on
    platforms without procfs)."""
    try:
        with open("/proc/self/statm") as handle:
            fields = handle.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGESIZE")
    except (OSError, IndexError, ValueError):
        return None


def peak_rss_bytes() -> int | None:
    """Lifetime peak RSS via ``resource.getrusage`` (``ru_maxrss`` is
    kilobytes on Linux, bytes on macOS; None where unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return int(peak)
    return int(peak) * 1024
