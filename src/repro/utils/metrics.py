"""Zero-dependency, thread-safe metrics primitives.

The serving stack's visibility used to be a pile of differently-shaped
``stats()`` dicts, each guarding (or forgetting to guard) its own plain
integers.  This module is the one set of primitives they all move onto:

* :class:`Counter` — monotonically increasing float total;
* :class:`Gauge` — a settable point-in-time value with the
  ``set_max`` convenience the schedulers' high-water marks need;
* :class:`Histogram` — log-bucketed latency distribution sharing its
  bucket/percentile math with :func:`repro.utils.timing.log_buckets` /
  :func:`repro.utils.timing.histogram_percentile`, so a benchmark's
  offline percentiles and a live histogram's agree on convention;
* :class:`MetricsRegistry` — get-or-create-by-name registry with a
  point-in-time :meth:`~MetricsRegistry.snapshot` and a Prometheus-style
  :meth:`~MetricsRegistry.to_text` exposition;
* :class:`CreditSampler` — the deterministic rate sampler that picks
  which requests are traced and which responses are audited.

Every primitive supports **labeled children** (``metric.labels(...)``)
in the Prometheus mold: the parent owns the label *names*, children own
one series per label-value tuple, and all series share the parent's
lock (contention on these is trivial next to an ``eigh``).

Deliberately not imported by :mod:`repro.serving` directly —
``repro.serving.observability`` re-exports everything here.  Living
under ``repro.utils`` lets :mod:`repro.retrieval` adopt the primitives
without creating the retrieval→serving import cycle the layering
forbids.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Iterator, Sequence

from .timing import histogram_percentile, log_buckets

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "CreditSampler",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared parent/child plumbing for the three primitive kinds.

    A metric built with ``labelnames`` is a *family*: it holds no value
    itself, only children keyed by label-value tuples (created lazily by
    :meth:`labels`).  A metric without labelnames is its own single
    series.  One lock per family covers every child.
    """

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], "_Metric"] = {}
        self._labelvalues: tuple[str, ...] = ()

    def labels(self, **labelvalues) -> "_Metric":
        """The child series for one label-value assignment (created on
        first use; later calls return the same object)."""
        if not self.labelnames:
            raise ValueError(f"metric {self.name!r} takes no labels")
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                child._labelvalues = key
                self._children[key] = child
            return child

    def _make_child(self) -> "_Metric":
        raise NotImplementedError

    def _series(self) -> Iterator[tuple[tuple[str, ...], "_Metric"]]:
        """(labelvalues, series) pairs, the family's or its own."""
        if self.labelnames:
            with self._lock:
                items = sorted(self._children.items())
            yield from items
        else:
            yield (), self

    def _render_labels(self, labelvalues: tuple[str, ...]) -> str:
        if not labelvalues:
            return ""
        parts = ", ".join(
            f'{name}="{_escape_label_value(value)}"'
            for name, value in zip(self.labelnames, labelvalues)
        )
        return "{" + parts + "}"

    def snapshot(self) -> dict:
        """JSON-friendly point-in-time view of every series."""
        return {
            "type": self.kind,
            "help": self.help,
            "series": [
                dict(
                    labels=dict(zip(self.labelnames, labelvalues)),
                    **series._snapshot_values(),
                )
                for labelvalues, series in self._series()
            ],
        }

    def _snapshot_values(self) -> dict:
        raise NotImplementedError

    def to_text(self) -> str:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for labelvalues, series in self._series():
            lines.extend(series._text_samples(self._render_labels(labelvalues)))
        return "\n".join(lines)

    def _text_samples(self, rendered_labels: str) -> list[str]:
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing total (float increments allowed)."""

    kind = "counter"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def _make_child(self) -> "Counter":
        child = Counter.__new__(Counter)
        child.name = self.name
        child.help = self.help
        child.labelnames = ()
        child._lock = self._lock
        child._children = {}
        child._labelvalues = ()
        child._value = 0.0
        return child

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        """Zero the series (and every child) — ``reset_stats()`` support."""
        with self._lock:
            self._value = 0.0
            for child in self._children.values():
                child._value = 0.0

    def _snapshot_values(self) -> dict:
        with self._lock:
            return {"value": self._value}

    def _text_samples(self, rendered_labels: str) -> list[str]:
        with self._lock:
            value = self._value
        return [f"{self.name}{rendered_labels} {_format_value(value)}"]


class Gauge(_Metric):
    """A point-in-time value: set, inc/dec, or ratchet with set_max."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def _make_child(self) -> "Gauge":
        child = Gauge.__new__(Gauge)
        child.name = self.name
        child.help = self.help
        child.labelnames = ()
        child._lock = self._lock
        child._children = {}
        child._labelvalues = ()
        child._value = 0.0
        return child

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def set_max(self, value: float) -> None:
        """Ratchet: keep the larger of the current and the new value
        (high-water marks like peak queue depth)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0
            for child in self._children.values():
                child._value = 0.0

    def _snapshot_values(self) -> dict:
        with self._lock:
            return {"value": self._value}

    def _text_samples(self, rendered_labels: str) -> list[str]:
        with self._lock:
            value = self._value
        return [f"{self.name}{rendered_labels} {_format_value(value)}"]


class Histogram(_Metric):
    """Log-bucketed distribution (latency-shaped by default).

    ``buckets`` are finite upper bounds (seconds); an implicit +Inf
    bucket catches the overflow.  The default geometric ladder spans
    10µs–10s at 4 buckets per decade — see
    :func:`repro.utils.timing.log_buckets`.  :meth:`percentile` reads
    the same linear-interpolation convention as the benches'
    :func:`~repro.utils.timing.latency_percentiles`.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = list(log_buckets() if buckets is None else buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if sorted(bounds) != bounds:
            raise ValueError("histogram bucket bounds must be sorted ascending")
        if bounds and bounds[-1] == math.inf:
            bounds = bounds[:-1]
        self._bounds = [float(b) for b in bounds]
        self._counts = [0] * (len(self._bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def _make_child(self) -> "Histogram":
        child = Histogram.__new__(Histogram)
        child.name = self.name
        child.help = self.help
        child.labelnames = ()
        child._lock = self._lock
        child._children = {}
        child._labelvalues = ()
        child._bounds = self._bounds
        child._counts = [0] * (len(self._bounds) + 1)
        child._sum = 0.0
        child._count = 0
        return child

    def observe(self, value: float) -> None:
        position = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[position] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        """Sum of observed values (the ``_sum`` exposition sample)."""
        with self._lock:
            return self._sum

    def percentile(self, percentile: float) -> float:
        """Estimated percentile in [0, 100] via shared bucket math
        (0.0 when the histogram is empty)."""
        with self._lock:
            counts = list(self._counts)
        return histogram_percentile(self._bounds, counts, percentile)

    def reset(self) -> None:
        with self._lock:
            for series in (self, *self._children.values()):
                series._counts = [0] * (len(series._bounds) + 1)
                series._sum = 0.0
                series._count = 0

    def _snapshot_values(self) -> dict:
        with self._lock:
            counts = list(self._counts)
            total = self._sum
            count = self._count
        cumulative = []
        running = 0
        for bound, bucket_count in zip(self._bounds + [math.inf], counts):
            running += bucket_count
            cumulative.append([bound, running])
        return {
            "count": count,
            "sum": total,
            "buckets": cumulative,
            "p50": histogram_percentile(self._bounds, counts, 50.0),
            "p95": histogram_percentile(self._bounds, counts, 95.0),
            "p99": histogram_percentile(self._bounds, counts, 99.0),
        }

    def _text_samples(self, rendered_labels: str) -> list[str]:
        with self._lock:
            counts = list(self._counts)
            total = self._sum
            count = self._count
        if rendered_labels:
            bucket_prefix = rendered_labels[:-1] + ", "
        else:
            bucket_prefix = "{"
        lines = []
        running = 0
        for bound, bucket_count in zip(self._bounds + [math.inf], counts):
            running += bucket_count
            lines.append(
                f'{self.name}_bucket{bucket_prefix}le="{_format_value(bound)}"}} '
                f"{running}"
            )
        lines.append(f"{self.name}_sum{rendered_labels} {_format_value(total)}")
        lines.append(f"{self.name}_count{rendered_labels} {count}")
        return lines


class MetricsRegistry:
    """Get-or-create-by-name home for the stack's metric families.

    ``counter`` / ``gauge`` / ``histogram`` are idempotent: the second
    caller asking for an existing name gets the same object back (the
    scheduler, the resilient server and the runtime all register into
    one registry without coordinating), and a kind or label mismatch on
    an existing name is a hard error, not a silent second family.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                wanted = tuple(kwargs.get("labelnames", ()))
                if existing.labelnames != wanted:
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, not {wanted}"
                    )
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames=labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames=labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames=labelnames, buckets=buckets
        )

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def snapshot(self) -> dict:
        """``{name: metric.snapshot()}`` for every registered family."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {name: metric.snapshot() for name, metric in metrics}

    def to_text(self) -> str:
        """Prometheus text exposition of every registered family."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        blocks = [metric.to_text() for _, metric in metrics]
        return "\n".join(blocks) + ("\n" if blocks else "")


class CreditSampler:
    """Deterministic rate sampling: a credit accumulator, not an RNG.

    Each :meth:`take` adds ``rate`` to a running credit and says yes
    whenever the credit reaches one, so at rate ``r`` exactly every
    ``1/r``-th call is sampled.  Rate 0 never samples and rate 1 always
    does, without touching the credit.  No random numbers are consumed,
    so sampling on the serving path leaves the seeded sample streams
    byte-identical.  Thread-safe.
    """

    __slots__ = ("rate", "_credit", "_lock")

    def __init__(self, rate: float) -> None:
        self.rate = float(rate)
        self._credit = 0.0
        self._lock = threading.Lock()

    def take(self) -> bool:
        rate = self.rate
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        with self._lock:
            self._credit += rate
            if self._credit >= 1.0:
                self._credit -= 1.0
                return True
        return False
