"""Per-layer spans timed from outside the program.

:class:`Tracer` replaces the names callers look up — module functions,
class methods, and methods of single live instances — with timing
wrappers that record one span per call (name, start, end, span id,
parent span id, engine batch id, a few argument shapes) in memory, and
restores every replaced name afterwards.  Nothing under ``src/`` knows
it is being traced: the wrappers only time and forward.

An engine batch is one ``server.serve`` call; every span opened beneath
it on the same thread carries that call's span id as its batch id.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

_MISSING = object()


class Span:
    __slots__ = ("name", "start", "end", "span_id", "parent", "batch", "info")

    def __init__(self, name, span_id, parent, batch, info) -> None:
        self.name = name
        self.span_id = span_id
        self.parent = parent
        self.batch = batch
        self.info = info
        self.start = self.end = 0.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Installs timing wrappers; collects spans until :meth:`restore`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name: str, function, describe):
        tracer = self

        @functools.wraps(function)
        def timed(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            if name == "server.serve":
                batch = span_id
            else:
                batch = parent.batch if parent is not None else None
            info = describe(args, kwargs) if describe is not None else None
            span = Span(
                name,
                span_id,
                parent.span_id if parent is not None else None,
                batch,
                info,
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return timed

    def patch(self, owner, attribute: str, name: str, describe=None) -> None:
        """Replace ``owner.attribute`` (a module, class or instance
        attribute) with a timing wrapper recording spans called ``name``."""
        original = vars(owner).get(attribute, _MISSING)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self._timed(name, getattr(owner, attribute), describe))

    def restore(self) -> list[str]:
        """Put every replaced name back; returns the names that are not
        the original object afterwards (empty when restoration worked)."""
        wrong = []
        for owner, attribute, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
            if vars(owner).get(attribute, _MISSING) is not original:
                wrong.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attribute}")
        self._patches.clear()
        return wrong


def _shape(position: int):
    def describe(args, kwargs):
        return tuple(getattr(args[position], "shape", ()))

    return describe


def install(tracer: Tracer, runtime, request_seq: dict) -> None:
    """Wrap the public functions of every serving layer of ``runtime``.

    ``request_seq`` maps ``id(request)`` to the generator's sequence
    number, so each engine batch records which requests it carried.
    """
    import numpy

    from repro.serving import server as server_module
    from repro.serving.catalog import CatalogSnapshot
    from repro.serving.sharding import ShardedSnapshot

    dpp = {
        "batched_log_esp": ("esp.log_esp", _shape(0)),
        "batched_esp_table": ("esp.table", _shape(0)),
        "select_eigenvectors_from_esp_table": ("kdpp.select_eigvecs", None),
        "batched_sample_elementary_shared": ("kdpp.sample_shared", _sampler_shape),
        "batched_sample_elementary_stacked": ("kdpp.sample_stacked", _shape(0)),
        "batched_greedy_map_shared": ("map.greedy_shared", _greedy_shape),
        "batched_greedy_map_stacked": ("map.greedy_stacked", _shape(0)),
        "batched_greedy_map_shared_session": ("map.greedy_session", _greedy_shape),
        "batched_greedy_map_stacked_session": ("map.greedy_session", _shape(0)),
    }
    for attribute, (name, describe) in dpp.items():
        tracer.patch(server_module, attribute, name, describe)
    tracer.patch(CatalogSnapshot, "build_duals", "catalog.build_duals", _duals_shape)
    tracer.patch(ShardedSnapshot, "take_rows", "catalog.take_rows", _shape(1))
    source = getattr(runtime.server, "source", None)
    if source is not None:
        tracer.patch(source, "pools", "retrieval.pools", _shape(0))
    cache = getattr(runtime.server, "funnel_cache", None)
    if cache is not None:
        tracer.patch(cache, "get", "funnel_cache.get")

    def describe_batch(args, kwargs):
        requests = args[0]
        snapshot = kwargs.get("snapshot")
        return {
            "size": len(requests),
            "seqs": [request_seq.get(id(request)) for request in requests],
            "version": getattr(snapshot, "version", None),
            "traced": kwargs.get("stages") is not None,
        }

    tracer.patch(runtime.server, "serve", "server.serve", describe_batch)
    tracer.patch(runtime.auditor, "observe_batch", "health.observe_batch")
    tracer.patch(numpy.linalg, "eigh", "linalg.eigh")


def _sampler_shape(args, kwargs):
    factors, quality, coefficients = args[0], args[1], args[2]
    return (*quality.shape, factors.shape[1], coefficients.shape[2])


def _greedy_shape(args, kwargs):
    factors, quality = args[0], args[1]
    return (*quality.shape, factors.shape[1])


def _duals_shape(args, kwargs):
    snapshot, squared_quality = args[0], args[1]
    return (*squared_quality.shape, snapshot.rank)
