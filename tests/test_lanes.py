"""The two lanes: the helper's contract, and that every kernel split
across them computes bitwise what the halves compute inline."""

import threading
import time
import weakref
from functools import partial

import numpy as np
import pytest
from oracles import gram_products_reference

from repro.dpp import kdpp
from repro.dpp.kdpp import batched_sample_elementary_shared
from repro.serving import ItemCatalog, Request, ServingConfig, ServingRuntime
from repro.serving import catalog as catalog_module
from repro.utils import lanes


def _factors(seed: int, m: int, r: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    factors = rng.normal(size=(m, r))
    return factors / np.linalg.norm(factors, axis=1, keepdims=True)


def _quality(seed: int, batch: int, m: int) -> np.ndarray:
    return np.exp(np.random.default_rng(seed).normal(scale=0.5, size=(batch, m)))


def _with_cpus(cpus: int, compute):
    """``compute()`` as a process allowed ``cpus`` CPUs: two or more
    splits onto the lane, one runs every half inline."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lanes, "_cpus", lambda: cpus)
        return compute()


def _split_and_inline(compute):
    return _with_cpus(2, compute), _with_cpus(1, compute)


def _in_watchdog(call, timeout: float = 10.0):
    """Run ``call`` on a helper thread; fail instead of hanging on a deadlock."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as error:  # handed to the test thread
            outcome["error"] = error

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "lanes.both did not return"
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")


# ----------------------------------------------------------------------
# The helper
# ----------------------------------------------------------------------
def test_both_runs_the_second_half_on_the_lane_thread():
    threads = {}

    def record(name):
        return lambda: threads.__setitem__(name, threading.current_thread())

    _with_cpus(2, lambda: lanes.both(record("first"), record("second")))
    assert threads["first"] is threading.current_thread()
    assert threads["second"].name == "repro-lane"


def test_one_cpu_runs_both_halves_inline_in_order(monkeypatch):
    # The real check: a process whose affinity mask holds one CPU.
    monkeypatch.setattr(lanes.os, "sched_getaffinity", lambda pid: {0})
    calls = []
    lanes.both(
        lambda: calls.append(("first", threading.current_thread())),
        lambda: calls.append(("second", threading.current_thread())),
    )
    caller = threading.current_thread()
    assert calls == [("first", caller), ("second", caller)]


def test_a_call_from_the_lane_thread_runs_inline():
    inner = []

    def nested():
        lanes.both(
            lambda: inner.append(threading.current_thread()),
            lambda: inner.append(threading.current_thread()),
        )

    _in_watchdog(lambda: _with_cpus(2, lambda: lanes.both(lambda: None, nested)))
    assert len(inner) == 2
    assert all(thread.name == "repro-lane" for thread in inner)


def test_a_lane_half_exception_reaches_the_caller_after_its_half():
    finished = []

    def caller_half():
        time.sleep(0.05)
        finished.append("first")

    def failing_half():
        raise ValueError("lane half failed")

    with pytest.raises(ValueError, match="lane half failed"):
        _in_watchdog(lambda: _with_cpus(2, lambda: lanes.both(caller_half, failing_half)))
    assert finished == ["first"]
    # The lane survives a failed half.
    done = []
    _in_watchdog(
        lambda: _with_cpus(2, lambda: lanes.both(lambda: None, lambda: done.append(1)))
    )
    assert done == [1]


def test_a_caller_half_exception_waits_for_the_lane_half():
    finished = []

    def failing_half():
        raise KeyError("caller half failed")

    def lane_half():
        time.sleep(0.05)
        finished.append("second")

    with pytest.raises(KeyError):
        _in_watchdog(lambda: _with_cpus(2, lambda: lanes.both(failing_half, lane_half)))
    assert finished == ["second"]


def test_an_idle_lane_keeps_no_reference_to_its_last_half():
    class Buffer:
        pass

    buffer = Buffer()
    alive = weakref.ref(buffer)
    _with_cpus(2, lambda: lanes.both(lambda: None, partial(id, buffer)))
    del buffer
    deadline = time.monotonic() + 5.0
    while alive() is not None and time.monotonic() < deadline:
        time.sleep(0.001)
    assert alive() is None


@pytest.mark.parametrize(
    "count, expected",
    [(0, [(0, 0)]), (1, [(0, 1)]), (2, [(0, 1), (1, 2)]), (5, [(0, 3), (3, 5)])],
)
def test_halves_cover_the_range_once(count, expected):
    spans = []

    def work(start, stop):
        spans.append((start, stop))

    _with_cpus(2, lambda: lanes.halves(count, work))
    assert sorted(spans) == expected


# ----------------------------------------------------------------------
# The split kernels
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batch", [4, 5, 16, 17, 32])
def test_table_route_dual_build_is_bitwise_split_or_inline(monkeypatch, batch):
    monkeypatch.setattr(catalog_module, "GRAM_PRODUCTS_MIN_BATCH", 1)
    factors = _factors(1, 1500, 12)
    snap = ItemCatalog(factors).snapshot()
    squared = _quality(batch, batch, 1500) ** 2
    split, inline = _split_and_inline(lambda: snap.build_duals(squared))
    assert split.tobytes() == inline.tobytes()
    for b in (0, batch - 1):
        scaled = np.sqrt(squared[b])[:, None] * factors
        np.testing.assert_allclose(split[b], scaled.T @ scaled, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("items", [2 * catalog_module._FILL_TILE_ROWS + 37, 100])
def test_table_fill_matches_the_gather_split_or_inline(items):
    # 549 items end in a ragged tile; 100 items are less than one tile.
    factors = _factors(2, items, 9)
    reference = gram_products_reference(factors)
    split, inline = _split_and_inline(
        lambda: ItemCatalog(factors).snapshot().gram_products()[0]
    )
    assert split.tobytes() == reference.tobytes()
    assert inline.tobytes() == reference.tobytes()


def _orthonormal_lift(factors, quality, steps, seed):
    """``(B, r, p)`` coefficients whose lift ``Diag(q_b) V W_b`` has
    orthonormal columns, as the dual lift guarantees."""
    rng = np.random.default_rng(seed)
    batch, rank = quality.shape[0], factors.shape[1]
    coefficients = np.empty((batch, rank, steps))
    for b in range(batch):
        scaled = quality[b][:, None] * factors
        basis, _ = np.linalg.qr(scaled @ rng.normal(size=(rank, steps)))
        coefficients[b], *_ = np.linalg.lstsq(scaled, basis, rcond=None)
    return coefficients


@pytest.mark.parametrize("batch", [1, 2, 3, 16, 17])
def test_shared_sampler_is_bitwise_split_or_inline(monkeypatch, batch):
    m, rank, steps = 700, 8, 4
    # A small lift budget makes each half walk several item tiles.
    monkeypatch.setattr(kdpp, "_LIFT_BYTES", batch * steps * kdpp._BLOCK * 8 * 2)
    factors = _factors(3, m, rank)
    quality = _quality(30 + batch, batch, m)
    coefficients = _orthonormal_lift(factors, quality, steps, batch)

    def grams():
        return kdpp._block_grams(factors, quality, coefficients)

    def picks():
        rngs = [np.random.default_rng(900 + b) for b in range(batch)]
        return batched_sample_elementary_shared(factors, quality, coefficients, rngs)

    split, inline = _split_and_inline(grams)
    assert split.tobytes() == inline.tobytes()
    split_picks, inline_picks = _split_and_inline(picks)
    assert split_picks == inline_picks
    assert all(len(set(slate)) == steps for slate in split_picks)


def test_two_workers_serving_concurrent_batches_match_inline_serving():
    m, rank, per_batch = 3000, 16, 8
    factors = _factors(4, m, rank)
    quality = _quality(5, 2 * per_batch, m)
    requests = [
        Request(quality=quality[i], k=5, mode=("sample", "map")[i % 2], seed=40 + i)
        for i in range(2 * per_batch)
    ]
    slates = {}
    for workers in (0, 2):
        # Batches close on size only, so both runtimes serve the same two
        # batches; with two workers they are in flight at once.
        config = ServingConfig(workers=workers, max_batch=per_batch, max_wait=30.0)
        with ServingRuntime(ItemCatalog(factors), config=config) as runtime:
            futures = runtime.submit_many(requests)
            if workers == 0:
                runtime.flush()
            slates[workers] = [future.result(30).items for future in futures]
    assert slates[2] == slates[0]
