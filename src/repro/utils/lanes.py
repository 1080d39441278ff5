"""Two lanes for the independent halves of one catalog-scale kernel.

numpy releases the interpreter lock inside BLAS calls and elementwise
loops, so two halves of a kernel that write disjoint outputs can run on
two cores at once.  :func:`both` runs one half on the calling thread and
the other on a single process-wide lane thread, started on first use.
Callers split only across independent outputs — never along a reduction
axis — and hand each half a slice of a buffer they allocated themselves,
so every number is bitwise the one the halves compute one after the
other, and the lane thread allocates nothing that outlives a call.

When the process may run on one CPU only, or the caller is the lane
thread itself, both halves run inline, in order, on the caller: one code
path, and no lane ever waits on itself.
"""

from __future__ import annotations

import os
import queue
import threading
from functools import partial
from typing import Callable

__all__ = ["both", "halves"]

_lock = threading.Lock()
_jobs: queue.SimpleQueue | None = None
_thread: threading.Thread | None = None


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _serve(jobs: queue.SimpleQueue) -> None:
    while True:
        _run(*jobs.get())


def _run(work: Callable[[], None], done: threading.Lock, failure: list) -> None:
    # A frame of its own, so an idle lane holds no reference to the last
    # half and the buffers it closes over.
    try:
        work()
    except BaseException as error:  # re-raised by the caller; the lane must survive
        failure.append(error)
    finally:
        done.release()


def _lane() -> queue.SimpleQueue | None:
    """The lane's job queue, or ``None`` when the halves run inline."""
    global _jobs, _thread
    if _cpus() < 2 or threading.current_thread() is _thread:
        return None
    if _jobs is None:
        with _lock:
            if _jobs is None:
                jobs: queue.SimpleQueue = queue.SimpleQueue()
                thread = threading.Thread(
                    target=_serve, args=(jobs,), name="repro-lane", daemon=True
                )
                thread.start()
                _thread, _jobs = thread, jobs
    return _jobs


def _forget_lane() -> None:
    # A forked child inherits the queue but not the thread that drains it.
    global _lock, _jobs, _thread
    _lock, _jobs, _thread = threading.Lock(), None, None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_lane)


def both(first: Callable[[], None], second: Callable[[], None]) -> None:
    """Run ``first`` on the calling thread while the lane runs ``second``;
    return once both have finished.

    If ``first`` raises, the call still waits for ``second`` before
    re-raising, so no half outlives the buffers its caller owns.  An
    exception from ``second`` re-raises here, on the calling thread.
    Concurrent callers queue their lane halves in arrival order.
    """
    jobs = _lane()
    if jobs is None:
        first()
        second()
        return
    done = threading.Lock()
    done.acquire()
    failure: list[BaseException] = []
    jobs.put((second, done, failure))
    try:
        first()
    finally:
        done.acquire()
    if failure:
        raise failure[0]


def halves(count: int, work: Callable[[int, int], None]) -> None:
    """Split ``range(count)`` in two: ``work(0, middle)`` on the calling
    thread and ``work(middle, count)`` on the lane, through :func:`both`.
    Fewer than two units are one inline ``work(0, count)``."""
    middle = (count + 1) // 2
    if middle == count:
        work(0, count)
    else:
        both(partial(work, 0, middle), partial(work, middle, count))
