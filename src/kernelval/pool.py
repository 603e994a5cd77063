"""The one worker pool, as wide as the :func:`using` count, else all CPUs.
Items of a threaded map run with a count of 1, so the maps they call run
inline: a process runs at most the threads its outermost caller chose."""

import contextlib
import os
import threading

from . import kernels

__all__ = ["usable_cores", "workers", "using", "block_chunks", "pool_map",
           "fill_rows"]

# per thread: the count `using` set for the maps started on that thread
_STATE = threading.local()


def usable_cores():
    """CPUs this process may run on: the default worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def workers():
    """Threads for a map here: the :func:`using` count, else all usable CPUs."""
    return getattr(_STATE, "threads", None) or usable_cores()


@contextlib.contextmanager
def using(threads):
    """Maps started on this thread inside the block use up to ``threads``."""
    saved, _STATE.threads = getattr(_STATE, "threads", None), threads
    try:
        yield
    finally:
        _STATE.threads = saved


def block_chunks(n):
    """``n`` rows as one slice per :func:`workers` thread, each of whole
    :data:`kernels.BLOCK`-row blocks (the last may end short), so a
    computation done in those blocks gives the same bits whatever the worker
    count."""
    block = kernels.BLOCK
    n_blocks = -(-n // block)
    k = max(1, min(workers(), n_blocks))
    cuts = [i * n_blocks // k * block for i in range(k)] + [n]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def pool_map(fn, items):
    """``[fn(it) for it in items]`` on up to :func:`workers` threads, the
    caller among them, each taking the next item.  After a failure no item
    starts; the lowest-index exception is raised once all have stopped.
    """
    items = list(items)
    n = min(workers(), len(items))
    if n < 2:
        with using(workers()):
            return [fn(it) for it in items]
    results, errors = [None] * len(items), {}
    todo, lock = iter(range(len(items))), threading.Lock()

    def run():
        with using(1):
            while not errors:
                with lock:
                    i = next(todo, None)
                if i is None:
                    return
                try:
                    results[i] = fn(items[i])
                except BaseException as exc:  # re-raised below
                    errors[i] = exc

    helpers = [threading.Thread(target=run) for _ in range(n - 1)]
    for t in helpers:
        t.start()
    try:
        run()
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise errors[min(errors)]
    return results


def fill_rows(out, fn):
    """Sets ``out[s] = fn(s)`` on the pool for each :func:`block_chunks`
    slice ``s`` of ``out``'s rows, one per worker, and returns ``out``."""
    def fill(s):
        out[s] = fn(s)

    pool_map(fill, block_chunks(len(out)))
    return out
