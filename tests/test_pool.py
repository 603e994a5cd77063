"""The worker pool: order, nesting, failures and thread lifetime."""

import os
import sys
import threading
import time

import pytest

from kernelval import kernels, pool


def test_results_come_in_item_order_and_every_item_runs_once():
    # more threads than cores and a short switch interval, so a lost update
    # of the shared item counter would show as a missing or repeated item
    calls, out = [], {}

    def job():
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pool.using(8):
                out["r"] = pool.pool_map(lambda i: calls.append(i) or i * i,
                                         range(2000))
        finally:
            sys.setswitchinterval(saved)

    t = threading.Thread(target=job)
    t.start()
    t.join(timeout=120)
    assert not t.is_alive()
    assert out["r"] == [i * i for i in range(2000)]
    assert sorted(calls) == list(range(2000))


def test_maps_inside_items_run_inline_and_inherit_inline_counts():
    with pool.using(3):
        assert pool.pool_map(lambda _: pool.workers(), range(3)) == [1, 1, 1]
    with pool.using(1):
        assert pool.pool_map(lambda _: pool.workers(), range(3)) == [1, 1, 1]
    with pool.using(2):
        assert pool.workers() == 2
        # the innermost count holds, and the outer one returns after it
        with pool.using(5):
            assert pool.workers() == 5
        assert pool.pool_map(lambda _: pool.workers(), [0]) == [2]
    assert pool.workers() == pool.usable_cores() == len(os.sched_getaffinity(0))


def test_lowest_index_failure_propagates_and_no_thread_survives():
    def item(i):
        if i == 1:
            time.sleep(0.2)  # fails after item 3 has failed
            raise ValueError("one")
        if i == 3:
            raise ValueError("three")
        return i

    before = threading.active_count()
    with pytest.raises(ValueError, match="one"), pool.using(3):
        pool.pool_map(item, range(6))
    assert threading.active_count() == before
    with pytest.raises(ValueError, match="three"), pool.using(1):
        pool.pool_map(item, [0, 3])


@pytest.mark.parametrize("n, threads", [(0, 2), (1, 2), (15, 3), (3 * 16 + 1, 2),
                                        (60, 3), (60, 8)])
def test_block_chunks_are_whole_blocks_one_per_worker(n, threads, monkeypatch):
    monkeypatch.setattr(kernels, "BLOCK", 16)
    with pool.using(threads):
        chunks = pool.block_chunks(n)
    assert chunks[0].start == 0 and chunks[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
    assert all(c.start % 16 == 0 for c in chunks)
    assert len(chunks) == max(1, min(threads, -(-n // 16)))
