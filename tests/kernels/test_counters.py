"""Tests for the operation-counting infrastructure."""

import threading

import numpy as np
import pytest

from repro.counters import (
    Counters,
    add_flops,
    add_roundtrip,
    add_sync,
    add_words,
    counting,
    current_counters,
)
from repro.kernels.blas import gemm
from repro.kernels.lu import getf2


def test_no_counter_active_by_default():
    assert current_counters() is None
    add_flops(100)  # must not raise


def test_counting_installs_and_removes():
    with counting() as c:
        assert current_counters() is c
        add_flops(5)
        add_sync()
        add_words(7)
    assert current_counters() is None
    assert (c.flops, c.syncs, c.words) == (5, 1, 7)


def test_nested_counters_innermost_wins():
    with counting() as outer:
        add_flops(1)
        with counting() as inner:
            add_flops(10)
        add_flops(2)
    assert outer.flops == 3
    assert inner.flops == 10


def test_external_counter_object():
    c = Counters()
    with counting(c) as got:
        assert got is c
        add_flops(4)
    assert c.flops == 4


def test_reset():
    c = Counters()
    with counting(c):
        add_flops(3)
        add_sync(2)
    c.reset()
    snap = c.snapshot()
    assert all(v == 0 for v in snap.values())


def test_snapshot_keys():
    with counting() as c:
        add_flops(1)
    assert set(c.snapshot()) == {
        "flops",
        "syncs",
        "words",
        "comparisons",
        "roundtrips",
        "store_read_bytes",
        "store_write_bytes",
    }


def test_roundtrip_counter():
    with counting() as c:
        add_roundtrip()
        add_roundtrip(3)
    assert c.roundtrips == 4
    c.reset()
    assert c.roundtrips == 0


def test_every_scalar_has_a_reporter_and_merges():
    # One ``Counters.add`` behind every module-level ``add_*``; ``merge``
    # folds a worker's snapshot in, except the parent-side roundtrips.
    import repro.counters as counters

    reporters = {
        "flops": counters.add_flops,
        "syncs": counters.add_sync,
        "words": counters.add_words,
        "comparisons": counters.add_comparisons,
        "roundtrips": counters.add_roundtrip,
        "store_read_bytes": counters.add_store_read,
        "store_write_bytes": counters.add_store_write,
    }
    with counting() as c:
        for i, report in enumerate(reporters.values(), start=1):
            report(i)
        counters.add_call("gemm")
    snap = c.snapshot()
    assert snap == {name: i for i, name in enumerate(reporters, start=1)}
    worker = dict(snap, kernel_calls={"gemm": 2, "getf2": 1})
    c.merge(worker)
    assert c.snapshot() == {n: v * (1 if n == "roundtrips" else 2) for n, v in snap.items()}
    assert c.kernel_calls == {"gemm": 3, "getf2": 1}
    with pytest.raises(AttributeError):
        c.add("nope", 1)


def test_kernel_call_registry():
    with counting() as c:
        gemm(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
        gemm(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    assert c.kernel_calls["gemm"] == 2


def test_threaded_accumulation_is_consistent():
    """Workers reporting concurrently into one counter must not lose updates."""
    c = Counters()
    n_threads, per_thread = 8, 2000

    def work():
        for _ in range(per_thread):
            c.add("flops", 1)

    with counting(c):
        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert c.flops == n_threads * per_thread


def test_kernels_report_into_shared_counter_across_threads():
    c = Counters()
    A = np.random.default_rng(0).standard_normal((20, 20))

    def work():
        getf2(A.copy())

    with counting(c):
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    single = Counters()
    with counting(single):
        getf2(A.copy())
    assert c.flops == 4 * single.flops
