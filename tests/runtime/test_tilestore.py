"""Tile stores: spec protocol, windowed transfers, byte accounting."""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.counters import counting
from repro.runtime.shm import SharedArena
from repro.runtime.tilestore import (
    HeapBinding,
    MmapTileStore,
    StreamedBinding,
    TileStore,
    attach_array,
    open_store,
    spec_nbytes,
)


@pytest.fixture(params=["shm", "mmap"])
def store(request):
    s, _ = open_store(request.param)
    yield s
    s.destroy()


def test_reserve_load_store_roundtrip(store):
    spec = store.reserve((30, 4))
    data = np.arange(120, dtype=np.float64).reshape(30, 4)
    store.store(spec, data)
    np.testing.assert_array_equal(store.load(spec), data)


def test_reserve_reads_as_zeros(store):
    spec = store.reserve((5, 3))
    np.testing.assert_array_equal(store.load(spec), np.zeros((5, 3)))


def test_sub_window_addressing(store):
    spec = store.reserve((20, 3))
    data = np.arange(60, dtype=np.float64).reshape(20, 3)
    store.store(spec, data)
    win = TileStore.sub(spec, 7, 13)
    assert spec_nbytes(win) == 6 * 3 * 8
    np.testing.assert_array_equal(store.load(win), data[7:13])
    store.store(win, -data[7:13])
    np.testing.assert_array_equal(store.load(spec)[7:13], -data[7:13])
    np.testing.assert_array_equal(store.load(spec)[:7], data[:7])


def test_sub_out_of_range(store):
    spec = store.reserve((4, 4))
    with pytest.raises(ValueError, match="outside"):
        TileStore.sub(spec, 2, 5)


def test_io_accounting_and_counters(store):
    spec = store.reserve((16, 4))
    block = np.ones((16, 4))
    with counting() as c:
        store.store(spec, block)
        store.load(TileStore.sub(spec, 0, 8))
    assert store.io.write_bytes == 16 * 4 * 8
    assert store.io.read_bytes == 8 * 4 * 8
    assert store.io.writes == 1 and store.io.reads == 1
    assert c.store_write_bytes == store.io.write_bytes
    assert c.store_read_bytes == store.io.read_bytes


def test_load_into_recycled_buffer(store):
    spec = store.reserve((6, 2))
    store.store(spec, np.full((6, 2), 3.0))
    buf = np.empty((6, 2))
    out = store.load(spec, out=buf)
    assert out is buf
    np.testing.assert_array_equal(buf, np.full((6, 2), 3.0))
    with pytest.raises(ValueError, match="does not match"):
        store.load(spec, out=np.empty((5, 2)))
    # A narrower buffer would halve the bytes booked for the same read.
    io0 = store.io.snapshot()
    with counting() as c, pytest.raises(ValueError, match="does not match"):
        store.load(spec, out=np.empty((6, 2), np.float32))
    assert store.io.snapshot() == io0 and c.store_read_bytes == 0


def test_attach_array_resolves_both_backends(store):
    # attach_array is what descriptor-dispatched ops use: it must
    # resolve shm names and absolute spill-file paths alike.
    spec = store.reserve((9, 3))
    vals = np.arange(27, dtype=np.float64).reshape(9, 3)
    store.store(spec, vals)
    view = attach_array(spec)
    np.testing.assert_array_equal(view, vals)
    # Writes through the attached view are visible to store loads
    # (shared plane, not a private copy).
    view[0, 0] = 99.0
    assert store.load(TileStore.sub(spec, 0, 1))[0, 0] == 99.0


@pytest.fixture(params=["shm", "mmap", "heap"])
def alloc(request):
    """``alloc(shape) -> (view, spec)`` on each plane a descriptor may address."""
    if request.param == "heap":
        yield HeapBinding().alloc
        return
    s, _ = open_store(request.param)

    def alloc(shape):
        view = s.alloc(shape)
        return view, s.spec(view)

    yield alloc
    s.destroy()


def test_alloc_spec_roundtrips_through_attach_array(alloc):
    # The workspace path: a binding's alloc() hands back (view, spec);
    # attach_array must resolve shm names, absolute spill-file paths and
    # in-heap arrays (which are their own spec) to that same buffer.
    view, spec = alloc((9, 3))
    np.testing.assert_array_equal(view, np.zeros((9, 3)))  # the workspace contract
    vals = np.arange(27, dtype=np.float64).reshape(9, 3)
    view[...] = vals
    attached = attach_array(spec)
    np.testing.assert_array_equal(attached, vals)
    # Writes through the attached view land in the allocated buffer
    # (shared plane, not a private copy).
    attached[0, 0] = 99.0
    assert view[0, 0] == 99.0


def test_heap_spec_is_the_array_and_is_not_shared():
    A = np.ones((4, 4))
    heap = HeapBinding(A)
    assert heap.a_spec is A and attach_array(A) is A
    view, spec = heap.alloc((3,), np.int64)
    assert spec is view and view.dtype == np.int64
    assert heap.detach(view) is view
    assert not heap.shared


def test_streamed_spec_loads_and_stores_exactly_the_rows_sliced(store):
    vals = np.arange(60, dtype=np.float64).reshape(20, 3)
    spec = store.reserve((20, 3))
    store.store(spec, vals)
    binding = StreamedBinding(store, spec, max_rows=8)
    A = binding.A
    assert attach_array(A) is A and binding.a_spec is A and not binding.shared
    assert A.shape == (20, 3) and A.dtype == np.float64
    io0 = store.io.snapshot()
    block = A[4:9, 0:3]
    np.testing.assert_array_equal(block, vals[4:9])
    assert store.io.read_bytes - io0["read_bytes"] == 5 * 3 * 8
    block *= 2.0  # a private copy: nothing stored until written back
    np.testing.assert_array_equal(store.load(spec), vals)
    A[4:9, 0:3] = block
    np.testing.assert_array_equal(store.load(spec)[4:9], 2.0 * vals[4:9])
    # An integer row array gathers (one load per contiguous run) and scatters.
    rows = np.array([0, 1, 2, 11, 17])
    io0 = store.io.snapshot()
    got = A[rows, 0:3]
    np.testing.assert_array_equal(got, vals[rows])
    assert store.io.reads - io0["reads"] == 3
    A[rows, 0:3] = -got
    np.testing.assert_array_equal(store.load(spec)[rows], -vals[rows])
    assert store.io.write_bytes - io0["write_bytes"] == 5 * 3 * 8
    # The window bound: nothing taller than the plan's chunk height.
    with pytest.raises(MemoryError, match="9-row window"):
        A[0:9, 0:3]
    with pytest.raises(MemoryError):
        A[np.arange(0, 18, 2), 0:3]
    with pytest.raises(ValueError, match="unit row steps"):
        A[0:8:2, 0:3]
    with pytest.raises(ValueError, match="whole rows"):
        A[0:2, 0:1] = np.zeros((2, 1))
    # Workspace buffers stay on the heap.
    view, wspec = binding.alloc((2, 2))
    assert wspec is view


def test_mmap_spec_of_view_walks_to_root():
    with MmapTileStore() as s:
        arr = s.alloc((12, 5))
        arr[...] = np.arange(60).reshape(12, 5)
        tail = arr[8:]  # sliced memmap: inherits parent's offset attribute
        spec = s.spec(tail)
        assert os.path.isabs(spec[0])
        np.testing.assert_array_equal(s.load(spec), np.asarray(arr[8:]))


def test_mmap_alloc_spans_segments():
    with MmapTileStore(segment_bytes=1 << 12) as s:
        specs = [s.reserve((100,)) for _ in range(10)]  # 800 B each
        for i, sp in enumerate(specs):
            s.store(sp, np.full(100, float(i)))
        for i, sp in enumerate(specs):
            np.testing.assert_array_equal(s.load(sp), np.full(100, float(i)))
        assert len(s._paths) > 1


def test_mmap_destroy_removes_spill_dir():
    s = MmapTileStore()
    root = s.root
    s.reserve((4, 4))
    assert os.path.isdir(root)
    s.destroy()
    assert not os.path.exists(root)
    with pytest.raises(ValueError, match="destroyed"):
        s.reserve((2, 2))


def _run_child(code: str, spill_dir) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[2] / "src")
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), str(spill_dir)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )


#: A process whose store comes and goes under ``sys.argv[1]``.
_COME_AND_GO = """
    import sys
    from repro.runtime.tilestore import MmapTileStore
    MmapTileStore(spill_dir=sys.argv[1]).destroy()
    """


def test_mmap_spill_dir_of_a_killed_owner_is_reaped_by_the_next_store(tmp_path):
    # kill -9: no destroy, no finalizer, no atexit — and files have no
    # resource tracker.  The next store under the same parent cleans up.
    out = _run_child(
        """
        import os, sys
        import numpy as np
        from repro.runtime.tilestore import MmapTileStore
        s = MmapTileStore(spill_dir=sys.argv[1])
        s.store(s.reserve((64, 64)), np.ones((64, 64)))
        print(s.root, flush=True)
        os.kill(os.getpid(), 9)
        """,
        tmp_path,
    )
    assert out.returncode == -signal.SIGKILL
    orphan = out.stdout.strip()
    assert os.path.isfile(os.path.join(orphan, "seg0.bin")), "the kill left nothing to reap"
    out = _run_child(_COME_AND_GO, tmp_path)
    assert out.returncode == 0, out.stderr
    assert not os.listdir(tmp_path)


def test_mmap_spill_dir_of_a_live_owner_is_left_alone(tmp_path):
    with MmapTileStore(spill_dir=tmp_path) as mine:
        spec = mine.reserve((8, 8))
        mine.store(spec, np.ones((8, 8)))
        # Another process's store comes and goes under the same parent...
        out = _run_child(_COME_AND_GO, tmp_path)
        assert out.returncode == 0, out.stderr
        # ...and so does a second one of ours.
        MmapTileStore(spill_dir=tmp_path).destroy()
        assert os.listdir(tmp_path) == [os.path.basename(mine.root)]
        np.testing.assert_array_equal(mine.load(spec), np.ones((8, 8)))


def test_mmap_sparse_reservation_costs_no_disk():
    with MmapTileStore() as s:
        spec = s.reserve((1 << 16, 8))  # 4 MiB reserved
        path = spec[0]
        # Sparse file: apparent size is the segment, blocks are ~0.
        assert os.path.getsize(path) >= 4 << 20
        assert os.stat(path).st_blocks * 512 < 1 << 20
        s.store(TileStore.sub(spec, 0, 1024), np.ones((1024, 8)))
        assert os.stat(path).st_blocks * 512 >= 1024 * 8 * 8


def test_open_store_resolution():
    arena = SharedArena()
    try:
        assert open_store(arena) == (arena, False)
        with pytest.raises(ValueError, match="unknown tile store"):
            open_store("tape")
    finally:
        arena.destroy()


def test_arena_store_zero_copy_view(store):
    if store.kind != "shm":
        pytest.skip("arena-backed store only")
    arr = store.alloc((4, 4))
    arr[...] = 5.0
    spec = store.spec(arr)
    np.testing.assert_array_equal(store.load(spec), arr)
