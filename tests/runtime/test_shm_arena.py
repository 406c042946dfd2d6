"""Allocator edge cases: allocation, specs, the no-zero place path —
over the arena, then (``TestSpillFileBackend``) over spill files."""

import numpy as np
import pytest

from repro.runtime.shm import SharedArena, attach_array, spec_nbytes
from repro.runtime.tilestore import MmapTileStore


@pytest.fixture
def arena():
    a = SharedArena(segment_bytes=1 << 16)  # 64 KiB segments
    yield a
    a.destroy()


def test_alloc_zeroed_contract(arena):
    x = arena.alloc((7, 5))
    assert x.shape == (7, 5) and x.dtype == np.float64
    assert np.count_nonzero(x) == 0


def test_alloc_larger_than_segment_bytes(arena):
    # An allocation bigger than segment_bytes gets a segment of its own.
    big = arena.alloc((1 << 14,))  # 128 KiB of float64 > 64 KiB segment
    assert big.nbytes > arena.segment_bytes
    big[:] = 1.0
    spec = arena.spec(big)
    assert spec_nbytes(spec) == big.nbytes
    np.testing.assert_array_equal(attach_array(spec), big)


def test_alloc_fills_multiple_segments(arena):
    # Segments grow as needed; earlier arrays stay valid and addressable.
    arrays = [arena.alloc((1000,)) for _ in range(20)]  # 8 KB each
    assert len(arena._segments) > 1
    for i, arr in enumerate(arrays):
        arr.fill(i)
    for i, arr in enumerate(arrays):
        assert attach_array(arena.spec(arr))[0] == i


def test_zero_size_shapes(arena):
    empty = arena.alloc((0, 4))
    assert empty.size == 0
    spec = arena.spec(empty)
    assert spec_nbytes(spec) == 0
    assert attach_array(spec).shape == (0, 4)
    # A zero-size alloc must not corrupt the bump allocator.
    after = arena.alloc((3,))
    after[:] = 7.0
    assert attach_array(arena.spec(after))[0] == 7.0


def test_spec_on_trailing_contiguous_view(arena):
    x = arena.place(np.arange(40, dtype=np.float64).reshape(10, 4))
    tail = x[6:]  # contiguous trailing row window
    spec = arena.spec(tail)
    assert spec[1] == arena.spec(x)[1] + 6 * 4 * 8
    np.testing.assert_array_equal(attach_array(spec), x[6:])


def test_spec_rejects_noncontiguous(arena):
    x = arena.place(np.zeros((8, 8)))
    with pytest.raises(ValueError, match="C-contiguous"):
        arena.spec(x[:, :4])


def test_spec_rejects_foreign_array(arena):
    with pytest.raises(ValueError, match="does not live"):
        arena.spec(np.zeros((4, 4)))


def test_place_no_zero_path_bitwise(arena):
    # place() uses the no-zero alloc internally; the placed bytes must
    # be bitwise identical to the source, including negative zeros,
    # denormals, infs and NaN payloads.
    src = np.array(
        [[-0.0, np.inf, -np.inf], [np.nan, 5e-324, -1.5]], dtype=np.float64
    )
    out = arena.place(src)
    assert out.tobytes() == src.tobytes()
    nz = arena.alloc(src.shape, src.dtype, zero=False)
    nz[...] = src
    assert nz.tobytes() == src.tobytes()


def test_alloc_after_destroy_raises(arena):
    arena.destroy()
    with pytest.raises(ValueError, match="destroyed"):
        arena.alloc((4,))


def test_owner_resolves_its_specs_through_its_own_mapping(arena):
    # Parent-only tasks (ABFT updates, a service's threaded fallback) run
    # descriptors over arena specs in the owning process: that must hit
    # the arena's own mapping, not open the segment a second time.
    from repro.runtime import shm

    x = arena.alloc((6, 4))
    name = arena.spec(x)[0]
    assert np.shares_memory(attach_array(arena.spec(x)), x)
    arena.destroy()
    assert name not in shm._ATTACHED


class TestSpillFileBackend:
    """Every test above again over the allocator's other backend.  (A
    class rather than fixture params, which would rename the arena runs.)"""

    @pytest.fixture
    def arena(self):
        with MmapTileStore(segment_bytes=1 << 16) as store:
            yield store


for _name, _test in list(globals().items()):
    if _name.startswith("test_"):
        setattr(TestSpillFileBackend, _name, staticmethod(_test))
