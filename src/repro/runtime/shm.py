"""Shared-memory tile plane for the process execution backend.

The :class:`~repro.runtime.process.ProcessExecutor` runs kernels in
worker *processes*, so the matrix being factored — and every workspace
buffer the tasks exchange (tournament candidate rows, pivot sequences,
implicit-Q ``V``/``T`` factors) — must live in memory every process can
see.  :class:`SharedArena` is that plane: a growable set of
``multiprocessing.shared_memory`` segments carved up by a bump
allocator.  The parent *places* the matrix (one copy in), builders
*allocate* workspace buffers, and every buffer is described by a compact
:func:`spec` — ``(segment name, offset, shape, dtype)`` — that crosses
the process boundary inside a task descriptor instead of the data
itself.  Workers :func:`attach_array` the spec to a zero-copy NumPy view
of the same physical pages, so task dispatch moves O(coordinates) bytes
while the kernels move O(block) bytes through shared cache-coherent
memory, exactly the shared-address-space model the paper's Pthreads
runtime assumes.

Lifecycle: the driver that created the arena owns the segments and must
call :meth:`SharedArena.destroy` (close + unlink) when the run is over,
after copying any results out of the arena views.  Workers only ever
attach; their handles are cached per process and dropped once the
arena behind them has been destroyed (or when the worker exits).
"""

from __future__ import annotations

import atexit
import os
import weakref
from multiprocessing import shared_memory

import numpy as np

__all__ = ["SharedArena", "ShmBinding", "attach_array", "spec_nbytes"]

#: Every live arena, so interpreter exit can best-effort destroy them.
#: Weak references: a collected arena already ran ``__del__``'s destroy.
_LIVE_ARENAS: "weakref.WeakSet[SharedArena]" = weakref.WeakSet()


def _atexit_destroy() -> None:
    """Best-effort unlink of every surviving arena at interpreter exit.

    ``__del__`` covers the common case but is not guaranteed to run for
    objects alive at shutdown (module teardown order, reference cycles);
    this backstop makes normal interpreter exit leak-free.  A ``kill
    -9`` skips atexit entirely — there the ``multiprocessing``
    resource tracker (a separate process that outlives the parent)
    unlinks the registered segments instead.
    """
    for arena in list(_LIVE_ARENAS):
        try:
            arena.destroy()
        except Exception:
            pass


atexit.register(_atexit_destroy)

_ALIGN = 64  # cache-line align every allocation
_DEFAULT_SEGMENT = 16 << 20  # 16 MiB per segment unless an alloc is larger


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


def spec_nbytes(spec: tuple) -> int:
    """Payload bytes described by a buffer spec (for accounting/tests)."""
    _, _, shape, dtype = spec
    return int(np.dtype(dtype).itemsize * int(np.prod(shape, dtype=np.int64)))


class SharedArena:
    """Bump allocator over ``multiprocessing.shared_memory`` segments.

    Allocations are 64-byte aligned, zero-initialized, C-contiguous and
    never freed individually — panel workspaces are tiny next to the
    matrix, and the whole arena dies with :meth:`destroy`.
    """

    def __init__(self, segment_bytes: int = _DEFAULT_SEGMENT) -> None:
        self.segment_bytes = int(segment_bytes)
        self._segments: list[shared_memory.SharedMemory] = []
        self._used: list[int] = []  # bump offset per segment
        self._sizes: list[int] = []  # segment sizes (first-fit scan)
        self._bases: list[int] = []  # mapped base address per segment
        self._destroyed = False
        _LIVE_ARENAS.add(self)

    # ------------------------------------------------------------------
    # Parent-side allocation
    # ------------------------------------------------------------------
    def alloc(
        self, shape: tuple[int, ...] | int, dtype=np.float64, *, zero: bool = True
    ) -> np.ndarray:
        """Allocate a C-contiguous array in shared memory.

        The returned array is zero-filled (the workspace-buffer
        contract) unless ``zero=False``, the path :meth:`place` uses to
        avoid streaming freshly mapped pages through memory twice —
        once for the fill and again for the copy that immediately
        overwrites the same bytes.
        """
        if self._destroyed:
            raise ValueError("arena already destroyed")
        if isinstance(shape, int):
            shape = (shape,)
        dt = np.dtype(dtype)
        nbytes = max(1, int(dt.itemsize * int(np.prod(shape, dtype=np.int64))))
        seg_idx = None
        for i, size in enumerate(self._sizes):
            if self._used[i] + nbytes <= size:
                seg_idx = i
                break
        if seg_idx is None:
            size = max(self.segment_bytes, _aligned(nbytes))
            seg = shared_memory.SharedMemory(create=True, size=size)
            # The owner resolves its own specs through this mapping too
            # (parent-only tasks, a service's threaded fallback): never
            # by re-opening the name under the tracker patch below.
            _ATTACHED[seg.name] = seg
            self._segments.append(seg)
            self._used.append(0)
            self._sizes.append(seg.size)
            # Cache the mapped base address once: the mapping is stable
            # for the segment's lifetime, and rebuilding a frombuffer
            # view per spec() call made spec/alloc O(#segments) rescans.
            self._bases.append(
                np.frombuffer(seg.buf, dtype=np.uint8).__array_interface__["data"][0]
            )
            seg_idx = len(self._segments) - 1
        seg = self._segments[seg_idx]
        offset = self._used[seg_idx]
        self._used[seg_idx] = _aligned(offset + nbytes)
        arr = np.ndarray(shape, dtype=dt, buffer=seg.buf, offset=offset)
        if zero:
            arr.fill(0)
        return arr

    def place(self, array: np.ndarray) -> np.ndarray:
        """Copy *array* into the arena; returns the shared view.

        Uses the no-zero allocation path: the copy itself is the first
        (and only) touch of the freshly allocated bytes.
        """
        out = self.alloc(array.shape, array.dtype, zero=False)
        out[...] = array
        return out

    def spec(self, array: np.ndarray) -> tuple:
        """Compact cross-process descriptor of an arena-allocated array.

        Returns ``(segment_name, byte_offset, shape, dtype_str)``.  The
        array must be C-contiguous and live inside one of this arena's
        segments (anything :meth:`alloc`/:meth:`place` returned, or a
        contiguous leading view of it).
        """
        if not array.flags["C_CONTIGUOUS"]:
            raise ValueError("spec requires a C-contiguous arena array")
        addr = array.__array_interface__["data"][0]
        for seg, base, size in zip(self._segments, self._bases, self._sizes):
            if base <= addr < base + size:
                offset = addr - base
                if offset + array.nbytes > size:
                    break
                return (seg.name, int(offset), tuple(array.shape), array.dtype.str)
        raise ValueError("array does not live in this arena")

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    @property
    def allocated_bytes(self) -> int:
        return sum(self._used)

    def destroy(self) -> None:
        """Unlink (and best-effort close) every segment (idempotent).

        Unlink comes first so no shared-memory file outlives the run.
        ``close`` can legitimately fail with :class:`BufferError` while
        NumPy views into a segment are still referenced (workspace
        buffers of a retained graph); the mapping
        then stays valid until those views are garbage collected and is
        released with them — copy any results you keep out first.
        """
        if self._destroyed:
            return
        self._destroyed = True
        for seg in self._segments:
            _ATTACHED.pop(seg.name, None)
            try:
                seg.unlink()
            except (FileNotFoundError, OSError):  # already gone
                pass
            try:
                seg.close()
            except (BufferError, OSError):  # live views keep it mapped
                pass
        self._segments = []
        self._used = []
        self._sizes = []
        self._bases = []

    def __del__(self) -> None:  # best-effort backstop; drivers call destroy()
        try:
            self.destroy()
        except Exception:
            pass


class ShmBinding:
    """The process-shared ``store=`` of the builders.

    Bundles the arena, the shared matrix view and its spec; the
    CALU/CAQR/TSLU/TSQR builders allocate their per-panel workspace
    buffers through it and put the specs into each task's descriptor
    (kernel name + coordinates + buffer specs).  ``shared`` is True:
    the specs name memory any process can attach, so the builders also
    publish the descriptor as ``meta["op"]`` for dispatch to a worker.
    :class:`~repro.runtime.tilestore.HeapBinding` is the in-heap twin.
    """

    shared = True

    def __init__(self, arena: SharedArena, A: np.ndarray) -> None:
        self.arena = arena
        self.A = A
        self.a_spec = arena.spec(A)

    def alloc(self, shape, dtype=np.float64) -> tuple[np.ndarray, tuple]:
        """Allocate a zeroed workspace buffer; returns ``(view, spec)``."""
        arr = self.arena.alloc(shape, dtype)
        return arr, self.arena.spec(arr)

    def alloc_v(self, r0: int, r1: int, c0: int, c1: int) -> tuple[np.ndarray, tuple]:
        """Buffer for the unit-lower ``V`` of a leaf QR of ``A[r0:r1, c0:c1]``."""
        return self.alloc((r1 - r0, min(r1 - r0, c1 - c0)), self.A.dtype)

    @staticmethod
    def detach(array: np.ndarray) -> np.ndarray:
        """A heap copy of *array*, valid after the arena is destroyed."""
        return np.array(array)


# ---------------------------------------------------------------------------
# Attach: spec -> view
# ---------------------------------------------------------------------------

#: Segments mapped in this process, by name: an arena's own (entered at
#: creation, removed at destroy) and those a worker attached.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def _unlinked(seg: shared_memory.SharedMemory) -> bool:
    """Whether *seg*'s owner has unlinked it (when in doubt, it has not)."""
    try:
        return os.fstat(seg._fd).st_nlink == 0
    except (AttributeError, OSError):
        return False


def _drop_unlinked() -> None:
    """Unmap every cached segment whose arena has been destroyed.

    The cache would otherwise be grow-only: a persistent worker kept
    every finished run's arena mapped (tens of MiB of resident set per
    round of ops).  A segment some view still exports refuses to close
    (``BufferError``) and simply stays until a later sweep.
    """
    for name, seg in list(_ATTACHED.items()):
        if _unlinked(seg):
            try:
                seg.close()
            except BufferError:
                continue
            del _ATTACHED[name]


def attach_array(spec: tuple) -> np.ndarray:
    """Decode a :meth:`SharedArena.spec` into a zero-copy view.

    Safe in any process: segment handles are opened once per process and
    cached; the first attach of a new segment — a new run's arena —
    sweeps out the handles of arenas destroyed since
    (:func:`_drop_unlinked`), so no per-task work is added.  Attaching
    must not register the segment with the resource tracker — the
    parent (the arena owner) is the only unlinker.  With a forked worker
    the tracker is shared with the parent, so a second registration (or
    an unregister) unbalances the parent's bookkeeping; with a spawned
    worker the child's own tracker would unlink the segment when the
    worker exits, destroying it under everyone else.  Python 3.13 grew
    ``track=False`` for exactly this; on 3.11 we suppress the
    registration call around the attach instead.
    """
    name, offset, shape, dtype = spec
    seg = _ATTACHED.get(name)
    if seg is None:
        from multiprocessing import resource_tracker

        _drop_unlinked()
        orig_register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            seg = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = orig_register
        _ATTACHED[name] = seg
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf, offset=offset)
