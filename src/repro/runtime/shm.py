"""The shared-memory backend of the tile plane, and staging onto it.

The :class:`~repro.runtime.process.ProcessExecutor` runs kernels in
worker *processes*, so the matrix being factored — and every workspace
buffer the tasks exchange (tournament candidate rows, pivot sequences,
implicit-Q ``V``/``T`` factors) — must live in memory every process can
see.  :class:`SharedArena` is that memory: the
:class:`~repro.runtime.tilestore.TileStore` whose segments are
``multiprocessing.shared_memory`` blocks.  :func:`staged` copies the
matrix in (one copy), builders allocate workspace buffers through a
:class:`ShmBinding`, and every buffer is described by a compact spec
that crosses the process boundary inside a task descriptor instead of
the data itself.  Workers ``attach_array`` the spec to a zero-copy NumPy
view of the same physical pages, so task dispatch moves O(coordinates)
bytes while the kernels move O(block) bytes through shared
cache-coherent memory, exactly the shared-address-space model the
paper's Pthreads runtime assumes.
"""

from __future__ import annotations

import atexit
import weakref
from multiprocessing import shared_memory

import numpy as np

from repro.runtime.tilestore import (
    _ATTACHED,  # noqa: F401 - the one segment cache, which the arena tests read as shm._ATTACHED
    HeapBinding,
    TileStore,
    attach_array,
    spec_nbytes,
)

__all__ = ["SharedArena", "ShmBinding", "attach_array", "spec_nbytes", "staged", "working_dtype"]

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

_DEFAULT_SEGMENT = 16 << 20  # 16 MiB per segment unless an alloc is larger


class SharedArena(TileStore):
    """The ``multiprocessing.shared_memory`` backend of the plane."""

    kind = "shm"

    def __init__(self, segment_bytes: int = _DEFAULT_SEGMENT) -> None:
        super().__init__(segment_bytes)
        _LIVE_ARENAS.add(self)

    def _new_segment(self, size: int) -> shared_memory.SharedMemory:
        return shared_memory.SharedMemory(create=True, size=size)


class ShmBinding(HeapBinding):
    """The process-shared ``store=`` of the builders: a binding over
    any :class:`~repro.runtime.tilestore.TileStore` (*arena*; usually a
    :class:`SharedArena`), holding a matrix view *A* allocated in it.

    Workspace buffers come from the store and their specs go into each
    task's descriptor.  ``shared`` is True: the specs name memory any
    process can attach, so the builders also publish the descriptor as
    ``meta["op"]`` for dispatch to a worker.
    """

    shared = True

    def __init__(self, arena: SharedArena, A: np.ndarray) -> None:
        self.arena = arena
        self.A = A
        self.a_spec = arena.spec(A)

    @property
    def nbytes(self) -> int:
        """Bytes held through this binding: what the store has handed out."""
        return self.arena.allocated_bytes

    def alloc(self, shape, dtype=np.float64) -> tuple[np.ndarray, tuple]:
        """Allocate a zeroed workspace buffer; returns ``(view, spec)``."""
        arr = self.arena.alloc(shape, dtype)
        return arr, self.arena.spec(arr)

    @staticmethod
    def detach(array: np.ndarray) -> np.ndarray:
        """A heap copy of *array*, valid after the store is destroyed."""
        return np.array(array)


def working_dtype(A) -> np.dtype:
    """The dtype *A* is factored in: a float32 or float64 array keeps
    its own, anything else (a shape, an integer matrix) is float64."""
    dtype = np.dtype(getattr(A, "dtype", None))
    return dtype if dtype in (np.float32, np.float64) else np.dtype(np.float64)


def staged(A, shared: bool = False):
    """Make a factorization's one working buffer and bind it: returns
    ``(binding, arena)``, the arena (if one was made here) being the
    caller's to destroy.

    *A* is the matrix; or its shape, for a plan loaded later (a zeroed
    float64 buffer); or a binding already staged, returned as it is.
    With *shared* the buffer lives on a fresh :class:`SharedArena` — one
    ``alloc(zero=False)`` + ``copyto``, dtype and layout converted on
    the way — as a :class:`ShmBinding`; otherwise it is a float
    C-ordered heap copy in a :class:`HeapBinding`.  Results leave
    through ``binding.detach``.
    """
    if hasattr(A, "a_spec"):
        return A, None
    A, shape = (None, A) if isinstance(A, tuple) else (A, A.shape)
    dtype = working_dtype(A)
    if shared:
        arena = SharedArena()
        buffer = arena.alloc(shape, dtype, zero=A is None)
        if A is not None:
            np.copyto(buffer, A)
        return ShmBinding(arena, buffer), arena
    if A is None:
        return HeapBinding(np.zeros(shape, dtype)), None
    return HeapBinding(np.array(A, dtype=dtype, order="C", subok=False)), None
