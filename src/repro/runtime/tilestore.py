"""Tile stores: pluggable slow-memory planes behind one spec protocol.

The paper's sequential claim — flat-tree TSLU/TSQR move the optimal
number of words between *fast* and *slow* memory — only means something
once the runtime can actually put the matrix in a slow memory bigger
than RAM.  A :class:`TileStore` is that plane.  Two backends share one
``(segment, byte_offset, shape, dtype)`` spec protocol:

* :class:`ArenaTileStore` — the existing
  :class:`~repro.runtime.shm.SharedArena` (segments are
  ``multiprocessing.shared_memory`` names), the fast plane the process
  backend factors on in place;
* :class:`MmapTileStore` — ``numpy.memmap`` regions of spill files in a
  scratch directory (segments are absolute file paths), the out-of-core
  plane TSLU/TSQR stream million-row panels through.

Because specs stay 4-tuples and the segment name says which kind it is
(file paths are absolute), :func:`attach_array` resolves either kind —
so the descriptor-dispatched ops in :mod:`repro.runtime.ops` and their
worker processes are oblivious to where a buffer actually lives.

The third plane is the process's own heap (:class:`HeapBinding`): a
buffer that never leaves the address space needs no name, so its spec
is the ndarray itself and :func:`attach_array` hands it straight back.
That is what lets the threaded, stealing and simulated executors run
the very descriptors the process workers run.

The fourth is the *streamed* plane (:class:`StreamedBinding`): the
matrix stays in a :class:`TileStore` and its spec is a
:class:`StreamedPanel`, which answers ``A[r0:r1, c0:c1]`` with a
counted :meth:`TileStore.load` of exactly those rows and takes
``A[rows, cols] = block`` as a counted :meth:`TileStore.store`.  The
ops run unchanged over it — that is all "out of core" is.

Explicit transfers, measured traffic
------------------------------------
Out-of-core drivers move data with :meth:`TileStore.load` (slow ->
fast: returns a private in-RAM copy) and :meth:`TileStore.store` (fast
-> slow: writes a block back), never by holding the whole plane mapped.
Both count bytes — per store in :attr:`TileStore.io` and globally in
:mod:`repro.counters` (``store_read_bytes``/``store_write_bytes``) — so
measured traffic can be checked against the closed forms in
:mod:`repro.analysis.io_model` (``benchmarks/bench_outofcore.py`` gates
the comparison).  :meth:`TileStore.sub` row-slices a 2-D spec, which is
how a driver addresses one leaf block of a panel without mapping the
rest.

Lifecycle mirrors :class:`SharedArena`: the creating driver owns the
store and calls :meth:`destroy` (idempotent; also hooked to garbage
collection and interpreter exit) when the results have been copied —
or streamed — out.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro import counters as _counters
from repro.runtime.shm import SharedArena
from repro.runtime.shm import attach_array as _attach_shm

__all__ = [
    "StoreIO",
    "TileStore",
    "ArenaTileStore",
    "MmapTileStore",
    "open_store",
    "HeapBinding",
    "StreamedPanel",
    "StreamedBinding",
    "attach_array",
    "spec_nbytes",
]

_ALIGN = 64  # keep tile offsets cache-line aligned, like the arena


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


def spec_nbytes(spec: tuple) -> int:
    """Payload bytes described by a buffer spec."""
    _, _, shape, dtype = spec
    return int(np.dtype(dtype).itemsize * int(np.prod(shape, dtype=np.int64)))


@dataclass
class StoreIO:
    """Byte-level transfer accounting for one store."""

    read_bytes: int = 0
    write_bytes: int = 0
    reads: int = 0
    writes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    def snapshot(self) -> dict[str, int]:
        return {
            "read_bytes": self.read_bytes,
            "write_bytes": self.write_bytes,
            "reads": self.reads,
            "writes": self.writes,
        }


class TileStore:
    """Common surface of the tile-plane backends.

    Concrete stores implement :meth:`alloc`, :meth:`spec`,
    :meth:`_read_into` / :meth:`_write_from` and :meth:`destroy`; the
    base class provides placement, row-windowing and the instrumented
    load/store transfers.
    """

    #: Backend tag ("shm" or "mmap").
    kind: str = "abstract"

    def __init__(self) -> None:
        self.io = StoreIO()

    # -- allocation ----------------------------------------------------
    def alloc(self, shape, dtype=np.float64, *, zero: bool = True) -> np.ndarray:
        raise NotImplementedError

    def spec(self, array: np.ndarray) -> tuple:
        raise NotImplementedError

    def reserve(self, shape, dtype=np.float64) -> tuple:
        """Allocate a region and return only its spec (no live view).

        This is the out-of-core allocation path: the caller addresses
        the region through :meth:`sub`/:meth:`load`/:meth:`store`
        windows and never holds the whole region mapped or resident.
        """
        return self.spec(self.alloc(shape, dtype, zero=False))

    def place(self, array: np.ndarray) -> np.ndarray:
        """Copy *array* into the store; returns a live view of it."""
        out = self.alloc(array.shape, array.dtype, zero=False)
        out[...] = array
        return out

    # -- windowing -----------------------------------------------------
    @staticmethod
    def sub(spec: tuple, r0: int, r1: int) -> tuple:
        """Spec of rows ``[r0, r1)`` of a C-contiguous 2-D (or 1-D) spec."""
        name, offset, shape, dtype = spec
        if not 0 <= r0 <= r1 <= shape[0]:
            raise ValueError(f"row window [{r0}, {r1}) outside shape {shape}")
        row_bytes = int(np.dtype(dtype).itemsize * int(np.prod(shape[1:], dtype=np.int64)))
        return (name, offset + r0 * row_bytes, (r1 - r0, *shape[1:]), dtype)

    # -- instrumented transfers ---------------------------------------
    def load(self, spec: tuple, out: np.ndarray | None = None) -> np.ndarray:
        """Copy the region *spec* into fast memory; counts read bytes.

        *out* recycles a caller-provided buffer of the right shape.
        """
        name, offset, shape, dtype = spec
        if out is None:
            out = np.empty(shape, dtype=np.dtype(dtype))
        elif out.shape != tuple(shape):
            raise ValueError(f"out buffer {out.shape} does not match spec {shape}")
        self._read_into(spec, out)
        nbytes = out.nbytes
        self.io.read_bytes += nbytes
        self.io.reads += 1
        _counters.add_store_read(nbytes)
        return out

    def store(self, spec: tuple, values: np.ndarray) -> None:
        """Write *values* to the region *spec*; counts written bytes."""
        _, _, shape, dtype = spec
        values = np.ascontiguousarray(values, dtype=np.dtype(dtype))
        if values.shape != tuple(shape):
            raise ValueError(f"values {values.shape} do not match spec {shape}")
        self._write_from(spec, values)
        nbytes = values.nbytes
        self.io.write_bytes += nbytes
        self.io.writes += 1
        _counters.add_store_write(nbytes)

    # -- backend hooks -------------------------------------------------
    def _read_into(self, spec: tuple, out: np.ndarray) -> None:
        raise NotImplementedError

    def _write_from(self, spec: tuple, values: np.ndarray) -> None:
        raise NotImplementedError

    def destroy(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "TileStore":
        return self

    def __exit__(self, *exc) -> None:
        self.destroy()


class ArenaTileStore(TileStore):
    """The shared-memory arena as a tile store.

    Used when a driver wants the store API (placement, windows,
    measured transfers) over the in-RAM plane — e.g. to run the
    out-of-core code path at in-memory sizes for parity testing, or to
    share one allocation surface between resident and spilled runs.
    """

    kind = "shm"

    def __init__(self, arena: SharedArena | None = None, segment_bytes: int | None = None):
        super().__init__()
        if arena is None:
            arena = SharedArena(**({"segment_bytes": segment_bytes} if segment_bytes else {}))
            self._owned = True
        else:
            self._owned = False
        self.arena = arena

    def alloc(self, shape, dtype=np.float64, *, zero: bool = True) -> np.ndarray:
        return self.arena.alloc(shape, dtype, zero=zero)

    def spec(self, array: np.ndarray) -> tuple:
        return self.arena.spec(array)

    def _view(self, spec: tuple) -> np.ndarray:
        """Zero-copy view of *spec*; resolves owned segments directly."""
        name, offset, shape, dtype = spec
        for seg in self.arena._segments:
            if seg.name == name:
                return np.ndarray(tuple(shape), dtype=np.dtype(dtype), buffer=seg.buf, offset=offset)
        return _attach_shm(spec)

    def _read_into(self, spec: tuple, out: np.ndarray) -> None:
        out[...] = self._view(spec)

    def _write_from(self, spec: tuple, values: np.ndarray) -> None:
        self._view(spec)[...] = values

    def destroy(self) -> None:
        if self._owned:
            self.arena.destroy()


#: Live mmap stores, destroyed best-effort at interpreter exit (the
#: shm module's atexit hook plays the same role for arenas).
_LIVE_MMAP_STORES: "weakref.WeakSet[MmapTileStore]" = weakref.WeakSet()


class MmapTileStore(TileStore):
    """A spill-directory tile store over ``numpy.memmap`` regions.

    Segments are plain files in a private scratch directory (under
    *spill_dir*, default the system temp dir), carved up by the same
    64-byte-aligned bump allocator as the arena.  A spec's segment name
    is the file's absolute path, so :func:`attach_array` — and hence
    every descriptor-dispatched op and worker process — resolves mmap
    specs exactly like shared-memory ones.

    Allocation extends the file with :func:`os.truncate` (sparse: no
    page is touched, so a million-row reservation costs no RAM and no
    disk until written).  :meth:`load`/:meth:`store` map only the
    addressed window and drop the mapping immediately, which keeps both
    resident set *and address space* bounded by the window size — the
    property the memory-capped CI run (``resource.setrlimit``) checks.

    ``segment_bytes`` bounds workspace segments; a larger single
    allocation gets a segment of its own, exactly like the arena.
    """

    kind = "mmap"

    def __init__(
        self,
        spill_dir: str | os.PathLike | None = None,
        segment_bytes: int = 64 << 20,
    ) -> None:
        super().__init__()
        self.segment_bytes = int(segment_bytes)
        self.root = tempfile.mkdtemp(prefix="repro-tiles-", dir=spill_dir)
        self._paths: list[str] = []
        self._used: list[int] = []
        self._sizes: list[int] = []
        self._destroyed = False
        self._finalizer = weakref.finalize(self, MmapTileStore._cleanup, self.root)
        _LIVE_MMAP_STORES.add(self)

    # -- allocation ----------------------------------------------------
    def _new_segment(self, min_bytes: int) -> int:
        size = max(self.segment_bytes, _aligned(min_bytes))
        path = os.path.join(self.root, f"seg{len(self._paths)}.bin")
        with open(path, "wb") as fh:
            fh.truncate(size)
        self._paths.append(path)
        self._used.append(0)
        self._sizes.append(size)
        return len(self._paths) - 1

    def _carve(self, shape, dtype) -> tuple:
        if self._destroyed:
            raise ValueError("tile store already destroyed")
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
            seg_idx = self._new_segment(nbytes)
        offset = self._used[seg_idx]
        self._used[seg_idx] = _aligned(offset + nbytes)
        return (self._paths[seg_idx], offset, tuple(shape), dt.str)

    def reserve(self, shape, dtype=np.float64) -> tuple:
        """Allocate a file region; returns its spec without mapping it.

        The region reads as zeros until written (sparse file), matching
        the arena's zeroed-allocation contract at zero cost.
        """
        return self._carve(shape, dtype)

    def alloc(self, shape, dtype=np.float64, *, zero: bool = True) -> np.ndarray:
        """Allocate and return a *persistent* mapped view.

        For workspace-sized buffers (the ``ShmBinding`` protocol);
        bulk panel data should use :meth:`reserve` + windowed
        :meth:`load`/:meth:`store` instead, which never hold a mapping.
        A fresh file region already reads as zeros, so ``zero`` only
        matters for recycled segments — the bump allocator never
        recycles, making both paths equivalent here.
        """
        spec = self._carve(shape, dtype)
        return self._window(spec, mode="r+")

    def spec(self, array: np.ndarray) -> tuple:
        """Spec of a view returned by :meth:`alloc`/:meth:`place` (or a
        contiguous leading sub-view of one)."""
        if not array.flags["C_CONTIGUOUS"]:
            raise ValueError("spec requires a C-contiguous store array")
        # Walk to the root mapping: a sliced memmap inherits the parent's
        # ``offset``/``filename`` attributes unadjusted, so only the root
        # (whose buffer is the raw mmap) anchors file offsets correctly.
        base = array
        while isinstance(base.base, np.ndarray):
            base = base.base
        if not isinstance(base, np.memmap) or getattr(base, "filename", None) is None:
            raise ValueError("array does not live in this tile store")
        path = str(base.filename)
        if path not in self._paths:
            raise ValueError("array does not live in this tile store")
        base_addr = base.__array_interface__["data"][0]
        addr = array.__array_interface__["data"][0]
        offset = int(base.offset) + (addr - base_addr)
        return (path, offset, tuple(array.shape), array.dtype.str)

    # -- transfers -----------------------------------------------------
    def _window(self, spec: tuple, mode: str = "r+") -> np.memmap:
        path, offset, shape, dtype = spec
        shape = tuple(shape) if shape else (1,)
        if int(np.prod(shape, dtype=np.int64)) == 0:
            # numpy.memmap rejects empty maps; synthesize an empty view.
            return np.empty(shape, dtype=np.dtype(dtype))  # type: ignore[return-value]
        return np.memmap(path, dtype=np.dtype(dtype), mode=mode, offset=offset, shape=shape)

    def _read_into(self, spec: tuple, out: np.ndarray) -> None:
        mm = self._window(spec, mode="r")
        try:
            out[...] = mm
        finally:
            del mm  # drop the mapping with the last reference

    def _write_from(self, spec: tuple, values: np.ndarray) -> None:
        mm = self._window(spec, mode="r+")
        try:
            mm[...] = values
        finally:
            del mm

    # -- teardown ------------------------------------------------------
    @property
    def allocated_bytes(self) -> int:
        return sum(self._used)

    @staticmethod
    def _cleanup(root: str) -> None:
        shutil.rmtree(root, ignore_errors=True)

    def destroy(self) -> None:
        """Remove the spill directory (idempotent)."""
        if self._destroyed:
            return
        self._destroyed = True
        self._finalizer()

    def __del__(self) -> None:
        try:
            self.destroy()
        except Exception:
            pass


def open_store(store, **kwargs) -> tuple[TileStore, bool]:
    """Resolve a ``store=`` driver argument to ``(instance, owned)``.

    Accepts ``"shm"``/``"mmap"`` (fresh store, caller owns and destroys
    it), a :class:`TileStore` (as-is, not owned), or a
    :class:`SharedArena` (wrapped, not owned).
    """
    if isinstance(store, TileStore):
        return store, False
    if isinstance(store, SharedArena):
        return ArenaTileStore(store), False
    if store == "shm":
        return ArenaTileStore(), True
    if store == "mmap":
        return MmapTileStore(**kwargs), True
    raise ValueError(f"unknown tile store {store!r}; expected 'shm', 'mmap' or a TileStore")


class HeapBinding:
    """The default ``store=`` of the builders: matrix and workspace on the heap.

    Same surface as :class:`~repro.runtime.shm.ShmBinding` — the matrix
    ``A`` with its spec, ``alloc(shape, dtype) -> (view, spec)`` and
    ``detach`` — but a buffer's spec is the buffer: nothing to register,
    name or tear down.  ``shared`` is False: a heap spec must not cross
    a process boundary (it would pickle the data), so builders attach
    no ``meta["op"]`` and a process executor runs such tasks inline.
    """

    shared = False

    def __init__(self, A: np.ndarray | None = None) -> None:
        self.A = self.a_spec = A  # None: a workspace-only binding

    def alloc(self, shape, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
        """Allocate a zeroed workspace buffer; returns ``(view, spec)``."""
        arr = np.zeros(shape, dtype)
        return arr, arr

    def alloc_v(self, r0: int, r1: int, c0: int, c1: int) -> tuple[np.ndarray, np.ndarray]:
        """Buffer for the unit-lower ``V`` of a leaf QR of ``A[r0:r1, c0:c1]``."""
        return self.alloc((r1 - r0, min(r1 - r0, c1 - c0)), self.A.dtype)

    @staticmethod
    def detach(array: np.ndarray) -> np.ndarray:
        """*array* as the caller may keep it: heap buffers outlive the run."""
        return array


class StreamedPanel:
    """A 2-D :class:`TileStore` region addressed like an array: the
    matrix spec of the streamed (out-of-core) plane.

    ``A[rows, cols]`` — *rows* a slice or an integer array — loads
    exactly those rows into a private in-RAM block (one counted
    :meth:`TileStore.load` per contiguous run) and returns its *cols*;
    ``A[rows, cols] = block`` stores whole rows back the same way.  An
    op that updated such a block in place therefore has to write it
    back, which over an ndarray view is a no-op.

    One access may touch at most *max_rows* rows — the tallest window
    the out-of-core plan budgeted for — and a taller one raises
    :class:`MemoryError`: a step with no streamed form (anything that
    wants the whole panel at once) fails loudly instead of quietly
    materializing the panel.
    """

    def __init__(self, store: TileStore, spec: tuple, max_rows: int) -> None:
        self.store, self.spec, self.max_rows = store, spec, int(max_rows)
        self.shape = tuple(spec[2])
        self.dtype = np.dtype(spec[3])

    def _runs(self, rows) -> list[tuple[int, int]]:
        """The contiguous ``[r0, r1)`` runs of *rows*, in order."""
        if isinstance(rows, slice):
            r0, r1, _ = rows.indices(self.shape[0])
            runs = [(r0, max(r0, r1))]
        else:
            rows = np.asarray(rows)
            cuts = np.flatnonzero(np.diff(rows) != 1) + 1
            runs = [(int(run[0]), int(run[-1]) + 1) for run in np.split(rows, cuts)]
        height = sum(r1 - r0 for r0, r1 in runs)
        if height > self.max_rows:
            raise MemoryError(
                f"a {height}-row window of a streamed {self.shape} panel exceeds "
                f"the {self.max_rows} rows its plan keeps in fast memory"
            )
        return runs

    def __getitem__(self, key) -> np.ndarray:
        rows, cols = key
        blocks = [self.store.load(TileStore.sub(self.spec, *run)) for run in self._runs(rows)]
        return (blocks[0] if len(blocks) == 1 else np.vstack(blocks))[:, cols]

    def __setitem__(self, key, block: np.ndarray) -> None:
        rows, cols = key
        if cols.indices(self.shape[1]) != (0, self.shape[1], 1):
            raise ValueError("a streamed panel is written whole rows at a time")
        at = 0
        for r0, r1 in self._runs(rows):
            self.store.store(TileStore.sub(self.spec, r0, r1), block[at : at + r1 - r0])
            at += r1 - r0


class _PackedV:
    """A leaf's ``V`` left packed in its factored rows of a streamed
    panel: ``np.asarray`` loads the window and unpacks it on use."""

    def __init__(self, A: StreamedPanel, r0: int, r1: int, c0: int, c1: int) -> None:
        self.A, self.window = A, (slice(r0, r1), slice(c0, c1))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        from repro.kernels.qr import extract_v  # kernels -> counters -> runtime: cyclic at import

        return extract_v(self.A[self.window])


class StreamedBinding(HeapBinding):
    """The out-of-core ``store=``: the matrix streams through *store*
    (its spec is a :class:`StreamedPanel` over the region *spec*), the
    workspace stays on the heap — the part of a tall-skinny panel's
    state that fits in RAM whatever the panel's height.
    """

    def __init__(self, store: TileStore, spec: tuple, max_rows: int) -> None:
        super().__init__(StreamedPanel(store, spec, max_rows))

    def alloc_v(self, r0: int, r1: int, c0: int, c1: int) -> tuple[_PackedV, None]:
        """No buffer: the reflectors stay in the panel (spec ``None``
        tells the leaf op to skip its copy)."""
        return _PackedV(self.A, r0, r1, c0, c1), None


# ---------------------------------------------------------------------------
# Attach: spec -> view, any plane
# ---------------------------------------------------------------------------

#: Whole-file maps cached per process, keyed by path; remapped when the
#: file has grown past a cached mapping.
_MMAP_ATTACHED: dict[str, np.memmap] = {}


def attach_array(spec) -> np.ndarray:
    """Decode a spec from *any* plane into a zero-copy view.

    A heap spec is the array itself (:class:`HeapBinding`) and a
    streamed one the :class:`StreamedPanel` itself.  Shared-memory
    segment names resolve through
    :func:`repro.runtime.shm.attach_array`; absolute-path names map the
    spill file (``numpy.memmap``, shared mapping, so cross-process
    writes are coherent through the page cache).  Whole-file mappings
    are cached per process like shm handles, and like them dropped — on
    the first attach of a new file — once their store has been removed.
    """
    if isinstance(spec, (np.ndarray, StreamedPanel)):
        return spec
    name, offset, shape, dtype = spec
    if not os.path.isabs(name):
        return _attach_shm(spec)
    dt = np.dtype(dtype)
    nbytes = int(dt.itemsize * int(np.prod(shape, dtype=np.int64)))
    mm = _MMAP_ATTACHED.get(name)
    if mm is None or offset + nbytes > mm.nbytes:
        for path in [p for p in _MMAP_ATTACHED if not os.path.exists(p)]:
            del _MMAP_ATTACHED[path]  # its store is gone; live views keep the map
        mm = np.memmap(name, dtype=np.uint8, mode="r+", shape=(os.path.getsize(name),))
        _MMAP_ATTACHED[name] = mm
    return np.ndarray(tuple(shape), dtype=dt, buffer=mm, offset=offset)
