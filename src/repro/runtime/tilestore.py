"""The tile plane: where a buffer lives, decided once.

A buffer is named by a *spec* that :func:`attach_array` turns into an
array in any process, and there are three kinds:

* the process's own heap (:class:`HeapBinding`) — a buffer that never
  leaves the address space needs no name, so its spec is the ndarray
  itself.  That is what lets the threaded executor run the very
  descriptors the process workers run;
* a :class:`TileStore` region, ``(segment, byte_offset, shape, dtype)``
  — segments carved up by one 64-byte-aligned bump allocator, made by
  one of two backends: :class:`~repro.runtime.shm.SharedArena`
  (``multiprocessing.shared_memory`` names; the plane the process
  backend factors on in place) or :class:`MmapTileStore` (sparse spill
  files named by absolute path; the slow memory, bigger than RAM, that
  the paper's sequential claim needs).  The segment name says which,
  so ops and worker processes never know where a buffer is;
* a :class:`StreamedPanel` (:class:`StreamedBinding`) — the matrix
  stays in a store and ``A[r0:r1, c0:c1]`` is a counted
  :meth:`TileStore.load` of exactly those rows, ``A[rows, cols] =
  block`` a counted :meth:`TileStore.store`.  The ops run unchanged
  over it — that is all "out of core" is.

Out-of-core drivers move data with :meth:`TileStore.load` (slow ->
fast: a private in-RAM copy) and :meth:`TileStore.store` (fast -> slow),
never by holding the plane mapped.  Both count bytes — per store in
:attr:`TileStore.io` and globally in :mod:`repro.counters`
(``store_read_bytes``/``store_write_bytes``) — so measured traffic can
be held against :mod:`repro.analysis.io_model`
(``benchmarks/bench_outofcore.py`` gates the comparison).

The driver that created a store owns it and calls :meth:`~TileStore.
destroy` (idempotent; also run at garbage collection and interpreter
exit) once the results have been copied — or streamed — out.  Other
processes only ever attach; their handles are cached per process and
dropped once the store behind them is gone.
"""

from __future__ import annotations

import mmap
import os
import shutil
import tempfile
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro import counters as _counters

__all__ = [
    "StoreIO",
    "TileStore",
    "MmapTileStore",
    "open_store",
    "HeapBinding",
    "StreamedPanel",
    "StreamedBinding",
    "attach_array",
    "spec_nbytes",
]

_ALIGN = 64  # cache-line align every allocation


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
    """Bump allocator over named segments, with counted transfers.

    Allocations are 64-byte aligned, C-contiguous and never freed
    individually — panel workspaces are tiny next to the matrix, and the
    whole store dies with :meth:`destroy`.  A request larger than
    ``segment_bytes`` gets a segment of its own.  A backend supplies
    :meth:`_new_segment` (an object with the ``name``/``size``/``buf``/
    ``close``/``unlink`` of a ``SharedMemory``) and may narrow
    :meth:`_view`.
    """

    #: Backend tag ("shm" or "mmap").
    kind: str = "abstract"

    def __init__(self, segment_bytes: int) -> None:
        self.io = StoreIO()
        self.segment_bytes = int(segment_bytes)
        self._segments: list = []
        self._used: list[int] = []  # bump offset per segment
        # name -> (mapped base address, size) of each segment alloc() has
        # handed a view of: the mapping is stable for the segment's
        # lifetime, so spec() compares addresses instead of rebuilding a
        # view per segment per call.
        self._bases: dict[str, tuple[int, int]] = {}
        self._destroyed = False

    def _new_segment(self, size: int):
        raise NotImplementedError

    # -- allocation ----------------------------------------------------
    def _carve(self, shape, dtype) -> tuple:
        """First fit: ``(segment, byte_offset, shape, dtype)`` of a new region."""
        if self._destroyed:
            raise ValueError("tile store already destroyed")
        if isinstance(shape, int):
            shape = (shape,)
        dt = np.dtype(dtype)
        nbytes = max(1, int(dt.itemsize * int(np.prod(shape, dtype=np.int64))))
        for i, seg in enumerate(self._segments):
            if self._used[i] + nbytes <= seg.size:
                break
        else:
            seg = self._new_segment(max(self.segment_bytes, _aligned(nbytes)))
            # The owner resolves its own specs through this handle too
            # (parent-only tasks, a service's threaded fallback): never
            # by re-opening the name under attach_array's tracker patch.
            _ATTACHED[seg.name] = seg
            self._segments.append(seg)
            self._used.append(0)
            i = len(self._segments) - 1
        offset = self._used[i]
        self._used[i] = _aligned(offset + nbytes)
        return seg, offset, tuple(shape), dt

    def reserve(self, shape, dtype=np.float64) -> tuple:
        """Allocate a region and return only its spec (no live view).

        This is the out-of-core allocation path: the caller addresses
        the region through :meth:`sub`/:meth:`load`/:meth:`store`
        windows and never holds it mapped or resident.  A fresh region
        reads as zeros.
        """
        seg, offset, shape, dt = self._carve(shape, dtype)
        return (seg.name, offset, shape, dt.str)

    def alloc(self, shape, dtype=np.float64, *, zero: bool = True) -> np.ndarray:
        """Allocate a C-contiguous array in the store.

        The returned array is zero-filled (the workspace-buffer
        contract) unless ``zero=False``, the path :meth:`place` and
        staging use to avoid streaming freshly mapped pages through
        memory twice — once for the fill and again for the copy that
        immediately overwrites the same bytes.
        """
        seg, offset, shape, dt = self._carve(shape, dtype)
        arr = np.ndarray(shape, dtype=dt, buffer=seg.buf, offset=offset)
        if seg.name not in self._bases:
            self._bases[seg.name] = (arr.__array_interface__["data"][0] - offset, seg.size)
        if zero:
            arr.fill(0)
        return arr

    def place(self, array: np.ndarray) -> np.ndarray:
        """Copy *array* into the store; returns a live view of it."""
        out = self.alloc(array.shape, array.dtype, zero=False)
        out[...] = array
        return out

    def spec(self, array: np.ndarray) -> tuple:
        """Compact cross-process descriptor of a store-allocated array.

        Returns ``(segment_name, byte_offset, shape, dtype_str)``.  The
        array must be C-contiguous and live inside one of this store's
        segments (anything :meth:`alloc`/:meth:`place` returned, or a
        contiguous row window of it).
        """
        if not array.flags["C_CONTIGUOUS"]:
            raise ValueError("spec requires a C-contiguous store array")
        addr = array.__array_interface__["data"][0]
        for name, (base, size) in self._bases.items():
            if base <= addr < base + size:
                if addr - base + array.nbytes > size:
                    break
                return (name, addr - base, tuple(array.shape), array.dtype.str)
        raise ValueError("array does not live in this tile store")

    @property
    def allocated_bytes(self) -> int:
        return sum(self._used)

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
    def _view(self, spec: tuple) -> np.ndarray:
        """The region *spec* as an array, for one transfer."""
        return attach_array(spec)

    def load(self, spec: tuple, out: np.ndarray | None = None) -> np.ndarray:
        """Copy the region *spec* into fast memory; counts read bytes.

        *out* recycles a caller-provided buffer of the spec's shape and
        dtype (a narrower one would under-count the read).
        """
        _, _, shape, dtype = spec
        if out is None:
            out = np.empty(shape, dtype=np.dtype(dtype))
        elif out.shape != tuple(shape) or out.dtype != np.dtype(dtype):
            raise ValueError(
                f"out buffer {out.shape} {out.dtype} does not match spec {shape} {dtype}"
            )
        out[...] = self._view(spec)
        self.io.read_bytes += out.nbytes
        self.io.reads += 1
        _counters.add_store_read(out.nbytes)
        return out

    def store(self, spec: tuple, values: np.ndarray) -> None:
        """Write *values* to the region *spec*; counts written bytes."""
        _, _, shape, dtype = spec
        values = np.ascontiguousarray(values, dtype=np.dtype(dtype))
        if values.shape != tuple(shape):
            raise ValueError(f"values {values.shape} do not match spec {shape}")
        self._view(spec)[...] = values
        self.io.write_bytes += values.nbytes
        self.io.writes += 1
        _counters.add_store_write(values.nbytes)

    # -- teardown ------------------------------------------------------
    def destroy(self) -> None:
        """Unlink (and best-effort close) every segment (idempotent).

        Unlink comes first so no segment outlives the run.  ``close``
        can legitimately fail with :class:`BufferError` while NumPy
        views into a segment are still referenced (workspace buffers of
        a retained graph); the mapping then stays valid until those
        views are garbage collected and is released with them — copy any
        results you keep out first.
        """
        if self._destroyed:
            return
        self._destroyed = True
        for seg in self._segments:
            _ATTACHED.pop(seg.name, None)
            try:
                seg.unlink()
            except OSError:  # already gone
                pass
            try:
                seg.close()
            except (BufferError, OSError):  # live views keep it mapped
                pass
        self._segments, self._used, self._bases = [], [], {}

    def __enter__(self) -> "TileStore":
        return self

    def __exit__(self, *exc) -> None:
        self.destroy()

    def __del__(self) -> None:  # best-effort backstop; drivers call destroy()
        try:
            self.destroy()
        except Exception:
            pass


class _SpillFile:
    """A spill-file segment: what the plane uses of a ``SharedMemory``
    (``name``, ``size``, ``buf``, ``close``, ``unlink``) over a file,
    the name being its absolute path.

    Creating one extends the file with ``truncate`` (sparse: no page is
    touched, so a million-row reservation costs no RAM and no disk
    until written).  ``buf`` maps the whole file (shared, so
    cross-process writes are coherent through the page cache) on first
    use — a store that only moves windows never has it mapped.
    """

    def __init__(self, name: str, size: int | None = None) -> None:
        if size is not None:
            with open(name, "xb") as fh:
                fh.truncate(size)
        self.name, self.size = name, size or os.path.getsize(name)
        self._buf: memoryview | None = None

    @property
    def buf(self) -> memoryview:
        if self._buf is None:
            with open(self.name, "r+b") as fh:
                self._buf = memoryview(mmap.mmap(fh.fileno(), self.size))
        return self._buf

    def close(self) -> None:
        if self._buf is not None:
            mapped = self._buf.obj
            self._buf.release()  # BufferError while a view still exports it
            mapped.close()
            self._buf = None

    def unlink(self) -> None:
        os.unlink(self.name)


def _reap_orphans(parent: str) -> None:
    """Remove the spill directories under *parent* whose owner is gone.

    The file plane has no resource tracker: a store whose owner was
    ``kill -9``ed leaves its ``repro-tiles-<pid>-*`` directory behind,
    so each new store removes those whose pid no longer exists.  A live
    owner's directory is never touched.
    """
    for entry in os.listdir(parent):
        pid = entry.split("-")[2] if entry.startswith("repro-tiles-") else ""
        if not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            shutil.rmtree(os.path.join(parent, entry), ignore_errors=True)
        except OSError:  # alive, under another user
            pass


class MmapTileStore(TileStore):
    """The spill-directory backend: segments are sparse files in a
    private scratch directory (under *spill_dir*, default the system
    temp dir), removed with the store.

    :meth:`load`/:meth:`store` map only the addressed window and drop
    the mapping immediately, which keeps both resident set *and address
    space* bounded by the window size — the property the memory-capped
    CI run (``resource.setrlimit``) checks.  :meth:`alloc` is for
    workspace-sized buffers: its views hold their segment mapped whole.
    """

    kind = "mmap"

    def __init__(
        self,
        spill_dir: str | os.PathLike | None = None,
        segment_bytes: int = 64 << 20,
    ) -> None:
        super().__init__(segment_bytes)
        self.root = tempfile.mkdtemp(prefix=f"repro-tiles-{os.getpid()}-", dir=spill_dir)
        self._finalizer = weakref.finalize(self, shutil.rmtree, self.root, ignore_errors=True)
        _reap_orphans(os.path.dirname(self.root))

    def _new_segment(self, size: int) -> _SpillFile:
        return _SpillFile(os.path.join(self.root, f"seg{len(self._segments)}.bin"), size)

    @property
    def _paths(self) -> list[str]:
        return [seg.name for seg in self._segments]

    def alloc(self, shape, dtype=np.float64, *, zero: bool = True) -> np.ndarray:
        # A fresh file region already reads as zeros and the allocator
        # never recycles: a fill would only make every page real.
        return super().alloc(shape, dtype, zero=False)

    def _view(self, spec: tuple) -> np.ndarray:
        """A mapping of just the window, gone with the caller's reference."""
        path, offset, shape, dtype = spec
        if 0 in shape:  # numpy.memmap rejects empty maps
            return np.empty(shape, dtype=np.dtype(dtype))
        return np.memmap(path, dtype=np.dtype(dtype), mode="r+", offset=offset, shape=tuple(shape))

    def destroy(self) -> None:
        """Unmap the segments and remove the spill directory (idempotent)."""
        super().destroy()
        self._finalizer()


def open_store(store, spill_dir=None) -> tuple[TileStore, bool]:
    """Resolve a ``store=`` driver argument to ``(instance, owned)``.

    Accepts ``"shm"``/``"mmap"`` (a fresh store the caller owns and
    destroys; *spill_dir* is where an mmap store spills) or a
    :class:`TileStore` (as-is, not owned).
    """
    if isinstance(store, TileStore):
        return store, False
    if store == "shm":
        from repro.runtime.shm import SharedArena  # the backend imports this module

        return SharedArena(), True
    if store == "mmap":
        return MmapTileStore(spill_dir), True
    raise ValueError(f"unknown tile store {store!r}; expected 'shm', 'mmap' or a TileStore")


class HeapBinding:
    """The default ``store=`` of the builders: matrix and workspace on the heap.

    A binding is the matrix ``A`` with its spec, ``alloc(shape, dtype)
    -> (view, spec)`` for workspace buffers and ``detach`` for results;
    here a buffer's spec is the buffer: nothing to register, name or
    tear down.  ``shared`` is False: a heap spec must not cross a
    process boundary (it would pickle the data), so builders attach no
    ``meta["op"]`` and a process executor runs such tasks inline.
    """

    shared = False

    def __init__(self, A: np.ndarray | None = None) -> None:
        self.A = self.a_spec = A  # None: a workspace-only binding
        #: Heap bytes held through this binding (what a pooled plan keeps
        #: between runs): the matrix — a streamed one holds none — and
        #: every buffer allocated here.
        self.nbytes = getattr(A, "nbytes", 0)

    def alloc(self, shape, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
        """Allocate a zeroed workspace buffer; returns ``(view, spec)``."""
        arr = np.zeros(shape, dtype)
        self.nbytes += arr.nbytes
        return arr, arr

    def alloc_v(self, r0: int, r1: int, c0: int, c1: int) -> tuple["_PackedV", None]:
        """The unit-lower ``V`` of a leaf QR of ``A[r0:r1, c0:c1]``: no
        buffer (spec ``None``), the reflectors stay in the factored rows."""
        return _PackedV(self.A, r0, r1, c0, c1), None

    @staticmethod
    def detach(array: np.ndarray) -> np.ndarray:
        """*array* as the caller may keep it: heap buffers outlive the run."""
        return array


class StreamedPanel:
    """A 2-D :class:`TileStore` region addressed like an array: the
    matrix spec of the streamed (out-of-core) plane.

    ``A[rows, cols]`` — *rows* a unit-step slice or an integer array —
    loads exactly those rows into a private in-RAM block (one counted
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
            r0, r1, step = rows.indices(self.shape[0])
            if step != 1:
                raise ValueError(f"a streamed panel is sliced in unit row steps, not {step}")
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
    """A leaf's ``V``, packed below ``R`` in its factored rows of *A* as
    ``?geqrt`` leaves it (the merges write only upper triangles), on
    every plane: ``np.asarray`` unpacks it, loading a streamed window."""

    def __init__(self, A, r0: int, r1: int, c0: int, c1: int) -> None:
        self.A, self.bounds = A, (r0, r1, c0, c1)

    def over(self, A) -> "_PackedV":
        """The same leaf in *A*, a copy of the matrix this one reads."""
        return _PackedV(A, *self.bounds)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        from repro.kernels.qr import extract_v  # kernels -> counters -> runtime: cyclic at import

        r0, r1, c0, c1 = self.bounds
        return extract_v(self.A[r0:r1, c0:c1])


class StreamedBinding(HeapBinding):
    """The out-of-core ``store=``: the matrix streams through *store*
    (its spec is a :class:`StreamedPanel` over the region *spec*), the
    workspace stays on the heap — the part of a tall-skinny panel's
    state that fits in RAM whatever the panel's height.
    """

    def __init__(self, store: TileStore, spec: tuple, max_rows: int) -> None:
        super().__init__(StreamedPanel(store, spec, max_rows))


# ---------------------------------------------------------------------------
# Attach: spec -> view, any plane
# ---------------------------------------------------------------------------

#: Segments open in this process, by name: a store's own (entered at
#: creation, removed at destroy) and those a worker attached.
_ATTACHED: dict[str, shared_memory.SharedMemory | _SpillFile] = {}


def _unlinked(seg) -> bool:
    """Whether *seg*'s owner has removed it (when in doubt, it has not)."""
    if os.path.isabs(seg.name):
        return not os.path.exists(seg.name)
    try:
        return os.fstat(seg._fd).st_nlink == 0
    except (AttributeError, OSError):
        return False


def _drop_unlinked() -> None:
    """Unmap every cached segment whose store has been destroyed.

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


def attach_array(spec) -> np.ndarray:
    """Decode a spec from *any* plane into a zero-copy view.

    A heap spec is the array itself and a streamed one the
    :class:`StreamedPanel` itself.  A store spec names its segment — a
    shared-memory name or an absolute spill-file path — which is opened
    once per process and cached; the first attach of a new segment — a
    new run's store — sweeps out the handles of stores destroyed since
    (:func:`_drop_unlinked`), so no per-task work is added.

    Attaching must not register a shared-memory segment with the
    resource tracker — the parent (the arena owner) is the only
    unlinker.  With a forked worker the tracker is shared with the
    parent, so a second registration (or an unregister) unbalances the
    parent's bookkeeping; with a spawned worker the child's own tracker
    would unlink the segment when the worker exits, destroying it under
    everyone else.  Python 3.13 grew ``track=False`` for exactly this;
    on 3.11 we suppress the registration call around the attach
    instead.
    """
    if isinstance(spec, (np.ndarray, StreamedPanel)):
        return spec
    name, offset, shape, dtype = spec
    seg = _ATTACHED.get(name)
    if seg is None:
        _drop_unlinked()
        if os.path.isabs(name):
            seg = _SpillFile(name)
        else:
            from multiprocessing import resource_tracker

            orig_register = resource_tracker.register
            resource_tracker.register = lambda *a, **k: None
            try:
                seg = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = orig_register
        _ATTACHED[name] = seg
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf, offset=offset)
