"""Panel-granularity checkpointing for CALU/CAQR.

A long factorization that dies past panel 40 of 64 should not restart
from scratch.  The block algorithms have a natural recovery unit — the
panel iteration boundary — and at each boundary the matrix state
decomposes into pieces that are *final* (the factored panel columns,
the ``U`` block rows) plus one piece that is still live (the trailing
matrix).  A :class:`Checkpoint` therefore persists, per boundary ``K``:

* ``cols`` — the panel columns factored since the previous snapshot
  (full height; final until the terminal left-swap task, which always
  re-runs on resume);
* ``urows`` — the corresponding ``U`` block rows right of the panel
  (final once iteration ``K`` completes);
* ``trailing`` — the live trailing matrix ``A[k1:, c1:]``, stored
  *latest-only* (plus one predecessor for the recovery ladder) with a
  CRC32 digest so torn writes are detected;
* caller-supplied extras (pivot sequences, implicit-Q factors).

Snapshots chain backwards via a ``prev`` pointer, so restoring composes
all surviving ``cols``/``urows`` deltas with the newest verified
trailing snapshot — reproducing the exact bytes the matrix held at the
boundary.  Every remaining kernel is deterministic on those bytes, so a
resumed run yields **bitwise-identical** factors to an uninterrupted
one.

Stores are pluggable: :class:`MemoryStore` for tests and overhead-free
in-process restarts, :class:`FileStore` (atomic-rename writes,
digest-verified payloads) for real runs that must survive ``kill -9``.
"""

from __future__ import annotations

import io
import json
import os
import struct
import tempfile
import threading
import zlib

import numpy as np

from repro.resilience.events import ResilienceEvent
from repro.resilience.journal import TaskJournal
from repro.runtime.sync import make_condition, make_lock
from repro.runtime.task import Cost, TaskKind

__all__ = [
    "CheckpointStore",
    "MemoryStore",
    "FileStore",
    "Checkpoint",
    "SNAPSHOT_FORMAT",
    "pack_arrays",
    "unpack_arrays",
    "restore_matrix",
]

_MAGIC = b"RPCK1\n"

#: Version of the snapshot payload's key layout: 2 stores each covered
#: panel's ``to_arrays()`` under ``panel{P}_{key}`` (1 had ``piv{P}``/
#: ``flags{P}`` for CALU, ``q{P}_{key}`` for CAQR).  It is part of the
#: signature the driver hands :meth:`Checkpoint.prepare`, so a chain in
#: another layout is cleared and the run restarts — never half-read.
SNAPSHOT_FORMAT = 2


def pack_arrays(arrays: dict) -> bytes:
    """Serialize named arrays to a self-verifying payload (CRC32-framed npz)."""
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    payload = buf.getvalue()
    return _MAGIC + struct.pack("<I", zlib.crc32(payload)) + payload


def unpack_arrays(data: bytes) -> dict | None:
    """Inverse of :func:`pack_arrays`; None on any corruption (bad magic,
    failed CRC, truncation) — callers treat that as "snapshot absent"."""
    head = len(_MAGIC) + 4
    if len(data) < head or not data.startswith(_MAGIC):
        return None
    (crc,) = struct.unpack("<I", data[len(_MAGIC) : head])
    payload = data[head:]
    if zlib.crc32(payload) != crc:
        return None
    try:
        with np.load(io.BytesIO(payload), allow_pickle=False) as z:
            return {k: z[k] for k in z.files}
    except Exception:
        return None


class CheckpointStore:
    """Interface for checkpoint persistence.

    Two kinds of data: *array payloads* (snapshots) keyed by
    hierarchical string keys, and *append-only line logs* (the
    signature line).  Implementations must make :meth:`save_arrays` atomic —
    a reader never sees a half-written payload — and must tolerate a
    process dying between any two calls.
    """

    def save_arrays(self, key: str, arrays: dict) -> None:
        raise NotImplementedError

    def load_arrays(self, key: str) -> dict | None:
        raise NotImplementedError

    def delete(self, key: str) -> None:
        raise NotImplementedError

    def keys(self) -> list[str]:
        raise NotImplementedError

    def append_line(self, key: str, line: str) -> None:
        raise NotImplementedError

    def read_lines(self, key: str) -> list[str]:
        raise NotImplementedError

    def clear(self, prefix: str = "") -> None:
        """Delete every key (array and line) starting with *prefix*."""
        for k in list(self.keys()):
            if k.startswith(prefix):
                self.delete(k)


class MemoryStore(CheckpointStore):
    """In-process store: array payloads are held as plain copies.

    The default for tests and for guarding against in-process failures
    (a ``RuntimeFailure`` mid-run) where serialization cost would only
    distort the <5% overhead budget.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, dict] = {}
        self._lines: dict[str, list[str]] = {}
        self._lock = make_lock("checkpoint.memory")

    def save_arrays(self, key: str, arrays: dict) -> None:
        copied = {k: np.array(v, copy=True) for k, v in arrays.items()}
        with self._lock:
            self._arrays[key] = copied

    def load_arrays(self, key: str) -> dict | None:
        with self._lock:
            stored = self._arrays.get(key)
            if stored is None:
                return None
            return {k: v.copy() for k, v in stored.items()}

    def delete(self, key: str) -> None:
        with self._lock:
            self._arrays.pop(key, None)
            self._lines.pop(key, None)

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(set(self._arrays) | set(self._lines))

    def append_line(self, key: str, line: str) -> None:
        with self._lock:
            self._lines.setdefault(key, []).append(line)

    def read_lines(self, key: str) -> list[str]:
        with self._lock:
            return list(self._lines.get(key, []))


class FileStore(CheckpointStore):
    """Directory-backed store surviving process death.

    Array payloads are written to a temp file and published with
    ``os.replace`` (atomic rename), so a snapshot either exists
    completely or not at all; the CRC32 frame additionally catches any
    torn or bit-rotted payload on read.  Line logs are appended with a
    flush per line — the page cache preserves them across a ``kill -9``
    of the writer (pass ``fsync=True`` to also survive power loss).
    """

    def __init__(self, root: str | os.PathLike, fsync: bool = False) -> None:
        self.root = os.fspath(root)
        self.fsync = fsync
        os.makedirs(self.root, exist_ok=True)
        self._lock = make_lock("checkpoint.file")

    # Keys are hierarchical ("ckpt/panel/3"); flatten to one directory.
    @staticmethod
    def _enc(key: str) -> str:
        return key.replace("/", "@")

    @staticmethod
    def _dec(name: str) -> str:
        return name.replace("@", "/")

    def _path(self, key: str, ext: str) -> str:
        return os.path.join(self.root, self._enc(key) + ext)

    def _sync_dir(self) -> None:
        """fsync the store directory itself.

        ``os.replace`` makes the *file contents* appear atomically, but
        the directory entry (the rename, or a newly created log file)
        only becomes power-loss durable once the directory inode is
        synced too — fsyncing the file alone is not enough on POSIX.
        """
        fd = os.open(self.root, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def save_arrays(self, key: str, arrays: dict) -> None:
        data = pack_arrays(arrays)
        with self._lock:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as f:
                    f.write(data)
                    f.flush()
                    if self.fsync:
                        os.fsync(f.fileno())
                os.replace(tmp, self._path(key, ".npc"))
                if self.fsync:
                    self._sync_dir()
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    def load_arrays(self, key: str) -> dict | None:
        try:
            with open(self._path(key, ".npc"), "rb") as f:
                data = f.read()
        except OSError:
            return None
        return unpack_arrays(data)

    def delete(self, key: str) -> None:
        for ext in (".npc", ".jsonl"):
            try:
                os.unlink(self._path(key, ext))
            except OSError:
                pass

    def keys(self) -> list[str]:
        out = set()
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        for name in names:
            for ext in (".npc", ".jsonl"):
                if name.endswith(ext):
                    out.add(self._dec(name[: -len(ext)]))
        return sorted(out)

    def append_line(self, key: str, line: str) -> None:
        with self._lock:
            path = self._path(key, ".jsonl")
            created = not os.path.exists(path)
            with open(path, "a", encoding="utf-8") as f:
                f.write(line + "\n")
                f.flush()
                if self.fsync:
                    os.fsync(f.fileno())
            if self.fsync and created:
                # A brand-new log file's directory entry needs the same
                # directory sync the snapshot rename gets.
                self._sync_dir()

    def read_lines(self, key: str) -> list[str]:
        try:
            with open(self._path(key, ".jsonl"), "r", encoding="utf-8") as f:
                return f.read().splitlines()
        except OSError:
            return []


def _digest(arr: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(arr).tobytes())


class _SnapshotWriter:
    """Double-buffered background writer for snapshot payloads.

    Serialization + fsync of a boundary snapshot measured ~20% of total
    runtime on checkpointed runs (``BENCH_checkpoint.json``); none of it
    needs to happen on the worker that hit the boundary.  ``submit``
    copies nothing itself (the caller hands over already-copied arrays)
    and returns as soon as the job is parked in the single pending slot:
    one job may be *in flight* on the writer thread while one more waits
    *pending* — a third submission blocks, bounding memory at two
    snapshots, and a newer pending job never overtakes an older one
    (jobs drain strictly FIFO, preserving the ``prev``-pointer chain
    order on disk).

    Durability is unchanged: jobs run the same atomic-rename/fsync store
    writes, just on this thread.  A crash can only lose the *tail* of
    the chain — a resume then restores from one boundary earlier, and
    re-running the covered panels reproduces bitwise-identical factors.
    Write errors are captured and re-raised to the caller on the next
    :meth:`submit` or :meth:`flush`.
    """

    def __init__(self) -> None:
        self._lock = make_lock("checkpoint.writer")
        self._cond = make_condition("checkpoint.writer", self._lock)
        self._pending = None  # the single buffered job
        self._busy = False  # a job is executing on the writer thread
        self._error: BaseException | None = None
        self._closed = False
        self._thread: threading.Thread | None = None

    def _loop(self) -> None:
        while True:
            with self._lock:
                while self._pending is None and not self._closed:
                    self._cond.wait(0.1)
                if self._pending is None:
                    return
                job = self._pending
                self._pending = None
                self._busy = True
                self._cond.notify_all()
            try:
                job()
            except BaseException as exc:  # surfaced on next submit/flush
                with self._lock:
                    self._error = exc
            finally:
                with self._lock:
                    self._busy = False
                    self._cond.notify_all()

    def _raise_pending_error(self) -> None:
        if self._error is not None:
            exc, self._error = self._error, None
            raise exc

    def submit(self, job) -> None:
        with self._lock:
            self._raise_pending_error()
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="repro-ckpt-writer", daemon=True
                )
                self._thread.start()
            while self._pending is not None:  # backpressure: slot taken
                self._cond.wait(0.1)
            self._pending = job
            self._cond.notify_all()

    def flush(self) -> None:
        """Block until every submitted job has hit the store; re-raise errors."""
        if threading.current_thread() is self._thread:
            # Called from a job (e.g. the prune step listing keys):
            # FIFO draining already guarantees it sees every prior
            # write, and waiting on ourselves would deadlock.
            return
        with self._lock:
            while self._pending is not None or self._busy:
                self._cond.wait(0.1)
            self._raise_pending_error()

    def close(self) -> None:
        self.flush()
        with self._lock:
            self._closed = True
            self._cond.notify_all()
            thread = self._thread
            self._thread = None
        if thread is not None:
            thread.join()


class Checkpoint:
    """Panel-boundary snapshot manager over a :class:`CheckpointStore`.

    Parameters
    ----------
    store:
        Persistence backend (default: a fresh :class:`MemoryStore`).
    key:
        Namespace prefix, so several factorizations can share a store.
    interval:
        Snapshot every ``interval``-th panel boundary (1 = every
        boundary).  Coarser intervals cost less but resume further back.
    keep_trailing:
        Trailing snapshots retained (newest-first); older ones are
        deleted as the factorization advances.  Keeping 2 lets the
        restore ladder fall back one boundary if the newest trailing
        payload is corrupt.
    async_writes:
        Serialize and persist snapshots on a background writer thread
        (double-buffered: one write in flight, one buffered, further
        saves block) instead of on the task that reached the boundary.
        :meth:`save_snapshot` then only pays for copying the live views
        out of the matrix; every read path (and :meth:`flush`) drains
        the writer first, so readers always observe their own writes.
        Durability is per-write unchanged; a crash can lose only the
        newest in-flight snapshot, costing a resume one extra boundary
        of recomputation — never bitwise fidelity.
    """

    def __init__(
        self,
        store: CheckpointStore | None = None,
        key: str = "ckpt",
        interval: int = 1,
        keep_trailing: int = 2,
        async_writes: bool = True,
    ) -> None:
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        if keep_trailing < 1:
            raise ValueError(f"keep_trailing must be >= 1, got {keep_trailing}")
        self.store = store if store is not None else MemoryStore()
        self.key = key
        self.interval = interval
        self.keep_trailing = keep_trailing
        self._writer = _SnapshotWriter() if async_writes else None

    # ------------------------------------------------------------------
    # Keys and metadata
    # ------------------------------------------------------------------
    def _k(self, *parts) -> str:
        return "/".join((self.key, *map(str, parts)))

    def journal(self) -> TaskJournal:
        """A fresh task journal: only the snapshot chain persists, and
        the driver seeds the journal from the boundary it restores."""
        return TaskJournal()

    def flush(self) -> None:
        """Wait for in-flight snapshot writes; re-raise any write error."""
        if self._writer is not None:
            self._writer.flush()

    def clear(self) -> None:
        """Drop every snapshot in this namespace."""
        self.flush()
        self.store.clear(self.key + "/")

    def prepare(self, signature: dict) -> bool:
        """Bind this namespace to one computation.

        *signature* identifies the factorization (algorithm, shape,
        blocking, an input digest).  A stored signature that does not
        match means the namespace holds snapshots of a *different*
        computation: everything is cleared and the run starts fresh.
        Returns True when existing snapshots remain usable.
        """
        self.flush()
        lines = self.store.read_lines(self._k("meta"))
        stored = None
        if lines:
            try:
                stored = json.loads(lines[0])
            except ValueError:
                stored = None
        if stored == signature:
            return True
        self.clear()
        self.store.append_line(self._k("meta"), json.dumps(signature, sort_keys=True))
        return False

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def should_snapshot(self, K: int) -> bool:
        return (K + 1) % self.interval == 0

    def prev_boundary(self, K: int) -> int:
        """The snapshot boundary preceding *K* (-1 when K is the first)."""
        return K - self.interval

    def covered_panels(self, K: int) -> range:
        """The panels whose state the boundary-*K* snapshot carries:
        those factored since the previous boundary."""
        return range(max(self.prev_boundary(K) + 1, 0), K + 1)

    def add_snapshot_task(
        self,
        graph,
        tracker,
        layout,
        K: int,
        A: np.ndarray,
        panels: list,
        *,
        state_reads: list,
        priority: float,
        library: str,
    ) -> None:
        """Emit ``C[K]``, the boundary-*K* snapshot task of a CALU/CAQR graph.

        It saves the panel columns and ``U``/``R`` block rows factored
        since the previous boundary (final bytes, modulo CALU's terminal
        left-swap task, which always re-runs on resume), the live
        trailing matrix, and each covered panel's
        ``panels[P].to_arrays()`` under ``panel{P}_{key}`` (read back by
        :meth:`restore_panels`); *panels* is the builder's growing
        per-panel state list.

        Reading every block the iteration wrote — plus *state_reads*,
        the footprint keys of the covered panels' state — gives the task
        RAW edges from all of iteration ``K``'s tasks and WAR edges to
        iteration ``K+1``'s writers, so the snapshot sees exactly the
        boundary state, consistent even under look-ahead pipelining.
        A non-fatal ``checkpoint`` event marks the save in the trace.
        """
        m, n, b = layout.m, layout.n, layout.b
        prevK = self.prev_boundary(K)
        prev_c1 = prevK * b + layout.panel_width(prevK) if prevK >= 0 else 0
        c1 = K * b + layout.panel_width(K)
        covered = self.covered_panels(K)
        name = f"C[{K}]"

        def snapshot() -> None:
            extra = {
                f"panel{P}_{key}": val
                for P in covered
                for key, val in panels[P].to_arrays().items()
            }
            self.save_snapshot(
                K,
                cols=A[:, prev_c1:c1],
                urows=A[prev_c1:c1, c1:n],
                trailing=A[c1:m, c1:n],
                extra=extra,
            )

        def saved() -> ResilienceEvent:
            return ResilienceEvent(
                "checkpoint", task=name, detail=f"panel boundary {K} snapshot saved"
            )

        words = 2.0 * (
            m * (c1 - prev_c1)
            + (c1 - prev_c1) * max(n - c1, 0)
            + max(m - c1, 0) * max(n - c1, 0)
        )
        blocks = [
            (i, J)
            for J in range(covered.start, layout.N)
            for i in range(layout.M)
            if J <= K or i > prevK
        ]
        tracker.add_task(
            graph,
            name,
            TaskKind.X,
            Cost("laswp", words=words, library=library),
            fn=snapshot,
            reads=blocks + state_reads,
            priority=priority,
            iteration=K,
            health=saved,
        )

    def restore_panels(self, snaps: dict, panels: list) -> None:
        """Refill per-panel state from :func:`restore_matrix`'s snapshots.

        Each covered panel's ``panel{P}_{key}`` entries go back through
        ``panels[P].restore`` — in place, because the buffers behind the
        state are what the tasks' descriptors (and the returned
        factorization) address.  *panels* must already hold every
        covered panel: the program is emitted through the boundary.
        """
        for K, snap in snaps.items():
            for P in self.covered_panels(K):
                prefix = f"panel{P}_"
                panels[P].restore(
                    {k[len(prefix) :]: v for k, v in snap.items() if k.startswith(prefix)}
                )

    def save_snapshot(
        self,
        K: int,
        *,
        cols: np.ndarray,
        urows: np.ndarray,
        trailing: np.ndarray,
        extra: dict | None = None,
    ) -> None:
        """Persist the boundary-*K* snapshot (delta + latest trailing).

        With ``async_writes`` the live views handed in (``cols``,
        ``urows``, ``trailing`` alias the factorization's matrix, which
        keeps mutating past the boundary) are copied *now*, and the
        serialization + store writes happen on the background writer.
        The previous boundary's write is drained first, so reaching
        boundary ``K`` makes boundary ``K-1`` durable: a crash loses at
        most the newest snapshot, and the write of boundary ``K``
        overlaps the compute of panel ``K+1``.
        """
        arrays = {
            "cols": cols,
            "urows": urows,
            "prev": np.int64(self.prev_boundary(K)),
        }
        if extra:
            arrays.update(extra)
        if self._writer is None:
            self._persist_snapshot(K, arrays, trailing)
            return
        self._writer.flush()
        arrays = {k: np.array(v, copy=True) for k, v in arrays.items()}
        trailing = np.array(trailing, copy=True)
        self._writer.submit(lambda: self._persist_snapshot(K, arrays, trailing))

    def _persist_snapshot(self, K: int, arrays: dict, trailing: np.ndarray) -> None:
        self.store.save_arrays(self._k("panel", K), arrays)
        self.store.save_arrays(
            self._k("trailing", K),
            {"trailing": trailing, "digest": np.uint32(_digest(trailing))},
        )
        self._prune_trailing(K)

    def _trailing_ks(self) -> list[int]:
        self.flush()
        prefix = self._k("trailing") + "/"
        out = []
        for k in self.store.keys():
            if k.startswith(prefix):
                try:
                    out.append(int(k[len(prefix) :]))
                except ValueError:
                    continue
        return sorted(out)

    def _prune_trailing(self, K: int) -> None:
        ks = [k for k in self._trailing_ks() if k <= K]
        for old in ks[: -self.keep_trailing]:
            self.store.delete(self._k("trailing", old))

    def load_snapshot(self, K: int) -> dict | None:
        self.flush()
        return self.store.load_arrays(self._k("panel", K))

    def load_trailing(self, K: int) -> np.ndarray | None:
        """The boundary-*K* trailing matrix, or None if absent/corrupt."""
        self.flush()
        data = self.store.load_arrays(self._k("trailing", K))
        if data is None or "trailing" not in data or "digest" not in data:
            return None
        trailing = data["trailing"]
        if _digest(trailing) != int(data["digest"]):
            return None
        return trailing

    def snapshot_chain(self) -> list[int]:
        """Boundaries of the newest fully-restorable chain, ascending.

        Walks candidate trailing snapshots newest-first; for each,
        follows the ``prev`` pointers back to the beginning, requiring
        every delta payload (and the trailing digest) to verify.  An
        empty list means no usable checkpoint — start from scratch.
        """
        self.flush()
        for K in reversed(self._trailing_ks()):
            if self.load_trailing(K) is None:
                continue
            chain: list[int] = []
            k = K
            ok = True
            while k >= 0:
                snap = self.load_snapshot(k)
                if snap is None or "prev" not in snap:
                    ok = False
                    break
                chain.append(k)
                k = int(snap["prev"])
            if ok:
                return chain[::-1]
        return []


def restore_matrix(A: np.ndarray, layout, ckpt: Checkpoint) -> tuple[int, dict]:
    """Rebuild *A* to its newest checkpointed panel boundary, in place.

    *layout* is the factorization's block layout (``b``, ``m``, ``n``,
    ``panel_width``).  Composes the chain's ``cols``/``urows`` deltas
    and the final trailing snapshot; because every byte comes from
    snapshots taken at the boundary, the restored matrix is bitwise
    equal to the state an uninterrupted run held there.

    Returns ``(K, snapshots_by_boundary)`` — ``K`` is the restored
    boundary (-1 when nothing restorable; *A* is then untouched).
    """
    chain = ckpt.snapshot_chain()
    if not chain:
        return -1, {}
    # Load and verify everything before touching A: a payload going bad
    # between snapshot_chain() and here must not leave A half-restored.
    snaps: dict[int, dict] = {}
    for K in chain:
        snap = ckpt.load_snapshot(K)
        if snap is None:
            return -1, {}
        snaps[K] = snap
    trailing = ckpt.load_trailing(chain[-1])
    if trailing is None:
        return -1, {}
    n, m = layout.n, layout.m
    prev_c1 = 0
    for K in chain:
        snap = snaps[K]
        c1 = K * layout.b + layout.panel_width(K)
        A[:, prev_c1:c1] = snap["cols"]
        A[prev_c1:c1, c1:n] = snap["urows"]
        prev_c1 = c1
    A[prev_c1:m, prev_c1:n] = trailing
    return chain[-1], snaps
