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
A store holds array payloads only: the signature binding a namespace to
one computation is one more payload, at ``<key>/meta``.
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
from repro.runtime.sync import make_lock
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

    Array payloads (snapshots, the signature) keyed by hierarchical
    string keys.  Implementations must make :meth:`save_arrays` atomic —
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

    def clear(self, prefix: str = "") -> None:
        """Delete every key starting with *prefix*."""
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

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._arrays)


class FileStore(CheckpointStore):
    """Directory-backed store surviving process death.

    Array payloads are written to a temp file and published with
    ``os.replace`` (atomic rename), so a snapshot either exists
    completely or not at all; the CRC32 frame additionally catches any
    torn or bit-rotted payload on read.  The page cache preserves a
    published payload across a ``kill -9`` of the writer (pass
    ``fsync=True`` to also survive power loss).
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
        the directory entry (the rename) only becomes power-loss durable
        once the directory inode is synced too — fsyncing the file alone
        is not enough on POSIX.
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
        try:
            os.unlink(self._path(key, ".npc"))
        except OSError:
            pass

    def keys(self) -> list[str]:
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(self._dec(name[: -len(".npc")]) for name in names if name.endswith(".npc"))


def _digest(arr: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(arr).tobytes())


#: Trailing snapshots retained, newest first: the newest, and one
#: predecessor for the restore ladder to fall back to when the newest
#: trailing payload is corrupt.
_KEEP_TRAILING = 2


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

    A snapshot is serialized and persisted on a thread of its own, not
    on the task that reached the boundary: :meth:`save_snapshot` only
    pays for copying the live views out of the matrix, after joining the
    previous boundary's write — so at most one write is in flight, the
    chain lands in order, and reaching boundary ``K`` makes boundary
    ``K-1`` durable.  Every read path (and :meth:`flush`) joins the
    write first, so readers observe their own writes.  A crash can lose
    only the newest snapshot, costing a resume one extra boundary of
    recomputation — never bitwise fidelity.  The two newest trailing
    snapshots are kept (the restore ladder's fallback); older ones are
    deleted as the factorization advances.
    """

    def __init__(
        self,
        store: CheckpointStore | None = None,
        key: str = "ckpt",
        interval: int = 1,
    ) -> None:
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.store = store if store is not None else MemoryStore()
        self.key = key
        self.interval = interval
        self._writing: threading.Thread | None = None  # the write in flight
        self._write_error: BaseException | None = None  # its failure, not yet raised

    # ------------------------------------------------------------------
    # Keys and metadata
    # ------------------------------------------------------------------
    def _k(self, *parts) -> str:
        return "/".join((self.key, *map(str, parts)))

    def flush(self) -> None:
        """Wait for the snapshot write in flight; re-raise its error."""
        writing = self._writing
        if writing is None or writing is threading.current_thread():
            return  # nothing in flight, or the write itself listing keys to prune
        writing.join()
        self._writing = None
        if self._write_error is not None:
            exc, self._write_error = self._write_error, None
            raise exc

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
        Returns True when existing snapshots remain usable.  A namespace
        with no readable signature (none yet, a corrupt one, or one kept
        where an earlier layout of the store kept it) is cleared too.
        """
        self.flush()
        text = json.dumps(signature, sort_keys=True)
        stored = self.store.load_arrays(self._k("meta"))
        if stored is not None and str(stored.get("signature")) == text:
            return True
        self.clear()
        self.store.save_arrays(self._k("meta"), {"signature": np.array(text)})
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

        The live views handed in (``cols``, ``urows``, ``trailing``
        alias the factorization's matrix, which keeps mutating past the
        boundary) are copied *now*; the serialization + store writes
        happen on a writer thread once the previous boundary's write is
        joined, so the write of boundary ``K`` overlaps the compute of
        panel ``K+1``.  Its error is raised by the next save or
        :meth:`flush`.
        """
        self.flush()
        arrays = {"cols": cols, "urows": urows, "prev": np.int64(self.prev_boundary(K))}
        if extra:
            arrays.update(extra)
        arrays = {k: np.array(v, copy=True) for k, v in arrays.items()}
        trailing = np.array(trailing, copy=True)
        self._writing = threading.Thread(
            target=self._persist_snapshot,
            args=(K, arrays, trailing),
            name="repro-ckpt-writer",
            daemon=True,
        )
        self._writing.start()

    def _persist_snapshot(self, K: int, arrays: dict, trailing: np.ndarray) -> None:
        try:
            self.store.save_arrays(self._k("panel", K), arrays)
            self.store.save_arrays(
                self._k("trailing", K),
                {"trailing": trailing, "digest": np.uint32(_digest(trailing))},
            )
            self._prune_trailing(K)
        except BaseException as exc:  # raised by the next save or flush
            self._write_error = exc

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
        for old in ks[:-_KEEP_TRAILING]:
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
