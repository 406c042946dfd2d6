"""Tests for the checkpoint subsystem.

Covers the serialization framing (CRC-verified payloads), both stores
(in-memory and the crash-surviving file store), the snapshot chain and
its corruption fallbacks, the snapshot writer, pickle round-trips of
the structured failure types, and resume — a run given the names of
completed tasks as ``journal=`` skips them — on all three executors.
"""

import json
import os
import pickle
import signal
import threading

import numpy as np
import pytest

from repro.machine.presets import generic
from repro.resilience.checkpoint import (
    Checkpoint,
    FileStore,
    MemoryStore,
    pack_arrays,
    restore_matrix,
    unpack_arrays,
)
from repro.resilience.events import ResilienceEvent
from repro.resilience.faults import InjectedFault
from repro.resilience.recovery import RuntimeFailure
from repro.runtime.graph import TaskGraph
from repro.runtime.simulated import SimulatedExecutor
from repro.runtime.task import Cost, TaskKind
from repro.runtime.threaded import ThreadedExecutor


def _mk(flops=1e5):
    return Cost("gemm", 50, 50, 50, flops=flops)


# ----------------------------------------------------------------------
# Payload framing
# ----------------------------------------------------------------------
class TestPackArrays:
    def test_round_trip(self):
        arrays = {
            "a": np.arange(12, dtype=float).reshape(3, 4),
            "b": np.int64(7),
            "c": np.array([1, 2, 3], dtype=np.int64),
        }
        out = unpack_arrays(pack_arrays(arrays))
        assert out is not None
        assert sorted(out) == ["a", "b", "c"]
        assert np.array_equal(out["a"], arrays["a"])
        assert int(out["b"]) == 7
        assert np.array_equal(out["c"], arrays["c"])

    def test_bad_magic_is_none(self):
        data = pack_arrays({"a": np.ones(3)})
        assert unpack_arrays(b"XXXX" + data[4:]) is None

    def test_flipped_byte_is_none(self):
        data = bytearray(pack_arrays({"a": np.ones(8)}))
        data[-3] ^= 0xFF
        assert unpack_arrays(bytes(data)) is None

    def test_truncation_is_none(self):
        data = pack_arrays({"a": np.ones(8)})
        assert unpack_arrays(data[: len(data) // 2]) is None
        assert unpack_arrays(b"") is None


# ----------------------------------------------------------------------
# Stores
# ----------------------------------------------------------------------
@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryStore()
    return FileStore(tmp_path / "ckpt")


class TestStores:
    def test_array_round_trip(self, store):
        store.save_arrays("ckpt/panel/0", {"x": np.arange(6.0)})
        out = store.load_arrays("ckpt/panel/0")
        assert out is not None and np.array_equal(out["x"], np.arange(6.0))

    def test_missing_key_is_none(self, store):
        assert store.load_arrays("nope") is None

    def test_saved_arrays_are_snapshots(self, store):
        x = np.zeros(4)
        store.save_arrays("k", {"x": x})
        x[:] = 9.0
        assert np.array_equal(store.load_arrays("k")["x"], np.zeros(4))

    def test_keys_and_delete(self, store):
        store.save_arrays("a/1", {"x": np.ones(1)})
        store.save_arrays("a/2", {"x": np.ones(1)})
        assert store.keys() == ["a/1", "a/2"]
        store.delete("a/1")
        assert "a/1" not in store.keys()
        store.clear("a/")
        assert store.keys() == []


class TestFileStore:
    def test_survives_reopen(self, tmp_path):
        FileStore(tmp_path / "s").save_arrays("ckpt/panel/3", {"x": np.arange(4.0)})
        out = FileStore(tmp_path / "s").load_arrays("ckpt/panel/3")
        assert out is not None and np.array_equal(out["x"], np.arange(4.0))

    def test_truncated_payload_is_none(self, tmp_path):
        fs = FileStore(tmp_path / "s")
        fs.save_arrays("k", {"x": np.arange(64.0)})
        path = fs._path("k", ".npc")
        data = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(data[: len(data) // 2])
        assert fs.load_arrays("k") is None

    def test_no_tmp_litter(self, tmp_path):
        fs = FileStore(tmp_path / "s")
        for i in range(5):
            fs.save_arrays(f"k{i}", {"x": np.ones(2)})
        assert not [n for n in os.listdir(fs.root) if n.endswith(".tmp")]

    def _record_fsyncs(self, monkeypatch):
        """Patch os.fsync to log whether each fd is a file or directory."""
        import stat as stat_mod

        synced = []
        real_fsync = os.fsync

        def spy(fd):
            synced.append(
                "dir" if stat_mod.S_ISDIR(os.fstat(fd).st_mode) else "file"
            )
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        return synced

    def test_save_arrays_fsyncs_directory_after_replace(
        self, tmp_path, monkeypatch
    ):
        # os.replace makes the rename atomic, but only an fsync of the
        # *containing directory* makes it durable: without it a crash
        # can roll back to a state where the key never existed.
        fs = FileStore(tmp_path / "s", fsync=True)
        synced = self._record_fsyncs(monkeypatch)
        fs.save_arrays("k", {"x": np.ones(3)})
        assert "dir" in synced
        assert synced.index("file") < synced.index("dir")  # file first

    def test_no_fsync_flag_means_no_fsync(self, tmp_path, monkeypatch):
        fs = FileStore(tmp_path / "s", fsync=False)
        synced = self._record_fsyncs(monkeypatch)
        fs.save_arrays("k", {"x": np.ones(3)})
        assert synced == []


# ----------------------------------------------------------------------
# Checkpoint snapshot chain
# ----------------------------------------------------------------------
class _Layout:
    """Minimal stand-in for the factorization block layout."""

    def __init__(self, m, n, b):
        self.m, self.n, self.b = m, n, b

    def panel_width(self, K):
        return min(self.b, self.n - K * self.b)


def _fill_boundaries(ckpt, F, layout, boundaries):
    """Snapshot matrix *F* at each boundary as the factorization would."""
    for K in boundaries:
        prevK = ckpt.prev_boundary(K)
        c1 = K * layout.b + layout.panel_width(K)
        prev_c1 = prevK * layout.b + layout.panel_width(prevK) if prevK >= 0 else 0
        ckpt.save_snapshot(
            K,
            cols=F[:, prev_c1:c1],
            urows=F[prev_c1:c1, c1 : layout.n],
            trailing=F[c1 : layout.m, c1 : layout.n],
        )


class TestCheckpoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            Checkpoint(interval=0)

    def test_should_snapshot_interval(self):
        c = Checkpoint(interval=2)
        assert [c.should_snapshot(K) for K in range(4)] == [False, True, False, True]
        assert c.prev_boundary(3) == 1

    def test_prepare_keeps_matching_signature(self):
        c = Checkpoint()
        sig = {"algo": "calu", "m": 8, "n": 8}
        assert c.prepare(sig) is False  # nothing stored yet
        c.save_snapshot(0, cols=np.ones((4, 2)), urows=np.ones((2, 2)), trailing=np.ones((2, 2)))
        assert c.prepare(sig) is True
        assert c.load_snapshot(0) is not None

    def test_prepare_clears_on_mismatch(self):
        c = Checkpoint()
        c.prepare({"algo": "calu", "m": 8})
        c.save_snapshot(0, cols=np.ones((4, 2)), urows=np.ones((2, 2)), trailing=np.ones((2, 2)))
        assert c.prepare({"algo": "calu", "m": 16}) is False
        assert c.load_snapshot(0) is None

    def test_chain_and_restore(self):
        layout = _Layout(12, 12, 4)
        rng = np.random.default_rng(0)
        F = rng.standard_normal((12, 12))
        c = Checkpoint()
        _fill_boundaries(c, F, layout, [0, 1, 2])
        assert c.snapshot_chain() == [0, 1, 2]
        A = np.zeros((12, 12))
        K, snaps = restore_matrix(A, layout, c)
        assert K == 2 and sorted(snaps) == [0, 1, 2]
        assert np.array_equal(A, F)

    def test_trailing_pruned_to_keep(self):
        layout = _Layout(16, 16, 4)
        F = np.arange(256.0).reshape(16, 16)
        c = Checkpoint()  # keeps the newest two trailing snapshots
        _fill_boundaries(c, F, layout, [0, 1, 2, 3])
        assert c._trailing_ks() == [2, 3]
        # Delta payloads all survive: the chain still reaches back to 0.
        assert c.snapshot_chain() == [0, 1, 2, 3]

    def test_corrupt_newest_trailing_falls_back_one_boundary(self, tmp_path):
        layout = _Layout(16, 16, 4)
        F = np.arange(256.0).reshape(16, 16)
        fs = FileStore(tmp_path / "s")
        c = Checkpoint(fs)
        _fill_boundaries(c, F, layout, [0, 1, 2])
        c.flush()  # corrupt the file at rest, not racing the writer
        path = fs._path("ckpt/trailing/2", ".npc")
        with open(path, "wb") as f:
            f.write(b"garbage")
        assert c.snapshot_chain() == [0, 1]
        A = np.zeros((16, 16))
        K, _ = restore_matrix(A, layout, c)
        assert K == 1
        c1 = 2 * 4  # boundary-1 frontier
        assert np.array_equal(A[:, :c1], F[:, :c1])
        assert np.array_equal(A[:c1, c1:], F[:c1, c1:])
        assert np.array_equal(A[c1:, c1:], F[c1:, c1:])

    def test_nothing_restorable_leaves_matrix_untouched(self):
        layout = _Layout(8, 8, 4)
        A = np.full((8, 8), 7.0)
        K, snaps = restore_matrix(A, layout, Checkpoint())
        assert K == -1 and snaps == {}
        assert np.array_equal(A, np.full((8, 8), 7.0))


# ----------------------------------------------------------------------
# Async snapshot writer
# ----------------------------------------------------------------------
class _ThreadSpyStore(MemoryStore):
    """Records which thread performs each array write."""

    def __init__(self):
        super().__init__()
        self.writer_threads: list[str] = []

    def save_arrays(self, key, arrays):
        self.writer_threads.append(threading.current_thread().name)
        super().save_arrays(key, arrays)


class _FlakyStore(MemoryStore):
    def __init__(self):
        super().__init__()
        self.fail = False

    def save_arrays(self, key, arrays):
        if self.fail:
            raise OSError("disk full")
        super().save_arrays(key, arrays)


def _one_snapshot(ckpt, K=0):
    ckpt.save_snapshot(
        K, cols=np.ones((4, 2)), urows=np.ones((2, 2)), trailing=np.ones((2, 2))
    )


class TestAsyncSnapshotWriter:
    def test_writes_happen_off_the_caller_thread(self):
        store = _ThreadSpyStore()
        c = Checkpoint(store)
        _one_snapshot(c)
        c.flush()
        assert store.writer_threads
        assert set(store.writer_threads) == {"repro-ckpt-writer"}

    def test_reads_flush_implicitly(self):
        # No explicit flush anywhere: every read-side API drains the
        # writer first, so a snapshot is visible the moment save returns.
        layout = _Layout(12, 12, 4)
        F = np.arange(144.0).reshape(12, 12)
        c = Checkpoint()
        _fill_boundaries(c, F, layout, [0, 1, 2])
        assert c.snapshot_chain() == [0, 1, 2]
        A = np.zeros((12, 12))
        K, _ = restore_matrix(A, layout, c)
        assert K == 2 and np.array_equal(A, F)

    def test_snapshot_copies_live_views_at_the_boundary(self):
        # The factorization keeps mutating its matrix after the boundary;
        # the save must have copied the views before it returned.
        store = MemoryStore()
        c = Checkpoint(store)
        live = np.ones((2, 2))
        c.save_snapshot(0, cols=live, urows=live, trailing=live)
        live[:] = -7.0  # mutate before the background write lands
        c.flush()
        snap = c.load_snapshot(0)
        assert np.array_equal(snap["cols"], np.ones((2, 2)))

    def test_write_error_surfaces_on_flush(self):
        store = _FlakyStore()
        c = Checkpoint(store)
        store.fail = True
        _one_snapshot(c)  # returns: failure happens on the writer
        with pytest.raises(OSError, match="disk full"):
            c.flush()
        # The error is delivered once; the writer keeps serving.
        store.fail = False
        _one_snapshot(c, K=1)
        c.flush()

    def test_write_error_surfaces_on_next_save_without_flush(self):
        store = _FlakyStore()
        c = Checkpoint(store)
        store.fail = True
        _one_snapshot(c)
        c._writing.join(5.0)  # the failed write has ended, nothing raised yet
        store.fail = False
        with pytest.raises(OSError, match="disk full"):
            _one_snapshot(c, K=1)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork to SIGKILL a writer")
    def test_chain_survives_sigkill_after_flush(self, tmp_path):
        # fsync-on-replace durability, end to end: a process killed with
        # SIGKILL right after flush() leaves a fully restorable chain.
        layout = _Layout(12, 12, 4)
        F = np.arange(144.0).reshape(12, 12)
        pid = os.fork()
        if pid == 0:  # child: write, flush, die without any cleanup
            try:
                c = Checkpoint(FileStore(tmp_path / "s", fsync=True))
                _fill_boundaries(c, F, layout, [0, 1, 2])
                c.flush()
            finally:
                os.kill(os.getpid(), signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        c = Checkpoint(FileStore(tmp_path / "s"))
        assert c.snapshot_chain() == [0, 1, 2]
        A = np.zeros((12, 12))
        K, _ = restore_matrix(A, layout, c)
        assert K == 2 and np.array_equal(A, F)

    def test_checkpointed_runs_leave_no_writer_thread(self):
        # One thread per write, joined by the next save or the run's
        # flush: nothing stays behind to poll once a run returns.
        from repro.core.calu import calu

        A = np.random.default_rng(8).standard_normal((32, 32))
        for _ in range(20):
            calu(A, b=8, tr=2, checkpoint=Checkpoint())
        assert not [t for t in threading.enumerate() if t.name == "repro-ckpt-writer"]


# ----------------------------------------------------------------------
# Task journal: the names of completed tasks a run is given
# ----------------------------------------------------------------------
def _chain_graph(n=5, log=None, name="chain"):
    g = TaskGraph(name)
    prev = None
    for i in range(n):
        def fn(i=i):
            if log is not None:
                log.append(i)

        prev = g.add(f"t{i}", TaskKind.S, _mk(), fn=fn, deps=[prev] if prev is not None else [])
    return g


class TestTaskJournal:
    """``journal=`` is read, never written: the names it holds are
    skipped; only the checkpoint's snapshot chain is persisted."""

    def test_foreign_task_names_ignored(self):
        log: list[int] = []
        trace = ThreadedExecutor(1).run(_chain_graph(5, log), journal={"t0", "not-in-graph"})
        assert log == [1, 2, 3, 4]
        assert trace.stats["skipped"] == 1

    def test_a_checkpointed_run_persists_snapshots_only(self, tmp_path):
        from repro.core.calu import calu

        store = FileStore(tmp_path / "s")
        A = np.random.default_rng(5).standard_normal((32, 32))
        calu(A, b=8, tr=2, checkpoint=Checkpoint(store))
        keys = store.keys()
        assert "ckpt/meta" in keys and "ckpt/panel/3" in keys
        assert not [k for k in keys if "journal" in k]



# ----------------------------------------------------------------------
# Pickle round-trips of the structured failure types
# ----------------------------------------------------------------------
class TestPickleRoundTrips:
    def test_runtime_failure(self):
        f = RuntimeFailure("boom", task="S[1,2,3]", tid=17, failure_kind="injected")
        g = pickle.loads(pickle.dumps(f))
        assert str(g) == "boom"
        assert (g.task, g.tid, g.failure_kind) == ("S[1,2,3]", 17, "injected")
        assert g.trace is None

    def test_injected_fault(self):
        f = InjectedFault("injected exception", task="P[0]", tid=3, pre_execution=False)
        g = pickle.loads(pickle.dumps(f))
        assert (g.task, g.tid, g.pre_execution) == ("P[0]", 3, False)

    def test_resilience_event_dict_round_trip(self):
        e = ResilienceEvent("abft_correct", task="S[0,1,1]", tid=9, detail="fixed", value=2.5)
        assert ResilienceEvent.from_dict(e.to_dict()) == e
        assert ResilienceEvent.from_dict(json.loads(json.dumps(e.to_dict()))) == e


# ----------------------------------------------------------------------
# Journal-aware resume on every executor (the simulator runs no
# closures, so what ran is read from the records)
# ----------------------------------------------------------------------
def _executors():
    return [
        ("threaded", lambda: ThreadedExecutor(2)),
        ("simulated", lambda: SimulatedExecutor(generic(2))),
    ]


@pytest.mark.parametrize("name,make", _executors(), ids=[n for n, _ in _executors()])
class TestExecutorResume:
    def test_full_journal_skips_everything(self, name, make):
        log: list[int] = []
        trace = make().run(_chain_graph(5, log), journal={f"t{i}" for i in range(5)})
        assert log == []
        assert trace.records == []
        assert trace.resilience_summary().get("resume") == 1
        trace.validate_schedule(_chain_graph(5))

    def test_partial_journal_runs_only_frontier(self, name, make):
        journal = {"t0", "t1", "t2"}
        trace = make().run(_chain_graph(5), journal=journal)
        assert [r.name for r in trace.records] == ["t3", "t4"]
        assert journal == {"t0", "t1", "t2"}  # read, never written
        trace.validate_schedule(_chain_graph(5))

    def test_diamond_skip_releases_successors(self, name, make):
        g = TaskGraph("diamond")
        a = g.add("a", TaskKind.P, _mk())
        l = g.add("l", TaskKind.L, _mk(), deps=[a])
        u = g.add("u", TaskKind.U, _mk(), deps=[a])
        g.add("s", TaskKind.S, _mk(), deps=[l, u])
        trace = make().run(g, journal={"a", "l"})
        assert [r.name for r in trace.records] == ["u", "s"]
