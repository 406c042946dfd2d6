"""The named, ranked primitive factories and the dynamic lock witness."""

import threading
import time

import pytest

from repro.runtime import sync
from repro.runtime.sync import (
    LockOrderError,
    LockWitness,
    TrackedCondition,
    TrackedLock,
    make_condition,
    make_lock,
    note_roundtrip,
    witnessing,
)


@pytest.fixture(autouse=True)
def _ranked_test_names(monkeypatch):
    """Rank this module's lock names after every real one: t.a < t.b."""
    names = ("t.plain", "t.in", "t.cin", "t.after", "t.state", "t.cond", "t.a", "t.b")
    for i, name in enumerate(names):
        monkeypatch.setitem(sync.RANKS, name, len(sync.LOCK_ORDER) + i)


@pytest.fixture
def disarmed(monkeypatch):
    """The production default: no witness (the test suite runs armed)."""
    monkeypatch.setattr(sync, "_witness", None)


class TestFactoriesPlain:
    """Outside sanitize mode the factories must be zero-overhead stdlib."""

    def test_make_lock_is_stdlib(self, disarmed):
        lock = make_lock("t.plain")
        assert isinstance(lock, type(threading.Lock()))

    def test_make_condition_is_stdlib(self, disarmed):
        cond = make_condition("t.plain")
        assert type(cond) is threading.Condition

    def test_note_roundtrip_is_noop(self, disarmed):
        note_roundtrip()  # must not raise with no witness active

    def test_no_witness_active_by_default(self, disarmed):
        assert sync.active_witness() is None


class TestWitnessingContext:
    def test_primitives_created_inside_are_tracked(self):
        with witnessing() as w:
            lock = make_lock("t.in")
            cond = make_condition("t.cin")
        assert isinstance(lock, TrackedLock)
        assert isinstance(cond, TrackedCondition)
        assert lock.witness is w

    def test_context_exit_restores_plain_mode(self, disarmed):
        with witnessing():
            pass
        assert sync.active_witness() is None
        assert isinstance(make_lock("t.after"), type(threading.Lock()))

    def test_nested_context_restores_the_outer_witness(self):
        with witnessing() as outer:
            with witnessing() as inner:
                assert sync.active_witness() is inner
            assert sync.active_witness() is outer
            assert make_lock("t.after").witness is outer

    def test_condition_aliases_tracked_lock_name(self):
        with witnessing() as w:
            lock = make_lock("t.state")
            cond = make_condition("t.state", lock)
        with cond:
            pass
        assert w.acquired == {"t.state": 1}


class TestRankOrder:
    def test_violation_in_another_thread_is_recorded(self):
        with witnessing() as w:
            a = make_lock("t.a")
            b = make_lock("t.b")
        errors = []

        def inverted():
            with b:
                try:
                    a.acquire()
                except LockOrderError as exc:
                    errors.append(exc)

        t = threading.Thread(target=inverted)
        t.start()
        t.join(5)
        assert not t.is_alive()
        assert len(errors) == 1 and w.violations == [str(errors[0])]

    def test_held_locks_span_witnesses(self):
        # A lock of one witness held while taking another witness's lock
        # is still ordered: the held stack belongs to the thread.
        with witnessing():
            b = make_lock("t.b")
        with witnessing() as w:
            a = make_lock("t.a")
        with b:
            with pytest.raises(LockOrderError):
                a.acquire()
        assert len(w.violations) == 1

    def test_condition_wait_reacquires_in_rank(self):
        with witnessing() as w:
            cond = make_condition("t.cond")
            b = make_lock("t.b")
        with cond:
            with b:
                # Waiting on t.cond while holding t.b re-takes t.cond
                # under t.b: the condition still gets its lock back.
                with pytest.raises(LockOrderError):
                    cond.wait(0.01)
                assert cond._is_owned()
        assert len(w.violations) == 1


class TestWitnessRecording:
    def test_acquisition_counts_and_hold_times(self):
        with witnessing() as w:
            lock = make_lock("t.a")
        with lock:
            time.sleep(0.01)
        with lock:
            pass
        assert w.acquired["t.a"] == 2
        assert w.hold_max_s["t.a"] >= 0.01
        assert w.hold_total_s["t.a"] >= w.hold_max_s["t.a"]

    def test_nested_acquisition_records_edge(self):
        with witnessing() as w:
            a = make_lock("t.a")
            b = make_lock("t.b")
        with a:
            with b:
                pass
        assert w.edge_names() == {("t.a", "t.b")}
        assert w.edges[("t.a", "t.b")] == 1

    def test_sequential_acquisition_records_no_edge(self):
        with witnessing() as w:
            a = make_lock("t.a")
            b = make_lock("t.b")
        with a:
            pass
        with b:
            pass
        assert w.edge_names() == set()

    def test_held_stack_is_per_thread(self):
        with witnessing() as w:
            a = make_lock("t.a")
            b = make_lock("t.b")
        edges_seen = []

        def other():
            with b:
                edges_seen.append(w.edge_names())

        with a:
            t = threading.Thread(target=other)
            t.start()
            t.join()
        # The other thread held nothing when it took b: no cross-thread edge.
        assert edges_seen == [set()]

    def test_condition_wait_releases_the_lock(self):
        with witnessing() as w:
            cond = make_condition("t.cond")
        ready = threading.Event()

        def waiter():
            with cond:
                ready.set()
                cond.wait(5)

        t = threading.Thread(target=waiter)
        t.start()
        assert ready.wait(5)
        # The waiter is inside cond.wait(); the mutex must be free for us.
        with cond:
            cond.notify()
        t.join(5)
        assert not t.is_alive()
        # One acquisition from each thread plus the waiter's reacquisition.
        assert w.acquired["t.cond"] == 3

    def test_roundtrip_marker_records_held_locks(self):
        with witnessing() as w:
            a = make_lock("t.a")
            b = make_lock("t.b")
            note_roundtrip()
            assert w.roundtrip_held == set()
            with a:
                note_roundtrip()
            with b:
                pass
        assert w.roundtrip_held == {"t.a"}

    def test_snapshot_is_json_shaped(self):
        with witnessing() as w:
            a = make_lock("t.a")
            b = make_lock("t.b")
        with a:
            with b:
                pass
        snap = w.snapshot()
        assert snap["locks"] == ["t.a", "t.b"]
        assert snap["edges"] == {"t.a -> t.b": 1}
        assert set(snap["hold_max_s"]) == {"t.a", "t.b"}

    def test_tracked_lock_protocol(self):
        w = LockWitness()
        lock = TrackedLock("t.a", w)
        assert not lock.locked()
        assert lock.acquire(timeout=1)
        assert lock.locked()
        lock.release()
        assert not lock.locked()
        assert lock.acquire(blocking=False)
        lock.release()
