"""Lockcheck static pass: unit fixtures, the real repo, suppressions,
and the witness cross-check machinery."""

import pytest

from repro.runtime.sync import LockWitness
from repro.verify.lockcheck import (
    analyze_sources,
    apply_suppressions,
    apply_witness,
    coverage,
    cross_check,
    load_suppressions,
    lock_self_test,
    run_lockcheck,
)
from repro.verify.lockcheck.suppressions import Suppression, SuppressionFile


def _rules(result):
    return sorted(f.rule for f in result.findings)


class TestStaticRules:
    def test_clean_fixture_has_no_findings(self):
        src = """
from repro.runtime.sync import make_lock

class C:
    def __init__(self):
        self._lock = make_lock("t.lock")
        self.n = 0

    def bump(self):
        with self._lock:
            self.n += 1
"""
        result = analyze_sources({"m.py": src})
        assert result.findings == []
        assert result.index.locks["t.lock"].kind == "lock"

    def test_lk001_cycle_with_witness_sites(self):
        src = """
from repro.runtime.sync import make_lock

class C:
    def __init__(self):
        self._a = make_lock("t.a")
        self._b = make_lock("t.b")

    def fwd(self):
        with self._a:
            with self._b:
                pass

    def rev(self):
        with self._b:
            with self._a:
                pass
"""
        result = analyze_sources({"m.py": src})
        cycles = [f for f in result.findings if f.rule == "LK001"]
        assert len(cycles) == 1
        assert cycles[0].severity == "error"
        # Witness path names both file:line pairs of the inversion.
        assert "t.a -> t.b" in cycles[0].message
        assert "t.b -> t.a" in cycles[0].message
        assert "m.py:" in cycles[0].message
        assert result.cycles and set(result.cycles[0]) == {"t.a", "t.b"}

    def test_lk001_interprocedural_cycle(self):
        # The inversion is only visible through a call: fwd holds a and
        # calls helper, which acquires b; rev holds b and calls other,
        # which acquires a.
        src = """
from repro.runtime.sync import make_lock

class C:
    def __init__(self):
        self._a = make_lock("t.a")
        self._b = make_lock("t.b")

    def helper_b(self):
        with self._b:
            pass

    def helper_a(self):
        with self._a:
            pass

    def fwd(self):
        with self._a:
            self.helper_b()

    def rev(self):
        with self._b:
            self.helper_a()
"""
        result = analyze_sources({"m.py": src})
        cycles = [f for f in result.findings if f.rule == "LK001"]
        assert len(cycles) == 1
        assert "via" in cycles[0].message  # the call chain is named

    def test_lk001_self_deadlock(self):
        src = """
from repro.runtime.sync import make_lock

class C:
    def __init__(self):
        self._a = make_lock("t.a")

    def inner(self):
        with self._a:
            pass

    def outer(self):
        with self._a:
            self.inner()
"""
        result = analyze_sources({"m.py": src})
        selfs = [f for f in result.findings if f.rule == "LK001"]
        assert len(selfs) == 1
        assert "re-acquired" in selfs[0].message

    def test_lk001_rlock_reentry_allowed(self):
        src = """
from repro.runtime.sync import make_rlock

class C:
    def __init__(self):
        self._a = make_rlock("t.a")

    def inner(self):
        with self._a:
            pass

    def outer(self):
        with self._a:
            self.inner()
"""
        result = analyze_sources({"m.py": src})
        assert _rules(result) == []

    def test_lk002_blocking_under_lock(self):
        src = """
from repro.runtime.sync import make_lock

class C:
    def __init__(self, conn):
        self._lock = make_lock("t.lock")
        self.conn = conn

    def roundtrip(self, op):
        with self._lock:
            self.conn.send(op)
            return self.conn.recv()
"""
        result = analyze_sources({"m.py": src})
        blocking = [f for f in result.findings if f.rule == "LK002"]
        assert len(blocking) == 2
        assert any(".send()" in f.message for f in blocking)
        assert any(".recv()" in f.message for f in blocking)

    def test_lk003_untimed_wait(self):
        src = """
from repro.runtime.sync import make_condition

class C:
    def __init__(self):
        self._cond = make_condition("t.cond")
        self.ready = False

    def wait_forever(self):
        with self._cond:
            while not self.ready:
                self._cond.wait()

    def wait_bounded(self):
        with self._cond:
            while not self.ready:
                self._cond.wait(0.1)
"""
        result = analyze_sources({"m.py": src})
        waits = [f for f in result.findings if f.rule == "LK003"]
        assert len(waits) == 1
        assert "wait_forever" in waits[0].message

    def test_lk004_acquire_without_finally(self):
        src = """
from repro.runtime.sync import make_lock

_lock = make_lock("t.lock")

def bad():
    _lock.acquire()
    work()
    _lock.release()

def good():
    _lock.acquire()
    try:
        work()
    finally:
        _lock.release()

def work():
    pass
"""
        result = analyze_sources({"m.py": src})
        acq = [f for f in result.findings if f.rule == "LK004"]
        assert len(acq) == 1
        assert ":bad" in acq[0].message

    def test_lk005_inconsistent_coverage(self):
        src = """
from repro.runtime.sync import make_lock

class C:
    def __init__(self):
        self._lock = make_lock("t.lock")
        self.n = 0

    def bump(self):
        with self._lock:
            self.n += 1

    def reset(self):
        self.n = 0
"""
        result = analyze_sources({"m.py": src})
        races = [f for f in result.findings if f.rule == "LK005"]
        assert len(races) == 1
        assert "C.n" in races[0].message and "t.lock" in races[0].message

    def test_lk005_private_helper_called_under_lock_is_covered(self):
        # _apply writes without acquiring, but every call site holds the
        # lock: calling-context propagation must keep this clean.
        src = """
from repro.runtime.sync import make_lock

class C:
    def __init__(self):
        self._lock = make_lock("t.lock")
        self.n = 0

    def _apply(self, d):
        self.n += d

    def bump(self):
        with self._lock:
            self._apply(1)

    def drop(self):
        with self._lock:
            self._apply(-1)
"""
        result = analyze_sources({"m.py": src})
        assert _rules(result) == []

    def test_lk005_init_only_helper_is_covered(self):
        src = """
from repro.runtime.sync import make_lock

class C:
    def __init__(self):
        self._lock = make_lock("t.lock")
        self._load()

    def _load(self):
        self.n = 0

    def bump(self):
        with self._lock:
            self.n += 1
"""
        result = analyze_sources({"m.py": src})
        assert _rules(result) == []

    def test_lk006_bare_primitive(self):
        src = """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
"""
        result = analyze_sources({"m.py": src})
        assert _rules(result) == ["LK006"]

    def test_lk007_nonliteral_name(self):
        src = """
from repro.runtime.sync import make_lock

def build(name):
    return make_lock(name)
"""
        result = analyze_sources({"m.py": src})
        assert _rules(result) == ["LK007"]
        assert result.findings[0].severity == "error"

    def test_condition_aliasing_shares_name(self):
        src = """
from repro.runtime.sync import make_condition, make_lock

lock = make_lock("t.state")
cond = make_condition("t.state", lock)

def use():
    with cond:
        pass
"""
        result = analyze_sources({"m.py": src})
        assert result.findings == []
        assert set(result.index.locks) == {"t.state"}


class TestRepoAnalysis:
    """The installed package itself, the tentpole's acceptance target."""

    def test_repo_is_clean_modulo_suppressions(self):
        report, analysis = run_lockcheck()
        assert report.ok, report.summary() + "\n" + "\n".join(
            str(f) for f in report.gating
        )
        assert analysis.cycles == []

    def test_known_real_edges_are_found(self):
        _, analysis = run_lockcheck()
        edges = analysis.edge_names()
        # StealingFrontier.pop reports a steal; the sync is counted with
        # the remote predecessors', outside the engine condition.
        assert ("engine.state", "counters.counters") not in edges
        # The worker pool respawns crashed workers under the core lock.
        assert ("process.core", "service.respawn") in edges
        # The core lock now covers one pipe write or one drain, nothing
        # else: round-trips and tallies are counted outside it.
        assert ("process.core", "counters.counters") not in edges

    def test_lock_inventory_names_every_layer(self):
        _, analysis = run_lockcheck()
        locks = set(analysis.index.locks)
        assert {
            "engine.state",
            "process.core",
            "counters.counters",
            "counters.active",
            "driver.plans",
            "service.admission",
            "service.breaker",
            "service.respawn",
            "resilience.faults",
            "checkpoint.memory",
            "checkpoint.file",
        } <= locks

    def test_inventory_is_exact(self):
        # Pinned on purpose: a new lock or order edge should be a
        # decision, not a side effect.  The dispatcher added neither;
        # counting steals outside the engine lock removed one edge, the
        # in-memory journal two, and the service's reaper one lock; the
        # plan pool's lock moved to the driver with the pool; the journal
        # and the snapshot writer's locks went with their write sides.
        _, analysis = run_lockcheck()
        assert set(analysis.index.locks) == {
            "checkpoint.file",
            "checkpoint.memory",
            "counters.active",
            "counters.counters",
            "engine.state",
            "process.core",
            "resilience.faults",
            "service.admission",
            "service.breaker",
            "driver.plans",
            "service.respawn",
        }
        assert analysis.edge_names() == {("process.core", "service.respawn")}
        assert analysis.index.locks["driver.plans"].kind == "lock"
        assert not [e for e in analysis.entry_locks if e.startswith("service.py:")]

    def test_entry_points_cover_engine_threads(self):
        _, analysis = run_lockcheck()
        entries = analysis.entry_locks
        # Bound-method targets (``target=self.worker``) are entry points too.
        worker = entries["engine.py:_RealClockRun.worker"]
        dispatcher = entries["engine.py:_RealClockRun.dispatcher"]
        # Only the dispatcher talks to the pool; both share the lifecycle.
        assert "process.core" in dispatcher and "process.core" not in worker
        assert "engine.state" in set(worker) & set(dispatcher)
        # A task's completion writes no journal: its only lock is the engine's.
        assert "resilience.journal" not in set(worker) | set(dispatcher)
        # The watchdog must touch only the engine's own state.
        assert entries["engine.py:_RealClockRun.watchdog"] == ("engine.state",)


class TestSuppressions:
    def test_loader_parses_the_shipped_file(self):
        sup = load_suppressions()
        assert sup.entries, "shipped suppression file should not be empty"
        assert all(s.reason for s in sup.entries)

    def test_loader_rejects_bad_rule(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("BOGUS | pattern | reason\n")
        with pytest.raises(ValueError, match="bad rule id"):
            load_suppressions(str(p))

    def test_loader_rejects_line_pins(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("LK002 | engine.py:42 | reason\n")
        with pytest.raises(ValueError, match="pins a line number"):
            load_suppressions(str(p))

    def test_loader_rejects_missing_reason(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("LK002 | pattern |\n")
        with pytest.raises(ValueError, match="expected"):
            load_suppressions(str(p))

    def test_apply_suppresses_and_flags_stale(self):
        from repro.verify.findings import Finding

        findings = [
            Finding("LK002", "warning", "lockcheck", "[x holding l] blocking call"),
            Finding("LK003", "warning", "lockcheck", "[y wait c] untimed"),
        ]
        sup = SuppressionFile(
            "s.txt",
            [
                Suppression("LK002", "[x holding l]", "intentional", 1),
                Suppression("LK001", "never-matches", "stale entry", 2),
            ],
        )
        kept, notes = apply_suppressions(findings, sup)
        assert [f.rule for f in kept] == ["LK003"]
        assert any("suppressed" in n.message for n in notes)
        assert any("stale suppression" in n.message for n in notes)


class TestWitnessCrossCheck:
    def _two_lock_result(self):
        return analyze_sources(
            {
                "m.py": """
from repro.runtime.sync import make_lock

class C:
    def __init__(self):
        self._a = make_lock("t.a")
        self._b = make_lock("t.b")

    def fwd(self):
        with self._a:
            with self._b:
                pass
"""
            }
        )

    def test_predicted_edge_is_not_a_gap(self):
        result = self._two_lock_result()
        w = LockWitness()
        w.on_acquired("t.a")
        w.on_acquired("t.b")
        w.on_released("t.b", 0.0)
        w.on_released("t.a", 0.0)
        assert cross_check(w, result) == []

    def test_unpredicted_edge_is_lk101(self):
        result = self._two_lock_result()
        w = LockWitness()
        w.on_acquired("t.b")
        w.on_acquired("t.a")
        findings = cross_check(w, result)
        assert [f.rule for f in findings] == ["LK101"]
        assert findings[0].severity == "error"
        assert "t.b -> t.a" in findings[0].message

    def test_roundtrip_held_is_lk102_unless_allowed(self):
        result = self._two_lock_result()
        w = LockWitness()
        w.on_acquired("t.a")
        w.on_roundtrip()
        assert [f.rule for f in cross_check(w, result)] == ["LK102"]
        assert cross_check(w, result, allowed_roundtrip=("t.a",)) == []

    def test_unwitnessed_cycle_downgrades(self):
        result = analyze_sources(
            {
                "m.py": """
from repro.runtime.sync import make_lock

class C:
    def __init__(self):
        self._a = make_lock("t.a")
        self._b = make_lock("t.b")

    def fwd(self):
        with self._a:
            with self._b:
                pass

    def rev(self):
        with self._b:
            with self._a:
                pass
"""
            }
        )
        assert any(f.rule == "LK001" and f.severity == "error" for f in result.findings)
        # A run that never witnessed either order: downgrade to warning.
        downgraded = apply_witness(result, LockWitness())
        cycles = [f for f in downgraded if f.rule == "LK001"]
        assert cycles and all(f.severity == "warning" for f in cycles)
        assert "downgraded" in cycles[0].message
        # A run that witnessed both orders: the error stands.
        w = LockWitness()
        w.on_acquired("t.a")
        w.on_acquired("t.b")
        w.on_released("t.b", 0.0)
        w.on_released("t.a", 0.0)
        w.on_acquired("t.b")
        w.on_acquired("t.a")
        kept = apply_witness(result, w)
        assert any(f.rule == "LK001" and f.severity == "error" for f in kept)

    def test_coverage_counts_only_exercised_edges(self):
        result = self._two_lock_result()
        # Nothing acquired: no edge exercised, vacuous full coverage.
        frac, exercised, missed = coverage(LockWitness(), result)
        assert frac == 1.0 and not exercised
        # Both locks acquired but never nested: the edge was exercised
        # and missed.
        w = LockWitness()
        w.on_acquired("t.a")
        w.on_released("t.a", 0.0)
        w.on_acquired("t.b")
        w.on_released("t.b", 0.0)
        frac, exercised, missed = coverage(w, result)
        assert exercised == {("t.a", "t.b")} and missed == exercised and frac == 0.0
        # Nested acquisition: fully covered.
        w.on_acquired("t.a")
        w.on_acquired("t.b")
        frac, _, missed = coverage(w, result)
        assert frac == 1.0 and not missed


class TestMutationSelfTest:
    def test_self_test_passes(self, capsys):
        assert lock_self_test() == 0
        out = capsys.readouterr().out
        assert "lock self-test ok" in out
        assert "FAIL" not in out
