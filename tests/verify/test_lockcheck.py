"""Lock discipline: the rank order (dynamic, under a witness), the LK005
lock-coverage pass (static), the real lock inventory, and the mutation
self-test.

Lock order is checked where it happens: every lock name is ranked in
``repro.runtime.sync.LOCK_ORDER`` and a tracked acquire that breaks the
rank raises ``LockOrderError`` in the acquiring thread.  The fixtures
below are executed (not analysed) under a witness for that half.
"""

import ast
import multiprocessing
import os
import pathlib
import traceback

import pytest

import repro
from repro.runtime import sync
from repro.runtime.process import _WorkerPool
from repro.runtime.sync import LockOrderError, LockWitness, witnessing
from repro.service.supervisor import RespawnGovernor
from repro.verify.lockcov import check_package, check_sources, lock_self_test
from tests.conftest import NESTINGS, assert_lock_sanity

SRC = pathlib.Path(repro.__file__).parent

#: Every lock name the package creates, pinned on purpose: a new lock
#: should be a decision, not a side effect.
INVENTORY = {
    "checkpoint.file",
    "checkpoint.memory",
    "counters.active",
    "counters.counters",
    "driver.plans",
    "engine.state",
    "process.core",
    "resilience.faults",
    "service.admission",
    "service.breaker",
    "service.respawn",
}


@pytest.fixture(autouse=True)
def _ranked_test_names(monkeypatch):
    """Rank the fixtures' lock names after every real one: t.a < t.b."""
    for i, name in enumerate(("t.lock", "t.state", "t.a", "t.b")):
        monkeypatch.setitem(sync.RANKS, name, len(sync.LOCK_ORDER) + i)


def _load(src, filename="m.py"):
    """Execute a fixture module; its locks report to the returned witness."""
    ns = {}
    with witnessing() as w:
        exec(compile(src, filename, "exec"), ns)
        obj = ns["C"]()
    return obj, w


def _factory_names(path):
    """``(name or None, line)`` of every sync-factory call in *path*."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            fn = node.func
            callee = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if callee in ("make_lock", "make_condition"):
                arg = node.args[0] if node.args else None
                literal = isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                out.append((arg.value if literal else None, node.lineno))
    return out


def _bare_primitives(src):
    """Lines of bare ``threading.Lock/RLock/Condition`` constructions."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(src))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("Lock", "RLock", "Condition")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "threading"
    ]


_TWO_LOCKS = """
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


class TestStaticRules:
    """LK005 (static) and the rank rule that replaced LK001/LK006/LK007."""

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
        assert check_sources({"m.py": src}) == []

    def test_lk001_cycle_with_witness_sites(self):
        c, w = _load(_TWO_LOCKS)
        c.fwd()  # a then b: in rank order
        with pytest.raises(LockOrderError) as info:
            c.rev()
        assert "'t.a'" in str(info.value) and "'t.b'" in str(info.value)
        # The error points at the inverted acquisition itself.
        lines = _TWO_LOCKS.splitlines()
        rev = lines.index("    def rev(self):")
        site = 1 + lines.index("            with self._a:", rev)
        frame = [f for f in traceback.extract_tb(info.tb) if f.filename == "m.py"][-1]
        assert (frame.name, frame.lineno) == ("rev", site)
        assert w.violations == [str(info.value)]
        assert w.edge_names() == {("t.a", "t.b")}
        assert not c._a.locked() and not c._b.locked()

    def test_lk001_interprocedural_cycle(self):
        # The inversion is only visible through a call: rev holds b and
        # calls helper_a, which acquires a.
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
        c, w = _load(src)
        c.fwd()
        with pytest.raises(LockOrderError) as info:
            c.rev()
        chain = [f.name for f in traceback.extract_tb(info.tb) if f.filename == "m.py"]
        assert chain == ["rev", "helper_a"]  # the call chain is named
        assert len(w.violations) == 1

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
        c, w = _load(src)
        with pytest.raises(LockOrderError, match="'t.a' .* while holding 't.a'"):
            c.outer()  # re-acquisition raises instead of hanging
        assert not c._a.locked()

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
        races = check_sources({"m.py": src})
        assert [f.rule for f in races] == ["LK005"]
        assert "C.n" in races[0].message and "t.lock" in races[0].message
        assert "m.py:11" in races[0].message and "m.py:14" in races[0].message

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
        self._lock.acquire()
        try:
            self.n -= 1
        finally:
            self._lock.release()
"""
        assert check_sources({"m.py": src}) == []
        # One unlocked call site is enough to expose the helper's write.
        exposed = src + "\n    def peek(self):\n        self._apply(0)\n"
        assert [f.rule for f in check_sources({"m.py": exposed})] == ["LK005"]

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
        assert check_sources({"m.py": src}) == []

    def test_lk006_bare_primitive(self):
        assert _bare_primitives("import threading\nx = threading.Lock()\n") == [2]
        # Every lock in the package is named (and so ranked), except the
        # witness's own bookkeeping inside runtime/sync.py.
        bare = {
            str(path.relative_to(SRC)): lines
            for path in SRC.rglob("*.py")
            if (lines := _bare_primitives(path.read_text(encoding="utf-8")))
        }
        assert set(bare) <= {"runtime/sync.py"}, bare

    def test_lk007_nonliteral_name(self):
        # A name outside the rank table raises where the lock is made,
        # literal or not, armed or not.
        def build(name):
            return sync.make_lock(name)

        assert build("engine.state") is not None
        with pytest.raises(ValueError, match="'t.unranked' has no rank"):
            build("t.unranked")
        with witnessing(), pytest.raises(ValueError, match="has no rank"):
            sync.make_condition("t.unranked")

    def test_condition_aliasing_shares_name(self):
        src = """
from repro.runtime.sync import make_condition, make_lock

class C:
    def __init__(self):
        self._lock = make_lock("t.state")
        self._cond = make_condition("t.state", self._lock)
        self.n = 0

    def bump(self):
        with self._cond:
            self.n += 1

    def drop(self):
        with self._lock:
            self.n -= 1
"""
        assert check_sources({"m.py": src}) == []
        c, w = _load(src)
        c.bump()
        c.drop()
        assert w.acquired == {"t.state": 2}


class TestRepoAnalysis:
    """The installed package itself."""

    def test_repo_is_clean_modulo_suppressions(self):
        # There are no suppressions: the LK005 pass must be clean as is.
        report = check_package()
        assert report.ok and report.findings == [], "\n".join(map(str, report.findings))

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="worker-pool tests require the fork start method",
    )
    def test_known_real_edges_are_found(self):
        # The worker pool heals a dead worker under its core lock, and
        # the heal asks the respawn governor: the one real nesting,
        # witnessed, in rank order, and nothing held across a round-trip.
        with witnessing() as w:
            pool = _WorkerPool(1, respawn_governor=RespawnGovernor())
        try:
            pool._ensure(0)
            os.kill(pool._procs[0].pid, 9)
            pool._procs[0].join(timeout=5)
            assert pool.ensure_alive(0)
        finally:
            pool.close()
        assert w.edge_names() == NESTINGS == {("process.core", "service.respawn")}
        assert_lock_sanity(w)

    def test_lock_inventory_names_every_layer(self):
        made = {name for path in SRC.rglob("*.py") for name, _ in _factory_names(path)}
        assert made == INVENTORY
        assert not [
            (str(path.relative_to(SRC)), line)
            for path in SRC.rglob("*.py")
            for name, line in _factory_names(path)
            if name is None
        ], "every lock name is a literal at its creation site"

    def test_inventory_is_exact(self):
        assert set(sync.LOCK_ORDER) == INVENTORY
        assert len(sync.LOCK_ORDER) == len(INVENTORY)
        assert all(sync.RANKS[a] < sync.RANKS[b] for a, b in NESTINGS)


class TestWitnessCrossCheck:
    def test_predicted_edge_is_not_a_gap(self):
        # An in-rank nesting is recorded as an edge and is no violation.
        w = LockWitness()
        w.check("process.core")
        w.on_acquired("process.core")
        try:
            w.check("service.respawn")
            w.on_acquired("service.respawn")
            w.on_released("service.respawn", 0.0)
        finally:
            w.on_released("process.core", 0.0)
        assert w.edge_names() == {("process.core", "service.respawn")}
        assert w.violations == []

    def test_unpredicted_edge_is_lk101(self):
        # The reverse nesting is a violation: recorded, raised, no edge.
        w = LockWitness()
        w.on_acquired("service.respawn")
        try:
            with pytest.raises(LockOrderError):
                w.check("process.core")
        finally:
            w.on_released("service.respawn", 0.0)
        assert len(w.violations) == 1
        assert "'process.core'" in w.violations[0] and "'service.respawn'" in w.violations[0]
        assert w.edge_names() == set()

    def test_roundtrip_held_is_lk102_unless_allowed(self):
        w = LockWitness()
        w.on_acquired("process.core")
        try:
            w.on_roundtrip()
        finally:
            w.on_released("process.core", 0.0)
        with pytest.raises(AssertionError, match="round-trip"):
            assert_lock_sanity(w)
        assert_lock_sanity(w, allowed_roundtrip=("process.core",))


class TestMutationSelfTest:
    def test_self_test_passes(self, capsys):
        assert lock_self_test() == 0
        out = capsys.readouterr().out
        assert out.count("lock self-test ok") == 3
        assert "FAIL" not in out
