"""Lock coverage (rule LK005): an attribute written under a lock and outside it.

Lock *order* needs no static pass: every lock is ranked in
:mod:`repro.runtime.sync` and the witness checks ranks on every acquire
of every test.  No rank sees a write that takes no lock at all, so this
RacerD-style rule stays static.  Each top-level class is analysed over
its own ``self.`` calls: its locks are the attributes it assigns from
the sync factories, and a ``self.<attr>`` write is recorded with the
class locks held there.  A private method called only under a lock runs
under it; one called only from the constructor is initialisation.
"""

from __future__ import annotations

import ast
import os

from repro.runtime import sync
from repro.verify.findings import Finding, Report

__all__ = ["check_package", "check_sources", "lock_self_test"]

_FACTORIES = frozenset({"make_lock", "make_condition"})
_INIT = frozenset({"__init__", "__post_init__"})

def _lock_name(node: ast.AST) -> str | None:
    """The literal name of the sync-factory call inside *node*, if any."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and sub.args and isinstance(sub.args[0], ast.Constant):
            fn = sub.func
            callee = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if callee in _FACTORIES:
                return str(sub.args[0].value)
    return None


def _targets(stmt: ast.Assign | ast.AnnAssign | ast.AugAssign) -> list[ast.expr]:
    return stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]


def _self_attr(node: ast.AST) -> str | None:
    """``attr`` for ``self.attr`` or ``self.attr[...]``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.attr if node.value.id == "self" else None
    return None


class _Method:
    """One method's self-attribute writes and self-calls, with held locks."""

    def __init__(self, path: str, locks: dict[str, str], fn: ast.FunctionDef) -> None:
        self.path, self.locks, self.name = path, locks, fn.name
        self.writes: list[tuple[str, str, frozenset[str]]] = []  # attr, site, held
        self.calls: list[tuple[str, frozenset[str]]] = []  # callee, held
        self.held: list[str] = []
        self.body(fn.body)

    def body(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # runs later, under whatever its caller holds
            taken: list[str] = []
            if isinstance(stmt, ast.With):
                for item in stmt.items:
                    lock = self.locks.get(_self_attr(item.context_expr) or "")
                    if lock is None:
                        self.scan(item.context_expr)
                    else:
                        taken.append(lock)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                for target in _targets(stmt):
                    for el in target.elts if isinstance(target, ast.Tuple) else [target]:
                        if (attr := _self_attr(el)) is not None:
                            site = f"{self.path}:{el.lineno}"
                            self.writes.append((attr, site, frozenset(self.held)))
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.scan(child)
            self.held += taken
            for field in ("body", "orelse", "finalbody"):
                self.body(getattr(stmt, field, []))
            for handler in getattr(stmt, "handlers", []):
                self.body(handler.body)
            del self.held[len(self.held) - len(taken) :]

    def scan(self, expr: ast.expr) -> None:
        """Record self-calls; follow explicit ``acquire``/``release`` of a class lock."""
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            method, recv = node.func.attr, node.func.value
            lock = self.locks.get(_self_attr(recv) or "")
            if lock is not None and method == "acquire":
                self.held.append(lock)
            elif lock is not None and method == "release" and lock in self.held:
                del self.held[len(self.held) - 1 - self.held[::-1].index(lock)]
            elif isinstance(recv, ast.Name) and recv.id == "self":
                self.calls.append((method, frozenset(self.held)))


def _class_findings(path: str, cls: ast.ClassDef) -> list[Finding]:
    locks: dict[str, str] = {}  # attr -> lock name
    for node in ast.walk(cls):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            name = _lock_name(node.value)
            for target in _targets(node) if name is not None else []:
                # self._lock = make_lock(...), or a dataclass field's
                # default_factory=lambda: make_lock(...) in the class body
                attr = _self_attr(target) or (
                    target.id if isinstance(target, ast.Name) and node in cls.body else None
                )
                if attr is not None:
                    locks[attr] = name
    if not locks:
        return []
    methods = [_Method(path, locks, f) for f in cls.body if isinstance(f, ast.FunctionDef)]
    sites: dict[str, list[tuple[str, frozenset[str]]]] = {}
    for m in methods:
        for callee, held in m.calls:
            sites.setdefault(callee, []).append((m.name, held))
    init_only, grew = set(_INIT), True
    while grew:
        grown = {
            m.name
            for m in methods
            if sites.get(m.name) and all(c in init_only for c, _ in sites[m.name])
        }
        init_only, grew = init_only | grown, not grown <= init_only

    own = set(locks.values())
    writes: dict[str, list[tuple[str, frozenset[str], str]]] = {}
    for m in methods:
        if m.name in init_only:
            continue
        callers = sites.get(m.name, []) if m.name.startswith("_") else []
        ctx = frozenset.intersection(*(h for _, h in callers)) if callers else frozenset()
        for attr, site, held in m.writes:
            if attr not in locks:
                writes.setdefault(attr, []).append((site, (held | ctx) & own, m.name))
    findings = []
    for attr, entries in sorted(writes.items()):
        locked = [e for e in entries if e[1]]
        unlocked = [e for e in entries if not e[1]]
        if locked and unlocked:
            (lsite, lheld, lfunc), (usite, _, ufunc) = locked[0], unlocked[0]
            message = (
                f"[{cls.name}.{attr} vs {min(lheld)}] attribute written under the lock "
                f"({cls.name}.{lfunc} at {lsite}) and outside it ({cls.name}.{ufunc} at "
                f"{usite}) — lock-coverage inconsistency (possible data race)"
            )
            findings.append(Finding("LK005", "warning", "lockcov", message))
    return findings


def check_sources(sources: dict[str, str]) -> list[Finding]:
    """LK005 findings over ``{path: source}``."""
    findings: list[Finding] = []
    for path, src in sorted(sources.items()):
        for node in ast.parse(src, filename=path).body:
            if isinstance(node, ast.ClassDef):
                findings += _class_findings(path, node)
    return findings


def check_package() -> Report:
    """The LK005 pass over every module of the ``repro`` package."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sources: dict[str, str] = {}
    for dirpath, _, filenames in os.walk(root):
        for fname in filenames:
            if fname.endswith(".py"):
                full = os.path.join(dirpath, fname)
                with open(full, encoding="utf-8") as fh:
                    sources[os.path.relpath(full, root).replace(os.sep, "/")] = fh.read()
    report = Report("lockcov")
    report.extend("lockcov", check_sources(sources))
    return report


_FIXTURE = '''\
from repro.runtime.sync import make_lock


class Pool:
    def __init__(self):
        self._core = make_lock("process.core")
        self._respawn = make_lock("service.respawn")
        self.alive = self.spawned = 0

    def heal(self):
        with self._core:
            self.alive += 1
            with self._respawn:
                self.spawned += 1
'''

_INVERSION = '''
    def budget_sweep(self):
        with self._respawn:
            with self._core:
                self.alive += 0
'''

_UNLOCKED_WRITE = '''
    def reset(self):
        self.alive = 0
'''


def _inversion_error() -> str:
    """Run the inverted fixture under a witness; the rank violation it raised."""
    ns: dict = {}
    exec(compile(_FIXTURE + _INVERSION, "fixture_mut.py", "exec"), ns)
    with sync.witnessing() as witness:
        pool = ns["Pool"]()
    pool.heal()  # core, then respawn: in rank order
    try:
        pool.budget_sweep()
    except sync.LockOrderError as exc:
        return str(exc) if witness.violations == [str(exc)] else ""
    return ""


def lock_self_test(verbose: bool = False) -> int:
    """Run the lock mutation self-test; returns a process exit code."""
    pristine = [str(f) for f in check_sources({"fixture.py": _FIXTURE})]
    mutant_src = _FIXTURE + _UNLOCKED_WRITE
    site = f"fixture_mut.py:{len(mutant_src.splitlines())}"  # the injected write
    found = [str(f) for f in check_sources({"fixture_mut.py": mutant_src})]
    error = _inversion_error()
    write_ok = len(found) == 1 and site in found[0] and "Pool.alive" in found[0]
    order_ok = "'process.core'" in error and "'service.respawn'" in error
    legs = (
        (not pristine, "pristine fixture is clean", pristine),
        (write_ok, f"unlocked write detected as exactly one LK005 at {site}", found),
        (order_ok, "lock-order inversion raised as a rank violation naming both locks", error),
    )
    for ok, what, got in legs:
        print(f"lock self-test {'ok' if ok else 'FAIL'}: {what}")
        if verbose or not ok:
            print(f"  got: {got}")
    return 0 if all(ok for ok, _, _ in legs) else 1
