"""AST-level discovery of locks, acquisitions and lock-relevant events.

This module is the *front half* of the lockcheck static pass: it parses
Python sources (normally the installed ``repro`` package itself) and
produces, per function, a :class:`FunctionSummary` of everything the
back half (:mod:`repro.verify.lockcheck.graph`) needs to build the
lock-order graph and evaluate the lint rules:

* **lock definitions** — calls to the :mod:`repro.runtime.sync`
  factories (``make_lock`` / ``make_rlock`` / ``make_condition``),
  whose mandatory literal name is the lock's identity everywhere
  (static findings, dynamic witness, suppressions);
* **acquisitions** — ``with <lock>:`` blocks and explicit
  ``.acquire()`` calls, each recorded with the set of locks already
  held at that point (the *held-set*), resolved through class
  attributes, module globals, function locals and closure scopes;
* **condition waits** (timed or not), **blocking calls** (``recv``,
  no-arg ``poll``, untimed ``join``, ``sleep``, pipe ``send``) with
  their held-sets;
* **self-attribute writes** with held-sets (for the RacerD-style
  lock-coverage rule);
* **calls** — every call that might resolve to project code, so the
  graph pass can propagate acquisitions interprocedurally;
* **thread entry points** — functions or bound methods passed as
  ``target=`` to ``Thread``/``Process``.

The analysis is deliberately syntactic and conservative: it
over-approximates aliasing (a method call resolves to every project
method of that name) and never executes anything.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

__all__ = [
    "AcquireEvent",
    "BlockingEvent",
    "CallEvent",
    "FunctionSummary",
    "LockDef",
    "ModuleIndex",
    "Site",
    "WaitEvent",
    "WriteEvent",
    "index_package",
    "index_sources",
]

FACTORY_NAMES = frozenset({"make_lock", "make_rlock", "make_condition"})

#: Method names treated as potentially blocking when called with a lock
#: held.  ``join``/``poll`` only count when called without a timeout
#: argument; the others block by nature.
BLOCKING_ALWAYS = frozenset({"recv", "send", "sleep", "communicate"})
BLOCKING_IF_UNTIMED = frozenset({"join", "poll", "get"})

#: Files never analyzed: the sync wrapper itself (its raw ``threading``
#: usage is the one sanctioned exception) and generated/cache dirs.
EXCLUDE_SUFFIXES = ("runtime/sync.py",)


@dataclass(frozen=True)
class Site:
    """A file:line location inside the analyzed tree."""

    path: str
    line: int

    def __str__(self) -> str:
        return f"{self.path}:{self.line}"


@dataclass(frozen=True)
class LockDef:
    """One lock/condition created through a sync factory."""

    name: str  # the literal passed to the factory
    kind: str  # "lock" | "rlock" | "condition"
    site: Site
    owner: str  # "Class.attr", "func.var" or "<module>.var"


@dataclass(frozen=True)
class AcquireEvent:
    lock: str
    site: Site
    held: tuple[tuple[str, int], ...]  # (lock name, acquire line) pairs
    explicit: bool = False  # .acquire() call rather than a with block


@dataclass(frozen=True)
class WaitEvent:
    lock: str  # the condition's lock name
    site: Site
    timed: bool
    held: tuple[tuple[str, int], ...]  # locks held *besides* the condition's


@dataclass(frozen=True)
class BlockingEvent:
    what: str  # e.g. "conn.recv()"
    site: Site
    held: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class CallEvent:
    kind: str  # "self" | "method" | "func"
    name: str  # callee name (method or function)
    cls: str | None  # enclosing class for kind == "self"
    site: Site
    held: tuple[tuple[str, int], ...]
    #: candidate receiver classes inferred from constructor calls at the
    #: receiver's assignment sites; empty = unknown type
    types: tuple[str, ...] = ()
    #: receiver identifier (variable or attribute name) for name-affinity
    #: resolution when the type is unknown
    recv: str = ""


@dataclass(frozen=True)
class WriteEvent:
    attr: str  # self-attribute written
    site: Site
    held: tuple[tuple[str, int], ...]


@dataclass
class FunctionSummary:
    """Everything lock-relevant that one function does."""

    qualname: str  # "path.py:Class.method" / "path.py:fn.<locals>.inner"
    path: str
    name: str  # bare function name
    cls: str | None  # enclosing class, if a method
    line: int
    is_init: bool = False
    acquires: list[AcquireEvent] = field(default_factory=list)
    waits: list[WaitEvent] = field(default_factory=list)
    blocking: list[BlockingEvent] = field(default_factory=list)
    calls: list[CallEvent] = field(default_factory=list)
    writes: list[WriteEvent] = field(default_factory=list)
    releases_in_finally: set[str] = field(default_factory=set)
    explicit_acquires: list[AcquireEvent] = field(default_factory=list)


@dataclass
class ModuleIndex:
    """Aggregated discovery results over a set of modules."""

    locks: dict[str, LockDef] = field(default_factory=dict)  # by lock name
    lock_defs: list[LockDef] = field(default_factory=list)  # every def site
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    methods_by_name: dict[str, list[str]] = field(default_factory=dict)
    class_methods: dict[tuple[str, str], str] = field(default_factory=dict)
    funcs_by_name: dict[str, list[str]] = field(default_factory=dict)
    #: nested (closure) functions by bare name; resolvable only from
    #: their enclosing function's scope, never as attribute calls
    nested_funcs: dict[str, list[str]] = field(default_factory=dict)
    #: every class name defined in the analyzed tree
    classes: set[str] = field(default_factory=set)
    #: (Class, attr) -> candidate classes the attribute may hold,
    #: inferred from constructor calls in assignments
    attr_types: dict[tuple[str, str], set[str]] = field(default_factory=dict)
    entry_points: list[tuple[str, Site]] = field(default_factory=list)
    bare_primitives: list[Site] = field(default_factory=list)
    nonliteral_names: list[Site] = field(default_factory=list)
    #: (Class, attr) -> lock name, across all modules (for with-target
    #: resolution on `self._x` / `obj._x`).
    attr_locks: dict[tuple[str, str], str] = field(default_factory=dict)
    #: lock attrs owned per class: Class -> {attr: lock name}
    class_locks: dict[str, dict[str, str]] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _factory_call(node: ast.AST) -> ast.Call | None:
    """The sync-factory call inside *node*'s subtree, if any."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            fn = sub.func
            name = None
            if isinstance(fn, ast.Name):
                name = fn.id
            elif isinstance(fn, ast.Attribute):
                name = fn.attr
            if name in FACTORY_NAMES:
                return sub
    return None


def _factory_kind(call: ast.Call) -> str:
    fn = call.func
    name = fn.id if isinstance(fn, ast.Name) else fn.attr  # type: ignore[union-attr]
    return {"make_lock": "lock", "make_rlock": "rlock", "make_condition": "condition"}[name]


def _literal_name(call: ast.Call) -> str | None:
    if call.args and isinstance(call.args[0], ast.Constant) and isinstance(
        call.args[0].value, str
    ):
        return call.args[0].value
    return None


def _ctor_types(expr: ast.AST, classes: set[str]) -> set[str]:
    """Project classes an expression *definitely* constructs.

    Structural, not a subtree scan: a plain constructor call yields its
    class; a ternary or ``or``-default yields the union of its branches
    *only if every branch is itself a known constructor* — one unknown
    branch (``self.frontier if ... else CentralFrontier()``) makes the
    whole type unknown, because trusting the partial answer would hide
    the other implementation's acquisitions from the call graph.
    """
    if isinstance(expr, ast.IfExp):
        a = _ctor_types(expr.body, classes)
        b = _ctor_types(expr.orelse, classes)
        return a | b if a and b else set()
    if isinstance(expr, ast.BoolOp):
        branches = [_ctor_types(v, classes) for v in expr.values]
        if all(branches):
            return set().union(*branches)
        return set()
    if isinstance(expr, ast.Call):
        fn = expr.func
        name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
        return {name} if name in classes else set()
    return set()


def _recv_hint(recv: ast.AST) -> str:
    """The receiver's identifier, for name-affinity class matching."""
    if isinstance(recv, ast.Name):
        return recv.id
    if isinstance(recv, ast.Attribute):
        return recv.attr
    if isinstance(recv, ast.Subscript):
        return _recv_hint(recv.value)
    return ""


_BARE_PRIMITIVES = frozenset({"Lock", "RLock", "Condition"})


def _is_bare_primitive(call: ast.Call) -> bool:
    fn = call.func
    if isinstance(fn, ast.Attribute) and fn.attr in _BARE_PRIMITIVES:
        base = fn.value
        return isinstance(base, ast.Name) and base.id == "threading"
    if isinstance(fn, ast.Name) and fn.id in _BARE_PRIMITIVES:
        return True
    return False


class _Scope:
    """Chained function-local maps: ``var -> lock name`` and ``var -> types``."""

    def __init__(self, parent: "_Scope | None" = None) -> None:
        self.parent = parent
        self.local: dict[str, str] = {}
        self.types: dict[str, set[str]] = {}

    def lookup(self, var: str) -> str | None:
        scope: _Scope | None = self
        while scope is not None:
            if var in scope.local:
                return scope.local[var]
            scope = scope.parent
        return None

    def lookup_types(self, var: str) -> set[str]:
        scope: _Scope | None = self
        while scope is not None:
            if var in scope.types:
                return scope.types[var]
            scope = scope.parent
        return set()


# ----------------------------------------------------------------------
# The per-module walker
# ----------------------------------------------------------------------
class _ModuleWalker:
    def __init__(self, path: str, tree: ast.Module, index: ModuleIndex) -> None:
        self.path = path
        self.tree = tree
        self.index = index
        self.module_locks: dict[str, str] = {}  # module-global var -> lock name

    def site(self, node: ast.AST) -> Site:
        return Site(self.path, getattr(node, "lineno", 0))

    # -- pass 0: class names (needed before any type inference) --------
    def collect_classes(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.ClassDef):
                self.index.classes.add(node.name)

    # -- pass 1: definitions -------------------------------------------
    def collect_defs(self) -> None:
        for node in self.tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._collect_assign_def(node, cls=None, var_map=self.module_locks)
            elif isinstance(node, ast.ClassDef):
                self._collect_class_defs(node)
        # Bare-primitive and non-literal-name sweeps are whole-tree.
        for sub in ast.walk(self.tree):
            if isinstance(sub, ast.Call):
                if _is_bare_primitive(sub):
                    self.index.bare_primitives.append(self.site(sub))
                fn = sub.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name in FACTORY_NAMES and _literal_name(sub) is None:
                    self.index.nonliteral_names.append(self.site(sub))

    def _register_lock(self, call: ast.Call, owner: str) -> str | None:
        name = _literal_name(call)
        if name is None:
            return None
        ldef = LockDef(name, _factory_kind(call), self.site(call), owner)
        self.index.lock_defs.append(ldef)
        self.index.locks.setdefault(name, ldef)
        return name

    def _collect_assign_def(self, node: ast.AST, cls: str | None, var_map: dict) -> None:
        """Assignments binding a factory call to a variable or attribute."""
        value = getattr(node, "value", None)
        if value is None:
            return
        call = _factory_call(value)
        if call is None:
            return
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]  # type: ignore[attr-defined]
        for t in targets:
            if isinstance(t, ast.Name):
                owner = f"{cls}.{t.id}" if cls else f"<module>.{t.id}"
                name = self._register_lock(call, owner)
                if name is not None:
                    var_map[t.id] = name
            elif isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name):
                if t.value.id == "self" and cls is not None:
                    name = self._register_lock(call, f"{cls}.{t.attr}")
                    if name is not None:
                        self.index.attr_locks[(cls, t.attr)] = name
                        self.index.class_locks.setdefault(cls, {})[t.attr] = name

    def _collect_class_defs(self, cnode: ast.ClassDef) -> None:
        cls = cnode.name
        for item in cnode.body:
            # Dataclass-style: attr: T = field(default_factory=lambda: make_lock(...))
            if isinstance(item, (ast.Assign, ast.AnnAssign)):
                value = getattr(item, "value", None)
                if value is None:
                    continue
                call = _factory_call(value)
                if call is None:
                    continue
                target = item.targets[0] if isinstance(item, ast.Assign) else item.target
                if isinstance(target, ast.Name):
                    name = self._register_lock(call, f"{cls}.{target.id}")
                    if name is not None:
                        self.index.attr_locks[(cls, target.id)] = name
                        self.index.class_locks.setdefault(cls, {})[target.id] = name
            elif isinstance(item, ast.FunctionDef):
                for stmt in ast.walk(item):
                    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                        self._collect_assign_def(stmt, cls=cls, var_map={})
                        self._collect_attr_types(stmt, cls)

    def _collect_attr_types(self, stmt: ast.AST, cls: str) -> None:
        value = getattr(stmt, "value", None)
        if value is None:
            return
        types = _ctor_types(value, self.index.classes)
        if not types:
            return
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]  # type: ignore[attr-defined]
        for t in targets:
            if (
                isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
            ):
                self.index.attr_types.setdefault((cls, t.attr), set()).update(types)

    # -- pass 2: function summaries ------------------------------------
    def summarize(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.FunctionDef):
                self._summarize_function(node, cls=None, prefix="", scope=_Scope())
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        self._summarize_function(
                            item, cls=node.name, prefix=f"{node.name}.", scope=_Scope()
                        )

    def _summarize_function(
        self, fnode: ast.FunctionDef, cls: str | None, prefix: str, scope: _Scope
    ) -> None:
        qual = f"{self.path}:{prefix}{fnode.name}"
        summary = FunctionSummary(
            qualname=qual,
            path=self.path,
            name=fnode.name,
            cls=cls,
            line=fnode.lineno,
            is_init=fnode.name in ("__init__", "__post_init__"),
        )
        fscope = _Scope(scope)
        walker = _FunctionWalker(self, summary, cls, fscope)
        walker.walk_body(fnode.body)
        self.index.functions[qual] = summary
        if cls is not None:
            self.index.methods_by_name.setdefault(fnode.name, []).append(qual)
            self.index.class_methods[(cls, fnode.name)] = qual
        elif ".<locals>." in qual:
            self.index.nested_funcs.setdefault(fnode.name, []).append(qual)
        else:
            self.index.funcs_by_name.setdefault(fnode.name, []).append(qual)
        # Nested defs become their own summaries, sharing the local scope.
        for nested, ncls in walker.nested:
            self._summarize_function(
                nested, cls=ncls, prefix=f"{prefix}{fnode.name}.<locals>.", scope=fscope
            )


class _FunctionWalker:
    """Walks one function body tracking the held-lock stack."""

    def __init__(
        self,
        mod: _ModuleWalker,
        summary: FunctionSummary,
        cls: str | None,
        scope: _Scope,
    ) -> None:
        self.mod = mod
        self.summary = summary
        self.cls = cls
        self.scope = scope
        self.held: list[tuple[str, int]] = []  # (lock name, acquire line)
        self.nested: list[tuple[ast.FunctionDef, str | None]] = []
        self.finally_depth = 0

    # -- resolution -----------------------------------------------------
    def resolve_lock(self, node: ast.AST) -> str | None:
        """Resolve an expression to a lock name, or None."""
        index = self.mod.index
        if isinstance(node, ast.Name):
            name = self.scope.lookup(node.id)
            if name is not None:
                return name
            return self.mod.module_locks.get(node.id)
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id == "self" and self.cls is not None:
                hit = index.attr_locks.get((self.cls, node.attr))
                if hit is not None:
                    return hit
            # Cross-object attribute: unique attr name across classes.
            candidates = {
                lock
                for (_cls, attr), lock in index.attr_locks.items()
                if attr == node.attr
            }
            if len(candidates) == 1:
                return next(iter(candidates))
            return None
        if isinstance(node, ast.Subscript):
            return self.resolve_lock(node.value)
        return None

    def held_tuple(self) -> tuple[tuple[str, int], ...]:
        return tuple(self.held)

    # -- body walking ---------------------------------------------------
    def walk_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self.walk_stmt(stmt)

    def walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.FunctionDef):
            self.nested.append((stmt, None))
            return
        if isinstance(stmt, ast.ClassDef):
            return  # nested classes: out of scope
        if isinstance(stmt, ast.With):
            self._walk_with(stmt)
            return
        if isinstance(stmt, ast.Try):
            for s in stmt.body:
                self.walk_stmt(s)
            for handler in stmt.handlers:
                for s in handler.body:
                    self.walk_stmt(s)
            for s in stmt.orelse:
                self.walk_stmt(s)
            self.finally_depth += 1
            for s in stmt.finalbody:
                self.walk_stmt(s)
            self.finally_depth -= 1
            return
        # Assignments may bind locks (or typed objects) to locals.
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            value = getattr(stmt, "value", None)
            if value is not None:
                types = _ctor_types(value, self.mod.index.classes)
                if types:
                    targets = (
                        stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    )
                    for t in targets:
                        if isinstance(t, ast.Name):
                            self.scope.types.setdefault(t.id, set()).update(types)
                call = _factory_call(value)
                if call is not None:
                    self.mod._collect_assign_def(stmt, cls=self.cls, var_map={})
                    name = _literal_name(call)
                    if name is not None:
                        targets = (
                            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                        )
                        for t in targets:
                            if isinstance(t, ast.Name):
                                self.scope.local[t.id] = name
            self._record_writes(stmt)
            if value is not None:
                self.scan_expr(value)
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, (ast.If, ast.For, ast.While)):  # pragma: no cover
                    self.walk_stmt(sub)
            return
        if isinstance(stmt, ast.AugAssign):
            self._record_writes(stmt)
            self.scan_expr(stmt.value)
            return
        # Control flow: walk tests/iterables as expressions, bodies as
        # statements with the same held-set (a may-analysis).
        if isinstance(stmt, (ast.If, ast.While)):
            self.scan_expr(stmt.test)
            for s in stmt.body:
                self.walk_stmt(s)
            for s in stmt.orelse:
                self.walk_stmt(s)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.scan_expr(stmt.iter)
            for s in stmt.body:
                self.walk_stmt(s)
            for s in stmt.orelse:
                self.walk_stmt(s)
            return
        if isinstance(stmt, ast.Expr):
            self.scan_expr(stmt.value)
            return
        if isinstance(stmt, (ast.Return, ast.Raise)):
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.expr):
                    self.scan_expr(sub)
            return
        # Anything else: scan expressions generically.
        for sub in ast.iter_child_nodes(stmt):
            if isinstance(sub, ast.expr):
                self.scan_expr(sub)

    def _walk_with(self, stmt: ast.With) -> None:
        acquired: list[str] = []
        for item in stmt.items:
            lock = self.resolve_lock(item.context_expr)
            if lock is not None:
                self.summary.acquires.append(
                    AcquireEvent(lock, self.mod.site(item.context_expr), self.held_tuple())
                )
                self.held.append((lock, getattr(item.context_expr, "lineno", 0)))
                acquired.append(lock)
            else:
                self.scan_expr(item.context_expr)
        for s in stmt.body:
            self.walk_stmt(s)
        for _ in acquired:
            self.held.pop()

    def _record_writes(self, stmt: ast.stmt) -> None:
        if self.summary.is_init:
            return
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for t in targets:
            node = t
            if isinstance(node, ast.Subscript):
                node = node.value
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                self.summary.writes.append(
                    WriteEvent(node.attr, self.mod.site(t), self.held_tuple())
                )

    # -- expression scanning (calls) ------------------------------------
    def scan_expr(self, expr: ast.expr) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._handle_call(node)
            elif isinstance(node, (ast.Lambda,)):
                pass  # lambdas: bodies too dynamic to attribute usefully

    def _handle_call(self, call: ast.Call) -> None:
        fn = call.func
        site = self.mod.site(call)
        held = self.held_tuple()
        # Thread/Process entry points.
        ctor = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
        if ctor in ("Thread", "Process"):
            for kw in call.keywords:
                if kw.arg == "target" and isinstance(kw.value, ast.Name):
                    self.mod.index.entry_points.append((kw.value.id, site))
                elif kw.arg == "target" and isinstance(kw.value, ast.Attribute):
                    # A bound method (``target=self.worker``): by name.
                    self.mod.index.entry_points.append((kw.value.attr, site))
        if not isinstance(fn, ast.Attribute):
            if isinstance(fn, ast.Name):
                if fn.id == "sleep":
                    self._blocking(f"{fn.id}()", site, held)
                self.summary.calls.append(CallEvent("func", fn.id, None, site, held))
            return
        method = fn.attr
        recv = fn.value
        lock = self.resolve_lock(recv)
        has_timeout = bool(call.args) or any(k.arg == "timeout" for k in call.keywords)
        if method == "acquire" and lock is not None:
            ev = AcquireEvent(lock, site, held, explicit=True)
            self.summary.acquires.append(ev)
            self.summary.explicit_acquires.append(ev)
            self.held.append((lock, site.line))
            return
        if method == "release" and lock is not None:
            if self.finally_depth > 0:
                self.summary.releases_in_finally.add(lock)
            for i in range(len(self.held) - 1, -1, -1):
                if self.held[i][0] == lock:
                    del self.held[i]
                    break
            return
        if method == "wait" and lock is not None:
            others = tuple(h for h in held if h[0] != lock)
            self.summary.waits.append(WaitEvent(lock, site, has_timeout, others))
            if others and not has_timeout:
                self._blocking(f"{lock}.wait() [untimed]", site, others)
            return
        if method in BLOCKING_ALWAYS and held:
            self._blocking(f".{method}()", site, held)
        elif method in BLOCKING_IF_UNTIMED and held and not has_timeout and not call.args:
            self._blocking(f".{method}() [untimed]", site, held)
        # Call-graph edges.
        if isinstance(recv, ast.Name) and recv.id == "self" and self.cls is not None:
            self.summary.calls.append(CallEvent("self", method, self.cls, site, held))
        else:
            types = tuple(sorted(self._recv_types(recv)))
            self.summary.calls.append(
                CallEvent("method", method, None, site, held, types, _recv_hint(recv))
            )
        for arg in call.args:
            if isinstance(arg, ast.Call):
                self._handle_call(arg)

    def _recv_types(self, recv: ast.AST) -> set[str]:
        """Candidate project classes for a call receiver (empty = unknown)."""
        if isinstance(recv, ast.Name):
            return self.scope.lookup_types(recv.id)
        if (
            isinstance(recv, ast.Attribute)
            and isinstance(recv.value, ast.Name)
            and recv.value.id == "self"
            and self.cls is not None
        ):
            return self.mod.index.attr_types.get((self.cls, recv.attr), set())
        return set()

    def _blocking(self, what: str, site: Site, held: tuple) -> None:
        self.summary.blocking.append(BlockingEvent(what, site, held))


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def index_sources(sources: dict[str, str]) -> ModuleIndex:
    """Analyze ``{path: source}`` pairs into one :class:`ModuleIndex`."""
    index = ModuleIndex()
    walkers = []
    for path, src in sorted(sources.items()):
        tree = ast.parse(src, filename=path)
        walkers.append(_ModuleWalker(path, tree, index))
    # Three passes: class names feed type inference, definitions across
    # *all* modules must exist before summarizing any (attribute and
    # type resolution are cross-module).
    for walker in walkers:
        walker.collect_classes()
    for walker in walkers:
        walker.collect_defs()
    for walker in walkers:
        walker.summarize()
    return index


def package_sources(root: str | None = None) -> dict[str, str]:
    """Read every ``.py`` under *root* (default: the repro package)."""
    if root is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
    sources: dict[str, str] = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for fname in sorted(filenames):
            if not fname.endswith(".py"):
                continue
            full = os.path.join(dirpath, fname)
            rel = os.path.relpath(full, root).replace(os.sep, "/")
            if any(rel.endswith(suffix) for suffix in EXCLUDE_SUFFIXES):
                continue
            with open(full, encoding="utf-8") as fh:
                sources[rel] = fh.read()
    return sources


def index_package(root: str | None = None) -> ModuleIndex:
    """Analyze the installed ``repro`` package (or *root*)."""
    return index_sources(package_sources(root))
