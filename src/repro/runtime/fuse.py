"""Task fusion: decouple the unit of dispatch from the unit of semantics.

On the paper's tall-skinny regime a panel decomposes into many *tiny*
tasks — TSLU/TSQR leaves and merge ladders, thin ``trsm``/``gemm``
updates — each running for microseconds.  Per-task dispatch cost
(scheduler bookkeeping on the threaded backend, a pipe round-trip per
descriptor on the process backend) then dominates the kernels
themselves.  This module collapses such tasks into **super-tasks**
after the builders run, so the unit the executor schedules (and the
unit the worker pool receives per pipe write) is sized to the hardware
while the task graph the builders emit — and everything proved about
it — is unchanged in meaning:

* a super-task's closure runs its members' closures in original task
  order (a valid schedule: every intra-group dependency points from a
  lower to a higher tid);
* a super-task's descriptor is ``("fused", {"ops": [...]})`` — the
  members' descriptors, executed back-to-back by one worker over the
  shared arena with **one** pipe round-trip (see
  :func:`repro.runtime.ops.run_op`);
* its declared footprint is the union of the members' footprints and
  its dependencies are the members' out-of-group dependencies, so the
  static race proof, the DAG lint and the dynamic footprint sanitizer
  in :mod:`repro.verify` apply to the fused graph unmodified;
* health guards chain in member order and run once per super-task;
  journal, retry, deadline and fault-injection semantics all act at
  super-task granularity.

**Which tasks fuse.**  Groups grow by contracting dependency edges of
the condensed graph, greedily and deterministically, up to *max_ops*
members.  An edge ``u -> v`` is contracted only when no *other* path
``u`` |rarr| ``v`` exists — the classic condition under which edge
contraction keeps a DAG acyclic.  That single rule subsumes chain
fusion (``trsm`` + its row of ``gemm`` updates), in-tree fusion (a
panel's merge ladder, then the leaves once all their consumers are in
the group) and column fusion (a ``U`` task plus its column of
updates).  Because contraction preserves acyclicity and every original
edge survives as a condensed edge, every conflicting pair of
super-tasks inherits a happens-before path from the original proof —
fused graphs stay race-free *by construction*, and ``repro.verify``
re-proves it from scratch.

Groups never mix dispatch modes (members must uniformly carry
``meta["op"]`` descriptors, and uniformly carry closures), never cross
window boundaries of a streaming :class:`GraphProgram` (fusion is a
per-window rewrite, so fused streamed and fused eager builds stay
task-for-task identical), and never include bookkeeping (``X``) tasks
— checkpoints and permutation epilogues keep their identity, names and
journal semantics.

Granularity is a tunable: ``max_ops=1`` is the identity, larger values
trade intra-panel parallelism for dispatch savings.  The autotuner in
:mod:`repro.machine.autotune` picks it per (shape, b, Tr) from the
calibrated machine model and the measured pipe round-trip cost.
"""

from __future__ import annotations

import heapq

from repro.runtime.graph import TaskGraph
from repro.runtime.program import GraphProgram, as_program
from repro.runtime.task import FusedCost, Task, TaskKind

__all__ = ["FUSED_KERNEL", "fuse_program", "fusable_task"]

#: Kernel name carried by super-task costs.  Not in the kernel table on
#: purpose: a fused cost is the member sum, not a closed form (lint skips
#: it; the machine model prices the ``FusedCost``'s members).
FUSED_KERNEL = "fused"


def fusable_task(task: Task) -> bool:
    """Whether *task* may join a super-task.

    Bookkeeping (``X``) tasks — checkpoint snapshots, permutation
    epilogues — and tasks without a declared footprint stay singletons:
    their names are resume keys and their side effects (disk, journal)
    must not ride inside a batched descriptor.
    """
    return task.kind is not TaskKind.X and task.has_footprint


def _chain_fns(fns):
    def fused_fn() -> None:
        for fn in fns:
            fn()

    return fused_fn


def _chain_guards(guards):
    """Run every member guard; a fatal verdict wins, else the first event."""

    def fused_guard():
        first = None
        for guard in guards:
            verdict = guard()
            if verdict is not None:
                if verdict.fatal:
                    return verdict
                if first is None:
                    first = verdict
        return first

    return fused_guard


class _Grouping:
    """Condensed view of one window: groups of task ids plus group edges.

    Group ids are the minimum member tid, so ids are stable under
    contraction and iteration in id order is deterministic.
    """

    def __init__(self, graph: TaskGraph, start: int, end: int) -> None:
        self.members: dict[int, list[int]] = {t: [t] for t in range(start, end)}
        self.gpreds: dict[int, set[int]] = {t: set() for t in range(start, end)}
        self.gsuccs: dict[int, set[int]] = {t: set() for t in range(start, end)}
        self.fusable: dict[int, bool] = {}
        self.has_op: dict[int, bool] = {}
        self.has_fn: dict[int, bool] = {}
        for t in range(start, end):
            task = graph.tasks[t]
            self.fusable[t] = fusable_task(task)
            self.has_op[t] = "op" in task.meta
            self.has_fn[t] = task.fn is not None
            for p in graph.preds[t]:
                if p >= start:
                    self.gpreds[t].add(p)
                    self.gsuccs[p].add(t)

    def _alternate_path(self, u: int, v: int) -> bool:
        """Is ``v`` reachable from ``u`` other than via the direct edge?"""
        stack = [s for s in self.gsuccs[u] if s != v]
        seen = set(stack)
        while stack:
            x = stack.pop()
            if x == v:
                return True
            for s in self.gsuccs[x]:
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        return False

    def _contract(self, u: int, v: int) -> int:
        """Merge groups *u* and *v* (an edge ``u -> v``); returns the id."""
        keep, drop = (u, v) if u < v else (v, u)
        self.members[keep].extend(self.members.pop(drop))
        for mapping in (self.fusable, self.has_op, self.has_fn):
            mapping.pop(drop)
        preds = (self.gpreds[keep] | self.gpreds.pop(drop)) - {keep, drop}
        succs = (self.gsuccs[keep] | self.gsuccs.pop(drop)) - {keep, drop}
        self.gpreds[keep] = preds
        self.gsuccs[keep] = succs
        for p in preds:
            self.gsuccs[p].discard(drop)
            self.gsuccs[p].add(keep)
        for s in succs:
            self.gpreds[s].discard(drop)
            self.gpreds[s].add(keep)
        return keep

    def fuse(self, max_ops: int) -> None:
        """Greedy deterministic edge contraction up to *max_ops* members."""
        worklist = sorted(self.members)
        for v in worklist:
            if v not in self.members:
                continue  # already merged into an earlier group
            merged = True
            while merged:
                merged = False
                if not self.fusable[v]:
                    break
                for u in sorted(self.gpreds[v]):
                    if not self.fusable[u]:
                        continue
                    if self.has_op[u] != self.has_op[v] or self.has_fn[u] != self.has_fn[v]:
                        continue
                    if len(self.members[u]) + len(self.members[v]) > max_ops:
                        continue
                    if self._alternate_path(u, v):
                        continue
                    v = self._contract(u, v)
                    merged = True
                    break

    def emission_order(self) -> list[int]:
        """Kahn order over groups, ties broken by group id (min tid)."""
        indeg = {g: len(ps) for g, ps in self.gpreds.items()}
        heap = [g for g, d in indeg.items() if d == 0]
        heapq.heapify(heap)
        order: list[int] = []
        while heap:
            g = heapq.heappop(heap)
            order.append(g)
            for s in sorted(self.gsuccs[g]):
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(heap, s)
        if len(order) != len(self.members):
            raise ValueError("fusion produced a cyclic condensed graph (bug)")
        return order


def _append_group(
    source: TaskGraph, member_tids: list[int], target: TaskGraph, mapping: dict[int, int]
) -> int:
    """Append one group (in source-tid order) to *target*; update *mapping*."""
    member_tids = sorted(member_tids)
    group = set(member_tids)
    deps = sorted(
        {
            mapping[p]
            for t in member_tids
            for p in source.preds[t]
            if p not in group
        }
    )
    if len(member_tids) == 1:
        task = source.tasks[member_tids[0]]
        new_tid = target.add(
            task.name,
            task.kind,
            task.cost,
            fn=task.fn,
            deps=deps,
            priority=task.priority,
            iteration=task.iteration,
            idempotent=task.idempotent,
            **task.meta,
        )
        mapping[task.tid] = new_tid
        return new_tid

    tasks = [source.tasks[t] for t in member_tids]
    first = tasks[0]
    largest = max(tasks, key=lambda t: (t.cost.flops, t.cost.words))
    cost = FusedCost(
        FUSED_KERNEL,
        m=largest.cost.m,
        n=largest.cost.n,
        k=largest.cost.k,
        flops=sum(t.cost.flops for t in tasks),
        words=sum(t.cost.words for t in tasks),
        library=first.cost.library,
        members=tuple(t.cost for t in tasks),  # what the machine model prices
    )
    meta: dict = {
        "reads": frozenset().union(*(t.reads for t in tasks)),
        "writes": frozenset().union(*(t.writes for t in tasks)),
        # Member names, in execution order: what the trace/journal
        # tooling needs to relate a super-task back to the paper's DAG.
        "fused": tuple(t.name for t in tasks),
    }
    fn = None
    if all(t.fn is not None for t in tasks):
        fn = _chain_fns([t.fn for t in tasks])
    if all("op" in t.meta for t in tasks):
        meta["op"] = (FUSED_KERNEL, {"ops": [t.meta["op"] for t in tasks]})
    guards = [t.meta["health"] for t in tasks if "health" in t.meta]
    if guards:
        meta["health"] = _chain_guards(guards)
    corrupts = [t.meta["corrupt"] for t in tasks if "corrupt" in t.meta]
    if corrupts:
        meta["corrupt"] = _chain_fns(corrupts)
    name = "fused{" + "+".join(t.name for t in tasks) + "}"
    new_tid = target.add(
        name,
        first.kind,
        cost,
        fn=fn,
        deps=deps,
        priority=max(t.priority for t in tasks),
        iteration=first.iteration,
        idempotent=all(t.idempotent for t in tasks),
        **meta,
    )
    for t in member_tids:
        mapping[t] = new_tid
    return new_tid


def _fuse_range(
    source: TaskGraph,
    start: int,
    end: int,
    target: TaskGraph,
    mapping: dict[int, int],
    max_ops: int,
) -> None:
    grouping = _Grouping(source, start, end)
    grouping.fuse(max_ops)
    for gid in grouping.emission_order():
        _append_group(source, grouping.members[gid], target, mapping)


def fuse_program(source, *, max_ops: int = 8) -> GraphProgram:
    """Wrap *source* (a program or eager graph) in a fusing program.

    The returned :class:`GraphProgram` has the same name, window count
    and look-ahead as *source*; emitting window *w* first emits the
    source window, then appends its fused rewrite.  Cross-window
    dependencies are remapped through the accumulated member-to-super
    mapping, so they land on the right super-tasks.  ``max_ops <= 1``
    returns *source* unchanged (fusion disabled).
    """
    source = as_program(source)
    if max_ops <= 1:
        return source
    mapping: dict[int, int] = {}

    def emit(window, graph, tracker) -> None:
        if window < source.emitted:
            start, end = source.windows[window]
        else:
            start = len(source.graph.tasks)
            source.emit_next()
            end = len(source.graph.tasks)
        _fuse_range(source.graph, start, end, graph, mapping, max_ops)

    return GraphProgram(source.name, source.n_windows, emit, lookahead=source.lookahead)
