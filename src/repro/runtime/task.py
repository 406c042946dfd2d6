"""Task and cost descriptors.

A :class:`Task` couples an optional numeric closure (``fn``) with a
:class:`Cost` descriptor.  Builders in :mod:`repro.core` and
:mod:`repro.baselines` emit the *same* graph in two modes:

* numeric — ``fn`` mutates shared NumPy buffers; the threaded executor
  runs it for real results;
* symbolic — ``fn is None``; only the cost metadata exists, which lets
  the simulated executor price paper-scale problems (``10^6 x 500``)
  without doing the arithmetic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from repro.analysis.flops import KERNELS

__all__ = ["TaskKind", "Cost", "Task"]


class TaskKind(enum.Enum):
    """Task classes of the paper's Algorithms 1 and 2.

    ``P``  panel/TSLU/TSQR reduction step (paper: red),
    ``L``  block column of L via ``dtrsm`` (paper: yellow),
    ``U``  permute + block row of U via ``dtrsm``,
    ``S``  trailing-matrix update via ``dgemm``/``dlarfb`` (paper: green),
    ``X``  bookkeeping (final left permutations, copies).
    """

    P = "P"
    L = "L"
    U = "U"
    S = "S"
    X = "X"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Cost:
    """What a task costs, independent of who executes it.

    Parameters
    ----------
    kernel:
        Kernel name: a key of the one kernel table
        :data:`repro.analysis.flops.KERNELS` (``"gemm"``, ``"getf2"``,
        ``"rgetf2"``, ``"geqrt"``, ``"tpqrt_ts"``, ...), which also keys
        the machine's kernel profiles
        (:class:`~repro.machine.model.KernelProfile`).
        Builders price a task with :meth:`of`; the raw constructor is for
        hand-built graphs.
    m, n, k:
        Kernel dimensions; their meaning follows the kernel's BLAS/LAPACK
        signature (``k`` is the inner/panel dimension for ``gemm``-like
        kernels and 0 when unused).
    flops:
        Floating-point operations the task performs.
    words:
        Words (8-byte elements) of memory traffic the task generates;
        drives the roofline/bandwidth model and the communication
        counters.  For zero-flop tasks (row swaps, candidate copies)
        this is the entire cost.
    library:
        Which "library personality" prices this task on the machine
        model: ``"repro"`` (our kernels), ``"mkl"``, ``"acml"``,
        ``"plasma"``.  Lets one machine model rank all the competitors
        the paper compares.
    """

    kernel: str
    m: int = 0
    n: int = 0
    k: int = 0
    flops: float = 0.0
    words: float = 0.0
    library: str = "repro"

    @classmethod
    @lru_cache(maxsize=4096)  # a panel's tiles repeat a few shapes; a Cost is immutable
    def of(
        cls,
        kernel: str,
        m: int,
        n: int,
        k: int = 0,
        *,
        count: int = 1,
        extra_words: float = 0.0,
        words: float | None = None,
        library: str = "repro",
    ) -> Cost:
        """The cost of *count* unit operations of *kernel* on ``(m, n, k)``.

        Flops and words come from the kernel table (*count*: a flat-tree
        merge batches one unit operation per source); *extra_words* adds
        traffic the kernel's operands do not account for (row swaps
        riding on a solve) and *words* replaces the table's count
        outright.
        """
        flops, unit_words = KERNELS[kernel]
        if words is None:
            words = unit_words(m, n, k) * count + extra_words
        return cls(kernel, m, n, k, flops(m, n, k) * count, words, library)


@dataclass
class Task:
    """One schedulable unit of work.

    ``priority`` is a static hint: larger runs earlier among *ready*
    tasks (dependencies always dominate).  Builders encode the paper's
    look-ahead rule by boosting the panel tasks and the updates of
    block column ``K+1``.

    ``idempotent`` declares that re-running ``fn`` after a partial or
    failed attempt is safe (the task reads shared state and overwrites
    only its own output, e.g. a TSLU leaf copying candidate rows into
    its workspace slot).  The retry machinery in
    :mod:`repro.resilience.recovery` only re-runs idempotent tasks —
    or failures injected before the closure ran.

    ``meta`` carries optional resilience hooks: ``meta["health"]`` (a
    zero-argument guard returning ``None`` or a
    :class:`~repro.resilience.events.ResilienceEvent`) and
    ``meta["corrupt"]`` (a zero-argument fault-injection target).

    ``meta["op"]``, when present, is the ``(opname, payload)``
    descriptor ``fn`` runs (:mod:`repro.runtime.ops`) over
    process-shared buffer specs: a
    :class:`~repro.runtime.process.ProcessExecutor` ships it to a
    worker instead of calling ``fn``.

    ``meta["reads"]`` / ``meta["writes"]`` are the task's *declared
    footprint*: frozensets of block keys recorded by
    :class:`~repro.runtime.graph.BlockTracker` (or set directly by a
    builder for tasks with hand-wired dependencies).  The tracker
    derives every edge from them, and the dynamic sanitizer
    (:mod:`repro.verify.sanitize`) cross-checks them against the array
    regions a closure actually mutates.  ``meta["col"]`` marks the
    target block column of U/S update tasks (the look-ahead window
    ``tests/core/test_priorities.py`` checks; the golden graphs hash
    it).
    """

    tid: int
    name: str
    kind: TaskKind
    cost: Cost
    fn: Callable[[], None] | None = None
    priority: float = 0.0
    iteration: int = 0
    idempotent: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def reads(self) -> frozenset:
        """Declared read footprint (empty when never recorded)."""
        return self.meta.get("reads", frozenset())

    @property
    def writes(self) -> frozenset:
        """Declared write footprint (empty when never recorded)."""
        return self.meta.get("writes", frozenset())

    @property
    def has_footprint(self) -> bool:
        """True when a read/write footprint was declared for this task."""
        return "reads" in self.meta or "writes" in self.meta

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task({self.tid}, {self.name!r}, kind={self.kind.value}, prio={self.priority:g})"
