"""Real-thread execution of task graphs.

The executor mirrors the paper's runtime on actual ``threading``
threads: a shared ready queue (priority with look-ahead, see
:mod:`repro.runtime.scheduler`), workers that pop a ready task, run its
closure, then release successor tasks whose last dependency finished.

NumPy releases the GIL inside its array kernels, so coarse tasks do
overlap on real multicore hardware; on a 1-core CI box this executor
still fully validates the dependency and locking logic (races would
corrupt the factorization, which the test suite cross-checks against
the sequential execution and the process backend).

:class:`ThreadedExecutor` *is* the
:class:`~repro.runtime.engine.ExecutionEngine` — that class under its
public name, with no pool to dispatch to.  Its options (``retry=``,
``fault_plan=``, ``task_timeout=`` / ``stall_timeout=`` /
``deadline=``), ``run(source, journal=None)`` over eager
:class:`~repro.runtime.graph.TaskGraph` and streaming
:class:`~repro.runtime.program.GraphProgram` sources, and the
structured :class:`~repro.resilience.recovery.RuntimeFailure` every
failure surfaces as are documented there, once, for every backend.
"""

from __future__ import annotations

from repro.runtime.engine import ExecutionEngine

__all__ = ["ThreadedExecutor"]

ThreadedExecutor = ExecutionEngine
