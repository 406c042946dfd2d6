"""Source-shape guards: one task form, one driver, one executor, one plane.

Each test greps the package source for a shape an earlier
simplification removed — an ``op_sync`` mirror, a shm fork in
``core/``, a lazy import in ``ops.py``, a second out-of-core driver,
the eager ``build_*_graph`` wrappers, a mirrored pipeline step, a
second compiled form, an engine built per run, a clock switch, a
second scheduler, a second allocator or ``attach_array``, a kernel
selector, a numeric or faulty simulator, an option no caller sets, a
kernel no caller calls, a NumPy LU in the tournament — so it cannot
come back unnoticed.  The patterns are regular expressions over single
lines, as ``grep -E`` reads them.
"""

import dataclasses
import inspect
import pathlib
import re

import pytest

import repro
from repro import kernels, linalg
from repro.baselines.lapack_lu import getf2_lu, getrf_lu, getrf_program
from repro.baselines.lapack_qr import geqr2_qr, geqrf_program, geqrf_qr
from repro.baselines.tiled_lu import tiled_lu
from repro.baselines.tiled_qr import tiled_qr
from repro.core import driver, outofcore
from repro.core.calu import CALUFactorization, calu, calu_program
from repro.core.caqr import caqr, caqr_program
from repro.core.tslu import PanelWorkspace, add_tslu_tasks, tslu
from repro.core.tsqr import add_tsqr_tasks, tsqr
from repro.kernels import lu as lu_kernels
from repro.kernels.lu import getrf, select_pivots
from repro.kernels.qr import geqrf
from repro.linalg import SolveReport
from repro.resilience.events import EVENT_KINDS
from repro.resilience.health import validate_matrix
from repro.runtime.process import ProcessExecutor, _WorkerPool
from repro.runtime.shm import staged
from repro.runtime.simulated import SimulatedExecutor
from repro.runtime.trace import Trace
from repro.service.service import ServiceConfig

SRC = pathlib.Path(repro.__file__).parent


def grep(pattern: str, *paths: str) -> list[str]:
    """``path:line: text`` of every line matching *pattern* under
    *paths* (files or directories, relative to the package)."""
    hits = []
    for rel in paths:
        root = SRC / rel
        for f in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            for n, line in enumerate(f.read_text(encoding="utf-8").splitlines(), 1):
                if re.search(pattern, line):
                    hits.append(f"{f.relative_to(SRC).as_posix()}:{n}: {line.strip()}")
    return hits


# One task form: every kernel step is one op of runtime/ops.py.


def test_no_op_sync_mirror():
    assert grep(r"op_sync", ".") == []


def test_no_shm_fork_in_core():
    assert grep(r"shm is not None", "core") == []


def test_no_lazy_imports_in_ops():
    assert grep(r"^\s+(from|import) ", "runtime/ops.py") == []


# Out of core is a plane: outofcore.py emits no task and calls no
# kernel -- it stages, binds and compiles.


def test_outofcore_emits_no_task():
    assert grep(r"add_task|GraphProgram\(|reduction_schedule", "core/outofcore.py") == []


def test_outofcore_calls_no_kernel():
    assert grep(r"(from|import) repro\.kernels", "core/outofcore.py") == []


# One driver: the eager build_*_graph wrappers and the second autotune
# module stay deleted, the pipeline's steps occur in core/driver.py
# only, and the service keeps no mirror of them.


def test_no_eager_graph_wrappers():
    assert grep(r"def build_(calu|caqr|getrf|geqrf|tiled_lu|tiled_qr)_graph", ".") == []


def test_no_second_autotune_module():
    assert not (SRC / "core" / "autotune.py").exists(), "core/autotune.py is back"


def test_pipeline_steps_only_in_the_driver():
    hits = grep(r"checkpoint\.prepare\(|restore_matrix\(", "core")
    assert [h for h in hits if not h.startswith("core/driver.py:")] == []


def test_service_mirrors_no_pipeline_step():
    assert grep(r"_finish_solve|_guard_finite|_assemble_piv", "service") == []


# One compiled form: stage -> build is core/driver.py's compile() only.
# The service caches its Plans and makes one engine per request; out of
# core compiles over its binding.  One pool: the idle plans wait in
# core/driver.py's PlanPool; the service keeps no list of them and no
# checkout protocol.


def test_service_stages_and_builds_nothing():
    pattern = (
        r"SharedArena\(|ShmBinding\(|HeapBinding\(|\.program\(|guard_finite\(|"
        r"decision\.event\(|\b_idle\b|_plans_out|_checkout_plan|_checkin_plan"
    )
    assert grep(pattern, "service") == []


def test_service_makes_one_engine():
    hits = grep(r"ExecutionEngine\(", "service")
    assert len(hits) <= 1, hits


# One executor: the public executors are the engine (or subclass it)
# and the simulator owns its clock -- nobody builds an engine per run,
# no clock switch comes back, and every run pops the one ready queue
# (no work-stealing frontier, no hand-rolled Direct TSQR loop).


def test_no_engine_built_per_run():
    files = [f"runtime/{m}.py" for m in ("threaded", "process", "simulated")]
    assert grep(r"ExecutionEngine\(", *files) == []


def test_no_second_scheduler_or_direct_tsqr():
    pattern = (
        r"WorkStealingExecutor|StealingFrontier|CentralFrontier|new_frontier|"
        r"counts_placement|direct_tsqr"
    )
    assert grep(pattern, ".") == []


def test_no_clock_switch():
    assert grep(r"clock=", "runtime") == []


# One plane: SharedArena is a TileStore (no forwarding class), the
# allocator's helpers, attach_array and the leaf-V view (alloc_v: every
# plane keeps V packed in the panel) exist once, and process.py makes no
# store and no binding (staged does).


def test_no_forwarding_tile_store():
    assert grep(r"ArenaTileStore", ".") == []


@pytest.mark.parametrize("fn", ["attach_array", "spec_nbytes", "_aligned", "alloc_v"])
def test_plane_helper_defined_once(fn):
    hits = grep(rf"def {fn}\(", "runtime")
    assert len(hits) == 1, hits


def test_process_backend_makes_no_store_or_binding():
    assert grep(r"SharedArena\(|ShmBinding\(|HeapBinding\(", "runtime/process.py") == []


# One kernel per task slot: no driver, builder or baseline selects
# among kernels -- no leaf_kernel= knob, no table of kernel choices, no
# panel= kernel on the blocked baselines.


def test_no_kernel_selector():
    pattern = r"leaf_kernel|leaf_kernels|TREE_KERNELS|PANEL_KERNELS|_SELECTORS"
    assert grep(pattern, ".") == []
    for fn in (getrf, geqrf, getrf_lu, geqrf_qr):
        assert "panel" not in inspect.signature(fn).parameters, fn.__qualname__


# A kernel nothing calls is gone: the finalize installs the last
# election's factors, so there is no unpivoted getf2, and getf2 makes its
# rank-1 update in place, so there is no ger.  The finalize keeps the
# paper's ``"getf2_nopiv"`` Cost and profile key (a string, not a call).


def test_no_unpivoted_getf2_or_rank1_kernel():
    assert grep(r"def (getf2_nopiv|ger)\b|\b(getf2_nopiv|ger)\(", ".") == []
    for name in ("getf2_nopiv", "ger"):
        assert not hasattr(kernels, name), name


# Every tournament election is LAPACK ``?getrf``: the task bodies and
# the selection step name no NumPy LU (a leaf's ``Cost`` keeps the
# paper's ``"rgetf2"`` in the builder, a string, not a call).  A panel
# the replay cannot repair fails its finalize: there is no GEPP
# fallback, and no ``degraded`` verdict it alone could report (the
# service breaker's ``"degraded"`` routing mode is another matter).


def test_no_numpy_lu_in_the_tournament():
    assert grep(r"rgetf2", "runtime/ops.py") == []
    assert grep(r"\bgetf2\b", "runtime/ops.py") == []
    assert "rgetf2" not in inspect.getsource(select_pivots)
    assert not hasattr(lu_kernels, "LEAF")
    assert list(inspect.signature(select_pivots).parameters) == ["block"]
    assert "degraded" not in EVENT_KINDS and "refine" not in EVENT_KINDS
    assert not hasattr(Trace, "degradations") and not hasattr(PanelWorkspace, "degraded")
    for cls in (CALUFactorization, SolveReport):
        assert "degraded_panels" not in {f.name for f in dataclasses.fields(cls)}, cls


# The simulator prices, the engine computes: the simulated executor
# takes a machine and nothing else, faults are injected only where code
# runs, the channel is reliable, and the panel drivers do not forward to
# the out-of-core ones.


def test_simulator_prices_and_only_the_engine_injects_faults():
    assert list(inspect.signature(SimulatedExecutor.__init__).parameters) == ["self", "machine"]
    for fn in (tsqr, tslu):
        knobs = {"store", "memory_budget", "spill_dir"} & set(inspect.signature(fn).parameters)
        assert not knobs, fn.__qualname__
    for fn in (calu_program, caqr_program, add_tslu_tasks, add_tsqr_tasks):
        assert "arity" not in inspect.signature(fn).parameters, fn.__qualname__
    words = "virtual_faults|on_message|msg_drop_rate|msg_corrupt_rate|max_retransmits|n_retransmits"
    pattern = rf"\b({words})\b"  # bounded: factorization_messages_ca is no hit
    assert grep(pattern, ".") == []


# An option that only one value is ever passed for is that value: no
# in-place staging, no non-finite input, no off switch for the
# tournament replay, no service forwarding in linalg, and none of the
# service knobs that nothing set.  The §V ``update_width`` stays on the
# builder, where the experiments set it, and left the driver, where
# nothing did.

DELETED_OPTIONS = {
    "overwrite",
    "check_finite",
    "require_finite",
    "tournament_recompute",
    "recompute",
    "service",
    "deadline_s",
    "start_method",
    "panel_kernel",
}
DELETED_FIELDS = {
    "default_deadline_s",
    "retry_backoff_s",
    "retry_jitter",
    "breaker_probes",
    "respawn_window_s",
    "start_method",
}


def test_no_option_without_a_caller():
    fns = (
        calu, caqr, tsqr, tslu, outofcore.tsqr_ooc, outofcore.tslu_ooc,
        driver.factorize, driver.compile, staged, validate_matrix,
        linalg.solve, linalg.lstsq, ProcessExecutor.__init__, _WorkerPool.__init__,
        calu_program, add_tslu_tasks,
        getf2_lu, getrf_lu, geqr2_qr, geqrf_qr, tiled_lu, tiled_qr,
        getrf_program, geqrf_program,
    )
    for fn in fns:
        left = DELETED_OPTIONS & set(inspect.signature(fn).parameters)
        assert not left, (fn.__qualname__, left)
    for fn in (calu, linalg.solve):
        assert "update_width" not in inspect.signature(fn).parameters, fn.__qualname__
    assert "update_width" in inspect.signature(calu_program).parameters
    assert not DELETED_FIELDS & {f.name for f in dataclasses.fields(ServiceConfig)}
    assert grep(r"allow_recompute", ".") == []
