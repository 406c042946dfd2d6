"""Out-of-core TSQR/TSLU: parity with in-memory, traffic, memory caps."""

import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.analysis.io_model import panel_io_ca_flat, panel_io_tsqr_flat
from repro.core.calu import calu_program
from repro.core.caqr import caqr
from repro.core.layout import BlockLayout
from repro.core.outofcore import (
    MatrixSource,
    as_source,
    plan_chunks,
    tslu_ooc,
    tsqr_ooc,
)
from repro.core.trees import TreeKind
from repro.core.tslu import tslu
from repro.core.tsqr import tsqr
from repro.counters import counting
from repro.kernels.lu import piv_to_perm
from repro.resilience import FaultPlan
from repro.resilience.recovery import RuntimeFailure
from repro.runtime.shm import SharedArena
from repro.runtime.threaded import ThreadedExecutor
from repro.runtime.tilestore import StreamedBinding

RNG = np.random.default_rng(7)


# ---------------------------------------------------------------------------
# Planning and sources
# ---------------------------------------------------------------------------


def test_as_source_forms():
    A = RNG.standard_normal((10, 3))
    s = as_source(A)
    assert s.shape == (10, 3)
    np.testing.assert_array_equal(s.fill(2, 5), A[2:5])
    s2 = as_source(((10, 3), lambda r0, r1: A[r0:r1]))
    assert isinstance(s2, MatrixSource) and s2.shape == (10, 3)
    with pytest.raises(ValueError, match="2-D"):
        as_source(np.zeros(5))


def test_plan_chunks_budget_bounds_block_height():
    n = 8
    budget = 3 * 4 * n * n * 8  # room for 4 block-rows per resident block
    chunks = plan_chunks(1000, n, memory_budget=budget, n_workers=1)
    assert all(c.rows <= 4 * n for c in chunks)
    assert chunks[-1].r1 == 1000
    # Explicit tr pins the exact in-memory chunking.
    assert [(c.r0, c.r1) for c in plan_chunks(1000, n, tr=4)] == [
        (0, 256), (256, 512), (512, 768), (768, 1000)
    ]


# ---------------------------------------------------------------------------
# Bitwise parity with the in-memory drivers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("store_kind", ["mmap", "shm"])
def test_tsqr_ooc_bitwise_parity(store_kind):
    m, n, tr = 900, 12, 5
    A = RNG.standard_normal((m, n))
    f_mem = tsqr(A, tr=tr, tree=TreeKind.FLAT)
    Amem = caqr(A, b=n, tr=tr, tree=TreeKind.FLAT).packed  # the packed reference panel
    with tsqr_ooc(A, tr=tr, store=store_kind) as f_ooc:
        np.testing.assert_array_equal(f_mem.R, f_ooc.R)
        np.testing.assert_array_equal(Amem, f_ooc.panel())
        x = RNG.standard_normal(m)
        np.testing.assert_array_equal(f_mem.apply_qt(x), f_ooc.apply_qt(x))
        np.testing.assert_array_equal(f_mem.apply_q(x), f_ooc.apply_q(x))
        Q = f_ooc.q_explicit()
        assert np.allclose(Q @ f_ooc.R, A)
        assert np.allclose(Q.T @ Q, np.eye(n))


@pytest.mark.parametrize("store_kind", ["mmap", "shm"])
def test_tslu_ooc_bitwise_parity(store_kind):
    m, n, tr = 900, 12, 5
    A = RNG.standard_normal((m, n))
    lu_mem, piv_mem = tslu(A, tr=tr, tree=TreeKind.FLAT)
    with tslu_ooc(A, tr=tr, store=store_kind) as res:
        np.testing.assert_array_equal(lu_mem, res.lu())
        np.testing.assert_array_equal(piv_mem, res.piv)
        np.testing.assert_array_equal(res.lu_rows(100, 200), lu_mem[100:200])


def test_tslu_ooc_binary_tree_matches_in_memory():
    # The candidate reduction happens in RAM, so any tree is allowed
    # out of core; parity must hold tree for tree.
    m, n, tr = 700, 8, 6
    A = RNG.standard_normal((m, n))
    lu_mem, piv_mem = tslu(A, tr=tr, tree=TreeKind.BINARY)
    with tslu_ooc(A, tr=tr, tree=TreeKind.BINARY) as res:
        np.testing.assert_array_equal(lu_mem, res.lu())
        np.testing.assert_array_equal(piv_mem, res.piv)


@pytest.mark.parametrize("store_kind", ["mmap", "shm"])
def test_parity_when_tail_merging_leaves_fewer_chunks_than_tr(store_kind):
    # m = 4n + 3: the 3-row tail folds into its neighbour, so TSQR runs
    # 4 leaves for tr = 5 — the program must get the requested tr.
    n, tr = 12, 5
    m = 4 * n + 3
    A = RNG.standard_normal((m, n))
    f_mem = tsqr(A, tr=tr, tree=TreeKind.FLAT)
    Amem = caqr(A, b=n, tr=tr, tree=TreeKind.FLAT).packed  # the packed reference panel
    with tsqr_ooc(A, tr=tr, store=store_kind) as f_ooc:
        assert len(f_ooc.chunks) != tr
        np.testing.assert_array_equal(f_mem.R, f_ooc.R)
        np.testing.assert_array_equal(Amem, f_ooc.panel())
    lu_mem, piv_mem = tslu(A, tr=tr, tree=TreeKind.FLAT)
    with tslu_ooc(A, tr=tr, store=store_kind) as res:
        np.testing.assert_array_equal(lu_mem, res.lu())
        np.testing.assert_array_equal(piv_mem, res.piv)


def test_float32_stays_float32_out_of_core():
    """A float32 panel is staged, streamed and factored in float32, as
    the in-memory drivers factor it (float64 runs keep the parity tests
    above bit for bit)."""
    A = RNG.standard_normal((4000, 32)).astype(np.float32)
    f_mem = tsqr(A, tr=4)
    bound = 10 * A.shape[0] * np.finfo(np.float32).eps * np.linalg.norm(A, 2)
    with tsqr_ooc(A, memory_budget=200_000) as f:
        assert f.R.dtype == f.panel().dtype == np.float32
        assert np.abs(np.abs(f.R) - np.abs(f_mem.R)).max() <= bound
    with tsqr_ooc(A, tr=4) as f:  # the in-memory chunking: the in-memory bits
        np.testing.assert_array_equal(f.R, f_mem.R)


def test_generator_source_never_materializes_panel():
    m, n = 2000, 6

    def fill(r0, r1):
        out = np.empty((r1 - r0, n))
        for i in range(r0, r1):
            out[i - r0] = np.random.default_rng(1000 + i).standard_normal(n)
        return out

    with tsqr_ooc(((m, n), fill), memory_budget=40 * n * n * 8) as f:
        G = np.zeros((n, n))
        for r0 in range(0, m, 500):
            blk = fill(r0, r0 + 500)
            G += blk.T @ blk
        # R'R = A'A: verifies R without ever holding A.
        assert np.allclose(f.R.T @ f.R, G)


def test_check_finite_during_staging():
    A = RNG.standard_normal((100, 4))
    A[63, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        tsqr_ooc(A, tr=2)
    with pytest.raises(ValueError, match="non-finite"):
        tslu_ooc(A, tr=2)


def test_corrupted_tournament_is_replayed_out_of_core():
    # Rung 1 of the recovery ladder crosses the store boundary: the
    # finalize streams the leaf windows once more and restores the
    # fault-free pivots, bit for bit.
    m, n, tr = 900, 12, 5
    A = RNG.standard_normal((m, n))
    lu_mem, piv_mem = tslu(A, tr=tr, tree=TreeKind.BINARY)
    plan = FaultPlan(seed=1, corrupt_rate={"P": 0.5, "*": 0.0}, max_faults=2)
    with SharedArena() as tiles:
        spec = tiles.spec(tiles.place(A))
        binding = StreamedBinding(tiles, spec, max_rows=m // tr)
        program, panels = calu_program(
            BlockLayout(m, n, n), tr, TreeKind.BINARY, A=binding.A, store=binding
        )
        before = tiles.io.read_bytes
        trace = ThreadedExecutor(2, fault_plan=plan).run(program)
        (ws,) = panels
        assert ws.recomputed
        counts = trace.resilience_summary()
        assert counts["fault_corrupt"] >= 1 and counts["recompute"] == 1
        # One extra panel read: tournament + replay + L solves < 4 passes.
        assert 3 * A.nbytes - n * n * 8 <= tiles.io.read_bytes - before < 3.2 * A.nbytes
        np.testing.assert_array_equal(lu_mem, tiles.load(spec))
        np.testing.assert_array_equal(piv_mem, ws.piv)


@pytest.mark.parametrize("guards", [True, False], ids=["guarded", "unguarded"])
def test_non_finite_streamed_panel_fails_its_finalize(guards):
    # The replay streams the leaf windows again; a NaN stored in one of
    # them after staging leaves nothing clean to replay from, so the
    # finalize fails the run as it does in memory.
    m, n, tr = 900, 12, 5
    with SharedArena() as tiles:
        placed = tiles.place(RNG.standard_normal((m, n)))
        window = tiles.spec(placed[720:900])
        rows = tiles.load(window)
        rows[5, 3] = np.nan
        tiles.store(window, rows)
        binding = StreamedBinding(tiles, tiles.spec(placed), max_rows=m // tr)
        program, _ = calu_program(
            BlockLayout(m, n, n), tr, TreeKind.BINARY, A=binding.A, store=binding, guards=guards
        )
        with pytest.raises(RuntimeFailure) as ei:
            ThreadedExecutor(2).run(program)
    assert ei.value.failure_kind == "health"
    assert ei.value.task == "F[0]"


# ---------------------------------------------------------------------------
# Measured traffic vs the I/O model
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algo", ["tsqr", "tslu"])
def test_streamed_traffic_within_model_bounds(algo):
    m, n = 4000, 16
    budget = 8 * n * n * 8  # tiny fast memory: forces many leaf blocks
    A = RNG.standard_normal((m, n))
    with counting() as c:
        if algo == "tsqr":
            fact = tsqr_ooc(A, memory_budget=budget, n_workers=1)
        else:
            fact = tslu_ooc(A, memory_budget=budget, n_workers=1)
        fact.destroy()
    # Factor-phase traffic: the models price a panel already in slow
    # memory, so the staging write (m*n words) is not theirs.
    measured_words = (c.store_read_bytes + c.store_write_bytes) / 8 - m * n
    form = panel_io_tsqr_flat if algo == "tsqr" else panel_io_ca_flat
    predicted = form(m, n, budget // 8)
    assert predicted < 2.0 * m * n * 3  # sanity: model is in streaming regime
    ratio = measured_words / predicted
    assert 0.95 <= ratio <= 1.05, f"{algo}: measured/predicted = {ratio:.3f}"


def test_streamed_traffic_exact():
    """Store bytes of a pinned plan, as integers from the closed forms."""
    m, n, tr = 4000, 16, 7
    A = RNG.standard_normal((m, n))
    word, blk = 8, n * n * 8
    with counting() as c:
        with tsqr_ooc(A, tr=tr, n_workers=1) as f:
            leaves = len(f.chunks)
    # Staging + every leaf written back + each leaf's R block by the merge.
    assert c.store_write_bytes == 2 * m * n * word + leaves * blk
    # Every leaf read + each R block by the merge + the final R.
    assert c.store_read_bytes == m * n * word + (leaves + 1) * blk
    with counting() as c:
        with tslu_ooc(A, tr=tr, n_workers=1) as res:
            swapped = len(np.union1d(np.arange(n), res.piv)) * n * word
            solves = sum(chunk.r1 > n for chunk in res.chunks)
    # Staging + the rows the swaps touch + the L rows below the pivot block.
    assert c.store_write_bytes == m * n * word + swapped + (m - n) * n * word
    # Tournament pass + swapped rows + L rows, the pivot block once per
    # L solve and once for the finalize's health guard.
    assert c.store_read_bytes == (
        m * n * word + swapped + (m - n) * n * word + (solves + 1) * blk
    )


# ---------------------------------------------------------------------------
# Memory-capped subprocess: the panel truly never fits
# ---------------------------------------------------------------------------

_CAPPED_SCRIPT = textwrap.dedent(
    """
    import resource, sys
    import numpy as np
    from repro.analysis.io_model import panel_io_ca_flat, panel_io_tsqr_flat
    from repro.core.outofcore import tsqr_ooc, tslu_ooc
    from repro.counters import counting
    from repro.kernels.lu import piv_to_perm

    m, n = 320_000, 32
    budget = 4 << 20          # 4 MiB fast-memory budget for the planner
    headroom = 64 << 20       # allowance over baseline VSZ (thread stack,
                              # allocator slack, transient mmap windows)
    panel_bytes = m * n * 8   # 78 MiB: exceeds the headroom, so the panel
                              # provably never exists in the address space

    def fill(r0, r1):
        # Pure function of the absolute row index: strides are aligned
        # to multiples of `step` so any chunking sees the same rows.
        out = np.empty((r1 - r0, n))
        step = 4096
        s = (r0 // step) * step
        while s < r1:
            blk = np.random.default_rng(s).standard_normal((min(step, m - s), n))
            a0, a1 = max(r0, s), min(r1, s + step)
            out[a0 - r0 : a1 - r0] = blk[a0 - s : a1 - s]
            s += step
        return out

    # Warm up lazy allocations (BLAS buffers, pyc imports), then cap the
    # address space: from here on, materializing the panel dies.
    tsqr_ooc(((4 * n, n), fill), tr=2).destroy()
    with open("/proc/self/statm") as fh:
        vsz_pages = int(fh.read().split()[0])
    cap = vsz_pages * resource.getpagesize() + headroom
    assert panel_bytes > headroom, "panel must not fit in the allowance"
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    with counting() as c:
        f = tsqr_ooc(((m, n), fill), memory_budget=budget, n_workers=1)
    # Gram check: R'R == A'A without ever holding A.
    G = np.zeros((n, n))
    for r0 in range(0, m, 8192):
        blk = fill(r0, min(m, r0 + 8192))
        G += blk.T @ blk
    assert np.allclose(f.R.T @ f.R, G), "R fails the Gram identity"
    f.destroy()
    words = (c.store_read_bytes + c.store_write_bytes) / 8 - m * n  # minus staging
    ratio = words / panel_io_tsqr_flat(m, n, budget // 8)
    assert 0.95 <= ratio <= 1.05, f"tsqr traffic ratio {ratio:.3f}"

    with counting() as c:
        lu = tslu_ooc(((m, n), fill), memory_budget=budget, n_workers=1)
    perm = piv_to_perm(lu.piv, m)
    U = np.triu(lu.lu_rows(0, n))
    # Spot-check PA = LU on a window strictly below the pivot block.
    r0, r1 = 100_000, 100_064
    Lw = lu.lu_rows(r0, r1)
    rows = np.empty((r1 - r0, n))
    for i in range(r0, r1):
        src = int(perm[i])
        rows[i - r0] = fill(src, src + 1)[0]
    assert np.allclose(Lw @ U, rows), "PA != LU on sampled window"
    lu.destroy()
    words = (c.store_read_bytes + c.store_write_bytes) / 8 - m * n  # minus staging
    ratio = words / panel_io_ca_flat(m, n, budget // 8)
    assert 0.95 <= ratio <= 1.05, f"tslu traffic ratio {ratio:.3f}"
    print("CAPPED-OK")
    """
)


@pytest.mark.slow
@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS semantics are Linux-specific")
def test_memory_capped_factorization():
    """Factor a 78 MiB panel in a child whose address space may grow by
    at most 192 MiB over baseline: only the streaming path survives."""
    import os

    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_SCRIPT],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        env=env,
        timeout=900,
    )
    assert proc.returncode == 0, f"capped child failed:\n{proc.stdout}\n{proc.stderr}"
    assert "CAPPED-OK" in proc.stdout


def test_tslu_ooc_piv_semantics():
    # Same contract as tslu: A[perm] == L @ U.
    m, n = 300, 6
    A = RNG.standard_normal((m, n))
    with tslu_ooc(A, tr=3) as res:
        lu = res.lu()
        perm = piv_to_perm(res.piv, m)
        L = np.tril(lu[:n], -1) + np.eye(n)
        U = np.triu(lu[:n])
        full_L = np.vstack([L, lu[n:]])
        assert np.allclose(full_L @ U, A[perm])
