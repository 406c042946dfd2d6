"""Input staging: whatever the caller hands in, on every backend.

The four drivers share one staging step
(:func:`repro.runtime.shm.staged`): the working copy is made once
— on the heap, or straight onto the shared-memory arena for the process
backend — converting dtype and layout on the way.  These tests feed the
awkward inputs (float32, Fortran order, read-only, non-contiguous)
through ``calu``/``caqr``/``tsqr``/``tslu`` on three backends and
require the reference bits and an untouched input.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core.calu import calu
from repro.core.caqr import caqr
from repro.core.tslu import tslu
from repro.core.tsqr import tsqr
from repro.runtime.process import ProcessExecutor
from repro.runtime.shm import SharedArena

BACKENDS = [
    "threaded",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(
            "fork" not in multiprocessing.get_all_start_methods(),
            reason="process-backend tests require the fork start method",
        ),
    ),
]


def _outputs(driver: str, A, executor, **kw) -> list[np.ndarray]:
    """The driver's factors as a flat list of arrays."""
    if driver == "calu":
        f = calu(A, b=8, tr=3, executor=executor, **kw)
        return [f.lu, f.piv]
    if driver == "tslu":
        return list(tslu(A, tr=3, executor=executor, **kw))
    if driver == "tsqr":
        f = tsqr(A, tr=3, executor=executor, **kw)
        flat = f.store.to_arrays()
        return [f.R] + [flat[k] for k in sorted(flat)]
    f = caqr(A, b=8, tr=3, executor=executor, **kw)
    arrays = [f.packed]
    for store in f.panels:
        flat = store.to_arrays()
        arrays += [flat[k] for k in sorted(flat)]
    return arrays


def _variants():
    base = np.random.default_rng(5).standard_normal((72, 24))
    big = np.random.default_rng(6).standard_normal((144, 48))
    read_only = base.copy()
    read_only.setflags(write=False)
    return {
        "float32": base.astype(np.float32),
        "fortran": np.asfortranarray(base),
        "read_only": read_only,
        "strided": big[::2, ::2],
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant", ["float32", "fortran", "read_only", "strided"])
@pytest.mark.parametrize("driver", ["calu", "caqr", "tsqr", "tslu"])
def test_awkward_inputs_factor_like_their_plain_copy(driver, variant, backend):
    A = _variants()[variant]
    kept = A.copy()
    want = _outputs(driver, np.ascontiguousarray(A).copy(), "threaded")
    got = _outputs(driver, A, backend)
    assert np.array_equal(A, kept), "staging must leave the input alone"
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    if variant == "float32":
        assert got[0].dtype == np.float32


@pytest.mark.parametrize("driver", ["calu", "caqr", "tsqr", "tslu"])
def test_the_working_buffer_is_always_a_copy(driver):
    """No driver factors its input in place: an already C-ordered
    float64 heap matrix, which staging could have used as it is, is
    copied too, and no factor shares memory with it."""
    A = np.random.default_rng(8).standard_normal((72, 24))
    kept = A.copy()
    got = _outputs(driver, A, "threaded")
    assert np.array_equal(A, kept)
    assert not any(np.shares_memory(g, A) for g in got)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process-backend tests require the fork start method",
)
@pytest.mark.parametrize("driver", ["calu", "caqr", "tsqr", "tslu"])
def test_process_backend_stages_the_matrix_exactly_once(driver, monkeypatch):
    """One ``alloc(zero=False)`` + copy onto the arena — no parent-side
    intermediate, no zero-fill that the copy would overwrite."""
    A = np.asfortranarray(np.random.default_rng(9).standard_normal((72, 24)))
    unzeroed = []
    real_alloc = SharedArena.alloc

    def spy(self, shape, dtype=np.float64, *, zero=True):
        if not zero:
            unzeroed.append(tuple(shape))
        return real_alloc(self, shape, dtype, zero=zero)

    def no_place(self, array):
        raise AssertionError("drivers must stage through staged(), not arena.place")

    monkeypatch.setattr(SharedArena, "alloc", spy)
    monkeypatch.setattr(SharedArena, "place", no_place)
    with ProcessExecutor(2) as ex:
        _outputs(driver, A, ex)
    assert unzeroed == [A.shape]
