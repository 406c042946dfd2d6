"""Shared fixtures and assertion helpers for the test suite.

The suite tests a threaded runtime, so a scheduling bug shows up as a
*hang*, not a failure.  Two defenses make hangs diagnosable and bounded:
``faulthandler`` is armed so a stuck run can dump every thread's stack,
and an autouse fixture gives each test a hard wall-clock timeout
(``PYTEST_SINGLE_TIMEOUT`` seconds, default 120) after which the stacks
are dumped and the process exits non-zero instead of blocking CI
forever.
"""

from __future__ import annotations

import faulthandler
import functools
import os

import numpy as np
import pytest

from repro import close_plans
from repro.kernels.lu import piv_to_perm

faulthandler.enable()

_TEST_TIMEOUT_S = float(os.environ.get("PYTEST_SINGLE_TIMEOUT", "120"))


@pytest.fixture(autouse=True)
def _per_test_timeout():
    """Hard per-test timeout: dump all thread stacks and exit on a hang."""
    if _TEST_TIMEOUT_S > 0:
        faulthandler.dump_traceback_later(_TEST_TIMEOUT_S, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def _no_plan_outlives_its_test():
    """The drivers keep a finished plan for the next call of its shape;
    a test must neither find one an earlier test left (it would skip the
    staging and emission it means to observe) nor leave arenas behind."""
    yield
    close_plans()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def assert_lu_ok(A0: np.ndarray, lu: np.ndarray, piv: np.ndarray, tol: float = 1e-12) -> None:
    """Check ``A0[perm] == L U`` for a packed in-place LU factorization."""
    m, n = A0.shape
    r = min(m, n)
    L = np.tril(lu[:, :r], -1)
    np.fill_diagonal(L, 1.0)
    U = np.triu(lu[:r, :])
    perm = piv_to_perm(piv, m)
    err = np.linalg.norm(A0[perm] - L @ U) / max(np.linalg.norm(A0), 1e-300)
    assert err < tol, f"LU backward error {err:.3e} exceeds {tol:.1e}"


@functools.lru_cache(maxsize=1)
def _static_lock_analysis():
    from repro.verify.lockcheck import analyze

    return analyze()


def assert_lock_sanity(
    witness,
    *,
    allowed_roundtrip: tuple[str, ...] = (),
    hold_bound_s: float = 1.0,
    ipc_hold_bound_s: float = 30.0,
    min_coverage: float = 0.9,
) -> None:
    """Cross-check a dynamic lock witness against the static lockcheck graph.

    Asserts the run produced no acquisition-order edges outside the
    static graph (LK101), no locks held across process-pool round-trips
    beyond *allowed_roundtrip* (LK102), no lock held anywhere near a
    watchdog threshold (IPC-spanning locks in *allowed_roundtrip* get
    the larger bound, since they legally cover a worker round-trip and
    its kill/respawn recovery), and that at least *min_coverage* of the
    static lock-order edges the workload exercised were actually
    witnessed.
    """
    from repro.verify.lockcheck import coverage, cross_check

    result = _static_lock_analysis()
    findings = cross_check(witness, result, allowed_roundtrip=allowed_roundtrip)
    assert not findings, "lock witness vs static graph:\n" + "\n".join(
        f"  {f}" for f in findings
    )
    for name, held in witness.hold_max_s.items():
        bound = ipc_hold_bound_s if name in allowed_roundtrip else hold_bound_s
        assert held <= bound, (
            f"lock {name!r} held {held:.3f}s (bound {bound}s): long enough "
            f"to trip a watchdog or starve the run"
        )
    frac, exercised, missed = coverage(witness, result)
    assert frac >= min_coverage, (
        f"witnessed only {frac:.0%} of the {len(exercised)} exercised "
        f"static lock-order edges; missed: {sorted(missed)}"
    )


def assert_qr_ok(A0: np.ndarray, Q: np.ndarray, R: np.ndarray, tol: float = 1e-12) -> None:
    """Check ``A0 == Q R`` and ``Q`` has orthonormal columns."""
    err = np.linalg.norm(A0 - Q @ R) / max(np.linalg.norm(A0), 1e-300)
    orth = np.linalg.norm(Q.T @ Q - np.eye(Q.shape[1]))
    assert err < tol, f"QR backward error {err:.3e} exceeds {tol:.1e}"
    assert orth < tol * 10, f"orthogonality error {orth:.3e} exceeds {tol * 10:.1e}"
