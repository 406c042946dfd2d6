"""Shared fixtures and assertion helpers for the test suite.

The suite tests a threaded runtime, so a scheduling bug shows up as a
*hang*, not a failure.  Two defenses make hangs diagnosable and bounded:
``faulthandler`` is armed so a stuck run can dump every thread's stack,
and an autouse fixture gives each test a hard wall-clock timeout
(``PYTEST_SINGLE_TIMEOUT`` seconds, default 120) after which the stacks
are dumped and the process exits non-zero instead of blocking CI
forever.

Every test also runs under one session-wide lock witness
(``REPRO_LOCK_SANITIZE=1``, set before ``repro`` is imported so the
module-level locks are tracked too): an acquisition that breaks the
rank order of :data:`repro.runtime.sync.LOCK_ORDER`, or a nesting of
two package locks outside :data:`NESTINGS`, fails the test in which it
happened, whichever thread made it.
"""

from __future__ import annotations

import faulthandler
import os

os.environ["REPRO_LOCK_SANITIZE"] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro import close_plans  # noqa: E402
from repro.kernels.lu import piv_to_perm  # noqa: E402
from repro.runtime import sync  # noqa: E402

faulthandler.enable()

_SESSION_WITNESS = sync.active_witness()
assert _SESSION_WITNESS is not None, "repro was imported before tests/conftest.py"

#: Every (held, acquired) pair of package locks the code nests, pinned on
#: purpose: ranks allow any forward pair, but a new nesting should be a
#: decision, not a side effect.  A dead worker is healed under its core
#: lock, and the heal asks the respawn governor.  Syncs are counted
#: outside the engine and core locks, so neither ever holds
#: ``counters.counters``.
NESTINGS = frozenset({("process.core", "service.respawn")})

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


def _package_nestings() -> set[tuple[str, str]]:
    """The session witness's edges between two of the package's locks."""
    return {e for e in _SESSION_WITNESS.edge_names() if set(e) <= set(sync.LOCK_ORDER)}


@pytest.fixture(autouse=True)
def _lock_order_holds():
    """Fail the test in which any thread broke the lock rank order
    (the acquiring thread also got a ``LockOrderError``, which a worker
    or dispatcher thread may have absorbed) or first nested two package
    locks in a pair outside :data:`NESTINGS`."""
    seen, nested = len(_SESSION_WITNESS.violations), _package_nestings()
    yield
    new = _SESSION_WITNESS.violations[seen:]
    assert not new, "lock rank violations:\n" + "\n".join(f"  {v}" for v in new)
    unpinned = sorted(_package_nestings() - nested - NESTINGS)
    assert not unpinned, f"lock nestings outside conftest.NESTINGS: {unpinned}"


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


def assert_lock_sanity(
    witness,
    *,
    allowed_roundtrip: tuple[str, ...] = (),
    hold_bound_s: float = 1.0,
    ipc_hold_bound_s: float = 30.0,
) -> None:
    """Check what a dynamic lock witness saw during one run.

    Asserts the run broke no lock rank, held no lock across a
    process-pool round-trip beyond *allowed_roundtrip*, and held no
    lock anywhere near a watchdog threshold (IPC-spanning locks in
    *allowed_roundtrip* get the larger bound, since they legally cover
    a worker round-trip and its kill/respawn recovery).
    """
    assert not witness.violations, "lock rank violations:\n" + "\n".join(
        f"  {v}" for v in witness.violations
    )
    held = sorted(witness.roundtrip_held - set(allowed_roundtrip))
    assert not held, f"locks held across a process-pool round-trip: {held}"
    for name, held_s in witness.hold_max_s.items():
        bound = ipc_hold_bound_s if name in allowed_roundtrip else hold_bound_s
        assert held_s <= bound, (
            f"lock {name!r} held {held_s:.3f}s (bound {bound}s): long enough "
            f"to trip a watchdog or starve the run"
        )


def assert_qr_ok(A0: np.ndarray, Q: np.ndarray, R: np.ndarray, tol: float = 1e-12) -> None:
    """Check ``A0 == Q R`` and ``Q`` has orthonormal columns."""
    err = np.linalg.norm(A0 - Q @ R) / max(np.linalg.norm(A0), 1e-300)
    orth = np.linalg.norm(Q.T @ Q - np.eye(Q.shape[1]))
    assert err < tol, f"QR backward error {err:.3e} exceeds {tol:.1e}"
    assert orth < tol * 10, f"orthogonality error {orth:.3e} exceeds {tol * 10:.1e}"
