"""Service chaos soak: faults + worker kills under concurrent load.

The service contract under chaos: every request either returns a
**bitwise-correct** result (request-level retries reload the input and
rerun the whole plan, so partial state never leaks) or raises a
structured :class:`RuntimeFailure` subclass with a ``failure_kind`` —
and it never hangs.

Corruption faults are deliberately absent here: ABFT repair rebuilds
a corrupted element from checksums, right to round-off but not bit for
bit, which would break the bitwise assertions.  That path and the
tournament replay are covered by the resilience suite.

Long randomized variants are marked ``stress`` and excluded from the
default run (see pyproject addopts).
"""

import multiprocessing
import os
import random
import threading
import time

import numpy as np
import pytest

from repro.linalg import solve as linalg_solve
from repro.resilience.faults import FaultPlan
from repro.resilience.recovery import RuntimeFailure
from repro.runtime import sync
from repro.service import FactorizationService, ServiceConfig
from tests.conftest import assert_lock_sanity, make_rng

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker-kill chaos requires the fork start method",
)


def _problems(rng, shapes):
    out = []
    for n in shapes:
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        rhs = rng.standard_normal(n)
        out.append((A, rhs, linalg_solve(A, rhs, cores=2)))
    return out


def _soak(svc, problems, n_clients, n_requests, join_timeout):
    """Fire requests from concurrent clients; classify every outcome."""
    outcomes: list = []
    lock = threading.Lock()

    def client(cid):
        rnd = random.Random(cid)
        for _ in range(n_requests):
            A, rhs, ref = problems[rnd.randrange(len(problems))]
            try:
                x = svc.solve(A, rhs)
                ok = np.array_equal(x, ref)
                with lock:
                    outcomes.append(("ok" if ok else "WRONG", None))
            except RuntimeFailure as exc:
                with lock:
                    outcomes.append(("failed", exc.failure_kind))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=join_timeout)
    hung = [t for t in threads if t.is_alive()]
    return outcomes, hung


def _exercise_respawn_path(svc):
    """Deterministically drive the dead-worker heal under the core lock.

    The random kill storm may never land a kill exactly where a dead
    worker is *discovered* while its per-core lock is held, yet that is
    the one runtime nesting (``process.core -> service.respawn``, in
    rank order) this backend has — so exercise it synchronously: spawn, kill, and heal one worker via the pool's
    on-demand path, which takes the core lock and then consults the governor.
    """
    # Large enough that tasks are ready side by side, so some leave the
    # dispatcher's own lane and the one worker is spawned (a small
    # one-panel chain may run whole on the parent lane).
    n = 256
    A = np.random.default_rng(0).standard_normal((n, n)) + n * np.eye(n)
    svc.solve(A, np.ones(n))
    pool = svc._executor.pool
    live = [i for i, p in enumerate(pool._procs) if p is not None and p.is_alive()]
    core = live[0]
    os.kill(pool._procs[core].pid, 9)
    deadline = time.monotonic() + 10
    while pool._procs[core].is_alive() and time.monotonic() < deadline:
        time.sleep(0.01)
    # The heal may be throttled while the kill storm's respawn window
    # drains, and a request's own admission may beat us to it — either
    # path performs the same core-lock -> governor nesting.
    healed = False
    while not healed and time.monotonic() < deadline:
        healed = bool(pool.ensure_alive(core) or pool.worker_alive(core))
        if not healed:
            time.sleep(0.05)
    assert healed, "freshly killed worker was never healed"


def _assert_contract(outcomes, hung, expected_total):
    assert not hung, "chaos soak hung: requests neither returned nor failed"
    assert len(outcomes) == expected_total
    wrong = [o for o in outcomes if o[0] == "WRONG"]
    assert not wrong, f"{len(wrong)} silently wrong results under chaos"
    for status, kind in outcomes:
        if status == "failed":
            assert kind, "unstructured failure escaped the service"
    # The soak must not degenerate into all-shed: some work got through.
    assert any(status == "ok" for status, _ in outcomes)


class TestChaosThreaded:
    def test_fault_soak_threaded(self):
        rng = make_rng(100)
        problems = _problems(rng, [48, 64])
        # Transient raise + stall faults on panel and update tasks; the
        # engine's task retries absorb most, request retries the rest.
        factory = lambda: FaultPlan(  # noqa: E731
            seed=7, raise_rate={"P": 0.15, "S": 0.1}, stall_rate=0.05, stall_s=0.01
        )
        cfg = ServiceConfig(
            cores=2,
            backend="threaded",
            max_active=2,
            max_queue=8,
            max_attempts=3,
            fault_plan_factory=factory,
        )
        # The soak doubles as a lock-witness run: every primitive the
        # service and its engines create inside the window is tracked.
        with sync.witnessing() as w:
            with FactorizationService(cfg) as svc:
                outcomes, hung = _soak(
                    svc, problems, n_clients=4, n_requests=3, join_timeout=240
                )
        _assert_contract(outcomes, hung, expected_total=12)
        assert_lock_sanity(w)


@fork_only
class TestChaosProcess:
    def _run(self, n_clients, n_requests, kill_interval, duration_cap):
        rng = make_rng(101)
        problems = _problems(rng, [48, 64])
        factory = lambda: FaultPlan(  # noqa: E731
            seed=11, raise_rate={"S": 0.05}, stall_rate=0.02, stall_s=0.01
        )
        cfg = ServiceConfig(
            cores=2,
            backend="process",
            max_active=2,
            max_queue=8,
            max_attempts=3,
            breaker_threshold=5,
            breaker_open_s=0.2,
            fault_plan_factory=factory,
        )
        with sync.witnessing() as witness, FactorizationService(cfg) as svc:
            stop = threading.Event()

            def killer():
                # Periodically SIGKILL a live worker out from under the
                # pool; on-demand respawn + request retries must absorb it.
                rnd = random.Random(0)
                while not stop.wait(kill_interval):
                    pool = svc._executor.pool
                    live = [
                        p for p in pool._procs if p is not None and p.is_alive()
                    ]
                    if live:
                        try:
                            os.kill(rnd.choice(live).pid, 9)
                        except (ProcessLookupError, TypeError):
                            pass

            kt = threading.Thread(target=killer)
            kt.start()
            try:
                outcomes, hung = _soak(
                    svc, problems, n_clients, n_requests, join_timeout=duration_cap
                )
            finally:
                stop.set()
                kt.join(timeout=10)
            _exercise_respawn_path(svc)
            stats = svc.stats()
        _assert_contract(outcomes, hung, expected_total=n_clients * n_requests)
        # The per-core pipe lock covers one write or one drain, never the
        # wait for a worker: any lock spanning IPC, or any acquisition
        # out of rank order, is a real finding.
        assert_lock_sanity(witness)
        assert ("process.core", "service.respawn") in witness.edges
        return outcomes, stats

    def test_worker_kill_soak(self):
        self._run(n_clients=3, n_requests=3, kill_interval=0.15, duration_cap=240)

    @pytest.mark.stress
    def test_worker_kill_soak_long(self):
        outcomes, stats = self._run(
            n_clients=6, n_requests=8, kill_interval=0.1, duration_cap=600
        )
        # A long soak under a kill storm must actually exercise the
        # respawn machinery, not merely survive a quiet run.
        assert stats["pool"]["deaths"] >= 1 or all(
            s == "ok" for s, _ in outcomes
        )
