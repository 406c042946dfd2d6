"""Overload-safe factorization service.

The paper's runtime factors one matrix at a time; the service layer
turns it into a long-lived front-end that accepts concurrent
``factor``/``solve``/``lstsq`` requests and keeps the system correct
and responsive when many requests, worker deaths and deadline misses
arrive at once:

* :class:`~repro.service.admission.AdmissionQueue` — bounded admission
  with fast-fail load shedding (:class:`AdmissionRejected` carries the
  queue depth and a retry-after hint);
* per-request deadlines bounding the admission wait and mapped onto
  the execution engine's watchdog (:class:`DeadlineExceeded`);
* :class:`~repro.service.breaker.CircuitBreaker` — trips on
  worker-death/timeout storms and degrades to the threaded backend
  until probes succeed;
* :class:`~repro.service.supervisor.PoolSupervisor` /
  :class:`~repro.service.supervisor.RespawnGovernor` — heartbeats and
  respawn-rate throttling for the worker-process pool;
* :class:`~repro.service.service.FactorizationService` — the façade
  multiplexing requests onto one shared worker pool + shared-memory
  arena, with compiled graph programs cached per shape.

See ``docs/SERVICE.md`` for the architecture and failure taxonomy.
"""

from repro.service.admission import AdmissionQueue, AdmissionRejected, DeadlineExceeded
from repro.service.breaker import CircuitBreaker
from repro.service.service import FactorizationService, ServiceConfig
from repro.service.supervisor import PoolSupervisor, RespawnGovernor

__all__ = [
    "AdmissionQueue",
    "AdmissionRejected",
    "CircuitBreaker",
    "DeadlineExceeded",
    "FactorizationService",
    "PoolSupervisor",
    "RespawnGovernor",
    "ServiceConfig",
]
