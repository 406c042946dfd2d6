"""Global operation counters.

The paper argues about *communication* (number of synchronizations and
volume of data moved) as much as about flops.  Every kernel in
:mod:`repro.kernels` reports the floating-point operations it performs,
and the runtime reports synchronizations (task-graph edges crossed
between workers) and words moved, into the :class:`Counters` object
installed by :func:`counting`.

Counting is optional and costs one dictionary lookup per kernel call
when disabled.  Counters are shared between threads (the threaded
executor's workers all report into the same object), so updates are
guarded by a lock.

Example
-------
>>> import numpy as np
>>> from repro.counters import counting
>>> from repro.kernels.lu import getf2
>>> with counting() as c:
...     _ = getf2(np.random.default_rng(0).standard_normal((64, 32)))
>>> c.flops > 0
True
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Iterator

from repro.runtime.sync import make_lock

__all__ = [
    "Counters",
    "counting",
    "current_counters",
    "add_flops",
    "add_sync",
    "add_words",
    "add_roundtrip",
    "add_store_read",
    "add_store_write",
]


@dataclass
class Counters:
    """Accumulator for flops, synchronizations and data volume.

    Attributes
    ----------
    flops:
        Floating-point operations performed by the kernels (a fused
        multiply-add counts as two flops, matching LAPACK conventions).
    syncs:
        Synchronization events.  The runtime counts one per task-graph
        edge whose endpoints ran on different workers/cores; reduction
        trees therefore contribute ``O(log2 Tr)`` per panel with a
        binary tree and ``O(1)`` with a flat tree, the paper's claim.
    words:
        Words (double-precision elements) moved between tasks, i.e. the
        communication volume across task boundaries.
    comparisons:
        Pivot-search comparisons (partial pivoting / tournament).
    roundtrips:
        Worker pipe round-trips (one per message the process backend's
        :class:`~repro.runtime.process._WorkerPool` ships: a dispatcher
        pass's descriptors for one worker), the dispatch-overhead count.
    store_read_bytes / store_write_bytes:
        Bytes explicitly transferred between fast memory and a
        :class:`~repro.runtime.tilestore.TileStore` (slow memory): every
        ``load``/``store`` on a tile store reports here.  This is the
        measured counterpart of :mod:`repro.analysis.io_model`'s
        predicted slow-memory traffic, held within 5 % of it by
        ``tests/core/test_outofcore.py``.
    kernel_calls:
        Per-kernel-name invocation counts.
    """

    flops: int = 0
    syncs: int = 0
    words: int = 0
    comparisons: int = 0
    roundtrips: int = 0
    store_read_bytes: int = 0
    store_write_bytes: int = 0
    kernel_calls: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=lambda: make_lock("counters.counters"), repr=False, compare=False
    )

    def add(self, name: str, n: int = 1) -> None:
        """Add *n* to the scalar counter *name* (one of the ``int`` fields)."""
        with self._lock:
            setattr(self, name, getattr(self, name) + int(n))

    def add_call(self, kernel: str) -> None:
        with self._lock:
            self.kernel_calls[kernel] = self.kernel_calls.get(kernel, 0) + 1

    def merge(self, snapshot: dict[str, int]) -> None:
        """Fold a :meth:`snapshot` dict (e.g. shipped back from a worker
        process, which adds its ``kernel_calls``) into this accumulator."""
        with self._lock:
            for name in _SCALARS:
                if name != "roundtrips":  # counted on the parent side of the pipe only
                    setattr(self, name, getattr(self, name) + int(snapshot.get(name, 0)))
            for kernel, n in snapshot.get("kernel_calls", {}).items():
                self.kernel_calls[kernel] = self.kernel_calls.get(kernel, 0) + n

    def snapshot(self) -> dict[str, int]:
        """Return a plain-dict copy of the scalar counters."""
        with self._lock:
            return {name: getattr(self, name) for name in _SCALARS}

    def reset(self) -> None:
        with self._lock:
            for name in _SCALARS:
                setattr(self, name, 0)
            self.kernel_calls.clear()


_SCALARS = tuple(f.name for f in fields(Counters) if f.default == 0)

# A single module-global slot, not thread-local: the threaded executor's
# workers must all see the counter installed by the coordinating thread.
_active: list[Counters] = []
_active_lock = make_lock("counters.active")


def current_counters() -> Counters | None:
    """Return the innermost active :class:`Counters`, or ``None``."""
    # Reading the last element is atomic under the GIL; taking the lock
    # here would serialize every kernel call for no benefit.
    return _active[-1] if _active else None


@contextmanager
def counting(counters: Counters | None = None) -> Iterator[Counters]:
    """Install *counters* (or a fresh object) as the active accumulator."""
    c = counters if counters is not None else Counters()
    with _active_lock:
        _active.append(c)
    try:
        yield c
    finally:
        with _active_lock:
            _active.remove(c)


def _reporter(name: str):
    """The module-level ``add_*`` of the scalar counter *name*."""

    def report(n: int = 1) -> None:
        c = current_counters()
        if c is not None:
            c.add(name, n)

    report.__doc__ = f"Report *n* ``{name}`` to the active counter, if any."
    return report


add_flops = _reporter("flops")
add_sync = _reporter("syncs")
add_words = _reporter("words")
add_comparisons = _reporter("comparisons")
add_roundtrip = _reporter("roundtrips")
add_store_read = _reporter("store_read_bytes")
add_store_write = _reporter("store_write_bytes")


def add_call(kernel: str) -> None:
    """Report one invocation of *kernel* to the active counter."""
    c = current_counters()
    if c is not None:
        c.add_call(kernel)
