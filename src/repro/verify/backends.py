"""Threaded-vs-process backend equivalence pass.

The :class:`~repro.runtime.process.ProcessExecutor` and the
:class:`~repro.runtime.threaded.ThreadedExecutor` run the same task
descriptors through the same :func:`~repro.runtime.ops.run_op` bodies;
what differs is the *store*: matrix and workspace buffers on a
shared-memory arena, attached by worker processes, versus plain heap
arrays.  Because every task is a deterministic function of its
DAG-ordered inputs, scheduling, process placement and the plane behind
a spec must not change a single bit of the output: this pass factors
the same matrix through both backends and demands *bitwise* identical
factors — CALU's packed LU and pivot sequence, CAQR's packed matrix
and every implicit-Q ``V``/``T``/``Vb`` buffer in the panel stores.

Any difference means the store wiring is wrong (a spec that addresses
the wrong bytes, a buffer allocated in one dtype and read in another,
an aliasing error between arena allocations) and is reported as an
``error``-severity ``backend-mismatch`` finding.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.trees import TreeKind
from repro.verify.equivalence import compare_results, state_arrays
from repro.verify.findings import Finding

__all__ = ["check_backend_equivalence"]


def check_backend_equivalence(
    name: str,
    kind: str,
    m: int,
    n: int,
    b: int,
    tr: int,
    tree: TreeKind,
    seed: int = 0,
    fuse: int | None = None,
) -> list[Finding]:
    """Factor one matrix through both backends; demand bitwise equality.

    *kind* names the algorithm in :data:`repro.core.driver.ALGORITHMS`;
    it runs through the shared driver with
    :func:`~repro.verify.equivalence.state_arrays` as its result, so
    what is compared is the factored matrix and every panel's state
    (``"lu"``: pivots and flags; ``"qr"``: every implicit-Q buffer).
    *fuse* forwards a task-fusion granularity to both runs, so fused
    super-task dispatch is held to the same bitwise bar.  Returns an
    ``error`` finding for each differing output; an empty list means
    the backends agree bit-for-bit.
    """
    from repro.core.driver import algorithm, factorize

    alg = replace(algorithm(kind), result=state_arrays)
    A = np.random.default_rng(seed).standard_normal((m, n))
    process, threaded = (
        factorize(
            alg,
            A.copy(),
            b=b,
            tr=tr,
            tree=tree,
            executor=executor,
            leaf_kernel=alg.leaf_kernels[0],
            fuse=fuse,
        )
        for executor in ("process", "threaded")
    )
    return compare_results(
        process,
        threaded,
        graph=name,
        rule="backend-mismatch",
        sides=("ProcessExecutor", "ThreadedExecutor"),
        moral=(
            "a descriptor must compute the same bits over shared-memory specs as over heap arrays"
        ),
    )
