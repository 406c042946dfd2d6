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
factors — CALU's packed LU and pivot sequence, CAQR's ``R``, packed
trailing matrix and every implicit-Q ``V``/``T``/``Vb`` buffer in the
panel stores.

Any difference means the store wiring is wrong (a spec that addresses
the wrong bytes, a buffer allocated in one dtype and read in another,
an aliasing error between arena allocations) and is reported as an
``error``-severity ``backend-mismatch`` finding.
"""

from __future__ import annotations

import numpy as np

from repro.core.trees import TreeKind
from repro.verify.findings import Finding

__all__ = ["check_backend_equivalence"]


def _compare(name: str, label: str, a: np.ndarray, b: np.ndarray) -> list[Finding]:
    if np.array_equal(np.asarray(a), np.asarray(b)):
        return []
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        detail = f"shapes differ: threaded {a.shape} vs process {b.shape}"
    else:
        diff = np.abs(a - b)
        finite = diff[np.isfinite(diff)]
        worst = float(finite.max()) if finite.size else float("nan")
        detail = f"{int(np.count_nonzero(diff))} differing entries, max |delta| = {worst:.3g}"
    return [
        Finding(
            rule="backend-mismatch",
            severity="error",
            graph=name,
            message=(
                f"{label} differs between ThreadedExecutor and ProcessExecutor "
                f"({detail}); a descriptor must compute the same bits over "
                "shared-memory specs as over heap arrays"
            ),
        )
    ]


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

    *kind* is ``"lu"`` (CALU: compares packed LU + pivots) or ``"qr"``
    (CAQR: compares ``R``, the packed matrix and every panel-store
    array).  *fuse* forwards a task-fusion granularity to both drivers,
    so fused super-task dispatch is held to the same bitwise bar.
    Returns ``error`` findings for each differing output; an empty list
    means the backends agree bit-for-bit.
    """
    from repro.core.calu import calu
    from repro.core.caqr import caqr

    A = np.random.default_rng(seed).standard_normal((m, n))
    findings: list[Finding] = []
    if kind == "lu":
        ref = calu(A.copy(), b=b, tr=tr, tree=tree, executor="threaded", fuse=fuse)
        alt = calu(A.copy(), b=b, tr=tr, tree=tree, executor="process", fuse=fuse)
        findings += _compare(name, "packed LU", ref.lu, alt.lu)
        findings += _compare(name, "pivot sequence", ref.piv, alt.piv)
    elif kind == "qr":
        ref = caqr(A.copy(), b=b, tr=tr, tree=tree, executor="threaded", fuse=fuse)
        alt = caqr(A.copy(), b=b, tr=tr, tree=tree, executor="process", fuse=fuse)
        findings += _compare(name, "R factor", ref.R, alt.R)
        findings += _compare(name, "packed matrix", ref.packed, alt.packed)
        for k, (s_ref, s_alt) in enumerate(zip(ref.panels, alt.panels, strict=True)):
            a_ref, a_alt = s_ref.to_arrays(), s_alt.to_arrays()
            if set(a_ref) != set(a_alt):
                findings.append(
                    Finding(
                        rule="backend-mismatch",
                        severity="error",
                        graph=name,
                        message=(
                            f"panel {k} Q-store keys differ between backends: "
                            f"{sorted(set(a_ref) ^ set(a_alt))}"
                        ),
                    )
                )
                continue
            for key in sorted(a_ref):
                findings += _compare(name, f"panel {k} Q-store {key!r}", a_ref[key], a_alt[key])
    else:
        raise ValueError(f"unknown factorization kind {kind!r}")
    return findings
