"""The distributed-memory origin story: count the messages.

CALU/CAQR were designed for distributed memory (paper Section II).
This example factors one tall-skinny panel with P=8 simulated ranks
three ways and prints the exact communication each needs — the
`O(log2 P)` vs `O(b log2 P)` separation that motivates everything else.
The factors are the shared-memory drivers' (`tslu`/`tsqr` with `tr=P`,
`getf2` for the classic panel); the ranks are their row chunks.

Run:  python examples/distributed_panels.py
"""

import numpy as np

from repro.analysis.communication import panel_messages_ca, panel_messages_classic
from repro.core.trees import TreeKind
from repro.distmem import AlphaBeta, distributed_gepp_panel, distributed_tslu, distributed_tsqr


def main() -> None:
    m, b, P = 8192, 64, 8
    A = np.random.default_rng(0).standard_normal((m, b))
    cluster = AlphaBeta(alpha=5e-6, beta=2e-9)  # a 2009-era cluster network

    print(f"one {m} x {b} panel over P={P} ranks\n")
    print(f"{'method':<28} {'rounds':>7} {'messages':>9} {'words':>9} {'comm time':>11}")
    for label, res in (
        ("classic GEPP panel", distributed_gepp_panel(A, P=P)),
        ("TSLU, binary tree", distributed_tslu(A, P=P, tree=TreeKind.BINARY)),
        ("TSLU, flat tree", distributed_tslu(A, P=P, tree=TreeKind.FLAT)),
        ("TSQR, binary tree", distributed_tsqr(A, P=P, tree=TreeKind.BINARY)),
        ("TSQR, flat tree", distributed_tsqr(A, P=P, tree=TreeKind.FLAT)),
    ):
        c = res.comm
        print(
            f"{label:<28} {c.n_rounds:>7} {c.n_messages:>9} {c.total_words:>9} "
            f"{c.time(cluster) * 1e3:>9.3f} ms"
        )

    # Numerics are GEPP-grade either way.
    res = distributed_tslu(A, P=P)
    from repro.kernels.lu import piv_to_perm

    L = np.tril(res.lu[:, :b], -1)
    np.fill_diagonal(L, 1.0)
    U = np.triu(res.lu[:b])
    err = np.linalg.norm(A[piv_to_perm(res.piv, m)] - L @ U) / np.linalg.norm(A)
    print(f"\nTSLU backward error: {err:.2e}")
    print(
        "closed-form check: panel syncs, classic",
        panel_messages_classic(b, P),
        "vs binary-tree TSLU/TSQR",
        panel_messages_ca(P, TreeKind.BINARY),
    )


if __name__ == "__main__":
    main()
