"""Golden digests: the factors are pinned bit for bit on every executor.

``golden_digests.json`` holds CRC32s of CALU's packed ``lu`` + ``piv``
and CAQR's ``packed`` + every ``PanelQRStore`` array, for the
``benchmarks/e2e/workloads.py`` shapes and two ragged ones (``m < n``,
``min(m, n) % b != 0``), binary and flat trees.  Every executor must
reproduce them: a refactor of the task form, the store bindings or the
ops may move no bit.

The 10 QR entries pin the factors ``caqr`` returns, with LAPACK
``?geqrt`` / ``?tpqrt`` / ``?tpmqrt`` in every task slot.  They were
first recorded at commit b673aad with the paper's NumPy kernel set
(``geqr3`` leaves, NumPy ``tpqrt`` / ``tpmqrt``), and re-recorded from
the default path when the drivers lost their kernel-selection knob and
that set left the task path: the default path's digests were the same
on every backend before the change, and are after it.  The factors
come from the threaded and process backends; the simulator only prices.  ``tests/core/test_qr_leaf_oracle.py`` checks these
factors against ``scipy.linalg.qr``.

The 10 LU entries were re-recorded when CALU's critical path moved
onto vendor kernels: the finalize installs the factors the panel's last
tournament election already computed (LAPACK ``?getrf`` at a root
merge) instead of refactoring the winners with ``getf2_nopiv``, and the
L/U tasks solve with BLAS ``?trsm`` — the pivots did not move, the
factor bits did (``tests/core/test_lu_tournament_oracle.py`` is their
acceptance).  Six of them were re-recorded again when the tournament
leaves moved from the NumPy ``rgetf2`` to LAPACK ``?getrf``: the
``lu-256x256b16tr2``, ``lu-320x320b64tr2`` and ``lu-48x80b16tr3``
entries (both trees), whose panels end in a one-leaf election that hands
the leaf's own factors to the finalize.  The pivots did not move; the
other four LU entries, whose every last election is a merge, did not
either.

The keys (and so the test ids) keep the ``-fuseNone`` suffix they were
recorded under, when the drivers still had a task-fusion knob: an
unchanged id is an unchanged check.

``python tests/core/test_golden_digests.py`` re-records the file (only
ever meaningful when an issue *intends* to change the arithmetic).
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.calu import calu
from repro.core.caqr import caqr
from repro.core.trees import TreeKind
from repro.runtime.process import ProcessExecutor
from repro.runtime.threaded import ThreadedExecutor

GOLDEN = Path(__file__).with_name("golden_digests.json")

#: (m, n, b, tr): lu_tall/qr_tall, lu_square, svc_solve, then m < n and
#: min(m, n) % b != 0.
SHAPES = [(2560, 128, 32, 8), (256, 256, 16, 2), (320, 320, 64, 2), (48, 80, 16, 3), (100, 70, 16, 4)]
TREES = [TreeKind.BINARY, TreeKind.FLAT]
CASES = [(kind, *shape, tree) for kind in ("lu", "qr") for shape in SHAPES for tree in TREES]


def case_id(case) -> str:
    kind, m, n, b, tr, tree = case
    return f"{kind}-{m}x{n}b{b}tr{tr}-{tree.value}-fuseNone"


def _crc(arrays) -> int:
    crc = 0
    for a in arrays:
        crc = zlib.crc32(np.ascontiguousarray(a).tobytes(), crc)
    return crc


def digest(case, executor) -> int:
    kind, m, n, b, tr, tree = case
    A = np.random.default_rng(20240613).standard_normal((m, n))
    if kind == "lu":
        f = calu(A, b=b, tr=tr, tree=tree, executor=executor)
        return _crc([f.lu, f.piv])
    f = caqr(A, b=b, tr=tr, tree=tree, executor=executor)
    arrays = [f.packed]
    for store in f.panels:
        flat = store.to_arrays()
        # A leaf's V is packed in the matrix, no longer in the payload:
        # hash its unpacked bits under the key it was recorded with.
        flat |= {f"leaf{s}_V": np.asarray(leaf.V) for s, leaf in store.leaves.items()}
        arrays += [flat[key] for key in sorted(flat)]
    return _crc(arrays)


@pytest.fixture(scope="module")
def executors():
    made = {
        "threaded": ThreadedExecutor(2),
        "process": ProcessExecutor(2),
    }
    yield made
    made["process"].close()


@pytest.mark.parametrize("backend", ["threaded", "process"])
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_factors_match_parent_commit(case, backend, executors):
    golden = json.loads(GOLDEN.read_text())
    assert digest(case, executors[backend]) == golden[case_id(case)]


if __name__ == "__main__":
    ex = ThreadedExecutor(2)
    GOLDEN.write_text(json.dumps({case_id(c): digest(c, ex) for c in CASES}, indent=1) + "\n")
