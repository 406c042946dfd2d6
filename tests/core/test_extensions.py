"""Tests for the Section V extensions: B > b updates and hybrid updates.

``calu`` takes no ``update_width``: the numeric cases pass it to the
builder through ``factorize``, as ``bench.methods`` and the
``bb_extension`` experiment pass it to ``calu_program``.
"""

import numpy as np
import pytest

from repro.core.calu import calu_program, calu
from repro.core.driver import ALGORITHMS, factorize
from repro.core.layout import BlockLayout
from repro.core.trees import TreeKind
from tests.conftest import make_rng


def calu_bb(A, b, B):
    return factorize(ALGORITHMS["lu"], A, b=b, tr=4, tree=TreeKind.BINARY, update_width=B)


@pytest.mark.parametrize(
    "m,n,b,B",
    [(200, 200, 25, 50), (150, 150, 20, 80), (300, 120, 30, 120), (130, 130, 33, 66), (97, 97, 16, 96)],
)
def test_bb_numeric_correct(m, n, b, B):
    A0 = make_rng(m + n + B).standard_normal((m, n))
    f = calu_bb(A0, b, B)
    err = np.linalg.norm(A0 - f.reconstruct()) / np.linalg.norm(A0)
    assert err < 1e-12


def test_bb_equals_plain_when_B_is_b():
    A0 = make_rng(1).standard_normal((160, 160))
    f1 = calu(A0, b=40, tr=4)
    f2 = calu_bb(A0, 40, 40)
    np.testing.assert_array_equal(f1.lu, f2.lu)
    np.testing.assert_array_equal(f1.piv, f2.piv)


def test_bb_same_factorization_different_grouping():
    """Grouping only changes task granularity, not arithmetic."""
    A0 = make_rng(2).standard_normal((200, 200))
    f1 = calu(A0, b=25, tr=4)
    f2 = calu_bb(A0, 25, 100)
    np.testing.assert_allclose(f1.lu, f2.lu, atol=0)
    np.testing.assert_array_equal(f1.piv, f2.piv)


def test_bb_reduces_task_count():
    lay = BlockLayout(2000, 2000, 100)
    g1 = calu_program(lay, 4)[0].materialize()
    g2 = calu_program(lay, 4, update_width=400)[0].materialize()
    g2.validate()
    assert len(g2) < 0.6 * len(g1)


def test_bb_preserves_total_flops():
    lay = BlockLayout(1600, 1600, 100)
    g1 = calu_program(lay, 4)[0].materialize()
    g2 = calu_program(lay, 4, update_width=400)[0].materialize()
    assert g1.total_flops() == pytest.approx(g2.total_flops(), rel=1e-12)


def test_bb_invalid_width():
    lay = BlockLayout(400, 400, 100)
    with pytest.raises(ValueError, match="update_width"):
        calu_program(lay, 2, update_width=50)


def test_hybrid_library_tags():
    lay = BlockLayout(800, 800, 100)
    g = calu_program(lay, 4, update_library="mkl")[0].materialize()
    kinds = {}
    for t in g.tasks:
        kinds.setdefault(t.kind.value, set()).add(t.cost.library)
    assert kinds["P"] == {"repro"}  # TSLU panel stays ours
    assert kinds["S"] == {"mkl"}  # updates priced as vendor quality
    assert kinds["U"] == {"mkl"}


def test_hybrid_graph_structure_unchanged():
    lay = BlockLayout(600, 600, 100)
    g1 = calu_program(lay, 4)[0].materialize()
    g2 = calu_program(lay, 4, update_library="mkl")[0].materialize()
    assert len(g1) == len(g2)
    assert g1.preds == g2.preds
