"""Input validation at public entry points and the solve health loop."""

import numpy as np
import pytest

from repro.core.calu import calu
from repro.core.caqr import caqr
from repro.core.tslu import tslu
from repro.core.tsqr import tsqr
from repro.linalg import SolveReport, lstsq, solve
from repro.resilience.health import (
    NumericalHealthWarning,
    finite_block_guard,
    validate_matrix,
    validate_rhs,
)
from tests.conftest import make_rng


class TestValidateMatrix:
    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            validate_matrix(np.ones(5))

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="2-D"):
            validate_matrix(np.ones((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            validate_matrix(np.ones((0, 4)))

    def test_rejects_non_numeric(self):
        with pytest.raises(ValueError, match="numeric"):
            validate_matrix(np.array([["a", "b"], ["c", "d"]]))

    def test_rejects_complex(self):
        with pytest.raises(ValueError, match="real"):
            validate_matrix(np.ones((2, 2), dtype=complex))

    def test_rejects_nonfinite_naming_argument(self):
        A = np.ones((3, 3))
        A[1, 1] = np.inf
        with pytest.raises(ValueError, match="A contains 1 NaN or Inf"):
            validate_matrix(A)


class TestValidateRhs:
    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError, match="4 rows"):
            validate_rhs(np.ones(4), 5)

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            validate_rhs(np.ones((2, 2, 2)), 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            validate_rhs(np.ones((5, 0)), 5)

    def test_rejects_nonfinite(self):
        rhs = np.ones(5)
        rhs[0] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            validate_rhs(rhs, 5)


class TestEntryPoints:
    def test_factorizations_reject_empty(self):
        empty = np.empty((0, 0))
        for fac in (calu, caqr):
            with pytest.raises(ValueError, match="empty"):
                fac(empty)
        for fac in (tslu, tsqr):
            with pytest.raises(ValueError, match="empty"):
                fac(empty)

    def test_factorizations_reject_1d(self):
        vec = np.ones(8)
        for fac in (calu, caqr, tslu, tsqr):
            with pytest.raises(ValueError, match="2-D"):
                fac(vec)

    def test_solve_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            solve(np.ones((4, 3)), np.ones(4))

    def test_solve_rejects_rhs_mismatch(self):
        A = make_rng(0).standard_normal((8, 8))
        with pytest.raises(ValueError, match="rhs"):
            solve(A, np.ones(5))

    def test_solve_rejects_nonfinite_input(self):
        A = make_rng(0).standard_normal((8, 8))
        A[2, 2] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            solve(A, np.ones(8))

    def test_lstsq_rejects_wide(self):
        with pytest.raises(ValueError, match="m >= n"):
            lstsq(np.ones((3, 5)), np.ones(3))

    def test_lstsq_validates_rhs(self):
        A = make_rng(1).standard_normal((12, 4))
        with pytest.raises(ValueError, match="rhs"):
            lstsq(A, np.ones(7))


class TestSolveHealthLoop:
    def test_well_conditioned_solve_converges(self):
        A = make_rng(2).standard_normal((24, 24)) + 24 * np.eye(24)
        rhs = np.ones(24)
        x, rep = solve(A, rhs, b=8, tr=2, report=True)
        assert isinstance(rep, SolveReport)
        assert rep.converged and rep.residual <= rep.tol
        assert np.allclose(A @ x, rhs, atol=1e-8)

    def test_auto_refine_escalates_on_unmet_tolerance(self):
        A = make_rng(3).standard_normal((16, 16)) + 16 * np.eye(16)
        rhs = np.ones(16)
        # An unreachable tolerance forces the escalation path and the
        # health warning reporting the achieved residual.
        with pytest.warns(NumericalHealthWarning, match="residual"):
            x, rep = solve(A, rhs, b=8, tr=2, rtol=1e-30, report=True)
        assert not rep.converged
        assert rep.refine_steps >= 1
        assert np.isfinite(rep.residual)

    def test_auto_refine_can_be_disabled(self):
        A = make_rng(4).standard_normal((16, 16)) + 16 * np.eye(16)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", NumericalHealthWarning)
            x = solve(A, np.ones(16), b=8, tr=2, auto_refine=False, rtol=1e-30)
        assert x.shape == (16,)


class TestFiniteBlockGuard:
    def test_clean_block_passes(self):
        A = np.ones((6, 6))
        assert finite_block_guard(A, 0, 3, 0, 3, "t")() is None

    def test_nan_block_is_fatal(self):
        A = np.ones((6, 6))
        A[4, 4] = np.nan
        ev = finite_block_guard(A, 3, 6, 3, 6, "t")()
        assert ev is not None and ev.fatal and ev.kind == "health"

    def test_nan_outside_window_ignored(self):
        A = np.ones((6, 6))
        A[0, 0] = np.nan
        assert finite_block_guard(A, 3, 6, 3, 6, "t")() is None


def test_health_warning_is_user_warning():
    assert issubclass(NumericalHealthWarning, UserWarning)
