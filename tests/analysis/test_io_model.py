"""Tests for the sequential memory-hierarchy traffic model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.io_model import (
    blocked_lu_io,
    lu_io_lower_bound,
    panel_io_ca_flat,
    panel_io_classic,
    panel_io_reduction_factor,
    panel_io_tsqr_flat,
    predicted_panel_io,
)


class TestPanelTraffic:
    def test_cached_panel_equal(self):
        """When the panel fits in fast memory both strategies stream once."""
        assert panel_io_classic(100, 10, fast_words=10_000) == panel_io_ca_flat(
            100, 10, fast_words=10_000
        )

    def test_streaming_classic_quadratic_in_b(self):
        w = 1000
        t1 = panel_io_classic(100_000, 32, w)
        t2 = panel_io_classic(100_000, 64, w)
        assert t2 / t1 == pytest.approx(4.0, rel=0.15)

    def test_streaming_ca_linear_in_b(self):
        w = 1000
        t1 = panel_io_ca_flat(100_000, 32, w)
        t2 = panel_io_ca_flat(100_000, 64, w)
        assert t2 / t1 == pytest.approx(2.0, rel=0.5)

    def test_reduction_factor_order_b(self):
        """The §II sequential claim: CA saves a ~b/6 factor on panels."""
        b = 128
        f = panel_io_reduction_factor(1_000_000, b, fast_words=50_000)
        assert b / 10 < f < b

    def test_predicted_panel_io_names_each_closed_form(self):
        m, b, w = 2000, 8, 64 * 8 * 8
        for kind, form in (
            ("classic", panel_io_classic),
            ("ca_flat", panel_io_ca_flat),
            ("tsqr_flat", panel_io_tsqr_flat),
        ):
            assert predicted_panel_io(kind, m, b, w) == form(m, b, w)
        for kind in ("tape", "direct_tsqr"):
            with pytest.raises(ValueError, match="unknown"):
                predicted_panel_io(kind, m, b, w)

    def test_reduction_grows_with_b(self):
        f64 = panel_io_reduction_factor(500_000, 64, 50_000)
        f256 = panel_io_reduction_factor(500_000, 256, 50_000)
        assert f256 > f64


class TestFullFactorization:
    def test_ca_never_more_traffic(self):
        for (m, n, b, w) in [(50_000, 2000, 100, 100_000), (10_000, 10_000, 100, 100_000)]:
            ca = blocked_lu_io(m, n, b, w, ca_panel=True)
            classic = blocked_lu_io(m, n, b, w, ca_panel=False)
            assert ca <= classic

    def test_tall_skinny_dominated_by_panel_savings(self):
        """On tall-skinny matrices the panel dominates, so CA wins big."""
        m, n, b, w = 1_000_000, 200, 100, 100_000
        ratio = blocked_lu_io(m, n, b, w, False) / blocked_lu_io(m, n, b, w, True)
        assert ratio > 5.0

    def test_square_gap_small(self):
        """On large square matrices the update traffic dominates both."""
        m = n = 10_000
        ratio = blocked_lu_io(m, n, 100, 100_000, False) / blocked_lu_io(m, n, 100, 100_000, True)
        assert 1.0 <= ratio < 2.0

    def test_above_lower_bound(self):
        m, n, w = 20_000, 2000, 100_000
        lb = lu_io_lower_bound(m, n, w)
        assert blocked_lu_io(m, n, 100, w, ca_panel=True) > 0.1 * lb


@given(st.integers(1, 200), st.integers(1_000, 10_000_000), st.integers(500, 1_000_000))
@settings(max_examples=60, deadline=None)
def test_property_ca_panel_never_worse(b, m, w):
    if m < b:
        m = b
    assert panel_io_ca_flat(m, b, w) <= panel_io_classic(m, b, w) + 2.0 * m * b
