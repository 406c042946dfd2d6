"""Tests for the block-layout index arithmetic (paper Algorithm 1 lines 5-7)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.panelloop import merged_chunks
from repro.core.layout import BlockLayout


class TestBasics:
    def test_grid_dimensions(self):
        lay = BlockLayout(100, 60, 20)
        assert (lay.M, lay.N) == (5, 3)

    def test_ragged_grid(self):
        lay = BlockLayout(105, 61, 20)
        assert (lay.M, lay.N) == (6, 4)

    def test_n_panels(self):
        assert BlockLayout(100, 60, 20).n_panels == 3
        assert BlockLayout(60, 100, 20).n_panels == 3  # min(m, n) governs
        assert BlockLayout(10, 10, 100).n_panels == 1

    def test_col_range_clipped(self):
        lay = BlockLayout(50, 45, 20)
        assert lay.col_range(0) == (0, 20)
        assert lay.col_range(2) == (40, 45)

    def test_row_range_clipped(self):
        lay = BlockLayout(45, 50, 20)
        assert lay.row_range(2) == (40, 45)

    def test_panel_width_wide_matrix(self):
        lay = BlockLayout(30, 100, 20)
        assert lay.panel_width(0) == 20
        assert lay.panel_width(1) == 10  # clipped at min(m, n) = 30

    def test_invalid(self):
        with pytest.raises(ValueError):
            BlockLayout(0, 5, 2)
        with pytest.raises(ValueError):
            BlockLayout(5, 5, 0)


class TestPanelChunks:
    def test_matches_paper_formula_when_divisible(self):
        """I1 = (K-1)+(I-1)*ceil((M-K+1)/Tr), 1-based, in block units."""
        m, b, tr = 1600, 100, 8
        lay = BlockLayout(m, 800, b)
        for K0 in range(lay.n_panels):  # 0-based K0 = paper K-1
            chunks = lay.panel_chunks(K0, tr)
            Mb = lay.M
            per = math.ceil((Mb - K0) / tr)
            for c in chunks:
                assert c.b0 == K0 + c.index * per
                assert c.b1 == min(Mb, K0 + (c.index + 1) * per)

    def test_cover_active_rows_exactly(self):
        lay = BlockLayout(1000, 300, 100)
        for K in range(lay.n_panels):
            chunks = lay.panel_chunks(K, 4)
            assert chunks[0].r0 == K * 100
            assert chunks[-1].r1 == 1000
            for a, b2 in zip(chunks, chunks[1:]):
                assert a.r1 == b2.r0

    def test_fewer_blocks_than_tr(self):
        lay = BlockLayout(300, 300, 100)
        chunks = lay.panel_chunks(1, 8)  # only 2 active block rows
        assert 1 <= len(chunks) <= 2
        assert chunks[0].r0 == 100 and chunks[-1].r1 == 300

    def test_tr_one_single_chunk(self):
        lay = BlockLayout(500, 100, 50)
        chunks = lay.panel_chunks(0, 1)
        assert len(chunks) == 1
        assert (chunks[0].r0, chunks[0].r1) == (0, 500)

    def test_invalid_tr(self):
        with pytest.raises(ValueError):
            BlockLayout(10, 10, 2).panel_chunks(0, 0)

    def test_empty_when_no_active_rows(self):
        lay = BlockLayout(100, 200, 100)
        assert lay.panel_chunks(1, 4) == []

    def test_chunk_blocks(self):
        lay = BlockLayout(400, 100, 100)
        chunks = lay.panel_chunks(0, 2)
        assert chunks[0].blocks(0) == [(0, 0), (1, 0)]
        assert chunks[1].blocks(3) == [(2, 3), (3, 3)]

    def test_active_blocks(self):
        lay = BlockLayout(400, 100, 100)
        assert lay.active_blocks(2, 0) == [(2, 0), (3, 0)]


class TestMergedChunks:
    def test_short_tail_merged(self):
        lay = BlockLayout(410, 100, 100)  # last block row has 10 rows
        chunks = merged_chunks(lay, 0, 5)
        assert all(c.rows >= 100 for c in chunks)
        assert chunks[-1].r1 == 410

    def test_no_merge_needed(self):
        lay = BlockLayout(400, 100, 100)
        assert merged_chunks(lay, 0, 4) == lay.panel_chunks(0, 4)

    def test_single_short_chunk_kept(self):
        lay = BlockLayout(60, 60, 60)
        chunks = merged_chunks(lay, 0, 4)
        assert len(chunks) == 1 and chunks[0].rows == 60


@given(
    st.integers(1, 400),
    st.integers(1, 400),
    st.integers(1, 64),
    st.integers(1, 16),
)
@settings(max_examples=150, deadline=None)
def test_property_chunks_partition_active_rows(m, n, b, tr):
    lay = BlockLayout(m, n, b)
    for K in range(lay.n_panels):
        chunks = lay.panel_chunks(K, tr)
        if K * b >= m:
            assert chunks == []
            continue
        assert chunks[0].r0 == K * b
        assert chunks[-1].r1 == m
        covered = 0
        for a, b2 in zip(chunks, chunks[1:]):
            assert a.r1 == b2.r0
        assert len(chunks) <= tr
        for c in chunks:
            assert c.rows > 0
            assert c.r0 == c.b0 * b
            assert c.r1 == min(c.b1 * b, m)


@given(st.integers(2, 300), st.integers(1, 300), st.integers(1, 50), st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_property_merged_chunks_tail_big_enough(m, n, b, tr):
    lay = BlockLayout(m, n, b)
    for K in range(lay.n_panels):
        chunks = merged_chunks(lay, K, tr)
        if not chunks:
            continue
        bk = lay.panel_width(K)
        if len(chunks) > 1:
            assert all(c.rows >= bk for c in chunks)
        assert chunks[0].r0 == K * b
        assert chunks[-1].r1 == m
