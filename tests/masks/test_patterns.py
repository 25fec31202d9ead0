"""Tests for atomic mask patterns."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.errors import ConfigError
from repro.core.rng import RngStream
from repro.masks.patterns import (
    PATTERN_REGISTRY,
    causal_mask,
    dilated_mask,
    global_mask,
    make_pattern,
    random_block_mask,
    sliding_window_mask,
)


class TestSlidingWindow:
    @settings(max_examples=60, deadline=None)
    @given(
        seq_len=st.integers(min_value=1, max_value=300),
        band_width=st.integers(min_value=0, max_value=320),
    )
    def test_band_membership(self, seq_len, band_width):
        m = sliding_window_mask(seq_len, band_width)
        i, j = np.meshgrid(np.arange(seq_len), np.arange(seq_len), indexing="ij")
        assert m.dtype == bool
        assert np.array_equal(m, np.abs(i - j) <= band_width)

    def test_symmetric(self):
        m = sliding_window_mask(64, 5)
        assert np.array_equal(m, m.T)

    def test_diagonal_always_attended(self):
        assert sliding_window_mask(32, 0).trace() == 32

    def test_paper_sparsity_at_1024(self):
        """Table 2: band width 32 at seq 1024 -> 93.8% sparse."""
        m = sliding_window_mask(1024, 32)
        assert 1.0 - m.mean() == pytest.approx(0.938, abs=0.002)

    def test_width_covers_everything(self):
        assert sliding_window_mask(8, 8).all()


class TestDilated:
    def test_stride_skipping(self):
        m = dilated_mask(32, 4, dilation_rate=1)
        i, j = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
        # Only even offsets within the stretched band.
        assert not m[(np.abs(i - j) % 2 == 1)].any()

    def test_zero_dilation_equals_window(self):
        assert np.array_equal(dilated_mask(64, 7, 0), sliding_window_mask(64, 7))

    def test_row_population_matches_window(self):
        """Interior rows keep the same count, so Table 2 sparsity matches."""
        w = sliding_window_mask(1024, 32)
        d = dilated_mask(1024, 32, 1)
        mid = 512
        assert w[mid].sum() == d[mid].sum()

    def test_diagonal_attended(self):
        assert dilated_mask(16, 2, 3).trace() == 16


class TestGlobal:
    def test_rows_and_columns(self):
        m = global_mask(16, 3)
        assert m[:3, :].all() and m[:, :3].all()
        assert not m[3:, 3:].any()

    def test_width_clamped_to_seq(self):
        assert global_mask(4, 100).all()

    def test_zero_width_empty(self):
        assert not global_mask(8, 0).any()


class TestRandomBlock:
    def test_fill_rate_reached(self, rng):
        m = random_block_mask(256, 0.25, block_size=32, rng=rng.fork("rb"))
        assert m.mean() >= 0.25
        assert m.mean() <= 0.25 + (32 * 32) / (256 * 256) + 1e-9

    def test_deterministic_for_stream(self):
        a = random_block_mask(128, 0.2, rng=RngStream(9).fork("x"))
        b = random_block_mask(128, 0.2, rng=RngStream(9).fork("x"))
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = random_block_mask(128, 0.2, rng=RngStream(9).fork("x"))
        b = random_block_mask(128, 0.2, rng=RngStream(9).fork("y"))
        assert not np.array_equal(a, b)

    def test_block_alignment(self):
        m = random_block_mask(128, 0.15, block_size=16, rng=RngStream(3).fork("z"))
        blocks = m.reshape(8, 16, 8, 16).transpose(0, 2, 1, 3)
        sums = blocks.reshape(64, -1).sum(axis=1)
        assert set(np.unique(sums)) <= {0, 256}

    def test_zero_fill(self):
        assert not random_block_mask(64, 0.0).any()

    def test_full_fill(self, rng):
        assert random_block_mask(64, 1.0, rng=rng.fork("f")).all()

    def test_invalid_rate(self):
        with pytest.raises(ConfigError):
            random_block_mask(64, 1.5)


class TestCausal:
    def test_lower_triangular(self):
        m = causal_mask(8)
        assert np.array_equal(m, np.tril(np.ones((8, 8), bool)))

    def test_first_row_only_self(self):
        assert causal_mask(8)[0].sum() == 1

    @settings(max_examples=40, deadline=None)
    @given(seq_len=st.integers(min_value=1, max_value=2048))
    @example(seq_len=1)
    @example(seq_len=2048)
    def test_matches_index_formula(self, seq_len):
        m = causal_mask(seq_len)
        idx = np.arange(seq_len)
        assert m.dtype == bool and m.shape == (seq_len, seq_len)
        assert m.flags.c_contiguous and m.flags.writeable
        assert np.array_equal(m, idx[None, :] <= idx[:, None])


class TestRegistry:
    def test_all_patterns_buildable(self, rng):
        for name in PATTERN_REGISTRY:
            m = make_pattern(name, 64, rng=rng.fork(name))
            assert m.shape == (64, 64) and m.dtype == bool

    def test_default_width_is_sqrt(self):
        m = make_pattern("sliding_window", 1024)
        # band width 32 -> row 512 has 65 attended entries
        assert m[512].sum() == 65

    def test_unknown_pattern(self):
        with pytest.raises(ConfigError):
            make_pattern("nope", 64)

    def test_overrides_forwarded(self):
        m = make_pattern("sliding_window", 64, band_width=1)
        assert m[32].sum() == 3

    def test_randomized_pattern_reproducible_via_default_stream(self):
        a = make_pattern("random", 64)
        b = make_pattern("random", 64)
        assert np.array_equal(a, b)
