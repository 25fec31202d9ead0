"""Tests for the BSR block-sparse mask format (paper Fig. 6)."""

import numpy as np
import pytest

from repro.core.errors import ConfigError
from repro.core.rng import RngStream
from repro.masks.bsr import BlockKind, BlockSparseMask
from repro.masks.patterns import causal_mask, make_pattern, sliding_window_mask


class TestPaperExample:
    """The 8x8 mask / 2x2 block walk-through of Fig. 6."""

    def test_eye_blocks(self):
        bsr = BlockSparseMask.from_dense(np.eye(4, dtype=bool), 2, 2)
        assert bsr.n_full == 0
        assert bsr.n_part == 2
        assert bsr.n_valid == 2

    def test_full_row_ptr_length(self):
        m = sliding_window_mask(64, 8)
        bsr = BlockSparseMask.from_dense(m, 16, 16)
        assert len(bsr.full_row_ptr) == -(-64 // 16) + 1

    def test_full_block_detection(self):
        m = np.zeros((8, 8), bool)
        m[0:2, 0:2] = True           # full block
        m[2:4, 2:3] = True           # part block
        bsr = BlockSparseMask.from_dense(m, 2, 2)
        assert bsr.n_full == 1 and bsr.n_part == 1
        assert bsr.blocks_in_row(0) == [(0, BlockKind.FULL, -1)]
        (col, kind, midx) = bsr.blocks_in_row(1)[0]
        assert (col, kind) == (1, BlockKind.PART) and midx >= 0

    def test_load_arrays_merge_sorted(self):
        m = np.zeros((8, 8), bool)
        m[0:2, 4:6] = True          # full at col 2
        m[0:2, 0] = True            # part at col 0
        bsr = BlockSparseMask.from_dense(m, 2, 2)
        cols = [c for c, _, _ in bsr.blocks_in_row(0)]
        assert cols == sorted(cols) == [0, 2]


class TestRoundTrip:
    @pytest.mark.parametrize("pattern", ["sliding_window", "dilated", "longformer", "bigbird", "causal"])
    @pytest.mark.parametrize("blocks", [(16, 16), (32, 16), (16, 32), (64, 64)])
    def test_patterns(self, pattern, blocks, rng):
        m = make_pattern(pattern, 128, rng=rng.fork(f"{pattern}{blocks}"))
        bsr = BlockSparseMask.from_dense(m, *blocks)
        assert np.array_equal(bsr.to_dense(), m)

    def test_non_divisible_seq(self, rng):
        m = make_pattern("bigbird", 100, rng=rng.fork("odd"))
        bsr = BlockSparseMask.from_dense(m, 16, 16)
        assert bsr.to_dense().shape == (100, 100)
        assert np.array_equal(bsr.to_dense(), m)

    def test_empty_mask(self):
        bsr = BlockSparseMask.from_dense(np.zeros((32, 32), bool), 16, 16)
        assert bsr.n_valid == 0
        assert not bsr.to_dense().any()

    def test_full_mask(self):
        bsr = BlockSparseMask.from_dense(np.ones((32, 32), bool), 16, 16)
        assert bsr.n_full == 4 and bsr.n_part == 0
        assert bsr.to_dense().all()

    def test_edge_block_full_when_inbounds_saturated(self):
        """A clipped edge block whose in-bounds region is all True is FULL."""
        m = np.ones((24, 24), bool)
        bsr = BlockSparseMask.from_dense(m, 16, 16)
        assert bsr.n_part == 0
        assert bsr.n_full == 4
        assert np.array_equal(bsr.to_dense(), m)


class TestDeduplication:
    def test_identical_part_blocks_stored_once(self):
        """'We store the identical block masks only once.'"""
        m = sliding_window_mask(128, 4)
        bsr = BlockSparseMask.from_dense(m, 16, 16)
        assert bsr.n_part > bsr.n_unique_part_masks

    def test_dedup_preserves_reconstruction(self):
        m = causal_mask(64)
        bsr = BlockSparseMask.from_dense(m, 16, 16)
        # Causal: all diagonal part blocks are identical -> exactly 1 unique.
        assert bsr.n_unique_part_masks == 1
        assert np.array_equal(bsr.to_dense(), m)

    def test_metadata_smaller_than_dense(self, rng):
        m = make_pattern("sliding_window", 1024, rng=rng.fork("meta"))
        bsr = BlockSparseMask.from_dense(m, 64, 64)
        assert bsr.metadata_bytes() < m.size  # dense bool = 1 B/elem


class TestCounts:
    def test_valid_ratio(self):
        m = np.zeros((32, 32), bool)
        m[:16, :16] = True
        bsr = BlockSparseMask.from_dense(m, 16, 16)
        assert bsr.valid_ratio == 0.25

    def test_row_valid_counts(self):
        m = sliding_window_mask(64, 1)
        bsr = BlockSparseMask.from_dense(m, 16, 16)
        counts = bsr.row_valid_counts()
        assert counts.sum() == bsr.n_valid
        assert (counts >= 1).all()   # every row touches its diagonal

    def test_finer_blocks_cover_less_area(self, rng):
        m = make_pattern("sliding_window", 256, rng=rng.fork("area"))
        coarse = BlockSparseMask.from_dense(m, 64, 64)
        fine = BlockSparseMask.from_dense(m, 16, 16)
        area_coarse = coarse.n_valid * 64 * 64
        area_fine = fine.n_valid * 16 * 16
        assert area_fine < area_coarse

    def test_blocks_in_row_bounds(self):
        bsr = BlockSparseMask.from_dense(np.eye(32, dtype=bool), 16, 16)
        with pytest.raises(ConfigError):
            bsr.blocks_in_row(2)


class TestBlockCounts:
    def test_ragged_full_block_matches_a_stored_part_mask(self):
        """A FULL 16x16 block on a ragged edge is True only on its in-bounds
        corner, and that content can equal a PART mask stored elsewhere.

        Rows 0-7 and 32-39 of a 40x32 mask attend columns 0-15.  At 32x32
        both block rows hold one PART block whose top-left 8x16 is True:
        one stored mask.  At 16x16 the first is PART and the second (rows
        32-39, the ragged edge) is FULL, so counting by block kind would
        store two.
        """
        m = np.zeros((40, 32), bool)
        m[0:8, 0:16] = True
        m[32:40, 0:16] = True
        fine = BlockSparseMask.from_dense(m, 16, 16)
        assert (fine.n_full, fine.n_part) == (1, 1)
        ref = BlockSparseMask.from_dense(m, 32, 32)
        assert (ref.n_part, ref.n_unique_part_masks) == (2, 1)
        got = fine.block_counts(32, 32)
        assert (got.n_full, got.n_part, got.n_unique_part) == (0, 2, 1)
        assert got.metadata_bytes() == ref.metadata_bytes()

    @pytest.mark.parametrize("tiling", [(8, 16), (16, 24), (24, 32)])
    def test_tiling_must_be_a_whole_multiple(self, tiling):
        bsr = BlockSparseMask.from_dense(causal_mask(64), 16, 16)
        with pytest.raises(ConfigError):
            bsr.block_counts(*tiling)


class TestValidation:
    def test_rectangular_masks_supported(self):
        """KV-cache decode steps have q_len != kv_len."""
        m = np.zeros((4, 8), bool)
        m[:, :5] = True
        bsr = BlockSparseMask.from_dense(m, 2, 2)
        assert bsr.seq_len == 4 and bsr.kv_len == 8
        assert bsr.n_block_rows == 2 and bsr.n_block_cols == 4
        assert np.array_equal(bsr.to_dense(), m)

    def test_decode_step_single_row(self):
        m = np.ones((1, 37), bool)
        bsr = BlockSparseMask.from_dense(m, 16, 16)
        assert bsr.n_block_rows == 1
        assert np.array_equal(bsr.to_dense(), m)

    def test_non_2d_rejected(self):
        with pytest.raises(ConfigError):
            BlockSparseMask.from_dense(np.zeros((4, 4, 2), bool), 2, 2)

    def test_bad_block_size(self):
        with pytest.raises(ConfigError):
            BlockSparseMask.from_dense(np.zeros((4, 4), bool), 0, 2)

    def test_int_mask_coerced(self):
        bsr = BlockSparseMask.from_dense(np.eye(4, dtype=int), 2, 2)
        assert bsr.n_valid == 2
