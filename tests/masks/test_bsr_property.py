"""Property-based tests for the BSR format (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.masks.bsr import BlockKind, BlockSparseMask, _block_populations
from repro.mha.problem import AttentionProblem


@st.composite
def masks(draw):
    seq = draw(st.integers(min_value=1, max_value=96))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return rng.random((seq, seq)) < density


@st.composite
def block_shapes(draw):
    return (
        draw(st.sampled_from([1, 2, 4, 8, 16, 32])),
        draw(st.sampled_from([1, 2, 4, 8, 16, 32])),
    )


@settings(max_examples=80, deadline=None)
@given(mask=masks(), blocks=block_shapes())
def test_round_trip_exact(mask, blocks):
    """from_dense -> to_dense is the identity for ANY mask and block size."""
    bsr = BlockSparseMask.from_dense(mask, *blocks)
    assert np.array_equal(bsr.to_dense(), mask)


@settings(max_examples=80, deadline=None)
@given(mask=masks(), blocks=block_shapes())
def test_csr_invariants(mask, blocks):
    """Structural invariants of the index arrays."""
    bsr = BlockSparseMask.from_dense(mask, *blocks)

    # Row pointers are monotone and end at the column counts.
    for ptr, cols in (
        (bsr.full_row_ptr, bsr.full_col_idx),
        (bsr.part_row_ptr, bsr.part_col_idx),
        (bsr.load_row_ptr, bsr.load_col_idx),
    ):
        assert (np.diff(ptr) >= 0).all()
        assert ptr[0] == 0 and ptr[-1] == len(cols)

    # Column indices within bounds; load columns sorted per row.
    if len(bsr.load_col_idx):
        assert bsr.load_col_idx.max() < bsr.n_block_cols
    for bi in range(bsr.n_block_rows):
        s, e = bsr.load_row_ptr[bi], bsr.load_row_ptr[bi + 1]
        row_cols = bsr.load_col_idx[s:e]
        assert (np.diff(row_cols) > 0).all()  # strictly increasing = unique

    # The merged view partitions exactly into FULL + PART.
    assert bsr.n_valid == bsr.n_full + bsr.n_part
    kinds = bsr.load_kind
    assert (kinds == BlockKind.FULL).sum() == bsr.n_full
    assert (kinds == BlockKind.PART).sum() == bsr.n_part

    # Every PART entry points at a real deduplicated mask; FULL entries at -1.
    part_sel = kinds == BlockKind.PART
    if part_sel.any():
        assert bsr.load_mask_idx[part_sel].min() >= 0
        assert bsr.load_mask_idx[part_sel].max() < bsr.n_unique_part_masks
    full_sel = kinds == BlockKind.FULL
    if full_sel.any():
        assert (bsr.load_mask_idx[full_sel] == -1).all()


@settings(max_examples=60, deadline=None)
@given(mask=masks(), blocks=block_shapes())
def test_population_preserved(mask, blocks):
    """The element population of the mask survives the format exactly."""
    bsr = BlockSparseMask.from_dense(mask, *blocks)
    assert bsr.to_dense().sum() == mask.sum()


@settings(max_examples=60, deadline=None)
@given(mask=masks(), blocks=block_shapes())
def test_part_masks_never_empty_nor_full_interior(mask, blocks):
    """Each deduplicated PART mask is mixed within its in-bounds region
    (empty blocks are skipped, saturated ones are FULL)."""
    bsr = BlockSparseMask.from_dense(mask, *blocks)
    for i in range(bsr.n_unique_part_masks):
        blk = bsr.part_mask[i]
        assert blk.any()  # never empty


@st.composite
def tiled_masks(draw):
    """Ragged, rectangular masks: random, empty, full, rectangles, bands."""
    seq = draw(st.integers(min_value=1, max_value=300))
    kv = draw(st.one_of(st.just(seq), st.integers(min_value=1, max_value=300)))
    kind = draw(st.sampled_from(["random", "empty", "full", "rects", "band"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    if kind == "random":
        return rng.random((seq, kv)) < rng.random()
    if kind == "empty":
        return np.zeros((seq, kv), dtype=bool)
    if kind == "full":
        return np.ones((seq, kv), dtype=bool)
    if kind == "rects":
        # Axis-aligned runs: FULL and identical PART blocks, ragged edges.
        mask = np.zeros((seq, kv), dtype=bool)
        for _ in range(rng.integers(1, 6)):
            r, c = rng.integers(0, seq), rng.integers(0, kv)
            mask[r : r + rng.integers(1, 48), c : c + rng.integers(1, 48)] = True
        return mask
    i, j = np.ogrid[:seq, :kv]
    return np.abs(i - j) <= rng.integers(0, 40)


def device_bytes(bsr: BlockSparseMask) -> int:
    """The device-side arrays' sizes, summed: what metadata_bytes prices."""
    return int(
        sum(
            a.nbytes
            for a in (
                bsr.full_row_ptr, bsr.full_col_idx, bsr.part_row_ptr,
                bsr.part_col_idx, bsr.part_mask_idx, bsr.load_row_ptr,
                bsr.load_col_idx, bsr.load_kind, bsr.load_mask_idx,
            )
        )
        + bsr.part_mask.size
    )


@settings(max_examples=60, deadline=None)
@given(mask=tiled_masks())
def test_block_counts_match_from_dense(mask):
    """Every block-wise tiling's counts, derived from the one 16x16 BSR,
    equal the counts of that tiling's own BSR, metadata bytes included."""
    seq, kv = mask.shape
    prob = AttentionProblem(1, 1, seq, 16, mask, kv_seq_len=kv)
    for bm in (16, 32, 64, 128):
        for bn in (16, 32, 64, 128):
            ref = BlockSparseMask.from_dense(mask, bm, bn)
            got = prob.block_counts(bm, bn)
            assert (got.n_block_rows, got.n_full, got.n_part, got.n_unique_part) == (
                ref.n_block_rows, ref.n_full, ref.n_part, ref.n_unique_part_masks,
            ), (bm, bn)
            assert got.n_valid == ref.n_valid
            assert got.metadata_bytes() == ref.metadata_bytes() == device_bytes(ref)


def padded_to_blocks(mask: np.ndarray, bm: int, bn: int) -> np.ndarray:
    seq, kv = mask.shape
    padded = np.zeros((-(-seq // bm) * bm, -(-kv // bn) * bn), dtype=bool)
    padded[:seq, :kv] = mask
    return padded


def transposed_populations(padded: np.ndarray, bm: int, bn: int) -> np.ndarray:
    """Per-block populations by summing the transposed 4-D view (the oracle)."""
    rows, cols = padded.shape[0] // bm, padded.shape[1] // bn
    return padded.reshape(rows, bm, cols, bn).transpose(0, 2, 1, 3).sum(axis=(2, 3))


@settings(max_examples=80, deadline=None)
@given(
    mask=tiled_masks(),
    bm=st.integers(min_value=1, max_value=128),
    bn=st.integers(min_value=1, max_value=128),
)
def test_block_populations_match_transposed_sum(mask, bm, bn):
    """The two-reduction population count equals the transposed-view sum,
    and from_dense classifies FULL/PART blocks by it."""
    padded = padded_to_blocks(mask, bm, bn)
    want = transposed_populations(padded, bm, bn)
    assert np.array_equal(_block_populations(padded, bm, bn), want)

    seq, kv = mask.shape
    capacity = np.outer(
        np.minimum(bm, seq - bm * np.arange(want.shape[0])),
        np.minimum(bn, kv - bn * np.arange(want.shape[1])),
    )
    bsr = BlockSparseMask.from_dense(mask, bm, bn)
    kinds = np.full(want.shape, -1, dtype=np.int8)  # -1: empty block
    kinds[bsr.load_block_row, bsr.load_col_idx] = bsr.load_kind
    full = (want > 0) & (want == capacity)
    assert np.array_equal(kinds == BlockKind.FULL, full)
    assert np.array_equal(kinds == BlockKind.PART, (want > 0) & ~full)
