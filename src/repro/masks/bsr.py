"""Block-compressed sparse row (BSR) mask storage (paper §4.2, Fig. 6).

The mask matrix is tiled into ``(BLOCK_M, BLOCK_N)`` blocks.  Each block is
classified as:

* ``FULL``  — every element attended: the kernel does a dense tile with no
  mask load at all,
* ``PART``  — mixed: the kernel loads the block's element mask and applies
  it after the score GEMM,
* empty     — no element attended: the block (and the matching K/V tiles)
  is *skipped entirely*.

Storage follows the paper exactly:

* ``full_row_ptr`` / ``full_col_idx`` — CSR over FULL blocks.
* ``part_row_ptr`` / ``part_col_idx`` — CSR over PART blocks; each PART
  block also carries an index into ``part_mask``, a stack of *deduplicated*
  dense block masks ("we store the identical block masks only once and then
  broadcast them to the indices").
* ``load_row_ptr`` / ``load_col_idx`` — the merged CSR over all valid
  (FULL ∪ PART) blocks, column-sorted per row; this is what the block-wise
  kernel iterates.  ``load_kind``/``load_mask_idx`` run parallel to
  ``load_col_idx`` so one pass yields everything the kernel needs.

On top of the CSR view, ``from_dense`` eagerly builds a *flat COO* view the
codegen specializer plans from: ``load_block_row`` records each valid
block's block-row, and the ``seg_*`` arrays describe the non-empty
block-row segments of the flat block axis (``seg_starts`` is where each
row's run of blocks starts, ``seg_id`` maps blocks to segments,
``seg_block_rows`` maps segments to output rows); ``concat_groups()``
buckets those segments for the generated modules.
``part_bias`` is the deduplicated PART-mask stack as an additive FP32 bias
(``0`` attended / ``-inf`` masked), ready to add onto score tiles.

Pricing a tiling reads only four numbers of its BSR — block rows, FULL
blocks, PART blocks and unique PART masks — gathered in a
:class:`BlockCounts` record, which also holds the device
``metadata_bytes`` formula.  :meth:`BlockSparseMask.block_counts` derives
that record exactly for any coarser tiling whose block sizes are
multiples of its own, so the selector prices every candidate tiling from
one fine BSR (``AttentionProblem.block_counts`` reads the 16x16 one) and
only a tiling that is executed builds its own full BSR.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.errors import ConfigError


class BlockKind(enum.IntEnum):
    """Kind tag stored per valid block in the merged load arrays."""

    FULL = 0
    PART = 1


#: Device bytes per stored index (``int32``) and per kind tag (``int8``).
_INDEX_BYTES = np.dtype(np.int32).itemsize
_KIND_BYTES = np.dtype(np.int8).itemsize

#: Content id of an all-``False`` block: empty, or padding past the mask.
_EMPTY_ID = -1


@dataclass(frozen=True)
class BlockCounts:
    """The block classification of one tiling, as far as pricing reads it.

    ``n_block_rows`` block rows, ``n_full`` FULL and ``n_part`` PART blocks,
    and ``n_unique_part`` distinct PART-block masks (the deduplicated
    ``part_mask`` stack).

    The fields may also be integer arrays, one entry per tiling of a
    candidate grid: ``n_valid`` and :meth:`metadata_bytes` are elementwise,
    so the selector prices a whole grid through them in one pass.
    """

    block_m: int
    block_n: int
    n_block_rows: int
    n_full: int
    n_part: int
    n_unique_part: int

    @property
    def n_valid(self) -> int:
        return self.n_full + self.n_part

    def metadata_bytes(self) -> int:
        """Device bytes occupied by the BSR index arrays and mask stack.

        Three ``int32`` row-pointer arrays (FULL, PART, merged load); an
        ``int32`` column per FULL block; an ``int32`` column and mask index
        per PART block; an ``int32`` column, ``int8`` kind and ``int32``
        mask index per valid block of the merged load CSR; and the
        deduplicated PART stack at one byte per element.  The flat-COO /
        segment arrays are host-side execution machinery for the
        functional codegen backend and deliberately not counted: a real
        device kernel consumes only the CSR views priced here.
        """
        return (
            3 * _INDEX_BYTES * (self.n_block_rows + 1)
            + _INDEX_BYTES * self.n_full
            + 2 * _INDEX_BYTES * self.n_part
            + (2 * _INDEX_BYTES + _KIND_BYTES) * self.n_valid
            + self.n_unique_part * self.block_m * self.block_n
        )


@dataclass
class BlockSparseMask:
    """BSR representation of an attention mask.

    Build with :meth:`from_dense`; reconstruct with :meth:`to_dense` (an
    exact round trip — property-tested).  All index arrays are ``int32``
    (matching what a GPU kernel would consume); block masks are stored as a
    single boolean stack ``part_mask`` of shape ``(n_unique, BLOCK_M,
    BLOCK_N)``.
    """

    seq_len: int
    kv_len: int
    block_m: int
    block_n: int

    full_row_ptr: np.ndarray
    full_col_idx: np.ndarray
    part_row_ptr: np.ndarray
    part_col_idx: np.ndarray
    part_mask_idx: np.ndarray   # parallel to part_col_idx -> row of part_mask
    part_mask: np.ndarray       # (n_unique, block_m, block_n) bool

    load_row_ptr: np.ndarray
    load_col_idx: np.ndarray
    load_kind: np.ndarray       # parallel to load_col_idx, BlockKind values
    load_mask_idx: np.ndarray   # parallel; -1 for FULL blocks

    # Flat COO view (read by the codegen specializer; built by from_dense).
    load_block_row: np.ndarray  # parallel to load_col_idx: block-row index
    seg_starts: np.ndarray      # flat offsets of each non-empty block row
    seg_block_rows: np.ndarray  # block-row index of each segment
    seg_id: np.ndarray          # parallel to load_col_idx: segment index
    part_bias: np.ndarray       # (n_unique, block_m, block_n) fp32 0/-inf

    _load_bias_cache: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )
    _concat_groups_cache: list | None = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------ construction

    @classmethod
    def from_dense(
        cls, mask: np.ndarray, block_m: int, block_n: int
    ) -> "BlockSparseMask":
        """Tile a dense boolean mask into BSR form.

        The sequence length need not divide the block size: edge blocks are
        padded with ``False`` (padding never counts toward "full").

        >>> import numpy as np
        >>> m = np.eye(4, dtype=bool)
        >>> bsr = BlockSparseMask.from_dense(m, 2, 2)
        >>> bsr.n_full, bsr.n_part
        (0, 2)
        >>> bool((bsr.to_dense() == m).all())
        True
        """
        mask = np.asarray(mask)
        if mask.ndim != 2:
            raise ConfigError(f"mask must be 2-D, got shape {mask.shape}")
        if mask.dtype != bool:
            mask = mask.astype(bool)
        if block_m < 1 or block_n < 1:
            raise ConfigError(f"block sizes must be >= 1, got ({block_m}, {block_n})")

        # Rectangular masks (query length != key length, e.g. KV-cache
        # decode steps) are supported; ``seq_len``/``kv_len`` track the two
        # extents separately.
        seq_len, kv_len = mask.shape
        n_rows = -(-seq_len // block_m)
        n_cols = -(-kv_len // block_n)

        padded = np.zeros((n_rows * block_m, n_cols * block_n), dtype=bool)
        padded[:seq_len, :kv_len] = mask
        blocks = padded.reshape(n_rows, block_m, n_cols, block_n).transpose(0, 2, 1, 3)
        counts = _block_populations(padded, block_m, block_n)

        # "full" means every *in-bounds* element is attended; edge blocks are
        # full when their un-padded region is saturated.
        capacity = np.outer(
            np.minimum(block_m, seq_len - block_m * np.arange(n_rows)),
            np.minimum(block_n, kv_len - block_n * np.arange(n_cols)),
        )

        is_valid = counts > 0
        is_full = is_valid & (counts == capacity)
        is_part = is_valid & ~is_full

        full_row_ptr, full_col_idx = _csr_from_grid(is_full)
        part_row_ptr, part_col_idx = _csr_from_grid(is_part)

        # Deduplicate part-block masks by content (vectorized: unique over
        # the flattened block rows, row-major order matches the CSR order).
        p_rows, p_cols = np.nonzero(is_part)
        if len(p_rows):
            part_blocks = blocks[p_rows, p_cols].reshape(len(p_rows), -1)
            # Bit-pack each block and compare as opaque fixed-size records:
            # memcmp-based unique is far faster than axis=0 unique on bools.
            packed = np.packbits(part_blocks, axis=1)
            packed = np.ascontiguousarray(packed)
            keys = packed.view(f"V{packed.shape[1]}").ravel()
            _, first_idx, inverse = np.unique(
                keys, return_index=True, return_inverse=True
            )
            # Re-number unique blocks by first appearance so ordering is
            # deterministic and independent of np.unique's sort.
            order = np.argsort(first_idx, kind="stable")
            renumber = np.empty_like(order)
            renumber[order] = np.arange(len(order))
            part_mask_idx = renumber[inverse].astype(np.int32)
            part_mask = part_blocks[np.sort(first_idx)].reshape(
                -1, block_m, block_n
            )
        else:
            part_mask_idx = np.zeros(0, dtype=np.int32)
            part_mask = np.zeros((0, block_m, block_n), dtype=bool)

        # Merged load arrays: FULL and PART interleaved in column order
        # (vectorized lexsort over (row, col)).
        f_rows, f_cols = np.nonzero(is_full)
        all_rows = np.concatenate([f_rows, p_rows]).astype(np.int64)
        all_cols = np.concatenate([f_cols, p_cols]).astype(np.int32)
        all_kinds = np.concatenate(
            [
                np.full(len(f_rows), int(BlockKind.FULL), dtype=np.int8),
                np.full(len(p_rows), int(BlockKind.PART), dtype=np.int8),
            ]
        )
        all_midx = np.concatenate(
            [np.full(len(f_rows), -1, dtype=np.int32), part_mask_idx]
        )
        order = np.lexsort((all_cols, all_rows))
        load_cols = all_cols[order]
        load_kinds = all_kinds[order]
        load_midx = all_midx[order]
        row_counts = np.bincount(all_rows, minlength=n_rows)
        load_row_ptr = np.zeros(n_rows + 1, dtype=np.int32)
        np.cumsum(row_counts, out=load_row_ptr[1:])

        # Flat COO view: per-block block-row indices plus the non-empty
        # row segments of the flat block axis (blocks are (row, col)-sorted,
        # so each block row occupies one contiguous flat segment).
        load_rows = all_rows[order].astype(np.int32)
        seg_block_rows = np.flatnonzero(row_counts > 0).astype(np.int32)
        seg_starts = load_row_ptr[seg_block_rows]
        seg_id = np.repeat(
            np.arange(len(seg_block_rows), dtype=np.int32),
            row_counts[seg_block_rows],
        )
        part_bias = np.where(
            part_mask, np.float32(0.0), np.float32(-np.inf)
        ).astype(np.float32)

        return cls(
            seq_len=seq_len,
            kv_len=kv_len,
            block_m=block_m,
            block_n=block_n,
            full_row_ptr=full_row_ptr,
            full_col_idx=full_col_idx,
            part_row_ptr=part_row_ptr,
            part_col_idx=part_col_idx,
            part_mask_idx=part_mask_idx,
            part_mask=part_mask,
            load_row_ptr=load_row_ptr,
            load_col_idx=np.asarray(load_cols, dtype=np.int32),
            load_kind=np.asarray(load_kinds, dtype=np.int8),
            load_mask_idx=np.asarray(load_midx, dtype=np.int32),
            load_block_row=load_rows,
            seg_starts=seg_starts,
            seg_block_rows=seg_block_rows,
            seg_id=seg_id,
            part_bias=part_bias,
        )

    # ------------------------------------------------------------- round trip

    def to_dense(self) -> np.ndarray:
        """Reconstruct the exact dense boolean mask (vectorized scatter)."""
        blocks = np.zeros(
            (self.n_block_rows, self.n_block_cols, self.block_m, self.block_n),
            dtype=bool,
        )
        full = self.load_kind == int(BlockKind.FULL)
        blocks[self.load_block_row[full], self.load_col_idx[full]] = True
        part = ~full
        blocks[self.load_block_row[part], self.load_col_idx[part]] = (
            self.part_mask[self.load_mask_idx[part]]
        )
        out = blocks.transpose(0, 2, 1, 3).reshape(
            self.n_block_rows * self.block_m, self.n_block_cols * self.block_n
        )
        # FULL edge blocks legitimately cover padded region; clip handled by
        # slicing.  Padding inside part blocks was stored as False.
        return out[: self.seq_len, : self.kv_len]

    # --------------------------------------------------------------- queries

    @property
    def n_block_rows(self) -> int:
        return -(-self.seq_len // self.block_m)

    @property
    def n_block_cols(self) -> int:
        return -(-self.kv_len // self.block_n)

    @property
    def n_full(self) -> int:
        return int(len(self.full_col_idx))

    @property
    def n_part(self) -> int:
        return int(len(self.part_col_idx))

    @property
    def n_valid(self) -> int:
        return int(len(self.load_col_idx))

    @property
    def n_total(self) -> int:
        return self.n_block_rows * self.n_block_cols

    @property
    def valid_ratio(self) -> float:
        """Fraction of blocks that must be computed (Eq. 1's first term)."""
        return self.n_valid / self.n_total if self.n_total else 0.0

    @property
    def n_unique_part_masks(self) -> int:
        return int(self.part_mask.shape[0])

    def row_valid_counts(self) -> np.ndarray:
        """Number of valid blocks per block row (kernel work distribution)."""
        return np.diff(self.load_row_ptr)

    def blocks_in_row(self, block_row: int) -> list[tuple[int, BlockKind, int]]:
        """Iterate the valid blocks of one block row as (col, kind, mask_idx)."""
        if not (0 <= block_row < self.n_block_rows):
            raise ConfigError(
                f"block_row {block_row} out of range [0, {self.n_block_rows})"
            )
        s, e = self.load_row_ptr[block_row], self.load_row_ptr[block_row + 1]
        return [
            (
                int(self.load_col_idx[k]),
                BlockKind(int(self.load_kind[k])),
                int(self.load_mask_idx[k]),
            )
            for k in range(s, e)
        ]

    def load_bias(self) -> np.ndarray:
        """Per-valid-block additive score bias, ``(n_valid, block_m, block_n)``.

        ``0`` where attended, ``-inf`` where masked: PART blocks expand their
        deduplicated ``part_bias`` row, FULL blocks are all-zero except for
        the out-of-bounds key columns of a ragged edge block (PART padding is
        already ``False`` in the stored masks).  Cached after first build —
        it is a pure function of the mask.
        """
        if self._load_bias_cache is None:
            bias = np.zeros(
                (self.n_valid, self.block_m, self.block_n), dtype=np.float32
            )
            part = self.load_kind == int(BlockKind.PART)
            if part.any():
                bias[part] = self.part_bias[self.load_mask_idx[part]]
            pad_cols = self.n_block_cols * self.block_n - self.kv_len
            if pad_cols > 0:
                edge = (self.load_col_idx == self.n_block_cols - 1) & ~part
                bias[edge, :, self.block_n - pad_cols :] = -np.inf
            self._load_bias_cache = bias
        return self._load_bias_cache

    def concat_groups(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
        """Length-bucketed concatenated views of the flat block axis (cached).

        Non-empty block rows are grouped by their valid-block count; within a
        group, every row's blocks concatenate along the key axis, so each
        group's score tile is one ``(block_m, cap*block_n)`` slab and the
        segmented softmax over ``seg_starts`` becomes a plain last-axis
        softmax (the segment is the axis).  Counts are exact when the mask
        has few distinct per-row block counts (banded masks — zero padded
        compute); masks with many distinct counts (causal) round up to
        power-of-two buckets, where padded slots repeat the row's last block
        under an all ``-inf`` bias and contribute ``exp(-inf) = 0``.

        Returns ``(block_rows, block_idx, bias)`` per bucket: ``block_rows``
        ``(n_g,)`` block-row of each member, ``block_idx`` ``(n_g, cap)``
        flat indices into the valid-block axis, and ``bias``
        ``(n_g, block_m, cap*block_n)`` additive FP32 score bias — ``None``
        when the whole slab is zero (all-FULL rows, no padding).
        """
        if self._concat_groups_cache is None:
            groups: list[tuple[np.ndarray, np.ndarray, np.ndarray | None]] = []
            lens = np.diff(self.load_row_ptr)[self.seg_block_rows].astype(np.int64)
            if lens.size:
                if len(np.unique(lens)) <= 16:
                    caps = lens                      # exact: no padded slots
                else:
                    caps = np.int64(1) << np.ceil(np.log2(lens)).astype(np.int64)
                bias_all = self.load_bias()
                for cap in np.unique(caps):
                    sel = caps == cap
                    rows_g = self.seg_block_rows[sel]
                    lens_g = lens[sel]
                    lanes = np.arange(cap)
                    idx = self.seg_starts[sel].astype(np.int64)[:, None] + np.minimum(
                        lanes[None, :], lens_g[:, None] - 1
                    )
                    slab = bias_all[idx]        # (n_g, cap, bm, bn) tile gather
                    slab[lanes[None, :] >= lens_g[:, None]] = -np.inf
                    slab = slab.transpose(0, 2, 1, 3).reshape(
                        len(rows_g), self.block_m, int(cap) * self.block_n
                    )
                    groups.append(
                        (rows_g, idx.astype(np.int32), slab if slab.any() else None)
                    )
            self._concat_groups_cache = groups
        return self._concat_groups_cache

    def block_counts(self, block_m: int, block_n: int) -> BlockCounts:
        """Block counts of this mask tiled at ``(block_m, block_n)``.

        The tiling must be this BSR's own or coarser by whole factors: each
        coarse block is then an ``(fm, fn)`` grid of this BSR's blocks, and
        its counts follow from theirs without touching the dense mask.  A
        coarse block is FULL when every one of its blocks inside the mask
        is FULL and valid when any block is; two PART blocks share a stored
        mask when their blocks' contents agree position by position (see
        :attr:`_fine_grids`).  Exact: equal to ``from_dense(mask, block_m,
        block_n)``'s counts (property-tested).
        """
        fm, rem_m = divmod(block_m, self.block_m)
        fn, rem_n = divmod(block_n, self.block_n)
        if fm < 1 or fn < 1 or rem_m or rem_n:
            raise ConfigError(
                f"tiling ({block_m}, {block_n}) is not a multiple of this "
                f"BSR's ({self.block_m}, {self.block_n})"
            )
        if fm == fn == 1:
            return BlockCounts(
                block_m, block_n, self.n_block_rows,
                self.n_full, self.n_part, self.n_unique_part_masks,
            )
        ids, full = self._fine_grids
        rows, cols = ids.shape
        n_rows, n_cols = -(-rows // fm), -(-cols // fn)

        def coarse(grid: np.ndarray, pad) -> np.ndarray:
            """``grid`` padded with ``pad`` to whole coarse blocks, one row
            of ``fm * fn`` entries per coarse block."""
            out = np.full((n_rows * fm, n_cols * fn), pad, dtype=grid.dtype)
            out[:rows, :cols] = grid
            return out.reshape(n_rows, fm, n_cols, fn).transpose(0, 2, 1, 3).reshape(
                n_rows * n_cols, fm * fn
            )

        # Padding past the mask has no in-bounds element to leave unattended.
        is_full = coarse(full, True).all(axis=1)
        signatures = coarse(ids, _EMPTY_ID)
        is_part = (signatures != _EMPTY_ID).any(axis=1) & ~is_full
        part = np.ascontiguousarray(signatures[is_part])
        # Distinct signatures = value changes along the sorted records.
        # (A bare np.unique takes its hash path, whose first call imports
        # numpy.ma: ~15 ms once per process, paid by a one-shot plan.)
        keys = np.sort(part.view(f"V{part.shape[1] * part.itemsize}").ravel())
        n_unique = int(keys.size > 0) + int(np.count_nonzero(keys[1:] != keys[:-1]))
        return BlockCounts(
            block_m, block_n, n_rows,
            int(is_full.sum()), int(is_part.sum()), n_unique,
        )

    @cached_property
    def _fine_grids(self) -> tuple[np.ndarray, np.ndarray]:
        """Per block of this tiling: a content id, and whether it is FULL.

        Content ids are equal exactly where two blocks' padded contents are
        equal.  A PART block's id is its ``load_mask_idx`` (the stack is
        deduplicated by content), an interior FULL block gets one id, and
        an empty block gets ``_EMPTY_ID``.  A FULL block on a ragged edge
        holds ``True`` only on its in-bounds corner; that content can equal
        a stored PART mask, whose id it then takes, and otherwise gets one
        new id per corner shape.
        """
        bm, bn = self.block_m, self.block_n
        n_unique = self.n_unique_part_masks
        shape = (self.n_block_rows, self.n_block_cols)
        ids = np.full(shape, _EMPTY_ID, dtype=np.int64)
        full = np.zeros(shape, dtype=bool)
        kind_full = self.load_kind == int(BlockKind.FULL)
        part = ~kind_full
        ids[self.load_block_row[part], self.load_col_idx[part]] = self.load_mask_idx[part]
        f_rows = self.load_block_row[kind_full]
        f_cols = self.load_col_idx[kind_full]
        heights = np.minimum(bm, self.seq_len - f_rows * bm)
        widths = np.minimum(bn, self.kv_len - f_cols * bn)
        full_ids = np.full(len(f_rows), n_unique, dtype=np.int64)
        next_id = n_unique + 1
        ragged = (heights < bm) | (widths < bn)
        for h, w in sorted(set(zip(heights[ragged].tolist(), widths[ragged].tolist()))):
            corner = np.zeros((bm, bn), dtype=bool)
            corner[:h, :w] = True
            same = np.flatnonzero((self.part_mask == corner).all(axis=(1, 2)))
            if len(same):
                content = int(same[0])
            else:
                content, next_id = next_id, next_id + 1
            full_ids[ragged & (heights == h) & (widths == w)] = content
        ids[f_rows, f_cols] = full_ids
        full[f_rows, f_cols] = True
        return ids, full

    def metadata_bytes(self) -> int:
        """Device bytes occupied by the index arrays and mask stack
        (:meth:`BlockCounts.metadata_bytes` of this tiling)."""
        return self.block_counts(self.block_m, self.block_n).metadata_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockSparseMask(seq={self.seq_len}, block=({self.block_m},"
            f"{self.block_n}), full={self.n_full}, part={self.n_part}, "
            f"valid={self.n_valid}/{self.n_total})"
        )


def _csr_from_grid(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR (row_ptr, col_idx) over the True cells of a 2-D boolean grid."""
    n_rows = grid.shape[0]
    rows, cols = np.nonzero(grid)  # row-major order: already row-sorted
    row_ptr = np.zeros(n_rows + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=row_ptr[1:])
    return row_ptr, cols.astype(np.int32)


def _block_populations(padded: np.ndarray, block_m: int, block_n: int) -> np.ndarray:
    """Set elements of each ``(block_m, block_n)`` block of a block-aligned mask.

    Two contiguous reductions: each block row's ``block_m`` rows are summed
    down the columns, then each block's ``block_n`` columns.  Summing the
    transposed ``(rows, cols, block_m, block_n)`` view instead is 3-5x
    slower at 1024-1536 tokens.
    """
    n_rows = padded.shape[0] // block_m
    n_cols = padded.shape[1] // block_n
    col_counts = (
        padded.view(np.uint8)
        .reshape(n_rows, block_m, n_cols * block_n)
        .sum(axis=1, dtype=np.int32)
    )
    return col_counts.reshape(n_rows, n_cols, block_n).sum(axis=2, dtype=np.int32)
