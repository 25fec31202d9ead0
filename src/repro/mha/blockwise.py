"""The block-wise sparse attention kernel (paper §4.2, Figs. 6-7).

One fused kernel computes masked attention over the BSR mask view:

* Q is cut into ``(BLOCK_M, head_size)`` sub-blocks; each gets one thread
  block (``grid = batch * heads * n_block_rows``).
* For every block row, only the *valid* K^T/V sub-blocks listed in
  ``load_row_ptr / load_col_idx`` are loaded and computed; empty blocks are
  skipped entirely — no traffic, no FLOPs.
* FULL blocks run dense; PART blocks additionally load their (deduplicated)
  element mask and apply it before the online-softmax update.
* K^T and V alternate in one SMEM buffer, tiles are padded to kill bank
  conflicts, score/context products run on tensor cores (wmma), and V loads
  are pipelined against compute with async copy.

``run`` computes real values via the same block traversal (online softmax in
FP32) over the BSR built at its tiling; ``plan`` produces the launch the
simulated device prices from that tiling's block counts
(:meth:`AttentionProblem.block_counts`), which equal the BSR's own.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any

import numpy as np

from repro.core.errors import ConfigError
from repro.core.fp16 import FP16_BYTES, to_fp16
from repro.gpu.bank import bank_conflict_factor
from repro.gpu.cost import (
    ARRAY_OPS,
    FLOAT_OPS,
    KernelCost,
    LaunchConfig,
    Ops,
    estimate_kernel_times,
)
from repro.gpu.specs import GPUSpec
from repro.masks.bsr import BlockCounts, BlockKind, BlockSparseMask
from repro.mha.kernel import AttentionKernel, Launch
from repro.mha.problem import AttentionProblem

#: SMEM padding in FP16 elements (the paper's Eq. 2 uses 16).
DEFAULT_PADDING = 16

#: Per-block softmax/rescale SIMT work per score element (scale, running
#: max/sum updates, exp, rescale of the accumulator).
SIMT_FLOPS_PER_SCORE = 12.0


def required_smem_elems(
    block_m: int, block_n: int, head_size: int, padding: int = DEFAULT_PADDING
) -> int:
    """Paper Eq. 2's ``req_SMEM`` (in FP16 elements).

    ``(2*BLOCK_M + BLOCK_N) * (w + padding)`` covers the Q tile, the output
    staging tile, and the shared K^T/V tile (K and V alternate in one
    buffer); ``BLOCK_M * (BLOCK_N + padding)`` is the score tile.
    """
    w = head_size
    return (2 * block_m + block_n) * (w + padding) + block_m * (block_n + padding)


class BlockWiseKernel(AttentionKernel):
    """STOF's general block-wise kernel."""

    name = "stof-blockwise"

    def param_space(self) -> dict[str, tuple]:
        return {
            "block_m": (64, 16, 32, 128),
            "block_n": (64, 16, 32, 128),
            "num_warps": (4, 1, 2, 8),
            "padding": (DEFAULT_PADDING, 0),
        }

    def default_params(self, problem: AttentionProblem, spec: GPUSpec) -> dict[str, Any]:
        return {
            "block_m": min(64, _pow2_block(problem.seq_len)),
            "block_n": min(64, _pow2_block(problem.seq_len)),
            "num_warps": 4,
            "padding": DEFAULT_PADDING,
        }

    # ------------------------------------------------------------------ plan

    def plan(
        self,
        problem: AttentionProblem,
        spec: GPUSpec,
        params: dict[str, Any] | None = None,
    ) -> list[Launch]:
        p = params or self.default_params(problem, spec)
        _validate_blocks(p["block_m"], p["block_n"])
        counts = problem.block_counts(p["block_m"], p["block_n"])
        cost = KernelCost(
            name=self.name,
            **_cost_fields(FLOAT_OPS, problem, spec, counts, p["padding"]),
        )
        config = LaunchConfig(
            **_launch_fields(problem, counts, p["num_warps"], p["padding"])
        )
        return [(cost, config)]

    def setting_times(
        self,
        problem: AttentionProblem,
        spec: GPUSpec,
        settings: list[tuple[int, int, int]],
        padding: int = DEFAULT_PADDING,
    ) -> np.ndarray:
        """Estimated seconds of each ``(block_m, block_n, num_warps)``
        setting, priced in one array pass.

        Element ``i`` equals :meth:`estimate_time` of setting ``i`` bit for
        bit, and is ``+inf`` where that launch does not fit on an SM.
        """
        names = [f.name for f in fields(BlockCounts)]
        rows: dict[tuple[int, int], int] = {}
        tilings = []
        for bm, bn, _ in settings:
            if (bm, bn) not in rows:
                _validate_blocks(bm, bn)
                rows[bm, bn] = len(tilings)
                tiling = problem.block_counts(bm, bn)
                tilings.append([getattr(tiling, name) for name in names])
        # One BlockCounts whose fields are arrays over the settings: its
        # formulas, like the cost fields', are elementwise.
        pick = [rows[bm, bn] for bm, bn, _ in settings]
        counts = BlockCounts(*np.array(tilings, dtype=np.int64)[pick].T)
        warps = np.array([w for _, _, w in settings], dtype=np.int64)
        return estimate_kernel_times(
            spec,
            **_launch_fields(problem, counts, warps, padding),
            **_cost_fields(ARRAY_OPS, problem, spec, counts, padding),
        )

    # ------------------------------------------------------------------- run

    def run(
        self, problem: AttentionProblem, params: dict[str, Any] | None = None
    ) -> np.ndarray:
        if problem.q is None:
            raise ConfigError("problem has no tensors; build with with_tensors=True")
        p = params or self.default_params(problem, _DEFAULT_SPEC)
        bm, bn = p["block_m"], p["block_n"]
        _validate_blocks(bm, bn)
        bsr = problem.bsr(bm, bn)

        q, k, v = problem.staged_f32()

        if self.exec_backend == "loop":
            out = self._run_loop(bsr, q, k, v)
        else:
            from repro.codegen.backend import run_blockwise

            out = run_blockwise(problem, bsr, q, k, v, self.name)
        return to_fp16(out.reshape(problem.qkv_shape))

    def _run_loop(self, bsr: BlockSparseMask, q, k, v) -> np.ndarray:
        """Oracle backend: nested Python loop over block rows and blocks."""
        n_bh, seq, d = q.shape
        kv = k.shape[1]
        bm, bn = bsr.block_m, bsr.block_n
        out = np.zeros((n_bh, seq, d), dtype=np.float32)

        for bi in range(bsr.n_block_rows):
            r0, r1 = bi * bm, min((bi + 1) * bm, seq)
            rows = r1 - r0
            qi = q[:, r0:r1]                                  # (n_bh, rows, d)
            m_run = np.full((n_bh, rows), -np.inf, dtype=np.float32)
            l_run = np.zeros((n_bh, rows), dtype=np.float32)
            acc = np.zeros((n_bh, rows, d), dtype=np.float32)

            for col, kind, midx in bsr.blocks_in_row(bi):
                c0, c1 = col * bn, min((col + 1) * bn, kv)
                cols = c1 - c0
                s = qi @ k[:, c0:c1].transpose(0, 2, 1)       # (n_bh, rows, cols)
                if kind == BlockKind.PART:
                    blk = bsr.part_mask[midx][:rows, :cols]
                    s = np.where(blk, s, -np.inf)

                blk_max = s.max(axis=-1)
                m_new = np.maximum(m_run, blk_max)
                # alpha rescales the running accumulator; rows still at -inf
                # have nothing accumulated, so alpha can safely be zero.
                finite_new = np.isfinite(m_new)
                alpha = np.where(
                    np.isfinite(m_run) & finite_new,
                    np.exp(np.minimum(m_run - np.where(finite_new, m_new, 0.0), 0.0)),
                    0.0,
                )
                pexp = np.where(
                    np.isfinite(s) & finite_new[..., None],
                    np.exp(s - np.where(finite_new, m_new, 0.0)[..., None]),
                    0.0,
                )
                l_run = l_run * alpha + pexp.sum(axis=-1)
                acc = acc * alpha[..., None] + pexp @ v[:, c0:c1]
                m_run = m_new

            denom = l_run[..., None]
            out[:, r0:r1] = np.divide(
                acc, denom, out=np.zeros_like(acc), where=denom > 0
            )

        return out


def _launch_fields(
    problem: AttentionProblem, counts: BlockCounts, num_warps: Any, padding: int
) -> dict[str, Any]:
    """The :class:`LaunchConfig` fields of a tiling, or of a grid of them."""
    return {
        "grid_blocks": problem.n_bh * counts.n_block_rows,
        "warps_per_block": num_warps,
        "smem_per_block": required_smem_elems(
            counts.block_m, counts.block_n, problem.head_size, padding
        ) * FP16_BYTES,
        "pipelined": True,
    }


def _cost_fields(
    ops: Ops,
    problem: AttentionProblem,
    spec: GPUSpec,
    counts: BlockCounts,
    padding: int,
) -> dict[str, Any]:
    """The :class:`KernelCost` fields of a tiling from its block counts.

    One body for one tiling (Python numbers, :data:`FLOAT_OPS`) and for a
    grid of tilings (``counts`` fields are arrays, :data:`ARRAY_OPS`); see
    :class:`repro.gpu.cost.Ops`.
    """
    bm, bn = counts.block_m, counts.block_n
    d = problem.head_size
    n_bh = problem.n_bh
    n_valid = counts.n_valid
    n_part = counts.n_part
    n_rows = counts.n_block_rows

    q_bytes = problem.qkv_bytes
    out_bytes = problem.qkv_bytes
    kv_block_bytes = bn * d * FP16_BYTES
    # Every valid block visit loads one K^T tile and one V tile.
    kv_load_total = n_bh * n_valid * kv_block_bytes * 2.0
    kv_resident = 2.0 * problem.kv_bytes  # all of K and V
    kv_first = ops.minimum(kv_load_total, kv_resident)
    kv_reread = kv_load_total - kv_first
    if kv_resident <= spec.l2_bytes:
        l2_read = kv_reread
        dram_read = q_bytes + kv_first
    else:
        l2_read = 0.0
        dram_read = q_bytes + kv_load_total

    # PART-block element masks (1 byte/element on device, deduplicated
    # stack is L2-resident after first touch) + index metadata.
    meta_first = counts.metadata_bytes()
    mask_visits = n_bh * n_part * bm * bn * 1.0
    dram_read += meta_first
    l2_read += ops.maximum(0.0, mask_visits - meta_first)

    scores_staged = n_bh * n_valid * bm * bn * FP16_BYTES
    smem_traffic = 2.0 * (kv_load_total + q_bytes + scores_staged)

    conflict = bank_conflict_factor(d + padding)

    avg_valid_per_row = n_valid / ops.maximum(1, n_rows)
    return {
        "bytes_dram_read": dram_read,
        "bytes_dram_written": out_bytes,
        "bytes_l2_read": l2_read,
        "bytes_smem": smem_traffic,
        "bank_conflict_factor": float(conflict),
        "flops_tensor": n_bh * n_valid * 4.0 * bm * bn * d,  # QK^T + PV
        "flops_simt": n_bh * n_valid * SIMT_FLOPS_PER_SCORE * bm * bn,
        "sync_rounds": avg_valid_per_row,
        "launches": 1,
    }


def _validate_blocks(block_m: int, block_n: int) -> None:
    """Eq. 2's constraint: multiples of 16 and powers of two."""
    for name, b in (("block_m", block_m), ("block_n", block_n)):
        if b < 16 or b % 16 != 0 or (b & (b - 1)) != 0:
            raise ConfigError(
                f"{name} must be a power-of-two multiple of 16, got {b}"
            )


def _pow2_block(seq_len: int) -> int:
    """Largest power-of-two block (>=16) not exceeding the sequence length."""
    b = 16
    while b * 2 <= seq_len and b * 2 <= 128:
        b *= 2
    return b


from repro.gpu.specs import A100 as _DEFAULT_SPEC  # noqa: E402
