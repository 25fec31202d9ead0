"""The row-wise sparse attention kernel (paper §4.2).

"The row-wise kernel slices Q into rows to achieve high locality … applies
shuffle within a warp and eliminates the synchronization among warps,
improving performance at small input sizes."

Strategy: one warp per query row.  The mask is stored element-level CSR
(``row_ptr`` / ``col_idx``); the warp gathers only the attended K columns,
reduces the softmax statistics with register shuffles (no SMEM, no
``__syncthreads``), and accumulates the weighted V sum in registers.  The
dot products run on CUDA cores (a single row cannot feed a wmma tile), which
is exactly why this kernel loses at scale and wins at tiny inputs: zero
barrier cost and a grid of ``batch*heads*seq_len`` rows that fills the GPU
even at batch 1.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

import numpy as np

from repro.core.errors import ConfigError
from repro.core.fp16 import FP16_BYTES, to_fp16
from repro.gpu.cost import KernelCost, LaunchConfig
from repro.gpu.specs import GPUSpec
from repro.masks.stats import contiguous_row_fraction as _contiguous_row_fraction
from repro.mha.kernel import AttentionKernel, Launch
from repro.mha.problem import AttentionProblem

#: Extra SIMT work per attended element: score scale, exp, shuffle
#: reductions for max/sum, and the final rescale.
SIMT_FLOPS_PER_ELEM = 10.0

#: Gathered (non-coalesced) loads achieve a fraction of streaming bandwidth.
#: Rows whose attended columns form one contiguous run (bands, causal) load
#: K/V as coalesced streams — "the concentration of mask elements brings
#: excellent data locality" — while scattered rows pay the gather tax.
GATHER_EFFICIENCY_SCATTERED = 0.5
GATHER_EFFICIENCY_CONTIGUOUS = 1.0


class RowwiseFields(NamedTuple):
    """The time-model fields of one row-wise launch: a :class:`KernelCost`'s
    and a :class:`LaunchConfig`'s in one flat record, which
    :func:`repro.gpu.cost.estimate_launch_seconds` reads as both.

    The annotated fields vary with the problem; the class attributes after
    them are the same for every row-wise launch.
    """

    grid_blocks: int
    warps_per_block: int
    bytes_dram_read: float
    bytes_dram_written: float
    bytes_l2_read: float
    flops_simt: float          # QK dot + PV acc + softmax (+ merge)
    launches: int

    smem_per_block = 0         # registers + shuffle only
    regs_per_thread = 32
    pipelined = True
    bytes_smem = 0.0
    bank_conflict_factor = 1.0
    flops_tensor = 0.0         # a single row cannot feed wmma tiles
    sync_rounds = 0.0          # no inter-warp synchronization


def rowwise_launch_fields(
    spec: GPUSpec,
    *,
    num_warps: int,
    n_bh: int,
    seq_len: int,
    kv_seq_len: int,
    head_size: int,
    nnz: int,
    contiguous_fraction: float,
) -> RowwiseFields:
    """The row-wise kernel's launch, priced from aggregate mask statistics.

    The kernel's cost depends on the mask only through ``nnz`` and the
    contiguous-row fraction, so callers that already know those (the
    serving engine composes them per packed decode row from cached
    per-request statistics) can price without materializing the mask.
    This is the only copy of the arithmetic: :func:`plan_rowwise_launches`
    packs its result for ``RowWiseKernel.plan`` and the selector, and the
    serving engine feeds it to the time model directly.
    """
    rows_total = n_bh * seq_len
    base_grid = max(1, math.ceil(rows_total / num_warps))
    d = head_size

    # Flash-decoding-style KV split: when there are too few query rows
    # to fill the device (the KV-cache decode regime), each row's
    # attended set is chunked across additional blocks, with a small
    # second kernel merging the partial softmax states.  Exact math
    # (online-softmax merge), so run() is unchanged.
    avg_nnz = nnz / max(1, seq_len)
    split = 1
    if base_grid < spec.sm_count and avg_nnz > 64:
        want = math.ceil(2 * spec.sm_count / base_grid)
        split = max(1, min(want, math.ceil(avg_nnz / 64)))
    grid = base_grid * split

    q_bytes = n_bh * seq_len * d * FP16_BYTES
    out_bytes = q_bytes
    # Gathered K and V loads: one (head_size)-vector per attended element.
    kv_gather = n_bh * nnz * d * FP16_BYTES * 2.0
    kv_resident = 2.0 * (n_bh * kv_seq_len * d * FP16_BYTES)
    kv_first = min(kv_gather, kv_resident)
    kv_reread = kv_gather - kv_first
    # Gather inefficiency: charge the tax as extra DRAM volume, weighted
    # by how contiguous the per-row column sets are.
    efficiency = (
        contiguous_fraction * GATHER_EFFICIENCY_CONTIGUOUS
        + (1.0 - contiguous_fraction) * GATHER_EFFICIENCY_SCATTERED
    )
    gather_tax = kv_first * (1.0 / efficiency - 1.0)
    meta_bytes = (seq_len + 1) * 8 + nnz * 4   # int64 row_ptr + int32 col_idx
    if kv_resident <= spec.l2_bytes:
        dram_read = q_bytes + kv_first + gather_tax + meta_bytes
        l2_read = kv_reread
    else:
        dram_read = q_bytes + (kv_gather + gather_tax) + meta_bytes
        l2_read = 0.0

    flops = n_bh * nnz * (4.0 * d + SIMT_FLOPS_PER_ELEM)
    launches = 1
    if split > 1:
        # Partial (m, l, acc) states spill to global and a reduce kernel
        # folds them: one FP32 (d + 2)-vector per (row, chunk).
        partial_bytes = rows_total * split * (d + 2) * 4.0
        dram_read += partial_bytes
        out_bytes += partial_bytes
        flops += rows_total * split * (3.0 * d + 8.0)  # merge math
        launches = 2

    return RowwiseFields(
        grid_blocks=grid,
        warps_per_block=num_warps,
        bytes_dram_read=dram_read,
        bytes_dram_written=out_bytes,
        bytes_l2_read=l2_read,
        flops_simt=flops,
        launches=launches,
    )


def plan_rowwise_launches(
    spec: GPUSpec,
    *,
    num_warps: int,
    n_bh: int,
    seq_len: int,
    kv_seq_len: int,
    head_size: int,
    nnz: int,
    contiguous_fraction: float,
    kernel_name: str = "stof-rowwise",
) -> list[Launch]:
    """The row-wise kernel's launch as a ``(KernelCost, LaunchConfig)``
    plan: :func:`rowwise_launch_fields`, packed.

    ``RowWiseKernel.plan`` derives the mask statistics and delegates here.
    """
    f = rowwise_launch_fields(
        spec,
        num_warps=num_warps,
        n_bh=n_bh,
        seq_len=seq_len,
        kv_seq_len=kv_seq_len,
        head_size=head_size,
        nnz=nnz,
        contiguous_fraction=contiguous_fraction,
    )
    cost = KernelCost(
        name=kernel_name,
        bytes_dram_read=f.bytes_dram_read,
        bytes_dram_written=f.bytes_dram_written,
        bytes_l2_read=f.bytes_l2_read,
        bytes_smem=f.bytes_smem,
        bank_conflict_factor=f.bank_conflict_factor,
        flops_tensor=f.flops_tensor,
        flops_simt=f.flops_simt,
        sync_rounds=f.sync_rounds,
        launches=f.launches,
    )
    config = LaunchConfig(
        grid_blocks=f.grid_blocks,
        warps_per_block=f.warps_per_block,
        smem_per_block=f.smem_per_block,
        regs_per_thread=f.regs_per_thread,
        pipelined=f.pipelined,
    )
    return [(cost, config)]


class RowWiseKernel(AttentionKernel):
    """STOF's warp-per-row kernel for small, concentrated masks."""

    name = "stof-rowwise"

    def param_space(self) -> dict[str, tuple]:
        return {"num_warps": (4, 1, 2, 8)}

    def default_params(self, problem: AttentionProblem, spec: GPUSpec) -> dict[str, Any]:
        return {"num_warps": 4}

    # ------------------------------------------------------------------ plan

    def plan(
        self,
        problem: AttentionProblem,
        spec: GPUSpec,
        params: dict[str, Any] | None = None,
    ) -> list[Launch]:
        p = params or self.default_params(problem, spec)
        return plan_rowwise_launches(
            spec,
            num_warps=p["num_warps"],
            n_bh=problem.n_bh,
            seq_len=problem.seq_len,
            kv_seq_len=problem.kv_seq_len,
            head_size=problem.head_size,
            nnz=problem.nnz,
            contiguous_fraction=problem.contiguous_row_fraction(),
            kernel_name=self.name,
        )

    # ------------------------------------------------------------------- run

    def run(
        self, problem: AttentionProblem, params: dict[str, Any] | None = None
    ) -> np.ndarray:
        if problem.q is None:
            raise ConfigError("problem has no tensors; build with with_tensors=True")
        row_ptr, col_idx = problem.csr()
        q, k, v = problem.staged_f32()

        if self.exec_backend == "loop":
            out = self._run_loop(row_ptr, col_idx, q, k, v)
        else:
            from repro.codegen.backend import run_rowwise

            out = run_rowwise(problem, row_ptr, col_idx, q, k, v, self.name)
        return to_fp16(out.reshape(problem.qkv_shape))

    def _run_loop(self, row_ptr, col_idx, q, k, v) -> np.ndarray:
        """Oracle backend: one Python iteration per query row."""
        n_bh, seq, d = q.shape
        out = np.zeros((n_bh, seq, d), dtype=np.float32)
        for i in range(seq):
            s0, s1 = int(row_ptr[i]), int(row_ptr[i + 1])
            if s1 == s0:
                continue  # fully masked row -> zeros
            cols = col_idx[s0:s1]
            kg = k[:, cols, :]                       # (n_bh, nnz_i, d) gather
            vg = v[:, cols, :]
            scores = np.einsum("bd,bnd->bn", q[:, i, :], kg)
            smax = scores.max(axis=-1, keepdims=True)
            ex = np.exp(scores - smax)
            denom = ex.sum(axis=-1, keepdims=True)
            probs = ex / denom
            out[:, i, :] = np.einsum("bn,bnd->bd", probs, vg)
        return out
