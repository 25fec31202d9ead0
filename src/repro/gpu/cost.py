"""Kernel cost counters and the roofline time estimator.

Every kernel in the library — MHA kernels, operator kernels, fused
compilation templates — reports a :class:`KernelCost`: how many bytes it
moves at each level of the hierarchy, how many FLOPs it issues to tensor
cores vs. CUDA cores, and how many barriers it executes.  The estimator
converts a cost plus a :class:`LaunchConfig` into seconds on a given
:class:`~repro.gpu.specs.GPUSpec`.

The model (see DESIGN.md §1 for the rationale):

1. Occupancy and utilization.  The launch configuration determines how many
   blocks are resident per SM; the grid size determines how many SMs have
   work and how full the final wave is.  Both a low per-SM occupancy
   (too few warps to hide latency) and a small grid (idle SMs / tail waves)
   derate achieved throughput.
2. Phase times.  DRAM, L2, SMEM, tensor-core, and CUDA-core phases each take
   ``volume / (peak * derate)``.
3. Composition.  A pipelined kernel (async copy, paper Fig. 7) overlaps
   memory with compute: body time is the max of the phases.  A non-pipelined
   kernel serializes memory before compute.
4. Fixed costs.  Launch overhead per kernel launch and barrier latency per
   ``__syncthreads`` round (serialized across waves).

The model's formulas are written once (:func:`_model`) and evaluate either
on Python numbers for one launch (:func:`estimate_kernel_time`, or
:func:`estimate_launch_seconds` once the launch's occupancy is known) or
elementwise on NumPy arrays for a batch of candidate launches
(:func:`estimate_kernel_times`); all give the same doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.core.errors import ConfigError
from repro.gpu.occupancy import compute_occupancy, occupancy_or_reason
from repro.gpu.specs import GPUSpec


class Ops(NamedTuple):
    """The rounding and branching operations a shared formula body uses.

    Everything else in such a body is ``+ - * /`` and comparisons, which
    Python numbers and NumPy arrays share.  Elementwise IEEE operations in
    the same order give the same doubles, so one body evaluated with
    :data:`FLOAT_OPS` on one launch and with :data:`ARRAY_OPS` on a grid
    agrees bit for bit, as long as every expression keeps its association.
    """

    ceil: Callable[[Any], Any]
    minimum: Callable[[Any, Any], Any]
    maximum: Callable[[Any, Any], Any]
    where: Callable[[Any, Any, Any], Any]


def _pick(cond: Any, if_true: Any, if_false: Any) -> Any:
    return if_true if cond else if_false


#: Python numbers: one launch.  A one-element array evaluation would cost
#: several times as much, and decode pricing prices launches one by one.
FLOAT_OPS = Ops(ceil=math.ceil, minimum=min, maximum=max, where=_pick)
#: NumPy arrays: a batch of launches, elementwise.
ARRAY_OPS = Ops(ceil=np.ceil, minimum=np.minimum, maximum=np.maximum, where=np.where)


@dataclass(frozen=True)
class LaunchConfig:
    """Launch-time shape of a kernel: the grid and per-block resources."""

    grid_blocks: int
    warps_per_block: int = 4
    smem_per_block: int = 0          # bytes of static + dynamic SMEM
    regs_per_thread: int = 32        # light default; GEMM-ish kernels set more
    pipelined: bool = True           # async-copy overlap of memory & compute

    def __post_init__(self) -> None:
        if self.grid_blocks < 1:
            raise ConfigError(f"grid_blocks must be >= 1, got {self.grid_blocks}")
        if self.warps_per_block < 1:
            raise ConfigError(
                f"warps_per_block must be >= 1, got {self.warps_per_block}"
            )


@dataclass
class KernelCost:
    """Resource counters for one kernel (or one fused kernel).

    Counters are totals across the whole grid.  ``sync_rounds`` counts
    barrier waits per block (they execute concurrently across blocks within
    a wave, so the estimator multiplies by the wave count, not the grid).
    """

    name: str = "kernel"
    bytes_dram_read: float = 0.0
    bytes_dram_written: float = 0.0
    bytes_l2_read: float = 0.0       # re-reads served by L2, not DRAM
    bytes_smem: float = 0.0          # SMEM traffic (read + write)
    bank_conflict_factor: float = 1.0
    flops_tensor: float = 0.0        # FP16 tensor-core FLOPs
    flops_simt: float = 0.0          # FP32 CUDA-core FLOPs
    sync_rounds: float = 0.0         # barriers per block
    launches: int = 1

    def __post_init__(self) -> None:
        if self.bank_conflict_factor < 1.0:
            raise ConfigError(
                f"bank_conflict_factor must be >= 1, got {self.bank_conflict_factor}"
            )
        if self.launches < 0:
            raise ConfigError(f"launches must be >= 0, got {self.launches}")

    @property
    def bytes_dram(self) -> float:
        return self.bytes_dram_read + self.bytes_dram_written

    @property
    def flops(self) -> float:
        return self.flops_tensor + self.flops_simt

    def scaled(self, factor: float) -> "KernelCost":
        """Uniformly scale all volume counters (launches excluded)."""
        return replace(
            self,
            bytes_dram_read=self.bytes_dram_read * factor,
            bytes_dram_written=self.bytes_dram_written * factor,
            bytes_l2_read=self.bytes_l2_read * factor,
            bytes_smem=self.bytes_smem * factor,
            flops_tensor=self.flops_tensor * factor,
            flops_simt=self.flops_simt * factor,
            sync_rounds=self.sync_rounds * factor,
        )

    def merged_with(self, other: "KernelCost", name: str | None = None) -> "KernelCost":
        """Combine counters of two kernels fused into one launch.

        Volumes add; the conflict factor takes a traffic-weighted mean; the
        launch count becomes 1 (that is the point of fusing).
        """
        total_smem = self.bytes_smem + other.bytes_smem
        if total_smem > 0:
            conflict = (
                self.bank_conflict_factor * self.bytes_smem
                + other.bank_conflict_factor * other.bytes_smem
            ) / total_smem
        else:
            conflict = 1.0
        return KernelCost(
            name=name or f"{self.name}+{other.name}",
            bytes_dram_read=self.bytes_dram_read + other.bytes_dram_read,
            bytes_dram_written=self.bytes_dram_written + other.bytes_dram_written,
            bytes_l2_read=self.bytes_l2_read + other.bytes_l2_read,
            bytes_smem=total_smem,
            bank_conflict_factor=conflict,
            flops_tensor=self.flops_tensor + other.flops_tensor,
            flops_simt=self.flops_simt + other.flops_simt,
            sync_rounds=self.sync_rounds + other.sync_rounds,
            launches=1,
        )


@dataclass(frozen=True)
class TimeBreakdown:
    """Per-phase decomposition of one estimated kernel time."""

    total: float
    launch: float
    dram: float
    l2: float
    smem: float
    tensor: float
    simt: float
    sync: float
    occupancy: float
    utilization: float
    waves: int

    @property
    def body(self) -> float:
        """Time excluding fixed launch overhead."""
        return self.total - self.launch

    @property
    def bound(self) -> str:
        """Which phase dominates the kernel body ('dram'/'smem'/'compute')."""
        phases = {
            "dram": self.dram + self.l2,
            "smem": self.smem,
            "compute": self.tensor + self.simt,
        }
        return max(phases, key=phases.get)  # type: ignore[arg-type]


def _saturation(ops: Ops, occupancy: Any, knee: float) -> Any:
    """Fraction of peak throughput achieved at a given warp occupancy.

    Latency hiding needs enough resident warps; below the knee, achieved
    throughput falls off linearly.  A tiny floor keeps single-warp launches
    finite rather than dividing by zero.
    """
    return ops.maximum(ops.minimum(1.0, occupancy / knee), 1e-3)


def _model(ops: Ops, spec: GPUSpec, blocks_per_sm: Any, cost: Any, config: Any) -> tuple:
    """The time model, once: ``(total, launch, dram, l2, smem, tensor,
    simt, sync, utilization, waves)`` of launches whose blocks fit
    ``blocks_per_sm`` to an SM.

    ``cost`` and ``config`` carry the fields of :class:`KernelCost` and
    :class:`LaunchConfig`: Python numbers with :data:`FLOAT_OPS`, arrays
    with :data:`ARRAY_OPS`.  Every denominator is positive, so both
    branches of a ``where`` are safe to evaluate.
    """
    # --- utilization: how much of the device the grid actually covers -------
    capacity = blocks_per_sm * spec.sm_count
    waves = ops.maximum(1, ops.ceil(config.grid_blocks / capacity))
    blocks_in_flight = config.grid_blocks / waves
    active_sms = ops.minimum(spec.sm_count, blocks_in_flight)
    sm_fraction = active_sms / spec.sm_count
    # Per-SM occupancy achieved by the blocks actually resident.
    blocks_per_active_sm = blocks_in_flight / ops.maximum(active_sms, 1e-9)
    local_occ = ops.minimum(
        1.0,
        blocks_per_active_sm
        * config.warps_per_block
        / spec.max_warps_per_sm,
    )

    util_mem = sm_fraction * _saturation(ops, local_occ, spec.mem_saturation_knee)
    util_comp = sm_fraction * _saturation(ops, local_occ, spec.comp_saturation_knee)

    # --- phase times ---------------------------------------------------------
    where = ops.where
    bytes_dram = cost.bytes_dram_read + cost.bytes_dram_written
    t_dram = where(bytes_dram, bytes_dram / (spec.dram_bandwidth * util_mem), 0.0)
    t_l2 = (
        where(cost.bytes_l2_read, cost.bytes_l2_read / (spec.l2_bandwidth * util_mem), 0.0)
        if spec.l2_bandwidth
        else 0.0
    )
    t_smem = where(
        cost.bytes_smem,
        cost.bytes_smem
        * cost.bank_conflict_factor
        / (spec.smem_bandwidth * util_mem),
        0.0,
    )
    t_tensor = (
        where(cost.flops_tensor, cost.flops_tensor / (spec.fp16_tensor_flops * util_comp), 0.0)
        if spec.fp16_tensor_flops
        else 0.0
    )
    t_simt = (
        where(cost.flops_simt, cost.flops_simt / (spec.fp32_simt_flops * util_comp), 0.0)
        if spec.fp32_simt_flops
        else 0.0
    )

    t_mem = t_dram + t_l2
    t_comp = t_tensor + t_simt
    body = where(
        config.pipelined,
        ops.maximum(ops.maximum(t_mem, t_smem), t_comp),
        t_mem + ops.maximum(t_smem, t_comp),
    )

    t_sync = cost.sync_rounds * waves * spec.barrier_latency_s
    t_launch = cost.launches * spec.kernel_launch_overhead_s
    total = t_launch + body + t_sync
    return (
        total, t_launch, t_dram, t_l2, t_smem, t_tensor, t_simt, t_sync,
        sm_fraction, waves,
    )


def estimate_kernel_time(
    spec: GPUSpec,
    cost: KernelCost,
    config: LaunchConfig,
) -> TimeBreakdown:
    """Estimate wall time of one kernel on the simulated device.

    Deterministic: a pure function of (spec, cost, config).
    """
    occ = compute_occupancy(
        spec, config.warps_per_block, config.smem_per_block, config.regs_per_thread
    )
    *phases, utilization, waves = _model(FLOAT_OPS, spec, occ.blocks_per_sm, cost, config)
    return TimeBreakdown(
        *phases, occupancy=occ.occupancy, utilization=utilization, waves=waves
    )


def estimate_launch_seconds(spec: GPUSpec, blocks_per_sm: int, launch: Any) -> float:
    """``estimate_kernel_time(spec, cost, config).total`` of one launch
    whose occupancy is already resolved.

    ``launch`` carries the fields of both :class:`KernelCost` and
    :class:`LaunchConfig` as plain numbers, and ``blocks_per_sm`` is
    :func:`~repro.gpu.occupancy.compute_occupancy`'s for its warps, SMEM
    and registers.  For a caller that prices many launches of one shape
    (the serving engine's packed decode step): it builds no dataclass,
    looks up no occupancy and builds no :class:`TimeBreakdown`.
    """
    return _model(FLOAT_OPS, spec, blocks_per_sm, launch, launch)[0]


#: The keywords of :func:`estimate_kernel_times` besides ``grid_blocks``:
#: every other field of the two dataclasses, with its default.
_BATCH_DEFAULTS = {
    f.name: f.default
    for cls in (LaunchConfig, KernelCost)
    for f in fields(cls)
    if f.name not in ("grid_blocks", "name")
}


def estimate_kernel_times(
    spec: GPUSpec, *, grid_blocks: Any, **launch_fields: Any
) -> np.ndarray:
    """Total seconds of a batch of launches, in one array pass.

    The keywords are the fields of :class:`LaunchConfig` and
    :class:`KernelCost` (``name`` aside), with their defaults; each is a
    scalar or an array, and they broadcast together.  Element ``i`` is
    ``estimate_kernel_time(spec, cost_i, config_i).total`` bit for bit, and
    ``+inf`` where that call raises :class:`ConfigError` because the block
    does not fit on an SM.
    """
    unknown = launch_fields.keys() - _BATCH_DEFAULTS.keys()
    if unknown:
        raise TypeError(f"unknown launch fields {sorted(unknown)}")
    batch = SimpleNamespace(
        grid_blocks=grid_blocks, **{**_BATCH_DEFAULTS, **launch_fields}
    )
    warps, smem, regs = np.broadcast_arrays(
        batch.warps_per_block, batch.smem_per_block, batch.regs_per_thread
    )
    shapes = zip(warps.ravel().tolist(), smem.ravel().tolist(), regs.ravel().tolist())
    occupancies = [occupancy_or_reason(spec, w, s, r) for w, s, r in shapes]
    # 0 resident blocks marks a block that does not fit (the reason is a str).
    resident = np.array(
        [0 if isinstance(occ, str) else occ.blocks_per_sm for occ in occupancies]
    ).reshape(warps.shape)
    total = _model(ARRAY_OPS, spec, np.maximum(resident, 1), batch, batch)[0]
    return np.where(resident > 0, total, np.inf)
