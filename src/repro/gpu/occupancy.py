"""CUDA occupancy calculation.

Given a launch configuration (warps per block, SMEM per block, registers per
thread), determine how many blocks fit concurrently on one SM and the
resulting warp occupancy.  This is the general calculator used by the time
model; the paper's Eq. 2 (the kernel-selector scoring formula) is implemented
separately in :mod:`repro.mha.selector` and cross-checked against this one in
the tests.

Occupancy is a pure function of the spec and three integers, and the time
model asks for the same few shapes over and over, so results are memoized
per ``(spec, warps, smem, regs)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.core.errors import ConfigError
from repro.gpu.specs import GPUSpec


@dataclass(frozen=True)
class Occupancy:
    """Result of an occupancy computation for one launch configuration."""

    blocks_per_sm: int          # concurrently resident blocks on one SM
    active_warps_per_sm: int    # blocks_per_sm * warps_per_block
    occupancy: float            # active warps / max warps, in (0, 1]
    limiter: str                # which resource capped blocks_per_sm

    def __post_init__(self) -> None:
        if self.blocks_per_sm < 1:
            raise ConfigError("occupancy computed with zero resident blocks")


def compute_occupancy(
    spec: GPUSpec,
    warps_per_block: int,
    smem_per_block: int,
    regs_per_thread: int = 32,
) -> Occupancy:
    """Compute how many blocks of the given shape fit on one SM.

    Raises :class:`ConfigError` when the block cannot fit at all (too much
    SMEM, too many warps, or too many registers), mirroring a CUDA launch
    failure.

    >>> from repro.gpu.specs import A100
    >>> occ = compute_occupancy(A100, warps_per_block=4, smem_per_block=48 * 1024)
    >>> occ.blocks_per_sm
    3
    """
    occ = occupancy_or_reason(spec, warps_per_block, smem_per_block, regs_per_thread)
    if isinstance(occ, str):
        raise ConfigError(occ)
    return occ


# Bounded: a spec has few shapes, but what-if studies mint new specs
# through GPUSpec.with_overrides.
@lru_cache(maxsize=4096, typed=True)
def occupancy_or_reason(
    spec: GPUSpec,
    warps_per_block: int,
    smem_per_block: int,
    regs_per_thread: int,
) -> Occupancy | str:
    """The memoized rules behind :func:`compute_occupancy`: the
    :class:`Occupancy`, or the reason the block cannot fit.

    The memo keeps the reason, never a :class:`ConfigError`: an exception
    raised again from a cache grows its traceback on every raise, pinning
    every caller frame (and its locals) for the life of the process.
    """
    if warps_per_block < 1:
        return f"warps_per_block must be >= 1, got {warps_per_block}"
    if smem_per_block < 0:
        return f"smem_per_block must be >= 0, got {smem_per_block}"
    if regs_per_thread < 1:
        return f"regs_per_thread must be >= 1, got {regs_per_thread}"

    threads_per_block = warps_per_block * spec.warp_size
    if threads_per_block > spec.max_threads_per_block:
        return (
            f"{warps_per_block} warps = {threads_per_block} threads exceeds "
            f"max threads per block ({spec.max_threads_per_block})"
        )
    if smem_per_block > spec.smem_carveout_per_sm:
        return (
            f"block requests {smem_per_block} B SMEM, SM carveout is "
            f"{spec.smem_carveout_per_sm} B"
        )
    if warps_per_block > spec.max_warps_per_sm:
        return (
            f"{warps_per_block} warps per block exceeds SM warp capacity "
            f"({spec.max_warps_per_sm})"
        )

    limits: dict[str, int] = {}
    limits["warps"] = spec.max_warps_per_sm // warps_per_block
    limits["blocks"] = spec.max_blocks_per_sm
    if smem_per_block > 0:
        limits["smem"] = spec.smem_carveout_per_sm // smem_per_block
    regs_per_block = regs_per_thread * threads_per_block
    if regs_per_block > 0:
        limits["registers"] = spec.registers_per_sm // regs_per_block

    limiter, blocks_per_sm = min(limits.items(), key=lambda kv: kv[1])
    if blocks_per_sm < 1:
        return (
            f"launch configuration does not fit on an SM (limited by {limiter}): "
            f"warps={warps_per_block}, smem={smem_per_block}, regs={regs_per_thread}"
        )

    active_warps = blocks_per_sm * warps_per_block
    return Occupancy(
        blocks_per_sm=blocks_per_sm,
        active_warps_per_sm=active_warps,
        occupancy=active_warps / spec.max_warps_per_sm,
        limiter=limiter,
    )
