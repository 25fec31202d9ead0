"""GPU device specifications.

Reproduces Table 3 of the paper (RTX 4090 Ada, A100 PCIe Ampere) and extends
it with the throughput constants the roofline time model needs.  Peak numbers
come from the public NVIDIA datasheets; behavioural constants (launch
overhead, barrier latency, saturation knees) are calibration parameters
chosen so the shapes of the paper's experiments reproduce — see DESIGN.md §5.

All byte quantities are plain bytes; all rates are per second; all times are
seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.errors import ConfigError
from repro.core.units import GiB, KiB, MiB


@dataclass(frozen=True)
class GPUSpec:
    """Static description of a simulated GPU.

    The first block of fields mirrors the paper's Table 3; the second block
    holds microarchitectural constants used by the occupancy calculator and
    the time model.
    """

    # ---- Table 3 fields -----------------------------------------------------
    name: str
    arch: str
    sm_count: int
    cuda_cores: int
    l1_smem_per_sm: int          # combined L1/SMEM capacity per SM (bytes)
    l2_bytes: int
    memory_bytes: int
    dram_bandwidth: float        # bytes / s

    # ---- Microarchitecture --------------------------------------------------
    clock_hz: float
    warp_size: int = 32
    max_warps_per_sm: int = 48
    max_blocks_per_sm: int = 24
    max_threads_per_block: int = 1024
    registers_per_sm: int = 65536
    smem_carveout_per_sm: int = 100 * KiB   # usable SMEM (rest stays L1)

    # ---- Throughput ---------------------------------------------------------
    fp16_tensor_flops: float = 0.0   # FP16 w/ FP32 accumulate, dense
    fp32_simt_flops: float = 0.0     # classic CUDA-core FP32
    l2_bandwidth: float = 0.0        # bytes / s
    smem_bytes_per_clk_per_sm: float = 128.0

    # ---- Behavioural constants (calibration; shared by all engines) ---------
    kernel_launch_overhead_s: float = 4.0e-6
    barrier_latency_s: float = 30.0e-9
    mem_saturation_knee: float = 0.25    # occupancy needed to saturate DRAM
    comp_saturation_knee: float = 0.125  # occupancy needed to saturate FUs

    smem_banks: int = 32
    smem_bank_width_bytes: int = 4

    def __post_init__(self) -> None:
        if self.sm_count <= 0:
            raise ConfigError(f"sm_count must be positive, got {self.sm_count}")
        if self.smem_carveout_per_sm > self.l1_smem_per_sm:
            raise ConfigError(
                f"SMEM carveout {self.smem_carveout_per_sm} exceeds combined "
                f"L1/SMEM capacity {self.l1_smem_per_sm}"
            )
        if not (0.0 < self.mem_saturation_knee <= 1.0):
            raise ConfigError("mem_saturation_knee must be in (0, 1]")
        if not (0.0 < self.comp_saturation_knee <= 1.0):
            raise ConfigError("comp_saturation_knee must be in (0, 1]")

    # ---- Derived quantities -------------------------------------------------

    @property
    def smem_bandwidth(self) -> float:
        """Aggregate shared-memory bandwidth across all SMs (bytes / s)."""
        return self.smem_bytes_per_clk_per_sm * self.clock_hz * self.sm_count

    def with_overrides(self, **kwargs) -> "GPUSpec":
        """Return a copy with selected fields replaced (for what-if studies)."""
        return replace(self, **kwargs)


#: NVIDIA GeForce RTX 4090 (Ada Lovelace), paper GPU1.
RTX4090 = GPUSpec(
    name="NVIDIA RTX 4090",
    arch="Ada",
    sm_count=128,
    cuda_cores=16384,
    l1_smem_per_sm=128 * KiB,
    l2_bytes=72 * MiB,
    memory_bytes=24 * GiB,
    dram_bandwidth=1008e9,
    clock_hz=2.52e9,
    max_warps_per_sm=48,
    max_blocks_per_sm=24,
    smem_carveout_per_sm=100 * KiB,
    fp16_tensor_flops=165e12,
    fp32_simt_flops=82.6e12,
    l2_bandwidth=5.0e12,
)

#: NVIDIA A100 PCIe 40GB (Ampere), paper GPU2.
A100 = GPUSpec(
    name="NVIDIA A100 PCIe",
    arch="Ampere",
    sm_count=108,
    cuda_cores=6912,
    l1_smem_per_sm=192 * KiB,
    l2_bytes=40 * MiB,
    memory_bytes=40 * GiB,
    dram_bandwidth=1555e9,
    clock_hz=1.41e9,
    max_warps_per_sm=64,
    max_blocks_per_sm=32,
    smem_carveout_per_sm=164 * KiB,
    fp16_tensor_flops=312e12,
    fp32_simt_flops=19.5e12,
    l2_bandwidth=4.7e12,
)

#: NVIDIA H100 PCIe 80GB (Hopper) — not part of the paper's evaluation
#: (FlashAttention3/Hopper is explicitly out of its scope); included to test
#: §5.3's closing claim that STOF "has the potential to be applied to
#: future GPU generations with larger memory".
H100 = GPUSpec(
    name="NVIDIA H100 PCIe",
    arch="Hopper",
    sm_count=114,
    cuda_cores=14592,
    l1_smem_per_sm=256 * KiB,
    l2_bytes=50 * MiB,
    memory_bytes=80 * GiB,
    dram_bandwidth=2000e9,
    clock_hz=1.755e9,
    max_warps_per_sm=64,
    max_blocks_per_sm=32,
    smem_carveout_per_sm=228 * KiB,
    fp16_tensor_flops=756e12,
    fp32_simt_flops=51.2e12,
    l2_bandwidth=7.0e12,
)

#: Registry keyed by the short names the benchmarks use.
KNOWN_GPUS: dict[str, GPUSpec] = {
    "rtx4090": RTX4090,
    "a100": A100,
    "h100": H100,
}


def get_spec(name: str) -> GPUSpec:
    """Look up a device spec by short name (case-insensitive).

    >>> get_spec("A100").sm_count
    108
    """
    key = name.strip().lower().replace(" ", "").replace("-", "")
    if key not in KNOWN_GPUS:
        raise ConfigError(
            f"unknown GPU {name!r}; known: {sorted(KNOWN_GPUS)}"
        )
    return KNOWN_GPUS[key]
