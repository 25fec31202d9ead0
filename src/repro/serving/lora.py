"""Multi-LoRA adapter serving: gathered batched-GEMM cost + residency.

Per-request low-rank adapters (LoRA) add, for every adapted projection of
every layer, a rank-``r`` bottleneck pair ``(hidden -> r -> hidden)``
applied to exactly the tokens that carry that adapter.  Production
engines (Punica, S-LoRA, vLLM) run this as a *gathered* batched GEMM: one
kernel per projection gathers each token's adapter weights by id, so a
mixed batch pays one launch regardless of how many adapters it mixes —
but it re-reads every *distinct* resident adapter's weights and streams
every adapter token's activations.

:class:`AdapterRegistry` prices that through the real roofline
(:func:`repro.gpu.cost.estimate_kernel_time`), and models *residency*: at
most ``max_resident`` adapters live in device memory; touching a
non-resident adapter evicts the least-recently-used one and pays a
host-to-device weight copy.  The engine reports the residency gauge
(``serving.lora_resident``) and swap counter (``serving.lora_swaps``),
and mixes the adapter id into its decode plan-key salt
(:func:`repro.plan.key.adapter_fingerprint`) so per-adapter specialized
plans never collide across adapters — more adapters means more plan
families, which is exactly the cache-pressure effect multi-LoRA serving
is known for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.errors import ConfigError
from repro.core.fp16 import FP16_BYTES
from repro.gpu.cost import KernelCost, LaunchConfig, estimate_kernel_time
from repro.gpu.specs import GPUSpec


@dataclass(frozen=True)
class LoRAConfig:
    """Shape and residency knobs of multi-adapter serving."""

    #: Low-rank bottleneck width of every adapter.
    rank: int = 16
    #: Adapted projections per layer (q, k, v, o by default).
    projections: int = 4
    #: Adapter slots in device memory; exceeding this evicts LRU and pays
    #: a host-to-device weight copy on the next touch.
    max_resident: int = 8
    #: Host-to-device copy bandwidth for adapter swap-ins (bytes/s);
    #: PCIe 4.0 x16 effective by default.
    load_bandwidth: float = 25e9

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        if self.projections < 1:
            raise ConfigError(
                f"projections must be >= 1, got {self.projections}"
            )
        if self.max_resident < 1:
            raise ConfigError(
                f"max_resident must be >= 1, got {self.max_resident}"
            )
        if self.load_bandwidth <= 0:
            raise ConfigError(
                f"load_bandwidth must be > 0, got {self.load_bandwidth}"
            )


class AdapterRegistry:
    """Prices one engine's gathered LoRA GEMMs and tracks residency.

    Deterministic: residency is a pure LRU over the engine's (already
    deterministic) step sequence, and pricing is a pure function of
    (spec, config, token counts).
    """

    def __init__(
        self, spec: GPUSpec, config: LoRAConfig, hidden: int, n_layers: int
    ):
        if hidden < 1 or n_layers < 1:
            raise ConfigError("hidden and n_layers must be >= 1")
        self.spec = spec
        self.config = config
        self.hidden = hidden
        self.n_layers = n_layers
        #: LRU order: index 0 is the *least* recently used resident.
        self._resident: list[str] = []
        self.swaps = 0
        self.peak_resident = 0

    @property
    def resident(self) -> tuple[str, ...]:
        return tuple(self._resident)

    @property
    def adapter_bytes(self) -> int:
        """FP16 bytes of one adapter (A and B matrices, all layers)."""
        c = self.config
        return 2 * c.rank * self.hidden * c.projections * self.n_layers * FP16_BYTES

    def touch(self, adapters: set[str]) -> float:
        """Mark ``adapters`` used this step; return swap-in seconds.

        Non-resident adapters are loaded host-to-device (LRU eviction
        when full); already-resident ones just refresh their recency.
        """
        load_s = 0.0
        for adapter in sorted(adapters):
            if adapter in self._resident:
                self._resident.remove(adapter)
            else:
                self.swaps += 1
                load_s += self.adapter_bytes / self.config.load_bandwidth
                while len(self._resident) >= self.config.max_resident:
                    self._resident.pop(0)
            self._resident.append(adapter)
        self.peak_resident = max(self.peak_resident, len(self._resident))
        return load_s

    def gemm_time(self, tokens: int, distinct_adapters: int) -> tuple[float, int]:
        """(seconds, launches) of the gathered batched GEMM over one
        forward's adapter tokens.

        Two GEMMs per projection per layer (shrink ``hidden -> r`` and
        expand ``r -> hidden``), fused into one gathered launch pair per
        layer.  DRAM traffic covers each distinct adapter's weights once
        plus every token's activations through the bottleneck.
        """
        if tokens <= 0:
            return 0.0, 0
        c = self.config
        h, r = self.hidden, c.rank
        per_layer_flops = 2.0 * tokens * r * (h + h) * c.projections
        weight_bytes = (
            distinct_adapters * 2 * r * h * c.projections * FP16_BYTES
        )
        act_bytes = tokens * (2 * h + 2 * r) * c.projections * FP16_BYTES
        launches_per_layer = 2
        cost = KernelCost(
            name="lora-gathered-gemm",
            bytes_dram_read=(weight_bytes + act_bytes) * self.n_layers,
            bytes_dram_written=tokens * h * c.projections * FP16_BYTES
            * self.n_layers,
            flops_tensor=per_layer_flops * self.n_layers,
            launches=launches_per_layer * self.n_layers,
        )
        grid = max(1, math.ceil(tokens * c.projections / 4))
        seconds = estimate_kernel_time(
            self.spec, cost, LaunchConfig(grid_blocks=grid, warps_per_block=4)
        ).total
        return seconds, cost.launches
