"""The compiled-plan artifact: one kernel decision, priced and reusable.

A :class:`CompiledPlan` is what every planning site produces and every
executor consumes: the chosen kernel (by name, plus a live object when
available), its parameters, the priced launch list, the estimated device
time, and the resource footprint.  Plans serialize to JSON (minus the
live kernel object, which is re-bound by name on first use after a
warm-start load) so a :class:`~repro.plan.cache.PlanCache` can persist
them across sessions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from repro.gpu.cost import KernelCost, LaunchConfig
from repro.plan.key import PlanKey

#: A priced launch: (resource counters, launch-time shape).
Launch = tuple[KernelCost, LaunchConfig]


@dataclass
class CompiledPlan:
    """The resolved execution plan for one problem on one device.

    ``choice`` is site-defined (the MHA sites store
    :class:`repro.mha.selector.KernelChoice`); after a JSON round trip it
    is the enum's string value until the owning site rehydrates it.
    ``kernel`` is a live kernel object when the plan was compiled in this
    process, ``None`` after a load (re-bound lazily by ``kernel_name``).
    """

    kernel_name: str
    choice: Any = None
    params: dict[str, Any] | None = None
    launches: list[Launch] = field(default_factory=list)
    estimated_s: float = 0.0
    analysis_overhead_s: float = 0.0   # host-side time spent deciding
    workspace_bytes: float = 0.0
    key: PlanKey | None = field(default=None, repr=False)
    kernel: Any = field(default=None, repr=False, compare=False)
    extras: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------- footprint

    @property
    def launch_count(self) -> int:
        """Total kernel launches this plan issues."""
        return sum(cost.launches for cost, _ in self.launches)

    @property
    def smem_per_block(self) -> int:
        """Peak static+dynamic SMEM any launch of the plan requests."""
        return max((cfg.smem_per_block for _, cfg in self.launches), default=0)

    # ----------------------------------------------------------- persistence

    def to_payload(self) -> dict[str, Any]:
        """JSON-serializable form (drops the live kernel object)."""
        return {
            "kernel_name": self.kernel_name,
            "choice": getattr(self.choice, "value", self.choice),
            "params": self.params,
            "estimated_s": self.estimated_s,
            "analysis_overhead_s": self.analysis_overhead_s,
            "workspace_bytes": self.workspace_bytes,
            "launches": [
                {"cost": asdict(cost), "config": asdict(cfg)}
                for cost, cfg in self.launches
            ],
            "extras": self.extras,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "CompiledPlan":
        return cls(
            kernel_name=payload["kernel_name"],
            choice=payload.get("choice"),
            params=payload.get("params"),
            launches=[
                (KernelCost(**item["cost"]), LaunchConfig(**item["config"]))
                for item in payload.get("launches", ())
            ],
            estimated_s=float(payload.get("estimated_s", 0.0)),
            analysis_overhead_s=float(payload.get("analysis_overhead_s", 0.0)),
            workspace_bytes=float(payload.get("workspace_bytes", 0.0)),
            extras=dict(payload.get("extras", {})),
        )
