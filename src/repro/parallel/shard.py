"""Shard layouts: tensor ranks, pipeline stages, data replicas, links.

A :class:`ShardConfig` is a pure value — it carries no model state — and
its :attr:`fingerprint` (``"tp4dp2:nvlink"``, ``"tp2pp2dp1:nvlink,ib"``)
is the string every sharded :class:`~repro.plan.key.PlanKey` embeds, so
per-rank plans are content-addressed separately from unsharded plans of
the same geometry.  Layouts with ``pp == 1`` and a single link keep the
exact fingerprint spelling of the pre-pipeline grammar, so their cached
plans survive unchanged.

A :class:`FleetConfig` deploys a layout (routing, collective pricing,
autoscaling); it lives beside the layout so the replica engine in
:mod:`repro.serving.engine` reads it without importing the fleet engines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.core.errors import ConfigError
from repro.parallel.interconnect import (
    KNOWN_LINKS,
    NVLINK,
    Interconnect,
    LinkSpec,
    get_link,
)
from repro.parallel.overlap import DEFAULT_CONTENTION

#: The accepted shard-spec grammar (quoted by every parse error).
GRAMMAR = "tp{n}[pp{k}][dp{m}][:link[,link]]"

_TOKEN_RE = re.compile(r"(tp|pp|dp)(\d+)")
_AXES = ("tp", "pp", "dp")


@dataclass(frozen=True)
class ShardConfig:
    """One parallel layout: ``tp`` ranks per stage, ``pp`` pipeline
    stages per replica, ``dp`` replicas — over an intra-node link and an
    optional inter-node link (hierarchical collectives + pipeline sends).

    >>> ShardConfig(tp=4, dp=2).fingerprint
    'tp4dp2:nvlink'
    >>> ShardConfig.parse("tp2:pcie").link.name
    'pcie'
    >>> ShardConfig.parse("tp2pp2:nvlink,ib").fingerprint
    'tp2pp2dp1:nvlink,ib'
    """

    tp: int = 1
    pp: int = 1
    dp: int = 1
    link: LinkSpec = NVLINK
    inter_link: LinkSpec | None = None

    def __post_init__(self) -> None:
        if self.tp < 1 or self.pp < 1 or self.dp < 1:
            raise ConfigError(
                f"tp, pp and dp must be >= 1, got tp={self.tp} "
                f"pp={self.pp} dp={self.dp}"
            )

    @property
    def world_size(self) -> int:
        return self.tp * self.pp * self.dp

    @property
    def fingerprint(self) -> str:
        """The shard discriminator embedded in every sharded PlanKey.

        ``pp1`` layouts on one link spell exactly as before the pipeline
        grammar existed (``tp4dp2:nvlink``), keeping their plan keys
        stable across versions.
        """
        pp = f"pp{self.pp}" if self.pp > 1 else ""
        links = self.link.name
        if self.inter_link is not None:
            links += f",{self.inter_link.name}"
        return f"tp{self.tp}{pp}dp{self.dp}:{links}"

    def interconnect(self) -> Interconnect:
        """The TP group's collective estimator: a ring of ``tp`` ranks,
        hierarchical across nodes when an inter-node link is given."""
        return Interconnect(self.link, self.tp, inter_link=self.inter_link)

    @property
    def p2p_link(self) -> LinkSpec:
        """The link pipeline activation sends travel over: adjacent stages
        sit on different nodes when an inter-node link exists."""
        return self.inter_link if self.inter_link is not None else self.link

    def validate_pipeline(self, n_layers: int, what: str = "model") -> None:
        """Refuse layouts whose pipeline stages would be ragged.

        Called at compile/engine-construction time — a bad ``pp`` must
        fail before any simulation step runs.
        """
        if n_layers % self.pp != 0:
            raise ConfigError(
                f"{what}: {n_layers} layers not divisible by pp={self.pp}; "
                f"pipeline stages must be uniform"
            )

    @classmethod
    def parse(cls, spec: "str | ShardConfig") -> "ShardConfig":
        """Parse ``"tp2"``, ``"tp2dp2"``, ``"tp2pp2dp2:nvlink,ib"`` ...

        A :class:`ShardConfig` passes through unchanged.  Errors name the
        offending token and quote the accepted grammar.

        >>> ShardConfig.parse("tp2dp2").fingerprint
        'tp2dp2:nvlink'
        >>> ShardConfig.parse("tp2pp4").pp
        4
        """
        if isinstance(spec, ShardConfig):
            return spec

        def bad(why: str) -> ConfigError:
            return ConfigError(
                f"cannot parse shard spec {spec!r}: {why}; accepted "
                f"grammar is {GRAMMAR!r} with links from "
                f"{sorted(KNOWN_LINKS)}"
            )

        body, _, link_part = spec.strip().lower().partition(":")
        axes: dict[str, int] = {}
        pos = 0
        while pos < len(body):
            m = _TOKEN_RE.match(body, pos)
            if not m:
                raise bad(
                    f"unexpected token {body[pos:]!r} at position {pos}"
                )
            axis, count = m.group(1), int(m.group(2))
            if axis in axes:
                raise bad(f"duplicate {axis!r} token")
            if axes and _AXES.index(axis) < max(
                _AXES.index(a) for a in axes
            ):
                raise bad(
                    f"token {m.group(0)!r} out of order "
                    f"(axes go {', '.join(_AXES)})"
                )
            axes[axis] = count
            pos = m.end()
        if not axes:
            raise bad("no tp/pp/dp token found")

        links = [s.strip() for s in link_part.split(",")] if link_part else []
        if len(links) > 2:
            raise bad(
                f"at most two links (intra,inter), got {len(links)}"
            )
        if link_part and any(not s for s in links):
            raise bad(f"empty link name in {link_part!r}")
        return cls(
            tp=axes.get("tp", 1),
            pp=axes.get("pp", 1),
            dp=axes.get("dp", 1),
            link=get_link(links[0]) if links else NVLINK,
            inter_link=get_link(links[1]) if len(links) == 2 else None,
        )


#: Request-routing policies of the data-parallel front door.
ROUTES = ("round-robin", "least-loaded")


@dataclass(frozen=True)
class FleetConfig:
    """Everything fleet-shaped about a serving deployment, in one object.

    It is the only spelling of a fleet: the engines of
    :mod:`repro.parallel.serving` take no fleet keyword of their own.
    The autoscaling fields only matter with ``autoscale=True``: the
    data-parallel width then floats between ``min_replicas`` and
    ``max_replicas``, re-evaluated every ``scale_window_s`` of simulated
    time against the measured per-replica capacity, with scale-ups
    landing ``scale_up_latency_s`` after the decision (scale-downs are
    immediate) — see
    :class:`~repro.parallel.serving.AutoscalingServingEngine`.
    """

    shard: "str | ShardConfig" = ShardConfig()
    route: str = "least-loaded"
    overlap: bool = True
    micro_batches: int | None = None
    contention: float = DEFAULT_CONTENTION
    autoscale: bool = False
    min_replicas: int = 1
    max_replicas: int = 8
    #: Autoscaler decision period; ``None`` derives it from the trace
    #: span (an eighth, so every run sees several decisions).
    scale_window_s: float | None = None
    #: Simulated delay between a scale-up decision and the new replica
    #: accepting traffic (model load + KV-cache warm-up).
    scale_up_latency_s: float = 2e-3
    #: Fraction of probed capacity the autoscaler plans to; the headroom
    #: above it absorbs in-window burstiness.
    target_utilization: float = 0.7
    #: Cost of one GPU-second, in arbitrary currency units (the frontier
    #: report multiplies by ``world_size`` GPU-seconds per replica).
    gpu_cost_per_s: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "shard", ShardConfig.parse(self.shard))
        if self.route not in ROUTES:
            raise ConfigError(f"unknown route {self.route!r}; known: {ROUTES}")
        if self.micro_batches is not None and self.micro_batches < 1:
            raise ConfigError(
                f"micro_batches must be >= 1, got {self.micro_batches}"
            )
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ConfigError(
                f"need 1 <= min_replicas <= max_replicas, got "
                f"{self.min_replicas}..{self.max_replicas}"
            )
        if self.scale_window_s is not None and self.scale_window_s <= 0:
            raise ConfigError(
                f"scale_window_s must be > 0, got {self.scale_window_s}"
            )
        if self.scale_up_latency_s < 0:
            raise ConfigError(
                f"scale_up_latency_s must be >= 0, got {self.scale_up_latency_s}"
            )
        if not 0.0 < self.target_utilization <= 1.0:
            raise ConfigError(
                f"target_utilization must be in (0, 1], got "
                f"{self.target_utilization}"
            )
        if self.gpu_cost_per_s <= 0:
            raise ConfigError(
                f"gpu_cost_per_s must be > 0, got {self.gpu_cost_per_s}"
            )
