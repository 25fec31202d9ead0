"""Multi-GPU serving: tensor/pipeline-parallel replicas under data-parallel
routing.

A :class:`TPServingEngine` simulates one replica of ``tp * pp``
lock-stepped ranks.  TP ranks run the identical schedule on ``heads / tp``
heads each, and pipeline stages hold ``n_layers / pp`` layers each — so
ONE representative stage-rank is simulated (per-rank KV cache sized from
the per-rank head count and per-stage layer count, per-rank kernel costs
from the unchanged roofline) and each step pays the layout's
communication, in one of two pricing modes:

* **serialized** (``overlap=False``, ``pp == 1``) — the original model:
  two ring all-reduces of the full ``tokens * hidden`` activation per
  layer stall the ranks at Megatron's row-parallel sync points.  With
  ``tp = 1`` the engine reproduces
  :class:`~repro.serving.engine.ServingEngine` bit-identically.
* **overlapped** (the default) — each layer's two all-reduces are
  bucketed into one collective and overlapped with the next layer's
  compute under a link/SM contention factor
  (:mod:`repro.parallel.overlap`); with ``pp > 1`` the step's work is
  split into ``micro_batches`` micro-batches and run through a 1F1B
  schedule whose ``(pp - 1)``-window bubble is charged explicitly, plus
  a point-to-point activation send per micro-batch per stage boundary.

A :class:`ShardedServingEngine` runs ``dp`` such replicas over one
request trace: a router assigns each arrival to a replica (round-robin,
or least-loaded by outstanding worst-case tokens), every replica shares
one :class:`~repro.plan.PlanCache`, and the merged
:class:`ShardedServingReport` aggregates throughput over the global
makespan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.core.errors import ConfigError
from repro.core.fp16 import FP16_BYTES
from repro.core.rng import RngStream
from repro.core.units import format_time
from repro.gpu.specs import GPUSpec
from repro.obs.tracer import NULL_TRACER, Tracer, current_tracer
from repro.parallel.overlap import DEFAULT_CONTENTION, overlapped_layer_time
from repro.parallel.shard import ShardConfig
from repro.plan import PlanCache
from repro.serving.engine import ServingConfig, ServingEngine
from repro.serving.metrics import (
    RequestMetrics,
    ServingReport,
    TenantReport,
    percentile,
    tenant_reports,
)
from repro.serving.request import Request
from repro.serving.scheduler import Scheduler, make_scheduler
from repro.serving.slo import SLOPolicy, SLOScheduler

#: Request-routing policies of the data-parallel front door.
ROUTES = ("round-robin", "least-loaded")

_UNSET = object()


@dataclass(frozen=True)
class FleetConfig:
    """Everything fleet-shaped about a serving deployment, in one object.

    ``shard`` and ``route`` also have plain short forms on
    :class:`ShardedServingEngine`.  The autoscaling fields only matter
    with ``autoscale=True``: the data-parallel width then floats between
    ``min_replicas`` and ``max_replicas``, re-evaluated every
    ``scale_window_s`` of simulated
    time against the measured per-replica capacity, with scale-ups
    landing ``scale_up_latency_s`` after the decision (scale-downs are
    immediate) — see :class:`AutoscalingServingEngine`.
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


def _resolve_fleet(fleet, plain: dict):
    """Fold an engine's ``shard=``/``route=`` short forms into one
    :class:`FleetConfig`; either conflicts with an explicit ``fleet=``."""
    given = {k: v for k, v in plain.items() if v is not _UNSET}
    if fleet is not None:
        for name in given:
            raise ConfigError(
                f"got both fleet= and the {name!r} keyword; "
                f"set {name} on the FleetConfig"
            )
        return fleet
    return FleetConfig(**given)


class TPServingEngine(ServingEngine):
    """One tensor/pipeline-parallel replica (``tp * pp`` ranks in
    lockstep)."""

    def __init__(
        self,
        spec: GPUSpec,
        scheduler: Scheduler,
        shard: "str | ShardConfig",
        config: ServingConfig | None = None,
        tracer: Tracer | None = None,
        plan_cache: PlanCache | None = None,
        lane_base: int = 0,
        label: str = "",
        fleet: FleetConfig | None = None,
    ):
        # A replica's layout is the positional ``shard``; the fleet config
        # supplies the overlap/pipeline pricing knobs.
        fleet = fleet if fleet is not None else FleetConfig()
        shard = ShardConfig.parse(shard)
        full = config or ServingConfig()
        if full.heads % shard.tp != 0:
            raise ConfigError(
                f"{full.heads} heads not divisible by tp={shard.tp}"
            )
        # Ragged pipelines fail here, at construction — never mid-sim.
        shard.validate_pipeline(full.n_layers, what="serving config")
        overlap = fleet.overlap
        contention = fleet.contention
        micro_batches = fleet.micro_batches
        if micro_batches is None:
            micro_batches = 8 if shard.pp > 1 else 1
        # The representative stage-rank serves heads/tp heads of
        # n_layers/pp layers; its KV cache shrinks with both (same
        # capacity fraction, fewer bytes per token), which is exactly the
        # per-rank memory win of TP x PP.
        super().__init__(
            spec,
            scheduler,
            replace(
                full,
                heads=full.heads // shard.tp,
                n_layers=full.n_layers // shard.pp,
            ),
            tracer,
            plan_cache,
        )
        self.fleet = fleet
        self.shard = shard
        self.shard_fingerprint = shard.fingerprint
        self.overlap = overlap
        self.micro_batches = micro_batches
        self.contention = contention
        self._ic = shard.interconnect()
        self._hidden = full.heads * full.head_size   # full model width
        self._label = label
        self._lane_base = lane_base
        self.LANE_STEPS = lane_base
        self.LANE_REQUESTS = lane_base + 1
        #: Serialized pp1 keeps the original pricing path, bit for bit.
        self._legacy_pricing = not overlap and shard.pp == 1
        #: Totals over the last/current run (simulated seconds).
        self.comm_total_s = 0.0
        self.p2p_total_s = 0.0
        self.bubble_total_s = 0.0
        self.core_total_s = 0.0
        self._step_tokens = 0
        self._last_parts: dict | None = None

    # ----------------------------------------------------------- collectives

    def _collective_s(self, tokens: int) -> float:
        """Serialized all-reduce seconds for one forward over ``tokens``
        rows: two row-parallel sync points per (per-stage) layer,
        full-hidden payloads.  Overlapped modes re-price the step's
        communication from the accumulated token count in
        :meth:`_step_time`; this still returns the serialized estimate so
        prefill/decode compute legs can be recovered exactly."""
        if tokens <= 0:
            return 0.0
        self._step_tokens += tokens
        if self.shard.tp == 1:
            return 0.0
        t = 2 * self.config.n_layers * self._ic.all_reduce_time(
            tokens * self._hidden * FP16_BYTES
        )
        self._step_comm_s += t
        if self._legacy_pricing:
            self.comm_total_s += t
        return t

    def _prefill_time(self, tr, rng):
        t, n = super()._prefill_time(tr, rng)
        # Collectives move the rows actually computed: a prefix-cached
        # prefill (shared system prompt already resident) only all-reduces
        # its suffix activations.  With nothing cached this is the full
        # context, exactly as before.
        return t + self._collective_s(self._last_prefill_rows), n

    def _decode_time(self, members, rng):
        # Speculative verify forwards flow through here too, so their
        # k+1-rows-per-member collectives are charged on the expanded row
        # count — while the draft model (priced via the *base* class in
        # ``_draft_forward_time``) stays rank-local and pays none.
        t, n = super()._decode_time(members, rng)
        return t + self._collective_s(len(members)), n

    def _prefill_collective_s(self, rows):
        # Chunked prefill all-reduces exactly the chunk's activations,
        # mirroring the whole-prefill override above.
        return self._collective_s(rows)

    # -------------------------------------------------------- step composition

    def _begin_step(self):
        super()._begin_step()
        self._step_tokens = 0
        self._last_parts = None

    def _step_time(
        self, prefill_s, prefill_comm_s, decode_s, decode_comm_s, launches
    ):
        if self._legacy_pricing:
            return super()._step_time(
                prefill_s, prefill_comm_s, decode_s, decode_comm_s, launches
            )
        cfg = self.config
        pp, m = self.shard.pp, self.micro_batches
        compute = max(prefill_s - prefill_comm_s, decode_s - decode_comm_s)
        stage_layers = cfg.n_layers            # config already holds L/pp
        tokens = self._step_tokens
        micro_bytes = tokens * self._hidden * FP16_BYTES / m
        if self.shard.tp == 1 or tokens == 0:
            bucket_comm = serial_comm = 0.0
        elif self.overlap:
            # Bucketed: the layer's two sync points fuse into ONE
            # all-reduce — same bytes, half the α hops.
            bucket_comm = self._ic.all_reduce_time(2 * micro_bytes)
            serial_comm = 0.0
        else:
            bucket_comm = 0.0
            serial_comm = 2 * self._ic.all_reduce_time(micro_bytes)
        if self.overlap:
            window = overlapped_layer_time(
                compute / m, bucket_comm, stage_layers, self.contention
            )
            comm_step = m * stage_layers * bucket_comm
        else:
            window = compute / m + stage_layers * serial_comm
            comm_step = m * stage_layers * serial_comm
        p2p_micro = 0.0
        if pp > 1 and tokens > 0:
            p2p_micro = self._ic.point_to_point_time(micro_bytes)
            window += p2p_micro
        core = (m + pp - 1) * window
        bubble = (pp - 1) * window
        self.comm_total_s += comm_step
        self.p2p_total_s += m * p2p_micro
        self.bubble_total_s += bubble
        self.core_total_s += core
        self._last_parts = {
            "compute": compute,
            "comm": comm_step,
            "p2p": m * p2p_micro,
            "core": core,
        }
        return cfg.step_overhead_s + core + cfg.dispatch_s * launches

    # ----------------------------------------------------------------- spans

    def _record_step(
        self, tracer, clock, step_s, step, admitted, members, launches
    ):
        super()._record_step(
            tracer, clock, step_s, step, admitted, members, launches
        )
        if not tracer.enabled:
            return
        # Per-rank lanes: ranks run in lockstep, so each shows the same
        # compute/comm picture — serialized as compute-then-all-reduce,
        # overlapped as one contention-priced window, pipelined with the
        # boundary sends — which is what the scaling study reads off the
        # trace.
        if self._legacy_pricing:
            comm = self._step_comm_s
            compute = max(
                step_s - self.config.step_overhead_s - comm, 0.0
            )
            for r in range(self.shard.tp):
                lane = self._rank_lane(tracer, r)
                tracer.add_span(
                    "rank.compute", cat="serving.compute",
                    t0=clock, dur=compute, tid=lane, step=step, rank=r,
                )
                if comm > 0:
                    tracer.add_span(
                        "rank.all_reduce", cat="serving.comm",
                        t0=clock + compute, dur=comm, tid=lane,
                        step=step, rank=r, link=self.shard.link.name,
                    )
            return
        parts = self._last_parts or {}
        compute = parts.get("compute", 0.0)
        comm = parts.get("comm", 0.0)
        p2p = parts.get("p2p", 0.0)
        core = parts.get("core", compute)
        for r in range(self.shard.tp):
            lane = self._rank_lane(tracer, r)
            tracer.add_span(
                "rank.compute", cat="serving.compute",
                t0=clock, dur=compute, tid=lane, step=step, rank=r,
            )
            if comm > 0 and self.overlap:
                tracer.add_span(
                    "rank.overlap", cat="serving.comm",
                    t0=clock, dur=core, tid=lane, step=step, rank=r,
                    compute_s=compute, comm_s=comm,
                    contention=self.contention,
                    link=self.shard.link.name,
                )
            elif comm > 0:
                tracer.add_span(
                    "rank.all_reduce", cat="serving.comm",
                    t0=clock + compute, dur=comm, tid=lane,
                    step=step, rank=r, link=self.shard.link.name,
                )
            if p2p > 0:
                tracer.add_span(
                    "rank.send", cat="serving.comm",
                    t0=clock + max(core - p2p, 0.0), dur=p2p, tid=lane,
                    step=step, rank=r, link=self.shard.p2p_link.name,
                    stages=self.shard.pp,
                    micro_batches=self.micro_batches,
                )

    def _rank_lane(self, tracer, r: int) -> int:
        lane = self._lane_base + 2 + r
        tracer.lane_names.setdefault(lane, f"{self._label}tp rank {r}")
        return lane

    # ------------------------------------------------------------- simulation

    def run(self, trace, rng=None):
        self.comm_total_s = 0.0
        self.p2p_total_s = 0.0
        self.bubble_total_s = 0.0
        self.core_total_s = 0.0
        tracer = self.tracer if self.tracer is not None else current_tracer()
        if tracer.enabled and self._label:
            tracer.lane_names.setdefault(
                self.LANE_STEPS, f"{self._label}engine steps"
            )
            tracer.lane_names.setdefault(
                self.LANE_REQUESTS, f"{self._label}requests"
            )
        return super().run(trace, rng=rng)


@dataclass
class ShardedServingReport:
    """Merged outcome of one trace served by ``dp`` TP/PP replicas."""

    shard: str                  # layout fingerprint, e.g. "tp2dp2:nvlink"
    route: str
    policy: str
    device: str
    n_requests: int
    makespan_s: float           # global: first arrival to last finish
    comm_s: float               # summed simulated all-reduce seconds
    overlap: bool = True        # pricing mode of the fleet's collectives
    micro_batches: int = 1
    p2p_s: float = 0.0          # summed pipeline activation sends
    bubble_s: float = 0.0       # summed 1F1B fill/drain windows
    bubble_fraction: float = 0.0    # bubble share of pipelined step time
    replicas: list[ServingReport] = field(repr=False, default_factory=list)
    #: Request ids handed to each replica (index = replica rank).
    assignments: tuple[tuple[int, ...], ...] = ()
    #: Fleet-wide per-tenant aggregates; empty for single-tenant traces.
    tenants: tuple[TenantReport, ...] = ()
    plan_cache: dict | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------ aggregates

    @property
    def completed(self) -> int:
        return sum(r.completed for r in self.replicas)

    @property
    def requests(self) -> list[RequestMetrics]:
        """Completed-request metrics merged across replicas."""
        return sorted(
            (m for r in self.replicas for m in r.requests),
            key=lambda m: m.req_id,
        )

    def ttft_p(self, q: float) -> float:
        """Fleet-wide TTFT percentile over every completed request."""
        return percentile([m.ttft_s for m in self.requests], q)

    def itl_p(self, q: float) -> float:
        return percentile(
            [m.itl_mean_s for m in self.requests if m.tokens > 1], q
        )

    @property
    def kv_peak_used_pages(self) -> int:
        return sum(r.kv_peak_used_pages for r in self.replicas)

    @property
    def kv_peak_logical_pages(self) -> int:
        return sum(r.kv_peak_logical_pages for r in self.replicas)

    @property
    def cow_forks(self) -> int:
        return sum(r.cow_forks for r in self.replicas)

    @property
    def rejected(self) -> int:
        return sum(r.rejected for r in self.replicas)

    @property
    def total_tokens(self) -> int:
        return sum(r.total_tokens for r in self.replicas)

    @property
    def total_steps(self) -> int:
        return sum(r.total_steps for r in self.replicas)

    @property
    def preemptions(self) -> int:
        return sum(r.preemptions for r in self.replicas)

    @property
    def spec_proposed(self) -> int:
        return sum(r.spec_proposed for r in self.replicas)

    @property
    def spec_accepted(self) -> int:
        return sum(r.spec_accepted for r in self.replicas)

    @property
    def prefill_chunks(self) -> int:
        return sum(r.prefill_chunks for r in self.replicas)

    @property
    def lora_swaps(self) -> int:
        return sum(r.lora_swaps for r in self.replicas)

    @property
    def lora_peak_resident(self) -> int:
        """Peak resident adapters of the busiest replica (residency is a
        per-device budget, so replica peaks do not add)."""
        return max((r.lora_peak_resident for r in self.replicas), default=0)

    @property
    def tokens_per_s(self) -> float:
        return self.total_tokens / self.makespan_s if self.makespan_s else 0.0

    @property
    def goodput_rps(self) -> float:
        return self.completed / self.makespan_s if self.makespan_s else 0.0

    # -------------------------------------------------------------- rendering

    def summary(self) -> str:
        mode = "overlapped" if self.overlap else "serialized"
        lines = [
            f"{self.shard} · {self.policy} batching · {self.route} routing "
            f"· {self.device} · {mode} collectives",
            f"  requests     : {self.completed}/{self.n_requests} completed"
            + (f" ({self.rejected} rejected)" if self.rejected else "")
            + f", {self.total_tokens} tokens in {self.total_steps} steps",
            f"  throughput   : {self.tokens_per_s:,.0f} tok/s aggregate, "
            f"goodput {self.goodput_rps:,.1f} req/s",
            f"  comm         : {format_time(self.comm_s)} in all-reduces",
        ]
        if self.p2p_s > 0 or self.bubble_s > 0:
            lines.append(
                f"  pipeline     : {self.micro_batches} micro-batches, "
                f"{format_time(self.p2p_s)} in sends, bubble "
                f"{format_time(self.bubble_s)} "
                f"({self.bubble_fraction:.1%} of step time)"
            )
        for i, (rep, ids) in enumerate(zip(self.replicas, self.assignments)):
            lines.append(
                f"  replica {i}    : {len(ids)} requests, "
                f"{rep.tokens_per_s:,.0f} tok/s, "
                f"KV peak {rep.kv_peak_occupancy:.1%}"
            )
        # Fleet-era lines are conditional: single-tenant, unshared runs
        # keep the historical (golden-tested) rendering byte for byte.
        if self.spec_proposed:
            acc = self.spec_accepted / self.spec_proposed
            lines.append(
                f"  speculative  : {self.spec_accepted}/{self.spec_proposed} "
                f"drafts accepted ({acc:.0%} measured)"
            )
        if self.prefill_chunks:
            lines.append(
                f"  chunked fill : {self.prefill_chunks} prefill chunks"
            )
        if self.lora_peak_resident:
            lines.append(
                f"  lora         : peak {self.lora_peak_resident} resident "
                f"adapters, {self.lora_swaps} swaps"
            )
        if self.kv_peak_logical_pages > self.kv_peak_used_pages or self.cow_forks:
            saved = 1.0 - self.kv_peak_used_pages / max(
                1, self.kv_peak_logical_pages
            )
            lines.append(
                f"  prefix share : peak {self.kv_peak_used_pages} pages vs "
                f"{self.kv_peak_logical_pages} unshared ({saved:.1%} saved), "
                f"{self.cow_forks} COW forks"
            )
        for t in self.tenants:
            line = (
                f"  tenant {t.tenant or '-':<7}: prio {t.priority}, "
                f"{t.completed} req, {t.tokens} tok, "
                f"TTFT p99 {format_time(t.ttft_p99_s)}"
            )
            if t.ttft_target_s > 0:
                line += (
                    f" (target {format_time(t.ttft_target_s)}, "
                    f"{t.ttft_attainment:.0%} met)"
                )
            lines.append(line)
        return "\n".join(lines)


def _make_policy_scheduler(
    policy: str,
    max_batch_size: int,
    max_batch_tokens: int,
    slo: SLOPolicy | None,
) -> Scheduler:
    """A replica's scheduler: an explicit SLO policy wins over the name."""
    if slo is not None:
        return SLOScheduler(max_batch_size, max_batch_tokens, policy=slo)
    return make_scheduler(policy, max_batch_size, max_batch_tokens)


class ShardedServingEngine:
    """``dp`` TP/PP replicas behind one request router."""

    def __init__(
        self,
        spec: GPUSpec,
        policy: str = "continuous",
        config: ServingConfig | None = None,
        shard: "str | ShardConfig | object" = _UNSET,
        route: "str | object" = _UNSET,
        max_batch_size: int = 16,
        max_batch_tokens: int = 65536,
        tracer: Tracer | None = None,
        plan_cache: PlanCache | None = None,
        fleet: FleetConfig | None = None,
        slo: SLOPolicy | None = None,
    ):
        fleet = _resolve_fleet(fleet, plain={"shard": shard, "route": route})
        self.spec = spec
        self.policy = "slo" if slo is not None else policy
        self.config = config or ServingConfig()
        self.fleet = fleet
        self.shard = fleet.shard
        self.route = fleet.route
        self.overlap = fleet.overlap
        self.slo = slo
        self.tracer = tracer
        #: One cache for the whole fleet: TP ranks are lock-stepped and DP
        #: replicas see statistically identical work, so plans compiled by
        #: one replica replay on every other.
        self.plan_cache = (
            plan_cache
            if plan_cache is not None
            else PlanCache(max_entries=self.config.plan_cache_entries)
        )
        lanes_per_replica = 2 + self.shard.tp
        self.replicas = [
            TPServingEngine(
                spec,
                _make_policy_scheduler(
                    self.policy, max_batch_size, max_batch_tokens, slo
                ),
                self.shard,
                self.config,
                tracer=tracer,
                plan_cache=self.plan_cache,
                lane_base=r * lanes_per_replica,
                label=f"replica{r}." if self.shard.dp > 1 else "",
                fleet=fleet,
            )
            for r in range(self.shard.dp)
        ]
        self.micro_batches = self.replicas[0].micro_batches

    # --------------------------------------------------------------- routing

    def _assign(self, trace: list[Request]) -> list[list[Request]]:
        """Partition arrivals across replicas per the routing policy."""
        order = sorted(trace, key=lambda r: (r.arrival_s, r.req_id))
        buckets: list[list[Request]] = [[] for _ in range(self.shard.dp)]
        if self.route == "round-robin":
            for i, req in enumerate(order):
                buckets[i % self.shard.dp].append(req)
        else:
            # Least-loaded: the replica with the smallest outstanding
            # worst-case token load wins (ties to the lowest rank).
            load = [0] * self.shard.dp
            for req in order:
                r = min(range(self.shard.dp), key=lambda i: (load[i], i))
                buckets[r].append(req)
                load[r] += req.max_context
        return buckets

    # ------------------------------------------------------------- simulation

    def run(
        self, trace: list[Request], rng: RngStream | None = None
    ) -> ShardedServingReport:
        """Route the trace, simulate every replica, merge the reports."""
        if not trace:
            raise ConfigError("empty request trace")
        # One rng for every replica is safe: RngStream forks are stateless
        # path derivations and per-request masks are seeded by request id.
        rng = rng or RngStream()
        buckets = self._assign(trace)
        first_arrival = min(r.arrival_s for r in trace)
        last_finish = first_arrival
        reports: list[ServingReport] = []
        comm = p2p = bubble = core = 0.0
        for engine, bucket in zip(self.replicas, buckets):
            if not bucket:    # fewer requests than replicas
                continue
            rep = engine.run(bucket, rng=rng)
            reports.append(rep)
            sub_first = min(r.arrival_s for r in bucket)
            last_finish = max(last_finish, sub_first + rep.makespan_s)
            comm += engine.comm_total_s
            p2p += engine.p2p_total_s
            bubble += engine.bubble_total_s
            core += engine.core_total_s
        tenants: tuple[TenantReport, ...] = ()
        if any(r.tenant for r in trace):
            tenants = tenant_reports(
                sorted(
                    (m for r in reports for m in r.requests),
                    key=lambda m: m.req_id,
                ),
                slo_policy=getattr(
                    self.replicas[0].scheduler, "slo_policy", None
                ),
            )
        return ShardedServingReport(
            shard=self.shard.fingerprint,
            route=self.route,
            policy=self.policy,
            device=self.spec.name,
            n_requests=len(trace),
            makespan_s=last_finish - first_arrival,
            comm_s=comm,
            overlap=self.overlap,
            micro_batches=self.micro_batches,
            p2p_s=p2p,
            bubble_s=bubble,
            bubble_fraction=bubble / core if core else 0.0,
            replicas=reports,
            assignments=tuple(
                tuple(r.req_id for r in b) for b in buckets if b
            ),
            tenants=tenants,
            plan_cache=(
                self.plan_cache.stats() if self.config.use_plan_cache else None
            ),
        )


# --------------------------------------------------------------- autoscaling


@dataclass
class FleetReport:
    """Outcome of an autoscaled fleet run: serving merge + scaling economics."""

    sharded: ShardedServingReport
    #: Probed steady-state decode capacity of ONE replica (tokens/s).
    capacity_tokens_per_s: float
    target_utilization: float
    #: Step function of active replicas over simulated time.
    timeline: tuple[tuple[float, int], ...]
    gpu_s: float                   # integral of active GPUs over the run
    gpu_cost: float                # gpu_s * FleetConfig.gpu_cost_per_s
    min_replicas: int
    max_replicas: int
    scale_up_latency_s: float
    #: Ranks per replica (``tp * pp``); converts GPU·s back to replica·s.
    world_per_replica: int = 1

    # ------------------------------------------------------------ aggregates

    @property
    def tokens_per_s(self) -> float:
        return self.sharded.tokens_per_s

    @property
    def makespan_s(self) -> float:
        return self.sharded.makespan_s

    @property
    def completed(self) -> int:
        return self.sharded.completed

    @property
    def total_tokens(self) -> int:
        return self.sharded.total_tokens

    def ttft_p(self, q: float) -> float:
        return self.sharded.ttft_p(q)

    @property
    def peak_replicas(self) -> int:
        return max(n for _, n in self.timeline)

    @property
    def mean_replicas(self) -> float:
        """Time-weighted average replica count over the run."""
        if not self.makespan_s:
            return 0.0
        return self.gpu_s / self.world_per_replica / self.makespan_s

    @property
    def scale_events(self) -> int:
        return max(0, len(self.timeline) - 1)

    @property
    def cost_per_1k_tokens(self) -> float:
        tokens = self.sharded.total_tokens
        return self.gpu_cost / (tokens / 1000.0) if tokens else 0.0

    # -------------------------------------------------------------- rendering

    def summary(self) -> str:
        lines = [self.sharded.summary()]
        lines.append(
            f"  capacity     : {self.capacity_tokens_per_s:,.0f} tok/s per "
            f"replica (probe), target util {self.target_utilization:.0%}"
        )
        lines.append(
            f"  autoscale    : {self.min_replicas}..{self.max_replicas} "
            f"replicas, peak {self.peak_replicas}, mean "
            f"{self.mean_replicas:.2f}, {self.scale_events} scale events, "
            f"up-latency {format_time(self.scale_up_latency_s)}"
        )
        lines.append(
            f"  cost         : {self.gpu_s:.4f} GPU·s "
            f"({self.gpu_cost:.4f} units), "
            f"{self.cost_per_1k_tokens:.4f} units/1k tok, "
            f"TTFT p99 {format_time(self.ttft_p(99))}"
        )
        return "\n".join(lines)


class AutoscalingServingEngine:
    """A DP fleet whose width floats with offered load.

    The replica count is *reactive*: a capacity probe (the trace's first
    requests replayed back-to-back on one idle replica) measures
    steady-state tokens/s per replica, then each ``scale_window_s`` of
    simulated time the offered token load of the window just finished is
    compared against ``capacity * target_utilization * replicas`` and the
    fleet is resized — scale-ups land ``scale_up_latency_s`` later
    (model load + cache warm-up), scale-downs are immediate.  Arrivals
    route least-loaded over the replicas active at their arrival time.
    The report prices the fleet in GPU-seconds (every rank of every
    active replica), the basis of the cost/throughput frontier.
    """

    def __init__(
        self,
        spec: GPUSpec,
        policy: str = "continuous",
        config: ServingConfig | None = None,
        fleet: FleetConfig | None = None,
        max_batch_size: int = 16,
        max_batch_tokens: int = 65536,
        tracer: Tracer | None = None,
        plan_cache: PlanCache | None = None,
        slo: SLOPolicy | None = None,
    ):
        self.fleet = fleet if fleet is not None else FleetConfig(autoscale=True)
        self.spec = spec
        self.policy = "slo" if slo is not None else policy
        self.config = config or ServingConfig()
        self.slo = slo
        self.tracer = tracer
        self.plan_cache = (
            plan_cache
            if plan_cache is not None
            else PlanCache(max_entries=self.config.plan_cache_entries)
        )
        self._max_batch_size = max_batch_size
        self._max_batch_tokens = max_batch_tokens
        #: One replica's layout: the fleet shard with the DP axis removed
        #: (the autoscaler owns that axis).
        self._replica_shard = replace(self.fleet.shard, dp=1)
        lanes_per_replica = 2 + self._replica_shard.tp
        self.replicas = [
            TPServingEngine(
                spec,
                _make_policy_scheduler(
                    self.policy, max_batch_size, max_batch_tokens, slo
                ),
                self._replica_shard,
                self.config,
                tracer=tracer,
                plan_cache=self.plan_cache,
                lane_base=r * lanes_per_replica,
                label=f"replica{r}.",
                fleet=self.fleet,
            )
            for r in range(self.fleet.max_replicas)
        ]

    # ----------------------------------------------------------------- probe

    def _probe_capacity(self, trace: list[Request], rng: RngStream) -> float:
        """Tokens/s one replica sustains on this workload's request mix.

        The first requests of the trace are replayed with their arrivals
        compressed to zero on a probe replica (no tracer lanes), sharing
        the fleet plan cache — so the probe doubles as a warm start.
        """
        probe = [replace(r, arrival_s=0.0) for r in trace[:12]]
        engine = TPServingEngine(
            self.spec,
            _make_policy_scheduler(
                self.policy, self._max_batch_size, self._max_batch_tokens,
                self.slo,
            ),
            self._replica_shard,
            self.config,
            tracer=NULL_TRACER,
            plan_cache=self.plan_cache,
            fleet=self.fleet,
        )
        rep = engine.run(probe, rng=rng)
        if rep.makespan_s <= 0:    # pragma: no cover - degenerate probe
            raise ConfigError("capacity probe produced a zero makespan")
        return rep.total_tokens / rep.makespan_s

    # ------------------------------------------------------------- simulation

    def run(
        self, trace: list[Request], rng: RngStream | None = None
    ) -> FleetReport:
        """Probe, scale, route, simulate, and price the fleet."""
        if not trace:
            raise ConfigError("empty request trace")
        rng = rng or RngStream()
        fleet = self.fleet
        order = sorted(trace, key=lambda r: (r.arrival_s, r.req_id))
        first = order[0].arrival_s
        last = order[-1].arrival_s
        capacity = self._probe_capacity(order, rng.fork("fleet-probe"))

        window = fleet.scale_window_s
        if window is None:
            window = max((last - first) / 8.0, 1e-9)

        # Reactive scaling: at each window boundary, resize against the
        # window just observed.  A scale-up lands after the latency; a
        # decision inside a pending scale-up simply supersedes it (the
        # timeline is re-sorted by effective time).
        current = fleet.min_replicas
        timeline: list[tuple[float, int]] = [(first, current)]
        supply = capacity * fleet.target_utilization
        k = 0
        while first + k * window <= last:
            w0 = first + k * window
            w1 = w0 + window
            load = sum(
                r.max_context for r in order if w0 <= r.arrival_s < w1
            )
            desired = math.ceil(load / window / supply) if supply > 0 else 1
            desired = min(max(desired, fleet.min_replicas), fleet.max_replicas)
            if desired != current:
                lag = fleet.scale_up_latency_s if desired > current else 0.0
                timeline.append((w1 + lag, desired))
                current = desired
            k += 1
        timeline.sort(key=lambda e: e[0])

        def active_at(t: float) -> int:
            n = timeline[0][1]
            for when, count in timeline:
                if when <= t:
                    n = count
                else:
                    break
            return n

        # Availability-aware least-loaded routing: only replicas already
        # active when a request arrives may take it.
        load = [0] * fleet.max_replicas
        buckets: list[list[Request]] = [[] for _ in range(fleet.max_replicas)]
        for req in order:
            n = max(1, active_at(req.arrival_s))
            r = min(range(n), key=lambda i: (load[i], i))
            buckets[r].append(req)
            load[r] += req.max_context

        last_finish = first
        reports: list[ServingReport] = []
        comm = p2p = bubble = core = 0.0
        for engine, bucket in zip(self.replicas, buckets):
            if not bucket:
                continue
            rep = engine.run(bucket, rng=rng)
            reports.append(rep)
            sub_first = min(r.arrival_s for r in bucket)
            last_finish = max(last_finish, sub_first + rep.makespan_s)
            comm += engine.comm_total_s
            p2p += engine.p2p_total_s
            bubble += engine.bubble_total_s
            core += engine.core_total_s

        # GPU-seconds: every rank of every *active* replica, from first
        # arrival to last finish (replicas draining past a scale-down are
        # not billed extra — the decision model is arrival-driven).
        world = self._replica_shard.tp * self._replica_shard.pp
        gpu_s = 0.0
        marks = [t for t, _ in timeline if t < last_finish] + [last_finish]
        for t0, t1 in zip(marks, marks[1:]):
            gpu_s += active_at(t0) * world * (t1 - t0)

        tenants: tuple[TenantReport, ...] = ()
        if any(r.tenant for r in trace):
            tenants = tenant_reports(
                sorted(
                    (m for r in reports for m in r.requests),
                    key=lambda m: m.req_id,
                ),
                slo_policy=getattr(
                    self.replicas[0].scheduler, "slo_policy", None
                ),
            )
        sharded = ShardedServingReport(
            shard=(
                f"{self._replica_shard.fingerprint} x auto"
                f"[{fleet.min_replicas}..{fleet.max_replicas}]"
            ),
            route="least-loaded",
            policy=self.policy,
            device=self.spec.name,
            n_requests=len(trace),
            makespan_s=last_finish - first,
            comm_s=comm,
            overlap=fleet.overlap,
            micro_batches=self.replicas[0].micro_batches,
            p2p_s=p2p,
            bubble_s=bubble,
            bubble_fraction=bubble / core if core else 0.0,
            replicas=reports,
            assignments=tuple(
                tuple(r.req_id for r in b) for b in buckets if b
            ),
            tenants=tenants,
            plan_cache=(
                self.plan_cache.stats() if self.config.use_plan_cache else None
            ),
        )
        return FleetReport(
            sharded=sharded,
            capacity_tokens_per_s=capacity,
            target_utilization=fleet.target_utilization,
            timeline=tuple(timeline),
            gpu_s=gpu_s,
            gpu_cost=gpu_s * fleet.gpu_cost_per_s,
            min_replicas=fleet.min_replicas,
            max_replicas=fleet.max_replicas,
            scale_up_latency_s=fleet.scale_up_latency_s,
            world_per_replica=world,
        )


# ----------------------------------------------------------------- frontier


@dataclass(frozen=True)
class FrontierPoint:
    """One deployment on the cost/throughput frontier."""

    label: str                 # "dp2", "auto", ...
    mean_replicas: float
    gpu_s: float
    gpu_cost: float
    total_tokens: int
    tokens_per_s: float
    ttft_p99_s: float

    @property
    def tokens_per_gpu_s(self) -> float:
        """Cost-efficiency: aggregate tokens per GPU-second spent."""
        return self.total_tokens / self.gpu_s if self.gpu_s > 0 else 0.0


def cost_throughput_frontier(
    spec: GPUSpec,
    trace: list[Request],
    policy: str = "continuous",
    config: ServingConfig | None = None,
    fleet: FleetConfig | None = None,
    dp_values: tuple[int, ...] = (1, 2, 4),
    include_auto: bool = True,
    max_batch_size: int = 16,
    max_batch_tokens: int = 65536,
    slo: SLOPolicy | None = None,
    rng: RngStream | None = None,
) -> tuple[FrontierPoint, ...]:
    """Sweep fixed DP widths (plus the autoscaler) over one trace.

    Each point reports the deployment's GPU-second bill, aggregate
    tokens/s, and p99 TTFT — the three axes of the provisioning
    trade-off.  Fixed points bill ``world_size`` GPUs for the whole
    makespan; the ``auto`` point bills only replicas while active.
    """
    fleet = fleet if fleet is not None else FleetConfig()
    rng = rng or RngStream()
    points: list[FrontierPoint] = []
    for dp in dp_values:
        f = replace(fleet, shard=replace(fleet.shard, dp=dp), autoscale=False)
        engine = ShardedServingEngine(
            spec, policy, config, fleet=f,
            max_batch_size=max_batch_size,
            max_batch_tokens=max_batch_tokens,
            slo=slo,
        )
        rep = engine.run(trace, rng=rng)
        gpu_s = f.shard.world_size * rep.makespan_s
        points.append(
            FrontierPoint(
                label=f"dp{dp}",
                mean_replicas=float(dp),
                gpu_s=gpu_s,
                gpu_cost=gpu_s * fleet.gpu_cost_per_s,
                total_tokens=rep.total_tokens,
                tokens_per_s=rep.tokens_per_s,
                ttft_p99_s=rep.ttft_p(99),
            )
        )
    if include_auto:
        auto = AutoscalingServingEngine(
            spec, policy, config,
            fleet=replace(fleet, autoscale=True),
            max_batch_size=max_batch_size,
            max_batch_tokens=max_batch_tokens,
            slo=slo,
        )
        rep = auto.run(trace, rng=rng)
        points.append(
            FrontierPoint(
                label="auto",
                mean_replicas=rep.mean_replicas,
                gpu_s=rep.gpu_s,
                gpu_cost=rep.gpu_cost,
                total_tokens=rep.total_tokens,
                tokens_per_s=rep.tokens_per_s,
                ttft_p99_s=rep.ttft_p(99),
            )
        )
    return tuple(points)
