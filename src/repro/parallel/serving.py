"""Multi-GPU serving: tensor/pipeline-parallel replicas under data-parallel
routing.

Each replica is a :class:`~repro.serving.engine.ServingEngine` given the
fleet's layout without its DP axis: ``tp * pp`` lock-stepped ranks,
simulated as one representative stage-rank that pays the layout's
collectives (serialized, or bucketed and overlapped inside a 1F1B
pipeline — see :mod:`repro.serving.engine`).

A :class:`ShardedServingEngine` runs such replicas over one request
trace.  Its width is a timeline of ``(time, active replicas)`` steps: a
fixed ``dp`` fleet is the constant timeline, and
:class:`AutoscalingServingEngine` replaces only that width policy.  A
router assigns each arrival to a replica active at its arrival time —
round-robin over them, or least-loaded by *cumulative* assigned
worst-case tokens (load is never released: replicas are simulated after
routing, so their outstanding work at an arrival is unknown; co-simulated
live routing is an open item in ROADMAP.md).  Every replica shares one
:class:`~repro.plan.PlanCache`, and the merged
:class:`ShardedServingReport` aggregates throughput over the global
makespan and bills GPU-seconds over the width timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.core.errors import ConfigError
from repro.core.rng import RngStream
from repro.core.units import format_time
from repro.gpu.specs import GPUSpec
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.shard import FleetConfig
from repro.plan import PlanCache
from repro.serving.engine import ServingConfig, ServingEngine
from repro.serving.metrics import (
    ServingReport,
    merge_replica_fields,
    tenant_rows,
)
from repro.serving.request import Request
from repro.serving.slo import SLOPolicy, make_policy_scheduler


@dataclass
class ShardedServingReport(ServingReport):
    """One trace served by a fleet of TP/PP replicas.

    The :class:`~repro.serving.metrics.ServingReport` fields are the
    replicas' reports merged
    (:func:`~repro.serving.metrics.merge_replica_fields`) over the global
    makespan, first arrival to last finish; the fields below describe the
    fleet: its layout and collectives, its width over time and its bill.
    """

    shard: str = ""             # layout fingerprint, e.g. "tp2dp2:nvlink"
    route: str = "least-loaded"
    comm_s: float = 0.0         # summed simulated all-reduce seconds
    overlap: bool = True        # pricing mode of the fleet's collectives
    micro_batches: int = 1
    p2p_s: float = 0.0          # summed pipeline activation sends
    bubble_s: float = 0.0       # summed 1F1B fill/drain windows
    bubble_fraction: float = 0.0    # bubble share of pipelined step time
    replicas: list[ServingReport] = field(repr=False, default_factory=list)
    #: Request ids handed to each replica (index = replica rank).
    assignments: tuple[tuple[int, ...], ...] = ()
    #: Active replicas over simulated time: ``(time, count)`` steps from
    #: the first arrival, one step when the width is fixed.
    timeline: tuple[tuple[float, int], ...] = ()
    gpu_s: float = 0.0          # active ranks integrated over the makespan
    gpu_cost: float = 0.0       # gpu_s * FleetConfig.gpu_cost_per_s
    #: Probed steady-state decode capacity of ONE replica (tokens/s); 0
    #: when the width is fixed.
    capacity_tokens_per_s: float = 0.0
    #: The deployment that ran: autoscaling bounds, ranks per replica.
    fleet: FleetConfig = FleetConfig()

    # ------------------------------------------------------------ aggregates

    @property
    def peak_replicas(self) -> int:
        return max(n for _, n in self.timeline)

    @property
    def mean_replicas(self) -> float:
        """Time-weighted average replica count over the run."""
        if not self.makespan_s:
            return 0.0
        world_per_replica = self.fleet.shard.tp * self.fleet.shard.pp
        return self.gpu_s / world_per_replica / self.makespan_s

    @property
    def scale_events(self) -> int:
        return max(0, len(self.timeline) - 1)

    @property
    def cost_per_1k_tokens(self) -> float:
        tokens = self.total_tokens
        return self.gpu_cost / (tokens / 1000.0) if tokens else 0.0

    # -------------------------------------------------------------- rendering

    def summary(self) -> str:
        mode = "overlapped" if self.overlap else "serialized"
        lines = [
            f"{self.shard} · {self.policy} batching · {self.route} routing "
            f"· {self.device} · {mode} collectives",
            self._requests_line(),
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
        lines += self._workload_lines()
        if self.fleet.autoscale:
            fleet = self.fleet
            lines += [
                f"  capacity     : {self.capacity_tokens_per_s:,.0f} tok/s per "
                f"replica (probe), target util {fleet.target_utilization:.0%}",
                f"  autoscale    : {fleet.min_replicas}..{fleet.max_replicas} "
                f"replicas, peak {self.peak_replicas}, mean "
                f"{self.mean_replicas:.2f}, {self.scale_events} scale events, "
                f"up-latency {format_time(fleet.scale_up_latency_s)}",
                f"  cost         : {self.gpu_s:.4f} GPU·s "
                f"({self.gpu_cost:.4f} units), "
                f"{self.cost_per_1k_tokens:.4f} units/1k tok, "
                f"TTFT p99 {format_time(self.ttft_p(99))}",
            ]
        return "\n".join(lines)


def _active_at(timeline: list[tuple[float, int]], t: float) -> int:
    """Replicas active at simulated time ``t``: the last step at or
    before it."""
    n = timeline[0][1]
    for when, count in timeline:
        if when > t:
            break
        n = count
    return n


class ShardedServingEngine:
    """A data-parallel fleet of TP/PP replicas behind one request router.

    A fixed fleet serves the whole trace on ``shard.dp`` replicas: its
    width timeline is the constant ``((first arrival, dp),)``.  Subclasses
    change only the width policy (:meth:`_probe_capacity` and
    :meth:`_timeline`); routing, simulation, the merge and GPU·s billing
    are this class's :meth:`run`.
    """

    #: Whether the width floats; must agree with ``FleetConfig.autoscale``.
    autoscaled = False

    def __init__(
        self,
        spec: GPUSpec,
        policy: str = "continuous",
        config: ServingConfig | None = None,
        max_batch_size: int = 16,
        max_batch_tokens: int = 65536,
        tracer: Tracer | None = None,
        plan_cache: PlanCache | None = None,
        fleet: FleetConfig | None = None,
        slo: SLOPolicy | None = None,
    ):
        fleet = fleet or FleetConfig(autoscale=self.autoscaled)
        if fleet.autoscale != self.autoscaled:
            raise ConfigError(
                f"{type(self).__name__} cannot run FleetConfig(autoscale="
                f"{fleet.autoscale}); repro.serve() picks the engine from it"
            )
        self.spec = spec
        self.policy = "slo" if slo is not None else policy
        self.config = config or ServingConfig()
        self.fleet = fleet
        self.shard = fleet.shard
        self.route = fleet.route
        self.slo = slo
        #: One cache for the whole fleet: TP ranks are lock-stepped and DP
        #: replicas see statistically identical work, so plans compiled by
        #: one replica replay on every other.
        self.plan_cache = (
            plan_cache
            if plan_cache is not None
            else PlanCache(max_entries=self.config.plan_cache_entries)
        )
        #: One decode row-price memo for the replicas and the probe: they
        #: share the spec, the per-rank config and the layout, so a row
        #: price one of them computed is every other's too.
        self._row_prices: dict[tuple[int, ...], tuple[float, int]] = {}
        self._max_batch_size = max_batch_size
        self._max_batch_tokens = max_batch_tokens
        #: One replica's layout: the fleet shard without its DP axis.
        self.replica_shard = replace(fleet.shard, dp=1)
        width = fleet.max_replicas if fleet.autoscale else fleet.shard.dp
        lanes_per_replica = 2 + fleet.shard.tp
        self.replicas = [
            self._replica(
                tracer,
                lane_base=r * lanes_per_replica,
                label=f"replica{r}." if fleet.autoscale or width > 1 else "",
            )
            for r in range(width)
        ]
        self.micro_batches = self.replicas[0].micro_batches

    def _replica(
        self, tracer: Tracer | None, lane_base: int = 0, label: str = ""
    ) -> ServingEngine:
        return ServingEngine(
            self.spec,
            make_policy_scheduler(
                self.policy, self._max_batch_size, self._max_batch_tokens,
                self.slo,
            ),
            self.config,
            tracer=tracer,
            plan_cache=self.plan_cache,
            shard=self.replica_shard,
            fleet=self.fleet,
            lane_base=lane_base,
            label=label,
            row_prices=self._row_prices,
        )

    # ---------------------------------------------------------- width policy

    def _probe_capacity(self, trace: list[Request], rng: RngStream) -> float:
        """Per-replica tokens/s the width policy plans against; a fixed
        width needs none."""
        return 0.0

    def _timeline(
        self, order: list[Request], capacity: float
    ) -> list[tuple[float, int]]:
        """Active replicas over simulated time, as ``(time, count)`` steps
        sorted by time from the first arrival: the constant ``dp``."""
        return [(order[0].arrival_s, self.shard.dp)]

    # --------------------------------------------------------------- routing

    def _assign(
        self, order: list[Request], timeline: list[tuple[float, int]]
    ) -> list[list[Request]]:
        """Partition arrivals over the replicas active at each arrival.

        Round-robin cycles over them in arrival order; least-loaded picks
        the smallest *cumulative* assigned worst-case token load (ties to
        the lowest rank).
        """
        buckets: list[list[Request]] = [[] for _ in self.replicas]
        load = [0] * len(self.replicas)
        for i, req in enumerate(order):
            n = _active_at(timeline, req.arrival_s)
            if self.route == "round-robin":
                r = i % n
            else:
                r = min(range(n), key=lambda j: (load[j], j))
            buckets[r].append(req)
            load[r] += req.max_context
        return buckets

    # ------------------------------------------------------------- simulation

    def run(
        self, trace: list[Request], rng: RngStream | None = None
    ) -> ShardedServingReport:
        """Plan the width, route the trace, simulate every replica, merge
        the reports, and bill the fleet."""
        if not trace:
            raise ConfigError("empty request trace")
        # One rng for every replica is safe: RngStream forks are stateless
        # path derivations and per-request masks are seeded by request id.
        rng = rng or RngStream()
        fleet = self.fleet
        order = sorted(trace, key=lambda r: (r.arrival_s, r.req_id))
        capacity = self._probe_capacity(order, rng)
        timeline = self._timeline(order, capacity)
        buckets = self._assign(order, timeline)
        first = order[0].arrival_s
        last_finish = first
        reports: list[ServingReport] = []
        totals = [0.0] * 4    # comm, p2p, bubble and core seconds
        for engine, bucket in zip(self.replicas, buckets):
            if not bucket:    # fewer requests than replicas
                continue
            rep = engine.run(bucket, rng=rng)
            reports.append(rep)
            last_finish = max(last_finish, bucket[0].arrival_s + rep.makespan_s)
            totals = [t + x for t, x in zip(totals, engine.last_collectives)]

        comm, p2p, bubble, core = totals
        # GPU-seconds: every rank of every replica the timeline holds
        # active, from first arrival to last finish (docs/fleet.md states
        # what this leaves unbilled).
        world = self.replica_shard.tp * self.replica_shard.pp
        gpu_s = 0.0
        marks = [t for t, _ in timeline if t < last_finish] + [last_finish]
        for t0, t1 in zip(marks, marks[1:]):
            gpu_s += _active_at(timeline, t0) * world * (t1 - t0)

        merged = merge_replica_fields(reports)
        layout = fleet.shard.fingerprint
        if fleet.autoscale:
            layout = (
                f"{self.replica_shard.fingerprint} x auto"
                f"[{fleet.min_replicas}..{fleet.max_replicas}]"
            )
        return ShardedServingReport(
            policy=self.policy,
            pattern="+".join(sorted({r.pattern for r in trace})),
            device=self.spec.name,
            n_requests=len(trace),
            makespan_s=last_finish - first,
            tenants=tenant_rows(
                trace, merged["requests"], self.replicas[0].scheduler
            ),
            plan_cache=(
                self.plan_cache.stats() if self.config.use_plan_cache else None
            ),
            **merged,
            shard=layout,
            route=fleet.route,
            comm_s=comm,
            overlap=fleet.overlap,
            micro_batches=self.micro_batches,
            p2p_s=p2p,
            bubble_s=bubble,
            bubble_fraction=bubble / core if core else 0.0,
            replicas=reports,
            assignments=tuple(
                tuple(r.req_id for r in b) for b in buckets if b
            ),
            timeline=tuple(timeline),
            gpu_s=gpu_s,
            gpu_cost=gpu_s * fleet.gpu_cost_per_s,
            capacity_tokens_per_s=capacity,
            fleet=fleet,
        )


# --------------------------------------------------------------- autoscaling


class AutoscalingServingEngine(ShardedServingEngine):
    """A DP fleet whose width floats with offered load.

    The replica count is *reactive*: a capacity probe (the trace's first
    requests replayed back-to-back on one idle replica) measures
    steady-state tokens/s per replica, then each ``scale_window_s`` of
    simulated time the offered token load of the window just finished is
    compared against ``capacity * target_utilization * replicas`` and the
    fleet is resized — scale-ups land ``scale_up_latency_s`` later
    (model load + cache warm-up), scale-downs are immediate.  Routing,
    simulation and GPU·s billing are the fixed fleet's.
    """

    autoscaled = True

    def _probe_capacity(self, trace: list[Request], rng: RngStream) -> float:
        """Tokens/s one replica sustains on this workload's request mix.

        The first requests of the trace are replayed with their arrivals
        compressed to zero on a probe replica (no tracer lanes), sharing
        the fleet plan cache — so the probe doubles as a warm start.
        """
        probe = [replace(r, arrival_s=0.0) for r in trace[:12]]
        rep = self._replica(NULL_TRACER).run(probe, rng=rng.fork("fleet-probe"))
        if rep.makespan_s <= 0:    # pragma: no cover - degenerate probe
            raise ConfigError("capacity probe produced a zero makespan")
        return rep.total_tokens / rep.makespan_s

    def _timeline(
        self, order: list[Request], capacity: float
    ) -> list[tuple[float, int]]:
        """Reactive scaling: at each window boundary, resize against the
        window just observed.  A scale-up lands after the latency; a
        decision for another width drops a scale-up still pending and is
        judged against the width in force."""
        fleet = self.fleet
        first = order[0].arrival_s
        last = order[-1].arrival_s
        window = fleet.scale_window_s
        if window is None:
            window = max((last - first) / 8.0, 1e-9)
        timeline: list[tuple[float, int]] = [(first, fleet.min_replicas)]
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
            if desired != timeline[-1][1]:
                while timeline[-1][0] > w1:
                    timeline.pop()
                current = timeline[-1][1]
                if desired != current:
                    lag = fleet.scale_up_latency_s if desired > current else 0.0
                    timeline.append((w1 + lag, desired))
            k += 1
        return timeline


def fleet_engine(
    spec: GPUSpec,
    policy: str,
    config: ServingConfig | None,
    fleet: FleetConfig,
    **kwargs,
) -> ShardedServingEngine:
    """The engine ``fleet`` runs on: the autoscaler when its
    ``autoscale`` flag is set, the fixed fleet otherwise."""
    cls = AutoscalingServingEngine if fleet.autoscale else ShardedServingEngine
    return cls(spec, policy, config, fleet=fleet, **kwargs)


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

    Each point reads the deployment's GPU-second bill, aggregate
    tokens/s, and p99 TTFT — the three axes of the provisioning
    trade-off — off its fleet report: fixed widths bill ``world_size``
    GPUs for the whole makespan, the ``auto`` point only replicas while
    active.
    """
    fleet = fleet if fleet is not None else FleetConfig()
    rng = rng or RngStream()
    deployments = [
        (f"dp{dp}", replace(fleet, shard=replace(fleet.shard, dp=dp),
                            autoscale=False))
        for dp in dp_values
    ]
    if include_auto:
        deployments.append(("auto", replace(fleet, autoscale=True)))
    points: list[FrontierPoint] = []
    for label, deployment in deployments:
        rep = fleet_engine(
            spec, policy, config, deployment,
            max_batch_size=max_batch_size,
            max_batch_tokens=max_batch_tokens,
            slo=slo,
        ).run(trace, rng=rng)
        points.append(
            FrontierPoint(
                label=label,
                mean_replicas=rep.mean_replicas,
                gpu_s=rep.gpu_s,
                gpu_cost=rep.gpu_cost,
                total_tokens=rep.total_tokens,
                tokens_per_s=rep.tokens_per_s,
                ttft_p99_s=rep.ttft_p(99),
            )
        )
    return tuple(points)
