"""Tests for tensor/pipeline-parallel serving replicas and the fleet
engines built from them (fixed and autoscaled data-parallel width)."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigError
from repro.core.rng import RngStream
from repro.gpu.specs import A100
from repro.obs import Tracer
from repro.parallel import (
    ROUTES,
    AutoscalingServingEngine,
    FleetConfig,
    ShardConfig,
    ShardedServingEngine,
)
from repro.serving import (
    LoRAConfig,
    Request,
    ServingConfig,
    ServingEngine,
    SLOPolicy,
    SpeculativeConfig,
    assign_adapters,
    make_scenario,
    make_scheduler,
    synthetic_trace,
)

#: Small full-model shape with a TP-friendly head count.
CONFIG = ServingConfig(heads=4, head_size=16, n_layers=2)


def small_trace(n=8, rate=500.0, seed=3):
    return synthetic_trace(
        n, rate, rng=RngStream(seed),
        prompt_range=(8, 40), max_new_range=(4, 12),
    )


def replica_engine(shard, **kwargs):
    """One TP/PP replica: the serving engine given a shard layout."""
    return ServingEngine(
        A100, make_scheduler("continuous"), CONFIG, shard=shard, **kwargs
    )


def drained(engine, trace, seed=17):
    """A run of ``trace`` on ``engine``, stepped until it drains."""
    run = engine.start(RngStream(seed))
    pending = sorted(trace, key=lambda r: (r.arrival_s, r.req_id))
    while pending or run.next_event_s() is not None:
        clock = run.next_event_s()
        if pending and (clock is None or pending[0].arrival_s <= clock):
            run.submit(pending.pop(0))
        else:
            run.step()
    return run


class TestTPServingEngine:
    """TP replicas: the serving engine given a ``tp{n}`` layout."""

    def test_tp1_reproduces_base_engine_exactly(self):
        """With one rank every collective is zero and the replica is the
        plain serving engine, bit for bit."""
        trace = small_trace()
        base = ServingEngine(A100, make_scheduler("continuous"), CONFIG)
        tp1 = replica_engine("tp1")
        assert tp1.run(trace, rng=RngStream(17)) == base.run(
            trace, rng=RngStream(17)
        )
        assert drained(tp1, trace).comm_total_s == 0.0

    def test_tp_shrinks_the_per_rank_cache(self):
        """Each rank serves heads/tp heads — its KV bytes-per-token scale
        down with it — while collectives still move the full hidden
        width."""
        tp2 = replica_engine("tp2")
        assert tp2.config.heads == CONFIG.heads // 2
        assert tp2._hidden == CONFIG.heads * CONFIG.head_size

    def test_collectives_priced_into_steps(self):
        trace = small_trace()
        tp1 = replica_engine("tp1").run(trace, rng=RngStream(17))
        tp2_run = drained(replica_engine("tp2"), trace)
        tp2 = tp2_run.report()
        assert tp2_run.comm_total_s > 0.0
        assert tp2.completed == tp1.completed == len(trace)
        assert tp2.makespan_s != tp1.makespan_s

    def test_heads_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="not divisible"):
            replica_engine("tp3")

    def test_comm_resets_between_runs(self):
        """Each run of one engine keeps its own totals: a second run of
        the same engine starts from zero."""
        engine = replica_engine("tp2")
        first = drained(engine, small_trace())
        second = drained(engine, small_trace())
        assert first.comm_total_s > 0.0
        assert second.comm_total_s == first.comm_total_s


class TestOverlapServing:
    def test_overlap_is_the_default_and_beats_serialized(self):
        """Bucketed, overlapped collectives finish the same trace sooner
        than the sync-point model on the same layout."""
        trace = small_trace()
        fast = replica_engine("tp2")
        slow = replica_engine("tp2", fleet=FleetConfig(overlap=False))
        assert fast.overlap and not slow.overlap
        mk_fast = fast.run(trace, rng=RngStream(17)).makespan_s
        mk_slow = slow.run(trace, rng=RngStream(17)).makespan_s
        assert mk_fast < mk_slow

    def test_overlap_never_beats_compute_alone(self):
        """Collectives can hide, not vanish: the overlapped makespan still
        exceeds the comm-free (tp1) makespan."""
        trace = small_trace()
        mk_tp2 = replica_engine("tp2").run(trace, rng=RngStream(17)).makespan_s
        mk_tp1 = replica_engine("tp1").run(trace, rng=RngStream(17)).makespan_s
        assert mk_tp2 > mk_tp1

    def test_tp1_overlap_still_reproduces_base_engine(self):
        """No comm, one stage, one micro-batch: the overlapped pricing
        path must degenerate to the plain engine bit for bit."""
        trace = small_trace()
        base = ServingEngine(A100, make_scheduler("continuous"), CONFIG)
        tp1 = replica_engine("tp1")
        assert tp1.overlap
        assert tp1.run(trace, rng=RngStream(17)) == base.run(
            trace, rng=RngStream(17)
        )

    def test_deterministic(self):
        a = replica_engine("tp2").run(small_trace(), rng=RngStream(17))
        b = replica_engine("tp2").run(small_trace(), rng=RngStream(17))
        assert a == b


class TestPipelineServing:
    def test_pp_divisibility_enforced_at_construction(self):
        with pytest.raises(ConfigError, match="not divisible"):
            replica_engine("tp2pp3")

    def test_pp_engine_serves_one_stage(self):
        engine = replica_engine("tp2pp2")
        assert engine.config.n_layers == CONFIG.n_layers // 2
        assert engine.micro_batches == 8

    def test_pipeline_accumulates_bubble_and_sends(self):
        run = drained(replica_engine("tp2pp2"), small_trace())
        assert run.bubble_total_s > 0
        assert run.p2p_total_s > 0

    def test_bad_micro_batches_rejected(self):
        with pytest.raises(ConfigError, match="micro_batches"):
            replica_engine("tp2pp2", fleet=FleetConfig(micro_batches=0))

    def test_report_carries_pipeline_aggregates(self):
        engine = ShardedServingEngine(
            A100, config=CONFIG,
            fleet=FleetConfig(shard="tp2pp2", micro_batches=4),
        )
        report = engine.run(small_trace(), rng=RngStream(17))
        assert report.micro_batches == 4
        assert report.bubble_s > 0
        assert report.p2p_s > 0
        assert report.bubble_fraction == pytest.approx(1 / 5)
        assert "micro-batches" in report.summary()


def requests(*sizes):
    """One request per (arrival, prompt, new) triple, ids in order."""
    return [
        Request(i, float(a), p, n) for i, (a, p, n) in enumerate(sizes)
    ]


class TestRouting:
    def test_unknown_route_rejected(self):
        with pytest.raises(ConfigError, match="unknown route"):
            ShardedServingEngine(
                A100, config=CONFIG, fleet=FleetConfig(route="random")
            )

    def test_empty_trace_rejected(self):
        engine = ShardedServingEngine(A100, config=CONFIG)
        with pytest.raises(ConfigError):
            engine.run([])

    def test_round_robin_alternates_in_arrival_order(self):
        engine = ShardedServingEngine(
            A100, config=CONFIG,
            fleet=FleetConfig(shard="dp2", route="round-robin"),
        )
        trace = requests(*[(i, 16, 4) for i in range(6)])
        report = engine.run(trace, rng=RngStream(17))
        assert report.assignments == ((0, 2, 4), (1, 3, 5))

    def test_least_loaded_balances_token_load(self):
        """A heavy head request loads replica 0; later arrivals drain to
        the lighter replica until the loads cross."""
        engine = ShardedServingEngine(
            A100, config=CONFIG,
            fleet=FleetConfig(shard="dp2", route="least-loaded"),
        )
        trace = requests((0, 100, 20), (1, 8, 4), (2, 8, 4))
        report = engine.run(trace, rng=RngStream(17))
        assert report.assignments == ((0,), (1, 2))

    def test_more_replicas_than_requests(self):
        engine = ShardedServingEngine(
            A100, config=CONFIG, fleet=FleetConfig(shard="dp4")
        )
        report = engine.run(requests((0, 16, 4), (1, 16, 4)),
                            rng=RngStream(17))
        assert report.completed == 2
        assert len(report.assignments) == 2     # empty buckets dropped

    def test_routes_registry(self):
        assert set(ROUTES) == {"round-robin", "least-loaded"}

    def test_autoscaled_fleet_honours_the_route(self):
        """The autoscaler routes with the fleet's policy: at a constant
        width of two, round-robin alternates exactly like fixed dp2."""
        engine = AutoscalingServingEngine(
            A100, config=CONFIG,
            fleet=FleetConfig(
                autoscale=True, min_replicas=2, max_replicas=2,
                route="round-robin",
            ),
        )
        trace = requests((0, 100, 20), (1, 8, 4), (2, 8, 4))
        report = engine.run(trace, rng=RngStream(17))
        assert report.assignments == ((0, 2), (1,))
        assert report.route == "round-robin"


class TestFleetEngineChoice:
    """The ``autoscale`` flag and the engine class must agree."""

    def test_fixed_engine_refuses_an_autoscaled_fleet(self):
        with pytest.raises(ConfigError, match="autoscale"):
            ShardedServingEngine(
                A100, config=CONFIG,
                fleet=FleetConfig(autoscale=True, min_replicas=2,
                                  max_replicas=4),
            )

    def test_autoscaler_refuses_a_fixed_fleet(self):
        with pytest.raises(ConfigError, match="autoscale"):
            AutoscalingServingEngine(
                A100, config=CONFIG,
                fleet=FleetConfig(min_replicas=2, max_replicas=4),
            )


class TestShardedServing:
    def run_sharded(self, shard, trace=None, **kwargs):
        trace = trace if trace is not None else small_trace()
        engine = ShardedServingEngine(
            A100, config=CONFIG, fleet=FleetConfig(shard=shard), **kwargs
        )
        return engine, engine.run(trace, rng=RngStream(17))

    def test_aggregates_cover_the_whole_trace(self):
        trace = small_trace()
        _, report = self.run_sharded("tp2dp2", trace)
        assert report.n_requests == len(trace)
        assert report.completed == len(trace)
        assert report.total_tokens == sum(r.max_new_tokens for r in trace)
        assert report.tokens_per_s > 0
        assert report.comm_s > 0

    def test_deterministic(self):
        _, a = self.run_sharded("tp2dp2")
        _, b = self.run_sharded("tp2dp2")
        assert a == b

    def test_summary_renders(self):
        _, report = self.run_sharded("tp2dp2")
        text = report.summary()
        assert "tp2dp2:nvlink" in text
        assert "replica 0" in text and "replica 1" in text
        assert "all-reduces" in text

    def test_replicas_share_one_plan_cache(self):
        """DP replicas see statistically identical work, so the shared
        cache replays most decode plans: >= 90% steady-state hit rate."""
        trace = synthetic_trace(
            96, 500.0, rng=RngStream(3),
            prompt_range=(8, 24), max_new_range=(4, 12),
        )
        engine, report = self.run_sharded("tp2dp2", trace)
        assert report.plan_cache == engine.plan_cache.stats()
        assert report.plan_cache["hit_rate"] >= 0.9

    def test_per_rank_lanes_traced(self):
        tracer = Tracer()
        engine = ShardedServingEngine(
            A100, config=CONFIG, tracer=tracer,
            fleet=FleetConfig(shard="tp2dp2", overlap=False),
        )
        engine.run(small_trace(), rng=RngStream(17))
        lanes = set(tracer.lane_names.values())
        assert {"replica0.tp rank 0", "replica0.tp rank 1",
                "replica1.tp rank 0", "replica1.tp rank 1"} <= lanes
        assert tracer.find(name="rank.compute")
        comm_spans = tracer.find(name="rank.all_reduce")
        assert comm_spans
        assert comm_spans[0].args["link"] == "nvlink"

    def test_overlap_spans_traced(self):
        """The default mode lays one contention-priced window per rank
        instead of a trailing all-reduce."""
        tracer = Tracer()
        engine = ShardedServingEngine(
            A100, config=CONFIG, fleet=FleetConfig(shard="tp2"), tracer=tracer
        )
        engine.run(small_trace(), rng=RngStream(17))
        spans = tracer.find(name="rank.overlap")
        assert spans
        assert spans[0].args["link"] == "nvlink"
        assert 0 <= spans[0].args["contention"] <= 1
        assert not tracer.find(name="rank.all_reduce")

    def test_pipeline_send_spans_traced(self):
        tracer = Tracer()
        engine = ShardedServingEngine(
            A100, config=CONFIG, fleet=FleetConfig(shard="tp2pp2"),
            tracer=tracer,
        )
        engine.run(small_trace(), rng=RngStream(17))
        sends = tracer.find(name="rank.send")
        assert sends
        assert sends[0].args["stages"] == 2
        assert sends[0].args["micro_batches"] == 8

    def test_dp_lifts_throughput_under_load(self):
        """A bursty trace that swamps one replica drains faster on four:
        the DP win the router exists for."""
        trace = small_trace(n=16, rate=5000.0)
        _, one = self.run_sharded("dp1", trace)
        _, four = self.run_sharded("dp4", trace)
        assert four.tokens_per_s > one.tokens_per_s


# ------------------------------------------------------- fleet contracts

#: The tenant mix of the fleet scenarios, scaled down: prefix sharing,
#: priorities and per-tenant rows all take part in the comparison.
FLEET_TRACE = make_scenario("steady", n_requests=24, rate_rps=3000.0).generate(
    RngStream(5).fork("workload")
)


@pytest.mark.parametrize("slo", [False, True], ids=["fcfs", "slo"])
@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("layout", ["tp1", "tp2", "tp2pp2"])
def test_constant_width_autoscaler_is_fixed_dp(layout, k, slo):
    """``min_replicas == max_replicas == k`` is the fixed least-loaded
    ``dp=k`` fleet, replica for replica, billed for every rank over the
    whole makespan."""
    policy = SLOPolicy() if slo else None
    fixed = ShardedServingEngine(
        A100, config=CONFIG, slo=policy,
        fleet=FleetConfig(shard=f"{layout}dp{k}", route="least-loaded"),
    ).run(FLEET_TRACE, rng=RngStream(17))
    auto = AutoscalingServingEngine(
        A100, config=CONFIG, slo=policy,
        fleet=FleetConfig(
            shard=layout, autoscale=True, min_replicas=k, max_replicas=k
        ),
    ).run(FLEET_TRACE, rng=RngStream(17))
    assert auto.assignments == fixed.assignments
    assert auto.replicas == fixed.replicas        # plan_cache is compare=False
    assert auto.makespan_s == fixed.makespan_s
    for name in ("comm_s", "p2p_s", "bubble_s", "bubble_fraction"):
        assert getattr(auto, name) == getattr(fixed, name), name
    assert auto.tenants == fixed.tenants
    assert fixed.tenants
    world_size = ShardConfig.parse(f"{layout}dp{k}").world_size
    assert auto.gpu_s == world_size * auto.makespan_s
    assert fixed.gpu_s == auto.gpu_s
    assert fixed.timeline == auto.timeline


#: ServingReport counters a fleet report adds up over its replicas.
ADDITIVE = (
    "completed", "total_tokens", "total_steps", "preemptions", "rejected",
    "kv_peak_used_pages", "kv_peak_logical_pages", "cow_forks",
    "spec_proposed", "spec_accepted", "prefill_chunks", "lora_swaps",
)


@settings(max_examples=12, deadline=None)
@given(
    spec=st.booleans(),
    chunk=st.booleans(),
    lora=st.booleans(),
    autoscale=st.booleans(),
    dp=st.integers(1, 3),
    kv_frac=st.sampled_from([0.3, 6e-7]),
    seed=st.integers(0, 2**16),
)
def test_fleet_report_merges_its_replicas(
    spec, chunk, lora, autoscale, dp, kv_frac, seed
):
    """Every fleet-wide count is the sum of the replicas' counts, the
    adapter peak is the busiest replica's, and the request list is the
    req_id-ordered union — whatever workload features are on."""
    trace = small_trace(n=10, rate=4000.0, seed=seed)
    if lora:
        trace = assign_adapters(trace, 3)
    config = replace(
        CONFIG,
        kv_capacity_frac=kv_frac,
        spec_decode=SpeculativeConfig(draft_tokens=2) if spec else None,
        chunk_prefill_tokens=16 if chunk else 0,
        lora=LoRAConfig(max_resident=2) if lora else None,
    )
    if autoscale:
        engine = AutoscalingServingEngine(
            A100, config=config,
            fleet=FleetConfig(autoscale=True, max_replicas=dp),
        )
    else:
        engine = ShardedServingEngine(
            A100, config=config, fleet=FleetConfig(shard=f"dp{dp}")
        )
    report = engine.run(trace, rng=RngStream(seed))
    for name in ADDITIVE:
        assert getattr(report, name) == sum(
            getattr(r, name) for r in report.replicas
        ), name
    assert report.lora_peak_resident == max(
        r.lora_peak_resident for r in report.replicas
    )
    assert report.requests == sorted(
        (m for r in report.replicas for m in r.requests),
        key=lambda m: m.req_id,
    )
