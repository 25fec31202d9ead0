"""Tests for per-tenant SLO targets and deadline-aware scheduling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.core.fp16 import FP16_BYTES
from repro.core.rng import RngStream
from repro.gpu.specs import A100
from repro.serving import (
    PoissonArrivals,
    Request,
    ServingConfig,
    ServingEngine,
    SLOPolicy,
    SLOScheduler,
    TenantSLO,
    TenantSpec,
    WorkloadSpec,
)
from repro.serving.kvcache import KVCacheConfig, PagedKVCache
from repro.serving.request import RequestTracker


def cache_with(pages, page_tokens=4):
    cfg = KVCacheConfig(
        heads=1,
        head_size=8,
        n_layers=1,
        page_tokens=page_tokens,
        capacity_bytes=pages * page_tokens * 2 * 8 * FP16_BYTES,
    )
    return PagedKVCache(cfg)


def tracker(req_id, prompt=8, new=4, arrival=0.0, tenant="", priority=0):
    return RequestTracker(
        Request(req_id, arrival, prompt, new, tenant=tenant, priority=priority)
    )


class TestSLOPolicy:
    def test_target_lookup_falls_back_to_defaults(self):
        policy = SLOPolicy(
            targets=(TenantSLO("chat", ttft_target_s=0.1),),
            default_ttft_s=0.5,
        )
        assert policy.target_for("chat").ttft_target_s == 0.1
        assert policy.target_for("batch").ttft_target_s == 0.5

    def test_validation(self):
        with pytest.raises(ConfigError):
            SLOPolicy(deadline_headroom=0.0)
        with pytest.raises(ConfigError):
            SLOPolicy(targets=(TenantSLO("a"), TenantSLO("a")))
        with pytest.raises(ConfigError):
            TenantSLO("a", ttft_target_s=0.0)


class TestSLOScheduler:
    def test_admission_orders_by_priority_then_slack(self):
        """The queue key puts priority first, then the earliest deadline
        (least slack); admission takes waiters in that order."""
        sched = SLOScheduler(policy=SLOPolicy())
        cache = cache_with(pages=64)
        lo_early = tracker(0, arrival=0.0, priority=0)
        hi = tracker(1, arrival=0.01, priority=2)
        lo_late = tracker(2, arrival=0.005, priority=0)
        waiting = sorted([lo_early, hi, lo_late], key=sched.queue_key)
        admitted = sched.admit(waiting, [], cache)
        assert [tr.req_id for tr in admitted] == [1, 0, 2]

    def test_no_eviction_inside_the_headroom_budget(self):
        policy = SLOPolicy(default_ttft_s=1.0, deadline_headroom=0.8)
        sched = SLOScheduler(policy=policy)
        cache = cache_with(pages=4)
        resident = tracker(0, prompt=12, new=4, priority=0)
        assert cache.reserve(0, resident.context_len)
        waiter = tracker(1, prompt=8, new=4, arrival=0.0, priority=2)
        now_s = 0.5      # 50% of the budget burnt < 80%
        assert sched.deadline_victims([waiter], [resident], cache, now_s) == []

    def test_evicts_lower_priority_after_headroom(self):
        policy = SLOPolicy(default_ttft_s=1.0, deadline_headroom=0.8)
        sched = SLOScheduler(policy=policy)
        cache = cache_with(pages=4)
        resident = tracker(0, prompt=12, new=4, priority=0)
        assert cache.reserve(0, resident.context_len)
        waiter = tracker(1, prompt=8, new=4, arrival=0.0, priority=2)
        now_s = 0.9      # budget burnt
        assert sched.deadline_victims([waiter], [resident], cache, now_s) == [resident]

    def test_never_evicts_equal_or_higher_priority(self):
        policy = SLOPolicy(default_ttft_s=1.0, deadline_headroom=0.5)
        sched = SLOScheduler(policy=policy)
        cache = cache_with(pages=4)
        resident = tracker(0, prompt=12, new=4, priority=2)
        assert cache.reserve(0, resident.context_len)
        waiter = tracker(1, prompt=8, new=4, arrival=0.0, priority=2)
        now_s = 0.9
        assert sched.deadline_victims([waiter], [resident], cache, now_s) == []

    def test_hopeless_eviction_does_not_thrash(self):
        """If evicting every lower-priority resident still cannot admit
        the waiter, nobody is evicted."""
        policy = SLOPolicy(default_ttft_s=1.0, deadline_headroom=0.5)
        sched = SLOScheduler(policy=policy)
        cache = cache_with(pages=4)
        resident = tracker(0, prompt=8, new=4, priority=0)
        assert cache.reserve(0, resident.context_len)
        huge = tracker(1, prompt=64, new=4, arrival=0.0, priority=2)
        now_s = 0.9
        assert sched.deadline_victims([huge], [resident], cache, now_s) == []

    def test_no_action_when_already_admissible(self):
        sched = SLOScheduler(policy=SLOPolicy(default_ttft_s=0.01))
        cache = cache_with(pages=64)
        resident = tracker(0, priority=0)
        assert cache.reserve(0, resident.context_len)
        waiter = tracker(1, arrival=0.0, priority=2)
        now_s = 5.0      # way past the deadline, but room exists
        assert sched.deadline_victims([waiter], [resident], cache, now_s) == []


def overload_workload(n):
    """Two tenants, one high-priority, arriving faster than one A100-sized
    engine can drain — the regime where priority must matter."""
    return WorkloadSpec(
        n,
        PoissonArrivals(50_000.0),
        tenants=(
            TenantSpec(name="gold", weight=0.5, priority=2,
                       prompt_range=(48, 96), max_new_range=(16, 32)),
            TenantSpec(name="bronze", weight=0.5, priority=0,
                       prompt_range=(48, 96), max_new_range=(16, 32)),
        ),
    )


def run_overloaded(n, seed, policy_cls):
    trace = overload_workload(n).generate(RngStream(seed))
    config = ServingConfig(n_layers=4)
    scheduler = policy_cls(4, 4096, policy=SLOPolicy())
    engine = ServingEngine(A100, scheduler, config)
    return engine.run(trace, rng=RngStream(seed))


class TestPriorityUnderOverload:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(24, 40))
    def test_high_priority_ttft_never_worse(self, seed, n):
        """Under overload the gold tenant's p99 TTFT must not exceed the
        bronze tenant's — the whole point of priority admission."""
        report = run_overloaded(n, seed, SLOScheduler)
        by_tenant = {t.tenant: t for t in report.tenants}
        if {"gold", "bronze"} <= set(by_tenant):
            gold, bronze = by_tenant["gold"], by_tenant["bronze"]
            assert gold.ttft_p99_s <= bronze.ttft_p99_s + 1e-12

    def test_attainment_reported_per_tenant(self):
        report = run_overloaded(24, 5, SLOScheduler)
        assert report.tenants
        for t in report.tenants:
            assert t.ttft_target_s > 0
            assert 0.0 <= t.slo_attainment <= 1.0
        # Highest priority leads the report.
        priorities = [t.priority for t in report.tenants]
        assert priorities == sorted(priorities, reverse=True)
