"""The wait order is one key per request, computed once per run.

The engine keeps ``waiting`` sorted by :meth:`Scheduler.queue_key`, so no
policy re-sorts it.  The oracle here is the order the engine used to
re-derive on every step: an arrival sort of ``waiting`` and, for the SLO
policy, a sort by slack read off the step's clock.  Re-sorting gives the
same reports as the key; the only order the two can disagree on is two
distinct TTFT deadlines whose slacks round to the same float, where the
key takes the earlier deadline.
"""

from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from repro.serving.request import RequestTracker
from repro.serving.scheduler import ContinuousBatchScheduler, StaticBatchScheduler


def canonical(obj):
    """A report rendered field by field, hidden fields included, floats by
    their bits (so NaN compares equal to NaN)."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(
            (f.name, canonical(getattr(obj, f.name))) for f in fields(obj)
        )
    if isinstance(obj, dict):
        return tuple((k, canonical(v)) for k, v in sorted(obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(canonical(v) for v in obj)
    if isinstance(obj, float):
        return obj.hex()
    return obj


# ------------------------------------------------------------------ oracle


def arrival_order(tr: RequestTracker) -> tuple:
    """The per-step sort of ``waiting`` the engine used to make."""
    return (tr.request.arrival_s, tr.req_id)


def slack_order(policy: SLOPolicy, tr: RequestTracker, now_s: float) -> tuple:
    """The SLO policy's former per-step sort: priority, then seconds left
    until the TTFT deadline at ``now_s``."""
    target = policy.target_for(tr.request.tenant)
    slack = tr.request.arrival_s + target.ttft_target_s - now_s
    return (-tr.request.priority, slack, tr.request.arrival_s, tr.req_id)


class Resorting:
    """Oracle mixin: every waiter gets the same key, so the engine's
    queue keeps insertion order, and the order is re-derived from scratch
    on every step instead: a scan for the head in ``deadline_victims``
    (which runs first on each step and brings the clock), a sort in
    ``admit``."""

    now_s = 0.0
    evictions = 0

    def queue_key(self, tracker):
        return ()

    def order(self, tr):
        return arrival_order(tr)

    def deadline_victims(self, waiting, running, cache, now_s):
        self.now_s = now_s
        head = [min(waiting, key=self.order)] if waiting else []
        victims = super().deadline_victims(head, running, cache, now_s)
        self.evictions += len(victims)
        return victims

    def admit(self, waiting, running, cache):
        waiting.sort(key=self.order)
        return super().admit(waiting, running, cache)


class ResortingStatic(Resorting, StaticBatchScheduler):
    pass


class ResortingContinuous(Resorting, ContinuousBatchScheduler):
    pass


class ResortingSLO(Resorting, SLOScheduler):
    def order(self, tr):
        return slack_order(self.slo_policy, tr, self.now_s)


KEYED = {
    "static": StaticBatchScheduler,
    "continuous": ContinuousBatchScheduler,
    "slo": SLOScheduler,
}
RESORTING = {
    "static": ResortingStatic,
    "continuous": ResortingContinuous,
    "slo": ResortingSLO,
}

#: Two priority classes, three TTFT targets, one shared system prompt.
TENANTS = (
    TenantSpec(name="chat", weight=0.4, priority=1,
               prompt_range=(16, 64), max_new_range=(8, 40)),
    TenantSpec(name="agent", weight=0.2, priority=1,
               prompt_range=(16, 48), max_new_range=(8, 40),
               system_prompt_len=16),
    TenantSpec(name="batch", weight=0.4, priority=0,
               prompt_range=(32, 96), max_new_range=(16, 48)),
)
SLO_POLICIES = {
    "one-target": SLOPolicy(default_ttft_s=2e-4, deadline_headroom=0.5),
    "per-tenant": SLOPolicy(
        targets=(
            TenantSLO("chat", ttft_target_s=1e-4),
            TenantSLO("agent", ttft_target_s=3e-4),
            TenantSLO("batch", ttft_target_s=1e-3),
        ),
        deadline_headroom=0.5,
    ),
}
CONFIG = ServingConfig(heads=4, head_size=16, n_layers=2)
#: KV capacities: roomy, tight (preemptions in some traces), tighter.
KV_FRACS = (0.3, 4e-6, 2e-6)


def overloaded_trace(n: int, seed: int) -> list[Request]:
    return WorkloadSpec(
        n, PoissonArrivals(40_000.0), tenants=TENANTS
    ).generate(RngStream(seed))


def engine(scheduler, kv_frac):
    config = replace(CONFIG, kv_capacity_frac=kv_frac)
    return ServingEngine(A100, scheduler, config)


def make(table, policy, slo):
    if policy == "slo":
        return table[policy](8, 4096, policy=SLO_POLICIES[slo])
    return table[policy](8, 4096)


def test_keyed_queue_matches_the_resorting_oracle():
    """Overloaded multi-tenant traces under each policy, with and without
    KV pressure: the keyed queue and the per-step re-sort give the same
    report, and the drawn examples preempt for memory and for deadlines."""
    fired = {"preemption": 0, "deadline": 0}

    # Pinned draws in which both kinds of preemption fire.
    @example(policy="slo", slo="per-tenant", kv_frac=2e-6, n=24, seed=4)
    @example(policy="slo", slo="one-target", kv_frac=2e-6, n=24, seed=5)
    @settings(max_examples=20, deadline=None)
    @given(
        policy=st.sampled_from(sorted(KEYED)),
        slo=st.sampled_from(sorted(SLO_POLICIES)),
        kv_frac=st.sampled_from(KV_FRACS),
        n=st.integers(12, 32),
        seed=st.integers(0, 2**16),
    )
    def check(policy, slo, kv_frac, n, seed):
        trace = overloaded_trace(n, seed)
        oracle = make(RESORTING, policy, slo)
        expected = engine(oracle, kv_frac).run(trace, rng=RngStream(seed))
        got = engine(make(KEYED, policy, slo), kv_frac).run(
            trace, rng=RngStream(seed)
        )
        assert canonical(got) == canonical(expected)
        fired["preemption"] += got.preemptions > oracle.evictions
        fired["deadline"] += oracle.evictions > 0

    check()
    assert fired["preemption"] > 0
    assert fired["deadline"] > 0


# -------------------------------------------------------------- key level


def waiter(req_id, arrival, tenant="", priority=0):
    return RequestTracker(
        Request(req_id, arrival, 8, 4, tenant=tenant, priority=priority)
    )


def deadline(policy, tr):
    return tr.request.arrival_s + policy.target_for(tr.request.tenant).ttft_target_s


finite = dict(allow_nan=False, allow_infinity=False)
WAITERS = st.lists(
    st.tuples(
        st.floats(0.0, 10.0, **finite),
        st.sampled_from(["chat", "agent", "batch"]),
        st.integers(0, 2),
    ),
    min_size=2,
    max_size=12,
)
CLOCKS = st.floats(0.0, 1e4, **finite)
TARGETS = st.floats(1e-6, 10.0, **finite)


@settings(max_examples=200, deadline=None)
@given(waiters=WAITERS, ttft=TARGETS, now=CLOCKS)
def test_single_target_key_order_is_the_slack_order_at_any_clock(
    waiters, ttft, now
):
    policy = SLOPolicy(
        targets=(TenantSLO("chat", ttft_target_s=ttft),), default_ttft_s=ttft
    )
    sched = SLOScheduler(policy=policy)
    trs = [waiter(i, a, t, p) for i, (a, t, p) in enumerate(waiters)]
    assert sorted(trs, key=sched.queue_key) == sorted(
        trs, key=lambda tr: slack_order(policy, tr, now)
    )


@settings(max_examples=200, deadline=None)
@given(
    waiters=WAITERS,
    targets=st.tuples(TARGETS, TARGETS, TARGETS),
    now=CLOCKS,
)
def test_per_tenant_key_order_is_the_slack_order_unless_slacks_collide(
    waiters, targets, now
):
    """Pairwise: the key and the slack order agree on every two waiters,
    except where two distinct deadlines round to one float slack; there
    the key puts the earlier deadline first."""
    policy = SLOPolicy(
        targets=tuple(
            TenantSLO(name, ttft_target_s=t)
            for name, t in zip(("chat", "agent", "batch"), targets)
        )
    )
    sched = SLOScheduler(policy=policy)
    trs = [waiter(i, a, t, p) for i, (a, t, p) in enumerate(waiters)]
    for x in trs:
        for y in trs:
            key_first = sched.queue_key(x) < sched.queue_key(y)
            slack_first = slack_order(policy, x, now) < slack_order(policy, y, now)
            dx, dy = deadline(policy, x), deadline(policy, y)
            collide = (
                x.request.priority == y.request.priority
                and dx != dy
                and dx - now == dy - now
            )
            if collide:
                assert key_first == (dx < dy)
            else:
                assert key_first == slack_first


def test_slack_collision_takes_the_earlier_deadline():
    """A chat request with a 0.1 s target, arriving just before 0.2 s, is
    due a few ulps before a batch request (0.3 s target) that arrived at
    0.  Ten seconds on, both slacks round to -9.7: the old sort fell back
    to arrival and put the batch request first; the key takes the earlier
    deadline.  No caller in the library builds a multi-target policy."""
    policy = SLOPolicy(
        targets=(
            TenantSLO("chat", ttft_target_s=0.1),
            TenantSLO("batch", ttft_target_s=0.3),
        )
    )
    sched = SLOScheduler(policy=policy)
    batch = waiter(0, 0.0, "batch")
    chat = waiter(1, 0.19999999999999984, "chat")
    now = 10.0
    assert deadline(policy, chat) < deadline(policy, batch)
    assert deadline(policy, chat) - now == deadline(policy, batch) - now
    old = sorted([batch, chat], key=lambda tr: slack_order(policy, tr, now))
    assert [tr.req_id for tr in old] == [0, 1]
    assert [tr.req_id for tr in sorted([batch, chat], key=sched.queue_key)] == [1, 0]


# ------------------------------------------------------------ keyed once


class CountingKeys:
    """Mixin counting :meth:`queue_key` calls."""

    key_calls = 0

    def queue_key(self, tracker):
        self.key_calls += 1
        return super().queue_key(tracker)


@pytest.mark.parametrize("policy", sorted(KEYED))
def test_each_request_is_keyed_once_per_run(policy):
    """One key per served request per run, preempted and re-queued
    requests included; a rejected request is never keyed."""
    scheduler = type("Counting", (CountingKeys, KEYED[policy]), {})(8, 4096)
    trace = overloaded_trace(24, 1)
    # Longer than the whole tight cache: rejected up front.
    trace.append(Request(len(trace), trace[-1].arrival_s, 3000, 8, tenant="batch"))
    served = len(trace) - 1
    tight = engine(scheduler, KV_FRACS[-1])
    report = tight.run(trace, rng=RngStream(1))
    assert report.rejected_ids == (served,)
    assert report.completed == served
    assert report.preemptions > 0 or not scheduler.allows_preemption
    assert scheduler.key_calls == served
    tight.run(trace, rng=RngStream(1))
    assert scheduler.key_calls == 2 * served
