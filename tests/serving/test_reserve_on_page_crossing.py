"""A decode member reserves KV only when its next positions cross a page.

``ReplicaRun._reserve`` calls ``PagedKVCache.reserve`` only when a
member's ``need`` passes the tokens its pages cover, read live from
``pages_of``.  The oracle below is the reserve phase that called
``reserve`` for every member on every step.  Under KV pressure, with
prefix sharing (page-aligned and copy-on-write prefixes), speculative
headroom and chunked prefill, both must give the same reports and the
same failed reserves, and the engine must make fewer ``reserve`` calls;
the draws must preempt.
"""

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.rng import RngStream
from repro.gpu.specs import A100
from repro.serving import (
    PoissonArrivals,
    ReplicaRun,
    ServingEngine,
    SLOScheduler,
    SpeculativeConfig,
    TenantSpec,
    WorkloadSpec,
)
from repro.serving.scheduler import ContinuousBatchScheduler

from tests.serving.test_queue_order import CONFIG, SLO_POLICIES, canonical

#: No prefix, a page-aligned shared prefix and one that ends mid-page.
TENANTS = (
    TenantSpec(name="chat", weight=0.4, priority=1,
               prompt_range=(16, 64), max_new_range=(8, 40)),
    TenantSpec(name="agent", weight=0.3, priority=1,
               prompt_range=(16, 48), max_new_range=(8, 40),
               system_prompt_len=16),
    TenantSpec(name="batch", weight=0.3, priority=0,
               prompt_range=(32, 96), max_new_range=(16, 48),
               system_prompt_len=24),
)


class AlwaysReserve(ReplicaRun):
    """The reserve phase that reserved for every member on every step."""

    def _reserve(self, members):
        if not self.scheduler.allows_preemption:
            return members
        spec = self.config.spec_decode
        members.sort(key=lambda tp: (tp[0].request.arrival_s, tp[0].req_id))
        survivors = []
        for tr, pos in members:
            if tr not in self.running:
                continue
            need = tr.context_len + 1
            if spec is not None:
                need = min(need + spec.draft_tokens, tr.request.max_context)
            while not self.cache.reserve(tr.req_id, need):
                evictable = [
                    t
                    for t in self.running
                    if t is not tr and all(t is not s for s, _ in survivors)
                ]
                if not evictable:
                    self._preempt(tr)
                    break
                self._preempt(
                    max(evictable, key=lambda t: (t.request.arrival_s, t.req_id))
                )
            else:
                survivors.append((tr, pos))
        return survivors


def make_engine(policy, kv_frac, spec, chunk, shard):
    if policy == "continuous":
        scheduler = ContinuousBatchScheduler(8, 4096)
    else:
        scheduler = SLOScheduler(8, 4096, policy=SLO_POLICIES[policy])
    config = replace(
        CONFIG,
        kv_capacity_frac=kv_frac,
        spec_decode=SpeculativeConfig(draft_tokens=3) if spec else None,
        chunk_prefill_tokens=chunk,
    )
    return ServingEngine(A100, scheduler, config, shard=shard)


def simulate(run, trace):
    """Drive ``run`` as ``ServingEngine.run`` does, counting the cache's
    ``reserve`` calls and failures."""
    counts = {"calls": 0, "failed": 0}
    reserve = run.cache.reserve

    def counting(req_id, tokens):
        counts["calls"] += 1
        ok = reserve(req_id, tokens)
        counts["failed"] += not ok
        return ok

    run.cache.reserve = counting
    pending = sorted(trace, key=lambda r: (r.arrival_s, r.req_id))[::-1]
    while pending or run.next_event_s() is not None:
        clock = run.next_event_s()
        if pending and (clock is None or pending[-1].arrival_s <= clock):
            run.submit(pending.pop())
        else:
            run.step()
    return run.report(), counts


def test_page_crossing_reserves_match_the_always_reserve_oracle():
    fired = {"preemption": 0, "cow": 0, "saved": 0, "oracle": 0, "engine": 0}

    # Pinned draws under KV pressure with every feature on.
    @example(policy="continuous", kv_frac=2e-6, spec=True, chunk=16,
             shard=None, n=24, seed=4)
    @example(policy="per-tenant", kv_frac=4e-6, spec=False, chunk=16,
             shard="tp2", n=24, seed=5)
    @settings(max_examples=20, deadline=None)
    @given(
        policy=st.sampled_from(("continuous", *sorted(SLO_POLICIES))),
        kv_frac=st.sampled_from((2e-6, 4e-6, 0.3)),
        spec=st.booleans(),
        chunk=st.sampled_from((0, 16)),
        shard=st.sampled_from((None, "tp2")),
        n=st.integers(12, 24),
        seed=st.integers(0, 2**16),
    )
    def check(policy, kv_frac, spec, chunk, shard, n, seed):
        features = (policy, kv_frac, spec, chunk, shard)
        trace = WorkloadSpec(
            n, PoissonArrivals(40_000.0), tenants=TENANTS
        ).generate(RngStream(seed))
        want, oracle = simulate(
            AlwaysReserve(make_engine(*features), RngStream(seed)), trace
        )
        got, engine = simulate(make_engine(*features).start(RngStream(seed)), trace)
        assert canonical(got) == canonical(want)
        assert engine["failed"] == oracle["failed"]
        assert engine["calls"] <= oracle["calls"]
        fired["preemption"] += got.preemptions > 0
        fired["cow"] += got.cow_forks > 0
        fired["saved"] += got.kv_peak_used_pages < got.kv_peak_logical_pages
        fired["oracle"] += oracle["calls"]
        fired["engine"] += engine["calls"]

    check()
    assert fired["preemption"] > 0
    assert fired["cow"] > 0
    assert fired["saved"] > 0
    assert fired["engine"] < fired["oracle"]
