"""A deadline eviction admits the waiter it evicts for.

``SLOScheduler.deadline_victims`` preempts lower-priority residents only
when their leaving lets ``admit`` take the queue's head on the same
step: a free batch slot, the head's context under ``max_batch_tokens``,
and its pages plus a page of decode headroom per remaining resident.
Evicting for less (the head's own pages alone) preempted residents for a
head that admission then refused.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.rng import RngStream
from repro.serving import SLOScheduler

from tests.serving.test_queue_order import SLO_POLICIES, engine, overloaded_trace


class Watching(SLOScheduler):
    """Counts eviction steps, and those whose head ``admit`` refuses."""

    evictions = 0
    refused = 0
    _head = None

    def deadline_victims(self, waiting, running, cache, now_s):
        victims = super().deadline_victims(waiting, running, cache, now_s)
        self._head = waiting[0] if victims else None
        self.evictions += bool(victims)
        return victims

    def admit(self, waiting, running, cache):
        admitted = super().admit(waiting, running, cache)
        if self._head is not None:
            self.refused += self._head not in admitted
            self._head = None
        return admitted


def test_every_deadline_eviction_admits_its_head():
    fired = {"evictions": 0}

    # Request 9's eviction of one of five residents admitted nothing: the
    # head's pages were free, but not a page of headroom per resident.
    @example(slo="per-tenant", kv_frac=4e-6, seed=14)
    @settings(max_examples=30, deadline=None)
    @given(
        slo=st.sampled_from(sorted(SLO_POLICIES)),
        kv_frac=st.sampled_from((4e-6, 2e-6)),
        seed=st.integers(0, 29),
    )
    def check(slo, kv_frac, seed):
        scheduler = Watching(8, 4096, policy=SLO_POLICIES[slo])
        report = engine(scheduler, kv_frac).run(
            overloaded_trace(24, seed), rng=RngStream(seed)
        )
        assert report.completed == 24
        assert scheduler.refused == 0, (
            f"{scheduler.refused} of {scheduler.evictions} deadline "
            "evictions did not admit their head"
        )
        fired["evictions"] += scheduler.evictions

    check()
    assert fired["evictions"] > 0
