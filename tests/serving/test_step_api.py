"""The step API of a replica run: ``start``, ``submit``, ``next_event_s``,
``step`` and ``report``.

``ServingEngine.run`` is one loop over that API.  Here the loop is
written by hand, arrival by arrival, and two runs of one engine are
interleaved step by step.  Both must give the reports ``run`` gives,
over draws that combine speculative decoding, chunked prefill, LoRA,
KV pressure, tp2/pp2 replicas and SLO scheduling.  The draws lean
toward pressure, and both memory preemption and deadline eviction must
fire in them.
"""

from dataclasses import replace
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.core.rng import RngStream
from repro.gpu.specs import A100
from repro.serving import (
    LoRAConfig,
    ServingEngine,
    SLOScheduler,
    SpeculativeConfig,
    assign_adapters,
)
from repro.serving.scheduler import ContinuousBatchScheduler

from tests.serving.test_queue_order import (
    CONFIG,
    SLO_POLICIES,
    canonical,
    overloaded_trace,
)


class CountingEvictions:
    """Scheduler mixin counting deadline victims."""

    evictions = 0

    def deadline_victims(self, waiting, running, cache, now_s):
        victims = super().deadline_victims(waiting, running, cache, now_s)
        self.evictions += len(victims)
        return victims


class Continuous(CountingEvictions, ContinuousBatchScheduler):
    pass


class SLO(CountingEvictions, SLOScheduler):
    pass


POLICIES = ("continuous", *sorted(SLO_POLICIES))
#: Two tight KV capacities for each roomy one.
KV_FRACS = (4e-6, 2e-6, 0.3)

DRAWS = dict(
    policy=st.sampled_from(POLICIES),
    kv_frac=st.sampled_from(KV_FRACS),
    shard=st.sampled_from((None, "tp2", "tp2pp2")),
    spec=st.booleans(),
    chunk=st.sampled_from((0, 16)),
    lora=st.booleans(),
    n=st.integers(12, 24),
    seed=st.integers(0, 2**16),
)


def make_engine(policy, kv_frac, shard, spec, chunk, lora):
    if policy == "continuous":
        scheduler = Continuous(8, 4096)
    else:
        scheduler = SLO(8, 4096, policy=SLO_POLICIES[policy])
    config = replace(
        CONFIG,
        kv_capacity_frac=kv_frac,
        spec_decode=SpeculativeConfig(draft_tokens=3) if spec else None,
        chunk_prefill_tokens=chunk,
        lora=LoRAConfig(max_resident=2) if lora else None,
    )
    return ServingEngine(A100, scheduler, config, shard=shard)


def make_trace(n, seed, lora):
    trace = overloaded_trace(n, seed)
    return assign_adapters(trace, 3) if lora else trace


def actions(run, trace, mid_run=None):
    """Drive ``run`` over ``trace``: before each arrival, step while the
    next step comes earlier, then submit it; then step until drained.
    Yields after every call.  ``mid_run`` collects the ids of arrivals
    submitted while the run had work in hand."""
    for req in sorted(trace, key=lambda r: (r.arrival_s, r.req_id)):
        while (clock := run.next_event_s()) is not None and clock < req.arrival_s:
            run.step()
            yield
        if mid_run is not None and run.next_event_s() is not None:
            mid_run.append(req.req_id)
        run.submit(req)
        yield
    while run.next_event_s() is not None:
        run.step()
        yield


def without_plan_cache(report):
    """Runs sharing one engine share its plan cache, so their snapshots
    of it differ; every other field is the run's own."""
    return canonical(replace(report, plan_cache=None))


# Pinned draws in which memory preemption and deadline eviction fire.
PINNED = (
    dict(policy="per-tenant", kv_frac=2e-6, shard=None, spec=False, chunk=0,
         lora=False, n=24, seed=4),
    dict(policy="one-target", kv_frac=2e-6, shard=None, spec=True, chunk=16,
         lora=True, n=24, seed=5),
)


def pinned(test):
    for draw in PINNED:
        test = example(**draw)(test)
    return test


def test_a_hand_written_loop_gives_the_report_run_gives():
    fired = {"preemption": 0, "deadline": 0, "mid_run": 0}

    @pinned
    @settings(max_examples=25, deadline=None)
    @given(**DRAWS)
    def check(policy, kv_frac, shard, spec, chunk, lora, n, seed):
        features = (policy, kv_frac, shard, spec, chunk, lora)
        trace = make_trace(n, seed, lora)
        expected = make_engine(*features).run(trace, rng=RngStream(seed))
        engine = make_engine(*features)
        run = engine.start(RngStream(seed))
        mid_run: list[int] = []
        for _ in actions(run, trace, mid_run):
            pass
        got = run.report()
        assert canonical(got) == canonical(expected)
        assert run.next_event_s() is None
        evictions = engine.scheduler.evictions
        fired["preemption"] += got.preemptions > evictions
        fired["deadline"] += evictions > 0
        fired["mid_run"] += bool(mid_run)

    check()
    assert fired["preemption"] > 0
    assert fired["deadline"] > 0
    assert fired["mid_run"] > 0


def test_interleaved_runs_of_one_engine_equal_their_solo_runs():
    fired = {"preemption": 0, "deadline": 0}

    @pinned
    @settings(max_examples=15, deadline=None)
    @given(**DRAWS)
    def check(policy, kv_frac, shard, spec, chunk, lora, n, seed):
        features = (policy, kv_frac, shard, spec, chunk, lora)
        traces = (make_trace(n, seed, lora), make_trace(n - 4, seed + 1, lora))
        solo = [
            make_engine(*features).run(trace, rng=RngStream(seed + i))
            for i, trace in enumerate(traces)
        ]
        engine = make_engine(*features)
        runs = [engine.start(RngStream(seed + i)) for i in range(2)]
        for _ in zip_longest(*(actions(r, t) for r, t in zip(runs, traces))):
            pass
        reports = [run.report() for run in runs]
        for got, want in zip(reports, solo):
            assert without_plan_cache(got) == without_plan_cache(want)
        evictions = engine.scheduler.evictions
        fired["preemption"] += sum(r.preemptions for r in reports) > evictions
        fired["deadline"] += evictions > 0

    check()
    assert fired["preemption"] > 0
    assert fired["deadline"] > 0


def test_an_idle_run_has_no_next_step():
    """Before its first arrival and once drained, a run reports no next
    step, and stepping it is an error rather than a silent no-op."""
    engine = make_engine("continuous", 0.3, None, False, 0, False)
    run = engine.start(RngStream(1))
    assert run.next_event_s() is None
    with pytest.raises(ConfigError, match="idle"):
        run.step()
    trace = make_trace(4, 1, False)
    for _ in actions(run, trace):
        pass
    assert run.next_event_s() is None
    assert run.report().completed == 4
    with pytest.raises(ConfigError, match="idle"):
        run.step()
