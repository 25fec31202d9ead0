"""Permuting the input trace changes no report.

The engine takes arrivals in order from its arrival-sorted list of
servable requests, and a fleet plans, probes and routes over the
arrival-sorted trace; neither may depend on the order a caller lists the
requests in.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FleetConfig, serve
from repro.core.rng import RngStream
from repro.gpu.specs import A100
from repro.serving import ServingConfig, ServingEngine, SLOPolicy, make_scenario
from repro.serving.slo import make_policy_scheduler

from .test_queue_order import canonical

CONFIG = ServingConfig(heads=4, head_size=16, n_layers=2)
FLEETS = {
    "replica": None,
    "fixed": FleetConfig(shard="dp2"),
    "autoscaled": FleetConfig(autoscale=True, max_replicas=3),
}


def report(trace, how, policy, slo, kv_frac, seed):
    config = replace(CONFIG, kv_capacity_frac=kv_frac)
    if how == "engine":
        scheduler = make_policy_scheduler(policy, 8, 4096, slo)
        return ServingEngine(A100, scheduler, config).run(
            trace, rng=RngStream(seed)
        )
    return serve(
        config, trace, policy=policy, fleet=FLEETS[how], slo=slo, seed=seed,
        max_batch_size=8, max_batch_tokens=4096,
    )


@settings(max_examples=16, deadline=None)
@given(
    data=st.data(),
    how=st.sampled_from(["engine", *FLEETS]),
    policy=st.sampled_from(["static", "continuous"]),
    slo=st.sampled_from([None, SLOPolicy(default_ttft_s=2e-4)]),
    kv_frac=st.sampled_from([0.3, 4e-6]),
    seed=st.integers(0, 2**16),
)
def test_permuting_the_trace_changes_no_report(
    data, how, policy, slo, kv_frac, seed
):
    trace = make_scenario("steady", n_requests=16, rate_rps=20_000.0).generate(
        RngStream(seed).fork("workload")
    )
    shuffled = data.draw(st.permutations(trace))
    assert canonical(report(shuffled, how, policy, slo, kv_frac, seed)) == (
        canonical(report(trace, how, policy, slo, kv_frac, seed))
    )
