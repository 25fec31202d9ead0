"""Fleet smoke: the issue's headline claims for million-user serving.

A small diurnal multi-tenant scenario through the public ``repro.serve``
facade, the way a capacity planner would hit it:

* shared system prompts produce real physical page savings (prefix
  sharing reduces the peak KV footprint vs the unshared accounting);
* every tenant shows up in the report with an SLO target and attainment;
* the autoscaler widens the fleet under load, bills GPU-seconds, and the
  cost/throughput frontier orders fixed widths sensibly;
* the whole stack is a pure function of the seed.

CI runs this module under ``-W error``.
"""

import pytest

from repro import FleetConfig, SLOPolicy, serve
from repro.core.rng import RngStream
from repro.gpu.specs import A100
from repro.parallel import cost_throughput_frontier
from repro.serving import ServingConfig, make_scenario

CONFIG = ServingConfig(heads=8, head_size=32, n_layers=4)
N_REQUESTS = 32
RATE = 3000.0


@pytest.fixture(scope="module")
def workload():
    return make_scenario("diurnal", n_requests=N_REQUESTS, rate_rps=RATE)


@pytest.fixture(scope="module")
def fleet_report(workload):
    return serve(
        CONFIG,
        workload,
        fleet=FleetConfig(autoscale=True, min_replicas=1, max_replicas=4),
        slo=SLOPolicy(),
        seed=11,
    )


def test_prefix_sharing_saves_pages(fleet_report):
    rep = fleet_report
    assert rep.kv_peak_logical_pages > rep.kv_peak_used_pages
    saved = 1.0 - rep.kv_peak_used_pages / rep.kv_peak_logical_pages
    assert saved > 0.0
    assert "prefix share" in rep.summary()


def test_every_tenant_reported_with_slo(fleet_report):
    tenants = {t.tenant for t in fleet_report.tenants}
    assert tenants == {"chat", "batch", "agent"}
    for t in fleet_report.tenants:
        assert t.ttft_target_s > 0
        assert 0.0 <= t.slo_attainment <= 1.0


def test_autoscaler_scales_and_bills(fleet_report):
    rep = fleet_report
    fleet = rep.fleet
    assert rep.completed == N_REQUESTS
    assert rep.peak_replicas > fleet.min_replicas      # load forced growth
    assert rep.capacity_tokens_per_s > 0
    assert rep.gpu_s > 0 and rep.gpu_cost > 0
    assert rep.mean_replicas <= rep.peak_replicas
    # The timeline is a well-formed step function.
    times = [t for t, _ in rep.timeline]
    assert times == sorted(times)
    assert all(
        fleet.min_replicas <= n <= fleet.max_replicas for _, n in rep.timeline
    )


def test_deterministic(workload):
    kwargs = dict(
        fleet=FleetConfig(autoscale=True, max_replicas=4),
        slo=SLOPolicy(),
        seed=11,
    )
    assert serve(CONFIG, workload, **kwargs) == serve(
        CONFIG, workload, **kwargs
    )


def test_frontier_orders_fixed_widths(workload):
    trace = workload.generate(RngStream(11).fork("workload"))
    points = cost_throughput_frontier(
        A100, trace, config=CONFIG, dp_values=(1, 2), rng=RngStream(11)
    )
    by_label = {p.label: p for p in points}
    assert set(by_label) == {"dp1", "dp2", "auto"}
    # Wider fixed fleets bill more GPU-seconds per token and cut tail
    # latency; every point carries the three frontier axes.
    assert by_label["dp2"].ttft_p99_s <= by_label["dp1"].ttft_p99_s
    for p in points:
        assert p.gpu_s > 0
        assert p.tokens_per_s > 0
        assert p.tokens_per_gpu_s > 0
    assert by_label["dp1"].tokens_per_gpu_s >= by_label["dp2"].tokens_per_gpu_s
