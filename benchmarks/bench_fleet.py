"""Extension study — autoscaled multi-tenant fleets under SLOs.

Million-user serving scaled down to a deterministic simulation: three
arrival scenarios (steady Poisson, diurnal sine, bursty square-wave)
over a tenant mix with shared system prompts are served by an autoscaled
data-parallel fleet with the SLO-aware scheduler, on the A100 spec.

Expected shapes: prefix sharing removes a large fraction (>= 30% on this
mix) of the peak KV footprint because every tenant's system prompt is
resident once instead of once per request; the diurnal and bursty
scenarios force the autoscaler above its floor while steady traffic
needs fewer scale events; and on the cost/throughput frontier, wider
fixed fleets buy tail latency with strictly more GPU-seconds per token
while the autoscaler lands between the fixed points.
"""

import pytest
from harness import bench_rng, emit, format_table

from repro.gpu.specs import A100
from repro.parallel import (
    AutoscalingServingEngine,
    FleetConfig,
    cost_throughput_frontier,
)
from repro.serving import (
    SCENARIOS,
    ServingConfig,
    SLOPolicy,
    TenantSpec,
    WorkloadSpec,
    make_scenario,
)

N_REQUESTS = 48
RATE_RPS = 3000.0

CONFIG = ServingConfig(heads=8, head_size=32, n_layers=4)

#: A system-prompt-heavy tenant mix: long shared prefixes over short
#: unique tails is the regime where radix caching pays (the >= 30%
#: savings bar below).
TENANTS = (
    TenantSpec(name="chat", weight=0.6, priority=2, prompt_range=(16, 48),
               max_new_range=(8, 24), system_prompt_len=192),
    TenantSpec(name="agent", weight=0.2, priority=1, prompt_range=(16, 64),
               max_new_range=(8, 16), system_prompt_len=256),
    TenantSpec(name="batch", weight=0.2, priority=0, prompt_range=(48, 128),
               max_new_range=(16, 48)),
)

FLEET = FleetConfig(autoscale=True, min_replicas=1, max_replicas=4)
SLO = SLOPolicy()


def scenario_workload(name: str) -> WorkloadSpec:
    return make_scenario(
        name, n_requests=N_REQUESTS, rate_rps=RATE_RPS, tenants=TENANTS
    )


def run_scenario(name: str):
    trace = scenario_workload(name).generate(bench_rng(f"fleet-{name}"))
    engine = AutoscalingServingEngine(
        A100, config=CONFIG, fleet=FLEET, slo=SLO
    )
    return engine.run(trace, rng=bench_rng("fleet-run"))


def prefix_saving(report) -> float:
    logical = report.kv_peak_logical_pages
    return 1.0 - report.kv_peak_used_pages / logical if logical else 0.0


def compute_rows():
    rows = []
    raw = {}
    for name in SCENARIOS:
        rep = run_scenario(name)
        rows.append(
            [
                name,
                f"{rep.completed}/{N_REQUESTS}",
                rep.tokens_per_s,
                rep.ttft_p(99) * 1e3,
                f"{prefix_saving(rep):.1%}",
                rep.peak_replicas,
                rep.gpu_s,
                rep.cost_per_1k_tokens,
            ]
        )
        raw[name] = rep
    return rows, raw


def frontier_rows():
    trace = scenario_workload("diurnal").generate(bench_rng("fleet-diurnal"))
    points = cost_throughput_frontier(
        A100, trace, config=CONFIG, fleet=FLEET, dp_values=(1, 2, 4),
        slo=SLO, rng=bench_rng("fleet-frontier"),
    )
    rows = [
        [p.label, p.mean_replicas, p.gpu_s, p.tokens_per_s,
         p.tokens_per_gpu_s, p.ttft_p99_s * 1e3]
        for p in points
    ]
    return rows, points


@pytest.fixture(scope="module")
def fleet_rows():
    return compute_rows()


@pytest.fixture(scope="module")
def fleet_frontier():
    return frontier_rows()


def test_fleet_scenarios_table(benchmark, fleet_rows, fleet_frontier):
    rows, _ = fleet_rows
    frontier, _ = fleet_frontier
    benchmark(lambda: run_scenario("steady").tokens_per_s)
    scenario_table = format_table(
        ["scenario", "completed", "fleet tok/s", "TTFT p99 (ms)",
         "prefix saved", "peak replicas", "GPU·s", "cost/1k tok"],
        rows,
        title=(
            "Extension: autoscaled multi-tenant fleet under SLOs "
            f"({N_REQUESTS} requests, {RATE_RPS:.0f} req/s mean, A100)"
        ),
    )
    frontier_table = format_table(
        ["point", "replicas", "GPU·s", "tok/s", "tok/GPU·s", "TTFT p99 (ms)"],
        frontier,
        title=(
            "Cost/throughput frontier (diurnal scenario, fixed DP widths "
            "vs autoscaler)"
        ),
    )
    emit("fleet_scenarios", scenario_table + "\n\n" + frontier_table)


def test_prefix_sharing_saves_at_least_30pct(fleet_rows):
    """The headline savings bar: on the shared-system-prompt mix the
    peak physical KV footprint is >= 30% below the unshared accounting,
    in every scenario."""
    _, raw = fleet_rows
    for name, rep in raw.items():
        assert prefix_saving(rep) >= 0.30, (name, prefix_saving(rep))


def test_all_scenarios_complete_under_slo_scheduler(fleet_rows):
    _, raw = fleet_rows
    for rep in raw.values():
        assert rep.completed == N_REQUESTS
        tenants = {t.tenant for t in rep.tenants}
        assert tenants == {"chat", "agent", "batch"}


def test_autoscaler_reacts_to_load(fleet_rows):
    _, raw = fleet_rows
    assert any(rep.peak_replicas > FLEET.min_replicas for rep in raw.values())


def test_frontier_monotone_in_cost(fleet_frontier):
    """Fixed widths: more replicas always bill more GPU-seconds, and the
    widest fleet cuts tail latency vs the single replica (intermediate
    widths may jitter as routing reshuffles arrival clusters)."""
    _, points = fleet_frontier
    fixed = [p for p in points if p.label != "auto"]
    for a, b in zip(fixed, fixed[1:]):
        assert b.gpu_s > a.gpu_s
        assert b.tokens_per_gpu_s <= a.tokens_per_gpu_s + 1e-12
    assert fixed[-1].ttft_p99_s <= fixed[0].ttft_p99_s + 1e-12
