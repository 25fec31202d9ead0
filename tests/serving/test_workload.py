"""Tests for arrival processes, tenant mixes, and scenario workloads."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.core.rng import RngStream
from repro.serving import synthetic_trace
from repro.serving.workload import (
    DEFAULT_TENANTS,
    SCENARIOS,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    TenantSpec,
    WorkloadSpec,
    make_scenario,
)


def arrivals_of(process, n, seed=0):
    rng = RngStream(seed).fork("arrivals")
    out, t = [], 0.0
    for _ in range(n):
        t = process.next_arrival(t, rng)
        out.append(t)
    return out


class TestPoissonArrivals:
    def test_strictly_increasing_and_deterministic(self):
        a = arrivals_of(PoissonArrivals(500.0), 32, seed=7)
        b = arrivals_of(PoissonArrivals(500.0), 32, seed=7)
        assert a == b
        assert all(t1 > t0 for t0, t1 in zip(a, a[1:]))

    def test_rate_sets_mean_gap(self):
        a = arrivals_of(PoissonArrivals(1000.0), 400, seed=3)
        mean_gap = a[-1] / len(a)
        assert mean_gap == pytest.approx(1e-3, rel=0.2)

    def test_scaled(self):
        p = PoissonArrivals(100.0).scaled(3.0)
        assert p.mean_rate() == pytest.approx(300.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            PoissonArrivals(0.0)


class TestInhomogeneousArrivals:
    def test_diurnal_rate_oscillates_around_base(self):
        p = DiurnalArrivals(1000.0, amplitude=0.5, period_s=1.0)
        assert p.rate_at(0.25) == pytest.approx(1500.0)
        assert p.rate_at(0.75) == pytest.approx(500.0)
        assert p.mean_rate() == pytest.approx(1000.0)

    def test_bursty_rate_is_square_wave(self):
        p = BurstyArrivals(
            1000.0, burst_multiplier=4.0, burst_fraction=0.25, period_s=1.0
        )
        assert p.rate_at(0.1) == pytest.approx(4000.0)    # inside the burst
        assert p.rate_at(0.5) == pytest.approx(1000.0)    # baseline

    @pytest.mark.parametrize(
        "process",
        [
            DiurnalArrivals(2000.0, amplitude=0.6, period_s=0.02),
            BurstyArrivals(2000.0, period_s=0.02),
        ],
    )
    def test_thinning_tracks_the_mean_rate(self, process):
        """Sampled over many periods, the thinned arrival stream's
        long-run rate matches the analytical mean."""
        a = arrivals_of(process, 600, seed=11)
        assert all(t1 > t0 for t0, t1 in zip(a, a[1:]))
        observed = len(a) / a[-1]
        assert observed == pytest.approx(process.mean_rate(), rel=0.25)

    def test_validation(self):
        with pytest.raises(ConfigError):
            DiurnalArrivals(100.0, amplitude=1.0)
        with pytest.raises(ConfigError):
            BurstyArrivals(100.0, burst_multiplier=0.5)
        with pytest.raises(ConfigError):
            BurstyArrivals(100.0, burst_fraction=0.0)


class TestTenantSpec:
    def test_prefix_id_only_with_system_prompt(self):
        assert TenantSpec(name="chat", system_prompt_len=64).prefix_id == "sys:chat"
        assert TenantSpec(name="batch").prefix_id == ""

    def test_validation(self):
        with pytest.raises(ConfigError):
            TenantSpec(name="x", weight=0.0)
        with pytest.raises(ConfigError):
            TenantSpec(name="x", prompt_range=(10, 5))


class TestWorkloadSpec:
    def test_generate_is_deterministic(self):
        spec = make_scenario("diurnal", n_requests=16)
        assert spec.generate(RngStream(5)) == spec.generate(RngStream(5))

    def test_tenant_fields_attached(self):
        spec = WorkloadSpec(
            24,
            PoissonArrivals(1000.0),
            tenants=DEFAULT_TENANTS,
        )
        trace = spec.generate(RngStream(2))
        names = {r.tenant for r in trace}
        assert names <= {t.name for t in DEFAULT_TENANTS}
        by_name = {t.name: t for t in DEFAULT_TENANTS}
        for r in trace:
            t = by_name[r.tenant]
            assert r.priority == t.priority
            if t.system_prompt_len:
                assert r.prefix_id == t.prefix_id
                assert r.prefix_len == t.system_prompt_len
                assert r.prompt_len >= t.system_prompt_len + t.prompt_range[0]
            else:
                assert r.prefix_id == "" and r.prefix_len == 0

    def test_weights_bias_the_mix(self):
        heavy = TenantSpec(name="heavy", weight=9.0)
        light = TenantSpec(name="light", weight=1.0)
        trace = WorkloadSpec(
            200, PoissonArrivals(1000.0), tenants=(heavy, light)
        ).generate(RngStream(1))
        share = sum(r.tenant == "heavy" for r in trace) / len(trace)
        assert share > 0.75

    def test_scaled(self):
        spec = make_scenario("steady", n_requests=8, rate_rps=100.0)
        assert spec.scaled(2.0).arrivals.mean_rate() == pytest.approx(200.0)

    def test_scenarios(self):
        assert set(SCENARIOS) == {"steady", "diurnal", "bursty"}
        for name in SCENARIOS:
            trace = make_scenario(name, n_requests=8).generate(RngStream(0))
            assert len(trace) == 8
        with pytest.raises(ConfigError):
            make_scenario("weekend")
        for name in SCENARIOS:
            with pytest.raises(ConfigError, match="rate_rps"):
                make_scenario(name, rate_rps=0.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(0, PoissonArrivals(100.0))
        with pytest.raises(ConfigError):
            WorkloadSpec(4, PoissonArrivals(100.0), tenants=())


class TestSyntheticTraceCompat:
    """``synthetic_trace`` is now a single-tenant workload — its output
    for pre-existing seeds must stay byte-identical to the pre-workload
    implementation (captured below)."""

    GOLDEN = [
        (0, 0.002008028, 55, 41, "causal"),
        (1, 0.0053282672, 122, 58, "causal"),
        (2, 0.00690933, 83, 56, "causal"),
        (3, 0.010514796, 98, 19, "causal"),
    ]

    def test_seed3_trace_is_byte_identical(self):
        trace = synthetic_trace(4, 500.0, rng=RngStream(3))
        got = [
            (r.req_id, round(r.arrival_s, 10), r.prompt_len,
             r.max_new_tokens, r.pattern)
            for r in trace
        ]
        assert got == self.GOLDEN

    def test_explicit_arrivals_object(self):
        """The new spelling: any arrival process slots into the legacy
        entry point; rate becomes optional."""
        trace = synthetic_trace(
            6, rng=RngStream(3), arrivals=DiurnalArrivals(800.0)
        )
        assert len(trace) == 6
        assert all(r.tenant == "" and r.prefix_id == "" for r in trace)

    def test_poisson_object_matches_rate_spelling(self):
        old = synthetic_trace(6, 500.0, rng=RngStream(9))
        new = synthetic_trace(
            6, rng=RngStream(9), arrivals=PoissonArrivals(500.0)
        )
        assert old == new

    def test_rejects_rate_and_arrivals_nonsense(self):
        with pytest.raises(ConfigError):
            synthetic_trace(4, rng=RngStream(0))            # no rate at all
        with pytest.raises(ConfigError):
            synthetic_trace(4, 500.0, rng=RngStream(0), arrivals=object())

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 20),
        seed=st.integers(0, 2**16),
        scenario=st.sampled_from(sorted(SCENARIOS)),
    )
    def test_scenario_traces_well_formed(self, n, seed, scenario):
        trace = make_scenario(scenario, n_requests=n).generate(RngStream(seed))
        assert len(trace) == n
        assert [r.req_id for r in trace] == list(range(n))
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)
        assert all(math.isfinite(a) and a > 0 for a in arrivals)
        for r in trace:
            assert r.prefix_len <= r.prompt_len
