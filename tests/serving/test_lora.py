"""Multi-LoRA serving: residency accounting, pricing, and plan keying.

The differential anchors: adapters always cost extra (gathered-GEMM
surcharge plus swap-ins), base-model requests (``adapter=""``) price
byte-identically to a LoRA-free engine, and workload generation with no
``adapter_pool`` draws the exact same trace it did before the feature
existed.
"""

import pytest

from repro.core.errors import ConfigError
from repro.core.rng import RngStream
from repro.gpu.specs import A100
from repro.serving import (
    AdapterRegistry,
    LoRAConfig,
    PoissonArrivals,
    Request,
    ServingConfig,
    TenantSpec,
    WorkloadSpec,
    assign_adapters,
    make_scheduler,
    simulate_serving,
    synthetic_trace,
)

BASE = ServingConfig(heads=2, head_size=16, n_layers=2)


def trace(n=6, seed=3):
    return synthetic_trace(
        n, 200.0, rng=RngStream(seed),
        prompt_range=(8, 40), max_new_range=(4, 12),
    )


def run(tr, config=BASE, seed=17):
    return simulate_serving(
        tr, A100, make_scheduler("continuous"), config, rng=RngStream(seed)
    )


def lora_config(**kw):
    return ServingConfig(
        heads=2, head_size=16, n_layers=2, lora=LoRAConfig(**kw),
    )


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        {"rank": 0},
        {"projections": 0},
        {"max_resident": 0},
        {"load_bandwidth": 0.0},
    ])
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ConfigError):
            LoRAConfig(**kw)

    def test_serving_config_rejects_wrong_type(self):
        with pytest.raises(ConfigError):
            ServingConfig(heads=2, head_size=16, n_layers=2, lora="r16")


class TestAdapterRegistry:
    def registry(self, max_resident=2):
        return AdapterRegistry(
            A100, LoRAConfig(max_resident=max_resident), hidden=64, n_layers=2
        )

    def test_lru_eviction_order(self):
        reg = self.registry(max_resident=2)
        reg.touch({"a"})
        reg.touch({"b"})
        reg.touch({"a"})            # refresh: b is now LRU
        reg.touch({"c"})            # evicts b
        assert reg.resident == ("a", "c")
        assert reg.swaps == 3       # a, b, c loaded once each

    def test_swap_in_costs_time_resident_touch_is_free(self):
        reg = self.registry()
        first = reg.touch({"a"})
        again = reg.touch({"a"})
        assert first > 0.0
        assert again == 0.0

    def test_peak_resident_gauge(self):
        reg = self.registry(max_resident=4)
        reg.touch({"a", "b", "c"})
        reg.touch({"a"})
        assert reg.peak_resident == 3

    def test_gemm_time_scales_with_tokens(self):
        """Small GEMMs are launch/occupancy-bound (near-flat seconds);
        once the grid fills, seconds grow with the token count."""
        reg = self.registry()
        t1, l1 = reg.gemm_time(8, 1)
        t2, l2 = reg.gemm_time(32768, 1)
        assert 0.0 < t1 < t2
        assert l1 == l2 > 0         # gathered: launches don't scale
        assert reg.gemm_time(0, 0) == (0.0, 0)


class TestEngineIntegration:
    def test_adapters_strictly_increase_makespan(self):
        t = trace()
        base = run(t, config=lora_config())          # lora on, no adapters
        adapted = run(assign_adapters(t, 3), config=lora_config())
        assert adapted.makespan_s > base.makespan_s
        assert adapted.lora_peak_resident == 3

    def test_base_model_requests_match_lora_free_engine(self):
        """adapter == "" everywhere: the LoRA engine must price exactly
        like one without the feature (empty-salt plan keys, no GEMMs)."""
        t = trace()
        assert run(t, config=lora_config()) == run(t)

    def test_residency_pressure_counts_swaps(self):
        t = trace(n=10)
        rep = run(
            assign_adapters(t, 4), config=lora_config(max_resident=2)
        )
        assert rep.lora_peak_resident == 2
        assert rep.lora_swaps > 4   # 4 cold loads + thrashing
        assert rep.completed == len(t)

    def test_determinism(self):
        t = assign_adapters(trace(), 3)
        cfg = lora_config(max_resident=2)
        assert run(t, config=cfg) == run(t, config=cfg)

    def test_adapter_plans_keyed_per_adapter(self):
        """Distinct adapters must not share decode plan families.

        Symbolic keying is where sharing happens (non-symbolic keys are
        already per-request mask fingerprints), so that's where the
        adapter salt must split families: two adapters need strictly
        more entries than the same trace merged onto one adapter.
        """
        cfg = ServingConfig(
            heads=2, head_size=16, n_layers=2, lora=LoRAConfig(),
            symbolic_plan_keys=True,
        )
        t = assign_adapters(trace(), 2)
        two = run(t, config=cfg)
        merged = run(assign_adapters(t, 1), config=cfg)
        assert two.plan_cache["entries"] > merged.plan_cache["entries"]


class TestWorkloadAdapters:
    def test_assign_adapters_round_robin(self):
        t = trace(n=6)
        out = assign_adapters(t, 3, prefix="ft")
        assert [r.adapter for r in out] == [
            "ft-a0", "ft-a1", "ft-a2", "ft-a0", "ft-a1", "ft-a2"
        ]
        # originals untouched
        assert all(r.adapter == "" for r in t)

    def test_assign_adapters_rejects_non_positive(self):
        with pytest.raises(ConfigError):
            assign_adapters(trace(), 0)

    def test_tenant_adapter_pool_draws(self):
        wl = WorkloadSpec(
            12, PoissonArrivals(500.0),
            tenants=(TenantSpec(name="ft", adapter_pool=3),),
        )
        t = wl.generate(RngStream(7).fork("workload"))
        assert all(r.adapter.startswith("ft-a") for r in t)
        assert len({r.adapter for r in t}) > 1
        # deterministic
        t2 = wl.generate(RngStream(7).fork("workload"))
        assert t == t2

    def test_pool_free_workload_unchanged(self):
        """No tenant declares a pool: the adapters RNG fork never fires,
        so the trace is byte-identical to the pre-LoRA generator."""
        wl = WorkloadSpec(
            8, PoissonArrivals(500.0), tenants=(TenantSpec(name="chat"),)
        )
        t = wl.generate(RngStream(7).fork("workload"))
        assert all(r.adapter == "" for r in t)

    def test_adapter_pool_validation(self):
        with pytest.raises(ConfigError):
            TenantSpec(name="bad", adapter_pool=-1)


class TestShardedLoRA:
    def test_tp_engine_reports_lora_counters(self):
        from repro.parallel import FleetConfig
        from repro.parallel.serving import ShardedServingEngine

        engine = ShardedServingEngine(
            A100, "continuous", lora_config(max_resident=2),
            fleet=FleetConfig(shard="tp2"),
        )
        rep = engine.run(assign_adapters(trace(), 4), rng=RngStream(17))
        assert rep.completed == 6
        assert rep.lora_peak_resident >= 1
        assert rep.lora_swaps >= 4
        assert "lora" in rep.summary()
