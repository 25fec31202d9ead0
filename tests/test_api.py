"""Tests for the high-level compile API."""

import numpy as np
import pytest

from repro.api import ENGINES, CompiledModel, compare_engines, compile_model
from repro.core.errors import ConfigError
from repro.core.fp16 import fp16_allclose
from repro.models import ModelConfig

TINY = ModelConfig("api-tiny", 2, 0, 64, 2, 128, vocab=97)


class TestCompileModel:
    def test_basic_stof(self):
        c = compile_model(TINY, 1, 32)
        assert c.engine_name == "stof"
        assert c.latency_s > 0
        assert c.tuning_time_s > 0
        assert "latency" in c.summary()

    def test_zoo_name_lookup(self):
        c = compile_model("bert-small", 1, 32, engine="pytorch-native")
        assert c.instance.config.name == "bert-small"
        assert c.tuning_time_s == 0.0

    def test_engine_by_name_and_instance(self):
        from repro.runtime import PyTorchCompileEngine

        by_name = compile_model(TINY, 1, 32, engine="pytorch-compile")
        by_inst = compile_model(TINY, 1, 32, engine=PyTorchCompileEngine())
        assert by_name.latency_s == by_inst.latency_s

    def test_unknown_engine(self):
        with pytest.raises(ConfigError):
            compile_model(TINY, 1, 32, engine="tvm")

    def test_custom_mask_array(self):
        mask = np.eye(32, dtype=bool)
        c = compile_model(TINY, 1, 32, mask=mask, engine="pytorch-native")
        assert c.latency_s > 0

    def test_wrong_mask_shape(self):
        with pytest.raises(ConfigError):
            compile_model(TINY, 1, 32, mask=np.eye(16, dtype=bool))

    def test_run_executes(self):
        c = compile_model(TINY, 1, 32, engine="pytorch-native", seed=3)
        out = c.run()
        assert out.shape == (32, 64)
        assert np.isfinite(out.astype(np.float32)).all()

    def test_run_deterministic_per_seed(self):
        a = compile_model(TINY, 1, 32, engine="pytorch-native", seed=3).run()
        b = compile_model(TINY, 1, 32, engine="pytorch-native", seed=3).run()
        assert np.array_equal(a, b)

    def test_engines_functionally_agree(self):
        a = compile_model(TINY, 1, 32, engine="pytorch-native", seed=5).run()
        b = compile_model(TINY, 1, 32, engine="stof", seed=5).run()
        assert fp16_allclose(a, b, rtol=1e-1, atol=1e-2)

    def test_decoder_mask_gets_causality(self):
        dec = ModelConfig("api-dec", 0, 1, 64, 2, 128, vocab=97)
        c = compile_model(dec, 1, 16, engine="pytorch-native")
        mask = c.masks["mask"]
        assert not mask[0, 1]  # causal upper triangle masked

    def test_engine_kwargs_forwarded(self):
        c = compile_model(TINY, 1, 32, engine="stof", use_fusion_module=False)
        assert c.engine_name == "stof-mha-only"
        assert c.tuning_time_s == 0.0


class TestCompareEngines:
    def test_missing_bars_reported(self):
        res = compare_engines(
            TINY, 1, 2048, engines=("bytetransformer", "pytorch-native")
        )
        assert res["bytetransformer"] == "unsupported"
        assert isinstance(res["pytorch-native"], CompiledModel)

    def test_all_registry_engines_usable(self):
        res = compare_engines(TINY, 1, 32)
        assert set(res) == set(ENGINES)
        for name, c in res.items():
            assert isinstance(c, CompiledModel), name

    def test_stof_fastest(self):
        res = compare_engines(TINY, 1, 32)
        stof = res["stof"].latency_s
        for name, c in res.items():
            assert stof <= c.latency_s + 1e-15, name


class TestOOMPath:
    def test_compare_engines_reports_oom(self):
        """MCFuser's workspace exceeds the 24 GB RTX 4090 at scale; the
        comparison must report 'oom' rather than raising."""
        res = compare_engines(
            "bert-large", 16, 2048, device="rtx4090",
            engines=("mcfuser",),
        )
        assert res["mcfuser"] == "oom"

    def test_compile_model_check_memory_toggle(self):
        from repro.core.errors import DeviceOutOfMemoryError

        with pytest.raises(DeviceOutOfMemoryError):
            compile_model("bert-large", 16, 2048, device="rtx4090",
                          engine="mcfuser")
        c = compile_model("bert-large", 16, 2048, device="rtx4090",
                          engine="mcfuser", check_memory=False)
        assert c.report.memory_bytes > 24 * 2**30


class TestPublicSurface:
    def test_star_import_is_exactly_all(self):
        import repro

        ns = {}
        exec("from repro import *", ns)
        exported = set(ns) - {"__builtins__"}
        assert exported == set(repro.__all__)

    def test_all_names_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_obs_layer_in_surface(self):
        import repro

        for name in ("Tracer", "MetricsRegistry", "Span",
                     "use_tracer", "use_metrics"):
            assert name in repro.__all__


class TestLegacyKeywords:
    def test_canonical_does_not_warn(self, recwarn):
        compile_model(TINY, 1, 32, device="a100", mask="causal")
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_compare_engines_unknown_kwarg(self):
        with pytest.raises(TypeError):
            compare_engines(TINY, 1, 32, bogus=1)

    def test_retired_spellings_raise_type_error(self):
        """``gpu=``/``pattern=`` and the loose fleet keywords (``shard=``,
        ``route=``, ``overlap=``, ...) are gone: passing one fails loudly
        instead of being renamed."""
        from repro.gpu.specs import A100
        from repro.parallel import ShardedServingEngine
        from repro.serving import ServingConfig, ServingEngine, make_scheduler

        cfg = ServingConfig(heads=4, head_size=16, n_layers=2)
        with pytest.raises(TypeError, match="gpu"):
            compile_model(TINY, 1, 32, gpu="a100")
        with pytest.raises(TypeError, match="pattern"):
            compile_model(TINY, 1, 32, pattern="causal")
        with pytest.raises(TypeError, match="gpu"):
            compare_engines(TINY, 1, 32, gpu="a100",
                            engines=("pytorch-native",))
        with pytest.raises(TypeError, match="overlap"):
            ShardedServingEngine(A100, config=cfg, overlap=False)
        with pytest.raises(TypeError, match="shard"):
            ShardedServingEngine(A100, config=cfg, shard="tp2")
        with pytest.raises(TypeError, match="route"):
            ShardedServingEngine(A100, config=cfg, route="round-robin")
        with pytest.raises(TypeError, match="contention"):
            ServingEngine(A100, make_scheduler("continuous"), cfg,
                          shard="tp2", contention=0.5)


class TestTraceHook:
    def test_compile_records_into_given_tracer(self):
        from repro import Tracer

        tracer = Tracer()
        compile_model(TINY, 1, 32, engine="stof", trace=tracer)
        assert tracer.find(name="runtime.plan")


class TestFleetKeywords:
    """``FleetConfig`` is the one spelling of a fleet."""

    def _mk(self, **kwargs):
        from repro.gpu.specs import A100
        from repro.parallel import ShardedServingEngine
        from repro.serving import ServingConfig

        return ShardedServingEngine(
            A100, config=ServingConfig(heads=4, head_size=16, n_layers=2),
            **kwargs,
        )

    def test_fleet_config_is_the_canonical_spelling(self, recwarn):
        from repro.parallel import FleetConfig

        engine = self._mk(
            fleet=FleetConfig(shard="tp2", overlap=False, contention=0.1)
        )
        assert engine.shard.tp == 2
        assert engine.fleet.contention == 0.1
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]


class TestServeFacade:
    WORKLOAD_KW = dict(n_requests=6, rate_rps=2000.0)

    def _workload(self):
        from repro.serving import PoissonArrivals, TenantSpec, WorkloadSpec

        return WorkloadSpec(
            6, PoissonArrivals(2000.0),
            tenants=(
                TenantSpec(name="chat", priority=1, system_prompt_len=32,
                           prompt_range=(16, 48), max_new_range=(4, 12)),
                TenantSpec(name="batch", prompt_range=(16, 48),
                           max_new_range=(4, 12)),
            ),
        )

    def test_single_replica_by_default(self):
        from repro import serve
        from repro.serving import ServingReport

        report = serve(
            TINY, self._workload(), seed=3,
        )
        assert isinstance(report, ServingReport)
        assert report.completed == 6
        assert report.tenants            # multi-tenant trace -> per-tenant rows

    def test_serving_config_passthrough_and_determinism(self):
        from repro import serve
        from repro.serving import ServingConfig

        cfg = ServingConfig(heads=4, head_size=16, n_layers=2)
        a = serve(cfg, self._workload(), seed=7)
        b = serve(cfg, self._workload(), seed=7)
        assert a == b

    def test_explicit_request_list(self):
        from repro import serve
        from repro.serving import Request, ServingConfig

        trace = [Request(i, i * 1e-3, 32, 8) for i in range(4)]
        report = serve(
            ServingConfig(heads=4, head_size=16, n_layers=2), trace, seed=0
        )
        assert report.completed == 4

    def test_fleet_dispatches_to_sharded_engine(self):
        from repro import FleetConfig, serve
        from repro.parallel import ShardedServingReport
        from repro.serving import ServingConfig

        report = serve(
            ServingConfig(heads=4, head_size=16, n_layers=2),
            self._workload(),
            fleet=FleetConfig(shard="tp1dp2"),
            seed=3,
        )
        assert isinstance(report, ShardedServingReport)
        assert report.completed == 6

    def test_autoscale_dispatches_to_fleet_engine(self):
        from repro import FleetConfig, serve
        from repro.parallel import ShardedServingReport
        from repro.serving import ServingConfig

        report = serve(
            ServingConfig(heads=4, head_size=16, n_layers=2),
            self._workload(),
            fleet=FleetConfig(autoscale=True, max_replicas=2),
            seed=3,
        )
        assert isinstance(report, ShardedServingReport)
        assert report.completed == 6
        assert report.gpu_s > 0
        assert report.capacity_tokens_per_s > 0     # only autoscalers probe

    def test_slo_swaps_in_the_deadline_scheduler(self):
        from repro import SLOPolicy, serve
        from repro.serving import ServingConfig

        report = serve(
            ServingConfig(heads=4, head_size=16, n_layers=2),
            self._workload(),
            slo=SLOPolicy(),
            seed=3,
        )
        assert report.policy == "slo"
        assert all(t.ttft_target_s > 0 for t in report.tenants)

    def test_bad_workload_rejected(self):
        from repro import serve

        with pytest.raises(ConfigError, match="workload"):
            serve(TINY, None)
        with pytest.raises(ConfigError, match="workload"):
            serve(TINY, [1, 2, 3])

    def test_bad_fleet_rejected(self):
        from repro import serve

        with pytest.raises(ConfigError, match="FleetConfig"):
            serve(TINY, self._workload(), fleet="tp2")
