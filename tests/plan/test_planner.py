"""Plan-cache integration with the MHA selector and executors.

The refactor's contract is behavior preservation: a cached planning pass
must produce *identical* plans and reports to an uncached one — caching
changes when work happens, never what is decided.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import compile_model
from repro.core.rng import RngStream
from repro.gpu.specs import get_spec
from repro.mha.module import UnifiedMHA
from repro.mha.problem import AttentionProblem
from repro.mha.rowwise import RowWiseKernel
from repro.mha.selector import compile_attention_plan
from repro.plan import CompiledPlan, PlanCache, compile_kernel_plan


def _problem(pattern: str = "bigbird", seed: int = 0) -> AttentionProblem:
    return AttentionProblem.build(
        pattern, batch=1, heads=4, seq_len=128, head_size=64,
        rng=RngStream(seed),
    )


class TestCompileAttentionPlan:
    def test_matches_unified_mha(self):
        spec = get_spec("a100")
        problem = _problem()
        plan = compile_attention_plan(problem, spec, cache=PlanCache())
        direct = UnifiedMHA(spec).plan(problem)
        assert isinstance(plan, CompiledPlan)
        assert plan.kernel_name == direct.kernel_name
        assert plan.estimated_s == direct.estimated_s
        assert plan.launch_count == direct.launch_count
        assert plan.choice == direct.choice

    def test_repeat_compile_hits_the_cache(self):
        spec = get_spec("a100")
        cache = PlanCache()
        problem = _problem()
        plan = compile_attention_plan(problem, spec, cache=cache)
        again = compile_attention_plan(problem, spec, cache=cache)
        assert again is plan                   # replayed, not recomputed
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1


class TestCompileKernelPlan:
    def test_repeat_compile_replays_the_plan(self):
        spec = get_spec("a100")
        cache = PlanCache()
        problem = _problem()
        kernel = RowWiseKernel()
        plan = compile_kernel_plan(kernel, problem, spec, cache=cache)
        assert plan.kernel is kernel
        assert plan.estimated_s > 0
        assert compile_kernel_plan(kernel, problem, spec, cache=cache) is plan

    def test_distinct_params_distinct_entries(self):
        spec = get_spec("a100")
        cache = PlanCache()
        problem = _problem()
        kernel = RowWiseKernel()
        p4 = compile_kernel_plan(
            kernel, problem, spec, params={"num_warps": 4}, cache=cache
        )
        p8 = compile_kernel_plan(
            kernel, problem, spec, params={"num_warps": 8}, cache=cache
        )
        assert len(cache) == 2
        assert p4 is not p8
        assert p4.key != p8.key
        assert p4.params == {"num_warps": 4}
        assert p8.params == {"num_warps": 8}

    def test_warm_start_rebinds_live_kernel(self, tmp_path):
        """Plans survive JSON persistence minus the live kernel object,
        which a warm-started compile re-attaches."""
        spec = get_spec("a100")
        problem = _problem()
        kernel = RowWiseKernel()
        cache = PlanCache()
        plan = compile_kernel_plan(kernel, problem, spec, cache=cache)
        path = tmp_path / "plans.json"
        cache.save(path)

        warm = PlanCache()
        warm.load(path)
        replayed = compile_kernel_plan(kernel, problem, spec, cache=warm)
        assert warm.stats()["hits"] == 1
        assert replayed.kernel is kernel
        assert replayed.estimated_s == plan.estimated_s
        assert replayed.launch_count == plan.launch_count


class TestUnifiedMHACache:
    def test_shared_cache_across_modules(self):
        spec = get_spec("a100")
        cache = PlanCache()
        problem = _problem()
        plan_a = UnifiedMHA(spec, cache=cache).plan(problem)
        plan_b = UnifiedMHA(spec, cache=cache).plan(problem)
        assert plan_b is plan_a
        assert cache.stats()["kinds"]["mha"]["hits"] == 1

    def test_mode_and_tau_guard_the_key(self):
        spec = get_spec("a100")
        cache = PlanCache()
        problem = _problem()
        UnifiedMHA(spec, cache=cache).plan(problem)
        UnifiedMHA(spec, tau=0.05, cache=cache).plan(problem)
        UnifiedMHA(spec, mode="paper", cache=cache).plan(problem)
        # Three distinct selector configurations -> three entries, no hits.
        assert len(cache) == 3
        assert cache.stats()["hits"] == 0

    def test_cached_plan_equals_uncached(self):
        spec = get_spec("a100")
        for pattern in ("bigbird", "sliding_window", "longformer"):
            problem = _problem(pattern)
            cached = UnifiedMHA(spec, cache=PlanCache()).plan(problem)
            plain = UnifiedMHA(spec).plan(problem)
            assert cached.kernel_name == plain.kernel_name
            assert cached.estimated_s == plain.estimated_s
            assert cached.launches == plain.launches


class TestPreparedModelCache:
    @pytest.mark.parametrize("mask", ["bigbird", "sliding_window"])
    def test_cached_report_identical(self, mask):
        kwargs = dict(
            model="bert-small", batch=1, seq_len=128, device="a100",
            mask=mask, engine="stof", seed=0,
        )
        baseline = compile_model(**kwargs).report
        shared = PlanCache()
        first = compile_model(plan_cache=shared, **kwargs).report
        second = compile_model(plan_cache=shared, **kwargs).report
        assert replace(first, extras={}) == replace(baseline, extras={})
        assert replace(second, extras={}) == replace(baseline, extras={})
        assert first.time_s == baseline.time_s
        assert second.kernel_launches == baseline.kernel_launches
        # The second compile replayed layer plans from the shared cache.
        assert shared.stats()["hits"] > 0
