"""Serving-engine plan caching: equivalence, reuse, and steady-state rates.

The cache is a pure memoization layer: every simulated outcome (reports,
token times, step pricing) must be bit-identical with the cache on or
off.  What changes is *work* — steady-state decode steps replay cached
row statistics instead of re-scanning masks.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.rng import RngStream
from repro.gpu.cost import estimate_kernel_time
from repro.gpu.specs import get_spec
from repro.mha.problem import AttentionProblem
from repro.serving import (
    ServingConfig,
    ServingEngine,
    make_scheduler,
    simulate_serving,
    synthetic_trace,
)


def _trace(pattern: str = "causal", n: int = 10):
    return synthetic_trace(
        n, 1500.0, rng=RngStream(11), pattern=pattern,
        prompt_range=(24, 48), max_new_range=(96, 160),
    )


def _engine(pattern: str = "causal", **cfg_kwargs) -> ServingEngine:
    return ServingEngine(
        get_spec("a100"),
        make_scheduler("continuous", 8, 65536),
        ServingConfig(**cfg_kwargs),
    )


def packed_decode_time(eng: ServingEngine, members, rng) -> tuple[float, int]:
    """Oracle price of one decode step, from the materialized packed mask.

    One row per member, block-diagonal over each member's own KV run,
    planned by the row-wise kernel itself — the problem the engine's
    per-row composition must reproduce bit for bit.
    """
    if not members:
        return 0.0, 0
    rows = [tr.full_mask(rng)[pos, : pos + 1] for tr, pos in members]
    total_kv = sum(len(r) for r in rows)
    mask = np.zeros((len(rows), total_kv), dtype=bool)
    offset = 0
    for i, row in enumerate(rows):
        mask[i, offset : offset + len(row)] = row
        offset += len(row)
    problem = AttentionProblem(
        batch=1,
        heads=eng.config.heads,
        seq_len=len(rows),
        head_size=eng.config.head_size,
        mask=mask,
        pattern="serving-packed",
        kv_seq_len=total_kv,
    )
    seconds = 0.0
    launches = 0
    for cost, cfg in eng._decode_kernel.plan(problem, eng.spec):
        seconds += estimate_kernel_time(eng.spec, cost, cfg).total
        launches += cost.launches
    return seconds * eng.config.n_layers, launches * eng.config.n_layers


class TestEquivalence:
    @pytest.mark.parametrize("pattern", ["causal", "sliding_window", "bigbird"])
    @pytest.mark.parametrize("policy", ["continuous", "static"])
    def test_reports_identical_cache_on_and_off(self, pattern, policy):
        trace = _trace(pattern)
        spec = get_spec("a100")
        reports = {}
        for cached in (False, True):
            scheduler = make_scheduler(policy, 8, 65536)
            reports[cached] = simulate_serving(
                trace, spec, scheduler,
                ServingConfig(use_plan_cache=cached), rng=RngStream(0),
            )
        cold, warm = reports[False], reports[True]
        assert cold.plan_cache is None
        assert warm.plan_cache is not None
        # plan_cache is compare=False: everything else must match exactly.
        assert dataclasses.replace(warm, plan_cache=None) == cold
        assert warm.requests == cold.requests

    def test_bucket_width_does_not_change_outcomes(self):
        """Bucketing shapes the cache key, never the priced cost."""
        trace = _trace()
        spec = get_spec("a100")
        outcomes = []
        for width in (1, 16, 64, 256):
            eng = _engine(plan_bucket_tokens=width)
            rep = eng.run(trace, rng=RngStream(0))
            outcomes.append(dataclasses.replace(rep, plan_cache=None))
        assert all(o == outcomes[0] for o in outcomes[1:])

    def test_decode_step_pricing_matches_legacy_path(self):
        """_decode_time recomposes the packed-mask plan exactly."""
        trace = _trace()
        eng = _engine()
        rng = RngStream(0)
        mask_rng = rng.fork("serving-masks")
        from repro.serving.request import RequestTracker

        trackers = [RequestTracker(r) for r in trace[:6]]
        members = [(tr, tr.request.prompt_len + k) for k, tr in enumerate(trackers)]
        cached = eng._decode_time(members, mask_rng)
        legacy = packed_decode_time(eng, members, mask_rng)
        assert cached == legacy


class TestReuse:
    def test_steady_state_decode_needs_no_fresh_plans(self):
        """Step N>1 of an unchanged batch signature plans nothing new."""
        eng = _engine()
        rng = RngStream(0).fork("serving-masks")
        from repro.serving.request import RequestTracker

        trackers = [RequestTracker(r) for r in _trace(n=6)]
        members = [(tr, tr.request.prompt_len) for tr in trackers]
        eng._decode_time(members, rng)
        first_misses = eng.plan_cache.stats()["misses"]
        assert first_misses > 0

        # Same batch, next positions: all rows sit in already-cached
        # buckets, so repricing the step is 100% replay.
        again = [(tr, pos + 1) for tr, pos in members]
        t1 = eng._decode_time(again, rng)
        assert eng.plan_cache.stats()["misses"] == first_misses
        assert t1 == packed_decode_time(eng, again, rng)

    def test_full_run_hits_steady_state_rates(self):
        eng = _engine()
        report = eng.run(_trace(n=16), rng=RngStream(0))
        stats = report.plan_cache
        decode = stats["kinds"]["serving-decode"]
        assert decode["hit_rate"] > 0.9
        assert stats["hit_rate"] > 0.5
        assert stats["evictions"] == 0

    def test_disabled_cache_records_nothing(self):
        eng = _engine(use_plan_cache=False)
        report = eng.run(_trace(n=6), rng=RngStream(0))
        assert report.plan_cache is None
        assert len(eng.plan_cache) == 0
        assert eng.plan_cache.stats()["hits"] == 0


class TestConfig:
    def test_validation(self):
        from repro.core.errors import ConfigError

        with pytest.raises(ConfigError):
            ServingConfig(plan_cache_entries=0)
        with pytest.raises(ConfigError):
            ServingConfig(plan_bucket_tokens=0)

    def test_lru_bound_is_respected(self):
        eng = _engine(plan_cache_entries=8)
        report = eng.run(_trace(n=10), rng=RngStream(0))
        assert len(eng.plan_cache) <= 8
        assert report.plan_cache["evictions"] > 0
        # Correctness is eviction-independent: identical to unbounded run.
        unbounded = _engine().run(_trace(n=10), rng=RngStream(0))
        assert dataclasses.replace(report, plan_cache=None) == \
            dataclasses.replace(unbounded, plan_cache=None)
