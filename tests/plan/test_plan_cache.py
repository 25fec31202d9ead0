"""PlanCache: LRU behavior, statistics, and JSON persistence."""

from __future__ import annotations

import json
import math

import pytest

from repro.core.errors import ConfigError
from repro.obs import MetricsRegistry, use_metrics
from repro.plan import (
    BucketGuard,
    CompiledPlan,
    GuardSet,
    PlanCache,
    PlanKey,
    SymbolicPlanKey,
)


def _key(i: int, kind: str = "test") -> PlanKey:
    return PlanKey(kind=kind, salt=f"entry-{i}")


def _file_with_family_guard(guard: dict) -> str:
    """A v2 file holding a valid entry, then a family guarded by ``guard``."""
    return json.dumps({
        "version": 2,
        "entries": [{"key": _key(0).to_dict(), "value": {"t": "num", "v": 1}}],
        "families": [{
            "key": {"base": _key(1).to_dict(), "dims": ["pos"], "guards": [guard]},
            "value": {"t": "num", "v": 2},
        }],
    })


class TestCore:
    def test_get_put_and_contains(self):
        cache = PlanCache()
        key = _key(0)
        assert cache.get(key) is None
        assert key not in cache
        cache.put(key, 42)
        assert cache.get(key) == 42
        assert key in cache
        assert len(cache) == 1

    def test_get_or_build_builds_once(self):
        cache = PlanCache()
        calls = []

        def build():
            calls.append(1)
            return "plan"

        assert cache.get_or_build(_key(0), build) == "plan"
        assert cache.get_or_build(_key(0), build) == "plan"
        assert len(calls) == 1

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)
        assert PlanCache(max_entries=None).max_entries is None

    def test_peek_does_not_touch_stats_or_recency(self):
        cache = PlanCache(max_entries=2)
        cache.put(_key(0), "a")
        cache.put(_key(1), "b")
        assert cache.peek(_key(0)) == "a"
        assert cache.peek(_key(9), "missing") == "missing"
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 0
        # peek did not refresh key 0: it is still the LRU victim.
        cache.put(_key(2), "c")
        assert cache.peek(_key(0)) is None


class TestLRU:
    def test_eviction_order_is_least_recently_used(self):
        cache = PlanCache(max_entries=2)
        cache.put(_key(0), "a")
        cache.put(_key(1), "b")
        cache.get(_key(0))           # refresh 0; 1 becomes the victim
        cache.put(_key(2), "c")
        assert cache.peek(_key(0)) == "a"
        assert cache.peek(_key(1)) is None
        assert cache.peek(_key(2)) == "c"
        assert cache.stats()["evictions"] == 1

    def test_put_refresh_does_not_grow(self):
        cache = PlanCache(max_entries=2)
        cache.put(_key(0), "a")
        cache.put(_key(0), "a2")
        cache.put(_key(1), "b")
        assert len(cache) == 2
        assert cache.peek(_key(0)) == "a2"
        assert cache.stats()["evictions"] == 0


class TestStats:
    def test_per_kind_accounting(self):
        cache = PlanCache()
        cache.get_or_build(_key(0, "mha"), lambda: 1)
        cache.get_or_build(_key(0, "mha"), lambda: 1)
        cache.get_or_build(_key(0, "serving-decode"), lambda: 2)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 2
        assert stats["kinds"]["mha"] == {
            "hits": 1, "misses": 1, "hit_rate": 0.5,
        }
        assert stats["kinds"]["serving-decode"]["misses"] == 1

    def test_reset_stats_keeps_entries(self):
        cache = PlanCache()
        cache.get_or_build(_key(0), lambda: 1)
        cache.reset_stats()
        stats = cache.stats()
        assert stats["hits"] == stats["misses"] == stats["evictions"] == 0
        assert stats["entries"] == 1
        assert cache.peek(_key(0)) == 1

    def test_clear_keeps_stats(self):
        cache = PlanCache()
        cache.get_or_build(_key(0), lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["misses"] == 1


class TestPersistence:
    def test_round_trip_mixed_values(self, tmp_path):
        cache = PlanCache()
        cache.put(_key(0), 1.5)
        cache.put(_key(1), math.inf)
        cache.put(_key(2), {"rows": [1, 2, 3]})
        plan = CompiledPlan(
            kernel_name="stof-rowwise", estimated_s=1e-4,
            params={"num_warps": 4}, key=_key(3),
        )
        cache.put(_key(3), plan)
        path = tmp_path / "plans.json"
        cache.save(path)

        warm = PlanCache()
        assert warm.load(path) == 4
        assert warm.peek(_key(0)) == 1.5
        assert warm.peek(_key(1)) == math.inf
        loaded = warm.peek(_key(3))
        assert isinstance(loaded, CompiledPlan)
        assert loaded.kernel_name == "stof-rowwise"
        assert loaded.estimated_s == plan.estimated_s

    def test_unencodable_values_are_skipped(self, tmp_path):
        cache = PlanCache()
        cache.put(_key(0), object())     # opaque: dropped at save time
        cache.put(_key(1), 7)
        path = tmp_path / "plans.json"
        cache.save(path)
        warm = PlanCache()
        assert warm.load(path) == 1
        assert warm.peek(_key(1)) == 7

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text(json.dumps({"version": 999, "entries": []}))
        with pytest.raises(ConfigError, match="version"):
            PlanCache().load(path)

    @pytest.mark.parametrize(
        "content",
        [
            None,                                            # missing file
            "{not json",                                     # not JSON
            "[]",                                            # not an object
            json.dumps({"version": 7, "entries": []}),       # unknown version
            json.dumps({"version": 2, "entries": [{"value": {"t": "num", "v": 1}}]}),
            # A valid entry before the malformed one: nothing loads.
            json.dumps({"version": 2, "entries": [
                {"key": _key(0).to_dict(), "value": {"t": "num", "v": 1}},
                {"key": {"kind": "test", "no_such_field": 1},
                 "value": {"t": "num", "v": 2}},
            ]}),
            _file_with_family_guard({"t": "eq", "var": "pos", "value": 3}),
            _file_with_family_guard(
                {"t": "div", "var": "pos", "modulus": 4, "remainder": 0}
            ),
        ],
        ids=["missing", "not-json", "list", "version-7", "entry-without-key",
             "second-entry-malformed", "eq-guard", "div-guard"],
    )
    def test_malformed_file_raises_config_error_naming_it(self, tmp_path, content):
        path = tmp_path / "plans.json"
        if content is not None:
            path.write_text(content)
        cache = PlanCache()
        with pytest.raises(ConfigError, match="plans.json"):
            cache.load(path)
        assert len(cache) == 0

    def test_warm_start_counts_no_splits(self, tmp_path):
        """Loaded families register without a split event, in ``stats()``
        or in the ``plan_cache.splits`` metric; a split made after the
        load counts once in both."""
        base = _key(0, "serving-decode")

        def bucket(index: int) -> SymbolicPlanKey:
            return SymbolicPlanKey(base, ("pos",), GuardSet([BucketGuard("pos", 64, index)]))

        cold = PlanCache(max_entries=None)
        for index in range(3):
            cold.put(bucket(index), index)
        path = tmp_path / "plans.json"
        cold.save(path)

        registry = MetricsRegistry()
        with use_metrics(registry):
            warm = PlanCache(max_entries=None)
            assert warm.load(path) == 3
            metric = registry.counter("plan_cache.splits", kind="serving-decode")
            assert warm.stats()["symbolic"]["splits"] == 0
            assert metric.value == 0
            warm.put(bucket(3), 3)
        assert warm.stats()["symbolic"]["splits"] == 1
        assert metric.value == 1

    def test_save_file_is_deterministic(self, tmp_path):
        def build() -> PlanCache:
            c = PlanCache()
            c.put(_key(0), {"b": 2, "a": 1})
            c.put(_key(1), 3)
            return c

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        build().save(a)
        build().save(b)
        assert a.read_bytes() == b.read_bytes()
