"""Tests for performance-cache persistence and the disable switch."""

import pytest

from repro.core.errors import ConfigError
from repro.plan import PlanCache
from repro.tuner.cache import EvalCostModel, PerformanceCache


def cheap_model():
    return EvalCostModel(compile_s=1.0, runs=0)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        cache = PerformanceCache(cheap_model())
        cache.evaluate(("seg", (1, 2)), {"a": 1, "b": "x"}, lambda: 0.5)
        cache.evaluate(("seg", (1, 2)), {"a": 2, "b": "y"}, lambda: 0.3)
        path = tmp_path / "cache.json"
        cache.save(path)

        loaded = PerformanceCache.load(path, cheap_model())
        assert len(loaded.entries) == 2
        # A warm-started evaluation is a free hit.
        t = loaded.evaluate(("seg", (1, 2)), {"a": 1, "b": "x"}, lambda: 99.0)
        assert t == 0.5
        assert loaded.hits == 1 and loaded.tuning_time_s == 0.0

    def test_failures_persisted(self, tmp_path):
        cache = PerformanceCache(cheap_model())

        def boom():
            raise ValueError()

        cache.evaluate("s", {"x": 1}, boom)
        path = tmp_path / "c.json"
        cache.save(path)
        loaded = PerformanceCache.load(path)
        assert loaded.evaluate("s", {"x": 1}, lambda: 1.0) is None  # cached fail

    def test_best_for_after_load(self, tmp_path):
        cache = PerformanceCache(cheap_model())
        cache.evaluate(("sig",), {"x": 1}, lambda: 0.9)
        cache.evaluate(("sig",), {"x": 2}, lambda: 0.1)
        cache.save(tmp_path / "c.json")
        loaded = PerformanceCache.load(tmp_path / "c.json")
        best = loaded.best_for(("sig",))
        assert best is not None and best[0] == 0.1

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            PerformanceCache.load(tmp_path / "nope.json")

    def test_load_garbage(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("not json {")
        with pytest.raises(ConfigError):
            PerformanceCache.load(p)

    def test_load_wrong_version(self, tmp_path):
        p = tmp_path / "v9.json"
        p.write_text('{"version": 9, "entries": []}')
        with pytest.raises(ConfigError):
            PerformanceCache.load(p)

    @pytest.mark.parametrize(
        "text",
        [
            '{"version": 1}',  # no entries
            '{"version": 1, "entries": [["s", [["x", 1]]]]}',  # two fields
            '{"version": 1, "entries": [["s", 5, 0.5]]}',  # params not a list
            "[1]",  # not an object
        ],
        ids=["no-entries", "two-field-row", "non-list-params", "non-object"],
    )
    def test_load_malformed_entries(self, tmp_path, text):
        p = tmp_path / "malformed.json"
        p.write_text(text)
        plans = PlanCache(max_entries=None)
        with pytest.raises(ConfigError, match="malformed.json"):
            PerformanceCache.load(p, plans=plans)
        assert len(plans) == 0

    def test_warm_start_reduces_tuning_time(self, tmp_path):
        """End to end: a second STOF preparation warm-started from a saved
        cache re-pays (almost) nothing."""
        from repro.core.rng import RngStream
        from repro.fusion.converter import extract_chains
        from repro.gpu.specs import A100
        from repro.tuner.engine import TwoStageEngine

        from ..tuner.test_engine import ffn_chain_graph

        graph = ffn_chain_graph()
        cold = TwoStageEngine(A100, rng=RngStream(2))
        cold.tune_graph(graph, tokens=128)
        assert cold.total_tuning_time_s > 0
        cold.cache.save(tmp_path / "warm.json")

        warm_cache = PerformanceCache.load(tmp_path / "warm.json")
        warm = TwoStageEngine(A100, rng=RngStream(2), cache=warm_cache)
        warm.tune_graph(graph, tokens=128)
        assert warm.total_tuning_time_s < 0.05 * cold.total_tuning_time_s


class TestDisabledCache:
    def test_disabled_always_misses(self):
        cache = PerformanceCache(cheap_model(), enabled=False)
        calls = []

        def measure():
            calls.append(1)
            return 0.5

        cache.evaluate("s", {"a": 1}, measure)
        cache.evaluate("s", {"a": 1}, measure)
        assert len(calls) == 2
        assert cache.hits == 0 and cache.misses == 2
        assert cache.tuning_time_s == pytest.approx(2.0)

    def test_disabled_stores_nothing(self):
        cache = PerformanceCache(cheap_model(), enabled=False)
        cache.evaluate("s", {"a": 1}, lambda: 0.5)
        assert cache.entries == {}
        assert cache.best_for("s") is None
