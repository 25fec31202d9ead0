"""Cached segment ids key the tuner exactly as the derived ones did.

``SegmentSpec`` caches its signature and the signature's ``repr``; the
tuner passes that string as the segment id, derives each candidate list
and its measurement keys once per engine, and ``best_for`` reads the plan
cache's salt index instead of rebuilding ``entries``.  The formulas they
replace are kept here as the oracle, re-derived on every call: an engine
keyed by them must tune a bert-base graph into the same cache, in the
same order, with the same results.
"""

import pytest

import repro
from repro.core.rng import RngStream
from repro.gpu.specs import A100
from repro.tuner.cache import PerformanceCache, Setting
from repro.tuner.engine import TwoStageEngine, segment_signature
from repro.tuner.sampler import RewardSampler


def oracle_signature(template) -> tuple:
    seg = template.segment
    return tuple(
        (type(op).__name__, tuple(map(tuple, seg.in_shapes[i])))
        for i, op in enumerate(seg.ops)
    )


def oracle_best_for(cache: PerformanceCache, segment_id):
    """The smallest (time, params key) of a segment in the entries walk."""
    norm = segment_id if isinstance(segment_id, str) else repr(segment_id)
    best = None
    for (sid, pkey), t in cache.entries.items():
        if sid != norm or t == float("inf"):
            continue
        if best is None or (t, pkey) < best:
            best = (t, pkey)
    return best


class OracleIdEngine(TwoStageEngine):
    """The tuner with segment ids, candidates and keys derived per call
    (the oracle)."""

    def _measure(self, template, setting):
        params = dict(setting.params)
        return self.cache.evaluate(
            oracle_signature(template),
            params,
            lambda: template.estimate_time(self.spec, params),
        )

    def _sampler(self, templates, rng):
        sampler = RewardSampler(
            [t.param_space() for t in templates],
            rng,
            segment_keys=[repr(oracle_signature(t)) for t in templates],
        )
        for t, state in zip(templates, sampler.states):
            state.unexplored = [
                Setting(oracle_signature(t), p) for p in state.unexplored
            ]
        return sampler

    def _eval_segment(self, template, n_samples, rng):
        space = template.param_space()
        candidates = [template.default_params(self.spec)]
        keys = list(space)
        stream = rng.fork(f"s1-{oracle_signature(template)}").generator
        for _ in range(n_samples):
            candidates.append({k: space[k][stream.integers(len(space[k]))] for k in keys})
        best = None
        for params in candidates:
            t = self._measure(template, Setting(oracle_signature(template), params))
            if t is None:
                continue
            if best is None or t < best[0]:
                best = (t, params)
        cached = oracle_best_for(self.cache, oracle_signature(template))
        if cached is not None and (best is None or cached[0] < best[0]):
            best = (cached[0], dict(cached[1]))
        return best


def tune(engine_cls, graph, tokens):
    engine = engine_cls(A100, rng=RngStream(5))
    return engine, engine.tune_graph(graph, tokens)


@pytest.fixture(scope="module")
def tuned_bert_base():
    compiled = repro.compile_model("bert-base", 1, 128, mask="bigbird", seed=1)
    graph, tokens = compiled.prepared.graph, compiled.instance.tokens
    return tune(TwoStageEngine, graph, tokens), tune(OracleIdEngine, graph, tokens)


def test_same_measurements_in_the_same_order(tuned_bert_base):
    (engine, _), (oracle, _) = tuned_bert_base
    got = list(engine.cache.plans.items())
    assert got and got == list(oracle.cache.plans.items())
    assert engine.cache.tuning_time_s == oracle.cache.tuning_time_s


def test_same_tuning_results(tuned_bert_base):
    (_, results), (_, oracle_results) = tuned_bert_base
    assert list(results) == list(oracle_results)
    for first, result in results.items():
        want = oracle_results[first]
        assert result.scheme == want.scheme
        assert result.history == want.history
        assert [(s.best_time_s, s.best_params) for s in result.segments] == [
            (s.best_time_s, s.best_params) for s in want.segments
        ]


def test_segment_ids_are_the_signature_reprs(tuned_bert_base):
    (engine, results), _ = tuned_bert_base
    templates = [s.template for r in results.values() for s in r.segments]
    for t in templates:
        assert t.segment.signature == oracle_signature(t)
        assert segment_signature(t) is t.segment.signature
        assert t.segment.signature_key == repr(oracle_signature(t))
    salts = {key.salt for key, _ in engine.cache.plans.items()}
    assert {t.segment.signature_key for t in templates} <= salts


def test_best_for_equals_the_entries_walk(tuned_bert_base):
    (engine, results), _ = tuned_bert_base
    cache = engine.cache
    for salt in {key.salt for key, _ in cache.plans.items()}:
        assert cache.best_for(salt) == oracle_best_for(cache, salt)
    for r in results.values():
        for s in r.segments:
            sig = oracle_signature(s.template)
            assert cache.best_for(sig) == oracle_best_for(cache, sig)
    assert cache.best_for("no such segment") is None


def test_retuning_a_chain_derives_no_setting(monkeypatch):
    """A chain the engine already tuned, or a repeat of it, replays its
    candidate lists: no ``params_key``, no candidate list, no generator,
    and the oracle's results."""
    import numpy as np

    from repro.fusion.converter import extract_chains
    from repro.tuner import cache as cache_module
    from repro.tuner import engine as engine_module

    from .test_engine import ffn_chain_graph

    graph, other = ffn_chain_graph(), ffn_chain_graph()
    (chain,), (repeat,) = extract_chains(graph), extract_chains(other)
    runs = [(graph, chain), (graph, chain), (other, repeat)]
    oracle = OracleIdEngine(A100, rng=RngStream(11))
    want = [oracle.tune_chain(g, c, tokens=128) for g, c in runs]

    engine = TwoStageEngine(A100, rng=RngStream(11))
    got = [engine.tune_chain(graph, chain, tokens=128)]
    calls = []

    def count(owner, name):
        fn = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    count(cache_module, "params_key")
    count(Setting, "__init__")
    count(engine_module, "shuffled_settings")
    count(np.random, "default_rng")
    got += [engine.tune_chain(g, c, tokens=128) for g, c in runs[1:]]
    assert calls == []
    for result, expected in zip(got, want):
        assert result.scheme == expected.scheme
        assert result.history == expected.history
        assert [(s.best_time_s, s.best_params) for s in result.segments] == [
            (s.best_time_s, s.best_params) for s in expected.segments
        ]
