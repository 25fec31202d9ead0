"""STOF's chain plans are the tuner's results, and each chain is planned once.

With the fusion module on, ``Engine.prepare`` runs no inductor pre-plan:
``STOFEngine`` builds every ``ChainPlan`` from the tuner, in
``extract_chains`` order.  A repeated chain copies the last miss-free
tuning of an equal chain (``chain_key``) while the tuner cache has taken
no miss since; every other chain is tuned.  The flow this replaced is
kept here as the oracle: ``plan_chains`` under ``inductor_scheme`` (with
its feasibility repair), then ``tune_graph``'s results, every chain tuned
with the library's ``best_for``, written over every plan.  Over the model
zoo, both masks, two sizes, both devices and all four ablation variants,
the two flows must give the same chain plans and the same report.
"""

from __future__ import annotations

import re
from dataclasses import fields, is_dataclass

import pytest

import repro
import repro.fusion.converter as converter_module
import repro.runtime.executor as executor_module
import repro.runtime.frameworks as frameworks_module
from repro.core.errors import GraphError
from repro.core.rng import RngStream
from repro.fusion.converter import FusionSchemeConverter, extract_chains
from repro.graph.trace import GraphBuilder
from repro.gpu.specs import A100, RTX4090
from repro.models import MODEL_ZOO
from repro.models.build import ModelInstance
from repro.ops import Gelu, Gemm, Scale
from repro.runtime.frameworks import inductor_scheme
from repro.runtime.stof import STOFEngine
from repro.tuner.cache import PerformanceCache
from repro.tuner.engine import OverheadBreakdown, TwoStageEngine

VARIANTS = [(True, True), (True, False), (False, True), (False, False)]


# ------------------------------------------------------------------ oracle


class PrePlannedSTOF(STOFEngine):
    """STOF pre-planning every chain with the inductor policy, then writing
    the tuned results of every chain over the plans."""

    scheme_policy = staticmethod(inductor_scheme)

    def _post_prepare(self, prepared, spec):
        overhead = OverheadBreakdown(analytical_model_s=self._analysis_s)
        if self.use_fusion_module:
            engine = TwoStageEngine(
                spec,
                rng=self.rng,
                stage1_samples=self.stage1_samples,
                stage2_rounds=self.stage2_rounds,
                stage2_total=self.stage2_total,
                cost_model=self.cost_model,
                cache=PerformanceCache(self.cost_model),
            )
            results = engine.tune_graph(prepared.graph, prepared.instance.tokens)
            by_first = {cp.chain.node_names[0]: cp for cp in prepared.chains}
            for first, result in results.items():
                cp = by_first.get(first)
                if cp is None:
                    continue
                cp.scheme = result.scheme
                cp.templates = [s.template for s in result.segments]
                cp.params = [s.best_params for s in result.segments]
                overhead = overhead.merged(result.overhead)
            prepared.tuning_time_s = engine.total_tuning_time_s
        self.last_overhead = overhead
        prepared.extras["overhead"] = overhead


def canonical(obj):
    """A report field by field, floats by their bits, the wall-clock
    ``overhead`` dropped."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(
            (f.name, canonical(getattr(obj, f.name))) for f in fields(obj)
        )
    if isinstance(obj, dict):
        return tuple(
            (k, canonical(v)) for k, v in sorted(obj.items()) if k != "overhead"
        )
    if isinstance(obj, (list, tuple)):
        return tuple(canonical(v) for v in obj)
    if isinstance(obj, float):
        return obj.hex()
    return obj


def chain_plans(prepared) -> list:
    return [
        (
            cp.chain.node_names,
            cp.scheme,
            [type(t) for t in cp.templates],
            [t.segment.node_names for t in cp.templates],
            cp.params,
        )
        for cp in prepared.chains
    ]


def compile_with(engine_cls, model, batch, seq, mask, spec, mha, fusion):
    engine = engine_cls(use_mha_module=mha, use_fusion_module=fusion)
    return repro.compile_model(
        model, batch, seq, device=spec, mask=mask, engine=engine, seed=1
    )


@pytest.mark.parametrize("spec", [A100, RTX4090], ids=["a100", "rtx4090"])
@pytest.mark.parametrize("model", sorted(MODEL_ZOO))
def test_chain_plans_and_reports_match_the_pre_planned_flow(model, spec):
    for mask in ("sliding_window", "bigbird"):
        for batch, seq in ((1, 128), (8, 512)):
            for mha, fusion in VARIANTS:
                args = (model, batch, seq, mask, spec, mha, fusion)
                got = compile_with(STOFEngine, *args)
                want = compile_with(PrePlannedSTOF, *args)
                assert chain_plans(got.prepared) == chain_plans(want.prepared), args
                assert canonical(got.report) == canonical(want.report), args


# ------------------------------------------------------------------ counts


class CallCounter:
    """Counts the calls of a module function or a method, passing them on."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def chain_content(graph, chain) -> tuple:
    """A chain by content, node names aside: per op its class, attributes
    but the name and output shape, each input's shape and source (a chain
    position or the n-th distinct outside value), and whether an op
    before the last is also read outside the chain."""
    names = chain.node_names
    position = {name: i for i, name in enumerate(names)}
    outside = {}
    content = []
    for i, name in enumerate(names):
        node = graph.node(name)
        inputs = tuple(
            (
                position[dep] if dep in position
                else -1 - outside.setdefault(dep, len(outside)),
                graph.node(dep).shape,
            )
            for dep in node.inputs
        )
        attrs = tuple(sorted((k, v) for k, v in vars(node.op).items() if k != "name"))
        escapes = i < len(names) - 1 and (
            name in graph.outputs
            or any(r.name not in position for r in graph.consumers(name))
        )
        content.append((type(node.op), attrs, node.shape, inputs, escapes))
    return tuple(content)


@pytest.fixture
def counters(monkeypatch):
    return {
        "plan_chains": CallCounter(monkeypatch, frameworks_module, "plan_chains"),
        "first_feasible": CallCounter(
            monkeypatch, executor_module, "_first_feasible_params"
        ),
        "initial_scheme": CallCounter(
            monkeypatch, FusionSchemeConverter, "initial_scheme"
        ),
        "tune_chain": CallCounter(monkeypatch, TwoStageEngine, "tune_chain"),
    }


@pytest.mark.parametrize(
    "model, batch, seq", [("bert-base", 1, 128), ("t5", 8, 512)]
)
def test_fusion_on_plans_each_chain_once(counters, model, batch, seq):
    compiled = compile_with(STOFEngine, model, batch, seq, "bigbird", A100, True, True)
    graph = compiled.prepared.graph
    chains = extract_chains(graph)
    distinct = {chain_content(graph, chain) for chain in chains}
    tuned = counters["tune_chain"].calls
    assert counters["plan_chains"].calls == 0
    assert counters["first_feasible"].calls == 0
    assert len(distinct) <= tuned < len(chains)
    assert counters["initial_scheme"].calls == tuned
    assert len(compiled.prepared.chains) == len(chains)


def test_fusion_off_keeps_the_inductor_pre_plan(counters):
    compile_with(STOFEngine, "bert-base", 1, 128, "bigbird", A100, True, False)
    assert counters["plan_chains"].calls == 1
    assert counters["first_feasible"].calls > 0
    assert counters["initial_scheme"].calls == 0


# ---------------------------------------------------------------- copy key


def gemm_chains(*chains):
    """One chain x(128, k) @ w1(k, 256) @ w2(256, 256), then a scale, per
    ``(k, factor)``: every output shape is independent of both."""
    gb = GraphBuilder("gemm-chains", seed=3)
    for i, (k, factor) in enumerate(chains):
        x = gb.input(f"x{i}", (128, k))
        w1 = gb.param(f"w1.{i}", (k, 256))
        w2 = gb.param(f"w2.{i}", (256, 256))
        h = gb.call(Gemm(f"a{i}"), x, w1, name=f"a{i}")
        h = gb.call(Gemm(f"b{i}"), h, w2, name=f"b{i}")
        h = gb.call(Scale(factor), h, name=f"s{i}")
        gb.output(h)
    return gb.finish()


def prepare_graph(engine_cls, graph):
    """``engine_cls``'s prepared model of a bare graph at 128 tokens."""
    inst = ModelInstance(
        config=None, batch=1, seq_len=128, graph=graph,
        ids_inputs=[], mask_inputs={},
    )
    return engine_cls(rng=RngStream(7)).prepare(inst, A100, {})


def rng_chain_sig(graph, chain) -> str:
    """The string the tuner forks its chain stream by."""
    return str(
        [
            (type(graph.node(n).op).__name__, tuple(graph.node(n).shape))
            for n in chain.node_names
        ]
    )


def test_equal_rng_signatures_with_other_inner_dims_get_their_own_scheme(counters):
    """A repeat of a miss-free tuning is copied only by content: a chain
    with the same ``chain_sig`` but first-GEMM inner dim 1024 instead of
    512 is tuned from its own initial scheme."""
    graph = gemm_chains((512, 1.0), (512, 1.0), (1024, 1.0))
    chains = extract_chains(graph)
    assert rng_chain_sig(graph, chains[0]) == rng_chain_sig(graph, chains[2])
    first, other = (
        FusionSchemeConverter(graph, chains[i]).initial_scheme(128, spec=A100)
        for i in (0, 2)
    )
    # The GEMM chain's gain gate flips with the first GEMM's inner dim.
    assert first != other
    got = prepare_graph(STOFEngine, graph)
    assert counters["tune_chain"].calls == 3
    assert chain_plans(got) == chain_plans(prepare_graph(PrePlannedSTOF, graph))


def test_an_op_attribute_keys_its_own_derivation(counters):
    """A repeat differing only in a ``Scale`` factor is tuned, though its
    predecessor tuned without a miss; an exact repeat is copied."""
    for factor, tuned in ((1.0, 2), (0.5, 3)):
        counters["tune_chain"].calls = 0
        prepare_graph(STOFEngine, gemm_chains((512, 1.0), (512, 1.0), (512, factor)))
        assert counters["tune_chain"].calls == tuned, factor


def test_a_repeat_after_another_chains_miss_is_tuned_again(counters):
    """A, A, B, A, A: the first A and B take cache misses, so the third A
    is tuned again rather than copied from the second; the fourth, with
    no miss since the third, is copied.  Every plan equals the oracle's."""
    graph = gemm_chains(*[(512, 1.0)] * 2, (1024, 1.0), *[(512, 1.0)] * 2)
    got = prepare_graph(STOFEngine, graph)
    assert counters["tune_chain"].calls == 4
    assert chain_plans(got) == chain_plans(prepare_graph(PrePlannedSTOF, graph))


# ----------------------------------------------------------- error contract


def test_untemplatable_single_operator_raises_the_graph_error(monkeypatch):
    """A chain with an operator no template binds, alone or fused, fails
    with the pre-plan's ``GraphError`` before any report exists."""
    graph = compile_with(
        STOFEngine, "bert-small", 1, 128, "bigbird", A100, True, True
    ).prepared.graph
    first = next(
        chain.node_names[0]
        for chain in extract_chains(graph)
        if any(isinstance(graph.node(n).op, Gelu) for n in chain.node_names)
    )
    match_template = converter_module.match_template

    def no_gelu_template(segment):
        if any(isinstance(op, Gelu) for op in segment.ops):
            raise GraphError(f"no compilation template fits [{segment.names}]")
        return match_template(segment)

    monkeypatch.setattr(converter_module, "match_template", no_gelu_template)
    message = re.escape(
        f"chain starting at {first!r} has an untemplatable single operator"
    )
    for mha, fusion in VARIANTS:
        with pytest.raises(GraphError, match=message):
            compile_with(STOFEngine, "bert-small", 1, 128, "bigbird", A100, mha, fusion)

