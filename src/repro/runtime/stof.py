"""The STOF engine: unified MHA module + two-stage operator fusion.

Ties the whole framework together (paper Fig. 5):

* every captured attention site goes through the analytical kernel
  selector (:mod:`repro.mha.selector`) and runs the row-wise or block-wise
  kernel with its selected parameters;
* every downstream chain is planned by the two-stage search engine
  (:mod:`repro.tuner.engine`) — rule-based init, fusion expansion,
  reward-based parameter sampling — all served from a shared performance
  cache.  The tuner's results are the chain plans, one ``ChainPlan`` per
  chain in ``extract_chains`` order; no other policy plans them first.
  A repeat of a chain (``chain_key``) whose tuning took no cache miss
  copies that plan while the cache takes none: tuning reads only the
  chain and the cache's contents, so tuning it again would replay it.

Ablation flags drive Fig. 13: ``use_mha_module=False`` falls back to the
integrated FlashAttention2 kernel (what ``torch.compile`` provides);
``use_fusion_module=False`` falls back to inductor-style MI fusion with
default parameters — the only STOF configuration that pre-plans chains
with ``plan_chains``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.rng import RngStream
from repro.fusion.converter import FusionSchemeConverter, extract_chains
from repro.gpu.specs import GPUSpec
from repro.mha.baselines import FlashAttention2Attention
from repro.mha.blockwise import BlockWiseKernel
from repro.mha.problem import AttentionProblem
from repro.mha.rowwise import RowWiseKernel
from repro.mha.selector import KernelChoice, select_kernel
from repro.models.build import ModelInstance
from repro.runtime.capture import MHACapture
from repro.runtime.executor import ChainPlan, MHABinding, PreparedModel
from repro.obs.tracer import current_tracer
from repro.runtime.frameworks import (
    COMPILED_DISPATCH_S,
    Engine,
    inductor_scheme,
)
from repro.tuner.cache import EvalCostModel, PerformanceCache
from repro.tuner.engine import OverheadBreakdown, TwoStageEngine, chain_key


class STOFEngine(Engine):
    """STOF with optional module ablation (Fig. 13)."""

    dispatch_overhead_s = COMPILED_DISPATCH_S

    def __init__(
        self,
        use_mha_module: bool = True,
        use_fusion_module: bool = True,
        selector_mode: str = "model",
        rng: RngStream | None = None,
        cost_model: EvalCostModel | None = None,
        stage1_samples: int = 2,
        stage2_rounds: int = 3,
        stage2_total: int = 16,
        exec_backend: str = "codegen",
    ):
        self.use_mha_module = use_mha_module
        self.use_fusion_module = use_fusion_module
        self.selector_mode = selector_mode
        self.rng = rng or RngStream()
        self.cost_model = cost_model or EvalCostModel()
        self.stage1_samples = stage1_samples
        self.stage2_rounds = stage2_rounds
        self.stage2_total = stage2_total
        self.exec_backend = exec_backend
        self._fallback_attention = FlashAttention2Attention()
        self._row = RowWiseKernel(exec_backend=exec_backend)
        self._block = BlockWiseKernel(exec_backend=exec_backend)
        self.last_overhead: OverheadBreakdown | None = None

        suffix = {
            (True, True): "",
            (True, False): "-mha-only",
            (False, True): "-fusion-only",
            (False, False): "-neither",
        }[(use_mha_module, use_fusion_module)]
        self.name = f"stof{suffix}"

    @property
    def scheme_policy(self):
        # Inductor-style MI fusion only for Fig. 13's fusion-off ablation:
        # with the fusion module on, the tuner plans every chain.
        return None if self.use_fusion_module else inductor_scheme

    # ------------------------------------------------------------- attention

    @property
    def attention_kernel(self):
        # Attention is always captured; which kernel binds depends on the
        # ablation flag and, for the full module, the analytical selector.
        return self._fallback_attention

    def make_binding(self, capture: MHACapture, problem: AttentionProblem) -> MHABinding:
        if not self.use_mha_module:
            return MHABinding(
                capture=capture,
                kernel=self._fallback_attention,
                params=None,
                problem=problem,
            )
        # Shared problems (repeated layers) select once.
        cached = self._selection_memo.get(id(problem))
        if cached is None:
            t0 = time.perf_counter()
            cached = select_kernel(problem, self._spec, mode=self.selector_mode)
            self._analysis_s += time.perf_counter() - t0
            self._selection_memo[id(problem)] = cached
        choice, params = cached
        kernel = self._row if choice is KernelChoice.ROW_WISE else self._block
        return MHABinding(capture=capture, kernel=kernel, params=params, problem=problem)

    # ------------------------------------------------------------ preparation

    def prepare(
        self,
        inst: ModelInstance,
        spec: GPUSpec,
        masks: dict[str, np.ndarray],
        mask_patterns: dict[str, str] | None = None,
    ) -> PreparedModel:
        # The selector needs the device spec inside make_binding.
        self._spec = spec
        self._analysis_s = 0.0
        self._selection_memo: dict[int, tuple] = {}
        prepared = super().prepare(inst, spec, masks, mask_patterns)
        prepared.extras["use_mha_module"] = self.use_mha_module
        prepared.extras["use_fusion_module"] = self.use_fusion_module
        return prepared

    def _post_prepare(self, prepared: PreparedModel, spec: GPUSpec) -> None:
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
            graph, tokens = prepared.graph, prepared.instance.tokens
            copies = {}  # chain_key -> (last miss-free tuned plan, misses after it)
            for chain in extract_chains(graph):
                t0 = time.perf_counter()
                converter = FusionSchemeConverter(graph, chain)
                key = chain_key(converter)
                overhead.scheme_conversion_s += time.perf_counter() - t0
                source, misses = copies.get(key, (None, None))
                if misses == engine.cache.misses:
                    # A copy measures nothing; binding its templates is conversion.
                    first = source.chain.node_names[0]
                    with current_tracer().span("tune.copy", cat="tuner", source=first):
                        templates = converter.scheme_templates(source.scheme)
                    plan = ChainPlan(chain, source.scheme, templates, [dict(p) for p in source.params])
                    overhead.scheme_conversion_s += converter.stats.template_match_s
                else:
                    result = engine.tune_chain(graph, chain, tokens)
                    plan = ChainPlan(
                        chain,
                        result.scheme,
                        [s.template for s in result.segments],
                        [s.best_params for s in result.segments],
                    )
                    overhead = overhead.merged(result.overhead)
                    if result.cache_misses == 0:
                        copies[key] = (plan, engine.cache.misses)
                prepared.chains.append(plan)
            prepared.tuning_time_s = engine.total_tuning_time_s
        self.last_overhead = overhead
        prepared.extras["overhead"] = overhead
