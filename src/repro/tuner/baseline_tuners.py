"""Comparison auto-tuners for the Table 4 study.

Both baselines share the evaluation-cost mechanics (compile + measurement
runs per unseen configuration, cache within a run) but differ in *search
strategy*, exactly as the paper characterizes them (Table 1):

* :class:`ExhaustiveLoopTuner` (MCFuser-style) — loop-space construction
  with rule pruning only: every feasible setting of every segment is
  evaluated.  Its fusion policy is the CI-chain one (adjacent GEMMs merge
  whenever a template exists, regardless of scale).
* :class:`TemplateEnumerationTuner` (Bolt-style) — CUTLASS-like template
  enumeration: GEMM + epilogue segments with the full template parameter
  grid per segment, no fusion expansion.

Neither has STOF's two-stage budgeting or reward allocation, so their
evaluation counts — and thus tuning time — grow much faster with model and
input scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from repro.core.rng import RngStream
from repro.fusion.converter import FusionSchemeConverter, extract_chains
from repro.fusion.templates import CompilationTemplate
from repro.graph.ir import Graph
from repro.gpu.specs import GPUSpec
from repro.ops.base import OpCategory
from repro.tuner.cache import EvalCostModel, PerformanceCache
from repro.tuner.engine import SegmentState


@dataclass
class BaselineTuningResult:
    """Per-graph outcome of a baseline tuner."""

    segments: list[SegmentState]
    estimated_time_s: float
    tuning_time_s: float
    evaluations: int


class _GridTunerBase:
    """Shared full-grid segment evaluation."""

    #: Cap on enumerated settings per segment (rule pruning).
    max_settings_per_segment: int = 48

    def __init__(
        self,
        spec: GPUSpec,
        cost_model: EvalCostModel | None = None,
        rng: RngStream | None = None,
    ):
        self.spec = spec
        self.cache = PerformanceCache(cost_model or EvalCostModel())
        self.rng = (rng or RngStream()).fork(type(self).__name__)

    def _grid(self, template: CompilationTemplate) -> list[dict[str, Any]]:
        space = template.param_space()
        keys = list(space)
        combos = [
            dict(zip(keys, vals)) for vals in itertools.product(*space.values())
        ]
        return combos[: self.max_settings_per_segment]

    def _tune_segment(self, template: CompilationTemplate) -> SegmentState | None:
        sig = template.segment.signature_key
        best_t, best_p = float("inf"), None
        for params in self._grid(template):
            t = self.cache.evaluate(
                sig, params, lambda p=params: template.estimate_time(self.spec, p)
            )
            if t is not None and t < best_t:
                best_t, best_p = t, params
        if best_p is None:
            return None
        return SegmentState(
            start=-1, length=template.segment.n_ops, template=template,
            best_time_s=best_t, best_params=best_p,
        )

    def _segmentation(self, converter: FusionSchemeConverter, tokens: int) -> tuple[int, ...]:
        raise NotImplementedError

    def tune_graph(self, graph: Graph, tokens: int) -> BaselineTuningResult:
        from repro.runtime.executor import _segment_feasible

        segments: list[SegmentState] = []
        total = 0.0
        for chain in extract_chains(graph):
            converter = FusionSchemeConverter(graph, chain)
            scheme = self._segmentation(converter, tokens)
            templates = converter.scheme_templates(scheme)
            if templates is None:  # fall back to fully detached
                scheme = tuple(1 for _ in range(chain.n_ops))
                templates = converter.scheme_templates(scheme)
                assert templates is not None
            # A fused segment whose kernel cannot launch at all (failed
            # compile) falls back to detached ops — which then get the full
            # per-op enumeration, exactly like a real tuner retrying.
            repaired: list[int] = []
            for length, template in zip(scheme, templates):
                if length > 1 and not _segment_feasible(template, self.spec):
                    repaired.extend([1] * length)
                else:
                    repaired.append(length)
            if tuple(repaired) != scheme:
                scheme = tuple(repaired)
                templates = converter.scheme_templates(scheme)
                assert templates is not None
            for template in templates:
                state = self._tune_segment(template)
                if state is None:
                    continue
                segments.append(state)
                total += state.best_time_s
        return BaselineTuningResult(
            segments=segments,
            estimated_time_s=total,
            tuning_time_s=self.cache.tuning_time_s,
            evaluations=self.cache.evaluations,
        )


class ExhaustiveLoopTuner(_GridTunerBase):
    """MCFuser-style: fuse GEMM chains unconditionally, enumerate the rest.

    Loop-space scheduling exposes extra unroll variants, tripling the
    effective grid per CI segment.
    """

    unroll_variants: tuple[int, ...] = (1, 2, 4)

    def _grid(self, template: CompilationTemplate) -> list[dict[str, Any]]:
        base = super()._grid(template)
        if template.segment.n_ci == 0:
            return base
        # Loop scheduling explores unroll factors on top of tile sizes; the
        # unroll does not change our cost model's counters, but each variant
        # is a distinct candidate the tuner must compile and measure.
        out: list[dict[str, Any]] = []
        for params in base:
            for u in self.unroll_variants:
                p = dict(params)
                p["unroll"] = u
                out.append(p)
        return out[: self.max_settings_per_segment * len(self.unroll_variants)]

    def _tune_segment(self, template: CompilationTemplate) -> SegmentState | None:
        sig = template.segment.signature_key
        best_t, best_p = float("inf"), None
        for params in self._grid(template):
            unrolled = dict(params)
            unrolled.pop("unroll", None)
            t = self.cache.evaluate(
                sig,
                params,
                lambda p=unrolled: template.estimate_time(self.spec, p),
            )
            if t is not None and t < best_t:
                best_t, best_p = t, unrolled
        if best_p is None:
            return None
        return SegmentState(
            start=-1, length=template.segment.n_ops, template=template,
            best_time_s=best_t, best_params=best_p,
        )

    def _segmentation(self, converter: FusionSchemeConverter, tokens: int) -> tuple[int, ...]:
        """CI-chain fusion everywhere (scale-oblivious), MI detached-ish.

        A CI op reaches forward through intervening element-wise ops to the
        next CI op; if a GEMM-chain template covers the whole span, the span
        fuses — regardless of input scale (MCFuser's known weakness).
        """
        cats = converter.chain.categories
        n = len(cats)
        lengths: list[int] = []
        i = 0
        while i < n:
            if cats[i] is OpCategory.CI:
                j = i + 1
                while j < n and cats[j] is not OpCategory.CI:
                    j += 1
                if j < n and converter.template(i, j - i + 1) is not None:
                    lengths.append(j - i + 1)
                    i = j + 1
                    continue
            lengths.append(1)
            i += 1
        return tuple(lengths)


class TemplateEnumerationTuner(_GridTunerBase):
    """Bolt-style: GEMM+epilogue templates, full grid per segment."""

    def _segmentation(self, converter: FusionSchemeConverter, tokens: int) -> tuple[int, ...]:
        """Each CI op absorbs its element-wise epilogue; MI ops detached."""
        from repro.fusion.templates import _is_reduction

        cats = converter.chain.categories
        ops = [converter.graph.node(n).op for n in converter.chain.node_names]
        n = len(cats)
        lengths: list[int] = []
        i = 0
        while i < n:
            if cats[i] is OpCategory.CI:
                j = i + 1
                while (
                    j < n
                    and cats[j] is not OpCategory.CI
                    and not _is_reduction(ops[j])
                    and converter.template(i, j - i + 1) is not None
                ):
                    j += 1
                lengths.append(j - i)
                i = j
            else:
                lengths.append(1)
                i += 1
        return tuple(lengths)
