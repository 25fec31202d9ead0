"""The two-stage search engine (paper §4.4, Fig. 9).

Per operator chain:

1. **Initialization** — the converter's rule-based scheme (network
   hyper-parameters + operator dependencies + §3's CI+CI-at-small-scale
   heuristic).
2. **Stage 1: fusion expansion** — depth-first application of
   expand/seize/compete boundary moves; each candidate scheme is evaluated
   by sampling a fixed number of parameter settings for its changed
   segments, kept on gain and rolled back otherwise.  Schemes and settings
   already seen are served from the cache.
3. **Stage 2: reward-based parameter sampling** — a fixed per-round sample
   budget distributed across the frozen scheme's segments, re-weighted
   toward whichever segment yielded the round's best improvement.

Chains with identical operator/shape signatures share cache entries, so a
24-layer model tunes each distinct segment once — this, plus the reward
allocation, is where STOF's Table 4 advantage comes from.  The engine
also derives each candidate list once: a repeated chain replays its
settings with their measurement keys and measures through cache hits.
STOF (:mod:`repro.runtime.stof`) copies a repeat's plan instead when
tuning it again could only replay an earlier tuning (:func:`chain_key`).

Host-side bookkeeping time (hash encoding, template matching, reward
algorithm, the analytical initialization of every tuned chain) is
measured separately into :class:`OverheadBreakdown` — the Fig. 14 data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core.errors import GraphError, TuningError
from repro.core.rng import RngStream
from repro.fusion.converter import FusionSchemeConverter, OperatorChain, extract_chains
from repro.fusion.rules import apply_move, legal_moves
from repro.fusion.templates import CompilationTemplate
from repro.graph.ir import Graph
from repro.gpu.specs import GPUSpec
from repro.obs.tracer import current_tracer
from repro.plan import PlanCache
from repro.tuner.cache import EvalCostModel, PerformanceCache, Setting
from repro.tuner.sampler import RewardSampler, shuffled_settings


def segment_signature(template: CompilationTemplate) -> tuple:
    """Shape-based identity of a segment (shared across identical layers).

    Cached on the segment, as is its ``repr`` (``signature_key``), which
    is the segment id of every tuner measurement and runtime plan key.
    """
    return template.segment.signature


def chain_key(converter: FusionSchemeConverter) -> tuple:
    """A chain by content, node names aside: the whole chain resolved as
    one segment (each op's class, attributes, shapes and input sources,
    and the outputs also read elsewhere).  No segment that tuning binds
    reads anything beyond that."""
    whole = converter.segment(0, converter.chain.n_ops)
    ops = tuple(
        (type(op), tuple(sorted((k, v) for k, v in vars(op).items() if k != "name")))
        for op in whole.ops
    )
    sources = tuple(map(tuple, whole.sources))
    return ops, whole.signature, tuple(whole.out_shapes), sources, tuple(whole.aux_write_indices)


@dataclass
class SegmentState:
    """Best-known configuration of one segment of the final scheme."""

    start: int
    length: int
    template: CompilationTemplate
    best_time_s: float
    best_params: dict[str, Any]

    @property
    def names(self) -> str:
        return self.template.segment.names


@dataclass
class OverheadBreakdown:
    """Host-side overhead of the framework itself (Fig. 14)."""

    analytical_model_s: float = 0.0
    scheme_conversion_s: float = 0.0
    reward_algorithm_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.analytical_model_s + self.scheme_conversion_s + self.reward_algorithm_s

    def merged(self, other: "OverheadBreakdown") -> "OverheadBreakdown":
        return OverheadBreakdown(
            self.analytical_model_s + other.analytical_model_s,
            self.scheme_conversion_s + other.scheme_conversion_s,
            self.reward_algorithm_s + other.reward_algorithm_s,
        )


@dataclass
class TuningResult:
    """Outcome of tuning one chain (or, aggregated, a whole graph)."""

    scheme: tuple[int, ...]
    segments: list[SegmentState]
    estimated_time_s: float
    tuning_time_s: float          # the cache's running total
    overhead: OverheadBreakdown
    schemes_tried: int
    cache_hits: int               # this chain's own lookups;
    cache_misses: int             # a failed launch is a miss
    history: list[tuple[str, tuple[int, ...], float]] = field(default_factory=list)


class TwoStageEngine:
    """STOF's search engine over one graph's downstream operator chains."""

    def __init__(
        self,
        spec: GPUSpec,
        rng: RngStream | None = None,
        stage1_samples: int = 3,
        stage2_rounds: int = 4,
        stage2_total: int = 24,
        max_expansion_steps: int = 64,
        ci_chain_token_limit: int = 512,
        cost_model: EvalCostModel | None = None,
        cache: PerformanceCache | None = None,
        plan_cache: PlanCache | None = None,
    ):
        self.spec = spec
        self.rng = (rng or RngStream()).fork("two-stage-engine")
        self.stage1_samples = stage1_samples
        self.stage2_rounds = stage2_rounds
        self.stage2_total = stage2_total
        self.max_expansion_steps = max_expansion_steps
        self.ci_chain_token_limit = ci_chain_token_limit
        # Measurements live in the unified plan layer: pass ``plan_cache`` to
        # share one PlanCache across the tuner and the other planning sites.
        self.cache = cache or PerformanceCache(
            cost_model or EvalCostModel(), plans=plan_cache
        )
        # Candidate lists by everything their derivation reads; they die
        # with the engine.
        self._settings: dict[tuple, list[Setting]] = {}

    # ----------------------------------------------------------- primitives

    def _measure(self, template: CompilationTemplate, setting: Setting) -> float | None:
        return self.cache.evaluate_key(
            setting.key, lambda: template.estimate_time(self.spec, setting.params)
        )

    def _memoized(
        self,
        memo_key: tuple,
        segment_id: str,
        draw: Callable[[], list[dict[str, Any]]],
    ) -> list[Setting]:
        settings = self._settings.get(memo_key)
        if settings is None:
            settings = [Setting(segment_id, params) for params in draw()]
            self._settings[memo_key] = settings
        return settings

    def _stage1_settings(
        self,
        template: CompilationTemplate,
        n_samples: int,
        rng: RngStream,
    ) -> list[Setting]:
        """The default + ``n_samples`` random settings of a segment.

        The sample stream is keyed by the segment's *content* signature, so
        identical segments (repeated layers) draw identical candidates.
        """
        space = template.param_space()
        default = template.default_params(self.spec)
        segment_id = template.segment.signature_key

        def draw() -> list[dict[str, Any]]:
            keys = list(space)
            stream = rng.fork(f"s1-{segment_id}").generator
            return [default] + [
                {k: space[k][stream.integers(len(space[k]))] for k in keys}
                for _ in range(n_samples)
            ]

        memo_key = (
            "s1", rng.root_seed, rng.path, segment_id,
            tuple(space.items()), tuple(default.items()), n_samples,
        )
        return self._memoized(memo_key, segment_id, draw)

    def _sampler(
        self, templates: list[CompilationTemplate], rng: RngStream
    ) -> RewardSampler:
        """Stage 2's sampler over each segment's shuffled settings."""
        candidates = []
        for template in templates:
            space = template.param_space()
            segment_id = template.segment.signature_key

            def draw() -> list[dict[str, Any]]:
                stream = rng.fork("reward-sampler").fork(f"seg-{segment_id}")
                return shuffled_settings(space, stream)

            memo_key = (
                "s2", rng.root_seed, rng.path, segment_id, tuple(space.items())
            )
            candidates.append(self._memoized(memo_key, segment_id, draw))
        return RewardSampler.over(candidates)

    def _eval_segment(
        self,
        template: CompilationTemplate,
        n_samples: int,
        rng: RngStream,
    ) -> tuple[float, Mapping[str, Any]] | None:
        """Default + ``n_samples`` random settings; best observed.

        Identical segments draw identical candidates, so the shared cache
        absorbs every repeat.
        """
        best: tuple[float, Mapping[str, Any]] | None = None
        for setting in self._stage1_settings(template, n_samples, rng):
            t = self._measure(template, setting)
            if t is None:
                continue
            if best is None or t < best[0]:
                best = (t, setting.params)
        # Fold in anything already cached for this signature (cross-layer reuse).
        cached = self.cache.best_for(template.segment.signature_key)
        if cached is not None and (best is None or cached[0] < best[0]):
            best = (cached[0], dict(cached[1]))
        return best

    # ----------------------------------------------------------- chain tuning

    def tune_chain(
        self, graph: Graph, chain: OperatorChain, tokens: int
    ) -> TuningResult:
        tracer = current_tracer()
        with tracer.span(
            "tune.chain", cat="tuner", ops=chain.n_ops, tokens=tokens
        ) as chain_span:
            result = self._tune_chain_inner(graph, chain, tokens, tracer)
            chain_span.add(
                scheme=list(result.scheme),
                schemes_tried=result.schemes_tried,
                cache_hits=result.cache_hits,
                cache_misses=result.cache_misses,
            ).add_model_time(result.estimated_time_s)
        return result

    def _tune_chain_inner(
        self, graph: Graph, chain: OperatorChain, tokens: int, tracer
    ) -> TuningResult:
        converter = FusionSchemeConverter(graph, chain)
        overhead = OverheadBreakdown()
        history: list[tuple[str, tuple[int, ...], float]] = []
        hits, misses = self.cache.hits, self.cache.misses
        # Content-keyed stream: identical chains tune identically, so the
        # shared cache collapses repeated layers to free hits.
        chain_sig = str(
            [
                (type(graph.node(n).op).__name__, tuple(graph.node(n).shape))
                for n in chain.node_names
            ]
        )
        rng = self.rng.fork(f"chain-{chain_sig}")

        # ---- initialization (analytical model) ------------------------------
        t0 = time.perf_counter()
        scheme = converter.initial_scheme(tokens, self.ci_chain_token_limit, spec=self.spec)
        overhead.analytical_model_s += time.perf_counter() - t0

        seg_best: dict[tuple[int, int], tuple[float, Mapping[str, Any]]] = {}

        def eval_scheme(s: tuple[int, ...]) -> float | None:
            """Total best-known time of a scheme; None if infeasible."""
            templates = converter.scheme_templates(s)
            if templates is None:
                return None
            total = 0.0
            pos = 0
            for length, template in zip(s, templates):
                key = (pos, length)
                if key not in seg_best:
                    best = self._eval_segment(template, self.stage1_samples, rng)
                    if best is None:
                        return None
                    seg_best[key] = best
                total += seg_best[key][0]
                pos += length
            return total

        current = eval_scheme(scheme)
        if current is None:
            # The rule-based init produced segments with no launchable
            # setting (e.g. every candidate failed to compile): fall back to
            # fully detached execution before giving up.
            fallback = tuple(1 for _ in range(chain.n_ops))
            if converter.scheme_templates(fallback) is None:
                raise GraphError(
                    f"chain starting at {chain.node_names[0]!r} has an "
                    "untemplatable single operator"
                )
            if fallback != scheme:
                scheme = fallback
                current = eval_scheme(scheme)
        if current is None:
            raise TuningError(
                f"no launchable configuration for chain "
                f"{chain.node_names[:3]}... even fully detached"
            )
        history.append(("init", scheme, current))

        # ---- stage 1: fusion expansion (DFS with rollback) ------------------
        tried: set[str] = {converter.key(scheme)}
        steps = 0
        improved = True
        with tracer.span("tune.stage1", cat="tuner") as s1_span:
            while improved and steps < self.max_expansion_steps:
                improved = False
                for move in legal_moves(scheme, chain.categories):
                    steps += 1
                    if steps >= self.max_expansion_steps:
                        break
                    try:
                        candidate = apply_move(scheme, move)
                    except TuningError:
                        continue
                    key = converter.key(candidate)
                    if key in tried:
                        continue
                    tried.add(key)
                    total = eval_scheme(candidate)
                    if total is None:
                        history.append((f"reject-infeasible {move.describe()}", candidate, float("inf")))
                        continue
                    if total < current:
                        scheme, current = candidate, total
                        history.append((f"accept {move.describe()}", scheme, current))
                        improved = True
                        break  # DFS: descend from the improved scheme
                    history.append((f"rollback {move.describe()}", candidate, total))
            s1_span.add(steps=steps, schemes_tried=len(tried))

        # ---- stage 2: reward-based parameter sampling -----------------------
        templates = converter.scheme_templates(scheme)
        assert templates is not None
        t0 = time.perf_counter()
        sampler = self._sampler(templates, rng)
        overhead.reward_algorithm_s += time.perf_counter() - t0

        bounds = []
        pos = 0
        for length in scheme:
            bounds.append((pos, length))
            pos += length
        best_times = [seg_best[b][0] for b in bounds]
        best_params = [dict(seg_best[b][1]) for b in bounds]

        rounds_run = 0
        with tracer.span("tune.stage2", cat="tuner") as s2_span:
            for _ in range(self.stage2_rounds):
                if sampler.exhausted:
                    break
                rounds_run += 1
                t0 = time.perf_counter()
                alloc = sampler.allocate(self.stage2_total)
                overhead.reward_algorithm_s += time.perf_counter() - t0
                improvements = [0.0] * len(templates)
                for i, (template, count) in enumerate(zip(templates, alloc)):
                    if count == 0:
                        continue
                    t0 = time.perf_counter()
                    draws = sampler.draw(i, count)
                    overhead.reward_algorithm_s += time.perf_counter() - t0
                    for setting in draws:
                        t = self._measure(template, setting)
                        if t is None:
                            continue
                        t0 = time.perf_counter()
                        sampler.record(i, setting.params, t)
                        overhead.reward_algorithm_s += time.perf_counter() - t0
                        if t < best_times[i]:
                            improvements[i] = max(improvements[i], best_times[i] - t)
                            best_times[i] = t
                            best_params[i] = dict(setting.params)
                if max(improvements, default=0.0) > 0.0:
                    t0 = time.perf_counter()
                    sampler.reward(improvements.index(max(improvements)))
                    overhead.reward_algorithm_s += time.perf_counter() - t0
            s2_span.add(rounds=rounds_run, segments=len(templates))

        overhead.scheme_conversion_s += (
            converter.stats.encode_s
            + converter.stats.decode_s
            + converter.stats.template_match_s
        )

        segments = [
            SegmentState(
                start=bounds[i][0],
                length=bounds[i][1],
                template=templates[i],
                best_time_s=best_times[i],
                best_params=best_params[i],
            )
            for i in range(len(templates))
        ]
        return TuningResult(
            scheme=scheme,
            segments=segments,
            estimated_time_s=sum(best_times),
            tuning_time_s=self.cache.tuning_time_s,
            overhead=overhead,
            schemes_tried=len(tried),
            cache_hits=self.cache.hits - hits,
            cache_misses=self.cache.misses - misses,
            history=history,
        )

    # ----------------------------------------------------------- graph tuning

    def tune_graph(self, graph: Graph, tokens: int) -> dict[str, TuningResult]:
        """Tune every downstream chain; returns {first-node-name: result}.

        The shared cache makes repeated layer structures nearly free after
        the first occurrence.
        """
        results: dict[str, TuningResult] = {}
        for chain in extract_chains(graph):
            results[chain.node_names[0]] = self.tune_chain(graph, chain, tokens)
        return results

    @property
    def total_tuning_time_s(self) -> float:
        return self.cache.tuning_time_s
