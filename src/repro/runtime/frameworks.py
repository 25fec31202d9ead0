"""End-to-end engines: the comparison frameworks of §5.1.2.

Every engine is one *strategy* over the shared substrate: which attention
kernel it binds, how it segments the downstream chains, what it tunes, how
much host dispatch each kernel launch costs, and what workspace it keeps
resident.  Capability notes (Table 1) live on the classes.

========================  =========  ==========================  ==========
Engine                    dispatch   attention                   downstream
========================  =========  ==========================  ==========
PyTorchNativeEngine       8 us       native 5-kernel SDPA        detached
PyTorchCompileEngine      1 us       FlashAttention2             MI fused
FlashAttention2Engine     5 us       FlashAttention2             MI fused
FlexAttentionEngine       2 us       FlexAttention               MI fused
ByteTransformerEngine     3 us       ByteTransformer (<=1024)    epilogues
BoltEngine                1 us       none (no MHA optimization)  templates+tuned
MCFuserEngine             1 us       MCFuser GEMM chain          CI chains+tuned
STOFEngine (stof.py)      1 us       unified MHA module          two-stage
========================  =========  ==========================  ==========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.errors import UnsupportedInputError
from repro.fusion.converter import FusionSchemeConverter
from repro.gpu.specs import GPUSpec
from repro.mha.baselines import (
    ByteTransformerAttention,
    FlashAttention2Attention,
    FlexAttention,
    MCFuserAttention,
    MCFUSER_WORKSPACE_MULTIPLIER,
)
from repro.mha.kernel import AttentionKernel
from repro.mha.problem import AttentionProblem
from repro.models.build import ModelInstance
from repro.ops.base import OpCategory
from repro.runtime.capture import MHACapture
from repro.runtime.executor import (
    MHABinding,
    PreparedModel,
    plan_chains,
    rewrite_attention,
)
from repro.tuner.baseline_tuners import ExhaustiveLoopTuner, TemplateEnumerationTuner
from repro.tuner.engine import segment_signature

# Host dispatch overhead per kernel launch, by runtime style.
EAGER_DISPATCH_S = 8e-6          # Python-eager op dispatch (PyTorch Native)
STANDALONE_DISPATCH_S = 5e-6     # eager custom-op call (FlashAttention2 ext)
COMPILED_DISPATCH_S = 1e-6       # CUDA-graph replay (compile/Bolt/MCFuser/STOF)
CPP_RUNTIME_DISPATCH_S = 3e-6    # hand-rolled C++ serving runtime (ByteTransformer)
FLEX_DISPATCH_S = 2e-6           # torch.compile-generated FlexAttention call


# ---------------------------------------------------------------------------
# Downstream segmentation policies
# ---------------------------------------------------------------------------


def singleton_scheme(converter: FusionSchemeConverter, tokens: int) -> tuple[int, ...]:
    """Every operator its own kernel (eager execution)."""
    return tuple(1 for _ in range(converter.chain.n_ops))


def inductor_scheme(converter: FusionSchemeConverter, tokens: int) -> tuple[int, ...]:
    """torch.inductor-style: fuse MI runs, keep CI ops at vendor kernels."""
    cats = converter.chain.categories
    n = len(cats)
    lengths: list[int] = []
    i = 0
    while i < n:
        if cats[i] is OpCategory.CI:
            lengths.append(1)
            i += 1
        else:
            j = i + 1
            while (
                j < n
                and cats[j] is not OpCategory.CI
                and converter.template(i, j - i + 1) is not None
            ):
                j += 1
            lengths.append(j - i)
            i = j
    return tuple(lengths)


def epilogue_scheme(converter: FusionSchemeConverter, tokens: int) -> tuple[int, ...]:
    """CI ops absorb their element-wise epilogues; MI runs fuse (manual
    kernel libraries like ByteTransformer; Bolt's CUTLASS templates)."""
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
            j = i + 1
            while (
                j < n
                and cats[j] is not OpCategory.CI
                and converter.template(i, j - i + 1) is not None
            ):
                j += 1
            lengths.append(j - i)
            i = j
    return tuple(lengths)


def ci_chain_scheme(converter: FusionSchemeConverter, tokens: int) -> tuple[int, ...]:
    """MCFuser-style: CI ops fuse through intervening element-wise ops to
    the next CI op whenever a GEMM-chain template exists — regardless of
    input scale (its known weakness, §2.3.1)."""
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


# ---------------------------------------------------------------------------
# Engine base
# ---------------------------------------------------------------------------


class Engine:
    """One end-to-end execution strategy."""

    name: str = "engine"
    dispatch_overhead_s: float = COMPILED_DISPATCH_S

    #: None = keep native attention ops in the downstream chains.
    attention_kernel: AttentionKernel | None = None
    #: None = no pre-plan: ``_post_prepare`` plans every chain.
    scheme_policy: Callable | None = staticmethod(singleton_scheme)

    def workspace_bytes(self, inst: ModelInstance, problems: list[AttentionProblem]) -> float:
        return 0.0

    def check_supported(self, inst: ModelInstance, masks: dict[str, np.ndarray]) -> None:
        """Engine-wide input gating (e.g. ByteTransformer's 1,024 limit)."""

    def make_binding(self, capture: MHACapture, problem: AttentionProblem) -> MHABinding:
        assert self.attention_kernel is not None
        self.attention_kernel.check_supported(problem)
        return MHABinding(
            capture=capture,
            kernel=self.attention_kernel,
            params=None,
            problem=problem,
        )

    def prepare(
        self,
        inst: ModelInstance,
        spec: GPUSpec,
        masks: dict[str, np.ndarray],
        mask_patterns: dict[str, str] | None = None,
    ) -> PreparedModel:
        """Bind attention, pre-plan every chain with ``scheme_policy`` at
        its first launchable parameters, then let ``_post_prepare`` tune.
        With no policy (STOF with its fusion module on), ``_post_prepare``
        plans every chain itself."""
        self.check_supported(inst, masks)
        if self.attention_kernel is not None or self._captures_attention():
            graph, bindings = rewrite_attention(
                inst.graph, masks, self.make_binding, mask_patterns
            )
        else:
            graph, bindings = inst.graph, []
        policy = self.scheme_policy
        chains = [] if policy is None else plan_chains(graph, spec, policy, inst.tokens)
        problems = [b.problem for _, b in bindings]
        prepared = PreparedModel(
            engine_name=self.name,
            instance=inst,
            spec=spec,
            graph=graph,
            attention=bindings,
            chains=chains,
            dispatch_overhead_s=self.dispatch_overhead_s,
            workspace_bytes=self.workspace_bytes(inst, problems),
        )
        self._post_prepare(prepared, spec)
        return prepared

    def _captures_attention(self) -> bool:
        return self.attention_kernel is not None

    def _post_prepare(self, prepared: PreparedModel, spec: GPUSpec) -> None:
        """Hook for tuning engines to refine parameters."""


# ---------------------------------------------------------------------------
# Concrete baselines
# ---------------------------------------------------------------------------


class PyTorchNativeEngine(Engine):
    """Eager PyTorch: every native op a separate kernel, dense attention
    with a materialized score matrix and additive mask."""

    name = "pytorch-native"
    dispatch_overhead_s = EAGER_DISPATCH_S
    attention_kernel = None
    scheme_policy = staticmethod(singleton_scheme)


class PyTorchCompileEngine(Engine):
    """torch.compile: inductor MI fusion + integrated FlashAttention2."""

    name = "pytorch-compile"
    dispatch_overhead_s = COMPILED_DISPATCH_S
    attention_kernel = FlashAttention2Attention()
    scheme_policy = staticmethod(inductor_scheme)


class FlashAttention2Engine(Engine):
    """FlashAttention2 as a standalone extension (MHA-focused method)."""

    name = "flashattention2"
    dispatch_overhead_s = STANDALONE_DISPATCH_S
    attention_kernel = FlashAttention2Attention()
    scheme_policy = staticmethod(inductor_scheme)


class FlexAttentionEngine(Engine):
    """FlexAttention (MHA-focused method)."""

    name = "flexattention"
    dispatch_overhead_s = FLEX_DISPATCH_S
    attention_kernel = FlexAttention()
    scheme_policy = staticmethod(inductor_scheme)


class ByteTransformerEngine(Engine):
    """ByteTransformer: hand-written fused kernels, seq <= 1,024."""

    name = "bytetransformer"
    dispatch_overhead_s = CPP_RUNTIME_DISPATCH_S
    attention_kernel = ByteTransformerAttention()
    scheme_policy = staticmethod(epilogue_scheme)

    def check_supported(self, inst: ModelInstance, masks) -> None:
        from repro.mha.baselines import BYTETRANSFORMER_MAX_SEQ

        if inst.seq_len > BYTETRANSFORMER_MAX_SEQ:
            raise UnsupportedInputError(
                f"{self.name}: sequence length {inst.seq_len} exceeds the "
                f"hand-written kernels' limit of {BYTETRANSFORMER_MAX_SEQ}"
            )


class BoltEngine(Engine):
    """Bolt: CUTLASS-derived GEMM+epilogue templates with full-grid tuning;
    no MHA-specific optimization (attention stays native)."""

    name = "bolt"
    dispatch_overhead_s = COMPILED_DISPATCH_S
    attention_kernel = None
    scheme_policy = staticmethod(epilogue_scheme)

    def _post_prepare(self, prepared: PreparedModel, spec: GPUSpec) -> None:
        tuner = TemplateEnumerationTuner(spec)
        result = tuner.tune_graph(prepared.graph, prepared.instance.tokens)
        best = {segment_signature(s.template): s.best_params for s in result.segments}
        for cp in prepared.chains:
            cp.params = [
                best.get(segment_signature(t), p)
                for t, p in zip(cp.templates, cp.params)
            ]
        prepared.tuning_time_s = result.tuning_time_s


class MCFuserEngine(Engine):
    """MCFuser: loop-scheduled CI-chain fusion (incl. the attention GEMM
    chain) with exhaustive tuning and a large resident workspace."""

    name = "mcfuser"
    dispatch_overhead_s = COMPILED_DISPATCH_S
    attention_kernel = MCFuserAttention()
    scheme_policy = staticmethod(ci_chain_scheme)

    def workspace_bytes(self, inst, problems) -> float:
        if not problems:
            return 0.0
        return MCFUSER_WORKSPACE_MULTIPLIER * max(p.scores_bytes for p in problems)

    def _post_prepare(self, prepared: PreparedModel, spec: GPUSpec) -> None:
        tuner = ExhaustiveLoopTuner(spec)
        result = tuner.tune_graph(prepared.graph, prepared.instance.tokens)
        best = {segment_signature(s.template): s.best_params for s in result.segments}
        for cp in prepared.chains:
            cp.params = [
                best.get(segment_signature(t), p)
                for t, p in zip(cp.templates, cp.params)
            ]
        prepared.tuning_time_s = result.tuning_time_s


#: Engines compared in the end-to-end study (Fig. 12), STOF added by
#: :mod:`repro.runtime.stof`.
BASELINE_ENGINES: tuple[type[Engine], ...] = (
    PyTorchNativeEngine,
    PyTorchCompileEngine,
    ByteTransformerEngine,
    BoltEngine,
    MCFuserEngine,
)
