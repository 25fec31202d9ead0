"""Model preparation, planning, and functional execution.

A :class:`PreparedModel` is an engine's view of one model instance:

* the graph with every attention site rewritten to a FUSED node bound to
  the engine's attention strategy (or left native),
* a segmentation of each downstream operator chain into compilation
  templates with chosen parameters,
* the engine's dispatch overhead and workspace model.

``plan`` prices the whole forward pass on the simulated device and checks
the memory footprint (raising the OOM that produces the paper's missing
bars); ``execute`` runs it functionally, exercising the bound attention
kernels — outputs are identical across engines up to FP16 rounding, which
the integration tests assert.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.errors import ConfigError, DeviceOutOfMemoryError, GraphError
from repro.core.fp16 import FP16_BYTES
from repro.fusion.converter import FusionSchemeConverter, OperatorChain, extract_chains
from repro.fusion.templates import CompilationTemplate
from repro.graph.ir import Graph, Node, NodeKind
from repro.graph.rewrite import FusedNodePayload, Region, replace_subgraphs
from repro.gpu.cost import estimate_kernel_time
from repro.gpu.specs import GPUSpec
from repro.mha.kernel import AttentionKernel
from repro.mha.problem import AttentionProblem
from repro.models.build import ModelInstance
from repro.obs.tracer import current_tracer
from repro.ops.base import numel
from repro.plan import (
    CompiledPlan,
    PlanCache,
    PlanKey,
    compile_kernel_plan,
    compile_launches,
    params_key,
    spec_fingerprint,
)
from repro.runtime.capture import MHACapture, capture_attention_sites


@dataclass
class MHABinding:
    """One attention site resolved to a kernel and a symbolic problem."""

    capture: MHACapture
    kernel: AttentionKernel
    params: dict[str, Any] | None
    problem: AttentionProblem   # symbolic (mask only; tensors filled at run)

    def plan(self, spec: GPUSpec):
        return self.kernel.plan(self.problem, spec, self.params)

    def compiled_plan(
        self,
        spec: GPUSpec,
        cache: PlanCache | None = None,
        shard: str = "",
    ) -> CompiledPlan:
        """The site's plan through the shared plan layer (cached).

        Repeated layers probe equal concrete keys and replay one plan.
        """
        return compile_kernel_plan(
            self.kernel,
            self.problem,
            spec,
            params=self.params,
            cache=cache,
            kind="runtime-mha",
            shard=shard,
        )

    def run(self, q2: np.ndarray, k2: np.ndarray, v2: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Execute on (B*S, H)-shaped inputs, returning (B*S, H)."""
        c = self.capture
        b, h, d = c.batch, c.heads, c.head_size

        def split(x: np.ndarray, s: int) -> np.ndarray:
            return (
                x.reshape(b, s, h, d).transpose(0, 2, 1, 3).reshape(b, h, s, d)
            )

        prob = AttentionProblem(
            batch=b,
            heads=h,
            seq_len=c.seq_len,
            head_size=d,
            mask=np.asarray(mask, dtype=bool),
            pattern=self.problem.pattern,
            q=split(q2, c.seq_len).astype(np.float16),
            k=split(k2, c.kv_seq_len).astype(np.float16),
            v=split(v2, c.kv_seq_len).astype(np.float16),
        )
        out = self.kernel.run(prob, self.params)        # (B, h, S, d)
        return out.reshape(b, h, c.seq_len, d).transpose(0, 2, 1, 3).reshape(
            b * c.seq_len, h * d
        )


@dataclass
class ChainPlan:
    """A downstream chain's segmentation with per-segment templates/params."""

    chain: OperatorChain
    scheme: tuple[int, ...]
    templates: list[CompilationTemplate]
    params: list[dict[str, Any]]


@dataclass
class EngineReport:
    """Planning outcome for one (engine, model, device, mask) combination."""

    engine: str
    time_s: float
    mha_time_s: float
    downstream_time_s: float
    kernel_launches: int
    dram_bytes: float
    flops: float
    memory_bytes: float
    tuning_time_s: float = 0.0
    extras: dict[str, Any] = field(default_factory=dict)


@dataclass
class PreparedModel:
    """An engine-transformed model ready to plan or execute."""

    engine_name: str
    instance: ModelInstance
    spec: GPUSpec
    graph: Graph
    attention: list[tuple[str, MHABinding]]   # (fused node name, binding)
    chains: list[ChainPlan]
    dispatch_overhead_s: float
    workspace_bytes: float = 0.0
    tuning_time_s: float = 0.0
    extras: dict[str, Any] = field(default_factory=dict)
    #: Shared compiled-plan cache.  When None, each ``plan()`` call uses an
    #: ephemeral cache (repeated layers still deduplicate within the call).
    plan_cache: PlanCache | None = field(default=None, repr=False)
    #: Parallel-layout fingerprint ("" for unsharded models).  A per-rank
    #: prepared model carries e.g. ``"tp4dp1:nvlink"`` so its plans never
    #: collide in a shared cache with same-geometry unsharded plans.
    shard: str = ""

    # ------------------------------------------------------------------ plan

    def plan(self, check_memory: bool = True) -> EngineReport:
        """Price the forward pass; raises OOM when the footprint exceeds
        device memory."""
        if check_memory:
            mem = self.estimate_memory_bytes()
            if mem > self.spec.memory_bytes:
                raise DeviceOutOfMemoryError(
                    requested_bytes=int(mem),
                    capacity_bytes=self.spec.memory_bytes,
                    what=f"{self.engine_name} running {self.instance.config.name}",
                )
        else:
            mem = self.estimate_memory_bytes()

        mha_t = 0.0
        down_t = 0.0
        launches = 0
        dram = 0.0
        flops = 0.0

        tracer = current_tracer()
        if tracer.enabled:
            tracer.lane_names.setdefault(0, "host dispatch")
            tracer.lane_names.setdefault(1, "attention kernels")
            tracer.lane_names.setdefault(2, "downstream kernels")
        sim_cursor = 0.0   # simulated-timeline position (seconds)

        def record_launch(cost, config, bd, cat: str, lane: int) -> None:
            """Lay the launch on the tracer's simulated kernel timeline."""
            nonlocal sim_cursor
            dispatch = self.dispatch_overhead_s * cost.launches
            if dispatch > 0:
                tracer.add_span(
                    "dispatch", cat="host", t0=sim_cursor, dur=dispatch,
                    tid=0, kernel=cost.name,
                )
                sim_cursor += dispatch
            tracer.add_span(
                cost.name, cat=cat, t0=sim_cursor, dur=bd.total, tid=lane,
                bound=bd.bound,
                grid_blocks=config.grid_blocks,
                occupancy=round(bd.occupancy, 3),
            ).add_model_time(bd.total)
            sim_cursor += bd.total

        plan_span = tracer.span(
            "runtime.plan", cat="planner",
            engine=self.engine_name, model=self.instance.config.name,
        )
        with plan_span:
            # Every site plans through the shared cache: repeated layers
            # (same mask content + geometry + params) replay one
            # CompiledPlan instead of re-running the kernel's mask
            # analysis.  The per-launch pricing below is unchanged, so
            # reports are identical with or without a persistent cache.
            cache = (
                self.plan_cache if self.plan_cache is not None else PlanCache()
            )
            device = spec_fingerprint(self.spec)

            for _, binding in self.attention:
                site_plan = binding.compiled_plan(self.spec, cache, shard=self.shard)
                for cost, config in site_plan.launches:
                    bd = estimate_kernel_time(self.spec, cost, config)
                    mha_t += bd.total + self.dispatch_overhead_s * cost.launches
                    launches += cost.launches
                    dram += cost.bytes_dram
                    flops += cost.flops
                    if tracer.enabled:
                        record_launch(cost, config, bd, "mha", 1)

            for cp in self.chains:
                for template, params in zip(cp.templates, cp.params):
                    key = PlanKey(
                        kind="runtime-chain",
                        device=device,
                        params=params_key(params),
                        salt=template.segment.signature_key,
                        shard=self.shard,
                    )
                    seg_plan = compile_launches(
                        key,
                        lambda template=template, params=params: template.plan(
                            self.spec, params
                        ),
                        cache=cache,
                        kernel_name=template.segment.names,
                    )
                    for cost, config in seg_plan.launches:
                        bd = estimate_kernel_time(self.spec, cost, config)
                        down_t += (
                            bd.total + self.dispatch_overhead_s * cost.launches
                        )
                        launches += cost.launches
                        dram += cost.bytes_dram
                        flops += cost.flops
                        if tracer.enabled:
                            record_launch(cost, config, bd, "fused", 2)

            plan_span.add(
                launches=launches, attention_sites=len(self.attention),
            ).add_model_time(mha_t + down_t)

        return EngineReport(
            engine=self.engine_name,
            time_s=mha_t + down_t,
            mha_time_s=mha_t,
            downstream_time_s=down_t,
            kernel_launches=launches,
            dram_bytes=dram,
            flops=flops,
            memory_bytes=mem,
            tuning_time_s=self.tuning_time_s,
            extras=dict(self.extras),
        )

    # ---------------------------------------------------------------- memory

    def estimate_memory_bytes(self) -> float:
        """Resident footprint: weights + peak activations + workspace."""
        params = 0.0
        largest_node = 0.0
        for node in self.graph.nodes.values():
            nbytes = numel(node.shape) * FP16_BYTES
            if node.kind is NodeKind.PARAM:
                params += nbytes
            elif node.kind in (NodeKind.OP, NodeKind.FUSED):
                largest_node = max(largest_node, nbytes)
        # Double-buffered working set: a handful of live intermediates.
        activations = 4.0 * largest_node
        return params + activations + self.workspace_bytes

    # --------------------------------------------------------------- execute

    def execute(self, inputs: dict[str, np.ndarray]) -> np.ndarray:
        """Functional forward pass (single graph output)."""
        bindings = dict(self.attention)

        def fused_executor(node: Node, args: list[np.ndarray]) -> np.ndarray:
            payload: FusedNodePayload = node.payload
            if payload.kind != "mha":
                raise GraphError(f"unexpected fused payload {payload.kind!r}")
            binding = bindings[node.name]
            by_name = dict(zip(node.inputs, args))
            c = binding.capture
            return binding.run(
                by_name[c.q_src], by_name[c.k_src], by_name[c.v_src],
                by_name[c.mask_input],
            )

        outputs = self.graph.run(inputs, fused_executor=fused_executor)
        if len(outputs) != 1:
            raise GraphError(f"expected a single output, got {sorted(outputs)}")
        return next(iter(outputs.values()))


# ---------------------------------------------------------------------------
# Preparation helpers shared by the engines
# ---------------------------------------------------------------------------


def rewrite_attention(
    graph: Graph,
    masks: dict[str, np.ndarray],
    make_binding: Callable[[MHACapture, AttentionProblem], MHABinding],
    mask_patterns: dict[str, str] | None = None,
) -> tuple[Graph, list[tuple[str, MHABinding]]]:
    """Capture every MHA site, bind kernels, and rewrite the graph.

    ``masks`` maps mask-input node names to boolean arrays; ``mask_patterns``
    optionally names the generator pattern of each mask (lets kernels with
    positional fast paths recognise it, like the real implementations).
    """
    bindings: list[tuple[str, MHABinding]] = []
    regions: list[Region] = []
    # Identical attention sites (same mask input + geometry, i.e. repeated
    # layers) share one AttentionProblem so its cached BSR/CSR analysis is
    # computed once per model, not once per layer.
    problem_memo: dict[tuple, AttentionProblem] = {}
    for capture in capture_attention_sites(graph):
        if capture.mask_input not in masks:
            raise ConfigError(
                f"no mask provided for attention input {capture.mask_input!r}"
            )
        if capture.seq_len != capture.kv_seq_len:
            raise ConfigError(
                "attention problems with differing query/key lengths are not "
                f"supported by the kernel suite (got {capture.seq_len} vs "
                f"{capture.kv_seq_len})"
            )
        pattern = (mask_patterns or {}).get(capture.mask_input, "custom")
        memo_key = (
            capture.mask_input,
            capture.batch,
            capture.heads,
            capture.seq_len,
            capture.head_size,
        )
        problem = problem_memo.get(memo_key)
        if problem is None:
            problem = AttentionProblem(
                batch=capture.batch,
                heads=capture.heads,
                seq_len=capture.seq_len,
                head_size=capture.head_size,
                mask=np.asarray(masks[capture.mask_input], dtype=bool),
                pattern=pattern,
            )
            problem_memo[memo_key] = problem
        binding = make_binding(capture, problem)
        fused_name = f"mha@{capture.region[-1]}"
        payload = FusedNodePayload(kind="mha", binding=binding)
        regions.append((list(capture.region), payload, fused_name))
        bindings.append((fused_name, binding))
    return replace_subgraphs(graph, regions), bindings


def plan_chains(
    graph: Graph,
    spec: GPUSpec,
    scheme_policy: Callable[[FusionSchemeConverter, int], tuple[int, ...]],
    tokens: int,
    params_policy: Callable[[CompilationTemplate], dict[str, Any]] | None = None,
) -> list[ChainPlan]:
    """Segment every downstream chain per the engine's policy."""
    plans: list[ChainPlan] = []
    for chain in extract_chains(graph):
        converter = FusionSchemeConverter(graph, chain)
        scheme = scheme_policy(converter, tokens)
        templates = converter.scheme_templates(scheme)
        if templates is None:
            scheme = tuple(1 for _ in range(chain.n_ops))
            templates = converter.scheme_templates(scheme)
            if templates is None:
                raise GraphError(
                    f"chain starting at {chain.node_names[0]!r} has an "
                    "untemplatable single operator"
                )
        # Feasibility repair: a fused segment whose kernel cannot launch on
        # this device (e.g. a GEMM-chain over a 3,072-wide FFN exceeding the
        # RTX 4090's SMEM carveout) falls back to detached ops — exactly
        # what a failed template compile does in production.
        repaired: list[int] = []
        for length, template in zip(scheme, templates):
            if length > 1 and not _segment_feasible(template, spec):
                repaired.extend([1] * length)
            else:
                repaired.append(length)
        if tuple(repaired) != scheme:
            scheme = tuple(repaired)
            templates = converter.scheme_templates(scheme)
            assert templates is not None

        params = [
            params_policy(t) if params_policy else _first_feasible_params(t, spec)
            for t in templates
        ]
        plans.append(ChainPlan(chain, scheme, templates, params))
    return plans


def _first_feasible_params(
    template: CompilationTemplate, spec: GPUSpec
) -> dict[str, Any] | None:
    """Defaults if they launch; otherwise the first launchable setting."""
    space = template.param_space()
    keys = list(space)
    candidates = itertools.chain(
        [template.default_params(spec)],
        (dict(zip(keys, vals)) for vals in itertools.product(*space.values())),
    )
    for params in candidates:
        try:
            for cost, config in template.plan(spec, params):
                estimate_kernel_time(spec, cost, config)  # occupancy check
            return params
        except ConfigError:
            continue
    return None


def _segment_feasible(template: CompilationTemplate, spec: GPUSpec) -> bool:
    """Whether any parameter setting of the template can launch on ``spec``."""
    return _first_feasible_params(template, spec) is not None
