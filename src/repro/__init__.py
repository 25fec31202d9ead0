"""STOF — Sparse Transformer acceleration via flexible masking and operator
fusion, reproduced on a simulated GPU substrate.

This package reproduces "Flexible Operator Fusion for Fast Sparse
Transformer with Diverse Masking on GPU" (PPoPP 2026) end to end: the
unified row-wise/block-wise sparse MHA kernels with BSR mask storage, the
fusion-scheme encoding and compilation templates, the two-stage search
engine, and the full baseline suite — all priced on an analytical GPU
execution model (see DESIGN.md for the substitution rationale).

Quick start::

    from repro import AttentionProblem, UnifiedMHA, get_spec

    problem = AttentionProblem.build(
        "bigbird", batch=2, heads=12, seq_len=256, head_size=64,
        with_tensors=True,
    )
    mha = UnifiedMHA(get_spec("a100"))
    plan = mha.plan(problem)         # analytical kernel selection
    output = mha.run(problem)        # functional FP16 attention

See ``examples/`` for end-to-end model inference, custom mask patterns,
and a tour of the two-stage tuner.
"""

__version__ = "1.0.0"

from repro.core.rng import RngStream
from repro.gpu import A100, RTX4090, GPUSpec, SimulatedGPU, get_spec
from repro.masks import (
    BlockSparseMask,
    analyze_mask,
    bigbird_mask,
    longformer_mask,
    make_pattern,
    sliding_window_mask,
)
from repro.mha import (
    AttentionProblem,
    BlockWiseKernel,
    RowWiseKernel,
    UnifiedMHA,
    reference_attention,
)
from repro.models import build_model, get_model_config
from repro.obs import MetricsRegistry, Span, Tracer, use_metrics, use_tracer
from repro.plan import CompiledPlan, PlanCache, PlanKey
from repro.runtime import (
    BoltEngine,
    ByteTransformerEngine,
    MCFuserEngine,
    PyTorchCompileEngine,
    PyTorchNativeEngine,
    STOFEngine,
)
from repro.tuner import TwoStageEngine
from repro.api import CompiledModel, compare_engines, compile_model, serve
from repro.parallel import (
    AutoscalingServingEngine,
    FleetConfig,
    Interconnect,
    LinkSpec,
    ShardConfig,
    ShardedServingEngine,
    compile_sharded,
)
from repro.serving import SLOPolicy, TenantSpec, WorkloadSpec, make_scenario

__all__ = [
    "__version__",
    "RngStream",
    "A100",
    "RTX4090",
    "GPUSpec",
    "SimulatedGPU",
    "get_spec",
    "BlockSparseMask",
    "analyze_mask",
    "bigbird_mask",
    "longformer_mask",
    "make_pattern",
    "sliding_window_mask",
    "AttentionProblem",
    "BlockWiseKernel",
    "RowWiseKernel",
    "UnifiedMHA",
    "reference_attention",
    "build_model",
    "get_model_config",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "use_metrics",
    "use_tracer",
    "CompiledPlan",
    "PlanCache",
    "PlanKey",
    "BoltEngine",
    "ByteTransformerEngine",
    "MCFuserEngine",
    "PyTorchCompileEngine",
    "PyTorchNativeEngine",
    "STOFEngine",
    "TwoStageEngine",
    "CompiledModel",
    "compare_engines",
    "compile_model",
    "serve",
    "AutoscalingServingEngine",
    "FleetConfig",
    "Interconnect",
    "LinkSpec",
    "ShardConfig",
    "ShardedServingEngine",
    "SLOPolicy",
    "TenantSpec",
    "WorkloadSpec",
    "compile_sharded",
    "make_scenario",
]
