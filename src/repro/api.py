"""High-level one-call API.

For users who want the paper's workflow without assembling the pieces:

>>> from repro.api import compile_model
>>> compiled = compile_model("bert-small", batch=1, seq_len=64,
...                          device="a100", mask="bigbird")
>>> compiled.engine_name
'stof'
>>> compiled.latency_s > 0
True

``compile_model`` builds the model graph, generates (or accepts) the
mask, prepares it under the chosen engine, and returns a
:class:`CompiledModel` that can report simulated latency, execute
functionally, and summarize itself.  ``compare_engines`` sweeps several
engines over one workload — the one-liner behind Fig. 12-style studies.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace as dc_replace
from typing import Any, Mapping

import numpy as np

from repro.core.errors import ConfigError
from repro.core.rng import RngStream
from repro.core.units import format_time
from repro.gpu.specs import GPUSpec, get_spec
from repro.masks.patterns import causal_mask, make_pattern
from repro.models.build import ModelInstance, build_model
from repro.models.config import ModelConfig, get_model_config
from repro.obs.tracer import Tracer, use_tracer
from repro.plan import PlanCache
from repro.runtime.executor import EngineReport, PreparedModel
from repro.runtime.frameworks import (
    BoltEngine,
    ByteTransformerEngine,
    Engine,
    MCFuserEngine,
    PyTorchCompileEngine,
    PyTorchNativeEngine,
)
from repro.runtime.stof import STOFEngine

#: Engine registry for string lookup.
ENGINES: dict[str, type[Engine]] = {
    "stof": STOFEngine,
    "pytorch-native": PyTorchNativeEngine,
    "pytorch-compile": PyTorchCompileEngine,
    "bytetransformer": ByteTransformerEngine,
    "bolt": BoltEngine,
    "mcfuser": MCFuserEngine,
}


@dataclass
class CompiledModel:
    """A model prepared under one engine, ready to inspect or run."""

    instance: ModelInstance
    prepared: PreparedModel
    report: EngineReport
    masks: dict[str, np.ndarray]
    seed: int

    @property
    def engine_name(self) -> str:
        return self.prepared.engine_name

    @property
    def latency_s(self) -> float:
        """Simulated forward-pass latency."""
        return self.report.time_s

    @property
    def tuning_time_s(self) -> float:
        return self.report.tuning_time_s

    def run(self, inputs: Mapping[str, np.ndarray] | None = None) -> np.ndarray:
        """Functional forward pass; random token ids when inputs omitted."""
        if inputs is None:
            inputs = self.instance.make_inputs(
                self.masks, rng=RngStream(self.seed).fork("api-inputs")
            )
        return self.prepared.execute(dict(inputs))

    def summary(self) -> str:
        """Human-readable one-screen description."""
        r = self.report
        lines = [
            f"{self.instance.config.name} @ batch {self.instance.batch}, "
            f"seq {self.instance.seq_len} on {self.prepared.spec.name}",
            f"engine: {self.engine_name}",
            f"latency: {format_time(r.time_s)} "
            f"(mha {format_time(r.mha_time_s)}, "
            f"downstream {format_time(r.downstream_time_s)})",
            f"kernel launches: {r.kernel_launches}",
            f"memory: {r.memory_bytes / 2**30:.2f} GiB",
        ]
        if r.tuning_time_s:
            lines.append(f"tuning: {r.tuning_time_s:.1f} s (simulated)")
        return "\n".join(lines)


def _resolve_masks(
    mask: str | np.ndarray,
    inst: ModelInstance,
    seed: int,
) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Instantiate one mask spec for every mask input of the model."""
    seq = inst.seq_len
    masks: dict[str, np.ndarray] = {}
    patterns: dict[str, str] = {}
    rng = RngStream(seed).fork("api-mask")
    if isinstance(mask, str):
        base = make_pattern(mask, seq, rng=rng)
        base_pattern = mask
    else:
        base = np.asarray(mask, dtype=bool)
        if base.shape != (seq, seq):
            raise ConfigError(
                f"mask array must be ({seq}, {seq}), got {base.shape}"
            )
        base_pattern = "custom"
    for name in inst.mask_inputs:
        if name == "cross_mask":
            masks[name] = np.ones((seq, seq), dtype=bool)
            patterns[name] = "custom"
        elif name == "dec_mask" or (
            name == "mask" and inst.config.is_decoder_only
        ):
            masks[name] = base & causal_mask(seq)
            patterns[name] = "custom"
        else:
            masks[name] = base
            patterns[name] = base_pattern
    return masks, patterns


def compile_model(
    model: str | ModelConfig,
    batch: int,
    seq_len: int,
    device: str | GPUSpec | None = None,
    mask: str | np.ndarray | None = None,
    engine: str | Engine = "stof",
    seed: int = 0,
    check_memory: bool = True,
    plan_cache: PlanCache | None = None,
    trace: Tracer | None = None,
    parallel: Any = None,
    **engine_kwargs: Any,
) -> CompiledModel:
    """Build, mask, prepare, and plan a model in one call.

    ``model`` is a zoo name (``"bert-base"``...) or a custom
    :class:`ModelConfig`; ``mask`` a registered pattern name or an explicit
    boolean array (default ``"bigbird"``); ``device`` a spec name or
    :class:`GPUSpec` (default ``"a100"``); ``engine`` a registry name or an
    :class:`Engine` instance.  Raises the same
    :class:`UnsupportedInputError` / :class:`DeviceOutOfMemoryError` the
    engines raise.

    ``plan_cache`` (optional) is a shared :class:`repro.plan.PlanCache`:
    planning decisions are looked up there before being recomputed, so
    compiling several related workloads amortizes repeated layer plans,
    and ``plan_cache.stats()`` afterwards shows what was reused.

    ``trace`` (optional) is a :class:`repro.obs.Tracer` activated for the
    duration of the call: planner, tuner, and kernel-timeline spans land
    in it (see ``docs/observability.md``).

    ``parallel`` (optional) is a shard layout — a
    :class:`repro.parallel.ShardConfig` or a spec string like ``"tp4"``,
    ``"tp2pp2"``, ``"tp2dp2:pcie"``, or ``"tp4pp2:nvlink,ib"`` — switching
    to Megatron-style tensor/pipeline-parallel compilation: one rank's
    shard is planned and the layout's collectives are added on top,
    bucketed and overlapped with compute by default (see
    ``docs/sharding.md``).  Extra keywords ``overlap=`` (``False``
    restores the serialized sync-point model), ``micro_batches=`` and
    ``contention=`` ride through to
    :func:`repro.parallel.compile.compile_sharded`.  The result is a
    :class:`repro.parallel.ShardedCompiledModel`.
    """
    device = "a100" if device is None else device
    mask = "bigbird" if mask is None else mask

    if parallel is not None:
        # Lazy import: repro.parallel depends on this module.
        from repro.parallel.compile import compile_sharded

        return compile_sharded(
            model, batch, seq_len, parallel,
            device=device, mask=mask, engine=engine, seed=seed,
            check_memory=check_memory, plan_cache=plan_cache, trace=trace,
            **engine_kwargs,
        )

    with use_tracer(trace) if trace is not None else nullcontext():
        cfg = get_model_config(model) if isinstance(model, str) else model
        spec = get_spec(device) if isinstance(device, str) else device
        inst = build_model(cfg, batch, seq_len, seed=seed)
        masks, patterns = _resolve_masks(mask, inst, seed)

        if isinstance(engine, str):
            key = engine.strip().lower()
            if key not in ENGINES:
                raise ConfigError(
                    f"unknown engine {engine!r}; known: {sorted(ENGINES)}"
                )
            engine = ENGINES[key](**engine_kwargs)
        prepared = engine.prepare(inst, spec, masks, patterns)
        if plan_cache is not None:
            prepared.plan_cache = plan_cache
        report = prepared.plan(check_memory=check_memory)
    return CompiledModel(
        instance=inst, prepared=prepared, report=report, masks=masks, seed=seed
    )


def compare_engines(
    model: str | ModelConfig,
    batch: int,
    seq_len: int,
    device: str | GPUSpec | None = None,
    mask: str | np.ndarray | None = None,
    engines: tuple[str, ...] = tuple(ENGINES),
    seed: int = 0,
) -> dict[str, CompiledModel | str]:
    """Compile one workload under several engines.

    Returns ``{engine: CompiledModel}``, with ``"unsupported"`` /
    ``"oom"`` strings for engines that cannot run the workload (the
    missing bars of the paper's figures).
    """
    from repro.core.errors import DeviceOutOfMemoryError, UnsupportedInputError

    device = "a100" if device is None else device
    mask = "bigbird" if mask is None else mask

    out: dict[str, CompiledModel | str] = {}
    for name in engines:
        try:
            out[name] = compile_model(
                model, batch, seq_len, device=device, mask=mask,
                engine=name, seed=seed,
            )
        except UnsupportedInputError:
            out[name] = "unsupported"
        except DeviceOutOfMemoryError:
            out[name] = "oom"
    return out


def serve(
    model: "str | ModelConfig | Any" = "bert-base",
    workload: "Any" = None,
    device: str | GPUSpec = "a100",
    policy: str = "continuous",
    fleet: "Any" = None,
    slo: "Any" = None,
    seed: int = 0,
    max_batch_size: int = 16,
    max_batch_tokens: int = 65536,
    tracer: Tracer | None = None,
    spec_decode: "Any" = None,
    chunk_prefill_tokens: int | None = None,
    lora: "Any" = None,
) -> "Any":
    """Simulate serving one workload — the single front door to the stack.

    ``model`` is a zoo name / :class:`~repro.models.ModelConfig` (its
    attention shape becomes the
    :class:`~repro.serving.engine.ServingConfig`) or a ``ServingConfig``
    directly.  ``workload`` is a
    :class:`~repro.serving.workload.WorkloadSpec` (generated with the
    run's seed) or an explicit list of
    :class:`~repro.serving.request.Request`.  The engine is picked by
    the fleet shape:

    * no ``fleet=`` — one replica, one GPU
      (:class:`~repro.serving.engine.ServingEngine`);
    * ``fleet=FleetConfig(...)`` — a fixed TP/PP/DP fleet
      (:class:`~repro.parallel.serving.ShardedServingEngine`);
    * ``fleet=FleetConfig(autoscale=True, ...)`` — a floating fleet
      (:class:`~repro.parallel.serving.AutoscalingServingEngine`).

    Passing ``slo=SLOPolicy(...)`` swaps in the deadline-aware scheduler
    regardless of fleet shape.  Three workload knobs override the
    resolved config: ``spec_decode=SpeculativeConfig(...)`` turns on
    draft-propose / target-verify decoding, ``chunk_prefill_tokens=N``
    caps the per-step prefill token budget (Sarathi-style chunked
    prefill), and ``lora=LoRAConfig(...)`` prices per-request adapters
    with an LRU residency budget.  Returns the engine's report: a
    :class:`~repro.serving.metrics.ServingReport` for one replica, a
    :class:`~repro.parallel.serving.ShardedServingReport` (which also
    bills GPU-seconds) for a fleet; everything is a pure function of
    ``(model, workload, fleet, slo, seed)``.

    >>> from repro.serving import TenantSpec, WorkloadSpec, PoissonArrivals
    >>> wl = WorkloadSpec(8, PoissonArrivals(500.0),
    ...                   tenants=(TenantSpec(name="chat"),))
    >>> serve("bert-small", wl, seed=7).completed
    8
    """
    from repro.parallel.serving import FleetConfig, fleet_engine
    from repro.serving.engine import ServingConfig, ServingEngine
    from repro.serving.request import Request
    from repro.serving.slo import make_policy_scheduler
    from repro.serving.workload import WorkloadSpec

    spec = device if isinstance(device, GPUSpec) else get_spec(device)
    if isinstance(model, ServingConfig):
        config = model
    else:
        mc = model if isinstance(model, ModelConfig) else get_model_config(model)
        config = ServingConfig(
            heads=mc.heads,
            head_size=mc.head_size,
            n_layers=mc.encoder_layers + mc.decoder_layers,
        )

    overrides: dict[str, "Any"] = {}
    if spec_decode is not None:
        overrides["spec_decode"] = spec_decode
    if chunk_prefill_tokens is not None:
        overrides["chunk_prefill_tokens"] = chunk_prefill_tokens
    if lora is not None:
        overrides["lora"] = lora
    if overrides:
        config = dc_replace(config, **overrides)

    if isinstance(workload, WorkloadSpec):
        trace = workload.generate(RngStream(seed).fork("workload"))
    elif workload and all(isinstance(r, Request) for r in workload):
        trace = list(workload)
    else:
        raise ConfigError(
            "workload must be a WorkloadSpec or a non-empty list of Request"
        )

    if fleet is not None and not isinstance(fleet, FleetConfig):
        raise ConfigError(f"fleet must be a FleetConfig, got {type(fleet).__name__}")
    if fleet is None:
        engine = ServingEngine(
            spec,
            make_policy_scheduler(policy, max_batch_size, max_batch_tokens, slo),
            config,
            tracer=tracer,
        )
    else:
        engine = fleet_engine(
            spec, policy, config, fleet, slo=slo,
            max_batch_size=max_batch_size, max_batch_tokens=max_batch_tokens,
            tracer=tracer,
        )
    return engine.run(trace, rng=RngStream(seed))
