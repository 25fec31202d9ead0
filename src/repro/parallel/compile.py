"""Tensor/pipeline-parallel model compilation.

:func:`compile_sharded` is the ``parallel=`` path of
:func:`repro.api.compile_model`: it builds ONE representative rank's
shard of the model — Megatron-LM's layout, with column-parallel Q/K/V and
fc1 projections (``heads/tp`` heads, ``ffn_dim/tp`` inner width) and
row-parallel output/fc2 projections back to the full hidden width — plans
it through the existing engine/roofline substrate, and adds the
collective time the layout requires: one ring all-reduce of the full
``batch * seq * hidden`` activation after every row-parallel projection
(one per attention block, one per FFN).

TP ranks are symmetric by construction (heads and FFN columns divide
evenly, or compilation refuses), so one rank's plan *is* every rank's
plan.  Two pricing modes share that plan:

* **serialized** (``overlap=False``) — the original sync-point model:
  every all-reduce stalls the ranks, ``latency = rank_time + comm_time``.
* **overlapped** (the default) — each layer's two all-reduces are
  bucketed into one collective and overlapped with the next layer's
  compute under a link/SM contention factor
  (:mod:`repro.parallel.overlap`); only the first layer's compute and
  the last layer's bucket stay exposed.

Pipeline parallelism (``pp > 1``) splits the layer stack into ``pp``
uniform stages (divisibility enforced up front), sends the boundary
activation point-to-point between stages, and runs ``micro_batches``
micro-batches through a Megatron-style 1F1B schedule with an explicit
``(pp - 1)``-window bubble term.  Data-parallel replicas do not change
single-pass latency — they multiply throughput — so ``dp`` only scales
the reported replica count here; the serving layer
(:mod:`repro.parallel.serving`) is where DP earns its keep.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any

import numpy as np

# repro.api never imports repro.parallel at module scope (only lazily
# inside compile_model), so this dependency direction is cycle-free.
from repro.api import ENGINES, CompiledModel, _resolve_masks
from repro.core.errors import ConfigError
from repro.core.fp16 import FP16_BYTES
from repro.core.units import format_time
from repro.gpu.specs import GPUSpec, get_spec
from repro.models.build import build_model
from repro.models.config import ModelConfig, get_model_config
from repro.obs.tracer import Tracer, use_tracer
from repro.parallel.overlap import (
    DEFAULT_CONTENTION,
    bubble_fraction,
    overlapped_layer_time,
    pipeline_bubble_time,
    pipeline_time,
)
from repro.parallel.shard import ShardConfig
from repro.plan import PlanCache


def validate_divisibility(cfg: ModelConfig, tp: int, pp: int = 1) -> None:
    """Refuse layouts whose ranks or stages would be asymmetric."""
    if cfg.heads % tp != 0:
        raise ConfigError(
            f"{cfg.name}: {cfg.heads} heads not divisible by tp={tp}"
        )
    if cfg.ffn_dim % tp != 0:
        raise ConfigError(
            f"{cfg.name}: ffn_dim {cfg.ffn_dim} not divisible by tp={tp}"
        )
    if cfg.total_layers % pp != 0:
        raise ConfigError(
            f"{cfg.name}: {cfg.total_layers} layers not divisible by "
            f"pp={pp}; pipeline stages must be uniform"
        )


def compile_sharded(
    model: "str | ModelConfig",
    batch: int,
    seq_len: int,
    parallel: "str | ShardConfig",
    device: "str | GPUSpec | None" = None,
    mask: "str | np.ndarray | None" = None,
    engine: Any = "stof",
    seed: int = 0,
    check_memory: bool = True,
    plan_cache: PlanCache | None = None,
    trace: Tracer | None = None,
    overlap: bool = True,
    micro_batches: int | None = None,
    contention: float = DEFAULT_CONTENTION,
    **engine_kwargs: Any,
) -> "ShardedCompiledModel":
    """Compile one workload under a tensor/pipeline/data-parallel layout.

    ``overlap`` selects the pricing mode (see the module docstring);
    ``overlap=False`` reproduces the serialized sync-point model bit for
    bit.  ``micro_batches`` (default: 8 when ``pp > 1``, else 1) sets the
    1F1B schedule's micro-batch count; ``contention`` the link/SM
    contention factor of each overlap window.
    """
    shard = ShardConfig.parse(parallel)
    cfg = get_model_config(model) if isinstance(model, str) else model
    validate_divisibility(cfg, shard.tp, shard.pp)
    if micro_batches is None:
        micro_batches = 8 if shard.pp > 1 else 1
    if micro_batches < 1:
        raise ConfigError(f"micro_batches must be >= 1, got {micro_batches}")
    device = "a100" if device is None else device
    mask = "bigbird" if mask is None else mask
    spec = get_spec(device) if isinstance(device, str) else device

    with use_tracer(trace) if trace is not None else nullcontext():
        inst = build_model(
            cfg, batch, seq_len, seed=seed,
            heads=cfg.heads // shard.tp,
            ffn_dim=cfg.ffn_dim // shard.tp,
        )
        masks, patterns = _resolve_masks(mask, inst, seed)

        if isinstance(engine, str):
            key = engine.strip().lower()
            if key not in ENGINES:
                raise ConfigError(
                    f"unknown engine {engine!r}; known: {sorted(ENGINES)}"
                )
            engine = ENGINES[key](**engine_kwargs)
        prepared = engine.prepare(inst, spec, masks, patterns)
        # The layout fingerprint rides in every PlanKey this rank emits,
        # so a tp4 rank never replays a tp2 plan out of a shared cache.
        prepared.shard = shard.fingerprint
        if plan_cache is not None:
            prepared.plan_cache = plan_cache
        report = prepared.plan(check_memory=check_memory)

        # Megatron sync points: one all-reduce of the full (tokens, hidden)
        # activation after each row-parallel projection — the attention
        # output projection (every attention site, so decoder cross-
        # attention counts) and the FFN's fc2 (every layer).
        ic = shard.interconnect()
        ar_bytes = batch * seq_len * cfg.hidden * FP16_BYTES
        ar_count = len(prepared.attention) + cfg.total_layers
        serial_comm = ar_count * ic.all_reduce_time(ar_bytes)

        timing = _price_timeline(
            shard, ic, report.time_s, cfg.total_layers, ar_bytes, ar_count,
            overlap, micro_batches, contention,
        )

        if trace is not None and trace.enabled:
            _record_spans(trace, shard, report.time_s, timing, ar_count,
                          ar_bytes, micro_batches, contention)

    return ShardedCompiledModel(
        instance=inst,
        prepared=prepared,
        report=report,
        masks=masks,
        seed=seed,
        shard=shard,
        overlap=overlap,
        micro_batches=micro_batches,
        contention=contention,
        comm_time_s=timing["comm_s"],
        serial_comm_time_s=serial_comm,
        serial_latency_s=report.time_s + serial_comm,
        total_latency_s=timing["latency_s"],
        p2p_time_s=timing["p2p_s"],
        bubble_time_s=timing["bubble_s"],
        ar_count=ar_count,
        ar_bytes=ar_bytes,
    )


def _price_timeline(
    shard: ShardConfig,
    ic,
    rank_time_s: float,
    n_layers: int,
    ar_bytes: int,
    ar_count: int,
    overlap: bool,
    micro_batches: int,
    contention: float,
) -> dict:
    """Price the layout's execution timeline in the requested mode.

    Returns ``latency_s`` (end-to-end), ``comm_s`` (collective seconds
    the representative rank pays), ``p2p_s`` (its pipeline sends) and
    ``bubble_s`` (the 1F1B fill/drain term).
    """
    pp, m = shard.pp, micro_batches
    if pp == 1 and not overlap:
        # The original serialized sync-point model, bit for bit.
        comm = ar_count * ic.all_reduce_time(ar_bytes)
        return {
            "latency_s": rank_time_s + comm,
            "comm_s": comm,
            "p2p_s": 0.0,
            "bubble_s": 0.0,
        }

    stage_layers = n_layers // pp
    stage_compute = rank_time_s / pp
    micro_compute = stage_compute / m
    # Bucketing: each layer's sync points (ar_count / n_layers of them,
    # 2 for encoders, 3 for decoder layers with cross-attention) fuse
    # into ONE collective — same bytes, one set of α hops.
    bucket_bytes = ar_bytes * ar_count / n_layers
    micro_layer_comm = ic.all_reduce_time(bucket_bytes / m)
    p2p_micro = (
        ic.point_to_point_time(ar_bytes / m) if pp > 1 else 0.0
    )
    if overlap:
        window = overlapped_layer_time(
            micro_compute, micro_layer_comm, stage_layers, contention
        )
    else:
        window = micro_compute + stage_layers * micro_layer_comm
    window += p2p_micro
    return {
        "latency_s": pipeline_time(window, m, pp),
        "comm_s": m * stage_layers * micro_layer_comm,
        "p2p_s": m * p2p_micro,
        "bubble_s": pipeline_bubble_time(window, m, pp),
    }


def _record_spans(
    trace: Tracer,
    shard: ShardConfig,
    rank_time_s: float,
    timing: dict,
    ar_count: int,
    ar_bytes: int,
    micro_batches: int,
    contention: float,
) -> None:
    """Lay the layout's comm on the compile trace's collectives lane."""
    if timing["comm_s"] <= 0 and timing["p2p_s"] <= 0:
        return
    trace.lane_names.setdefault(3, "collectives")
    if timing["comm_s"] > 0:
        trace.add_span(
            "tp.all_reduce",
            cat="comm",
            t0=rank_time_s,
            dur=timing["comm_s"],
            tid=3,
            link=shard.link.name,
            count=ar_count,
            payload_bytes=ar_bytes,
            overlapped=timing["latency_s"] < rank_time_s + timing["comm_s"],
            contention=contention,
        ).add_model_time(timing["comm_s"])
    if timing["p2p_s"] > 0:
        trace.add_span(
            "pp.send",
            cat="comm",
            t0=rank_time_s + timing["comm_s"],
            dur=timing["p2p_s"],
            tid=3,
            link=shard.p2p_link.name,
            stages=shard.pp,
            micro_batches=micro_batches,
        ).add_model_time(timing["p2p_s"])


@dataclass
class ShardedCompiledModel(CompiledModel):
    """One rank's compiled shard plus the layout's timeline costs."""

    shard: ShardConfig = ShardConfig()
    overlap: bool = True
    micro_batches: int = 1
    contention: float = DEFAULT_CONTENTION
    comm_time_s: float = 0.0
    serial_comm_time_s: float = 0.0
    serial_latency_s: float = 0.0
    total_latency_s: float = 0.0
    p2p_time_s: float = 0.0
    bubble_time_s: float = 0.0
    ar_count: int = 0
    ar_bytes: int = 0

    @property
    def rank_time_s(self) -> float:
        """Per-rank compute time (every TP rank runs the same plan)."""
        return self.report.time_s

    @property
    def latency_s(self) -> float:
        """Simulated forward-pass latency under the layout's pricing mode."""
        return self.total_latency_s

    @property
    def bubble_fraction(self) -> float:
        """Share of the pipeline makespan spent in the 1F1B bubble."""
        return bubble_fraction(self.micro_batches, self.shard.pp)

    @property
    def stage_memory_bytes(self) -> float:
        """Per-rank memory of one pipeline stage (uniform-stage split of
        the weights/activations the full-rank plan accounted)."""
        return self.report.memory_bytes / self.shard.pp

    def run(self, inputs=None) -> np.ndarray:
        raise ConfigError(
            "sharded plans are cost models, not functional executors; "
            "run the unsharded model (parallel=None) for outputs"
        )

    def summary(self) -> str:
        r = self.report
        mode = (
            f"overlapped (contention {self.contention:g})"
            if self.overlap else "serialized"
        )
        lines = [
            f"{self.instance.config.name} @ batch {self.instance.batch}, "
            f"seq {self.instance.seq_len} on {self.shard.world_size}x "
            f"{self.prepared.spec.name} ({self.shard.fingerprint})",
            f"engine: {self.engine_name}",
            f"latency: {format_time(self.latency_s)} {mode} "
            f"(per-rank compute {format_time(self.rank_time_s)}, "
            f"comm {format_time(self.comm_time_s)} over "
            f"{self.ar_count} all-reduces; "
            f"serialized {format_time(self.serial_latency_s)})",
        ]
        if self.shard.pp > 1:
            lines.append(
                f"pipeline: {self.shard.pp} stages x "
                f"{self.micro_batches} micro-batches, bubble "
                f"{format_time(self.bubble_time_s)} "
                f"({self.bubble_fraction:.1%} of makespan), "
                f"p2p {format_time(self.p2p_time_s)}"
            )
        lines += [
            f"kernel launches per rank: {r.kernel_launches}",
            f"memory per rank: {r.memory_bytes / 2**30:.2f} GiB"
            + (
                f" ({self.stage_memory_bytes / 2**30:.2f} GiB per stage)"
                if self.shard.pp > 1 else ""
            ),
        ]
        return "\n".join(lines)
