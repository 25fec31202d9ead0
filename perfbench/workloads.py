"""The four benchmark workloads, driven through the library's public API.

Each workload builds its inputs from the run's seed in ``setup`` and then
exposes one timed operation, ``op(i)``, over a fixed, ordered list of
inputs that the driver walks round-robin:

* ``fleet-steady`` / ``shard-sparse-preempt`` — one full-trace
  simulation of trace ``i`` of a seeded pool, with a fresh engine and
  plan cache (what every CLI run pays);
* ``mha-forward`` — one ``UnifiedMHA.run`` on shape ``i`` of the mix;
* ``compile-grid`` — one ``compile_model`` call on grid point ``i``.

``check`` validates an operation's output; ``fingerprint`` reads the
simulator's deterministic outputs (``sim.*``); ``layer_metrics`` derives
the per-operation figures the reports carry (preemptions, pages ...).
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace as dc_replace
from typing import Any

import numpy as np

import repro
from repro.codegen.cache import codegen_cache
from repro.core.fp16 import fp16_allclose
from repro.core.rng import RngStream
from repro.mha.reference import solve_reference
from repro.parallel.interconnect import clear_collective_cache
from repro.serving import ServingConfig
from repro.serving.metrics import percentile


def reset_memos() -> None:
    """Drop the process-global memos, so each operation starts cold.

    The collective-price ``lru_cache`` and the generated-code memory cache
    are the library's only process-wide memos; the disk tier of the code
    cache is off because ``STOF_CODEGEN_CACHE_DIR`` is unset.
    """
    clear_collective_cache()
    codegen_cache().clear_memory()


def canonical(obj: Any, skip: frozenset[str] = frozenset()) -> Any:
    """A comparable, NaN-safe rendering of a report, field by field.

    Fields hidden from ``repr``/``==`` (replica lists, plan-cache stats)
    are included; keys in ``skip`` are dropped at any depth.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(
            (f.name, canonical(getattr(obj, f.name), skip))
            for f in fields(obj)
            if f.name not in skip
        )
    if isinstance(obj, dict):
        return tuple(
            (k, canonical(v, skip)) for k, v in sorted(obj.items()) if k not in skip
        )
    if isinstance(obj, (list, tuple)):
        return tuple(canonical(v, skip) for v in obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _stratified(rng: RngStream, n: int, lo: int, hi: int) -> list[int]:
    """``n`` integers in ``[lo, hi]``, one from each of ``n`` equal strata,
    in random order: uniform marginals, far less spread in their sum."""
    u = (rng.permutation(n) + rng.random(n)) / n
    return [lo + int(x * (hi - lo + 1)) for x in u]


class ServingWorkload:
    """A pool of seeded traces, each simulated once per operation."""

    #: The summary line's name for the operation time, and its scale from ms.
    alias = ("sim_wall_s", 1e-3)
    #: Leading traced operations whose outputs form the ``sim.*`` record.
    fingerprint_ops = 1
    #: Check outputs after the timed loop instead of after each operation.
    check_after = False

    #: Traces generated per run; operations cycle through the pool, so
    #: each trace is simulated several times in a run.
    pool = 6

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.traces: list[list] = []

    @property
    def n_inputs(self) -> int:
        return len(self.traces)

    def setup(self) -> None:
        reset_memos()
        self.traces = [
            self.generate(RngStream(self.seed).fork(f"trace-{i}"))
            for i in range(self.pool)
        ]
        # One-per-process warm-up: lazy imports and first-call paths.
        self.simulate(self.traces[0][:8], self.seed)

    def op(self, i: int):
        reset_memos()
        return self.simulate(self.traces[i], self.seed * 1009 + i)

    def check(self, i: int, rep) -> list[str]:
        trace = self.traces[i]
        sharded = getattr(rep, "sharded", rep)
        by_id = {r.req_id: r for r in trace}
        errors = []
        done = sharded.requests
        if len(done) + sharded.rejected != len(trace):
            errors.append(
                f"{len(done)} finished + {sharded.rejected} rejected "
                f"!= {len(trace)} requests"
            )
        short = [m.req_id for m in done if m.tokens != by_id[m.req_id].max_new_tokens]
        if short:
            errors.append(f"requests {short[:5]} did not emit max_new_tokens")
        if sum(m.tokens for m in done) != sharded.total_tokens:
            errors.append("per-request tokens do not sum to the report total")
        bad = [m.req_id for m in done if not m.ttft_s >= 0.0]
        if bad:
            errors.append(f"requests {bad[:5]} have a negative or NaN TTFT")
        return errors

    def same(self, a, b) -> bool:
        return canonical(a) == canonical(b)

    def fingerprint(self, rep) -> dict[str, float]:
        sharded = getattr(rep, "sharded", rep)
        done = sharded.requests
        return {
            "sim.tokens": sharded.total_tokens,
            "sim.steps": sharded.total_steps,
            "sim.makespan_s": sharded.makespan_s,
            "sim.ttft_p50_s": sharded.ttft_p(50),
            "sim.ttft_p99_s": sharded.ttft_p(99),
            "sim.itl_p99_s": percentile(
                [m.itl_p99_s for m in done if m.tokens > 1], 99
            ),
            "sim.gpu_s": getattr(rep, "gpu_s", 0.0),
            "sim.comm_s": sharded.comm_s,
            "sim.rejected": sharded.rejected,
        }

    def layer_metrics(self, rep) -> dict[str, float]:
        sharded = getattr(rep, "sharded", rep)
        tokens = [r.total_tokens for r in sharded.replicas]
        logical = sharded.kv_peak_logical_pages
        stats = sharded.plan_cache or {}
        return {
            "tokens": sharded.total_tokens,
            "kv.preemptions": sharded.preemptions,
            "kv.peak_used_pages": sharded.kv_peak_used_pages,
            "kv.prefix_saved_frac": (
                1.0 - sharded.kv_peak_used_pages / logical if logical else 0.0
            ),
            "kv.cow_forks": sharded.cow_forks,
            "plan.hit_rate": stats.get("hit_rate", 0.0),
            "plan.entries": stats.get("entries", 0),
            "fleet.route_imbalance": max(tokens) / (sum(tokens) / len(tokens)),
            "fleet.scale_events": getattr(rep, "scale_events", 0),
        }


class FleetSteady(ServingWorkload):
    """``repro.serve()`` on an autoscaled tp1 fleet with ``SLOPolicy()``."""

    name = "fleet-steady"
    #: Short traces, many of them. The shared host alternates between a
    #: fast and a ~1.6x slower state, sometimes for only a fraction of a
    #: second; an operation of a few tenths of a second can land in a fast
    #: window where a one-second one rarely does. 100 requests still scale
    #: the fleet to 8 replicas, and the median over 8 traces evens out
    #: their cost differences (about 10% in engine steps).
    n_requests = 100
    pool = 8

    def generate(self, rng: RngStream) -> list:
        spec = repro.make_scenario(
            "steady", n_requests=self.n_requests, rate_rps=2000.0
        )
        return spec.generate(rng)

    def simulate(self, trace: list, seed: int):
        fleet = repro.FleetConfig(
            shard=repro.ShardConfig(tp=1),
            autoscale=True,
            min_replicas=1,
            max_replicas=8,
        )
        return repro.serve(
            "bert-base", trace, fleet=fleet, slo=repro.SLOPolicy(), seed=seed
        )


class ShardSparsePreempt(ServingWorkload):
    """Fixed tp2 dp2 fleet, continuous batching, random bigbird masks under
    KV pressure (reserve failures, preemption, recompute)."""

    name = "shard-sparse-preempt"
    #: Enough concurrent requests to overrun the KV cache and preempt.
    n_requests = 32
    pool = 3
    config = ServingConfig(
        heads=32, head_size=128, n_layers=32, kv_capacity_frac=0.05
    )

    def generate(self, rng: RngStream) -> list:
        trace = repro.serving.synthetic_trace(
            self.n_requests,
            100.0,
            rng=rng,
            prompt_range=(128, 1024),
            max_new_range=(128, 512),
            pattern="bigbird",
        )
        # Stratified lengths over the same ranges, in seeded order: with
        # 32 i.i.d. draws a trace's cost varied by up to a third between
        # seeds (prefill planning grows with the square of the prompt),
        # which would swamp the host-time differences under test.
        prompts = _stratified(rng.fork("prompt-strata"), len(trace), 128, 1024)
        new = _stratified(rng.fork("new-strata"), len(trace), 128, 512)
        return [
            dc_replace(r, prompt_len=p, max_new_tokens=m)
            for r, p, m in zip(trace, prompts, new)
        ]

    def simulate(self, trace: list, seed: int):
        fleet = repro.FleetConfig(
            shard=repro.ShardConfig.parse("tp2dp2:nvlink"), route="least-loaded"
        )
        return repro.serve(
            self.config, trace, fleet=fleet, policy="continuous", seed=seed
        )


class MHAForward:
    """``UnifiedMHA(spec).run(problem)`` with the default ``exec_backend``
    over the Fig. 10/11 shapes: 12 heads x 64, four patterns."""

    name = "mha-forward"
    alias = ("forward_ms", 1.0)
    fingerprint_ops = 1
    # The reference costs as much as the operation: check each input's
    # last output once, outside the timed calls.
    check_after = True
    patterns = ("sliding_window", "dilated", "longformer", "bigbird")
    shapes = ((1, 128), (1, 512), (8, 128), (8, 512))

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.problems: list = []
        self.mha = None

    @property
    def n_inputs(self) -> int:
        return len(self.problems)

    def setup(self) -> None:
        reset_memos()
        self.mha = repro.UnifiedMHA(repro.get_spec("a100"))
        self.problems = [
            repro.AttentionProblem.build(
                pattern, batch, 12, seq, 64,
                rng=RngStream(self.seed).fork(f"{pattern}-{batch}-{seq}"),
                with_tensors=True,
            )
            for batch, seq in self.shapes
            for pattern in self.patterns
        ]
        # Warm-up: the first run per shape builds the mask views (and emits
        # code when codegen is the default backend).
        for problem in self.problems:
            self.mha.run(problem)

    def op(self, i: int) -> np.ndarray:
        return self.mha.run(self.problems[i])

    def check(self, i: int, out: np.ndarray) -> list[str]:
        # solve_reference one batch element at a time: the same FP32
        # reference with an eighth of the score matrix resident, so the
        # check does not set the process's peak memory.
        p = self.problems[i]
        ok = out.shape == p.qkv_shape and all(
            fp16_allclose(out[b], solve_reference(repro.AttentionProblem(
                batch=1, heads=p.heads, seq_len=p.seq_len, head_size=p.head_size,
                mask=p.mask, q=p.q[b:b + 1], k=p.k[b:b + 1], v=p.v[b:b + 1],
            ))[0])
            for b in range(p.batch)
        )
        if not ok:
            return [f"{p.pattern} {p.batch}x{p.seq_len}: output differs from reference"]
        return []

    def same(self, a, b) -> bool:
        return np.array_equal(a, b)

    def fingerprint(self, out) -> dict[str, float]:
        return {}

    def layer_metrics(self, out) -> dict[str, float]:
        return {}


class CompileGrid:
    """STOF ``compile_model`` over the Fig. 12 grid."""

    name = "compile-grid"
    alias = ("compile_s", 1e-3)
    fingerprint_ops = 3
    check_after = False
    models = ("bert-small", "bert-base", "bert-large", "gpt", "t5")
    shapes = ((1, 128), (8, 512), (16, 2048))
    masks = ("sliding_window", "bigbird")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        grid = [
            (model, batch, seq, mask)
            for model in self.models
            for batch, seq in self.shapes
            for mask in self.masks
        ]
        # A fixed stride permutation (7 is coprime with 30): consecutive
        # operations differ in model and size, so the first grid points
        # (the ``compile.latency_s_sum`` fingerprint) span the grid.
        self.grid = [grid[(k * 7) % len(grid)] for k in range(len(grid))]

    @property
    def n_inputs(self) -> int:
        return len(self.grid)

    def setup(self) -> None:
        reset_memos()
        repro.compile_model("bert-small", 1, 128, mask="bigbird", seed=self.seed)

    def op(self, i: int):
        reset_memos()
        model, batch, seq, mask = self.grid[i]
        return repro.compile_model(model, batch, seq, mask=mask, seed=self.seed)

    def check(self, i: int, compiled) -> list[str]:
        if not compiled.latency_s > 0:
            return [f"{self.grid[i]}: latency {compiled.latency_s} is not > 0"]
        return []

    def same(self, a, b) -> bool:
        # The host-overhead breakdown is wall-clock (Fig. 14); every other
        # field of the report is simulated and must match exactly.
        skip = frozenset({"overhead"})
        return canonical(a.report, skip) == canonical(b.report, skip)

    def fingerprint(self, compiled) -> dict[str, float]:
        return {"compile.latency_s_sum": compiled.latency_s}

    def layer_metrics(self, compiled) -> dict[str, float]:
        return {}


WORKLOADS = {
    cls.name: cls for cls in (FleetSteady, ShardSparsePreempt, MHAForward, CompileGrid)
}
