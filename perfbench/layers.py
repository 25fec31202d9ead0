"""Per-layer host timing, measured from outside the library.

The traced run wraps the entry points of each layer and records, per
metric name, the call count, the inclusive host seconds and the self
seconds (inclusive minus the time of timed calls nested inside it).
Nothing under ``src/`` changes: the wrappers are installed by rebinding
every place a target is reachable from, and removed again afterwards.

* A module-level function is rebound in *every* loaded ``repro`` module
  that holds it, because ``from x import f`` copies the binding (for
  example ``serving/engine.py`` binds ``estimate_kernel_time`` by name).
  Imports inside function bodies resolve through the defining module and
  are covered by that module's binding.
* A method is rebound on its class and on every loaded subclass that
  overrides it, so ``SLOScheduler.admit`` is timed as ``sched.admit`` too.
* A nested call under the same metric name (``TPServingEngine.run``
  calling ``ServingEngine.run``) is passed through: only the outermost
  call is counted.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Modules imported before installing, so every subclass and every
#: ``from ... import`` binding site exists when the sites are scanned.
PRELOAD = (
    "repro",
    "repro.api",
    "repro.cli",
    "repro.codegen.backend",
    "repro.parallel.serving",
    "repro.parallel.compile",
    "repro.serving.slo",
    "repro.runtime.stof",
    "repro.tuner.engine",
)


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Observer accumulators (failed reserves, simulated steps, bytes ...).
    extra: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value


def _kv_reserve(stat: Stat, args, kwargs, result, pre) -> None:
    if result is False:
        stat.add("fail", 1)


def _engine_run(stat: Stat, args, kwargs, result, pre) -> None:
    stat.add("steps", result.total_steps)


def _dense_bytes(stat: Stat, args, kwargs, result, pre) -> None:
    stat.add("bytes", result.nbytes)


def _kernel_run(stat: Stat, args, kwargs, result, pre) -> None:
    # Computed from the problem's shape, not measured: two GEMM-like
    # passes over the nonzeros (QK^T and PV, 2 flops per multiply-add),
    # and fp16 Q/O rows plus one gathered K and V row per nonzero score.
    p = args[1]
    d = p.head_size
    stat.add("flops", 4.0 * p.n_bh * p.nnz * d)
    stat.add("bytes", 2.0 * p.n_bh * (2 * p.seq_len * d + 2 * p.nnz * d))


def _cache_misses(args, kwargs) -> int:
    return args[0].misses


def _get_or_build(stat: Stat, args, kwargs, result, pre) -> None:
    stat.add("misses", args[0].misses - pre)


#: (metric name, module, attribute path, observer, pre-call hook)
TARGETS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("workload.generate", "repro.serving.workload", "WorkloadSpec.generate", None, None),
    ("workload.generate", "repro.serving.request", "synthetic_trace", None, None),
    ("sched.admit", "repro.serving.scheduler", "Scheduler.admit", None, None),
    ("sched.deadline_victims", "repro.serving.scheduler", "Scheduler.deadline_victims", None, None),
    ("slo.target_for", "repro.serving.slo", "SLOPolicy.target_for", None, None),
    ("kv.reserve", "repro.serving.kvcache", "PagedKVCache.reserve", _kv_reserve, None),
    ("kv.release", "repro.serving.kvcache", "PagedKVCache.release", None, None),
    ("plan.get_or_build", "repro.plan.cache", "PlanCache.get_or_build", _get_or_build, _cache_misses),
    ("plan.find_family", "repro.plan.cache", "PlanCache.find_family", None, None),
    ("plan.mask_fingerprint", "repro.plan.key", "mask_fingerprint", None, None),
    ("masks.make_pattern", "repro.masks.patterns", "make_pattern", _dense_bytes, None),
    ("masks.causal_mask", "repro.masks.patterns", "causal_mask", _dense_bytes, None),
    ("masks.bsr_from_dense", "repro.masks.bsr", "BlockSparseMask.from_dense", None, None),
    ("mha.plan", "repro.mha.selector", "compile_attention_plan", None, None),
    # STOF's runtime binds attention through the selector directly.
    ("mha.plan", "repro.mha.selector", "select_kernel", None, None),
    ("mha.rowwise_launches", "repro.mha.rowwise", "plan_rowwise_launches", None, None),
    ("gpu.estimate_kernel_time", "repro.gpu.cost", "estimate_kernel_time", None, None),
    ("mha.rowwise_run", "repro.mha.rowwise", "RowWiseKernel.run", _kernel_run, None),
    ("mha.blockwise_run", "repro.mha.blockwise", "BlockWiseKernel.run", _kernel_run, None),
    ("codegen.emit", "repro.codegen.backend", "generated_kernel", None, None),
    ("codegen.emit", "repro.codegen.backend", "generated_family_kernel", None, None),
    ("codegen.specialize", "repro.codegen.blockwise", "specialize_blockwise", None, None),
    ("codegen.specialize", "repro.codegen.rowwise", "specialize_rowwise", None, None),
    ("engine.run", "repro.serving.engine", "ServingEngine.run", _engine_run, None),
    ("fleet.run", "repro.parallel.serving", "ShardedServingEngine.run", None, None),
    ("fleet.run", "repro.parallel.serving", "AutoscalingServingEngine.run", None, None),
    ("fleet.probe", "repro.parallel.serving", "AutoscalingServingEngine._probe_capacity", None, None),
    ("comm", "repro.parallel.overlap", "overlapped_layer_time", None, None),
    ("comm", "repro.parallel.interconnect", "Interconnect.all_reduce_time", None, None),
    ("metrics.tenant_reports", "repro.serving.metrics", "tenant_reports", None, None),
    ("metrics.from_tracker", "repro.serving.metrics", "RequestMetrics.from_tracker", None, None),
    ("graph.build_model", "repro.models.build", "build_model", None, None),
    ("runtime.prepare", "repro.runtime.frameworks", "Engine.prepare", None, None),
    ("runtime.plan", "repro.runtime.executor", "PreparedModel.plan", None, None),
    ("tuner.tune_chain", "repro.tuner.engine", "TwoStageEngine.tune_chain", None, None),
)

NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))


def _subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


class Recorder:
    """Installs the wrappers and accumulates :class:`Stat` per name.

    ``phase`` selects the table calls are recorded into, so set-up work
    (trace generation, warm-up) is kept apart from the timed operations.
    """

    def __init__(self) -> None:
        for mod in PRELOAD:
            importlib.import_module(mod)
        self.tables: dict[str, dict[str, Stat]] = {}
        self.phase = "ops"
        self._stack: list[list[float]] = []
        self._active: set[str] = set()
        #: (owner, attribute, original, wrapped) for every rebinding.
        self._sites: list[tuple[Any, str, Any, Any]] = []
        wrapped: dict[int, Any] = {}
        for name, mod_name, path, observe, pre in TARGETS:
            owner = importlib.import_module(mod_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                for cls in _subclasses(owner):
                    raw = cls.__dict__.get(attr)
                    if raw is None:
                        continue
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__, observe, pre))
                    else:
                        new = self._wrap(name, raw, observe, pre)
                    self._sites.append((cls, attr, raw, new))
            else:
                original = getattr(owner, attr)
                new = wrapped.setdefault(
                    id(original), self._wrap(name, original, observe, pre)
                )
                for module in list(sys.modules.values()):
                    mname = getattr(module, "__name__", "")
                    if mname != "repro" and not mname.startswith("repro."):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._sites.append((module, key, original, new))

    def table(self, phase: str) -> dict[str, Stat]:
        return self.tables.setdefault(phase, {n: Stat() for n in NAMES})

    def install(self) -> None:
        for owner, attr, _orig, new in self._sites:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig, _new in self._sites:
            setattr(owner, attr, orig)

    def _wrap(self, name: str, fn: Callable, observe, pre) -> Callable:
        stack = self._stack
        active = self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            stat = self.table(self.phase)[name]
            state = pre(args, kwargs) if pre is not None else None
            active.add(name)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active.discard(name)
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                observe(stat, args, kwargs, result, state)
            return result

        return wrapper


#: Every per-layer metric a traced run prints, with its unit.  ``_s`` and
#: ``.calls`` figures are per timed operation, except those of
#: ``workload.generate`` (one set-up) and ``codegen.*`` (set-up plus
#: operations: emission is a once-per-process cost).
PER_LAYER = (
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.traced_ops", "count"),
    ("workload.generate.calls", "count"),
    ("workload.generate_s", "s"),
    ("sched.admit.calls", "count"),
    ("sched.admit_s", "s"),
    ("sched.deadline_victims_s", "s"),
    ("slo.target_for.calls", "count"),
    ("slo.target_for_s", "s"),
    ("kv.reserve.calls", "count"),
    ("kv.reserve_s", "s"),
    ("kv.reserve.fail_frac", "ratio"),
    ("kv.release_s", "s"),
    ("kv.preemptions", "count"),
    ("kv.peak_used_pages", "count"),
    ("kv.prefix_saved_frac", "ratio"),
    ("kv.cow_forks", "count"),
    ("plan.get_or_build.calls", "count"),
    ("plan.get_or_build_s", "s"),
    ("plan.find_family_s", "s"),
    ("plan.mask_fingerprint_s", "s"),
    ("plan.lookups_per_token", "ratio"),
    ("plan.hit_rate", "ratio"),
    ("plan.entries", "count"),
    ("masks.make_pattern_s", "s"),
    ("masks.causal_mask_s", "s"),
    ("masks.bsr_from_dense.calls", "count"),
    ("masks.bsr_from_dense_s", "s"),
    ("masks.dense_bytes", "bytes"),
    ("mha.plan.calls", "count"),
    ("mha.plan_s", "s"),
    ("mha.rowwise_launches_s", "s"),
    ("gpu.estimate_kernel_time.calls", "count"),
    ("gpu.estimate_kernel_time_s", "s"),
    ("mha.rowwise_run.calls", "count"),
    ("mha.blockwise_run.calls", "count"),
    ("mha.rowwise_run_s", "s"),
    ("mha.blockwise_run_s", "s"),
    ("mha.rowwise_frac", "ratio"),
    ("mha.bytes_per_call", "bytes"),
    ("mha.flops_per_call", "flop"),
    ("codegen.emits", "count"),
    ("codegen.emit_s", "s"),
    ("engine.run.calls", "count"),
    ("engine.self_s", "s"),
    ("engine.steps", "count"),
    ("engine.host_us_per_step", "us"),
    ("fleet.run.calls", "count"),
    ("fleet.self_s", "s"),
    ("fleet.probe_s", "s"),
    ("fleet.route_imbalance", "ratio"),
    ("fleet.scale_events", "count"),
    ("comm.calls", "count"),
    ("comm_s", "s"),
    ("metrics.tenant_reports.calls", "count"),
    ("metrics.tenant_reports_s", "s"),
    ("metrics.from_tracker_s", "s"),
    ("graph.build_model_s", "s"),
    ("runtime.prepare_s", "s"),
    ("runtime.plan_s", "s"),
    ("tuner.tune_chain.calls", "count"),
    ("tuner.tune_chain_s", "s"),
    ("sim.tokens", "count"),
    ("sim.steps", "count"),
    ("sim.makespan_s", "s"),
    ("sim.ttft_p50_s", "s"),
    ("sim.ttft_p99_s", "s"),
    ("sim.itl_p99_s", "s"),
    ("sim.gpu_s", "gpu-s"),
    ("sim.comm_s", "s"),
    ("sim.rejected", "count"),
    ("compile.latency_s_sum", "s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(
    recorder: Recorder,
    n_ops: int,
    ratios: list[float],
    report_sums: dict[str, float],
    fingerprint: dict[str, float],
) -> dict[str, float]:
    """The ``PER_LAYER`` figures of one traced run."""
    import statistics

    ops = recorder.table("ops")
    setup = recorder.table("setup")
    out: dict[str, float] = {}
    for name, stat in ops.items():
        out[f"{name}.calls"] = _ratio(stat.calls, n_ops)
        out[f"{name}_s"] = _ratio(stat.total_s, n_ops)
    gen = setup["workload.generate"]
    out["workload.generate.calls"] = gen.calls
    out["workload.generate_s"] = gen.total_s
    out["codegen.emits"] = (
        setup["codegen.specialize"].calls + ops["codegen.specialize"].calls
    )
    out["codegen.emit_s"] = setup["codegen.emit"].total_s + ops["codegen.emit"].total_s

    reserve = ops["kv.reserve"]
    out["kv.reserve.fail_frac"] = _ratio(reserve.extra.get("fail", 0.0), reserve.calls)
    for key in ("kv.preemptions", "kv.peak_used_pages", "kv.prefix_saved_frac",
                "kv.cow_forks", "fleet.route_imbalance", "fleet.scale_events",
                "plan.hit_rate", "plan.entries"):
        out[key] = _ratio(report_sums.get(key, 0.0), n_ops)
    lookups = ops["plan.get_or_build"]
    out["plan.lookups_per_token"] = _ratio(lookups.calls, report_sums.get("tokens", 0.0))
    if "plan.hit_rate" not in report_sums:
        # No report carries cache statistics (compile-grid): count misses
        # at the lookup itself.
        misses = lookups.extra.get("misses", 0.0)
        out["plan.hit_rate"] = _ratio(lookups.calls - misses, lookups.calls)
        out["plan.entries"] = _ratio(misses, n_ops)

    out["masks.dense_bytes"] = _ratio(
        ops["masks.make_pattern"].extra.get("bytes", 0.0)
        + ops["masks.causal_mask"].extra.get("bytes", 0.0),
        n_ops,
    )
    row, block = ops["mha.rowwise_run"], ops["mha.blockwise_run"]
    kernel_calls = row.calls + block.calls
    out["mha.rowwise_frac"] = _ratio(row.calls, kernel_calls)
    for key in ("bytes", "flops"):
        total = row.extra.get(key, 0.0) + block.extra.get(key, 0.0)
        out[f"mha.{key}_per_call"] = _ratio(total, kernel_calls)

    engine = ops["engine.run"]
    steps = engine.extra.get("steps", 0.0)
    out["engine.self_s"] = _ratio(engine.self_s, n_ops)
    out["engine.steps"] = _ratio(steps, n_ops)
    out["engine.host_us_per_step"] = _ratio(engine.total_s, steps) * 1e6
    out["fleet.self_s"] = _ratio(ops["fleet.run"].self_s, n_ops)
    out["fleet.probe_s"] = _ratio(ops["fleet.probe"].total_s, n_ops)

    out["bench.trace_overhead_frac"] = statistics.median(ratios) - 1.0 if ratios else 0.0
    out["bench.traced_ops"] = n_ops
    for name, _unit in PER_LAYER:
        if name.startswith(("sim.", "compile.")):
            out[name] = fingerprint.get(name, 0.0)
    return {name: out[name] for name, _unit in PER_LAYER}


def check_predictions(recorder: Recorder, workload: str, path) -> list[str]:
    """Calls seen where ``predictions.json`` says none, and vice versa."""
    import json

    with open(path) as fh:
        layers = json.load(fh)["layers"]
    misses = []
    for name, pred in layers.items():
        phase = pred.get("phase", "ops")
        phases = ("setup", "ops") if phase == "all" else (phase,)
        calls = sum(recorder.table(p)[name].calls for p in phases)
        if workload in pred["fires"] and calls == 0:
            misses.append(f"prediction: {name} should fire on {workload}, saw 0 calls")
        if workload in pred["zero"] and calls:
            misses.append(
                f"prediction: {name} should not run on {workload}, saw {calls} calls"
            )
    return misses
