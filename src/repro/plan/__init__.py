"""The unified compiled-plan layer (shared by selector, executors, tuner,
and serving).

The paper's architecture is "decide once, execute many": the §4.2
analytical selector, the §4.4 two-stage tuner with its performance cache,
and the runtime all derive a kernel decision from the same
(problem, device, params) inputs.  This package gives that decision a
first-class, *content-addressed* artifact:

* :class:`PlanKey` — a canonical, hashable signature of problem shape +
  mask identity + device spec + parameters.  Two keys are equal iff
  re-deriving the plan would produce the same result, and the
  :attr:`PlanKey.digest` is stable across processes (no
  ``id()``/``repr`` leakage, no ``PYTHONHASHSEED`` dependence).
* :mod:`repro.plan.symbolic` — guarded shape families
  (TorchDynamo-style): :class:`SymbolicPlanKey` leaves named dims free
  under a :class:`GuardSet`, so one cached artifact covers every shape
  its guards admit.  Two sites key families: the serving engine
  (:class:`BucketGuard` over decode and prefill-chunk positions) and codegen
  (:class:`BoundGuard` from a :class:`GuardRecorder`) — see
  ``docs/symbolic_shapes.md``.
* :class:`CompiledPlan` — the reusable decision: kernel choice,
  parameters, priced launches, estimated time, workspace/SMEM footprint.
* :class:`PlanCache` — a bounded LRU mapping keys to plans (or any other
  derived planning artifact: tuner measurements, serving row statistics)
  with per-kind hit/miss/eviction statistics and JSON persistence for
  warm starts.
* :func:`compile_launches` / :func:`compile_kernel_plan` — derive a plan
  once per key through a cache.

Downstream consumers: :mod:`repro.mha.selector` (compiles attention
plans), :mod:`repro.runtime.executor` (composes per-site plans for a
whole model), :mod:`repro.tuner.cache` (layers the performance cache on
:class:`PlanCache` keys), and :mod:`repro.serving.engine` (memoizes
prefill and decode planning across engine steps).
"""

from repro.plan.cache import PlanCache
from repro.plan.compiled import CompiledPlan
from repro.plan.key import (
    PlanKey,
    adapter_fingerprint,
    mask_fingerprint,
    params_key,
    spec_fingerprint,
)
from repro.plan.planner import compile_kernel_plan, compile_launches
from repro.plan.symbolic import (
    BoundGuard,
    BucketGuard,
    GuardRecorder,
    GuardSet,
    SymbolicPlanKey,
    guard_from_dict,
    guard_to_dict,
)

__all__ = [
    "BoundGuard",
    "BucketGuard",
    "CompiledPlan",
    "GuardRecorder",
    "GuardSet",
    "PlanCache",
    "PlanKey",
    "SymbolicPlanKey",
    "compile_kernel_plan",
    "compile_launches",
    "guard_from_dict",
    "guard_to_dict",
    "adapter_fingerprint",
    "mask_fingerprint",
    "params_key",
    "spec_fingerprint",
]
