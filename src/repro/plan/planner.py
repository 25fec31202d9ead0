"""Plan compilation helpers.

``compile_launches`` and ``compile_kernel_plan`` are the generic
compile-through-cache primitives every site builds on: key the decision,
replay it from the cache when the key matches, otherwise derive it once
(identically to the pre-cache code path) and store it.

This module deliberately does not import :mod:`repro.mha` (the MHA
selector itself imports :mod:`repro.plan`); attention-specific
compilation lives in :func:`repro.mha.selector.compile_attention_plan`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.gpu.cost import estimate_kernel_time
from repro.plan.cache import PlanCache
from repro.plan.compiled import CompiledPlan, Launch
from repro.plan.key import PlanKey


def compile_launches(
    key: PlanKey,
    build: Callable[[], list[Launch]],
    cache: PlanCache | None = None,
    kernel_name: str = "",
    spec: Any = None,
) -> CompiledPlan:
    """Wrap a launch-list builder into a cached :class:`CompiledPlan`.

    ``build`` must be pure in the key: two calls under equal keys must
    produce equal launch lists (that is the content-addressing contract).
    When ``spec`` is given the plan's ``estimated_s`` is priced through
    :func:`~repro.gpu.cost.estimate_kernel_time`.
    """

    def make() -> CompiledPlan:
        launches = build()
        est = 0.0
        if spec is not None:
            est = sum(
                estimate_kernel_time(spec, cost, cfg).total for cost, cfg in launches
            )
        return CompiledPlan(
            kernel_name=kernel_name,
            launches=launches,
            estimated_s=est,
            key=key,
        )

    if cache is None:
        return make()
    return cache.get_or_build(key, make)


def compile_kernel_plan(
    kernel: Any,
    problem: Any,
    spec: Any,
    params: dict[str, Any] | None = None,
    cache: PlanCache | None = None,
    kind: str = "kernel",
    salt: str = "",
    shard: str = "",
) -> CompiledPlan:
    """Compile (or replay) one kernel's plan for one attention problem.

    The key covers problem geometry + mask content + device + params, so
    a hit is exactly the plan the kernel would re-derive.  The live
    ``kernel`` object is re-bound on hits (it never travels through the
    cache's persisted form).  ``shard`` carries the parallel-layout
    fingerprint for per-rank plans ("" when unsharded).
    """
    key = PlanKey.for_problem(
        kind, problem, spec, params=params, salt=salt or kernel.name, shard=shard
    )

    def make() -> CompiledPlan:
        launches = kernel.plan(problem, spec, params)
        est = sum(
            estimate_kernel_time(spec, cost, cfg).total for cost, cfg in launches
        )
        return CompiledPlan(
            kernel_name=kernel.name,
            params=dict(params) if params else None,
            launches=launches,
            estimated_s=est,
            key=key,
        )

    plan = make() if cache is None else cache.get_or_build(key, make)
    if plan.kernel is None:
        plan.kernel = kernel
    return plan
