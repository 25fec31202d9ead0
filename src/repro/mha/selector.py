"""The analytical kernel-selection model (paper §4.2, Eqs. 1-2).

Two selector modes are provided:

* ``mode="paper"`` — Eq. 1 and Eq. 2 implemented verbatim:

      threshold = n_valid / n_rows^2  -  tau / (log2 n_rows)^2          (Eq. 1)

  at a hard-coded 16x16 granularity with ``tau = 1.2``; ``threshold < 0``
  selects the row-wise kernel.  For the block-wise kernel:

      req_SMEM = (2*BM + BN) * (w + padding) + BM * (BN + padding)
      OCC      = num_warps * min(SMEM_SIZE/req_SMEM, MAX_WARP/num_warps)
                 / MAX_WARP                                             (Eq. 2)
      score    = OCC * sqrt(SM_NUM / BM * seq_len * h * bs / BM)

  choosing the highest score.

* ``mode="model"`` (STOF's default here) — the same decision made by
  evaluating the device cost model analytically: both kernels are priced
  by :func:`repro.gpu.cost.estimate_kernel_time`, every feasible block
  setting in one array pass by its twin
  :func:`repro.gpu.cost.estimate_kernel_times`, and the cheapest wins.  No
  execution is involved; this *is* an analytical model, parameterized by
  the hardware spec exactly as the paper's is.

Why both: under our simulated substrate, verbatim Eq. 2's score is monotone
in ``1/BLOCK_M`` and always degenerates to (16, 16), while the substrate's
optimum moves to larger blocks at scale (as the paper's own evaluation
implies).  EXPERIMENTS.md quantifies the gap; the tests pin both modes.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.errors import ConfigError
from repro.core.fp16 import FP16_BYTES
from repro.gpu.cost import estimate_kernel_time
from repro.gpu.specs import GPUSpec
from repro.mha.blockwise import (
    DEFAULT_PADDING,
    BlockWiseKernel,
    required_smem_elems,
)
from repro.mha.kernel import AttentionKernel
from repro.mha.problem import AttentionProblem
from repro.mha.rowwise import RowWiseKernel
from repro.obs.tracer import current_tracer
from repro.plan import CompiledPlan, PlanCache, PlanKey

#: Paper's empirical coefficient in Eq. 1.
TAU = 1.2

#: Eq. 1's hard-coded granularity for the valid-block ratio.
EQ1_BLOCK = 16


class KernelChoice(enum.Enum):
    ROW_WISE = "row-wise"
    BLOCK_WISE = "block-wise"


def eq1_threshold(problem: AttentionProblem, tau: float = TAU) -> float:
    """Paper Eq. 1, verbatim.

    Uses ``load_row_ptr`` of the 16x16 BSR view: the numerator of the first
    term is the total count of valid ("full" + "part") blocks.
    """
    bsr = problem.bsr(EQ1_BLOCK, EQ1_BLOCK)
    n_rows = bsr.n_block_rows
    if n_rows < 2:
        # log2(1) = 0 would divide by zero; a single block row is by
        # definition the small-input regime Eq. 1 routes to row-wise.
        return -math.inf
    valid_ratio = float(bsr.load_row_ptr[-1]) / float(n_rows * n_rows)
    penalty = tau / (math.log2(n_rows) ** 2)
    return valid_ratio - penalty


@dataclass(frozen=True)
class Eq2Candidate:
    """One scored setting from the Eq. 2 sweep (kept for introspection)."""

    block_m: int
    block_n: int
    num_warps: int
    req_smem_bytes: int
    occ: float
    score: float


def eq2_score(
    problem: AttentionProblem,
    spec: GPUSpec,
    block_m: int,
    block_n: int,
    num_warps: int,
    padding: int = DEFAULT_PADDING,
) -> Eq2Candidate:
    """Paper Eq. 2, verbatim, for one candidate setting."""
    req_elems = required_smem_elems(block_m, block_n, problem.head_size, padding)
    req_bytes = req_elems * FP16_BYTES
    occ = (
        num_warps
        * min(spec.smem_carveout_per_sm / req_bytes, spec.max_warps_per_sm / num_warps)
        / spec.max_warps_per_sm
    )
    score = occ * math.sqrt(
        (spec.sm_count / block_m)
        * (problem.seq_len * problem.heads * problem.batch / block_m)
    )
    return Eq2Candidate(
        block_m=block_m,
        block_n=block_n,
        num_warps=num_warps,
        req_smem_bytes=req_bytes,
        occ=occ,
        score=score,
    )


def _feasible_settings(
    problem: AttentionProblem, spec: GPUSpec, padding: int
) -> list[tuple[int, int, int]]:
    """All (BM, BN, warps) settings that fit in SMEM and the sequence."""
    out = []
    for bm in (16, 32, 64, 128):
        if bm > max(16, problem.seq_len):
            continue
        for bn in (16, 32, 64, 128):
            if bn > max(16, problem.seq_len):
                continue
            req = required_smem_elems(bm, bn, problem.head_size, padding) * FP16_BYTES
            if req > spec.smem_carveout_per_sm:
                continue
            for warps in (1, 2, 4, 8):
                out.append((bm, bn, warps))
    if not out:
        raise ConfigError(
            f"no feasible block-wise setting fits in SMEM for head_size="
            f"{problem.head_size} on {spec.name}"
        )
    return out


def eq2_candidates(
    problem: AttentionProblem,
    spec: GPUSpec,
    padding: int = DEFAULT_PADDING,
) -> list[Eq2Candidate]:
    """All feasible Eq. 2 candidates, best score first."""
    cands = [
        eq2_score(problem, spec, bm, bn, warps, padding)
        for bm, bn, warps in _feasible_settings(problem, spec, padding)
    ]
    cands.sort(key=lambda c: c.score, reverse=True)
    return cands


def select_block_params(
    problem: AttentionProblem,
    spec: GPUSpec,
    padding: int = DEFAULT_PADDING,
    mode: str = "model",
) -> dict[str, Any]:
    """Block-wise kernel parameters by analytical selection.

    ``mode="paper"``: Eq. 2's arg-max.  ``mode="model"``: cheapest setting
    under the device cost model (still purely analytical), every tiling
    priced from :meth:`AttentionProblem.block_counts`, so no candidate
    builds its own BSR, and every setting priced in one array pass
    (:meth:`BlockWiseKernel.setting_times`); a setting whose launch does
    not fit on an SM is skipped.
    """
    if mode == "paper":
        best = eq2_candidates(problem, spec, padding)[0]
        return {
            "block_m": best.block_m,
            "block_n": best.block_n,
            "num_warps": best.num_warps,
            "padding": padding,
        }
    if mode == "model":
        settings = _feasible_settings(problem, spec, padding)
        times = _BLOCK.setting_times(problem, spec, settings, padding)
        # argmin keeps the first of equal times, as a strict-``<`` scan does.
        best = int(np.argmin(times))
        if times[best] == math.inf:
            raise ConfigError("no feasible block-wise launch configuration")
        bm, bn, warps = settings[best]
        return {"block_m": bm, "block_n": bn, "num_warps": warps, "padding": padding}
    raise ConfigError(f"unknown selector mode {mode!r}")


def select_kernel(
    problem: AttentionProblem,
    spec: GPUSpec,
    tau: float = TAU,
    mode: str = "model",
) -> tuple[KernelChoice, dict[str, Any]]:
    """Pick the MHA kernel (and its parameters) for a problem.

    ``mode="paper"`` applies Eq. 1 verbatim; ``mode="model"`` compares the
    two kernels under the device cost model.  Returns
    ``(KernelChoice, params)``.
    """
    if mode == "paper":
        if eq1_threshold(problem, tau) < 0.0:
            kernel = RowWiseKernel()
            return KernelChoice.ROW_WISE, kernel.default_params(problem, spec)
        return KernelChoice.BLOCK_WISE, select_block_params(
            problem, spec, mode="paper"
        )

    if mode == "model":
        row = RowWiseKernel()
        row_params = row.default_params(problem, spec)
        block_params = select_block_params(problem, spec, mode="model")
        t_row = row.estimate_time(problem, spec, row_params)
        t_block = BlockWiseKernel().estimate_time(problem, spec, block_params)
        if t_row < t_block:
            return KernelChoice.ROW_WISE, row_params
        return KernelChoice.BLOCK_WISE, block_params

    raise ConfigError(f"unknown selector mode {mode!r}")


# --------------------------------------------------------------------- plans
#
# The selector is the compilation front-end of the plan layer: it turns an
# (problem, spec, mode, tau) query into a CompiledPlan, replayed from a
# PlanCache whenever the content-addressed key matches.  Kernels are
# stateless, so module-level instances are shared by every compiled plan.

_ROW = RowWiseKernel()
_BLOCK = BlockWiseKernel()


def kernel_for_choice(choice: KernelChoice | str) -> AttentionKernel:
    """The (shared, stateless) kernel object implementing a choice."""
    if not isinstance(choice, KernelChoice):
        choice = KernelChoice(choice)
    return _ROW if choice is KernelChoice.ROW_WISE else _BLOCK


def compile_attention_plan(
    problem: AttentionProblem,
    spec: GPUSpec,
    mode: str = "model",
    tau: float | None = None,
    cache: PlanCache | None = None,
    kind: str = "mha",
) -> CompiledPlan:
    """Select, parameterize, and price attention — once per plan key.

    The key's salt carries the selector settings (mode, tau), so plans
    compiled under different selection policies never alias.  A cache hit
    replays the exact prior decision (including its recorded analysis
    overhead); a miss runs the analytical selector and prices the chosen
    kernel's launches, identically to the historical ``UnifiedMHA.plan``.
    """
    eff_tau = TAU if tau is None else tau
    key = PlanKey.for_problem(
        kind, problem, spec, salt=f"select:{mode}:tau={eff_tau!r}"
    )

    def make() -> CompiledPlan:
        with current_tracer().span(
            "plan.attention", cat="planner", kind=kind, mode=mode,
            pattern=problem.pattern, batch=problem.batch,
            seq_len=problem.seq_len,
        ) as span:
            t0 = time.perf_counter()
            choice, params = select_kernel(problem, spec, tau=eff_tau, mode=mode)
            analysis_s = time.perf_counter() - t0
            kernel = kernel_for_choice(choice)
            launches = kernel.plan(problem, spec, params)
            est = sum(
                estimate_kernel_time(spec, cost, cfg).total for cost, cfg in launches
            )
            span.add(kernel=kernel.name).add_model_time(est)
        return CompiledPlan(
            kernel_name=kernel.name,
            choice=choice,
            params=params,
            launches=launches,
            estimated_s=est,
            analysis_overhead_s=analysis_s,
            key=key,
            kernel=kernel,
        )

    if cache is None:
        return make()
    plan = cache.get_or_build(key, make)
    if not isinstance(plan.choice, KernelChoice) and plan.choice is not None:
        plan.choice = KernelChoice(plan.choice)   # rehydrate after warm start
    if plan.kernel is None and plan.choice is not None:
        plan.kernel = kernel_for_choice(plan.choice)
    return plan
