"""Wall-clock benchmark: the codegen backend vs the loop oracle.

Unlike every other ``bench_*`` module, this one measures *real* Python
wall-clock, not simulated device time: it times ``run()`` of both STOF
kernels under both execution backends (``codegen`` / ``loop``) on the
Fig. 10/11 sweep shapes (BERT-Base geometry: 12 heads x 64) and reports
the speedup of the plan-specialized generated modules over the
per-row/per-block loops.  It also records what codegen costs *cold*: the
first ``run()`` on a fresh problem with an empty code cache, which pays
mask-view construction, emission, and ``exec`` of the generated module.

Artifacts:

* ``benchmarks/results/wallclock.txt`` — human-readable table,
* ``BENCH_wallclock.json`` (repo root) — machine-readable records.

Because timings are host-dependent, neither artifact is golden-checked;
the committed copies document one recorded run (see docs/codegen.md).

Modes: the default quick grid finishes in seconds (CI smoke); set
``STOF_WALLCLOCK_FULL=1`` for the full sweep (the large shapes run the
loop backend for tens of seconds per cell — minutes overall).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(Path(__file__).parent) not in sys.path:  # script mode, no conftest
    sys.path.insert(0, str(Path(__file__).parent))

from harness import MHA_PATTERNS, bench_rng, emit, format_table  # noqa: E402

from repro.codegen.cache import use_codegen_cache  # noqa: E402
from repro.gpu.specs import RTX4090  # noqa: E402
from repro.mha.blockwise import BlockWiseKernel  # noqa: E402
from repro.mha.problem import AttentionProblem  # noqa: E402
from repro.mha.rowwise import RowWiseKernel  # noqa: E402

#: Fig. 10/11 (batch, seq) sweep.
FULL_SETTINGS = ((1, 128), (1, 512), (8, 512), (16, 2048), (16, 4096))
QUICK_SETTINGS = ((1, 128), (1, 256), (1, 512))
QUICK_PATTERNS = ("sliding_window", "bigbird")

JSON_PATH = REPO_ROOT / "BENCH_wallclock.json"


def wallclock_problem(pattern: str, batch: int, seq_len: int) -> AttentionProblem:
    return AttentionProblem.build(
        pattern, batch, 12, seq_len, 64,
        rng=bench_rng(f"wallclock-{pattern}-{batch}-{seq_len}"),
        with_tensors=True,
    )


def _time_runs(kernels: dict, prob, params, reps: int) -> dict:
    """Best-of-``reps`` seconds per backend, interleaved round-robin.

    Interleaving matters on shared hosts: timing each backend's reps
    back-to-back lets slow drift (thermal state, noisy neighbours) land
    entirely on whichever backend ran during the bad window, skewing the
    ratios.  Round-robin spreads any drift across all backends equally.
    """
    best = {name: math.inf for name in kernels}
    for _ in range(reps):
        for name, kernel in kernels.items():
            t0 = time.perf_counter()
            kernel.run(prob, params)
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def _time_cold(kernel, pattern: str, batch: int, seq_len: int, params) -> float:
    """Seconds of the first ``run()`` on a fresh problem, empty code cache."""
    prob = wallclock_problem(pattern, batch, seq_len)
    with use_codegen_cache():
        t0 = time.perf_counter()
        kernel.run(prob, params)
        return time.perf_counter() - t0


def run_wallclock(full: bool) -> list[dict]:
    patterns = MHA_PATTERNS if full else QUICK_PATTERNS
    settings = FULL_SETTINGS if full else QUICK_SETTINGS
    records = []
    for pattern in patterns:
        for batch, seq_len in settings:
            prob = wallclock_problem(pattern, batch, seq_len)
            # Small cells are interpreter-noise-bound: take best of 7.
            # Large cells run for seconds each: one rep is representative.
            reps = 7 if batch * seq_len <= 4096 else 1
            for cls, kname in (
                (RowWiseKernel, "rowwise"),
                (BlockWiseKernel, "blockwise"),
            ):
                loop = cls(exec_backend="loop")
                cg = cls(exec_backend="codegen")
                params = cg.default_params(prob, RTX4090)
                t_cold = _time_cold(cg, pattern, batch, seq_len, params)
                # Warmup builds the shared mask caches (CSR/BSR, flat-COO
                # views, concat groups) and pays the one-time emission (or
                # disk-cache load); the timed reps measure the warm per-call
                # path, matching how a compiled plan is actually served.
                cg.run(prob, params)
                times = _time_runs({"cg": cg, "loop": loop}, prob, params, reps)
                t_cg, t_loop = times["cg"], times["loop"]
                records.append(
                    {
                        "pattern": pattern,
                        "batch": batch,
                        "seq_len": seq_len,
                        "kernel": kname,
                        "reps": reps,
                        "loop_ms": round(t_loop * 1e3, 3),
                        "codegen_ms": round(t_cg * 1e3, 3),
                        "codegen_cold_ms": round(t_cold * 1e3, 3),
                        "codegen_speedup": round(t_loop / t_cg, 2),
                    }
                )
    return records


def _geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def summarize(records: list[dict]) -> dict:
    by_kernel = {}
    for kname in ("rowwise", "blockwise"):
        cs = [r["codegen_speedup"] for r in records if r["kernel"] == kname]
        if cs:
            by_kernel[kname] = {
                "geomean_codegen_speedup": round(_geomean(cs), 2),
                "max_codegen_speedup": max(cs),
                "min_codegen_speedup": min(cs),
            }
    speedups = [r["codegen_speedup"] for r in records]
    return {
        "geomean_codegen_speedup": round(_geomean(speedups), 2),
        "max_codegen_speedup": max(speedups),
        "min_codegen_speedup": min(speedups),
        "by_kernel": by_kernel,
    }


def emit_wallclock(records: list[dict], full: bool) -> dict:
    rows = [
        [
            r["pattern"],
            f"({r['batch']},{r['seq_len']})",
            r["kernel"],
            r["loop_ms"],
            r["codegen_ms"],
            r["codegen_cold_ms"],
            f"{r['codegen_speedup']:.2f}x",
        ]
        for r in records
    ]
    mode = "full" if full else "quick"
    emit(
        "wallclock",
        format_table(
            [
                "mask", "(bs,seq)", "kernel", "loop ms", "cg ms",
                "cg cold ms", "cg speedup",
            ],
            rows,
            title=f"Execution-backend wall-clock ({mode} grid, 12 heads x 64)",
        ),
    )
    payload = {
        "mode": mode,
        "heads": 12,
        "head_size": 64,
        "records": records,
        "summary": summarize(records),
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {JSON_PATH}")
    return payload


def test_wallclock_smoke():
    """CI smoke: the quick grid runs, codegen never loses big to the loop.

    A genuine regression (generated modules slower than the loop oracle)
    shows up as speedup << 1; shared-runner noise on the tiny quick shapes
    justifies nothing stricter than a generous floor.
    """
    records = run_wallclock(full=False)
    payload = emit_wallclock(records, full=False)
    assert JSON_PATH.exists()
    assert all(r["codegen_ms"] > 0 and r["loop_ms"] > 0 for r in records)
    assert all(r["codegen_cold_ms"] > 0 for r in records)
    assert payload["summary"]["geomean_codegen_speedup"] > 0.5


def main() -> None:
    full = os.environ.get("STOF_WALLCLOCK_FULL", "") == "1"
    records = run_wallclock(full=full)
    emit_wallclock(records, full=full)


if __name__ == "__main__":
    main()
