"""Run one benchmark workload; print its metrics as the last stdout line.

    python3 perfbench/run.py --workload fleet-steady --seed 1 --seconds 25 --trace 0

``--trace 0`` times the operations bare and reports the end-to-end
metrics.  ``--trace 1`` alternates a bare and a traced operation on the
same input, checks that both give the same result, and reports the
per-layer metrics (see ``layers.py`` and ``README.md``).  The last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when any check failed and 2 when the
library sources are missing.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: BLAS/OpenMP pools pinned to one thread: the host has few cores and a
#: thread pool's scheduling noise would swamp small kernels.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: Set-up is repeated and its median reported (imports happen once).
SETUP_REPEATS = 3
#: The p90 over inputs is printed on the summary line only: with 3 to 30
#: inputs no sample lies beyond it, and its run-to-run spread doubled the
#: chances of a noisy verdict without adding a tail to look at.
END_TO_END = {
    "setup_s": "s",
    "op_wall_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

def pin_host() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # No disk tier for generated code, and the default (concrete) keys:
    # the cold emission path is measured in every process.
    os.environ.pop("STOF_CODEGEN_CACHE_DIR", None)
    os.environ.pop("STOF_CODEGEN_SYMBOLIC", None)


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def percentiles(samples: dict[int, list[float]]) -> tuple[float, float]:
    """p50 and p90 over inputs of each input's best time.

    The host is shared: other tenants' bursts slow single calls by up to
    1.6x for seconds at a time.  The best of an input's calls, spread
    over the run by the round-robin order, tracks its own cost; the
    percentiles are then taken over the fixed input set.
    """
    import numpy as np

    per_input = [min(v) for v in samples.values()]
    return tuple(float(x) for x in np.percentile(per_input, [50, 90]))


def run(args: argparse.Namespace) -> tuple[dict, int, int, list[str]]:
    import layers
    import workloads

    import_s = time.perf_counter() - T_START
    wl = workloads.WORKLOADS[args.workload](args.seed)
    recorder = layers.Recorder() if args.trace else None

    setup_times = []
    for rep in range(SETUP_REPEATS):
        traced_setup = recorder is not None and rep == SETUP_REPEATS - 1
        if traced_setup:
            recorder.phase = "setup"
            recorder.install()
        t0 = time.perf_counter()
        try:
            wl.setup()
        finally:
            if traced_setup:
                recorder.uninstall()
        setup_times.append(time.perf_counter() - t0)
    if recorder is not None:
        recorder.phase = "ops"

    errors: list[str] = []
    attempted = failed = 0
    samples: dict[int, list[float]] = {}
    outputs: dict[int, object] = {}
    ratios: list[float] = []
    report_sums: dict[str, float] = {}
    fingerprint: dict[str, float] = {}
    check_after = wl.check_after

    def timed(k: int):
        t0 = time.perf_counter()
        out = wl.op(k)
        return out, time.perf_counter() - t0

    # Round-robin over the inputs until ``--seconds`` have passed, and at
    # least one whole round: every input is timed (or compared) at least
    # once, and its time is the best of its calls. The last round may be
    # partial, so a run with long rounds (compile-grid) ends near the
    # deadline rather than up to a round past it.
    i = 0
    deadline = time.perf_counter() + args.seconds
    while i < wl.n_inputs or time.perf_counter() < deadline:
        k = i % wl.n_inputs
        i += 1
        attempted += 1
        try:
            out, dt = timed(k)
            problems = [] if check_after else wl.check(k, out)
            if recorder is not None:
                recorder.install()
                try:
                    traced, dt_traced = timed(k)
                finally:
                    recorder.uninstall()
                if not check_after:
                    problems += wl.check(k, traced)
                if not wl.same(out, traced):
                    problems.append(f"input {k}: traced result differs from untraced")
                ratios.append(dt_traced / dt)
                for key, value in wl.layer_metrics(traced).items():
                    report_sums[key] = report_sums.get(key, 0.0) + value
                if len(ratios) <= wl.fingerprint_ops:
                    for key, value in wl.fingerprint(traced).items():
                        fingerprint[key] = fingerprint.get(key, 0.0) + value
        except Exception:
            failed += 1
            errors.append(f"input {k}: " + traceback.format_exc())
            continue
        if problems:
            failed += 1
            errors.extend(problems)
            continue
        samples.setdefault(k, []).append(dt)
        outputs[k] = out

    if check_after:
        for k, out in outputs.items():
            problems = wl.check(k, out)
            if problems:
                failed += len(samples.pop(k))
                errors.extend(problems)

    if recorder is not None:
        attempted += 1
        misses = layers.check_predictions(recorder, wl.name, HERE / "predictions.json")
        if misses:
            failed += 1
            errors.extend(misses)
        metrics = layers.derive(
            recorder, len(ratios), ratios, report_sums, fingerprint
        )
    else:
        p50, p90 = percentiles(samples) if samples else (0.0, 0.0)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "op_wall_ms_p50": p50 * 1e3,
            "peak_rss_mb": rss_kib / 1024.0,
        }
        alias, scale = wl.alias
        print(
            f"{wl.name}: {attempted} ops over {wl.n_inputs} inputs, "
            f"failed_frac {failed / attempted:.4f}, "
            f"{alias}_p50 {p50 * 1e3 * scale:.6g}, "
            f"{alias}_p90 {p90 * 1e3 * scale:.6g}"
        )
    return metrics, attempted, failed, errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("fleet-steady", "shard-sparse-preempt", "mha-forward", "compile-grid"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    pin_host()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: library sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    import numpy

    metrics, attempted, failed, errors = run(args)
    for err in errors:
        print(err, file=sys.stderr)

    print(
        f"host: nproc {os.cpu_count()}, python {platform.python_version()}, "
        f"numpy {numpy.__version__}, commit {commit()}"
    )
    units = dict(layers.PER_LAYER) if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
