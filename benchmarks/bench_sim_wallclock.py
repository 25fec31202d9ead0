"""Serving-simulator wall-clock: the trajectory of what a CLI user waits on.

Times the serving commands of ``python -m repro`` (CLI defaults apart from
the scenario and the request count) and appends one record per row to
``BENCH_sim.json`` at the repo root:

    python benchmarks/bench_sim_wallclock.py            # 10^3 and 10^4 rows
    python benchmarks/bench_sim_wallclock.py --quick    # 10^3 rows only
    python benchmarks/bench_sim_wallclock.py --quick --out /tmp/sim.json

Rows are ``serve-sim``, ``shard-sim``, ``fleet-sim --scenario steady`` and
``fleet-sim --scenario diurnal`` at each request count.  Each row runs in
a fresh interpreter, so its peak RSS is its own and no memo carries over
from another row.  A row records:

* ``wall_s`` — the whole child process, interpreter start and imports
  included, as measured by this script;
* ``run_s`` — the command itself, imports excluded;
* ``ms_per_request`` and ``us_per_step`` — ``run_s`` over the trace's
  requests and over the simulated engine steps of every ``serve()`` call
  the command makes (``serve-sim`` runs both batching policies), so a
  per-step cost that grows with queue length shows as a slope;
* ``peak_rss_mb`` — the child's peak resident set.

Each record also carries the commit whose ``src/`` it measured, whether
``src/`` had uncommitted changes (so rows measured before committing a
change are told apart from the parent's), the mode and the host.  The
timings are host-dependent: nothing here is golden-checked.  Every request
of every report must be completed or rejected, or the row fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
JSON_PATH = REPO_ROOT / "BENCH_sim.json"

#: (command, extra CLI arguments) per row kind.
COMMANDS = (
    ("serve-sim", ()),
    ("shard-sim", ()),
    ("fleet-sim", ("--scenario", "steady")),
    ("fleet-sim", ("--scenario", "diurnal")),
)
QUICK_REQUESTS = (1_000,)
FULL_REQUESTS = (1_000, 10_000)

#: BLAS/OpenMP pools pinned to one thread, as in ``perfbench/``: on a host
#: with few cores, pool scheduling noise would swamp the small kernels.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def run_row(argv: list[str]) -> dict:
    """Child side: run one CLI command in-process, print one JSON line."""
    t_start = time.perf_counter()
    import repro.cli as cli

    reports = []
    serve = cli.serve

    def recording_serve(*args, **kwargs):
        report = serve(*args, **kwargs)
        reports.append(report)
        return report

    cli.serve = recording_serve
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    run_s = time.perf_counter() - t0
    if code != 0 or not reports:
        raise SystemExit(f"{argv}: exit code {code}, {len(reports)} reports")
    # An autoscaled fleet's report wraps the merged replica report.
    merged = [getattr(report, "sharded", report) for report in reports]
    return {
        "import_s": t0 - t_start,
        "run_s": run_s,
        "reports": len(merged),
        "steps": sum(r.total_steps for r in merged),
        "accounted": sum(r.completed + r.rejected for r in merged),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure(command: str, extra: tuple[str, ...], n_requests: int) -> dict:
    """Parent side: one row, timed around a fresh child interpreter."""
    argv = [command, *extra, "--num-requests", str(n_requests)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in THREAD_VARS:
        env[var] = "1"
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--row", *argv],
        env=env, check=True, capture_output=True, text=True,
    )
    wall_s = time.perf_counter() - t0
    child = json.loads(out.stdout.strip().splitlines()[-1])
    if child["accounted"] != n_requests * child["reports"]:
        raise SystemExit(f"{argv}: reports account for {child['accounted']} requests")
    return {
        "command": command,
        "scenario": extra[1] if extra else None,
        "requests": n_requests,
        "wall_s": round(wall_s, 3),
        "run_s": round(child["run_s"], 3),
        "import_s": round(child["import_s"], 3),
        "steps": child["steps"],
        "ms_per_request": round(child["run_s"] / n_requests * 1e3, 4),
        "us_per_step": round(child["run_s"] / child["steps"] * 1e6, 2),
        "peak_rss_mb": round(child["peak_rss_mb"], 1),
    }


def _git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", *args], cwd=REPO_ROOT, check=True, capture_output=True,
            text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="only the 10^3-request rows (CI smoke)")
    parser.add_argument("--out", type=Path, default=JSON_PATH,
                        help="JSON file the records are appended to")
    parser.add_argument("--row", nargs=argparse.REMAINDER,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.row:
        print(json.dumps(run_row(args.row)))
        return

    stamp = {
        "commit": _git("rev-parse", "--short", "HEAD") or "unknown",
        "src_modified": bool(_git("status", "--porcelain", "--", "src")),
        "mode": "quick" if args.quick else "full",
        "host": f"{platform.machine()}, {os.cpu_count()} cpus, "
                f"python {platform.python_version()}",
    }
    payload = {"records": []}
    if args.out.exists():
        payload = json.loads(args.out.read_text())
    for n_requests in QUICK_REQUESTS if args.quick else FULL_REQUESTS:
        for command, extra in COMMANDS:
            row = measure(command, extra, n_requests)
            payload["records"].append({**stamp, **row})
            print(
                f"{command:>9} {row['scenario'] or '':>7} {n_requests:>6} req: "
                f"{row['wall_s']:7.2f} s wall, {row['ms_per_request']:7.3f} ms/req, "
                f"{row['us_per_step']:8.1f} us/step, {row['peak_rss_mb']:6.1f} MB"
            )
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {len(payload['records'])} records to {args.out}")


if __name__ == "__main__":
    main()
