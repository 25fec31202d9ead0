"""Run a workload under several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload fleet-steady --seeds 1-10 [--json out.json]

For every metric of the runs: the median over seeds, and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of that median — the figure each end-to-end bound in
``BENCHMARK.json`` is checked against.  Runs are sequential, one process
at a time, so they do not compete for the host's cores.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            capture_output=True, text=True, timeout=600, cwd=HERE.parent,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode or not result["correct"]:
            print(proc.stderr, file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{k} {m['value']:.6g}" for k, m in result["metrics"].items()
        ), flush=True)

    print(f"\n{args.workload}: {len(next(iter(values.values())))} runs")
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) >= 2 else (med,) * 3
        spread = (q3 - q1) / abs(med) if med else 0.0
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "values": vals}
        print(f"  {name:32s} median {med:12.6g} {units[name]:6s} spread {spread:.4f}")
    if args.json:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
             "metrics": summary}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
