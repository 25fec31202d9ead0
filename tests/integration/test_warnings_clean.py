"""The library is silent under ``-W error``.

Importing repro and running the canonical compile / serving paths must
not emit ANY warning (deprecation or otherwise): downstream users run
test suites with warnings-as-errors, and a warning on the happy path
would break them.  Subprocesses so the interpreter-level ``-W error``
filter applies from the very first import.
"""

import subprocess
import sys


def run_strict(code: str) -> None:
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_import_is_warning_free():
    run_strict("import repro")


def test_compile_path_is_warning_free():
    run_strict(
        "from repro import compile_model\n"
        "from repro.models import ModelConfig\n"
        "cfg = ModelConfig('smoke', 2, 0, 64, 2, 128, vocab=97)\n"
        "c = compile_model(cfg, 1, 32, device='a100', mask='causal')\n"
        "assert c.latency_s > 0\n"
    )


def test_sharded_compile_is_warning_free():
    run_strict(
        "from repro import compile_model\n"
        "from repro.models import ModelConfig\n"
        "cfg = ModelConfig('smoke', 2, 0, 64, 4, 128, vocab=97)\n"
        "c = compile_model(cfg, 1, 32, mask='causal', parallel='tp2')\n"
        "assert c.comm_time_s > 0\n"
    )


def test_serve_sim_is_warning_free():
    run_strict(
        "from repro.core.rng import RngStream\n"
        "from repro.gpu.specs import A100\n"
        "from repro.serving import (ServingConfig, make_scheduler,\n"
        "                           simulate_serving, synthetic_trace)\n"
        "trace = synthetic_trace(4, 500.0, rng=RngStream(3),\n"
        "                        prompt_range=(8, 16), max_new_range=(4, 8))\n"
        "cfg = ServingConfig(heads=2, head_size=16, n_layers=2)\n"
        "report = simulate_serving(trace, A100, make_scheduler('continuous'),\n"
        "                          cfg, rng=RngStream(17))\n"
        "assert report.completed == 4\n"
    )


def test_serve_facade_is_warning_free():
    run_strict(
        "from repro import FleetConfig, SLOPolicy, serve\n"
        "from repro.serving import ServingConfig, make_scenario\n"
        "wl = make_scenario('diurnal', n_requests=8, rate_rps=2000.0)\n"
        "cfg = ServingConfig(heads=4, head_size=16, n_layers=2)\n"
        "rep = serve(cfg, wl, fleet=FleetConfig(autoscale=True,\n"
        "            max_replicas=2), slo=SLOPolicy(), seed=3)\n"
        "assert rep.completed == 8\n"
        "assert rep.gpu_s > 0\n"
    )
