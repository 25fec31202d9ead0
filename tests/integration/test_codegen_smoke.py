"""CI codegen smoke: emit + execute one plan per pattern family, strict.

Runs in a subprocess under interpreter-level ``-W error`` (like
``test_warnings_clean``) so emission, ``exec`` of the generated module,
disk-cache round trips, and the generated arithmetic itself are all
warning-free from the very first import — generated code that tripped a
NumPy deprecation or invalid-value warning would fail here before it
failed a downstream user.
"""

import subprocess
import sys

SMOKE = """
import numpy as np
from repro.codegen.cache import use_codegen_cache
from repro.core.fp16 import fp16_allclose
from repro.core.rng import RngStream
from repro.gpu.specs import A100
from repro.mha.blockwise import BlockWiseKernel
from repro.mha.problem import AttentionProblem
from repro.mha.rowwise import RowWiseKernel

PATTERNS = ("causal", "sliding_window", "dilated", "global", "random",
            "longformer", "bigbird")

with use_codegen_cache({cache_dir!r}) as cache:
    for i, pattern in enumerate(PATTERNS):
        prob = AttentionProblem.build(
            pattern, 1, 2, 96, 16, rng=RngStream(4000 + i), with_tensors=True
        )
        for cls in (RowWiseKernel, BlockWiseKernel):
            loop = cls(exec_backend="loop")
            cg = cls(exec_backend="codegen")
            params = cg.default_params(prob, A100)
            out_cg = cg.run(prob, params)
            assert out_cg.dtype == np.float16, (pattern, cls.__name__)
            assert np.isfinite(out_cg.astype(np.float32)).all()
            assert fp16_allclose(out_cg, loop.run(prob, params)), (
                pattern, cls.__name__)
    stats = cache.stats()
    assert stats["misses"] == len(PATTERNS) * 2, stats
    assert stats["rejected"] == 0, stats
print("codegen smoke ok:", stats)
"""


def test_codegen_smoke_emits_and_executes_every_pattern_family(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         SMOKE.format(cache_dir=str(tmp_path))],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "codegen smoke ok" in proc.stdout
    # One module per (pattern, kernel) landed on disk.
    assert len(list(tmp_path.glob("*.py"))) == 14
