"""Shared fixtures for the STOF reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rng import RngStream
from repro.gpu.specs import A100, RTX4090
from repro.masks import make_pattern
from repro.mha.problem import AttentionProblem
from repro.models import ModelConfig, build_model


@pytest.fixture
def rng() -> RngStream:
    """Deterministic root stream; fork per use site."""
    return RngStream(1234)


@pytest.fixture(params=["a100", "rtx4090"])
def spec(request):
    """Both evaluation GPUs."""
    return {"a100": A100, "rtx4090": RTX4090}[request.param]


@pytest.fixture
def a100():
    return A100


@pytest.fixture
def rtx4090():
    return RTX4090


@pytest.fixture
def small_problem(rng) -> AttentionProblem:
    """A concrete bigbird attention problem small enough to run functionally."""
    return AttentionProblem.build(
        "bigbird", batch=2, heads=3, seq_len=96, head_size=32,
        rng=rng.fork("small-problem"), with_tensors=True,
    )


@pytest.fixture
def tiny_model_config() -> ModelConfig:
    return ModelConfig("tiny", 2, 0, 64, 2, 128, vocab=97)


@pytest.fixture
def tiny_model(tiny_model_config):
    """A 2-layer encoder small enough for functional engine runs."""
    return build_model(tiny_model_config, batch=2, seq_len=32)


@pytest.fixture
def tiny_masks(tiny_model, rng):
    mask = make_pattern(
        "bigbird", tiny_model.seq_len, rng=rng.fork("tiny-mask"),
        band_width=4, global_width=3, filling_rate=0.1, block_size=8,
    )
    return {name: mask for name in tiny_model.mask_inputs}
