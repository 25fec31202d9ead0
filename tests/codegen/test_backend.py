"""Backend plumbing: plan keys, template versioning, lowering choices, and
the per-problem binding memo."""

import numpy as np
import pytest

from repro.codegen.backend import codegen_plan_key
from repro.codegen.blockwise import (
    BLOCKWISE_TEMPLATE_VERSION,
    specialize_blockwise,
)
from repro.codegen.cache import use_codegen_cache
from repro.codegen.rowwise import ROWWISE_TEMPLATE_VERSION
from repro.codegen.templates import get_template, register_template, template_names
from repro.core.fp16 import fp16_allclose
from repro.gpu.specs import A100
from repro.masks.bsr import BlockSparseMask
from repro.masks.patterns import make_pattern
from repro.mha.blockwise import BlockWiseKernel
from repro.mha.problem import AttentionProblem
from repro.mha.rowwise import RowWiseKernel
from repro.obs.metrics import MetricsRegistry, use_metrics


def make_problem(rng, pattern="sliding_window", seq=96):
    return AttentionProblem.build(
        pattern, 1, 2, seq, 16, rng=rng.fork(f"be-{pattern}-{seq}"),
        with_tensors=True,
    )


def test_templates_registered():
    assert template_names() == ("blockwise", "rowwise")
    assert get_template("blockwise").version == BLOCKWISE_TEMPLATE_VERSION
    assert get_template("rowwise").version == ROWWISE_TEMPLATE_VERSION


def test_plan_key_salt_carries_template_version(rng):
    prob = make_problem(rng)
    key = codegen_plan_key(
        "codegen-blockwise", prob, {"block_m": 32}, template="blockwise"
    )
    assert key.salt == f"codegen:blockwise:v{BLOCKWISE_TEMPLATE_VERSION}"
    assert key.device == ""  # emitted NumPy is device-independent
    assert key.mask == prob.mask_fingerprint()


def test_template_version_bump_changes_every_digest(rng):
    """Satellite: the PlanKey fingerprint incorporates the emission version,
    so a template upgrade can never look up a stale module."""
    prob = make_problem(rng)
    orig = get_template("blockwise")
    k_old = codegen_plan_key("codegen-blockwise", prob, None)
    try:
        register_template("blockwise", orig.version + 1, orig.specialize)
        k_new = codegen_plan_key("codegen-blockwise", prob, None)
    finally:
        register_template(orig.name, orig.version, orig.specialize)
    assert k_old.salt != k_new.salt
    assert k_old.digest != k_new.digest


def test_digest_is_stable_and_param_sensitive(rng):
    prob = make_problem(rng)
    k1 = codegen_plan_key("codegen-blockwise", prob, {"block_m": 32})
    k2 = codegen_plan_key("codegen-blockwise", prob, {"block_m": 32})
    k3 = codegen_plan_key("codegen-blockwise", prob, {"block_m": 64})
    assert k1.digest == k2.digest
    assert k1.digest != k3.digest


def test_problem_entry_memo_binds_once(rng):
    """Repeat run() calls on one problem reuse the bound entry without a
    cache lookup (the per-problem memo keyed by kernel parameters)."""
    prob = make_problem(rng)
    kernel = BlockWiseKernel(exec_backend="codegen")
    params = kernel.default_params(prob, A100)
    with use_codegen_cache() as cache:
        out1 = kernel.run(prob, params)
        memo = prob.__dict__["_codegen_entries"]
        assert (
            "blockwise", params["block_m"], params["block_n"], False
        ) in memo
        out2 = kernel.run(prob, params)
        # Second call never reached the cache: still the single cold miss.
        assert cache.stats()["hits_memory"] == 0
        assert cache.stats()["misses"] == 1
    assert np.array_equal(out1, out2)


def test_metrics_count_emission_and_cache_outcomes(rng):
    prob = make_problem(rng)
    kernel = RowWiseKernel(exec_backend="codegen")
    metrics = MetricsRegistry()
    with use_codegen_cache(), use_metrics(metrics):
        kernel.run(prob, kernel.default_params(prob, A100))
        # Fresh problem object, same mask content: a memory hit this time.
        kernel.run(prob2 := make_problem(rng), kernel.default_params(prob2, A100))
    counters = {
        (name,) + labels: inst.value
        for name, labels, kind, inst in metrics.collect()
        if kind == "counter"
    }
    assert counters[
        ("codegen.emit", ("template", "rowwise"))
    ] == 1
    assert counters[
        ("codegen.cache", ("outcome", "miss"), ("template", "rowwise"))
    ] == 1
    assert counters[
        ("codegen.cache", ("outcome", "hit-memory"), ("template", "rowwise"))
    ] == 1


def test_dense_lowering_on_full_dense_mask():
    """An all-true mask lowers to one unbiased dense softmax: no gathers,
    no strided views, no bias constant."""
    mask = np.ones((64, 64), dtype=bool)
    bsr = BlockSparseMask.from_dense(mask, 32, 32)
    gen = specialize_blockwise(bsr, 2, "x" * 64, "custom", mask=mask)
    assert "lowering=dense" in gen.source
    assert "as_strided" not in gen.source
    assert gen.consts == []  # full-dense: the 0/-inf bias is dead code


def test_512_square_mask_takes_sparse_lowering():
    """The dense lowering's size bound is exclusive: a 512x512 score tile
    (exactly ``DENSE_LOWER_MAX_ELEMS``) stays on the sparse traversal,
    which measured faster than dense on every 512 cell timed."""
    mask = make_pattern("longformer", 512)
    bsr = BlockSparseMask.from_dense(mask, 64, 64)
    gen = specialize_blockwise(bsr, 12, "z" * 64, "longformer", mask=mask)
    assert "lowering=dense" not in gen.source
    assert {rec.path for rec in gen.counters} <= {"banded", "gather"}


def test_sparse_lowering_on_narrow_band():
    """A narrow band at large seq stays on the strided-einsum sparse path
    and retiles below the requested block size."""
    seq = 256
    idx = np.arange(seq)
    mask = np.abs(idx[:, None] - idx[None, :]) <= 8
    bsr = BlockSparseMask.from_dense(mask, 64, 64)
    gen = specialize_blockwise(bsr, 2, "y" * 64, "custom", mask=mask)
    assert "lowering=dense" not in gen.source
    assert "as_strided" in gen.source
    assert "block=(16,16)" in gen.source  # retiled from the requested 64


def test_retile_keeps_caller_params_in_plan_key(rng):
    """Internal retiling is an emission detail: the plan key still carries
    the caller's block parameters, and outputs still match the loop."""
    prob = make_problem(rng, seq=128)
    loop = BlockWiseKernel(exec_backend="loop")
    cg = BlockWiseKernel(exec_backend="codegen")
    params = cg.default_params(prob, A100)
    with use_codegen_cache() as cache:
        out_cg = cg.run(prob, params)
        (entry,) = cache._entries.values()
    expected = (
        ("block_m", params["block_m"]),
        ("block_n", params["block_n"]),
    )
    assert tuple(
        p for p in entry.key.params if p[0] in ("block_m", "block_n")
    ) == expected
    assert fp16_allclose(out_cg, loop.run(prob, params))


@pytest.mark.parametrize("cls", [RowWiseKernel, BlockWiseKernel])
def test_generated_output_is_fp16(cls, rng):
    prob = make_problem(rng, pattern="bigbird")
    kernel = cls(exec_backend="codegen")
    with use_codegen_cache():
        out = kernel.run(prob, kernel.default_params(prob, A100))
    assert out.dtype == np.float16
