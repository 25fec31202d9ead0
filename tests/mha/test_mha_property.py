"""Property-based equivalence tests: every kernel equals the reference on
arbitrary masks, and the block-wise kernel's candidate-grid pricing equals
its one-launch pricing (hypothesis)."""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigError
from repro.core.fp16 import fp16_allclose
from repro.core.rng import RngStream
from repro.gpu.cost import ARRAY_OPS
from repro.gpu.specs import A100, RTX4090
from repro.masks.bsr import BlockCounts
from repro.masks.patterns import make_pattern
from repro.mha.blockwise import BlockWiseKernel, _cost_fields
from repro.mha.problem import AttentionProblem
from repro.mha.reference import solve_reference
from repro.mha.rowwise import RowWiseKernel
from repro.mha.selector import _feasible_settings


@st.composite
def attention_problems(draw):
    seq = draw(st.integers(min_value=1, max_value=72))
    batch = draw(st.integers(min_value=1, max_value=2))
    heads = draw(st.integers(min_value=1, max_value=3))
    d = draw(st.sampled_from([4, 8, 16]))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    g = np.random.default_rng(seed)
    mask = g.random((seq, seq)) < density
    prob = AttentionProblem(batch, heads, seq, d, mask)
    shape = prob.qkv_shape
    prob.q = (g.standard_normal(shape) * 0.5).astype(np.float16)
    prob.k = (g.standard_normal(shape) * 0.5).astype(np.float16)
    prob.v = (g.standard_normal(shape) * 0.5).astype(np.float16)
    return prob


@settings(max_examples=40, deadline=None)
@given(prob=attention_problems(), bm=st.sampled_from([16, 32]), bn=st.sampled_from([16, 32]))
def test_blockwise_equals_reference_on_arbitrary_masks(prob, bm, bn):
    """The headline correctness claim: the block-wise kernel supports
    ARBITRARY masking patterns exactly."""
    out = BlockWiseKernel().run(
        prob, {"block_m": bm, "block_n": bn, "num_warps": 4, "padding": 16}
    )
    assert fp16_allclose(out, solve_reference(prob), rtol=5e-2, atol=5e-3)


@settings(max_examples=40, deadline=None)
@given(prob=attention_problems())
def test_rowwise_equals_reference_on_arbitrary_masks(prob):
    out = RowWiseKernel().run(prob)
    assert fp16_allclose(out, solve_reference(prob), rtol=5e-2, atol=5e-3)


@settings(max_examples=25, deadline=None)
@given(prob=attention_problems())
def test_kernels_agree_with_each_other(prob):
    a = BlockWiseKernel().run(
        prob, {"block_m": 16, "block_n": 16, "num_warps": 4, "padding": 16}
    )
    b = RowWiseKernel().run(prob)
    assert fp16_allclose(a, b, rtol=5e-2, atol=5e-3)


@settings(max_examples=25, deadline=None)
@given(prob=attention_problems())
def test_output_rows_zero_iff_row_fully_masked(prob):
    out = BlockWiseKernel().run(
        prob, {"block_m": 16, "block_n": 16, "num_warps": 4, "padding": 16}
    ).astype(np.float32)
    row_has_attention = prob.mask.any(axis=1)
    for i in range(prob.seq_len):
        if not row_has_attention[i]:
            assert not out[..., i, :].any()


# ------------------------------------------------- scalar and array pricing

#: A small L2 moves K/V re-reads to DRAM (the other counters branch); on the
#: last spec every 8-warp block fails occupancy.
PRICING_SPECS = [
    A100,
    RTX4090,
    A100.with_overrides(l2_bytes=64 * 1024),
    A100.with_overrides(max_threads_per_block=128),
]


@st.composite
def pricing_problems(draw):
    """Ragged square problems and rectangular ones: the last ``rows`` query
    rows of a mask over ``keys`` keys, as a chunked prefill slices them."""
    keys = draw(st.integers(min_value=1, max_value=600))
    rows = draw(st.one_of(st.just(keys), st.integers(min_value=1, max_value=keys)))
    pattern = draw(
        st.sampled_from(["random", "sliding_window", "bigbird", "causal", "dilated"])
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    if pattern == "random":
        density = draw(st.floats(min_value=0.0, max_value=1.0))
        mask = np.random.default_rng(seed).random((keys, keys)) < density
    else:
        mask = make_pattern(pattern, keys, rng=RngStream(seed))
    return AttentionProblem(
        draw(st.integers(min_value=1, max_value=4)),
        draw(st.sampled_from([1, 12, 32])),
        rows,
        draw(st.sampled_from([16, 64, 128])),
        mask[keys - rows:],
        kv_seq_len=keys,
    )


@settings(max_examples=60, deadline=None)
@given(
    prob=pricing_problems(),
    spec=st.sampled_from(PRICING_SPECS),
    padding=st.sampled_from([16, 0]),
)
def test_blockwise_grid_pricing_equals_one_launch_pricing(prob, spec, padding):
    """Every counter, and every total, of the array pass over all feasible
    settings is the one-launch value bit for bit; ``+inf`` where the
    one-launch pricing raises."""
    kernel = BlockWiseKernel()
    settings_ = _feasible_settings(prob, spec, padding)
    per_setting = [prob.block_counts(bm, bn) for bm, bn, _ in settings_]
    counts = BlockCounts(*(
        np.array([getattr(c, f.name) for c in per_setting])
        for f in dataclasses.fields(BlockCounts)
    ))
    fields = _cost_fields(ARRAY_OPS, prob, spec, counts, padding)
    times = kernel.setting_times(prob, spec, settings_, padding).tolist()
    for i, (bm, bn, warps) in enumerate(settings_):
        params = {"block_m": bm, "block_n": bn, "num_warps": warps, "padding": padding}
        [(cost, _)] = kernel.plan(prob, spec, params)
        for name, value in fields.items():
            array_value = float(np.broadcast_to(value, len(settings_))[i])
            assert array_value.hex() == float(getattr(cost, name)).hex(), name
        try:
            expected = kernel.estimate_time(prob, spec, params)
        except ConfigError:
            expected = math.inf
        assert times[i].hex() == expected.hex()
