"""Tests for the analytical kernel selector (Eqs. 1-2)."""

import math

import numpy as np
import pytest

from repro.core.errors import ConfigError
from repro.core.rng import RngStream
from repro.gpu.specs import A100, RTX4090
from repro.masks.bsr import BlockSparseMask
from repro.masks.patterns import causal_mask, make_pattern
from repro.mha.blockwise import DEFAULT_PADDING, BlockWiseKernel, required_smem_elems
from repro.mha.problem import AttentionProblem
from repro.mha.rowwise import RowWiseKernel
from repro.mha.selector import (
    EQ1_BLOCK,
    TAU,
    KernelChoice,
    _feasible_settings,
    compile_attention_plan,
    eq1_threshold,
    eq2_candidates,
    eq2_score,
    select_block_params,
    select_kernel,
)


class TestEq1:
    def test_hand_computed_value(self):
        """threshold = n_valid/n_rows^2 - tau/(log2 n_rows)^2, verbatim."""
        mask = np.zeros((64, 64), bool)
        mask[:16, :16] = True  # exactly one valid 16x16 block of 16 total
        prob = AttentionProblem(1, 1, 64, 16, mask)
        n_rows = 64 // EQ1_BLOCK  # 4
        expected = 1 / 16 - TAU / (math.log2(n_rows) ** 2)
        assert eq1_threshold(prob) == pytest.approx(expected)

    def test_denser_mask_higher_threshold(self, rng):
        sparse = AttentionProblem.build("sliding_window", 1, 1, 256, 16,
                                        rng=rng.fork("s"))
        dense = AttentionProblem(1, 1, 256, 16, np.ones((256, 256), bool))
        assert eq1_threshold(dense) > eq1_threshold(sparse)

    def test_longer_seq_higher_threshold_for_fixed_band(self):
        """The log penalty shrinks with seq_len: long sequences route to
        block-wise even at fixed mask width (the paper's stated intent)."""
        from repro.masks.patterns import sliding_window_mask

        short = AttentionProblem(1, 1, 128, 16, sliding_window_mask(128, 32))
        long = AttentionProblem(1, 1, 2048, 16, sliding_window_mask(2048, 32))
        # Penalty shrinks faster than the ratio for banded masks.
        assert eq1_threshold(long) < eq1_threshold(short)

    def test_single_block_row_forces_rowwise(self):
        prob = AttentionProblem(1, 1, 16, 16, np.ones((16, 16), bool))
        assert eq1_threshold(prob) == -math.inf

    def test_tau_monotone(self, small_problem):
        assert eq1_threshold(small_problem, tau=0.5) > eq1_threshold(
            small_problem, tau=2.0
        )


class TestEq2:
    def test_occ_formula_verbatim(self, small_problem):
        cand = eq2_score(small_problem, A100, 32, 32, 4)
        req = required_smem_elems(32, 32, small_problem.head_size, 16) * 2
        occ = 4 * min(A100.smem_carveout_per_sm / req, A100.max_warps_per_sm / 4) / A100.max_warps_per_sm
        assert cand.occ == pytest.approx(occ)
        assert cand.req_smem_bytes == req

    def test_score_formula_verbatim(self, small_problem):
        cand = eq2_score(small_problem, A100, 32, 32, 4)
        p = small_problem
        expected = cand.occ * math.sqrt(
            (A100.sm_count / 32) * (p.seq_len * p.heads * p.batch / 32)
        )
        assert cand.score == pytest.approx(expected)

    def test_candidates_sorted(self, small_problem):
        cands = eq2_candidates(small_problem, A100)
        scores = [c.score for c in cands]
        assert scores == sorted(scores, reverse=True)

    def test_paper_mode_prefers_smallest_blocks(self, small_problem):
        """Documented substrate artefact: verbatim Eq. 2 is monotone toward
        the minimum block size (see EXPERIMENTS.md)."""
        params = select_block_params(small_problem, A100, mode="paper")
        assert params["block_m"] == 16 and params["block_n"] == 16

    def test_occ_never_above_one(self, small_problem):
        for cand in eq2_candidates(small_problem, A100):
            assert 0 < cand.occ <= 1.0 + 1e-9

    def test_infeasible_smem_excluded(self, rng):
        prob = AttentionProblem.build("causal", 1, 1, 256, 256, rng=rng.fork("big"))
        cands = eq2_candidates(prob, RTX4090)
        for c in cands:
            assert c.req_smem_bytes <= RTX4090.smem_carveout_per_sm


class TestModelModeSelection:
    def test_model_params_are_feasible_and_best(self, rng):
        prob = AttentionProblem.build("bigbird", 16, 12, 512, 64, rng=rng.fork("mm"))
        params = select_block_params(prob, A100, mode="model")
        kern = BlockWiseKernel()
        t_best = kern.estimate_time(prob, A100, params)
        for other in ({"block_m": 16, "block_n": 16, "num_warps": 4, "padding": 16},
                      {"block_m": 128, "block_n": 128, "num_warps": 8, "padding": 16}):
            try:
                assert t_best <= kern.estimate_time(prob, A100, other) + 1e-12
            except ConfigError:
                pass

    def test_rowwise_selected_small_sliding_window(self, rng):
        """Paper §5.2: '(1, 128)... STOF enables the row-wise kernel'."""
        prob = AttentionProblem.build(
            "sliding_window", 1, 12, 128, 64, rng=rng.fork("rw")
        )
        choice, _ = select_kernel(prob, A100, mode="model")
        assert choice is KernelChoice.ROW_WISE

    def test_blockwise_selected_at_scale(self, rng):
        prob = AttentionProblem.build(
            "sliding_window", 16, 12, 2048, 64, rng=rng.fork("bw")
        )
        choice, params = select_kernel(prob, A100, mode="model")
        assert choice is KernelChoice.BLOCK_WISE
        assert params["block_m"] >= 16

    def test_model_choice_is_argmin_of_estimates(self, rng):
        prob = AttentionProblem.build("bigbird", 2, 4, 256, 32, rng=rng.fork("am"))
        choice, params = select_kernel(prob, A100, mode="model")
        row_t = RowWiseKernel().estimate_time(prob, A100)
        block_t = BlockWiseKernel().estimate_time(
            prob, A100, select_block_params(prob, A100, mode="model")
        )
        expected = (
            KernelChoice.ROW_WISE if row_t < block_t else KernelChoice.BLOCK_WISE
        )
        assert choice is expected

    def test_unknown_mode_rejected(self, small_problem):
        with pytest.raises(ConfigError):
            select_kernel(small_problem, A100, mode="magic")
        with pytest.raises(ConfigError):
            select_block_params(small_problem, A100, mode="magic")

    def test_paper_mode_returns_rowwise_below_threshold(self):
        prob = AttentionProblem(1, 1, 32, 16, np.eye(32, dtype=bool))
        assert eq1_threshold(prob) < 0
        choice, _ = select_kernel(prob, A100, mode="paper")
        assert choice is KernelChoice.ROW_WISE


# ------------------------------------------------------------------ oracle
#
# The model-mode selector before block counts: every candidate setting
# priced through ``estimate_time`` on a problem whose every tiling builds
# its own full BSR.


class PerTilingProblem(AttentionProblem):
    """Reads each tiling's counts off that tiling's own BSR."""

    def block_counts(self, block_m, block_n):
        return self.bsr(block_m, block_n).block_counts(block_m, block_n)


def oracle_plan(problem, spec):
    """``(choice, params, estimated_s)`` by the build-a-BSR-per-candidate
    selector, with the library's candidate order and strict-``<``
    tie-break."""
    prob = PerTilingProblem(
        problem.batch, problem.heads, problem.seq_len, problem.head_size,
        problem.mask, kv_seq_len=problem.kv_seq_len,
    )
    block = BlockWiseKernel()
    best_params, best_t = None, math.inf
    for bm, bn, warps in _feasible_settings(prob, spec, DEFAULT_PADDING):
        params = {
            "block_m": bm, "block_n": bn, "num_warps": warps,
            "padding": DEFAULT_PADDING,
        }
        try:
            t = block.estimate_time(prob, spec, params)
        except ConfigError:
            continue
        if t < best_t:
            best_t, best_params = t, params
    row = RowWiseKernel()
    row_params = row.default_params(prob, spec)
    t_row = row.estimate_time(prob, spec, row_params)
    t_block = block.estimate_time(prob, spec, best_params)
    if t_row < t_block:
        return KernelChoice.ROW_WISE, row_params, t_row
    return KernelChoice.BLOCK_WISE, best_params, t_block


def assert_plan_matches_oracle(problem, spec):
    plan = compile_attention_plan(problem, spec)
    choice, params, est = oracle_plan(problem, spec)
    assert (plan.choice, plan.params, plan.estimated_s.hex()) == (
        choice, params, est.hex()
    )


#: A spec on which every 8-warp (256-thread) setting fails occupancy.
NO_8_WARP_BLOCKS = A100.with_overrides(max_threads_per_block=128)


class TestSelectorMatchesPerTilingOracle:
    """Pricing every tiling from one 16x16 BSR changes no plan: same choice,
    same params, bit-identical estimate."""

    @pytest.mark.parametrize(
        "pattern", ["sliding_window", "dilated", "longformer", "bigbird", "causal"]
    )
    @pytest.mark.parametrize("seq_len", [45, 200, 517, 1000])
    @pytest.mark.parametrize("shape", [(1, 12, 64), (1, 32, 128)])
    def test_patterns_at_ragged_lengths(self, pattern, seq_len, shape):
        batch, heads, head_size = shape
        mask = make_pattern(pattern, seq_len, rng=RngStream(seq_len).fork(pattern))
        for spec in (A100, RTX4090, NO_8_WARP_BLOCKS):
            assert_plan_matches_oracle(
                AttentionProblem(batch, heads, seq_len, head_size, mask), spec
            )

    @pytest.mark.parametrize("rows", [(0, 64), (300, 364), (640, 1000), (999, 1000)])
    def test_rectangular_chunk_problem(self, rows):
        """A chunked-prefill slice: rows [a, b) of a causal bigbird mask
        over keys [0, b)."""
        a, b = rows
        full = make_pattern("bigbird", 1000, rng=RngStream(5).fork("c")) & causal_mask(1000)
        prob = AttentionProblem(
            1, 32, b - a, 128, full[a:b, :b], kv_seq_len=b
        )
        assert_plan_matches_oracle(prob, A100)


def test_fresh_plan_tiles_the_mask_once(monkeypatch):
    """Planning a fresh problem builds one BSR (the 16x16 one every
    candidate tiling is priced from), not one per candidate tiling."""
    calls = []
    from_dense = BlockSparseMask.from_dense.__func__

    def counting(cls, mask, block_m, block_n):
        calls.append((block_m, block_n))
        return from_dense(cls, mask, block_m, block_n)

    monkeypatch.setattr(BlockSparseMask, "from_dense", classmethod(counting))
    prob = AttentionProblem.build("bigbird", 1, 12, 1024, 64, rng=RngStream(3))
    compile_attention_plan(prob, A100)
    assert calls == [(16, 16)]
