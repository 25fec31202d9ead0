"""Tests for AttentionProblem and the UnifiedMHA facade."""

import numpy as np
import pytest

from repro.core.errors import ConfigError
from repro.core.fp16 import fp16_allclose
from repro.gpu.specs import A100
from repro.mha.module import UnifiedMHA
from repro.mha.problem import AttentionProblem
from repro.mha.reference import solve_reference
from repro.mha.selector import KernelChoice


class TestAttentionProblem:
    def test_build_with_tensors(self, rng):
        prob = AttentionProblem.build(
            "causal", 2, 3, 32, 8, rng=rng.fork("b"), with_tensors=True
        )
        assert prob.q.shape == (2, 3, 32, 8)
        assert prob.q.dtype == np.float16

    def test_build_reproducible(self):
        from repro.core.rng import RngStream

        a = AttentionProblem.build("bigbird", 1, 1, 64, 8, rng=RngStream(7), with_tensors=True)
        b = AttentionProblem.build("bigbird", 1, 1, 64, 8, rng=RngStream(7), with_tensors=True)
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.q, b.q)

    def test_mask_shape_validation(self):
        with pytest.raises(ConfigError):
            AttentionProblem(1, 1, 16, 8, np.ones((8, 8), bool))

    def test_tensor_shape_validation(self):
        with pytest.raises(ConfigError):
            AttentionProblem(
                1, 1, 8, 4, np.ones((8, 8), bool), q=np.zeros((1, 1, 8, 8), np.float16)
            )

    def test_bsr_cached(self, small_problem):
        a = small_problem.bsr(16, 16)
        b = small_problem.bsr(16, 16)
        assert a is b
        assert small_problem.bsr(32, 32) is not a

    def test_block_counts_cached(self, small_problem):
        a = small_problem.block_counts(32, 64)
        assert small_problem.block_counts(32, 64) is a

    def test_nnz_needs_no_csr(self, small_problem):
        """Pricing reads nnz; only execution needs the element CSR."""
        assert small_problem.nnz == small_problem.mask.sum()
        assert small_problem._csr_cache is None
        row_ptr, _ = small_problem.csr()
        assert small_problem.nnz == row_ptr[-1]

    def test_csr_consistent_with_mask(self, small_problem):
        row_ptr, col_idx = small_problem.csr()
        assert row_ptr[-1] == small_problem.mask.sum()
        i = small_problem.seq_len // 2
        cols = col_idx[row_ptr[i] : row_ptr[i + 1]]
        assert np.array_equal(np.sort(cols), np.flatnonzero(small_problem.mask[i]))

    def test_derived_quantities(self, small_problem):
        p = small_problem
        assert p.n_bh == p.batch * p.heads
        assert p.scale == pytest.approx(1 / np.sqrt(p.head_size))
        assert p.qkv_bytes == p.n_bh * p.seq_len * p.head_size * 2
        assert p.scores_bytes == p.n_bh * p.seq_len * p.seq_len * 2
        assert 0 < p.density < 1

    def test_column_distribution_gate(self, rng):
        sw = AttentionProblem.build("sliding_window", 1, 1, 64, 8, rng=rng.fork("c1"))
        dil = AttentionProblem.build("dilated", 1, 1, 64, 8, rng=rng.fork("c2"))
        assert sw.column_distribution_continuous()
        assert not dil.column_distribution_continuous()


class TestUnifiedMHA:
    def test_run_matches_reference(self, small_problem):
        mha = UnifiedMHA(A100)
        out = mha.run(small_problem)
        assert fp16_allclose(out, solve_reference(small_problem))

    def test_plan_fields(self, small_problem):
        plan = UnifiedMHA(A100).plan(small_problem)
        assert plan.choice in (KernelChoice.ROW_WISE, KernelChoice.BLOCK_WISE)
        assert plan.estimated_s > 0
        assert plan.analysis_overhead_s >= 0
        assert len(plan.launches) == 1
        assert plan.kernel_name.startswith("stof-")

    def test_paper_mode_supported(self, small_problem):
        plan = UnifiedMHA(A100, mode="paper").plan(small_problem)
        assert plan.estimated_s > 0

    def test_plan_deterministic(self, small_problem):
        p1 = UnifiedMHA(A100).plan(small_problem)
        p2 = UnifiedMHA(A100).plan(small_problem)
        assert p1.choice == p2.choice
        assert p1.params == p2.params
        assert p1.estimated_s == p2.estimated_s

    def test_device_affects_selection_params(self, rng):
        prob = AttentionProblem.build("bigbird", 8, 12, 1024, 64, rng=rng.fork("dev"))
        from repro.gpu.specs import RTX4090

        pa = UnifiedMHA(A100).plan(prob)
        pr = UnifiedMHA(RTX4090).plan(prob)
        # Times must differ across devices; parameters may or may not.
        assert pa.estimated_s != pr.estimated_s
