"""Tests for the CUDA occupancy calculator."""

import pytest

from repro.core.errors import ConfigError
from repro.gpu.occupancy import compute_occupancy
from repro.gpu.specs import A100, RTX4090


class TestLimits:
    def test_warp_limited(self, a100):
        occ = compute_occupancy(a100, warps_per_block=8, smem_per_block=0)
        assert occ.limiter in ("warps", "blocks")
        assert occ.blocks_per_sm == min(
            a100.max_warps_per_sm // 8, a100.max_blocks_per_sm
        )

    def test_smem_limited(self, a100):
        # 48 KiB blocks on a 164 KiB carveout -> 3 blocks.
        occ = compute_occupancy(a100, warps_per_block=4, smem_per_block=48 * 1024)
        assert occ.limiter == "smem"
        assert occ.blocks_per_sm == 3

    def test_register_limited(self, a100):
        occ = compute_occupancy(
            a100, warps_per_block=4, smem_per_block=0, regs_per_thread=255
        )
        assert occ.limiter == "registers"
        assert occ.blocks_per_sm == a100.registers_per_sm // (255 * 4 * 32)

    def test_block_cap(self, a100):
        occ = compute_occupancy(a100, warps_per_block=1, smem_per_block=0)
        assert occ.blocks_per_sm == a100.max_blocks_per_sm

    def test_occupancy_in_unit_interval(self, spec):
        for warps in (1, 2, 4, 8):
            for smem in (0, 16 * 1024, 64 * 1024):
                occ = compute_occupancy(spec, warps, smem)
                assert 0.0 < occ.occupancy <= 1.0

    def test_full_occupancy_achievable(self, a100):
        occ = compute_occupancy(a100, warps_per_block=4, smem_per_block=4096)
        assert occ.occupancy == 1.0


class TestRejections:
    def test_too_much_smem(self, a100):
        with pytest.raises(ConfigError):
            compute_occupancy(a100, 4, a100.smem_carveout_per_sm + 1)

    def test_too_many_threads(self, a100):
        with pytest.raises(ConfigError):
            compute_occupancy(a100, warps_per_block=33, smem_per_block=0)

    def test_zero_warps(self, a100):
        with pytest.raises(ConfigError):
            compute_occupancy(a100, warps_per_block=0, smem_per_block=0)

    def test_negative_smem(self, a100):
        with pytest.raises(ConfigError):
            compute_occupancy(a100, warps_per_block=4, smem_per_block=-1)

    def test_register_overflow(self, a100):
        # 255 regs/thread at 32 warps cannot fit a single block.
        with pytest.raises(ConfigError):
            compute_occupancy(
                a100, warps_per_block=32, smem_per_block=0, regs_per_thread=255
            )


class TestDeviceDifferences:
    def test_a100_allows_more_warps_than_ada(self):
        a = compute_occupancy(A100, warps_per_block=4, smem_per_block=0)
        r = compute_occupancy(RTX4090, warps_per_block=4, smem_per_block=0)
        assert a.active_warps_per_sm > r.active_warps_per_sm

    def test_a100_fits_bigger_smem_blocks(self):
        big = 120 * 1024
        compute_occupancy(A100, 4, big)  # fits
        with pytest.raises(ConfigError):
            compute_occupancy(RTX4090, 4, big)


class TestMemo:
    """Occupancy is memoized per (spec, warps, smem, regs)."""

    def test_hit_equals_fresh_computation(self, spec):
        from repro.gpu.occupancy import occupancy_or_reason

        for warps, smem in ((1, 0), (4, 48 * 1024), (8, 16 * 1024)):
            fresh = occupancy_or_reason.__wrapped__(spec, warps, smem, 32)
            assert compute_occupancy(spec, warps, smem) == fresh
            assert compute_occupancy(spec, warps, smem) == fresh

    def test_each_infeasible_call_raises_a_new_error(self, a100):
        errors = []
        for _ in range(2):
            with pytest.raises(ConfigError) as info:
                compute_occupancy(a100, warps_per_block=33, smem_per_block=0)
            errors.append(info.value)
        assert errors[0] is not errors[1]
        assert str(errors[0]) == str(errors[1])

    def test_failures_pin_no_caller_frame(self, a100):
        """A cached exception would keep every frame it was raised through,
        and their locals, alive for the life of the process."""
        import gc
        import weakref

        import numpy as np

        def failing_call(large):
            try:
                compute_occupancy(a100, warps_per_block=33, smem_per_block=0)
            except ConfigError:
                pass

        large = np.zeros(1 << 17)
        ref = weakref.ref(large)
        failing_call(large)
        failing_call(large)
        del large
        gc.collect()
        assert ref() is None
