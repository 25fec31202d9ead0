"""Property tests: monotonicity and sanity laws of the device model.

Every benchmark shape rests on these laws holding everywhere in the input
space, not just at the calibrated points — so they are hypothesis-tested.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.errors import ConfigError
from repro.gpu.cost import (
    KernelCost,
    LaunchConfig,
    estimate_kernel_time,
    estimate_kernel_times,
)
from repro.gpu.specs import A100, H100, RTX4090

SPECS = [A100, RTX4090, H100]

volumes = st.floats(min_value=0.0, max_value=1e11)
grids = st.integers(min_value=1, max_value=200000)
warps = st.sampled_from([1, 2, 4, 8])


@st.composite
def costs(draw):
    return KernelCost(
        name="p",
        bytes_dram_read=draw(volumes),
        bytes_dram_written=draw(volumes),
        bytes_l2_read=draw(volumes),
        bytes_smem=draw(volumes),
        flops_tensor=draw(st.floats(0, 1e13)),
        flops_simt=draw(st.floats(0, 1e12)),
        sync_rounds=draw(st.floats(0, 1e4)),
    )


@settings(max_examples=60, deadline=None)
@given(cost=costs(), grid=grids, w=warps, spec=st.sampled_from(SPECS))
def test_more_volume_never_faster(cost, grid, w, spec):
    cfg = LaunchConfig(grid_blocks=grid, warps_per_block=w)
    t1 = estimate_kernel_time(spec, cost, cfg).total
    t2 = estimate_kernel_time(spec, cost.scaled(2.0), cfg).total
    assert t2 >= t1 - 1e-15


@settings(max_examples=60, deadline=None)
@given(cost=costs(), grid=grids, w=warps, spec=st.sampled_from(SPECS))
def test_pipelining_never_hurts(cost, grid, w, spec):
    over = LaunchConfig(grid_blocks=grid, warps_per_block=w, pipelined=True)
    serial = LaunchConfig(grid_blocks=grid, warps_per_block=w, pipelined=False)
    t_over = estimate_kernel_time(spec, cost, over).total
    t_serial = estimate_kernel_time(spec, cost, serial).total
    assert t_over <= t_serial + 1e-15


@settings(max_examples=60, deadline=None)
@given(cost=costs(), grid=grids, w=warps, spec=st.sampled_from(SPECS))
def test_merging_two_kernels_saves_a_launch(cost, grid, w, spec):
    """Fusing identical halves never exceeds running them detached."""
    cfg = LaunchConfig(grid_blocks=grid, warps_per_block=w)
    half = cost.scaled(0.5)
    t_two = 2 * estimate_kernel_time(spec, half, cfg).total
    t_one = estimate_kernel_time(spec, half.merged_with(half), cfg).total
    assert t_one <= t_two + 1e-12


@settings(max_examples=60, deadline=None)
@given(cost=costs(), grid=grids, w=warps, spec=st.sampled_from(SPECS))
def test_conflict_factor_monotone(cost, grid, w, spec):
    assume(cost.bytes_smem > 0)
    cfg = LaunchConfig(grid_blocks=grid, warps_per_block=w)
    import dataclasses

    worse = dataclasses.replace(cost, bank_conflict_factor=8.0)
    t_clean = estimate_kernel_time(spec, cost, cfg)
    t_worse = estimate_kernel_time(spec, worse, cfg)
    assert t_worse.smem >= t_clean.smem


@settings(max_examples=60, deadline=None)
@given(cost=costs(), w=warps, spec=st.sampled_from(SPECS))
def test_breakdown_sums_consistently(cost, w, spec):
    cfg = LaunchConfig(grid_blocks=1024, warps_per_block=w, pipelined=False)
    bd = estimate_kernel_time(spec, cost, cfg)
    expected = bd.launch + (bd.dram + bd.l2) + max(bd.smem, bd.tensor + bd.simt) + bd.sync
    assert bd.total == pytest.approx(expected, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    rd=volumes, wr=volumes, l2=volumes, smem=volumes,
    ftc=st.floats(0, 1e13), w=warps,
)
def test_h100_not_slower_than_a100_on_tensor_work(rd, wr, l2, smem, ftc, w):
    """Strictly better peak specs cannot lose on tensor/bandwidth work
    (SIMT flops excluded: they obey their own peaks)."""
    cost = KernelCost(
        name="p", bytes_dram_read=rd, bytes_dram_written=wr,
        bytes_l2_read=l2, bytes_smem=smem, flops_tensor=ftc,
    )
    cfg = LaunchConfig(grid_blocks=8192, warps_per_block=w)
    t_h = estimate_kernel_time(H100, cost, cfg).total
    t_a = estimate_kernel_time(A100, cost, cfg).total
    assert t_h <= t_a + 1e-12


@settings(max_examples=60, deadline=None)
@given(grid=grids, w=warps, spec=st.sampled_from(SPECS))
def test_bigger_grid_never_slower_for_fixed_volume(grid, w, spec):
    """More parallelism over the same total volume cannot hurt."""
    cost = KernelCost(name="c", bytes_dram_read=1e9)
    cfg1 = LaunchConfig(grid_blocks=grid, warps_per_block=w)
    cfg2 = LaunchConfig(grid_blocks=grid * 2, warps_per_block=w)
    t1 = estimate_kernel_time(spec, cost, cfg1).total
    t2 = estimate_kernel_time(spec, cost, cfg2).total
    assert t2 <= t1 * 1.01 + 1e-12  # tiny tolerance for wave quantization


# ------------------------------------------------- scalar and array evaluation
#
# One formula body prices a launch on Python floats and a candidate grid on
# NumPy arrays; the array path must give the scalar path's doubles.

#: Specs with a missing throughput path (the ``if spec.X`` guards) and one on
#: which every 8-warp block fails occupancy.
ARRAY_SPECS = SPECS + [
    A100.with_overrides(l2_bandwidth=0.0),
    RTX4090.with_overrides(fp16_tensor_flops=0.0),
    H100.with_overrides(fp32_simt_flops=0.0, l2_bandwidth=0.0),
    A100.with_overrides(max_threads_per_block=128),
]

#: Volumes that are often exactly zero (the ``where(volume, ...)`` guards).
maybe_zero = st.one_of(st.just(0.0), volumes)


@st.composite
def launches(draw):
    cost = KernelCost(
        name="p",
        bytes_dram_read=draw(maybe_zero),
        bytes_dram_written=draw(maybe_zero),
        bytes_l2_read=draw(maybe_zero),
        bytes_smem=draw(maybe_zero),
        bank_conflict_factor=draw(st.sampled_from([1.0, 2.0, 8.0, 32.0])),
        flops_tensor=draw(st.one_of(st.just(0.0), st.floats(0, 1e13))),
        flops_simt=draw(st.one_of(st.just(0.0), st.floats(0, 1e12))),
        sync_rounds=draw(st.one_of(st.just(0.0), st.floats(0, 1e4))),
        launches=draw(st.integers(0, 3)),
    )
    # Warps, SMEM and registers range past what fits, so some launches
    # raise ConfigError in the scalar path.
    config = LaunchConfig(
        grid_blocks=draw(grids),
        warps_per_block=draw(st.sampled_from([1, 2, 4, 8, 16, 32, 33, 64])),
        smem_per_block=draw(st.integers(0, 240 * 1024)),
        regs_per_thread=draw(st.sampled_from([16, 32, 64, 128, 255])),
        pipelined=draw(st.booleans()),
    )
    return cost, config


@settings(max_examples=80, deadline=None)
@given(
    spec=st.sampled_from(ARRAY_SPECS),
    batch=st.lists(launches(), min_size=1, max_size=16),
)
def test_array_totals_equal_scalar_totals_bit_for_bit(spec, batch):
    """``+inf`` exactly where the scalar path raises, its double elsewhere."""
    fields = {
        f.name: np.array([getattr(cost, f.name) for cost, _ in batch])
        for f in dataclasses.fields(KernelCost)
        if f.name != "name"
    }
    fields.update(
        (f.name, np.array([getattr(config, f.name) for _, config in batch]))
        for f in dataclasses.fields(LaunchConfig)
    )
    expected = []
    for cost, config in batch:
        try:
            total = estimate_kernel_time(spec, cost, config).total
            assert math.isfinite(total)
        except ConfigError:
            total = math.inf
        expected.append(total.hex())
    got = estimate_kernel_times(spec, **fields).tolist()
    assert [t.hex() for t in got] == expected
