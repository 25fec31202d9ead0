"""The packed decode step's row price is its planned launches' price.

``ServingEngine._price_rows`` feeds ``rowwise_launch_fields`` straight to
the time model through ``estimate_launch_seconds``, with the launch's
occupancy resolved once per engine, and memoizes the price on its five
integers.  Its seconds must equal, bit for bit, the sum over
``plan_rowwise_launches`` of ``estimate_kernel_time(...).total`` (the path
through ``KernelCost``, ``LaunchConfig`` and the occupancy lookup), and
its launches theirs: computed and memoized, on both evaluation GPUs and
on a tp2 replica, over draws that reach the flash-decoding split, KV
larger than L2 and grids of more than one wave (suffix prefills price
thousands of rows).  A fleet's replicas and its capacity probe share one
memo; a standalone engine owns its own.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.fp16 import FP16_BYTES
from repro.core.rng import RngStream
from repro.gpu.cost import estimate_kernel_time
from repro.gpu.specs import A100, RTX4090
from repro.mha.rowwise import RowWiseKernel, plan_rowwise_launches
from repro.parallel import AutoscalingServingEngine, FleetConfig
from repro.serving import ServingConfig, ServingEngine, make_scheduler
from repro.serving.workload import make_scenario

ENGINES = {
    "a100": lambda: ServingEngine(A100, make_scheduler("continuous")),
    "rtx4090": lambda: ServingEngine(RTX4090, make_scheduler("continuous")),
    "a100-tp2": lambda: ServingEngine(
        A100, make_scheduler("continuous"), shard="tp2"
    ),
}


def planned_price(engine, rows, kv, nnz, nonempty, single):
    """(seconds, launches) of the rows through the planned launches, and
    the most waves a launch runs."""
    contig = 1.0 if nonempty == 0 else float(single) / float(nonempty)
    kernel = RowWiseKernel()
    seconds = 0.0
    launches = 0
    waves = 0
    for cost, config in plan_rowwise_launches(
        engine.spec,
        num_warps=kernel.default_params(None, engine.spec)["num_warps"],
        n_bh=engine.config.heads,
        seq_len=rows,
        kv_seq_len=kv,
        head_size=engine.config.head_size,
        nnz=nnz,
        contiguous_fraction=contig,
        kernel_name=kernel.name,
    ):
        breakdown = estimate_kernel_time(engine.spec, cost, config)
        seconds += breakdown.total
        launches += cost.launches
        waves = max(waves, breakdown.waves)
    n_layers = engine.config.n_layers
    return (seconds * n_layers, launches * n_layers), waves


@st.composite
def row_stats(draw):
    """(rows, total KV, nnz, non-empty rows, single-run rows) of a packed
    decode step or a suffix prefill: every row owns at least one key, and
    attends at most every key."""
    rows = draw(st.integers(1, 8192))
    kv = draw(st.integers(rows, 1 << 17))
    nnz = draw(st.integers(0, kv))
    nonempty = draw(st.integers(0, min(rows, nnz)))
    single = draw(st.integers(0, nonempty))
    return rows, kv, nnz, nonempty, single


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_row_price_equals_the_planned_launches_price(name):
    engine = ENGINES[name]()
    seen = set()

    @settings(max_examples=150, deadline=None)
    @given(stats=row_stats())
    @example(stats=(1, 4096, 4096, 1, 1))          # one long row: split
    @example(stats=(64, 100_000, 100_000, 64, 64))  # KV past L2
    @example(stats=(8192, 8192, 4096, 4096, 0))     # several waves
    def check(stats):
        engine._row_prices.clear()
        want, waves = planned_price(engine, *stats)
        for got in (engine._price_rows(*stats), engine._price_rows(*stats)):
            assert got[0].hex() == want[0].hex()
            assert got[1] == want[1]
        assert engine._row_prices[stats] == want
        if want[1] == 2 * engine.config.n_layers:
            seen.add("split")
        kv_resident = 2.0 * (
            engine.config.heads * stats[1] * engine.config.head_size * FP16_BYTES
        )
        if kv_resident > engine.spec.l2_bytes:
            seen.add("kv past L2")
        if waves > 1:
            seen.add("waves")

    check()
    assert seen == {"split", "kv past L2", "waves"}


def test_a_fleet_prices_rows_through_one_memo():
    fleet = AutoscalingServingEngine(
        A100,
        config=ServingConfig(heads=4, head_size=16, n_layers=2),
        fleet=FleetConfig(autoscale=True, max_replicas=3),
    )
    built = []
    replica = fleet._replica

    def spy(*args, **kwargs):
        built.append(replica(*args, **kwargs))
        return built[-1]

    fleet._replica = spy
    trace = make_scenario("steady", 48, 3000.0).generate(RngStream(3))
    fleet.run(trace, rng=RngStream(3))
    assert built, "the capacity probe builds a replica"
    memo = fleet.replicas[0]._row_prices
    assert memo
    assert all(e._row_prices is memo for e in fleet.replicas + built)
    a, b = ENGINES["a100"](), ENGINES["a100"]()
    assert a._row_prices is not b._row_prices
