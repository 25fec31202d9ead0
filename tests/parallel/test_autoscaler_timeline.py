"""The autoscaler's width timeline: a later decision supersedes a scale-up
still pending at its decision time, and every step changes the width."""

import pytest

from repro.core.rng import RngStream
from repro.gpu.specs import A100
from repro.parallel import AutoscalingServingEngine, FleetConfig
from repro.serving import Request, ServingConfig, make_scenario

CONFIG = ServingConfig(heads=8, head_size=32, n_layers=4)

#: One-second windows, scale-ups landing 1.5 s after their decision (so a
#: scale-up is still pending at the next decision), 100 tokens/s planned
#: per replica: a window holding ``100 * n`` tokens asks for ``n``.
FLEET = FleetConfig(
    autoscale=True, min_replicas=1, max_replicas=8,
    scale_window_s=1.0, scale_up_latency_s=1.5, target_utilization=0.5,
)
CAPACITY = 200.0


def planned(widths):
    """The timeline planned for one arrival per window, window ``k``
    offering the load that asks for ``widths[k]`` replicas."""
    order = [
        Request(k, float(k), 100 * n - 1, 1) for k, n in enumerate(widths)
    ]
    engine = AutoscalingServingEngine(A100, config=CONFIG, fleet=FLEET)
    return engine._timeline(order, CAPACITY)


@pytest.mark.parametrize(
    "widths, timeline",
    [
        # The decision at t=2 overrides the scale-up to 8 pending until
        # t=2.5, and scales 1 -> 2 with the full latency.
        ([8, 2], [(0.0, 1), (3.5, 2)]),
        # Cancelling a pending scale-up back to the width in force
        # leaves nothing to record.
        ([8, 1], [(0.0, 1)]),
        # A decision that confirms the pending scale-up keeps it; once
        # it has landed, a scale-down is immediate.
        ([8, 8, 1], [(0.0, 1), (2.5, 8), (3.0, 1)]),
    ],
)
def test_later_decision_supersedes_pending_scale_up(widths, timeline):
    assert planned(widths) == timeline


def test_diurnal_fleet_ends_at_its_last_decision():
    """32-request diurnal trace, seed 11: the default window (an eighth
    of the arrival span) is shorter than the 2 ms scale-up latency.  The
    pending scale-ups used to land after the decisions that overrode
    them, so the fleet ended at 8 replicas although the last decision
    chose 2, and half of the timeline's steps kept the width."""
    trace = make_scenario("diurnal", n_requests=32, rate_rps=3000.0).generate(
        RngStream(11).fork("workload")
    )
    report = AutoscalingServingEngine(
        A100, config=CONFIG, fleet=FleetConfig(autoscale=True)
    ).run(trace, rng=RngStream(11))
    times = [t for t, _ in report.timeline]
    widths = [n for _, n in report.timeline]
    assert times == sorted(times)
    assert widths == [1, 8, 7, 6, 2]
    assert report.scale_events == 4
