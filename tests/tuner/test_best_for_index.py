"""``best_for`` reads the plan cache's salt index; the entries walk is the oracle.

Random interleavings of the operations that change a shared plan cache's
tuner entries or their recency — measurements (repeats, equal times,
failures), direct ``get``/``put`` of tuner keys,
other kinds' entries, ``PerformanceCache.load``, ``PlanCache.save`` and
``load`` round trips, ``clear`` and LRU eviction — must leave
``best_for`` equal to the walk over ``entries`` for every segment after
every step.  And equal times break by content: the same measurements,
made in any order with any hits between, give the same ``best_for``.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.plan import PlanCache, PlanKey
from repro.tuner.cache import PerformanceCache, measurement_key

from .test_segment_ids import oracle_best_for

SEGMENTS = ("seg-a", "seg-b", ("seg", 3))
TIMES = (0.5, 1.0, 2.0, None)  # None: the launch fails

segment = st.sampled_from(SEGMENTS)
setting = st.integers(0, 3)
time = st.sampled_from(TIMES)
op = st.one_of(
    st.tuples(st.just("evaluate"), segment, setting, time),
    st.tuples(st.just("put"), segment, setting, time),
    st.tuples(st.just("get"), segment, setting),
    st.tuples(st.just("other"), st.integers(0, 5)),
    st.tuples(st.just("perf-load")),
    st.tuples(st.just("plan-load")),
    st.tuples(st.just("rebuild")),
    st.tuples(st.just("clear")),
)


def measured(t):
    """The measurement of a setting that takes ``t`` (None: it fails)."""

    def measure():
        if t is None:
            raise ValueError("launch failed")
        return t

    return measure


def apply(op, perf: PerformanceCache, tmp: Path) -> PerformanceCache:
    """Run one operation; returns the cache to query next."""
    name, *args = op
    plans = perf.plans
    if name == "evaluate":
        seg, a, t = args
        perf.evaluate(seg, {"a": a}, measured(t))
    elif name == "put":
        seg, a, t = args
        plans.put(measurement_key(seg, {"a": a}), float("inf") if t is None else t)
    elif name == "get":
        seg, a = args
        plans.get(measurement_key(seg, {"a": a}))
    elif name == "other":
        plans.put(PlanKey(kind="mha", salt=f"m{args[0]}"), float(args[0]))
    elif name == "perf-load":
        perf.save(tmp / "perf.json")
        return PerformanceCache.load(tmp / "perf.json", plans=plans)
    elif name == "plan-load":
        plans.save(tmp / "plans.json")
        plans.load(tmp / "plans.json")
    elif name == "rebuild":
        # A tuner registered on a cache that already holds its entries.
        plans.save(tmp / "plans.json")
        fresh = PlanCache(max_entries=plans.max_entries)
        fresh.load(tmp / "plans.json")
        return PerformanceCache(plans=fresh)
    else:
        plans.clear()
    return perf


@settings(max_examples=150, deadline=None)
@given(max_entries=st.sampled_from((None, 3, 6)), ops=st.lists(op, max_size=30))
def test_best_for_equals_the_entries_walk_after_every_step(max_entries, ops):
    perf = PerformanceCache(plans=PlanCache(max_entries=max_entries))
    with tempfile.TemporaryDirectory() as tmp:
        for o in ops:
            perf = apply(o, perf, Path(tmp))
            for seg in SEGMENTS:
                assert perf.best_for(seg) == oracle_best_for(perf, seg), o


measurement = st.tuples(segment, setting, time)


@settings(max_examples=150, deadline=None)
@given(
    made=st.lists(measurement, max_size=12, unique_by=lambda m: m[:2]),
    data=st.data(),
)
def test_best_for_reads_contents_not_order(made, data):
    """Two caches measure the same settings, each in its own order and
    with its own repeats (hits, which refresh recency)."""
    answers = []
    for _ in range(2):
        repeats = data.draw(st.lists(st.sampled_from(made), max_size=12)) if made else []
        perf = PerformanceCache()
        for seg, a, t in data.draw(st.permutations(made + repeats)):
            perf.evaluate(seg, {"a": a}, measured(t))
        answers.append([perf.best_for(seg) for seg in SEGMENTS])
    assert answers[0] == answers[1]
