"""Property-based tests for symbolic plan keys and guarded families.

Three invariant groups, all hypothesis-driven:

* **Guard algebra** — round-trips (JSON, canonical ordering) and the
  recorder's baked-constant regions (``floordiv`` guards admit exactly
  the values that reproduce the baked constant).
* **Cache families** — keyed the way the serving engine and codegen key
  them (``find_family``, else ``put`` a new ``SymbolicPlanKey``): the
  first admitting sibling wins, each guard region builds once, a revisit
  replays its own sibling's value, and each new sibling counts one split.
* **Emission differential** — any ``n_bh`` admitted by a recorded
  family's guards re-emits the byte-identical module and produces output
  identical to a fresh concrete compile of that shape.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigError
from repro.plan import (
    BoundGuard,
    BucketGuard,
    GuardRecorder,
    GuardSet,
    PlanCache,
    PlanKey,
    SymbolicPlanKey,
    guard_from_dict,
    guard_to_dict,
)

# ------------------------------------------------------------- strategies

values = st.integers(min_value=0, max_value=1 << 16)
names = st.sampled_from(("seq_len", "pos", "n_bh", "nnz_blocks"))


@st.composite
def guards(draw):
    kind = draw(st.sampled_from(("bound", "bucket")))
    var = draw(names)
    if kind == "bucket":
        return BucketGuard(
            var, draw(st.integers(1, 512)), draw(st.integers(0, 64))
        )
    lo = draw(st.none() | values)
    hi = draw(st.none() | values)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return BoundGuard(var, lo=lo, hi=hi)


@st.composite
def guard_sets(draw):
    return GuardSet(draw(st.lists(guards(), max_size=6)))


# ----------------------------------------------------------- guard algebra


@given(guards())
def test_guard_json_round_trip(g):
    assert guard_from_dict(json.loads(json.dumps(guard_to_dict(g)))) == g


@given(guard_sets())
def test_guard_set_payload_round_trip(gs):
    back = GuardSet.from_payload(json.loads(json.dumps(gs.to_payload())))
    assert back == gs
    assert back.digest == gs.digest


@given(st.lists(guards(), max_size=6), st.randoms())
def test_guard_set_order_insensitive(gl, rnd):
    shuffled = list(gl)
    rnd.shuffle(shuffled)
    a, b = GuardSet(gl), GuardSet(shuffled)
    assert a == b
    assert hash(a) == hash(b)
    assert a.digest == b.digest


@given(
    st.integers(min_value=1, max_value=1 << 22),
    st.integers(min_value=1, max_value=4096),
    st.integers(min_value=1, max_value=4096),
)
def test_floordiv_guard_region_is_exact(numerator, coeff, v):
    """Every value the recorded guard admits bakes the same constant."""
    rec = GuardRecorder(n_bh=v)
    baked = rec.floordiv("n_bh", numerator, coeff)
    gs = rec.guard_set()
    assert baked == max(1, numerator // (coeff * v))
    (guard,) = gs.guards
    for probe in (v - 1, v + 1, guard.lo, guard.hi):
        if probe is None or probe < 1:
            continue
        expected = max(1, numerator // (coeff * probe))
        assert gs.check({"n_bh": probe}) == (expected == baked), (
            probe, baked, expected,
        )


@given(st.integers(1, 1 << 20), st.integers(1, 1 << 20))
def test_recorder_le_records_exact_half_line(value, bound):
    rec = GuardRecorder(n_bh=value)
    answer = rec.le("n_bh", bound)
    gs = rec.guard_set()
    assert answer == (value <= bound)
    # The guard admits exactly the values answering the same way.
    assert gs.check({"n_bh": bound}) == answer
    assert gs.check({"n_bh": bound + 1}) == (not answer)


def test_guard_validation():
    with pytest.raises(ConfigError):
        BoundGuard("x", lo=5, hi=4)
    with pytest.raises(ConfigError):
        BucketGuard("x", 0, 0)


def test_check_fails_on_missing_vars():
    gs = GuardSet([BoundGuard("pos", hi=128)])
    assert not gs.check({})
    assert gs.check({"pos": 7})


# --------------------------------------------------------- cache families


def _key(seq_len: int, kind: str = "mha") -> PlanKey:
    return PlanKey(kind=kind, batch=1, heads=2, seq_len=seq_len,
                   kv_seq_len=seq_len, head_size=16, pattern="causal")


@given(st.lists(st.integers(1, 4096), min_size=1, max_size=24))
def test_family_lookup_never_silently_reuses(seqs):
    """Keyed as serving keys decode rows (a ``BucketGuard`` sibling per
    region): each region builds exactly once, every revisit replays its
    own sibling's value, and each new sibling counts one split."""
    cache = PlanCache(max_entries=None)
    base = _key(0)
    built = []

    def plan_for(seq_len):
        shape = {"seq_len": seq_len}
        fam = cache.find_family(base, ("seq_len",), shape)
        if fam is None:
            fam = SymbolicPlanKey(
                base, ("seq_len",),
                GuardSet([BucketGuard("seq_len", 256, seq_len // 256)]),
            )
        assert fam.admits(shape)

        def build():
            built.append(seq_len // 256)
            return ("plan", seq_len // 256)
        return cache.get_or_build(fam, build)

    for seq in seqs:
        value = plan_for(seq)
        assert value == ("plan", seq // 256)  # guard admits => right plan
    assert sorted(set(built)) == sorted(built)  # one build per region
    regions = {seq // 256 for seq in seqs}
    sym = cache.stats()["symbolic"]
    assert sym["families"] == len(regions)
    assert sym["splits"] == len(regions) - 1


def test_split_family_never_readmits_violator():
    """Keyed as codegen keys modules (a sibling per recorded
    ``BoundGuard`` region): a probe the first sibling rejects keys a new
    sibling that excludes the old region, and lookups take the first
    admitting sibling."""
    cache = PlanCache(max_entries=None)
    base = _key(0)
    dims = ("n_bh",)

    def key_for(n_bh):
        fam = cache.find_family(base, dims, {"n_bh": n_bh})
        if fam is None:
            rec = GuardRecorder(n_bh=n_bh)
            rec.le("n_bh", 128)
            fam = SymbolicPlanKey(base, dims, rec.guard_set())
        return fam

    fam1 = key_for(100)
    cache.put(fam1, "small")
    # A violating shape resolves to a *new* sibling...
    fam2 = key_for(500)
    assert fam2 != fam1
    assert fam2.admits({"n_bh": 500})
    # ...and the regions never overlap at either probe.
    assert not fam1.admits({"n_bh": 500})
    assert not fam2.admits({"n_bh": 100})
    cache.put(fam2, "large")
    assert cache.stats()["symbolic"]["splits"] == 1
    # A revisit replays its own sibling's value.
    assert key_for(64) == fam1 and cache.get(key_for(64)) == "small"
    assert key_for(999) == fam2 and cache.get(key_for(999)) == "large"
    # An overlapping later sibling never shadows an earlier one.
    wide = SymbolicPlanKey(base, dims, GuardSet([BoundGuard("n_bh", hi=1024)]))
    cache.put(wide, "wide")
    assert cache.stats()["symbolic"]["splits"] == 2
    assert cache.find_family(base, dims, {"n_bh": 64}) == fam1
    assert cache.find_family(base, dims, {"n_bh": 500}) == fam2


# ------------------------------------------------------------- persistence


def test_v2_round_trip_preserves_families(tmp_path):
    cache = PlanCache(max_entries=None)
    fam = SymbolicPlanKey(
        _key(0, "serving-decode"), ("pos",), GuardSet([BucketGuard("pos", 64, 3)])
    )
    cache.put(fam, {"rows": 7})
    cache.put(_key(128), 0.5)
    path = tmp_path / "cache.json"
    cache.save(path)
    payload = json.loads(path.read_text())
    assert payload["version"] == 2
    assert len(payload["families"]) == 1

    warm = PlanCache(max_entries=None)
    assert warm.load(path) == 2
    restored = warm.find_family(fam.base, ("pos",), {"pos": 200})
    assert restored == fam
    assert warm.peek(restored) == {"rows": 7}
    assert warm.peek(_key(128)) == 0.5
    # Warm-starting restores structure, not this process's split events.
    assert warm.stats()["symbolic"]["splits"] == 0


def test_v1_files_still_load(tmp_path):
    """The pre-families schema (concrete keys only) stays loadable."""
    key = _key(96)
    payload = {
        "version": 1,
        "entries": [{"key": key.to_dict(), "value": {"t": "num", "v": 3.5}}],
    }
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(payload))
    cache = PlanCache()
    assert cache.load(path) == 1
    assert cache.peek(key) == 3.5
    assert cache.stats()["symbolic"]["families"] == 0


# ------------------------------------------------------ emission differential


@settings(deadline=None, max_examples=20)
@given(
    st.integers(min_value=8, max_value=48),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=64),
    st.randoms(use_true_random=False),
)
def test_admitted_shapes_reemit_identical_modules(seq, n_bh_a, n_bh_b, rnd):
    """Any n_bh admitted by a recorded family's guards re-emits the
    byte-identical module and computes output identical to a fresh
    concrete compile at that shape."""
    from repro.codegen.rowwise import specialize_rowwise

    mask = np.zeros((seq, seq), dtype=bool)
    for i in range(seq):
        for j in range(max(0, i - 4), i + 1):
            mask[i, j] = rnd.random() < 0.8
    mask[0, 0] = True
    nnz = int(mask.sum())
    row_ptr = np.zeros(seq + 1, dtype=np.int64)
    np.cumsum(mask.sum(axis=1), out=row_ptr[1:])
    col_idx = np.nonzero(mask)[1].astype(np.int64)
    assert row_ptr[-1] == nnz

    rec = GuardRecorder(n_bh=n_bh_a)
    fam = specialize_rowwise(
        row_ptr, col_idx, mask, n_bh_a, 8, "family:x", "custom", sym=rec
    )
    guards = rec.guard_set()
    if not guards.check({"n_bh": n_bh_b}):
        return  # not in this family: would be a split, not a reuse

    rec_b = GuardRecorder(n_bh=n_bh_b)
    fam_b = specialize_rowwise(
        row_ptr, col_idx, mask, n_bh_b, 8, "family:x", "custom", sym=rec_b
    )
    assert fam_b.source == fam.source       # byte-identical re-emission
    assert rec_b.guard_set() == guards      # same region recorded

    # Loop oracle: the family module at n_bh_b matches a fresh concrete
    # emission at n_bh_b exactly (same arithmetic, same dtypes).
    concrete = specialize_rowwise(
        row_ptr, col_idx, mask, n_bh_b, 8, "concrete", "custom"
    )
    rng = np.random.default_rng(0)
    q = rng.standard_normal((n_bh_b, seq, 8)).astype(np.float32)
    k = rng.standard_normal((n_bh_b, seq, 8)).astype(np.float32)
    v = rng.standard_normal((n_bh_b, seq, 8)).astype(np.float32)

    def run(gen):
        ns = {}
        exec(compile(gen.source, "<test>", "exec"), ns)
        return ns["run"](q, k, v, gen.consts)

    out_family = run(fam)
    out_concrete = run(concrete)
    np.testing.assert_array_equal(out_family, out_concrete)
