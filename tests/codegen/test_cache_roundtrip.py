"""Disk-cache round trips: warm starts re-import byte-identical modules with
zero emission cost, and corrupted or stale entries are never executed."""

import json

import numpy as np
import pytest

from repro.codegen.cache import source_hash, use_codegen_cache
from repro.gpu.specs import A100
from repro.mha.blockwise import BlockWiseKernel
from repro.mha.problem import AttentionProblem
from repro.mha.rowwise import RowWiseKernel
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import Tracer, use_tracer

KERNELS = [RowWiseKernel, BlockWiseKernel]
KERNEL_IDS = [cls.__name__ for cls in KERNELS]


def make_problem(rng, tag="roundtrip"):
    return AttentionProblem.build(
        "bigbird", 1, 2, 96, 16, rng=rng.fork(tag), with_tensors=True
    )


def run_traced(cls, prob, params=None, metrics=None):
    kernel = cls(exec_backend="codegen")
    p = params or kernel.default_params(prob, A100)
    tracer = Tracer()
    registry = MetricsRegistry() if metrics is None else metrics
    with use_tracer(tracer), use_metrics(registry):
        out = kernel.run(prob, p)
    return out, tracer


def kernel_series(metrics):
    """The ``mha.*`` kernel counters one registry collected."""
    return {
        (name, labels): inst.value
        for name, labels, kind, inst in metrics.collect()
        if name.startswith("mha.")
    }


@pytest.mark.parametrize("cls", KERNELS, ids=KERNEL_IDS)
def test_warm_start_is_byte_identical_with_zero_emission(cls, tmp_path, rng):
    """Second process (simulated by a fresh cache over the same directory):
    the module loads from disk byte-for-byte and nothing is re-emitted."""
    cold_metrics, warm_metrics = MetricsRegistry(), MetricsRegistry()
    with use_codegen_cache(tmp_path) as cache:
        out_cold, tr_cold = run_traced(cls, make_problem(rng), metrics=cold_metrics)
        assert len(tr_cold.find(name="codegen.emit")) == 1
        assert [s.args["outcome"] for s in tr_cold.find(name="codegen.cache")] == [
            "miss"
        ]
        (entry,) = cache._entries.values()
        cold_source = entry.source

    disk_sources = sorted(tmp_path.glob("*.py"))
    assert len(disk_sources) == 1
    assert disk_sources[0].read_text() == cold_source

    # Fresh problem object too: the per-problem memo must not leak across.
    with use_codegen_cache(tmp_path) as cache2:
        out_warm, tr_warm = run_traced(cls, make_problem(rng), metrics=warm_metrics)
        assert tr_warm.find(name="codegen.emit") == []
        assert [s.args["outcome"] for s in tr_warm.find(name="codegen.cache")] == [
            "hit-disk"
        ]
        (entry2,) = cache2._entries.values()
        assert entry2.source == cold_source
        assert cache2.stats()["hits_disk"] == 1
        assert cache2.stats()["misses"] == 0
    assert np.array_equal(out_cold, out_warm)
    # The sidecar carries the group records: a disk hit reports the same
    # kernel counters as the emitting run.
    assert kernel_series(cold_metrics)
    assert kernel_series(warm_metrics) == kernel_series(cold_metrics)


@pytest.mark.parametrize("cls", KERNELS, ids=KERNEL_IDS)
def test_memory_tier_skips_disk(cls, tmp_path, rng):
    prob = make_problem(rng)
    with use_codegen_cache(tmp_path) as cache:
        kernel = cls(exec_backend="codegen")
        params = kernel.default_params(prob, A100)
        kernel.run(prob, params)
        # Same mask content on a fresh problem: served from the memory tier.
        _, tracer = run_traced(cls, make_problem(rng), params)
        assert [s.args["outcome"] for s in tracer.find(name="codegen.cache")] == [
            "hit-memory"
        ]
        assert cache.stats()["hits_memory"] == 1


@pytest.mark.parametrize("cls", KERNELS, ids=KERNEL_IDS)
def test_corrupted_source_is_rejected_and_regenerated(cls, tmp_path, rng):
    """Flipping bytes in the cached module must never execute: the hash
    check drops the entry and emission runs again in place."""
    with use_codegen_cache(tmp_path):
        out_cold, _ = run_traced(cls, make_problem(rng))
    (src,) = tmp_path.glob("*.py")
    good = src.read_text()
    src.write_text(good + "\nraise RuntimeError('tampered')\n")

    with use_codegen_cache(tmp_path) as cache:
        out, tracer = run_traced(cls, make_problem(rng))
        assert len(tracer.find(name="codegen.emit")) == 1
        assert [s.args["outcome"] for s in tracer.find(name="codegen.cache")] == [
            "miss"
        ]
        assert cache.stats()["rejected"] == 1
    assert np.array_equal(out, out_cold)
    # The slot was rewritten clean.
    (src2,) = tmp_path.glob("*.py")
    assert src2.read_text() == good


@pytest.mark.parametrize("cls", KERNELS, ids=KERNEL_IDS)
def test_stale_template_version_is_rejected(cls, tmp_path, rng):
    """A sidecar recording an older emission version never loads, even when
    the source bytes are intact."""
    with use_codegen_cache(tmp_path):
        run_traced(cls, make_problem(rng))
    (meta_path,) = tmp_path.glob("*.json")
    meta = json.loads(meta_path.read_text())
    meta["version"] = meta["version"] - 1
    meta_path.write_text(json.dumps(meta))

    with use_codegen_cache(tmp_path) as cache:
        _, tracer = run_traced(cls, make_problem(rng))
        assert len(tracer.find(name="codegen.emit")) == 1
        assert cache.stats()["rejected"] == 1


def test_missing_consts_pool_is_rejected(tmp_path, rng):
    """An entry whose sidecar promises constants it cannot deliver is
    regenerated, not executed with a truncated pool."""
    with use_codegen_cache(tmp_path) as cache:
        run_traced(BlockWiseKernel, make_problem(rng))
        assert any(tmp_path.glob("*.npz")), "bigbird plan should bake consts"
    for npz in tmp_path.glob("*.npz"):
        npz.unlink()
    with use_codegen_cache(tmp_path) as cache:
        _, tracer = run_traced(BlockWiseKernel, make_problem(rng))
        assert len(tracer.find(name="codegen.emit")) == 1
        assert cache.stats()["rejected"] == 1


def test_sidecar_hash_matches_helper(tmp_path, rng):
    with use_codegen_cache(tmp_path):
        run_traced(RowWiseKernel, make_problem(rng))
    (src,) = tmp_path.glob("*.py")
    (meta_path,) = tmp_path.glob("*.json")
    meta = json.loads(meta_path.read_text())
    assert meta["sha256"] == source_hash(src.read_text())
    assert src.stem == meta_path.stem  # both named by the plan-key digest
    assert len(src.stem) == 64


def test_memory_only_cache_touches_no_disk(tmp_path, rng):
    """Without a cache dir nothing is written anywhere (the default mode)."""
    with use_codegen_cache(None) as cache:
        run_traced(RowWiseKernel, make_problem(rng))
        assert cache.source_path("x" * 64) is None
    assert list(tmp_path.iterdir()) == []
