"""Symbolic codegen families: one cached module per guard region of n_bh.

The concrete codegen path (flag off) is pinned byte-identical elsewhere
(``test_cache_roundtrip`` digests); these tests cover the opt-in family
path: sharing across admitted shapes, splitting on guard failure, the
disk family index, and output equality against the loop oracle.
"""

import numpy as np
import pytest

from repro.codegen import (
    codegen_plan_key,
    symbolic_codegen_enabled,
    use_codegen_cache,
    use_symbolic_codegen,
)
from repro.core.fp16 import fp16_allclose
from repro.gpu.specs import A100
from repro.mha.blockwise import BlockWiseKernel
from repro.mha.kernel import GATHER_CHUNK_ELEMS
from repro.mha.problem import AttentionProblem
from repro.mha.rowwise import RowWiseKernel

SEQ = 96

#: The dense lowering's n_bh chunk threshold at this geometry — shapes on
#: either side of it must land in different families.
DENSE_CHUNK = GATHER_CHUNK_ELEMS // (SEQ * SEQ)


def make_problem(rng, batch, heads, pattern="bigbird", fork="shared"):
    # One fork name => one mask across shapes, so every problem reaches
    # the same family base and only n_bh varies.
    return AttentionProblem.build(
        pattern, batch, heads, SEQ, 16, rng=rng.fork(fork), with_tensors=True,
    )


def run_both(cls, prob):
    cg = cls(exec_backend="codegen")
    loop = cls(exec_backend="loop")
    params = cg.default_params(prob, A100)
    return cg.run(prob, params), loop.run(prob, params)


def test_flag_defaults_off(monkeypatch):
    monkeypatch.delenv("STOF_CODEGEN_SYMBOLIC", raising=False)
    assert not symbolic_codegen_enabled()
    with use_symbolic_codegen():
        assert symbolic_codegen_enabled()
    assert not symbolic_codegen_enabled()
    monkeypatch.setenv("STOF_CODEGEN_SYMBOLIC", "1")
    assert symbolic_codegen_enabled()
    with use_symbolic_codegen(False):
        assert not symbolic_codegen_enabled()


def test_family_base_key_distinct_from_concrete(rng):
    prob = make_problem(rng, 2, 4)
    concrete = codegen_plan_key("codegen-blockwise", prob, None)
    base = codegen_plan_key(
        "codegen-blockwise", prob, None, symbolic=("n_bh",)
    )
    assert base.batch == 0 and base.heads == 0
    assert base.salt.endswith(":sym(n_bh)")
    assert base.digest != concrete.digest


def test_shapes_in_one_guard_region_share_a_module(rng):
    with use_codegen_cache() as cache, use_symbolic_codegen():
        for cls in (BlockWiseKernel, RowWiseKernel):
            for batch, heads in ((1, 2), (2, 4), (4, 8)):
                prob = make_problem(rng, batch, heads)
                out_cg, out_loop = run_both(cls, prob)
                assert fp16_allclose(out_cg, out_loop)
        stats = cache.stats()
        # 6 problems, 2 templates: one emitted module per template, the
        # other 4 binds are family hits on the same guard region.
        assert stats["misses"] == 2, stats
        assert stats["families"] == 2, stats
        assert stats["family_hits"] == 4, stats
        assert stats["family_splits"] == 0, stats


def test_guard_failure_splits_never_reuses(rng):
    big = DENSE_CHUNK + 32  # crosses the baked chunk-loop threshold
    with use_codegen_cache() as cache, use_symbolic_codegen():
        small = make_problem(rng, 1, 2)
        large = make_problem(rng, 1, big)
        out_s, loop_s = run_both(BlockWiseKernel, small)
        out_l, loop_l = run_both(BlockWiseKernel, large)
        assert fp16_allclose(out_s, loop_s)
        assert fp16_allclose(out_l, loop_l)
        stats = cache.stats()
        assert stats["family_splits"] == 1, stats
        assert stats["entries"] == 2, stats

        base_digest = next(iter(cache._families))
        src_small = cache.get(cache.find_family(base_digest, {"n_bh": 2})).source
        src_large = cache.get(cache.find_family(base_digest, {"n_bh": big})).source
        assert src_small != src_large
        assert "for g0 in range" in src_large
        assert "for g0 in range" not in src_small
        # The split sibling owns the violating shape; the first family
        # still owns the small region — disjoint, no silent reuse.
        small_fam = cache.find_family(base_digest, {"n_bh": 2})
        large_fam = cache.find_family(base_digest, {"n_bh": big})
        assert small_fam != large_fam


def test_family_index_survives_process_restart(rng, tmp_path):
    big = DENSE_CHUNK + 32
    with use_codegen_cache(tmp_path) as cold, use_symbolic_codegen():
        for heads in (2, big):
            prob = make_problem(rng, 1, heads)
            BlockWiseKernel(exec_backend="codegen").run(
                prob, BlockWiseKernel().default_params(prob, A100)
            )
        assert cold.stats()["families"] == 2
    index_files = list(tmp_path.glob("*.families.json"))
    assert len(index_files) == 1

    # Fresh in-memory cache, same disk dir: both regions hit from disk.
    with use_codegen_cache(tmp_path) as warm, use_symbolic_codegen():
        for heads in (4, big + 16):  # different concrete shapes, same regions
            prob = make_problem(rng, 1, heads)
            BlockWiseKernel(exec_backend="codegen").run(
                prob, BlockWiseKernel().default_params(prob, A100)
            )
        stats = warm.stats()
        assert stats["hits_disk"] == 2, stats
        assert stats["misses"] == 0, stats


def test_corrupt_family_index_regenerates(rng, tmp_path):
    with use_codegen_cache(tmp_path), use_symbolic_codegen():
        prob = make_problem(rng, 1, 2)
        BlockWiseKernel(exec_backend="codegen").run(
            prob, BlockWiseKernel().default_params(prob, A100)
        )
    (index_file,) = tmp_path.glob("*.families.json")
    index_file.write_text("{not json")
    with use_codegen_cache(tmp_path) as warm, use_symbolic_codegen():
        prob = make_problem(rng, 1, 2)
        out = BlockWiseKernel(exec_backend="codegen").run(
            prob, BlockWiseKernel().default_params(prob, A100)
        )
        loop = BlockWiseKernel(exec_backend="loop").run(
            prob, BlockWiseKernel().default_params(prob, A100)
        )
        assert fp16_allclose(out, loop)
        stats = warm.stats()
        assert stats["rejected"] == 1, stats
        assert stats["misses"] == 1, stats  # re-emitted cleanly
    assert not index_file.exists() or "not json" not in index_file.read_text()


def test_banded_masks_record_no_guards(rng):
    """The banded strided lowering never reads n_bh at emission time, so
    its family admits every shape — one module, zero splits, forever."""
    with use_codegen_cache() as cache, use_symbolic_codegen():
        for heads in (2, 64, 1024):
            prob = make_problem(rng, 1, heads, pattern="sliding_window")
            out, loop = run_both(BlockWiseKernel, prob)
            assert fp16_allclose(out, loop)
        stats = cache.stats()
        assert stats["families"] == 1, stats
        assert stats["family_splits"] == 0, stats
        assert stats["misses"] == 1, stats
