"""Rowwise plan-to-code specializer.

Emits one module per (mask, geometry): 64-row grouping, the
dense-range-vs-gather split, and power-of-two length bucketing are all
decided at emission time from the element CSR, leaving straight-line NumPy
with literal slice bounds, baked bias constants, and pre-gathered
index/padding tables.  Dead branches go away: the bias add is skipped for
full-dense row ranges, padding-lane masking is skipped for exact buckets,
and chunk loops collapse when one chunk covers the axis.

The emitted arithmetic computes the same masked softmax as
``RowWiseKernel._run_loop`` in a different summation order; outputs agree
with the loop oracle at the FP16 noise floor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.codegen.emit import IndentedBuffer
from repro.codegen.templates import (
    GeneratedSource,
    GroupRecord,
    module_header,
    register_template,
)
from repro.mha.kernel import GATHER_CHUNK_ELEMS

if TYPE_CHECKING:  # annotation-only: the plan layer never runs at emit time
    from repro.plan.symbolic import GuardRecorder

#: Bump when the emitted code changes shape (see blockwise counterpart).
ROWWISE_TEMPLATE_VERSION = 1

#: Row grouping: consecutive non-empty rows are emitted ``ROW_GROUP`` at a
#: time; a group takes the no-gather contiguous-slice path when its
#: attended columns span at most ``DENSE_RANGE_FACTOR`` times the longest
#: row's nnz (or the head size, for tiny rows) — the host-side mirror of
#: the kernel's coalesced-vs-scattered load split.  The factor is large
#: because a dense-range column costs a few streamed-BLAS/exp nanoseconds
#: while a gathered lane costs two ``head_size``-vector fancy gathers at
#: ~2.5 GB/s (~200 ns): computing 16x more masked-out columns is still
#: cheaper than gathering the sparse ones.  Measured crossover is near 16.
ROW_GROUP = 64
DENSE_RANGE_FACTOR = 16


def specialize_rowwise(
    row_ptr: np.ndarray,
    col_idx: np.ndarray,
    mask: np.ndarray,
    n_bh: int,
    head_size: int,
    digest: str = "",
    pattern: str = "custom",
    sym: "GuardRecorder | None" = None,
) -> GeneratedSource:
    """Render the specialized module for one element-CSR mask.

    With a ``sym`` recorder (:class:`repro.plan.symbolic.GuardRecorder`
    binding ``n_bh``), every emission decision that reads the batch*heads
    extent goes through the recorder, which accumulates the guards under
    which this exact module re-emits — the caller caches it once per
    guard family instead of once per concrete ``n_bh``.  The emitted
    text itself always reads ``n_bh`` from ``q.shape[0]`` at run time.
    """
    seq, kv = mask.shape
    d = head_size
    lengths = np.diff(row_ptr)
    nonempty = np.flatnonzero(lengths)

    buf = IndentedBuffer()
    consts: list[np.ndarray] = []
    counters: list[GroupRecord] = []

    def const(arr: np.ndarray) -> str:
        consts.append(arr)
        return f"consts[{len(consts) - 1}]"

    buf.writelines(
        module_header(
            "rowwise",
            ROWWISE_TEMPLATE_VERSION,
            digest,
            {
                "pattern": pattern,
                "seq": seq,
                "kv": kv,
                "n_bh": "sym" if sym is not None else n_bh,
                "nnz": int(row_ptr[-1]),
                "nonempty_rows": int(nonempty.size),
            },
        )
    )
    buf.writeline("import numpy as np")
    buf.writeline()
    buf.writeline()
    buf.writeline("def run(q, k, v, consts):")
    with buf.indent():
        buf.writeline("n_bh = q.shape[0]")
        buf.writeline("d = q.shape[2]")
        buf.writeline(f"out = np.zeros((n_bh, {seq}, d), dtype=np.float16)")
        if nonempty.size == 0:
            buf.writeline("return out")
            return GeneratedSource(
                "rowwise", ROWWISE_TEMPLATE_VERSION, buf.getvalue(), consts
            )

        lens = lengths[nonempty].astype(np.int64)
        starts = row_ptr[nonempty].astype(np.int64)
        first = col_idx[starts].astype(np.int64)
        last = col_idx[starts + lens - 1].astype(np.int64) + 1

        scattered: list[np.ndarray] = []
        for a in range(0, len(nonempty), ROW_GROUP):
            b = min(a + ROW_GROUP, len(nonempty))
            lo, hi = int(first[a:b].min()), int(last[a:b].max())
            longest = int(lens[a:b].max())
            if hi - lo > DENSE_RANGE_FACTOR * max(longest, d):
                scattered.append(np.arange(a, b))
                continue
            counters.append(
                _emit_dense_group(
                    buf, const, mask, nonempty[a:b], a // ROW_GROUP, lo, hi,
                    n_bh, sym,
                )
            )

        for sel in scattered:
            counters.extend(
                _emit_gather_buckets(
                    buf, const, row_ptr, col_idx, nonempty[sel], lens[sel],
                    n_bh, d, sym,
                )
            )

        buf.writeline("return out")
    return GeneratedSource(
        "rowwise", ROWWISE_TEMPLATE_VERSION, buf.getvalue(), consts, counters
    )


def _rows_expr(const, rows_g: np.ndarray) -> tuple[str, bool]:
    """A literal slice when the rows are consecutive, else a baked array."""
    r0, r1 = int(rows_g[0]), int(rows_g[-1]) + 1
    if r1 - r0 == len(rows_g):
        return f"{r0}:{r1}", True
    return const(rows_g.astype(np.int64)), False


def _emit_dense_group(
    buf: IndentedBuffer,
    const,
    mask: np.ndarray,
    rows_g: np.ndarray,
    gi: int,
    lo: int,
    hi: int,
    n_bh: int,
    sym: "GuardRecorder | None" = None,
) -> GroupRecord:
    """Contiguous-slice path: one dense masked softmax-matmul per group."""
    bias = np.where(
        mask[rows_g, lo:hi], np.float32(0.0), np.float32(-np.inf)
    ).astype(np.float32)
    biased = bool(np.isinf(bias).any())
    bias_ref = const(bias) if biased else None
    rows_ref, contig = _rows_expr(const, rows_g)
    g_chunk = max(1, int(GATHER_CHUNK_ELEMS // max(1, len(rows_g) * (hi - lo))))

    buf.writeline(
        f"# group {gi}: {len(rows_g)} rows, dense range [{lo}:{hi})"
        + ("" if biased else ", full-dense (no bias)")
    )

    def body(gs: str) -> None:
        qg = f"q[{gs}, {rows_ref}]" if contig else f"q[{gs}][:, {rows_ref}]"
        buf.writeline(f"s = {qg} @ k[{gs}, {lo}:{hi}].swapaxes(-1, -2)")
        if bias_ref is not None:
            buf.writeline(f"s += {bias_ref}")
        buf.writeline("smax = s.max(axis=-1, keepdims=True)")
        buf.writeline("np.subtract(s, smax, out=s)")
        buf.writeline("np.exp(s, out=s)")
        buf.writeline("l = s.sum(axis=-1, keepdims=True)")
        buf.writeline(f"o = s @ v[{gs}, {lo}:{hi}]")
        if contig:
            # The divide writes straight into the FP16 output view — one
            # rounding, same as the backend-level downcast it replaces.
            buf.writeline(f"np.divide(o, l, out=out[{gs}, {rows_ref}])")
        else:
            buf.writeline("np.divide(o, l, out=o)")
            buf.writeline(f"out[{gs}, {rows_ref}] = o")

    one_chunk = (
        sym.le("n_bh", g_chunk) if sym is not None else g_chunk >= n_bh
    )
    if one_chunk:
        body(":")
    else:
        buf.writeline(f"for g0 in range(0, n_bh, {g_chunk}):")
        with buf.indent():
            buf.writeline(f"gs = slice(g0, g0 + {g_chunk})")
            body("gs")
    return GroupRecord("dense_range", chunk=g_chunk)


def _emit_gather_buckets(
    buf: IndentedBuffer,
    const,
    row_ptr: np.ndarray,
    col_idx: np.ndarray,
    rows: np.ndarray,
    lens: np.ndarray,
    n_bh: int,
    d: int,
    sym: "GuardRecorder | None" = None,
) -> list[GroupRecord]:
    """Padded-gather fallback: pow2 length buckets, indices baked as consts."""
    records: list[GroupRecord] = []
    caps = np.int64(1) << np.ceil(np.log2(lens)).astype(np.int64)
    for cap in np.unique(caps):
        in_bucket = caps == cap
        rows_b = rows[in_bucket]
        lens_b = lens[in_bucket]
        lanes = np.arange(cap)
        pos = row_ptr[rows_b].astype(np.int64)[:, None] + np.minimum(
            lanes[None, :], lens_b[:, None] - 1
        )
        idx = col_idx[pos].astype(np.int64)
        pad = lanes[None, :] >= lens_b[:, None]
        padded = bool(pad.any())
        n_b = len(rows_b)
        if sym is not None:
            # The baked chunk size is the one n_bh-derived *constant* in
            # the module; the recorder pins the exact n_bh region over
            # which this value (and thus the emitted text) is unchanged.
            row_chunk = sym.floordiv("n_bh", GATHER_CHUNK_ELEMS, int(cap) * d)
        else:
            row_chunk = max(1, int(GATHER_CHUNK_ELEMS // max(1, n_bh * cap * d)))

        idx_ref = const(idx)
        pad_ref = const(pad) if padded else None
        rows_ref = const(rows_b.astype(np.int64))
        buf.writeline(
            f"# bucket cap {int(cap)}: {n_b} scattered rows"
            + ("" if padded else ", exact (no padding lanes)")
        )

        def body(rs: str | None) -> None:
            sub = f"[{rs}]" if rs else ""
            buf.writeline(f"rows_c = {rows_ref}{sub}")
            buf.writeline(f"kg = k[:, {idx_ref}{sub}]")
            buf.writeline(f"vg = v[:, {idx_ref}{sub}]")
            buf.writeline(
                "scores = (q[:, rows_c, None, :] @ kg.swapaxes(-1, -2))[:, :, 0, :]"
            )
            if pad_ref is not None:
                buf.writeline(f"scores[:, {pad_ref}{sub}] = -np.inf")
            buf.writeline("smax = scores.max(axis=-1, keepdims=True)")
            buf.writeline("ex = np.exp(scores - smax)")
            buf.writeline("probs = ex / ex.sum(axis=-1, keepdims=True)")
            buf.writeline("out[:, rows_c] = (probs[:, :, None, :] @ vg)[:, :, 0, :]")

        if row_chunk >= n_b:
            body(None)
        else:
            buf.writeline(f"for r0 in range(0, {n_b}, {row_chunk}):")
            with buf.indent():
                buf.writeline(f"rs = slice(r0, r0 + {row_chunk})")
                body("rs")
        records.append(
            GroupRecord(
                "gather", cap=int(cap), rows=n_b, chunk=int(row_chunk),
                lanes=n_b * int(cap),
            )
        )
    return records


register_template("rowwise", ROWWISE_TEMPLATE_VERSION, specialize_rowwise)
