"""The codegen execution backend the MHA kernels dispatch to.

Bind path for one problem:

1. :func:`codegen_plan_key` — a :class:`repro.plan.PlanKey` whose ``salt``
   carries the template name *and emission version* (satellite of the plan
   layer: bumping a template version changes every digest it produced, so
   stale cached modules can never be looked up again).
2. :func:`generated_kernel` — consult the :mod:`repro.codegen.cache`
   (memory, then disk, verified by content hash), emit only on a miss.
   Every lookup records a ``codegen.cache`` tracer span with its outcome;
   emission records a ``codegen.emit`` span — warm runs therefore show
   *zero* ``codegen.emit`` spans, which the round-trip tests pin.
3. ``entry.run(q, k, v)`` — the generated module's ``run`` with its bound
   constant pool.  Operands arrive pre-scaled fp32, exactly as the loop
   oracle receives them.  With a metrics registry installed, the entry's
   group records replay into the ``mha.*`` kernel counters on every call.

With symbolic codegen enabled (``STOF_CODEGEN_SYMBOLIC=1`` or
:func:`use_symbolic_codegen`), step 1 frees ``n_bh`` (the only dimension
whose value can steer emission without changing the mask) and step 2 goes
through :func:`generated_family_kernel` instead: emission runs under a
:class:`repro.plan.symbolic.GuardRecorder`, the recorded guards become
the family's admission predicate, and every ``n_bh`` the guards admit
shares one cached module.  A guard failure emits a sibling family —
never reuses the old module.  The flag defaults off; the concrete path
and its digests are byte-identical to before.
"""

from __future__ import annotations

import hashlib
import os
import threading
from contextlib import contextmanager
from types import ModuleType
from typing import Any, Callable, Iterator

import numpy as np

from repro.codegen.blockwise import specialize_blockwise
from repro.codegen.cache import CacheEntry, codegen_cache
from repro.codegen.rowwise import specialize_rowwise
from repro.codegen.templates import GeneratedSource, GroupRecord, get_template
from repro.masks.bsr import BlockSparseMask
from repro.obs.metrics import current_metrics
from repro.obs.tracer import current_tracer
from repro.plan.key import PlanKey, params_key
from repro.plan.symbolic import GuardRecorder, SymbolicPlanKey

#: Environment variable opting into symbolic (guarded-family) codegen.
SYMBOLIC_ENV = "STOF_CODEGEN_SYMBOLIC"

_symbolic_override = threading.local()


def symbolic_codegen_enabled() -> bool:
    """Whether codegen keys free ``n_bh`` into guarded families."""
    override = getattr(_symbolic_override, "value", None)
    if override is not None:
        return override
    return os.environ.get(SYMBOLIC_ENV, "").strip().lower() in {
        "1", "true", "yes", "on"
    }


@contextmanager
def use_symbolic_codegen(enabled: bool = True) -> Iterator[None]:
    """Scope symbolic codegen on (or off) for the current thread."""
    prev = getattr(_symbolic_override, "value", None)
    _symbolic_override.value = enabled
    try:
        yield
    finally:
        _symbolic_override.value = prev


def codegen_plan_key(
    kind: str,
    problem: Any,
    params: dict[str, Any] | None = None,
    template: str = "blockwise",
    symbolic: tuple[str, ...] = (),
) -> PlanKey:
    """Content-address one specialization.

    The key is pure problem identity (geometry + mask bits + kernel
    parameters) — no device spec, because the emitted NumPy is
    device-independent.  ``salt`` folds in the template name and version so
    a template upgrade invalidates every module the old emission produced.

    ``symbolic=("n_bh",)`` builds the family *base* instead: batch and
    heads are zeroed (their product is the freed dimension) and the salt
    marks the key as symbolic so family bases can never collide with
    concrete keys of the same geometry.
    """
    tmpl = get_template(template)
    salt = f"codegen:{tmpl.name}:v{tmpl.version}"
    batch, heads = problem.batch, problem.heads
    if "n_bh" in symbolic:
        batch = heads = 0
        salt += ":sym(n_bh)"
    return PlanKey(
        kind=kind,
        batch=batch,
        heads=heads,
        seq_len=problem.seq_len,
        kv_seq_len=problem.kv_seq_len,
        head_size=problem.head_size,
        pattern=problem.pattern,
        mask=problem.mask_fingerprint(),
        params=params_key(params),
        salt=salt,
    )


def _exec_module(source: str, digest: str) -> ModuleType:
    """Compile + exec generated source as an anonymous module."""
    mod = ModuleType(f"repro_codegen_{digest[:16]}")
    mod.__dict__["__codegen_digest__"] = digest
    code = compile(source, f"<codegen:{digest[:16]}>", "exec")
    exec(code, mod.__dict__)
    return mod


def generated_kernel(
    key: PlanKey,
    template: str,
    build: Callable[[str], GeneratedSource],
) -> CacheEntry:
    """The bound generated kernel for ``key`` (emitting only on a miss)."""
    tmpl = get_template(template)
    cache = codegen_cache()
    digest = key.digest
    tracer = current_tracer()
    m = current_metrics()

    with tracer.span("codegen.cache", cat="codegen", template=template) as sp:
        entry = cache.get(digest)
        if entry is not None:
            sp.add(outcome="hit-memory")
            if m.enabled:
                m.counter(
                    "codegen.cache", template=template, outcome="hit-memory"
                ).inc()
            return entry
        loaded = cache.load_disk(digest, tmpl.name, tmpl.version)
        if loaded is not None:
            source, consts, counters, _meta = loaded
            entry = CacheEntry(
                key, tmpl.name, tmpl.version, source,
                _exec_module(source, digest), consts, counters,
            )
            cache.put(digest, entry)
            sp.add(outcome="hit-disk")
            if m.enabled:
                m.counter(
                    "codegen.cache", template=template, outcome="hit-disk"
                ).inc()
            return entry
        sp.add(outcome="miss")
        if m.enabled:
            m.counter("codegen.cache", template=template, outcome="miss").inc()
    cache.misses += 1

    with tracer.span("codegen.emit", cat="codegen", template=template) as sp:
        gen = build(digest)
        sp.add(
            lines=gen.source.count("\n"),
            consts=len(gen.consts),
            version=gen.version,
        )
        if m.enabled:
            m.counter("codegen.emit", template=template).inc()
    entry = CacheEntry(
        key, gen.template, gen.version, gen.source,
        _exec_module(gen.source, digest), gen.consts, gen.counters,
    )
    cache.put(digest, entry)
    cache.store_disk(
        digest, key, gen.template, gen.version, gen.source, gen.consts,
        gen.counters,
    )
    return entry


def family_digest(base: PlanKey, guards) -> str:
    """Content address of one guarded family: base digest + guard digest."""
    return hashlib.sha256(
        f"{base.digest}:{guards.digest}".encode()
    ).hexdigest()


def generated_family_kernel(
    base: PlanKey,
    template: str,
    shape: dict[str, int],
    build: Callable[[str, GuardRecorder], GeneratedSource],
) -> CacheEntry:
    """The bound generated kernel for a *family* probe.

    ``base`` is the family base key (:func:`codegen_plan_key` with
    ``symbolic=``); ``shape`` binds the freed dims to this problem's
    concrete values.  The family index is scanned first — a family whose
    guards admit ``shape`` resolves through the ordinary memory/disk
    tiers under its family digest.  On a miss, ``build`` emits under a
    fresh :class:`GuardRecorder`; the guards it records become the new
    family's admission predicate, and the module is cached under
    ``sha256(base.digest + ":" + guards.digest)``.

    The header digest baked into the source is the *family placeholder*
    (``family:<base16>``), identical across siblings of one base — the
    emitted text must be a pure function of the recorded branches, never
    of the concrete probe values.
    """
    tmpl = get_template(template)
    cache = codegen_cache()
    tracer = current_tracer()
    m = current_metrics()

    with tracer.span(
        "codegen.cache", cat="codegen", template=template, family=True
    ) as sp:
        digest = cache.find_family(base.digest, shape)
        if digest is not None:
            entry = cache.get(digest)
            if entry is not None:
                sp.add(outcome="hit-memory")
                if m.enabled:
                    m.counter(
                        "codegen.cache", template=template, outcome="hit-memory"
                    ).inc()
                return entry
            loaded = cache.load_disk(digest, tmpl.name, tmpl.version)
            if loaded is not None:
                source, consts, counters, meta = loaded
                key = SymbolicPlanKey.from_dict(meta["key"])
                entry = CacheEntry(
                    key, tmpl.name, tmpl.version, source,
                    _exec_module(source, digest), consts, counters,
                )
                cache.put(digest, entry)
                sp.add(outcome="hit-disk")
                if m.enabled:
                    m.counter(
                        "codegen.cache", template=template, outcome="hit-disk"
                    ).inc()
                return entry
        sp.add(outcome="miss")
        if m.enabled:
            m.counter("codegen.cache", template=template, outcome="miss").inc()
    cache.misses += 1

    placeholder = f"family:{base.digest[:16]}"
    with tracer.span("codegen.emit", cat="codegen", template=template) as sp:
        rec = GuardRecorder(**shape)
        gen = build(placeholder, rec)
        guards = rec.guard_set()
        sp.add(
            lines=gen.source.count("\n"),
            consts=len(gen.consts),
            version=gen.version,
            guards=guards.describe(),
        )
        if m.enabled:
            m.counter("codegen.emit", template=template).inc()
    digest = family_digest(base, guards)
    key = SymbolicPlanKey(base, tuple(sorted(shape)), guards)
    entry = CacheEntry(
        key, gen.template, gen.version, gen.source,
        _exec_module(gen.source, digest), gen.consts, gen.counters,
    )
    cache.put(digest, entry)
    cache.store_disk(
        digest, key, gen.template, gen.version, gen.source, gen.consts,
        gen.counters,
    )
    cache.put_family(base.digest, guards, digest)
    return entry


def _problem_entry(problem: Any, memo_key: tuple, resolve) -> CacheEntry:
    """Per-problem memo of the resolved cache entry.

    The generated module depends only on mask content, geometry, and
    kernel parameters — all immutable on a problem (like its ``_bsr_cache``
    /``_csr_cache`` views) — so repeated ``run()`` calls skip plan-key
    construction, digest hashing, and cache lookup entirely.  The global
    :func:`codegen_cache` stays the source of truth across problems.
    """
    entries = problem.__dict__.setdefault("_codegen_entries", {})
    entry = entries.get(memo_key)
    if entry is None:
        entry = resolve()
        entries[memo_key] = entry
    return entry


def run_blockwise(
    problem: Any,
    bsr: BlockSparseMask,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    kernel: str,
) -> np.ndarray:
    """Execute one blockwise problem through its generated module;
    ``kernel`` labels the kernel counters."""
    symbolic = symbolic_codegen_enabled()

    def resolve() -> CacheEntry:
        params = {"block_m": bsr.block_m, "block_n": bsr.block_n}
        if symbolic:
            base = codegen_plan_key(
                "codegen-blockwise", problem, params,
                template="blockwise", symbolic=("n_bh",),
            )
            return generated_family_kernel(
                base,
                "blockwise",
                {"n_bh": problem.n_bh},
                lambda digest, rec: specialize_blockwise(
                    bsr, problem.n_bh, digest, problem.pattern,
                    mask=problem.mask, sym=rec,
                ),
            )
        key = codegen_plan_key(
            "codegen-blockwise", problem, params, template="blockwise"
        )
        return generated_kernel(
            key,
            "blockwise",
            lambda digest: specialize_blockwise(
                bsr, problem.n_bh, digest, problem.pattern, mask=problem.mask
            ),
        )

    entry = _problem_entry(
        problem, ("blockwise", bsr.block_m, bsr.block_n, symbolic), resolve
    )
    return _traced_run(entry, "blockwise", kernel, q, k, v)


def run_rowwise(
    problem: Any,
    row_ptr: np.ndarray,
    col_idx: np.ndarray,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    kernel: str,
) -> np.ndarray:
    """Execute one rowwise problem through its generated module;
    ``kernel`` labels the kernel counters."""
    symbolic = symbolic_codegen_enabled()

    def resolve() -> CacheEntry:
        if symbolic:
            base = codegen_plan_key(
                "codegen-rowwise", problem, None,
                template="rowwise", symbolic=("n_bh",),
            )
            return generated_family_kernel(
                base,
                "rowwise",
                {"n_bh": problem.n_bh},
                lambda digest, rec: specialize_rowwise(
                    row_ptr, col_idx, problem.mask, problem.n_bh,
                    problem.head_size, digest, problem.pattern, sym=rec,
                ),
            )
        key = codegen_plan_key(
            "codegen-rowwise", problem, None, template="rowwise"
        )
        return generated_kernel(
            key,
            "rowwise",
            lambda digest: specialize_rowwise(
                row_ptr, col_idx, problem.mask, problem.n_bh,
                problem.head_size, digest, problem.pattern,
            ),
        )

    entry = _problem_entry(problem, ("rowwise", symbolic), resolve)
    return _traced_run(entry, "rowwise", kernel, q, k, v)


def _count_groups(
    m, kernel: str, records: list[GroupRecord], q: np.ndarray
) -> None:
    """Replay one call's kernel counters from the module's group records.

    Per group: one ``mha.path`` hit and its ``mha.chunks``; gathering
    groups add the fp32 K + V bytes their gathers materialize
    (``mha.gather_bytes``), row buckets their rows (``mha.bucket_rows``),
    both labelled by capacity bucket.
    """
    n_bh, d = q.shape[0], q.shape[2]
    for rec in records:
        m.counter("mha.path", kernel=kernel, path=rec.path).inc()
        chunks = -(-(rec.rows or n_bh) // rec.chunk) if rec.chunk else 1
        m.counter("mha.chunks", kernel=kernel, path=rec.path).inc(chunks)
        if rec.lanes:
            m.counter("mha.gather_bytes", kernel=kernel, cap=rec.cap).inc(
                2.0 * n_bh * rec.lanes * d * 4.0
            )
        if rec.rows:
            m.counter("mha.bucket_rows", kernel=kernel, cap=rec.cap).inc(
                rec.rows
            )


def _traced_run(
    entry: CacheEntry,
    template: str,
    kernel: str,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
) -> np.ndarray:
    """Run the bound module, under a ``codegen.exec`` span when tracing.

    With the emission span on the cold path and this span on every call,
    a ``repro profile`` trace separates one-time emission cost from warm
    per-call execution — the guarded fast path keeps the untraced hot
    loop at a single attribute check.  Kernel counters likewise cost one
    ``enabled`` check when no metrics registry is installed.
    """
    m = current_metrics()
    if m.enabled:
        _count_groups(m, kernel, entry.counters, q)
    tracer = current_tracer()
    if not tracer.enabled:
        return entry.run(q, k, v)
    with tracer.span("codegen.exec", cat="codegen", template=template):
        return entry.run(q, k, v)
