"""The discrete-event continuous-batching serving engine.

Simulates a single-GPU inference server: requests arrive over (simulated)
time, a :class:`~repro.serving.scheduler.Scheduler` composes each engine
step, and the step's attention work is priced through the existing kernel
substrate — prefills as square masked problems through
:class:`~repro.mha.module.UnifiedMHA`, and the whole decode batch as ONE
packed rectangular :class:`~repro.mha.problem.AttentionProblem` (a
block-diagonal row-per-request mask, the var-len decode regime) through
the row-wise kernel.  Batching therefore pays one launch + dispatch per
step regardless of batch size, and sparse masks shrink each row's gathered
KV — the two effects the serving study measures.

KV storage goes through :class:`~repro.serving.kvcache.PagedKVCache`.
When a decode step cannot grow a request's page run, the engine preempts
the *latest-arrived* resident request (recompute-style: pages are freed,
the request re-queues and re-prefills its kept context), so memory
pressure degrades throughput instead of raising out of the scheduler.

Given a :class:`~repro.parallel.shard.ShardConfig`, the engine is one
tensor/pipeline-parallel replica of ``tp * pp`` lock-stepped ranks.  TP
ranks run the identical schedule on ``heads / tp`` heads each and
pipeline stages hold ``n_layers / pp`` layers each, so ONE
representative stage-rank is simulated (its KV cache sized from the
per-rank head count and per-stage layer count, its kernel costs from the
unchanged roofline) and each step pays the layout's communication, in
one of two pricing modes:

* **serialized** (``FleetConfig(overlap=False)``, ``pp == 1``) — two
  ring all-reduces of the full ``tokens * hidden`` activation per layer
  stall the ranks at Megatron's row-parallel sync points, priced where
  each forward happens.
* **overlapped** (the default) — each layer's two all-reduces are
  bucketed into one collective and overlapped with the next layer's
  compute under a link/SM contention factor
  (:mod:`repro.parallel.overlap`); with ``pp > 1`` the step's work is
  split into ``micro_batches`` micro-batches and run through a 1F1B
  schedule whose ``(pp - 1)``-window bubble is charged explicitly, plus
  a point-to-point activation send per micro-batch per stage boundary.

With one rank and one stage both modes price a step exactly as the
single-GPU engine does, bit for bit.

:class:`ServingEngine` prices steps and holds what its runs share: the
replica's constants and the plan cache.  :meth:`ServingEngine.start`
opens a :class:`ReplicaRun`, which owns one run's clock, queues, KV
cache, LoRA residency, counters and collective totals: ``submit`` each
arrival once ``next_event_s`` reaches it, ``step`` otherwise, then
``report`` — :meth:`ServingEngine.run` is that loop over a trace.  A
step runs named phases: deadline eviction, admission, prefill,
reserve/preempt, decode, LoRA, composition, credit and release.

Everything is a pure function of (trace, scheduler, config, seed): two
runs produce bit-identical reports.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.core.errors import ConfigError
from repro.core.fp16 import FP16_BYTES
from repro.core.rng import RngStream
from repro.gpu.cost import estimate_launch_seconds
from repro.gpu.occupancy import compute_occupancy
from repro.gpu.specs import GPUSpec
from repro.mha.module import UnifiedMHA
from repro.mha.problem import AttentionProblem
from repro.mha.rowwise import RowWiseKernel, RowwiseFields, rowwise_launch_fields
from repro.masks.patterns import causal_mask, make_pattern
from repro.masks.stats import row_rises
from repro.obs.metrics import current_metrics
from repro.obs.tracer import Tracer, current_tracer
# Leaf modules only: the repro.parallel package imports the fleet engines,
# which build on this module.
from repro.parallel.overlap import overlapped_layer_time
from repro.parallel.shard import FleetConfig, ShardConfig
from repro.plan import (
    BucketGuard,
    GuardSet,
    PlanCache,
    PlanKey,
    SymbolicPlanKey,
    adapter_fingerprint,
    params_key,
)
from repro.serving.kvcache import KVCacheConfig, PagedKVCache
from repro.serving.lora import AdapterRegistry, LoRAConfig
from repro.serving.metrics import RequestMetrics, ServingReport, tenant_rows
from repro.serving.request import Request, RequestState, RequestTracker
from repro.serving.scheduler import Scheduler
from repro.serving.spec_decode import SpeculativeConfig


@dataclass(frozen=True)
class ServingConfig:
    """Model shape and host-side constants of the simulated server."""

    heads: int = 12
    head_size: int = 64
    n_layers: int = 12
    kv_page_tokens: int = 16
    kv_capacity_frac: float = 0.3    # device memory granted to the KV cache
    dispatch_s: float = 1e-6         # per-launch host dispatch (CUDA-graph)
    step_overhead_s: float = 2e-5    # scheduler bookkeeping per engine step
    use_plan_cache: bool = True      # replay plans instead of re-deriving
    plan_cache_entries: int = 4096   # LRU bound of the shared plan cache
    plan_bucket_tokens: int = 64     # decode row-stat chunk, in positions
    #: Share decode plan families *across* requests whose masks are a pure
    #: function of (pattern, pinned params, position): the family base drops
    #: the per-request mask fingerprint, so any two requests — of any
    #: length — reuse one entry per position bucket.  Off by default to
    #: keep per-request keying (and every report) identical to before;
    #: see docs/symbolic_shapes.md.
    symbolic_plan_keys: bool = False
    #: Speculative decoding: a cheap draft model proposes up to
    #: ``draft_tokens`` per request per step and the target verifies them
    #: in one batched var-len forward (see repro.serving.spec_decode).
    #: ``None`` keeps classic one-token-per-step decoding.
    spec_decode: SpeculativeConfig | None = None
    #: Chunked prefill: > 0 splits prompts into slices of at most this
    #: many tokens, interleaved with decode steps so a long prefill stops
    #: blocking every resident request's inter-token latency.  0 keeps
    #: whole-prompt prefills.
    chunk_prefill_tokens: int = 0
    #: Multi-LoRA serving: price per-request adapters with a gathered
    #: batched-GEMM surcharge and an LRU residency model
    #: (see repro.serving.lora).  ``None`` ignores request adapter ids.
    lora: LoRAConfig | None = None

    def __post_init__(self) -> None:
        if min(self.heads, self.head_size, self.n_layers) < 1:
            raise ConfigError("heads, head_size and n_layers must be >= 1")
        if self.dispatch_s < 0 or self.step_overhead_s < 0:
            raise ConfigError("overheads must be >= 0")
        if self.plan_cache_entries < 1:
            raise ConfigError("plan_cache_entries must be >= 1")
        if self.plan_bucket_tokens < 1:
            raise ConfigError("plan_bucket_tokens must be >= 1")
        if self.spec_decode is not None and not isinstance(
            self.spec_decode, SpeculativeConfig
        ):
            raise ConfigError(
                f"spec_decode must be a SpeculativeConfig or None, "
                f"got {type(self.spec_decode).__name__}"
            )
        if self.chunk_prefill_tokens < 0:
            raise ConfigError(
                f"chunk_prefill_tokens must be >= 0, "
                f"got {self.chunk_prefill_tokens}"
            )
        if self.lora is not None and not isinstance(self.lora, LoRAConfig):
            raise ConfigError(
                f"lora must be a LoRAConfig or None, "
                f"got {type(self.lora).__name__}"
            )


class ServingEngine:
    """One simulated inference server: a policy and a KV cache on one GPU,
    or on one TP/PP replica of ``tp * pp`` ranks.

    ``shard`` is the replica's layout (``None``: a single GPU, whose plan
    keys carry no shard fingerprint); ``fleet`` supplies the
    collective-pricing knobs (``overlap``, ``micro_batches``,
    ``contention``); ``lane_base`` and ``label`` place the replica's
    lanes on a fleet's trace.  It prices steps; :meth:`start` opens a
    :class:`ReplicaRun` that holds one run's state.

    ``row_prices`` memoizes :meth:`_price_rows` on its five integers.
    Engines may share one dict only when they share the spec, the config
    and the layout, as a fleet's replicas do; ``None`` gives the engine
    its own.
    """

    def __init__(
        self,
        spec: GPUSpec,
        scheduler: Scheduler,
        config: ServingConfig | None = None,
        tracer: Tracer | None = None,
        plan_cache: PlanCache | None = None,
        shard: "str | ShardConfig | None" = None,
        fleet: FleetConfig | None = None,
        lane_base: int = 0,
        label: str = "",
        row_prices: dict[tuple[int, ...], tuple[float, int]] | None = None,
    ):
        layout = ShardConfig.parse(shard) if shard is not None else ShardConfig()
        fleet = fleet if fleet is not None else FleetConfig()
        full = config or ServingConfig()
        if full.heads % layout.tp != 0:
            raise ConfigError(
                f"{full.heads} heads not divisible by tp={layout.tp}"
            )
        # Ragged pipelines fail here, at construction — never mid-sim.
        layout.validate_pipeline(full.n_layers, what="serving config")
        self.spec = spec
        self.scheduler = scheduler
        # The representative stage-rank serves heads/tp heads of
        # n_layers/pp layers; its KV cache shrinks with both (same
        # capacity fraction, fewer bytes per token), which is exactly the
        # per-rank memory win of TP x PP.
        self.config = replace(
            full,
            heads=full.heads // layout.tp,
            n_layers=full.n_layers // layout.pp,
        )
        self.shard = layout
        #: Shard-config fingerprint mixed into every decode PlanKey; ""
        #: for the single-GPU engine, so per-rank plans never collide
        #: with unsharded ones.
        self.shard_fingerprint = layout.fingerprint if shard is not None else ""
        self.fleet = fleet
        self.overlap = fleet.overlap
        self.micro_batches = fleet.micro_batches or (8 if layout.pp > 1 else 1)
        self._ic = layout.interconnect()
        self._hidden = full.heads * full.head_size   # full model width
        #: Serialized pp1 pricing charges each forward's all-reduces where
        #: it happens; every other mode re-prices them per step.
        self._serial_calls = not self.overlap and layout.pp == 1
        #: Trace lanes: steps, requests, then (replicas only) one per rank.
        self._lane_base = lane_base
        self._label = label
        self._rank_lanes = shard is not None
        #: Explicit tracer for the run's simulated timeline; ``None`` falls
        #: back to the ambient :func:`repro.obs.tracer.current_tracer`.
        self.tracer = tracer
        #: The shared plan cache.  Prefill plans are replayed through
        #: UnifiedMHA (kind "mha"); decode row statistics live under kind
        #: "serving-decode", chunked by context-length bucket.  An explicit
        #: ``plan_cache`` lets several engines (e.g. data-parallel replicas)
        #: share one cache.
        self.plan_cache = (
            plan_cache
            if plan_cache is not None
            else PlanCache(max_entries=self.config.plan_cache_entries)
        )
        self._mha = UnifiedMHA(
            spec, cache=self.plan_cache if self.config.use_plan_cache else None
        )
        self._decode_kernel = RowWiseKernel()
        # Every packed decode launch has one shape (the row-wise kernel's
        # default warps, no SMEM), so its occupancy is resolved once.
        self._decode_warps = self._decode_kernel.default_params(None, spec)["num_warps"]
        self._decode_blocks_per_sm = compute_occupancy(
            spec,
            self._decode_warps,
            RowwiseFields.smem_per_block,
            RowwiseFields.regs_per_thread,
        ).blocks_per_sm
        self._row_prices = row_prices if row_prices is not None else {}

    # ----------------------------------------------------------- step pricing

    def _prefill_price(
        self, tr: RequestTracker, cached: int, rng: RngStream
    ) -> tuple[float, int, int]:
        """Simulated seconds, launch count and computed rows of
        (re)computing the context, collectives aside.

        When the request attached to a shared prefix whose first
        ``cached`` positions another holder already materialized, only
        the *suffix* rows past them are computed — rectangular rows over
        the full context, priced through the same row-wise machinery as
        decode.  With nothing cached this is the historical
        square-prefill path, bit for bit.
        """
        ctx = tr.context_len
        if cached >= ctx:
            return 0.0, 0, 0
        if cached <= 0:
            seconds, launches = self._price_problem(
                AttentionProblem(
                    batch=1,
                    heads=self.config.heads,
                    seq_len=ctx,
                    head_size=self.config.head_size,
                    mask=tr.prefill_mask(rng),
                    pattern="custom",
                )
            )
            return seconds, launches, ctx
        suffix = tr.full_mask(rng)[cached:ctx, :ctx]
        rises = row_rises(suffix)
        seconds, launches = self._price_rows(
            ctx - cached,
            ctx,
            int(suffix.sum()),
            int((rises > 0).sum()),
            int((rises == 1).sum()),
        )
        return seconds, launches, ctx - cached

    def _price_problem(self, problem: AttentionProblem) -> tuple[float, int]:
        """(seconds, launches) of one attention problem planned through
        the unified MHA module, for all layers."""
        plan = self._mha.plan(problem)
        launches = sum(cost.launches for cost, _ in plan.launches)
        return (
            plan.estimated_s * self.config.n_layers,
            launches * self.config.n_layers,
        )

    def _price_rows(
        self, seq_len: int, kv_seq_len: int, nnz: int, nonempty: int, single: int
    ) -> tuple[float, int]:
        """(seconds, launches) of ``seq_len`` row-wise query rows over
        ``kv_seq_len`` keys, for all layers.

        The row-wise kernel prices a mask only through its ``nnz`` and the
        share of non-empty rows attending one contiguous run
        (``single / nonempty``), so callers pass those statistics instead
        of a mask.  The price is a pure function of the five integers and
        the engine's constants, so it is memoized on them
        (``row_prices``).
        """
        key = (seq_len, kv_seq_len, nnz, nonempty, single)
        price = self._row_prices.get(key)
        if price is None:
            contig = 1.0 if nonempty == 0 else float(single) / float(nonempty)
            launch = rowwise_launch_fields(
                self.spec,
                num_warps=self._decode_warps,
                n_bh=self.config.heads,
                seq_len=seq_len,
                kv_seq_len=kv_seq_len,
                head_size=self.config.head_size,
                nnz=nnz,
                contiguous_fraction=contig,
            )
            seconds = estimate_launch_seconds(
                self.spec, self._decode_blocks_per_sm, launch
            )
            price = self._row_prices[key] = (
                seconds * self.config.n_layers,
                launch.launches * self.config.n_layers,
            )
        return price

    # ---------------------------------------------------------------- decode

    def _decode_stats(
        self, tr: RequestTracker, pos: int, rng: RngStream
    ) -> tuple[int, int]:
        """(nnz, transition count) of the request's decode row ``pos``.

        Rows are cached in chunks of ``plan_bucket_tokens`` consecutive
        positions under a guarded plan family: the key leaves the decode
        position symbolic and a ``pos // width == bucket`` guard
        (:class:`~repro.plan.symbolic.BucketGuard`) names the chunk, so
        one mask scan serves a request's next ``plan_bucket_tokens``
        decode steps and steady-state steps run entirely off the cache.
        The statistics are exact per position — the guard shapes the
        cache *key*, never the cost.  With
        :attr:`ServingConfig.symbolic_plan_keys`, eligible requests of
        *different lengths* share the same families (see
        ``_decode_base``).  With the plan cache off, the same bucket is
        built on every call and nothing is stored.
        """
        width = self.config.plan_bucket_tokens
        bucket, offset = divmod(pos, width)
        if not self.config.use_plan_cache:
            nnz, rises = self._decode_bucket_stats(tr, bucket, rng)
            return nnz[offset], rises[offset]
        fam = tr._plan_keys.get(bucket)
        if fam is None:
            fam = self._bucket_family(self._decode_base(tr, rng), pos, width)
            tr._plan_keys[bucket] = fam
        nnz, rises = self.plan_cache.get_or_build(
            fam,
            lambda: self._decode_bucket_stats(
                tr, bucket, rng, shared=fam.base.mask.startswith("sym:")
            ),
        )
        return nnz[offset], rises[offset]

    def _bucket_family(
        self, base: PlanKey, pos: int, width: int
    ) -> SymbolicPlanKey:
        """The guarded family key under ``base`` owning position ``pos``.

        Scans the cache's families under ``base`` first, so a bucket
        another request already planned is reused; otherwise a new
        sibling guarded by ``pos // width`` is keyed (the cache counts its
        insertion as a family split).
        """
        fam = self.plan_cache.find_family(base, ("pos",), {"pos": pos})
        if fam is None:
            fam = SymbolicPlanKey(
                base, ("pos",), GuardSet((BucketGuard("pos", width, pos // width),))
            )
        return fam

    def _decode_base(self, tr: RequestTracker, rng: RngStream) -> PlanKey:
        """The concrete part of a request's decode family keys, derived once
        per request (memoized on its tracker).

        Default: the request's full-mask fingerprint — families are
        per-mask, exactly as sharp as the old per-bucket concrete keys.
        With ``symbolic_plan_keys``, a request whose mask entries are a
        pure function of (pattern, pinned params, position) drops the
        fingerprint for that function's identity: every such request
        shares one family per bucket regardless of its length, because
        under the causal AND, row ``p``'s statistics never depend on the
        mask's build size.  Requests that don't qualify (random patterns,
        size-derived widths) keep fingerprint keying.
        """
        if tr._plan_base is not None:
            return tr._plan_base
        width = self.config.plan_bucket_tokens
        pinned = (
            tr.pinned_pattern_params() if self.config.symbolic_plan_keys else None
        )
        if pinned is not None:
            pattern = tr.request.pattern
            mask_id = f"sym:{params_key(pinned)!r}"
        else:
            pattern = ""
            mask_id = tr.mask_fingerprint(rng)
        # With LoRA on, the plan specializes for the request's gathered
        # adapter GEMM, so the adapter id joins the family salt; the
        # base-model ("" adapter) salt stays byte-identical to before.
        adapter = ""
        if self.config.lora is not None:
            adapter = adapter_fingerprint(tr.request.adapter, self.config.lora.rank)
        tr._plan_base = PlanKey(
            kind="serving-decode",
            pattern=pattern,
            mask=mask_id,
            salt=f"rows:w={width}{adapter}",
            shard=self.shard_fingerprint,
        )
        return tr._plan_base

    def _decode_bucket_stats(
        self, tr: RequestTracker, bucket: int, rng: RngStream, shared: bool = False
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(nnz, rise count) per row of one ``plan_bucket_tokens`` chunk.

        ``shared`` (``sym:``) families rebuild the mask at the *canonical*
        size for the bucket — just large enough to contain its rows — so
        the cached tuples are a function of the family key alone, never
        of whichever request happened to build them first.
        """
        width = self.config.plan_bucket_tokens
        if shared:
            size = (bucket + 1) * width
            full = make_pattern(
                tr.request.pattern, size, **(tr.pinned_pattern_params() or {})
            ) & causal_mask(size)
        else:
            full = tr.full_mask(rng)
        rows = full[bucket * width : (bucket + 1) * width]
        # The mask is causal, so row p is all-False beyond column p:
        # whole-row statistics equal the [:p+1] prefix's exactly.
        return (
            tuple(int(x) for x in rows.sum(axis=1)),
            tuple(int(x) for x in row_rises(rows)),
        )

    def _decode_time(
        self, members: list[tuple[RequestTracker, int]], rng: RngStream
    ) -> tuple[float, int]:
        """Price one packed decode step: one row per member, block-diagonal
        over each member's own KV run.

        The row-wise kernel prices a mask only through its nnz and its
        contiguous-row fraction, and the packed block-diagonal layout
        preserves both per row, so the step is composed from per-row
        statistics (:meth:`_decode_stats`) without materializing the
        packed mask.  This is the forward's compute alone: target
        forwards add their all-reduces (:meth:`_collective_s`), draft
        forwards pay none.
        """
        if not members:
            return 0.0, 0
        total_kv = 0
        nnz = 0
        nonempty = 0
        single = 0
        for tr, pos in members:
            row_nnz, row_rises = self._decode_stats(tr, pos, rng)
            total_kv += pos + 1
            nnz += row_nnz
            if row_rises > 0:
                nonempty += 1
                if row_rises == 1:
                    single += 1
        return self._price_rows(len(members), total_kv, nnz, nonempty, single)

    def _chunk_time(
        self, tr: RequestTracker, a: int, b: int, rng: RngStream
    ) -> tuple[float, int]:
        """(seconds, launches) of prefill chunk rows ``[a, b)`` over KV
        ``[0, b)``, compute alone.

        A chunk is a rectangular *tiled* problem through the same kernel
        selection as whole prefills (the rows are dense and contiguous,
        so pricing them through the gathered decode path would overcharge
        them ~10x).  Full-width chunk plans are memoized under guarded
        plan families keyed like decode's (:meth:`_decode_base` identity,
        a ``pos // chunk == bucket`` :class:`~repro.plan.BucketGuard`,
        plus the start's in-bucket offset), so a chunk planned for one
        request replays for every other request with the same mask
        identity — under ``symbolic_plan_keys``, for *any* same-pattern
        request regardless of length, exactly the decode-family sharing
        contract.  For those cache-shared (``sym:``) families the slice
        content is a pure function of positions (that is what pinned
        params guarantee), so the value is independent of which request
        builds it first.
        """
        width = self.config.chunk_prefill_tokens

        def price() -> tuple[float, int]:
            return self._price_problem(
                AttentionProblem(
                    batch=1,
                    heads=self.config.heads,
                    seq_len=b - a,
                    head_size=self.config.head_size,
                    mask=tr.full_mask(rng)[a:b, :b],
                    pattern="custom",
                    kv_seq_len=b,
                )
            )

        if not self.config.use_plan_cache or b - a != width:
            return price()
        base = self._decode_base(tr, rng)
        # (bucket, in-bucket offset) uniquely name the start position, and
        # full width pins the extent, so the cached price is a pure
        # function of the family key.
        chunk_base = PlanKey(
            kind="serving-chunk",
            pattern=base.pattern,
            mask=base.mask,
            salt=f"chunk:w={width}:o={a % width}",
            shard=self.shard_fingerprint,
        )
        return self.plan_cache.get_or_build(
            self._bucket_family(chunk_base, a, width), price
        )

    # ------------------------------------------------------------- simulation

    def start(self, rng: RngStream | None = None) -> ReplicaRun:
        """Open an empty run on this engine (see :class:`ReplicaRun`)."""
        return ReplicaRun(self, rng or RngStream())

    def run(self, trace: list[Request], rng: RngStream | None = None) -> ServingReport:
        """Simulate the full trace to completion and report fleet metrics:
        submit each arrival once the run's clock reaches it, step until
        drained, report."""
        if not trace:
            raise ConfigError("empty request trace")
        run = self.start(rng)
        pending = sorted(trace, key=lambda r: (r.arrival_s, r.req_id))[::-1]
        while pending or run.next_event_s() is not None:
            clock = run.next_event_s()
            if pending and (clock is None or pending[-1].arrival_s <= clock):
                run.submit(pending.pop())
            else:
                run.step()
        #: (comm, p2p, bubble, core) simulated seconds of the last run,
        #: which a fleet's merge reads beside its report.
        self.last_collectives = (
            run.comm_total_s, run.p2p_total_s, run.bubble_total_s, run.core_total_s
        )
        return run.report()


def _adapter_rows(pairs: Iterable[tuple[RequestTracker, int]]) -> dict[str, int]:
    """Rows per LoRA adapter over ``(tracker, rows)`` pairs."""
    rows: dict[str, int] = {}
    for tr, n in pairs:
        if tr.request.adapter:
            rows[tr.request.adapter] = rows.get(tr.request.adapter, 0) + n
    return rows


@dataclass(slots=True)
class _Step:
    """One engine step's work, filled in phase by phase."""

    admitted: list[RequestTracker]
    #: Trackers whose prefill finishes this step (they earn their first
    #: token at step end).  Without chunking this is exactly ``admitted``.
    completed: list[RequestTracker] = field(default_factory=list)
    #: ``(tracker, rows)`` of every prefill or chunk computed this step.
    prefills: list[tuple[RequestTracker, int]] = field(default_factory=list)
    #: ``(tracker, tokens emitted, rows verified)`` per decode member.
    emits: list[tuple[RequestTracker, int, int]] = field(default_factory=list)
    prefill_s: float = 0.0
    prefill_comm_s: float = 0.0
    decode_s: float = 0.0
    lora_swap_s: float = 0.0
    launches: int = 0
    #: Serialized collective seconds and activation rows so far.
    comm_s: float = 0.0
    tokens: int = 0
    #: Step-level (compute, comm, p2p, core) seconds for the rank lanes.
    parts: tuple[float, float, float, float] | None = None


class ReplicaRun:
    """One run of a :class:`ServingEngine`, advanced a step at a time.

    Runs of one engine share nothing but its plan cache.  Drive one as
    :meth:`ServingEngine.run` does: :meth:`submit` each arrival once
    :meth:`next_event_s` reaches it (or is ``None``), :meth:`step`
    otherwise, and :meth:`report` once drained.
    """

    def __init__(self, engine: ServingEngine, rng: RngStream):
        cfg = engine.config
        self.engine = engine
        self.config = cfg
        self.scheduler = engine.scheduler
        self.mask_rng = rng.fork("serving-masks")
        self.cache = PagedKVCache(
            KVCacheConfig.for_spec(
                engine.spec,
                cfg.heads,
                cfg.head_size,
                cfg.n_layers,
                page_tokens=cfg.kv_page_tokens,
                capacity_frac=cfg.kv_capacity_frac,
            )
        )
        #: Adapter pricing + residency when multi-LoRA serving is on.
        self.lora = (
            AdapterRegistry(
                engine.spec,
                cfg.lora,
                hidden=cfg.heads * cfg.head_size,
                n_layers=cfg.n_layers,
            )
            if cfg.lora is not None
            else None
        )
        self.clock = 0.0
        self.steps = 0
        self.trackers: list[RequestTracker] = []    # every submitted request
        self.waiting: list[RequestTracker] = []     # sorted by queue key
        self.running: list[RequestTracker] = []
        self.finished: list[RequestTracker] = []
        self._keys: dict[RequestTracker, tuple] = {}    # computed once, at submit
        self.spec_proposed = 0
        self.spec_accepted = 0
        self.prefill_chunks = 0
        #: Collective totals of the run (simulated seconds).
        self.comm_total_s = 0.0
        self.p2p_total_s = 0.0
        self.bubble_total_s = 0.0
        self.core_total_s = 0.0
        self.tracer = engine.tracer if engine.tracer is not None else current_tracer()
        if self.tracer.enabled:
            self.tracer.lane_names.setdefault(engine._lane_base, f"{engine._label}engine steps")
            self.tracer.lane_names.setdefault(engine._lane_base + 1, f"{engine._label}requests")
        self.metrics = current_metrics()
        self._kv_gauge = (
            self.metrics.gauge("serving.kv_occupancy") if self.metrics.enabled else None
        )

    # ----------------------------------------------------------------- API

    def submit(self, request: Request) -> None:
        """Enqueue one arrival; an idle run's clock moves up to it.

        A request that can never be served — its worst-case context
        exceeds an *empty* cache or the scheduler's token budget — is
        rejected here and surfaced in the report, never keyed; the run
        proceeds with the rest instead of crashing mid-run.  (Truly
        unservable *configurations*, e.g. a cache smaller than one page,
        still fail hard at construction, in KVCacheConfig.)
        """
        tr = RequestTracker(request)
        self.trackers.append(tr)
        if not (
            self.cache.fits_alone(request.max_context)
            and request.max_context <= self.scheduler.max_batch_tokens
        ):
            tr.state = RequestState.REJECTED
            if self.metrics.enabled:
                self.metrics.counter("serving.rejected").inc()
            return
        if request.prefix_id:
            self.cache.register_prefix(
                request.req_id, request.prefix_id, request.prefix_len
            )
        if self.next_event_s() is None:
            self.clock = max(self.clock, request.arrival_s)
        self._keys[tr] = self.scheduler.queue_key(tr)
        insort(self.waiting, tr, key=self._keys.__getitem__)

    def next_event_s(self) -> float | None:
        """The clock of the next step; ``None`` when nothing waits or runs."""
        return self.clock if self.waiting or self.running else None

    def step(self) -> None:
        """Run one engine step at the clock, then advance the clock by its
        simulated seconds."""
        self._evict_for_deadlines()
        was_running = list(self.running)
        self._step = step = _Step(self._admit())
        if not was_running and not step.admitted:   # admission takes any waiter on an idle device
            raise ConfigError("step() on an idle run: nothing waits or runs")
        self._prefill()
        step.prefill_comm_s = step.comm_s
        self._decode(self._reserve(self.scheduler.decode_members(was_running)))
        self._price_lora()
        step_s = self._step_time() + step.lora_swap_s
        self._record_step(step_s)
        self.clock += step_s
        self.steps += 1
        self._credit_and_release()

    def report(self) -> ServingReport:
        """The run's :class:`ServingReport` (call once drained)."""
        requests = [tr.request for tr in self.trackers]
        first_arrival = min((r.arrival_s for r in requests), default=0.0)
        finished = self.finished
        last_finish = (
            max(tr.finish_s or 0.0 for tr in finished)
            if finished else first_arrival
        )
        completed_metrics = sorted(
            (RequestMetrics.from_tracker(tr) for tr in finished),
            key=lambda m: m.req_id,
        )
        lora = self.lora
        return ServingReport(
            policy=self.scheduler.name,
            pattern="+".join(sorted({r.pattern for r in requests})),
            device=self.engine.spec.name,
            n_requests=len(requests),
            completed=len(finished),
            makespan_s=last_finish - first_arrival,
            total_tokens=sum(tr.generated for tr in finished),
            total_steps=self.steps,
            preemptions=sum(tr.preemptions for tr in self.trackers),
            kv_peak_occupancy=self.cache.peak_occupancy,
            rejected_ids=tuple(
                tr.req_id for tr in self.trackers if tr.state is RequestState.REJECTED
            ),
            requests=completed_metrics,
            kv_peak_used_pages=self.cache.peak_used_pages,
            kv_peak_logical_pages=self.cache.peak_logical_pages,
            cow_forks=self.cache.cow_forks,
            tenants=tenant_rows(requests, completed_metrics, self.scheduler),
            plan_cache=(
                self.engine.plan_cache.stats() if self.config.use_plan_cache else None
            ),
            spec_proposed=self.spec_proposed,
            spec_accepted=self.spec_accepted,
            prefill_chunks=self.prefill_chunks,
            lora_swaps=lora.swaps if lora is not None else 0,
            lora_peak_resident=lora.peak_resident if lora is not None else 0,
        )

    # ------------------------------------------------------------ the queues

    def _credit_token(self, tr: RequestTracker) -> None:
        clock = self.clock
        tr.generated += 1
        tr.token_times_s.append(clock)
        if tr.ttft_s is None:
            tr.ttft_s = clock
        if not tr.done:
            return
        tr.finish_s = clock
        tr.state = RequestState.FINISHED
        # Nothing reads a finished request's mask again; drop its
        # max_context^2 bytes now, not at the end of the run.
        tr._full_mask = None
        if tr in self.waiting:      # preempted in the same step it finished
            self.waiting.remove(tr)
        self.finished.append(tr)
        if self.tracer.enabled:
            arrival = tr.request.arrival_s
            span = self.tracer.add_span(
                f"request {tr.req_id}",
                cat="serving.request",
                t0=arrival,
                dur=clock - arrival,
                tid=self.engine._lane_base + 1,
                req_id=tr.req_id,
                prompt_len=tr.request.prompt_len,
                tokens=tr.generated,
                ttft_s=(tr.ttft_s or 0.0) - arrival,
                preemptions=tr.preemptions,
            )
            for ts in tr.token_times_s:
                span.event("token", ts)

    def _preempt(self, tr: RequestTracker) -> None:
        self.cache.release(tr.req_id)
        self.running.remove(tr)
        tr.state = RequestState.WAITING
        tr.preemptions += 1
        # Recompute-style preemption discards the KV, so an in-flight
        # chunked prefill restarts from whatever re-admission finds
        # cached, not from its old chunk watermark.
        tr.prefilled = None
        insort(self.waiting, tr, key=self._keys.__getitem__)

    # ------------------------------------------------------------ step phases

    def _evict_for_deadlines(self) -> None:
        """Preempt-to-meet-deadline (SLO policies): evict lower-priority
        residents *before* the step forms, so the at-risk waiter is
        admitted this very step rather than after their drain."""
        for victim in self.scheduler.deadline_victims(
            self.waiting, self.running, self.cache, self.clock
        ):
            if victim in self.running:
                self._preempt(victim)

    def _admit(self) -> list[RequestTracker]:
        admitted = self.scheduler.admit(self.waiting, self.running, self.cache)
        for tr in admitted:
            tr.state = RequestState.RUNNING
            self.running.append(tr)
        return admitted

    def _prefill(self) -> None:
        """Price the admitted requests' prefills, then advance in-flight
        chunked prefills."""
        step = self._step
        chunk = self.config.chunk_prefill_tokens
        for tr in step.admitted:
            cached = self.cache.cached_prefix_tokens(tr.req_id)
            if chunk <= 0 or tr.context_len - cached <= chunk:
                # Whole remaining context fits one chunk: take the
                # historical whole-prefill path, bit for bit.
                t, n, rows = self.engine._prefill_price(tr, cached, self.mask_rng)
                step.prefill_s += t + self._collective_s(rows)
                step.launches += n
                step.prefills.append((tr, rows))
                step.completed.append(tr)
            else:
                tr.prefilled = cached
        if chunk <= 0:
            return
        # Advance in-flight chunked prefills — including those admitted
        # this very step — fused into the step alongside decode.
        # ``chunk_prefill_tokens`` is a *per-step* prefill token budget
        # shared FCFS across pending prefills (Sarathi-style): the step's
        # total prefill work stays bounded by one chunk, so decode rows
        # never stall behind a whole long prompt — or behind several
        # chunks at once.
        budget = chunk
        fills = sorted(
            (t for t in self.running if t.prefill_pending),
            key=lambda t: (t.request.arrival_s, t.req_id),
        )
        for tr in fills:
            if budget <= 0:
                break
            a = tr.prefilled
            b = min(a + min(chunk, budget), tr.context_len)
            t, n = self.engine._chunk_time(tr, a, b, self.mask_rng)
            tr.prefilled = b if b < tr.context_len else None
            self.prefill_chunks += 1
            budget -= b - a
            # Chunks all-reduce exactly their own activation rows.
            step.prefill_s += t + self._collective_s(b - a)
            step.launches += n
            step.prefills.append((tr, b - a))
            if tr.prefilled is None:
                step.completed.append(tr)

    def _reserve(
        self, members: list[tuple[RequestTracker, int]]
    ) -> list[tuple[RequestTracker, int]]:
        """Grow each decode member's page run, preempting the
        latest-arrived resident while the cache is full; returns the
        members that still decode this step.

        ``reserve`` grows a run only when ``need`` passes the tokens its
        pages cover, so it is called only then: once per page crossing.
        The pages are read live, never remembered, because admission and
        preemption release them.  A holder not yet attached to its shared
        prefix counts none of the prefix pages, so it still reserves (and
        attaches).
        """
        if not self.scheduler.allows_preemption:
            return members
        spec = self.config.spec_decode
        cache = self.cache
        page_tokens = cache.config.page_tokens
        members.sort(key=lambda tp: (tp[0].request.arrival_s, tp[0].req_id))
        survivors: list[tuple[RequestTracker, int]] = []
        for tr, pos in members:
            if tr not in self.running:   # evicted earlier in this pass
                continue
            need = tr.context_len + 1
            if spec is not None:
                # Speculative members may advance k+1 positions in one
                # step; reserve that headroom (clamped to the budget the
                # request can actually reach).
                need = min(need + spec.draft_tokens, tr.request.max_context)
            while (
                need > cache.pages_of(tr.req_id) * page_tokens
                and not cache.reserve(tr.req_id, need)
            ):
                evictable = [
                    t
                    for t in self.running
                    if t is not tr and all(t is not s for s, _ in survivors)
                ]
                if not evictable:   # pragma: no cover - solo fit holds
                    self._preempt(tr)
                    break
                self._preempt(
                    max(evictable, key=lambda t: (t.request.arrival_s, t.req_id))
                )
            else:
                survivors.append((tr, pos))
        return survivors

    def _decode(self, members: list[tuple[RequestTracker, int]]) -> None:
        """Price the packed decode forward over ``members`` (one row each,
        or a speculative propose+verify step)."""
        step = self._step
        if self.config.spec_decode is not None and members:
            self._spec_decode(members)
            return
        t, n = self.engine._decode_time(members, self.mask_rng)
        step.decode_s = t + self._collective_s(len(members))
        step.launches += n
        step.emits = [(tr, 1, 1) for tr, _pos in members]

    def _spec_decode(self, members: list[tuple[RequestTracker, int]]) -> None:
        """Price one propose+verify speculative step.

        Each member emits its accepted drafts plus the target's bonus
        token, from ``k_i + 1`` verified rows.  Proposals are capped so a
        request can never overshoot its generation budget: ``k_i =
        min(k, remaining - 1)`` keeps ``k_i + 1 <= remaining``.
        """
        spec = self.config.spec_decode
        step = self._step
        price = self.engine._decode_time
        proposals = [
            (tr, pos, min(spec.draft_tokens, tr.request.max_new_tokens - tr.generated - 1))
            for tr, pos in members
        ]
        seconds = 0.0
        # The draft autoregressively proposes depth-by-depth: one packed
        # forward per depth over the members still proposing at it.
        # Drafts are small enough that sharded deployments replicate them
        # per rank (vLLM/TRT-LLM practice): they pay compute but never
        # tensor-parallel collectives.
        depth = max((k for _tr, _pos, k in proposals), default=0)
        for j in range(depth):
            t, n = price([(tr, pos + j) for tr, pos, k in proposals if j < k], self.mask_rng)
            seconds += spec.draft_cost_ratio * t
            step.launches += n
        # The target verifies every proposal row plus its own bonus row in
        # ONE packed var-len forward (k_i + 1 rows per member), and
        # all-reduces that expanded row count.
        expanded = [(tr, pos + j) for tr, pos, k in proposals for j in range(k + 1)]
        t, n = price(expanded, self.mask_rng)
        step.decode_s = seconds + (t + self._collective_s(len(expanded)))
        step.launches += n
        for tr, _pos, k in proposals:
            accepted = spec.sample_accepted(tr.spec_rng(self.mask_rng), k)
            self.spec_proposed += k
            self.spec_accepted += accepted
            step.emits.append((tr, accepted + 1, k + 1))

    def _price_lora(self) -> None:
        """Gathered adapter GEMMs ride each phase's forward (the fused-step
        max applies); swap-ins serialize on PCIe."""
        lora = self.lora
        if lora is None:
            return
        step = self._step
        prefill = _adapter_rows(step.prefills)
        decode = _adapter_rows((tr, rows) for tr, _n, rows in step.emits)
        if prefill:
            t, n = lora.gemm_time(sum(prefill.values()), len(prefill))
            step.prefill_s += t
            step.launches += n
        if decode:
            t, n = lora.gemm_time(sum(decode.values()), len(decode))
            step.decode_s += t
            step.launches += n
        touched = set(prefill) | set(decode)
        if touched:
            swaps_before = lora.swaps
            step.lora_swap_s = lora.touch(touched)
            if self.metrics.enabled and lora.swaps > swaps_before:
                self.metrics.counter("serving.lora_swaps").inc(lora.swaps - swaps_before)

    def _credit_and_release(self) -> None:
        """Credit the step's tokens at the new clock, then free the pages
        the policy releases."""
        step = self._step
        for tr in step.completed:
            self._credit_token(tr)
        for tr, n_tok, _rows in step.emits:
            for _ in range(n_tok):
                if not tr.done:
                    self._credit_token(tr)
        for tr in self.scheduler.releasable(self.running):
            self.cache.release(tr.req_id)
            self.running.remove(tr)

    # ----------------------------------------------------------- collectives

    def _collective_s(self, rows: int) -> float:
        """Serialized all-reduce seconds of one forward over ``rows``
        activation rows: two row-parallel sync points per (per-stage)
        layer, full-hidden payloads, none on one rank.

        Step-level pricing re-prices the step's communication from the
        accumulated row count in :meth:`_step_time`; this still returns
        the serialized estimate, so each phase's compute leg can be
        recovered exactly.
        """
        if rows <= 0:
            return 0.0
        step = self._step
        step.tokens += rows
        engine = self.engine
        if engine.shard.tp == 1:
            return 0.0
        t = 2 * self.config.n_layers * engine._ic.all_reduce_time(
            rows * engine._hidden * FP16_BYTES
        )
        step.comm_s += t
        if engine._serial_calls:
            self.comm_total_s += t
        return t

    # -------------------------------------------------------- step composition

    def _step_time(self) -> float:
        """Compose the step's simulated seconds, LoRA swap-ins aside.

        A step that both admits and decodes models a piggybacked join
        (one fused forward over prefill tokens + decode rows): the
        shorter phase's compute hides under the longer one's, and the
        host still dispatches every launch.  Static batching admits only
        into an empty device, so one phase is always zero and this is
        exactly the serial price for it.  Serialized pricing then stalls
        on the step's all-reduces; step-level pricing re-prices them from
        the step's row count as bucketed, overlapped collectives inside
        a 1F1B window (see the module docstring).
        """
        engine = self.engine
        cfg = self.config
        step = self._step
        decode_comm_s = step.comm_s - step.prefill_comm_s
        compute = max(step.prefill_s - step.prefill_comm_s, step.decode_s - decode_comm_s)
        if engine._serial_calls:
            return cfg.step_overhead_s + compute + step.comm_s + cfg.dispatch_s * step.launches
        pp, m = engine.shard.pp, engine.micro_batches
        stage_layers = cfg.n_layers            # config already holds L/pp
        tokens = step.tokens
        micro_bytes = tokens * engine._hidden * FP16_BYTES / m
        # One layer's collectives for one micro-batch.  Overlapped, the
        # layer's two sync points fuse into ONE bucketed all-reduce —
        # same bytes, half the α hops.
        layer_comm = 0.0
        if engine.shard.tp > 1 and tokens > 0:
            layer_comm = (
                engine._ic.all_reduce_time(2 * micro_bytes) if engine.overlap
                else 2 * engine._ic.all_reduce_time(micro_bytes)
            )
        if engine.overlap:
            window = overlapped_layer_time(
                compute / m, layer_comm, stage_layers, engine.fleet.contention
            )
        else:
            window = compute / m + stage_layers * layer_comm
        p2p_micro = 0.0
        if pp > 1 and tokens > 0:
            p2p_micro = engine._ic.point_to_point_time(micro_bytes)
            window += p2p_micro
        core = (m + pp - 1) * window
        comm_step = m * stage_layers * layer_comm
        self.comm_total_s += comm_step
        self.p2p_total_s += m * p2p_micro
        self.bubble_total_s += (pp - 1) * window
        self.core_total_s += core
        step.parts = (compute, comm_step, m * p2p_micro, core)
        return cfg.step_overhead_s + core + cfg.dispatch_s * step.launches

    # ----------------------------------------------------------------- spans

    def _record_step(self, step_s: float) -> None:
        """Lay the step on the metrics and the simulated timeline: the step
        span, plus one compute/comm lane per rank on a fleet replica.

        Ranks run in lockstep, so each rank lane shows the same
        compute/comm picture — serialized as compute-then-all-reduce,
        overlapped as one contention-priced window, pipelined with the
        boundary sends — which is what the scaling study reads off the
        trace.
        """
        engine = self.engine
        step = self._step
        if self._kv_gauge is not None:
            self._kv_gauge.set(self.cache.occupancy)
        if self.metrics.enabled:
            self.metrics.counter("serving.tokens").inc(
                len(step.completed) + sum(n for _tr, n, _rows in step.emits)
            )
            if self.lora is not None:
                self.metrics.gauge("serving.lora_resident").set(len(self.lora.resident))
        tracer = self.tracer
        if not tracer.enabled:
            return
        clock = self.clock
        tracer.add_span(
            "serve.step",
            cat="serving",
            t0=clock,
            dur=step_s,
            tid=engine._lane_base,
            step=self.steps,
            admitted=len(step.admitted),
            decode_members=len(step.emits),
            launches=step.launches,
        ).add_model_time(step_s - self.config.step_overhead_s)
        if not engine._rank_lanes:
            return
        if engine._serial_calls:
            comm = step.comm_s
            compute = max(step_s - self.config.step_overhead_s - comm, 0.0)
            p2p = core = 0.0
        else:
            compute, comm, p2p, core = step.parts
        shard = engine.shard
        for r in range(shard.tp):
            lane = engine._lane_base + 2 + r
            tracer.lane_names.setdefault(lane, f"{engine._label}tp rank {r}")
            tracer.add_span(
                "rank.compute", cat="serving.compute",
                t0=clock, dur=compute, tid=lane, step=self.steps, rank=r,
            )
            if comm > 0 and engine.overlap:
                tracer.add_span(
                    "rank.overlap", cat="serving.comm",
                    t0=clock, dur=core, tid=lane, step=self.steps, rank=r,
                    compute_s=compute, comm_s=comm,
                    contention=engine.fleet.contention,
                    link=shard.link.name,
                )
            elif comm > 0:
                tracer.add_span(
                    "rank.all_reduce", cat="serving.comm",
                    t0=clock + compute, dur=comm, tid=lane,
                    step=self.steps, rank=r, link=shard.link.name,
                )
            if p2p > 0:
                tracer.add_span(
                    "rank.send", cat="serving.comm",
                    t0=clock + max(core - p2p, 0.0), dur=p2p, tid=lane,
                    step=self.steps, rank=r, link=shard.p2p_link.name,
                    stages=shard.pp,
                    micro_batches=engine.micro_batches,
                )

def simulate_serving(
    trace: list[Request],
    spec: GPUSpec,
    scheduler: Scheduler,
    config: ServingConfig | None = None,
    rng: RngStream | None = None,
) -> ServingReport:
    """One-call façade: run ``trace`` under ``scheduler`` on ``spec``."""
    return ServingEngine(spec, scheduler, config).run(trace, rng=rng)
