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

Everything is a pure function of (trace, scheduler, config, seed): two
runs produce bit-identical reports.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, replace

from repro.core.errors import ConfigError
from repro.core.fp16 import FP16_BYTES
from repro.core.rng import RngStream
from repro.gpu.cost import estimate_kernel_time
from repro.gpu.specs import GPUSpec
from repro.mha.module import UnifiedMHA
from repro.mha.problem import AttentionProblem
from repro.mha.rowwise import RowWiseKernel, plan_rowwise_launches
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
    lanes on a fleet's trace.
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
        #: The current step's serialized collective seconds and activation
        #: rows (reset at each step's start), and its step-level
        #: (compute, comm, p2p, core) seconds for the rank lanes.
        self._step_comm_s = 0.0
        self._step_tokens = 0
        self._last_parts: tuple[float, float, float, float] | None = None
        #: Totals over the last/current run (simulated seconds).
        self.comm_total_s = 0.0
        self.p2p_total_s = 0.0
        self.bubble_total_s = 0.0
        self.core_total_s = 0.0
        #: The run's KV cache (set by ``run``); ``_prefill_time`` consults
        #: it for shared-prefix positions it may skip recomputing.
        self._cache: PagedKVCache | None = None
        #: Adapter pricing + residency when multi-LoRA serving is on.
        self._lora = (
            AdapterRegistry(
                spec,
                self.config.lora,
                hidden=self.config.heads * self.config.head_size,
                n_layers=self.config.n_layers,
            )
            if self.config.lora is not None
            else None
        )
        # Per-run workload counters (reset by ``run``).
        self._spec_proposed = 0
        self._spec_accepted = 0
        self._prefill_chunks = 0

    # ----------------------------------------------------------- step pricing

    def _prefill_time(
        self, tr: RequestTracker, rng: RngStream
    ) -> tuple[float, int, int]:
        """Simulated seconds, launch count and computed rows of
        (re)computing the context.

        When the request attached to a shared prefix whose pages another
        holder already materialized, only the *suffix* rows past the
        cached positions are computed — rectangular rows over the full
        context, priced through the same row-wise machinery as decode —
        and only their activations are all-reduced.  With nothing cached
        this is the historical square-prefill path, bit for bit.
        """
        ctx = tr.context_len
        cached = (
            self._cache.cached_prefix_tokens(tr.req_id)
            if self._cache is not None
            else 0
        )
        if cached >= ctx:
            return 0.0, 0, 0
        if cached <= 0:
            rows = ctx
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
        else:
            suffix = tr.full_mask(rng)[cached:ctx, :ctx]
            rows = ctx - cached
            rises = row_rises(suffix)
            seconds, launches = self._price_rows(
                rows,
                ctx,
                int(suffix.sum()),
                int((rises > 0).sum()),
                int((rises == 1).sum()),
            )
        return seconds + self._collective_s(rows), launches, rows

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
        of a mask.
        """
        contig = 1.0 if nonempty == 0 else float(single) / float(nonempty)
        num_warps = self._decode_kernel.default_params(None, self.spec)["num_warps"]
        seconds = 0.0
        launches = 0
        for cost, launch_cfg in plan_rowwise_launches(
            self.spec,
            num_warps=num_warps,
            n_bh=self.config.heads,
            seq_len=seq_len,
            kv_seq_len=kv_seq_len,
            head_size=self.config.head_size,
            nnz=nnz,
            contiguous_fraction=contig,
            kernel_name=self._decode_kernel.name,
        ):
            seconds += estimate_kernel_time(self.spec, cost, launch_cfg).total
            launches += cost.launches
        return (
            seconds * self.config.n_layers,
            launches * self.config.n_layers,
        )

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
            fam = self._decode_family(tr, bucket, pos, rng)
            tr._plan_keys[bucket] = fam
        nnz, rises = self.plan_cache.get_or_build(
            fam,
            lambda: self._decode_bucket_stats(
                tr, bucket, rng, shared=fam.base.mask.startswith("sym:")
            ),
        )
        return nnz[offset], rises[offset]

    def _decode_family(
        self, tr: RequestTracker, bucket: int, pos: int, rng: RngStream
    ) -> SymbolicPlanKey:
        """The guarded family key owning decode position ``pos``.

        Scans the cache's families under this request's base first, so a
        bucket another request already planned is reused; otherwise a new
        sibling guarded by this position's bucket is keyed (the cache
        counts its insertion as a family split).
        """
        base = tr._plan_base
        if base is None:
            base = self._decode_base(tr, rng)
            tr._plan_base = base
        fam = self.plan_cache.find_family(base, ("pos",), {"pos": pos})
        if fam is None:
            width = self.config.plan_bucket_tokens
            fam = SymbolicPlanKey(
                base, ("pos",), GuardSet((BucketGuard("pos", width, bucket),))
            )
        return fam

    def _decode_base(self, tr: RequestTracker, rng: RngStream) -> PlanKey:
        """The concrete part of a request's decode family keys.

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
        if self._lora is not None:
            adapter = adapter_fingerprint(
                tr.request.adapter, self._lora.config.rank
            )
        return PlanKey(
            kind="serving-decode",
            pattern=pattern,
            mask=mask_id,
            salt=f"rows:w={width}{adapter}",
            shard=self.shard_fingerprint,
        )

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
        self._step_tokens += rows
        if self.shard.tp == 1:
            return 0.0
        t = 2 * self.config.n_layers * self._ic.all_reduce_time(
            rows * self._hidden * FP16_BYTES
        )
        self._step_comm_s += t
        if self._serial_calls:
            self.comm_total_s += t
        return t

    # ------------------------------------------------- workload-specific pricing

    def _chunk_prefill_time(
        self, tr: RequestTracker, rng: RngStream, max_rows: int
    ) -> tuple[float, int, int]:
        """Price the request's next prefill chunk (at most ``max_rows``
        rows); returns ``(seconds, launches, rows)`` and advances
        ``tr.prefilled``.

        A chunk covering positions ``[a, b)`` attends all of ``[0, b)`` —
        a rectangular *tiled* problem through the same kernel selection as
        whole prefills (the rows are dense and contiguous, so pricing them
        through the gathered decode path would overcharge them ~10x).
        Full-width chunk plans are memoized under guarded plan families
        keyed like decode's (:meth:`_decode_base` identity, a
        ``pos // chunk == bucket`` :class:`~repro.plan.BucketGuard`, plus
        the start's in-bucket offset), so a chunk planned for one request
        replays for every other request with the same mask identity —
        under ``symbolic_plan_keys``, for *any* same-pattern request
        regardless of length, exactly the decode-family sharing contract.
        """
        cfg = self.config
        width = cfg.chunk_prefill_tokens
        a = tr.prefilled
        b = min(a + min(width, max_rows), tr.context_len)
        if cfg.use_plan_cache and b - a == width:
            base = tr._plan_base
            if base is None:
                base = self._decode_base(tr, rng)
                tr._plan_base = base
            # (bucket, in-bucket offset) uniquely name the start position,
            # and full width pins the extent, so the cached price is a
            # pure function of the family key.
            chunk_base = PlanKey(
                kind="serving-chunk",
                pattern=base.pattern,
                mask=base.mask,
                salt=f"chunk:w={width}:o={a % width}",
                shard=self.shard_fingerprint,
            )
            fam = self.plan_cache.find_family(chunk_base, ("pos",), {"pos": a})
            if fam is None:
                fam = SymbolicPlanKey(
                    chunk_base,
                    ("pos",),
                    GuardSet((BucketGuard("pos", width, a // width),)),
                )
            seconds, launches = self.plan_cache.get_or_build(
                fam, lambda: self._price_chunk(tr, a, b, rng)
            )
        else:
            seconds, launches = self._price_chunk(tr, a, b, rng)
        tr.prefilled = b
        self._prefill_chunks += 1
        # Chunks all-reduce exactly their own activation rows.
        return seconds + self._collective_s(b - a), launches, b - a

    def _price_chunk(
        self, tr: RequestTracker, a: int, b: int, rng: RngStream
    ) -> tuple[float, int]:
        """(seconds, launches) of chunk rows ``[a, b)`` over KV ``[0, b)``.

        For cache-shared (``sym:``) families the slice content is a pure
        function of positions (that is what pinned params guarantee), so
        the value is independent of which request builds it first.
        """
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

    def _spec_decode_step(
        self, members: list[tuple[RequestTracker, int]], rng: RngStream
    ) -> tuple[float, int, list[tuple[RequestTracker, int]]]:
        """Price one propose+verify speculative step.

        Returns ``(seconds, launches, emits)`` where ``emits`` pairs each
        member with its emitted token count (accepted drafts + the
        target's bonus token).  Proposals are capped so a request can
        never overshoot its generation budget: ``k_i = min(k,
        remaining - 1)`` keeps ``k_i + 1 <= remaining``.
        """
        spec = self.config.spec_decode
        proposals: list[tuple[RequestTracker, int, int]] = []
        for tr, pos in members:
            remaining = tr.request.max_new_tokens - tr.generated
            proposals.append((tr, pos, min(spec.draft_tokens, remaining - 1)))
        seconds = 0.0
        launches = 0
        # The draft autoregressively proposes depth-by-depth: one packed
        # forward per depth over the members still proposing at it.
        # Drafts are small enough that sharded deployments replicate them
        # per rank (vLLM/TRT-LLM practice): they pay compute but never
        # tensor-parallel collectives.
        depth = max((k for _tr, _pos, k in proposals), default=0)
        for j in range(depth):
            mj = [(tr, pos + j) for tr, pos, k in proposals if j < k]
            t, n = self._decode_time(mj, rng)
            seconds += spec.draft_cost_ratio * t
            launches += n
        # The target verifies every proposal row plus its own bonus row in
        # ONE packed var-len forward (k_i + 1 rows per member), and
        # all-reduces that expanded row count.
        expanded = [
            (tr, pos + j) for tr, pos, k in proposals for j in range(k + 1)
        ]
        t, n = self._decode_time(expanded, rng)
        seconds += t + self._collective_s(len(expanded))
        launches += n
        emits: list[tuple[RequestTracker, int]] = []
        for tr, _pos, k in proposals:
            accepted = spec.sample_accepted(tr.spec_rng(rng), k)
            self._spec_proposed += k
            self._spec_accepted += accepted
            emits.append((tr, accepted + 1))
        return seconds, launches, emits

    # -------------------------------------------------------- step composition

    def _step_time(
        self,
        prefill_s: float,
        prefill_comm_s: float,
        decode_s: float,
        decode_comm_s: float,
        launches: int,
    ) -> float:
        """Compose one engine step's simulated seconds.

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
        cfg = self.config
        compute = max(prefill_s - prefill_comm_s, decode_s - decode_comm_s)
        if self._serial_calls:
            return (
                cfg.step_overhead_s
                + compute
                + self._step_comm_s
                + cfg.dispatch_s * launches
            )
        pp, m = self.shard.pp, self.micro_batches
        stage_layers = cfg.n_layers            # config already holds L/pp
        tokens = self._step_tokens
        micro_bytes = tokens * self._hidden * FP16_BYTES / m
        # One layer's collectives for one micro-batch.  Overlapped, the
        # layer's two sync points fuse into ONE bucketed all-reduce —
        # same bytes, half the α hops.
        layer_comm = 0.0
        if self.shard.tp > 1 and tokens > 0:
            layer_comm = (
                self._ic.all_reduce_time(2 * micro_bytes) if self.overlap
                else 2 * self._ic.all_reduce_time(micro_bytes)
            )
        if self.overlap:
            window = overlapped_layer_time(
                compute / m, layer_comm, stage_layers, self.fleet.contention
            )
        else:
            window = compute / m + stage_layers * layer_comm
        p2p_micro = 0.0
        if pp > 1 and tokens > 0:
            p2p_micro = self._ic.point_to_point_time(micro_bytes)
            window += p2p_micro
        core = (m + pp - 1) * window
        comm_step = m * stage_layers * layer_comm
        self.comm_total_s += comm_step
        self.p2p_total_s += m * p2p_micro
        self.bubble_total_s += (pp - 1) * window
        self.core_total_s += core
        self._last_parts = (compute, comm_step, m * p2p_micro, core)
        return cfg.step_overhead_s + core + cfg.dispatch_s * launches

    # ----------------------------------------------------------------- spans

    def _record_step(
        self,
        tracer: Tracer,
        clock: float,
        step_s: float,
        step: int,
        admitted: int,
        members: int,
        launches: int,
    ) -> None:
        """Lay one engine step on the simulated timeline: the step span,
        plus one compute/comm lane per rank on a fleet replica.

        Ranks run in lockstep, so each rank lane shows the same
        compute/comm picture — serialized as compute-then-all-reduce,
        overlapped as one contention-priced window, pipelined with the
        boundary sends — which is what the scaling study reads off the
        trace.
        """
        if not tracer.enabled:
            return
        tracer.add_span(
            "serve.step",
            cat="serving",
            t0=clock,
            dur=step_s,
            tid=self._lane_base,
            step=step,
            admitted=admitted,
            decode_members=members,
            launches=launches,
        ).add_model_time(step_s - self.config.step_overhead_s)
        if not self._rank_lanes:
            return
        if self._serial_calls:
            comm = self._step_comm_s
            compute = max(step_s - self.config.step_overhead_s - comm, 0.0)
            p2p = core = 0.0
        else:
            compute, comm, p2p, core = self._last_parts
        for r in range(self.shard.tp):
            lane = self._lane_base + 2 + r
            tracer.lane_names.setdefault(lane, f"{self._label}tp rank {r}")
            tracer.add_span(
                "rank.compute", cat="serving.compute",
                t0=clock, dur=compute, tid=lane, step=step, rank=r,
            )
            if comm > 0 and self.overlap:
                tracer.add_span(
                    "rank.overlap", cat="serving.comm",
                    t0=clock, dur=core, tid=lane, step=step, rank=r,
                    compute_s=compute, comm_s=comm,
                    contention=self.fleet.contention,
                    link=self.shard.link.name,
                )
            elif comm > 0:
                tracer.add_span(
                    "rank.all_reduce", cat="serving.comm",
                    t0=clock + compute, dur=comm, tid=lane,
                    step=step, rank=r, link=self.shard.link.name,
                )
            if p2p > 0:
                tracer.add_span(
                    "rank.send", cat="serving.comm",
                    t0=clock + max(core - p2p, 0.0), dur=p2p, tid=lane,
                    step=step, rank=r, link=self.shard.p2p_link.name,
                    stages=self.shard.pp,
                    micro_batches=self.micro_batches,
                )

    # ------------------------------------------------------------- simulation

    def run(self, trace: list[Request], rng: RngStream | None = None) -> ServingReport:
        """Simulate the full trace to completion and report fleet metrics."""
        if not trace:
            raise ConfigError("empty request trace")
        rng = rng or RngStream()
        mask_rng = rng.fork("serving-masks")
        cfg = self.config
        self._spec_proposed = 0
        self._spec_accepted = 0
        self._prefill_chunks = 0
        self.comm_total_s = 0.0
        self.p2p_total_s = 0.0
        self.bubble_total_s = 0.0
        self.core_total_s = 0.0
        if self._lora is not None:
            self._lora.reset()
        cache = PagedKVCache(
            KVCacheConfig.for_spec(
                self.spec,
                cfg.heads,
                cfg.head_size,
                cfg.n_layers,
                page_tokens=cfg.kv_page_tokens,
                capacity_frac=cfg.kv_capacity_frac,
            )
        )
        # Requests that can never be served — their worst-case context
        # exceeds an *empty* cache or the scheduler's token budget — are
        # rejected up front and surfaced in the report; the simulation
        # proceeds with the rest instead of crashing mid-run.  (Truly
        # unservable *configurations*, e.g. a cache smaller than one page,
        # still fail hard at construction, in KVCacheConfig.)
        trackers = {r.req_id: RequestTracker(r) for r in trace}
        active: list[Request] = []
        rejected: list[RequestTracker] = []
        for req in sorted(trace, key=lambda r: (r.arrival_s, r.req_id)):
            servable = (
                cache.fits_alone(req.max_context)
                and req.max_context <= self.scheduler.max_batch_tokens
            )
            if servable:
                active.append(req)
            else:
                trackers[req.req_id].state = RequestState.REJECTED
                rejected.append(trackers[req.req_id])
        self._cache = cache
        for req in active:
            if req.prefix_id:
                cache.register_prefix(req.req_id, req.prefix_id, req.prefix_len)

        arrived = 0       # active[:arrived] have entered the engine
        waiting: list[RequestTracker] = []     # sorted by queue key
        keys: dict[RequestTracker, tuple] = {}     # computed once, at arrival
        running: list[RequestTracker] = []
        finished: list[RequestTracker] = []

        tracer = self.tracer if self.tracer is not None else current_tracer()
        if tracer.enabled:
            tracer.lane_names.setdefault(
                self._lane_base, f"{self._label}engine steps"
            )
            tracer.lane_names.setdefault(
                self._lane_base + 1, f"{self._label}requests"
            )
        metrics = current_metrics()
        kv_gauge = (
            metrics.gauge("serving.kv_occupancy") if metrics.enabled else None
        )

        clock = 0.0
        steps = 0

        def credit_token(tr: RequestTracker) -> None:
            tr.generated += 1
            tr.token_times_s.append(clock)
            if tr.ttft_s is None:
                tr.ttft_s = clock
            if tr.done:
                tr.finish_s = clock
                tr.state = RequestState.FINISHED
                # Nothing reads a finished request's mask again; drop its
                # max_context^2 bytes now, not at the end of the run.
                tr._full_mask = None
                if tr in waiting:      # preempted in the same step it finished
                    waiting.remove(tr)
                finished.append(tr)
                if tracer.enabled:
                    arrival = tr.request.arrival_s
                    span = tracer.add_span(
                        f"request {tr.req_id}",
                        cat="serving.request",
                        t0=arrival,
                        dur=clock - arrival,
                        tid=self._lane_base + 1,
                        req_id=tr.req_id,
                        prompt_len=tr.request.prompt_len,
                        tokens=tr.generated,
                        ttft_s=(tr.ttft_s or 0.0) - arrival,
                        preemptions=tr.preemptions,
                    )
                    for ts in tr.token_times_s:
                        span.event("token", ts)

        def preempt(tr: RequestTracker) -> None:
            cache.release(tr.req_id)
            running.remove(tr)
            tr.state = RequestState.WAITING
            tr.preemptions += 1
            # Recompute-style preemption discards the KV, so an in-flight
            # chunked prefill restarts from whatever re-admission finds
            # cached, not from its old chunk watermark.
            tr.prefilled = None
            insort(waiting, tr, key=keys.__getitem__)

        if metrics.enabled and rejected:
            metrics.counter("serving.rejected").inc(len(rejected))

        while len(finished) < len(active):
            while arrived < len(active) and active[arrived].arrival_s <= clock:
                tr = trackers[active[arrived].req_id]
                arrived += 1
                keys[tr] = self.scheduler.queue_key(tr)
                insort(waiting, tr, key=keys.__getitem__)

            # Preempt-to-meet-deadline (SLO policies): evict lower-priority
            # residents *before* the step forms, so the at-risk waiter is
            # admitted this very step rather than after their drain.
            for victim in self.scheduler.deadline_victims(waiting, running, cache, clock):
                if victim in running:
                    preempt(victim)

            was_running = list(running)
            admitted = self.scheduler.admit(waiting, running, cache)
            for tr in admitted:
                tr.state = RequestState.RUNNING
                running.append(tr)

            if not was_running and not admitted:
                if arrived == len(active):   # pragma: no cover - admission always progresses
                    raise ConfigError("serving deadlock: nothing runnable")
                clock = active[arrived].arrival_s
                continue

            self._step_comm_s = 0.0
            self._step_tokens = 0
            launches = 0
            prefill_s = 0.0
            #: Trackers whose prefill finishes this step (they earn their
            #: first token at step end).  Without chunking this is exactly
            #: ``admitted``.
            prefill_completed: list[RequestTracker] = []
            #: Adapter -> prefill rows computed this step (LoRA pricing).
            lora_prefill: dict[str, int] = {}
            for tr in admitted:
                cached = cache.cached_prefix_tokens(tr.req_id)
                if cfg.chunk_prefill_tokens <= 0 or (
                    tr.context_len - cached <= cfg.chunk_prefill_tokens
                ):
                    # Whole remaining context fits one chunk: take the
                    # historical whole-prefill path, bit for bit.
                    t, n, rows = self._prefill_time(tr, mask_rng)
                    prefill_s += t
                    launches += n
                    prefill_completed.append(tr)
                    if self._lora is not None and tr.request.adapter:
                        lora_prefill[tr.request.adapter] = (
                            lora_prefill.get(tr.request.adapter, 0) + rows
                        )
                else:
                    tr.prefilled = cached
            if cfg.chunk_prefill_tokens > 0:
                # Advance in-flight chunked prefills — including those
                # admitted this very step — fused into the step alongside
                # decode.  ``chunk_prefill_tokens`` is a *per-step* prefill
                # token budget shared FCFS across pending prefills
                # (Sarathi-style): the step's total prefill work stays
                # bounded by one chunk, so decode rows never stall behind
                # a whole long prompt — or behind several chunks at once.
                budget = cfg.chunk_prefill_tokens
                fills = sorted(
                    (t for t in running if t.prefill_pending),
                    key=lambda t: (t.request.arrival_s, t.req_id),
                )
                for tr in fills:
                    if budget <= 0:
                        break
                    t, n, rows = self._chunk_prefill_time(
                        tr, mask_rng, budget
                    )
                    budget -= rows
                    prefill_s += t
                    launches += n
                    if self._lora is not None and tr.request.adapter:
                        lora_prefill[tr.request.adapter] = (
                            lora_prefill.get(tr.request.adapter, 0) + rows
                        )
                    if tr.prefilled >= tr.context_len:
                        tr.prefilled = None
                        prefill_completed.append(tr)
            prefill_comm_s = self._step_comm_s

            members = self.scheduler.decode_members(was_running)
            if self.scheduler.allows_preemption:
                members.sort(key=lambda tp: (tp[0].request.arrival_s, tp[0].req_id))
                survivors: list[tuple[RequestTracker, int]] = []
                for tr, pos in members:
                    if tr not in running:   # evicted earlier in this pass
                        continue
                    preempted_self = False
                    need = tr.context_len + 1
                    if cfg.spec_decode is not None:
                        # Speculative members may advance k+1 positions in
                        # one step; reserve that headroom (clamped to the
                        # budget the request can actually reach).
                        need = min(
                            need + cfg.spec_decode.draft_tokens,
                            tr.request.max_context,
                        )
                    while not cache.reserve(tr.req_id, need):
                        evictable = [
                            t
                            for t in running
                            if t is not tr
                            and all(t is not s for s, _ in survivors)
                        ]
                        if not evictable:   # pragma: no cover - solo fit holds
                            preempt(tr)
                            preempted_self = True
                            break
                        victim = max(
                            evictable,
                            key=lambda t: (t.request.arrival_s, t.req_id),
                        )
                        preempt(victim)
                    if not preempted_self:
                        survivors.append((tr, pos))
                members = survivors
            if cfg.spec_decode is not None and members:
                decode_s, n, emits = self._spec_decode_step(members, mask_rng)
            else:
                decode_s, n = self._decode_time(members, mask_rng)
                decode_s += self._collective_s(len(members))
                emits = [(tr, 1) for tr, _pos in members]
            launches += n
            decode_comm_s = self._step_comm_s - prefill_comm_s

            lora_swap_s = 0.0
            if self._lora is not None:
                # Gathered adapter GEMMs ride each phase's forward (the
                # fused-step max applies); swap-ins serialize on PCIe.
                lora_decode: dict[str, int] = {}
                for tr, n_tok in emits:
                    ad = tr.request.adapter
                    if not ad:
                        continue
                    rows = n_tok if cfg.spec_decode is None else (
                        # Verified rows, not emitted: k_i + 1 per member.
                        min(
                            cfg.spec_decode.draft_tokens,
                            tr.request.max_new_tokens - tr.generated - 1,
                        )
                        + 1
                    )
                    lora_decode[ad] = lora_decode.get(ad, 0) + rows
                if lora_prefill:
                    t, n = self._lora.gemm_time(
                        sum(lora_prefill.values()), len(lora_prefill)
                    )
                    prefill_s += t
                    launches += n
                if lora_decode:
                    t, n = self._lora.gemm_time(
                        sum(lora_decode.values()), len(lora_decode)
                    )
                    decode_s += t
                    launches += n
                touched = set(lora_prefill) | set(lora_decode)
                if touched:
                    swaps_before = self._lora.swaps
                    lora_swap_s = self._lora.touch(touched)
                    if metrics.enabled and self._lora.swaps > swaps_before:
                        metrics.counter("serving.lora_swaps").inc(
                            self._lora.swaps - swaps_before
                        )

            step_s = (
                self._step_time(
                    prefill_s, prefill_comm_s, decode_s, decode_comm_s, launches
                )
                + lora_swap_s
            )

            self._record_step(
                tracer, clock, step_s, steps, len(admitted), len(members),
                launches,
            )
            if kv_gauge is not None:
                kv_gauge.set(cache.occupancy)
            if metrics.enabled:
                metrics.counter("serving.tokens").inc(
                    len(prefill_completed) + sum(n for _tr, n in emits)
                )
                if self._lora is not None:
                    metrics.gauge("serving.lora_resident").set(
                        len(self._lora.resident)
                    )

            clock += step_s
            steps += 1

            for tr in prefill_completed:
                credit_token(tr)
            for tr, n_tok in emits:
                for _ in range(n_tok):
                    if not tr.done:
                        credit_token(tr)

            for tr in self.scheduler.releasable(running):
                cache.release(tr.req_id)
                running.remove(tr)

        first_arrival = min(r.arrival_s for r in trace)
        last_finish = (
            max(tr.finish_s or 0.0 for tr in finished)
            if finished else first_arrival
        )
        patterns = sorted({r.pattern for r in trace})
        completed_metrics = sorted(
            (RequestMetrics.from_tracker(tr) for tr in finished),
            key=lambda m: m.req_id,
        )
        return ServingReport(
            policy=self.scheduler.name,
            pattern="+".join(patterns),
            device=self.spec.name,
            n_requests=len(trace),
            completed=len(finished),
            makespan_s=last_finish - first_arrival,
            total_tokens=sum(tr.generated for tr in finished),
            total_steps=steps,
            preemptions=sum(tr.preemptions for tr in trackers.values()),
            kv_peak_occupancy=cache.peak_occupancy,
            rejected_ids=tuple(tr.req_id for tr in rejected),
            requests=completed_metrics,
            kv_peak_used_pages=cache.peak_used_pages,
            kv_peak_logical_pages=cache.peak_logical_pages,
            cow_forks=cache.cow_forks,
            tenants=tenant_rows(trace, completed_metrics, self.scheduler),
            plan_cache=self.plan_cache.stats() if cfg.use_plan_cache else None,
            spec_proposed=self._spec_proposed,
            spec_accepted=self._spec_accepted,
            prefill_chunks=self._prefill_chunks,
            lora_swaps=self._lora.swaps if self._lora is not None else 0,
            lora_peak_resident=(
                self._lora.peak_resident if self._lora is not None else 0
            ),
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
