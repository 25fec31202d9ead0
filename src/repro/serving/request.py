"""Serving requests and the synthetic arrival-trace generator.

A serving workload is a list of :class:`Request` objects — each one an
(arrival time, prompt length, generation budget, mask pattern) tuple — and
the engine's job is to turn that list into tokens under a scheduling
policy.  :func:`synthetic_trace` draws such a list from seeded
distributions (Poisson arrivals, uniform prompt/generation lengths), so
every benchmark and test works from bit-identical workloads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import ConfigError
from repro.core.rng import RngStream
from repro.masks.patterns import PATTERN_REGISTRY, causal_mask, make_pattern


class RequestState(enum.Enum):
    """Lifecycle of a request inside the serving engine."""

    WAITING = "waiting"        # arrived, not yet admitted (or preempted)
    RUNNING = "running"        # holds KV-cache pages, produces tokens
    FINISHED = "finished"      # reached its generation budget
    REJECTED = "rejected"      # can never be served (cache/budget too small)


@dataclass(frozen=True)
class Request:
    """One inference request as submitted by a client.

    Multi-tenant fields default to the single-tenant trivial case:
    ``tenant``/``priority`` feed SLO-aware scheduling, and a non-empty
    ``prefix_id`` declares that the first ``prefix_len`` prompt tokens are
    a shared prefix (e.g. a tenant's system prompt) eligible for KV-page
    sharing in :class:`~repro.serving.kvcache.PagedKVCache`.
    """

    req_id: int
    arrival_s: float
    prompt_len: int
    max_new_tokens: int
    pattern: str = "causal"
    pattern_overrides: tuple[tuple[str, object], ...] = ()
    tenant: str = ""
    priority: int = 0
    prefix_id: str = ""
    prefix_len: int = 0
    #: LoRA adapter id ("" = the base model).  Requests carrying an
    #: adapter pay the gathered batched-GEMM surcharge and key their
    #: decode plan families per adapter (see repro.serving.lora).
    adapter: str = ""

    def __post_init__(self) -> None:
        if self.prompt_len < 1:
            raise ConfigError(f"prompt_len must be >= 1, got {self.prompt_len}")
        if self.max_new_tokens < 1:
            raise ConfigError(
                f"max_new_tokens must be >= 1, got {self.max_new_tokens}"
            )
        if self.arrival_s < 0:
            raise ConfigError(f"arrival_s must be >= 0, got {self.arrival_s}")
        if self.pattern not in PATTERN_REGISTRY:
            raise ConfigError(
                f"unknown mask pattern {self.pattern!r}; "
                f"known: {sorted(PATTERN_REGISTRY)}"
            )
        if (self.prefix_len > 0) != bool(self.prefix_id):
            raise ConfigError(
                "prefix_id and prefix_len must be set together "
                f"(got {self.prefix_id!r}, {self.prefix_len})"
            )
        if not 0 <= self.prefix_len <= self.prompt_len:
            raise ConfigError(
                f"prefix_len must be in [0, prompt_len={self.prompt_len}], "
                f"got {self.prefix_len}"
            )

    @property
    def max_context(self) -> int:
        """Longest KV context this request can ever hold."""
        return self.prompt_len + self.max_new_tokens


@dataclass(eq=False)
class RequestTracker:
    """Mutable per-request runtime state owned by the engine.

    Identity-compared (``eq=False``): the engine keeps trackers in queues
    and membership must mean *this* tracker, not field equality.
    """

    request: Request
    state: RequestState = RequestState.WAITING
    generated: int = 0
    ttft_s: float | None = None
    finish_s: float | None = None
    token_times_s: list[float] = field(default_factory=list, repr=False)
    preemptions: int = 0
    _full_mask: np.ndarray | None = field(default=None, repr=False)
    _mask_fp: str | None = field(default=None, repr=False)
    # Interned decode-chunk plan-family keys by bucket index (hot path:
    # one lookup per running request per engine step).
    _plan_keys: dict = field(default_factory=dict, repr=False)
    # Interned family base (the decode PlanKey with the position dim left
    # symbolic); resolved once per request by the engine.
    _plan_base: object = field(default=None, repr=False)
    # Chunked-prefill progress: positions whose KV is already computed
    # this residency, or None when no chunked prefill is in flight
    # (whole-prefill mode, or the chunks completed).  Reset on preemption
    # — recompute-style preemption restarts the prefill.
    prefilled: int | None = field(default=None, repr=False)
    # Per-request acceptance stream of speculative decoding; forked from
    # the run's mask rng on first use (by req_id, never by step), so
    # batch composition cannot perturb another request's acceptances.
    _spec_rng: RngStream | None = field(default=None, repr=False)

    @property
    def req_id(self) -> int:
        return self.request.req_id

    @property
    def prefill_pending(self) -> bool:
        """True while a chunked prefill is still streaming this context
        in; the request joins decode only once it turns False."""
        return self.prefilled is not None

    def spec_rng(self, rng: RngStream) -> RngStream:
        """The request's acceptance stream (created once, then stateful)."""
        if self._spec_rng is None:
            self._spec_rng = rng.fork(f"spec-{self.req_id}")
        return self._spec_rng

    @property
    def context_len(self) -> int:
        """Tokens currently in (or due to re-enter) the KV cache."""
        return self.request.prompt_len + self.generated

    @property
    def done(self) -> bool:
        return self.generated >= self.request.max_new_tokens

    def full_mask(self, rng: RngStream) -> np.ndarray:
        """The request's (causal ∧ pattern) mask at ``max_context`` (cached).

        Seeded by the request id, never by admission order, so preemption
        and re-admission replay the identical mask.
        """
        if self._full_mask is None:
            size = self.request.max_context
            pattern = make_pattern(
                self.request.pattern,
                size,
                rng=rng.fork(f"req-{self.req_id}-{self.request.pattern}"),
                **dict(self.request.pattern_overrides),
            )
            self._full_mask = pattern & causal_mask(size)
        return self._full_mask

    def mask_fingerprint(self, rng: RngStream) -> str:
        """Content hash of the full mask (cached alongside it).

        This is the request's identity in the plan cache: every decode-row
        statistic and plan derived from this mask is keyed under it.
        """
        if self._mask_fp is None:
            from repro.plan.key import mask_fingerprint

            self._mask_fp = mask_fingerprint(self.full_mask(rng))
        return self._mask_fp

    def pinned_pattern_params(self) -> dict | None:
        """Size-independent pattern parameters, or ``None``.

        Non-``None`` means this request's mask entries are a pure
        function of (pattern, params, position) — independent of
        ``max_context`` — so its decode row statistics can live in a plan
        family shared across requests of *any* length
        (see :meth:`repro.masks.patterns.MaskPattern.pinned_params`).
        """
        pattern = PATTERN_REGISTRY[self.request.pattern]
        return pattern.pinned_params(dict(self.request.pattern_overrides))

    def prefill_mask(self, rng: RngStream) -> np.ndarray:
        """Square mask of the (re)compute pass over the current context."""
        t = self.context_len
        return self.full_mask(rng)[:t, :t]


def synthetic_trace(
    n_requests: int,
    arrival_rate_rps: float = 0.0,
    rng: RngStream | None = None,
    prompt_range: tuple[int, int] = (32, 160),
    max_new_range: tuple[int, int] = (16, 64),
    pattern: str = "causal",
    pattern_overrides: dict | None = None,
    arrivals: "object | None" = None,
) -> list[Request]:
    """Draw a seeded request trace — the trivial single-tenant case of
    :class:`~repro.serving.workload.WorkloadSpec`.

    By default inter-arrival gaps are exponential with mean
    ``1 / arrival_rate_rps``; pass ``arrivals=`` (any
    :class:`~repro.serving.workload.ArrivalProcess`, e.g.
    ``DiurnalArrivals``) to replace the baked-in Poisson process.  Prompt
    lengths and generation budgets are uniform over the given inclusive
    ranges.  The same ``rng`` always produces the same trace, bit for bit
    — including traces generated before the workload layer existed.

    >>> t = synthetic_trace(3, 100.0, rng=RngStream(7))
    >>> [r.req_id for r in t]
    [0, 1, 2]
    >>> t == synthetic_trace(3, 100.0, rng=RngStream(7))
    True
    """
    from repro.serving.workload import (
        ArrivalProcess,
        PoissonArrivals,
        TenantSpec,
        WorkloadSpec,
    )

    if arrivals is None:
        if arrival_rate_rps <= 0:
            raise ConfigError(
                f"arrival_rate_rps must be > 0, got {arrival_rate_rps}"
            )
        arrivals = PoissonArrivals(arrival_rate_rps)
    elif not isinstance(arrivals, ArrivalProcess):
        raise ConfigError(
            f"arrivals must be an ArrivalProcess, got {type(arrivals).__name__}"
        )
    spec = WorkloadSpec(
        n_requests=n_requests,
        arrivals=arrivals,
        tenants=(
            TenantSpec(
                name="",
                prompt_range=prompt_range,
                max_new_range=max_new_range,
                pattern=pattern,
                pattern_overrides=tuple(sorted((pattern_overrides or {}).items())),
            ),
        ),
    )
    return spec.generate(rng or RngStream())
