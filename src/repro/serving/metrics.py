"""Serving metrics: per-request latency accounting and fleet aggregates.

Definitions (the ones every serving paper and dashboard uses):

* **TTFT** — time to first token: first-token emission minus arrival.
  Includes queueing delay, so it is the metric scheduling policy moves.
* **ITL** — inter-token latency: the gap between consecutive tokens of one
  request after the first (also called TPOT, time per output token).
* **tokens/s** — fleet decode throughput: total generated tokens divided
  by the makespan (first arrival to last completion).
* **goodput** — completed requests per second over the same span.

Percentiles use the nearest-rank convention over the exact simulated
values; everything here is a pure function of the engine's event log, so
reports are bit-identical across runs with the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.units import format_time
from repro.serving.request import Request, RequestTracker

#: Explicit sentinel for "this request never produced the event":
#: a token-less tracker has no TTFT and an unfinished one no finish time.
#: NaN (not 0.0, not a negative) so arithmetic can never smuggle a bogus
#: value into an SLO comparison — ``nan <= target`` is always False, and
#: the aggregate properties below exclude sentinels outright.
UNSET_S = math.nan


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a sample (0 for an empty one).

    >>> percentile([1.0, 2.0, 3.0, 4.0], 50)
    2.0
    """
    if not values:
        return 0.0
    arr = np.sort(np.asarray(values, dtype=np.float64))
    rank = max(0, int(np.ceil(q / 100.0 * len(arr))) - 1)
    return float(arr[rank])


@dataclass(frozen=True)
class RequestMetrics:
    """Latency summary of one request.

    Engine reports only contain *finished* requests, but this class is
    also the public conversion point for arbitrary trackers (cancelled,
    preempted-and-abandoned, still-running).  A tracker that never
    produced a token has ``ttft_s = UNSET_S`` and an unfinished one
    ``finish_s = UNSET_S`` — never a negative latency fabricated from a
    missing timestamp.
    """

    req_id: int
    arrival_s: float
    prompt_len: int
    tokens: int
    ttft_s: float
    finish_s: float
    preemptions: int
    itl_mean_s: float
    tenant: str = ""
    priority: int = 0
    #: Tail of this request's own inter-token gaps (nearest-rank p99 and
    #: max); 0.0 for requests with fewer than two tokens.  The fleet-level
    #: "p99 ITL" the chunked-prefill study reports aggregates these —
    #: unlike ``itl_mean_s``, a single long stall (a giant fused prefill
    #: blocking every decoder) cannot hide in a per-request mean.
    itl_p99_s: float = 0.0
    itl_max_s: float = 0.0

    @property
    def has_first_token(self) -> bool:
        """True iff the request ever emitted a token (TTFT is defined)."""
        return self.tokens > 0 and not math.isnan(self.ttft_s)

    @property
    def is_finished(self) -> bool:
        """True iff the request ran to completion (latency is defined)."""
        return not math.isnan(self.finish_s)

    @property
    def latency_s(self) -> float:
        """End-to-end: arrival to final token (``UNSET_S`` if unfinished)."""
        return self.finish_s - self.arrival_s

    @classmethod
    def from_tracker(cls, tr: RequestTracker) -> "RequestMetrics":
        gaps = (
            [float(g) for g in np.diff(tr.token_times_s)]
            if len(tr.token_times_s) > 1
            else []
        )
        return cls(
            req_id=tr.req_id,
            arrival_s=tr.request.arrival_s,
            prompt_len=tr.request.prompt_len,
            tokens=tr.generated,
            ttft_s=(
                tr.ttft_s - tr.request.arrival_s
                if tr.ttft_s is not None
                else UNSET_S
            ),
            finish_s=tr.finish_s if tr.finish_s is not None else UNSET_S,
            preemptions=tr.preemptions,
            itl_mean_s=float(np.mean(gaps)) if gaps else 0.0,
            itl_p99_s=percentile(gaps, 99),
            itl_max_s=max(gaps) if gaps else 0.0,
            tenant=tr.request.tenant,
            priority=tr.request.priority,
        )


@dataclass(frozen=True)
class TenantReport:
    """Per-tenant latency aggregates and SLO attainment.

    Targets of 0 mean "no SLO declared" — the attainment fields are then
    vacuously 1.0 and the summary omits them.
    """

    tenant: str
    priority: int
    completed: int
    tokens: int
    ttft_p50_s: float
    ttft_p99_s: float
    itl_p95_s: float
    ttft_target_s: float = 0.0
    itl_target_s: float = 0.0
    ttft_attainment: float = 1.0
    itl_attainment: float = 1.0

    @property
    def slo_attainment(self) -> float:
        """The binding (worse) of the two attainment fractions."""
        return min(self.ttft_attainment, self.itl_attainment)


def tenant_reports(
    requests: list[RequestMetrics], slo_policy: object = None
) -> tuple[TenantReport, ...]:
    """Group completed requests by tenant, highest priority first.

    ``slo_policy`` is an optional :class:`~repro.serving.slo.SLOPolicy`;
    when given, each tenant's attainment is measured against its target.
    """
    groups: dict[tuple[str, int], list[RequestMetrics]] = {}
    for m in requests:
        groups.setdefault((m.tenant, m.priority), []).append(m)
    reports = []
    for (tenant, priority), ms in groups.items():
        # One sample per metric family, shared by the percentile AND the
        # attainment so the two can never disagree on population:
        # * TTFT aggregates cover requests that actually emitted a token
        #   (token-less trackers carry the UNSET_S sentinel, and counting
        #   them as "missed" would let cancelled work poison attainment
        #   just as counting a negative TTFT inflated it before);
        # * ITL aggregates cover multi-token requests — a single-token
        #   request has no inter-token gap, so a single-token tenant is
        #   pinned to itl_p95_s == 0.0 and vacuous itl_attainment == 1.0
        #   (same convention as an undeclared SLO).
        first = [m for m in ms if m.has_first_token]
        multi = [m for m in ms if m.tokens > 1]
        ttft_target = itl_target = 0.0
        ttft_att = itl_att = 1.0
        if slo_policy is not None:
            target = slo_policy.target_for(tenant)
            ttft_target = target.ttft_target_s
            itl_target = target.itl_target_s
            if first:
                ttft_att = sum(
                    m.ttft_s <= ttft_target for m in first
                ) / len(first)
            if multi:
                itl_att = sum(
                    m.itl_mean_s <= itl_target for m in multi
                ) / len(multi)
        reports.append(
            TenantReport(
                tenant=tenant,
                priority=priority,
                completed=len(ms),
                tokens=sum(m.tokens for m in ms),
                ttft_p50_s=percentile([m.ttft_s for m in first], 50),
                ttft_p99_s=percentile([m.ttft_s for m in first], 99),
                itl_p95_s=percentile([m.itl_mean_s for m in multi], 95),
                ttft_target_s=ttft_target,
                itl_target_s=itl_target,
                ttft_attainment=ttft_att,
                itl_attainment=itl_att,
            )
        )
    return tuple(
        sorted(reports, key=lambda t: (-t.priority, t.tenant))
    )


def tenant_rows(
    trace: list[Request], requests: list[RequestMetrics], scheduler: object
) -> tuple[TenantReport, ...]:
    """A run's per-tenant rows: none for a single-tenant trace, measured
    against the scheduler's SLO policy when it has one."""
    if not any(r.tenant for r in trace):
        return ()
    return tenant_reports(
        requests, slo_policy=getattr(scheduler, "slo_policy", None)
    )


@dataclass
class ServingReport:
    """Outcome of one simulated serving run."""

    policy: str
    pattern: str
    device: str
    n_requests: int
    completed: int
    makespan_s: float
    total_tokens: int
    total_steps: int
    preemptions: int
    kv_peak_occupancy: float
    #: Requests that can never be served on this engine (KV cache or token
    #: budget too small even when the device is empty).  They are marked
    #: up front and the simulation proceeds with the rest.
    rejected_ids: tuple[int, ...] = ()
    requests: list[RequestMetrics] = field(repr=False, default_factory=list)
    #: Peak physical KV pages vs what the same residency would cost with
    #: prefix sharing disabled; equal when no prefix was ever shared.
    kv_peak_used_pages: int = 0
    kv_peak_logical_pages: int = 0
    #: Copy-on-write forks of unaligned shared-prefix boundary pages.
    cow_forks: int = 0
    #: Per-tenant aggregates; empty for single-tenant (legacy) traces.
    tenants: tuple[TenantReport, ...] = ()
    #: Speculative decoding totals: drafts proposed and accepted over the
    #: whole run (both 0 when the engine ran without speculation).
    spec_proposed: int = 0
    spec_accepted: int = 0
    #: Chunked-prefill slices priced (0 when every prefill ran whole).
    prefill_chunks: int = 0
    #: Multi-LoRA residency outcome (0 when no request carried an adapter).
    lora_swaps: int = 0
    lora_peak_resident: int = 0
    #: Plan-cache statistics of the run (``PlanCache.stats()`` form), or
    #: ``None`` when the cache is disabled.  Excluded from equality: a
    #: cached and an uncached run of the same workload produce identical
    #: *serving* outcomes, which is exactly what the tests assert.
    plan_cache: dict | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------ aggregates

    @property
    def rejected(self) -> int:
        return len(self.rejected_ids)

    @property
    def tokens_per_s(self) -> float:
        return self.total_tokens / self.makespan_s if self.makespan_s else 0.0

    @property
    def goodput_rps(self) -> float:
        return self.completed / self.makespan_s if self.makespan_s else 0.0

    @property
    def ttfts(self) -> list[float]:
        """TTFT samples — requests that emitted at least one token."""
        return [r.ttft_s for r in self.requests if r.has_first_token]

    @property
    def itls(self) -> list[float]:
        return [r.itl_mean_s for r in self.requests if r.tokens > 1]

    def ttft_p(self, q: float) -> float:
        return percentile(self.ttfts, q)

    def itl_p(self, q: float) -> float:
        return percentile(self.itls, q)

    def itl_tail_p(self, q: float) -> float:
        """Percentile over per-request *p99* inter-token gaps.

        The chunked-prefill headline metric: a long fused prefill stalls
        every concurrent decoder for one giant gap, which a per-request
        *mean* dilutes but a per-request tail cannot.
        """
        return percentile(
            [r.itl_p99_s for r in self.requests if r.tokens > 1], q
        )

    @property
    def itl_max_s(self) -> float:
        """Worst single inter-token gap any request observed."""
        return max((r.itl_max_s for r in self.requests), default=0.0)

    # -------------------------------------------------------------- rendering

    def summary(self) -> str:
        lines = [
            f"{self.policy} batching · {self.pattern} masks · {self.device}",
            self._requests_line(),
            f"  throughput   : {self.tokens_per_s:,.0f} tok/s, "
            f"goodput {self.goodput_rps:,.1f} req/s",
            f"  TTFT         : p50 {format_time(self.ttft_p(50))}, "
            f"p95 {format_time(self.ttft_p(95))}, "
            f"p99 {format_time(self.ttft_p(99))}",
            f"  ITL          : p50 {format_time(self.itl_p(50))}, "
            f"p95 {format_time(self.itl_p(95))}",
            f"  KV cache     : peak occupancy {self.kv_peak_occupancy:.1%}, "
            f"{self.preemptions} preemptions",
        ]
        return "\n".join(lines + self._workload_lines())

    def _requests_line(self) -> str:
        return (
            f"  requests     : {self.completed}/{self.n_requests} completed"
            + (f" ({self.rejected} rejected)" if self.rejected else "")
            + f", {self.total_tokens} tokens in {self.total_steps} steps"
        )

    def _workload_lines(self) -> list[str]:
        """The speculative, chunked-fill, LoRA, prefix-share and tenant
        lines — printed only when the run used the feature, so runs
        without them keep the historical (golden-tested) summary byte for
        byte."""
        lines = []
        if self.spec_proposed:
            acc = self.spec_accepted / self.spec_proposed
            lines.append(
                f"  speculative  : {self.spec_accepted}/{self.spec_proposed} "
                f"drafts accepted ({acc:.0%} measured)"
            )
        if self.prefill_chunks:
            lines.append(
                f"  chunked fill : {self.prefill_chunks} prefill chunks"
            )
        if self.lora_peak_resident:
            lines.append(
                f"  lora         : peak {self.lora_peak_resident} resident "
                f"adapters, {self.lora_swaps} swaps"
            )
        if self.kv_peak_logical_pages > self.kv_peak_used_pages or self.cow_forks:
            saved = 1.0 - self.kv_peak_used_pages / max(
                1, self.kv_peak_logical_pages
            )
            lines.append(
                f"  prefix share : peak {self.kv_peak_used_pages} pages vs "
                f"{self.kv_peak_logical_pages} unshared ({saved:.1%} saved), "
                f"{self.cow_forks} COW forks"
            )
        for t in self.tenants:
            line = (
                f"  tenant {t.tenant or '-':<7}: prio {t.priority}, "
                f"{t.completed} req, {t.tokens} tok, "
                f"TTFT p99 {format_time(t.ttft_p99_s)}"
            )
            if t.ttft_target_s > 0:
                line += (
                    f" (target {format_time(t.ttft_target_s)}, "
                    f"{t.ttft_attainment:.0%} met)"
                )
            lines.append(line)
        return lines


#: ServingReport counters that add up over a fleet's replicas.
ADDITIVE_FIELDS = (
    "completed", "total_tokens", "total_steps", "preemptions",
    "kv_peak_used_pages", "kv_peak_logical_pages", "cow_forks",
    "spec_proposed", "spec_accepted", "prefill_chunks", "lora_swaps",
)


def merge_replica_fields(reports: list[ServingReport]) -> dict[str, Any]:
    """The per-replica :class:`ServingReport` fields of a fleet, merged.

    Additive counters sum; the KV-occupancy and resident-adapter peaks
    take the busiest replica's (both are per-device budgets, so replica
    peaks do not add); rejected ids and completed requests union in
    ``req_id`` order.
    """
    merged: dict[str, Any] = {
        name: sum(getattr(r, name) for r in reports) for name in ADDITIVE_FIELDS
    }
    merged["kv_peak_occupancy"] = max(
        (r.kv_peak_occupancy for r in reports), default=0.0
    )
    merged["lora_peak_resident"] = max(
        (r.lora_peak_resident for r in reports), default=0
    )
    merged["rejected_ids"] = tuple(
        sorted(i for r in reports for i in r.rejected_ids)
    )
    merged["requests"] = sorted(
        (m for r in reports for m in r.requests), key=lambda m: m.req_id
    )
    return merged
