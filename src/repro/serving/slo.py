"""SLO-aware admission: per-tenant latency targets drive scheduling.

A production scheduler is judged by *SLO attainment* — the fraction of
requests meeting their tenant's TTFT/ITL targets — not raw throughput.
This module adds that regime on top of continuous batching:

* :class:`TenantSLO` / :class:`SLOPolicy` — declarative per-tenant
  targets (time-to-first-token and inter-token latency) with a
  ``deadline_headroom`` knob saying how much of the TTFT budget may be
  consumed by queueing before the scheduler intervenes.

* :class:`SLOScheduler` — a :class:`ContinuousBatchScheduler` that (a)
  admits in *priority-then-deadline* order instead of FCFS: its
  :meth:`~SLOScheduler.queue_key` orders waiters by descending tenant
  priority, then ascending TTFT deadline (arrival plus target): least
  slack first, without a clock; and (b) implements
  *preempt-to-meet-deadline* via the :meth:`Scheduler.deadline_victims`
  hook — when the most urgent waiter has burnt through its headroom and
  lower-priority work holds the pages it needs, those victims are
  recompute-preempted (the engine's existing mechanism) to let it in.
  Victims are chosen lowest-priority-first, latest-arrival-first, and
  only when their leaving lets admission take the waiter that same
  step: a free batch slot, the waiter's context within
  ``max_batch_tokens`` beside the remaining residents', and free pages
  for that context plus one page of decode headroom per remaining
  resident (never fewer than its context and next token plus one page).
  Otherwise nothing is evicted (no thrashing under hopeless pressure).

Attainment shows up per tenant in
:class:`~repro.serving.metrics.TenantReport`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigError
from repro.serving.kvcache import PagedKVCache
from repro.serving.request import RequestTracker
from repro.serving.scheduler import (
    SCHEDULERS,
    ContinuousBatchScheduler,
    Scheduler,
    make_scheduler,
)


@dataclass(frozen=True)
class TenantSLO:
    """Latency targets for one tenant class."""

    tenant: str
    ttft_target_s: float = 0.25
    itl_target_s: float = 0.05

    def __post_init__(self) -> None:
        if self.ttft_target_s <= 0 or self.itl_target_s <= 0:
            raise ConfigError(
                f"SLO targets must be > 0, got ttft={self.ttft_target_s}, "
                f"itl={self.itl_target_s}"
            )


@dataclass(frozen=True)
class SLOPolicy:
    """Per-tenant targets plus the scheduler's intervention threshold.

    ``deadline_headroom`` is the fraction of a waiter's TTFT budget that
    may elapse in the queue before the scheduler starts evicting
    lower-priority work on its behalf (0.8 → intervene once 80% of the
    budget is gone).  Tenants without an explicit target fall back to
    the defaults.
    """

    targets: tuple[TenantSLO, ...] = ()
    default_ttft_s: float = 0.25
    default_itl_s: float = 0.05
    deadline_headroom: float = 0.8

    def __post_init__(self) -> None:
        if self.default_ttft_s <= 0 or self.default_itl_s <= 0:
            raise ConfigError("default SLO targets must be > 0")
        if not 0.0 < self.deadline_headroom <= 1.0:
            raise ConfigError(
                f"deadline_headroom must be in (0, 1], got "
                f"{self.deadline_headroom}"
            )
        names = [t.tenant for t in self.targets]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate SLO tenants: {names}")

    def target_for(self, tenant: str) -> TenantSLO:
        for t in self.targets:
            if t.tenant == tenant:
                return t
        return TenantSLO(tenant, self.default_ttft_s, self.default_itl_s)


class SLOScheduler(ContinuousBatchScheduler):
    """Priority + deadline admission with preempt-to-meet-deadline."""

    name = "slo"

    def __init__(
        self,
        max_batch_size: int = 16,
        max_batch_tokens: int = 65536,
        policy: SLOPolicy | None = None,
    ):
        super().__init__(max_batch_size, max_batch_tokens)
        self.slo_policy = policy or SLOPolicy()

    def queue_key(self, tracker: RequestTracker) -> tuple:
        """Highest priority first, then earliest TTFT deadline: the
        head-of-line blocking FCFS imposes is exactly what SLO admission
        removes.  Subtracting one clock from every deadline keeps their
        order, so least slack first needs no clock (where rounding would
        tie two slacks, the earlier deadline goes first)."""
        req = tracker.request
        target = self.slo_policy.target_for(req.tenant)
        return (
            -req.priority,
            req.arrival_s + target.ttft_target_s,
            req.arrival_s,
            req.req_id,
        )

    def deadline_victims(
        self,
        waiting: list[RequestTracker],
        running: list[RequestTracker],
        cache: PagedKVCache,
        now_s: float,
    ) -> list[RequestTracker]:
        if not waiting or not running:
            return []
        head = waiting[0]
        target = self.slo_policy.target_for(head.request.tenant)
        burn = self.slo_policy.deadline_headroom * target.ttft_target_s
        if now_s - head.request.arrival_s < burn:
            return []      # still inside the queueing budget
        # A page of decode headroom on top of the waiter's context.
        ctx = head.context_len
        floor = cache.config.pages_for(ctx + 1) + 1
        if cache.free_pages >= floor and len(running) < self.max_batch_size:
            return []      # already admissible; plain admission handles it
        evictable = sorted(
            (
                tr
                for tr in running
                if tr.request.priority < head.request.priority and not tr.done
            ),
            key=lambda tr: (
                tr.request.priority,
                -tr.request.arrival_s,
                -tr.req_id,
            ),
        )
        victims: list[RequestTracker] = []
        freed = cache.free_pages
        tokens = sum(tr.context_len for tr in running)
        for tr in [*evictable, None]:
            # ContinuousBatchScheduler.admit's terms once the victims
            # leave: a slot, the token budget, and the head's pages plus
            # one free page per remaining resident.
            residents = len(running) - len(victims)
            need = cache.config.pages_for(ctx) + residents + 1 if residents else 0
            if (
                residents < self.max_batch_size
                and tokens + ctx <= self.max_batch_tokens
                and freed >= max(floor, need)
            ):
                return victims
            if tr is None:
                return []  # eviction would not admit the waiter: don't thrash
            victims.append(tr)
            freed += cache.reclaimable_pages_of(tr.req_id)
            tokens -= tr.context_len


SCHEDULERS[SLOScheduler.name] = SLOScheduler


def make_policy_scheduler(
    policy: str,
    max_batch_size: int,
    max_batch_tokens: int,
    slo: SLOPolicy | None,
) -> Scheduler:
    """A replica's scheduler: an explicit SLO policy wins over the name.

    >>> make_policy_scheduler("continuous", 16, 65536, SLOPolicy()).name
    'slo'
    """
    if slo is not None:
        return SLOScheduler(max_batch_size, max_batch_tokens, policy=slo)
    return make_scheduler(policy, max_batch_size, max_batch_tokens)
