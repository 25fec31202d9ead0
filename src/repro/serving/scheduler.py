"""Batch-assembly policies for the serving engine.

* :class:`StaticBatchScheduler` — request-level (static) batching: a batch
  forms only when the device drains, reserves worst-case
  (``prompt + max_new``) KV for every member up front, and runs locked
  until *every* member exhausts its budget; finished members keep
  occupying their KV slot until the drain, and arrivals wait for it.
  This is the pre-continuous-batching serving baseline.
* :class:`ContinuousBatchScheduler` — iteration-level scheduling (Orca /
  vLLM style): requests join the running batch the step they arrive and
  leave the step they finish; KV pages are reserved for the *current*
  context only, with a ``max_batch_tokens`` admission knob bounding the
  packed step size.
* :class:`~repro.serving.slo.SLOScheduler` — continuous batching in
  priority-then-deadline order, with preempt-to-meet-deadline.

:meth:`Scheduler.queue_key` alone decides the wait order: FCFS for the
first two, ``(-priority, deadline, arrival, id)`` for the SLO policy.  The
engine keys each request once per run and keeps its queue sorted, so
``admit`` takes from the head and nothing re-sorts.

Every policy prices exactly the *live* decode rows (the shared
:meth:`Scheduler.decode_members`): padding a static batch with finished
rows would make its steps cheaper per live row under the roofline's
small-grid penalty.  Static batching's real costs (drain-locked
admission, worst-case reservation) live in ``admit``/``releasable``.

Schedulers only decide membership; pricing, preemption and token
accounting live in :mod:`repro.serving.engine`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.errors import ConfigError
from repro.serving.kvcache import PagedKVCache
from repro.serving.request import RequestTracker


class Scheduler(ABC):
    """One admission/composition policy."""

    name: str = "scheduler"

    def __init__(self, max_batch_size: int = 16, max_batch_tokens: int = 65536):
        if max_batch_size < 1:
            raise ConfigError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_batch_tokens < 1:
            raise ConfigError(
                f"max_batch_tokens must be >= 1, got {max_batch_tokens}"
            )
        self.max_batch_size = max_batch_size
        self.max_batch_tokens = max_batch_tokens

    def queue_key(self, tracker: RequestTracker) -> tuple:
        """Where ``tracker`` waits: ``waiting`` is kept sorted by this key,
        computed once per request per run.  FCFS: arrival, ties by id."""
        return (tracker.request.arrival_s, tracker.req_id)

    @abstractmethod
    def admit(
        self,
        waiting: list[RequestTracker],
        running: list[RequestTracker],
        cache: PagedKVCache,
    ) -> list[RequestTracker]:
        """Pop admitted trackers off the head of ``waiting`` (sorted by
        :meth:`queue_key`), reserving their KV, and return them; the
        engine prefills them this step."""

    def deadline_victims(
        self,
        waiting: list[RequestTracker],
        running: list[RequestTracker],
        cache: PagedKVCache,
        now_s: float,
    ) -> list[RequestTracker]:
        """Running trackers to preempt at time ``now_s`` so a deadline-critical
        waiter can be admitted this step.  Default: never preempt for
        deadlines (memory-pressure preemption in the engine is separate)."""
        return []

    def decode_members(
        self, running: list[RequestTracker]
    ) -> list[tuple[RequestTracker, int]]:
        """(tracker, mask-row position) pairs computed in this decode step.

        Shared by every policy so per-step decode cost is attributed
        identically: exactly one row per *live* member.  Members whose
        chunked prefill is still streaming in hold pages but cannot
        decode yet — they are excluded until their last chunk lands.
        """
        return [
            (tr, tr.context_len)
            for tr in running
            if not tr.done and not tr.prefill_pending
        ]

    @abstractmethod
    def releasable(self, running: list[RequestTracker]) -> list[RequestTracker]:
        """Finished trackers whose KV pages may be freed now."""

    @property
    def allows_preemption(self) -> bool:
        return False


class StaticBatchScheduler(Scheduler):
    """FCFS request-level batching with worst-case KV reservation."""

    name = "static"

    def admit(self, waiting, running, cache):
        if running:           # locked batch still draining
            return []
        admitted: list[RequestTracker] = []
        budget = 0
        while waiting and len(admitted) < self.max_batch_size:
            tr = waiting[0]
            worst = tr.request.max_context
            if admitted and budget + worst > self.max_batch_tokens:
                break         # FCFS: no skipping past the head
            if not cache.reserve(tr.req_id, worst):
                # The head does not fit right now: wait for the drain.
                # Requests that can never fit at all are rejected by the
                # engine before the simulation starts, so this is always a
                # transient condition, never a dead end.
                break
            budget += worst
            admitted.append(waiting.pop(0))
        return admitted

    def releasable(self, running):
        # KV slots stay resident until the locked batch fully drains.
        if running and all(tr.done for tr in running):
            return list(running)
        return []


class ContinuousBatchScheduler(Scheduler):
    """Iteration-level join/evict batching with paged admission."""

    name = "continuous"

    @property
    def allows_preemption(self) -> bool:
        return True

    def admit(self, waiting, running, cache):
        admitted: list[RequestTracker] = []
        tokens = sum(tr.context_len for tr in running)
        while waiting and len(running) + len(admitted) < self.max_batch_size:
            tr = waiting[0]
            ctx = tr.context_len   # prompt, plus kept tokens after preemption
            if tokens + ctx > self.max_batch_tokens:
                break              # FCFS: no skipping past the head
            if not cache.reserve(tr.req_id, ctx):
                break
            # Keep one free page per resident request as decode headroom so
            # admission does not immediately force a preemption.  An empty
            # device always admits (solo fit is validated by the engine).
            others = len(running) + len(admitted)
            if others > 0 and cache.free_pages < others + 1:
                cache.release(tr.req_id)
                break
            tokens += ctx
            admitted.append(waiting.pop(0))
        return admitted

    def releasable(self, running):
        return [tr for tr in running if tr.done]


#: Registry keyed by the CLI/benchmark policy names.
SCHEDULERS: dict[str, type[Scheduler]] = {
    StaticBatchScheduler.name: StaticBatchScheduler,
    ContinuousBatchScheduler.name: ContinuousBatchScheduler,
}


def make_scheduler(
    name: str, max_batch_size: int = 16, max_batch_tokens: int = 65536
) -> Scheduler:
    """Instantiate a policy by registry name.

    >>> make_scheduler("continuous").name
    'continuous'
    """
    if name not in SCHEDULERS:
        raise ConfigError(
            f"unknown scheduler {name!r}; known: {sorted(SCHEDULERS)}"
        )
    return SCHEDULERS[name](max_batch_size, max_batch_tokens)
