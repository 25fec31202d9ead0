"""Multi-tenant workload generation: arrival processes and tenant mixes.

The fleet simulator needs traffic that looks like production — not a
single synthetic stream.  This module provides the two halves of that:

* **Arrival processes** (:class:`PoissonArrivals`, :class:`DiurnalArrivals`,
  :class:`BurstyArrivals`): seedable point processes over wall-clock time.
  Time-varying rates are sampled by Lewis–Shedler *thinning* — candidates
  are drawn at the peak rate and accepted with probability
  ``rate_at(t) / peak`` — so any bounded rate curve plugs in.  Every
  process exposes ``scaled(factor)``; the "millions of users" knob is a
  single multiplicative scale on the arrival rate.

* **Tenant mixes** (:class:`TenantSpec`, :class:`WorkloadSpec`): each
  arrival is assigned to a weighted tenant class carrying its own prompt
  and generation-length distributions, mask pattern, scheduling
  ``priority``, and optionally a shared *system prompt*.  A tenant with
  ``system_prompt_len > 0`` stamps every request with
  ``prefix_id="sys:<tenant>"`` so the paged KV cache can share those
  pages across the tenant's whole population.

Determinism contract: :meth:`WorkloadSpec.generate` is a pure function of
``(spec, rng)``.  The single-tenant Poisson case consumes RNG draws in
exactly the order the original ``synthetic_trace`` did, so traces for
existing seeds are bit-identical (golden-tested).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

from repro.core.errors import ConfigError
from repro.core.rng import RngStream
from repro.masks.patterns import PATTERN_REGISTRY
from repro.serving.request import Request


class ArrivalProcess(ABC):
    """A seedable point process: successive request arrival times."""

    @abstractmethod
    def rate_at(self, t_s: float) -> float:
        """Instantaneous arrival rate (requests/s) at time ``t_s``."""

    @abstractmethod
    def next_arrival(self, t_s: float, rng: RngStream) -> float:
        """The first arrival strictly after ``t_s``."""

    @abstractmethod
    def scaled(self, factor: float) -> "ArrivalProcess":
        """The same process with every rate multiplied by ``factor``."""

    def mean_rate(self) -> float:
        """Long-run average rate; subclasses with varying rate override."""
        return self.rate_at(0.0)


def _require_positive(name: str, value: float) -> None:
    if value <= 0:
        raise ConfigError(f"{name} must be > 0, got {value}")


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson process: exponential inter-arrival gaps.

    Consumes exactly one uniform draw per arrival — the contract the
    byte-identical ``synthetic_trace`` goldens pin down.
    """

    rate_rps: float

    def __post_init__(self) -> None:
        _require_positive("rate_rps", self.rate_rps)

    def rate_at(self, t_s: float) -> float:
        return self.rate_rps

    def next_arrival(self, t_s: float, rng: RngStream) -> float:
        return t_s - math.log(1.0 - float(rng.random())) / self.rate_rps

    def scaled(self, factor: float) -> "PoissonArrivals":
        _require_positive("factor", factor)
        return replace(self, rate_rps=self.rate_rps * factor)


class _ThinnedArrivals(ArrivalProcess):
    """Inhomogeneous Poisson sampling via thinning at the peak rate."""

    def peak_rate(self) -> float:
        raise NotImplementedError

    def next_arrival(self, t_s: float, rng: RngStream) -> float:
        peak = self.peak_rate()
        t = t_s
        while True:
            t -= math.log(1.0 - float(rng.random())) / peak
            if float(rng.random()) * peak < self.rate_at(t):
                return t


@dataclass(frozen=True)
class DiurnalArrivals(_ThinnedArrivals):
    """Sinusoidal day/night cycle around a base rate.

    ``rate(t) = base * (1 + amplitude * sin(2*pi * t / period))`` —
    the trace starts on the rising edge of the "day".
    """

    base_rate_rps: float
    amplitude: float = 0.5
    period_s: float = 1.0

    def __post_init__(self) -> None:
        _require_positive("base_rate_rps", self.base_rate_rps)
        _require_positive("period_s", self.period_s)
        if not 0.0 <= self.amplitude < 1.0:
            raise ConfigError(
                f"amplitude must be in [0, 1), got {self.amplitude}"
            )

    def rate_at(self, t_s: float) -> float:
        phase = 2.0 * math.pi * t_s / self.period_s
        return self.base_rate_rps * (1.0 + self.amplitude * math.sin(phase))

    def peak_rate(self) -> float:
        return self.base_rate_rps * (1.0 + self.amplitude)

    def mean_rate(self) -> float:
        return self.base_rate_rps

    def scaled(self, factor: float) -> "DiurnalArrivals":
        _require_positive("factor", factor)
        return replace(self, base_rate_rps=self.base_rate_rps * factor)


@dataclass(frozen=True)
class BurstyArrivals(_ThinnedArrivals):
    """Square-wave bursts: the first ``burst_fraction`` of every period
    runs at ``base * burst_multiplier``, the rest at ``base``."""

    base_rate_rps: float
    burst_multiplier: float = 4.0
    burst_fraction: float = 0.25
    period_s: float = 1.0

    def __post_init__(self) -> None:
        _require_positive("base_rate_rps", self.base_rate_rps)
        _require_positive("period_s", self.period_s)
        if self.burst_multiplier < 1.0:
            raise ConfigError(
                f"burst_multiplier must be >= 1, got {self.burst_multiplier}"
            )
        if not 0.0 < self.burst_fraction < 1.0:
            raise ConfigError(
                f"burst_fraction must be in (0, 1), got {self.burst_fraction}"
            )

    def rate_at(self, t_s: float) -> float:
        in_burst = (t_s % self.period_s) < self.burst_fraction * self.period_s
        return self.base_rate_rps * (self.burst_multiplier if in_burst else 1.0)

    def peak_rate(self) -> float:
        return self.base_rate_rps * self.burst_multiplier

    def mean_rate(self) -> float:
        burst = self.burst_fraction * self.burst_multiplier
        return self.base_rate_rps * (burst + (1.0 - self.burst_fraction))

    def scaled(self, factor: float) -> "BurstyArrivals":
        _require_positive("factor", factor)
        return replace(self, base_rate_rps=self.base_rate_rps * factor)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant class: traffic share, request shape, and SLO priority.

    ``system_prompt_len > 0`` prepends that many tokens to every prompt
    and marks them as the shared prefix ``sys:<name>`` — the KV cache
    then keeps one copy of those pages for the whole tenant.
    """

    name: str
    weight: float = 1.0
    priority: int = 0
    prompt_range: tuple[int, int] = (32, 160)
    max_new_range: tuple[int, int] = (16, 64)
    pattern: str = "causal"
    pattern_overrides: tuple[tuple[str, object], ...] = ()
    system_prompt_len: int = 0
    #: Distinct LoRA adapters this tenant's requests draw from (uniformly);
    #: 0 means every request runs the base model.  Adapter ids are
    #: ``"<tenant>-a<i>"`` so two tenants never share an adapter.
    adapter_pool: int = 0

    def __post_init__(self) -> None:
        _require_positive("weight", self.weight)
        for what, (lo, hi) in (
            ("prompt", self.prompt_range),
            ("max_new", self.max_new_range),
        ):
            if not (1 <= lo <= hi):
                raise ConfigError(f"invalid {what}_range ({lo}, {hi})")
        if self.system_prompt_len < 0:
            raise ConfigError(
                f"system_prompt_len must be >= 0, got {self.system_prompt_len}"
            )
        if self.adapter_pool < 0:
            raise ConfigError(
                f"adapter_pool must be >= 0, got {self.adapter_pool}"
            )
        if self.pattern not in PATTERN_REGISTRY:
            raise ConfigError(
                f"unknown mask pattern {self.pattern!r}; "
                f"known: {sorted(PATTERN_REGISTRY)}"
            )

    @property
    def prefix_id(self) -> str:
        return f"sys:{self.name}" if self.system_prompt_len > 0 else ""


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete traffic description: arrival process x tenant mix.

    ``generate`` draws the trace deterministically from the given rng.
    Draw order (pinned by the byte-compat goldens): one ``"arrivals"``
    fork consumed by the arrival process, one ``"lengths"`` fork consumed
    two draws per request, and — only when there is more than one tenant —
    a ``"tenants"`` fork consumed one draw per request, so single-tenant
    workloads replay legacy ``synthetic_trace`` streams exactly.
    """

    n_requests: int
    arrivals: ArrivalProcess
    tenants: tuple[TenantSpec, ...] = (TenantSpec(name=""),)
    name: str = ""

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ConfigError(
                f"n_requests must be >= 1, got {self.n_requests}"
            )
        if not isinstance(self.arrivals, ArrivalProcess):
            raise ConfigError(
                "arrivals must be an ArrivalProcess, got "
                f"{type(self.arrivals).__name__}"
            )
        if not self.tenants:
            raise ConfigError("tenants must be non-empty")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names: {names}")

    def scaled(self, factor: float) -> "WorkloadSpec":
        """The same mix under ``factor``x traffic."""
        return replace(self, arrivals=self.arrivals.scaled(factor))

    def _pick_tenant(self, u: float) -> TenantSpec:
        total = sum(t.weight for t in self.tenants)
        acc = 0.0
        for t in self.tenants:
            acc += t.weight / total
            if u < acc:
                return t
        return self.tenants[-1]

    def generate(self, rng: RngStream) -> list[Request]:
        """Draw the request trace (pure function of ``(self, rng)``)."""
        arrivals_rng = rng.fork("arrivals")
        lengths_rng = rng.fork("lengths")
        tenants_rng = rng.fork("tenants") if len(self.tenants) > 1 else None
        # The adapter stream exists only when some tenant declares a pool,
        # and draws only for requests of such tenants — so adapter-free
        # workloads (and adapter-free tenants inside mixed workloads)
        # consume exactly the legacy draw sequence, byte for byte.
        adapters_rng = (
            rng.fork("adapters")
            if any(t.adapter_pool > 0 for t in self.tenants)
            else None
        )

        clock = 0.0
        trace: list[Request] = []
        for i in range(self.n_requests):
            clock = self.arrivals.next_arrival(clock, arrivals_rng)
            if tenants_rng is None:
                tenant = self.tenants[0]
            else:
                tenant = self._pick_tenant(float(tenants_rng.random()))
            lo, hi = tenant.prompt_range
            prompt = tenant.system_prompt_len + int(
                lengths_rng.integers(lo, hi + 1)
            )
            lo, hi = tenant.max_new_range
            max_new = int(lengths_rng.integers(lo, hi + 1))
            adapter = ""
            if adapters_rng is not None and tenant.adapter_pool > 0:
                slot = int(adapters_rng.integers(0, tenant.adapter_pool))
                adapter = f"{tenant.name or 'lora'}-a{slot}"
            trace.append(
                Request(
                    req_id=i,
                    arrival_s=clock,
                    prompt_len=prompt,
                    max_new_tokens=max_new,
                    pattern=tenant.pattern,
                    pattern_overrides=tenant.pattern_overrides,
                    tenant=tenant.name,
                    priority=tenant.priority,
                    prefix_id=tenant.prefix_id,
                    prefix_len=tenant.system_prompt_len,
                    adapter=adapter,
                )
            )
        return trace


def assign_adapters(
    trace: list[Request], n_adapters: int, prefix: str = "lora"
) -> list[Request]:
    """Round-robin ``n_adapters`` adapter ids over an existing trace.

    The deterministic (RNG-free) way to put adapters on a trace that was
    generated without them — the CLI's ``--lora-adapters`` path.  Ids
    cycle by trace position: ``prefix-a0, prefix-a1, ...``.

    >>> from repro.core.rng import RngStream
    >>> from repro.serving.request import synthetic_trace
    >>> t = assign_adapters(synthetic_trace(3, 50.0, RngStream(1)), 2)
    >>> [r.adapter for r in t]
    ['lora-a0', 'lora-a1', 'lora-a0']
    """
    if n_adapters < 1:
        raise ConfigError(f"n_adapters must be >= 1, got {n_adapters}")
    return [
        replace(r, adapter=f"{prefix}-a{i % n_adapters}")
        for i, r in enumerate(trace)
    ]


# --------------------------------------------------------------- scenarios

#: The default multi-tenant mix: interactive chat traffic with a shared
#: system prompt, latency-tolerant batch jobs, and tool-using agents with
#: a longer shared scaffold prompt.
DEFAULT_TENANTS = (
    TenantSpec(
        name="chat",
        weight=0.6,
        priority=2,
        prompt_range=(32, 128),
        max_new_range=(16, 64),
        system_prompt_len=64,
    ),
    TenantSpec(
        name="batch",
        weight=0.3,
        priority=0,
        prompt_range=(64, 224),
        max_new_range=(32, 96),
    ),
    TenantSpec(
        name="agent",
        weight=0.1,
        priority=1,
        prompt_range=(48, 160),
        max_new_range=(16, 48),
        system_prompt_len=96,
    ),
)

SCENARIOS = ("steady", "diurnal", "bursty")


def make_scenario(
    name: str,
    n_requests: int = 64,
    rate_rps: float = 2000.0,
    tenants: tuple[TenantSpec, ...] = DEFAULT_TENANTS,
) -> WorkloadSpec:
    """A named preset from the fleet scenario matrix.

    The diurnal/bursty periods are tied to the expected trace span
    (``n_requests / rate``) so every trace sees a few full cycles
    regardless of scale.
    """
    if name not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
        )
    _require_positive("rate_rps", rate_rps)
    span_s = n_requests / rate_rps
    if name == "steady":
        arrivals: ArrivalProcess = PoissonArrivals(rate_rps)
    elif name == "diurnal":
        arrivals = DiurnalArrivals(
            rate_rps, amplitude=0.6, period_s=span_s / 3.0
        )
    else:
        arrivals = BurstyArrivals(
            rate_rps,
            burst_multiplier=4.0,
            burst_fraction=0.25,
            period_s=span_s / 3.0,
        )
    return WorkloadSpec(
        n_requests=n_requests, arrivals=arrivals, tenants=tenants, name=name
    )
