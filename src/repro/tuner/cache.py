"""Performance cache and tuning-cost accounting.

Tuning cost on real hardware is compile time plus measurement runs; here
both are *simulated* deterministically: compiling an unseen (template,
params) binary charges ``compile_s``, measuring charges ``runs`` x the
device-model kernel time (capped per candidate).  The cache guarantees
"the same parameter setting in each fusion scheme will not be executed
repeatedly" (paper §4.4) — a hit charges nothing.

:class:`PerformanceCache` is the tuners' measurement cache: STOF's
:class:`~repro.tuner.engine.TwoStageEngine` and the baseline tuners price
every candidate through :meth:`PerformanceCache.evaluate`.  It keeps its
measurements in the plan layer, a :class:`repro.plan.PlanCache` under
``kind="tuner-measure"`` keys (the segment id in the salt, ``params_key``
as the key's params), and adds what tuning needs on top: simulated
tuning-cost accounting, cached launch failures, ``best_for`` and the v1
JSON format of ``save`` / ``load``.  ``best_for`` reads the plan cache's
per-salt index of tuner keys, so its cost follows one segment's settings,
not the whole cache, and it breaks equal times by content.  A caller
that measures the same settings many times derives each :class:`Setting`
(params plus key) once and prices it with :meth:`PerformanceCache.evaluate_key`.

The cache can be persisted to JSON (:meth:`PerformanceCache.save` /
:meth:`PerformanceCache.load`) so a later session warm-starts from prior
tuning — a natural extension of the paper's caching mechanism — and can
be disabled entirely (``enabled=False``) to quantify its contribution
(see ``benchmarks/bench_ablation_cache_sparsity.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Hashable, Mapping

from repro.core.errors import ConfigError
from repro.obs.metrics import current_metrics
from repro.plan import PlanCache, PlanKey
from repro.plan import params_key as params_key  # noqa: F401  (re-export)

#: Plan-cache namespace for tuner measurements.
TUNER_KIND = "tuner-measure"

_MISSING = object()


def _segment_id(segment_id: Hashable) -> str:
    """Segment ids are normalized through ``repr`` so they survive JSON."""
    return segment_id if isinstance(segment_id, str) else repr(segment_id)


def measurement_key(segment_id: Hashable, params: Mapping[str, Any]) -> PlanKey:
    """The plan-cache key of one measurement of ``params`` on a segment."""
    return PlanKey(
        kind=TUNER_KIND, salt=_segment_id(segment_id), params=params_key(params)
    )


class Setting:
    """A parameter setting of a segment and its measurement key.

    The key is derived on first use and kept, so a memoized setting pays
    for its ``params_key`` once however often it is measured, and one
    that is never measured pays nothing.  ``params`` is a read-only view:
    one setting can be handed to every caller without sharing mutable
    state.
    """

    __slots__ = ("params", "segment_id", "_key")

    def __init__(self, segment_id: Hashable, params: dict[str, Any]) -> None:
        self.params: Mapping[str, Any] = MappingProxyType(params)
        self.segment_id = segment_id
        self._key: PlanKey | None = None

    @property
    def key(self) -> PlanKey:
        if self._key is None:
            self._key = measurement_key(self.segment_id, self.params)
        return self._key


@dataclass
class EvalCostModel:
    """What one tuning evaluation costs, in simulated seconds.

    Calibration targets Table 4's magnitudes: compilation dominates at
    small inputs (every candidate pays it once), measurement repetitions
    dominate at large inputs (kernel time grows with scale), which is what
    makes every tuner's cost grow with input scale.
    """

    compile_s: float = 0.15       # JIT template compilation (Triton-like)
    runs: int = 400               # warm-up + measurement iterations
    measure_budget_s: float = 8.0 # per-candidate measurement cap (slow
                                  # kernels get fewer repetitions)

    def cost_of(self, kernel_time_s: float) -> float:
        return self.compile_s + min(
            self.runs * kernel_time_s, self.measure_budget_s
        )


class PerformanceCache:
    """Measured kernel times keyed by (segment-identity, params).

    ``evaluate`` prices an entry on first sight and returns the cached time
    thereafter.  ``tuning_time_s`` accumulates the simulated cost of every
    *miss*; hits are free.  Segment identities are normalized through
    ``repr`` so they survive JSON persistence.

    Storage is a :class:`repro.plan.PlanCache` (unbounded by default); pass
    ``plans=`` to share one cache across layers and read the tuner's
    hit/miss behavior out of ``plans.stats()["kinds"]["tuner-measure"]``.
    """

    def __init__(
        self,
        cost_model: EvalCostModel | None = None,
        enabled: bool = True,
        plans: PlanCache | None = None,
    ) -> None:
        self.cost_model = cost_model or EvalCostModel()
        self.enabled = enabled
        self.plans = plans if plans is not None else PlanCache(max_entries=None)
        self.plans.index_salts(TUNER_KIND)
        self.hits = 0
        self.misses = 0
        self.failures = 0
        self.tuning_time_s = 0.0

    @property
    def entries(self) -> dict[tuple[str, tuple], float]:
        """The historical ``{(segment_id, params_key): seconds}`` view."""
        return {
            (key.salt, key.params): value
            for key, value in self.plans.items()
            if key.kind == TUNER_KIND
        }

    def evaluate(
        self,
        segment_id: Hashable,
        params: dict[str, Any],
        measure: Callable[[], float],
    ) -> float | None:
        """Return the kernel time for (segment, params), pricing a miss.

        ``measure`` runs the device model; if it raises (infeasible launch
        configuration) the failure is cached as ``inf`` — a real tuner also
        remembers configs that failed to launch — and ``None`` is returned.
        """
        return self.evaluate_key(measurement_key(segment_id, params), measure)

    def evaluate_key(
        self, key: PlanKey, measure: Callable[[], float]
    ) -> float | None:
        """:meth:`evaluate` under a key already derived (``Setting.key``)."""
        m = current_metrics()
        if self.enabled:
            cached = self.plans.get(key, _MISSING)
            if cached is not _MISSING:
                self.hits += 1
                if m.enabled:
                    m.counter("tuner.evaluations", outcome="hit").inc()
                return None if cached == float("inf") else cached
        self.misses += 1
        try:
            t = float(measure())
        except Exception:
            self.failures += 1
            if self.enabled:
                self.plans.put(key, float("inf"))
            # A failed compile still costs compile time.
            self.tuning_time_s += self.cost_model.compile_s
            if m.enabled:
                m.counter("tuner.evaluations", outcome="failure").inc()
            return None
        if self.enabled:
            self.plans.put(key, t)
        self.tuning_time_s += self.cost_model.cost_of(t)
        if m.enabled:
            m.counter("tuner.evaluations", outcome="miss").inc()
            m.counter("tuner.simulated_cost_s").inc(self.cost_model.cost_of(t))
        return t

    def best_for(self, segment_id: Hashable) -> tuple[float, tuple] | None:
        """The smallest (time, params key) over a segment's cached settings.

        Equal times go to the smaller params key: the answer depends on the
        cache's contents, not on the order they were put or hit.  Only the
        segment's own entries are read (the plan cache's salt index).
        """
        best: tuple[float, tuple] | None = None
        for key, t in self.plans.salt_items(TUNER_KIND, _segment_id(segment_id)):
            if t == float("inf"):
                continue
            if best is None or (t, key.params) < best:
                best = (t, key.params)
        return best

    @property
    def evaluations(self) -> int:
        return self.hits + self.misses

    # ------------------------------------------------------------ persistence

    def save(self, path: str | Path) -> None:
        """Persist all cached measurements to JSON (warm-start later runs)."""
        payload = {
            "version": 1,
            "entries": [
                [sid, [list(kv) for kv in pkey], t if t != float("inf") else None]
                for (sid, pkey), t in self.entries.items()
            ],
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(
        cls,
        path: str | Path,
        cost_model: EvalCostModel | None = None,
        plans: PlanCache | None = None,
    ) -> "PerformanceCache":
        """Rebuild a cache from :meth:`save` output.

        Any unreadable file, wrong version or malformed entry raises
        :class:`ConfigError` naming the file, before anything is cached.
        """
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load performance cache from {path}: {exc}")
        version = payload.get("version") if isinstance(payload, dict) else None
        if version != 1:
            raise ConfigError(f"unsupported cache version {version!r} in {path}")
        try:
            rows = [
                (
                    PlanKey(
                        kind=TUNER_KIND,
                        salt=sid,
                        params=tuple(tuple(kv) for kv in pkey_list),
                    ),
                    float("inf") if t is None else float(t),
                )
                for sid, pkey_list, t in payload["entries"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"malformed performance cache entries in {path}: {exc!r}"
            ) from exc
        cache = cls(cost_model=cost_model or EvalCostModel(), plans=plans)
        for key, t in rows:
            cache.plans.put(key, t)
        return cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PerformanceCache(entries={len(self.entries)}, hits={self.hits}, "
            f"misses={self.misses}, tuning={self.tuning_time_s:.1f}s)"
        )
