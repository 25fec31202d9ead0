"""Bounded LRU plan cache with per-kind statistics and JSON persistence.

The cache is content-addressed: entries are keyed by :class:`PlanKey`
value equality, so a hit is an *exact* replay of a prior decision, never
a heuristic match.  Values are usually :class:`CompiledPlan` objects but
any JSON-representable planning artifact is accepted (the tuner stores
measured seconds, the serving engine stores per-row mask statistics) —
``save``/``load`` tag each value with its type so a warm start restores
them faithfully.

Keys may also be guarded :class:`~repro.plan.symbolic.SymbolicPlanKey`
families.  They live in the same LRU map (one family = one entry), and
the cache additionally maintains a *family index* keyed on the family
signature ``(base, dims)`` so a lookup with a fresh shape can scan the
candidate families whose guards admit it (``find_family``).  A caller
whose probe no family admits keys a new sibling for the probe's region
and stores it with ``put``; the cache counts that insertion as a split.

A kind registered with ``index_salts`` is also kept per salt, in the
order its keys joined the index (a hit moves none), so a site that reads
all of one salt's entries (the tuner's ``best_for``) scans that salt,
not the whole cache.
"""

from __future__ import annotations

import json
import math
import os
from collections import OrderedDict
from typing import Any, Callable, Iterator, Mapping

from repro.core.errors import ConfigError
from repro.obs.metrics import current_metrics
from repro.obs.tracer import current_tracer
from repro.plan.compiled import CompiledPlan
from repro.plan.key import PlanKey, _tuplify
from repro.plan.symbolic import SymbolicPlanKey

_FORMAT_VERSION = 2
_LOADABLE_VERSIONS = (1, 2)


class PlanCache:
    """LRU map from :class:`PlanKey` to a compiled planning artifact.

    ``max_entries=None`` means unbounded (the tuner's historical
    behavior); otherwise the least-recently-*used* entry is evicted when
    a ``put`` overflows the bound.  Hits, misses, and evictions are
    counted globally and per ``key.kind`` so each layer's cache behavior
    (mha / runtime / tuner / serving) is separately observable.
    """

    def __init__(self, max_entries: int | None = 1024) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None for unbounded)")
        self.max_entries = max_entries
        self._entries: OrderedDict[PlanKey, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._kind_hits: dict[str, int] = {}
        self._kind_misses: dict[str, int] = {}
        # Family index: (base PlanKey, dims) -> guarded siblings in
        # insertion order.  Structural (like _entries), not a statistic.
        self._families: dict[tuple, list[SymbolicPlanKey]] = {}
        self.guard_checks = 0
        self.splits = 0
        self._kind_guard_checks: dict[str, int] = {}
        self._kind_splits: dict[str, int] = {}
        # Salt index of the kinds passed to ``index_salts``: kind -> salt ->
        # {key: value} in insertion order.  Structural, like ``_families``;
        # empty (one falsy test per put) for every other cache.
        self._salts: dict[str, dict[str, dict[PlanKey, Any]]] = {}

    # ----------------------------------------------------------------- core

    def get(self, key: PlanKey, default: Any = None) -> Any:
        """Look up a plan, counting the hit/miss and refreshing recency."""
        value = self._entries.get(key, _MISS)
        if value is not _MISS:
            self.hits += 1
            self._kind_hits[key.kind] = self._kind_hits.get(key.kind, 0) + 1
            self._entries.move_to_end(key)
            m = current_metrics()
            if m.enabled:
                m.counter("plan_cache.lookups", kind=key.kind, outcome="hit").inc()
            return value
        self.misses += 1
        self._kind_misses[key.kind] = self._kind_misses.get(key.kind, 0) + 1
        m = current_metrics()
        if m.enabled:
            m.counter("plan_cache.lookups", kind=key.kind, outcome="miss").inc()
        return default

    def put(self, key: PlanKey, value: Any) -> Any:
        """Insert (or refresh) an entry, evicting the LRU tail if full."""
        if self._insert(key, value):
            # A second guard variant joining an existing family is a
            # *split* event: the prior siblings rejected a shape, so
            # planning keyed a new sibling for its region.
            self.splits += 1
            kind = key.kind
            self._kind_splits[kind] = self._kind_splits.get(kind, 0) + 1
            m = current_metrics()
            if m.enabled:
                m.counter("plan_cache.splits", kind=kind).inc()
        return value

    def _insert(self, key: PlanKey, value: Any) -> bool:
        """``put`` without the split accounting; True when ``key`` joins a
        family that already has members."""
        split = False
        if key in self._entries:
            self._entries.move_to_end(key)
        elif isinstance(key, SymbolicPlanKey):
            split = self._register_family(key)
        self._entries[key] = value
        if self._salts:
            self._index(key, value)
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                evicted_key, _ = self._entries.popitem(last=False)
                if isinstance(evicted_key, SymbolicPlanKey):
                    self._deregister_family(evicted_key)
                if self._salts:
                    self._unindex(evicted_key)
                self.evictions += 1
                m = current_metrics()
                if m.enabled:
                    m.counter("plan_cache.evictions", kind=evicted_key.kind).inc()
        return split

    def _index(self, key: PlanKey, value: Any) -> None:
        """Mirror a put into the salt index (a new key goes last)."""
        salts = self._salts.get(key.kind)
        if salts is not None:
            salts.setdefault(key.salt, {})[key] = value

    def _unindex(self, key: PlanKey) -> None:
        salts = self._salts.get(key.kind)
        if salts is not None:
            entries = salts[key.salt]
            del entries[key]
            if not entries:
                del salts[key.salt]

    def index_salts(self, kind: str) -> None:
        """Keep ``kind``'s entries indexed by salt (see ``salt_items``).

        Idempotent; entries already cached are indexed on the first call.
        """
        if kind in self._salts:
            return
        self._salts[kind] = {}
        for key, value in self._entries.items():
            if key.kind == kind:
                self._index(key, value)

    def salt_items(self, kind: str, salt: str) -> list[tuple[PlanKey, Any]]:
        """``(key, value)`` of ``kind``'s entries under ``salt``, in the
        order they joined the index (a hit or a re-put moves none).

        ``kind`` must have been registered with :meth:`index_salts`.
        """
        entries = self._salts[kind].get(salt)
        return list(entries.items()) if entries else []

    def _register_family(self, key: SymbolicPlanKey) -> bool:
        """Add ``key`` to its family; True when it joins siblings."""
        members = self._families.setdefault(key.signature, [])
        if key in members:
            return False
        members.append(key)
        return len(members) > 1

    def _deregister_family(self, key: SymbolicPlanKey) -> None:
        members = self._families.get(key.signature)
        if members is None:
            return
        try:
            members.remove(key)
        except ValueError:
            return
        if not members:
            del self._families[key.signature]

    def get_or_build(self, key: PlanKey, build: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building and storing on miss."""
        sentinel = _MISS
        value = self.get(key, sentinel)
        if value is not sentinel:
            return value
        tracer = current_tracer()
        if tracer.enabled:
            with tracer.span("plan.build", cat="plan", kind=key.kind):
                return self.put(key, build())
        return self.put(key, build())

    # --------------------------------------------------------------- families

    def find_family(
        self,
        base: PlanKey,
        dims: tuple[str, ...],
        shape: Mapping[str, int],
    ) -> SymbolicPlanKey | None:
        """The first cached family for ``(base, dims)`` admitting ``shape``.

        Scans siblings in insertion order, counting one guard check per
        candidate examined.  ``None`` means no family admits the shape:
        the caller keys a new sibling for the shape's region, and its
        ``put`` counts as a split.
        """
        members = self._families.get((base, dims))
        if not members:
            return None
        kind = base.kind
        checks = 0
        hit: SymbolicPlanKey | None = None
        for fam in members:
            checks += 1
            if fam.admits(shape):
                hit = fam
                break
        self.guard_checks += checks
        self._kind_guard_checks[kind] = (
            self._kind_guard_checks.get(kind, 0) + checks
        )
        return hit

    def peek(self, key: PlanKey, default: Any = None) -> Any:
        """Look up without touching recency or statistics."""
        return self._entries.get(key, default)

    def items(self) -> Iterator[tuple[PlanKey, Any]]:
        return iter(list(self._entries.items()))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: PlanKey) -> bool:
        return key in self._entries

    def clear(self) -> None:
        """Drop all entries (statistics are kept; see ``reset_stats``)."""
        self._entries.clear()
        self._families.clear()
        for salts in self._salts.values():
            salts.clear()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._kind_hits.clear()
        self._kind_misses.clear()
        self.guard_checks = 0
        self.splits = 0
        self._kind_guard_checks.clear()
        self._kind_splits.clear()

    # ------------------------------------------------------------ statistics

    def stats(self) -> dict[str, Any]:
        """Observable cache behavior, globally and per plan kind."""
        total = self.hits + self.misses
        kinds: dict[str, dict[str, Any]] = {}
        for kind in sorted(set(self._kind_hits) | set(self._kind_misses)):
            h = self._kind_hits.get(kind, 0)
            m = self._kind_misses.get(kind, 0)
            kinds[kind] = {
                "hits": h,
                "misses": m,
                "hit_rate": h / (h + m) if h + m else 0.0,
            }
        fam_kinds: dict[str, dict[str, int]] = {}

        def _fk(kind: str) -> dict[str, int]:
            return fam_kinds.setdefault(
                kind, {"families": 0, "guard_checks": 0, "splits": 0}
            )

        for (base, _dims), members in self._families.items():
            _fk(base.kind)["families"] += len(members)
        for kind, n in self._kind_guard_checks.items():
            _fk(kind)["guard_checks"] = n
        for kind, n in self._kind_splits.items():
            _fk(kind)["splits"] = n
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / total if total else 0.0,
            "kinds": kinds,
            "symbolic": {
                "families": sum(len(v) for v in self._families.values()),
                "guard_checks": self.guard_checks,
                "splits": self.splits,
                "kinds": {k: fam_kinds[k] for k in sorted(fam_kinds)},
            },
        }

    # ----------------------------------------------------------- persistence

    def save(self, path: str | os.PathLike) -> None:
        """Persist entries to JSON for a later warm start.

        Only the entries travel — statistics describe *this* process's
        behavior and are not serialized.  Values that cannot be encoded
        (e.g. plans holding live kernel objects are fine — the object is
        dropped; truly opaque values are skipped) do not poison the file.
        """
        entries = []
        families = []
        for key, value in self._entries.items():
            encoded = _encode_value(value)
            if encoded is None:
                continue
            if isinstance(key, SymbolicPlanKey):
                families.append({"key": key.to_dict(), "value": encoded})
            else:
                entries.append({"key": key.to_dict(), "value": encoded})
        payload: dict[str, Any] = {"version": _FORMAT_VERSION, "entries": entries}
        if families:
            payload["families"] = families
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)

    def load(self, path: str | os.PathLike) -> int:
        """Warm-start from a ``save`` file; returns the entry count loaded.

        Both schema versions load: v1 files carry concrete keys only; v2
        adds the ``families`` list of guarded symbolic keys.  An
        unreadable file, an unknown version or a malformed entry raises
        :class:`ConfigError` naming the file, before anything is cached.
        Warm-starting restores cache *structure* — splits, counted in
        ``stats()`` and in the ``plan_cache.splits`` metric, describe
        this process's planning events, so loaded families count none.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load plan cache from {path}: {exc}") from exc
        version = payload.get("version") if isinstance(payload, dict) else None
        if version not in _LOADABLE_VERSIONS:
            raise ConfigError(
                f"unsupported plan-cache format version {version!r} in {path}"
            )
        try:
            rows = [
                (PlanKey.from_dict(item["key"]), _decode_value(item["value"]))
                for item in payload.get("entries", ())
            ] + [
                (SymbolicPlanKey.from_dict(item["key"]), _decode_value(item["value"]))
                for item in payload.get("families", ())
            ]
        except (AttributeError, KeyError, TypeError, ValueError, ConfigError) as exc:
            raise ConfigError(
                f"malformed plan-cache entries in {path}: {exc!r}"
            ) from exc
        for key, value in rows:
            self._insert(key, value)
        return len(rows)


class _Miss:
    __slots__ = ()


_MISS = _Miss()


def _encode_value(value: Any) -> dict[str, Any] | None:
    """Tag a cache value for JSON so ``load`` restores the right type."""
    if isinstance(value, CompiledPlan):
        return {"t": "plan", "v": value.to_payload()}
    if isinstance(value, float) and math.isinf(value):
        return {"t": "inf", "v": "+" if value > 0 else "-"}
    if isinstance(value, (int, float)):
        return {"t": "num", "v": value}
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return None
    return {"t": "data", "v": value}


def _decode_value(encoded: dict[str, Any]) -> Any:
    tag = encoded.get("t")
    if tag == "plan":
        return CompiledPlan.from_payload(encoded["v"])
    if tag == "inf":
        return math.inf if encoded["v"] == "+" else -math.inf
    if tag == "num":
        return encoded["v"]
    return _tuplify(encoded.get("v"))
