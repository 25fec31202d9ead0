"""Symbolic size variables and guarded plan families.

A concrete :class:`~repro.plan.key.PlanKey` pins every dimension to a
value, so traffic with arbitrary request lengths would compile one plan
per shape.  A :class:`SymbolicPlanKey` names the dimensions left free
(``dims``), keeps every other field in a concrete ``base`` key, and
carries a :class:`GuardSet` — the predicates under which the compiled
artifact is valid.  Lookup is "scan the base's families, first whose
guards admit the shape wins" (``PlanCache.find_family``); a probe no
family admits is a *miss* that keys a new sibling for its own region,
never a silent reuse.

Guard grammar (``docs/symbolic_shapes.md``), one guard per origin:

* :class:`BoundGuard` — ``lo <= v <= hi`` (either side open), emitted
  by codegen's :class:`GuardRecorder`
* :class:`BucketGuard` — ``v // width == index``, the serving engine's
  decode-row and prefill-chunk families

Everything is a frozen value type: guard sets order canonically, hash by
value, digest stably across processes, and round-trip through JSON (the
plan-cache schema v2 and the codegen sidecars persist them).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Any, Iterable, Mapping

from repro.core.errors import ConfigError
from repro.plan.key import PlanKey


# ------------------------------------------------------------------- guards


@dataclass(frozen=True)
class BoundGuard:
    """``lo <= value <= hi`` — inclusive, either side may be open (None)."""

    var: str
    lo: int | None = None
    hi: int | None = None

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ConfigError(f"empty bound: lo={self.lo} > hi={self.hi}")

    def check(self, value: int) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def canonical(self) -> tuple:
        return ("bound", self.var, self.lo, self.hi)

    def describe(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"{lo} <= {self.var} <= {hi}"


@dataclass(frozen=True)
class BucketGuard:
    """``value // width == index`` — the bucketed-range guard."""

    var: str
    width: int
    index: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ConfigError(f"width must be >= 1, got {self.width}")
        if self.index < 0:
            raise ConfigError(f"index must be >= 0, got {self.index}")

    def check(self, value: int) -> bool:
        return value // self.width == self.index

    def canonical(self) -> tuple:
        return ("bucket", self.var, self.width, self.index)

    def describe(self) -> str:
        return f"{self.var} // {self.width} == {self.index}"


Guard = BoundGuard | BucketGuard

#: JSON tag -> guard class, for persistence round-trips.
_GUARD_TYPES: dict[str, type] = {
    "bound": BoundGuard,
    "bucket": BucketGuard,
}


def guard_to_dict(guard: Guard) -> dict[str, Any]:
    tag = guard.canonical()[0]
    payload = {f.name: getattr(guard, f.name) for f in fields(guard)}
    payload["t"] = tag
    return payload


def guard_from_dict(payload: Mapping[str, Any]) -> Guard:
    data = dict(payload)
    tag = data.pop("t", None)
    cls = _GUARD_TYPES.get(tag)
    if cls is None:
        raise ConfigError(f"unknown guard type {tag!r}; known: {sorted(_GUARD_TYPES)}")
    return cls(**data)


# ---------------------------------------------------------------- guard sets


class GuardSet:
    """An immutable conjunction of guards with a canonical digest.

    Construction deduplicates and orders guards canonically, so two sets
    built from the same predicates in any order are equal, hash equal, and
    digest equal.  ``check`` is the hot-path admission test: every guard
    must hold and every guarded variable must be present in the shape.
    """

    __slots__ = ("guards", "_digest", "_hash")

    def __init__(self, guards: Iterable[Guard] = ()) -> None:
        uniq = sorted(set(guards), key=lambda g: repr(g.canonical()))
        object.__setattr__(self, "guards", tuple(uniq))
        object.__setattr__(self, "_digest", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("GuardSet is immutable")

    # ------------------------------------------------------------- semantics

    def check(self, shape: Mapping[str, int]) -> bool:
        """Whether ``shape`` satisfies every guard (missing vars fail)."""
        for g in self.guards:
            value = shape.get(g.var)
            if value is None or not g.check(value):
                return False
        return True

    # -------------------------------------------------------------- identity

    def canonical(self) -> tuple:
        return tuple(g.canonical() for g in self.guards)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GuardSet):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.canonical())
            object.__setattr__(self, "_hash", h)
        return h

    def __len__(self) -> int:
        return len(self.guards)

    def __iter__(self):
        return iter(self.guards)

    def __repr__(self) -> str:
        return f"GuardSet({self.describe()!r})"

    @property
    def digest(self) -> str:
        """Stable cross-process content hash of the canonical guard list."""
        d = self._digest
        if d is None:
            payload = json.dumps(self.to_payload(), sort_keys=True)
            d = hashlib.sha256(payload.encode()).hexdigest()[:20]
            object.__setattr__(self, "_digest", d)
        return d

    def describe(self) -> str:
        return " and ".join(g.describe() for g in self.guards) or "true"

    # ----------------------------------------------------------- persistence

    def to_payload(self) -> list[dict[str, Any]]:
        return [guard_to_dict(g) for g in self.guards]

    @classmethod
    def from_payload(cls, payload: Iterable[Mapping[str, Any]]) -> "GuardSet":
        return cls(guard_from_dict(p) for p in payload)


# ------------------------------------------------------------ symbolic keys


@dataclass(frozen=True, eq=False)
class SymbolicPlanKey:
    """A plan-family signature: base key + symbolic dims + guard set.

    ``base`` is a concrete :class:`PlanKey` that every shape of the
    family shares (its free dims hold no per-shape value); ``dims``
    names the free variables (``pos`` in serving, ``n_bh`` in codegen)
    and ``guards`` is the admission predicate over them.  ``(base,
    dims)`` is the family *signature* the cache scans; the guards
    distinguish siblings after splits.
    """

    base: PlanKey
    dims: tuple[str, ...] = ()
    guards: GuardSet = GuardSet()

    @property
    def kind(self) -> str:
        return self.base.kind

    @property
    def signature(self) -> tuple:
        return (self.base, self.dims)

    def __getattr__(self, name: str):
        # Concrete PlanKey fields (salt, params, pattern, ...) read
        # through to the base, so family keys drop into code that
        # inspects keys generically.  Internal names never delegate —
        # memoized _hash/_digest live in __dict__ and must miss cleanly.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.base, name)

    def admits(self, shape: Mapping[str, int]) -> bool:
        return self.guards.check(shape)

    def _tuple(self) -> tuple:
        return (self.base._tuple(), self.dims, self.guards.canonical())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolicPlanKey):
            return NotImplemented
        return self._tuple() == other._tuple()

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self._tuple())
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def digest(self) -> str:
        """Base digest with the guard digest folded in (content address)."""
        d = self.__dict__.get("_digest")
        if d is None:
            payload = json.dumps(
                {
                    "base": self.base.digest,
                    "dims": list(self.dims),
                    "guards": self.guards.to_payload(),
                },
                sort_keys=True,
            )
            d = hashlib.sha256(payload.encode()).hexdigest()
            object.__setattr__(self, "_digest", d)
        return d

    def to_dict(self) -> dict[str, Any]:
        return {
            "base": self.base.to_dict(),
            "dims": list(self.dims),
            "guards": self.guards.to_payload(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SymbolicPlanKey":
        return cls(
            base=PlanKey.from_dict(payload["base"]),
            dims=tuple(payload.get("dims", ())),
            guards=GuardSet.from_payload(payload.get("guards", ())),
        )


# ----------------------------------------------------------- guard recording


class GuardRecorder:
    """Record the guards a specialization's decisions imply.

    Emission code asks shape questions through the recorder instead of
    comparing raw integers (``rec.le("n_bh", chunk)`` instead of
    ``n_bh <= chunk``); each answer appends the guard under which the
    answer — and therefore the emitted code — stays valid.  After
    emission, :meth:`guard_set` is the family's admission predicate: any
    shape it admits takes every branch identically and re-emits the
    byte-identical module.
    """

    def __init__(self, **shape: int) -> None:
        self.shape = {k: int(v) for k, v in shape.items()}
        self._guards: list[Guard] = []

    def le(self, var: str, bound: int) -> bool:
        """``var <= bound``, recording the half-line that keeps it true."""
        bound = int(bound)
        if self.shape[var] <= bound:
            self._guards.append(BoundGuard(var, hi=bound))
            return True
        self._guards.append(BoundGuard(var, lo=bound + 1))
        return False

    def floordiv(self, var: str, numerator: int, coeff: int, min_value: int = 1) -> int:
        """``max(min_value, numerator // (coeff * var))`` as a baked constant.

        Records the exact range of ``var`` over which the result is the
        value returned here, so a family member never sees a different
        baked chunk size than the one emitted.
        """
        numerator, coeff = int(numerator), int(coeff)
        if coeff < 1:
            raise ConfigError(f"coeff must be >= 1, got {coeff}")
        v = self.shape[var]
        q = numerator // (coeff * v)
        if q <= min_value:
            # Clamped region: every v' with numerator//(coeff*v') <= min_value.
            lo = numerator // (coeff * (min_value + 1)) + 1
            self._guards.append(BoundGuard(var, lo=lo))
            return min_value
        lo = numerator // (coeff * (q + 1)) + 1
        hi = numerator // (coeff * q)
        self._guards.append(BoundGuard(var, lo=lo, hi=hi))
        return q

    def guard_set(self) -> GuardSet:
        gs = GuardSet(self._guards)
        assert gs.check(self.shape), "recorded guards must admit the recorded shape"
        return gs
