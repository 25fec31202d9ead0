"""The codegen template registry.

A *template* is a named, versioned specializer: given one attention problem
(mask, geometry, block parameters) it renders Python source with every
mask-derived decision baked in, plus the runtime constant arrays (gather
indices, bias slabs, row lists) the source references as ``consts[i]``.

The ``version`` is part of every codegen :class:`repro.plan.PlanKey` (see
:func:`repro.codegen.backend.codegen_plan_key`): bumping it when a
template's emission changes invalidates every previously cached module —
on disk and in memory — instead of silently executing stale code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.core.errors import ConfigError


class GroupRecord(NamedTuple):
    """One emitted group's lowering decision, replayed as kernel counters.

    ``path`` names the lowering (``dense``/``banded``/``gather`` blockwise,
    ``dense_range``/``gather`` rowwise).  ``chunk`` is the chunk size of
    the group's loop — over the bucket's ``rows`` when it is a row bucket
    (``rows > 0``), else over batch*heads — and 0 when the group runs as
    one call.  ``cap`` labels capacity buckets; ``lanes`` counts the K/V
    vectors the group gathers per batch*head (0 when it gathers nothing).
    """

    path: str
    cap: int = 0
    rows: int = 0
    chunk: int = 0
    lanes: int = 0


@dataclass
class GeneratedSource:
    """One rendered specialization: module text + its runtime constants.

    ``source`` is self-contained Python defining ``run(q, k, v, consts)``;
    ``consts`` is the positional constant pool that function indexes (kept
    out of the text so modules stay small and byte-stable on disk — the
    pool is rebuilt deterministically at bind time).  ``counters`` holds
    one :class:`GroupRecord` per emitted group, in emission order.
    """

    template: str
    version: int
    source: str
    consts: list[np.ndarray] = field(default_factory=list)
    counters: list[GroupRecord] = field(default_factory=list)


@dataclass(frozen=True)
class Template:
    """A registered specializer with an emission version."""

    name: str
    version: int
    specialize: Callable[..., GeneratedSource]


_REGISTRY: dict[str, Template] = {}


def register_template(
    name: str, version: int, specialize: Callable[..., GeneratedSource]
) -> Template:
    """Register (or replace) a template; returns the registry entry."""
    tmpl = Template(name=name, version=int(version), specialize=specialize)
    _REGISTRY[name] = tmpl
    return tmpl


def get_template(name: str) -> Template:
    tmpl = _REGISTRY.get(name)
    if tmpl is None:
        raise ConfigError(
            f"unknown codegen template {name!r}; known: {sorted(_REGISTRY)}"
        )
    return tmpl


def template_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def module_header(
    template: str, version: int, digest: str, describe: dict[str, Any]
) -> list[str]:
    """The provenance comment block every generated module starts with.

    The disk cache verifies content by hash, but a human inspecting an
    emitted file should see at a glance what it specializes and which
    template emission produced it (``docs/codegen.md`` shows how).
    """
    desc = ", ".join(f"{k}={v}" for k, v in describe.items())
    return [
        f"# generated by repro.codegen template={template} v{version}",
        f"# key={digest}",
        f"# {desc}",
    ]
