"""Fusion-expansion rules: expand, seize, compete (paper §4.4).

A fusion scheme is a tuple of segment lengths over the operator sequence.
The three rule kinds generate boundary moves:

* **expand** — merge two adjacent segments into one, "without disrupting
  the structure of other segments".
* **seize** — a segment containing at least one CI operator preempts one
  operator from an adjacent segment consisting of only MI operators (the
  boundary shifts by one).
* **compete** — when two segments could take the same individual operator,
  the segment with exactly one CI operator is extended first; implemented
  as the move-ordering policy of :func:`legal_moves`.

All moves respect the paper's constraint of at most two CI operators per
segment.  Template feasibility (can the merged run actually compile?) is
checked later by the converter — a move that produces an untemplatable
segment is discarded by the search engine, mirroring a failed compilation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.errors import TuningError
from repro.ops.base import OpCategory

#: The paper's hard limit on CI operators per fused segment.
MAX_CI_PER_SEGMENT = 2

Scheme = tuple[int, ...]


@dataclass(frozen=True)
class FusionMove:
    """One boundary move on a scheme.

    ``kind`` is ``"expand"`` or ``"seize"``; ``segment`` indexes the segment
    being grown; ``direction`` is ``+1`` (grow rightward) or ``-1``.
    """

    kind: str
    segment: int
    direction: int

    def describe(self) -> str:
        arrow = "->" if self.direction > 0 else "<-"
        return f"{self.kind}(S{self.segment} {arrow})"


def _segment_bounds(scheme: Scheme) -> list[tuple[int, int]]:
    """[start, end) op indices of each segment."""
    bounds = []
    pos = 0
    for l in scheme:
        bounds.append((pos, pos + l))
        pos += l
    return bounds


def _ci_count(categories: Sequence[OpCategory], start: int, end: int) -> int:
    return sum(1 for c in categories[start:end] if c is OpCategory.CI)


def count_ci(scheme: Scheme, categories: Sequence[OpCategory]) -> list[int]:
    """CI-operator count per segment."""
    if sum(scheme) != len(categories):
        raise TuningError(
            f"scheme {scheme} does not cover {len(categories)} operators"
        )
    return [_ci_count(categories, s, e) for s, e in _segment_bounds(scheme)]


def apply_move(scheme: Scheme, move: FusionMove) -> Scheme:
    """Produce the new scheme after a move (pure function)."""
    n = len(scheme)
    i = move.segment
    if not (0 <= i < n):
        raise TuningError(f"move {move} references segment {i} of {n}")
    lengths = list(scheme)
    if move.kind == "expand":
        j = i + move.direction
        if not (0 <= j < n):
            raise TuningError(f"expand {move} crosses scheme bounds")
        a, b = sorted((i, j))
        lengths[a] = lengths[a] + lengths[b]
        del lengths[b]
        return tuple(lengths)
    if move.kind == "seize":
        j = i + move.direction
        if not (0 <= j < n):
            raise TuningError(f"seize {move} crosses scheme bounds")
        if lengths[j] <= 1:
            raise TuningError(
                f"seize {move} would empty segment {j}; use expand instead"
            )
        lengths[i] += 1
        lengths[j] -= 1
        return tuple(lengths)
    raise TuningError(f"unknown move kind {move.kind!r}")


def legal_moves(
    scheme: Scheme, categories: Sequence[OpCategory]
) -> list[FusionMove]:
    """All moves respecting the CI limit, compete-ordered.

    Compete rule: moves growing a segment with exactly one CI operator sort
    first, then zero-CI growers, then two-CI (which can only absorb MI).
    """
    cis = count_ci(scheme, categories)
    n = len(scheme)
    moves: list[FusionMove] = []

    for i in range(n):
        for direction in (+1, -1):
            j = i + direction
            if not (0 <= j < n):
                continue
            # expand: merge i with neighbour j.
            if cis[i] + cis[j] <= MAX_CI_PER_SEGMENT:
                # Deduplicate: represent each merge once, as the left segment
                # growing right.
                if direction == +1:
                    moves.append(FusionMove("expand", i, +1))
            # seize: i must hold a CI op, j must be MI-only and keep >= 1 op.
            if cis[i] >= 1 and cis[j] == 0 and scheme[j] > 1:
                # The op actually taken sits at j's boundary adjacent to i;
                # it is MI by cis[j] == 0, so the CI limit holds.
                moves.append(FusionMove("seize", i, direction))

    def compete_priority(move: FusionMove) -> tuple[int, int, int]:
        ci = cis[move.segment]
        # exactly-one-CI segments extend first (paper's compete rule),
        # then MI-only, then two-CI segments.
        rank = {1: 0, 0: 1, 2: 2}.get(ci, 3)
        return (rank, move.segment, move.direction)

    moves.sort(key=compete_priority)
    return moves
