"""Reward-based parameter sampling (paper §4.4, stage 2).

Each tuning iteration distributes a fixed total number of samples across
the segments of the (now frozen) fusion scheme.  The first iteration is
uniform; afterwards "when the highest overall gain is achieved when tuning
a segment, STOF rewards the segment with an increase in the number of
sampled settings in the next iteration".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.errors import TuningError
from repro.core.rng import RngStream

#: Multiplicative weight boost for the best-improving segment per round.
REWARD_FACTOR = 1.5

#: Settings kept per segment, in shuffled order.
MAX_CANDIDATES_PER_SEGMENT = 256


def shuffled_settings(
    space: dict[str, tuple],
    stream: RngStream,
    cap: int = MAX_CANDIDATES_PER_SEGMENT,
) -> list[dict[str, Any]]:
    """Every setting of ``space``, in ``stream``'s shuffled order, up to ``cap``."""
    keys = list(space)
    combos = [dict(zip(keys, vals)) for vals in itertools.product(*space.values())]
    stream.shuffle(combos)
    return combos[:cap]


@dataclass
class SamplerState:
    """Per-segment sampling bookkeeping."""

    unexplored: Sequence[Any]
    weight: float = 1.0
    best_time: float = float("inf")
    best_params: dict[str, Any] | None = None


class RewardSampler:
    """Allocates parameter samples across segments by reward weights."""

    def __init__(
        self,
        spaces: Sequence[dict[str, tuple]],
        rng: RngStream,
        max_candidates_per_segment: int = MAX_CANDIDATES_PER_SEGMENT,
        segment_keys: Sequence[str] | None = None,
    ):
        """``segment_keys`` (optional) name each segment *by content*; two
        identical segments (e.g. the same layer repeated 24 times) then draw
        identical candidate sequences, so a shared performance cache turns
        every repeat into hits."""
        stream = rng.fork("reward-sampler")
        candidates = []
        for i, space in enumerate(spaces):
            key = segment_keys[i] if segment_keys is not None else f"seg-{i}"
            candidates.append(
                shuffled_settings(
                    space, stream.fork(f"seg-{key}"), max_candidates_per_segment
                )
            )
        self._start(candidates)

    @classmethod
    def over(cls, candidates: Sequence[Sequence[Any]]) -> "RewardSampler":
        """A sampler over candidate lists enumerated by the caller.

        The lists are read, never mutated, so a caller may share them
        between samplers (the tuner replays one list per repeated layer).
        """
        sampler = cls.__new__(cls)
        sampler._start(candidates)
        return sampler

    def _start(self, candidates: Sequence[Sequence[Any]]) -> None:
        if not candidates:
            raise TuningError("reward sampler needs at least one segment")
        self.states = [SamplerState(unexplored=c) for c in candidates]

    # --------------------------------------------------------------- rounds

    def allocate(self, total_samples: int) -> list[int]:
        """Samples per segment this round, proportional to weights.

        Segments with nothing left to explore receive zero; their share is
        redistributed.  At least one sample goes to every segment that still
        has candidates (until the total runs out).
        """
        if total_samples < 1:
            raise TuningError(f"total_samples must be >= 1, got {total_samples}")
        active = [i for i, s in enumerate(self.states) if s.unexplored]
        alloc = [0] * len(self.states)
        if not active:
            return alloc
        weight_sum = sum(self.states[i].weight for i in active)
        remaining = total_samples
        # Guarantee coverage first.
        for i in active:
            if remaining == 0:
                break
            alloc[i] = 1
            remaining -= 1
        # Distribute the rest by weight.
        for i in active:
            share = int(remaining * self.states[i].weight / weight_sum)
            alloc[i] += share
        leftover = total_samples - sum(alloc)
        for i in sorted(active, key=lambda i: -self.states[i].weight):
            if leftover <= 0:
                break
            alloc[i] += 1
            leftover -= 1
        # Clamp to what is actually explorable.
        for i in active:
            alloc[i] = min(alloc[i], len(self.states[i].unexplored))
        return alloc

    def draw(self, segment: int, count: int) -> Sequence[Any]:
        """Take up to ``count`` unexplored settings for a segment."""
        state = self.states[segment]
        batch = state.unexplored[:count]
        state.unexplored = state.unexplored[count:]
        return batch

    def record(self, segment: int, params: dict[str, Any], time_s: float) -> None:
        """Report a measured time for bookkeeping."""
        state = self.states[segment]
        if time_s < state.best_time:
            state.best_time = time_s
            state.best_params = dict(params)

    def reward(self, segment: int) -> None:
        """Boost the best-improving segment's share for the next round."""
        self.states[segment].weight *= REWARD_FACTOR

    @property
    def exhausted(self) -> bool:
        return all(not s.unexplored for s in self.states)
