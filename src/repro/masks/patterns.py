"""Atomic sparse attention patterns (paper Fig. 1 a-d).

Each generator returns a boolean ``(seq_len, seq_len)`` matrix where ``True``
marks an attended position.  Parameter conventions follow the paper's
Table 2: at ``seq_len = 1024`` with ``band_width = 32`` the sliding-window
and dilated patterns are 93.8% sparse.

* sliding window: attend iff ``|i - j| <= band_width``.
* dilated: the band is stretched by ``dilation_rate + 1`` and only every
  ``(dilation_rate + 1)``-th diagonal is kept, so the number of attended
  elements per row matches the un-dilated band ("hole-punched band").
* global: the first ``global_width`` rows and columns are fully attended.
* random: square blocks are switched on at random until the requested
  filling rate is reached (Bigbird-style block-random attention).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.errors import ConfigError
from repro.core.rng import RngStream


def _check_seq_len(seq_len: int) -> None:
    if seq_len < 1:
        raise ConfigError(f"seq_len must be >= 1, got {seq_len}")


def sliding_window_mask(seq_len: int, band_width: int) -> np.ndarray:
    """Banded local-attention mask: attend iff ``|i - j| <= band_width``.

    >>> sliding_window_mask(4, 1).astype(int)
    array([[1, 1, 0, 0],
           [1, 1, 1, 0],
           [0, 1, 1, 1],
           [0, 0, 1, 1]])
    """
    _check_seq_len(seq_len)
    if band_width < 0:
        raise ConfigError(f"band_width must be >= 0, got {band_width}")
    # |i - j| <= w  <=>  j <= i + w  and not  j <= i - w - 1; the second
    # triangle lies inside the first, so xor removes it.  np.tri compares
    # index ranges straight into booleans (no L^2 integer difference).
    band = np.tri(seq_len, k=band_width, dtype=bool)
    band ^= np.tri(seq_len, k=-band_width - 1, dtype=bool)
    return band


def dilated_mask(seq_len: int, band_width: int, dilation_rate: int = 1) -> np.ndarray:
    """Dilated band: stretched window, keeping every ``d+1``-th diagonal.

    With ``dilation_rate = 0`` this degenerates to the sliding window.  The
    per-row population matches :func:`sliding_window_mask` with the same
    ``band_width`` (interior rows), so Table 2 reports equal sparsity for
    both patterns.
    """
    _check_seq_len(seq_len)
    if band_width < 0:
        raise ConfigError(f"band_width must be >= 0, got {band_width}")
    if dilation_rate < 0:
        raise ConfigError(f"dilation_rate must be >= 0, got {dilation_rate}")
    stride = dilation_rate + 1
    idx = np.arange(seq_len)
    delta = idx[:, None] - idx[None, :]
    within = np.abs(delta) <= band_width * stride
    on_diag = (delta % stride) == 0
    return within & on_diag


def global_mask(seq_len: int, global_width: int) -> np.ndarray:
    """Global-token mask: first ``global_width`` rows and columns attended."""
    _check_seq_len(seq_len)
    if global_width < 0:
        raise ConfigError(f"global_width must be >= 0, got {global_width}")
    g = min(global_width, seq_len)
    mask = np.zeros((seq_len, seq_len), dtype=bool)
    mask[:g, :] = True
    mask[:, :g] = True
    return mask


def random_block_mask(
    seq_len: int,
    filling_rate: float,
    block_size: int = 64,
    rng: RngStream | None = None,
) -> np.ndarray:
    """Random block attention: switch on random blocks until the target fill.

    ``filling_rate`` is the fraction of the full matrix to cover.  Blocks are
    chosen without replacement on a ``block_size``-aligned grid; edge blocks
    may be smaller.  Deterministic given the same :class:`RngStream`.
    """
    _check_seq_len(seq_len)
    if not (0.0 <= filling_rate <= 1.0):
        raise ConfigError(f"filling_rate must be in [0, 1], got {filling_rate}")
    if block_size < 1:
        raise ConfigError(f"block_size must be >= 1, got {block_size}")
    rng = rng or RngStream().fork("random-mask")

    mask = np.zeros((seq_len, seq_len), dtype=bool)
    if filling_rate == 0.0:
        return mask
    n_blocks_side = -(-seq_len // block_size)  # ceil division
    total_cells = n_blocks_side * n_blocks_side
    order = rng.permutation(total_cells)
    target = filling_rate * seq_len * seq_len
    covered = 0
    for cell in order:
        if covered >= target:
            break
        bi, bj = divmod(int(cell), n_blocks_side)
        r0, r1 = bi * block_size, min((bi + 1) * block_size, seq_len)
        c0, c1 = bj * block_size, min((bj + 1) * block_size, seq_len)
        covered += (r1 - r0) * (c1 - c0)
        mask[r0:r1, c0:c1] = True
    return mask


def causal_mask(seq_len: int) -> np.ndarray:
    """Lower-triangular decoder mask: attend iff ``j <= i``."""
    _check_seq_len(seq_len)
    return np.tri(seq_len, dtype=bool)


@dataclass(frozen=True)
class MaskPattern:
    """A named mask generator plus the metadata Table 2 reports.

    ``uses_randomness`` distinguishes structured patterns (deterministic
    position rules) from unstructured ones (random placement) — the
    "Sparsity Type" column of Table 2.
    """

    name: str
    generator: Callable[..., np.ndarray]
    uses_randomness: bool
    default_params: dict = field(default_factory=dict)

    def build(self, seq_len: int, rng: RngStream | None = None, **overrides) -> np.ndarray:
        """Instantiate the pattern at a sequence length.

        Width-like defaults that are callables are resolved with ``seq_len``
        (the paper sets band/global width to ``sqrt(seq_len)``).
        """
        params = {}
        for key, value in self.default_params.items():
            params[key] = value(seq_len) if callable(value) else value
        params.update(overrides)
        if self.uses_randomness:
            params.setdefault("rng", rng or RngStream().fork(f"mask-{self.name}"))
        return self.generator(seq_len, **params)

    def pinned_params(self, overrides: dict | None = None) -> dict | None:
        """Fully-resolved size-independent parameters, or ``None``.

        ``None`` means the pattern's mask *content* depends on the build
        size or on randomness — a callable default (e.g. the paper's
        ``sqrt(seq_len)`` band width) left unoverridden, or a random
        placement — so masks of different sizes cannot share one plan
        family.  A non-``None`` result pins every parameter to a
        concrete value: any two builds agree on every ``(i, j)`` entry
        they both contain, which is what symbolic serving keys
        (:mod:`repro.plan.symbolic`) need to share row statistics across
        requests of different lengths.
        """
        if self.uses_randomness:
            return None
        params = dict(self.default_params)
        params.update(overrides or {})
        if any(callable(v) for v in params.values()):
            return None
        return params


def _sqrt_width(seq_len: int) -> int:
    """The paper's default band/global width: sqrt(seq_len), rounded."""
    return max(1, int(round(seq_len ** 0.5)))


#: Registry of the patterns the evaluation sweeps over.  Compound patterns
#: are appended by :mod:`repro.masks.compound` at import time.
PATTERN_REGISTRY: dict[str, MaskPattern] = {
    "sliding_window": MaskPattern(
        name="sliding_window",
        generator=sliding_window_mask,
        uses_randomness=False,
        default_params={"band_width": _sqrt_width},
    ),
    "dilated": MaskPattern(
        name="dilated",
        generator=dilated_mask,
        uses_randomness=False,
        default_params={"band_width": _sqrt_width, "dilation_rate": 1},
    ),
    "global": MaskPattern(
        name="global",
        generator=global_mask,
        uses_randomness=False,
        default_params={"global_width": _sqrt_width},
    ),
    "random": MaskPattern(
        name="random",
        generator=random_block_mask,
        uses_randomness=True,
        default_params={"filling_rate": 0.1},
    ),
    "causal": MaskPattern(
        name="causal",
        generator=causal_mask,
        uses_randomness=False,
        default_params={},
    ),
}


def make_pattern(
    name: str, seq_len: int, rng: RngStream | None = None, **overrides
) -> np.ndarray:
    """Build a registered pattern by name.

    >>> make_pattern("causal", 3).astype(int)
    array([[1, 0, 0],
           [1, 1, 0],
           [1, 1, 1]])
    """
    if name not in PATTERN_REGISTRY:
        raise ConfigError(
            f"unknown mask pattern {name!r}; known: {sorted(PATTERN_REGISTRY)}"
        )
    return PATTERN_REGISTRY[name].build(seq_len, rng=rng, **overrides)
