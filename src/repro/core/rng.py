"""Seeded random streams.

All stochastic pieces of the reproduction — random-attention mask filling,
tuning-candidate sampling, reward-weighted sampling — draw from named
:class:`RngStream` objects derived from a single root seed.  Two runs with the
same root seed produce bit-identical masks, schedules, and benchmark tables.

The derivation is stable across processes and Python versions: stream names
are hashed with BLAKE2 (not Python's randomized ``hash``).
"""

from __future__ import annotations

import hashlib

import numpy as np

DEFAULT_SEED = 0x5704F  # "STOF"


def derive_seed(root_seed: int, *names: str) -> int:
    """Derive a child seed from ``root_seed`` and a path of stream names.

    Stable across processes: uses BLAKE2b over the root seed and the names.

    >>> derive_seed(1, "masks") == derive_seed(1, "masks")
    True
    >>> derive_seed(1, "masks") != derive_seed(1, "tuner")
    True
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(int(root_seed).to_bytes(16, "little", signed=False))
    for name in names:
        h.update(b"\x00")
        h.update(name.encode("utf-8"))
    return int.from_bytes(h.digest(), "little") & 0x7FFF_FFFF


class RngStream:
    """A named, forkable random stream backed by :class:`numpy.random.Generator`.

    ``fork(name)`` produces an independent child stream whose state depends
    only on the parent's seed path, never on how much of the parent stream
    has been consumed.  This keeps mask generation independent of tuning
    order, for example.
    """

    def __init__(self, seed: int = DEFAULT_SEED, path: tuple[str, ...] = ()):
        self.root_seed = int(seed)
        self.path = tuple(path)
        self._seed = derive_seed(self.root_seed, *self.path)
        self._gen: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        """The underlying NumPy generator (stateful; use sparingly).

        Built on first use: a fork that never draws costs one hash.
        """
        if self._gen is None:
            self._gen = np.random.default_rng(self._seed)
        return self._gen

    def fork(self, name: str) -> "RngStream":
        """Create an independent child stream identified by ``name``."""
        return RngStream(self.root_seed, self.path + (name,))

    # Convenience passthroughs -------------------------------------------------

    def integers(self, low: int, high: int | None = None, size=None) -> np.ndarray:
        return self.generator.integers(low, high, size=size)

    def random(self, size=None) -> np.ndarray:
        return self.generator.random(size)

    def standard_normal(self, size=None) -> np.ndarray:
        return self.generator.standard_normal(size)

    def choice(self, a, size=None, replace=True, p=None):
        return self.generator.choice(a, size=size, replace=replace, p=p)

    def shuffle(self, x) -> None:
        self.generator.shuffle(x)

    def permutation(self, x) -> np.ndarray:
        return self.generator.permutation(x)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        path = "/".join(self.path) or "<root>"
        return f"RngStream(seed={self.root_seed:#x}, path={path})"
