"""The attention problem bundle shared by every MHA kernel.

:class:`AttentionProblem` describes either a *symbolic* problem (shapes and
mask only — what the benchmark harness builds at paper scale) or a *concrete*
one (with Q/K/V arrays — what the tests and examples run functionally).  It
caches the mask's derived views (BSR at arbitrary block sizes, block counts
for pricing, element-level CSR, sparsity statistics) so kernels and the
selector share one analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import ConfigError
from repro.core.fp16 import FP16_BYTES
from repro.core.rng import RngStream
from repro.masks.bsr import BlockCounts, BlockSparseMask
from repro.masks.patterns import make_pattern
from repro.masks.stats import classify_distribution

#: The finest block-wise tiling: every tiling the block-wise kernel accepts
#: is a power-of-two multiple of it, so its BSR yields every tiling's counts.
COUNTS_BLOCK = 16


@dataclass
class AttentionProblem:
    """One MHA computation: shapes, mask, and optional concrete tensors.

    ``mask`` is the shared ``(seq_len, seq_len)`` boolean pattern applied to
    every batch and head (the paper's setting).  ``pattern`` carries the
    generator name when known, which lets baselines that special-case
    certain patterns (FlashAttention's causal/sliding fast paths) recognise
    them the way their real implementations do.
    """

    batch: int
    heads: int
    seq_len: int
    head_size: int
    mask: np.ndarray
    pattern: str = "custom"
    kv_seq_len: int | None = None   # key/value length; None = seq_len

    q: np.ndarray | None = None
    k: np.ndarray | None = None
    v: np.ndarray | None = None

    _bsr_cache: dict[tuple[int, int], BlockSparseMask] = field(
        default_factory=dict, repr=False
    )
    _counts_cache: dict[tuple[int, int], BlockCounts] = field(
        default_factory=dict, repr=False
    )
    _csr_cache: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    _mask_fp: str | None = field(default=None, repr=False)
    _contig_cache: float | None = field(default=None, repr=False)
    _f32_cache: tuple | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if min(self.batch, self.heads, self.seq_len, self.head_size) < 1:
            raise ConfigError(
                f"all dims must be >= 1: batch={self.batch}, heads={self.heads}, "
                f"seq_len={self.seq_len}, head_size={self.head_size}"
            )
        if self.kv_seq_len is None:
            self.kv_seq_len = self.seq_len
        if self.kv_seq_len < 1:
            raise ConfigError(f"kv_seq_len must be >= 1, got {self.kv_seq_len}")
        self.mask = np.asarray(self.mask)
        if self.mask.shape != (self.seq_len, self.kv_seq_len):
            raise ConfigError(
                f"mask shape {self.mask.shape} does not match "
                f"(seq_len, kv_seq_len) = ({self.seq_len}, {self.kv_seq_len})"
            )
        if self.mask.dtype != bool:
            self.mask = self.mask.astype(bool)
        expected = {"q": self.qkv_shape, "k": self.kv_shape, "v": self.kv_shape}
        for name in ("q", "k", "v"):
            t = getattr(self, name)
            if t is not None and t.shape != expected[name]:
                raise ConfigError(
                    f"{name} shape {t.shape} does not match expected {expected[name]}"
                )

    # ---------------------------------------------------------- constructors

    @classmethod
    def build(
        cls,
        pattern: str,
        batch: int,
        heads: int,
        seq_len: int,
        head_size: int,
        rng: RngStream | None = None,
        with_tensors: bool = False,
        **pattern_overrides,
    ) -> "AttentionProblem":
        """Construct a problem from a registered mask pattern.

        Band/global widths default to the paper's ``sqrt(seq_len)``.  With
        ``with_tensors=True``, Q/K/V are sampled standard-normal in FP16.
        """
        rng = rng or RngStream()
        mask = make_pattern(pattern, seq_len, rng=rng.fork(f"mask-{pattern}"), **pattern_overrides)
        prob = cls(
            batch=batch,
            heads=heads,
            seq_len=seq_len,
            head_size=head_size,
            mask=mask,
            pattern=pattern,
        )
        if with_tensors:
            data = rng.fork("qkv")
            prob.q = (data.standard_normal(prob.qkv_shape) * 0.5).astype(np.float16)
            prob.k = (data.standard_normal(prob.kv_shape) * 0.5).astype(np.float16)
            prob.v = (data.standard_normal(prob.kv_shape) * 0.5).astype(np.float16)
        return prob

    # -------------------------------------------------------------- geometry

    @property
    def qkv_shape(self) -> tuple[int, int, int, int]:
        """Query (and output) tensor shape."""
        return (self.batch, self.heads, self.seq_len, self.head_size)

    @property
    def kv_shape(self) -> tuple[int, int, int, int]:
        """Key/value tensor shape (differs from Q in decode problems)."""
        return (self.batch, self.heads, self.kv_seq_len, self.head_size)

    @property
    def is_rectangular(self) -> bool:
        return self.kv_seq_len != self.seq_len

    @property
    def n_bh(self) -> int:
        """Flattened batch*heads parallel dimension."""
        return self.batch * self.heads

    @property
    def scale(self) -> float:
        """Score scaling factor ``1 / sqrt(head_size)``."""
        return 1.0 / float(np.sqrt(self.head_size))

    @property
    def qkv_bytes(self) -> int:
        """Device bytes of Q (== bytes of the output)."""
        return self.n_bh * self.seq_len * self.head_size * FP16_BYTES

    @property
    def kv_bytes(self) -> int:
        """Device bytes of one of K/V."""
        return self.n_bh * self.kv_seq_len * self.head_size * FP16_BYTES

    @property
    def scores_bytes(self) -> int:
        """Device bytes of the dense score matrix S (what baselines spill)."""
        return self.n_bh * self.seq_len * self.kv_seq_len * FP16_BYTES

    # ------------------------------------------------------------ mask views

    def bsr(self, block_m: int, block_n: int) -> BlockSparseMask:
        """BSR view of the mask at a block granularity (cached)."""
        key = (int(block_m), int(block_n))
        if key not in self._bsr_cache:
            self._bsr_cache[key] = BlockSparseMask.from_dense(self.mask, *key)
        return self._bsr_cache[key]

    def block_counts(self, block_m: int, block_n: int) -> BlockCounts:
        """Block counts of the mask at a tiling (cached) — what pricing reads.

        Derived from the one :data:`COUNTS_BLOCK`-square BSR, so pricing
        every candidate tiling tiles the mask once; only a tiling that is
        executed builds its own BSR through :meth:`bsr`.
        """
        key = (int(block_m), int(block_n))
        if key not in self._counts_cache:
            self._counts_cache[key] = self.bsr(
                COUNTS_BLOCK, COUNTS_BLOCK
            ).block_counts(*key)
        return self._counts_cache[key]

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Element-level CSR (row_ptr, col_idx) of the mask (cached).

        This is the row-wise kernel's storage format.  Both arrays are
        ``int32``, matching the BSR views (an attention mask is at most
        ~4k x ~4k here, so nnz stays far below the int32 ceiling).
        """
        if self._csr_cache is None:
            row_ptr = np.zeros(self.seq_len + 1, dtype=np.int32)
            np.cumsum(self.mask.sum(axis=1), out=row_ptr[1:])
            col_idx = np.flatnonzero(self.mask.ravel()) % self.kv_seq_len
            self._csr_cache = (row_ptr, col_idx.astype(np.int32))
        return self._csr_cache

    def staged_f32(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pre-scaled Q and K/V as flat FP32 compute arrays (cached).

        Every execution backend needs the same staging — Q upcast fused
        with the ``1/sqrt(d)`` score scale, K/V upcast, all flattened to
        ``(batch*heads, len, head_size)``.  On small problems that staging
        rivals the kernel math itself, so it is memoized alongside the
        other derived views (tensors, like the mask, are treated as
        immutable once attached; re-assigning ``q`` invalidates the cache).
        """
        if self._f32_cache is None or self._f32_cache[0] is not self.q:
            if self.q is None:
                raise ConfigError(
                    "problem has no tensors; build with with_tensors=True"
                )
            n_bh, d = self.n_bh, self.head_size
            q = np.multiply(
                self.q.reshape(n_bh, self.seq_len, d), np.float32(self.scale),
                dtype=np.float32,
            )
            k = self.k.reshape(n_bh, self.kv_seq_len, d).astype(np.float32)
            v = self.v.reshape(n_bh, self.kv_seq_len, d).astype(np.float32)
            self._f32_cache = (self.q, q, k, v)
        return self._f32_cache[1:]

    def contiguous_row_fraction(self) -> float:
        """Fraction of non-empty mask rows forming one contiguous run (cached).

        The row-wise kernel's gather-efficiency term rescans the dense mask
        for this on every ``plan()`` otherwise; memoizing it follows the
        ``_bsr_cache``/``_csr_cache`` pattern.
        """
        if self._contig_cache is None:
            from repro.masks.stats import contiguous_row_fraction

            self._contig_cache = contiguous_row_fraction(self.mask)
        return self._contig_cache

    def mask_fingerprint(self) -> str:
        """Content hash of the mask (cached) — the plan layer's guard.

        Equal fingerprints mean element-wise identical masks, so a plan
        replayed under this fingerprint is exact, not approximate.
        """
        if self._mask_fp is None:
            from repro.plan.key import mask_fingerprint

            self._mask_fp = mask_fingerprint(self.mask)
        return self._mask_fp

    @property
    def nnz(self) -> int:
        """Attended element count of the mask."""
        if self._csr_cache is not None:
            return int(self._csr_cache[0][-1])
        return int(np.count_nonzero(self.mask))

    @property
    def density(self) -> float:
        return self.nnz / (self.seq_len * self.kv_seq_len)

    def column_distribution_continuous(self) -> bool:
        """Whether the mask's columns are continuous runs (FlashMask's gate)."""
        _, col = classify_distribution(self.mask)
        return col == "continuous"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AttentionProblem({self.pattern}, b={self.batch}, h={self.heads}, "
            f"s={self.seq_len}, d={self.head_size}, density={self.density:.3f})"
        )
