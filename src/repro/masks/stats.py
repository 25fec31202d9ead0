"""Mask feature analysis (paper Table 2).

Computes, for an arbitrary boolean mask matrix:

* the sparsity ratio (fraction of masked-out entries),
* the element *distribution* along rows and columns — ``continuous`` when
  every row's (column's) attended set forms one contiguous run, else
  ``discrete`` — which determines whether range-based formats like
  FlashMask's column spans can represent the mask,
* a structured/unstructured heuristic based on how repetitive the set of
  distinct row patterns is (random placement yields mostly unique rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import ConfigError


def default_width(seq_len: int) -> int:
    """The paper's default band/global width, ``sqrt(seq_len)`` (§3.1)."""
    return max(1, int(round(seq_len ** 0.5)))


def _validate_mask(mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ConfigError(f"mask must be 2-D, got shape {mask.shape}")
    if mask.dtype != bool:
        mask = mask.astype(bool)
    return mask


def sparsity_ratio(mask: np.ndarray) -> float:
    """Fraction of masked-out (False) entries.

    >>> import numpy as np
    >>> sparsity_ratio(np.eye(4, dtype=bool))
    0.75
    """
    mask = _validate_mask(mask)
    return float(1.0 - mask.mean())


def row_rises(mask: np.ndarray) -> np.ndarray:
    """Per-row count of False->True steps (a set first column counts).

    A row's True entries form one contiguous run exactly when its count
    is 1; an empty row counts 0.

    >>> import numpy as np
    >>> row_rises(np.array([[1, 1, 0], [1, 0, 1], [0, 0, 0]], dtype=bool))
    array([1, 2, 0])
    """
    rows, width = mask.shape
    if width == 0:
        return np.zeros(rows, dtype=np.intp)
    # One comparison pass: a rise at column j > 0 is mask[j] > mask[j - 1].
    # A rise's flat index in the (rows, width - 1) comparison, floor-divided
    # by width - 1, is its row; a width-1 mask has no such rise.
    rises = np.bincount(
        np.flatnonzero(mask[:, 1:] > mask[:, :-1]) // max(width - 1, 1),
        minlength=rows,
    )
    return rises + mask[:, 0]


def contiguous_row_fraction(mask: np.ndarray) -> float:
    """Fraction of non-empty rows whose attended set is one contiguous run.

    The row-wise kernel's gather-efficiency model weighs coalesced (banded,
    causal) against scattered (dilated, random) rows by this statistic.
    Masks with no attended element at all count as fully contiguous.

    >>> import numpy as np
    >>> contiguous_row_fraction(np.tril(np.ones((4, 4), dtype=bool)))
    1.0
    """
    rises = row_rises(_validate_mask(mask))
    nonempty = rises > 0
    if not nonempty.any():
        return 1.0
    return float((rises[nonempty] == 1).mean())


def _runs_are_contiguous(mat: np.ndarray) -> bool:
    """True when every row's True entries form at most one contiguous run."""
    return bool((row_rises(mat) <= 1).all())


def classify_distribution(mask: np.ndarray) -> tuple[str, str]:
    """Classify row and column element distribution.

    Returns ``(row, column)``, each ``"continuous"`` or ``"discrete"``.
    Empty rows/columns count as continuous (zero runs).

    >>> from repro.masks.patterns import sliding_window_mask, dilated_mask
    >>> classify_distribution(sliding_window_mask(64, 4))
    ('continuous', 'continuous')
    >>> classify_distribution(dilated_mask(64, 4, 1))
    ('discrete', 'discrete')
    """
    mask = _validate_mask(mask)
    row = "continuous" if _runs_are_contiguous(mask) else "discrete"
    col = "continuous" if _runs_are_contiguous(mask.T) else "discrete"
    return row, col


def classify_structure(mask: np.ndarray, uniqueness_threshold: float = 0.5) -> str:
    """Heuristic structured/unstructured classification.

    Structured patterns (bands, global stripes, dilation) repeat a small
    family of row shapes *relative to their alignment*: shifting each row so
    its first attended element sits at column zero collapses banded patterns
    onto few distinct shapes.  Random placement stays near-unique under the
    same normalization.  The mask is "unstructured" when the number of
    distinct normalized non-empty rows exceeds ``uniqueness_threshold`` of
    the non-empty row count.
    """
    mask = _validate_mask(mask)
    nonempty = mask[mask.any(axis=1)]
    if nonempty.shape[0] == 0:
        return "structured"
    first = nonempty.argmax(axis=1)
    aligned = np.zeros_like(nonempty)
    for i, (row, shift) in enumerate(zip(nonempty, first)):
        aligned[i, : nonempty.shape[1] - shift] = row[shift:]
    distinct = np.unique(aligned, axis=0).shape[0]
    ratio = distinct / nonempty.shape[0]
    return "unstructured" if ratio > uniqueness_threshold else "structured"


@dataclass(frozen=True)
class MaskStats:
    """One row of the paper's Table 2."""

    pattern: str
    seq_len: int
    parameters: dict
    row_distribution: str
    col_distribution: str
    sparsity_type: str
    sparsity_ratio: float

    def as_table_row(self) -> dict:
        """Flatten for tabular printing in the benchmark harness."""
        return {
            "pattern": self.pattern,
            "parameters": ", ".join(f"{k}={v}" for k, v in self.parameters.items()),
            "row": self.row_distribution,
            "column": self.col_distribution,
            "type": self.sparsity_type,
            "sparsity_%": round(self.sparsity_ratio * 100.0, 1),
        }


def analyze_mask(
    mask: np.ndarray,
    pattern: str = "custom",
    parameters: dict | None = None,
    known_random: bool | None = None,
) -> MaskStats:
    """Compute all Table 2 features of a mask.

    ``known_random`` overrides the structure heuristic when the caller knows
    whether the generator used randomness (the registry does).
    """
    mask = _validate_mask(mask)
    row, col = classify_distribution(mask)
    if known_random is None:
        structure = classify_structure(mask)
    else:
        structure = "unstructured" if known_random else "structured"
    return MaskStats(
        pattern=pattern,
        seq_len=mask.shape[0],
        parameters=dict(parameters or {}),
        row_distribution=row,
        col_distribution=col,
        sparsity_type=structure,
        sparsity_ratio=sparsity_ratio(mask),
    )
