"""``row_rises`` against the padded-copy formula it replaced (hypothesis).

The library counts a row's False->True steps in one comparison pass over
adjacent columns; the oracle below pads a False column in front, negates
and ANDs.  Both must give equal arrays, dtype included, on every
registered pattern (with and without the causal AND, square and cut to a
rectangle) up to 2048², with rows emptied at random, and on the edge
widths 0 and 1.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

import repro.masks  # noqa: F401 - registers the compound patterns
from repro.core.rng import RngStream
from repro.masks.patterns import PATTERN_REGISTRY, causal_mask, make_pattern
from repro.masks.stats import row_rises


def padded_row_rises(mask: np.ndarray) -> np.ndarray:
    """The oracle: per-row False->True steps after a padded False column."""
    padded = np.concatenate(
        [np.zeros((mask.shape[0], 1), dtype=bool), mask], axis=1
    )
    return ((~padded[:, :-1]) & padded[:, 1:]).sum(axis=1)


def assert_same(mask: np.ndarray) -> None:
    got, want = row_rises(mask), padded_row_rises(mask)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@st.composite
def pattern_masks(draw):
    name = draw(st.sampled_from(sorted(PATTERN_REGISTRY)))
    size = draw(st.integers(1, 2048))
    seed = draw(st.integers(0, 2**16))
    mask = make_pattern(name, size, rng=RngStream(seed))
    if draw(st.booleans()):
        mask = mask & causal_mask(size)
    # A row slice and a column cut: decode buckets and suffix prefills
    # price rectangles.
    r0 = draw(st.integers(0, size - 1))
    r1 = draw(st.integers(r0 + 1, size))
    c1 = draw(st.integers(1, size))
    mask = mask[r0:r1, :c1]
    empty = draw(st.lists(st.integers(0, r1 - r0 - 1), max_size=8))
    if empty:
        mask = mask.copy()
        mask[empty] = False
    return mask


@settings(max_examples=60, deadline=None)
@given(mask=pattern_masks())
@example(mask=make_pattern("bigbird", 2048, rng=RngStream(1)) & causal_mask(2048))
@example(mask=make_pattern("random", 2048, rng=RngStream(2)))
def test_row_rises_equals_the_padded_oracle_on_registered_patterns(mask):
    assert_same(mask)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(0, 40),
    width=st.integers(0, 40),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
@example(rows=5, width=0, density=0.5, seed=0)
@example(rows=5, width=1, density=0.5, seed=0)
@example(rows=0, width=7, density=0.5, seed=0)
@example(rows=3, width=9, density=0.0, seed=0)
def test_row_rises_equals_the_padded_oracle_on_random_masks(rows, width, density, seed):
    assert_same(np.random.default_rng(seed).random((rows, width)) < density)


def test_row_rises_reads_transposed_views():
    """Column runs are counted on ``mask.T``, a non-contiguous view."""
    mask = make_pattern("longformer", 300) & causal_mask(300)
    assert_same(mask.T)
