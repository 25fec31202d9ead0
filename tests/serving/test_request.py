"""Tests for serving requests, trackers, and the synthetic trace."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigError
from repro.core.rng import RngStream
from repro.serving.request import (
    Request,
    RequestState,
    RequestTracker,
    synthetic_trace,
)


class TestRequest:
    def test_max_context(self):
        req = Request(0, 0.0, prompt_len=32, max_new_tokens=8)
        assert req.max_context == 40

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(prompt_len=0, max_new_tokens=8),
            dict(prompt_len=32, max_new_tokens=0),
            dict(prompt_len=32, max_new_tokens=8, arrival_s=-1.0),
            dict(prompt_len=32, max_new_tokens=8, pattern="nope"),
        ],
    )
    def test_validation(self, kwargs):
        kwargs.setdefault("arrival_s", 0.0)
        with pytest.raises(ConfigError):
            Request(0, kwargs.pop("arrival_s"), **kwargs)

    def test_frozen(self):
        req = Request(0, 0.0, 32, 8)
        with pytest.raises(AttributeError):
            req.prompt_len = 64


class TestRequestTracker:
    def make(self, req_id=0, prompt=8, new=4, pattern="causal", overrides=()):
        return RequestTracker(
            Request(req_id, 0.0, prompt, new, pattern, overrides)
        )

    def test_identity_equality(self):
        """Queues must track *this* tracker, not field-equal twins."""
        a, b = self.make(), self.make()
        assert a != b
        queue = [a, b]
        queue.remove(b)
        assert queue == [a]

    def test_context_and_done(self):
        tr = self.make(prompt=8, new=2)
        assert (tr.context_len, tr.done) == (8, False)
        tr.generated = 2
        assert (tr.context_len, tr.done) == (10, True)

    def test_full_mask_is_causal_and_cached(self):
        tr = self.make(prompt=8, new=4)
        mask = tr.full_mask(RngStream(3))
        assert mask.shape == (12, 12)
        assert not np.triu(mask, k=1).any()
        assert mask is tr.full_mask(RngStream(99))   # cached after first use

    def test_mask_depends_on_id_not_order(self):
        """Preempt/replay and policy comparisons need identical masks."""
        overrides = (("block_size", 8), ("filling_rate", 0.3))
        def mask(req_id):
            tr = self.make(req_id, prompt=32, new=8,
                           pattern="random", overrides=overrides)
            return tr.full_mask(RngStream(3))
        assert np.array_equal(mask(5), mask(5))
        assert not np.array_equal(mask(5), mask(6))

    def test_decode_row_and_prefill_slices(self):
        tr = self.make(prompt=8, new=4)
        rng = RngStream(3)
        full = tr.full_mask(rng)
        tr.generated = 2
        assert np.array_equal(tr.prefill_mask(rng), full[:10, :10])

    def test_initial_state(self):
        assert self.make().state is RequestState.WAITING


class TestSyntheticTrace:
    def test_deterministic(self):
        a = synthetic_trace(8, 100.0, rng=RngStream(11))
        b = synthetic_trace(8, 100.0, rng=RngStream(11))
        assert a == b
        c = synthetic_trace(8, 100.0, rng=RngStream(12))
        assert a != c

    def test_validation(self):
        with pytest.raises(ConfigError):
            synthetic_trace(0, 100.0)
        with pytest.raises(ConfigError):
            synthetic_trace(4, 0.0)
        with pytest.raises(ConfigError):
            synthetic_trace(4, 100.0, prompt_range=(0, 8))
        with pytest.raises(ConfigError):
            synthetic_trace(4, 100.0, max_new_range=(8, 4))

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=32),
        rate=st.floats(min_value=0.5, max_value=5000.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_trace_invariants(self, n, rate, seed):
        trace = synthetic_trace(
            n, rate, rng=RngStream(seed),
            prompt_range=(4, 64), max_new_range=(2, 16),
        )
        assert [r.req_id for r in trace] == list(range(n))
        arrivals = [r.arrival_s for r in trace]
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))
        assert all(arr > 0 for arr in arrivals)
        assert all(4 <= r.prompt_len <= 64 for r in trace)
        assert all(2 <= r.max_new_tokens <= 16 for r in trace)

    def test_rate_controls_density(self):
        """10x the arrival rate shrinks the span roughly 10x."""
        slow = synthetic_trace(64, 10.0, rng=RngStream(5))
        fast = synthetic_trace(64, 100.0, rng=RngStream(5))
        assert fast[-1].arrival_s < slow[-1].arrival_s / 5

    def test_overrides_attached(self):
        trace = synthetic_trace(
            2, 50.0, rng=RngStream(5),
            pattern="sliding_window", pattern_overrides={"band_width": 8},
        )
        assert trace[0].pattern_overrides == (("band_width", 8),)
