"""Tests for seeded random streams."""

import numpy as np
import pytest

from repro.core.rng import DEFAULT_SEED, RngStream, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", "b") == derive_seed(7, "a", "b")

    def test_differs_by_name(self):
        assert derive_seed(7, "a") != derive_seed(7, "b")

    def test_differs_by_root(self):
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_differs_by_path_depth(self):
        assert derive_seed(7, "a") != derive_seed(7, "a", "a")

    def test_path_not_concatenation_ambiguous(self):
        # ("ab",) must differ from ("a", "b") — the separator matters.
        assert derive_seed(7, "ab") != derive_seed(7, "a", "b")

    def test_nonnegative_31bit(self):
        for i in range(50):
            s = derive_seed(i, "x")
            assert 0 <= s < 2**31


class TestRngStream:
    def test_same_seed_same_values(self):
        a = RngStream(5).random(10)
        b = RngStream(5).random(10)
        assert np.array_equal(a, b)

    def test_fork_independent_of_consumption(self):
        r1 = RngStream(5)
        r1.random(1000)  # consume a lot
        child_after = r1.fork("child").random(5)
        child_fresh = RngStream(5).fork("child").random(5)
        assert np.array_equal(child_after, child_fresh)

    def test_forks_are_distinct(self):
        r = RngStream(5)
        a = r.fork("a").random(8)
        b = r.fork("b").random(8)
        assert not np.array_equal(a, b)

    def test_nested_fork_path(self):
        r = RngStream(5)
        assert np.array_equal(
            r.fork("a").fork("b").random(4),
            RngStream(5, ("a", "b")).random(4),
        )

    def test_integers_bounds(self):
        vals = RngStream(3).integers(0, 10, size=1000)
        assert vals.min() >= 0 and vals.max() < 10

    def test_permutation_is_permutation(self):
        p = RngStream(3).permutation(64)
        assert sorted(p.tolist()) == list(range(64))

    def test_shuffle_in_place(self):
        x = list(range(32))
        RngStream(3).shuffle(x)
        assert sorted(x) == list(range(32))

    def test_default_seed_constant(self):
        assert RngStream().root_seed == DEFAULT_SEED

    def test_choice_with_probabilities(self):
        vals = RngStream(3).choice([0, 1], size=500, p=[0.9, 0.1])
        assert (vals == 0).mean() > 0.7


class TestLazyGenerator:
    @pytest.fixture
    def built(self, monkeypatch):
        """Counts the NumPy generators built through ``default_rng``."""
        calls = []
        default_rng = np.random.default_rng

        def counting(seed):
            calls.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        return calls

    def test_fork_that_never_draws_builds_no_generator(self, built):
        stream = RngStream(5).fork("chain").fork("reward-sampler")
        assert built == []
        stream.random()
        stream.random()
        assert built == [derive_seed(5, "chain", "reward-sampler")]

    @pytest.mark.parametrize(
        "via_generator, draw",
        [
            (True, lambda r: r.random(4)),
            (False, lambda r: r.integers(0, 100, size=6)),
            (False, lambda r: r.integers(7)),
            (False, lambda r: r.random(5)),
            (False, lambda r: r.standard_normal(3)),
            (False, lambda r: r.choice(10, size=4, replace=False)),
            (False, lambda r: r.choice([0, 1], size=8, p=[0.3, 0.7])),
            (False, lambda r: r.permutation(12)),
        ],
        ids=[
            "generator", "integers", "integers-high-none", "random",
            "standard_normal", "choice", "choice-p", "permutation",
        ],
    )
    def test_passthroughs_draw_what_default_rng_draws(self, via_generator, draw):
        path = ("tuner", "s1-seg")
        stream = RngStream(9, path)
        want = np.random.default_rng(derive_seed(9, *path))
        for _ in range(2):  # the second draw continues the same state
            got = draw(stream.generator if via_generator else stream)
            assert np.array_equal(got, draw(want))

    def test_shuffle_draws_what_default_rng_draws(self):
        got, want = list(range(20)), list(range(20))
        RngStream(9, ("x",)).shuffle(got)
        np.random.default_rng(derive_seed(9, "x")).shuffle(want)
        assert got == want
