"""Random instance generators: the integer V-weight sampler against the
Fraction-arithmetic construction it replaced, and the sweep's block sampler
against the per-trial draws."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kedlaya import sampling
from kedlaya.errors import FloatOverflow
from kedlaya.sampling import entries_log_uniform, rational_v_weights, sweep_block
from kedlaya.weights import is_in_V


def _fraction_loop_v_weights(rng: np.random.Generator, n: int, max_den: int) -> list:
    """Draw the ratios, sort them, and invert them one ``Fraction`` at a time."""
    if n == 1:
        return [Fraction(1)]
    ratios = []
    for _ in range(n - 1):
        den = int(rng.integers(2, max_den + 1))
        ratios.append(Fraction(int(rng.integers(1, den)), den))
    ratios.sort(reverse=True)
    lam = [Fraction(1)]
    acc = Fraction(1)
    for r in ratios:
        acc /= (1 - r)
        lam.append(r * acc)
    return lam


class TestRationalVWeights:
    @settings(max_examples=300)
    @given(st.integers(0, 2 ** 63), st.integers(1, 40), st.integers(2, 60))
    def test_equals_fraction_loop(self, seed, n, max_den):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        w = rational_v_weights(rng, n, max_den=max_den)
        assert list(w.entries) == _fraction_loop_v_weights(oracle_rng, n, max_den)
        assert all(type(e) is Fraction for e in w.entries)
        assert w.mode == "rational"
        # the same draws were consumed
        assert rng.integers(2 ** 62) == oracle_rng.integers(2 ** 62)

    def test_equal_ratios_are_kept(self):
        # max_den 2 draws 1/2 every time: every ratio ties with the next
        w = rational_v_weights(np.random.default_rng(3), 6, max_den=2)
        assert list(w.entries) == [1, 1, 2, 4, 8, 16]
        assert is_in_V(w)


@pytest.mark.kernel_parity
class TestSweepBlock:
    """The block sampler draws each trial's stream as the scalar sweep
    did and gets its values bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 8, 40, 70])
    @pytest.mark.parametrize("max_den", [2, 9, 60])
    def test_equals_rational_v_weights_and_entries(self, n, max_den):
        x, w, error = sweep_block(11, range(5, 25), n, max_den)
        assert error is None and x.shape == w.shape == (20, n)
        for row, trial in enumerate(range(5, 25)):
            rng = np.random.default_rng([11, trial])
            weights = rational_v_weights(rng, n, max_den=max_den)
            assert tuple(w[row].tolist()) == weights.as_floats()
            assert tuple(x[row].tolist()) == entries_log_uniform(rng, n)

    @pytest.mark.parametrize("n", [1025, 1100])
    def test_stops_at_weights_beyond_the_float_range(self, n):
        # max_den 2 makes every ratio 1/2: weights 1, 1, 2, 4, ..., 2^(n-2),
        # whose sum (n = 1025) or last entry (n = 1100) overflows
        with pytest.raises(FloatOverflow) as want:
            rational_v_weights(np.random.default_rng([3, 0]), n, max_den=2).as_floats()
        x, w, error = sweep_block(3, range(4), n, max_den=2)
        assert x.shape == w.shape == (0, n)
        assert type(error) is FloatOverflow and str(error) == str(want.value)

    def test_builds_no_fraction(self, monkeypatch):
        def no_fraction(*args):
            raise AssertionError("the block sampler built a Fraction")

        monkeypatch.setattr(sampling, "Fraction", no_fraction)
        x, w, error = sweep_block(0, range(50), 12, max_den=30)
        assert error is None and (w > 0).all()
