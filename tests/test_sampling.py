"""Random instance generators: the integer V-weight sampler against the
Fraction-arithmetic construction it replaced."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from kedlaya.sampling import rational_v_weights
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
