"""Random instance generators: the integer V-weight sampler against the
Fraction-arithmetic construction it replaced, and the sweep's block sampler
against the scalar rendering of its stream (tests/sweep_oracle.py)."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kedlaya import sampling
from kedlaya.errors import FloatOverflow
from kedlaya.inequality import _SWEEP_BLOCK
from kedlaya.sampling import rational_v_weights, sweep_block, sweep_blocks
from kedlaya.weights import is_in_V
from sweep_oracle import oracle_instance


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
    """The block sampler gets each trial's values from its row of the
    stream as the scalar oracle does, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 8, 40, 70])
    @pytest.mark.parametrize("max_den", [2, 9, 60])
    def test_equals_rational_v_weights_and_entries(self, n, max_den):
        # the second range starts inside a stream block and crosses into the next
        for trials in (range(5, 25), range(1020, 1030)):
            x, w, error = sweep_block(11, trials, n, max_den)
            assert error is None and x.shape == w.shape == (len(trials), n)
            for row, trial in enumerate(trials):
                entries, weights = oracle_instance(11, trial, n, max_den)
                assert tuple(w[row].tolist()) == weights.as_floats()
                assert tuple(x[row].tolist()) == entries

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


def _sweep_rows(seed: int, trials: int, n: int, max_den: int) -> tuple:
    """Entries and weights of every trial, drawn in the blocks sweep_kedlaya checks."""
    blocks = list(sweep_blocks(seed, range(trials), n, max_den, max(1, _SWEEP_BLOCK // n)))
    return tuple(np.concatenate([block[i] for block in blocks]) for i in (0, 1))


@pytest.mark.kernel_parity
class TestSweepStream:
    """A trial's instance depends on the seed, its index, n and max_den only."""

    @pytest.mark.parametrize("n, max_den", [
        (8, 9),    # 2048-trial blocks, each two stream blocks
        (40, 60),  # 409-trial blocks, which cross the stream blocks' edges
    ])
    def test_trial_rows_do_not_depend_on_the_trial_count(self, n, max_den):
        x, w = _sweep_rows(5, 3000, n, max_den)
        assert x.shape == w.shape == (3000, n)
        for t in (0, 1, 408, 409, 1023, 1024, 2047, 2048, 2999):
            for trials in {1, t + 1}:
                xs, ws = _sweep_rows(5, trials, n, max_den)
                assert xs.shape == (trials, n)
                assert xs[-1].tolist() == x[trials - 1].tolist()
                assert ws[-1].tolist() == w[trials - 1].tolist()
            entries, weights = oracle_instance(5, t, n, max_den)
            assert (x[t].tolist(), w[t].tolist()) == (list(entries), list(weights.as_floats()))

    @pytest.mark.parametrize("n, dtype", [(17, np.int64), (18, object)])
    def test_int64_and_python_int_inversions_give_the_oracle(self, n, dtype):
        # max_den 9: 9^16 <= 2^53 < 9^17, so n = 17 inverts on int64, n = 18 on Python ints
        ones = np.ones((1, n - 1), np.int64)
        assert sampling._v_weight_rows(ones, 2 * ones, 9)[0].dtype == dtype
        x, w, error = sweep_block(2, range(60), n, 9)
        assert error is None
        for t in range(60):
            entries, weights = oracle_instance(2, t, n, 9)
            assert (x[t].tolist(), w[t].tolist()) == (list(entries), list(weights.as_floats()))

    @pytest.mark.parametrize("max_den", [2, 3, 9, 2 ** 26 + 1, 2 ** 53])
    def test_draws_stay_in_range(self, monkeypatch, max_den):
        top = 1.0 - 2.0 ** -53  # the largest uniform
        # per row: n - 1 = 3 uniforms for denominators, 3 for numerators, 4 for entries
        u = np.array([[0.0, top, 0.5, top, 0.0, 0.5, top, 0.0, 0.5, 0.25],
                      [top, 0.0, top, top, top, top, 0.0, 0.0, 0.0, 0.5]])
        drawn = []

        class Uniforms:  # a generator that draws the rows of u
            bit_generator = SimpleNamespace(advance=lambda delta: None)

            def __init__(self, seed):
                pass

            def random(self, shape):
                assert shape == u.shape
                return u

        def spy(a, d, max_den):
            drawn.append((a, d))
            return v_weight_rows(a, d, max_den)

        v_weight_rows = sampling._v_weight_rows
        monkeypatch.setattr(np.random, "default_rng", Uniforms)
        monkeypatch.setattr(sampling, "_v_weight_rows", spy)
        x, w, error = sweep_block(0, range(2), 4, max_den)
        (a, d), = drawn
        assert error is None and (w > 0).all()
        assert (2 <= d).all() and (d <= max_den).all() and (1 <= a).all() and (a < d).all()
        assert d.tolist() == [[2, max_den, 2 + int(0.5 * (max_den - 1))], [max_den, 2, max_den]]
        assert a[1].tolist() == [max_den - 1, 1, max_den - 1]

    def test_max_den_beyond_the_exact_float_map_is_refused(self):
        with pytest.raises(ValueError, match=r"max_den must be in \[2, 2\*\*53\], got 9007199254740993"):
            sweep_block(0, range(1), 4, 2 ** 53 + 1)
