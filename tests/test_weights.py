"""Weight vectors: validation, partial sums, ratio condition, algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kedlaya.errors import (
    AllZero,
    FirstWeightZero,
    LengthMismatch,
    KedlayaError,
    NegativeWeight,
    NonfiniteWeight,
    NonpositiveScale,
)
from kedlaya.weights import (
    clear_denominators,
    is_in_V,
    make_weights,
    partial_sums,
    scale,
    shuffle,
    weights_from_strings,
)


class TestMakeWeights:
    def test_constant_weights_valid(self):
        w = make_weights([1, 1, 1], "W")
        assert len(w) == 3
        assert w.mode == "rational"

    def test_w0_rejects_zero_first(self):
        with pytest.raises(FirstWeightZero):
            make_weights([0, 1], "W0")

    def test_w0_allows_zeros_after_first(self):
        w = make_weights([1, 0, 5], "W0")
        assert list(w) == [1, 0, 5]

    def test_negative_rejected(self):
        with pytest.raises(NegativeWeight):
            make_weights([1, -1], "W")

    def test_all_zero_rejected(self):
        with pytest.raises(AllZero):
            make_weights([0, 0], "W")

    def test_empty_rejected(self):
        with pytest.raises(AllZero):
            make_weights([], "W")

    def test_float_mode(self):
        w = make_weights([1.0, 2.5])
        assert w.mode == "float"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(NonfiniteWeight) as info:
            make_weights([1.0, bad])
        assert isinstance(info.value, KedlayaError) and isinstance(info.value, ValueError)

    def test_mixed_float_fraction_rejected(self):
        with pytest.raises(ValueError):
            make_weights([Fraction(1, 2), 0.5])


class TestPartialSums:
    def test_constant(self):
        w = make_weights([1, 1, 1])
        assert partial_sums(w) == (1, 2, 3)

    def test_increasing(self):
        w = make_weights([1, 2, 3])
        assert partial_sums(w) == (1, 3, 6)

    def test_exact_rational(self):
        w = make_weights([Fraction(1, 2), Fraction(1, 3)])
        assert partial_sums(w) == (Fraction(1, 2), Fraction(5, 6))


class TestRatioCondition:
    def test_constant_weights_pass(self):
        assert is_in_V(make_weights([1, 1, 1, 1], "W0"))

    def test_zero_then_positive_fails(self):
        # ratios 1, 0, 5/6 increase again at the end
        assert not is_in_V(make_weights([1, 0, 5], "W0"))

    def test_any_pair_passes(self):
        assert is_in_V(make_weights([1, 3], "W0"))

    def test_requires_positive_first(self):
        w = make_weights([0, 1], "W")
        with pytest.raises(FirstWeightZero):
            is_in_V(w)

    def test_float_mode_exact_semantics(self):
        assert is_in_V(make_weights([1.0, 1.0, 1.0], "W0"))
        assert not is_in_V(make_weights([1.0, 0.1, 5.0], "W0"))

    def test_equal_ratios_count_as_nonincreasing(self):
        # (1, 1, 2) has ratios 1, 1/2, 1/2: the tie passes
        assert is_in_V(make_weights([1, 1, 2], "W0"))
        assert is_in_V(make_weights([1.0, 1.0, 2.0], "W0"))

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=8))
    def test_zero_tail_property(self, tail):
        # in the admissible class, a zero weight forces zeros ever after
        w = make_weights([1] + tail, "W0")
        if is_in_V(w):
            entries = list(w)
            seen_zero = False
            for v in entries[1:]:
                if seen_zero:
                    assert v == 0
                if v == 0:
                    seen_zero = True

    @given(
        st.lists(st.fractions(min_value=0, max_value=10, max_denominator=20),
                 min_size=1, max_size=6),
        st.fractions(min_value=Fraction(1, 7), max_value=7, max_denominator=11),
    )
    def test_scale_invariance(self, entries, t):
        entries = [Fraction(1)] + entries
        w = make_weights(entries, "W0")
        assert is_in_V(w) == is_in_V(scale(w, t))

    @given(st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=30))
    def test_every_pair_in_class(self, second):
        assert is_in_V(make_weights([Fraction(1), second], "W0"))


class TestScale:
    def test_integer_scale(self):
        assert list(scale(make_weights([1, 2]), 3)) == [3, 6]

    def test_exact_scale(self):
        w = make_weights([Fraction(1, 2), Fraction(1, 3)])
        assert list(scale(w, 6)) == [3, 2]

    def test_identity(self):
        assert list(scale(make_weights([1, 1]), 1)) == [1, 1]

    def test_nonpositive_rejected(self):
        with pytest.raises(NonpositiveScale):
            scale(make_weights([1, 1]), 0)


class TestShuffle:
    def test_interleaves(self):
        assert shuffle([1, 2], [3, 4]) == [1, 3, 2, 4]

    def test_singletons(self):
        assert shuffle(["x"], ["y"]) == ["x", "y"]

    def test_empty(self):
        assert shuffle([], []) == []

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            shuffle([1], [2, 3])

    @given(st.lists(st.integers(), max_size=10), st.lists(st.integers(), max_size=10))
    def test_length_doubles(self, a, b):
        if len(a) != len(b):
            with pytest.raises(LengthMismatch):
                shuffle(a, b)
        else:
            out = shuffle(a, b)
            assert len(out) == 2 * len(a)
            assert out[::2] == list(a)
            assert out[1::2] == list(b)


class TestClearDenominators:
    def test_halves_thirds(self):
        w = make_weights([Fraction(1, 2), Fraction(1, 3)])
        assert list(clear_denominators(w)) == [3, 2]

    def test_already_integral(self):
        assert list(clear_denominators(make_weights([1, 2]))) == [1, 2]

    def test_single(self):
        assert list(clear_denominators(make_weights([Fraction(5, 7)]))) == [5]

    def test_float_mode_rejected(self):
        with pytest.raises(ValueError):
            clear_denominators(make_weights([0.5, 0.5]))

    @given(st.lists(st.fractions(min_value=0, max_value=5, max_denominator=12),
                    min_size=1, max_size=7))
    def test_integerness_and_scale_equivalence(self, entries):
        entries = [e for e in entries]
        if not any(e > 0 for e in entries):
            entries.append(Fraction(1, 4))
        w = make_weights(entries)
        cleared = clear_denominators(w)
        assert all(v.denominator == 1 for v in cleared)
        ratios = {v / e for v, e in zip(cleared, w) if e != 0}
        assert len(ratios) <= 1  # one common scale factor


class TestParsing:
    def test_rational_literals(self):
        w = weights_from_strings(["1/2", "0.25", "3"])
        assert list(w) == [Fraction(1, 2), Fraction(1, 4), 3]

    def test_float_parsing(self):
        w = weights_from_strings(["1/2", "0.25"], exact=False)
        assert w.mode == "float"
        assert list(w) == [0.5, 0.25]
