"""Weight vectors: validation, partial sums, ratio condition, algebra."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kedlaya.errors import (
    AllZero,
    FirstWeightZero,
    LengthMismatch,
    KedlayaError,
    NegativeWeight,
    NonfiniteWeight,
    FloatOverflow,
    NonpositiveScale,
    ZeroDenominator,
)
from kedlaya.weights import (
    integers_over_lcm,
    is_in_V,
    make_weights,
    partial_sums,
    scalar_from_string,
    scale,
    shuffle,
    weights_from_strings,
)


def _fraction_path(s: str):
    """A float literal as every one was parsed before the float() fast path,
    a zero denominator named as ``scalar_from_string`` names it.  A decimal
    literal (one that ``float`` reads) that is zero, or whose leading digit
    lies beyond ``10^±400`` (outside the float range either way), is decided
    from its ``Decimal``, which does not build ``10**exponent`` as
    ``Fraction`` does.  ``Decimal`` alone also reads ``0_``."""
    s = s.strip()
    try:
        float(s)
        d = Decimal(s)
    except (ValueError, ArithmeticError):  # not a decimal literal
        d = Decimal("nan")
    if d.is_finite() and (d.is_zero() or abs(d.adjusted()) > 400):
        if d.is_zero():
            return 0.0
        if d.adjusted() > 0:
            raise FloatOverflow(f"{s} is beyond the float range")
        return -0.0 if d.is_signed() else 0.0
    try:
        value = Fraction(s)
    except ZeroDivisionError:
        raise ZeroDenominator(f"{s} has a zero denominator") from None
    try:
        return float(value)
    except OverflowError:
        raise FloatOverflow(f"{s} is beyond the float range") from None


def _outcome(parse, s: str):
    """The value's bits (sign included), or the exception's type and message."""
    try:
        value = parse(s)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    return type(value), value.hex()


_LITERALS = st.one_of(
    st.floats().map(repr),
    st.floats().map(lambda v: f"{v:.6g}"),
    st.fractions().map(str),
    st.decimals(allow_nan=False, allow_infinity=False).map(str),
    st.integers(-10 ** 30, 10 ** 30).map(lambda k: f"{k}e{k % 700 - 350}"),
    st.sampled_from(["-0", "+0.0", "0/5", "-0e9", "1e400", "-1e400", "1e-400", "-1e-400",
                     "inf", "-Infinity", "nan", "1/0", "1_000.5", "1__0", " 2.5 ", "\u0661\u0662",
                     "0x10", "1.5e", "5.", ".5", "", "+", "3/-4", "-3/4", " 1/3 "]),
    st.text(alphabet="0123456789+-./eE_ xinfa", max_size=12),
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

    def test_float_mode(self):
        w = make_weights([0.1, 0.2, 0.3])
        assert partial_sums(w) == (0.1, 0.1 + 0.2, 0.1 + 0.2 + 0.3)


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


def _ratio_oracle(w) -> bool:
    """The ratio test in plain Fraction arithmetic, one entry at a time."""
    vals = [Fraction(v) for v in w.entries]
    if not vals[0] > 0:
        raise FirstWeightZero("ratio test requires a class-W0 vector")
    acc = vals[0]
    for k in range(len(vals) - 1):
        nxt = acc + vals[k + 1]
        if vals[k] * nxt < vals[k + 1] * acc:
            return False
        acc = nxt
    return True


def _from_ratios(ratios) -> list:
    """Weights ``(1, w_2, ...)`` whose ratios ``w_k / cumsum_k`` are ``ratios``."""
    lam, acc = [Fraction(1)], Fraction(1)
    for r in ratios:
        acc /= 1 - r
        lam.append(r * acc)
    return lam


_WIDE_FLOATS = st.floats(min_value=1e-300, max_value=1e300)
_SUBNORMALS = st.floats(min_value=5e-324, max_value=2.0 ** -1022,
                        exclude_max=True, allow_subnormal=True)
# ratios 1 - 2^-k: every 1 / (1 - r) is a power of two, so the weights are
# dyadic and exact in floats as well
_DYADIC_RATIOS = st.sampled_from([1 - Fraction(1, 2 ** k) for k in range(1, 7)])


class TestIntegerRatioTest:
    """``is_in_V`` scales to integers; a Fraction cross-multiplication is
    the oracle in both modes."""

    @given(st.lists(st.one_of(_WIDE_FLOATS, _SUBNORMALS, st.just(0.0)),
                    min_size=1, max_size=12),
           st.booleans())
    def test_floats_wide_and_subnormal(self, entries, descending):
        if descending:  # nonincreasing weights are always in V
            entries.sort(reverse=True)
        assume(entries[0] > 0)
        w = make_weights(entries, "W0")
        assert is_in_V(w) == _ratio_oracle(w)

    @given(st.lists(st.fractions(min_value=0, max_value=50, max_denominator=97),
                    min_size=1, max_size=12),
           st.booleans())
    def test_rationals(self, entries, descending):
        if descending:
            entries.sort(reverse=True)
        assume(entries[0] > 0)
        w = make_weights(entries, "W0")
        assert is_in_V(w) == _ratio_oracle(w)

    @given(st.lists(_DYADIC_RATIOS, min_size=1, max_size=10),
           st.integers(0, 4), st.booleans())
    def test_ties_and_zero_tails_pass(self, ratios, zeros, as_float):
        ratios = sorted(ratios + ratios[:1], reverse=True)  # at least one tie
        entries = _from_ratios(ratios) + [Fraction(0)] * zeros
        if as_float:
            entries = [float(e) for e in entries]
            assert [Fraction(e) for e in entries] == _from_ratios(ratios) + [0] * zeros
        w = make_weights(entries, "W0")
        assert is_in_V(w) and _ratio_oracle(w)

    @given(st.lists(_DYADIC_RATIOS, min_size=2, max_size=10), st.booleans())
    def test_one_larger_ratio_fails(self, ratios, as_float):
        ratios.sort(reverse=True)
        assume(ratios[-1] < ratios[0])
        ratios.append(ratios[0])  # the last ratio climbs back up
        entries = _from_ratios(ratios)
        w = make_weights([float(e) for e in entries] if as_float else entries, "W0")
        assert not is_in_V(w) and not _ratio_oracle(w)

    @pytest.mark.parametrize("entries", [[0, 1], [Fraction(0), Fraction(1, 3)],
                                         [0.0, 1e-300], [0.0, 5e-324, 1.0]])
    def test_first_weight_zero(self, entries):
        w = make_weights(entries, "W")
        for test in (is_in_V, _ratio_oracle):
            with pytest.raises(FirstWeightZero):
                test(w)


class TestMakeWeightsErrors:
    """Every rejection keeps its exception type and message."""

    @pytest.mark.parametrize("entries, cls, error, message", [
        ([1.0, Fraction(1, 2)], "W", ValueError,
         "cannot mix float and exact-rational weight entries"),
        ([Fraction(1, 2), 0.5], "W", ValueError,
         "cannot mix float and exact-rational weight entries"),
        ([1, -2], "W", NegativeWeight, "negative weight -2"),
        ([Fraction(1, 3), Fraction(-2, 5)], "W", NegativeWeight, "negative weight -2/5"),
        ([Fraction(-1, 2)], "W0", NegativeWeight, "negative weight -1/2"),
        ([1.0, -0.5], "W", NegativeWeight, "negative weight -0.5"),
        ([0, 0], "W", AllZero, "weights sum to zero"),
        ([Fraction(0), Fraction(0)], "W", AllZero, "weights sum to zero"),
        ([0.0, 0.0], "W", AllZero, "weights sum to zero"),
        ([1.0, math.nan], "W", NonfiniteWeight, "non-finite weight in [1.0, nan]"),
        ([math.inf, 1.0], "W", NonfiniteWeight, "non-finite weight in [inf, 1.0]"),
        ([-math.inf], "W", NonfiniteWeight, "non-finite weight in [-inf]"),
        ([], "W", AllZero, "weight vector must be nonempty"),
        ([0, 1], "W0", FirstWeightZero, "first weight must be positive in class W0"),
        ([Fraction(0), Fraction(1, 2)], "W0", FirstWeightZero,
         "first weight must be positive in class W0"),
        ([0.0, 1.0], "W0", FirstWeightZero, "first weight must be positive in class W0"),
        ([1], "W1", ValueError, "unknown weight class 'W1' (expected 'W' or 'W0')"),
    ])
    def test_error_and_message(self, entries, cls, error, message):
        with pytest.raises(error) as info:
            make_weights(entries, cls)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_fraction_entries_are_kept(self):
        entries = [Fraction(3, 4), Fraction(1, 4)]
        w = make_weights(entries, "W0")
        assert all(kept is given for kept, given in zip(w.entries, entries))
        assert w.mode == "rational"

    def test_integers_become_fractions(self):
        w = make_weights([True, 2, Fraction(1)], "W0")
        assert w.entries == (1, 2, 1)
        assert all(type(e) is Fraction for e in w.entries)


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
    """``integers_over_lcm``, the numerators over the lcm of the denominators
    that the exact ratio test and the proof geometry scale to."""

    def test_halves_thirds(self):
        assert integers_over_lcm([Fraction(1, 2), Fraction(1, 3)]) == ([3, 2], 6)

    def test_already_integral(self):
        assert integers_over_lcm(make_weights([1, 2]).entries) == ([1, 2], 1)

    def test_single(self):
        assert integers_over_lcm([Fraction(5, 7)]) == ([5], 7)

    @given(st.lists(st.fractions(min_value=0, max_value=5, max_denominator=12),
                    min_size=1, max_size=7))
    def test_integerness_and_scale_equivalence(self, entries):
        if not any(e > 0 for e in entries):
            entries.append(Fraction(1, 4))
        w = make_weights(entries)
        cleared, lcm = integers_over_lcm(w.entries)
        assert all(type(v) is int for v in cleared)
        assert [Fraction(v, lcm) for v in cleared] == list(w)  # one common scale factor


class TestParsing:
    def test_rational_literals(self):
        w = weights_from_strings(["1/2", "0.25", "3"])
        assert list(w) == [Fraction(1, 2), Fraction(1, 4), 3]

    def test_float_parsing(self):
        w = weights_from_strings(["1/2", "0.25"], exact=False)
        assert w.mode == "float"
        assert list(w) == [0.5, 0.25]

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("s", ["1/0", " 2/0 ", "-3/0", "0/0"])
    def test_zero_denominator_is_typed_and_names_the_literal(self, s, exact):
        with pytest.raises(ZeroDenominator) as info:
            scalar_from_string(s, exact=exact)
        assert isinstance(info.value, KedlayaError)
        assert isinstance(info.value, ZeroDivisionError)
        assert str(info.value) == f"{s.strip()} has a zero denominator"

    @settings(max_examples=1500)
    @given(_LITERALS)
    @example("0E1000000")  # 10**1000000 took 0.2 s to build, against the 200 ms deadline
    @example("-1e-1000000")
    @example("1e1000000")
    @example("0_")
    def test_float_fast_path_parses_as_the_fraction_path(self, s):
        assert _outcome(lambda t: scalar_from_string(t, exact=False), s) == \
            _outcome(_fraction_path, s)
