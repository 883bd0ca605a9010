"""kedlaya.elementary: log and exp from IEEE arithmetic alone.

The scalar functions and their array forms give the same bits on C- and
Fortran-ordered arrays and on strided views; both are within their stated
ulp bounds of mpmath at 50 digits; the scalar functions raise what
``math.log`` and ``math.exp`` raise; and the table literals are the values
they stand for.
"""

import hashlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kedlaya import elementary
from kedlaya.elementary import exp, log

# Worst errors in ulps of the exact value: measured 0.51 for log and 0.55 for
# exp on 2e5 values each over the float range, near 1 and near the table
# points, and 0.76 where exp is subnormal (its last product rounds twice).
LOG_ULPS = EXP_ULPS = 0.6
SUBNORMAL_EXP_ULPS = 1.0

_TINY = sys.float_info.min  # the least normal float
_LOG_ARGS = st.floats(min_value=5e-324, max_value=sys.float_info.max)
_EXP_ARGS = st.floats(min_value=-750.0, max_value=750.0)


def _as_array(f, v: float) -> float:
    """``f(v)`` as its array form gives it: inf where ``f`` raises
    OverflowError, -inf at 0 and NaN below where ``f`` raises ValueError."""
    try:
        return f(v)
    except OverflowError:
        return math.inf
    except ValueError:
        return -math.inf if v == 0.0 else math.nan


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    both_nan = np.isnan(got) & np.isnan(want)
    return bool(np.all(both_nan | (got.view(np.int64) == want.view(np.int64))))


@pytest.mark.kernel_parity
class TestParity:
    """The array form of each function gives each element the scalar's bits."""

    @staticmethod
    def _check(f, values: list) -> None:
        want = np.array([_as_array(f, v) for v in values])
        flat = np.array(values)
        assert _same_bits(f.array(flat), want)
        if len(values) % 2 == 0:  # two rows, in C and in Fortran order
            grid = flat.reshape(2, -1)
            for a in (np.ascontiguousarray(grid), np.asfortranarray(grid)):
                got = f.array(a)
                assert got.shape == a.shape and _same_bits(got.ravel(order="C"), want)
        wide = np.repeat(flat, 3)  # every third element: a strided view
        assert _same_bits(f.array(wide[1::3]), want)

    @given(st.lists(_LOG_ARGS | st.sampled_from([0.0, -1.0, math.inf, math.nan, 5e-324]),
                    min_size=1, max_size=40))
    @example([1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53, 0.5, 2.0])
    def test_log(self, values):
        self._check(log, values)

    @given(st.lists(_EXP_ARGS | st.sampled_from([math.inf, -math.inf, math.nan, 1e300, -1e300]),
                    min_size=1, max_size=40))
    @example([709.782712893384, 709.7827128933841, -745.1332191019411, -745.1332191019412])
    def test_exp(self, values):
        self._check(exp, values)


def test_the_array_namespace_takes_a_function_s_array_form():
    """``deviation.ARRAYS.map`` and ``call`` use ``f.array`` where ``f`` has
    one, and call any other ``f`` on each element."""
    from kedlaya.deviation import ARRAYS

    def f(v):
        raise AssertionError("the scalar form was called")

    f.array = lambda v: v + 7.0
    v = np.ones((2, 3))
    assert ARRAYS.map(f, v).tolist() == ARRAYS.call(f, v).tolist() == [[8.0] * 3] * 2
    assert ARRAYS.map(lambda t: t + 1.0, v).tolist() == [[2.0] * 3] * 2


def _ulps(f, x: float, exact) -> tuple:
    """The distance of ``f(x)`` from the value ``exact(mpmath, x)`` computes
    at 50 digits, in units of the last place of that value's binade (the
    subnormal spacing at least), and the value."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        y = exact(mpmath, x)
        _, e = mpmath.frexp(y)
        unit = max(mpmath.ldexp(1, e - 53), mpmath.ldexp(1, -1074))
        return float(abs(mpmath.mpf(f(x)) - y) / unit), y


class TestAccuracy:
    """Against mpmath at 50 digits."""

    @given(_LOG_ARGS)
    @example(5e-324)
    @example(2.2250738585072009e-308)  # the greatest subnormal
    @example(1.0 + 2.0 ** -52)
    @example(1.0 - 2.0 ** -52)
    @example(1.0 - 2.0 ** -53)
    @example(1.0078015423269573)
    @example(sys.float_info.max)
    def test_log(self, x):
        assert _ulps(log, x, lambda mp, v: mp.log(v))[0] <= LOG_ULPS

    @given(_EXP_ARGS.filter(lambda v: v < 709.782712893384))
    @example(709.782712893384)  # the greatest argument with a finite exp
    @example(-708.3964185322641)  # exp just above the least normal float
    @example(-708.4286963310836)
    @example(-745.1332191019411)  # the least argument with a nonzero exp
    @example(-745.1332191019412)
    @example(2.0 ** -60)
    @example(-0.01120876952932448)
    def test_exp(self, x):
        err, exact = _ulps(exp, x, lambda mp, v: mp.exp(v))
        assert err <= (EXP_ULPS if exact >= _TINY else SUBNORMAL_EXP_ULPS)


def _outcome(f, v):
    """The result's bits, or the exception's type and message."""
    try:
        y = f(v)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    return "nan" if math.isnan(y) else y.hex()


@pytest.mark.parametrize("v", [0.0, -0.0, -1.0, -5e-324, -math.inf, math.inf, math.nan])
def test_log_raises_what_math_log_raises(v):
    assert _outcome(log, v) == _outcome(math.log, v)


@pytest.mark.parametrize("v", [3, 2 ** 60 + 1, 10 ** 400, 0, -10 ** 400, Fraction(1, 3),
                               Fraction(10 ** 400), Fraction(1, 10 ** 400), Fraction(-1, 10 ** 400)])
def test_log_of_exact_numbers_is_math_log_s(v):
    assert _outcome(log, v) == _outcome(math.log, v)


@pytest.mark.parametrize("v", [709.782712893384, 709.7827128933841, 709.9, 710.0, 1e300,
                               math.inf, -math.inf, math.nan, -745.1332191019412, -746.0,
                               -1e300])
def test_exp_raises_what_math_exp_raises(v):
    assert _outcome(exp, v) == _outcome(math.exp, v)


class TestTables:
    """Each literal is the value it stands for, with the lead's trailing zeros."""

    @pytest.fixture
    def _digits(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            yield mpmath

    @staticmethod
    def _pair_is(mpmath, lead: float, trail: float, value, lead_step: float) -> None:
        """``lead`` is ``value`` to the nearest multiple of ``lead_step`` (or the
        nearest float, if 0), and ``trail`` the nearest float to the rest."""
        if lead_step:
            assert lead == float(mpmath.nint(value / lead_step) * lead_step)
        else:
            assert lead == float(value)
        assert trail == float(value - mpmath.mpf(lead))

    def test_ln2(self, _digits):
        self._pair_is(_digits, *elementary._LN2, _digits.log(2), 2.0 ** -43)
        self._pair_is(_digits, *elementary._LN2_32, _digits.log(2) / 32, 2.0 ** -43)
        assert elementary._INV_LN2_32 == float(32 / _digits.log(2))

    def test_log_table(self, _digits):
        pairs = elementary._LOG_TABLE
        assert len(pairs) == 2 * 65
        for j, lead, trail in zip(range(64, 129), pairs[0::2], pairs[1::2]):
            self._pair_is(_digits, lead, trail, _digits.log(_digits.mpf(j) / 128), 2.0 ** -43)

    def test_exp_table(self, _digits):
        pairs = elementary._EXP_TABLE
        assert len(pairs) == 2 * 32
        for j, lead, trail in zip(range(32), pairs[0::2], pairs[1::2]):
            self._pair_is(_digits, lead, trail, _digits.power(2, _digits.mpf(j) / 32), 0.0)


def _digest(y: np.ndarray) -> str:
    """sha256 of the bytes of ``y``, every NaN the same NaN."""
    return hashlib.sha256(np.where(np.isnan(y), math.nan, y).tobytes()).hexdigest()


def _near(v: np.ndarray, ulps: int) -> np.ndarray:
    """``v`` and the floats up to ``ulps`` steps either side of each element."""
    bits = v.view(np.int64)
    return np.concatenate([(bits + k).view(float) for k in range(-ulps, ulps + 1)])


def _log_pin_args() -> np.ndarray:
    """Over 1e5 arguments: bit patterns over the positive floats, subnormals,
    values near 1, the table points ``j / 128`` and the ties of ``rint(128
    mant)`` at every exponent, with their neighbours, and the edge cases."""
    rng = np.random.default_rng(2017)
    j = rng.integers(64, 129, 4000)
    ties = rng.integers(64, 128, 4000) * 2 + 1  # mant = (2j + 1) / 256
    return np.concatenate([
        rng.integers(1, 0x7FF0000000000000, 40000).view(float),
        rng.integers(1, 2 ** 52, 2000).view(float),
        1.0 + rng.uniform(-1.0, 1.0, 20000) * np.exp2(-rng.integers(1, 54, 20000)),
        _near(np.ldexp(j / 128.0, rng.integers(-1021, 1024, 4000)), 2),
        _near(np.ldexp(ties / 256.0, rng.integers(-1021, 1024, 4000)), 2),
        [0.0, -0.0, math.inf, -math.inf, math.nan, -1.0, -5e-324, 5e-324, _TINY,
         sys.float_info.max, 1.0, 0.5, 2.0],
    ])


def _exp_pin_args() -> np.ndarray:
    """Over 1e5 arguments: uniform over ``(-750, 750)``, the points ``n ln2 /
    32`` and the boundaries ``(n + 1/2) ln2 / 32`` of ``rint``, with their
    neighbours, arguments with subnormal results, near 0 and near overflow,
    and the edge cases."""
    rng = np.random.default_rng(2017)
    n = rng.integers(-34440, 32768, 5000) + rng.integers(0, 2, 5000) / 2.0
    return np.concatenate([
        rng.uniform(-750.0, 750.0, 40000),
        _near(n * (math.log(2.0) / 32.0), 2),
        rng.uniform(-745.2, -708.3, 15000),
        rng.choice([-1.0, 1.0], 10000) * np.ldexp(rng.uniform(0.5, 1.0, 10000),
                                                   rng.integers(-1073, 0, 10000)),
        rng.uniform(709.0, 710.0, 12000),
        [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 709.782712893384,
         709.7827128933841, -745.1332191019411, -745.1332191019412, -746.0, 710.0,
         -708.3964185322641, 1.0, -1.0],
    ])


@pytest.mark.kernel_parity
class TestBitPins:
    """Each function's bits on over 1e5 seeded arguments, scalar and array: the
    parity tests above cannot see a change that moves both forms alike.
    Each digest was recorded before the array forms worked in place."""

    @pytest.mark.parametrize("f, args, pin", [
        (log, _log_pin_args, "c256466b1c1529a153db2d15e4d4fabb4e731951513758f3667336dca3082f29"),
        (exp, _exp_pin_args, "32a610b74cefdd3bb730088616bb93caeb9fab4dc0c864546cdbc024633fb2e2"),
    ])
    def test_digest(self, f, args, pin):
        values = args()
        assert len(values) > 100000
        assert _digest(f.array(values)) == pin
        assert _digest(np.array([_as_array(f, v) for v in values.tolist()])) == pin
