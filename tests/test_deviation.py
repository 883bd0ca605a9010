"""Deviation solver and closed forms, cross-checked against each other."""

import hashlib
import math
import sys
import warnings
from types import ModuleType

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kedlaya import deviation as dev
from kedlaya.deviation import (
    ARRAYS,
    DEFAULT_TOL,
    FLOATS,
    GINI21_FORM,
    DeviationSpec,
    GeneratorSpec,
    exact_prefix_sums,
    gini,
    gini_form,
    gini21_counterexample,
    homogeneous_deviation,
    homogeneous_deviation_prefixes,
    homogeneous_deviation_rows,
    log_generator,
    power_generator,
    power_mean,
    quasi_arithmetic,
    shifted_power,
    solve_deviation_mean,
)
from kedlaya.domain import POSITIVE, REALS
from kedlaya.errors import (
    DomainViolation,
    FloatOverflow,
    GeneratorOverflow,
    InvalidDeviation,
    InvalidGenerator,
    KedlayaError,
    MaxIterations,
    SolverFailure,
)
from kedlaya.means import (MeanHandle, _filled, evaluate, evaluate_prefixes, evaluate_rows,
                           mean_from_id)


def diff_spec(f, label, increasing=True):
    """Deviation built from a generator difference.

    ``E(x, y) = f(x) - f(y)`` for increasing ``f``; a decreasing ``f``
    needs the opposite orientation to satisfy the sign convention (the
    root is the same).
    """
    if increasing:
        return DeviationSpec(lambda x, y: f(x) - f(y), domain=POSITIVE, label=label)
    return DeviationSpec(lambda x, y: f(y) - f(x), domain=POSITIVE, label=label)


class TestSolver:
    def test_linear_deviation_is_arithmetic(self):
        spec = DeviationSpec(lambda x, y: x - y, domain=REALS, label="linear")
        assert solve_deviation_mean(spec, (1, 3), (1, 1)) == pytest.approx(2, abs=1e-11)

    def test_log_deviation_is_geometric(self):
        spec = diff_spec(math.log, "log-diff")
        got = solve_deviation_mean(spec, (1, 4), (1, 1))
        assert got == pytest.approx(power_mean(0.0, (1, 4), (1, 1)), abs=1e-10)
        assert got == pytest.approx(2.0, abs=1e-10)

    def test_square_deviation_weighted(self):
        spec = diff_spec(lambda t: t * t, "square-diff")
        got = solve_deviation_mean(spec, (1, 2), (1, 3))
        assert got == pytest.approx(math.sqrt(3.25), abs=1e-10)

    def test_constant_short_circuit(self):
        spec = diff_spec(math.log, "log-diff")
        assert solve_deviation_mean(spec, (2.5, 2.5, 2.5), (1, 2, 3)) == 2.5

    def test_invalid_spec_rejected_at_construction(self):
        with pytest.raises(InvalidDeviation):
            DeviationSpec(lambda x, y: y - x, domain=POSITIVE, label="flipped")
        with pytest.raises(InvalidDeviation):
            DeviationSpec(lambda x, y: x - y + 1.0, domain=POSITIVE, label="shifted")

    def test_runtime_sign_failure(self):
        # increasing on the sampled window, turns around far outside it
        def f(t):
            return t if t <= 500 else 1000.0 - t

        spec = diff_spec(f, "turncoat")
        with pytest.raises(SolverFailure):
            solve_deviation_mean(spec, (2000.0, 3000.0), (1, 1))

    def test_iteration_cap(self, monkeypatch):
        # a stop width below float resolution can never be met (the root
        # sqrt(5) does not land on a float where the total evaluates to 0)
        monkeypatch.setattr(dev, "DEFAULT_TOL", 1e-300)
        spec = diff_spec(math.log, "log-diff")
        with pytest.raises(MaxIterations):
            solve_deviation_mean(spec, (1, 5), (1, 1))

    def test_oracle_equivalence_random(self):
        # solver with E = f(x) - f(y) against the closed form, several f
        rng = np.random.default_rng(5)
        gens = [log_generator(), power_generator(2.0), power_generator(0.5),
                power_generator(-1.0)]
        specs = [diff_spec(g.f, g.label, increasing=(g.label != "qa:pow:-1"))
                 for g in gens]
        for _ in range(300):
            n = int(rng.integers(2, 9))
            x = tuple(float(v) for v in np.exp(rng.uniform(np.log(0.1), np.log(10), n)))
            w = tuple(float(v) for v in rng.uniform(0.1, 5, n))
            k = int(rng.integers(0, len(gens)))
            direct = quasi_arithmetic(gens[k], x, w)
            solved = solve_deviation_mean(specs[k], x, w)
            assert abs(direct - solved) <= 1e-9 * (1 + abs(direct))


class TestQuasiArithmetic:
    def test_identity_generator(self):
        gen = power_generator(1.0)
        assert quasi_arithmetic(gen, (2, 4), (1, 1)) == pytest.approx(3, abs=1e-12)

    def test_log_generator(self):
        assert quasi_arithmetic(log_generator(), (1, 4), (1, 1)) == pytest.approx(2, abs=1e-12)

    def test_square_generator(self):
        got = quasi_arithmetic(power_generator(2.0), (1, 2), (3, 1))
        assert got == pytest.approx(math.sqrt(7 / 4), rel=1e-12)

    def test_domain_enforced(self):
        with pytest.raises(DomainViolation):
            quasi_arithmetic(log_generator(), (1, -1), (1, 1))

    def test_bad_inverse_rejected(self):
        with pytest.raises(InvalidGenerator):
            GeneratorSpec(math.log, lambda y: y, domain=POSITIVE, label="broken")

    @pytest.mark.parametrize("f", [lambda x: max(x - 1.0, 0.0), lambda x: 0.0],
                             ids=["flat-below-1", "zero"])
    def test_custom_generator_checked_at_every_probe_point(self, f):
        # a zero value is kept: only a built-in generator skips probe points
        with pytest.raises(InvalidGenerator, match="not strictly monotone"):
            GeneratorSpec(f, lambda y: y + 1.0, label="flat")

    def test_custom_generator_overflowing_at_a_probe_point(self):
        with pytest.raises(GeneratorOverflow, match="pow200: generator overflows at probe point"):
            GeneratorSpec(lambda x: x ** 200, lambda y: y ** (1 / 200), label="pow200")

    @pytest.mark.parametrize("p, x", [(160.0, (0.001, 0.002)), (160.0, (1.0, 0.01)),
                                      (-160.0, (1000.0, 2000.0)), (2.0, (2.0, 1e-160))])
    def test_power_generator_underflow_raises_at_the_entry(self, p, x):
        # 0.0 and subnormal powers: 0.001 ** 160 underflows to 0, 0.01 ** 160 is 1e-320
        entry = next(xi for xi in x if xi ** p < sys.float_info.min)
        with pytest.raises(GeneratorOverflow,
                           match=f"^qa:pow:{p:g}: generator underflows at entry {entry}$"):
            quasi_arithmetic(power_generator(p), x, (1, 1))

    def test_finite_sum_with_an_overflowing_partial(self):
        # fsum raises on this finite sum: a partial half an ulp below 2^1024
        # rounds up to inf, though the exact sum is below 2^1023
        x = [-(2.0 ** 1023 + 2.0 ** 972), 2.0 ** 970, sys.float_info.max]
        identity = GeneratorSpec(lambda v: v, lambda y: y, domain=REALS)
        got = quasi_arithmetic(identity, x, [1, 1, 1])
        assert got == evaluate(mean_from_id("arithmetic"), x, [1, 1, 1]) == 2.996155224770525e+307

    def test_overflowing_sum_keeps_its_error(self):
        identity = GeneratorSpec(lambda v: v, lambda y: y, domain=REALS, label="identity")
        with pytest.raises(GeneratorOverflow, match="identity: weighted sum of the generator"):
            quasi_arithmetic(identity, [sys.float_info.max, 2.0 ** 1022], [1, 1])


NEGATIVE_EQUAL_PS = [-0.5, -1.0, -2.0, -7.0]
WIDE_CASES = [
    ((1e300, 1e-300), (1, 1)),
    ((1.0, 1e-310), (1, 1)),
    ((1e-300, 2e-300, 5e-300), (1, 2, 3)),
    ((1e300, 3e299, 1e-300, 1.0), (2, 1, 1, 5)),
    ((1e-10, 1.5, 1e154), (1, 1, 1)),
    ((0.3, 4.0, 17.0), (1, 2, 1)),
]


class TestGini:
    def test_parameters_one_zero_is_arithmetic(self):
        assert gini(1, 0, (1, 3), (1, 1)) == pytest.approx(2, rel=1e-12)

    def test_contraharmonic_point(self):
        assert gini(2, 1, (1, 2), (1, 1)) == pytest.approx(5 / 3, rel=1e-12)

    def test_equal_parameter_branch(self):
        e2 = math.e ** 2
        expected = math.exp((1 * 1 * 0 + 1 * e2 * 2) / (1 + e2))
        assert gini(1, 1, (1.0, e2), (1, 1)) == pytest.approx(expected, rel=1e-12)

    def test_symmetry_in_parameters(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            x = tuple(float(v) for v in rng.uniform(0.2, 8, n))
            w = tuple(float(v) for v in rng.uniform(0.1, 3, n))
            p, q = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
            a, b = gini(p, q, x, w), gini(q, p, x, w)
            assert abs(a - b) <= 1e-12 * (1 + abs(a))

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainViolation):
            gini(2, 1, (0.0, 1.0), (1, 1))

    def test_rejects_infinite_entries(self):
        with pytest.raises(DomainViolation, match="outside domain"):
            gini(2, 1, (math.inf, 1.0), (1, 1))

    @pytest.mark.kernel_parity
    @pytest.mark.parametrize("p", NEGATIVE_EQUAL_PS)
    @pytest.mark.parametrize("x, w", WIDE_CASES)
    def test_equal_negative_parameters_scale_by_min(self, p, x, w):
        # scaled by max(x), 1e-300 against 1e300 underflowed to 0.0 ** p
        got = gini(p, p, x, w)
        # within min(x)..max(x) up to the rounding of exp(mean log), ~1e-14 here
        assert math.isfinite(got) and min(x) * (1 - 1e-13) <= got <= max(x) * (1 + 1e-13)
        mean = MeanHandle.gini(p, p)
        assert evaluate_prefixes(mean, list(x), [float(v) for v in w])[-1] == got
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = evaluate_rows(mean, np.array([x]), np.array([w], dtype=float))[0]
        assert abs(row - got) <= 1e-13 * got

    @pytest.mark.parametrize("p", NEGATIVE_EQUAL_PS)
    @pytest.mark.parametrize("x, w", WIDE_CASES)
    def test_equal_negative_parameters_against_mpmath(self, p, x, w):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            xs, ws = [mpmath.mpf(v) for v in x], [mpmath.mpf(v) for v in w]
            den = mpmath.fsum(wi * xi ** p for xi, wi in zip(xs, ws))
            num = mpmath.fsum(wi * xi ** p * mpmath.log(xi) for xi, wi in zip(xs, ws))
            want = mpmath.exp(num / den)
            err = float(abs(gini(p, p, x, w) - want) / want)
        # exp amplifies the rounding of the mean log by |log M|: ~1e-13 at 1e-300
        assert err <= 4 * (1 + abs(math.log(float(want)))) * sys.float_info.epsilon


@st.composite
def _one_scale_means(draw):
    """``p`` and ``q`` of one sign (or one of them 0) in [-4, 4], at least
    1e-3 apart, and up to 12 entries within a factor 1e+-8 of a centre over
    1e+-300, with weights over 1e+-15."""
    sign = draw(st.sampled_from([1.0, -1.0]))
    p = sign * draw(st.floats(0.0, 4.0))
    q = sign * draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
    assume(abs(p - q) >= 1e-3)
    n = draw(st.integers(1, 12))
    centre = draw(st.floats(-292.0, 292.0))
    x = [10.0 ** (centre + v) for v in draw(st.lists(st.floats(-8.0, 8.0), min_size=n,
                                                      max_size=n))]
    w = [10.0 ** v for v in draw(st.lists(st.floats(-15.0, 15.0), min_size=n, max_size=n))]
    return p, q, x, w


# entries 1e-100 and 1 under p = 4, q = 0: the scale entry, 1, has 1e-310 of
# the weight sum, so S_p / S_q is subnormal and the scalar finisher takes the
# log form
_SUBNORMAL_QUOTIENT = (4.0, 0.0, [1e-100, 1.0], [1e10, 1e-300])


@settings(max_examples=300, deadline=None)
@given(_one_scale_means())
@example(_SUBNORMAL_QUOTIENT)
def test_one_scale_gini_against_mpmath(case):
    """``c (S_p / S_q)^(1/(p - q))``, on the scalar path and on rows, is within
    ``(2k + 2(|p| + |q|) + 16) / |p - q| + ln(max x / min x) / 2 + 8`` ulps of
    the mean at 50 digits: the sums' roundings and the rounding of each
    ``x / c`` raised to ``p`` or ``q``, divided by ``|p - q|``, and the
    rounding of ``1 / (p - q)``, which moves the power by up to half its
    ``|log|`` in ulps.  The log form loses about ``|p log c| / |p - q|`` ulps
    more, thousands near 1e+-300."""
    mpmath = pytest.importorskip("mpmath")
    p, q, x, w = case
    with mpmath.workdps(50):
        xs, ws = [mpmath.mpf(v) for v in x], [mpmath.mpf(v) for v in w]
        sp = mpmath.fsum(wi * xi ** p for xi, wi in zip(xs, ws))
        sq = mpmath.fsum(wi * xi ** q for xi, wi in zip(xs, ws))
        want = (sp / sq) ** (1 / (mpmath.mpf(p) - mpmath.mpf(q)))
        bound = ((2 * len(x) + 2 * (abs(p) + abs(q)) + 16) / abs(p - q)
                 + math.log(max(x) / min(x)) / 2 + 8) * math.ulp(float(want))
        mean = MeanHandle.gini(p, q)
        for got in (evaluate(mean, x, w), evaluate_rows(mean, np.array([x]), np.array([w]))[0]):
            assert abs(got - want) <= bound, (got, float(want))


def test_a_subnormal_quotient_takes_the_log_form():
    p, q, x, w = _SUBNORMAL_QUOTIENT
    form = gini_form(p, q)
    (sp, sq), (cp, cq) = dev._sums(form, x, w)
    assert 0.0 < sp / sq < sys.float_info.min
    assert gini(p, q, x, w) == math.exp(((p * math.log(cp) + math.log(sp))
                                         - (q * math.log(cq) + math.log(sq))) / (p - q))
    assert np.isnan(dev.closed_form_rows(form, np.array([x]), np.array([w]))).all()


def test_a_log_form_beyond_the_float_range_is_a_float_overflow():
    # the entries' ratio is beyond the float range, so the p-term of the larger
    # entry is 0.0 and the log form's exp overflows; every path raises the
    # scalar error, which names the mean and its entries
    x, w = [sys.float_info.max, 5e-324], [0.5, 1 / 3]
    want = ("gini:-1e-300:1: the mean of [1.7976931348623157e+308, 5e-324] "
            "overflows the float range")
    mean = MeanHandle.gini(-1e-300, 1.0)
    for call in (lambda: gini(-1e-300, 1.0, x, w), lambda: evaluate(mean, x, w),
                 lambda: evaluate_prefixes(mean, x, w),
                 lambda: evaluate_rows(mean, np.array([x]), np.array([w]))):
        with pytest.raises(FloatOverflow) as info:
            call()
        assert str(info.value) == want


class TestPowerMean:
    def test_arithmetic_point(self):
        assert power_mean(1, (1, 3), (1, 1)) == pytest.approx(2, rel=1e-12)

    def test_geometric_point(self):
        assert power_mean(0, (1, 4), (1, 1)) == pytest.approx(2, rel=1e-12)

    def test_harmonic_point(self):
        assert power_mean(-1, (1, 3), (1, 1)) == pytest.approx(1.5, rel=1e-12)

    def test_matches_two_parameter_family(self):
        rng = np.random.default_rng(3)
        for p in np.linspace(-3, 3, 25):
            x = tuple(float(v) for v in rng.uniform(0.2, 8, 4))
            w = tuple(float(v) for v in rng.uniform(0.1, 3, 4))
            a = power_mean(float(p), x, w)
            b = gini(float(p), 0.0, x, w)
            assert abs(a - b) <= 1e-12 * (1 + abs(a))

    def test_monotone_in_exponent(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            x = tuple(float(v) for v in np.exp(rng.uniform(np.log(0.1), np.log(10), n)))
            w = tuple(float(v) for v in rng.uniform(0.1, 3, n))
            ps = sorted(rng.uniform(-4, 4, 3))
            vals = [power_mean(float(p), x, w) for p in ps]
            assert vals[0] <= vals[1] + 1e-12
            assert vals[1] <= vals[2] + 1e-12

    def test_extreme_exponent_stable(self):
        v = power_mean(200.0, (0.5, 2.0, 1e-3), (1, 1, 1))
        assert math.isfinite(v)
        assert v <= 2.0 + 1e-9
        v = power_mean(-200.0, (0.5, 2.0, 1e-3), (1, 1, 1))
        assert math.isfinite(v)
        assert v >= 1e-3 - 1e-12

    def test_entry_homogeneity(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            x = tuple(float(v) for v in rng.uniform(0.2, 5, n))
            w = tuple(float(v) for v in rng.uniform(0.1, 3, n))
            t = float(rng.uniform(0.2, 5))
            p, q = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
            for fn in (lambda xs: power_mean(p, xs, w),
                       lambda xs: gini(p, q, xs, w),
                       lambda xs: gini21_counterexample(xs, w),
                       lambda xs: homogeneous_deviation(shifted_power(0.5), xs, w)):
                a = fn(tuple(t * xi for xi in x))
                b = t * fn(x)
                assert abs(a - b) <= 1e-10 * (1 + abs(b))


class TestHomogeneousDeviation:
    def test_log_reproduces_geometric(self):
        assert homogeneous_deviation(math.log, (1, 4), (1, 1)) == pytest.approx(2, abs=1e-10)

    def test_affine_reproduces_arithmetic(self):
        got = homogeneous_deviation(lambda t: t - 1.0, (1, 3), (1, 1))
        assert got == pytest.approx(2, abs=1e-10)

    def test_reciprocal_reproduces_harmonic(self):
        got = homogeneous_deviation(shifted_power(-1.0), (1, 3), (1, 1))
        assert got == pytest.approx(1.5, abs=1e-10)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_shifted_power_needs_a_finite_exponent(self, p):
        with pytest.raises(ValueError, match="is not finite"):
            shifted_power(p)

    def test_requires_unit_root(self):
        with pytest.raises(InvalidGenerator):
            homogeneous_deviation(lambda t: t, (1, 2), (1, 1))

    def test_matches_power_means(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            x = tuple(float(v) for v in rng.uniform(0.2, 8, n))
            w = tuple(float(v) for v in rng.uniform(0.1, 3, n))
            p = float(rng.uniform(-2, 2))
            a = homogeneous_deviation(shifted_power(p), x, w)
            b = power_mean(p, x, w)
            assert abs(a - b) <= 1e-9 * (1 + abs(b))

    @pytest.mark.kernel_parity
    @pytest.mark.parametrize("p, x", [(-2.0, [1e-170, 1e170]), (0.0, [1e-200, 1e200])])
    def test_ratio_underflow_is_a_float_overflow(self, p, x):
        # x_i / y underflows to 0 at y = hi, where 0^p or log 0 raises; every
        # entry point raises the scalar solver's error, which names both
        want = (FloatOverflow, f"homogeneous deviation: the ratio of entry {x[0]!r} "
                               f"to y={x[1]!r} underflows to 0")
        w = [1.0, 1.0]
        assert _outcome(lambda: homogeneous_deviation(shifted_power(p), x, w)) == want
        mean = mean_from_id(f"homdev:shifted-power:{p!r}")
        assert _outcome(lambda: evaluate(mean, x, w)) == want
        assert _outcome(lambda: evaluate_prefixes(mean, x, w)) == want
        assert _outcome(lambda: evaluate_rows(mean, np.array([x]), np.array([w]))) == want

    @pytest.mark.parametrize("p", [0.5, 1e-3, -1e-6, 1e-9, 1e-16, -1e-16, -5e-17, 1e-300, -1e-300,
                                   5e-324])
    @pytest.mark.parametrize("x, w", [([0.5, 2.0], [1.0, 1.0]), ([1.0, 2.0], [1.0, 1.0]),
                                      ([1.0, 3.0, 7.0], [1.0, 2.0, 3.0])])
    def test_near_zero_exponents_are_within_the_stop_width(self, p, x, w):
        # (t^p - 1) / p in its expm1 form has no plateau near p = 0: the root
        # is the power mean to the bisection's stop width, down to p = 5e-324
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            q = mpmath.mpf(p)
            s = sum(wi * mpmath.expm1(q * mpmath.log(xi)) for xi, wi in zip(x, w)) / sum(w)
            want = mpmath.exp(mpmath.log1p(s) / q)
        got = evaluate(mean_from_id(f"homdev:shifted-power:{p!r}"), x, w)
        assert abs(got - want) <= DEFAULT_TOL * (1.0 + got)

    def test_other_errors_of_f_propagate(self):
        # no ratio is 0: a caller's f keeps its own error
        def f(t):
            if t > 2.0:
                raise ValueError("f is undefined above 2")
            return t - 1.0

        with pytest.raises(ValueError, match="undefined above 2"):
            homogeneous_deviation(f, (1.0, 3.0), (1.0, 1.0))


class TestSolverCore:
    """Both solvers share one root finder; these pin its branches."""

    @pytest.mark.parametrize("p", [-1.0, 0.0, 0.5, 2.0])
    def test_homogeneous_equals_general_solver(self, p):
        # E(x, y) = f(x / y) decreases in y for every p, f = (t^p - 1) / p
        # being increasing, and gives the same total, so the roots agree bit
        # for bit
        f = shifted_power(p)
        spec = DeviationSpec(lambda x, y: f(x / y), label=f"homdev-{p}")
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            x = tuple(float(v) for v in np.exp(rng.uniform(np.log(0.1), np.log(10), n)))
            w = tuple(float(v) for v in rng.uniform(0.1, 5, n))
            assert homogeneous_deviation(f, x, w) == solve_deviation_mean(spec, x, w)

    def test_homogeneous_endpoint_root(self):
        assert homogeneous_deviation(math.log, (2.0, 8.0), (1.0, 0.0)) == 2.0

    def test_homogeneous_no_sign_change(self):
        with pytest.raises(SolverFailure):
            homogeneous_deviation(lambda t: (t - 1.0) ** 2, (1.0, 3.0), (1.0, 1.0))

    def test_a_nan_fails_typed(self):
        # a NaN f(1) fails the generator check; a NaN total at an end of the
        # bracket has no sign change, and one at a midpoint names the midpoint
        x, w = (1.0, 2.0), (1.0, 1.0)
        with pytest.raises(InvalidGenerator, match=r"f\(1\) = nan"):
            homogeneous_deviation(lambda t: math.nan, x, w)
        with pytest.raises(SolverFailure, match="no sign change"):
            homogeneous_deviation(lambda t: 0.0 if t == 1.0 else math.nan, x, w)
        with pytest.raises(SolverFailure, match=r"the total at y=1\.5 is NaN"):
            homogeneous_deviation(lambda t: math.nan if 0.6 < t < 0.7 else t - 1.0, x, w)

    @pytest.mark.parametrize("p", [1100.0, 2000.0, 5000.0])
    def test_powers_from_1024_are_the_power_mean(self, p):
        # f(2) = (2^p - 1) / p is beyond the float range; the kernels take
        # the generator as increasing, and the plain solver of 1 - t^p,
        # oriented by -f(1/2), finds the same root
        x, w = (1.0, 1.1), (1.0, 1.0)
        want = evaluate(mean_from_id(f"power:{p!r}"), x, w)
        got = evaluate(mean_from_id(f"homdev:shifted-power:{p!r}"), x, w)
        assert abs(got - want) <= 1e-12 * want
        assert homogeneous_deviation(lambda t: 1.0 - t ** p, x, w) == got

    @pytest.mark.kernel_parity
    def test_wide_bracket_converges(self):
        # about 370 halvings take [1e-100, 1e100] to the stop width at the
        # root 1, the geometric mean; the cap follows the bracket
        x, w = (1e-100, 1e100), (1.0, 1.0)
        y = homogeneous_deviation(math.log, x, w)
        assert abs(y - 1.0) < 2e-12
        assert solve_deviation_mean(diff_spec(math.log, "log-diff"), x, w) == y
        assert _lockstep_rows(0.0, np.array([x]), np.array([w]))[0] == y

    @pytest.mark.kernel_parity
    def test_cap_is_one_count_for_both_solvers(self):
        rng = np.random.default_rng(11)
        lo = np.exp(rng.uniform(np.log(1e-300), np.log(1e150), 2000))
        hi = lo * np.exp(rng.uniform(1e-15, np.log(1e150), 2000))
        caps = dev._max_halvings(lo, hi, lo)
        for a, b, cap in zip(lo.tolist(), hi.tolist(), caps.tolist()):
            assert int(dev._max_halvings(a, b, a)) == cap
            # the halvings without the slack reach the stop width
            halvings = cap - dev._BISECT_SLACK
            assert (b - a) * 2.0 ** -halvings <= DEFAULT_TOL * (1.0 + a)

    @pytest.mark.kernel_parity
    def test_rows_out_of_halvings_raise_the_scalar_error(self, monkeypatch):
        monkeypatch.setattr(dev, "_BISECT_SLACK", -10)
        rng = np.random.default_rng(2)
        # entries above 3 put 1 + lo in another binade than 1
        x = np.exp(rng.uniform(np.log(3.0), np.log(300.0), 6)).tolist()
        w = [1.0] * 6
        want = _outcome(lambda: [homogeneous_deviation(shifted_power(0.5), x[:k], w[:k])
                                 for k in range(2, 7)])
        assert want[0] is MaxIterations
        assert _outcome(lambda: _lockstep_prefixes(0.5, x, w)) == want

    @pytest.mark.kernel_parity
    def test_both_solvers_read_the_stop_width_at_call_time(self, monkeypatch):
        # a width below float resolution: every row but the constant one runs
        # out of halvings, and both raise the cap of the first such row
        monkeypatch.setattr(dev, "DEFAULT_TOL", 1e-300)
        x = np.array([[2.0, 2.0], [0.5, 3.0], [1e-2, 1e3]])
        w = np.ones_like(x)
        f = shifted_power(0.5)
        want = _outcome(lambda: [homogeneous_deviation(f, xi, wi)
                                 for xi, wi in zip(x.tolist(), w.tolist())])
        assert want == (MaxIterations,
                        "homogeneous deviation: bisection did not converge in 1062 iterations")
        assert _outcome(lambda: _lockstep_rows(0.5, x, w).tolist()) == want


def _lockstep_rows(p, x, w):
    """The lockstep kernel's rows as :func:`evaluate_rows` gives them: the
    kernel on ``x`` as the gate fills it (:func:`kedlaya.means._filled`),
    its NaN rows then taken, in row order, by the plain scalar solver of
    ``shifted_power(p)`` on the row's entries of nonzero weight, which raises
    the first failing row's error."""
    with np.errstate(all="ignore"):
        out = homogeneous_deviation_rows(p, _filled(x, w), w)
    for i in np.flatnonzero(~np.isfinite(out)).tolist():
        live = w[i] != 0.0
        out[i] = homogeneous_deviation(shifted_power(p), x[i, live].tolist(),
                                       w[i, live].tolist())
    return out


def _lockstep_prefixes(p, x, w):
    """Every prefix of length 2..n through the lockstep kernel, as a row with
    weight 0 past the prefix."""
    n = len(x)
    return _lockstep_rows(
        p, np.broadcast_to(np.array(x), (n - 1, n)),
        np.where(np.arange(n) <= np.arange(1, n)[:, None], np.array(w), 0.0)).tolist()


def _spread(x):
    """The column of each row's ``max x / min x``, as the lockstep hands it
    to the certificate."""
    return x.max(axis=1, keepdims=True) / x.min(axis=1, keepdims=True)


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)


@pytest.mark.kernel_parity
class TestLockstepBisection:
    """The lockstep kernel decides nearly every sign from the certificate:
    the scalar total, counted here, runs only inside its root interval."""

    @pytest.fixture
    def scalar_totals(self, monkeypatch):
        calls = [0]
        make_total = dev._homogeneous_total

        def counting(*args):
            total = make_total(*args)

            def counted(y):
                calls[0] += 1
                return total(y)

            return counted

        monkeypatch.setattr(dev, "_homogeneous_total", counting)
        return calls

    def _fallback_rate(self, calls, p, x, w):
        """Scalar totals of the kernel per sign test of the plain scalar
        solver, which has no certificate, after checking that both give the
        same outcome."""
        calls[0] = 0
        want = _outcome(lambda: [homogeneous_deviation(shifted_power(p), x[:k], w[:k])
                                 for k in range(2, len(x) + 1)])
        sign_tests, calls[0] = calls[0], 0
        assert _outcome(lambda: _lockstep_prefixes(p, x, w)) == want
        return calls[0] / sign_tests

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_fallbacks_are_rare(self, n, scalar_totals):
        rng = np.random.default_rng(n)
        x = np.exp(rng.uniform(np.log(0.01), np.log(100.0), n)).tolist()
        w = sorted(rng.uniform(0.1, 1.0, n).tolist(), reverse=True)
        assert self._fallback_rate(scalar_totals, 0.5, x, w) < 0.05

    def test_dead_entries_cost_no_fallback(self, scalar_totals):
        # every prefix but the last leaves out an entry whose value overflows
        # at its midpoints; the last raises OverflowError either way
        rng = np.random.default_rng(3)
        x = np.exp(rng.uniform(np.log(0.5), np.log(2.0), 40)).tolist() + [1e-160]
        assert self._fallback_rate(scalar_totals, -2.0, x, [1.0] * 41) < 0.05

    @pytest.mark.parametrize("p", [-2.0, 0.0, 0.5, 3.0])
    @pytest.mark.parametrize("last", [17, 24])
    def test_zero_weights_drop_their_entries(self, p, last):
        # one block of 24 columns whose rows have interior zero weights and end
        # at columns of their own, the last at `last`; the dropped entries
        # include 1e-200, whose term overflows at p = -2
        rng = np.random.default_rng(last)
        x = np.exp(rng.uniform(np.log(0.1), np.log(10.0), (60, 24)))
        w = rng.uniform(0.1, 1.0, (60, 24))
        ends = rng.integers(1, last + 1, (60, 1))
        ends[0] = last
        w[(rng.random((60, 24)) < 0.3) | (np.arange(24) >= ends)] = 0.0
        w[:, 0] = w[0, last - 1] = 1.0
        x[(w == 0.0) & (rng.random((60, 24)) < 0.2)] = 1e-200
        f = shifted_power(p)
        want = _outcome(lambda: [homogeneous_deviation(f, xi[wi != 0].tolist(),
                                                       wi[wi != 0].tolist())
                                 for xi, wi in zip(x, w)])
        assert _outcome(lambda: _lockstep_rows(p, x, w).tolist()) == want

    def test_no_sign_change_raises_the_scalar_error(self):
        # (t - 1)^2 is not monotone: the total of row 1 is positive at both
        # ends; a caller's f has no batch kernel, so evaluate_rows takes the
        # scalar solver row by row, which raises the first failing row's error
        f = lambda t: (t - 1.0) ** 2
        x = np.array([[2.0, 2.0], [1.0, 3.0], [2.0, 5.0]])
        w = np.ones_like(x)
        want = _outcome(lambda: [homogeneous_deviation(f, xi, wi)
                                 for xi, wi in zip(x.tolist(), w.tolist())])
        assert want[0] is SolverFailure
        mean = MeanHandle.homogeneous_deviation(f, "square")
        assert _outcome(lambda: evaluate_rows(mean, x, w).tolist()) == want

    def test_uncovered_rows_take_the_scalar_outcome_in_row_order(self):
        # spreads past 2^900: the certificate covers none of rows 1-4, which
        # the kernel leaves NaN; the scalar solver gives rows 1 and 3 their
        # values, and rows 2 and 4 raise, their ratio at y = hi underflowing to
        # 0, so the first of them in row order names the error
        x = np.array([[2.0, 2.0], [1e-150, 1e150], [1e-200, 1e200], [1e-160, 1e160],
                      [1e-250, 1e250]])
        w = np.ones_like(x)
        with np.errstate(all="ignore"):
            a, b = dev._certificate(0.0, x, w, _spread(x))
            got = homogeneous_deviation_rows(0.0, x, w)
        assert (a[1:] == -math.inf).all() and (b[1:] == math.inf).all()
        assert got[0] == 2.0 and np.isnan(got[1:]).all()
        mean = mean_from_id("homdev:shifted-power:0")
        errors = []
        for order in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0]):
            xs, ws = x[order], w[order]
            want = _outcome(lambda: [homogeneous_deviation(math.log, xi, wi)
                                     for xi, wi in zip(xs.tolist(), ws.tolist())])
            assert want[0] is FloatOverflow
            assert _outcome(lambda: _lockstep_rows(0.0, xs, ws).tolist()) == want
            assert _outcome(lambda: evaluate_rows(mean, xs, ws).tolist()) == want
            errors.append(want)
        assert errors[0] != errors[1]
        uncovered = [homogeneous_deviation(math.log, xi, wi) for xi, wi in zip(x[[1, 3]].tolist(),
                                                                               w[[1, 3]].tolist())]
        assert evaluate_rows(mean, x[[0, 1, 3]], w[[0, 1, 3]]).tolist() == [2.0, *uncovered]

    def test_near_constant_entries_reach_the_scalar_total(self, scalar_totals):
        # midpoints this close to the root fall inside the root interval: the
        # parity tests on such entries exercise the scalar total
        rng = np.random.default_rng(5)
        x = (1.0 + rng.uniform(0.0, 1e-9, 30)).tolist()
        assert self._fallback_rate(scalar_totals, 0.5, x, [1.0] * 30) > 0.0

    @pytest.fixture
    def midpoints(self, monkeypatch):
        """The rows, by their entries, whose scalar totals the kernel sums,
        with the midpoint of each sum, in order."""
        seen, make_total = [], dev._homogeneous_total

        def recording(f, s, x, w):
            total = make_total(f, s, x, w)

            def recorded(y):
                seen.append((tuple(x), y))
                return total(y)

            return recorded

        monkeypatch.setattr(dev, "_homogeneous_total", recording)
        return seen

    def test_a_handed_row_keeps_a_midpoint_of_total_zero(self, midpoints):
        # the first midpoint of (1, 3) at p = 1 is the root 2 itself, inside
        # the root interval: the row sums its scalar total there, which is
        # exactly 0, and keeps that midpoint
        f, x, w = shifted_power(1.0), np.array([[1.0, 3.0]]), np.ones((1, 2))
        assert _lockstep_rows(1.0, x, w).tolist() == [2.0]
        assert midpoints == [((1.0, 3.0), 2.0)]
        assert homogeneous_deviation(f, (1.0, 3.0), (1.0, 1.0)) == 2.0

    def test_rows_finish_in_row_order(self, monkeypatch):
        # a width below float resolution: every row sums its scalar total
        # inside the root interval and runs out of halvings; the kernel leaves
        # them NaN, and the scalar solve of the first, the widest, raises its
        # cap
        monkeypatch.setattr(dev, "DEFAULT_TOL", 1e-300)
        x = np.array([[1e-2, 1e3], [0.5, 3.0], [0.5, 0.7]])
        w = np.ones_like(x)
        f = shifted_power(0.5)
        want = _outcome(lambda: [homogeneous_deviation(f, xi, wi)
                                 for xi, wi in zip(x.tolist(), w.tolist())])
        assert want == (MaxIterations,
                        "homogeneous deviation: bisection did not converge in 1071 iterations")
        assert _outcome(lambda: _lockstep_rows(0.5, x, w).tolist()) == want

    def test_rows_the_kernel_does_not_finish_are_nan(self, monkeypatch, midpoints):
        # fewer halvings than the stop width needs: row 0 runs out of them on
        # certain signs, and row 1, whose root is near its first midpoint 5,
        # sums its scalar total from there on and runs out too; the kernel
        # leaves both NaN, and evaluate_rows raises the first row's error in
        # either order
        monkeypatch.setattr(dev, "_BISECT_SLACK", -10)
        f = shifted_power(0.5)
        x = np.array([[1.0, 3.0], [1.0, 9.0]])
        w = np.array([[1.0, 1.0], [1.0, -f(1.0 / 5.0) / f(9.0 / 5.0) * (1.0 + 2.0 ** -44)]])
        with np.errstate(all="ignore"):
            got = homogeneous_deviation_rows(0.5, x, w)
        assert np.isnan(got).all() and midpoints[0] == ((1.0, 9.0), 5.0)
        assert {row for row, _ in midpoints} == {(1.0, 9.0)}  # row 0 sums nothing
        mean = mean_from_id("homdev:shifted-power:0.5")
        errors = []
        for order in ([0, 1], [1, 0]):
            xs, ws = x[order], w[order]
            want = _outcome(lambda: [homogeneous_deviation(f, xi, wi)
                                     for xi, wi in zip(xs.tolist(), ws.tolist())])
            assert want[0] is MaxIterations
            assert _outcome(lambda: evaluate_rows(mean, xs, ws).tolist()) == want
            errors.append(want)
        assert errors[0] != errors[1]


# Exponents of the shifted power: 0, a float in [-8, 8], or one near 0, down
# to the subnormals, where the generator's expm1 form differs most from t^p - 1.
_EXPONENTS = st.one_of(st.just(0.0), st.floats(-8.0, 8.0),
                       st.sampled_from([5e-324, -5e-324, 1e-300, -1e-300, 1e-16, -5e-17,
                                        1e-12, -1e-6]))


@st.composite
def _interval_rows(draw):
    """A row for the root interval: p from :data:`_EXPONENTS`, up to 64
    entries spread around a centre in 1e+-150, weights with ratios up to
    1e+-15 on a common scale, some of weight 0."""
    n = draw(st.integers(1, 64))
    p = draw(_EXPONENTS)
    centre = draw(st.floats(-150.0, 150.0))
    spread = 10.0 ** draw(st.floats(-14.0, math.log10(300.0)))
    logs = draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n))
    x = [10.0 ** min(150.0, max(-150.0, centre + spread * v)) for v in logs]
    scale = draw(st.floats(-300.0, 300.0))
    w = [10.0 ** (scale + v) for v in
         draw(st.lists(st.floats(-7.5, 7.5), min_size=n, max_size=n))]
    dead = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    w = [0.0 if d and i else wi for i, (wi, d) in enumerate(zip(w, dead))]
    return p, x, w


def _outside_the_guard(p, x, w) -> bool:
    """Whether a row is past the root interval's range guard by a factor of 2
    at least, read off binary logarithms: the weight sum ``B``, the spread
    ``R``, ``R^|p|`` and ``B R^|p|``."""
    xs = [xi for xi, wi in zip(x, w) if wi]
    log_b = math.log2(math.fsum(wi for wi in w if wi))
    log_r = math.log2(max(xs)) - math.log2(min(xs))
    return abs(log_b) > 901 or log_r > 901 or abs(p) * log_r > 901 or log_b + abs(p) * log_r > 901


@pytest.mark.kernel_parity
class TestRootInterval:
    """The certified root interval of :func:`shifted_power`, of a row
    or of every prefix: the scalar total is positive below ``a`` and
    negative above ``b``, and a prefix scan or lockstep over it rarely sums
    the entries."""

    @settings(max_examples=300, deadline=None)
    @given(_interval_rows(), st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    def test_scalar_total_has_the_certified_sign(self, row, fractions):
        p, x, w = row
        block = _filled(np.array([x]), np.array([w]))  # as the gate hands the lockstep its rows
        with np.errstate(all="ignore"):  # as in the lockstep
            (a,), (b,) = (v[:, 0].tolist() for v in dev._certificate(p, block, np.array([w]),
                                                                     _spread(block)))
        _assert_certified_signs(p, [xi for xi, wi in zip(x, w) if wi], [wi for wi in w if wi],
                                a, b, fractions)

    @settings(max_examples=300, deadline=None)
    @given(_interval_rows(), st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    # B R^|p| = 2^900.4 but R^|p| = 2^917 alone: past the guard
    @example((1.25, [1.3688592986273205e+147, 2.702841600911329e-74], [1e-05, 1e-06]),
             [0.0, 0.0, 0.0, 0.0])
    def test_every_prefix_has_the_certified_sign(self, row, fractions):
        # the running moments of a prefix scan, which sees the entries of
        # nonzero weight only
        p, x, w = row
        x, w = [xi for xi, wi in zip(x, w) if wi], [wi for wi in w if wi]
        a, b = (v[0].tolist() for v in dev._certificate(p, np.array([x]), np.array([w])))
        for k in range(1, len(x) + 1):
            _assert_certified_signs(p, x[:k], w[:k], a[k - 1], b[k - 1], fractions)

    @pytest.mark.parametrize("p", [-2.0, 0.0, 0.5, 3.0, 1e-12, -1e-300])
    def test_scan_rows_skip_the_entries(self, p, monkeypatch):
        # the prefixes of one check at n = 56: entries in [0.1, 10] and
        # nonincreasing weights, each prefix a certified scalar solve, and
        # each a row of the lockstep; both take scalar totals inside [a, b]
        # only
        rng = np.random.default_rng(56)
        x = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 56)).tolist()
        w = sorted(np.exp(rng.uniform(np.log(0.1), np.log(10.0), 56)).tolist(), reverse=True)
        sign_tests = [0]
        make_total = dev._homogeneous_total

        def counting_total(*args):
            total = make_total(*args)

            def counted(y):
                sign_tests[0] += 1
                return total(y)

            return counted

        monkeypatch.setattr(dev, "_homogeneous_total", counting_total)
        want = [homogeneous_deviation(shifted_power(p), x[:k], w[:k]) for k in range(2, 57)]
        scalar_tests, sign_tests[0] = sign_tests[0], 0
        assert homogeneous_deviation_prefixes(p, x, w, 1) == want
        assert sign_tests[0] <= 0.05 * scalar_tests
        sign_tests[0] = 0
        got = _lockstep_rows(
            p, np.broadcast_to(np.array(x), (55, 56)),
            np.where(np.arange(56) <= np.arange(1, 56)[:, None], np.array(w), 0.0))
        assert got.tolist() == want
        assert sign_tests[0] <= 0.05 * scalar_tests


def _assert_certified_signs(p, x, w, a, b, fractions):
    """The certificate ``(a, b)`` of ``shifted_power(p)`` on entries ``x`` of
    positive weights ``w``: none past the guard, and inside ``[lo, hi]`` the
    scalar total's sign at ``a``, ``b``, their outer neighbours, ``lo``,
    ``hi`` and two points beyond each, from ``fractions``."""
    if _outside_the_guard(p, x, w):
        assert (a, b) == (-math.inf, math.inf)
    if a == -math.inf:
        assert b == math.inf
        return
    assert a <= b
    lo, hi = min(x), max(x)
    f = shifted_power(p)
    total = dev._homogeneous_total(f, 1.0, x, w)  # f increases for every p
    below = [a, math.nextafter(a, 0.0), lo, lo + fractions[0] * (a - lo),
             lo + fractions[1] * (a - lo)]
    above = [b, math.nextafter(b, math.inf), hi, b + fractions[2] * (hi - b),
             b + fractions[3] * (hi - b)]
    for y in below:  # the interval speaks of the bracket [lo, hi] only
        if lo <= y < a and y <= hi:
            assert total(y) > 0.0, (y, a)
    for y in above:
        if b < y <= hi and y >= lo:
            assert total(y) < 0.0, (y, b)


@st.composite
def _solve_rows(draw):
    """``p`` from :data:`_EXPONENTS` and up to 12 entries over 1e+-300 with
    weights over 1e+-8: rows whose spread or moments leave the certificate's
    range included."""
    p = draw(_EXPONENTS)
    n = draw(st.integers(1, 12))
    centre = draw(st.floats(-300.0, 300.0))
    spread = draw(st.floats(0.0, 600.0))
    logs = draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n))
    x = [10.0 ** min(300.0, max(-300.0, centre + spread * v)) for v in logs]
    w = [10.0 ** v for v in draw(st.lists(st.floats(-8.0, 8.0), min_size=n, max_size=n))]
    return p, x, w


@pytest.mark.kernel_parity
@settings(max_examples=300, deadline=None)
@given(_solve_rows())
@example((-5e-17, [0.5, 2.0], [1.0, 1.0]))  # 2^p - 1 rounds to 0; the expm1 form does not
# from p = 1024, f(2) = (2^p - 1) / p is beyond the float range
@example((1100.0, [1.0, 1.1], [1.0, 1.0]))
@example((2000.0, [1.0, 1.1], [1.0, 1.0]))
@example((5000.0, [1.0, 1.1], [1.0, 1.0]))
def test_builtin_solve_is_the_plain_solver(row):
    """``evaluate`` of ``homdev:shifted-power:p``, the certified prefix scan's
    last prefix, and ``evaluate_rows``, the lockstep, equal the plain scalar
    solver of ``shifted_power(p)`` bit for bit or raise its error, as
    ``evaluate_prefixes`` does on every prefix."""
    p, x, w = row
    mean = mean_from_id(f"homdev:shifted-power:{p!r}")
    f = shifted_power(p)
    want = _outcome(lambda: homogeneous_deviation(f, x, w))
    assert _outcome(lambda: evaluate(mean, x, w)) == want
    assert _outcome(lambda: evaluate_rows(mean, np.array([x]), np.array([w])).tolist()) == (
        want if isinstance(want, tuple) else [want])
    assert _outcome(lambda: evaluate_prefixes(mean, x, w)) == _outcome(
        lambda: [homogeneous_deviation(f, x[:k], w[:k]) for k in range(1, len(x) + 1)])


@pytest.mark.kernel_parity
@pytest.mark.parametrize("p", [5e-324, -5e-324, 1e-300, -1e-300, -5e-17, 1024.0, 2000.0, 5000.0,
                               1e300, -1e300])
@pytest.mark.parametrize("x, w", [([1.0, 1.1], [1.0, 1.0]), ([0.5, 2.0], [1.0, 1.0]),
                                  ([1e-160, 1e160], [1.0, 1.0]),
                                  ([1e-160, 1.0, 1e160], [1.0, 2.0, 3.0])])
def test_extreme_exponents_give_a_value_or_a_typed_error(p, x, w):
    """At every ``p``, ``evaluate_rows`` of ``homdev:shifted-power:p`` agrees
    with ``evaluate``, and ``evaluate_prefixes`` with ``evaluate`` of each
    prefix; each value lies in ``[min x, max x]`` of its entries, and each
    error is a :class:`KedlayaError`: never a bare OverflowError or
    ZeroDivisionError, never NaN."""
    mean = mean_from_id(f"homdev:shifted-power:{p!r}")

    def outcome(run, entries):
        try:
            ys = run()
        except KedlayaError as exc:
            return type(exc), str(exc)
        for y, k in zip(ys, range(len(entries) - len(ys) + 1, len(entries) + 1)):
            assert min(entries[:k]) <= y <= max(entries[:k]), (k, y)
        return ys

    want = outcome(lambda: [evaluate(mean, x, w)], x)
    assert outcome(lambda: evaluate_rows(mean, np.array([x]), np.array([w])).tolist(), x) == want
    assert outcome(lambda: evaluate_prefixes(mean, x, w), x) == outcome(
        lambda: [evaluate(mean, x[:k], w[:k]) for k in range(1, len(x) + 1)], x)


class TestCounterexampleMean:
    def test_zero_branch(self):
        assert gini21_counterexample((0.0, 0.0), (1, 1)) == 0.0

    def test_positive_branch(self):
        assert gini21_counterexample((1, 2), (1, 1)) == pytest.approx(5 / 3, rel=1e-15)

    def test_tail_profile(self):
        # entries (0, ..., 0, t, 1) give (w[-2] t^2 + w[-1]) / (w[-2] t + w[-1])
        w = (3, 5, 2, 7)
        for t in (0.0, 0.25, 1.0, 3.5):
            x = (0.0, 0.0, t, 1.0)
            expected = (2 * t * t + 7) / (2 * t + 7)
            assert gini21_counterexample(x, w) == pytest.approx(expected, rel=1e-15)

    def test_agrees_with_two_parameter_family_when_positive(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            x = tuple(float(v) for v in rng.uniform(0.05, 9, n))
            w = tuple(float(v) for v in rng.uniform(0.1, 3, n))
            a = gini21_counterexample(x, w)
            b = gini(2, 1, x, w)
            assert abs(a - b) <= 1e-12 * (1 + abs(a))

    def test_rejects_negative(self):
        with pytest.raises(DomainViolation):
            gini21_counterexample((-1.0, 1.0), (1, 1))

    def test_rejects_nan_entries(self):
        with pytest.raises(DomainViolation, match="outside domain"):
            gini21_counterexample((math.nan, 1.0), (1, 1))

    @pytest.mark.kernel_parity
    @pytest.mark.parametrize("rows", [
        [[1e155, 1.0]],                    # an infinite second-moment term
        [[1.2e154, 1.3e154]],              # the second-moment sum overflows
        [[2.0, 3.0], [1e200, 2e200]],      # a later row; both moments overflow
    ])
    def test_rows_raise_the_scalar_overflow(self, rows):
        x = np.array(rows)
        w = np.ones_like(x)
        bad = next(r for r in rows if not math.isfinite(sum(v * v for v in r)))
        with pytest.raises(FloatOverflow) as scalar:
            gini21_counterexample(bad, [1] * len(bad))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatOverflow) as batch:
                evaluate_rows(mean_from_id("gini21"), x, w)
        assert str(batch.value) == str(scalar.value)

    @pytest.mark.kernel_parity
    def test_rows_near_the_float_range_stay_finite(self):
        x = np.array([[1e154, 1.0], [1.3e154, 1e-300], [0.0, 0.0]])
        w = np.array([[1.0, 1.0], [0.5, 2.0], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluate_rows(mean_from_id("gini21"), x, w)
        want = [gini21_counterexample(xi.tolist(), wi.tolist()) for xi, wi in zip(x, w)]
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def _recording(calls: list) -> ModuleType:
    """:data:`ARRAYS`, keeping each call of its ``powers`` and ``logs`` steps
    in ``calls`` as ``(name, args after x, value)``."""
    def step(name):
        def run(x, *args):
            calls.append((name, args, getattr(ARRAYS, name)(x, *args)))
            return calls[-1][2]
        return run

    m = ModuleType("RECORDING")
    vars(m).update(vars(ARRAYS), powers=step("powers"), logs=step("logs"))
    return m


def _replaying(calls: list, i: int) -> ModuleType:
    """:data:`FLOATS` whose ``powers`` and ``logs`` steps give, call by call,
    row ``i`` of what :data:`ARRAYS` gave in ``calls``."""
    values = (value[i].tolist() for _, _, value in calls)
    m = ModuleType("REPLAYING")
    vars(m).update(vars(FLOATS), powers=lambda x, c, r: next(values), logs=lambda x: next(values))
    return m


_EXPONENT = st.floats(-4.0, 4.0)


@st.composite
def _entry_rows(draw):
    rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    x = draw(st.lists(st.floats(1e-3, 1e3), min_size=rows * n, max_size=rows * n))
    w = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.1, 10.0),
                      min_size=rows * n, max_size=rows * n))
    order = draw(st.sampled_from("CF"))
    return (np.array(x).reshape(rows, n).copy(order=order),
            np.array(w).reshape(rows, n).copy(order=order))


@pytest.mark.kernel_parity
class TestNumpyTerms:
    """A closed form's terms on :data:`ARRAYS`, as both numpy drivers take
    them, are its terms on :data:`FLOATS`: the same IEEE operations on the
    same values, but for the two steps numpy computes itself, the scaled
    powers ``(x/c)^r`` and the entry logs, each within an ulp of the scalar
    one, as the error rule of :func:`gini_form` counts them.  ``gini21``'s
    terms and the weight-only sums make no step, so they are equal."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_EXPONENT.map(lambda p: gini_form(p, 0.0)),  # power:p
                     st.tuples(_EXPONENT, _EXPONENT).map(lambda pq: gini_form(*pq)),
                     _EXPONENT.map(lambda p: gini_form(p, p)), st.just(GINI21_FORM)),
           _entry_rows())
    def test_numpy_terms_are_the_floats_terms(self, form, rows):
        x, w = rows
        for scale, terms in form.sums:
            c = getattr(x, scale.__name__)(axis=1, keepdims=True) if scale else 1.0  # x.max
            calls = []
            got = terms(x, w, c, _recording(calls))
            for i, (xi, wi) in enumerate(zip(x.tolist(), w.tolist())):
                ci = scale(xi) if scale else 1.0
                for name, args, value in calls:
                    args = [ci, *args[1:]] if name == "powers" else []
                    want = np.array(getattr(FLOATS, name)(xi, *args))
                    assert (np.abs(value[i] - want) <= np.spacing(np.abs(want))).all(), name
                want = terms(xi, wi, ci, _replaying(calls, i))
                assert [t[i].tolist() for t in got] == list(want)

    @pytest.mark.parametrize("form", [
        *(power_generator(p).closed_form for p in (0.0, 2.0, -1.0)),
        GeneratorSpec(lambda t: t ** 3, lambda y: y ** (1.0 / 3.0), label="cube").closed_form,
        gini_form(0.5, 0.0), gini_form(-2.0, -2.0), gini_form(0.0, 0.0), GINI21_FORM])
    def test_a_form_without_an_error_rule_has_no_scale(self, form):
        # the exact driver, which such a form takes, runs every group at c = 1.0
        assert form.error is not None or all(scale is None for scale, _ in form.sums)


def _fsum_or_nan(terms) -> float:
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return math.nan


def _certified_sums_are_fsums(t: np.ndarray) -> np.ndarray:
    """Check that every value :func:`exact_prefix_sums` gives on ``t`` is
    ``fsum`` of its prefix, to the sign of zero, and return the output."""
    out = exact_prefix_sums(t)
    assert out.shape == t.shape
    rows = t.reshape(-1, t.shape[-1]).tolist()
    for row, got in zip(rows, out.reshape(len(rows), -1).tolist()):
        for k, v in enumerate(got):
            if not math.isnan(v):
                assert repr(v) == repr(_fsum_or_nan(row[: k + 1])), (row[: k + 1], v)
    return out


# Values that round against each other in sums: ties, a value next to 2^53,
# subnormals and values near the float range.
_AWKWARD = [1.0, 3.0, 0.1, 2.0 ** -53, 2.0 ** -105, 2.0 ** 53, 1e16, 1e-16, 1e300, 1e-300,
            1e308, 2.0 ** -1074, 2.2250738585072014e-308, 0.0]
_TERMS = st.one_of(st.floats(), st.sampled_from(_AWKWARD + [-v for v in _AWKWARD]))
_MAX = sys.float_info.max


@pytest.mark.kernel_parity
class TestExactPrefixSums:
    """:func:`exact_prefix_sums` gives ``fsum`` of every prefix it certifies."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 40).flatmap(
        lambda n: st.sampled_from([(n,), (1, n), (2, 5), (3, 2), (7, 2)])), st.data())
    def test_certified_values_are_fsums(self, shape, data):
        # a running sum along each row, and for more rows than terms a column at a time
        t = data.draw(st.lists(_TERMS, min_size=math.prod(shape), max_size=math.prod(shape)))
        _certified_sums_are_fsums(np.reshape(t, shape))

    @pytest.mark.parametrize("terms, want", [
        ([1.0, 2.0 ** -53], [1.0, 1.0]),  # a tie, to even
        ([1.0, 2.0 ** -53, 2.0 ** -105], [1.0, 1.0, 1.0000000000000002]),  # just past it
        ([1.0 + 2.0 ** -52, 2.0 ** -53], [1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51]),
        # c rounds (e2 != 0): a third pass certifies it, and fsum rounds the levels
        ([2.0 ** 53, 3.0, -1e-16], [2.0 ** 53, 2.0 ** 53 + 4.0, 2.0 ** 53 + 2.0]),
        ([1e300, 1e-300, -1e300], [1e300, 1e300, 1e-300]),
        ([2.0 ** -1074, 2.0 ** -1074, -2.0 ** -1073, 2.0 ** -1022], [5e-324, 1e-323, math.nan,
                                                                     2.0 ** -1022]),
        ([1.0, -1.0, 3.0], [1.0, math.nan, 3.0]),  # a zero sum: fsum picks its sign
        ([-0.0, -0.0, 0.0], [math.nan] * 3),
        ([2.0 ** 1021, 3.0, -2.0 ** 1021], [2.0 ** 1021, 2.0 ** 1021, 3.0]),  # at the cap
        ([1e308, 1e308, -1e308], [math.nan] * 3),  # past the cap; fsum raises on the second
        # past the cap; fsum raises on the third, where a partial half an ulp
        # below 2^1024 rounds up to inf, though the exact sum is below 2^1023
        ([-2.0 ** 1023 - 2.0 ** 972, 2.0 ** 970, _MAX], [math.nan] * 3),
        ([1.0, math.inf, 2.0], [1.0, math.nan, math.nan]),
        ([math.inf, -math.inf], [math.nan, math.nan]),
        ([2.0, math.nan, 1.0], [2.0, math.nan, math.nan]),
    ])
    def test_hand_cases(self, terms, want):
        want = list(map(repr, want))
        assert list(map(repr, _certified_sums_are_fsums(np.array(terms)).tolist())) == want
        for rows in (1, 8):  # a running sum along the row, and a column at a time
            got = _certified_sums_are_fsums(np.array([terms] * rows)).tolist()
            assert [list(map(repr, row)) for row in got] == [want] * rows

    @pytest.mark.parametrize("shape", [(200,), (10, 200), (2000, 3)])
    def test_terms_over_the_float_range_certify_in_more_passes(self, shape):
        # two TwoSum passes leave most of these prefixes uncertain
        rng = np.random.default_rng(7)
        t = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-300, 300, shape)
        assert not np.isnan(_certified_sums_are_fsums(t)).any()

    @pytest.mark.parametrize("shape", [(200,), (1, 200), (3000, 8), (5000, 2)])
    def test_log_uniform_terms_times_weights_are_certified(self, shape):
        rng = np.random.default_rng(23)
        t = rng.uniform(-2.3, 2.3, shape) * rng.uniform(0.1, 10.0, shape)  # w log x
        assert not np.isnan(_certified_sums_are_fsums(t)).any()


def _prefix_block(rows: int, n: int, seed: int) -> np.ndarray:
    """Seeded terms over the float range: each row within 60 binades of its
    own scale, from the subnormals to ``2^1010``, with about one term in ten
    the negation of the one before it."""
    rng = np.random.default_rng(seed)
    scale = rng.integers(-1074, 1011, (rows, 1))
    t = np.ldexp(rng.uniform(-1.0, 1.0, (rows, n)), scale - rng.integers(0, 61, (rows, n)))
    undo = rng.random((rows, n)) < 0.1
    undo[:, 0] = False
    t[undo] = -np.roll(t, 1, axis=1)[undo]
    return t


@pytest.mark.kernel_parity
class TestBitPins:
    """The values and NaN positions of :func:`exact_prefix_sums` on seeded
    blocks of the shapes its callers hand it.  Each digest was recorded
    before the sums could return after two passes."""

    @staticmethod
    def _digest(t: np.ndarray) -> str:
        out = _certified_sums_are_fsums(t)
        nan = np.isnan(out)
        return hashlib.sha256(np.where(nan, 0.0, out).tobytes() + nan.tobytes()).hexdigest()

    @pytest.mark.parametrize("rows, n, pin", [
        (3072, 2, "61e2050c703427c5c3f434bc1829c710cde3db0cf3f7677bff2fc64bc251305f"),
        (100, 8, "20505408000bd6025f4a11e8b017a2ba32913b73260ad9b03863c1b918a77072"),
        (819, 10, "f583a40aaf9649e3dd5fd3f0d7f54e692ab12fa32b8cd2a52ba3c0aa6e74e1cb"),
        (1, 200, "eb2f4057d87cad843385c0a659a3057a22a624e49c39520164b230c9d54a4f37"),
        (2000, 3, "48cfc58a0af93051b06f517a9eedce5d59437a4da4937d0707c3eb24bae119ea"),
    ])
    def test_blocks(self, rows, n, pin):
        assert self._digest(_prefix_block(rows, n, rows * n)) == pin

    def test_a_row_past_the_cap_and_a_zero_sum_take_the_slow_path(self):
        t = _prefix_block(3072, 2, 1)
        t[5] = 1.25 * 2.0 ** 1021, 1.0  # fsum is finite, but not certain
        t[9] = 3.0, -3.0  # fsum picks the sign of 0
        assert self._digest(t) == "150d15ce0172bf251a8d64ddd86b09005e9cf12cbafbc22850e944e9a33820a4"
        out = exact_prefix_sums(t)
        assert np.isnan(out[5]).all() and out[9, 0] == 3.0 and np.isnan(out[9, 1])
        rest = exact_prefix_sums(np.delete(t, [5, 9], axis=0))  # certified after two passes
        assert np.delete(out, [5, 9], axis=0).tobytes() == rest.tobytes()
