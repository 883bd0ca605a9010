"""Mean handles: evaluation, the four axioms, the expansion bridge, JSON."""

import json
import math
import re
import tracemalloc
import warnings
import zlib
from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kedlaya import deviation, means
from kedlaya.deviation import (
    _FSUM_SCAN_MAX,
    PREFIX_ROWS_RTOL,
    DeviationSpec,
    GeneratorSpec,
    log_generator,
    power_generator,
    prefix_fsums,
    shifted_power,
)
from kedlaya.domain import POSITIVE, REALS, sampling_window
from kedlaya.errors import (
    AllZero,
    DomainViolation,
    FloatOverflow,
    GeneratorOverflow,
    IndexNotZeroWeighted,
    InverseOutOfRange,
    LengthMismatch,
    NegativeSeed,
    NegativeWeight,
    NonfiniteWeight,
    Overflow,
)
from kedlaya.inequality import check_kedlaya, kedlaya_sides, partial_arithmetic_means
from kedlaya.means import (
    MeanHandle,
    arithmetic_base,
    check_elimination,
    check_nullhomogeneity,
    check_reduction,
    check_symmetry,
    evaluate,
    evaluate_prefix_rows,
    evaluate_prefixes,
    evaluate_rows,
    mean_from_id,
    mean_value_residual,
    weighted_average,
    weighted_from_repetition_invariant,
)
from kedlaya.sampling import sweep_blocks
from kedlaya.weights import make_weights, shuffle

ARITH = MeanHandle.arithmetic()
GEO = MeanHandle.power(0.0)
G21 = MeanHandle.gini(2.0, 1.0)


def _within_mean_value(mean, x, w):
    """The mean-value axiom up to ``1e-9 * max|x|`` (at least 1e-12), since
    solver-backed families cannot be exact."""
    return mean_value_residual(mean, x, w).residual <= max(1e-9 * max(map(abs, x)), 1e-12)


class TestEvaluate:
    def test_arithmetic_simple(self):
        assert evaluate(ARITH, (1, 3), (1, 1)) == 2

    def test_geometric(self):
        assert evaluate(GEO, (1, 4), (1, 1)) == pytest.approx(2.0, abs=1e-12)

    def test_weighted_arithmetic(self):
        # (1*1 + 3*4) / 4
        assert evaluate(ARITH, (1, 4), (1, 3)) == pytest.approx(3.25, abs=0)

    def test_single_entry(self):
        assert evaluate(G21, (7.0,), (5,)) == 7.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            evaluate(ARITH, (1, 2, 3), (1, 1))

    def test_domain_violation(self):
        with pytest.raises(DomainViolation):
            evaluate(GEO, (1, -2), (1, 1))

    @pytest.mark.parametrize("mean_id", ["arithmetic", "power:0.5"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_weight_rejected(self, mean_id, bad):
        with pytest.raises(NonfiniteWeight):
            evaluate(mean_from_id(mean_id), (1.0, 2.0), (1.0, bad))

    @pytest.mark.parametrize("w", [[10 ** 400, 1], [1, Fraction(10 ** 400, 3)]])
    def test_weight_beyond_float_range_rejected(self, w):
        mean = mean_from_id("power:0")
        with pytest.raises(FloatOverflow):
            evaluate(mean, [1.0, 2.0], w)
        with pytest.raises(FloatOverflow):
            evaluate_prefixes(mean, [1.0, 2.0], w)

    def test_weight_vector_accepted(self):
        w = make_weights([Fraction(1, 2), Fraction(3, 2)])
        assert evaluate(ARITH, (1, 4), w) == pytest.approx((0.5 + 6) / 2, abs=0)

    def test_min_max_respect_zero_weights(self):
        assert evaluate(MeanHandle.minimum(), (5, 2), (2, 1)) == 2
        assert evaluate(MeanHandle.minimum(), (-9, 2), (0, 1)) == 2
        assert evaluate(MeanHandle.maximum(), (-9, 2, 99), (1, 1, 0)) == 2


def _fraction_mean(x, w):
    """The exact weighted arithmetic mean as ``Fraction`` sums, rounded once:
    the oracle of the integer sums in ``means``."""
    num = Fraction(0)
    den = Fraction(0)
    for xi, wi in zip(x, w):
        fw = wi if isinstance(wi, Fraction) else Fraction(wi)
        num += fw * Fraction(xi)
        den += fw
    return float(num / den)


_WIDE = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-300, 300))
# both signs, from the subnormals to the largest finite float
_ENTRIES = st.floats(allow_nan=False, allow_infinity=False) | _WIDE
_WEIGHTS = (st.floats(min_value=0.0, allow_infinity=False) | _WIDE.map(abs) | st.just(0.0)
            | st.fractions(min_value=0, max_denominator=10 ** 6))


class TestExactArithmetic:
    """The arithmetic mean's integer sums equal ``Fraction`` sums: values bit
    for bit, errors by type and message."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(_ENTRIES, _WEIGHTS), min_size=1, max_size=12), st.data())
    def test_equals_fraction_sums(self, pairs, data):
        x, w = map(list, zip(*pairs))
        first = data.draw(st.integers(0, len(x) - 1))
        assert _outcome(lambda: means.exact_weighted_arithmetic(x, w)) == \
            _outcome(lambda: _fraction_mean(x, w))
        assert _outcome(lambda: means._arithmetic_prefixes(x, w, first)) == \
            _outcome(lambda: [_fraction_mean(x[:k], w[:k]) for k in range(first + 1, len(x) + 1)])

    @pytest.mark.parametrize("x, w", [
        ([1.0, math.inf], [1.0, 1.0]),
        ([1.0, -math.inf, math.nan], [1.0, 1.0, 1.0]),
        ([math.nan, 2.0], [1.0, math.inf]),  # entry and weight of one pair: the weight first
        ([2.0, 1.0], [math.nan, 1.0]),
        ([2.0, 5e-324], [Fraction(1, 3), 1e-300]),
        ([1.0, 2.0], [0.0, 0.0]),  # no weight: ZeroDivisionError
        ([1.0, 2.0], [1.0, -1.0]),
        ([], []),
    ])
    def test_edge_cases_equal_fraction_sums(self, x, w):
        assert _outcome(lambda: means.exact_weighted_arithmetic(x, w)) == \
            _outcome(lambda: _fraction_mean(x, w))
        assert _outcome(lambda: means._arithmetic_prefixes(x, w, 0)) == \
            _outcome(lambda: [_fraction_mean(x[:k], w[:k]) for k in range(1, len(x) + 1)])


    def test_unequal_lengths_follow_zip(self):
        x, w = [1.0, 2.0, 3.0], [1.0, 3.0]
        assert means.exact_weighted_arithmetic(x, w) == _fraction_mean(x, w) == 1.75


class TestAxioms:
    def test_nullhomogeneity_arithmetic(self):
        r = check_nullhomogeneity(ARITH, (1, 2, 5), (1, 2, 3), 7)
        assert r.residual == 0.0

    def test_nullhomogeneity_gini(self):
        # scale-free in real arithmetic; log-domain evaluation leaves roundoff
        r = check_nullhomogeneity(G21, (1, 2), (1, 1), 3)
        assert r.residual <= 1e-12

    def test_nullhomogeneity_power_half(self):
        r = check_nullhomogeneity(MeanHandle.power(0.5), (1, 9), (2, 1), 0.5)
        assert r.residual <= 1e-12

    def test_reduction_arithmetic(self):
        r = check_reduction(ARITH, (1, 3), (1, 0), (0, 1))
        assert r.residual == 0.0

    def test_reduction_geometric(self):
        # both sides are the square root of 16
        r = check_reduction(GEO, (2, 8), (1, 1), (1, 1))
        assert r.residual == 0.0

    def test_reduction_gini(self):
        r = check_reduction(G21, (1, 2), (2, 0), (0, 2))
        assert r.residual == 0.0

    def test_elimination_arithmetic(self):
        r = check_elimination(ARITH, (1, 99, 3), (1, 0, 1), 1)
        assert r.residual == 0.0

    def test_elimination_geometric(self):
        r = check_elimination(GEO, (4, 7, 1), (1, 0, 1), 1)
        assert r.residual == 0.0
        assert evaluate(GEO, (4, 7, 1), (1, 0, 1)) == pytest.approx(2.0, abs=1e-12)

    def test_elimination_gini_single_left(self):
        r = check_elimination(G21, (5, 1), (0, 1), 0)
        assert r.residual == 0.0
        assert evaluate(G21, (5, 1), (0, 1)) == 1.0

    def test_elimination_needs_zero_weight(self):
        with pytest.raises(IndexNotZeroWeighted):
            check_elimination(ARITH, (1, 2), (1, 1), 0)

    def test_mean_value_constant(self):
        for mean in (ARITH, GEO, G21, MeanHandle.power(3.0)):
            assert evaluate(mean, (4.2, 4.2, 4.2), (1, 2, 3)) == 4.2
            assert _within_mean_value(mean, (4.2, 4.2, 4.2), (1, 2, 3))

    def test_mean_value_gini(self):
        v = evaluate(G21, (1, 2), (1, 1))
        assert v == pytest.approx(5 / 3, rel=1e-12)
        assert 1 <= v <= 2

    def test_mean_value_power3(self):
        v = evaluate(MeanHandle.power(3.0), (1, 2), (1, 1))
        assert v == pytest.approx((9 / 2) ** (1 / 3), rel=1e-12)
        assert 1 <= v <= 2

    def test_symmetry(self):
        r = check_symmetry(G21, (1, 2, 5), (3, 1, 2), (2, 0, 1))
        assert r.residual <= 1e-12


class TestAxiomResidualsRandomized:
    """Closed-form families should conform to ~1e-12 on random inputs."""

    FAMILIES = [
        MeanHandle.arithmetic(),
        MeanHandle.minimum(),
        MeanHandle.maximum(),
        MeanHandle.power(0.0),
        MeanHandle.power(-1.0),
        MeanHandle.power(0.5),
        MeanHandle.gini(2.0, 1.0),
        MeanHandle.gini21_counterexample(),
    ]

    @pytest.mark.parametrize("mean", FAMILIES, ids=str)
    def test_residuals_small(self, mean):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            x = tuple(float(v) for v in np.exp(rng.uniform(np.log(0.1), np.log(10), n)))
            w = tuple(float(v) for v in np.exp(rng.uniform(np.log(0.1), np.log(10), n)))
            t = float(rng.uniform(0.25, 4))
            lam = [float(rng.uniform(0, wi)) for wi in w]
            mu = [wi - li for wi, li in zip(w, lam)]
            perm = list(rng.permutation(n))
            wz = list(w)
            wz[int(rng.integers(0, n))] = 0.0
            j = wz.index(0.0)
            assert check_nullhomogeneity(mean, x, w, t).residual <= 1e-12
            assert check_reduction(mean, x, lam, mu).residual <= 1e-12
            assert check_elimination(mean, x, wz, j).residual <= 1e-12
            assert check_symmetry(mean, x, w, perm).residual <= 1e-12
            assert _within_mean_value(mean, x, w)


def _axiom_draws_by_row(seed, trials, n_max, lo, hi):
    """The sampled axiom inputs, one value at a time: trial ``i`` maps row
    ``i`` of ``default_rng(seed).random((trials, 4 n_max + 3))`` as
    ``sample_axiom_residuals`` must, field by field, with its ``math.exp``."""
    a, b = float(np.log(lo)), float(np.log(hi))
    c, d = float(np.log(0.1)), float(np.log(10.0))  # the weights' log bounds
    out = []
    for row in np.random.default_rng(seed).random((trials, 4 * n_max + 3)).tolist():
        n = 2 + int(row[0] * (n_max - 1))
        t = 0.25 + 3.75 * row[1]
        j = int(row[2] * n)
        ux, uw, us, keys = (row[3 + k * n_max:3 + k * n_max + n] for k in range(4))
        x = [math.exp(a + (b - a) * u) for u in ux]
        w = [math.exp(c + (d - c) * u) for u in uw]
        split = [wi * u for wi, u in zip(w, us)]
        perm = sorted(range(n), key=keys.__getitem__)
        out.append([x, w, t, split, perm, j])
    return out


def _per_trial(drawn):
    """The trials of ``means._draw_axiom_trials`` as Python values, without
    their padding."""
    x, w, t, split, perm, j = drawn
    for i, n in enumerate(np.count_nonzero(w, axis=1).tolist()):
        yield (x[i, :n].tolist(), w[i, :n].tolist(), float(t[i]), split[i, :n].tolist(),
               perm[i, :n].tolist(), int(j[i]))


def _sides_by_evaluate(mean, x, w, t, split, perm, j):
    """The seven sides of one trial as the ``check_*`` helpers evaluate them."""
    rest = [wi - s for wi, s in zip(w, split)]
    wz = list(w)
    wz[j] = 0.0
    keep = [i for i in range(len(x)) if i != j]
    return [evaluate(mean, x, w),
            evaluate(mean, x, [t * wi for wi in w]),
            evaluate(mean, x, [a + b for a, b in zip(split, rest)]),
            evaluate(mean, shuffle(x, x), shuffle(split, rest)),
            evaluate(mean, x, wz),
            evaluate(mean, [x[i] for i in keep], [w[i] for i in keep]),
            evaluate(mean, [x[i] for i in perm], [w[i] for i in perm])]


SAMPLED_MEANS = ["arithmetic", "min", "max", "power:0.5", "power:-2", "gini:2:1",
                 "gini:0.5:0", "gini21", "qa:log", "qa:pow:2",
                 "homdev:shifted-power:0.5", "homdev:shifted-power:-2"]
EXACT_BATCH = ("min", "max", "qa:", "homdev:")  # kernels equal to evaluate


def _plain(mean):
    """``mean`` without its kernels; a built-in homdev mean also without its
    certificate, evaluated by the plain scalar solver of its ``f``."""
    if mean.family == "homogeneous-deviation":
        f = shifted_power(mean.params[1])
        mean = replace(mean, _fn=lambda x, w: deviation.homogeneous_deviation(f, x, w))
    return replace(mean, _prefix=None, _batch=None)


@pytest.mark.kernel_parity
class TestAxiomSampler:
    """``sample_axiom_residuals`` draws what :func:`_axiom_draws_by_row` maps
    and evaluates every side through the batch kernels, to within 1e-13 of
    :func:`evaluate` (bit for bit where the kernel is exact)."""

    @staticmethod
    def _window(mean):
        lo, hi, _ = sampling_window(mean.domain)
        return max(lo, 1e-2), min(hi, 1e2)

    @classmethod
    def _draw(cls, mean, seed, trials, n_max, block=None):
        """The trials of one stream, drawn ``block`` (default all) at a time."""
        lo, hi = cls._window(mean)
        rng, block = np.random.default_rng(seed), block or trials
        blocks = [means._draw_axiom_trials(rng, min(block, trials - start), n_max,
                                           (np.log(lo), np.log(hi)))
                  for start in range(0, trials, block)]
        return tuple(np.concatenate(field) for field in zip(*blocks))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), trials=st.integers(1, 300),
           n_max=st.integers(2, 12), mean_id=st.sampled_from(SAMPLED_MEANS))
    def test_draws_equal_row_by_row_draws(self, seed, trials, n_max, mean_id):
        # drawn a trial, 117 trials (a block at n_max = 5) or all at a time
        mean = mean_from_id(mean_id)
        want = _axiom_draws_by_row(seed, trials, n_max, *self._window(mean))
        for block in (1, 117, None):
            drawn = self._draw(mean, seed, trials, n_max, block)
            assert [list(trial) for trial in _per_trial(drawn)] == want

    def test_maps_cover_their_ranges(self):
        x, w, t, split, perm, j = self._draw(mean_from_id("power:0.5"), 5, 2000, 3)
        n = np.count_nonzero(w, axis=1)
        assert set(n.tolist()) == {2, 3}
        assert set(zip(n.tolist(), j.tolist())) == {(k, i) for k in (2, 3) for i in range(k)}
        assert {tuple(p) for p in perm[n == 3].tolist()} == set(permutations(range(3)))
        assert 0.25 <= t.min() and t.max() < 4.0

    @pytest.mark.parametrize("n_max", [2, 3, 9])
    def test_padding_is_the_first_entry_with_weight_zero(self, n_max):
        x, w, t, split, perm, j = self._draw(mean_from_id("power:0.5"), 4, 300, n_max)
        assert x.shape == w.shape == split.shape == perm.shape == (300, n_max)
        n = np.count_nonzero(w, axis=1)
        assert sorted(set(n.tolist())) == list(range(2, n_max + 1))
        pad = np.arange(n_max) >= n[:, None]
        assert (x == np.where(pad, x[:, :1], x)).all()
        assert (split[pad] == 0.0).all() and (split[~pad] > 0.0).all()
        assert (perm == np.where(pad, np.arange(n_max), perm)).all()
        assert (j < n).all()

    @pytest.mark.parametrize("mean_id", SAMPLED_MEANS)
    def test_sides_match_evaluate(self, mean_id):
        mean = mean_from_id(mean_id)
        drawn = self._draw(mean, zlib.crc32(mean_id.encode()), 150, 7)
        got = means._axiom_sides(mean, *drawn).T
        want = np.array([_sides_by_evaluate(_plain(mean), *trial)
                         for trial in _per_trial(drawn)])
        if mean_id.startswith(EXACT_BATCH):
            assert got.tolist() == want.tolist()
        else:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("mean_id", ["arithmetic", "power:0", "power:-2", "gini:2:1",
                                         "gini:1:1", "gini21", "min", "max"])
    def test_padding_moves_no_side(self, mean_id):
        # one call on rows padded with zero-weight entries, up to 2 * 12 = 24
        # columns, gives each side the value of its unpadded rows: the trials of
        # each n, cut to n columns, evaluated side by side
        mean = mean_from_id(mean_id)
        x, w, t, split, perm, j = drawn = self._draw(mean, 7, 400, 12)
        sides = means._axiom_sides(mean, *drawn)
        n = np.count_nonzero(w, axis=1)
        for m in range(2, 13):
            of_m = n == m
            assert np.count_nonzero(of_m) > 1  # no row sum of a one-row array
            unpadded = means._side_rows(x[of_m, :m], w[of_m, :m], t[of_m], split[of_m, :m],
                                        perm[of_m, :m], j[of_m])
            assert sides[:, of_m].tolist() == [evaluate_rows(mean, xs, ws).tolist()
                                               for xs, ws in unpadded]

    @pytest.mark.parametrize("mean_id", ["qa:log", "homdev:shifted-power:0.5", "min"])
    def test_residuals_equal_check_helpers(self, mean_id):
        # where the kernel is exact, the worst residuals are the check_*
        # helpers' on the same draws, evaluated without kernels or certificate
        mean = mean_from_id(mean_id)
        plain = _plain(mean)
        lo, hi = self._window(mean)
        worst = dict.fromkeys(means.AXIOMS, 0.0)
        for x, w, t, split, perm, j in _axiom_draws_by_row(3, 120, 5, lo, hi):
            rest = [wi - s for wi, s in zip(w, split)]
            wz = list(w)
            wz[j] = 0.0
            for c in (check_nullhomogeneity(plain, x, w, t),
                      check_reduction(plain, x, split, rest),
                      mean_value_residual(plain, x, w),
                      check_elimination(plain, x, wz, j),
                      check_symmetry(plain, x, w, perm)):
                worst[c.axiom] = max(worst[c.axiom], c.residual)
        assert means.sample_axiom_residuals(mean, 120, 5, 3) == worst


    @pytest.mark.parametrize("mean, window", [
        (MeanHandle.affine(mean_from_id("gini:2:1"), -1.0, 0.0), "(-100.0, -0.01)"),
        (MeanHandle.affine(mean_from_id("power:0.5"), 1.0, 1000.0), "(1000.01, 1100.0)"),
    ], ids=["reflected gini:2:1", "power:0.5 shifted by 1000"])
    def test_a_window_outside_the_clip_is_refused(self, mean, window):
        # no entry of these windows lies in [1e-2, 1e2]: the first one's clipped
        # log bounds were NaN, the second's crossed and drew entries below the domain
        with pytest.raises(DomainViolation,
                           match=re.escape(f"{mean}: its sampling window {window} clipped")):
            means.sample_axiom_residuals(mean, 10, 4)

    def test_nan_residuals_count_as_zero(self):
        # a "mean" that is the first entry below 1 and NaN above (its scalar
        # kernel, which evaluate_rows hands the NaN rows, is NaN): a trial whose
        # residual is NaN counts as 0, as max(worst, nan) keeps worst in a loop
        # over the check_* helpers, and the other trials still count
        mean = replace(mean_from_id("power:0.5"), _fn=lambda x, w: math.nan,
                       _batch=lambda x, w: np.where(x[:, 0] < 1.0, x[:, 0], np.nan))
        want = 0.0
        for x, _, _, _, perm, _ in _per_trial(self._draw(mean, 1, 50, 5)):
            if x[0] < 1.0 and x[perm[0]] < 1.0:
                want = max(want, abs(x[0] - x[perm[0]]))
        got = means.sample_axiom_residuals(mean, 50, 5, 1)
        assert got["symmetry"] == want > 0.0
        all_nan = replace(mean, _batch=lambda x, w: np.full(len(x), np.nan))
        assert means.sample_axiom_residuals(all_nan, 50, 5, 1) == dict.fromkeys(means.AXIOMS, 0.0)


class TestSampledAxiomBounds:
    def test_memory_does_not_grow_with_trials(self):
        mean = mean_from_id("power:0.5")
        peaks = []
        for trials in (2_000, 20_000):
            tracemalloc.start()
            try:
                means.sample_axiom_residuals(mean, trials, 5, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # both runs evaluate full blocks; their peaks differ only by the mix
        # of n in a block (about 1%), where unbounded rows would grow 10x
        assert peaks[1] <= 1.1 * peaks[0]

    @pytest.mark.parametrize("mean_id, budget", [
        ("arithmetic", 1e-12), ("min", 1e-12), ("max", 1e-12), ("power:0.5", 1e-12),
        ("qa:pow:2", 1e-12), ("qa:log", 1e-12), ("gini:2:1", 1e-12), ("gini21", 1e-12),
        pytest.param("homdev:shifted-power:0.5", 1e-9, marks=pytest.mark.kernel_parity)])
    def test_criterion_7_budgets(self, mean_id, budget):
        # criterion 7's budgets: closed forms 1e-12, solver-backed 1e-9
        worst = means.sample_axiom_residuals(mean_from_id(mean_id), 10_000, 5,
                                             zlib.crc32(mean_id.encode()))
        assert list(worst) == list(means.AXIOMS)
        assert max(worst.values()) <= budget, worst

    def test_arguments_checked(self):
        mean = mean_from_id("power:0")
        with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
            means.sample_axiom_residuals(mean, 0, 5)
        with pytest.raises(ValueError, match="n_max must be >= 2, got 1"):
            means.sample_axiom_residuals(mean, 10, 1)
        with pytest.raises(NegativeSeed, match="seed must be >= 0, got -1"):
            means.sample_axiom_residuals(mean, 10, 5, -1)


class TestDuplicateMerging:
    """Splitting one entry's weight across a duplicate changes nothing."""

    @pytest.mark.parametrize("mean", [ARITH, GEO, G21], ids=str)
    def test_merge_duplicate(self, mean):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            x = [float(v) for v in rng.uniform(0.5, 5, n)]
            w = [float(v) for v in rng.uniform(0.1, 3, n)]
            k = int(rng.integers(0, n))
            extra = float(rng.uniform(0, 2))
            x2 = x[:k + 1] + [x[k]] + x[k + 1:]
            w2 = w[:k] + [w[k], extra] + w[k + 1:]
            wm = w[:k] + [w[k] + extra] + w[k + 1:]
            left = evaluate(mean, x2, w2)
            right = evaluate(mean, x, wm)
            assert abs(left - right) <= 1e-12 * (1 + abs(right))


class TestRepetitionBridge:
    def test_arithmetic_multiset(self):
        v = weighted_from_repetition_invariant(arithmetic_base, (1, 3), (1, 3))
        assert v == 2.5

    def test_min_base(self):
        v = weighted_from_repetition_invariant(lambda xs: float(min(xs)), (5, 2), (2, 1))
        assert v == 2

    def test_single(self):
        v = weighted_from_repetition_invariant(arithmetic_base, (4,), (7,))
        assert v == 4

    def test_exact_match_with_weighted_arithmetic(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            x = [float(v) for v in rng.uniform(0.01, 100, n)]
            w = [int(v) for v in rng.integers(0, 9, n)]
            if not any(w):
                w[0] = 1
            expanded = weighted_from_repetition_invariant(arithmetic_base, x, w)
            direct = evaluate(ARITH, x, [float(v) for v in w])
            assert expanded == direct  # bit-for-bit

    def test_gcd_reduction_avoids_cap(self):
        # raw expansion would need 2e6 slots; the gcd brings it to 2
        v = weighted_from_repetition_invariant(arithmetic_base, (1.0, 3.0),
                                               (10 ** 6, 10 ** 6))
        assert v == 2.0

    def test_cap_enforced(self):
        with pytest.raises(Overflow):
            weighted_from_repetition_invariant(arithmetic_base, (1.0, 3.0),
                                               (10 ** 6, 10 ** 6 + 1))

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            weighted_from_repetition_invariant(arithmetic_base, (1.0,), (1.5,))


@pytest.mark.kernel_parity
class TestBatchKernels:
    """Each batch kernel agrees with :func:`evaluate` row by row."""

    @pytest.mark.parametrize("name", [
        "arithmetic", "min", "max", "power:-2", "power:0", "power:0.5", "power:3",
        "gini:2:1", "gini:0.5:0", "gini:1:1", "gini21", "affine", "reflect"])
    def test_matches_evaluate(self, name, monkeypatch):
        rng = np.random.default_rng(20240611)
        x = np.exp(rng.uniform(math.log(0.01), math.log(100.0), (1000, 4)))
        w = rng.exponential(size=(1000, 4))
        if name == "affine":
            mean, x = MeanHandle.affine(GEO, 2.0, 1.0), 2.0 * x + 1.0
        elif name == "reflect":
            mean, x = MeanHandle.affine(GEO, -1.0, 0.0), -x
        else:
            mean = mean_from_id(name)
        if name == "gini21":
            x = x * (rng.random(x.shape) < 0.7)  # rows with zero entries
        expected = [evaluate(mean, xi.tolist(), wi.tolist()) for xi, wi in zip(x, w)]
        scalar = means.evaluate

        def row_fallback(mean, x, w):
            # the numpy gini21 kernel's 0 / 0 on a row of zeros is NaN
            if name == "gini21" and not any(x):
                return scalar(mean, x, w)
            raise AssertionError(f"{mean} has no batch kernel")

        monkeypatch.setattr(means, "evaluate", row_fallback)
        np.testing.assert_allclose(evaluate_rows(mean, x, w), expected, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("name", ["min", "max"])
    def test_zero_weight_entries_dropped(self, name):
        # a zero-weight entry is no entry at all, as in evaluate: here the
        # smallest and the largest entry carry no weight
        assert evaluate_rows(mean_from_id(name), np.array([[1.0, 5.0, 2.0]]),
                             np.array([[0.0, 1.0, 1.0]])).tolist() == \
            [evaluate(mean_from_id(name), [1.0, 5.0, 2.0], [0.0, 1.0, 1.0])]
        rng = np.random.default_rng(20261018)
        x = np.exp(rng.uniform(math.log(0.01), math.log(100.0), (500, 5)))
        w = rng.exponential(size=(500, 5)) * (rng.random((500, 5)) < 0.6)
        w[:, 2] += 1.0  # a positive weight in every row
        assert evaluate_rows(mean_from_id(name), x, w).tolist() == [
            evaluate(mean_from_id(name), xi.tolist(), wi.tolist()) for xi, wi in zip(x, w)]

    @pytest.mark.parametrize("name, dead", [
        ("power:3", 1e300), ("power:100", 2400.0), ("power:-100", 6.25e-4), ("gini:2:1", 1e300),
        ("gini:-2:-2", 1e-160)])
    def test_the_scale_skips_entries_of_weight_zero(self, name, dead):
        # scaled by the entry of weight 0, the live powers underflowed to 0 or
        # to subnormals, and the kernel's finite value went past the fallback;
        # the gate's fill gives the bits of the row without that entry (at
        # gini:-2:-2, 1.1328748248685312 against evaluate's ...314)
        mean, x, w = mean_from_id(name), [1.0, 1.5, dead], [1.0, 1.0, 0.0]
        got = evaluate_rows(mean, np.array([x]), np.array([w])).tolist()
        assert got == evaluate_rows(mean, np.array([x[:2]]), np.array([w[:2]])).tolist()
        assert got == pytest.approx([evaluate(mean, x, w)], rel=1e-13, abs=0)

    @pytest.mark.parametrize("mean, sign", [
        *(pytest.param(mean_from_id(name), 1.0, id=name) for name in (
            "arithmetic", "min", "max", "power:2", "power:-2", "gini:2:1", "gini:-2:-2", "gini21",
            "qa:log", "qa:pow:2", "homdev:shifted-power:0.5")),
        pytest.param(MeanHandle.affine(mean_from_id("power:0.5"), -1.0, 0.0), -1.0,
                     id="reflect(power:0.5)")])
    @pytest.mark.parametrize("dead", [1e160, 1e-160, 1e300, 1e-300, "min", "max"])
    def test_entries_of_weight_zero_leave_the_row_bits(self, mean, sign, dead):
        # the gate fills an entry of weight 0 with a live entry of its row, so
        # one at an extreme of the domain leaves every row's bits as they are;
        # unfilled, gini:-2:-2's term of 1e-160 in row (1, 1.5) is 0 * inf
        rng = np.random.default_rng(20261020)
        x = np.exp(rng.uniform(math.log(0.5), math.log(4.0), (30, 2)))
        w = rng.exponential(size=(30, 2))
        x[0], w[0] = (1.0, 1.5), (1.0, 1.0)
        extra = {"min": x.min(axis=1), "max": x.max(axis=1)}.get(dead, dead)
        at = np.arange(30) % 3  # the dead entry goes before, between or after the live ones
        live = np.arange(3) != at[:, None]
        padded, weights = np.zeros((30, 3)), np.zeros((30, 3))
        padded[live], weights[live] = x.ravel(), w.ravel()
        padded[~live] = extra
        _assert_same_bits(evaluate_rows(mean, sign * padded, weights),
                          evaluate_rows(mean, sign * x, w))

    @pytest.mark.parametrize("name, rows, want", [
        ("arithmetic", [[1e308, 1.5e308], [1e308, 1e308]], [1.25e308, 1e308]),  # w x sums to inf
        ("gini21", [[1e200, 1e200]], [1e200]),  # a constant row beyond the moment range
    ])
    def test_rows_beyond_the_kernel_range_take_evaluate(self, name, rows, want):
        mean, x = mean_from_id(name), np.array(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluate_rows(mean, x, np.ones_like(x)).tolist()
        assert got == want == [evaluate(mean, row, [1.0] * len(row)) for row in rows]

    @pytest.mark.parametrize("name, bad", [
        *(pytest.param(name, -1.0, id=name)
          for name in ("power:0.5", "qa:log", "homdev:shifted-power:0.5")),
        # rows to which the numpy kernels give a finite value
        *(pytest.param(name, bad, id=f"{name} at {bad}") for name, bad in (
            ("power:0.5", 0.0), ("power:0", 0.0), ("power:2", -1.0), ("gini:2:1", -1.0),
            ("gini21", -1.0)))])
    def test_row_outside_the_domain_raises_evaluates_error(self, name, bad):
        mean = mean_from_id(name)
        x, w = np.array([[1.0, 2.0], [bad, 2.0]]), np.ones((2, 2))
        got = _outcome(lambda: evaluate_rows(mean, x, w))
        assert got == (DomainViolation, f"entry {bad} outside domain of {name}")

    def test_only_the_rows_outside_the_domain_go_to_evaluate(self, monkeypatch):
        rng = np.random.default_rng(20261019)
        x = np.exp(rng.uniform(math.log(0.01), math.log(100.0), (50, 3)))
        x[20, 1] = -1.0
        scalar, calls = means.evaluate, []

        def counting(mean, x, w):
            calls.append(x)
            return scalar(mean, x, w)

        monkeypatch.setattr(means, "evaluate", counting)
        got = _outcome(lambda: evaluate_rows(mean_from_id("qa:log"), x, np.ones_like(x)))
        assert got == (DomainViolation, "entry -1.0 outside domain of qa:log")
        assert calls == [x[20].tolist()]


# Every built-in id, a mirrored mean and a homogeneous deviation of a caller's f
# (a mean without array kernels), each with three rows inside its domain.
_GATE_ROWS = np.array([[1.0, 2.0, 3.0], [2.0, 3.0, 5.0], [0.5, 4.0, 1.5]])
_GATE_MEANS = [pytest.param(mean_from_id(name), _GATE_ROWS, id=name) for name in (
    "arithmetic", "min", "max", "geometric", "power:0.5", "power:-2", "gini:2:1", "gini:1:1",
    "gini21", "qa:log", "qa:pow:2", "homdev:shifted-power:0.5")] + [
    pytest.param(MeanHandle.affine(mean_from_id("power:0.5"), -1.0, 0.0), -_GATE_ROWS,
                 id="reflect(power:0.5)"),
    pytest.param(MeanHandle.homogeneous_deviation(math.log), _GATE_ROWS, id="homdev(log)")]
_GATE_ENTRY_POINTS = {
    "rows": (evaluate_rows, evaluate),
    "prefix rows": (evaluate_prefix_rows, evaluate_prefixes),
    "last prefix": (partial(evaluate_prefix_rows, last=True), evaluate)}


@pytest.mark.kernel_parity
class TestKernelGate:
    """The gate in front of the array kernels: a block with a row whose weight
    is negative, NaN or infinite, or whose weights are all 0, raises what the
    scalar path raises on the first such row, in every family.  A block
    without rows is an empty result of the entry point's shape; a block of
    rows without entries raises the scalar path's ``AllZero``."""

    @pytest.mark.parametrize("mean, x", _GATE_MEANS)
    @pytest.mark.parametrize("entry", _GATE_ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf, "zeros", "all zeros"])
    def test_a_bad_weight_raises_the_scalar_error(self, mean, x, entry, bad):
        rows, scalar = _GATE_ENTRY_POINTS[entry]
        w = np.ones_like(x)
        if bad == "all zeros":
            w[:], first = 0.0, 0
        elif bad == "zeros":
            w[1], first = 0.0, 1
        else:
            w[1, 1], first = bad, 1
        want = _outcome(lambda: scalar(mean, x[first].tolist(), w[first].tolist()))
        assert _raised(want) in (AllZero, NegativeWeight, NonfiniteWeight)
        assert _outcome(lambda: rows(mean, x, w)) == want

    @pytest.mark.parametrize("mean, x", _GATE_MEANS)
    def test_an_empty_block_is_an_empty_result(self, mean, x):
        x, w = np.empty((0, 3)), np.empty((0, 3))
        assert evaluate_rows(mean, x, w).shape == (0,)
        assert evaluate_prefix_rows(mean, x, w).shape == (0, 3)
        assert evaluate_prefix_rows(mean, x, w, last=True).shape == (0,)

    @pytest.mark.parametrize("mean, x", _GATE_MEANS)
    @pytest.mark.parametrize("entry", _GATE_ENTRY_POINTS)
    def test_rows_without_entries_raise_the_scalar_error(self, mean, x, entry):
        rows, scalar = _GATE_ENTRY_POINTS[entry]
        want = _outcome(lambda: scalar(mean, [], []))
        assert want == (AllZero, "weight vector must be nonempty")
        assert _outcome(lambda: rows(mean, np.empty((3, 0)), np.empty((3, 0)))) == want


def _power_sum_oracle(p, x, w):
    """``sum_i w_i (x_i / c)^p`` per row and its scale ``c``: the row's max
    (p > 0) or min (p < 0), or 1 at p = 0."""
    if p == 0.0:
        return w.sum(axis=1), 1.0
    c = x.max(axis=1, keepdims=True) if p > 0 else x.min(axis=1, keepdims=True)
    return (w * (x / c) ** p).sum(axis=1), c[:, 0]


def _gini_oracle(p, q, x, w):
    if p == q:
        c = x.min(axis=1, keepdims=True) if p < 0 else x.max(axis=1, keepdims=True)
        with np.errstate(over="ignore"):
            scaled = w * (x / c) ** p
        return np.exp((scaled * np.log(x)).sum(axis=1) / scaled.sum(axis=1))
    (sp, cp), (sq, cq) = _power_sum_oracle(p, x, w), _power_sum_oracle(q, x, w)
    if p * q < 0:  # two scales: the log form
        return np.exp(((p * np.log(cp) + np.log(sp)) - (q * np.log(cq) + np.log(sq))) / (p - q))
    return (cp if p else cq) * (sp / sq) ** (1.0 / (p - q))  # one scale: one power


def _gini21_oracle(x, w):
    den = (w * x).sum(axis=1)
    num = (w * x * x).sum(axis=1)
    return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)


@pytest.mark.kernel_parity
class TestBatchOracles:
    """The numpy closed forms keep their formulas, operation for operation: each
    batch kernel equals its numpy expression bit for bit, on the column-major
    rows that :func:`evaluate_rows` hands it.  Both sides run under the same
    SIMD dispatch, so the comparison holds with and without it."""

    @staticmethod
    def _rows(n, zero_entries):
        rng = np.random.default_rng(20261019)
        x = np.exp(rng.uniform(math.log(0.01), math.log(100.0), (600, n)))
        w = rng.exponential(size=(600, n))
        if zero_entries:
            x = x * (rng.random(x.shape) < 0.7)
            x[:10] = 0.0  # rows whose moments vanish
        if n > 2:  # zero-weight padding: copies of the first entry, as _axiom_sides pads
            x[100:300, n // 2:] = x[100:300, :1]
            w[100:300, n // 2:] = 0.0
        return x, w

    @pytest.mark.parametrize("name, oracle", [
        ("power:-2", lambda x, w: _gini_oracle(-2.0, 0.0, x, w)),
        ("power:0", lambda x, w: _gini_oracle(0.0, 0.0, x, w)),
        ("power:0.5", lambda x, w: _gini_oracle(0.5, 0.0, x, w)),
        ("power:3", lambda x, w: _gini_oracle(3.0, 0.0, x, w)),
        ("gini:2:1", lambda x, w: _gini_oracle(2.0, 1.0, x, w)),
        ("gini:0.5:0", lambda x, w: _gini_oracle(0.5, 0.0, x, w)),
        ("gini:-1:2", lambda x, w: _gini_oracle(-1.0, 2.0, x, w)),
        ("gini:1:1", lambda x, w: _gini_oracle(1.0, 1.0, x, w)),
        ("gini:-1:-1", lambda x, w: _gini_oracle(-1.0, -1.0, x, w)),
        ("gini21", _gini21_oracle),
    ])
    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_rows_equal_the_numpy_oracle(self, name, oracle, n):
        x, w = self._rows(n, zero_entries=name == "gini21")
        want = oracle(np.asfortranarray(x), np.asfortranarray(w))
        assert evaluate_rows(mean_from_id(name), x, w).tolist() == want.tolist()


QA_MEANS = [(name, mean_from_id(name)) for name in ("qa:log", "qa:pow:2", "qa:pow:-1")] + [
    ("cube", MeanHandle.quasi_arithmetic(GeneratorSpec(
        lambda t: t ** 3, lambda y: y ** (1.0 / 3.0), label="cube")))]


def _capped_exp(y):
    """``exp`` as a table-driven inverse might fail far outside the probing
    window: a ValueError on ``(50, 100]``, inf beyond."""
    if y > 100.0:
        return math.inf
    if y > 50.0:
        raise ValueError(f"no table entry at {y}")
    return math.exp(y)


# a quasi-arithmetic mean whose inverse fails for entries around 1e25 and up
CAPPED_LOG = MeanHandle.quasi_arithmetic(GeneratorSpec(math.log, _capped_exp,
                                                       label="capped-log"))


@pytest.mark.kernel_parity
class TestQuasiArithmeticKernel:
    """The quasi-arithmetic batch kernel equals the row-by-row fallback bit for
    bit, raises what it raises, and serves the sampler without it."""

    @staticmethod
    def _rows(n):
        rng = np.random.default_rng(20261018)
        x = np.exp(rng.uniform(math.log(0.01), math.log(100.0), (400, n)))
        w = rng.exponential(size=(400, n))
        x[:20] = 2.5  # constant rows
        if n > 1:
            x[20:40, 1:] = x[20:40, 1:2]  # constant once the zero weight is dropped
            w[20:60, 0] = 0.0
            w[60:80, -1] = 0.0
        x[80:90] = 1.0 + rng.uniform(0.0, 1e-12, (10, n))  # averages near the constant
        return x, w

    @pytest.mark.parametrize("name, mean", QA_MEANS, ids=[c[0] for c in QA_MEANS])
    @pytest.mark.parametrize("n", [1, 2, 3, 9])
    def test_equals_row_fallback(self, name, mean, n):
        x, w = self._rows(n)
        want = evaluate_rows(replace(mean, _batch=None), x, w)
        assert evaluate_rows(mean, x, w).tolist() == want.tolist()

    @pytest.mark.parametrize("name, mean", QA_MEANS, ids=[c[0] for c in QA_MEANS])
    def test_overflowing_row_raises_the_fallback_error(self, name, mean):
        x, w = self._rows(3)
        # a generator value, or for log the sum of the weighted values, beyond
        # the float range, with a weight sum inside it
        big = {"qa:log": ([1e65, 1e69, 2.0], [1e306, 1e306, 1.0]),
               "qa:pow:-1": ([1e-310, 1.0, 2.0], [1.0, 1.0, 1.0])}
        x[200], w[200] = big.get(name, ([1.0, 1e200, 2.0], [1.0, 1.0, 1.0]))
        got = _outcome(lambda: evaluate_rows(mean, x, w))
        assert _raised(got) is GeneratorOverflow
        assert got == _outcome(lambda: evaluate_rows(replace(mean, _batch=None), x, w))

    @pytest.mark.parametrize("mean_id, row", [("qa:pow:2", [1.0, 1e-200, 2.0]),
                                              ("qa:pow:-1", [1.0, 1e308, 2.0])])
    def test_underflowing_row_raises_the_fallback_error(self, mean_id, row):
        mean = mean_from_id(mean_id)
        x, w = self._rows(3)
        x[200], w[200] = row, [1.0, 1.0, 1.0]
        got = _outcome(lambda: evaluate_rows(mean, x, w))
        assert _raised(got) is GeneratorOverflow and "generator underflows at entry" in got[1]
        assert got == _outcome(lambda: evaluate_rows(replace(mean, _batch=None), x, w))

    @pytest.mark.parametrize("big, message", [
        ([1e30, 1e40, 1e35], "capped-log: inverse failed at 80.59"),  # the mean log
        ([1e50, 1e60, 1e55], "capped-log: inverse returned inf"),
    ])
    def test_failing_inverse_raises_the_fallback_error(self, big, message):
        x, w = self._rows(3)
        x[200], w[200] = big, [1.0, 1.0, 1.0]
        got = _outcome(lambda: evaluate_rows(CAPPED_LOG, x, w))
        assert _raised(got) is InverseOutOfRange and got[1].startswith(message)
        assert got == _outcome(lambda: evaluate_rows(replace(CAPPED_LOG, _batch=None), x, w))

    def test_exact_entries_beyond_the_float_range(self):
        # math.log takes a big int as it is, and a fraction below the float
        # range as the float 0.0; the generator log does the same
        mean = mean_from_id("qa:log")
        assert evaluate(mean, [10 ** 400, 2], [1, 1]) == pytest.approx(2 ** 0.5 * 1e200, rel=1e-13)
        assert _raised(_outcome(lambda: evaluate(mean, [Fraction(10 ** 400), 2], [1, 1]))) \
            is GeneratorOverflow
        assert _outcome(lambda: evaluate(mean, [Fraction(1, 10 ** 400), 2], [1, 1])) == \
            _outcome(lambda: math.log(Fraction(1, 10 ** 400)))
        x = np.exp(np.linspace(0.0, 1.0, 30)).tolist()
        for last in (10 ** 400, Fraction(1, 10 ** 400)):
            xs, w = x + [last], [1.0] * 31
            assert _outcome(lambda: evaluate_prefixes(mean, xs, w)) == _outcome(
                lambda: [evaluate(mean, xs[:k], w[:k]) for k in range(1, 32)])

    @pytest.mark.parametrize("call", [evaluate_rows, evaluate_prefix_rows])
    def test_negative_weight_raises_the_fallback_error(self, call):
        x, w = np.array([[1.0, 2.0, 3.0]]), np.array([[1.0, -1.0, 3.0]])
        got = _outcome(lambda: call(mean_from_id("qa:log"), x, w))
        assert got == (NegativeWeight, "negative weight -1.0")

    @pytest.mark.parametrize("name, mean", QA_MEANS, ids=[c[0] for c in QA_MEANS])
    def test_sampler_never_evaluates_row_by_row(self, name, mean, monkeypatch):
        from kedlaya.concavity import sample_jensen_concavity

        def row_fallback(*args):
            raise AssertionError(f"{mean} evaluated row by row")

        monkeypatch.setattr(means, "evaluate", row_fallback)
        assert sample_jensen_concavity(mean, 2, 300, seed=1).trials == 300


# (test id, mean, entry transform) for every family with a prefix kernel
PREFIX_MEANS = [(name, mean_from_id(name), None) for name in (
    "arithmetic", "min", "max", "power:-2", "power:0", "power:0.5", "power:3",
    "gini:0.5:0", "gini:2:1", "gini:-1:-1", "gini:1.5:1.5", "gini21",
    "qa:log", "qa:pow:2")] + [
    ("affine", MeanHandle.affine(GEO, 2.0, 1.0), lambda v: 2.0 * v + 1.0),
    ("reflect", MeanHandle.affine(GEO, -1.0, 0.0), lambda v: -v),
]


def _prefix_inputs(name, transform):
    """Seeded entries and weights: random, increasing and decreasing runs (every
    prefix a new max or min), constant runs, and interior zero weights."""
    rng = np.random.default_rng(20261018)
    cases = []
    for n in (2, 5, 17, 40):
        x = np.exp(rng.uniform(math.log(0.01), math.log(100.0), n))
        w = rng.exponential(size=n)
        cases += [(x, w), (np.sort(x), w), (np.sort(x)[::-1], w)]
        cases.append((np.repeat(x, 4)[:n], w))
        zeros = w * (rng.random(n) < 0.6)
        zeros[0] = w[0]
        cases.append((x, zeros))
    cases.append((np.array([3.0, 3.0, 3.0]), np.ones(3)))
    out = []
    for x, w in cases:
        if name == "gini21":
            x = x * (rng.random(x.shape) < 0.7)  # zero entries
        if transform is not None:
            x = transform(x)
        out.append((x.tolist(), w.tolist()))
    return out


# The closed forms with an error rule, which have the numpy (rows, n) prefix driver.
_NUMPY_MEANS = st.one_of(
    st.floats(-4.0, 4.0).map(MeanHandle.power),
    st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)).map(lambda pq: MeanHandle.gini(*pq)),
    st.just(MeanHandle.gini21_counterexample()))
_NUMPY_IDS = ["power:0", "power:0.5", "power:-2", "power:3", "gini:0.5:0", "gini:2:1",
              "gini:-1:-1", "gini:3:3", "gini21"]


def _prefix_rows_against_scans(mean, x, w) -> np.ndarray:
    """Check :func:`evaluate_prefix_rows` on every row against
    :func:`evaluate_prefixes`, and return which rows the driver left to it."""
    driver = mean._prefix_rows(x, w, False)
    routed = np.isnan(driver).all(axis=1)
    assert (routed | np.isfinite(driver).all(axis=1)).all()  # NaN rows or finite ones
    got = evaluate_prefix_rows(mean, x, w)
    last = evaluate_prefix_rows(mean, x, w, last=True)
    for i, (xi, wi) in enumerate(zip(x.tolist(), w.tolist())):
        want = evaluate_prefixes(mean, xi, wi)
        first = next((k for k, v in enumerate(xi) if v != xi[0]), len(xi))
        assert got[i, :first].tolist() == want[:first]  # constant prefixes are x_1
        if routed[i]:
            assert got[i].tolist() == want
            assert last[i] == evaluate(mean, xi, wi)
        else:
            assert (np.abs(got[i] - want) <= PREFIX_ROWS_RTOL * np.abs(want)).all()
            assert last[i] == got[i, -1]
    return routed


@pytest.mark.kernel_parity
class TestPrefixRows:
    """The (rows, n) prefix driver against the exact scans: within 1e-13
    relative on the rows it takes, bit for bit on the rows it leaves."""

    @settings(max_examples=150, deadline=None)
    @given(_NUMPY_MEANS, st.integers(0, 2 ** 32), st.sampled_from([2, 8, 63, 64, 65, 120]),
           st.sampled_from([0.5, 2.3, 8.0]))
    def test_within_tolerance_or_exact(self, mean, seed, n, spread):
        # n on both sides of _FSUM_SCAN_MAX, entries up to e^spread apart
        rng = np.random.default_rng(seed)
        x = np.exp(rng.uniform(-spread, spread, (4, n)))
        w = np.exp(rng.uniform(math.log(0.1), math.log(10.0), (4, n)))
        x[1, : n // 3] = x[1, 0]  # a constant prefix
        _prefix_rows_against_scans(mean, x, w)

    @pytest.mark.parametrize("name", _NUMPY_IDS)
    def test_sweep_rows_take_the_driver(self, name):
        x, w, _ = next(sweep_blocks(4, range(100), 8, 9, 100))
        assert not _prefix_rows_against_scans(mean_from_id(name), x, w).any()

    @pytest.mark.parametrize("name", _NUMPY_IDS)
    def test_wide_rows_go_to_the_exact_scans(self, name):
        x = np.array([[1e-200, 3.0, 1e150, 0.5], [2.0, 1e150, 1e-200, 2.0]])
        assert _prefix_rows_against_scans(mean_from_id(name), x, np.ones((2, 4))).all()

    @pytest.mark.parametrize("name", ["gini:0.5:0.49", "power:1e-3", "gini:-2:-2.001"])
    def test_near_equal_parameters_go_to_the_exact_scans(self, name):
        # the finaliser divides the error of log S_p - log S_q by p - q
        x, w, _ = next(sweep_blocks(4, range(50), 8, 9, 50))
        assert _prefix_rows_against_scans(mean_from_id(name), x, w).all()

    def test_constant_rows_are_their_entry(self):
        x = np.array([[3.0] * 5, [0.25] * 5])
        for name in _NUMPY_IDS:
            assert evaluate_prefix_rows(mean_from_id(name), x, np.ones((2, 5))).tolist() == \
                x.tolist()

    def test_means_without_a_driver_are_exact(self):
        x, w, _ = next(sweep_blocks(2, range(20), 8, 9, 20))
        for name in ("arithmetic", "min", "homdev:shifted-power:0.5"):
            mean = mean_from_id(name)
            assert mean._prefix_rows is None
            assert evaluate_prefix_rows(mean, x, w).tolist() == [
                evaluate_prefixes(mean, xi, wi) for xi, wi in zip(x.tolist(), w.tolist())]

    @pytest.mark.parametrize("name, mean", QA_MEANS[::3], ids=[c[0] for c in QA_MEANS[::3]])
    def test_closed_forms_without_an_error_rule_have_an_exact_driver(self, name, mean):
        x, w, _ = next(sweep_blocks(2, range(40), 8, 9, 40))
        x[1, :3] = x[1, 0]  # a constant prefix
        assert not np.isnan(mean._prefix_rows(x, w, False)).any()  # no row left to the scans
        assert evaluate_prefix_rows(mean, x, w).tolist() == [
            evaluate_prefixes(mean, xi, wi) for xi, wi in zip(x.tolist(), w.tolist())]
        assert evaluate_prefix_rows(mean, x, w, last=True).tolist() == [
            evaluate(mean, xi, wi) for xi, wi in zip(x.tolist(), w.tolist())]

    @pytest.mark.parametrize("name, mean", QA_MEANS[::3], ids=[c[0] for c in QA_MEANS[::3]])
    def test_the_exact_driver_drops_zero_weights(self, name, mean):
        x, w, _ = next(sweep_blocks(3, range(40), 8, 9, 40))
        w[::2, 2:5] = 0.0  # interior zero weights
        x[1::4, 2:], w[1::4, 1] = x[1::4, :1], 0.0  # constant once the zero weight is dropped
        x[3::4, 5:], w[3::4, 5:] = x[3::4, :1], 0.0  # padded as _axiom_sides pads
        filled = means._filled(x, w)  # the rows as the gate hands them to the kernels
        assert not np.isnan(mean._prefix_rows(filled, w, False)).any()  # no row left to the scans
        assert evaluate_prefix_rows(mean, x, w).tolist() == [
            evaluate_prefixes(mean, xi, wi) for xi, wi in zip(x.tolist(), w.tolist())]
        assert mean._batch(filled, w).tolist() == [
            evaluate(mean, xi, wi) for xi, wi in zip(x.tolist(), w.tolist())]

    def test_rows_outside_the_domain_raise_as_the_scan_does(self):
        x = np.array([[1.0, 2.0, 3.0], [1.0, -2.0, 3.0]])
        for mean in (GEO, mean_from_id("qa:pow:2")):  # (-2)^2 is a generator value
            with pytest.raises(DomainViolation, match="entry -2.0"):
                evaluate_prefix_rows(mean, x, np.ones((2, 3)))

    @pytest.mark.parametrize("name", ["power:0", "qa:log"])
    def test_a_constant_row_without_a_first_weight_raises_as_the_scan_does(self, name):
        x, w = np.full((2, 3), 2.0), np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        with pytest.raises(AllZero):
            evaluate_prefix_rows(mean_from_id(name), x, w)


# The exact prefix driver's means: QA_MEANS, CAPPED_LOG, a generator whose
# values are Python ints (above 2^53 they round when converted to floats) and
# one on the reals, whose sums can cancel to 0 and whose entries can be -0.0.
_DRIVER_MEANS = QA_MEANS + [
    ("capped-log", CAPPED_LOG),
    ("int-scaled", MeanHandle.quasi_arithmetic(GeneratorSpec(
        lambda t: round(t * 2.0 ** 60), lambda y: y / 2.0 ** 60, label="int-scaled"))),
    ("identity", MeanHandle.quasi_arithmetic(GeneratorSpec(
        lambda t: t, lambda y: y, domain=REALS, label="identity")))]


def _driver_block(mean, seed, rows, n, spread, zeros, fortran):
    """Seeded ``(rows, n)`` entries and weights for ``mean``: entries up to
    ``e^spread`` apart, a constant row and a constant prefix, signed entries
    and zeros on the reals, and weights with interior zeros or padded as
    :func:`kedlaya.means._axiom_sides` pads (copies of the first entry of
    weight 0), in C or Fortran order."""
    rng = np.random.default_rng(seed)
    x = np.exp(rng.uniform(-spread, spread, (rows, n)))
    w = np.exp(rng.uniform(math.log(0.1), math.log(10.0), (rows, n)))
    x[0], x[1, : n // 2] = x[0, 0], x[1, 0]
    if mean.domain == REALS:
        x *= rng.choice([-1.0, 1.0], (rows, n))
        x[2::5], x[3::5, ::2] = -0.0, 0.0
    if zeros == "interior":
        w[:, 1:][rng.random((rows, n - 1)) < 0.3] = 0.0
    elif zeros == "padded":
        pad = np.arange(n) >= rng.integers(1, n + 1, (rows, 1))
        x, w = np.where(pad, x[:, :1], x), np.where(pad, 0.0, w)
    order = "F" if fortran else "C"
    return np.asarray(x, order=order), np.asarray(w, order=order)


def _assert_same_bits(got, want):
    """``got`` and ``want`` hold the same floats, bit for bit: the sign of
    zero and the positions of NaN included."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(got)
    assert (nan == np.isnan(want)).all()
    assert (got[~nan].view(np.uint64) == want[~nan].view(np.uint64)).all()


def _scalar_rows(mean, x, w, last):
    """The outcome of each row's :func:`evaluate_prefixes`, or with ``last``
    of its :func:`evaluate` as a list of one: its values or the error it
    raises."""
    scalar = (lambda x, w: [evaluate(mean, x, w)]) if last else partial(evaluate_prefixes, mean)
    return [_outcome(lambda: scalar(xi, wi)) for xi, wi in zip(x.tolist(), w.tolist())]


@pytest.mark.kernel_parity
class TestExactDriverParity:
    """The exact prefix driver gives the scalar path's bits or NaN, and the
    settled rows are the scalar path's values and errors, in row order."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(_DRIVER_MEANS), st.integers(0, 2 ** 32), st.integers(3, 12),
           st.integers(1, 12), st.sampled_from([1.0, 30.0, 400.0]),
           st.sampled_from(["none", "interior", "padded"]), st.booleans(), st.booleans())
    def test_rows_are_the_scalar_bits(self, named, seed, rows, n, spread, zeros, fortran, last):
        mean = named[1]
        x, w = _driver_block(mean, seed, rows, n, spread, zeros, fortran)
        with np.errstate(all="ignore"):  # on the rows as the gate fills them
            raw = mean._prefix_rows(means._filled(x, w), w, last)
        assert raw.shape == (rows, 1 if last else n)
        want = _scalar_rows(mean, x, w, last)
        for got, outcome in zip(raw, want):
            if _raised(outcome):  # a value that is not finite hands the row to the scalar path
                assert not np.isfinite(got).all()
            else:  # each value is NaN or the scalar bits
                nan = np.isnan(got)
                _assert_same_bits(got[~nan], np.asarray(outcome)[~nan])
        settled = _outcome(lambda: evaluate_prefix_rows(mean, x, w, last))
        failed = next((outcome for outcome in want if _raised(outcome)), None)
        if failed:  # the first failing row raises
            assert settled == failed
        else:
            _assert_same_bits(settled, np.reshape(want, settled.shape))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(_DRIVER_MEANS), st.integers(0, 2 ** 32), st.integers(1, 12),
           st.sampled_from(["none", "interior", "padded"]), st.booleans())
    def test_each_row_is_its_one_row_call(self, named, seed, n, zeros, fortran):
        # concavity's chunk_gaps evaluates three stacked blocks in one call
        mean = named[1]
        x, w = _driver_block(mean, seed, 8, n, 30.0, zeros, fortran)
        block = _outcome(lambda: evaluate_rows(mean, x, w))
        prefixes = _outcome(lambda: evaluate_prefix_rows(mean, x, w))
        for i in range(len(x)):
            if not _raised(block):
                _assert_same_bits(block[i], evaluate_rows(mean, x[i:i + 1], w[i:i + 1])[0])
            if not _raised(prefixes):
                _assert_same_bits(prefixes[i], evaluate_prefix_rows(mean, x[i:i + 1], w[i:i + 1])[0])

    @pytest.mark.parametrize("last", [False, True])
    def test_an_inverse_that_raises_on_one_row_leaves_the_rows_to_evaluate(self, last):
        # capped-log's inverse raises on the mean log of row 3 (about 80.6),
        # then returns inf on row 5's (about 115): row 3 raises first
        x, w = _driver_block(CAPPED_LOG, 5, 8, 3, 1.0, "none", True)
        x[3], x[5] = [1e30, 1e40, 1e35], [1e50, 1e50, 1e50 * 1.5]
        with np.errstate(all="ignore"):
            raw = CAPPED_LOG._prefix_rows(x, w, last)[:, -1]
        assert raw[0] == x[0, 0] and np.isnan(raw[1:]).all()  # but the constant row
        got = _outcome(lambda: evaluate_prefix_rows(CAPPED_LOG, x, w, last))
        assert _raised(got) is InverseOutOfRange and got[1].startswith("capped-log: inverse failed")
        assert got == next(o for o in _scalar_rows(CAPPED_LOG, x, w, last) if _raised(o))


class TestPrefixKernels:
    """Each prefix kernel gives :func:`evaluate` on every prefix, bit for bit."""

    @pytest.mark.parametrize("name, mean, transform", PREFIX_MEANS,
                             ids=[c[0] for c in PREFIX_MEANS])
    def test_equals_evaluate_on_every_prefix(self, name, mean, transform, monkeypatch):
        inputs = _prefix_inputs(name, transform)
        expected = [[evaluate(mean, x[:k], w[:k]) for k in range(1, len(x) + 1)]
                    for x, w in inputs]

        def per_prefix_fallback(*args):
            raise AssertionError(f"{mean} has no prefix kernel")

        monkeypatch.setattr(means, "evaluate", per_prefix_fallback)
        for (x, w), want in zip(inputs, expected):
            assert evaluate_prefixes(mean, x, w) == want

    @pytest.mark.parametrize("name, mean, transform", PREFIX_MEANS,
                             ids=[c[0] for c in PREFIX_MEANS])
    def test_kedlaya_sides_with_interior_zero_weights(self, name, mean, transform,
                                                      monkeypatch):
        inputs = [(x, w) for x, w in _prefix_inputs(name, transform) if 0.0 in w[1:]]
        assert inputs
        expected = []
        for x, w in inputs:
            m = partial_arithmetic_means(x, w)
            a = [evaluate(mean, x[:k], w[:k]) for k in range(1, len(x) + 1)]
            expected.append((weighted_average(a, w), evaluate(mean, m, w)))

        def per_prefix_fallback(*args):
            raise AssertionError(f"{mean} has no prefix kernel")

        monkeypatch.setattr(means, "evaluate", per_prefix_fallback)
        for (x, w), want in zip(inputs, expected):
            assert kedlaya_sides(mean, x, w) == want

    def test_solver_family_falls_back_to_evaluate(self):
        # every scan takes one certified scalar solve per prefix, each
        # certificate from running moments (TestHomdevKernels)
        mean = mean_from_id("homdev:shifted-power:0.5")
        x, w = [1.5, 0.25, 8.0, 8.0, 2.0], [3, 0, 2, 1, 1]
        assert evaluate_prefixes(mean, x, w) == [evaluate(_plain(mean), x[:k], w[:k])
                                                 for k in range(1, 6)]

    def test_first_weight_zero_rejected(self):
        with pytest.raises(AllZero):
            evaluate_prefixes(GEO, [1.0, 2.0], [0.0, 1.0])

    @staticmethod
    def _prefix_fsum_inputs():
        """Wide random scans on both sides of _FSUM_SCAN_MAX, then each edge
        case padded with ones to its own length, _FSUM_SCAN_MAX and one more."""
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 200))
            yield (rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-300, 300, n)).tolist()
        for case in ([1e308, 1e308, -1e308], [1.0, math.inf, 2.0], [math.inf, -math.inf],
                     [1.0, math.nan], [1.0, 2.0 ** -60, -1.0, 2.0 ** -60]):
            for size in (len(case), _FSUM_SCAN_MAX, _FSUM_SCAN_MAX + 1):
                yield [1.0] * (size - len(case)) + case

    @staticmethod
    def _assert_prefix_fsums_are_fsums(v):
        try:
            want = [math.fsum(v[:k]) for k in range(1, len(v) + 1)]
        except (OverflowError, ValueError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                prefix_fsums(v)
        else:
            assert list(map(repr, prefix_fsums(v))) == list(map(repr, want))

    @pytest.mark.kernel_parity
    def test_prefix_fsums_equal_fsum_of_every_prefix(self):
        # short scans take fsum per prefix, long ones the TwoSum kernel
        for v in self._prefix_fsum_inputs():
            self._assert_prefix_fsums_are_fsums(v)

    @pytest.mark.kernel_parity
    def test_prefix_fsums_defer_to_fsum(self, monkeypatch):
        # a long scan the kernel leaves uncertain takes fsum per prefix
        monkeypatch.setattr(deviation, "exact_prefix_sums", lambda t: np.full(t.shape, np.nan))
        for v in self._prefix_fsum_inputs():
            self._assert_prefix_fsums_are_fsums(v)

    @pytest.mark.kernel_parity
    @pytest.mark.parametrize("name, mean, transform", PREFIX_MEANS,
                             ids=[c[0] for c in PREFIX_MEANS])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_wide_entries_at_the_fsum_crossover(self, name, mean, transform, data):
        # one scan below, at and just past _FSUM_SCAN_MAX: both sum branches
        n = _FSUM_SCAN_MAX + data.draw(st.sampled_from([-1, 0, 1]))
        span = data.draw(st.sampled_from([1, 30, 300]))  # entries over 1e+-span
        x = data.draw(st.lists(st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0),
                                         st.integers(-span, span)), min_size=n, max_size=n))
        w = data.draw(st.lists(st.floats(1e-3, 1e3) | st.just(0.0), min_size=n, max_size=n))
        w[0] = 1.0
        if transform is not None:
            x = [transform(v) for v in x]
        assert _outcome(lambda: evaluate_prefixes(mean, x, w)) == \
            _outcome(lambda: evaluate_prefixes(replace(mean, _prefix=None), x, w))


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)


def _raised(outcome):
    """The exception type of an :func:`_outcome`, None for a returned value."""
    return outcome[0] if isinstance(outcome[0], type) else None


class TestPrefixErrorParity:
    """The prefix path raises what the per-prefix path raises: same type, same
    message.  The per-prefix path is the same handle without its kernel."""

    CASES = [
        # an entry outside the domain at position k, after valid prefixes
        ("power:0", [1.0, 2.0, -3.0, 4.0], [1, 1, 1, 1], DomainViolation),
        ("gini21", [0.0, 2.0, 1.0, -1.0], [1, 1, 0, 1], DomainViolation),
        ("qa:log", [2.0, 0.0], [1, 1], DomainViolation),
        # a generator value beyond the float range
        ("qa:pow:2", [1e200, 2.0], [1, 1], GeneratorOverflow),
        ("qa:pow:2", [2.0, 1e200], [1, 1], GeneratorOverflow),
        ("qa:pow:2", [1e154, 1.3e154], [1, 1], GeneratorOverflow),
        ("qa:pow:2", [1e200, 2.0, -1.0], [1, 1, 1], GeneratorOverflow),  # before the entry -1
        # the generator sum overflows inside the constant prefix: named at the first
        # prefix the per-prefix loop sums
        ("qa:pow:2", [1.3e154, 1.3e154, 2.0], [1, 1, 1], GeneratorOverflow),
        # no error (None): at p = q < 0 the terms are scaled by min(x), so they
        # neither overflow (1e-310 against 1) nor underflow to 0.0 ** p (1e-300
        # against 1e300), also after a new min (1e-10) and a new max (1e154)
        ("gini:-1:-1", [1.0, 1e-310], [1, 1], None),
        ("gini:-1:-1", [1e300, 1e-300], [1, 1], None),
        ("gini:-2:-2", [1.5] * 11 + [1e-10, 1e154], [1] * 13, None),
    ]
    # a moment sum beyond the float range: fsum overflows, an infinite term,
    # and both inside the constant prefix (listed after the cases above in
    # both tests, so that their ids keep their indices)
    MOMENT_OVERFLOW_CASES = [
        ("gini21", [1.2e154, 1.3e154], [1, 1], FloatOverflow),
        ("gini21", [2.0, 1e155, 1.0], [1, 1, 1], FloatOverflow),
        ("gini21", [1e200, 1e200, 3.0], [1, 1, 1], FloatOverflow),
    ]
    # the overflow cases of both lists, padded past _FSUM_SCAN_MAX entries so
    # that their scans reach the TwoSum kernel, which leaves them uncertain,
    # and overflow in fsum per prefix; and two whose sums first overflow past
    # that many entries
    LONG_SCAN_CASES = [
        (mean_id, x + [3.0] * (_FSUM_SCAN_MAX + 1 - len(x)), w + [1] * (_FSUM_SCAN_MAX + 1 - len(w)),
         error)
        for mean_id, x, w, error in CASES + MOMENT_OVERFLOW_CASES
        if error in (GeneratorOverflow, FloatOverflow)
    ] + [
        ("qa:pow:2", [2.0] * _FSUM_SCAN_MAX + [1e154, 1.3e154], [1] * (_FSUM_SCAN_MAX + 2),
         GeneratorOverflow),
        ("gini21", [2.0] * _FSUM_SCAN_MAX + [1.2e154, 1.3e154], [1] * (_FSUM_SCAN_MAX + 2),
         FloatOverflow),
    ]

    @pytest.mark.parametrize("mean_id, x, w, error",
                             CASES + MOMENT_OVERFLOW_CASES + LONG_SCAN_CASES)

    def test_evaluate_prefixes(self, mean_id, x, w, error):
        mean = mean_from_id(mean_id)
        got = _outcome(lambda: evaluate_prefixes(mean, x, w))
        assert _raised(got) is error
        assert got == _outcome(lambda: evaluate_prefixes(replace(mean, _prefix=None), x, w))

    @pytest.mark.parametrize("x, message", [
        ([2.0, 1e30, 1e40], "capped-log: inverse failed at 53.9"),  # at the third prefix
        ([1e60, 1e70, 2.0], "capped-log: inverse returned inf"),  # at the second
        ([2.0, 1e30, 1e40] + [3.0] * _FSUM_SCAN_MAX, "capped-log: inverse failed at 53.9"),
    ])
    def test_failing_inverse(self, x, message):
        w = [1.0] * len(x)
        got = _outcome(lambda: evaluate_prefixes(CAPPED_LOG, x, w))
        assert _raised(got) is InverseOutOfRange and got[1].startswith(message)
        assert got == _outcome(lambda: evaluate_prefixes(replace(CAPPED_LOG, _prefix=None), x, w))

    @pytest.mark.parametrize("mean_id, x", [
        ("qa:pow:2", [1e-310, 2.0]),  # 0.0 at the first entry
        ("qa:pow:2", [2.0, 3.0, 1e-160]),  # subnormal at the third
        ("qa:pow:160", [1.0, 2.0, 0.01, 3.0]),
        ("qa:pow:-160", [1.0, 1000.0]),
    ])
    def test_underflowing_generator(self, mean_id, x):
        # no prefix mean is taken from a generator value that underflowed
        mean, w = mean_from_id(mean_id), [1.0] * len(x)
        for run in (evaluate_prefixes, kedlaya_sides):
            got = _outcome(lambda: run(mean, x, w))
            assert _raised(got) is GeneratorOverflow and "generator underflows at entry" in got[1]
            assert got == _outcome(lambda: run(replace(mean, _prefix=None), x, w))

    def test_constant_prefix_never_reaches_the_kernel(self):
        # the per-prefix path short-circuits constant prefixes, so no overflow
        mean = mean_from_id("qa:pow:2")
        assert evaluate_prefixes(mean, [1e200, 1e200], [1, 2]) == [1e200, 1e200]

    @pytest.mark.parametrize("mean_id, x, w, error", CASES + [
        # the weighted entry sum overflows before any mean is evaluated
        ("power:0", [100.0, 2.0], [1e308, 1e307], FloatOverflow),
        ("qa:pow:2", [1e200, 1e200], [1e308, 1e307], FloatOverflow),
    ] + MOMENT_OVERFLOW_CASES + LONG_SCAN_CASES)
    def test_kedlaya_sides(self, mean_id, x, w, error):
        mean = mean_from_id(mean_id)
        got = _outcome(lambda: kedlaya_sides(mean, x, w))
        assert _raised(got) is error
        assert got == _outcome(lambda: kedlaya_sides(replace(mean, _prefix=None), x, w))


HOMDEV_PS = [-2.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.5]


def _homdev_pair(p):
    """The built-in homdev handle and the same handle without its kernels or
    certificate."""
    mean = mean_from_id(f"homdev:shifted-power:{p}")
    return mean, _plain(mean)


@pytest.mark.kernel_parity
class TestHomdevKernels:
    """The certified kernels of the homogeneous-deviation family (prefix
    scans, lockstep rows) equal the plain scalar solver: values bit for bit,
    errors by type and message."""

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(20261018)
        cases = []
        for n in (13, 40, 90):
            x = np.exp(rng.uniform(math.log(0.01), math.log(100.0), n)).tolist()
            w = rng.exponential(size=n).tolist()
            cases.append((x, w))  # log-uniform
            # near-constant entries: midpoints inside the root interval
            cases.append(((1.0 + rng.uniform(0.0, 1e-9, n)).tolist(), w))
            zeros = (np.array(w) * (rng.random(n) < 0.6)).tolist()
            zeros[0] = w[0]
            cases.append((x, zeros))  # interior zero weights
            # a weight too small for any term to survive: totals exactly 0 at
            # both endpoints of the early prefixes, so the lower endpoint wins
            cases.append((x, [5e-324] * 3 + w[3:]))
        return cases

    @pytest.mark.parametrize("p", HOMDEV_PS)
    def test_prefixes_equal_scalar(self, p):
        mean, plain = _homdev_pair(p)
        for x, w in self._inputs():
            assert _outcome(lambda: evaluate_prefixes(mean, x, w)) == \
                _outcome(lambda: evaluate_prefixes(plain, x, w))

    @pytest.mark.parametrize("p", HOMDEV_PS)
    def test_rows_equal_scalar(self, p):
        mean, plain = _homdev_pair(p)
        rng = np.random.default_rng(7)
        x = np.exp(rng.uniform(math.log(0.01), math.log(100.0), (300, 3)))
        w = rng.exponential(size=(300, 3))
        x[:50] = 1.0 + rng.uniform(0.0, 1e-9, (50, 3))
        x[50:60] = 2.5  # constant rows
        w[60:70] = 5e-324
        w[70:80, 1] = 0.0  # dropped, as in evaluate
        w[80:90, 0] = 0.0
        # the root on the first midpoint: that total is rounding noise, whose
        # sign numpy's and Python's pow often disagree on
        f = shifted_power(p)
        for row in range(100, 200):
            mid = 0.5 * (x[row].min() + x[row].max())
            w[row, 2] = -(w[row, 0] * f(x[row, 0] / mid) + w[row, 1] * f(x[row, 1] / mid)) \
                / f(x[row, 2] / mid)
        keep = w.min(axis=1) >= 0
        x, w = x[keep], w[keep]
        assert evaluate_rows(mean, x, w).tolist() == evaluate_rows(plain, x, w).tolist()

    @pytest.mark.parametrize("x, w", [
        ([1.0, 2.0], [5e-324, 5e-324]),  # both endpoint totals 0: the lower one
        ([1.0, 2.0], [1.0, 5e-324]),     # a root at the lower endpoint only
        ([1.0, 2.0], [5e-324, 1.0]),     # a root at the upper endpoint only
    ])
    def test_endpoint_roots(self, x, w):
        mean, plain = _homdev_pair(0.5)
        got = evaluate_rows(mean, np.array([x]), np.array([w])).tolist()
        assert got == evaluate_rows(plain, np.array([x]), np.array([w])).tolist()
        assert got == [evaluate(plain, x, w)] == [evaluate(mean, x, w)]

    @pytest.mark.parametrize("p", HOMDEV_PS)
    def test_overflow_parity(self, p):
        mean, plain = _homdev_pair(p)
        # rows failing differently for p < 1 (the first failing row's error
        # wins) and an overflowing power for p > 1, in both row orders
        x, w = np.array([[1.5, 2.0], [1e-100, 1e100], [1e-300, 1e300]]), np.ones((3, 2))
        for rows in (x, x[::-1]):
            got = _outcome(lambda: evaluate_rows(mean, rows, w).tolist())
            assert got == _outcome(lambda: evaluate_rows(plain, rows, w).tolist())
        if p == 3.5:
            assert got[0] is FloatOverflow
        # the same pair at the end of a prefix scan the kernel handles
        xs = np.exp(np.linspace(0.0, 1.0, 20)).tolist() + [1e-100, 1e100]
        assert _outcome(lambda: evaluate_prefixes(mean, xs, [1.0] * 22)) == \
            _outcome(lambda: evaluate_prefixes(plain, xs, [1.0] * 22))

    def test_midpoint_beyond_the_float_range_is_silent(self):
        # the first midpoint of this certified row is inf, as the scalar
        # solver's is, and neither warns
        mean, plain = _homdev_pair(0.5)
        x, w = [1e308, 1.5e308], [1.0, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluate_rows(mean, np.array([x]), np.array([w])).tolist()
            assert got == evaluate_rows(plain, np.array([x]), np.array([w])).tolist()
            assert got == [evaluate(plain, x, w)] == [evaluate(mean, x, w)]

    @pytest.mark.parametrize("p", HOMDEV_PS)
    def test_entries_beyond_the_float_range(self, p):
        # entries a float cannot hold leave the certificate out: the scalar
        # total raises its FloatOverflow, in evaluate and at that prefix
        mean, plain = _homdev_pair(p)
        for big in (10 ** 400, Fraction(10 ** 400)):
            got = _outcome(lambda: evaluate(mean, [big, 2], [1, 1]))
            assert _raised(got) is FloatOverflow
            assert got == _outcome(lambda: evaluate(plain, [big, 2], [1, 1]))
        x = np.exp(np.linspace(0.0, 1.0, 30)).tolist()
        for last in (10 ** 400, Fraction(1, 10 ** 400)):
            xs, w = x + [last], [1.0] * 31
            assert _outcome(lambda: evaluate_prefixes(mean, xs, w)) == _outcome(
                lambda: [evaluate(plain, xs[:k], w[:k]) for k in range(1, 32)])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_concavity_report_unchanged(self, seed):
        from kedlaya.concavity import sample_jensen_concavity
        mean, plain = _homdev_pair(0.5)
        got = sample_jensen_concavity(mean, 2, 1500, seed=seed)
        assert got == sample_jensen_concavity(plain, 2, 1500, seed=seed)


class TestWireFormat:
    IDS = ["arithmetic", "min", "max", "geometric", "power:0.5", "power:-1",
           "gini:2:1", "gini21", "qa:log", "qa:pow:2",
           pytest.param("homdev:shifted-power:0.5", marks=pytest.mark.kernel_parity)]

    @pytest.mark.parametrize("mean_id", IDS)
    def test_id_resolution_evaluates(self, mean_id):
        mean = mean_from_id(mean_id)
        v = evaluate(mean, (1.0, 2.0), (1, 1))
        assert 1.0 <= v <= 2.0 + 1e-12

    def test_unknown_id(self):
        # an unknown head; an unknown generator or deviation name, or a wrong
        # arity, in a known family
        for mean_id in ("parabolic:3", "qa:bogus", "homdev:bogus:1", "qa:log:3", "qa:pow"):
            with pytest.raises(ValueError) as info:
                mean_from_id(mean_id)
            assert str(info.value) == f"unknown mean id {mean_id!r}"

    @pytest.mark.parametrize("mean_id", ["arithmetic", "power:0.5", "gini:2:1",
                                         "gini21", "qa:log", "qa:pow:2",
                                         pytest.param("homdev:shifted-power:0.5",
                                                      marks=pytest.mark.kernel_parity)])
    def test_json_round_trip(self, mean_id):
        # the mean a JSON report names is its id, which rebuilds it
        mean = mean_from_id(mean_id)
        x, w = (1.3, 4.2, 0.9), (2, 1, 1)
        doc = json.loads(json.dumps(check_kedlaya(mean, x, w).to_dict()))
        again = mean_from_id(doc["inputs"]["mean"])
        assert again == mean
        assert evaluate(again, x, w) == evaluate(mean, x, w)

    def test_gini_wire_shape(self):
        mean = mean_from_id("gini:2:1")
        assert (mean.family, mean.params, str(mean)) == ("gini", (2.0, 1.0), "gini:2:1")
        assert mean.domain == POSITIVE

    def test_generator_handles_built_directly(self):
        # a handle built from a built-in generator is the one its id names
        assert MeanHandle.quasi_arithmetic(log_generator()) == mean_from_id("qa:log")
        pow_mean = MeanHandle.quasi_arithmetic(power_generator(2.0))
        assert pow_mean == mean_from_id(str(pow_mean)) == mean_from_id("qa:pow:2")

    @pytest.mark.parametrize("mean", [
        MeanHandle.quasi_arithmetic(GeneratorSpec(
            lambda t: t ** 3, lambda y: y ** (1.0 / 3.0), label="cube")),
        MeanHandle.custom_deviation(DeviationSpec(lambda x, y: x - y, label="linear")),
        *[pytest.param(mean, marks=pytest.mark.kernel_parity) for mean in (
            MeanHandle.homogeneous_deviation(math.log, "log"),
            MeanHandle.affine(MeanHandle.homogeneous_deviation(math.log, "log"), 2.0, 0.0))],
    ], ids=str)
    def test_custom_means_have_no_wire_format(self, mean):
        # a custom mean's label is no id, so its report names no built-in mean
        with pytest.raises(ValueError, match="unknown mean id"):
            mean_from_id(str(mean))
