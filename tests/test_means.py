"""Mean handles: evaluation, the four axioms, the expansion bridge, JSON."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from kedlaya import means
from kedlaya.deviation import DeviationSpec, GeneratorSpec, log_generator, power_generator
from kedlaya.domain import POSITIVE
from kedlaya.errors import (
    DomainViolation,
    IndexNotZeroWeighted,
    LengthMismatch,
    NonfiniteWeight,
    Overflow,
)
from kedlaya.means import (
    MeanHandle,
    arithmetic_base,
    check_elimination,
    check_mean_value,
    check_nullhomogeneity,
    check_reduction,
    check_symmetry,
    evaluate,
    evaluate_rows,
    mean_from_id,
    mean_from_json,
    mean_to_json,
    weighted_from_repetition_invariant,
)
from kedlaya.weights import make_weights

ARITH = MeanHandle.arithmetic()
GEO = MeanHandle.power(0.0)
G21 = MeanHandle.gini(2.0, 1.0)


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

    def test_weight_vector_accepted(self):
        w = make_weights([Fraction(1, 2), Fraction(3, 2)])
        assert evaluate(ARITH, (1, 4), w) == pytest.approx((0.5 + 6) / 2, abs=0)

    def test_min_max_respect_zero_weights(self):
        assert evaluate(MeanHandle.minimum(), (5, 2), (2, 1)) == 2
        assert evaluate(MeanHandle.minimum(), (-9, 2), (0, 1)) == 2
        assert evaluate(MeanHandle.maximum(), (-9, 2, 99), (1, 1, 0)) == 2


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
            assert check_mean_value(mean, (4.2, 4.2, 4.2), (1, 2, 3))

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
            assert check_mean_value(mean, x, w)


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

        def row_fallback(*args):
            raise AssertionError(f"{mean} has no batch kernel")

        monkeypatch.setattr(means, "evaluate", row_fallback)
        np.testing.assert_allclose(evaluate_rows(mean, x, w), expected, rtol=1e-13, atol=0)


class TestWireFormat:
    IDS = ["arithmetic", "min", "max", "geometric", "power:0.5", "power:-1",
           "gini:2:1", "gini21", "qa:log", "qa:pow:2", "homdev:shifted-power:0.5"]

    @pytest.mark.parametrize("mean_id", IDS)
    def test_id_resolution_evaluates(self, mean_id):
        mean = mean_from_id(mean_id)
        v = evaluate(mean, (1.0, 2.0), (1, 1))
        assert 1.0 <= v <= 2.0 + 1e-12

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            mean_from_id("parabolic:3")

    @pytest.mark.parametrize("mean_id", ["arithmetic", "power:0.5", "gini:2:1",
                                         "gini21", "qa:log", "qa:pow:2",
                                         "homdev:shifted-power:0.5"])
    def test_json_round_trip(self, mean_id):
        mean = mean_from_id(mean_id)
        again = mean_from_json(mean_to_json(mean))
        x, w = (1.3, 4.2, 0.9), (2, 1, 1)
        assert evaluate(again, x, w) == evaluate(mean, x, w)

    def test_gini_wire_shape(self):
        doc = mean_to_json(mean_from_id("gini:2:1"))
        assert doc["family"] == "gini"
        assert doc["p"] == 2 and doc["q"] == 1
        assert doc["domain"] == [0, None]

    def test_generator_handles_built_directly(self):
        log_doc = mean_to_json(MeanHandle.quasi_arithmetic(log_generator()))
        pow_doc = mean_to_json(MeanHandle.quasi_arithmetic(power_generator(2.0)))
        assert json.dumps(log_doc) == ('{"family": "quasi-arithmetic", "domain": '
                                       '[0.0, null], "generator": "log"}')
        assert json.dumps(pow_doc) == ('{"family": "quasi-arithmetic", "domain": '
                                       '[0.0, null], "generator": "pow", "p": 2.0}')

    @pytest.mark.parametrize("mean", [
        MeanHandle.quasi_arithmetic(GeneratorSpec(
            lambda t: t ** 3, lambda y: y ** (1.0 / 3.0), label="cube")),
        MeanHandle.custom_deviation(DeviationSpec(lambda x, y: x - y, label="linear")),
        MeanHandle.homogeneous_deviation(math.log, "log"),
        MeanHandle.affine(MeanHandle.homogeneous_deviation(math.log, "log"), 2.0, 0.0),
    ], ids=str)
    def test_custom_means_have_no_wire_format(self, mean):
        with pytest.raises(ValueError):
            mean_to_json(mean)

    def test_affine_round_trip(self):
        mean = MeanHandle.affine(mean_from_id("power:0"), 2.0, 1.0)
        again = mean_from_json(mean_to_json(mean))
        assert evaluate(again, (3.0, 9.0), (1, 1)) == evaluate(mean, (3.0, 9.0), (1, 1))
