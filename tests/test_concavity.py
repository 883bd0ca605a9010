"""Concavity sampler and the analytic criteria."""

import json
import math

import pytest

from kedlaya.concavity import (
    CONCAVE,
    CONVEX,
    INCONCLUSIVE,
    NEITHER,
    cdm_condition,
    estar_transform,
    gini_concavity_condition,
    qa_concavity_condition,
    sample_jensen_concavity,
    sample_midpoint_concavity,
)
from kedlaya.deviation import DeviationSpec, log_generator, power_generator
from kedlaya.domain import POSITIVE, REALS
from kedlaya.errors import MixedSignSecondDerivative, VanishingDerivative
from kedlaya.inequality import reflect
from kedlaya.means import MeanHandle, mean_from_id


class TestSampler:
    def test_arithmetic_inconclusive(self):
        v = sample_jensen_concavity(mean_from_id("arithmetic"), 3, 5000, seed=1)
        assert v.verdict == INCONCLUSIVE
        assert v.worst_violation == 0.0
        assert v.witness is None

    def test_geometric_concave(self):
        v = sample_jensen_concavity(mean_from_id("power:0"), 3, 10_000, seed=1)
        assert v.verdict == CONCAVE
        assert v.witness is not None

    def test_contraharmonic_convex(self):
        v = sample_jensen_concavity(mean_from_id("gini:2:1"), 2, 10_000, seed=42)
        assert v.verdict == CONVEX
        assert v.worst_violation > 0
        assert v.witness is not None

    def test_min_concave_max_convex(self):
        assert sample_jensen_concavity(mean_from_id("min"), 3, 3000, seed=2).verdict == CONCAVE
        assert sample_jensen_concavity(mean_from_id("max"), 3, 3000, seed=2).verdict == CONVEX

    def test_seed_reproducible(self):
        a = sample_jensen_concavity(mean_from_id("gini:2:1"), 2, 4000, seed=9)
        b = sample_jensen_concavity(mean_from_id("gini:2:1"), 2, 4000, seed=9)
        assert a == b

    def test_solver_family_loops(self):
        # no vectorized path for this family: exercises the row fallback
        mean = mean_from_id("homdev:shifted-power:0.5")
        v = sample_jensen_concavity(mean, 2, 300, seed=3)
        assert v.verdict in (CONCAVE, INCONCLUSIVE)

    def test_reflection_duality_same_seed(self):
        pairs = {CONCAVE: CONVEX, CONVEX: CONCAVE,
                 NEITHER: NEITHER, INCONCLUSIVE: INCONCLUSIVE}
        for mid in ("power:0", "gini:2:1", "arithmetic"):
            mean = mean_from_id(mid)
            mirrored = reflect(mean)
            a = sample_jensen_concavity(mean, 2, 4000, seed=17)
            b = sample_jensen_concavity(mirrored, 2, 4000, seed=17)
            assert b.verdict == pairs[a.verdict]
            assert b.worst_violation == a.worst_violation  # exact mirror


class TestMidpointSampler:
    def test_verdict_with_witness_serializes(self):
        v = sample_midpoint_concavity(lambda a, b: a * a + b * b, (0.1, 10.0), 2000, seed=4)
        assert v.verdict == CONVEX and v.witness[2] is None
        doc = json.loads(json.dumps(v.to_dict()))
        assert doc["witness"]["w"] is None and len(doc["witness"]["x"]) == 2


class TestEstarTransform:
    def test_linear_deviation(self):
        spec = DeviationSpec(lambda x, y: x - y, dE2=lambda x, y: -1.0,
                             domain=REALS, label="linear")
        estar = estar_transform(spec)
        for x, t in [(1.0, 2.0), (-3.0, 5.0), (0.5, 0.25)]:
            assert estar(x, t) == pytest.approx(x - t, rel=1e-15)

    def test_log_deviation(self):
        spec = DeviationSpec(lambda x, y: math.log(x) - math.log(y),
                             dE2=lambda x, y: -1.0 / y,
                             domain=POSITIVE, label="log")
        estar = estar_transform(spec)
        for x, t in [(1.0, 2.0), (3.0, 5.0), (0.5, 0.25)]:
            assert estar(x, t) == pytest.approx(t * (math.log(x) - math.log(t)),
                                                rel=1e-12)

    def test_square_deviation(self):
        spec = DeviationSpec(lambda x, y: x * x - y * y,
                             dE2=lambda x, y: -2.0 * y,
                             domain=POSITIVE, label="square")
        estar = estar_transform(spec)
        for x, t in [(1.0, 2.0), (3.0, 5.0), (0.5, 0.25)]:
            assert estar(x, t) == pytest.approx((x * x - t * t) / (2 * t), rel=1e-12)

    def test_vanishing_derivative(self):
        spec = DeviationSpec(lambda x, y: x - y, dE2=lambda x, y: -1e-13,
                             domain=POSITIVE, label="vanishing")
        with pytest.raises(VanishingDerivative):
            estar_transform(spec)

    def test_requires_derivative(self):
        spec = DeviationSpec(lambda x, y: x - y, domain=REALS, label="no-d")
        with pytest.raises(ValueError):
            estar_transform(spec)


class TestQACondition:
    def test_identity_true(self):
        assert qa_concavity_condition(power_generator(1.0))

    def test_log_true(self):
        assert qa_concavity_condition(log_generator())

    def test_square_false(self):
        assert not qa_concavity_condition(power_generator(2.0))

    def test_sqrt_true(self):
        assert qa_concavity_condition(power_generator(0.5))

    def test_mixed_sign_detected(self):
        from kedlaya.deviation import GeneratorSpec
        gen = GeneratorSpec(
            f=lambda t: t ** 3,
            f_inverse=lambda y: math.copysign(abs(y) ** (1.0 / 3.0), y),
            f_prime=lambda t: 3 * t * t,
            f_second=lambda t: 6 * t,
            domain=REALS, label="cubic")
        with pytest.raises(MixedSignSecondDerivative):
            qa_concavity_condition(gen)

    def test_estar_sampling_matches_condition(self):
        cases = [
            (log_generator(), lambda x, y: math.log(x) - math.log(y),
             lambda x, y: -1.0 / y),
            (power_generator(1.0), lambda x, y: x - y, lambda x, y: -1.0),
            (power_generator(2.0), lambda x, y: x * x - y * y,
             lambda x, y: -2.0 * y),
            (power_generator(0.5), lambda x, y: math.sqrt(x) - math.sqrt(y),
             lambda x, y: -0.5 / math.sqrt(y)),
        ]
        for gen, E, dE2 in cases:
            condition = qa_concavity_condition(gen)
            spec = DeviationSpec(E, dE2=dE2, domain=POSITIVE, label=gen.label)
            verdict = sample_midpoint_concavity(estar_transform(spec),
                                                (0.05, 20.0), 20_000, seed=5)
            if condition:
                assert verdict.verdict in (CONCAVE, INCONCLUSIVE)
            else:
                assert verdict.verdict in (CONVEX, NEITHER)


class TestGiniCondition:
    def test_arithmetic_in_region(self):
        assert gini_concavity_condition(1, 0)

    def test_contraharmonic_outside(self):
        assert not gini_concavity_condition(2, 1)

    def test_geometric_boundary(self):
        assert gini_concavity_condition(0, 0)

    def test_symmetric(self):
        assert gini_concavity_condition(-1, 1) == gini_concavity_condition(1, -1)

    def test_exact_fraction_inputs(self):
        from fractions import Fraction
        assert gini_concavity_condition(Fraction(-1, 3), Fraction(1))
        assert not gini_concavity_condition(Fraction(-1, 3), Fraction(101, 100))

    def test_sampler_refutes_outside_region(self):
        # on the parameter grid, condition false with one parameter negative
        # must still be caught by sampling
        grid = [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]
        for p in grid:
            for q in grid:
                if gini_concavity_condition(p, q) or min(p, q) >= 0:
                    continue
                verdict = sample_jensen_concavity(MeanHandle.gini(p, q), 2,
                                                  100_000, seed=11)
                assert verdict.verdict in (CONVEX, NEITHER), (p, q)


class TestCdmCondition:
    def test_log_qualifies(self):
        assert cdm_condition(math.log)

    def test_affine_qualifies(self):
        assert cdm_condition(lambda t: t - 1.0)

    def test_convex_fails(self):
        assert not cdm_condition(lambda t: t * t - 1.0)

    def test_offset_fails(self):
        assert not cdm_condition(lambda t: math.log(t) + 0.5)

    def test_decreasing_fails(self):
        assert not cdm_condition(lambda t: 1.0 - t)
