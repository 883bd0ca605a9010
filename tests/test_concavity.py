"""Concavity sampler and the analytic criteria."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from kedlaya import concavity
from kedlaya.concavity import (
    CONCAVE,
    CONVEX,
    INCONCLUSIVE,
    NEITHER,
    gini_concavity_condition,
    qa_concavity_condition,
    sample_jensen_concavity,
    sample_midpoint_concavity,
)
from kedlaya.deviation import log_generator, power_generator
from kedlaya.domain import LINEAR, LOG, NEG_LOG, POSITIVE, REALS, sampling_window
from kedlaya.errors import GeneratorOverflow, MixedSignSecondDerivative, NegativeSeed
from kedlaya.means import MeanHandle, evaluate_rows, mean_from_id

from concavity_oracle import draw_chunk, oracle_sample


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
        # the bisection family: its batch kernel bisects every row in lockstep
        mean = mean_from_id("homdev:shifted-power:0.5")
        v = sample_jensen_concavity(mean, 2, 300, seed=3)
        assert v.verdict in (CONCAVE, INCONCLUSIVE)

    def test_reflection_duality_same_seed(self):
        pairs = {CONCAVE: CONVEX, CONVEX: CONCAVE,
                 NEITHER: NEITHER, INCONCLUSIVE: INCONCLUSIVE}
        for mid in ("power:0", "gini:2:1", "arithmetic"):
            mean = mean_from_id(mid)
            mirrored = MeanHandle.affine(mean, -1.0, 0.0)
            a = sample_jensen_concavity(mean, 2, 4000, seed=17)
            b = sample_jensen_concavity(mirrored, 2, 4000, seed=17)
            assert b.verdict == pairs[a.verdict]
            assert b.worst_violation == a.worst_violation  # exact mirror


def _c_ordered_rows(mean, x, w):
    """``evaluate_rows`` in the earlier layout: each batch kernel runs on the
    sampler's C-ordered chunks as drawn."""
    if mean._batch is None:
        return evaluate_rows(mean, x, w)
    batch = mean._batch
    return evaluate_rows(replace(mean, _batch=lambda x, w: batch(
        np.ascontiguousarray(x), np.ascontiguousarray(w))), x, w)


GEO = MeanHandle.power(0.0)
# every family with a batch kernel, with trials that keep each probe short
BATCH_MEANS = [(name, mean_from_id(name), 3000) for name in (
    "arithmetic", "min", "max", "power:-2", "power:0", "power:0.5", "power:3",
    "gini:2:1", "gini:0.5:0", "gini:-1:-1", "gini:1.5:1.5", "gini21",
    "qa:log", "qa:pow:2")] + [
    ("homdev", mean_from_id("homdev:shifted-power:0.5"), 200),
    ("affine", MeanHandle.affine(GEO, 2.0, 1.0), 3000),
    ("reflect", MeanHandle.affine(GEO, -1.0, 0.0), 3000),
]


@pytest.mark.kernel_parity
class TestBatchLayout:
    """Batch kernels get column-major rows.  Up to 7 entries per row numpy's
    row sums do not depend on the layout, so the verdict is the C-ordered
    one exactly; from 8 on a C-ordered row is summed pairwise and a
    column-major one in sequence, so the worst gap may move by rounding."""

    @pytest.mark.parametrize("name, mean, trials", BATCH_MEANS,
                             ids=[c[0] for c in BATCH_MEANS])
    def test_verdict_equals_c_ordered(self, name, mean, trials, monkeypatch):
        for n in range(1, 8):
            got = sample_jensen_concavity(mean, n, trials, seed=n)
            with monkeypatch.context() as m:
                m.setattr(concavity, "evaluate_rows", _c_ordered_rows)
                assert got == sample_jensen_concavity(mean, n, trials, seed=n), n

    @pytest.mark.parametrize("name, mean, trials", BATCH_MEANS,
                             ids=[c[0] for c in BATCH_MEANS])
    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_long_rows_within_rounding(self, name, mean, trials, n, monkeypatch):
        got = sample_jensen_concavity(mean, n, trials, seed=n)
        monkeypatch.setattr(concavity, "evaluate_rows", _c_ordered_rows)
        want = sample_jensen_concavity(mean, n, trials, seed=n)
        assert got.verdict == want.verdict
        assert math.isclose(got.worst_violation, want.worst_violation, rel_tol=1e-13)


def _three_calls(mean, n, trials, seed, tol=1e-9):
    """The earlier sampler: a chunk's midpoint, x and y rows in three
    ``evaluate_rows`` calls."""
    window = sampling_window(mean.domain)

    def chunk_gaps(chunk_index, size):
        x, y, w = draw_chunk(window, n, seed, chunk_index, concavity._CHUNK)
        x, y, w = x[:size], y[:size], w[:size]
        mid = evaluate_rows(mean, 0.5 * (x + y), w)
        half = 0.5 * (evaluate_rows(mean, x, w) + evaluate_rows(mean, y, w))
        return mid - half, lambda i: (tuple(x[i]), tuple(y[i]), tuple(w[i]))

    return concavity._sample(chunk_gaps, trials, tol)


@pytest.mark.kernel_parity
class TestChunkInOneCall:
    """Each chunk's midpoint, x and y rows go through one ``evaluate_rows``
    call; no row's value depends on the rows beside it, so the verdicts are
    those of three calls."""

    @pytest.mark.parametrize("name, mean, trials", BATCH_MEANS,
                             ids=[c[0] for c in BATCH_MEANS])
    @pytest.mark.parametrize("n", [2, 8])
    def test_equals_three_calls(self, name, mean, trials, n):
        assert sample_jensen_concavity(mean, n, trials, seed=n) == \
            _three_calls(mean, n, trials, seed=n)

    def test_one_call_per_chunk(self, monkeypatch):
        calls = []

        def counting(mean, x, w):
            calls.append(len(x))
            return evaluate_rows(mean, x, w)

        monkeypatch.setattr(concavity, "evaluate_rows", counting)
        sample_jensen_concavity(GEO, 3, 2 * concavity._CHUNK + 5, seed=1)
        assert calls == [3 * concavity._CHUNK] * 2 + [15]


def _bits(verdict):
    return verdict.verdict, verdict.worst_violation.hex(), verdict.witness, verdict.trials


@pytest.mark.kernel_parity
class TestChunksDrawnIntoRows:
    """The sampler draws each chunk straight into the kernel's column-major
    rows; its verdicts, worst violations and witnesses are those of the
    chunks drawn and concatenated as before (tests/concavity_oracle.py), bit
    for bit, on each kind of window, around the chunk size and on rows below
    and from 8 entries, where numpy sums a row pairwise."""

    @pytest.mark.parametrize("mean, window", [
        (mean_from_id("power:0.5"), LOG), (MeanHandle.affine(mean_from_id("power:0.5"), -1.0, 0.0), NEG_LOG),
        (mean_from_id("arithmetic"), LINEAR)], ids=["power:0.5", "reflect", "arithmetic"])
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9])
    def test_equals_the_concatenated_chunks(self, mean, window, n):
        assert sampling_window(mean.domain)[2] == window
        for trials in (1, 1023, 1024, 1025, 3000):
            for seed in (0, 11):
                got = sample_jensen_concavity(mean, n, trials, seed=seed)
                assert _bits(got) == _bits(oracle_sample(mean, n, trials, seed=seed)), \
                    (trials, seed)

    def test_raises_the_first_error_of_the_concatenated_chunks(self):
        mean = mean_from_id("qa:pow:400")
        with pytest.raises(GeneratorOverflow) as want:
            oracle_sample(mean, 2, 3000, seed=1)
        with pytest.raises(GeneratorOverflow) as got:
            sample_jensen_concavity(mean, 2, 3000, seed=1)
        assert str(got.value) == str(want.value)


class TestMidpointSampler:
    def test_verdict_with_witness_serializes(self):
        v = sample_midpoint_concavity(lambda a, b: a * a + b * b, (0.1, 10.0), 2000, seed=4)
        assert v.verdict == CONVEX and v.witness[2] is None
        doc = json.loads(json.dumps(v.to_dict()))
        assert doc["witness"]["w"] is None and len(doc["witness"]["x"]) == 2

    def test_no_trials_refused(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            sample_midpoint_concavity(lambda a, b: a * b, (0.1, 10.0), 0)

    def test_negative_seed_refused(self):
        with pytest.raises(NegativeSeed, match="seed must be >= 0, got -1"):
            sample_midpoint_concavity(lambda a, b: a * b, (0.1, 10.0), 10, seed=-1)


class TestQACondition:
    def test_identity_true(self):
        assert qa_concavity_condition(power_generator(1.0))

    def test_log_true(self):
        assert qa_concavity_condition(log_generator())

    def test_square_false(self):
        assert not qa_concavity_condition(power_generator(2.0))

    def test_sqrt_true(self):
        assert qa_concavity_condition(power_generator(0.5))

    @pytest.mark.parametrize("p", [1 - 1e-5, 1 - 1e-7])
    def test_large_affine_ratio_true(self, p):
        # f'/f'' = t/(p - 1) reaches -1e9 on the window; its midpoint gap
        # is rounding noise far above an absolute 1e-9
        assert qa_concavity_condition(power_generator(p))

    def test_concave_ratio_false(self):
        # arctan: f'/f'' = -(t + 1/t)/2 is negative but not midpoint
        # convex, so the shared midpoint sampler refutes the criterion
        from kedlaya.deviation import GeneratorSpec
        gen = GeneratorSpec(
            f=math.atan, f_inverse=math.tan,
            f_prime=lambda t: 1.0 / (1.0 + t * t),
            f_second=lambda t: -2.0 * t / (1.0 + t * t) ** 2,
            domain=POSITIVE, label="atan")
        assert not qa_concavity_condition(gen)

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
            # E*(x, t) = -E(x, t) / dE2(t, t), the deviation normalized by its
            # diagonal slope, is midpoint concave exactly when the mean is
            estar = lambda x, t, E=E, dE2=dE2: -E(x, t) / dE2(t, t)
            verdict = sample_midpoint_concavity(estar, (0.05, 20.0), 20_000, seed=5)
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

