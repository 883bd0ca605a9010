"""Both sides of the prefix-mean inequality, verdicts, probes, search."""

import math
import tracemalloc

import numpy as np
import pytest

from kedlaya.errors import (
    DomainViolation,
    FloatOverflow,
    NonpositiveWeight,
    WeightsInV,
    ZeroScale,
)
from kedlaya.inequality import (
    EQUALITY,
    HOLDS,
    REVERSED,
    VIOLATED,
    affine_conjugate,
    check_kedlaya,
    check_kedlaya_rows,
    counterexample_mu_prime_0,
    kedlaya_sides,
    necessity_probe,
    partial_arithmetic_means,
    reflect,
    search_violation,
    step_inequality,
    sweep_kedlaya,
)
from kedlaya.means import MeanHandle, evaluate, mean_from_id
from kedlaya.sampling import entries_log_uniform, rational_v_weights, sweep_blocks
from kedlaya.weights import make_weights
from sweep_oracle import oracle_trial

GEO = mean_from_id("power:0")
ARITH = mean_from_id("arithmetic")
G21 = mean_from_id("gini:2:1")
CEX = mean_from_id("gini21")


class TestPartialMeans:
    def test_two_entries(self):
        assert partial_arithmetic_means((1, 4), (1, 1)) == [1, 2.5]

    def test_constant(self):
        assert partial_arithmetic_means((3, 3, 3), (5, 1, 2)) == [3, 3, 3]

    def test_three_entries(self):
        assert partial_arithmetic_means((1, 4, 7), (1, 1, 1)) == [1, 2.5, 4]

    def test_first_is_first_entry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            x = [float(v) for v in rng.uniform(0.1, 9, n)]
            w = [float(v) for v in rng.uniform(0.1, 9, n)]
            assert partial_arithmetic_means(x, w)[0] == x[0]


class TestSides:
    def test_geometric_anchor(self):
        lhs, rhs = kedlaya_sides(GEO, (1, 4), (1, 1))
        assert lhs == pytest.approx(1.5, abs=1e-15)
        assert rhs == pytest.approx(math.sqrt(2.5), abs=1e-15)

    def test_arithmetic_equality(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            x = [float(v) for v in rng.uniform(0.1, 9, n)]
            w = [float(v) for v in rng.uniform(0.1, 9, n)]
            lhs, rhs = kedlaya_sides(ARITH, x, w)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    def test_single_entry(self):
        lhs, rhs = kedlaya_sides(G21, (4.2,), (3,))
        assert lhs == rhs == 4.2


class TestStepInequality:
    def test_geometric_anchor(self):
        lhs, rhs = step_inequality(GEO, (1, 4), (1, 1), 2)
        assert lhs == pytest.approx(3.0, abs=1e-15)
        assert rhs == pytest.approx(2 * math.sqrt(2.5), abs=1e-14)

    def test_arithmetic_equality(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            x = [float(v) for v in rng.uniform(0.1, 9, n)]
            w = [float(v) for v in rng.uniform(0.1, 9, n)]
            j = int(rng.integers(2, n + 1))
            lhs, rhs = step_inequality(ARITH, x, w, j)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    def test_constant_entries(self):
        lhs, rhs = step_inequality(GEO, (2.5, 2.5, 2.5), (1, 2, 3), 3)
        assert lhs == pytest.approx(6 * 2.5, rel=1e-15)
        assert rhs == pytest.approx(6 * 2.5, rel=1e-15)

    def test_bad_j(self):
        with pytest.raises(ValueError):
            step_inequality(GEO, (1, 4), (1, 1), 1)
        with pytest.raises(ValueError):
            step_inequality(GEO, (1, 4), (1, 1), 3)

    def test_telescoping_to_full_gap(self):
        rng = np.random.default_rng(3)
        for mean in (GEO, G21, MeanHandle.power(0.5)):
            for _ in range(30):
                n = int(rng.integers(2, 8))
                x = [float(v) for v in rng.uniform(0.1, 9, n)]
                w = [float(v) for v in rng.uniform(0.1, 9, n)]
                lhs, rhs = kedlaya_sides(mean, x, w)
                total = math.fsum(w)
                steps = [step_inequality(mean, x, w, j) for j in range(2, n + 1)]
                telescoped = math.fsum(b - a for a, b in steps)
                assert abs(telescoped - total * (rhs - lhs)) <= 1e-9 * (1 + abs(rhs))


class TestCheckKedlaya:
    def test_geometric_holds(self):
        r = check_kedlaya(GEO, (1, 4), (1, 1))
        assert r.verdict == HOLDS
        assert r.gap == pytest.approx(math.sqrt(2.5) - 1.5, abs=1e-15)
        assert len(r.step_gaps) == 1

    def test_contraharmonic_reversed(self):
        # oracle: prefix means of gini(2,1) computed directly
        lhs_oracle = (1 + 17 / 5) / 2
        rhs_oracle = (1 * 1 + 1 * 2.5 ** 2) / (1 * 1 + 1 * 2.5)
        r = check_kedlaya(G21, (1, 4), (1, 1))
        assert r.lhs == pytest.approx(lhs_oracle, rel=1e-12)
        assert r.rhs == pytest.approx(rhs_oracle, rel=1e-12)
        assert r.verdict == REVERSED

    def test_arithmetic_equality(self):
        r = check_kedlaya(ARITH, (3.3, 1.2, 9.9), (2, 1, 5))
        assert r.verdict == EQUALITY

    def test_expectation_flags_violation(self):
        r = check_kedlaya(G21, (1, 4), (1, 1), expect=HOLDS)
        assert r.verdict == VIOLATED
        r = check_kedlaya(GEO, (1, 4), (1, 1), expect=REVERSED)
        assert r.verdict == VIOLATED

    def test_nullhomogeneity_of_report(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            x = entries_log_uniform(rng, n)
            w = [float(v) for v in rng.uniform(0.1, 9, n)]
            t = float(rng.uniform(0.2, 5))
            a = check_kedlaya(GEO, x, w)
            b = check_kedlaya(GEO, x, [t * wi for wi in w])
            assert a.verdict == b.verdict
            assert abs(a.gap - b.gap) <= 1e-12 * (1 + abs(a.gap))

    def test_trailing_zero_weights_reduced(self):
        r = check_kedlaya(GEO, (1, 4, 99, 99), (1, 1, 0, 0))
        assert r.n == 2
        assert r.gap == pytest.approx(math.sqrt(2.5) - 1.5, abs=1e-15)

    def test_interior_zero_rejected_outside_class(self):
        with pytest.raises(NonpositiveWeight):
            check_kedlaya(GEO, (1, 4, 2), (1, 0, 5))

    def test_single_entry_equality(self):
        r = check_kedlaya(GEO, (7.0,), (2,))
        assert r.verdict == EQUALITY
        assert r.step_gaps == ()


class TestPrefixScanContract:
    """check_kedlaya reads every step gap off two prefix scans; the
    per-step API is the oracle and must agree exactly."""

    CASES = [
        (GEO, (1.0, 4.0, 2.0, 0.5, 7.25, 3.0), (5, 3, 3, 2, 1, 1)),
        (CEX, (0.0, 2.0, 0.0, 5.0, 1.5), (4, 2, 1, 1, 1)),
        (mean_from_id("homdev:shifted-power:0.5"), (1.5, 0.25, 8.0, 2.0),
         (3, 3, 2, 1)),
        # ratio-nonincreasing with a zero tail, trimmed to n = 3
        (G21, (2.0, 9.0, 0.5, 4.0, 4.0), (3, 2, 1, 0, 0)),
    ]

    @pytest.mark.parametrize("mean,x,w", CASES)
    def test_step_gaps_equal_step_inequality(self, mean, x, w):
        r = check_kedlaya(mean, x, w)
        assert len(r.step_gaps) == r.n - 1 >= 1
        oracle = []
        for j in range(2, r.n + 1):
            lhs, rhs = step_inequality(mean, x, w, j)
            oracle.append(rhs - lhs)
        assert list(r.step_gaps) == oracle

    @pytest.mark.parametrize("mean,x,w", CASES)
    def test_at_most_2n_evaluations(self, monkeypatch, mean, x, w):
        from kedlaya import inequality

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(inequality, "evaluate", counting)
        r = check_kedlaya(mean, x, w)
        assert len(calls) <= 2 * r.n


class TestForwardAndReversedSweeps:
    def test_concave_families_hold_on_admissible_weights(self):
        rng = np.random.default_rng(5)
        means = [MeanHandle.power(-1), GEO, MeanHandle.power(0.5),
                 MeanHandle.gini(0.5, -1), MeanHandle.quasi_arithmetic(
                     __import__("kedlaya.deviation", fromlist=["log_generator"]).log_generator())]
        for mean in means:
            for _ in range(60):
                n = int(rng.integers(2, 7))
                w = rational_v_weights(rng, n)
                x = entries_log_uniform(rng, n)
                r = check_kedlaya(mean, x, w, expect=HOLDS)
                assert r.verdict in (HOLDS, EQUALITY)

    def test_counterexample_reversed_on_admissible_weights(self):
        rng = np.random.default_rng(6)
        for _ in range(150):
            n = int(rng.integers(2, 7))
            w = rational_v_weights(rng, n)
            x = entries_log_uniform(rng, n)
            r = check_kedlaya(CEX, x, w, expect=REVERSED)
            assert r.verdict in (REVERSED, EQUALITY)


@pytest.mark.kernel_parity
class TestSweepVerdicts:
    """The batched check against the scalar oracle, one check_kedlaya per
    trial: no verdict differs, every gap is within 1e-13 |rhs|."""

    @pytest.mark.parametrize("mean_id, expect", [
        ("power:0", HOLDS), ("gini:0.5:0", HOLDS), ("gini21", REVERSED), ("gini:2:1", HOLDS),
        ("power:-2", None), ("gini:3:3", None), ("qa:log", HOLDS), ("arithmetic", None)])
    def test_verdicts_at_each_trials_own_boundary(self, mean_id, expect):
        # tol at each trial's scalar |gap| / (1 + |rhs|) and one ulp either
        # side puts that trial on its boundary
        mean, seed, n, trials = mean_from_id(mean_id), 5, 8, 24
        x, w, _ = next(sweep_blocks(seed, range(trials), n, 9, trials))
        for base in [oracle_trial(mean, n, seed, t) for t in range(0, trials, 3)]:
            t0 = abs(base.gap) / (1.0 + abs(base.rhs))
            for tol in (np.nextafter(t0, 0.0), t0, np.nextafter(t0, 1.0)):
                if not tol > 0.0:
                    continue
                gaps, verdicts = check_kedlaya_rows(mean, x, w, float(tol), expect)
                want = [oracle_trial(mean, n, seed, t, float(tol), expect) for t in range(trials)]
                assert verdicts == [r.verdict for r in want]
                for gap, r in zip(gaps, want):
                    assert abs(gap - r.gap) <= 1e-13 * abs(r.rhs)

    @pytest.mark.parametrize("mean_id", ["qa:log", "homdev:shifted-power:0.5", "arithmetic",
                                         "min", "max", "power:1e-3", "gini:0.5:0.49"])
    def test_exact_means_give_the_scalar_gaps(self, mean_id):
        # means without a (rows, n) driver, and parameters the driver leaves
        # to the exact scans, keep every bit
        mean, seed = mean_from_id(mean_id), 9
        for n in (1, 2, 8, 30):
            gaps, verdicts = sweep_kedlaya(mean, n, 12, seed, max_den=20)
            want = [oracle_trial(mean, n, seed, t, max_den=20) for t in range(12)]
            assert gaps == [r.gap for r in want]
            assert verdicts == [r.verdict for r in want]

    def test_block_that_raises_goes_row_by_row(self):
        # a zero entry is outside the Gini mean's domain: the exact scan of
        # its row raises, and the block is checked row by row
        mean = mean_from_id("gini:-1:-1")
        x, w, _ = next(sweep_blocks(1, range(6), 5, 9, 6))
        x[3, 2] = x[4, 1] = 0.0
        with pytest.raises(DomainViolation) as want:
            check_kedlaya(mean, x[3].tolist(), w[3].tolist())
        with pytest.raises(DomainViolation) as got:
            check_kedlaya_rows(mean, x, w)
        assert str(got.value) == str(want.value)

    def test_partial_means_beyond_the_float_range_go_row_by_row(self):
        x = np.array([[1.0, 2.0], [1.0, 10.0]])
        w = np.array([[1.0, 1.0], [1.0, 1.7e308]])
        with pytest.raises(FloatOverflow, match="weighted sum of the entries"):
            check_kedlaya(GEO, x[1].tolist(), w[1].tolist())
        with pytest.raises(FloatOverflow, match="weighted sum of the entries"):
            check_kedlaya_rows(GEO, x, w)

    @pytest.mark.parametrize("n, max_den", [(1025, 2), (1100, 2), (960, 3)])
    def test_raises_what_the_first_failing_trial_raises(self, n, max_den):
        # the weight sum or a weight beyond the float range, in the first
        # trial (max_den 2) or after trials that pass (n = 960, max_den 3:
        # the sum's log is about 693 +- 8 against 709.8, so about one trial
        # in 70 overflows, and the oracle finds seed 0's first)
        with pytest.raises(FloatOverflow) as want:
            for t in range(64):
                oracle_trial(GEO, n, 0, t, max_den=max_den)
        with pytest.raises(FloatOverflow) as got:
            sweep_kedlaya(GEO, n, t + 4, 0, max_den=max_den)
        assert str(got.value) == str(want.value)


class TestSweepMemory:
    def test_peak_does_not_grow_with_the_trials(self):
        # blocks of 2048 trials at n = 8; all 20000 trials at once peak at
        # about 14 MB
        tracemalloc.start()
        try:
            gaps, _ = sweep_kedlaya(GEO, 8, 20000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(gaps) == 20000
        assert peak < 5e6


class TestNecessityProbe:
    def test_pair_weights(self):
        p = necessity_probe(CEX, (1, 1))
        assert p.mu_prime_0 == pytest.approx(-1.0, abs=1e-6)
        assert p.applicable
        assert p.lambda_condition  # every pair is admissible

    def test_one_one_four(self):
        p = necessity_probe(CEX, (1, 1, 4))
        assert p.mu_prime_0 == pytest.approx(-0.25, abs=1e-6)
        assert not p.lambda_condition  # 1/2 < 4/6
        assert p.consistent  # nothing asserted

    def test_four_two_one(self):
        p = necessity_probe(CEX, (4, 2, 1))
        assert p.lambda_condition  # 2/6 >= 1/7

    def test_matches_analytic_value(self):
        # truncation of the extrapolated difference grows like the cube of
        # the last weight ratio; keep ratios moderate for the 1e-6 budget
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            w = [float(v) for v in rng.uniform(0.5, 2, n)]
            p = necessity_probe(CEX, w)
            assert p.mu_prime_0 == pytest.approx(counterexample_mu_prime_0(w), abs=1e-6)

    def test_contradiction_flagged(self):
        p = necessity_probe(CEX, (1, 1, 4), reversed_ki_asserted=True)
        assert not p.consistent

    def test_inapplicable_mean_reported(self):
        # arithmetic normalizes M((0,..,0,1), w) to a weight ratio, not 1
        p = necessity_probe(ARITH, (1, 1, 4))
        assert not p.applicable

    def test_domain_violation_for_positive_only_mean(self):
        from kedlaya.errors import DomainViolation
        with pytest.raises(DomainViolation):
            necessity_probe(GEO, (1, 1, 4))


class TestSearchViolation:
    def test_finds_witness_for_spec_example_weights(self):
        wit = search_violation(CEX, (1.0, 0.1, 5.0), budget=10_000, seed=0)
        assert wit is not None
        assert wit.report.verdict == VIOLATED
        assert wit.report.gap > 0

    def test_rejects_admissible_weights(self):
        with pytest.raises(WeightsInV):
            search_violation(CEX, (1, 1, 1))

    def test_budget_zero_finds_nothing(self):
        assert search_violation(CEX, (1, 1, 4), budget=0) is None

    def test_last_index_failures_found(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(3, 6))
            # ones, then a last weight whose ratio rises above its predecessor's
            w = make_weights([1] * (n - 1) + [int(rng.integers(n, 4 * n))], "W0")
            wit = search_violation(CEX, w, budget=100_000, seed=1)
            assert wit is not None


class TestAffineConjugate:
    def test_zero_scale_rejected(self):
        with pytest.raises(ZeroScale):
            affine_conjugate(GEO, 0, 1)

    def test_arithmetic_equivariant(self):
        conj = affine_conjugate(ARITH, 2.0, 1.0)
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            x = [float(v) for v in rng.uniform(-5, 5, n)]
            w = [float(v) for v in rng.uniform(0.1, 3, n)]
            assert evaluate(conj, x, w) == pytest.approx(evaluate(ARITH, x, w),
                                                         rel=1e-12, abs=1e-12)

    def test_identity_wrapper(self):
        conj = affine_conjugate(GEO, 1.0, 0.0)
        assert evaluate(conj, (1, 4), (1, 1)) == evaluate(GEO, (1, 4), (1, 1))

    def test_negative_scale_flips_verdicts(self):
        mirrored = reflect(GEO)  # scale -1: domain becomes the negatives
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            x = entries_log_uniform(rng, n)
            w = make_weights(sorted(rng.integers(1, 5, n).tolist(), reverse=True), "W0")
            fwd = check_kedlaya(GEO, x, w)
            rev = check_kedlaya(mirrored, [-v for v in x], w)
            assert abs(fwd.gap + rev.gap) <= 1e-12 * (1 + abs(fwd.gap))
            flips = {HOLDS: REVERSED, REVERSED: HOLDS, EQUALITY: EQUALITY}
            assert rev.verdict == flips[fwd.verdict]
