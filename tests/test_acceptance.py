"""Acceptance criteria.

Each test exercises one criterion at its stated tolerance and prints a
single pass/fail line (run ``pytest -v -s tests/test_acceptance.py`` to
see the lines as they complete; a failed assertion fails the test).
"""

import math
import time
import zlib
from fractions import Fraction

import numpy as np
import pytest

from kedlaya.concavity import (
    CONVEX,
    NEITHER,
    gini_concavity_condition,
    sample_jensen_concavity,
)
from kedlaya.deviation import (
    DeviationSpec,
    gini,
    log_generator,
    power_generator,
    power_mean,
    quasi_arithmetic,
    solve_deviation_mean,
)
from kedlaya.domain import POSITIVE
from kedlaya.inequality import (
    EQUALITY,
    HOLDS,
    REVERSED,
    check_kedlaya,
    counterexample_mu_prime_0,
    kedlaya_sides,
    necessity_probe,
    search_violation,
)
from kedlaya.means import (
    MeanHandle,
    check_elimination,
    check_nullhomogeneity,
    check_reduction,
    check_symmetry,
    mean_from_id,
    mean_value_residual,
)
from kedlaya.sampling import entries_log_uniform, rational_v_weights
from kedlaya.stepfn import proportional_set, verify_proportionality, rect
from kedlaya.weights import make_weights, partial_sums


def report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_constant_weight_geometric_anchor():
    """Geometric mean, constant weights: gap never below -1e-9, n = 2..8."""
    mean = mean_from_id("power:0")
    lhs, rhs = kedlaya_sides(mean, (1.0, 4.0), (1, 1))
    assert lhs == pytest.approx(1.5, abs=1e-15)
    assert rhs == pytest.approx(math.sqrt(2.5), abs=1e-15)
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = math.inf
    trials = 10_000
    for t in range(trials):
        n = 2 + (t % 7)
        x = entries_log_uniform(rng, n)
        lhs, rhs = kedlaya_sides(mean, x, (1.0,) * n)
        worst = min(worst, rhs - lhs)
    elapsed = time.monotonic() - start
    ok = worst >= -1e-9 and elapsed < 10.0
    report(1, ok, f"{trials} trials, min gap {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_weighted_geometric():
    """Geometric mean over random admissible rational weights."""
    mean = mean_from_id("power:0")
    rng = np.random.default_rng(7)
    worst = math.inf
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        w = rational_v_weights(rng, n)
        wf = w.as_floats()
        for _ in range(100):
            x = entries_log_uniform(rng, n)
            lhs, rhs = kedlaya_sides(mean, x, wf)
            worst = min(worst, rhs - lhs)
    ok = worst >= -1e-9
    report(2, ok, f"1000 weights x 100 entry vectors, min gap {worst:.3e}")


def test_criterion_3_forward_and_reversed_sweeps():
    """Concave families hold, the convex counterexample reverses."""
    forward = [
        mean_from_id("power:-1"),
        mean_from_id("power:0"),
        mean_from_id("power:0.5"),
        mean_from_id("gini:0.5:-1"),
        MeanHandle.quasi_arithmetic(log_generator()),
    ]
    rng = np.random.default_rng(99)
    bad = []
    for mean in forward:
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            w = rational_v_weights(rng, n)
            x = entries_log_uniform(rng, n)
            r = check_kedlaya(mean, x, w, expect=HOLDS)
            if r.verdict not in (HOLDS, EQUALITY):
                bad.append((str(mean), x, list(w)))
    cex = mean_from_id("gini21")
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        w = rational_v_weights(rng, n)
        x = entries_log_uniform(rng, n)
        r = check_kedlaya(cex, x, w, expect=REVERSED)
        if r.verdict not in (REVERSED, EQUALITY):
            bad.append(("gini21", x, list(w)))
    ok = not bad
    report(3, ok, f"6000 sweep instances, {len(bad)} contradictions")


def test_criterion_4_necessity():
    """Derivative probe matches the analytic value; a violation exists."""
    cex = mean_from_id("gini21")
    w = (1.0, 1.0, 4.0)
    probe = necessity_probe(cex, w)
    analytic = counterexample_mu_prime_0(w)
    assert analytic == -0.25
    close = abs(probe.mu_prime_0 - analytic) <= 1e-6
    assert not probe.lambda_condition  # ratios 1/2 < 4/6
    witness = search_violation(cex, w, budget=100_000, seed=0)
    ok = close and witness is not None and witness.report.gap > 0
    report(4, ok, f"mu'(0) = {probe.mu_prime_0:.9f} vs -0.25, "
                  f"witness x = {witness.x if witness else None}")


def test_criterion_5_proof_machinery_equivalence():
    """Block construction reproduces the telescoping step, 1000 instances."""
    from kedlaya.stepfn import verify_proof_construction

    means = [mean_from_id("arithmetic"), mean_from_id("power:0"),
             mean_from_id("gini:0.5:0")]
    rng = np.random.default_rng(11)
    failures = 0
    done = 0
    while done < 1000:
        n = int(rng.integers(2, 5))
        if rng.random() < 0.5:
            vals = sorted((int(v) for v in rng.integers(1, 4, n)), reverse=True)
            w = make_weights(vals, "W0")
        else:
            w = rational_v_weights(rng, n, max_den=4)
        j = int(rng.integers(2, n + 1))
        lam = w.entries
        sums = [Fraction(0)] + list(partial_sums(w))
        thetas = [(lam[j - 1] * sums[k - 1]) / (lam[k - 1] * sums[j - 1])
                  for k in range(1, j + 1)]
        if sum(t.denominator for t in thetas) > 150:
            continue  # keep the exact grids small enough to run at volume
        x = entries_log_uniform(rng, n)
        mean = means[done % 3]
        if not verify_proof_construction(mean, x, w, j, tol=1e-9):
            failures += 1
        done += 1
    ok = failures == 0
    report(5, ok, f"1000 instances, {failures} mismatches")


def test_criterion_5_second_tier_large_denominators():
    """The same equivalence on 100 instances whose proportionality
    denominators sum to 150..1000, past criterion 5's cap."""
    from kedlaya.stepfn import verify_proof_construction

    means = [mean_from_id("arithmetic"), mean_from_id("power:0"),
             mean_from_id("gini:0.5:0")]
    rng = np.random.default_rng(12)
    failures = 0
    done = 0
    while done < 100:
        n = int(rng.integers(4, 9))
        w = rational_v_weights(rng, n, max_den=int(rng.integers(8, 60)))
        j = int(rng.integers(2, n + 1))
        lam = w.entries
        sums = [Fraction(0)] + list(partial_sums(w))
        if not 150 < sum(((lam[j - 1] * sums[k - 1]) / (lam[k - 1] * sums[j - 1])).denominator
                         for k in range(1, j + 1)) <= 1000:
            continue
        x = entries_log_uniform(rng, n)
        if not verify_proof_construction(means[done % 3], x, w, j, tol=1e-9):
            failures += 1
        done += 1
    report(5, failures == 0, f"second tier: 100 instances, {failures} mismatches")


def test_criterion_6_proportional_set_exactness():
    """Every ratio with denominator <= 50 verifies exactly on random hosts."""
    rng = np.random.default_rng(3)
    hosts = []
    for _ in range(100):
        a = Fraction(int(rng.integers(-12, 12)), int(rng.integers(1, 8)))
        b = a + Fraction(int(rng.integers(1, 12)), int(rng.integers(1, 8)))
        c = Fraction(int(rng.integers(-12, 12)), int(rng.integers(1, 8)))
        d = c + Fraction(int(rng.integers(1, 12)), int(rng.integers(1, 8)))
        hosts.append(rect(a, b, c, d))
    start = time.monotonic()
    checked = 0
    bad = 0
    for q in range(1, 51):
        for p in range(0, q + 1):
            host = hosts[checked % len(hosts)]
            ps = proportional_set(host, Fraction(p, q))
            if not verify_proportionality(ps):
                bad += 1
            checked += 1
    elapsed = time.monotonic() - start
    ok = bad == 0 and elapsed < 5.0
    report(6, ok, f"{checked} (p, q) pairs on 100 hosts, "
                  f"{bad} failures, {elapsed:.2f}s")


def _axiom_instances(rng, trials, nmax=5):
    for _ in range(trials):
        n = int(rng.integers(2, nmax + 1))
        x = entries_log_uniform(rng, n)
        w = tuple(float(v) for v in rng.uniform(0.1, 10, n))
        yield n, x, w


def _worst_axiom_residual(mean, rng, trials):
    worst = 0.0
    for n, x, w in _axiom_instances(rng, trials):
        t = float(rng.uniform(0.25, 4.0))
        lam = [float(rng.uniform(0, wi)) for wi in w]
        mu = [wi - li for wi, li in zip(w, lam)]
        perm = list(rng.permutation(n))
        wz = list(w)
        wz[int(rng.integers(0, n))] = 0.0
        jz = wz.index(0.0)
        worst = max(
            worst,
            check_nullhomogeneity(mean, x, w, t).residual,
            check_reduction(mean, x, lam, mu).residual,
            mean_value_residual(mean, x, w).residual,
            check_elimination(mean, x, wz, jz).residual,
            check_symmetry(mean, x, w, perm).residual,
        )
    return worst


def test_criterion_7_axiom_conformance():
    """All five axiom residuals, 10^4 instances per built-in family."""
    bump = DeviationSpec(lambda x, y: (x - y) * (1.0 + (x + y) / 20.0),
                         domain=POSITIVE, label="skewed-linear")
    closed = [
        mean_from_id("arithmetic"),
        mean_from_id("min"),
        mean_from_id("max"),
        mean_from_id("power:0.5"),
        MeanHandle.quasi_arithmetic(power_generator(2.0)),
        mean_from_id("gini:2:1"),
        mean_from_id("gini21"),
    ]
    solver_backed = [
        mean_from_id("homdev:shifted-power:0.5"),
        MeanHandle.custom_deviation(bump),
    ]
    trials = 10_000
    details = []
    ok = True
    for mean, budget in ([(m, 1e-12) for m in closed]
                         + [(m, 1e-9) for m in solver_backed]):
        rng = np.random.default_rng(zlib.crc32(str(mean).encode()))
        worst = _worst_axiom_residual(mean, rng, trials)
        details.append(f"{mean}:{worst:.1e}")
        ok = ok and worst <= budget
    report(7, ok, f"{trials} instances/family; worst residuals " + ", ".join(details))


def test_criterion_8_solver_oracle():
    """Root solver vs closed forms; power means vs the two-parameter family."""
    gens = [log_generator(), power_generator(2.0), power_generator(0.5)]
    specs = [DeviationSpec(lambda x, y, f=g.f: f(x) - f(y), domain=POSITIVE,
                           label=g.label) for g in gens]
    rng = np.random.default_rng(13)
    worst_solver = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        x = entries_log_uniform(rng, n)
        w = tuple(float(v) for v in rng.uniform(0.1, 5, n))
        k = int(rng.integers(0, len(gens)))
        direct = quasi_arithmetic(gens[k], x, w)
        solved = solve_deviation_mean(specs[k], x, w)
        worst_solver = max(worst_solver,
                           abs(direct - solved) / (1.0 + abs(direct)))
    worst_grid = 0.0
    for p in np.linspace(-3.0, 3.0, 61):
        x = entries_log_uniform(rng, 5)
        w = tuple(float(v) for v in rng.uniform(0.1, 5, 5))
        a = power_mean(float(p), x, w)
        b = gini(float(p), 0.0, x, w)
        worst_grid = max(worst_grid, abs(a - b) / (1.0 + abs(a)))
    ok = worst_solver <= 1e-9 and worst_grid <= 1e-12
    report(8, ok, f"solver residual {worst_solver:.1e}, "
                  f"power-mean grid residual {worst_grid:.1e}")


def test_criterion_9_concavity_cross_check():
    """Sampling refutes concavity wherever the parameter region says so."""
    grid = [-1.0, 0.0, 0.5, 1.0, 2.0]
    targets = [(p, q) for p in grid for q in grid
               if not gini_concavity_condition(p, q) and p > 0 and q > 0]
    assert (2.0, 1.0) in targets
    unrefuted = []
    for p, q in targets:
        verdict = sample_jensen_concavity(MeanHandle.gini(p, q), 2, 100_000,
                                          tol=1e-9, seed=101)
        if verdict.verdict not in (CONVEX, NEITHER):
            unrefuted.append((p, q))
    ok = not unrefuted
    report(9, ok, f"{len(targets)} non-concave grid points refuted"
                  + (f"; missed {unrefuted}" if unrefuted else ""))
