"""The weighted prefix-mean (Kedlaya-type) inequality.

For a weighted mean ``M``, entries ``x`` and weights ``w`` with positive
first weight, both sides of

    Ar_k( M(x_1..x_k; w_1..w_k), w_k )  <=  M_k( Ar(x_1..x_k; w_1..w_k), w_k )

are computed: the weighted arithmetic mean of the prefix M-means on the
left against the M-mean of the prefix arithmetic means on the right.
The inequality holds for symmetric Jensen-concave means whenever the
weight ratio sequence ``w_k / (w_1+...+w_k)`` is nonincreasing, and is
reversed for Jensen-convex means.  The telescoping step inequality used
to prove it, a finite-difference probe of the necessity condition on the
weights, and a randomized violation search for inadmissible weights are
provided as well.  :func:`sweep_kedlaya` checks random admissible
instances a block at a time (:func:`check_kedlaya_rows`), with the
verdicts of :func:`check_kedlaya`: both sides of every trial of a block
come from one prefix-rows kernel call on the block's entries stacked on
their partial arithmetic means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DomainViolation,
    FloatOverflow,
    LengthMismatch,
    NegativeSeed,
    NonpositiveWeight,
    WeightsInV,
)
from .deviation import prefix_fsums
from .means import (MeanHandle, evaluate, evaluate_prefix_and_last_rows, evaluate_prefixes,
                    weighted_average)
from .sampling import sweep_blocks
from .weights import WeightVector, as_weight_vector, is_in_V

HOLDS = "holds"
REVERSED = "reversed"
EQUALITY = "equality"
VIOLATED = "violated"


@dataclass(frozen=True)
class KedlayaReport:
    """Both sides of the inequality plus per-step gaps and a verdict.

    ``gap = rhs - lhs``.  Verdicts: ``equality`` when ``|gap|`` is within
    the scaled tolerance, otherwise ``holds``/``reversed`` by the sign of
    the gap.  ``violated`` is only produced when the caller states an
    expectation (``holds`` or ``reversed``) that the sign contradicts.
    """

    n: int
    lhs: float
    rhs: float
    gap: float
    verdict: str
    step_gaps: tuple
    inputs: dict

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "verdict": self.verdict,
            "step_gaps": list(self.step_gaps),
            "inputs": self.inputs,
        }


def partial_arithmetic_means(x: Sequence[float], w) -> list:
    """Prefix weighted arithmetic means ``m_k``; ``m_1 = x_1``.

    Raises :class:`FloatOverflow` when a weighted entry sum overflows.
    """
    wv = as_weight_vector(w)
    if len(x) != len(wv):
        raise LengthMismatch(f"{len(x)} entries vs {len(wv)} weights")
    wf = wv.as_floats()
    out = [float(x[0])]  # (w1*x1)/w1 exactly, without the float round trip
    num = wf[0] * float(x[0])
    den = wf[0]
    for xi, wi in zip(x[1:], wf[1:]):
        num += wi * float(xi)
        den += wi
        out.append(num / den)
    if not math.isfinite(num) and all(map(math.isfinite, x)):  # finite entries overflowed
        raise FloatOverflow("a weighted sum of the entries overflows the float range")
    return out


def _prefix_scans(mean: MeanHandle, x: Sequence[float], wv: WeightVector) -> tuple:
    """Prefix M-means ``A_k = M(x_1..x_k)`` and ``B_k = M(m_1..m_k)`` over
    the prefix arithmetic means ``m``, for ``k = 1..n``.

    Each scan is one :func:`evaluate_prefixes` call: an O(n) pass of the
    family's prefix kernel for random entries, or one :func:`evaluate` per
    prefix for the solver-backed families.  Both equal the per-prefix
    :func:`evaluate` bit for bit.  Both sides and every step gap are read
    off these two scans.
    """
    m = partial_arithmetic_means(x, wv)
    return evaluate_prefixes(mean, x, wv), evaluate_prefixes(mean, m, wv)


def kedlaya_sides(mean: MeanHandle, x: Sequence[float], w) -> tuple:
    """``(lhs, rhs)``: arithmetic mean of prefix M-means vs M-mean of
    prefix arithmetic means, both weighted by ``w``."""
    wv = as_weight_vector(w)
    if len(x) != len(wv):
        raise LengthMismatch(f"{len(x)} entries vs {len(wv)} weights")
    a, b = _prefix_scans(mean, x, wv)
    return weighted_average(a, wv.as_floats()), b[-1]


def step_inequality(mean: MeanHandle, x: Sequence[float], w, j: int) -> tuple:
    """Both sides of the telescoping step at index ``j`` (1-based, >= 2).

    lhs = S_{j-1} * M(m_1..m_{j-1}) + w_j * M(x_1..x_j)
    rhs = S_j * M(m_1..m_j)

    with ``S_k`` the cumulative weight and ``m_k`` the prefix arithmetic
    means.  Summing ``rhs - lhs`` over ``j = 2..n`` telescopes to
    ``S_n * (rhs - lhs)`` of the full inequality.

    This is the per-step API.  :func:`check_kedlaya` does not call it: it
    reads every step gap off two prefix scans, and this function is the
    test oracle for those gaps.
    """
    wv = as_weight_vector(w)
    n = len(wv)
    if not 2 <= j <= n:
        raise ValueError(f"j must be in [2, {n}], got {j}")
    for wi in wv.entries[:j]:
        if not wi > 0:
            raise NonpositiveWeight("step inequality needs positive weights up to j")
    wf = wv.as_floats()
    m = partial_arithmetic_means(x, wv)
    s_prev = math.fsum(wf[: j - 1])
    s_j = s_prev + wf[j - 1]
    lhs = (s_prev * evaluate(mean, m[: j - 1], wf[: j - 1])
           + wf[j - 1] * evaluate(mean, x[:j], wf[:j]))
    rhs = s_j * evaluate(mean, m[:j], wf[:j])
    return lhs, rhs


def _classify(gap: float, tol: float, expect: Optional[str]) -> str:
    if abs(gap) <= tol:
        return EQUALITY
    if gap > 0:
        return VIOLATED if expect == REVERSED else HOLDS
    return VIOLATED if expect == HOLDS else REVERSED


def check_kedlaya(mean: MeanHandle, x: Sequence[float], w,
                  tol: float = 1e-9, expect: Optional[str] = None) -> KedlayaReport:
    """Evaluate the inequality and classify the outcome.

    ``tol`` is scaled to ``tol * (1 + |rhs|)`` before classification.
    Trailing zero weights are dropped first when the weights satisfy the
    ratio-nonincreasing condition (zero weights there can only form a
    tail); otherwise zero weights are rejected, since the comparison is
    not reducible for them.

    Both sides and the step gaps come from the two prefix scans of
    :func:`_prefix_scans` (O(n) prefix kernels, one evaluation per prefix
    for solver-backed families) and one pass of prefix weight sums; each
    step gap equals :func:`step_inequality`'s ``rhs - lhs`` bit for bit.
    """
    if expect not in (None, HOLDS, REVERSED):
        raise ValueError(f"expect must be None, {HOLDS!r} or {REVERSED!r}")
    wv = as_weight_vector(w)
    if len(x) != len(wv):
        raise LengthMismatch(f"{len(x)} entries vs {len(wv)} weights")
    xs = list(x)
    if any(v == 0 for v in wv.entries[1:]):
        if is_in_V(wv):
            keep = len(wv)
            while keep > 1 and wv.entries[keep - 1] == 0:
                keep -= 1
            xs = xs[:keep]
            wv = as_weight_vector(wv.entries[:keep])
        else:
            raise NonpositiveWeight(
                "zero weights are only reducible when the weight ratios are "
                "nonincreasing; drop them before checking")
    n = len(xs)
    if n == 1:
        lhs = rhs = float(xs[0])
        return KedlayaReport(1, lhs, rhs, 0.0, EQUALITY, (),
                             _echo(mean, xs, wv, tol))
    wf = wv.as_floats()
    a, b = _prefix_scans(mean, xs, wv)
    lhs, rhs = weighted_average(a, wf), b[-1]  # lhs: weighted mean of the A_k
    gap = rhs - lhs
    scaled = tol * (1.0 + abs(rhs))
    sums = prefix_fsums(wf)  # S_k = fsum(w_1..w_k)
    steps = []
    for j in range(2, n + 1):
        # step_inequality's operations, so the gaps equal its rhs - lhs bit for bit
        s_prev = sums[j - 2]
        s_j = s_prev + wf[j - 1]
        steps.append(s_j * b[j - 1] - (s_prev * b[j - 2] + wf[j - 1] * a[j - 1]))
    return KedlayaReport(n, lhs, rhs, gap, _classify(gap, scaled, expect),
                         tuple(steps), _echo(mean, xs, wv, tol))


# A gap of check_kedlaya_rows is within 1e-13 of |lhs| + |rhs| of the scalar
# one, and its tol boundary within 1e-13 tol |rhs| (PREFIX_ROWS_RTOL): a trial
# farther than this from the boundary has the scalar verdict.
_NEAR = 2.0 ** -40
# Entries per block of sweep trials, so memory does not grow with the trials.
# The stacked block of both sides holds twice as many.  With blocks of 1 << 14
# a 4000-trial qa:log sweep at n = 8 ran 1-7% slower than with two kernel
# calls on blocks of that size, at 1770 page faults a sweep against 667; with
# this size it ran 3-8% faster, at 352 (in-process, alternated; 2-vCPU Xeon).
_SWEEP_BLOCK = 1 << 12


def check_kedlaya_rows(mean: MeanHandle, x: np.ndarray, w: np.ndarray,
                       tol: float = 1e-9, expect: Optional[str] = None) -> tuple:
    """The gap and verdict of :func:`check_kedlaya` on every row of
    ``(rows, n)`` entry and weight arrays, as two lists.

    Both sides come from one :func:`evaluate_prefix_and_last_rows` call (the
    prefix means of the entries, and the mean of the prefix arithmetic
    means), which takes a mean's prefix-rows kernel once on the entries
    stacked on their partial means; the partial means come from column
    sums, ``lhs`` from one ``fsum`` per row, as :func:`weighted_average`
    takes it.  Every gap equals the scalar one bit for bit, except that the
    closed forms with an error rule (power, Gini, ``gini21``) move it by at
    most 1e-13 of ``|lhs| + |rhs|``.  A trial whose ``|gap|`` lies within
    ``2^-40 (|lhs| + (1 + tol) |rhs|)`` of its ``tol (1 + |rhs|)`` boundary,
    or is not finite, takes its gap and verdict from :func:`check_kedlaya`,
    so no verdict differs from the scalar path.  A block with a weight that
    is not positive and finite or a partial mean that is not finite, or that
    raises, is checked row by row through :func:`check_kedlaya`, which
    raises what the first failing row raises.
    """
    if expect not in (None, HOLDS, REVERSED):
        raise ValueError(f"expect must be None, {HOLDS!r} or {REVERSED!r}")
    rows, n = x.shape
    positive = bool((w > 0.0).all() and np.isfinite(w).all())
    if n == 1 and positive:
        return [0.0] * rows, [EQUALITY] * rows
    with np.errstate(all="ignore"):  # partial means that are not finite go row by row
        m = np.cumsum(w * x, axis=1) / np.cumsum(w, axis=1)  # partial_arithmetic_means
    m[:, 0] = x[:, 0]
    if positive and np.isfinite(m).all():
        try:
            return _gaps_and_verdicts(mean, x, w, m, tol, expect)
        except (ArithmeticError, ValueError):
            pass
    reports = [check_kedlaya(mean, xi, wi, tol, expect) for xi, wi in zip(x.tolist(), w.tolist())]
    return [r.gap for r in reports], [r.verdict for r in reports]


def _gaps_and_verdicts(mean, x, w, m, tol, expect) -> tuple:
    """:func:`check_kedlaya_rows` on rows with positive weights and finite
    partial means ``m``: the prefix means of ``x`` and the mean of each row
    of ``m`` from one :func:`evaluate_prefix_and_last_rows` call."""
    a, rhs = evaluate_prefix_and_last_rows(mean, x, m, w)
    lhs = (np.array(list(map(math.fsum, (w * a).tolist())))
           / np.array(list(map(math.fsum, w.tolist()))))
    gap = rhs - lhs
    scaled = tol * (1.0 + np.abs(rhs))
    gaps = gap.tolist()
    verdicts = [_classify(g, s, expect) for g, s in zip(gaps, scaled.tolist())]
    near = ~(np.abs(np.abs(gap) - scaled) > _NEAR * (np.abs(lhs) + (1.0 + tol) * np.abs(rhs)))
    for i in np.flatnonzero(near):  # near the boundary, or not finite
        report = check_kedlaya(mean, x[i].tolist(), w[i].tolist(), tol, expect)
        gaps[i], verdicts[i] = report.gap, report.verdict
    return gaps, verdicts


def sweep_kedlaya(mean: MeanHandle, n: int, trials: int, seed: int = 0, max_den: int = 9,
                  tol: float = 1e-9, expect: Optional[str] = None) -> tuple:
    """Gaps and verdicts of ``trials`` random trials of the inequality, as two
    lists: trial ``t`` checks the entries and weights
    :func:`~kedlaya.sampling.sweep_blocks` draws for it from stream block
    ``t // STREAM_BLOCK`` of ``seed`` (random ratio-nonincreasing rational
    weights, ``max_den`` bounding the denominators of the ratios) with
    :func:`check_kedlaya_rows`, a block of trials at a time.  A trial whose
    weights are beyond the float range raises their
    :class:`~kedlaya.errors.FloatOverflow` after the trials before it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if seed < 0:
        raise NegativeSeed(f"seed must be >= 0, got {seed}")
    gaps, verdicts = [], []
    step = max(1, _SWEEP_BLOCK // n)
    for x, w, error in sweep_blocks(seed, range(trials), n, max_den, step):
        block_gaps, block_verdicts = check_kedlaya_rows(mean, x, w, tol, expect)
        gaps += block_gaps
        verdicts += block_verdicts
        if error is not None:
            raise error
    return gaps, verdicts


def _echo(mean: MeanHandle, x, wv: WeightVector, tol: float) -> dict:
    return {
        "mean": str(mean),
        "x": [float(v) for v in x],
        "w": [str(v) for v in wv.entries],
        "tol": tol,
    }


# ---------------------------------------------------------------------------
# Necessity of the ratio-nonincreasing condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NecessityProbe:
    """Finite-difference probe of the weight-ratio necessity condition.

    For a homogeneous mean on the nonnegative reals that normalizes
    ``M((0,...,0,1), w) = 1``, a negative derivative of
    ``t -> M((0,...,0,t,1), w)`` at 0 forces the last two weight ratios
    to be nonincreasing whenever the reversed inequality holds for all
    entries.  ``consistent`` flags the contradiction triple; it is
    vacuously true unless the caller asserts the reversed inequality.
    ``applicable`` records whether the normalization held numerically.
    """

    n: int
    mu_prime_0: float
    lambda_condition: bool
    consistent: bool
    applicable: bool


def necessity_probe(mean: MeanHandle, w, h: float = 1e-4,
                    reversed_ki_asserted: bool = False) -> NecessityProbe:
    """Estimate the derivative at 0 of ``t -> M((0,..,0,t,1), w)``.

    One-sided forward differences with one Richardson step over ``h`` and
    ``h/2`` (the map is only defined for ``t >= 0``).  Raises
    ``DomainViolation`` when the mean is undefined at zero entries.
    """
    wv = as_weight_vector(w)
    n = len(wv)
    if n < 2:
        raise ValueError("necessity probe needs n >= 2")
    if not 0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    wf = wv.as_floats()

    def mu(t: float) -> float:
        return evaluate(mean, (0.0,) * (n - 2) + (t, 1.0), wf)

    base_full = evaluate(mean, (0.0,) * (n - 1) + (1.0,), wf)
    base_head = evaluate(mean, (0.0,) * (n - 2) + (1.0,), wf[: n - 1])
    applicable = abs(base_full - 1.0) <= 1e-9 and abs(base_head - 1.0) <= 1e-9

    mu0 = mu(0.0)
    d1 = (mu(h) - mu0) / h
    d2 = (mu(h / 2.0) - mu0) / (h / 2.0)
    mu_prime = 2.0 * d2 - d1

    lam = [Fraction(v) if not isinstance(v, Fraction) else v for v in wv.entries]
    s_head = sum(lam[: n - 1], Fraction(0))
    s_full = s_head + lam[n - 1]
    lambda_condition = lam[n - 2] * s_full >= lam[n - 1] * s_head

    consistent = not (reversed_ki_asserted and mu_prime < 0 and not lambda_condition)
    return NecessityProbe(n, mu_prime, lambda_condition, consistent, applicable)


def counterexample_mu_prime_0(w) -> float:
    """Analytic derivative ``-w_{n-1}/w_n`` of the probe map for the
    built-in ratio-of-moments counterexample mean."""
    wv = as_weight_vector(w)
    if len(wv) < 2:
        raise ValueError("need n >= 2")
    if not wv.entries[-1] > 0:
        raise NonpositiveWeight("last weight must be positive")
    return -float(wv.entries[-2]) / float(wv.entries[-1])


# ---------------------------------------------------------------------------
# Violation search for inadmissible weights
# ---------------------------------------------------------------------------

class ViolationWitness(NamedTuple):
    x: tuple
    report: KedlayaReport


def search_violation(mean: MeanHandle, w, budget: int = 100_000,
                     seed: int = 0, tol: float = 1e-9) -> Optional[ViolationWitness]:
    """Search for entries where the *reversed* inequality fails.

    Requires weights outside the ratio-nonincreasing class (otherwise the
    reversed inequality is a theorem for convex means and the search is
    vacuous, which raises :class:`WeightsInV`).  The structured family
    ``(0, ..., 0, t, 1)`` is scanned over ``t = 2^-k`` first, because the
    necessity argument concentrates violations near ``t -> 0``; random
    positive vectors follow until the budget is exhausted.  Every
    inequality evaluation counts against ``budget``.  Weights outside V_n
    have ``n >= 3``, where both families have zero entries, so a mean whose
    domain excludes 0 raises :class:`DomainViolation` before the first
    candidate.
    """
    wv = as_weight_vector(w)
    if is_in_V(wv):
        raise WeightsInV("weights are in V_n; the reversed inequality cannot fail")
    if seed < 0:
        raise NegativeSeed(f"seed must be >= 0, got {seed}")
    n = len(wv)
    if not mean.domain.contains(0.0):
        raise DomainViolation(f"the search's candidates have zero entries, which lie "
                              f"outside the domain of {mean}")
    for x in islice(_candidates(n, seed), max(budget, 0)):
        report = check_kedlaya(mean, x, wv, tol=tol, expect=REVERSED)
        if report.verdict == VIOLATED:
            return ViolationWitness(x, report)
    return None


def _candidates(n: int, seed: int):
    """The search's entries in order: ``(0, ..., 0, 2^-k, 1)`` for ``k = 0..40``,
    then random vectors from ``seed``, log-uniform in ``[1e-3, 1e3]``, half of
    them with leading zeros."""
    for k in range(41):
        yield (0.0,) * (n - 2) + (2.0 ** (-k), 1.0)
    rng = np.random.default_rng(seed)
    while True:
        logs = rng.uniform(math.log(1e-3), math.log(1e3), size=n)
        x = tuple(math.exp(v) for v in logs)
        if rng.random() < 0.5:
            zeros = int(rng.integers(1, n - 1)) if n > 2 else 0
            x = (0.0,) * zeros + x[zeros:]
        yield x
