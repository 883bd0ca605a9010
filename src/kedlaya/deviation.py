"""Deviation-style weighted means.

A deviation function ``E(x, y)`` vanishes on the diagonal, is continuous
and strictly decreasing in ``y``, and satisfies ``sign E(x, t) =
sign(x - t)``.  The weighted mean it induces is the unique root ``y`` of

    sum_i  w_i * E(x_i, y) = 0,

which lies between ``min(x)`` and ``max(x)`` and is found here by
bisection: the deviation axioms guarantee continuity and monotonicity of
the total but nothing smoother, so Newton-type steps are not justified.
The bisection stops when the bracket width drops below
``tol * (1 + |y|)`` (default ``tol = 1e-12``, at most 200 iterations).

Closed-form special cases (quasi-arithmetic, Gini, power means and a
two-branch ratio-of-moments counterexample mean) are provided alongside
the solver so they can cross-check each other.  The Gini and
ratio-of-moments forms also come as ``*_rows`` kernels that evaluate
every row of ``(rows, n)`` entry and weight arrays at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .domain import Interval, POSITIVE, chebyshev_points, sampling_window
from .errors import (
    DomainViolation,
    GeneratorOverflow,
    InvalidDeviation,
    InvalidGenerator,
    InverseOutOfRange,
    LengthMismatch,
    MaxIterations,
    SolverFailure,
)

_VALIDATION_SAMPLES = 32
DEFAULT_TOL = 1e-12
MAX_BISECT_ITER = 200


# ---------------------------------------------------------------------------
# Callback descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviationSpec:
    """A deviation function with optional second-argument derivative.

    Construction samples the callbacks at 32 Chebyshev-spaced points of
    the domain's probing window and rejects specs that visibly violate
    the diagonal-zero, sign, or monotonicity requirements.  Sampling can
    only refute, so a spec passing validation may still fail at runtime;
    the solver reports that as :class:`SolverFailure`.
    """

    E: Callable[[float, float], float]
    dE2: Optional[Callable[[float, float], float]] = None
    domain: Interval = POSITIVE
    label: str = "custom"

    def __post_init__(self):
        lo, hi, _ = sampling_window(self.domain)
        pts = sorted(chebyshev_points(lo, hi, _VALIDATION_SAMPLES))
        for x in pts:
            if abs(self.E(x, x)) > 1e-9:
                raise InvalidDeviation(
                    f"{self.label}: E(x, x) != 0 at x={x} (got {self.E(x, x)})")
        for x in (pts[0], pts[len(pts) // 2], pts[-1]):
            prev = None
            for t in pts:
                v = self.E(x, t)
                if x != t and (v == 0.0 or (v > 0) != (x > t)):
                    raise InvalidDeviation(
                        f"{self.label}: sign E({x}, {t}) != sign(x - t)")
                if prev is not None and v >= prev:
                    raise InvalidDeviation(
                        f"{self.label}: E({x}, .) is not strictly decreasing")
                prev = v


@dataclass(frozen=True)
class GeneratorSpec:
    """A strictly monotone generator with inverse and optional derivatives.

    ``params`` holds the wire values of a built-in generator, ``("log",)``
    or ``("pow", p)``; it is None for a custom generator, which has no
    wire format.
    """

    f: Callable[[float], float]
    f_inverse: Callable[[float], float]
    f_prime: Optional[Callable[[float], float]] = None
    f_second: Optional[Callable[[float], float]] = None
    domain: Interval = POSITIVE
    label: str = "custom"
    params: Optional[tuple] = None

    def __post_init__(self):
        lo, hi, _ = sampling_window(self.domain)
        pts = sorted(chebyshev_points(lo, hi, _VALIDATION_SAMPLES))
        vals = [self.f(x) for x in pts]
        increasing = all(b > a for a, b in zip(vals, vals[1:]))
        decreasing = all(b < a for a, b in zip(vals, vals[1:]))
        if not (increasing or decreasing):
            raise InvalidGenerator(f"{self.label}: generator is not strictly monotone")
        for x, v in zip(pts, vals):
            back = self.f_inverse(v)
            if abs(back - x) > 1e-10 * (1.0 + abs(x)):
                raise InvalidGenerator(
                    f"{self.label}: inverse round-trip failed at x={x} (got {back})")


def log_generator() -> GeneratorSpec:
    return GeneratorSpec(math.log, math.exp, lambda x: 1.0 / x,
                         lambda x: -1.0 / (x * x), POSITIVE, "log", ("log",))


def power_generator(p: float) -> GeneratorSpec:
    """Generator ``x^p`` on the positive reals; ``p = 0`` means ``log``."""
    if p == 0:
        return log_generator()
    return GeneratorSpec(
        lambda x: x ** p,
        lambda y: y ** (1.0 / p),
        lambda x: p * x ** (p - 1.0),
        lambda x: p * (p - 1.0) * x ** (p - 2.0),
        POSITIVE,
        f"pow[{p}]",
        ("pow", float(p)),
    )


# ---------------------------------------------------------------------------
# Bisection cores
# ---------------------------------------------------------------------------

def _bisect(g: Callable[[float], float], lo: float, hi: float, tol: float,
            g_lo: float, label: str) -> float:
    """Root of ``g`` on ``[lo, hi]`` given ``g(lo) = g_lo`` with a sign
    change across the bracket.  ``g_lo``'s sign steers the update."""
    positive_at_lo = g_lo > 0
    for _ in range(MAX_BISECT_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * (1.0 + abs(mid)):
            return mid
        v = g(mid)
        if v == 0.0:
            return mid
        if (v > 0) == positive_at_lo:
            lo = mid
        else:
            hi = mid
    raise MaxIterations(f"{label}: bisection did not converge in "
                        f"{MAX_BISECT_ITER} iterations")


def _check_lengths(x, w):
    if len(x) != len(w):
        raise LengthMismatch(f"{len(x)} entries vs {len(w)} weights")
    if not x:
        raise LengthMismatch("empty input")


def solve_deviation_mean(spec: DeviationSpec, x, w, tol: float = DEFAULT_TOL) -> float:
    """Root of ``sum_i w_i E(x_i, y) = 0`` over ``y in [min x, max x]``.

    Since each ``E(x_i, .)`` is strictly decreasing, the total is too, so
    the root is unique and bisection always converges.  A total that is
    not ``>= 0`` at the left endpoint and ``<= 0`` at the right one means
    the spec is not a valid deviation; that raises :class:`SolverFailure`.
    """
    _check_lengths(x, w)
    if tol <= 0:
        raise ValueError("tol must be positive")
    for xi in x:
        if not spec.domain.contains(xi):
            raise DomainViolation(f"entry {xi} outside domain of {spec.label}")
    lo, hi = min(x), max(x)
    if lo == hi:
        return float(lo)

    def g(y: float) -> float:
        return math.fsum(wi * spec.E(xi, y) for xi, wi in zip(x, w))

    g_lo, g_hi = g(lo), g(hi)
    if g_lo < 0.0 or g_hi > 0.0:
        raise SolverFailure(
            f"{spec.label}: no sign change on [{lo}, {hi}] "
            f"(g(lo)={g_lo}, g(hi)={g_hi}); deviation spec is invalid")
    if g_lo == 0.0:
        return float(lo)
    if g_hi == 0.0:
        return float(hi)
    return _bisect(g, lo, hi, tol, g_lo, spec.label)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def quasi_arithmetic(gen: GeneratorSpec, x, w) -> float:
    """``f_inverse`` of the weighted average of ``f(x_i)``."""
    _check_lengths(x, w)
    for xi in x:
        if not gen.domain.contains(xi):
            raise DomainViolation(f"entry {xi} outside domain of {gen.label}")
    if min(x) == max(x):
        return float(x[0])
    fx = []
    for xi in x:
        try:
            fx.append(gen.f(xi))
        except OverflowError as exc:
            raise GeneratorOverflow(f"{gen.label}: generator overflows at entry {xi}") from exc
    try:
        avg = math.fsum(wi * v for v, wi in zip(fx, w)) / math.fsum(w)
    except OverflowError as exc:
        raise GeneratorOverflow(f"{gen.label}: weighted sum of the generator values "
                                f"at {list(x)} overflows") from exc
    try:
        y = gen.f_inverse(avg)
    except (ValueError, OverflowError) as exc:
        raise InverseOutOfRange(f"{gen.label}: inverse failed at {avg}") from exc
    if not math.isfinite(y):
        raise InverseOutOfRange(f"{gen.label}: inverse returned {y}")
    return y


def _log_power_sum(p: float, x, w) -> float:
    """``log sum_i w_i x_i^p`` with max/min factoring against overflow."""
    if p == 0.0:
        return math.log(math.fsum(w))
    c = max(x) if p > 0 else min(x)
    s = math.fsum(wi * (xi / c) ** p for xi, wi in zip(x, w))
    return p * math.log(c) + math.log(s)


def gini(p: float, q: float, x, w) -> float:
    """Two-parameter ratio-of-power-sums mean on positive entries.

    Distinct parameters use the ratio of weighted power sums raised to
    ``1/(p-q)``; equal parameters use the exponential of the weighted
    log-moment ratio.  The branch is chosen by exact parameter equality
    (no smoothing); the function is symmetric in ``(p, q)``.
    """
    _check_lengths(x, w)
    for xi in x:
        if not xi > 0:
            raise DomainViolation(f"entry {xi} must be positive")
    if min(x) == max(x):
        return float(x[0])
    if p == q:
        c = max(x)
        num = math.fsum(wi * (xi / c) ** p * math.log(xi) for xi, wi in zip(x, w))
        den = math.fsum(wi * (xi / c) ** p for xi, wi in zip(x, w))
        return math.exp(num / den)
    return math.exp((_log_power_sum(p, x, w) - _log_power_sum(q, x, w)) / (p - q))


def _log_power_sum_rows(p: float, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise :func:`_log_power_sum`."""
    if p == 0.0:
        return np.log(w.sum(axis=1))
    c = x.max(axis=1, keepdims=True) if p > 0 else x.min(axis=1, keepdims=True)
    return p * np.log(c[:, 0]) + np.log((w * (x / c) ** p).sum(axis=1))


def gini_rows(p: float, q: float, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """:func:`gini` on every row of ``(rows, n)`` entry and weight arrays."""
    if p == q:
        scaled = w * (x / x.max(axis=1, keepdims=True)) ** p
        return np.exp((scaled * np.log(x)).sum(axis=1) / scaled.sum(axis=1))
    return np.exp((_log_power_sum_rows(p, x, w) - _log_power_sum_rows(q, x, w)) / (p - q))


def power_mean(p: float, x, w) -> float:
    """Weighted power mean; equals ``gini(p, 0)``, log-domain at ``p = 0``."""
    return gini(p, 0.0, x, w)


def homogeneous_deviation(f: Callable[[float], float], x, w,
                          tol: float = DEFAULT_TOL) -> float:
    """Root of ``sum_i w_i f(x_i / y) = 0`` on positive entries.

    ``f`` must vanish at 1 (checked to 1e-12); it may be increasing or
    decreasing, the bracket orientation is detected from the endpoint
    signs.
    """
    fe = f(1.0)
    if abs(fe) > 1e-12:
        raise InvalidGenerator(f"f(1) = {fe}, expected 0")
    _check_lengths(x, w)
    for xi in x:
        if not xi > 0:
            raise DomainViolation(f"entry {xi} must be positive")
    lo, hi = min(x), max(x)
    if lo == hi:
        return float(lo)

    def g(y: float) -> float:
        return math.fsum(wi * f(xi / y) for xi, wi in zip(x, w))

    g_lo, g_hi = g(lo), g(hi)
    if g_lo == 0.0:
        return float(lo)
    if g_hi == 0.0:
        return float(hi)
    if (g_lo > 0) == (g_hi > 0):
        raise SolverFailure(
            f"no sign change on [{lo}, {hi}] (g(lo)={g_lo}, g(hi)={g_hi})")
    return _bisect(g, lo, hi, tol, g_lo, "homogeneous deviation")


def shifted_power(p: float) -> Callable[[float], float]:
    """``t -> t^p - 1`` (``log`` at ``p = 0``); vanishes at 1 by design."""
    if p == 0.0:
        return math.log
    return lambda t: t ** p - 1.0


def gini21_counterexample(x, w) -> float:
    """Ratio of the weighted second and first moments, 0 when both vanish.

    Defined on nonnegative entries (unlike :func:`gini`): the two-branch
    formula returns ``sum w x^2 / sum w x`` when the denominator is
    positive and 0 otherwise.  On strictly positive entries it coincides
    with ``gini(2, 1)``; as a weighted mean it is homogeneous, symmetric
    and midpoint-convex, which makes it the canonical counterexample for
    the prefix-mean inequality with inadmissible weights.
    """
    _check_lengths(x, w)
    for xi in x:
        if xi < 0:
            raise DomainViolation(f"entry {xi} must be nonnegative")
    den = math.fsum(wi * xi for xi, wi in zip(x, w))
    if den == 0.0:
        return 0.0
    num = math.fsum(wi * xi * xi for xi, wi in zip(x, w))
    return num / den


def gini21_rows(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """:func:`gini21_counterexample` on every row of ``(rows, n)`` arrays."""
    den = (w * x).sum(axis=1)
    num = (w * x * x).sum(axis=1)
    return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
