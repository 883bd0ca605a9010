"""Deviation-style weighted means.

A deviation function ``E(x, y)`` vanishes on the diagonal, is continuous
and strictly decreasing in ``y``, and satisfies ``sign E(x, t) =
sign(x - t)``.  The weighted mean it induces is the unique root ``y`` of

    sum_i  w_i * E(x_i, y) = 0,

which lies between ``min(x)`` and ``max(x)`` and is found here by
bisection: the deviation axioms guarantee continuity and monotonicity of
the total but nothing smoother, so Newton-type steps are not justified.
The bisection stops when the bracket width drops below
``tol * (1 + |y|)`` (default ``tol = 1e-12``); its iteration cap comes
from the bracket (:func:`_max_halvings`), so wide brackets converge too.
Homogeneous deviations ``E(x, y) = f(x / y)`` are the special case
solved by :func:`homogeneous_deviation`; both solvers build their total
and share one root finder (constant shortcut, endpoint checks, bisection).
:func:`homogeneous_deviation_rows` bisects every row of ``(rows, n)``
arrays in lockstep, for an ``f`` with a numpy twin such as
:func:`shifted_power_rows`: it takes each sign from a numpy row sum outside
that sum's error bound and from the scalar total inside it, so it returns
the scalar solver's roots and errors bit for bit.

Closed-form special cases (quasi-arithmetic, Gini, power means and a
two-branch ratio-of-moments counterexample mean) are provided alongside
the solver so they can cross-check each other.  The Gini,
ratio-of-moments and quasi-arithmetic forms also come as ``*_rows``
kernels that evaluate every row of ``(rows, n)`` entry and weight arrays
in one call, and as ``*_prefixes`` kernels that evaluate every
prefix ``x[:k]`` of one input in a single pass, bit for bit equal to the
closed form on each prefix.  Their sums run through :class:`_RunningFsum`,
which takes one C ``fsum`` per prefix on short scans and keeps running
partials on long ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .domain import Interval, POSITIVE, probe_points
from .errors import (
    DomainViolation,
    FloatOverflow,
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
# Halvings a bisection may take beyond the count its bracket needs, which
# covers the rounding of the midpoints (see _max_halvings).
_BISECT_SLACK = 64
_HOMDEV = "homogeneous deviation"


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
        pts = probe_points(self.domain, _VALIDATION_SAMPLES)
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
        pts = probe_points(self.domain, _VALIDATION_SAMPLES)
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
# The root finder
# ---------------------------------------------------------------------------

def _max_halvings(lo, hi, floor, tol):
    """Halvings that take the width of ``[lo, hi]`` down to
    ``tol * (1 + floor)``, plus :data:`_BISECT_SLACK`; ``floor`` is a lower
    bound of ``|y|`` on the bracket, so the stop rule has been met by then.

    Scalars or arrays: the count is read off binary exponents
    (``hi - lo < 2^(e + 1)`` when ``(hi - lo) / 2 < 2^e``, which does not
    overflow), so the scalar and the lockstep bisection get the same one.
    """
    _, e_half_width = np.frexp(0.5 * hi - 0.5 * lo)
    _, e_target = np.frexp(tol * (1.0 + floor))
    return np.maximum(e_half_width - e_target + 2, 0) + _BISECT_SLACK


def _bisect(g: Callable[[float], float], lo: float, hi: float, tol: float,
            g_lo: float, label: str) -> float:
    """Root of ``g`` on ``[lo, hi]`` given ``g(lo) = g_lo`` with a sign
    change across the bracket.  ``g_lo``'s sign steers the update."""
    positive_at_lo = g_lo > 0
    floor = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
    cap = int(_max_halvings(lo, hi, floor, tol))
    for _ in range(cap):
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
    raise MaxIterations(f"{label}: bisection did not converge in {cap} iterations")


def _check_lengths(x, w):
    if len(x) != len(w):
        raise LengthMismatch(f"{len(x)} entries vs {len(w)} weights")
    if not x:
        raise LengthMismatch("empty input")


def _solve(g: Callable[[float], float], x, tol: float, label: str) -> float:
    """Root of the total ``g``, decreasing in ``y``, on ``[min x, max x]``.

    A total that is not ``>= 0`` at the left endpoint and ``<= 0`` at the
    right one has no root there; that raises :class:`SolverFailure`.
    """
    lo, hi = min(x), max(x)
    if lo == hi:
        return float(lo)
    g_lo, g_hi = g(lo), g(hi)
    if g_lo < 0.0 or g_hi > 0.0:
        raise SolverFailure(
            f"{label}: no sign change on [{lo}, {hi}] "
            f"(g(lo)={g_lo}, g(hi)={g_hi}); deviation is invalid")
    if g_lo == 0.0:
        return float(lo)
    if g_hi == 0.0:
        return float(hi)
    return _bisect(g, lo, hi, tol, g_lo, label)


def solve_deviation_mean(spec: DeviationSpec, x, w, tol: float = DEFAULT_TOL) -> float:
    """Root of ``sum_i w_i E(x_i, y) = 0`` over ``y in [min x, max x]``.

    Since each ``E(x_i, .)`` is strictly decreasing, the total is too, so
    the root is unique and bisection always converges.  A total without a
    sign change means the spec is not a valid deviation
    (:class:`SolverFailure`).
    """
    _check_lengths(x, w)
    if tol <= 0:
        raise ValueError("tol must be positive")
    for xi in x:
        if not spec.domain.contains(xi):
            raise DomainViolation(f"entry {xi} outside domain of {spec.label}")
    return _solve(lambda y: math.fsum(wi * spec.E(xi, y) for xi, wi in zip(x, w)),
                  x, tol, spec.label)


# ---------------------------------------------------------------------------
# Exact running sums
# ---------------------------------------------------------------------------

# Scans of up to this many terms take one C ``fsum`` per prefix, O(n^2) in
# all; longer ones keep Shewchuk's partials in Python, O(n).  On a 2-vCPU
# Xeon (log-uniform entries) the two branches cost the same at n = 64 to 72
# for the kernels that keep two sums (qa:log 78 against 75 us at n = 64) and
# at about n = 56 for prefix_fsums (20 against 19 us), which keeps one.
_FSUM_SCAN_MAX = 64


class _RunningFsum:
    """``math.fsum`` run one term at a time over a scan of ``n`` terms.

    :meth:`value` is ``fsum`` of the terms added so far, bit for bit, and
    raises what that ``fsum`` raises (a sum of finite terms beyond the float
    range).  The scan length picks one of two branches, once:

    - up to :data:`_FSUM_SCAN_MAX` terms (:class:`_FsumTerms`), :meth:`add`
      only appends and :meth:`value` is ``fsum`` of the terms, in C.  An
      overflow raises at :meth:`value`;
    - longer scans keep Shewchuk's nonoverlapping partials, as ``fsum``
      does, at O(1) amortized cost per term.  Their exact sum is the exact
      sum of the finite terms, so ``fsum`` of the few partials is correctly
      rounded like ``fsum`` of all of them.  :meth:`add` raises where
      ``fsum`` raises while consuming that term.  After an inf or nan term,
      :meth:`value` sums the terms themselves.
    """

    __slots__ = ("terms", "partials", "special")

    def __new__(cls, n: int):
        return _FsumTerms() if n <= _FSUM_SCAN_MAX else super().__new__(cls)

    def __init__(self, n: int):
        self.terms = []
        self.partials = []
        self.special = False

    def add(self, x: float) -> None:
        self.terms.append(x)
        term, partials, i = x, self.partials, 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        if x - x == 0.0:  # finite
            del partials[i:]
            partials.append(x)
        elif term - term == 0.0:
            raise OverflowError("intermediate overflow in fsum")
        else:  # an inf or nan term: fsum sets it aside and starts the partials over
            self.special = True
            partials.clear()

    def value(self) -> float:
        return math.fsum(self.terms if self.special else self.partials)


class _FsumTerms(list):
    """The short-scan branch of :class:`_RunningFsum`: the terms themselves."""

    __slots__ = ()
    add = list.append

    def value(self) -> float:
        return math.fsum(self)


def prefix_fsums(values) -> list:
    """``[math.fsum(values[:k]) for k = 1..n]`` in one pass, bit for bit and
    raising where the first of those sums raises."""
    acc = _RunningFsum(len(values))
    out = []
    for v in values:
        acc.add(v)
        out.append(acc.value())
    return out


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


def _generator_values(gen: GeneratorSpec, x) -> list:
    fx = []
    for xi in x:
        try:
            fx.append(gen.f(xi))
        except OverflowError as exc:
            raise GeneratorOverflow(f"{gen.label}: generator overflows at entry {xi}") from exc
    return fx


def quasi_arithmetic_prefixes(gen: GeneratorSpec, x, w, first: int) -> list:
    """:func:`quasi_arithmetic` on ``x[:k], w[:k]`` for ``k = first+1..n``,
    bit for bit and with the same errors.

    Each prefix repeats :func:`quasi_arithmetic`'s steps and messages,
    which that function keeps inline because helper calls there cost a
    two-entry evaluation about 3%.  ``gen.f`` runs once per entry, at the
    whole first prefix before its sums.  The entries must lie in the
    domain and ``x[:first+1]`` must not be constant (see
    :func:`kedlaya.means.evaluate_prefixes`).
    """
    fx = _generator_values(gen, x[: first + 1])
    out, terms, wsum = [], _RunningFsum(len(x)), _RunningFsum(len(x))
    for k, wk in enumerate(w):
        if k > first:
            fx += _generator_values(gen, x[k : k + 1])
        try:  # a short scan overflows at value(), a long one at add()
            terms.add(wk * fx[k])
            wsum.add(wk)
            if k < first:
                continue
            avg = terms.value() / wsum.value()
        except OverflowError as exc:
            raise GeneratorOverflow(f"{gen.label}: weighted sum of the generator values "
                                    f"at {x[: max(k, first) + 1]} overflows") from exc
        try:
            y = gen.f_inverse(avg)
        except (ValueError, OverflowError) as exc:
            raise InverseOutOfRange(f"{gen.label}: inverse failed at {avg}") from exc
        if not math.isfinite(y):
            raise InverseOutOfRange(f"{gen.label}: inverse returned {y}")
        out.append(y)
    return out


def quasi_arithmetic_rows(gen: GeneratorSpec, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """:func:`kedlaya.means.evaluate` of :func:`quasi_arithmetic` on every row
    of ``(rows, n)`` entry and weight arrays, bit for bit.

    Each row is taken as Python floats, so any generator serves, with no
    numpy twin.  As in ``evaluate``, zero-weight entries are dropped and a
    constant row is its entry; the other rows take
    ``f_inverse(fsum(w f(x)) / fsum(w))``.  A row where a step raises an
    arithmetic or value error, or whose value is not finite, is handed to
    :func:`quasi_arithmetic` itself, so it raises (or returns) exactly what
    that function does.
    """
    f, f_inverse = gen.f, gen.f_inverse
    out = []
    for xs, ws in zip(x.tolist(), w.tolist()):
        if 0.0 in ws:
            xs = [xi for xi, wi in zip(xs, ws) if wi != 0.0]
            ws = [wi for wi in ws if wi != 0.0]
        if min(xs) == max(xs):
            out.append(xs[0])
            continue
        try:
            y = f_inverse(math.fsum([wi * f(xi) for xi, wi in zip(xs, ws)]) / math.fsum(ws))
        except (ArithmeticError, ValueError):
            y = math.nan
        out.append(y if math.isfinite(y) else quasi_arithmetic(gen, xs, ws))
    return np.array(out)


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
        c = min(x) if p < 0 else max(x)  # scaled terms at most 1, as in _log_power_sum
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
        c = x.min(axis=1, keepdims=True) if p < 0 else x.max(axis=1, keepdims=True)
        with np.errstate(over="ignore"):  # x / c is inf only where (x / c) ** p is 0
            scaled = w * (x / c) ** p
        return np.exp((scaled * np.log(x)).sum(axis=1) / scaled.sum(axis=1))
    return np.exp((_log_power_sum_rows(p, x, w) - _log_power_sum_rows(q, x, w)) / (p - q))


def _log_power_sum_prefixes(p: float, x, w, first: int) -> list:
    """:func:`_log_power_sum` on ``x[:k], w[:k]`` for ``k = first+1..n``.

    The scale is the prefix's max (``p > 0``) or min (``p < 0``); the
    scaled terms are rebuilt only when it changes, about ``ln n`` times
    for random entries.
    """
    if p == 0.0:
        return [math.log(s) for s in prefix_fsums(w)[first:]]
    out, c = [], None
    for k in range(first, len(x)):
        xk = x[k]
        if c is None or (xk > c if p > 0 else xk < c):
            c = max(x[: k + 1]) if p > 0 else min(x[: k + 1])
            log_c = p * math.log(c)
            terms = _RunningFsum(len(x))
            for xi, wi in zip(x[: k + 1], w):
                terms.add(wi * (xi / c) ** p)
        else:
            terms.add(w[k] * (xk / c) ** p)
        out.append(log_c + math.log(terms.value()))
    return out


def gini_prefixes(p: float, q: float, x, w, first: int) -> list:
    """:func:`gini` on ``x[:k], w[:k]`` for ``k = first+1..n``, bit for bit
    and with the same errors.

    A change of scale rebuilds the sums in :func:`gini`'s order: every
    numerator term (each power raising where it would), then the
    denominator.  The entries must be positive and ``x[:first+1]`` must
    not be constant (see :func:`kedlaya.means.evaluate_prefixes`).
    """
    if p != q:
        lp = _log_power_sum_prefixes(p, x, w, first)
        lq = _log_power_sum_prefixes(q, x, w, first)
        return [math.exp((a - b) / (p - q)) for a, b in zip(lp, lq)]
    out, c = [], None
    for k in range(first, len(x)):
        xk = x[k]
        # the scale is gini's; x**0.0 is 1.0 whatever c is
        if c is None or (xk < c if p < 0 else xk > c and p != 0.0):
            c = min(x[: k + 1]) if p < 0 else max(x[: k + 1])
            num, den, scaled = _RunningFsum(len(x)), _RunningFsum(len(x)), []
            for xi, wi in zip(x[: k + 1], w):
                d = wi * (xi / c) ** p
                num.add(d * math.log(xi))
                scaled.append(d)
            for d in scaled:
                den.add(d)
        else:
            d = w[k] * (xk / c) ** p
            num.add(d * math.log(xk))
            den.add(d)
        out.append(math.exp(num.value() / den.value()))
    return out


def power_mean(p: float, x, w) -> float:
    """Weighted power mean; equals ``gini(p, 0)``, log-domain at ``p = 0``."""
    return gini(p, 0.0, x, w)


def _homogeneous_total(f: Callable[[float], float], s: float, x, w) -> Callable:
    """The total ``y -> s * sum_i w_i f(x_i / y)``, summed exactly."""
    return lambda y: s * math.fsum(wi * f(xi / y) for xi, wi in zip(x, w))


def _orientation(f: Callable[[float], float]) -> float:
    """The sign that makes ``s * f`` increasing, after checking ``f(1) = 0``
    (to 1e-12)."""
    fe = f(1.0)
    if abs(fe) > 1e-12:
        raise InvalidGenerator(f"f(1) = {fe}, expected 0")
    return -1.0 if f(2.0) < 0 else 1.0


def homogeneous_deviation(f: Callable[[float], float], x, w,
                          tol: float = DEFAULT_TOL) -> float:
    """Root of ``sum_i w_i f(x_i / y) = 0`` on positive entries.

    ``f`` must vanish at 1 (checked to 1e-12); it may be increasing or
    decreasing.  For a decreasing ``f`` (``f(2) < 0``) the total is
    negated, which is exact, so that it decreases in ``y`` either way.
    """
    s = _orientation(f)
    _check_lengths(x, w)
    for xi in x:
        if not xi > 0:
            raise DomainViolation(f"entry {xi} must be positive")
    return _solve(_homogeneous_total(f, s, x, w), x, tol, _HOMDEV)


def shifted_power(p: float) -> Callable[[float], float]:
    """``t -> t^p - 1`` (``log`` at ``p = 0``); vanishes at 1 by design."""
    if p == 0.0:
        return math.log
    return lambda t: t ** p - 1.0


def shifted_power_rows(p: float) -> tuple:
    """The numpy twin of :func:`shifted_power`, for
    :func:`homogeneous_deviation_rows`: the array function and its error
    floor ``c``.

    Each value is within an ulp of ``|f(t)| + c`` of the scalar ``f(t)``
    (``c = 2`` bounds ``t^p + 1``, the size of ``t^p - 1`` before its
    cancellation), and is not finite where the scalar raises, except
    within ulps of the end of the float range.
    """
    if p == 0.0:
        return np.log, 0.0
    return (lambda t: t ** p - 1.0), 2.0


# ---------------------------------------------------------------------------
# Lockstep bisection
# ---------------------------------------------------------------------------

_BLOCK = 1 << 14  # entries per block of rows
# Twin values were measured within 1 ulp of the scalar ones, with and without
# numpy's SIMD dispatch; this slack covers about 60 (see below).
_SIGN_SLACK = 64
_EPS = 2.0 ** -52
_TERM_FLOOR = 2.0 ** -1072  # the underflow error of two products, with room
_SAFE = 2.0 ** 1000  # a total or value below this overflows nowhere


def homogeneous_deviation_rows(f: Callable[[float], float], twin: tuple,
                               x: np.ndarray, w: np.ndarray,
                               sizes: Optional[np.ndarray] = None) -> np.ndarray:
    """:func:`homogeneous_deviation` of ``f`` on the first ``sizes[i]``
    entries of every row of ``(rows, n)`` arrays (all ``n`` by default),
    bit for bit and raising what the first failing row raises.

    Rows are bisected in lockstep, a block of rows at a time, on the
    scalar solver's brackets, midpoints, shortcuts and stop rule.  The
    entries must be positive and each row's weights nonnegative with a
    positive sum; zero-weight entries are dropped, as in
    :func:`kedlaya.means.evaluate`.  Bisection reads
    only the sign of each total.  ``twin = (F, c)`` (see
    :func:`shifted_power_rows`) gives it from a numpy row sum whenever that
    sum is farther from 0 than its error bound (Shewchuk's filtered
    predicates): ``(k + _SIGN_SLACK) * 2^-52`` of ``sum_i w_i (|F(t_i)| + c)``
    over a row's ``k`` terms, which bounds each term before its own
    cancellation, plus an underflow floor per term.  That covers the numpy
    summation, off by at most ``(k - 1) * 2^-53`` of it in any order, and
    twin values up to about 60 ulps of ``|f(t)| + c`` from the scalar ones.
    A row whose sum is closer, or whose terms could overflow somewhere,
    gets the scalar total instead, which keeps its exact value and its
    Python errors.
    """
    s = _orientation(f)
    rows, n = x.shape
    if sizes is None:
        sizes = np.full(rows, n)
    out = np.empty(rows)
    step = max(1, _BLOCK // n)
    with np.errstate(all="ignore"):  # values that are not finite go to the scalar total
        for start in range(0, rows, step):
            block = slice(start, start + step)
            out[block] = _bisect_block(f, twin, s, x[block], w[block],
                                       sizes[block, None])
    return out


def _bisect_block(f, twin, s, x, w, sizes) -> np.ndarray:
    """:func:`homogeneous_deviation_rows` on one block of rows; every
    per-row array is a column."""
    m = int(sizes.max())
    x, w = x[:, :m], w[:, :m]
    live = (np.arange(m) < sizes) & (w != 0.0)
    lo = np.where(live, x, np.inf).min(axis=1, keepdims=True)
    hi = np.where(live, x, -np.inf).max(axis=1, keepdims=True)
    # Dead entries (past a row's size, or of weight 0) repeat its minimum with
    # weight 0, so their terms are exactly 0 and their values finite wherever
    # the row's are.
    x = np.where(live, x, lo)
    w = np.where(live, w, 0.0)
    F, c = twin
    ulps = (sizes + _SIGN_SLACK) * _EPS
    # the bound is ulps * (sum_i w_i |F(t_i)| + c * sum_i w_i) + the floor
    base = ulps * c * w.sum(axis=1, keepdims=True) + sizes * _TERM_FLOOR
    # |F| <= size / w_i, so below this cap no value or partial sum overflows
    cap = _SAFE * np.minimum(1.0, np.where(live, w, np.inf).min(axis=1, keepdims=True))
    result = lo.copy()  # the constant rows' value
    active = lo != hi
    errors = {}

    def scalar(i: int, y: float) -> float:
        row = live[i]
        return _homogeneous_total(f, s, x[i, row].tolist(), w[i, row].tolist())(y)

    def totals(y: np.ndarray, pending: np.ndarray) -> np.ndarray:
        """Each pending row's total at ``y``, exact or of the right sign."""
        terms = w * F(x / y)
        g = np.add.reduce(terms, axis=1, keepdims=True)
        size = np.add.reduce(np.abs(terms, out=terms), axis=1, keepdims=True)
        certain = (np.abs(g) > ulps * size + base) & (size <= cap)
        if s < 0:
            g = -g
        for i in (pending > certain).nonzero()[0]:  # pending and not certain
            try:
                g[i] = scalar(i, float(y[i, 0]))
            except (ArithmeticError, ValueError) as exc:
                errors[i] = exc
                active[i] = False
        return g

    g_lo = totals(lo, active)
    g_hi = totals(hi, active)
    for i in (active & ((g_lo < 0) | (g_hi > 0))).nonzero()[0]:
        a, b = float(lo[i, 0]), float(hi[i, 0])
        errors[i] = SolverFailure(
            f"{_HOMDEV}: no sign change on [{a}, {b}] "
            f"(g(lo)={scalar(i, a)}, g(hi)={scalar(i, b)}); deviation is invalid")
        active[i] = False
    for g, end in ((g_lo, lo), (g_hi, hi)):
        root = active & (g == 0.0)
        np.copyto(result, end, where=root)
        active ^= root
    positive_at_lo = g_lo > 0
    caps = _max_halvings(lo, hi, lo, DEFAULT_TOL)  # lo > 0 bounds |y| below
    for it in itertools.count():
        for i in (active & (caps <= it)).nonzero()[0]:
            errors[i] = MaxIterations(f"{_HOMDEV}: bisection did not converge in "
                                      f"{caps[i, 0]} iterations")
            active[i] = False
        if not np.count_nonzero(active):
            break
        mid = 0.5 * (lo + hi)
        converged = hi - lo <= DEFAULT_TOL * (1.0 + mid)  # mid > 0: |mid| is mid
        g = totals(mid, active > converged)  # active and not converged
        stop = active & (converged | (g == 0.0))
        np.copyto(result, mid, where=stop)
        active ^= stop
        up = (g > 0) == positive_at_lo
        np.copyto(lo, mid, where=up)
        np.copyto(hi, mid, where=~up)
    if errors:
        raise errors[min(errors)]
    return result[:, 0]


_GINI21_RANGE = "gini21: a weighted moment sum is beyond the float range"


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
    try:
        den = math.fsum(wi * xi for xi, wi in zip(x, w))
        if den == 0.0:
            return 0.0
        num = math.fsum(wi * xi * xi for xi, wi in zip(x, w))
    except OverflowError:
        raise FloatOverflow(_GINI21_RANGE) from None
    if not math.isfinite(num):  # an infinite term; den is finite only if num is
        raise FloatOverflow(_GINI21_RANGE)
    return num / den


def gini21_rows(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """:func:`gini21_counterexample` on every row of ``(rows, n)`` arrays,
    raising its :class:`FloatOverflow` for a moment sum beyond the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        den = (w * x).sum(axis=1)
        num = (w * x * x).sum(axis=1)
    if not (np.isfinite(den).all() and np.isfinite(num).all()):
        raise FloatOverflow(_GINI21_RANGE)
    return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)


def gini21_prefixes(x, w, first: int) -> list:
    """:func:`gini21_counterexample` on ``x[:k], w[:k]`` for ``k = first+1..n``,
    bit for bit and with the same errors.

    The entries must be nonnegative and ``x[:first+1]`` must not be
    constant (see :func:`kedlaya.means.evaluate_prefixes`).
    """
    out, num, den = [], _RunningFsum(len(x)), _RunningFsum(len(x))
    for k, (xi, wi) in enumerate(zip(x, w)):
        d = wi * xi
        try:  # a short scan overflows at value(), a long one at add()
            den.add(d)
            num.add(d * xi)
            if k < first:
                continue
            s, v = den.value(), num.value()
        except OverflowError:
            raise FloatOverflow(_GINI21_RANGE) from None
        if s == 0.0:  # every term so far is 0, so v is 0 too
            out.append(0.0)
        elif not math.isfinite(v):
            raise FloatOverflow(_GINI21_RANGE)
        else:
            out.append(v / s)
    return out
