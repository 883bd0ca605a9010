"""Deviation-style weighted means.

A deviation function ``E(x, y)`` vanishes on the diagonal, is continuous
and strictly decreasing in ``y``, and satisfies ``sign E(x, t) =
sign(x - t)``.  The weighted mean it induces is the unique root ``y`` of

    sum_i  w_i * E(x_i, y) = 0,

which lies between ``min(x)`` and ``max(x)`` and is found here by
bisection: the deviation axioms guarantee continuity and monotonicity of
the total but nothing smoother, so Newton-type steps are not justified.
The bisection stops when the bracket width drops below
``DEFAULT_TOL * (1 + |y|)`` (``DEFAULT_TOL = 1e-12``, :func:`_stop_width`);
no solver takes a tolerance, and the iteration cap comes from the bracket
(:func:`_max_halvings`), so wide brackets converge too.
Homogeneous deviations ``E(x, y) = f(x / y)`` are the special case
solved by :func:`homogeneous_deviation`; both solvers build their total
and share one root finder (constant shortcut, endpoint checks, bisection).
:func:`shifted_power`, ``(t^p - 1) / p`` for every ``p``, has a certified root
interval ``[a, b]`` per input from a few weighted moments and one bound
(:func:`_certificate`), outside which the root finder takes the total's sign
without summing it, for the same roots and errors bit for bit.  Two kernels,
keyed by ``p``, read it: :func:`homogeneous_deviation_prefixes` (every
prefix; the scalar solve is its last) and :func:`homogeneous_deviation_rows`
(every row, halved in lockstep).

Closed-form special cases (quasi-arithmetic, Gini, power means and a
two-branch ratio-of-moments counterexample mean) are provided alongside
the solver so they can cross-check each other.  Each is declared once as
a :class:`ClosedForm`, a finaliser of weighted sums of entry terms, which
its scalar definition, :func:`closed_form_prefixes` (every prefix of one
input, bit for bit) and the array drivers evaluate.  A form with an error
rule (power, Gini, ``gini21``) takes :func:`closed_form_rows` and
:func:`closed_form_prefix_rows`, its own terms and finaliser on numpy
(within 1e-13 relative by that rule); any other, every quasi-arithmetic
mean, takes the exact :func:`closed_form_exact_prefix_rows`, bit for bit.
An array kernel sees only the rows that pass the gate of :mod:`kedlaya.means`
(domain, weights, zero-weight entries filled) and gives each its value or a
value that is not finite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import count, repeat
from operator import mul
from types import ModuleType
from typing import Callable, Optional

import numpy as np

from . import elementary
from .domain import Interval, NONNEGATIVE, POSITIVE, probe_points
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
    """A deviation function ``E(x, y)`` on a domain.

    Construction samples the callbacks at 32 Chebyshev-spaced points of
    the domain's probing window and rejects specs that visibly violate
    the diagonal-zero, sign, or monotonicity requirements.  Sampling can
    only refute, so a spec passing validation may still fail at runtime;
    the solver reports that as :class:`SolverFailure`.
    """

    E: Callable[[float, float], float]
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

    ``params`` holds the id fields of a built-in generator, labelled by
    its mean's id (``qa:log``, ``qa:pow:2``); it is None for a custom
    generator, which has no id.
    """

    f: Callable[[float], float]
    f_inverse: Callable[[float], float]
    f_prime: Optional[Callable[[float], float]] = None
    f_second: Optional[Callable[[float], float]] = None
    domain: Interval = POSITIVE
    label: str = "custom"
    params: Optional[tuple] = None

    def __post_init__(self):
        # A built-in generator is checked only at the probe points where its
        # value is in the float range: x ** p raises outside it, which for a
        # large |p| is most of the window.  A custom one is checked at all.
        pts, vals = [], []
        for x in probe_points(self.domain, _VALIDATION_SAMPLES):
            try:
                vals.append(self.f(x))
            except OverflowError as exc:
                if self.params is None:
                    raise GeneratorOverflow(
                        f"{self.label}: generator overflows at probe point {x}") from exc
                continue
            pts.append(x)
        if len(vals) < 2:
            raise GeneratorOverflow(
                f"{self.label}: generator values are zero, subnormal or beyond the float "
                f"range at all but {len(vals)} of {_VALIDATION_SAMPLES} probe points")
        increasing = all(b > a for a, b in zip(vals, vals[1:]))
        decreasing = all(b < a for a, b in zip(vals, vals[1:]))
        if not (increasing or decreasing):
            raise InvalidGenerator(f"{self.label}: generator is not strictly monotone")
        for x, v in zip(pts, vals):
            back = self.f_inverse(v)
            if abs(back - x) > 1e-10 * (1.0 + abs(x)):
                raise InvalidGenerator(
                    f"{self.label}: inverse round-trip failed at x={x} (got {back})")

    @cached_property
    def closed_form(self) -> "ClosedForm":
        """The quasi-arithmetic mean ``f_inverse(sum_i w_i f(x_i) / sum_i w_i)``."""
        f, f_inverse = self.f, self.f_inverse
        return ClosedForm(((None, lambda x, w, c, m: (m.mul(w, m.map(f, x)), w)),),
                          lambda total, weight, _, m: m.call(f_inverse, total / weight))


def _fmt(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else str(v)


@lru_cache(maxsize=None)
def log_generator() -> GeneratorSpec:
    """Generator ``log`` and inverse ``exp``, both :mod:`kedlaya.elementary`'s:
    the same bits on every IEEE-754 machine, as scalars and as arrays.  One
    spec, whose 64 probe calls run once a process."""
    return GeneratorSpec(elementary.log, elementary.exp, lambda x: 1.0 / x,
                         lambda x: -1.0 / (x * x), POSITIVE, "qa:log", ("log",))


def power_generator(p: float) -> GeneratorSpec:
    """Generator ``x^p`` on the positive reals; ``p = 0`` means ``log``.

    ``x^p`` raises :class:`GeneratorOverflow`, naming ``x``, where it is
    beyond the float range or below the normal floats: a zero or subnormal
    power has lost its relative accuracy to underflow.
    """
    if p == 0:
        return log_generator()
    label = f"qa:pow:{_fmt(p)}"  # the mean's id

    def f(x):
        try:
            v = x ** p
        except OverflowError as exc:
            raise GeneratorOverflow(f"{label}: generator overflows at entry {x}") from exc
        if v < sys.float_info.min:
            raise GeneratorOverflow(f"{label}: generator underflows at entry {x}")
        return v

    return GeneratorSpec(
        f,
        lambda y: y ** (1.0 / p),
        lambda x: p * x ** (p - 1.0),
        lambda x: p * (p - 1.0) * x ** (p - 2.0),
        POSITIVE,
        label,
        ("pow", float(p)),
    )


# ---------------------------------------------------------------------------
# The root finder
# ---------------------------------------------------------------------------

def _stop_width(y):
    """The bracket width at which a bisection with midpoint ``y`` stops,
    read from :data:`DEFAULT_TOL` at call time; scalars or arrays.
    :func:`_solve` writes the same expression out in its loop."""
    return DEFAULT_TOL * (1.0 + abs(y))


def _max_halvings(lo, hi, floor):
    """Halvings that take the width of ``[lo, hi]`` down to
    ``_stop_width(floor)``, plus :data:`_BISECT_SLACK`; ``floor`` is a lower
    bound of ``|y|`` on the bracket, so the stop rule has been met by then.

    Scalars or arrays: the count is read off binary exponents
    (``hi - lo < 2^(e + 1)`` when ``(hi - lo) / 2 < 2^e``, which does not
    overflow), by :func:`math.frexp` or :func:`numpy.frexp`, so the scalar
    and the lockstep bisection get the same one.
    """
    frexp, maximum = (np.frexp, np.maximum) if isinstance(lo, np.ndarray) else (math.frexp, max)
    _, e_half_width = frexp(0.5 * hi - 0.5 * lo)
    _, e_target = frexp(_stop_width(floor))
    return maximum(e_half_width - e_target + 2, 0) + _BISECT_SLACK


def _check_entries(x, w, domain: Interval, label: str) -> None:
    """Raise unless ``x`` and ``w`` have the same, nonzero length and every
    entry lies in ``domain``."""
    if len(x) != len(w):
        raise LengthMismatch(f"{len(x)} entries vs {len(w)} weights")
    if not x:
        raise LengthMismatch("empty input")
    contains = domain.contains
    for xi in x:
        if not contains(xi):
            raise DomainViolation(f"entry {xi} outside domain of {label}")


def _solve(g: Callable[[float], float], x, label: str, a: float = -math.inf,
           b: float = math.inf) -> float:
    """Root of the total ``g``, decreasing in ``y``, on ``[min x, max x]``.

    The sign of the total is taken as ``+`` below ``a`` and ``-`` above
    ``b``, where a caller has certified it, and from ``g`` everywhere else.
    A total that is not ``>= 0`` at the left endpoint and ``<= 0`` at the
    right one (NaN is neither) has no root there; that raises
    :class:`SolverFailure`.  A root at neither endpoint is bisected to the
    first midpoint that meets the stop width or whose total is 0, with
    :class:`SolverFailure` at a NaN total and :class:`MaxIterations` once
    the cap is spent.
    """
    lo, hi = min(x), max(x)
    if lo == hi:
        return float(lo)
    g_lo = 1.0 if lo < a else -1.0 if lo > b else g(lo)
    g_hi = 1.0 if hi < a else -1.0 if hi > b else g(hi)
    if not g_lo >= 0.0 >= g_hi:
        raise SolverFailure(
            f"{label}: no sign change on [{lo}, {hi}] "
            f"(g(lo)={g_lo}, g(hi)={g_hi}); deviation is invalid")
    if g_lo == 0.0:
        return float(lo)
    if g_hi == 0.0:
        return float(hi)
    cap = _max_halvings(lo, hi, 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi)))
    tol = DEFAULT_TOL  # the width of _stop_width, without a call per halving
    for _ in range(cap):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * (1.0 + abs(mid)):
            return mid
        v = 1.0 if mid < a else -1.0 if mid > b else g(mid)
        if v > 0.0:
            lo = mid
        elif v < 0.0:
            hi = mid
        elif v == 0.0:
            return mid
        else:
            raise SolverFailure(f"{label}: the total at y={mid} is NaN")
    raise MaxIterations(f"{label}: bisection did not converge in {cap} iterations")


def solve_deviation_mean(spec: DeviationSpec, x, w) -> float:
    """Root of ``sum_i w_i E(x_i, y) = 0`` over ``y in [min x, max x]``.

    Since each ``E(x_i, .)`` is strictly decreasing, the total is too, so
    the root is unique and bisection always converges.  A total without a
    sign change means the spec is not a valid deviation
    (:class:`SolverFailure`).
    """
    _check_entries(x, w, spec.domain, spec.label)
    return _solve(lambda y: math.fsum(wi * spec.E(xi, y) for xi, wi in zip(x, w)),
                  x, spec.label)


# ---------------------------------------------------------------------------
# Exact running sums
# ---------------------------------------------------------------------------

# Scans of up to this many terms take one C ``fsum`` per prefix, O(n^2) in all;
# longer ones take exact_prefix_sums.  The two cost the same at about n = 50-60
# (one-row scans: 30.8 against 36.8 us at n = 48, 51.5 against 37.9 us at n = 64;
# 2-vCPU Xeon).
_FSUM_SCAN_MAX = 64


# TwoSum passes exact_prefix_sums takes at most (long sweep scans need 10-20).
_MAX_PASSES = 40


def _two_sum_pass(a: np.ndarray) -> np.ndarray:
    """The running sums of ``a`` along axis 0; ``a`` becomes each add's exact
    error (TwoSum).  Many short rows run a column at a time: a cumsum along
    the short axis took 6 times as long at 2048 rows of 8."""
    if a.size <= len(a) ** 2:  # no more rows than terms
        s = np.cumsum(a, axis=0)
    else:
        s = a.copy()
        for k in range(1, len(s)):
            s[k] += s[k - 1]
    b = s[1:] - s[:-1]
    c = s[1:] - b
    np.subtract(s[:-1], c, out=c)
    err = a[1:]  # a view: the errors (s[:-1] - (s[1:] - b)) + (a[1:] - b), in place
    err -= b
    err += c
    a[0] = 0.0
    return s


def exact_prefix_sums(t: np.ndarray) -> np.ndarray:
    """``math.fsum`` of every prefix along the last axis of ``t``, bit for
    bit, or NaN where that is not certain.

    Running sums ``s`` and each add's exact error ``e`` (TwoSum) give
    ``sum(t[:k]) = s_k + sum(e[:k])``; each pass over the errors does the
    same one level down (K-fold summation; Ogita, Rump and Oishi, SIAM J.
    Sci. Comput. 26(6), 2005).  Where no error is left up to ``k``, the
    levels' running sums add up to the prefix exactly: after two passes the
    IEEE add of the two rounds it as ``fsum`` does, after more (up to
    :data:`_MAX_PASSES`) one C ``fsum`` of the levels does.  Nothing past a
    running sum that is not finite or above ``2^1021`` (below it no partial
    of ``fsum`` overflows) is certain, nor a sum of 0, whose sign ``fsum``
    picks.  A block with no error left after two passes and every running
    sum in range returns there, without the per-prefix masks; in a long
    sweep scan or a block with a sum out of range, the masks find the
    prefixes that more passes certify.  The bits are the same on every CPU.
    """
    a = np.array(t.T, dtype=float, order="C")  # prefixes along axis 0
    with np.errstate(invalid="ignore", over="ignore"):  # not finite: not certain
        levels = [_two_sum_pass(a), _two_sum_pass(a)]
        in_range = np.abs(levels[0]) <= 2.0 ** 1021
        r = levels[0] + levels[1]
        if not a.any() and in_range.all():  # every prefix certain
            r[r == 0.0] = np.nan
            return r.T
        ok = np.logical_and.accumulate((a == 0.0) & in_range, axis=0)
        if not ok.all():  # more passes for the prefixes in range
            in_range = np.logical_and.accumulate(in_range, axis=0)
            while len(levels) < _MAX_PASSES and (in_range & (a != 0.0)).any():
                levels.append(_two_sum_pass(a))
            more = np.logical_and.accumulate(a == 0.0, axis=0) & in_range & ~ok
            r[more] = list(map(math.fsum, zip(*(s[more].tolist() for s in levels))))
            ok |= more
    r[~ok | (r == 0.0)] = np.nan
    return r.T


def prefix_fsums(values, start: int = 0) -> list:
    """``[math.fsum(values[:k]) for k = start+1..n]``, bit for bit and raising
    where the first of those sums raises.

    A scan of more than :data:`_FSUM_SCAN_MAX` terms returns the sums of
    :func:`exact_prefix_sums` where it certifies all of them.  Every other
    scan is one C ``fsum`` per prefix, the definition itself.
    """
    if len(values) > _FSUM_SCAN_MAX:
        try:
            sums = exact_prefix_sums(np.array(values, dtype=float))[start:]
            if not np.isnan(sums).any():
                return sums.tolist()
        except (TypeError, ValueError, OverflowError):
            pass
    terms, out = list(values[:start]), []
    for v in values[start:]:
        terms.append(v)
        out.append(math.fsum(terms))
    return out


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def elementwise(f: Callable, v: np.ndarray) -> np.ndarray:
    """``f`` of each element of the float array ``v``, called on Python floats
    through ``map``: the scalar function's bits, whatever numpy's SIMD
    dispatch (AVX-512 ``exp`` moves the last bit of ~4% of values).  For
    :func:`math.log` and :func:`math.exp` those are libm's, which depend on
    the C library's build and, in glibc, on whether the CPU has FMA."""
    return np.fromiter(map(f, v.ravel().tolist()), float, v.size).reshape(v.shape)


def _on_arrays(f: Callable, v: np.ndarray) -> np.ndarray:
    """``f`` of each element of ``v``: ``f.array(v)`` where ``f`` has an array
    form with its bits (:mod:`kedlaya.elementary`), else :func:`elementwise`."""
    array = getattr(f, "array", None)
    return elementwise(f, v) if array is None else array(v)


# The namespaces m of a ClosedForm's terms and finisher (see there): modules,
# whose attributes Python reads as fast as math's, once per prefix on the scalar path.
FLOATS, ARRAYS = ModuleType("FLOATS"), ModuleType("ARRAYS")
_NORMAL = sys.float_info.min  # 2^-1022, the least normal float


def _scaled_power(c: float, r: float, e: float, otherwise: Callable) -> float:
    """``c r^e``, or ``otherwise()`` where ``r`` or ``r^e`` is 0, subnormal or
    infinite: a power that has lost its relative accuracy to underflow."""
    try:
        v = r ** e if _NORMAL <= r < math.inf else 0.0
    except OverflowError:
        v = 0.0
    return c * v if _NORMAL <= v < math.inf else otherwise()


def _scaled_power_rows(c, r, e, otherwise) -> np.ndarray:
    """:func:`_scaled_power` on arrays: NaN where ``r`` or ``r^e`` is 0 or
    subnormal, and a value that is not finite where one is infinite, which
    the drivers hand to the scalar definition too."""
    v = r ** e
    out = c * v
    out[np.minimum(r, v) < _NORMAL] = np.nan
    return out


vars(FLOATS).update(log=math.log, exp=math.exp, call=lambda f, v: f(v),
                    map=lambda f, v: list(map(f, v)), mul=lambda a, b: list(map(mul, a, b)),
                    powers=lambda x, c, r: [(xi / c) ** r for xi in x],
                    logs=lambda x: list(map(math.log, x)), scaled_power=_scaled_power)
vars(ARRAYS).update(log=np.log, exp=np.exp, call=_on_arrays, map=_on_arrays, mul=np.multiply,
                    powers=lambda x, c, r: (x / c) ** r, logs=np.log,
                    scaled_power=_scaled_power_rows)


@dataclass(frozen=True)
class ClosedForm:
    """A closed-form mean as a finaliser of weighted sums.

    ``sums`` holds one ``(scale, terms)`` per group of sums that share a
    scale ``c``: ``max`` or ``min`` of the entries (which keeps scaled
    powers from overflowing), or None for ``c = 1.0``.  ``terms(x, w, c, m)``
    returns one vector of terms per sum of the group, term ``i`` from
    ``x[i]``, ``w[i]`` and ``c`` alone.  ``finish(*sums, *scales, m)`` maps
    the sums and each group's ``c`` to the mean: a finisher that needs
    ``log c`` takes it itself, so that one that needs none, the Gini
    finisher of one scale, makes no call for it.  Both call what is not
    IEEE arithmetic through ``m``: ``m.log``, ``m.exp``, ``m.call(f, v)``,
    ``m.map(f, vector)``, ``m.mul(vector, vector)``, the Gini terms'
    scaled powers ``m.powers(x, c, r)`` of ``(x / c)^r`` and entry logs
    ``m.logs(x)``, and the Gini finisher's ``m.scaled_power(c, r, e,
    otherwise)`` of ``c r^e``.  ``m`` is :data:`FLOATS` on the scalar path (entry
    lists, a float per sum) and :data:`ARRAYS` in the array drivers (float
    arrays, a column of scales in the numpy drivers): numpy's ``log``,
    ``exp`` and powers, and a generator through its array form or
    :func:`elementwise`.  No form the exact driver runs calls ``log`` or
    ``exp``, so its bits do not depend on numpy's SIMD dispatch.

    The scalar definitions take one ``fsum`` per sum and own the
    validation and every error message: the drivers hand them, or leave NaN
    for :mod:`kedlaya.means` to hand them, what they cannot evaluate.

    ``error`` is the rule :func:`closed_form_prefix_rows` routes by:
    ``error(*sums, *scales, k, x)`` bounds, in units of ``2^-53``, the
    relative distance between ``finish`` on its prefix sums (``k`` terms
    each, one scale per row) and the scalar definition on the same
    prefixes, for the ``(rows, n)`` entries ``x``.  A form with a rule takes
    the numpy drivers (:func:`closed_form_rows` and that one); any other the
    exact driver, which runs every group at ``c = 1.0``: it has no scale.
    """

    sums: tuple
    finish: Callable
    error: Optional[Callable] = None


def _fsum(terms: list) -> float:
    """``math.fsum`` of ``terms``, also where only one of its partials
    overflows: a finite sum near the float range can have a partial past it.

    Then the sum is ``2 fsum(t / 2)``, which is ``fsum``'s correct rounding
    wherever halving is exact, that is for every term of magnitude
    ``2^-1021`` or more.  A smaller term may lose its last bit, ``2^-1075``,
    which moves a sum of at least ``2^1023`` only from an exact tie, by an
    ulp.  A sum that overflows raises ``fsum``'s own OverflowError.
    """
    try:
        return math.fsum(terms)
    except OverflowError:
        try:
            total = 2.0 * math.fsum(t / 2.0 for t in terms)
        except OverflowError:
            total = math.inf
        if math.isfinite(total):
            return total
        raise


def _sums(form: ClosedForm, x, w) -> tuple:
    """Every sum of ``form`` on ``x, w`` (one :func:`_fsum` each) and each group's scale."""
    sums, scales = [], []
    for scale, terms in form.sums:
        c = scale(x) if scale else 1.0
        sums += map(_fsum, terms(x, w, c, FLOATS))
        scales.append(c)
    return sums, scales


def _group_prefixes(scale, terms, x, w, first: int) -> tuple:
    """The sums of one group on ``x[:k], w[:k]`` for ``k = first+1..n``, and
    each prefix's scale.  The terms are rebuilt only where the scale changes,
    about ``ln n`` times for random entries; without a scale, ``c`` is 1.0
    throughout."""
    up, n = scale is max, len(x)
    c, k, parts, scales = scale(x[: first + 1]) if scale else 1.0, first, [], []
    for end in range(first + 1, n + 1):
        if end == n or scale and (x[end] > c if up else x[end] < c):  # x[:end+1] has a new scale
            parts.append(list(map(prefix_fsums, terms(x[:end], w[:end], c, FLOATS), repeat(k))))
            scales += [c] * (end - k)
            if end < n:
                c, k = x[end], end
    return [sum(runs, []) for runs in zip(*parts)], scales


def closed_form_prefixes(form: ClosedForm, scalar: Callable, x, w, first: int) -> list:
    """``scalar(x[:k], w[:k])`` for ``k = first+1..n`` in one pass, bit for
    bit and with the same errors, where ``scalar`` is the scalar definition
    of ``form``'s mean.

    Each prefix gets the sums and scales ``scalar`` computes on it, from
    :func:`prefix_fsums`.  A scan that raises an arithmetic or value error,
    or gives a value that is not finite, calls ``scalar`` on every prefix
    instead.  The entries must lie in the domain and ``x[:first+1]`` must
    not be constant (see :func:`kedlaya.means.evaluate_prefixes`).
    """
    try:
        sums, scales = [], []
        for scale, terms in form.sums:
            group, c = _group_prefixes(scale, terms, x, w, first)
            sums += group
            scales.append(c)
        out = list(map(form.finish, *sums, *scales, repeat(FLOATS)))
        if math.isfinite(sum(out)):  # finite means sum to inf only near the float range
            return out
    except (ArithmeticError, ValueError):
        pass
    return [scalar(x[:k], w[:k]) for k in range(first + 1, len(x) + 1)]


def closed_form_rows(form: ClosedForm, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``form``'s mean on every row of ``(rows, n)`` entry and weight arrays
    from numpy row sums of its terms, or a value that is not finite for a
    row it cannot evaluate (see :func:`kedlaya.means._settled`)."""
    sums, scales = [], []
    for scale, terms in form.sums:
        c = getattr(x, scale.__name__)(axis=1, keepdims=True) if scale else 1.0  # x.max
        sums += map(np.add.reduce, terms(x, w, c, ARRAYS), repeat(1))  # row sums
        scales.append(c[:, 0] if scale else 1.0)
    return form.finish(*sums, *scales, ARRAYS)


# A prefix computed by closed_form_prefix_rows may be this far, relative,
# from the scalar definition's value; rows that could be farther go to the
# exact scans.
PREFIX_ROWS_RTOL = 1e-13
_U = 2.0 ** -53  # the unit roundoff
# Terms below this may have lost relative accuracy to underflow: a product
# or power is exact to 2^-1075 absolute, 2^-106 of this.
_TINY = 2.0 ** -969


def closed_form_prefix_rows(form: ClosedForm, x: np.ndarray, w: np.ndarray,
                            last: bool | slice = False) -> np.ndarray:
    """``form``'s mean on every prefix ``x[i, :k]``, ``k = 1..n``, of every row
    of ``(rows, n)`` entry and weight arrays (with ``last`` True, only the
    last column; a slice ``last`` changes nothing), each within
    :data:`PREFIX_ROWS_RTOL` relative of the scalar definition, or a row of
    NaN where that is not certain.

    ``form`` must have an error rule.  Each sum is a numpy ``cumsum`` of its
    terms, scaled by the row's maximum or minimum (one scale per row), and
    the finaliser runs on the columns; a constant prefix is its first entry.
    A row is NaN when

    - an entry is not positive, or a weight not positive, or the entries
      span more than ``2^969``;
    - a term is below ``2^-969`` in magnitude (it may have lost accuracy
      to underflow);
    - a value is not finite; or
    - ``form.error`` exceeds the tolerance at some prefix: near-equal Gini
      parameters, whose finaliser divides by ``p - q``, and long rows.
    """
    k = np.arange(1, x.shape[1] + 1)
    with np.errstate(all="ignore"):  # rows that are not finite are NaN
        lo, hi = x.min(axis=1), x.max(axis=1)
        trusted = (lo > hi * _TINY) & (w > 0.0).all(axis=1)
        sums, scales = [], []
        for scale, terms in form.sums:
            c = getattr(x, scale.__name__)(axis=1, keepdims=True) if scale else 1.0  # x.max
            for t in terms(x, w, c, ARRAYS):
                trusted &= (np.abs(t) >= _TINY).all(axis=1)
                sums.append(np.cumsum(t, axis=1))
            scales.append(c)
        const = np.logical_and.accumulate(x == x[:, :1], axis=1)
        out = np.where(const, x[:, :1], form.finish(*sums, *scales, ARRAYS))
        bound = np.where(const, 0.0, form.error(*sums, *scales, k, x))
        trusted &= np.isfinite(out).all(axis=1) & (bound <= PREFIX_ROWS_RTOL / _U).all(axis=1)
    out[~trusted] = np.nan
    return out[:, -1:] if last is True else out


def closed_form_exact_prefix_rows(form: ClosedForm, x: np.ndarray, w: np.ndarray,
                                  last: bool | slice = False) -> np.ndarray:
    """The scalar definition of ``form``, which has no error rule, on every prefix
    of every row of ``(rows, n)`` arrays (with ``last``, on each whole row, as
    a column; with ``last`` a slice of the rows, on each whole row it
    selects, which fills that row), bit for bit as
    :func:`kedlaya.means.evaluate_prefixes` gives it, on the rows of the
    gate.  One ``terms`` call takes the entries of nonzero weight (the
    others' terms are exact zeros), or the arrays as they are where every
    weight is nonzero, both with :data:`ARRAYS`; each sum is one
    :func:`exact_prefix_sums`, and :func:`_finished` takes each part of the
    rows to the means.  A prefix is NaN where a sum is not certain (a prefix
    of no weight sums to 0), and every prefix that is not constant is NaN if
    ``terms`` raises an arithmetic or value error.
    """
    live = w != 0.0
    flip = np.transpose if np.isfortran(x) else np.asarray  # to memory order and back
    xs, ws, at = flip(x), flip(w), flip(live)
    every = at.all()  # no entry to leave out: the terms take the arrays as they are
    try:
        sums = []
        for _, terms in form.sums:
            for t in terms(xs, ws, 1.0, ARRAYS) if every else terms(xs[at], ws[at], 1.0, ARRAYS):
                if not every:  # the others' terms are exact zeros
                    full = np.zeros(xs.shape)
                    full[at] = t
                    t = full
                sums.append(exact_prefix_sums(flip(t)))
    except (ArithmeticError, ValueError):
        sums = None
    if not isinstance(last, slice):
        return _finished(form, sums, x, live, last)
    out = np.empty(x.shape)
    for rows, whole in ((slice(last.start), False), (last, True)):  # last: one finished column
        part = None if sums is None else [s[rows] for s in sums]
        out[rows] = _finished(form, part, x[rows], live[rows], whole)
    return out


def _finished(form: ClosedForm, sums: Optional[list], x: np.ndarray, live: np.ndarray,
              last: bool) -> np.ndarray:
    """``form.finish`` on the prefix ``sums`` of the rows ``x`` (with ``last``,
    on their last column), or NaN where ``sums`` is None or ``finish`` raises
    an arithmetic or value error; a prefix of equal entries, one of them of
    nonzero weight (``live``), is its first entry."""
    cols = slice(-1 if last else 0, None)
    out = np.full(x[:, cols].shape, np.nan)
    if sums is not None:
        try:
            out = form.finish(*(s[:, cols] for s in sums), *[1.0] * len(form.sums), ARRAYS)
        except (ArithmeticError, ValueError):
            pass
    top, bottom = _ALONG_ROWS if last else _ALONG_PREFIXES
    i, k = np.nonzero((bottom(x) == top(x)) & top(live))
    out[i, k] = x[i, 0]
    return out


def quasi_arithmetic(gen: GeneratorSpec, x, w) -> float:
    """``f_inverse`` of the weighted average of ``f(x_i)``
    (:attr:`GeneratorSpec.closed_form`)."""
    _check_entries(x, w, gen.domain, gen.label)
    if min(x) == max(x):
        return float(x[0])
    form = gen.closed_form
    try:
        sums, scales = _sums(form, x, w)
    except GeneratorOverflow:  # a built-in generator names the entry itself
        raise
    except OverflowError as exc:
        for xi in x:  # the first entry whose generator value overflows, if any
            try:
                gen.f(xi)
            except OverflowError as cause:
                raise GeneratorOverflow(
                    f"{gen.label}: generator overflows at entry {xi}") from cause
        raise GeneratorOverflow(f"{gen.label}: weighted sum of the generator values "
                                f"at {list(x)} overflows") from exc
    try:
        y = form.finish(*sums, *scales, FLOATS)
    except (ValueError, OverflowError) as exc:
        raise InverseOutOfRange(f"{gen.label}: inverse failed at {sums[0] / sums[1]}") from exc
    if not math.isfinite(y):
        raise InverseOutOfRange(f"{gen.label}: inverse returned {y}")
    return y


def _power_sum(r: float) -> tuple:
    """The group of ``sum_i w_i (x_i / c)^r``, scaled so that no power
    exceeds 1: by ``max x`` for ``r > 0`` and by ``min x`` for ``r < 0``.
    At ``r = 0`` every power is 1: the terms are the weights."""
    if r == 0.0:
        return None, lambda x, w, c, m: [w]
    return max if r > 0 else min, lambda x, w, c, m: [m.mul(w, m.powers(x, c, r))]


def _log_spread(x: np.ndarray) -> np.ndarray:
    """The column of ``max_i |log x_i|`` per row."""
    return np.abs(np.log(x)).max(axis=1, keepdims=True)


@lru_cache(maxsize=256, typed=True)
def gini_form(p: float, q: float) -> ClosedForm:
    """The declaration of :func:`gini` at ``(p, q)``.

    Distinct parameters take the power sums ``S_p``, ``S_q`` of
    :func:`_power_sum`, each scaled by its ``c``, to the mean, by one of two
    finishers.  Parameters of one sign (or one of them 0) have one scale
    ``c``, and their mean is ``c (S_p / S_q)^(1/(p - q))``: one power, whose
    error does not grow with ``|log c|``.  Where the quotient or its power is
    0, subnormal or infinite (the scale entry's weight is below about
    ``2^-1022`` of the weight sum, or the entries span more than the float
    range) the scalar finisher takes the log form below and the numpy
    drivers leave NaN for it (:data:`FLOATS`' and :data:`ARRAYS`'
    ``scaled_power``).  Parameters of opposite signs take the log form
    ``exp(((p log c_p + log S_p) - (q log c_q + log S_q)) / (p - q))``:
    their two scales are ``max x`` and ``min x``, whose ratio can overflow.
    Equal ones take ``d_i = w_i (x_i / c)^p`` to
    ``exp(sum_i d_i log x_i / sum_i d_i)``.

    The error rule counts, in units of ``2^-53``: ``k - 1`` for a running
    sum of ``k`` terms of one sign, ``|r| + 6`` for a term ``w (x/c)^r``
    (:data:`ARRAYS`' ``powers`` and ``logs`` within an ulp of :data:`FLOATS`',
    as tested), a few per ``log`` of a value, and the scalar definition's
    own roundings, whose scale ``c`` is the prefix's and whose ``|log c|``
    is at most the row's ``M = max |log x|``.  Distinct parameters divide
    the error of ``log S_p - log S_q`` by ``|p - q|``, which also bounds the
    one-power finisher's; equal ones take the error of ``sum d log x``
    relative to ``M sum d``.  The mean's own ``|log|`` is at most ``M``.
    """
    if p != q:
        d, size = p - q, abs(p) + abs(q)

        def error(sp, sq, cp, cq, k, x):
            spread = _log_spread(x)
            return ((2 * k + 2 * size + 32 + 8 * (np.abs(np.log(sp)) + np.abs(np.log(sq)))
                     + 10 * (np.abs(p * np.log(cp)) + np.abs(q * np.log(cq))) + 6 * size * spread)
                    / abs(d) + 4 * spread + 8)

        def log_form(sp, sq, cp, cq, m):
            return m.exp(((p * m.log(cp) + m.log(sp)) - (q * m.log(cq) + m.log(sq))) / d)

        e = 1.0 / d

        def one_power(sp, sq, cp, cq, m):  # cq is 1.0 where q = 0, cp where p = 0
            return m.scaled_power(cp if p else cq, sp / sq, e,
                                  lambda: log_form(sp, sq, cp, cq, m))

        return ClosedForm((_power_sum(p), _power_sum(q)),
                          log_form if p * q < 0.0 else one_power, error)
    scale, power = _power_sum(p)

    def terms(x, w, c, m):
        d, = power(x, w, c, m)
        return m.mul(d, m.logs(x)), d

    return ClosedForm(((scale, terms),), lambda num, den, _, m: m.exp(num / den),
                      lambda num, den, _, k, x: (2 * k + 4 * abs(p) + 32) * _log_spread(x) + 8)


def gini(p: float, q: float, x, w) -> float:
    """Two-parameter ratio-of-power-sums mean on positive entries (:func:`gini_form`).

    Distinct parameters use the ratio of weighted power sums raised to
    ``1/(p-q)``; equal parameters use the exponential of the weighted
    log-moment ratio.  The branch is chosen by exact parameter equality
    (no smoothing); the function is symmetric in ``(p, q)``.
    """
    _check_entries(x, w, POSITIVE, "gini")
    if min(x) == max(x):
        return float(x[0])
    form = gini_form(p, q)
    sums, scales = _sums(form, x, w)
    try:
        return form.finish(*sums, *scales, FLOATS)
    except OverflowError:  # the log form's exp
        raise FloatOverflow(f"gini:{_fmt(p)}:{_fmt(q)}: the mean of {list(x)} overflows "
                            "the float range") from None


def power_mean(p: float, x, w) -> float:
    """Weighted power mean; equals ``gini(p, 0)``, log-domain at ``p = 0``."""
    return gini(p, 0.0, x, w)


def _gini21_terms(x, w, c, m):
    d = m.mul(w, x)
    return d, m.mul(d, x)


# The terms are IEEE products, the same bits on every namespace, so the error
# rule counts only the two running sums and the division, in units of 2^-53.
GINI21_FORM = ClosedForm(((None, _gini21_terms),), lambda den, num, _, m: num / den,
                         lambda den, num, _, k, x: 2 * k + 8)
_GINI21_RANGE = "gini21: a weighted moment sum is beyond the float range"


def gini21_counterexample(x, w) -> float:
    """Ratio of the weighted second and first moments, 0 when both vanish
    (:data:`GINI21_FORM`).

    Defined on nonnegative entries (unlike :func:`gini`): the two-branch
    formula returns ``sum w x^2 / sum w x`` when the denominator is
    positive and 0 otherwise.  On strictly positive entries it coincides
    with ``gini(2, 1)``; as a weighted mean it is homogeneous, symmetric
    and midpoint-convex, which makes it the canonical counterexample for
    the prefix-mean inequality with inadmissible weights.
    """
    _check_entries(x, w, NONNEGATIVE, "gini21")
    try:
        (den, num), _ = _sums(GINI21_FORM, x, w)
    except OverflowError:
        raise FloatOverflow(_GINI21_RANGE) from None
    if den == 0.0:  # every term is 0, so num is 0 too
        return 0.0
    if not math.isfinite(num):  # an infinite term; den is finite only if num is
        raise FloatOverflow(_GINI21_RANGE)
    return GINI21_FORM.finish(den, num, 1.0, FLOATS)


def _homogeneous_total(f: Callable[[float], float], s: float, x, w) -> Callable:
    """The total ``y -> s * sum_i w_i f(x_i / y)``, summed exactly; a value
    of ``f`` or a sum beyond the float range raises :class:`FloatOverflow`,
    and so does a ratio ``x_i / y`` that underflows to 0 where ``f`` then
    raises (:func:`shifted_power` at ``p <= 0``)."""
    def total(y: float) -> float:
        try:
            return s * math.fsum([wi * f(xi / y) for xi, wi in zip(x, w)])
        except OverflowError as exc:
            raise FloatOverflow(
                f"{_HOMDEV}: the total at y={y} is beyond the float range") from exc
        except (ZeroDivisionError, ValueError) as exc:
            for xi in x:
                if xi / y == 0.0:
                    raise FloatOverflow(
                        f"{_HOMDEV}: the ratio of entry {xi} to y={y} underflows to 0") from exc
            raise

    return total


def _orientation(f: Callable[[float], float]) -> float:
    """The sign that makes ``s * f`` increasing: that of ``f(2)``, or of
    ``-f(1/2)`` where ``f(2)`` is beyond the float range; ``f(1)`` must be 0
    to 1e-12.  The kernels of :func:`shifted_power`, increasing for every
    ``p``, take ``s = 1`` without this call."""
    fe = f(1.0)
    if not abs(fe) <= 1e-12:
        raise InvalidGenerator(f"f(1) = {fe}, expected 0")
    try:
        return -1.0 if f(2.0) < 0 else 1.0
    except OverflowError:
        return -1.0 if f(0.5) > 0 else 1.0


def homogeneous_deviation(f: Callable[[float], float], x, w) -> float:
    """Root of ``sum_i w_i f(x_i / y) = 0`` on positive entries.

    ``f`` must vanish at 1 (checked to 1e-12) and may be decreasing, which
    negates the total (:func:`_orientation`; exact) so that it decreases in
    ``y``.  A NaN total raises :class:`SolverFailure`.  Every sign test sums
    the total; :func:`homogeneous_deviation_prefixes` certifies :func:`shifted_power`.
    """
    s = _orientation(f)
    _check_entries(x, w, POSITIVE, _HOMDEV)
    return _solve(_homogeneous_total(f, s, x, w), x, _HOMDEV)


def shifted_power(p: float) -> Callable[[float], float]:
    """``t -> (t^p - 1) / p``, increasing in ``t`` for every ``p`` and 0 at 1:
    ``L expm1(pL) / (pL)`` with ``L = log t``, and ``L`` where ``pL`` is 0 (at
    ``p = 0``, the log, and subnormal ``p``), so nothing cancels as ``p -> 0``.
    At ``t = 0`` or ``inf`` it is ``-1/p`` where ``t^p`` tends to 0, ``inf``
    where it grows, and 0 to a power ``<= 0`` raises ValueError (as does a
    ``p`` that is not finite)."""
    if not math.isfinite(p):
        raise ValueError(f"shifted_power: p = {p} is not finite")

    def f(t):
        lt = math.log(t) if t else -math.inf
        z = p * lt
        if -math.inf < z < math.inf:
            return lt * (math.expm1(z) / z) if z else lt
        return -1.0 / p if z < 0.0 else math.log(t)  # inf at t = inf

    return f


def homogeneous_deviation_prefixes(p: float, x, w, first: int) -> list:
    """``homogeneous_deviation(shifted_power(p), x[:k], w[:k])`` for
    ``k = first+1..n``, bit for bit and raising what the first failing prefix
    raises, for positive entries and weights; ``first = n - 1`` is the scalar
    solve of ``homdev:shifted-power:p``.  One pass of running moments gives
    every prefix its :func:`_certificate`, or none for an entry or weight
    beyond the float range, whose totals raise :class:`FloatOverflow`."""
    f = shifted_power(p)
    try:
        xa, wa = np.array([x], dtype=float), np.array([w], dtype=float)
        a, b = (v[0].tolist() for v in _certificate(p, xa, wa))
    except OverflowError:
        a, b = [-math.inf] * len(x), [math.inf] * len(x)
    return [_solve(_homogeneous_total(f, 1.0, x[:k], w[:k]), x[:k], _HOMDEV, a[k - 1], b[k - 1])
            for k in range(first + 1, len(x) + 1)]


# ---------------------------------------------------------------------------
# The certificate and the lockstep bisection
# ---------------------------------------------------------------------------

# Ulps the certificate allows each log, expm1, log1p and exp, numpy's or libm's (all
# within 0.8 ulp of mpmath, with or without SIMD); its width grows about as this allowance.
_SIGN_SLACK = 8
_EPS = 2.0 ** -52
_RANGE = 2.0 ** 900  # weight sums and spreads the certificate covers
# Maxima and minima along each row: reductions, as columns, or running values
_ALONG_ROWS = tuple(partial(u.reduce, axis=1, keepdims=True) for u in (np.maximum, np.minimum))
_ALONG_PREFIXES = tuple(partial(u.accumulate, axis=1) for u in (np.maximum, np.minimum))


def _certificate(p: float, x: np.ndarray, w: np.ndarray, spread=None) -> tuple:
    """The certified root interval of :func:`shifted_power` at ``p`` for
    ``(rows, n)`` positive entries and nonnegative weights, as the gate of
    :mod:`kedlaya.means` gives them: columns ``a <= b`` off which the scalar
    total on a row's entries of nonzero weight has a certain sign in their
    bracket, or ``(-inf, inf)`` for a row not covered.  Given ``spread``
    (``max x / min x``), each row's, from row sums as products with ones
    (numpy reduces short rows several times slower); else, column ``k - 1``
    for the prefix of ``k`` entries, from running sums."""
    with np.errstate(all="ignore"):  # a moment that is not finite is not covered
        if spread is None:
            top, bottom = _ALONG_PREFIXES
            k, spread = np.arange(1.0, x.shape[1] + 1.0), top(x) / bottom(x)
            total = partial(np.add.accumulate, axis=1)
        else:
            ones = np.ones((x.shape[1], 1))
            k, total = x.shape[1], lambda t: t @ ones  # k bounds the terms of a sum
        c = x[:, :1]  # every prefix's first entry, a scale: no moment depends on x's
        lx = np.log(x / c)
        z = p * lx
        fx = np.expm1(z)
        fx /= z
        fx *= lx
        np.copyto(fx, lx, where=z == 0.0)  # f = L where pL is 0, as in shifted_power
        fx *= w
        h = np.exp(z, out=z)  # the terms of H, in z's column
        h *= np.abs(lx, out=lx)
        h *= w
        moments = total(w), total(fx), total(np.abs(fx, out=fx)), total(h)
        del lx, z, fx, h  # freed before the bound's columns are made
        return _roots(p, k, *moments, spread, c)


def _roots(p: float, k, big_b, big_f, big_m, big_h, spread, c) -> tuple:
    """The certificate of :func:`shifted_power`, ``f(t) = (t^p - 1) / p``, at
    every ``p``, from moment columns of at most ``k`` terms on ``s = x / c``:
    ``B = sum w``, ``F = sum w f(s)``, ``M = sum w |f(s)|``, ``H = sum w |log
    s| s^p``, and ``R = max x / min x``.  Starred moments are exact, on the
    exact ``s``; ``(y*/c)^p = A*/B*`` at the root, ``A* = sum w s^p = B* + p F*``.

    **A term.**  With ``u = 2^-53``, ``u' = 2u`` and ``kappa = _SIGN_SLACK``,
    the scalar total ``fsum(w_i f(fl(x_i / y)))`` rounds correctly, so it has
    the sign of the sum ``S`` of its terms.  At ``t = x_i / y``, ``L = log
    t``: the log's ``kappa u'`` moves ``f`` by ``kappa u' |L| t^p`` (``df/dL =
    t^p``); rounding ``pL`` moves ``L expm1(pL) / (pL)`` by ``u |L t^p - f|``;
    ``expm1``, the quotient and the products by ``L`` and ``w_i`` add ``(kappa
    + 2) u' |f|``; rounding ``t`` adds ``u t^p``.  ``expm1(z) = z`` where
    ``pL`` is subnormal, and 0 leaves ``f = L``.  With ``u'`` to spare for
    second-order terms and underflow (``2^-1075`` a product, far below ``u'
    B``), a term is within ``w_i ((kappa + 1) u' |L| t^p + (kappa + 3) u'
    |f(t)| + u' t^p)``.  The moments take the same steps on ``x_i``, and each
    term passes at most ``k - 1`` adds in any order (running or pairwise).

    **The root.**  ``log y* = g(mu*) = log1p(p mu*) / p``, ``mu* = F*/B*``,
    with slope ``1 / (1 + p mu)``; ``r = exp(mu log1p(z) / z)`` from ``mu =
    fl(F/B)`` and ``z = fl(p mu) = p mu~`` (factor 1 at ``z = 0``).  So
    ``|mu~ - mu*| <= e = ((kappa + 1) H + (2k + kappa + 4) M) u' / B``, and
    ``|log(r / y*)| <= rho = e / (1 + z - |p| e) + ((kappa + 2) |log(r / c)| +
    kappa + 1) u'``: ``log1p``, the quotient and the product by ``mu``, then
    ``exp`` and the product by ``c``.  Rounding ``s`` moves each ``f(s)`` by
    ``u s^p``, which ``e`` covers with ``u' |1 + z|`` more.

    **The total.**  ``f(ab) = f(a) + a^p f(b)``, so with ``sigma = log(y*/y)``
    and ``phi = |f(e^sigma)|`` the exact total is ``T = F* + A* f(c/y)``, of
    size ``B* phi``.  By the term bound, with ``|L| <= |log s_i| + |log(c/y)|``
    and, in the bracket, ``|L| <= log R``,

        |S - T| / B* <= e^(p sigma) (C1 + (kappa + 1) u' |sigma|) + (kappa + 3) u' phi + C2,
        C1 = (kappa + 1) u' min(H*/A* + |log(y*/c)|, log R) + u',
        C2 = (kappa + 3) u' min((M* + |F*|) / B*, 2 / |p|).

    As ``e^(p sigma) <= 1 + |p| phi`` and ``e^(p sigma) |sigma| <= phi (1 +
    |p| log R)``, the sign is certain where ``phi > delta = (C1 + C2) / W``,
    ``W = 1 - (2 kappa + 4) u' - (kappa + 1) u' |p| log R - |p| C1``, so where
    ``|sigma| > delta / (1 - |p| delta)``.  ``H*/A* <= H / (B (1 + z - |p|
    e))``, ``|F*| <= |F| + e B``, and ``W`` gives up ``(2k + 2 kappa + 8) u'``
    for the relative rounding of ``B``, ``M`` and ``H``.  So with ``lam =
    delta / (1 - |p| delta) + rho`` and ``l = lam + 8 u' <= 1``, the sign is
    certain off ``a = r (1 - l)`` and ``b = r (1 + l (1 + l))`` (``e^-l >= 1
    - l``, ``e^l <= 1 + l + l^2``; ``8 u'`` for rounding ``lam``, ``a`` and
    ``b``).  Neither bound grows as ``1/|p|``.

    A row is certified only where ``R``, ``R^|p|``, ``B`` and ``B R^|p|`` are
    in ``[2^-900, 2^900]``, which keeps every ``t`` normal, ``|pL|`` below
    624 and every term and partial sum below ``2^911``, and where ``1 + z -
    |p| e``, ``W`` and ``1 - |p| delta`` are positive and ``l <= 1``; a
    denominator that is not positive, or a moment that is not finite, leaves
    ``lam`` infinite or NaN.
    """
    q = abs(p)
    log_r = np.log(spread)
    mu = big_f / big_b
    z = p * mu
    log_y = np.log1p(z) / z
    np.copyto(log_y, 1.0, where=z == 0.0)  # the factor at z = 0
    log_y *= mu  # log(r / c)
    size, ratio = np.abs(log_y), 1.0 + z  # |log(r / c)| and A / B
    e = ((big_h * (_SIGN_SLACK + 1) + (k * 2 + (_SIGN_SLACK + 4)) * big_m) * (_EPS / big_b)
         + np.abs(ratio) * _EPS)
    room = ratio - q * e
    rho = e / np.maximum(room, 0.0) + (size * (_SIGN_SLACK + 2) + (_SIGN_SLACK + 1)) * _EPS
    c1 = (np.minimum(big_h / (big_b * room) + size + rho, log_r) * ((_SIGN_SLACK + 1) * _EPS)
          + _EPS)
    c2 = (np.minimum((big_m + np.abs(big_f)) / big_b + e, np.float64(2.0) / q)
          * ((_SIGN_SLACK + 3) * _EPS))
    width = 1.0 - ((k * 2 + (4 * _SIGN_SLACK + 12)) * _EPS
                   + log_r * ((_SIGN_SLACK + 1) * q * _EPS) + q * c1)
    delta = (c1 + c2) / np.maximum(width, 0.0)
    lam = delta / np.maximum(1.0 - q * delta, 0.0) + rho + 8 * _EPS
    grown = spread ** q  # at least 1, so B R^|p| <= 2^900 bounds B too
    ok = (lam <= 1.0) & (np.maximum(np.maximum(spread, grown),
                                    np.maximum(big_b * grown, 1.0 / big_b)) <= _RANGE)
    r = c * np.exp(log_y)
    return (np.where(ok, r * (1.0 - lam), -np.inf),
            np.where(ok, r * (1.0 + lam * (1.0 + lam)), np.inf))


def homogeneous_deviation_rows(p: float, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``homogeneous_deviation(shifted_power(p), ...)`` on the entries of
    nonzero weight of every row of ``(rows, n)`` arrays, bit for bit, or NaN
    for a row it does not finish, which :func:`kedlaya.means.evaluate_rows`
    hands to the scalar solve.

    The rows are those of the gate, :func:`kedlaya.means._settled`.  Its
    :func:`_certificate` gives each row, once, columns ``a <= b`` with the
    total certainly positive below ``a`` and negative above ``b``.  A
    constant row is its entry.  The other rows halve in lockstep on the
    scalar solver's brackets, midpoints, caps and stop rule: a midpoint
    outside ``[a, b]`` takes the certain sign, summing nothing, and one
    inside the sign of the row's scalar total (built once), 0 being the
    root.  Every other row is NaN: an endpoint inside ``[a, b]``, a row the
    certificate does not cover, a row out of halvings, or a row whose total
    is NaN or raises an arithmetic or value error.  Per-row arrays are columns.
    """
    f = shifted_power(p)
    m = np.flatnonzero(w.any(axis=0))[-1] + 1  # past the last column of nonzero weight
    x, w = x[:, :m], w[:, :m]
    lo, hi = x.min(axis=1, keepdims=True), x.max(axis=1, keepdims=True)
    a, b = _certificate(p, x, w, hi / lo)
    result = np.where(lo == hi, lo, np.nan)
    active = (lo < a) & (b < hi)  # certified: the total is positive at lo, negative at hi
    caps = _max_halvings(lo, hi, lo)  # lo > 0 bounds |y| below
    first_cap = caps.min()
    row_total = lru_cache(None)(lambda i: _homogeneous_total(f, 1.0, x[i].tolist(), w[i].tolist()))
    for it in count():
        if it >= first_cap:
            active &= caps > it  # rows out of halvings stay NaN
        if not np.count_nonzero(active):
            break
        mid = 0.5 * (lo + hi)
        stop = active & (hi - lo <= _stop_width(mid))
        np.copyto(result, mid, where=stop)
        active ^= stop
        up = mid < a
        inside = np.flatnonzero(active & (mid >= a) & (mid <= b))
        for i, y in zip(inside.tolist(), mid[inside, 0].tolist()):
            try:  # a term of weight 0 adds 0, or a NaN that leaves the row NaN
                v = row_total(i)(y)
            except (ArithmeticError, ValueError):
                v = math.nan
            if v > 0.0:
                up[i] = True
            elif not v < 0.0:  # the root, or a row that stays NaN
                active[i] = False
                result[i] = y if v == 0.0 else math.nan
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return result[:, 0]
