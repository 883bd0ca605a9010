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
An ``f`` with a certificate, such as :func:`shifted_power` with
:func:`shifted_power_rows`, has a certified root interval ``[a, b]`` per
input, from a few weighted moments, outside which the root finder takes
the total's sign without summing it, for the same roots and errors bit for
bit: in the scalar solver, in :func:`homogeneous_deviation_prefixes` (every
prefix) and in :func:`homogeneous_deviation_rows` (every row, halved in
lockstep; a zero weight marks an absent entry).

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
An array kernel leaves NaN where it does not settle a row, and tests no
domain: :mod:`kedlaya.means` hands it only rows inside it.
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

    ``params`` holds the wire values of a built-in generator, labelled by
    its mean's id (``qa:log``, ``qa:pow:2``); it is None for a custom
    generator, which has no wire format.
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
    :func:`_halve` writes the same expression out in its loop."""
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
    right one has no root there; that raises :class:`SolverFailure`.  A
    root at neither endpoint is left to :func:`_halve`.
    """
    lo, hi = min(x), max(x)
    if lo == hi:
        return float(lo)
    g_lo = 1.0 if lo < a else -1.0 if lo > b else g(lo)
    g_hi = 1.0 if hi < a else -1.0 if hi > b else g(hi)
    if g_lo < 0.0 or g_hi > 0.0:
        raise SolverFailure(
            f"{label}: no sign change on [{lo}, {hi}] "
            f"(g(lo)={g_lo}, g(hi)={g_hi}); deviation is invalid")
    if g_lo == 0.0:
        return float(lo)
    if g_hi == 0.0:
        return float(hi)
    floor = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
    return _halve(g, lo, hi, 0, _max_halvings(lo, hi, floor), a, b, label, g_lo > 0)


def _halve(g: Callable[[float], float], lo: float, hi: float, done: int, cap: int,
           a: float, b: float, label: str, positive_at_lo: bool) -> float:
    """The bisection of :func:`_solve` on ``[lo, hi]`` after ``done`` of its
    ``cap`` halvings, signs as there: the first midpoint that meets the stop
    width or whose total is exactly 0, or :class:`MaxIterations` once the
    cap is spent.  The one halving loop that reads a total, which the
    lockstep bisection enters at a row's first midpoint inside ``[a, b]``.
    """
    tol = DEFAULT_TOL  # the width of _stop_width, without a call per halving
    for _ in range(done, cap):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * (1.0 + abs(mid)):
            return mid
        v = 1.0 if mid < a else -1.0 if mid > b else g(mid)
        if v == 0.0:
            return mid
        if (v > 0) == positive_at_lo:
            lo = mid
        else:
            hi = mid
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
    a[1:], a[0] = (s[:-1] - (s[1:] - b)) + (a[1:] - b), 0.0
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
    picks.  The bits are the same on every CPU.
    """
    a = np.array(t.T, dtype=float, order="C")  # prefixes along axis 0
    with np.errstate(invalid="ignore", over="ignore"):  # not finite: not certain
        levels = [_two_sum_pass(a), _two_sum_pass(a)]
        in_range = np.abs(levels[0]) <= 2.0 ** 1021
        ok = np.logical_and.accumulate((a == 0.0) & in_range, axis=0)
        r = levels[0] + levels[1]
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
FLOATS, ARRAYS, NUMPY = ModuleType("FLOATS"), ModuleType("ARRAYS"), ModuleType("NUMPY")
vars(FLOATS).update(log=math.log, exp=math.exp, call=lambda f, v: f(v),
                    map=lambda f, v: list(map(f, v)), mul=lambda a, b: list(map(mul, a, b)),
                    powers=lambda x, c, r: [(xi / c) ** r for xi in x],
                    logs=lambda x: list(map(math.log, x)))
vars(ARRAYS).update(log=partial(elementwise, math.log), exp=partial(elementwise, math.exp),
                    call=_on_arrays, map=_on_arrays, mul=np.multiply)
vars(NUMPY).update(log=np.log, exp=np.exp, mul=np.multiply,
                   powers=lambda x, c, r: (x / c) ** r, logs=np.log)


@dataclass(frozen=True)
class ClosedForm:
    """A closed-form mean as a finaliser of weighted sums.

    ``sums`` holds one ``(scale, terms)`` per group of sums that share a
    scale ``c``: ``max`` or ``min`` of the entries (which keeps scaled
    powers from overflowing), or None for ``c = 1.0``.  ``terms(x, w, c, m)``
    returns one vector of terms per sum of the group, term ``i`` from
    ``x[i]``, ``w[i]`` and ``c`` alone.  ``finish(*sums, *logs, m)`` maps
    the sums and each group's ``log c`` to the mean.  Both call what is not
    IEEE arithmetic through ``m``: ``m.log``, ``m.exp``, ``m.call(f, v)``,
    ``m.map(f, vector)``, ``m.mul(vector, vector)`` and the Gini terms'
    scaled powers ``m.powers(x, c, r)`` of ``(x / c)^r`` and entry logs
    ``m.logs(x)``.  ``m`` is :data:`FLOATS` on the scalar path (entry
    lists, a float per sum), :data:`NUMPY` in the numpy drivers (``(rows,
    n)`` arrays, a column of scales) and :data:`ARRAYS` in the exact driver
    (float arrays; libm, and a generator without an array form, through
    :func:`elementwise`).

    The scalar definitions take one ``fsum`` per sum and own the
    validation and every error message: the drivers hand them, or leave NaN
    for :mod:`kedlaya.means` to hand them, what they cannot evaluate.

    ``error`` is the rule :func:`closed_form_prefix_rows` routes by:
    ``error(*sums, *logs, k, x)`` bounds, in units of ``2^-53``, the
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
    """Every sum of ``form`` on ``x, w`` (one :func:`_fsum` each) and each ``log c``."""
    sums, logs = [], []
    for scale, terms in form.sums:
        c = scale(x) if scale else 1.0
        sums += map(_fsum, terms(x, w, c, FLOATS))
        logs.append(math.log(c) if scale else 0.0)
    return sums, logs


def _group_prefixes(scale, terms, x, w, first: int) -> tuple:
    """The sums of one group on ``x[:k], w[:k]`` for ``k = first+1..n``, and
    each prefix's ``log c``.  The terms are rebuilt only where the scale
    changes, about ``ln n`` times for random entries; without a scale, ``c``
    is 1.0 throughout."""
    up, n = scale is max, len(x)
    c, k, parts, logs = scale(x[: first + 1]) if scale else 1.0, first, [], []
    for end in range(first + 1, n + 1):
        if end == n or scale and (x[end] > c if up else x[end] < c):  # x[:end+1] has a new scale
            parts.append(list(map(prefix_fsums, terms(x[:end], w[:end], c, FLOATS), repeat(k))))
            logs += [math.log(c)] * (end - k)
            if end < n:
                c, k = x[end], end
    return [sum(runs, []) for runs in zip(*parts)], logs


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
        sums, logs = [], []
        for scale, terms in form.sums:
            group, log_c = _group_prefixes(scale, terms, x, w, first)
            sums += group
            logs.append(log_c)
        out = list(map(form.finish, *sums, *logs, repeat(FLOATS)))
        if math.isfinite(sum(out)):  # finite means sum to inf only near the float range
            return out
    except (ArithmeticError, ValueError):
        pass
    return [scalar(x[:k], w[:k]) for k in range(first + 1, len(x) + 1)]


def _live_masked(x: np.ndarray, live: np.ndarray) -> tuple:
    """``x`` for the minimum and for the maximum along rows of the ``live``
    entries (of nonzero weight, the ones :func:`kedlaya.means.evaluate`
    keeps): ``x`` itself where every entry is live, as in concavity chunks,
    else copies with the other entries at ``+inf`` and at ``-inf``."""
    if live.all():
        return x, x
    return np.where(live, x, np.inf), np.where(live, x, -np.inf)


def closed_form_rows(form: ClosedForm, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``form``'s mean on every row of ``(rows, n)`` entry and weight arrays
    from numpy row sums of its terms, or a value that is not finite for a
    row it cannot evaluate (see :func:`kedlaya.means.evaluate_rows`).  The
    scale is the maximum or minimum of the row's entries of nonzero weight,
    as in the scalar definition."""
    x_lo, x_hi = _live_masked(x, w != 0.0)
    sums, logs = [], []
    for scale, terms in form.sums:
        c = {max: x_hi.max, min: x_lo.min}[scale](axis=1, keepdims=True) if scale else 1.0
        sums += map(np.add.reduce, terms(x, w, c, NUMPY), repeat(1))  # row sums
        logs.append(np.log(c[:, 0]) if scale else 0.0)
    return form.finish(*sums, *logs, NUMPY)


# A prefix computed by closed_form_prefix_rows may be this far, relative,
# from the scalar definition's value; rows that could be farther go to the
# exact scans.
PREFIX_ROWS_RTOL = 1e-13
_U = 2.0 ** -53  # the unit roundoff
# Terms below this may have lost relative accuracy to underflow: a product
# or power is exact to 2^-1075 absolute, 2^-106 of this.
_TINY = 2.0 ** -969


def closed_form_prefix_rows(form: ClosedForm, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``form``'s mean on every prefix ``x[i, :k]``, ``k = 1..n``, of every row
    of ``(rows, n)`` entry and weight arrays, each within
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
        sums, logs = [], []
        for scale, terms in form.sums:
            c = getattr(x, scale.__name__)(axis=1, keepdims=True) if scale else 1.0  # x.max
            for t in terms(x, w, c, NUMPY):
                trusted &= (np.abs(t) >= _TINY).all(axis=1)
                sums.append(np.cumsum(t, axis=1))
            logs.append(np.log(c) if scale else 0.0)
        const = np.logical_and.accumulate(x == x[:, :1], axis=1)
        out = np.where(const, x[:, :1], form.finish(*sums, *logs, NUMPY))
        bound = np.where(const, 0.0, form.error(*sums, *logs, k, x))
        trusted &= np.isfinite(out).all(axis=1) & (bound <= PREFIX_ROWS_RTOL / _U).all(axis=1)
    out[~trusted] = np.nan
    return out


def closed_form_exact_prefix_rows(form: ClosedForm, x: np.ndarray, w: np.ndarray,
                                  last: bool = False) -> np.ndarray:
    """The scalar definition of ``form``, which has no error rule, on every prefix
    of every row of ``(rows, n)`` arrays (with ``last``, on each whole row, as
    a column), bit for bit as :func:`kedlaya.means.evaluate_prefixes` gives
    it, for entries in the domain.  One ``terms`` call takes the entries of
    nonzero weight (the others' terms are exact zeros) and one ``finish``
    call every prefix's sums, both with :data:`ARRAYS`.  A prefix whose live
    entries are all equal (their running minimum is their running maximum)
    is the first of them; the others take :func:`exact_prefix_sums` per
    sum.  A row is NaN where a weight is negative, a sum is not certain (a
    prefix of no weight sums to 0) or a value is not finite, and every row
    that is not constant is NaN if ``terms`` or ``finish`` raises an
    arithmetic or value error.
    """
    live = w != 0.0
    cols = slice(-1 if last else 0, None)
    flip = np.transpose if np.isfortran(x) else np.asarray  # to memory order and back
    xs, ws, at = flip(x), flip(w), flip(live)
    try:
        sums = []
        for _, terms in form.sums:
            for t in terms(xs[at], ws[at], 1.0, ARRAYS):
                full = np.zeros(xs.shape)
                full[at] = t
                sums.append(exact_prefix_sums(flip(full))[:, cols])
        out = form.finish(*sums, *[0.0] * len(form.sums), ARRAYS)
    except (ArithmeticError, ValueError):
        out = np.full(x[:, cols].shape, np.nan)
    _, top, bottom = _ALONG_ROWS if last else _ALONG_PREFIXES
    x_lo, x_hi = _live_masked(x, live)
    i, k = np.nonzero(bottom(x_lo) == top(x_hi))
    out[i, k] = x[i, live[i].argmax(axis=1)]  # a constant prefix is its first live entry
    out[~np.isfinite(out).all(axis=1) | (w < 0.0).any(axis=1)] = np.nan
    return out


def quasi_arithmetic(gen: GeneratorSpec, x, w) -> float:
    """``f_inverse`` of the weighted average of ``f(x_i)``
    (:attr:`GeneratorSpec.closed_form`)."""
    _check_entries(x, w, gen.domain, gen.label)
    if min(x) == max(x):
        return float(x[0])
    form = gen.closed_form
    try:
        sums, logs = _sums(form, x, w)
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
        y = form.finish(*sums, *logs, FLOATS)
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
    :func:`_power_sum` to ``exp((log S_p - log S_q) / (p - q))``, with
    ``log S_r = r log c + log sum_i w_i (x_i / c)^r``.  Equal ones take
    ``d_i = w_i (x_i / c)^p`` to ``exp(sum_i d_i log x_i / sum_i d_i)``.

    The error rule counts, in units of ``2^-53``: ``k - 1`` for a running
    sum of ``k`` terms of one sign, ``|r| + 6`` for a term ``w (x/c)^r``
    (:data:`NUMPY`'s ``powers`` and ``logs`` within an ulp of :data:`FLOATS`',
    as tested), a few per ``log`` of a value, and the scalar definition's
    own roundings, whose scale ``c`` is the prefix's and whose ``|log c|``
    is at most the row's ``M = max |log x|``.  Distinct parameters divide
    the error of ``log S_p - log S_q`` by ``|p - q|``; equal ones take the
    error of ``sum d log x`` relative to ``M sum d``.  The mean's own
    ``|log|`` is at most ``M``.
    """
    if p != q:
        d, size = p - q, abs(p) + abs(q)

        def error(sp, sq, lp, lq, k, x):
            spread = _log_spread(x)
            return ((2 * k + 2 * size + 32 + 8 * (np.abs(np.log(sp)) + np.abs(np.log(sq)))
                     + 10 * (np.abs(p * lp) + np.abs(q * lq)) + 6 * size * spread) / abs(d)
                    + 4 * spread + 8)

        return ClosedForm((_power_sum(p), _power_sum(q)), lambda sp, sq, lp, lq, m: m.exp(
            ((p * lp + m.log(sp)) - (q * lq + m.log(sq))) / d), error)
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
    sums, logs = _sums(form, x, w)
    return form.finish(*sums, *logs, FLOATS)


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
    return GINI21_FORM.finish(den, num, 0.0, FLOATS)


def _homogeneous_total(f: Callable[[float], float], s: float, x, w) -> Callable:
    """The total ``y -> s * sum_i w_i f(x_i / y)``, summed exactly; a value
    of ``f`` or a sum beyond the float range raises :class:`FloatOverflow`."""
    def total(y: float) -> float:
        try:
            return s * math.fsum(wi * f(xi / y) for xi, wi in zip(x, w))
        except OverflowError as exc:
            raise FloatOverflow(
                f"{_HOMDEV}: the total at y={y} is beyond the float range") from exc

    return total


def _orientation(f: Callable[[float], float]) -> float:
    """The sign that makes ``s * f`` increasing, after checking ``f(1) = 0``
    (to 1e-12)."""
    fe = f(1.0)
    if abs(fe) > 1e-12:
        raise InvalidGenerator(f"f(1) = {fe}, expected 0")
    return -1.0 if f(2.0) < 0 else 1.0


def homogeneous_deviation(f: Callable[[float], float], x, w,
                          roots: Optional[Callable] = None) -> float:
    """Root of ``sum_i w_i f(x_i / y) = 0`` on positive entries.

    ``f`` must vanish at 1 (checked to 1e-12); it may be increasing or
    decreasing.  For a decreasing ``f`` (``f(2) < 0``) the total is
    negated, which is exact, so that it decreases in ``y`` either way.
    ``roots``, the certificate of ``f`` (see :func:`shifted_power_rows`),
    spares the sign tests outside its interval on the entries, which
    leaves the root and every error as they are; the weights must then
    be positive.
    """
    s = _orientation(f)
    _check_entries(x, w, POSITIVE, _HOMDEV)
    a, b = ([-math.inf], [math.inf]) if roots is None else _row_roots(roots, x, w, False)
    return _solve(_homogeneous_total(f, s, x, w), x, _HOMDEV, a[0], b[0])


def homogeneous_deviation_prefixes(f: Callable[[float], float], roots: Callable, x, w,
                                   first: int) -> list:
    """``homogeneous_deviation(f, x[:k], w[:k], roots)`` for ``k = first+1..n``,
    bit for bit and raising what the first failing prefix raises, for positive
    entries and weights.  The certificate of every prefix comes from one pass
    of running moments along the input."""
    s = _orientation(f)
    a, b = _row_roots(roots, x, w, True)
    return [_solve(_homogeneous_total(f, s, x[:k], w[:k]), x[:k], _HOMDEV, a[k - 1], b[k - 1])
            for k in range(first + 1, len(x) + 1)]


def _row_roots(roots: Callable, x, w, prefixes: bool) -> tuple:
    """The lists ``(a, b)`` of ``roots`` on one row, or ``(-inf, inf)`` for an
    entry or weight beyond the float range, whose totals raise FloatOverflow."""
    try:
        xa, wa = np.array([x], dtype=float), np.array([w], dtype=float)
    except OverflowError:
        return [-math.inf] * len(x), [math.inf] * len(x)
    return tuple(v[0].tolist() for v in roots(xa, wa, prefixes=prefixes))


def shifted_power(p: float) -> Callable[[float], float]:
    """``t -> t^p - 1`` (``log`` at ``p = 0``); vanishes at 1 by design."""
    if p == 0.0:
        return math.log
    return lambda t: t ** p - 1.0


def shifted_power_rows(p: float) -> Callable:
    """The certificate of :func:`shifted_power` at ``p``, which
    :func:`homogeneous_deviation`, :func:`homogeneous_deviation_prefixes`
    and :func:`homogeneous_deviation_rows` read.

    ``roots(x, w, prefixes=False) -> (a, b)`` takes ``(rows, n)`` positive
    entries and nonnegative weights, whose entries of weight 0 lie between
    the row's others, and gives each row columns ``a <= b``: the scalar
    total on the row's entries of nonzero weight is positive below ``a``
    and negative above ``b``, anywhere in their bracket.  With ``prefixes``
    it gives ``(rows, n)`` arrays, column ``k - 1`` for the prefix of ``k``
    entries, from running moments.  A row the certificate does not cover
    gets ``(-inf, inf)``.
    """
    return partial(_certificate, p)


# ---------------------------------------------------------------------------
# The certificate and the lockstep bisection
# ---------------------------------------------------------------------------

# Ulps of error the certificate allows each pow, log and exp, numpy's or libm's;
# both were measured within 1 ulp, with and without numpy's SIMD dispatch.
_SIGN_SLACK = 64
_EPS = 2.0 ** -52
_RANGE = 2.0 ** 900  # moments and powers the certificate covers
# The sums, maxima and minima the certificate takes along each row: row
# reductions, as columns, or running values, one per prefix.
_ALONG_ROWS = tuple(partial(u.reduce, axis=1, keepdims=True)
                    for u in (np.add, np.maximum, np.minimum))
_ALONG_PREFIXES = (partial(np.cumsum, axis=1), partial(np.maximum.accumulate, axis=1),
                   partial(np.minimum.accumulate, axis=1))


def _certificate(p: float, x: np.ndarray, w: np.ndarray, prefixes: bool = False) -> tuple:
    """The roots of :func:`shifted_power_rows`: the moment columns of every
    row, or of every prefix, given to :func:`_power_roots`, or to
    :func:`_log_roots` at ``p = 0``."""
    total, top, bottom = _ALONG_PREFIXES if prefixes else _ALONG_ROWS
    with np.errstate(all="ignore"):  # a moment that is not finite is not covered
        k, big_b, spread = total(w != 0.0), total(w), top(x) / bottom(x)
        if p == 0.0:
            lx = np.log(x)
            return _log_roots(k, total(w * lx), total(w * np.abs(lx)), big_b, spread)
        xp = x ** p
        return _power_roots(p, k, total(w * xp), big_b, bottom(xp), top(xp), spread)


def _roots_from(r, lam, ok):
    """The columns ``a = r (1 - l)`` and ``b = r (1 + l (1 + l))``, with
    ``l = lam + 8 u'``, where ``ok`` and ``l <= 1``, and ``(-inf, inf)``
    elsewhere.

    ``lam`` bounds ``|log(root / r)|`` plus the distance, in ``log y``, from
    the root to where the total's sign is certain.  ``e^-l >= 1 - l``, and
    ``e^l <= 1 + l + l^2`` for ``l <= 1``; the ``8 u'`` covers the relative
    rounding of ``lam`` (a few ``u`` of it) and the four roundings of ``a``
    and ``b``.
    """
    lam = lam + 8 * _EPS
    ok &= lam <= 1.0
    return np.where(ok, r * (1.0 - lam), -np.inf), np.where(ok, r * (1.0 + lam * (1.0 + lam)),
                                                           np.inf)


def _power_roots(p: float, k, big_a, big_b, xp_lo, xp_hi, spread) -> tuple:
    """The certificate for ``f(t) = t^p - 1``, ``p != 0``, from the moment
    columns of ``k`` terms: ``A = sum w x^p``, ``B = sum w``, the extremes of
    ``x^p`` and the spread ``R = max x / min x``.

    With ``u = 2^-53``, ``u' = 2u`` and ``kappa = _SIGN_SLACK`` (ulps of
    pow), write ``t_i = x_i / y``.  The scalar total is ``s fsum(tau_i)``
    with the float terms ``tau_i = fl(w_i fl(pow(fl(t_i), p) - 1))``;
    ``fsum`` rounds correctly, so it has the sign of ``S = sum tau_i``.
    Rounding ``t_i`` moves ``t_i^p`` by ``|p| u`` to first order and pow by
    ``kappa u'``; the subtraction and product round once each, so

        |tau_i - w_i (t_i^p - 1)| <= K w_i (t_i^p + 1),  K = (|p| + kappa + 3) u',

    with ``1 u'`` to spare for the second-order terms and the underflow of
    the products (``2^-1075`` each, far below ``u' B``).  Summed, with
    ``A* = sum w_i x_i^p`` and ``B* = sum w_i`` exact,

        |S - (y^-p A* - B*)| <= K (y^-p A* + B*).

    For ``p > 0`` (``s = 1``), ``S > 0`` where ``y^p < (A*/B*) (1-K)/(1+K)``
    and ``S < 0`` where ``y^p > (A*/B*) (1+K)/(1-K)``; for ``p < 0``
    (``s = -1``) the same holds for ``y^|p|`` against ``B*/A*``, which is
    the same interval around the root ``(A*/B*)^(1/p)``.  The moments ``A``
    and ``B`` are within ``alpha = (k + kappa + 2) u'`` and ``beta = k u'``
    of ``A*`` and ``B*``, relative (pow, product and ``k - 1`` adds for
    ``A``).  Any order of adds of nonnegative terms, sequential as in a
    running sum or pairwise as in a numpy row sum, takes each term through
    at most ``k - 1`` of them.  Folding them in, ``y^p`` against ``A/B`` is
    certain outside a factor of ``e^(+-D/(1-D))`` with
    ``D = alpha + beta + 2K``, so ``y`` is certain outside
    ``e^(+-D/((1-D)|p|))`` around ``(A/B)^(1/p)``.  The computed root
    ``r = pow(fl(A/B), fl(1/p))`` is within ``(1/|p| + |log r| + kappa + 2) u'``
    of that in ``log``: the quotient's rounding scaled by ``1/|p|``, the
    rounding of ``1/p`` scaled by ``|log r|``, and pow's ulps.  The sum of
    the two is ``lam`` of :func:`_roots_from`.

    The bounds need every ``t_i`` and ``t_i^p`` normal and every term and
    partial sum of the scalar total finite, so that it raises nowhere in the
    bracket, and ``A``, ``B`` normal.  A row is certified only where
    ``x^p``, ``A`` and ``B`` are in ``[2^-900, 2^900]``, as are
    ``R``, ``R^|p|`` and ``B R^|p|``, where ``D < 1`` (which also keeps
    ``|p| u`` small enough for the first-order count), and where
    :func:`_roots_from` allows it.
    """
    d = (2 * k + (2 * abs(p) + 3 * _SIGN_SLACK + 8)) * _EPS
    r = (big_a / big_b) ** (1.0 / p)
    lam = d / ((1.0 - d) * abs(p)) + (np.abs(np.log(r)) + (1.0 / abs(p) + _SIGN_SLACK + 2)) * _EPS
    grown = spread ** abs(p)
    ok = ((d < 1.0) & (xp_lo >= 1.0 / _RANGE) & (xp_hi <= _RANGE) & (spread <= _RANGE)
          & (grown <= _RANGE) & (big_b * grown <= _RANGE) & (big_a >= 1.0 / _RANGE)
          & (big_a <= _RANGE) & (big_b >= 1.0 / _RANGE))
    return _roots_from(r, lam, ok)


def _log_roots(k, big_l, big_m, big_b, spread) -> tuple:
    """:func:`_power_roots` for ``f = log`` (``p = 0``), from the moments
    ``L = sum w log x``, ``M = sum w |log x|`` and ``B = sum w`` of ``k``
    terms and the spread ``R``.

    The float terms are ``tau_i = fl(w_i log(fl(t_i)))``.  Rounding ``t_i``
    moves its log by ``u`` absolute; log is within ``kappa u'`` and the
    product rounds once, so

        |tau_i - w_i log t_i| <= K w_i (|log t_i| + 1),  K = (kappa + 3) u',

    with ``2 u'`` to spare for the second-order terms and underflow.  In the
    bracket ``|log t_i| <= log R``, so with ``L* = sum w_i log x_i`` the sum
    ``S`` of the float terms is within ``K B* (log R + 1)`` of
    ``L* - B* log y``.  The moments ``L`` and ``B`` give ``L/B`` within
    ``(kappa + 2k + 2) u' M/B`` of ``L*/B*``, since ``M`` bounds every
    ``|term|`` sum: log, product and ``k - 1`` adds in any order for ``L``,
    ``k u'`` for ``B`` and the quotient.  The root ``r = exp(L/B)`` adds
    exp's ulps, so

        lam = K (log R + 1) + (kappa + 2k + 2) u' M / B + (kappa + 1) u'.

    A row is certified only where ``R`` and ``B`` are in ``[2^-900, 2^900]``,
    which keeps every ``t_i`` normal and every partial sum finite.
    """
    r = np.exp(big_l / big_b)
    lam = ((_SIGN_SLACK + 3) * (np.log(spread) + 1.0) + (2 * k + (_SIGN_SLACK + 2)) * big_m / big_b
           + (_SIGN_SLACK + 1)) * _EPS
    ok = (spread <= _RANGE) & (big_b >= 1.0 / _RANGE) & (big_b <= _RANGE)
    return _roots_from(r, lam, ok)


def homogeneous_deviation_rows(f: Callable[[float], float], roots: Callable,
                               x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """:func:`homogeneous_deviation` of ``f`` on the entries of nonzero
    weight of every row of ``(rows, n)`` arrays, bit for bit, or NaN for a
    row it does not finish, which :func:`kedlaya.means.evaluate_rows` hands
    to the scalar solver.

    The entries are positive (:func:`kedlaya.means.evaluate_rows` hands no
    other row to a kernel) and each row's weights nonnegative with a
    positive sum; zero-weight entries are dropped, as in
    :func:`kedlaya.means.evaluate`, so shorter rows are padded with zero
    weights.  ``roots``, the certificate of ``f`` (see
    :func:`shifted_power_rows`), gives each row, once, columns ``a <= b``
    with the total certainly positive below ``a`` and negative above ``b``.
    A constant row is its entry.  The other rows take two stages, on the
    scalar solver's brackets, midpoints, caps and stop rule.  First, the
    rows with both endpoints outside ``[a, b]`` halve in lockstep on the
    certain sign of each midpoint, summing nothing.  Second, a row whose
    midpoint enters ``[a, b]`` before it converges finishes in the scalar
    solver's halving loop, :func:`_halve`, on its scalar total.  Every
    other row is NaN: an endpoint inside ``[a, b]``, a row the certificate
    does not cover, a row out of halvings, or a row on which :func:`_halve`
    raises an arithmetic or value error.  Every per-row array is a column.
    """
    s = _orientation(f)
    m = np.flatnonzero(w.any(axis=0))[-1] + 1  # past the last column of nonzero weight
    x, w = x[:, :m], w[:, :m]
    live = w != 0.0
    x_lo, x_hi = _live_masked(x, live)
    lo, hi = x_lo.min(axis=1, keepdims=True), x_hi.max(axis=1, keepdims=True)
    a, b = roots(np.where(live, x, lo), w)  # entries of weight 0 repeat the row's minimum
    result = np.where(lo == hi, lo, np.nan)
    active = (lo < a) & (b < hi)  # certified: the total is positive at lo, negative at hi
    handed = {}  # row -> its bracket and halvings so far, for _halve
    caps = _max_halvings(lo, hi, lo)  # lo > 0 bounds |y| below
    first_cap = caps.min()
    for it in count():
        if it >= first_cap:
            active &= caps > it  # rows out of halvings stay NaN
        if not np.count_nonzero(active):
            break
        mid = 0.5 * (lo + hi)
        stop = active & (hi - lo <= _stop_width(mid))
        np.copyto(result, mid, where=stop)
        active ^= stop
        inside = active & (mid >= a) & (mid <= b)
        for i in np.flatnonzero(inside).tolist():
            handed[i] = float(lo[i, 0]), float(hi[i, 0]), it
        active ^= inside
        up = mid < a
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    for i, bracket in handed.items():
        row = live[i]
        total = _homogeneous_total(f, s, x[i, row].tolist(), w[i, row].tolist())
        try:
            result[i] = _halve(total, *bracket, int(caps[i, 0]), float(a[i, 0]),
                               float(b[i, 0]), _HOMDEV, True)
        except (ArithmeticError, ValueError):
            pass  # the row stays NaN
    return result[:, 0]
