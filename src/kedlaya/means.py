"""Weighted-mean handles, evaluation, and axiom conformance checks.

A weighted mean takes entries from an interval and a nonnegative weight
vector with positive sum, and must satisfy four axioms: it is unchanged
by positive rescaling of the weights (nullhomogeneity), splitting a
weight across a duplicated entry changes nothing (reduction), the value
lies between the smallest and largest entry (mean value), and entries
with zero weight can be dropped (elimination).  Symmetric means are
additionally invariant under simultaneous permutation of entries and
weights.

:class:`MeanHandle` packages a family tag, its id parameters, a domain
and the family's kernels; :func:`evaluate` calls the scalar kernel (a
closed form or the deviation solver), :func:`evaluate_prefixes` the prefix
kernel, and :func:`evaluate_rows`, :func:`evaluate_prefix_rows` and
:func:`evaluate_prefix_and_last_rows` the array kernels, on the rows that
pass one gate.  One family table reads string ids.  The ``check_*``
helpers return the numeric residual of each axiom on concrete inputs,
through :func:`evaluate`;
:func:`sample_axiom_residuals` (behind ``kedlaya axioms``) evaluates every
side of many sampled identities through :func:`evaluate_rows`, on rows
padded with zero weights.

The built-in arithmetic, min and max families accumulate exactly (one
rounding at the end), which makes the repetition-expansion bridge
:func:`weighted_from_repetition_invariant` agree with them bit for bit
on integer weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from . import deviation as dev
from .domain import Interval, NONNEGATIVE, POSITIVE, REALS, sampling_window
from .errors import (
    DomainViolation,
    FloatOverflow,
    IndexNotZeroWeighted,
    LengthMismatch,
    NegativeSeed,
    NonpositiveScale,
    Overflow,
    ZeroScale,
)
from .weights import (WeightVector, make_weights, scalar_from_string,
                      scale as scale_weights, shuffle)

DEFAULT_EXPANSION_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# Elementary arithmetic means
# ---------------------------------------------------------------------------

def exact_weighted_arithmetic(x, w) -> float:
    """Weighted arithmetic mean accumulated exactly and rounded once, equal
    to ``float(sum(Fraction(w_i) * Fraction(x_i)) / sum(Fraction(w_i)))``
    over ``zip(x, w)`` (see :func:`_arithmetic_prefixes`)."""
    n = min(len(x), len(w))
    return _arithmetic_prefixes(x, w, n - 1)[0] if n else _no_weight(0, 1)


def _arithmetic_prefixes(x, w, first: int) -> list:
    """:func:`exact_weighted_arithmetic` on ``x[:k], w[:k]`` for
    ``k = first+1..n``, from running integer sums, with the same values and
    errors as running ``Fraction`` sums.

    Each entry and weight is an exact ratio of integers (``as_integer_ratio``
    for floats and ``Fraction``s, as ``Fraction`` converts it).  The sums of
    ``w x`` and of ``w`` are kept as integers over the common denominators
    seen so far: the largest power of two for floats, the lcm for
    ``Fraction``s.  A denominator that is not yet one of their divisors
    scales the sums up.  Each mean is one int true division, correctly
    rounded like ``float(Fraction)``.
    """
    out = []
    num = den = 0  # sum w x over dw * dx, sum w over dw
    dw = dx = 1
    for k, (xi, wi) in enumerate(zip(x, w)):
        a, d = _integer_ratio(wi)
        p, q = _integer_ratio(xi)
        if dw % d:
            f = d // math.gcd(dw, d)
            num, den, dw = num * f, den * f, dw * f
        if dx % q:
            f = q // math.gcd(dx, q)
            num, dx = num * f, dx * f
        a *= dw // d
        den += a
        num += a * p * (dx // q)
        if k >= first:
            out.append(num / (den * dx) if den else _no_weight(num, dw * dx))
    return out


def _integer_ratio(v) -> tuple:
    """``(numerator, denominator)`` of ``v``, raising what ``Fraction(v)``
    raises (an inf or nan float)."""
    try:
        return v.as_integer_ratio()
    except AttributeError:  # e.g. a numpy integer
        return Fraction(v).as_integer_ratio()


def _no_weight(num: int, scale: int) -> float:
    """Raise what the exact mean ``Fraction(num, scale) / 0`` raises when the
    weights sum to 0."""
    return float(Fraction(num, scale) / Fraction(0))


def arithmetic_base(xs) -> float:
    """Unweighted arithmetic mean, exact accumulation."""
    return exact_weighted_arithmetic(xs, [1] * len(xs))


def weighted_average(values, weights) -> float:
    """Weighted arithmetic mean in floats, ``fsum(w * v) / fsum(w)``.

    Raises :class:`FloatOverflow` when a partial sum of ``w * v`` overflows.
    """
    try:
        return math.fsum(w * v for v, w in zip(values, weights)) / math.fsum(weights)
    except OverflowError:  # fsum's intermediate overflow
        raise FloatOverflow("a weighted sum overflows the float range") from None


# ---------------------------------------------------------------------------
# MeanHandle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanHandle:
    """A weighted mean: family tag + id parameters + entry domain.

    Build instances through the classmethods or :func:`mean_from_id`; each
    factory is the one place its family is defined.  ``params`` holds the
    values of the family's id fields in order (``gini:2:1`` has ``(2.0, 1.0)``,
    ``qa:pow:2`` has ``("pow", 2.0)``), or None when the mean has no id
    (custom generators and deviations).  ``_fn`` receives entries
    and float weights that already passed the domain/weight validation and
    zero-weight elimination in :func:`evaluate`.  Three kernels are optional:

    - ``_batch(x, w)`` gives every row of ``(rows, n)`` arrays its value
      (see :func:`evaluate_rows`);
    - ``_prefix(x, w, first)``, for ``x[:first+1]`` not constant, gives
      ``_fn(x[:k], w[:k])`` for ``k = first+1..n`` in one pass, bit for bit
      and raising what the first failing call raises (see
      :func:`evaluate_prefixes`);
    - ``_prefix_rows(x, w, last)`` gives every prefix of every row, or with
      ``last`` a column of each row's value (see :func:`evaluate_prefix_rows`);
      with ``last`` a slice of the rows, the rows it selects need only their
      value, in their last column (see :func:`evaluate_prefix_and_last_rows`).

    An array kernel gets only the rows of the gate, :func:`_settled`, and
    tests none of its contract: entries in ``domain``, valid weights, every
    entry of weight 0 equal to an entry of nonzero weight of its row, and a
    row of zero weights all NaN.  It gives each row its value, or NaN (any
    value that is not finite) where it does not settle the row.  The closed
    forms (power, Gini, quasi-arithmetic for any generator, ``gini21``) get
    all three from one declaration, a
    :class:`~kedlaya.deviation.ClosedForm` (see :meth:`_closed_form`).  The
    ``homdev:shifted-power:p`` means take the certified kernels keyed by ``p``,
    ``deviation.homogeneous_deviation_rows`` and ``_prefixes``, whose last
    prefix is also ``_fn``.  Custom deviations, and homogeneous deviations of
    a caller's ``f``, have none and are evaluated row by row.
    """

    family: str
    domain: Interval
    params: Optional[tuple] = ()
    label: str = ""
    _fn: Callable = field(default=None, repr=False, compare=False)
    _batch: Optional[Callable] = field(default=None, repr=False, compare=False)
    _prefix: Optional[Callable] = field(default=None, repr=False, compare=False)
    _prefix_rows: Optional[Callable] = field(default=None, repr=False, compare=False)

    def __str__(self) -> str:
        return self.label or self.family

    # -- factories ----------------------------------------------------------

    @classmethod
    def arithmetic(cls) -> "MeanHandle":
        return cls("arithmetic", REALS, (), "arithmetic",
                   lambda x, w: exact_weighted_arithmetic(x, w),
                   lambda x, w: (w * x).sum(axis=1) / w.sum(axis=1),
                   _arithmetic_prefixes)

    @classmethod
    def minimum(cls) -> "MeanHandle":
        return cls("min", REALS, (), "min", lambda x, w: float(min(x)),
                   lambda x, w: x.min(axis=1),
                   lambda x, w, first: [float(v) for v in accumulate(x, min)][first:])

    @classmethod
    def maximum(cls) -> "MeanHandle":
        return cls("max", REALS, (), "max", lambda x, w: float(max(x)),
                   lambda x, w: x.max(axis=1),
                   lambda x, w, first: [float(v) for v in accumulate(x, max)][first:])

    @classmethod
    def _closed_form(cls, family: str, domain: Interval, params: tuple, label: str,
                     fn: Callable, form: dev.ClosedForm) -> "MeanHandle":
        """A closed-form mean from its scalar definition ``fn`` and its
        declaration ``form``: one with an error rule takes the numpy drivers,
        any other the exact prefix driver, its last column each row's value."""
        if form.error:
            batch = partial(dev.closed_form_rows, form)
            prefix_rows = partial(dev.closed_form_prefix_rows, form)
        else:
            prefix_rows = partial(dev.closed_form_exact_prefix_rows, form)
            batch = lambda x, w: prefix_rows(x, w, True)[:, 0]
        return cls(family, domain, params, label, fn, batch,
                   lambda x, w, first: dev.closed_form_prefixes(form, fn, x, w, first),
                   prefix_rows)

    @classmethod
    def power(cls, p: float) -> "MeanHandle":
        p = float(p)
        return cls._closed_form("power", POSITIVE, (p,), f"power:{dev._fmt(p)}",
                                lambda x, w: dev.power_mean(p, x, w), dev.gini_form(p, 0.0))

    @classmethod
    def gini(cls, p: float, q: float) -> "MeanHandle":
        p, q = float(p), float(q)
        return cls._closed_form("gini", POSITIVE, (p, q), f"gini:{dev._fmt(p)}:{dev._fmt(q)}",
                                lambda x, w: dev.gini(p, q, x, w), dev.gini_form(p, q))

    @classmethod
    def quasi_arithmetic(cls, gen: dev.GeneratorSpec) -> "MeanHandle":
        # a built-in generator's label is already its id (qa:pow:2, qa:log)
        label = gen.label if gen.params else f"qa:{gen.label}"
        return cls._closed_form("quasi-arithmetic", gen.domain, gen.params, label,
                                lambda x, w: dev.quasi_arithmetic(gen, x, w), gen.closed_form)

    @classmethod
    def homogeneous_deviation(cls, f: Callable[[float], float],
                              label: str = "custom") -> "MeanHandle":
        return cls("homogeneous-deviation", POSITIVE, None, f"homdev:{label}",
                   lambda x, w: dev.homogeneous_deviation(f, x, w))

    @classmethod
    def custom_deviation(cls, spec: dev.DeviationSpec) -> "MeanHandle":
        return cls("custom-deviation", spec.domain, None, f"custom:{spec.label}",
                   lambda x, w: dev.solve_deviation_mean(spec, x, w))

    @classmethod
    def gini21_counterexample(cls) -> "MeanHandle":
        return cls._closed_form("gini21", NONNEGATIVE, (), "gini21",
                                lambda x, w: dev.gini21_counterexample(x, w), dev.GINI21_FORM)

    @classmethod
    def affine(cls, inner: "MeanHandle", a: float, b: float) -> "MeanHandle":
        """Conjugated mean ``a * M((x - b)/a, w) + b`` on the mapped domain."""
        if a == 0:
            raise ZeroScale("affine conjugation needs a != 0")
        a, b = float(a), float(b)
        to_inner = lambda x: [(xi - b) / a for xi in x]
        fn = lambda x, w: a * evaluate(inner, to_inner(x), w) + b
        batch = prefix = None
        if inner._batch is not None:
            batch = lambda x, w: a * inner._batch((x - b) / a, w) + b
        if inner._prefix is not None:
            prefix = lambda x, w, first: [
                a * v + b for v in evaluate_prefixes(inner, to_inner(x), w)[first:]]
        return cls("affine", inner.domain.transform(a, b), (a, b, inner),
                   f"affine({dev._fmt(a)},{dev._fmt(b)},{inner})", fn, batch, prefix)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _float_weights(w) -> tuple:
    if isinstance(w, WeightVector):
        return w.as_floats()
    try:
        wf = tuple(map(float, w))
    except OverflowError:  # an entry beyond the float range
        wf = ()
    if not (0.0 < sum(wf) < math.inf and min(wf) >= 0.0):
        make_weights(w).as_floats()  # raise the precise validation error
    return wf


def evaluate(mean: MeanHandle, x: Sequence[float], w) -> float:
    """Evaluate ``mean`` on entries ``x`` with weights ``w``.

    ``w`` may be a WeightVector or any nonnegative sequence with positive
    sum.  Zero-weight entries are dropped up front (elimination), and a
    constant entry vector short-circuits to the constant.
    """
    wf = _float_weights(w)
    dev._check_entries(x, wf, mean.domain, str(mean))
    if len(x) == 1:
        return float(x[0])
    if any(v == 0.0 for v in wf):
        pairs = [(xi, wi) for xi, wi in zip(x, wf) if wi != 0.0]
        xs = [p[0] for p in pairs]
        ws = [p[1] for p in pairs]
    else:
        xs, ws = list(x), list(wf)
    if min(xs) == max(xs):
        return float(xs[0])
    return mean._fn(xs, ws)


def evaluate_prefixes(mean: MeanHandle, x: Sequence[float], w) -> list:
    """``[evaluate(mean, x[:k], w[:k]) for k = 1..n]``, bit for bit.

    The weights are validated once, as a whole, before the entries.  Each
    entry's domain is checked once, zero-weight entries are dropped and
    constant prefixes short-circuit, as in :func:`evaluate`.  Families
    with a prefix kernel compute the other prefixes in one pass of
    running sums (closed forms) or of running moments, for one certified
    scalar solve per prefix (homogeneous deviations); the others call
    :func:`evaluate` once per prefix.  Apart
    from the weights, errors are those of that loop: an entry outside the
    domain raises only after the prefixes before it are evaluated.
    """
    wf = _float_weights(w)
    if len(x) != len(wf):
        raise LengthMismatch(f"{len(x)} entries vs {len(wf)} weights")
    if mean._prefix is None:
        return [evaluate(mean, x[:k], wf[:k]) for k in range(1, len(x) + 1)]
    if wf[0] == 0.0:
        make_weights(wf[:1])  # the first prefix has no weight: raise AllZero
    contains, n = mean.domain.contains, 0
    for xi in x:  # n: the entries before the first one outside the domain
        if not contains(xi):
            break
        n += 1
    xs, ws, sizes = list(x[:n]), list(wf[:n]), None
    if 0.0 in ws:  # drop zero weights; sizes[k]: the entries left in x[:k+1]
        sizes = list(accumulate(wi != 0.0 for wi in ws))
        xs = [xi for xi, wi in zip(xs, ws) if wi != 0.0]
        ws = [wi for wi in ws if wi != 0.0]
    out = []
    if xs:
        first = 1  # xs[:first] is the longest constant prefix
        while first < len(xs) and xs[first] == xs[0]:
            first += 1
        out = [float(xs[0])] * first + (mean._prefix(xs, ws, first) if first < len(xs) else [])
        if sizes:
            out = [out[m - 1] for m in sizes]
    if n < len(x):
        raise DomainViolation(f"entry {x[n]} outside domain of {mean}")
    return out


def _filled(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x`` with each entry of weight 0 replaced by its row's first entry of
    nonzero weight, and a row without one all NaN, in ``x``'s memory order."""
    live, rows = w != 0.0, np.arange(len(x))
    first = live.argmax(axis=1)
    return np.where(live, x, np.where(live[rows, first], x[rows, first], np.nan)[:, None])


def _least_weight(mean: MeanHandle, x: np.ndarray, w: np.ndarray) -> Optional[float]:
    """The least weight where every row of ``x, w`` passes the gate at once:
    ``x``'s minimum and maximum lie in ``mean.domain`` (an interval) and
    ``0 <= min w``, ``0 < max w < inf``; else None."""
    contains = mean.domain.contains
    if (x.size and contains(x.min()) and contains(x.max())
            and 0.0 <= (least := w.min()) and 0.0 < w.max() < math.inf):
        return least
    return None


def _settled(mean: MeanHandle, kernel: Optional[Callable], scalar: Callable, x: np.ndarray,
             w: np.ndarray, shape: tuple, *args) -> np.ndarray:
    """The gate in front of every array kernel: ``kernel(x, w, *args)``, under
    ``np.errstate(all="ignore")``, on the rows whose entries lie in
    ``mean.domain`` and whose weights are valid (finite, nonnegative, one
    positive), as an array of ``shape``.  Every other row (an empty row
    too), every row with a value that is not finite, and with
    ``kernel=None`` every row, then takes ``scalar`` (:func:`_fill`).  A row
    mask is built only when the block fails :func:`_least_weight`.  Where a
    weight is 0 the kernel gets ``x`` :func:`_filled`: every entry of weight
    0 equals one of nonzero weight of its row, which leaves the row's value
    as it is (elimination), and a row of zero weights, which passes the
    test beside other rows, is all NaN."""
    contains = mean.domain.contains
    with np.errstate(all="ignore"):
        if kernel and (least := _least_weight(mean, x, w)) is not None:
            out, good = kernel(x if least else _filled(x, w), w, *args), True
        else:
            out = np.full(shape, np.nan)
            good = (contains(x) & (0.0 <= w) & (w < math.inf)).all(axis=1) & (w > 0.0).any(axis=1)
            if kernel and good.any():
                out[good] = kernel(_filled(x[good], w[good]), w[good], *args)
        if math.isfinite(out.sum()) and (good is True or good.all()):
            return out
    return _fill(mean, scalar, x, w, out, good)


def _fill(mean: MeanHandle, scalar: Callable, x: np.ndarray, w: np.ndarray, out: np.ndarray,
          good=True) -> np.ndarray:
    """``out`` with ``scalar(mean, x_i, w_i)`` in every row ``i`` that is not
    ``good`` (a row mask) or holds a value that is not finite, in row order,
    so that the first failing row raises."""
    for i in np.flatnonzero(~(good & np.isfinite(out).reshape(len(out), -1).all(axis=1))).tolist():
        out[i] = scalar(mean, x[i].tolist(), w[i].tolist())
    return out


def evaluate_prefix_rows(mean: MeanHandle, x: np.ndarray, w: np.ndarray,
                         last: bool = False) -> np.ndarray:
    """:func:`evaluate_prefixes` on every row of ``(rows, n)`` entry and weight
    arrays, as a ``(rows, n)`` array; with ``last``, only each row's last
    value, :func:`evaluate` on the whole row.

    A closed form's driver takes the rows that pass the gate (:func:`_settled`):
    numpy running sums for the forms with an error rule (power, Gini,
    ``gini21``), each value within :data:`~kedlaya.deviation.PREFIX_ROWS_RTOL`
    relative of the scalar one, and exact sums for quasi-arithmetic means.
    The other rows, and every row of the other means, are evaluated exactly.
    """
    if last:
        return _settled(mean, mean._prefix_rows, evaluate, x, w, (len(x), 1), True)[:, 0]
    return _settled(mean, mean._prefix_rows, evaluate_prefixes, x, w, x.shape, False)


def evaluate_prefix_and_last_rows(mean: MeanHandle, x: np.ndarray, y: np.ndarray,
                                  w: np.ndarray) -> tuple:
    """``(evaluate_prefix_rows(mean, x, w), evaluate_prefix_rows(mean, y, w,
    last=True))`` for ``(rows, n)`` arrays ``x`` and ``y`` on the same weights.

    Where a mean has a prefix-rows kernel and the whole block passes the gate
    (:func:`_least_weight`), both come from one kernel call on the stacked
    ``(2 rows, n)`` block, built once in column-major order, with ``last``
    the slice of ``y``'s rows.  A row of ``x`` that the kernel leaves
    unsettled takes one :func:`evaluate_prefixes`, and one of ``y``, whose
    last value alone is read, one :func:`evaluate`, as in the two calls.
    """
    rows, n = x.shape
    if mean._prefix_rows:
        block, weights = np.empty((2 * rows, n), order="F"), np.empty((2 * rows, n), order="F")
        block[:rows], block[rows:], weights[:rows], weights[rows:] = x, y, w, w
        with np.errstate(all="ignore"):
            if (least := _least_weight(mean, block, weights)) is not None:
                out = mean._prefix_rows(block if least else _filled(block, weights), weights,
                                        slice(rows, None))
                if math.isfinite(out.sum()):
                    return out[:rows], out[rows:, -1]
        if least is not None:  # the rows left unsettled
            return (_fill(mean, evaluate_prefixes, x, w, out[:rows]),
                    _fill(mean, evaluate, y, w, out[rows:, -1]))
    return evaluate_prefix_rows(mean, x, w), evaluate_prefix_rows(mean, y, w, last=True)


def evaluate_rows(mean: MeanHandle, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Evaluate ``mean`` on every row of ``(rows, n)`` entry and weight arrays.

    A batch kernel takes the rows that pass the gate (:func:`_settled`) in
    one call, in column-major (Fortran) order, where numpy reduces short rows
    across all rows at once: a 2-entry ``max(axis=1)`` over 150k rows took
    6 ms in C order and 0.2 ms in Fortran order (2-vCPU Xeon).  From 8
    entries per row numpy sums a C-ordered row pairwise and a Fortran-ordered
    one in sequence.  Every other row, and every row of a mean without a
    batch kernel (custom deviations, homogeneous deviations of a caller's
    ``f`` and affine conjugates of these), goes to :func:`evaluate`.
    """
    return _settled(mean, mean._batch, evaluate, np.asfortranarray(x), np.asfortranarray(w),
                    len(x))


# ---------------------------------------------------------------------------
# Axiom residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomResidual:
    """``residual = |left - right|`` of one tested axiom identity."""

    axiom: str
    residual: float
    inputs: dict

    def __post_init__(self):
        if self.residual < 0:
            raise ValueError("residual must be nonnegative")


def check_nullhomogeneity(mean: MeanHandle, x, w, t) -> AxiomResidual:
    """Residual of ``M(x, w) = M(x, t*w)`` for ``t > 0``."""
    if isinstance(w, WeightVector):
        scaled = scale_weights(w, t)
    else:
        if not t > 0:
            raise NonpositiveScale(f"t must be positive, got {t}")
        scaled = [t * wi for wi in w]
    left = evaluate(mean, x, w)
    right = evaluate(mean, x, scaled)
    return AxiomResidual("nullhomogeneity", abs(left - right),
                         {"x": tuple(x), "w": tuple(w), "t": t})


def check_reduction(mean: MeanHandle, x, lam, mu) -> AxiomResidual:
    """Residual of ``M(x, lam + mu) = M(x shuffled with x, lam shuffled mu)``."""
    if not (len(x) == len(lam) == len(mu)):
        raise LengthMismatch("x, lam, mu must have equal lengths")
    summed = [a + b for a, b in zip(lam, mu)]
    left = evaluate(mean, x, summed)
    right = evaluate(mean, shuffle(x, x), shuffle(list(lam), list(mu)))
    return AxiomResidual("reduction", abs(left - right),
                         {"x": tuple(x), "lam": tuple(lam), "mu": tuple(mu)})


def check_elimination(mean: MeanHandle, x, w, j: int) -> AxiomResidual:
    """Residual of dropping the zero-weighted index ``j``."""
    wf = [float(v) for v in w]
    if wf[j] != 0.0:
        raise IndexNotZeroWeighted(f"w[{j}] = {wf[j]} is not zero")
    if len(x) < 2:
        raise LengthMismatch("need at least two entries to eliminate one")
    left = evaluate(mean, x, w)
    xr = [xi for i, xi in enumerate(x) if i != j]
    wr = [wi for i, wi in enumerate(wf) if i != j]
    right = evaluate(mean, xr, wr)
    return AxiomResidual("elimination", abs(left - right),
                         {"x": tuple(x), "w": tuple(w), "j": j})


def mean_value_residual(mean: MeanHandle, x, w) -> AxiomResidual:
    """Distance of the value outside ``[min x, max x]`` (0 when inside)."""
    v = evaluate(mean, x, w)
    r = max(0.0, float(min(x)) - v, v - float(max(x)))
    return AxiomResidual("mean-value", r, {"x": tuple(x), "w": tuple(w)})


def check_symmetry(mean: MeanHandle, x, w, perm: Sequence[int]) -> AxiomResidual:
    """Residual under a simultaneous permutation of entries and weights."""
    if sorted(perm) != list(range(len(x))):
        raise ValueError("perm must be a permutation of the indices")
    wf = [float(v) for v in w]
    left = evaluate(mean, x, wf)
    right = evaluate(mean, [x[i] for i in perm], [wf[i] for i in perm])
    return AxiomResidual("symmetry", abs(left - right),
                         {"x": tuple(x), "w": tuple(w), "perm": tuple(perm)})


# ---------------------------------------------------------------------------
# Sampled axiom residuals
# ---------------------------------------------------------------------------

AXIOMS = ("nullhomogeneity", "reduction", "mean-value", "elimination", "symmetry")
# Side rows of one trial: base, t-scaled, lam + mu, shuffled, zeroed,
# eliminated, permuted.
_SIDES = 7
# Entries per block of side rows.  Trials are drawn and evaluated a block at
# a time, so memory does not grow with the trial count.  At n_max = 5 a block
# holds 117 trials.  Blocks of 1 << 16 entries raised the peak RSS of a run
# of 350-trial ``qa:log`` probes by 2.4 MB over one trial at a time; this
# size, by 0.3 MB.
_AXIOM_BLOCK = 1 << 13
_WEIGHT_LOGS = (np.log(0.1), np.log(10.0))
_ENTRY_CLIP = (1e-2, 1e2)  # every axiom trial's entries lie here


def sample_axiom_residuals(mean: MeanHandle, trials: int, n_max: int,
                           seed: int = 0) -> dict:
    """Worst residual of each axiom in :data:`AXIOMS` over ``trials`` random
    instances, the sampled counterpart of the ``check_*`` helpers.

    A trial draws ``n`` in ``[2, n_max]``; entries log-uniform on the
    domain's sampling window clipped to ``[1e-2, 1e2]``; weights
    log-uniform on ``[0.1, 10]``; a weight scale ``t`` in ``[0.25, 4]``; a
    uniform split ``lam + mu`` of each weight; a permutation; and an index
    to zero.  Trial ``i`` is row ``i`` of one ``default_rng(seed)`` stream of
    ``random(4 n_max + 3)`` rows (see :func:`_draw_axiom_trials`), whatever
    the block size.  The residuals are those of
    :func:`check_nullhomogeneity`, :func:`check_reduction`,
    :func:`mean_value_residual`, :func:`check_elimination` and
    :func:`check_symmetry` on these inputs, with every side evaluated by
    :func:`evaluate_rows`, that is by the family's batch kernel.  A NaN
    residual counts as 0.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if seed < 0:
        raise NegativeSeed(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    lo, hi, _ = sampling_window(mean.domain)
    clipped = (max(lo, _ENTRY_CLIP[0]), min(hi, _ENTRY_CLIP[1]))
    if not clipped[0] < clipped[1]:  # a nonempty clip lies in the window, so in the domain
        raise DomainViolation(f"{mean}: its sampling window ({lo!r}, {hi!r}) clipped to "
                              f"{list(_ENTRY_CLIP)} is empty, so no axiom trial can be drawn")
    window = tuple(map(np.log, clipped))
    per_block = max(1, _AXIOM_BLOCK // (_SIDES * 2 * n_max))
    worst = dict.fromkeys(AXIOMS, 0.0)
    for start in range(0, trials, per_block):
        drawn = _draw_axiom_trials(rng, min(per_block, trials - start), n_max, window)
        base, scaled, summed, shuffled, zeroed, eliminated, permuted = _axiom_sides(mean, *drawn)
        x = drawn[0]  # its padding repeats an entry, so it moves no minimum or maximum
        residuals = (abs(base - scaled), abs(summed - shuffled),
                     np.maximum(x.min(axis=1) - base, base - x.max(axis=1)),
                     abs(zeroed - eliminated), abs(base - permuted))
        for axiom, r in zip(AXIOMS, residuals):
            worst[axiom] = max(worst[axiom], float(np.where(r > 0.0, r, 0.0).max()))
    return worst


def _draw_axiom_trials(rng: np.random.Generator, count: int, n_max: int,
                       window: tuple) -> tuple:
    """Draw ``count`` trials as ``(x, w, t, split, perm, j)``, a row (or an
    element) per trial, from one ``rng.random((count, 4 n_max + 3))`` call,
    so consecutive calls continue one stream of rows.  Past a trial's own
    ``n``, its row of the ``(count, n_max)`` arrays holds copies of its first
    entry with weight and split 0, which its permutation leaves in place.

    A row's first three columns give ``n = 2 + floor(u (n_max - 1))``,
    ``t = 0.25 + 3.75 u`` and ``j = floor(u n)``; then ``n_max`` columns each
    give the entries ``exp(a + (b - a) u)`` (``window`` is ``(a, b)``), the
    weights, log-uniform on ``[0.1, 10]``, the splits ``w u`` and the keys
    of ``perm``, a stable argsort with the padding keyed 2.
    """
    u = rng.random((count, 4 * n_max + 3))
    (a, b), (c, d) = window, _WEIGHT_LOGS
    n = 2 + (u[:, 0] * (n_max - 1)).astype(np.int64)
    live = np.arange(n_max) < n[:, None]
    x, w, split, key = np.split(u[:, 3:], 4, axis=1)
    exp = partial(dev.elementwise, math.exp)  # libm's bits, whatever numpy's SIMD dispatch
    x, w = exp(a + (b - a) * x), np.where(live, exp(c + (d - c) * w), 0.0)
    perm = np.argsort(np.where(live, key, 2.0), axis=1, kind="stable")
    return (np.where(live, x, x[:, :1]), w, 0.25 + 3.75 * u[:, 1], w * split, perm,
            (u[:, 2] * n).astype(np.int64))


def _side_rows(x, w, t, split, perm, j) -> tuple:
    """The ``(entries, weights)`` of the seven sides of trials drawn by
    :func:`_draw_axiom_trials`, as the ``check_*`` helpers build them."""
    k, n = x.shape
    rest = w - split
    keep = np.arange(n) != j[:, None]
    row = np.arange(k)[:, None]
    return ((x, w),
            (x, t[:, None] * w),
            (x, split + rest),
            (np.repeat(x, 2, axis=1), np.stack((split, rest), axis=2).reshape(k, 2 * n)),
            (x, np.where(keep, w, 0.0)),
            (x[keep].reshape(k, n - 1), w[keep].reshape(k, n - 1)),
            (x[row, perm], w[row, perm]))


def _axiom_sides(mean: MeanHandle, x, w, t, split, perm, j) -> np.ndarray:
    """The seven sides of trials drawn by :func:`_draw_axiom_trials`, a row
    each in :func:`_side_rows` order, from one :func:`evaluate_rows` call.

    Past its own length each side row holds zero-weight copies of its own
    first entry.  Every batch kernel gives such a row the value of the
    unpadded one: the padding adds exact zeros to the row sums, and
    neither moves a row's minimum or maximum nor is seen by the kernels
    that drop zero weights.
    """
    k, n_max = x.shape
    n = np.count_nonzero(w, axis=1)
    ends = np.concatenate((n, n, n, 2 * n, n, n - 1, n))[:, None]  # the sides' lengths
    xs = np.empty((_SIDES * k, 2 * n_max), order="F")
    ws = np.zeros((_SIDES * k, 2 * n_max), order="F")
    for r, (xi, wi) in zip(range(0, _SIDES * k, k), _side_rows(x, w, t, split, perm, j)):
        xs[r:r + k, :xi.shape[1]], ws[r:r + k, :wi.shape[1]] = xi, wi
    xs = np.where(np.arange(2 * n_max) < ends, xs, xs[:, :1])
    return evaluate_rows(mean, xs, ws).reshape(_SIDES, k)


# ---------------------------------------------------------------------------
# Repetition-invariant bridge
# ---------------------------------------------------------------------------

def weighted_from_repetition_invariant(base: Callable, x, w,
                                       cap: int = DEFAULT_EXPANSION_CAP) -> float:
    """Evaluate a symmetric repetition-invariant mean with integer weights.

    ``base`` receives the multiset where each ``x_i`` appears ``w_i``
    times (zero-weight entries are omitted).  Weights are first divided
    by their gcd, which never changes the result; the remaining expansion
    length must not exceed ``cap``.
    """
    counts = []
    for wi in w:
        if isinstance(wi, float) and not wi.is_integer():
            raise ValueError(f"integer weights required, got {wi}")
        if isinstance(wi, Fraction) and wi.denominator != 1:
            raise ValueError(f"integer weights required, got {wi}")
        counts.append(int(wi))
    if len(x) != len(counts):
        raise LengthMismatch(f"{len(x)} entries vs {len(counts)} weights")
    if any(c < 0 for c in counts) or not any(c > 0 for c in counts):
        make_weights(counts)  # raise the precise validation error
    g = math.gcd(*counts)
    counts = [c // g for c in counts]
    total = sum(counts)
    if total > cap:
        raise Overflow(f"expansion length {total} exceeds cap {cap}")
    expanded = []
    for xi, c in zip(x, counts):
        expanded.extend([xi] * c)
    return base(expanded)


# ---------------------------------------------------------------------------
# String ids
# ---------------------------------------------------------------------------

_GENERATORS = {"log": dev.log_generator, "pow": dev.power_generator}
_TEXT_FIELDS = ("generator", "f")  # id fields that are names, not numbers


def _homogeneous_deviation(f: str, p: float) -> MeanHandle:
    """``homdev:shifted-power:p``: its scalar solve is the last prefix of its
    certified prefix scan, and its batch kernel the lockstep bisection."""
    p = float(p)
    if f != "shifted-power":
        raise KeyError(f)
    return MeanHandle("homogeneous-deviation", POSITIVE, (f, p), f"homdev:{f}:{dev._fmt(p)}",
                      lambda x, w: dev.homogeneous_deviation_prefixes(p, x, w, len(x) - 1)[0],
                      partial(dev.homogeneous_deviation_rows, p),
                      partial(dev.homogeneous_deviation_prefixes, p))

# id head -> (id fields in order, builder taking their values).
# Every id is read through this table.
_FAMILIES = {
    "arithmetic": ((), MeanHandle.arithmetic),
    "min": ((), MeanHandle.minimum),
    "max": ((), MeanHandle.maximum),
    "power": (("p",), MeanHandle.power),
    "gini": (("p", "q"), MeanHandle.gini),
    "gini21": ((), MeanHandle.gini21_counterexample),
    "qa": (("generator", "p"), lambda g, *p: MeanHandle.quasi_arithmetic(_GENERATORS[g](*p))),
    "homdev": (("f", "p"), _homogeneous_deviation),
}


def mean_from_id(mean_id: str) -> MeanHandle:
    """Resolve a string id such as ``power:0.5`` or ``gini:2:1``.

    Supported ids: ``arithmetic``, ``min``, ``max``, ``geometric``,
    ``power:p``, ``gini:p:q``, ``gini21``, ``qa:log``, ``qa:pow:p``,
    ``homdev:shifted-power:p``.  The fields after the head are the
    family's parameters in order.
    """
    parts = mean_id.strip().split(":")
    if parts == ["geometric"]:
        parts = ["power", "0"]
    if parts[0] not in _FAMILIES or len(parts) - 1 > len(_FAMILIES[parts[0]][0]):
        raise ValueError(f"unknown mean id {mean_id!r}")
    fields, build = _FAMILIES[parts[0]]
    try:
        values = [v if name in _TEXT_FIELDS else scalar_from_string(v, exact=False)
                  for name, v in zip(fields, parts[1:])]
        return build(*values)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"bad parameter in mean id {mean_id!r}: {exc}") from exc
    except (KeyError, TypeError):  # unknown generator/deviation name, wrong arity
        raise ValueError(f"unknown mean id {mean_id!r}") from None
