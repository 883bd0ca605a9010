"""Weighted-mean handles, evaluation, and axiom conformance checks.

A weighted mean takes entries from an interval and a nonnegative weight
vector with positive sum, and must satisfy four axioms: it is unchanged
by positive rescaling of the weights (nullhomogeneity), splitting a
weight across a duplicated entry changes nothing (reduction), the value
lies between the smallest and largest entry (mean value), and entries
with zero weight can be dropped (elimination).  Symmetric means are
additionally invariant under simultaneous permutation of entries and
weights.

:class:`MeanHandle` packages a family tag, its wire parameters, a domain
and the family's kernels; :func:`evaluate` calls the scalar kernel (a
closed form or the deviation solver) and :func:`evaluate_rows` the batch
kernel.  One family table reads and writes string ids and the JSON wire
format.  The ``check_*`` helpers return the numeric residual
of each axiom on concrete inputs so conformance can be tested at scale.

The built-in arithmetic, min and max families accumulate exactly (one
rounding at the end), which makes the repetition-expansion bridge
:func:`weighted_from_repetition_invariant` agree with them bit for bit
on integer weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import deviation as dev
from .domain import Interval, NONNEGATIVE, POSITIVE, REALS
from .errors import (
    DomainViolation,
    IndexNotZeroWeighted,
    LengthMismatch,
    NonpositiveScale,
    Overflow,
    ZeroScale,
)
from .weights import WeightVector, make_weights, scale as scale_weights, shuffle

DEFAULT_EXPANSION_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# Exact elementary means (single final rounding)
# ---------------------------------------------------------------------------

def exact_weighted_arithmetic(x, w) -> float:
    """Weighted arithmetic mean accumulated in exact rational arithmetic."""
    num = Fraction(0)
    den = Fraction(0)
    for xi, wi in zip(x, w):
        fw = wi if isinstance(wi, Fraction) else Fraction(wi)
        num += fw * Fraction(xi)
        den += fw
    return float(num / den)


def arithmetic_base(xs) -> float:
    """Unweighted arithmetic mean, exact accumulation."""
    acc = Fraction(0)
    for v in xs:
        acc += Fraction(v)
    return float(acc / len(xs))


# ---------------------------------------------------------------------------
# MeanHandle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanHandle:
    """A weighted mean: family tag + wire parameters + entry domain.

    Build instances through the classmethods or :func:`mean_from_id`; each
    factory is the one place its family is defined.  ``params`` holds the
    family's wire values in id order (``gini:2:1`` has ``(2.0, 1.0)``,
    ``qa:pow:2`` has ``("pow", 2.0)``), or None when the mean has no wire
    format (custom generators and deviations).  ``_fn`` receives entries
    and float weights that already passed the domain/weight validation and
    zero-weight elimination in :func:`evaluate`.  ``_batch``, when present,
    evaluates every row of ``(rows, n)`` entry and weight arrays at once
    (see :func:`evaluate_rows`); solver-backed families have none.
    """

    family: str
    domain: Interval
    params: Optional[tuple] = ()
    label: str = ""
    _fn: Callable = field(default=None, repr=False, compare=False)
    _batch: Optional[Callable] = field(default=None, repr=False, compare=False)

    def __str__(self) -> str:
        return self.label or self.family

    # -- factories ----------------------------------------------------------

    @classmethod
    def arithmetic(cls) -> "MeanHandle":
        return cls("arithmetic", REALS, (), "arithmetic",
                   lambda x, w: exact_weighted_arithmetic(x, w),
                   lambda x, w: (w * x).sum(axis=1) / w.sum(axis=1))

    @classmethod
    def minimum(cls) -> "MeanHandle":
        return cls("min", REALS, (), "min", lambda x, w: float(min(x)),
                   lambda x, w: x.min(axis=1))

    @classmethod
    def maximum(cls) -> "MeanHandle":
        return cls("max", REALS, (), "max", lambda x, w: float(max(x)),
                   lambda x, w: x.max(axis=1))

    @classmethod
    def power(cls, p: float) -> "MeanHandle":
        p = float(p)
        return cls("power", POSITIVE, (p,), f"power:{_fmt(p)}",
                   lambda x, w: dev.power_mean(p, x, w),
                   lambda x, w: dev.gini_rows(p, 0.0, x, w))

    @classmethod
    def gini(cls, p: float, q: float) -> "MeanHandle":
        p, q = float(p), float(q)
        return cls("gini", POSITIVE, (p, q), f"gini:{_fmt(p)}:{_fmt(q)}",
                   lambda x, w: dev.gini(p, q, x, w),
                   lambda x, w: dev.gini_rows(p, q, x, w))

    @classmethod
    def quasi_arithmetic(cls, gen: dev.GeneratorSpec) -> "MeanHandle":
        return cls("quasi-arithmetic", gen.domain, gen.params, f"qa:{gen.label}",
                   lambda x, w: dev.quasi_arithmetic(gen, x, w))

    @classmethod
    def homogeneous_deviation(cls, f: Callable[[float], float],
                              label: str = "custom",
                              tol: float = dev.DEFAULT_TOL) -> "MeanHandle":
        return cls("homogeneous-deviation", POSITIVE, None, f"homdev:{label}",
                   lambda x, w: dev.homogeneous_deviation(f, x, w, tol))

    @classmethod
    def custom_deviation(cls, spec: dev.DeviationSpec,
                         tol: float = dev.DEFAULT_TOL) -> "MeanHandle":
        return cls("custom-deviation", spec.domain, None, f"custom:{spec.label}",
                   lambda x, w: dev.solve_deviation_mean(spec, x, w, tol))

    @classmethod
    def gini21_counterexample(cls) -> "MeanHandle":
        return cls("gini21", NONNEGATIVE, (), "gini21",
                   lambda x, w: dev.gini21_counterexample(x, w), dev.gini21_rows)

    @classmethod
    def affine(cls, inner: "MeanHandle", a: float, b: float) -> "MeanHandle":
        """Conjugated mean ``a * M((x - b)/a, w) + b`` on the mapped domain."""
        if a == 0:
            raise ZeroScale("affine conjugation needs a != 0")
        a, b = float(a), float(b)
        fn = lambda x, w: a * evaluate(inner, [(xi - b) / a for xi in x], w) + b
        batch = None
        if inner._batch is not None:
            batch = lambda x, w: a * inner._batch((x - b) / a, w) + b
        return cls("affine", inner.domain.transform(a, b), (a, b, inner),
                   f"affine({_fmt(a)},{_fmt(b)},{inner})", fn, batch)


def _fmt(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else str(v)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _float_weights(w) -> tuple:
    if isinstance(w, WeightVector):
        return w.as_floats()
    wf = tuple(map(float, w))
    if not (0.0 < sum(wf) < math.inf and min(wf) >= 0.0):
        make_weights(w)  # raise the precise validation error
    return wf


def evaluate(mean: MeanHandle, x: Sequence[float], w) -> float:
    """Evaluate ``mean`` on entries ``x`` with weights ``w``.

    ``w`` may be a WeightVector or any nonnegative sequence with positive
    sum.  Zero-weight entries are dropped up front (elimination), and a
    constant entry vector short-circuits to the constant.
    """
    wf = _float_weights(w)
    if len(x) != len(wf):
        raise LengthMismatch(f"{len(x)} entries vs {len(wf)} weights")
    dom = mean.domain
    for xi in x:
        if not dom.contains(xi):
            raise DomainViolation(f"entry {xi} outside domain of {mean}")
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


def evaluate_rows(mean: MeanHandle, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Evaluate ``mean`` on every row of ``(rows, n)`` entry and weight arrays.

    Families with a batch kernel evaluate all rows at once and skip the
    validation of :func:`evaluate` (rows are assumed to be in the domain,
    with positive weights); the others call :func:`evaluate` row by row.
    """
    if mean._batch is not None:
        return mean._batch(x, w)
    return np.array([evaluate(mean, xi.tolist(), wi.tolist()) for xi, wi in zip(x, w)])


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


def check_mean_value(mean: MeanHandle, x, w) -> bool:
    """True when the value lies within ``[min x, max x]`` up to tolerance.

    Tolerance is relative, ``1e-9 * max|x_i|`` with an absolute floor of
    1e-12, since solver-backed families cannot be exact.
    """
    v = evaluate(mean, x, w)
    tol = max(1e-9 * max(abs(float(xi)) for xi in x), 1e-12)
    return min(x) - tol <= v <= max(x) + tol


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
# String ids and JSON wire format
# ---------------------------------------------------------------------------

_GENERATORS = {"log": dev.log_generator, "pow": dev.power_generator}
_DEVIATIONS = {"shifted-power": dev.shifted_power}
_TEXT_FIELDS = ("generator", "f")  # wire fields that are names, not numbers


def _homogeneous_deviation(f: str, p: float) -> MeanHandle:
    """The built-in homogeneous-deviation mean ``f`` at ``p``, with its wire values."""
    p = float(p)
    mean = MeanHandle.homogeneous_deviation(_DEVIATIONS[f](p), f"{f}:{_fmt(p)}")
    return replace(mean, params=(f, p))

# family -> (id head, wire fields in id order, builder taking the wire values).
# Every id and JSON document is read and written through this table.
_FAMILIES = {
    "arithmetic": ("arithmetic", (), MeanHandle.arithmetic),
    "min": ("min", (), MeanHandle.minimum),
    "max": ("max", (), MeanHandle.maximum),
    "power": ("power", ("p",), MeanHandle.power),
    "gini": ("gini", ("p", "q"), MeanHandle.gini),
    "gini21": ("gini21", (), MeanHandle.gini21_counterexample),
    "quasi-arithmetic": ("qa", ("generator", "p"),
                         lambda g, *p: MeanHandle.quasi_arithmetic(_GENERATORS[g](*p))),
    "homogeneous-deviation": ("homdev", ("f", "p"), _homogeneous_deviation),
    "affine": (None, ("a", "b", "inner"),
               lambda a, b, inner: MeanHandle.affine(mean_from_json(inner), a, b)),
}
_ID_HEADS = {head: family for family, (head, _, _) in _FAMILIES.items() if head}


def mean_from_id(mean_id: str) -> MeanHandle:
    """Resolve a string id such as ``power:0.5`` or ``gini:2:1``.

    Supported ids: ``arithmetic``, ``min``, ``max``, ``geometric``,
    ``power:p``, ``gini:p:q``, ``gini21``, ``qa:log``, ``qa:pow:p``,
    ``homdev:shifted-power:p``.  The fields after the head are the
    family's wire values in order.
    """
    parts = mean_id.strip().split(":")
    if parts == ["geometric"]:
        parts = ["power", "0"]
    family = _ID_HEADS.get(parts[0])
    if family is None or len(parts) - 1 > len(_FAMILIES[family][1]):
        raise ValueError(f"unknown mean id {mean_id!r}")
    _, fields, build = _FAMILIES[family]
    try:
        values = [v if name in _TEXT_FIELDS else float(Fraction(v))
                  for name, v in zip(fields, parts[1:])]
        return build(*values)
    except ValueError as exc:
        raise ValueError(f"bad parameter in mean id {mean_id!r}: {exc}") from exc
    except (KeyError, TypeError):  # unknown generator/deviation name, wrong arity
        raise ValueError(f"unknown mean id {mean_id!r}") from None


def mean_to_json(mean: MeanHandle) -> dict:
    """Serialize a handle to the JSON wire format."""
    if mean.family not in _FAMILIES or mean.params is None:
        raise ValueError(f"mean {mean} has no wire format")
    out: dict = {"family": mean.family, "domain": mean.domain.to_json()}
    for name, v in zip(_FAMILIES[mean.family][1], mean.params):
        out[name] = mean_to_json(v) if isinstance(v, MeanHandle) else v
    return out


def mean_from_json(obj: dict) -> MeanHandle:
    """Inverse of :func:`mean_to_json`; applies each family's natural domain."""
    fam = obj["family"]
    if fam not in _FAMILIES:
        raise ValueError(f"unknown family {fam!r}")
    _, fields, build = _FAMILIES[fam]
    return build(*(obj[name] for name in fields if name in obj))
