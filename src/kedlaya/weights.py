"""Finite weight vectors over Z/Q/R and their admissibility classes.

A weight vector is a nonempty tuple of nonnegative scalars with positive
sum (class ``W``).  Class ``W0`` additionally requires a positive first
entry.  Entries are kept homogeneous per vector: either all exact
rationals (``fractions.Fraction``; integers are stored as rationals) or
all floats.  Exactness matters for the rational step-function geometry,
so rational-mode arithmetic never rounds.

The class ``V`` of a vector in ``W0`` holds when the ratio sequence
``w_k / (w_1 + ... + w_k)`` is nonincreasing; this is the admissibility
condition for the weighted prefix-mean inequality.  The ratio test is
exact in both modes: the entries (floats as the rationals they exactly
represent) are scaled to integers over one common denominator and
compared by integer cross-multiplication, so there is no epsilon and ties
count as nonincreasing.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    AllZero,
    FirstWeightZero,
    FloatOverflow,
    LengthMismatch,
    NegativeWeight,
    NonfiniteWeight,
    NonpositiveScale,
    ZeroDenominator,
)

Scalar = Union[int, float, Fraction]

RATIONAL = "rational"
FLOAT = "float"


class WeightVector(Sequence):
    """Validated immutable weight vector.

    Use :func:`make_weights` instead of calling this directly.
    """

    __slots__ = ("entries", "mode", "_floats")

    def __init__(self, entries: tuple, mode: str):
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "_floats", None)

    def __setattr__(self, name, value):
        raise AttributeError("WeightVector is immutable")

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self) -> Iterator:
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightVector) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self) -> str:
        inner = ", ".join(str(e) for e in self.entries)
        return f"WeightVector([{inner}], mode={self.mode})"

    def as_floats(self) -> tuple:
        """Entries converted to floats (cached).

        Raises :class:`FloatOverflow` when an entry or the sum of the
        entries is beyond the float range.
        """
        cached = self._floats
        if cached is None:
            cached = floats_in_range(map(float, self.entries))
            object.__setattr__(self, "_floats", cached)
        return cached


def floats_in_range(floats: Iterable[float]) -> tuple:
    """The float weights ``floats`` as a tuple, raising
    :class:`FloatOverflow` when one of them (an ``OverflowError`` while
    they are computed) or their sum is beyond the float range."""
    try:
        out = tuple(floats)
    except OverflowError:
        raise FloatOverflow("a weight is beyond the float range") from None
    if sum(out) == math.inf:
        raise FloatOverflow(f"the weights {list(out)} sum beyond the float range")
    return out


def make_weights(entries: Iterable[Scalar], cls: str = "W") -> WeightVector:
    """Validate ``entries`` as a weight vector of class ``W`` or ``W0``.

    Integers and Fractions yield a rational-mode vector; floats yield a
    float-mode vector.  Mixing floats with exact rationals is rejected to
    avoid silent loss of exactness, and so are NaN and infinite entries.
    """
    if cls not in ("W", "W0"):
        raise ValueError(f"unknown weight class {cls!r} (expected 'W' or 'W0')")
    items = list(entries)
    if not items:
        raise AllZero("weight vector must be nonempty")
    if all(type(e) is Fraction for e in items):  # already exact: kept as they are
        vals: tuple = tuple(items)
        mode = RATIONAL
    else:
        has_float = any(isinstance(e, float) for e in items)
        has_fraction = any(isinstance(e, Fraction) and e.denominator != 1 for e in items)
        if has_float and has_fraction:
            raise ValueError("cannot mix float and exact-rational weight entries")
        if has_float:
            vals = tuple(float(e) for e in items)
            mode = FLOAT
            if not all(map(math.isfinite, vals)):
                raise NonfiniteWeight(f"non-finite weight in {list(vals)}")
        else:
            vals = tuple(Fraction(e) for e in items)
            mode = RATIONAL
    # a Fraction's sign is its numerator's, and an int comparison is cheaper
    signs = [v.numerator for v in vals] if mode == RATIONAL else vals
    for v, sign in zip(vals, signs):
        if sign < 0:
            raise NegativeWeight(f"negative weight {v}")
    if not any(sign > 0 for sign in signs):
        raise AllZero("weights sum to zero")
    if cls == "W0" and not signs[0] > 0:
        raise FirstWeightZero("first weight must be positive in class W0")
    return WeightVector(vals, mode)


def partial_sums(w: WeightVector) -> tuple:
    """Cumulative sums ``(w_1, w_1+w_2, ...)``; exact in rational mode."""
    return tuple(itertools.accumulate(w.entries))


def integers_over_lcm(values: Iterable) -> tuple:
    """``(nums, q)`` with ``values[k] == nums[k] / q`` exactly, ``q`` the lcm
    of the denominators of the exact values (``Fraction``s, or floats as
    ``float.as_integer_ratio`` gives them), with one multiplier per distinct
    denominator.  Float denominators are powers of two, whose lcm is the
    largest of them."""
    ratios = [v.as_integer_ratio() for v in values]
    dens = {d for _, d in ratios}
    q = math.lcm(*dens)
    mult = {d: q // d for d in dens}
    return [a * mult[d] for a, d in ratios], q


def is_in_V(w: WeightVector) -> bool:
    """Exact test that the ratio sequence ``w_k / cumsum_k`` is nonincreasing.

    Requires a positive first weight.  Both modes scale the entries to
    integers over one common denominator (see :func:`integers_over_lcm`;
    floats count as the rationals they represent) and compare consecutive
    ratios by integer cross-multiplication, so there is no rounding and
    equal consecutive ratios pass.
    """
    if not w.entries[0] > 0:
        raise FirstWeightZero("ratio test requires a class-W0 vector")
    a = integers_over_lcm(w.entries)[0]
    acc = a[0]
    for prev, cur in zip(a, a[1:]):
        nxt = acc + cur
        # prev / acc >= cur / nxt, cross-multiplied (denominators > 0)
        if prev * nxt < cur * acc:
            return False
        acc = nxt
    return True


def scale(w: WeightVector, t: Scalar) -> WeightVector:
    """Entrywise positive rescaling; preserves mode where possible."""
    if not t > 0:
        raise NonpositiveScale(f"scale factor must be positive, got {t}")
    if w.mode == RATIONAL and not isinstance(t, float):
        return WeightVector(tuple(v * Fraction(t) for v in w.entries), RATIONAL)
    tf = float(t)
    return WeightVector(tuple(float(v) * tf for v in w.entries), FLOAT)


def shuffle(a: Sequence, b: Sequence) -> list:
    """Interleave two equal-length sequences: ``(a1, b1, a2, b2, ...)``."""
    if len(a) != len(b):
        raise LengthMismatch(f"shuffle of lengths {len(a)} and {len(b)}")
    out = []
    for x, y in zip(a, b):
        out.append(x)
        out.append(y)
    return out


def clear_denominators(w: WeightVector) -> WeightVector:
    """Rescale a rational-mode vector by the lcm of its denominators.

    The result has integer entries and represents the same weighting (the
    entrywise ratio to ``w`` is one constant).
    """
    if w.mode != RATIONAL:
        raise ValueError("clear_denominators requires rational-mode weights")
    return WeightVector(tuple(map(Fraction, integers_over_lcm(w.entries)[0])), RATIONAL)


def scalar_from_string(s: str, exact: bool = True) -> Scalar:
    """Parse a decimal or ``p/q`` literal, exactly or as a float.

    A float is ``float(s)`` where that is finite and nonzero: both round
    the literal once, so it equals ``float(Fraction(s))``.  Every other
    literal takes the ``Fraction`` path, which gives ``-0`` as ``0.0``,
    rejects ``inf`` and ``nan``, raises :class:`FloatOverflow` beyond the
    float range and :class:`ZeroDenominator` on ``p/0``, and words the errors.
    """
    s = s.strip()
    if not exact:
        try:
            value = float(s)
        except ValueError:
            pass
        else:
            if value and math.isfinite(value):
                return value
    try:
        value = Fraction(s)  # accepts "3", "0.25" and "1/2"
    except ZeroDivisionError as exc:
        raise ZeroDenominator(f"{s} has a zero denominator") from exc
    if exact:
        return value
    try:
        return float(value)
    except OverflowError:
        raise FloatOverflow(f"{s} is beyond the float range") from None


def weights_from_strings(items: Iterable[str], cls: str = "W",
                         exact: bool = True) -> WeightVector:
    """Build a weight vector from decimal or ``p/q`` string literals."""
    return make_weights([scalar_from_string(s, exact=exact) for s in items], cls)


def as_weight_vector(w, cls: str = "W") -> WeightVector:
    """Coerce a WeightVector or plain sequence into a validated vector."""
    if isinstance(w, WeightVector):
        if cls == "W0" and not w.entries[0] > 0:
            raise FirstWeightZero("first weight must be positive here")
        return w
    return make_weights(w, cls)
