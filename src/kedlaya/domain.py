"""Entry domains for means: real intervals with open/closed ends."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Interval:
    """A nonempty real interval, possibly unbounded.

    ``lo``/``hi`` may be ``-inf``/``inf``; the corresponding open flag is
    then irrelevant.
    """

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = True
    hi_open: bool = True

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, v: float) -> bool:
        """Whether ``v`` lies in the interval, elementwise on numpy arrays."""
        return ((v > self.lo if self.lo_open else v >= self.lo)
                & (v < self.hi if self.hi_open else v <= self.hi))

    def transform(self, a: float, b: float) -> "Interval":
        """Image of the interval under ``v -> a*v + b`` (``a != 0``)."""
        lo, hi = a * self.lo + b, a * self.hi + b
        if a > 0:
            return Interval(lo, hi, self.lo_open, self.hi_open)
        return Interval(hi, lo, self.hi_open, self.lo_open)


REALS = Interval()
POSITIVE = Interval(0.0, math.inf)                    # (0, inf)
NONNEGATIVE = Interval(0.0, math.inf, lo_open=False)  # [0, inf)

# Window carved out of an unbounded positive side: four decades around 1.
_POS_WINDOW = (1e-2, 1e2)
_LINEAR_SPAN = 100.0

# Sampling-window kinds.
LINEAR = "linear"
LOG = "log"         # log-uniform on a strictly positive window
NEG_LOG = "neglog"  # mirrored log-uniform on a strictly negative window


def sampling_window(domain: Interval) -> tuple[float, float, str]:
    """A finite window inside ``domain`` for randomized probing.

    Returns ``(lo, hi, kind)`` with ``kind`` one of ``LINEAR``, ``LOG``,
    ``NEG_LOG``.  Bounded sides are clipped 1% of the span inward;
    unbounded sides are replaced by defaults.  Strictly negative windows
    are defined as the mirror image of the mirrored domain's window, so a
    reflected domain samples exactly the negated stream.
    """
    lo, hi = domain.lo, domain.hi
    if hi <= 0.0:
        mlo, mhi, kind = sampling_window(domain.transform(-1.0, 0.0))
        return (-mhi, -mlo, NEG_LOG if kind == LOG else LINEAR)
    if math.isinf(lo) and math.isinf(hi):
        return (-_LINEAR_SPAN, _LINEAR_SPAN, LINEAR)
    if math.isinf(hi):
        if lo >= 0.0:
            return (lo + _POS_WINDOW[0], lo + _POS_WINDOW[1], LOG)
        return (lo + 0.01 * _LINEAR_SPAN, lo + _LINEAR_SPAN, LINEAR)
    if math.isinf(lo):
        return (hi - _LINEAR_SPAN, hi - 0.01 * _LINEAR_SPAN, LINEAR)
    span = hi - lo
    clo, chi = lo + 0.01 * span, hi - 0.01 * span
    return (clo, chi, LOG if clo > 0.0 else LINEAR)


def probe_points(domain: Interval, m: int) -> list[float]:
    """``m`` Chebyshev-spaced points of the domain's sampling window, ascending."""
    lo, hi, _ = sampling_window(domain)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return sorted(mid + half * math.cos(math.pi * (2 * k + 1) / (2 * m))
                  for k in range(m))
