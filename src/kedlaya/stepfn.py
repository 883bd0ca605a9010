"""Exact-rational intervals, rectangles, and piecewise-constant functions.

Geometry here is exact: interval endpoints are ``fractions.Fraction``
values, partitions are validated by exact comparison, and measures are
accounted without rounding.  Only the *values* carried by the pieces are
floats, converted to weights at the evaluation boundary, so no geometric
roundoff can corrupt the weighting of a mean.

The module provides the proportional-subset construction (a subset of a
rectangle whose every axis-parallel slice has a prescribed fraction of
the full slice measure), integrals of step functions under a weighted
mean, the two sides of the swap inequality between the arithmetic
integral and the mean integral, and the block construction that reduces
the telescoping step of the weighted prefix-mean inequality to that swap
inequality.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import LengthMismatch, NonpositiveWeight, ThetaOutOfRange, WeightsNotInV
from .means import MeanHandle, evaluate, weighted_average
from .weights import RATIONAL, as_weight_vector, partial_sums


class _QIntervalBase(NamedTuple):
    lower: Fraction
    upper: Fraction


class QInterval(_QIntervalBase):
    """Half-open interval ``[lower, upper)`` with rational endpoints."""

    __slots__ = ()

    def __new__(cls, lower, upper):
        lower, upper = Fraction(lower), Fraction(upper)
        if not lower < upper:
            raise ValueError(f"need lower < upper, got [{lower}, {upper})")
        return super().__new__(cls, lower, upper)

    @property
    def length(self) -> Fraction:
        return self.upper - self.lower

    def contains(self, v) -> bool:
        return self.lower <= v < self.upper


class QRectangle(NamedTuple):
    """Cartesian product of two rational half-open intervals."""

    dx: QInterval
    dy: QInterval

    @property
    def area(self) -> Fraction:
        return self.dx.length * self.dy.length

    def contains_rect(self, other: "QRectangle") -> bool:
        return (self.dx.lower <= other.dx.lower and other.dx.upper <= self.dx.upper
                and self.dy.lower <= other.dy.lower and other.dy.upper <= self.dy.upper)


def rect(x0, x1, y0, y1) -> QRectangle:
    return QRectangle(QInterval(x0, x1), QInterval(y0, y1))


# ---------------------------------------------------------------------------
# Step functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimpleFunction1D:
    """Piecewise-constant function on a chain of adjacent rational intervals.

    ``pieces`` must be ordered with each interval's upper endpoint equal
    (exactly) to the next one's lower endpoint.
    """

    pieces: tuple  # of (QInterval, float)

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("need at least one piece")
        for (a, _), (b, _) in zip(self.pieces, self.pieces[1:]):
            if a.upper != b.lower:
                raise ValueError(
                    f"pieces do not chain: [{a.lower},{a.upper}) then "
                    f"[{b.lower},{b.upper})")

    @property
    def support(self) -> QInterval:
        return QInterval(self.pieces[0][0].lower, self.pieces[-1][0].upper)

    def values(self) -> list:
        return [v for _, v in self.pieces]

    def lengths(self) -> list:
        return [iv.length for iv, _ in self.pieces]


class SimpleFunction2D:
    """Piecewise-constant function on an exact tiling of a rectangle.

    Construction refines all piece endpoints into a rational breakpoint
    grid and requires every grid cell to be covered by exactly one piece,
    which checks pairwise disjointness and full coverage at once.  The
    refined grid is kept for slicing.
    """

    __slots__ = ("bounding", "pieces", "xs", "ys", "_values")

    def __init__(self, bounding: QRectangle, pieces: Sequence[tuple]):
        pieces = tuple((r, float(v)) for r, v in pieces)
        if not pieces:
            raise ValueError("need at least one piece")
        for r, _ in pieces:
            if not bounding.contains_rect(r):
                raise ValueError(f"piece {r} escapes the bounding rectangle")
        xs = {bounding.dx.lower, bounding.dx.upper}
        ys = {bounding.dy.lower, bounding.dy.upper}
        for r, _ in pieces:
            xs.add(r.dx.lower)
            xs.add(r.dx.upper)
            ys.add(r.dy.lower)
            ys.add(r.dy.upper)
        xs = sorted(xs)
        ys = sorted(ys)
        xi = {v: i for i, v in enumerate(xs)}
        yi = {v: i for i, v in enumerate(ys)}
        counts = np.zeros((len(xs) - 1, len(ys) - 1), dtype=np.int32)
        values = np.zeros_like(counts, dtype=np.float64)
        for r, v in pieces:
            i0, i1 = xi[r.dx.lower], xi[r.dx.upper]
            j0, j1 = yi[r.dy.lower], yi[r.dy.upper]
            counts[i0:i1, j0:j1] += 1
            values[i0:i1, j0:j1] = v
        if not (counts == 1).all():
            missed = int((counts == 0).sum())
            doubled = int((counts > 1).sum())
            raise ValueError(
                f"pieces do not tile the bounding rectangle exactly "
                f"({missed} uncovered cells, {doubled} overlapped cells)")
        self.bounding = bounding
        self.pieces = pieces
        self.xs = xs            # exact x breakpoints, ascending
        self.ys = ys            # exact y breakpoints, ascending
        self._values = values   # refined value grid, shape (len(xs)-1, len(ys)-1)

    def value_grid(self) -> np.ndarray:
        return self._values

    def x_lengths(self) -> list:
        return [b - a for a, b in zip(self.xs, self.xs[1:])]

    def y_lengths(self) -> list:
        return [b - a for a, b in zip(self.ys, self.ys[1:])]

    def column_profile(self, i: int) -> dict:
        """Exact value -> total y-measure map of the i-th x-cell's slice."""
        out: dict = {}
        col = self._values[i]
        for j, length in enumerate(self.y_lengths()):
            v = float(col[j])
            out[v] = out.get(v, Fraction(0)) + length
        return out

    def value_at(self, x, y) -> float:
        """Point evaluation (exact cell lookup)."""
        x, y = Fraction(x), Fraction(y)
        if not (self.bounding.dx.contains(x) and self.bounding.dy.contains(y)):
            raise ValueError(f"({x}, {y}) outside the domain")
        i = _cell_index(self.xs, x)
        j = _cell_index(self.ys, y)
        return float(self._values[i, j])


def _cell_index(breaks: list, v: Fraction) -> int:
    return bisect.bisect_right(breaks, v) - 1


# ---------------------------------------------------------------------------
# Proportional subsets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProportionalSet:
    """A finite union of rational rectangles inside ``host`` claimed to
    meet every axis-parallel slice in exactly ``theta`` of its measure."""

    rectangles: tuple
    theta: Fraction
    host: QRectangle


def proportional_set(host: QRectangle, theta) -> ProportionalSet:
    """The wrapped-diagonal construction of a proportional subset.

    For ``theta = p/q`` (lowest terms) the unit square is cut into a
    ``q x q`` cell grid; column ``i`` keeps the ``p`` cells at rows
    ``i, i+1, ..., i+p-1`` taken modulo ``q``, so every row also keeps
    exactly ``p`` cells.  The cells are mapped onto ``host`` by the
    affine bijection in exact rational arithmetic: at most ``p*q``
    rectangles, one per selected cell.
    """
    theta = Fraction(theta)
    if not 0 <= theta <= 1:
        raise ThetaOutOfRange(f"theta must be in [0, 1], got {theta}")
    p, q = theta.numerator, theta.denominator
    ax, bx = host.dx.lower, host.dx.upper
    ay, by = host.dy.lower, host.dy.upper
    xs = [ax + Fraction(i, q) * (bx - ax) for i in range(q + 1)]
    ys = [ay + Fraction(jj, q) * (by - ay) for jj in range(q + 1)]
    cols = [QInterval(xs[i], xs[i + 1]) for i in range(q)]
    rows = [QInterval(ys[jj], ys[jj + 1]) for jj in range(q)]
    rectangles = [QRectangle(cols[i], rows[off % q])
                  for i in range(q) for off in range(i, i + p)]
    return ProportionalSet(tuple(rectangles), theta, host)


def _scale_to_ints(values: list) -> tuple:
    """Map Fractions to integers over the lcm of their denominators."""
    dens = {v.denominator for v in values}
    common = 1
    for d in dens:
        common = math.lcm(common, d)
    mult = {d: common // d for d in dens}
    return [v.numerator * mult[v.denominator] for v in values], common


def _sweep_axis(lows, highs, cross, host_lo, host_hi, tp, tq, full_cross,
                break_scale, cross_scale, axis: str, failures: list) -> None:
    """Exact slice check along one axis, entirely in integers.

    Between consecutive breakpoints the summed cross measure ``active``
    of the rectangles covering the cell must satisfy
    ``active * tq == tp * full_cross`` (the cross-multiplied form of
    ``theta * |cross side|``).
    """
    at = defaultdict(int)
    for lo, hi, c in zip(lows, highs, cross):
        at[lo] += c
        at[hi] -= c
    at.setdefault(host_lo, 0)
    at.setdefault(host_hi, 0)
    breaks = sorted(at)
    want = tp * full_cross
    active = 0
    for b, nxt in zip(breaks, breaks[1:]):
        active += at[b]
        if active * tq != want:
            failures.append(
                f"{axis}-slice on [{Fraction(b, break_scale)}, "
                f"{Fraction(nxt, break_scale)}) has cross measure "
                f"{Fraction(active, cross_scale)}, expected "
                f"{Fraction(tp * full_cross, tq * cross_scale)}")
    return None


def verify_proportionality(ps: ProportionalSet, explain: bool = False):
    """Exact check of the slice-measure property on both axes.

    Collects the distinct breakpoints of each axis, and for every open
    cell between consecutive breakpoints compares the summed cross
    measure of the covering rectangles against ``theta`` times the full
    cross length.  All coordinates are rescaled to integers over common
    denominators, so the comparison is exact and fast.  Returns ``False``
    (with slice diagnostics when ``explain``) when any slice misses;
    rectangles escaping the host fail immediately.
    """
    failures: list = []
    host = ps.host
    rs = ps.rectangles
    xvals = [host.dx.lower, host.dx.upper]
    yvals = [host.dy.lower, host.dy.upper]
    for r in rs:
        xvals.append(r.dx.lower)
        xvals.append(r.dx.upper)
        yvals.append(r.dy.lower)
        yvals.append(r.dy.upper)
    xi, xscale = _scale_to_ints(xvals)
    yi, yscale = _scale_to_ints(yvals)
    hx0, hx1 = xi[0], xi[1]
    hy0, hy1 = yi[0], yi[1]
    xlo, xhi = xi[2::2], xi[3::2]
    ylo, yhi = yi[2::2], yi[3::2]
    for k, r in enumerate(rs):
        if not (hx0 <= xlo[k] and xhi[k] <= hx1 and hy0 <= ylo[k] and yhi[k] <= hy1):
            failures.append(f"rectangle {r} escapes the host")
    if failures:
        return (False, failures) if explain else False

    tp, tq = ps.theta.numerator, ps.theta.denominator
    ycross = [b - a for a, b in zip(ylo, yhi)]
    _sweep_axis(xlo, xhi, ycross, hx0, hx1, tp, tq, hy1 - hy0,
                xscale, yscale, "x", failures)
    if not failures:
        xcross = [b - a for a, b in zip(xlo, xhi)]
        _sweep_axis(ylo, yhi, xcross, hy0, hy1, tp, tq, hx1 - hx0,
                    yscale, xscale, "y", failures)
    ok = not failures
    return (ok, failures) if explain else ok


# ---------------------------------------------------------------------------
# Mean integrals and the swap inequality
# ---------------------------------------------------------------------------

def m_integral(mean: MeanHandle, f: SimpleFunction1D) -> float:
    """Weighted mean of the piece values, weighted by exact piece lengths
    (lengths become floats only at the evaluation boundary)."""
    weights = [float(length) for length in f.lengths()]
    return evaluate(mean, f.values(), weights)


def jensen_fubini_sides(mean: MeanHandle, f: SimpleFunction2D) -> tuple:
    """Both sides of the swap inequality on a 2D step function.

    lhs: arithmetic integral over x of the mean integral over y of each
    vertical slice.  rhs: mean integral over y of the arithmetic average
    over x of each horizontal slice.  Slices come from the exact
    breakpoint refinement computed at construction.
    """
    grid = f.value_grid()
    wx = [float(v) for v in f.x_lengths()]
    wy = [float(v) for v in f.y_lengths()]
    inner = [evaluate(mean, grid[i].tolist(), wy) for i in range(grid.shape[0])]
    lhs = weighted_average(inner, wx)
    row_means = [
        weighted_average(grid[:, j].tolist(), wx) for j in range(grid.shape[1])
    ]
    rhs = evaluate(mean, row_means, wy)
    return lhs, rhs


# ---------------------------------------------------------------------------
# The proof-function construction
# ---------------------------------------------------------------------------

def _wrap_runs(start: int, length: int, q: int) -> list:
    """Cyclic run ``start .. start+length-1 (mod q)`` as linear column runs."""
    if length <= 0:
        return []
    if start + length <= q:
        return [(start, start + length)]
    return [(start, q), (0, start + length - q)]


def build_proof_function(x: Sequence[float], w, j: int) -> SimpleFunction2D:
    """Assemble the block step function whose swap-inequality sides equal
    the telescoping-step sides at index ``j``.

    The square ``[0, S_j)^2`` (``S_k`` the cumulative weights) is cut
    into left blocks ``[0, S_{j-1}) x [S_{k-1}, S_k)`` and right blocks
    ``[S_{j-1}, S_j) x [S_{k-1}, S_k)`` for ``k = 1..j``.  Inside the
    k-th left block a proportional subset with ratio
    ``w_j S_{k-1} / (w_k S_{j-1})`` carries the previous prefix
    arithmetic mean ``m_{k-1}``, its complement (materialized per grid
    row by exact set difference) carries ``m_k``, and the k-th right
    block carries ``x_k``.  Requires strictly positive rational weights
    with all those ratios at most 1, which is exactly the
    ratio-nonincreasing condition restricted to ``j``.
    """
    from .inequality import partial_arithmetic_means

    wv = as_weight_vector(w, "W0")
    if wv.mode != RATIONAL:
        raise ValueError("rational-mode weights required for exact geometry")
    n = len(wv)
    if not 2 <= j <= n:
        raise ValueError(f"j must be in [2, {n}], got {j}")
    lam = wv.entries
    if any(not v > 0 for v in lam):
        raise NonpositiveWeight("strictly positive weights required")
    if len(x) != n:
        raise LengthMismatch(f"{len(x)} entries vs {n} weights")

    sums = [Fraction(0)] + list(partial_sums(wv))  # sums[k] = S_k
    s_left, s_full = sums[j - 1], sums[j]
    m = partial_arithmetic_means(x, wv)

    thetas = []
    for k in range(1, j + 1):
        theta = (lam[j - 1] * sums[k - 1]) / (lam[k - 1] * s_left)
        if theta > 1:
            raise WeightsNotInV(
                f"ratio condition fails at k={k}: proportionality {theta} > 1")
        thetas.append(theta)

    pieces = []
    for k in range(1, j + 1):
        y0, y1 = sums[k - 1], sums[k]
        theta = thetas[k - 1]
        p, q = theta.numerator, theta.denominator
        xs = [s_left * Fraction(i, q) for i in range(q + 1)]
        ys = [y0 + (y1 - y0) * Fraction(r, q) for r in range(q + 1)]
        for r in range(q):
            if p > 0:
                # selected columns in row r form the cyclic run ending at r
                for c0, c1 in _wrap_runs((r - p + 1) % q, p, q):
                    pieces.append((rect(xs[c0], xs[c1], ys[r], ys[r + 1]),
                                   m[k - 2]))
            if p < q:
                for c0, c1 in _wrap_runs((r + 1) % q, q - p, q):
                    pieces.append((rect(xs[c0], xs[c1], ys[r], ys[r + 1]),
                                   m[k - 1]))
        pieces.append((rect(s_left, s_full, y0, y1), float(x[k - 1])))

    bounding = rect(0, s_full, 0, s_full)
    return SimpleFunction2D(bounding, pieces)


def verify_proof_construction(mean: MeanHandle, x, w, j: int,
                              tol: float = 1e-9) -> bool:
    """Check that the swap-inequality sides of the constructed function
    match the telescoping-step sides (normalized by the cumulative
    weight) within ``tol``, side by side."""
    wv = as_weight_vector(w, "W0")
    f = build_proof_function(x, wv, j)
    return _matches_step(mean, x, wv, j, jensen_fubini_sides(mean, f), tol)


def _matches_step(mean: MeanHandle, x, wv, j: int, swap_sides: tuple,
                  tol: float) -> bool:
    """Compare already computed swap sides with the step sides."""
    from .inequality import step_inequality

    jf_lhs, jf_rhs = swap_sides
    st_lhs, st_rhs = step_inequality(mean, x, wv, j)
    s_full = float(sum(wv.entries[:j]))
    ind_lhs, ind_rhs = st_lhs / s_full, st_rhs / s_full
    return (abs(jf_lhs - ind_lhs) <= tol * (1.0 + abs(ind_lhs))
            and abs(jf_rhs - ind_rhs) <= tol * (1.0 + abs(ind_rhs)))


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def function_to_json(f: SimpleFunction2D) -> dict:
    """Serialize with rationals as ``p/q`` strings."""
    return {
        "schema": 1,
        "domain": {
            "x": [str(f.bounding.dx.lower), str(f.bounding.dx.upper)],
            "y": [str(f.bounding.dy.lower), str(f.bounding.dy.upper)],
        },
        "pieces": [
            {"x": [str(r.dx.lower), str(r.dx.upper)],
             "y": [str(r.dy.lower), str(r.dy.upper)],
             "value": v}
            for r, v in f.pieces
        ],
    }


def function_from_json(obj: dict) -> SimpleFunction2D:
    dom = obj["domain"]
    bounding = rect(Fraction(dom["x"][0]), Fraction(dom["x"][1]),
                    Fraction(dom["y"][0]), Fraction(dom["y"][1]))
    pieces = [
        (rect(Fraction(p["x"][0]), Fraction(p["x"][1]),
              Fraction(p["y"][0]), Fraction(p["y"][1])), float(p["value"]))
        for p in obj["pieces"]
    ]
    return SimpleFunction2D(bounding, pieces)
