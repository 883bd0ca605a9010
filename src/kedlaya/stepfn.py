"""Exact-rational intervals, rectangles, and piecewise-constant functions.

Geometry here is exact, in integers over one scale per axis: constructions
hand over the integer coordinates they know, and ``integers_over_lcm`` maps
the ``fractions.Fraction`` endpoints of outside pieces.  Tilings are checked by
area and corner parity and slice measures read off integer sweep lines over
the piece endpoints, with no dense grid.  Only the *values*
carried by the pieces are floats; measures become float weights at the
evaluation boundary, so no geometric roundoff can corrupt a mean.

The module provides the proportional-subset construction (a subset of a
rectangle whose every axis-parallel slice has a prescribed fraction of
the full slice measure), integrals of step functions under a weighted
mean, the two sides of the swap inequality between the arithmetic
integral and the mean integral, and the block construction that reduces
the telescoping step of the weighted prefix-mean inequality to that swap
inequality.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import LengthMismatch, NonpositiveWeight, ThetaOutOfRange, WeightsNotInV
from .means import MeanHandle, evaluate, weighted_average
from .weights import RATIONAL, as_weight_vector, integers_over_lcm, partial_sums


class _QIntervalBase(NamedTuple):
    lower: Fraction
    upper: Fraction


class QInterval(_QIntervalBase):
    """Half-open interval ``[lower, upper)`` with rational endpoints."""

    __slots__ = ()

    def __new__(cls, lower, upper):
        if type(lower) is not Fraction or type(upper) is not Fraction:
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

    def values(self) -> list:
        return [v for _, v in self.pieces]

    def lengths(self) -> list:
        return [iv.length for iv, _ in self.pieces]


class _Axis(NamedTuple):
    """One axis of a host and its rectangles, in integers over ``scale``."""

    lo: int
    hi: int
    lows: list
    highs: list
    scale: int

    def extents(self) -> list:
        return [b - a for a, b in zip(self.lows, self.highs)]

    def fractions(self) -> dict:
        """One Fraction per distinct coordinate of the rectangles."""
        return {v: Fraction(v, self.scale) for v in {*self.lows, *self.highs}}


def _axes(host: QRectangle, rects) -> tuple:
    """The x and y :class:`_Axis` of ``host`` and ``rects``."""
    xvals, yvals = list(host.dx), list(host.dy)
    for r in rects:
        xvals += r.dx
        yvals += r.dy
    return tuple(_Axis(lo, hi, ends[::2], ends[1::2], scale)
                 for (lo, hi, *ends), scale in map(integers_over_lcm, (xvals, yvals)))


def _escaping(xa: _Axis, ya: _Axis) -> list:
    """Indices of the rectangles that are empty or escape the host."""
    return [k for k, (a, b, c, d) in enumerate(zip(xa.lows, xa.highs, ya.lows, ya.highs))
            if not (xa.lo <= a < b <= xa.hi and ya.lo <= c < d <= ya.hi)]


class _Sweep(NamedTuple):
    """The slices between consecutive integer ``breaks`` of an axis:
    ``profiles[i]`` is slice i's sorted ``(value, cross measure)`` pairs,
    and ``widths`` maps each distinct profile to its summed slice width."""

    breaks: list
    profiles: list
    widths: dict


def _sweep(axis: _Axis, cross: list, values) -> _Sweep:
    """One sweep line along ``axis``: each rectangle adds its value's cross
    measure at its lower endpoint and removes it at its upper one."""
    events = defaultdict(list, {axis.lo: [], axis.hi: []})
    for lo, hi, c, v in zip(axis.lows, axis.highs, cross, values):
        events[lo].append((v, c))
        events[hi].append((v, -c))
    breaks = sorted(events)
    active: dict = {}
    profiles, widths = [], {}
    for b, nxt in zip(breaks, breaks[1:]):
        for v, c in events[b]:
            m = active.get(v, 0) + c
            if m:
                active[v] = m
            else:
                del active[v]
        key = tuple(sorted(active.items()))
        widths[key] = widths.get(key, 0) + nxt - b
        profiles.append(key)
    return _Sweep(breaks, profiles, widths)


class SimpleFunction2D:
    """Piecewise-constant function on an exact tiling of a rectangle.

    A construction hands its integer coordinates to :meth:`_from_ints` and
    ``__init__`` scales its pieces to integers; both run the same O(pieces)
    checks: the piece areas sum to the bounding area, and the piece corners
    that occur an odd number of times are exactly the four bounding corners.
    Corner parity makes the coverage count odd on every cell and equal
    area then forces it to 1, so a hole plus an overlap of equal area
    fails too.  One sweep line per axis groups the slices by their exact
    value -> measure profile; no dense grid is built.
    """

    __slots__ = ("bounding", "_pieces", "_values", "_xa", "_ya", "_x", "_y")

    def __init__(self, bounding: QRectangle, pieces: Sequence[tuple]):
        pieces = tuple((r, float(v)) for r, v in pieces)
        if not pieces:
            raise ValueError("need at least one piece")
        self._tile(bounding, *_axes(bounding, [r for r, _ in pieces]), [v for _, v in pieces],
                   pieces)

    @classmethod
    def _from_ints(cls, bounding: QRectangle, xa: _Axis, ya: _Axis, values: list):
        """The function whose piece i is ``[xa.lows[i], xa.highs[i]) x [ya.lows[i],
        ya.highs[i])`` with float value ``values[i]``, checked as ``__init__`` checks it."""
        return cls.__new__(cls)._tile(bounding, xa, ya, values, None)

    def _tile(self, bounding: QRectangle, xa: _Axis, ya: _Axis, values: list, pieces):
        self.bounding, self._xa, self._ya, self._values = bounding, xa, ya, values
        self._pieces = pieces
        if escaping := _escaping(xa, ya):
            raise ValueError(f"piece {self.pieces[escaping[0]][0]} escapes the bounding rectangle")
        dx, dy = xa.extents(), ya.extents()
        area = sum(a * b for a, b in zip(dx, dy))
        if area != (xa.hi - xa.lo) * (ya.hi - ya.lo):
            raise ValueError(
                f"pieces do not tile the bounding rectangle exactly: their areas "
                f"sum to {Fraction(area, xa.scale * ya.scale)}, not {bounding.area}")
        odd: set = set()
        for a, b, c, d in zip(xa.lows, xa.highs, ya.lows, ya.highs):
            odd.symmetric_difference_update(((a, c), (a, d), (b, c), (b, d)))
        corners = {(x, y) for x in (xa.lo, xa.hi) for y in (ya.lo, ya.hi)}
        if odd != corners:
            x, y = min(odd ^ corners)
            raise ValueError(
                f"pieces do not tile the bounding rectangle exactly: corner "
                f"({Fraction(x, xa.scale)}, {Fraction(y, ya.scale)}) occurs an "
                f"{'even' if (x, y) in corners else 'odd'} number of times")
        self._x = _sweep(xa, dy, values)
        self._y = _sweep(ya, dx, values)
        return self

    def _boxes(self):  # (x0, x1, y0, y1, value) of each piece, in integers
        return zip(self._xa.lows, self._xa.highs, self._ya.lows, self._ya.highs, self._values)

    @property
    def pieces(self) -> tuple:
        """``(QRectangle, value)`` pairs; a construction's are built on first
        use, from one Fraction per distinct coordinate."""
        if self._pieces is None:
            x, y = self._xa.fractions(), self._ya.fractions()
            self._pieces = tuple((rect(x[a], x[b], y[c], y[d]), v)
                                 for a, b, c, d, v in self._boxes())
        return self._pieces

    @property
    def xs(self) -> list:  # exact breakpoints, ascending
        return [Fraction(b, self._xa.scale) for b in self._x.breaks]

    @property
    def ys(self) -> list:
        return [Fraction(b, self._ya.scale) for b in self._y.breaks]

    def value_grid(self) -> np.ndarray:
        """Dense values on the breakpoint cells, shape ``(len(xs)-1,
        len(ys)-1)``, from the integer axes.  A view for the benchmark's
        tracer and for tests; nothing in the library reads it."""
        xi = {b: i for i, b in enumerate(self._x.breaks)}
        yi = {b: i for i, b in enumerate(self._y.breaks)}
        grid = np.empty((len(xi) - 1, len(yi) - 1))
        for a, b, c, d, v in self._boxes():
            grid[xi[a]:xi[b], yi[c]:yi[d]] = v
        return grid


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


def verify_proportionality(ps: ProportionalSet, explain: bool = False):
    """Exact check of the slice-measure property on both axes.

    A sweep line along each axis, in integers over common denominators,
    compares the summed cross measure of every slice with ``theta`` times
    the full cross length.  Returns ``False`` (with slice diagnostics when
    ``explain``) when any slice misses; rectangles escaping the host fail
    immediately.
    """
    xa, ya = _axes(ps.host, ps.rectangles)
    failures = [f"rectangle {ps.rectangles[k]} escapes the host" for k in _escaping(xa, ya)]
    tp, tq = ps.theta.numerator, ps.theta.denominator
    for name, axis, other in (("x", xa, ya), ("y", ya, xa)):
        if failures:
            break
        want = tp * (other.hi - other.lo)
        sweep = _sweep(axis, other.extents(), [0.0] * len(axis.lows))
        for b, nxt, profile in zip(sweep.breaks, sweep.breaks[1:], sweep.profiles):
            active = sum(m for _, m in profile)
            if active * tq != want:
                failures.append(
                    f"{name}-slice on [{Fraction(b, axis.scale)}, "
                    f"{Fraction(nxt, axis.scale)}) has cross measure "
                    f"{Fraction(active, other.scale)}, expected "
                    f"{Fraction(want, tq * other.scale)}")
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
    over x of each horizontal slice.  Both read the distinct slice
    profiles of the construction's sweeps, each once, weighted by its
    summed width; exact measures become floats only here.
    """
    sx, sy = f._xa.scale, f._ya.scale
    inner = [evaluate(mean, [v for v, _ in p], [m / sy for _, m in p])
             for p in f._x.widths]
    lhs = weighted_average(inner, [w / sx for w in f._x.widths.values()])
    row_means = [weighted_average([v for v, _ in p], [m / sx for _, m in p])
                 for p in f._y.widths]
    rhs = evaluate(mean, row_means, [h / sy for h in f._y.widths.values()])
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
    thetas = [(lam[j - 1] * sums[k - 1]) / (lam[k - 1] * s_left) for k in range(1, j + 1)]
    if bad := next((k for k, theta in enumerate(thetas, 1) if theta > 1), 0):
        raise WeightsNotInV(
            f"ratio condition fails at k={bad}: proportionality {thetas[bad - 1]} > 1")
    # One integer scale per axis, X = sx and Y = sy: column i of block k is
    # S_{j-1} X i / q_k and row r is S_{k-1} Y + (w_k Y / q_k) r, exactly.
    qs = [t.denominator for t in thetas]
    sx = math.lcm(s_full.denominator, *(s_left.denominator * q for q in qs))
    sy = math.lcm(*(v.denominator * q for v, q in zip(lam, qs)))  # den(S_k) divides it
    left, full = int(s_left * sx), int(s_full * sx)
    pieces = []  # (x0, x1, y0, y1, value)
    for k, theta in enumerate(thetas, 1):
        p, q = theta.numerator, theta.denominator
        col, y0, step = left // q, int(sums[k - 1] * sy), int(lam[k - 1] * sy) // q
        for r in range(q):
            lo = y0 + step * r
            # selected columns in row r form the cyclic run ending at r
            for start, length, value in (((r - p + 1) % q, p, m[k - 2]),
                                         ((r + 1) % q, q - p, m[k - 1])):
                pieces += [(col * c0, col * c1, lo, lo + step, value)
                           for c0, c1 in _wrap_runs(start, length, q)]
        pieces.append((left, full, y0, y0 + step * q, float(x[k - 1])))
    xl, xh, yl, yh, values = map(list, zip(*pieces))
    return SimpleFunction2D._from_ints(rect(0, s_full, 0, s_full), _Axis(0, full, xl, xh, sx),
                                       _Axis(0, int(s_full * sy), yl, yh, sy), values)


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
    """Serialize with rationals as ``p/q`` strings, one reduced string per
    distinct integer coordinate (the domain's corners are piece corners);
    ``f.pieces`` is never built."""
    xa, ya = f._xa, f._ya
    xt, yt = ({v: str(q) for v, q in a.fractions().items()} for a in (xa, ya))
    return {"schema": 1,
            "domain": {"x": [xt[xa.lo], xt[xa.hi]], "y": [yt[ya.lo], yt[ya.hi]]},
            "pieces": [{"x": [xt[a], xt[b]], "y": [yt[c], yt[d]], "value": v}
                       for a, b, c, d, v in f._boxes()]}


def function_from_json(obj: dict) -> SimpleFunction2D:
    dom = obj["domain"]
    pieces = [(rect(*p["x"], *p["y"]), float(p["value"])) for p in obj["pieces"]]
    return SimpleFunction2D(rect(*dom["x"], *dom["y"]), pieces)
