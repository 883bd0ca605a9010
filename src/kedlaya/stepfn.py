"""Exact-rational intervals, rectangles, and piecewise-constant functions.

Geometry here is exact, in integers over one scale per axis: constructions
hand over the integer coordinates they know, and ``integers_over_lcm`` maps
the ``fractions.Fraction`` endpoints of outside pieces.  Sweep lines on arrays
indexed by coordinate rank (int64 below 2^63, Python ints beyond) read off
slice measures; tilings are checked by area and rank-packed corner parity,
with no dense grid.  Only the *values* carried by the pieces are floats;
measures become float weights at the evaluation boundary, so no geometric
roundoff can corrupt a mean.

The module provides the proportional-subset construction (a subset of a
rectangle whose every axis-parallel slice has a prescribed fraction of
the full slice measure), integrals of step functions under a weighted
mean, the two sides of the swap inequality between the arithmetic
integral and the mean integral, and the block construction that reduces
the telescoping step of the weighted prefix-mean inequality to that swap
inequality.  Its JSON wire format is columns (``function_columns``,
``rectangle_columns``), and ``function_to_json`` is their record view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import LengthMismatch, NonpositiveWeight, Overflow, ThetaOutOfRange, WeightsNotInV
from .means import MeanHandle, evaluate, weighted_average
from .weights import RATIONAL, as_weight_vector, integers_over_lcm, partial_sums

# The pieces a construction may make: 290 MB at the 1.1 KB a proof-fn piece costs at its
# peak RSS (210 B of JSON, its text columns, sweep rows and writer buffers; 0.9-1.1 KB
# measured at 3e4-1.2e5 pieces).
MAX_PIECES = 2 ** 18


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
    """One axis of a host and its rectangles, in integers over ``scale``:
    ``lows`` and ``highs`` are arrays, int64 while they fit and Python ints
    beyond; a function's axes are in the :func:`_dtype` of their sweeps."""

    lo: int
    hi: int
    lows: np.ndarray
    highs: np.ndarray
    scale: int

    def extents(self) -> np.ndarray:
        return self.highs - self.lows

    def cast(self, dtype=None) -> "_Axis":
        """The axis on ``dtype`` arrays; by default on int64 where its ends,
        its length and its coordinates fit, and on Python ints beyond."""
        if dtype is None:
            try:
                return self.cast(_int_dtype(self.lo, self.hi))
            except OverflowError:
                return self.cast(object)
        return self._replace(lows=np.asarray(self.lows, dtype), highs=np.asarray(self.highs, dtype))

    def _distinct(self) -> tuple:  # the distinct coordinates, and each end's index among them
        return np.unique(np.concatenate((self.lows, self.highs)), return_inverse=True)

    def fractions(self) -> dict:
        """One Fraction per distinct coordinate of the rectangles."""
        return {v: Fraction(v, self.scale) for v in self._distinct()[0].tolist()}

    def text_columns(self) -> tuple:
        """``lows`` and ``highs`` as reduced ``p/q`` strings: one gcd and one
        string per distinct coordinate."""
        coords, inverse = self._distinct()
        if self.scale >= 2 ** 63:
            coords = coords.astype(object)
        g = np.gcd(coords, self.scale)
        texts = np.array([f"{a}/{b}" if b != 1 else str(a) for a, b in
                          zip((coords // g).tolist(), (self.scale // g).tolist())], object)
        column = texts[inverse].tolist()
        return column[:len(self.lows)], column[len(self.lows):]


def _corners(xa: _Axis, ya: _Axis):  # (x0, x1, y0, y1) of each rectangle, in Python ints
    return zip(xa.lows.tolist(), xa.highs.tolist(), ya.lows.tolist(), ya.highs.tolist())


def _axes(host: QRectangle, rects) -> tuple:
    """The x and y :class:`_Axis` of ``host`` and ``rects``."""
    xvals, yvals = list(host.dx), list(host.dy)
    for r in rects:
        xvals += r.dx
        yvals += r.dy
    return tuple(_Axis(lo, hi, ends[::2], ends[1::2], scale).cast()
                 for (lo, hi, *ends), scale in map(integers_over_lcm, (xvals, yvals)))


def _escaping(xa: _Axis, ya: _Axis) -> list:
    """Indices of the rectangles that are empty or escape the host."""
    inside = ((xa.lo <= xa.lows) & (xa.lows < xa.highs) & (xa.highs <= xa.hi)
              & (ya.lo <= ya.lows) & (ya.lows < ya.highs) & (ya.highs <= ya.hi))
    return np.flatnonzero(~inside).tolist()


def _exact_sum(a) -> int:
    """The sum of the integers ``a``.  An int64 array is summed as its high
    and its low 31 bits, whose sums cannot overflow below 2^31 entries."""
    if isinstance(a, np.ndarray) and a.dtype == np.int64:
        return (int((a >> 31).sum()) << 31) + int((a & (2 ** 31 - 1)).sum())
    return sum(a)


class _Sweep(NamedTuple):
    """The slices between consecutive integer ``breaks`` of an axis:
    ``profiles[i]`` is slice i's ``(value, cross measure)`` pairs by value,
    ``widths`` maps each distinct profile, in order of first appearance, to
    its summed slice width, and ``ends`` holds the ranks in ``breaks`` of
    the pieces' lower and of their upper ends."""

    breaks: list
    profiles: list
    widths: dict
    ends: tuple


def _int_dtype(lo: int, hi: int, total: int = 0):
    """int64 while ``-lo``, ``hi``, ``hi - lo`` and ``total`` are below 2^63;
    Python ints beyond."""
    return np.int64 if max(-lo, hi, hi - lo, total) < 2 ** 63 else object


def _dtype(axis: _Axis, cross):
    """The :func:`_int_dtype` of ``axis`` and its summed ``cross`` measure,
    which bounds every partial sum of a sweep."""
    return _int_dtype(axis.lo, axis.hi, _exact_sum(cross))


def _sweep(axis: _Axis, cross, values, ranked=None) -> _Sweep:
    """One sweep line along ``axis`` on a table of breaks by distinct values,
    in :func:`_dtype`: each piece adds its cross measure to its value's
    column at the rank of its lower end and takes it off at the rank of its
    upper one, so a cumsum down the breaks leaves each slice's profile in
    its row.  Values are ranked by ``np.unique`` (``ranked``, where the
    caller has done it): -0.0 and 0.0 are one value, and so are all NaNs,
    which sort last."""
    n, dtype = len(cross), _dtype(axis, cross)
    breaks, rank = np.unique(np.concatenate((np.array([axis.lo, axis.hi], dtype),
                                             np.asarray(axis.lows, dtype),
                                             np.asarray(axis.highs, dtype))), return_inverse=True)
    lo, hi = rank[2:n + 2], rank[n + 2:]
    vals, col = np.unique(values, return_inverse=True) if ranked is None else ranked
    table, cross = np.zeros((len(breaks), len(vals)), dtype), np.asarray(cross, dtype)
    np.add.at(table, (lo, col), cross)
    np.add.at(table, (hi, col), -cross)
    index: dict = {}  # distinct rows in order of first appearance
    ids = [index.setdefault(row, len(index))
           for row in map(tuple, table.cumsum(axis=0)[:-1].tolist())]
    vals = vals.tolist()
    keys = [tuple((v, m) for v, m in zip(vals, row) if m) for row in index]
    widths = np.zeros(len(keys), dtype)
    np.add.at(widths, ids, np.diff(breaks))
    return _Sweep(breaks.tolist(), list(map(keys.__getitem__, ids)),
                  dict(zip(keys, widths.tolist())), (lo, hi))


class SimpleFunction2D:
    """Piecewise-constant function on an exact tiling of a rectangle.

    A construction hands its integer coordinates to :meth:`_from_ints` and
    ``__init__`` scales its pieces to integers; both run the same O(pieces)
    checks: the piece areas sum to the bounding area, and the piece corners
    that occur an odd number of times are exactly the four bounding corners.
    Corner parity makes the coverage count odd on every cell and equal
    area then forces it to 1, so a hole plus an overlap of equal area
    fails too.  One sweep line per axis groups the slices by their exact
    value -> measure profile and ranks the corners; no dense grid is built.
    """

    __slots__ = ("bounding", "_pieces", "_values", "_xa", "_ya", "_x", "_y")

    def __init__(self, bounding: QRectangle, pieces: Sequence[tuple]):
        pieces = tuple((r, float(v)) for r, v in pieces)
        if not pieces:
            raise ValueError("need at least one piece")
        self._tile(bounding, *_axes(bounding, [r for r, _ in pieces]), [v for _, v in pieces],
                   pieces)

    @classmethod
    def _from_ints(cls, bounding: QRectangle, xa: _Axis, ya: _Axis, values):
        """The function whose piece i is ``[xa.lows[i], xa.highs[i]) x [ya.lows[i],
        ya.highs[i])`` with float value ``values[i]``, checked as ``__init__`` checks it."""
        return cls.__new__(cls)._tile(bounding, xa, ya, values, None)

    def _tile(self, bounding: QRectangle, xa: _Axis, ya: _Axis, values, pieces):
        self.bounding, self._pieces = bounding, pieces
        self._xa, self._ya = xa, ya = xa.cast(), ya.cast()
        self._values = values = np.asarray(values, float)
        if escaping := _escaping(xa, ya):
            raise ValueError(f"piece {self.pieces[escaping[0]][0]} escapes the bounding rectangle")
        dx, dy = xa.extents(), ya.extents()
        # each product is at most the bounding area, so int64 holds it below 2^63
        full = (xa.hi - xa.lo) * (ya.hi - ya.lo)
        if (area := _exact_sum((dx if full < 2 ** 63 else dx.astype(object)) * dy)) != full:
            raise ValueError(
                f"pieces do not tile the bounding rectangle exactly: their areas "
                f"sum to {Fraction(area, xa.scale * ya.scale)}, not {bounding.area}")
        self._xa, self._ya = xa, ya = xa.cast(_dtype(xa, dy)), ya.cast(_dtype(ya, dx))
        ranked = np.unique(values, return_inverse=True)
        self._x, self._y = _sweep(xa, dy, values, ranked), _sweep(ya, dx, values, ranked)
        # corner parity over the sweeps' ranks, corner (xi, yi) packed as xi * ny + yi
        (a, b), (c, d), ny = self._x.ends, self._y.ends, len(self._y.breaks)
        packed, count = np.unique(np.concatenate([a * ny + c, a * ny + d, b * ny + c, b * ny + d]),
                                  return_counts=True)
        top = (len(self._x.breaks) - 1) * ny
        corners = {0, ny - 1, top, top + ny - 1}
        if odd := set(packed[count % 2 == 1].tolist()) ^ corners:
            x, y = divmod(min(odd), ny)
            raise ValueError(
                f"pieces do not tile the bounding rectangle exactly: corner "
                f"({Fraction(self._x.breaks[x], xa.scale)}, "
                f"{Fraction(self._y.breaks[y], ya.scale)}) occurs an "
                f"{'even' if min(odd) in corners else 'odd'} number of times")
        return self

    def _boxes(self):  # (x0, x1, y0, y1, value) of each piece, in Python ints and floats
        xa, ya = self._xa, self._ya
        return zip(*(a.tolist() for a in (xa.lows, xa.highs, ya.lows, ya.highs, self._values)))

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

class ProportionalSet:
    """A finite union of rational rectangles inside ``host`` claimed to
    meet every axis-parallel slice in exactly ``theta`` of its measure.

    The rectangles are held in integers over one scale per axis, as
    :class:`SimpleFunction2D` holds its pieces: :func:`proportional_set`
    hands over the integer coordinates it knows, and ``__init__`` maps its
    rectangles to integers once with :func:`_axes`.
    """

    __slots__ = ("theta", "host", "_xa", "_ya", "_rectangles")

    def __init__(self, rectangles: Sequence[QRectangle], theta, host: QRectangle):
        self._rectangles = tuple(rectangles)
        self.theta, self.host = theta, host
        self._xa, self._ya = _axes(host, self._rectangles)

    @classmethod
    def _from_ints(cls, theta: Fraction, host: QRectangle, xa: _Axis, ya: _Axis):
        """The set whose rectangle i is ``[xa.lows[i], xa.highs[i]) x
        [ya.lows[i], ya.highs[i])``."""
        ps = cls.__new__(cls)
        ps.theta, ps.host, ps._xa, ps._ya, ps._rectangles = theta, host, xa, ya, None
        return ps

    @property
    def rectangles(self) -> tuple:
        """The rectangles; a construction's are built on first use, from one
        Fraction per distinct coordinate."""
        if self._rectangles is None:
            x, y = self._xa.fractions(), self._ya.fractions()
            self._rectangles = tuple(rect(x[a], x[b], y[c], y[d])
                                     for a, b, c, d in _corners(self._xa, self._ya))
        return self._rectangles


def _edges(iv: QInterval, q: int) -> tuple:
    """``(lo, hi, edges, scale)``: the ``q + 1`` points ``lower + (upper - lower) i / q``
    of ``iv`` in integers over ``scale = lcm(den lower, den upper) q``, ``lo`` and ``hi``
    the ends, ``edges`` all of them on an array in :func:`_int_dtype`."""
    scale = math.lcm(iv.lower.denominator, iv.upper.denominator) * q
    lo, hi = (v.numerator * (scale // v.denominator) for v in iv)
    return lo, hi, lo + (hi - lo) // q * np.arange(q + 1, dtype=_int_dtype(lo, hi)), scale


def proportional_set(host: QRectangle, theta) -> ProportionalSet:
    """The wrapped-diagonal construction of a proportional subset.

    For ``theta = p/q`` (lowest terms) the unit square is cut into a
    ``q x q`` cell grid; column ``i`` keeps the ``p`` cells at rows
    ``i, i+1, ..., i+p-1`` taken modulo ``q``, so every row also keeps
    exactly ``p`` cells.  The cells are mapped onto ``host`` by the
    affine bijection, exactly, in integers over one scale per axis: at
    most ``p*q`` rectangles, one per selected cell, up to :data:`MAX_PIECES`.
    """
    theta = Fraction(theta)
    if not 0 <= theta <= 1:
        raise ThetaOutOfRange(f"theta must be in [0, 1], got {theta}")
    p, q = theta.numerator, theta.denominator
    if p * q > MAX_PIECES:
        raise Overflow(f"the proportional set of theta = {theta} has {p * q} pieces, more "
                       f"than the bound of {MAX_PIECES}")
    cols = np.repeat(np.arange(q), p)
    rows = (cols + np.tile(np.arange(p), q)) % q
    (xlo, xhi, xs, sx), (ylo, yhi, ys, sy) = _edges(host.dx, q), _edges(host.dy, q)
    return ProportionalSet._from_ints(theta, host, _Axis(xlo, xhi, xs[cols], xs[cols + 1], sx),
                                      _Axis(ylo, yhi, ys[rows], ys[rows + 1], sy))


def verify_proportionality(ps: ProportionalSet, explain: bool = False):
    """Exact check of the slice-measure property on both axes.

    A sweep line along each axis, on the set's integer coordinates,
    compares the summed cross measure of every slice with ``theta`` times
    the full cross length.  Returns ``False`` (with slice diagnostics when
    ``explain``) when any slice misses; rectangles escaping the host fail
    immediately.
    """
    xa, ya = ps._xa, ps._ya
    failures = [f"rectangle {ps.rectangles[k]} escapes the host" for k in _escaping(xa, ya)]
    tp, tq = ps.theta.numerator, ps.theta.denominator
    for name, axis, other in (("x", xa, ya), ("y", ya, xa)):
        if failures:
            break
        want = tp * (other.hi - other.lo)
        sweep = _sweep(axis, other.extents(), np.zeros(len(axis.lows)))
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

    Block ``k`` (``theta_k = p/q``) has ``q`` rows of runs of ``p`` and ``q - p``
    columns, ``p - 1`` and ``q - p - 1`` of which wrap, and a right block: ``3q -
    1`` pieces, or 2 at ``theta_k`` 0 or 1, counted first up to :data:`MAX_PIECES`.
    """
    from .inequality import partial_arithmetic_means

    wv = as_weight_vector(w)
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
    if (count := sum(3 * q - 1 if 0 < t < 1 else 2 for t, q in zip(thetas, qs))) > MAX_PIECES:
        raise Overflow(f"the proof function at j={j} has {count} pieces, more than the "
                       f"bound of {MAX_PIECES}")
    sx = math.lcm(s_full.denominator, *(s_left.denominator * q for q in qs))
    sy = math.lcm(*(v.denominator * q for v, q in zip(lam, qs)))  # den(S_k) divides it
    left, full, top = int(s_left * sx), int(s_full * sx), int(s_full * sy)
    qa = np.array(qs)
    b = np.repeat(np.arange(j), qa)  # row i of the left blocks is row r[i] of block b[i] + 1
    r = np.arange(len(b)) - (np.cumsum(qa) - qa)[b]
    p, q = np.array([t.numerator for t in thetas])[b], qa[b]
    # Row r keeps the cyclic run of p columns ending at r and gives the q - p
    # after it to m_k.  Slots 0-3 of a row are those runs, each split where it
    # wraps, and slot 4 is the right block, kept after the block's last row;
    # taken row by row, the kept slots are the pieces block by block.
    s1, s2 = (r - p + 1) % q, (r + 1) % q
    e1, e2 = s1 + p, s2 + q - p
    keep = np.array([p > 0, e1 > q, p < q, e2 > q, r == q - 1]).T
    col = np.array([left // q for q in qs], _int_dtype(0, full))[b]
    xl = col * np.array([s1, 0 * r, s2, 0 * r, q])  # col * q is left
    xh = col * np.array([np.minimum(e1, q), e1 - q, np.minimum(e2, q), e2 - q, q])
    xh[4] = full
    ys = np.array([int(v * sy) for v in sums[:j + 1]], _int_dtype(0, top))
    step = np.array([int(v * sy) // q for v, q in zip(lam, qs)], ys.dtype)[b]
    yl = np.repeat((ys[b] + step * r)[None], 5, axis=0)
    yh = yl + step
    yl[4], yh[4] = ys[b], ys[b + 1]
    mk = np.array(m[:j])
    values = np.array([mk[np.arange(j) - 1]] * 2 + [mk] * 2 + [np.array(x[:j], float)])[:, b]
    return SimpleFunction2D._from_ints(rect(0, s_full, 0, s_full),
                                       _Axis(0, full, xl.T[keep], xh.T[keep], sx),
                                       _Axis(0, top, yl.T[keep], yh.T[keep], sy), values.T[keep])


def verify_proof_construction(mean: MeanHandle, x, w, j: int,
                              tol: float = 1e-9) -> bool:
    """Check that the swap-inequality sides of the constructed function
    match the telescoping-step sides (normalized by the cumulative
    weight) within ``tol``, side by side."""
    wv = as_weight_vector(w)
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

def _ratio_text(v: int, scale: int) -> str:
    """``str(Fraction(v, scale))`` for ``scale > 0``, from one gcd."""
    g = math.gcd(v, scale)
    return str(v // g) if g == scale else f"{v // g}/{scale // g}"


def _record_view(table: dict) -> list:
    """The records of a column table: one dict per row, a field that is a
    nonempty tuple of columns giving each record a list of its row's items."""
    cols = [map(list, zip(*field)) if isinstance(field, tuple) else field
            for field in table.values()]
    return [dict(zip(table, row)) for row in zip(*cols)]


def function_columns(f: SimpleFunction2D) -> dict:
    """The wire format of ``f``, its pieces a column table: ``"value"`` the piece
    values, ``"x"`` and ``"y"`` the :meth:`_Axis.text_columns` of the lower and
    upper ends; neither ``f.pieces`` nor a Fraction is built."""
    xa, ya = f._xa, f._ya
    return {"schema": 1,
            "domain": {"x": [_ratio_text(xa.lo, xa.scale), _ratio_text(xa.hi, xa.scale)],
                       "y": [_ratio_text(ya.lo, ya.scale), _ratio_text(ya.hi, ya.scale)]},
            "pieces": {"x": xa.text_columns(), "y": ya.text_columns(), "value": f._values.tolist()}}


def function_to_json(f: SimpleFunction2D) -> dict:
    """:func:`function_columns` with its pieces as records ``{"x": [lo, hi],
    "y": [lo, hi], "value": v}``."""
    doc = function_columns(f)
    doc["pieces"] = _record_view(doc["pieces"])
    return doc


def rectangle_columns(ps: ProportionalSet) -> dict:
    """The rectangles of ``ps`` as a column table of their ``"x"`` and ``"y"``
    ends, as :func:`function_columns` gives pieces; no Fraction is built."""
    return {"x": ps._xa.text_columns(), "y": ps._ya.text_columns()}
