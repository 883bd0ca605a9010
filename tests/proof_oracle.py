"""Oracles of the exact geometry in ``kedlaya.stepfn``.

The proof-function builder on per-piece Fractions is the oracle of the
integer construction: every coordinate is a ``Fraction`` and every piece a
``QRectangle`` of ``QInterval``s, as the paper writes the blocks, and the
function goes through ``SimpleFunction2D.__init__``, which scales the pieces
to integers itself.  The sweep line on Python dicts is the oracle of the
array sweep, and the corner parity on sets of coordinate pairs the oracle of
the parity over packed coordinate ranks.
"""

from collections import defaultdict
from fractions import Fraction

from kedlaya.errors import LengthMismatch, NonpositiveWeight, WeightsNotInV
from kedlaya.inequality import partial_arithmetic_means
from kedlaya.stepfn import QInterval, QRectangle, SimpleFunction2D, rect
from kedlaya.weights import RATIONAL, as_weight_vector, partial_sums


def _wrap_runs(start: int, length: int, q: int) -> list:
    """Cyclic run ``start .. start+length-1 (mod q)`` as linear column runs."""
    if length <= 0:
        return []
    if start + length <= q:
        return [(start, start + length)]
    return [(start, q), (0, start + length - q)]


def build_proof_function(x, w, j: int) -> SimpleFunction2D:
    """The block step function of :func:`kedlaya.stepfn.build_proof_function`,
    with the same pieces in the same order."""
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

    pieces = []
    for k in range(1, j + 1):
        theta = (lam[j - 1] * sums[k - 1]) / (lam[k - 1] * s_left)
        if theta > 1:
            raise WeightsNotInV(
                f"ratio condition fails at k={k}: proportionality {theta} > 1")
        y0, y1 = sums[k - 1], sums[k]
        p, q = theta.numerator, theta.denominator
        xs = [s_left * Fraction(i, q) for i in range(q + 1)]
        ys = [y0 + (y1 - y0) * Fraction(r, q) for r in range(q + 1)]
        runs: dict = {}  # (c0, c1) -> column interval, shared by the rows
        for r in range(q):
            row = QInterval(ys[r], ys[r + 1])
            # selected columns in row r form the cyclic run ending at r
            for start, length, value in (((r - p + 1) % q, p, m[k - 2]),
                                         ((r + 1) % q, q - p, m[k - 1])):
                for c0, c1 in _wrap_runs(start, length, q):
                    col = runs.get((c0, c1)) or runs.setdefault(
                        (c0, c1), QInterval(xs[c0], xs[c1]))
                    pieces.append((QRectangle(col, row), value))
        pieces.append((rect(s_left, s_full, y0, y1), float(x[k - 1])))

    return SimpleFunction2D(rect(0, s_full, 0, s_full), pieces)


def function_from_json(obj: dict) -> SimpleFunction2D:
    """The function of a ``proof-fn`` report's ``"function"`` document."""
    dom = obj["domain"]
    pieces = [(rect(*p["x"], *p["y"]), float(p["value"])) for p in obj["pieces"]]
    return SimpleFunction2D(rect(*dom["x"], *dom["y"]), pieces)


def function_to_json(f: SimpleFunction2D) -> dict:
    """The wire format written piece by piece from ``f.pieces``."""
    def iv(i: QInterval) -> list:
        return [str(i.lower), str(i.upper)]

    return {"schema": 1,
            "domain": {"x": iv(f.bounding.dx), "y": iv(f.bounding.dy)},
            "pieces": [{"x": iv(r.dx), "y": iv(r.dy), "value": v} for r, v in f.pieces]}


def _sweep(axis, cross: list, values) -> tuple:
    """``(breaks, profiles, widths)`` of :func:`kedlaya.stepfn._sweep`, from one
    sweep line whose events are kept in a dict of lists: each rectangle adds
    its value's cross measure at its lower endpoint and removes it at its
    upper one, and each slice's active values are sorted once."""
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
    return breaks, profiles, widths


def corner_error(f, boxes) -> str:
    """The message naming the least corner of the integer ``boxes`` (over
    ``f``'s scales) whose count has the wrong parity: odd inside, even at
    one of the four corners of ``f``'s bounding rectangle."""
    odd: set = set()
    for a, b, c, d, _ in boxes:
        odd.symmetric_difference_update(((a, c), (a, d), (b, c), (b, d)))
    xa, ya = f._xa, f._ya
    corners = {(x, y) for x in (xa.lo, xa.hi) for y in (ya.lo, ya.hi)}
    x, y = min(odd ^ corners)
    return (f"pieces do not tile the bounding rectangle exactly: corner "
            f"({Fraction(x, xa.scale)}, {Fraction(y, ya.scale)}) occurs an "
            f"{'even' if (x, y) in corners else 'odd'} number of times")
