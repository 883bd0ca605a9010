"""Oracle of the proportional-subset construction in ``kedlaya.stepfn``.

The wrapped-diagonal construction on per-rectangle Fractions: every cell
edge is a ``Fraction`` and every rectangle a ``QRectangle`` of
``QInterval``s, built eagerly in the construction's order.  The report's
``rectangles`` are written with one ``str`` per endpoint.
"""

from fractions import Fraction

from kedlaya.stepfn import QInterval, QRectangle


def rectangles(host: QRectangle, theta: Fraction) -> tuple:
    """Column ``i`` of the ``q x q`` grid keeps rows ``i .. i+p-1 (mod q)``,
    mapped onto ``host`` by the affine bijection."""
    p, q = theta.numerator, theta.denominator
    ax, bx = host.dx.lower, host.dx.upper
    ay, by = host.dy.lower, host.dy.upper
    xs = [ax + Fraction(i, q) * (bx - ax) for i in range(q + 1)]
    ys = [ay + Fraction(jj, q) * (by - ay) for jj in range(q + 1)]
    cols = [QInterval(xs[i], xs[i + 1]) for i in range(q)]
    rows = [QInterval(ys[jj], ys[jj + 1]) for jj in range(q)]
    return tuple(QRectangle(cols[i], rows[off % q]) for i in range(q) for off in range(i, i + p))


def rectangles_to_json(rects) -> list:
    return [{"x": [str(r.dx.lower), str(r.dx.upper)], "y": [str(r.dy.lower), str(r.dy.upper)]}
            for r in rects]
