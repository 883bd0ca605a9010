"""Exact rational geometry: proportional sets, integrals, proof function."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kedlaya.errors import (LengthMismatch, NonpositiveWeight, ThetaOutOfRange,
                            WeightsNotInV)
from kedlaya.inequality import partial_arithmetic_means, step_inequality
from kedlaya.means import MeanHandle, evaluate, mean_from_id, weighted_average
from kedlaya.sampling import rational_v_weights
from kedlaya.stepfn import (
    ProportionalSet,
    QInterval,
    QRectangle,
    SimpleFunction1D,
    SimpleFunction2D,
    build_proof_function,
    function_from_json,
    function_to_json,
    jensen_fubini_sides,
    m_integral,
    proportional_set,
    rect,
    verify_proof_construction,
    verify_proportionality,
)
from kedlaya.weights import make_weights, partial_sums

import proof_oracle

UNIT = rect(0, 1, 0, 1)
GEO = mean_from_id("power:0")
ARITH = mean_from_id("arithmetic")


def random_host(rng) -> QRectangle:
    def riv():
        a = Fraction(int(rng.integers(-12, 12)), int(rng.integers(1, 8)))
        b = a + Fraction(int(rng.integers(1, 12)), int(rng.integers(1, 8)))
        return QInterval(a, b)

    return QRectangle(riv(), riv())


class TestQTypes:
    def test_interval_needs_positive_length(self):
        with pytest.raises(ValueError):
            QInterval(1, 1)
        with pytest.raises(ValueError):
            QInterval(2, 1)

    def test_interval_length_exact(self):
        assert QInterval(Fraction(1, 3), Fraction(1, 2)).length == Fraction(1, 6)

    def test_rectangle_area(self):
        assert rect(0, 2, 0, Fraction(1, 2)).area == 1


class TestProportionalSet:
    def test_half_on_unit_square(self):
        ps = proportional_set(UNIT, Fraction(1, 2))
        expected = {
            rect(0, Fraction(1, 2), 0, Fraction(1, 2)),
            rect(Fraction(1, 2), 1, Fraction(1, 2), 1),
        }
        assert set(ps.rectangles) == expected

    def test_zero_is_empty(self):
        assert proportional_set(UNIT, 0).rectangles == ()

    def test_one_covers_host(self):
        ps = proportional_set(UNIT, 1)
        assert len(ps.rectangles) == 1
        assert ps.rectangles[0] == UNIT

    def test_out_of_range(self):
        with pytest.raises(ThetaOutOfRange):
            proportional_set(UNIT, Fraction(3, 2))
        with pytest.raises(ThetaOutOfRange):
            proportional_set(UNIT, -1)

    def test_cell_count(self):
        ps = proportional_set(UNIT, Fraction(3, 7))
        assert len(ps.rectangles) == 21  # p*q cells

    def test_construction_verifies_small_denominators(self):
        rng = np.random.default_rng(0)
        for q in range(1, 21):
            p = int(rng.integers(0, q + 1))
            host = random_host(rng)
            ps = proportional_set(host, Fraction(p, q))
            assert verify_proportionality(ps)

    def test_false_for_single_cell_claim(self):
        bad = ProportionalSet(
            (rect(0, Fraction(1, 2), 0, Fraction(1, 2)),), Fraction(1, 2), UNIT)
        ok, failures = verify_proportionality(bad, explain=True)
        assert not ok
        assert failures

    @given(st.integers(1, 30), st.data())
    @settings(max_examples=60, deadline=None)
    def test_construction_always_verifies(self, q, data):
        p = data.draw(st.integers(0, q))
        a = data.draw(st.fractions(min_value=-10, max_value=10, max_denominator=6))
        c = data.draw(st.fractions(min_value=-10, max_value=10, max_denominator=6))
        bw = data.draw(st.fractions(min_value=Fraction(1, 6), max_value=9,
                                    max_denominator=6))
        bh = data.draw(st.fractions(min_value=Fraction(1, 6), max_value=9,
                                    max_denominator=6))
        host = rect(a, a + bw, c, c + bh)
        assert verify_proportionality(proportional_set(host, Fraction(p, q)))

    def test_empty_zero_claim_true(self):
        assert verify_proportionality(ProportionalSet((), Fraction(0), UNIT))

    def test_escaping_rectangle_fails(self):
        bad = ProportionalSet((rect(0, 2, 0, 1),), Fraction(1), UNIT)
        assert not verify_proportionality(bad)


class TestSimpleFunctions:
    def test_1d_chain_validated(self):
        SimpleFunction1D(((QInterval(0, 1), 1.0), (QInterval(1, 2), 3.0)))
        with pytest.raises(ValueError):
            SimpleFunction1D(((QInterval(0, 1), 1.0), (QInterval(2, 3), 3.0)))

    def test_2d_tiling_validated(self):
        SimpleFunction2D(UNIT, [(rect(0, 1, 0, Fraction(1, 2)), 1.0),
                                (rect(0, 1, Fraction(1, 2), 1), 2.0)])
        with pytest.raises(ValueError):  # hole
            SimpleFunction2D(UNIT, [(rect(0, 1, 0, Fraction(1, 2)), 1.0)])
        with pytest.raises(ValueError):  # overlap
            SimpleFunction2D(UNIT, [(rect(0, 1, 0, Fraction(1, 2)), 1.0),
                                    (rect(0, 1, 0, 1), 2.0)])
        with pytest.raises(ValueError):  # escapes bounds
            SimpleFunction2D(UNIT, [(rect(0, 2, 0, 1), 1.0)])


class TestMIntegral:
    def test_constant(self):
        f = SimpleFunction1D(((QInterval(0, 1), 4.2),))
        for mean in (ARITH, GEO, MeanHandle.gini(2, 1)):
            assert m_integral(mean, f) == 4.2

    def test_arithmetic_two_pieces(self):
        f = SimpleFunction1D(((QInterval(0, Fraction(1, 2)), 1.0),
                              (QInterval(Fraction(1, 2), 1), 3.0)))
        assert m_integral(ARITH, f) == 2.0

    def test_geometric_equal_lengths(self):
        f = SimpleFunction1D(((QInterval(0, 1), 1.0), (QInterval(1, 2), 4.0)))
        assert m_integral(GEO, f) == pytest.approx(2.0, abs=1e-12)

    @given(st.integers(1, 6), st.integers(1, 11))
    @settings(max_examples=40, deadline=None)
    def test_splitting_invariance(self, num, den):
        # cutting a piece in two at a rational point never moves the value
        split = Fraction(num, den + num)  # in (0, 1)
        base = SimpleFunction1D(((QInterval(0, 1), 2.0), (QInterval(1, 3), 5.0)))
        cut = Fraction(1) + 2 * split
        refined = SimpleFunction1D(((QInterval(0, 1), 2.0),
                                    (QInterval(1, cut), 5.0),
                                    (QInterval(cut, 3), 5.0)))
        for mean in (ARITH, GEO, MeanHandle.gini(2, 1), MeanHandle.power(-1)):
            a = m_integral(mean, base)
            b = m_integral(mean, refined)
            assert abs(a - b) <= 1e-12 * (1 + abs(a))


class TestJensenFubini:
    def test_constant_function(self):
        f = SimpleFunction2D(UNIT, [(UNIT, 3.3)])
        assert jensen_fubini_sides(GEO, f) == (3.3, 3.3)

    def test_arithmetic_always_equal(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            f = _random_grid_function(rng)
            lhs, rhs = jensen_fubini_sides(ARITH, f)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    def test_proof_function_sides(self):
        f = build_proof_function((1.0, 4.0), (1, 1), 2)
        lhs, rhs = jensen_fubini_sides(GEO, f)
        assert lhs == pytest.approx(1.5, abs=1e-12)
        assert rhs == pytest.approx(math.sqrt(2.5), abs=1e-12)

    def test_concave_direction_randomized(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            f = _random_grid_function(rng)
            lhs, rhs = jensen_fubini_sides(GEO, f)
            assert lhs <= rhs + 1e-9


def _random_grid_function(rng) -> SimpleFunction2D:
    nx, ny = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    xs = [Fraction(i, nx) for i in range(nx + 1)]
    ys = [Fraction(j, ny) for j in range(ny + 1)]
    pieces = []
    for i in range(nx):
        for j in range(ny):
            pieces.append((rect(xs[i], xs[i + 1], ys[j], ys[j + 1]),
                           float(rng.uniform(0.2, 5.0))))
    return SimpleFunction2D(UNIT, pieces)


class TestProofFunction:
    def test_two_entry_block_layout(self):
        f = build_proof_function((1.0, 4.0), (1, 1), 2)
        assert f.bounding == rect(0, 2, 0, 2)
        assert f.xs == f.ys == [0, 1, 2]
        # proportionality 0 in the first left block, 1 in the second: the
        # whole left column carries the first prefix mean, and the right
        # blocks carry the raw entries
        assert f.value_grid().tolist() == [[1.0, 1.0], [1.0, 4.0]]

    def test_constant_entries_constant_function(self):
        f = build_proof_function((2.5, 2.5, 2.5), (1, 2, 3), 3)
        assert set(v for _, v in f.pieces) == {2.5}

    def test_row_slice_property(self):
        # the average over x of any horizontal slice is the prefix mean of
        # the strip it belongs to
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            w = make_weights(sorted((int(v) for v in rng.integers(1, 4, n)),
                                    reverse=True), "W0")
            x = [float(v) for v in rng.uniform(0.3, 5.0, n)]
            j = int(rng.integers(2, n + 1))
            f = build_proof_function(x, w, j)
            m = partial_arithmetic_means(x, w)
            sums = [Fraction(0)] + list(partial_sums(w))
            grid = f.value_grid()
            wx = [float(b - a) for a, b in zip(f.xs, f.xs[1:])]
            total = math.fsum(wx)
            for jdx in range(grid.shape[1]):
                y_mid = (f.ys[jdx] + f.ys[jdx + 1]) / 2
                strip = next(k for k in range(1, j + 1)
                             if sums[k - 1] <= y_mid < sums[k])
                row_mean = math.fsum(g * wxi for g, wxi in zip(grid[:, jdx], wx)) / total
                assert abs(row_mean - m[strip - 1]) <= 1e-12 * (1 + abs(row_mean))

    def test_first_strip_is_first_entry(self):
        # rows in the lowest strip average to the first entry
        x = [3.7, 1.1, 2.9]
        w = make_weights([1, 1, 1], "W0")
        f = build_proof_function(x, w, 2)
        grid = f.value_grid()
        wx = [float(b - a) for a, b in zip(f.xs, f.xs[1:])]
        row = grid[:, 0]
        avg = math.fsum(g * wxi for g, wxi in zip(row, wx)) / math.fsum(wx)
        assert avg == pytest.approx(3.7, rel=1e-12)

    def test_column_slice_profile(self):
        # left-column slices carry the prefix means with measures scaled by
        # the cumulative-weight ratio, accounted exactly
        rng = np.random.default_rng(22)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            w = make_weights(sorted((int(v) for v in rng.integers(1, 4, n)),
                                    reverse=True), "W0")
            x = [float(v) for v in rng.uniform(0.3, 5.0, n)]
            j = int(rng.integers(2, n + 1))
            f = build_proof_function(x, w, j)
            m = partial_arithmetic_means(x, w)
            sums = [Fraction(0)] + list(partial_sums(w))
            s_left, s_full = sums[j - 1], sums[j]
            expected: dict = {}
            for k in range(1, j):
                key = m[k - 1]
                expected[key] = (expected.get(key, Fraction(0))
                                 + (s_full / s_left) * w.entries[k - 1])
            for i, x_cell in enumerate(zip(f.xs, f.xs[1:])):
                if x_cell[1] > s_left:
                    continue
                assert f._x.profiles[i] == _in_y_scale(f, expected)

    def test_rejects_inadmissible_weights(self):
        # ratios increase at the last step
        w = make_weights([1, 1, 4], "W0")
        with pytest.raises(WeightsNotInV):
            build_proof_function([1.0, 2.0, 3.0], w, 3)

    def test_rejects_zero_weight(self):
        w = make_weights([1, 0, 1], "W0")
        with pytest.raises(NonpositiveWeight):
            build_proof_function([1.0, 2.0, 3.0], w, 3)

    def test_rejects_float_weights(self):
        with pytest.raises(ValueError):
            build_proof_function([1.0, 2.0], make_weights([1.0, 1.0], "W0"), 2)

    def test_length_mismatch_is_typed(self):
        with pytest.raises(LengthMismatch):
            build_proof_function([1.0, 2.0, 3.0], make_weights([1, 1], "W0"), 2)


class TestVerifyProofConstruction:
    def test_geometric_anchor(self):
        assert verify_proof_construction(GEO, (1.0, 4.0), (1, 1), 2, tol=1e-9)

    def test_arithmetic_equality_everywhere(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            w = make_weights(sorted((int(v) for v in rng.integers(1, 4, n)),
                                    reverse=True), "W0")
            x = [float(v) for v in rng.uniform(0.3, 5.0, n)]
            j = int(rng.integers(2, n + 1))
            assert verify_proof_construction(ARITH, x, w, j, tol=1e-9)
            f = build_proof_function(x, w, j)
            lhs, rhs = jensen_fubini_sides(ARITH, f)
            slhs, srhs = step_inequality(ARITH, x, w, j)
            s = float(sum(w.entries[:j]))
            quadruple = [lhs, rhs, slhs / s, srhs / s]
            assert max(quadruple) - min(quadruple) <= 1e-12 * (1 + abs(lhs))

    def test_two_parameter_arithmetic_crosscheck(self):
        mean = mean_from_id("gini:1:0")
        assert verify_proof_construction(mean, (2.0, 3.0, 5.0), (4, 2, 1), 3,
                                         tol=1e-9)


class TestWireFormat:
    def test_round_trip(self):
        f = build_proof_function((1.0, 4.0, 2.0), (2, 1, 1), 3)
        doc = function_to_json(f)
        assert doc["schema"] == 1
        again = function_from_json(doc)
        assert again.pieces == f.pieces
        assert again.bounding == f.bounding

    def test_rationals_as_strings(self):
        f = build_proof_function((1.0, 4.0), (Fraction(1, 2), Fraction(1, 3)), 2)
        doc = function_to_json(f)
        assert doc["domain"]["x"] == ["0", "5/6"]
        for piece in doc["pieces"]:
            for field in (piece["x"], piece["y"]):
                Fraction(field[0]), Fraction(field[1])  # parseable


# ---------------------------------------------------------------------------
# Dense-grid oracles: every piece refined into the breakpoint grid
# ---------------------------------------------------------------------------

def _dense(bounding, pieces):
    """Breakpoints, per-cell coverage counts and per-cell values (the value
    of the last covering piece) of ``pieces`` refined into one grid."""
    xs = sorted({*bounding.dx, *(v for r, _ in pieces for v in r.dx)})
    ys = sorted({*bounding.dy, *(v for r, _ in pieces for v in r.dy)})
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    counts = np.zeros((len(xs) - 1, len(ys) - 1), dtype=int)
    values = np.zeros(counts.shape)
    for r, v in pieces:
        cells = (slice(xi[r.dx.lower], xi[r.dx.upper]), slice(yi[r.dy.lower], yi[r.dy.upper]))
        counts[cells] += 1
        values[cells] = v
    return xs, ys, counts, values


def _in_y_scale(f, profile: dict) -> tuple:
    """An exact value -> y-measure ``profile`` as ``f``'s sweep keeps a column's:
    sorted ``(value, measure)`` pairs, measures in integers over ``f``'s y scale."""
    return tuple(sorted((v, m * f._ya.scale) for v, m in profile.items()))


def _dense_tiles(bounding, pieces) -> bool:
    inside = all(bounding.dx.lower <= r.dx.lower and r.dx.upper <= bounding.dx.upper
                 and bounding.dy.lower <= r.dy.lower and r.dy.upper <= bounding.dy.upper
                 for r, _ in pieces)
    return bool(pieces) and inside and (_dense(bounding, pieces)[2] == 1).all()


def _dense_sides(mean, f):
    """The swap sides evaluated cell by cell on the dense grid."""
    xs, ys, _, grid = _dense(f.bounding, f.pieces)
    wx = [float(b - a) for a, b in zip(xs, xs[1:])]
    wy = [float(b - a) for a, b in zip(ys, ys[1:])]
    lhs = weighted_average([evaluate(mean, col.tolist(), wy) for col in grid], wx)
    rhs = evaluate(mean, [weighted_average(row.tolist(), wx) for row in grid.T], wy)
    return lhs, rhs


def _grid_tiling(data):
    """A tiling of the unit square by a random rational grid whose cells
    are merged along x into runs, with random values."""
    def cuts(iv):
        inner = data.draw(st.lists(st.fractions(iv.lower, iv.upper, max_denominator=12),
                                   max_size=3, unique=True))
        return sorted({iv.lower, iv.upper, *inner})

    xs, ys = cuts(UNIT.dx), cuts(UNIT.dy)
    pieces = []
    for y0, y1 in zip(ys, ys[1:]):
        i = 0
        while i < len(xs) - 1:
            run = data.draw(st.integers(1, len(xs) - 1 - i))
            pieces.append((rect(xs[i], xs[i + run], y0, y1),
                           data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.5]))))
            i += run
    return pieces


class TestSweepAgainstDenseGrid:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_tiling_verdict_matches_dense_counts(self, data):
        pieces = _grid_tiling(data)
        kind = data.draw(st.sampled_from(
            ["keep", "drop", "duplicate", "triplicate", "shift", "trade"]))
        k = data.draw(st.integers(0, len(pieces) - 1))
        r, v = pieces[k]
        if kind == "drop":
            del pieces[k]
        elif kind == "duplicate":
            pieces.append(pieces[k])
        elif kind == "triplicate":  # odd coverage everywhere, but not 1
            pieces += [pieces[k], pieces[k]]
        elif kind == "shift":
            dx = data.draw(st.fractions(-1, 1, max_denominator=6))
            dy = data.draw(st.fractions(-1, 1, max_denominator=6))
            pieces[k] = (rect(r.dx.lower + dx, r.dx.upper + dx,
                              r.dy.lower + dy, r.dy.upper + dy), v)
        elif kind == "trade":
            # a hole plus an overlap of the same area where one exists
            same = [i for i, (s, _) in enumerate(pieces) if i != k and s.area == r.area]
            if same:
                pieces[k] = pieces[data.draw(st.sampled_from(same))]
        try:
            SimpleFunction2D(UNIT, pieces)
            verdict = True
        except ValueError:
            verdict = False
        assert verdict == _dense_tiles(UNIT, pieces)

    def test_hole_plus_overlap_of_equal_area_fails(self):
        half = Fraction(1, 2)
        quarters = [rect(a, a + half, b, b + half) for a in (0, half) for b in (0, half)]
        pieces = [(q, 1.0) for q in quarters[:3]] + [(quarters[0], 2.0)]
        assert sum(r.area for r, _ in pieces) == UNIT.area
        with pytest.raises(ValueError, match="corner"):
            SimpleFunction2D(UNIT, pieces)
        with pytest.raises(ValueError, match="areas sum to 3/4"):
            SimpleFunction2D(UNIT, pieces[:3])

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_column_profiles_and_points_match(self, data):
        f = SimpleFunction2D(UNIT, _grid_tiling(data))
        xs, ys, _, grid = _dense(f.bounding, f.pieces)
        assert (f.xs, f.ys) == (xs, ys)
        assert (f.value_grid() == grid).all()
        for i in range(len(xs) - 1):
            expected: dict = {}
            for j, (y0, y1) in enumerate(zip(ys, ys[1:])):
                expected[grid[i, j]] = expected.get(grid[i, j], Fraction(0)) + (y1 - y0)
            assert f._x.profiles[i] == _in_y_scale(f, expected)

    def test_proof_function_column_profiles_match(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            f = build_proof_function([float(v) for v in rng.uniform(0.3, 5.0, n)],
                                     rational_v_weights(rng, n, max_den=5), n)
            xs, ys, _, grid = _dense(f.bounding, f.pieces)
            for i in range(len(xs) - 1):
                expected: dict = {}
                for j, (y0, y1) in enumerate(zip(ys, ys[1:])):
                    expected[grid[i, j]] = expected.get(grid[i, j], Fraction(0)) + (y1 - y0)
                assert f._x.profiles[i] == _in_y_scale(f, expected)

    @pytest.mark.parametrize("mean_id", ["arithmetic", "power:0", "gini:2:1"])
    def test_swap_sides_within_4_ulps_of_the_dense_grid(self, mean_id):
        mean = mean_from_id(mean_id)
        rng = np.random.default_rng(32)
        functions = [_random_grid_function(rng) for _ in range(20)]
        for _ in range(20):
            n = int(rng.integers(2, 6))
            functions.append(build_proof_function(
                [float(v) for v in rng.uniform(0.3, 5.0, n)],
                rational_v_weights(rng, n, max_den=5), int(rng.integers(2, n + 1))))
        for f in functions:
            for got, want in zip(jensen_fubini_sides(mean, f), _dense_sides(mean, f)):
                assert abs(got - want) <= 4 * math.ulp(want)

    def test_n14_proof_without_a_dense_grid(self):
        # 11332 pieces on a 2506 x 3782 breakpoint grid: the dense grid took
        # 236 MB and 11.5 s, the sweeps take a few MB
        w = rational_v_weights(np.random.default_rng(5), 14, max_den=60)
        x = [float(v) for v in np.linspace(1.0, 3.0, 14)]
        tracemalloc.start()
        try:
            ok = verify_proof_construction(GEO, x, w, 14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok
        assert peak < 30e6


# ---------------------------------------------------------------------------
# The integer construction against the Fraction oracle (tests/proof_oracle.py)
# ---------------------------------------------------------------------------

def _from_boxes(f, boxes):
    """``f``'s bounding rectangle with integer ``boxes`` over ``f``'s scales,
    through the private constructor."""
    xa, ya = f._xa, f._ya
    xl, xh, yl, yh, values = (list(c) for c in zip(*boxes))
    return SimpleFunction2D._from_ints(f.bounding, xa._replace(lows=xl, highs=xh),
                                       ya._replace(lows=yl, highs=yh), values)


def _pieces_of(f, boxes):
    """The same boxes as Fraction pieces, for ``SimpleFunction2D.__init__``."""
    sx, sy = f._xa.scale, f._ya.scale
    return [(rect(Fraction(a, sx), Fraction(b, sx), Fraction(c, sy), Fraction(d, sy)), v)
            for a, b, c, d, v in boxes]


def _error(make) -> str:
    with pytest.raises(ValueError) as info:
        make()
    return str(info.value)


class TestIntegerConstruction:
    MEANS = [mean_from_id(m) for m in ("arithmetic", "power:0", "qa:log", "gini:2:1")]

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 9), st.integers(2, 40))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_fraction_oracle(self, seed, n, max_den):
        # every j: below n, den(S_j) enters the x scale besides den(S_{j-1})
        rng = np.random.default_rng(seed)
        w = rational_v_weights(rng, n, max_den=max_den)
        x = [float(v) for v in rng.uniform(0.1, 10.0, n)]
        for j in range(2, n + 1):
            f, g = build_proof_function(x, w, j), proof_oracle.build_proof_function(x, w, j)
            assert function_to_json(f) == proof_oracle.function_to_json(g)
            assert (f.xs, f.ys) == (g.xs, g.ys)
            assert ([[(v, m * g._ya.scale) for v, m in p] for p in f._x.profiles]
                    == [[(v, m * f._ya.scale) for v, m in p] for p in g._x.profiles])
            for mean in self.MEANS:
                assert jensen_fubini_sides(mean, f) == jensen_fubini_sides(mean, g)
            assert f._pieces is None  # nothing above built the Fraction pieces
            assert f.pieces == g.pieces

    def test_views_read_the_integer_axes(self):
        # the traced benchmark reads value_grid, xs and ys of every build
        x, w = [1.0, 2.0, 0.5, 3.0, 1.5], rational_v_weights(np.random.default_rng(8), 5, 7)
        f, g = build_proof_function(x, w, 5), proof_oracle.build_proof_function(x, w, 5)
        assert (f.value_grid() == g.value_grid()).all()
        assert (f.xs, f.ys) == (g.xs, g.ys)
        assert f._pieces is None

    def test_the_checks_run_on_every_construction(self, monkeypatch):
        calls = []
        tile = SimpleFunction2D._tile

        def counting(self, *args):
            calls.append(1)
            return tile(self, *args)

        monkeypatch.setattr(SimpleFunction2D, "_tile", counting)
        build_proof_function((1.0, 4.0, 2.0), (2, 1, 1), 3)
        assert calls == [1]

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_broken_tilings_fail_as_through_init(self, seed, n, data):
        # the private constructor raises the very ValueError that __init__
        # raises for the same pieces, on every kind of break
        rng = np.random.default_rng(seed)
        w = rational_v_weights(rng, n, max_den=8)
        f = build_proof_function([float(v) for v in rng.uniform(0.1, 10.0, n)], w,
                                 data.draw(st.integers(2, n)))
        boxes = list(f._boxes())
        k = data.draw(st.integers(0, len(boxes) - 1))
        kind = data.draw(st.sampled_from(["perturb", "drop", "duplicate", "trade"]))
        if kind == "perturb":
            box = list(boxes[k])
            box[data.draw(st.integers(0, 3))] += data.draw(st.sampled_from([-2, -1, 1, 2]))
            boxes[k] = tuple(box)
        elif kind == "drop":
            del boxes[k]
        elif kind == "duplicate":
            boxes.append(boxes[k])
        else:  # a hole plus an overlap of the same area
            area = (boxes[k][1] - boxes[k][0]) * (boxes[k][3] - boxes[k][2])
            same = [i for i, b in enumerate(boxes)
                    if i != k and (b[1] - b[0]) * (b[3] - b[2]) == area]
            if not same:
                return
            boxes[k] = boxes[data.draw(st.sampled_from(same))]
        if not boxes:
            return
        assert (_error(lambda: _from_boxes(f, boxes))
                == _error(lambda: SimpleFunction2D(f.bounding, _pieces_of(f, boxes))))

    def test_each_check_fails_by_name(self):
        f = build_proof_function((1.0, 4.0, 2.0), (2, 1, 1), 3)
        boxes = list(f._boxes())
        x0, x1, y0, y1, v = boxes[-1]  # the last right block touches the corner
        cases = {"escapes the bounding rectangle": boxes[:-1] + [(x0, x1 + 1, y0, y1, v)],
                 "areas sum to": boxes[:-1],
                 "corner": boxes[:-1] + [(x0, x1, y0 - 1, y1 - 1, v)],
                 "need lower < upper": boxes[:-1] + [(x0, x0, y0, y1, v)]}
        for words, broken in cases.items():
            got = _error(lambda: _from_boxes(f, broken))
            assert words in got
            assert got == _error(lambda: SimpleFunction2D(f.bounding, _pieces_of(f, broken)))
        assert _from_boxes(f, boxes).pieces == f.pieces
