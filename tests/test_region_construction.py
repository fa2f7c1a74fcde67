import dataclasses
import hashlib
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from toric_regions import region_construction
from toric_regions.errors import (
    DeltaTooSmall,
    MonomialOverflow,
    NoCrossing,
    NonFinitePoint,
    NonPositiveDelta,
    OutOfBand,
    ToricRegionsError,
    UnsupportedFan,
)
from toric_regions.fan_geometry import (
    Fan,
    LineGenerator,
    LogPoint,
    PosPoint,
    _fan_table,
    delta_i,
    r_count,
)
from toric_regions.region_construction import (
    Hull,
    _EXP_SAFE,
    _LEVEL_TOL,
    _VALIDATION_SAMPLES,
    Arc,
    IntersectionPoint,
    Segment,
    _PieceTable,
    _arc_monotonicity_check,
    _curve_cross_on_line,
    _falls,
    _fan_plan,
    _hull,
    _line_y_log,
    _line_y_log_batch,
    _LOOP_CHORDS,
    _log_mix,
    _loop_checks,
    _loop_index,
    _monotone_chain,
    _nagumo_check,
    _normals_at,
    _points_at,
    _r_le_1_check,
    _scaled_reciprocals,
    _strip_point,
    _suc_check,
    _validation_points,
    choose_start_points,
    compute_slope_classes,
    construct_region,
    conv_hull,
    hull_contains,
    intersection_points,
    phi_level,
    region_contains,
    sample_boundary,
)
from toric_regions.tdi_rhs import rhs_bruteforce

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)

WORKED_GENS = [(-1, 1), (1, 2), (2, 1)]


@pytest.fixture(scope="module")
def worked_region():
    return construct_region(Fan(WORKED_GENS), 3.0)


def _strip_coordinate(pt: LogPoint, row) -> tuple[float, float]:
    """The strip coordinate q*Y - p*X of pt and the half-width delta_i, of
    the strip whose Fan.regions row is row."""
    _, q, p, half_width, _, _ = row
    return q * pt.Y - p * pt.X, half_width


def _point_at_reference(piece, u: float) -> LogPoint:
    """The scalar point_at that the array sampler replaced: an arc's log-space
    mix of its endpoints; a segment's point at fraction u of its dominant
    log-axis span, evaluated from the nearer end, and its end at u = 1."""
    a, b = piece.start, piece.end
    if isinstance(piece, Arc):
        return LogPoint(a.X + u * (b.X - a.X), a.Y + u * (b.Y - a.Y))
    if u == 1.0:
        return b
    if abs(b.X - a.X) < abs(b.Y - a.Y):
        return piece.at(a.Y + u * (b.Y - a.Y), True)
    return piece.at(a.X + u * (b.X - a.X), False)


def _normal_at_reference(piece, pt: LogPoint) -> tuple[float, float]:
    """The scalar outward x-space unit normal that the array form replaced."""
    g = piece.gen
    if isinstance(piece, Arc):
        nx, ny = _scaled_reciprocals(pt, -g.p, g.q)
        n = math.hypot(nx, ny)
        return (piece.h_sign * nx / n, piece.h_sign * ny / n)
    return (piece.arm_sign * g.q / g.norm, piece.arm_sign * g.p / g.norm)


def _sample_boundary_reference(boundary, total: int) -> list[tuple[LogPoint, int]]:
    """The scalar sampler that the array form replaced: (point, piece index)."""
    lengths = [max(abs(p.end.X - p.start.X) + abs(p.end.Y - p.start.Y), 1e-12)
               for p in boundary.pieces]
    whole = sum(lengths)
    out = []
    for k, (piece, ln) in enumerate(zip(boundary.pieces, lengths)):
        n = max(4, int(round(total * ln / whole)))
        for j in range(n):
            out.append((_point_at_reference(piece, (j + 0.5) / n), k))
    return out


def _loop_chains_reference(pieces) -> list[list[LogPoint]]:
    """The scalar 33-point chain of every piece that _loop_checks tests."""
    return [[_point_at_reference(pc, i / 32) for i in range(33)] for pc in pieces]


def _chains(t):
    """The points at u = i / _LOOP_CHORDS, i = 0.._LOOP_CHORDS, of every
    piece of t, in a _points_at pass of their own: arrays (X, Y) with one
    row per piece."""
    pieces = len(t.sX)
    loop = _loop_index(pieces)
    X, Y = _points_at(t, loop.index, loop.u)
    return X.reshape(pieces, _LOOP_CHORDS + 1), Y.reshape(pieces, _LOOP_CHORDS + 1)


def _loop_checks_of(b):
    """_loop_checks of a boundary on its own chains."""
    return _loop_checks(b, _chains(b.table))


def _points_of(piece, us) -> list[LogPoint]:
    """A piece's points at the fractions us, by the array sampler."""
    X, Y = _points_at(_PieceTable([piece]), np.zeros(len(us), dtype=int), np.array(us))
    return [LogPoint(x, y) for x, y in zip(X.tolist(), Y.tolist())]


class TestIntersectionPoints:
    def test_cross_fan_points(self):
        delta = 1.7
        pts = intersection_points(Fan([(1, 1), (-1, 1)]), delta)
        got = sorted((round(p.log.X, 9), round(p.log.Y, 9)) for p in pts)
        d = SQRT2 * delta
        expect = sorted((round(x, 9), round(y, 9))
                        for x, y in [(0, d), (d, 0), (-d, 0), (0, -d)])
        assert got == expect

    def test_count_scales_with_pairs(self):
        assert len(intersection_points(Fan(WORKED_GENS), 3.0)) == 12
        assert len(intersection_points(Fan([(1, 1), (-1, 1)]), 1.0)) == 4

    def test_small_delta_collapses_to_origin(self):
        pts = intersection_points(Fan(WORKED_GENS), 1e-12)
        for p in pts:
            assert abs(p.log.X) < 1e-10 and abs(p.log.Y) < 1e-10

    def test_points_satisfy_both_curves(self):
        fan = Fan(WORKED_GENS)
        delta = 3.0
        rows = fan.regions(delta)
        for p in intersection_points(fan, delta):
            for k, side in ((p.i, p.si), (p.j, p.sj)):
                sigma, half_width = _strip_coordinate(p.log, rows[k])
                assert sigma == pytest.approx(side * half_width, abs=1e-9)

    def test_refound_by_independent_bisection(self):
        # Parametrize one curve by X and bisect the other curve's residual.
        fan = Fan(WORKED_GENS)
        delta = 3.0
        rows = fan.regions(delta)
        for p in intersection_points(fan, delta):
            gi, gj = fan.generators[p.i], fan.generators[p.j]
            ci = p.si * rows[p.i][3]
            cj = p.sj * rows[p.j][3]

            def on_curve_i(X):
                return (gi.p * X + ci) / gi.q

            def f(X):
                return gj.q * on_curve_i(X) - gj.p * X - cj

            lo, hi = -100.0, 100.0
            flo = f(lo)
            assert (flo > 0) != (f(hi) > 0)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if (f(mid) > 0) == (flo > 0):
                    lo, flo = mid, f(mid)
                else:
                    hi = mid
            X = 0.5 * (lo + hi)
            assert X == pytest.approx(p.log.X, abs=1e-9)
            assert on_curve_i(X) == pytest.approx(p.log.Y, abs=1e-9)


class TestChooseStartPoints:
    def test_cross_fan_selection(self):
        delta = 1.0
        pts = intersection_points(Fan([(1, 1), (-1, 1)]), delta)
        top, low = choose_start_points(pts, "standard")
        # (N,M) = (1, e^(sqrt2 delta)) via the prefer-y tie break.
        assert (top.log.X, top.log.Y) == pytest.approx((0.0, SQRT2), abs=1e-12)
        # (n,m) = (e^(-sqrt2 delta), 1) via the provenance tie break.
        assert (low.log.X, low.log.Y) == pytest.approx((-SQRT2, 0.0), abs=1e-12)

    def test_worked_fan_diagonal_points(self):
        pts = intersection_points(Fan(WORKED_GENS), 3.0)
        top, low = choose_start_points(pts, "standard")
        assert (top.log.X, top.log.Y) == pytest.approx((3 * SQRT5, 3 * SQRT5), abs=1e-9)
        assert (low.log.X, low.log.Y) == pytest.approx((-3 * SQRT5, -3 * SQRT5), abs=1e-9)

    def test_singleton(self):
        # (n,m) never coincides with (N,M), so one point has no pair.
        pts = intersection_points(Fan([(1, 1), (-1, 1)]), 1.0)[:1]
        with pytest.raises(ValueError, match="need two"):
            choose_start_points(pts, "standard")


class TestSlopeClasses:
    def test_worked_fan(self):
        c = compute_slope_classes(Fan(WORKED_GENS))
        assert c.mode == "standard"
        # Angular order: (1,2), (2,1), (-1,1).
        assert c.s2 == (0,) and c.s3 == (1,) and c.s1 == (2,)
        assert (c.i1, c.i2, c.i3, c.i4) == (2, 0, 1, 2)

    def test_missing_class_rejected(self):
        with pytest.raises(UnsupportedFan):
            compute_slope_classes(Fan([(2, 1), (-1, 1)]))

    def test_axis_only_fan_rejected(self):
        with pytest.raises(UnsupportedFan, match="too few usable generators"):
            compute_slope_classes(Fan([(1, 0), (0, 1)]))

    def test_special_modes(self):
        assert compute_slope_classes(Fan([(1, 2), (2, 1)])).mode == "all_positive"
        assert compute_slope_classes(Fan([(-1, 2), (-2, 1)])).mode == "all_negative"


class TestSegmentCurveIntersection:
    """_strip_point off the axes: the crossing segment from an anchor meets
    the power curve y^q = h x^p."""

    def test_linear_curve_closed_form(self):
        gen = LineGenerator(1, 1)
        pt = _strip_point(PosPoint(3.0, 4.0).log(), gen, math.log(math.e))
        assert math.exp(pt.X) == pytest.approx(7.0 / (1.0 + math.e), rel=1e-10)
        assert math.exp(pt.Y) == pytest.approx(7.0 * math.e / (1.0 + math.e), rel=1e-10)

    def test_huge_coordinates(self):
        gen = LineGenerator(1, 1)
        start = PosPoint(math.exp(60.0), math.exp(60.0))
        end = _strip_point(start.log(), gen, math.log(math.exp(3.0)))
        pt = PosPoint(math.exp(end.X), math.exp(end.Y))
        res = math.log(pt.y) - math.log(pt.x) - 3.0
        assert abs(res) < 1e-9


def _on_xline(pt: LogPoint, anchor: LogPoint, s: float) -> bool:
    """Does pt lie on the x-space line through anchor with slope s?"""
    x, y, x0, y0 = (math.exp(v) for v in (pt.X, pt.Y, anchor.X, anchor.Y))
    return abs((y - y0) - s * (x - x0)) <= 1e-12 * max(x, y, x0, y0)


def _bisection_reference(anchor: LogPoint, gen: LineGenerator, log_h: float) -> LogPoint:
    """The crossing solver that the Newton steps replaced, kept as an oracle.

    It bisects in log x for the root of g = q*Y - p*X - log_h on the x-space
    line through anchor, reading g = -sign(q)*inf past the quadrant exit.
    When that leaves a residual above 1e-11*(1 + |log_h|), it bisects again
    on the x<->y mirror, and the root with the smaller residual wins.
    """

    def root(a: LogPoint, q: int, p: int) -> LogPoint:
        s = -q / p

        def g(t: float) -> float:
            try:
                return q * _line_y_log(a.X, a.Y, s, t) - p * t - log_h
            except NoCrossing:
                return -math.copysign(math.inf, q)

        g0 = q * a.Y - p * a.X - log_h
        lo, glo = a.X, g0
        hi = a.X + g0 / p
        ghi = g(hi)
        mid = 0.5 * (lo + hi)
        while lo != mid != hi:
            gm = g(mid)
            if (gm > 0.0) == (g0 > 0.0):
                lo, glo = mid, gm
            else:
                hi, ghi = mid, gm
            mid = 0.5 * (lo + hi)
        t = lo if abs(glo) <= abs(ghi) else hi
        return LogPoint(t, _line_y_log(a.X, a.Y, s, t))

    p, q = gen.p, gen.q

    def residual(pt: LogPoint) -> float:
        return abs(q * pt.Y - p * pt.X - log_h)

    pt = root(anchor, q, p)
    if residual(pt) > 1e-11 * (1.0 + abs(log_h)):
        m = root(LogPoint(anchor.Y, anchor.X), -p, -q)
        pt = min(pt, LogPoint(m.Y, m.X), key=residual)
    return pt


_OFF_AXIS_GENS = [(p, q) for p in range(-6, 7) for q in range(1, 7)
                  if p and math.gcd(abs(p), q) == 1]


class TestCrossingSolver:
    # Every sign case: p > 0 (so c > 0), p < 0 with c > 0 and with c < 0,
    # each with the level above and below the anchor's.
    @example((2, 3), 1.0, 1.0, 4.0)
    @example((2, 3), 1.0, 1.0, -7.5)
    @example((-1, 2), 3.0, -1.0, 2.0)
    @example((-1, 2), 3.0, -1.0, -6.0)
    @example((-3, 1), -1.0, 5.0, 8.0)
    @example((-3, 1), -1.0, 5.0, 0.5)
    @given(st.sampled_from(_OFF_AXIS_GENS), st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
           st.floats(-8.0, 8.0))
    def test_newton_root_matches_the_bisection(self, pq, X0, Y0, log_h):
        gen, anchor = LineGenerator(*pq), LogPoint(X0, Y0)
        pt = _curve_cross_on_line(anchor, gen, log_h)
        assert abs(gen.q * pt.Y - gen.p * pt.X - log_h) <= 1e-11 * (1.0 + abs(log_h))
        assert _on_xline(pt, anchor, -gen.q / gen.p)
        ref = _bisection_reference(anchor, gen, log_h)
        for got, want in ((pt.X, ref.X), (pt.Y, ref.Y)):
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_line_through_the_origin_is_closed_form(self):
        # Generator (-1, 1) and X0 = Y0: the line x = y is the log line
        # X - Y = 0, and the root moves both coordinates by -g0/(q - p).
        anchor, gen = LogPoint(0.5, 0.5), LineGenerator(-1, 1)
        pt = _curve_cross_on_line(anchor, gen, 2.0)
        assert pt == LogPoint(1.0, 1.0)
        ref = _bisection_reference(anchor, gen, 2.0)
        assert (pt.X, pt.Y) == pytest.approx((ref.X, ref.Y), abs=1e-10)

    def test_anchor_on_the_curve_is_returned(self):
        anchor = LogPoint(1.0, 2.0)
        assert _curve_cross_on_line(anchor, LineGenerator(2, 3), 4.0) == anchor

    def test_log_y_branch(self):
        # From the worked fan at delta = 3: the crossing sits near the x-axis,
        # where log y runs far along the line while log x barely moves.  The
        # root still meets the tolerance and lies on the line, left of the
        # anchor.
        anchor = LogPoint(7.113170628689126, 0.20248334812051194)
        gen = LineGenerator(-1, 1)
        log_h = -3.0 * SQRT2
        pt = _curve_cross_on_line(anchor, gen, log_h)
        assert abs(gen.q * pt.Y - gen.p * pt.X - log_h) <= 1e-11 * (1.0 + abs(log_h))
        assert _on_xline(pt, anchor, 1.0)
        assert pt.X < anchor.X

    def test_strip_point_horizontal_generator(self):
        # Strip coordinate Y; the attracting line is vertical.
        pt = _strip_point(LogPoint(2.0, 5.0), LineGenerator(0, 1), -3.0)
        assert pt == LogPoint(2.0, -3.0)

    def test_strip_point_vertical_generator(self):
        # Strip coordinate -X; the attracting line is horizontal.
        pt = _strip_point(LogPoint(2.0, 5.0), LineGenerator(1, 0), 3.0)
        assert pt == LogPoint(-3.0, 5.0)


def _log_sum_y(X0: float, Y0: float, s: float, X: float) -> float:
    """log(y0 - s*x0 + s*x) as a signed log-sum-exp of its three terms."""
    terms = [(1.0, Y0)]
    if s != 0.0:
        ls = math.log(abs(s))
        terms += [(-math.copysign(1.0, s), ls + X0), (math.copysign(1.0, s), ls + X)]
    m = max(lt for _, lt in terms)
    return m + math.log(sum(sign * math.exp(lt - m) for sign, lt in terms))


class TestLineKernel:
    # x0 = 1, y0 = 2; every line below stays in the quadrant for x in XS.
    ANCHOR = LogPoint(0.0, math.log(2.0))
    XS = (0.25, 0.7, 1.3, 1.9)

    @pytest.mark.parametrize("s", [0.5, -0.5, 2.0, -2.0, 0.0])
    def test_points_on_the_line(self, s):
        a = self.ANCHOR
        for x in self.XS:
            pt = LogPoint(math.log(x), _line_y_log(a.X, a.Y, s, math.log(x)))
            assert _on_xline(pt, a, s)
            if s != 0.0:
                # x at the same y is the same call on the x<->y mirror.
                X = _line_y_log(a.Y, a.X, 1.0 / s, pt.Y)
                assert X == pytest.approx(pt.X, abs=1e-12)
                assert _on_xline(LogPoint(X, pt.Y), a, s)

    def test_vertical_direction(self):
        # x = x0: the mirror has slope 0, so log x stays X0 at every log y.
        a = self.ANCHOR
        for Y in (-30.0, -1.0, 0.5, 40.0):
            assert _line_y_log(a.Y, a.X, 0.0, Y) == a.X

    @pytest.mark.parametrize("X0, Y0, s", [
        (800.0, 0.0, 0.5), (800.0, 0.0, 2.0), (0.0, 800.0, -2.0), (0.0, 800.0, 0.5),
    ])
    def test_far_from_the_diagonal(self, X0, Y0, s):
        # X0 - Y0 = +-800 and X - X0 = 750: the product form would overflow.
        X = X0 + 750.0
        Y = _line_y_log(X0, Y0, s, X)
        assert math.isfinite(Y)
        assert Y == pytest.approx(_log_sum_y(X0, Y0, s, X), rel=1e-12)

    def test_past_the_quadrant_exit(self):
        # y = 2 - x through (1, 1) reaches y = 0 at x = 2.
        with pytest.raises(NoCrossing):
            _line_y_log(0.0, 0.0, -1.0, math.log(2.5))
        # Beyond the product form: y = 1 - (e^1550 - e^800)/2 < 0.
        with pytest.raises(NoCrossing):
            _line_y_log(800.0, 0.0, -0.5, 1550.0)
        # The exit itself is the mirror's value at log y -> -inf.
        assert _line_y_log(0.0, 0.0, -1.0, -math.inf) == pytest.approx(math.log(2.0), abs=1e-15)

    # X0 - Y0 = 699.5 and s = 1e10: the direct product overflows (inf * 0 is
    # NaN at the line's start) although y is finite.
    OVERFLOWS = ((0.0, -699.5, 1e10, 0.0), (0.0, -699.5, 1e10, 0.2))

    def test_batch_kernel_is_the_scalar_kernel_bit_for_bit(self):
        # Seeded inputs across the direct branch, the log branch (|X0 - Y0|
        # or the exponents past _EXP_SAFE) and its lz > _EXP_SAFE shortcut,
        # t = 0, s = 0, the quadrant exit and direct products that overflow
        # (X0 - Y0 near 700 and a large slope), the two OVERFLOWS among them.
        rng = np.random.default_rng(14)
        n = 6000
        X0 = rng.uniform(-1000.0, 1000.0, n)
        gap = np.where(rng.random(n) < 0.7, rng.uniform(-40.0, 40.0, n),
                       rng.uniform(-1000.0, 1000.0, n))
        gap[:300] = rng.uniform(690.0, 699.9, 300)
        Y0 = X0 - gap
        t = np.where(rng.random(n) < 0.7, rng.uniform(-60.0, 60.0, n),
                     rng.uniform(-900.0, 900.0, n))
        t[:300] = rng.uniform(-2.0, 2.0, 300)
        t[rng.random(n) < 0.05] = 0.0
        s = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-3.0, 3.0, n))
        s[:300] *= np.exp(rng.uniform(0.0, 30.0, 300))
        s[rng.random(n) < 0.05] = 0.0
        X0, Y0, s, t = (np.append(a, b) for a, b in zip((X0, Y0, s, t), zip(*(
            (x0, y0, sl, x - x0) for x0, y0, sl, x in self.OVERFLOWS))))
        X = X0 + t
        want, exits = [], []
        for k, args in enumerate(zip(X0.tolist(), Y0.tolist(), s.tolist(), X.tolist())):
            try:
                want.append(_line_y_log(*args))
            except NoCrossing:
                exits.append(k)
        keep = np.setdiff1d(np.arange(len(X)), exits)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow in the batch either
            got = _line_y_log_batch(X0[keep], Y0[keep], s[keep], X[keep])
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
        assert all(math.isfinite(v) for v in want) and len(X) - 2 in keep and len(X) - 1 in keep
        e, tk, sk = (X0 - Y0)[keep], (X - X0)[keep], s[keep]
        direct = (np.abs(e) < _EXP_SAFE) & (tk < _EXP_SAFE) & (e + tk < _EXP_SAFE)
        assert direct.sum() > 1000 and (~direct).sum() > 300
        assert (tk == 0.0).any() and (sk == 0.0).any()
        assert ((tk == 0.0) & ~direct).any() and ((sk == 0.0) & ~direct).any()
        with np.errstate(all="ignore"):
            product = sk * np.exp(e) * np.expm1(tk)
            lz = np.log(np.abs(sk)) + e + np.log(np.abs(np.expm1(tk)))
        overflow = direct & ~np.isfinite(product)
        assert overflow.sum() > 20 and (overflow & (tk == 0.0)).any()
        assert ((~direct | overflow) & (lz > _EXP_SAFE) & (sk * tk > 0.0)).sum() > 50
        # Each element the scalar kernel rejects makes the batch raise too.
        e = (X0 - Y0)[exits]
        assert (np.abs(e) < _EXP_SAFE).any() and (np.abs(e) >= _EXP_SAFE).any()
        for k in exits:
            with pytest.raises(NoCrossing):
                _line_y_log_batch(X0[[0, k]], Y0[[0, k]], s[[0, k]], X[[0, k]])

    def test_overflowing_direct_products_take_the_log_form(self):
        # Each y is finite: y0 at the line's start, and past it log y is
        # Y0 + log|s| + (X0 - Y0) + log(expm1(t)), as the log form gives it.
        (X0, Y0, s, X), moved = self.OVERFLOWS
        assert _line_y_log(X0, Y0, s, X) == Y0
        Y = _line_y_log(*moved)
        t = moved[3] - moved[0]
        assert math.isfinite(Y)
        assert Y == pytest.approx(Y0 + math.log(s) + (X0 - Y0) + math.log(math.expm1(t)),
                                  abs=1e-12)

    def test_falls_reads_signs(self):
        o = LogPoint(0.0, 0.0)
        assert _falls(o, LogPoint(1.0, -800.0)) and _falls(o, LogPoint(-900.0, 1.0))
        # Rising, vertical and flat chords do not fall.
        for b in (LogPoint(1.0, 1.0), LogPoint(0.0, 5.0), LogPoint(5.0, 0.0)):
            assert not _falls(o, b)

    def test_log_mix_is_the_log_of_the_x_space_mix(self):
        for a, b in ((0.3, 2.0), (-1.0, 0.5), (4.0, -3.0)):
            for u in (0.25, 0.5, 0.75):
                x = (1.0 - u) * math.exp(a) + u * math.exp(b)
                assert _log_mix(a, b, u) == pytest.approx(math.log(x), rel=1e-14)
        # e^800 itself would overflow.
        assert _log_mix(800.0, -800.0, 0.5) == pytest.approx(800.0 + math.log(0.5), rel=1e-15)

    def test_segment_evaluates_from_the_nearer_end(self):
        # y = 1 - x from x = e^-30 to 1e-10 short of the quadrant exit.  From
        # the far end, y near the exit is 1 + z with z ~ -1 + 1e-10, which
        # loses about 1e-5 in log y.
        start = LogPoint(-30.0, math.log1p(-math.exp(-30.0)))
        end = LogPoint(math.log1p(-1e-10), math.log(1e-10))
        seg = Segment(start, end, LineGenerator(1, 1), 0, 1, 0)
        for pt in _points_of(seg, [0.5, 0.999999, 1.0]):
            assert pt.Y == pytest.approx(math.log(-math.expm1(pt.X)), abs=1e-12)

    def test_axis_segment_far_from_the_diagonal(self):
        # A vertical x-space segment (generator (0, 1)) at X - Y = -800: the
        # tangent of its log image is (0, -1) and must not underflow to zero.
        assert _scaled_reciprocals(LogPoint(0.0, 800.0), 0, -1) == (0.0, -1.0)
        seg = Segment(LogPoint(0.0, 790.0), LogPoint(0.0, 810.0), LineGenerator(0, 1), 0, 1, 0)
        assert seg.band_distance(LogPoint(1.0, 800.0)) == pytest.approx(1.0, rel=1e-12)

    def test_zero_length_arc(self):
        # The distance to a one-point arc is the distance to that point.
        arc = Arc(LineGenerator(1, 2), 1, LogPoint(0.5, -1.0), LogPoint(0.5, -1.0))
        points = [LogPoint(0.5, -1.0), LogPoint(3.5, 3.0), LogPoint(-1.0, -1.0)]
        assert [arc.band_distance(pt) for pt in points] == [0.0, 5.0, 1.5]

    def test_segments_evaluate_on_their_lines(self, worked_region):
        for segs in worked_region.polylines.values():
            for seg in segs:
                ends = _points_of(seg, [0.0, 1.0, 0.5])
                for pt, end in zip(ends, (seg.start, seg.end)):
                    assert (pt.X, pt.Y) == pytest.approx((end.X, end.Y), abs=1e-12)
                assert _on_xline(ends[2], seg.start, float(seg.slope))

    @pytest.mark.parametrize("gens", [
        ((-1, 2), (1, 2), (2, 1), (3, 2), (1, 0)),
        ((-3, 2), (1, 2), (3, 2), (2, 1), (1, 0)),
    ])
    def test_segment_ending_at_the_quadrant_exit(self, gens):
        # A segment of each region ends within an ulp of its line's quadrant
        # exit.  There a + 1.0*(b - a) lands past the end, and the loop
        # checks raised NoCrossing on that point.
        b = construct_region(Fan(gens), 100.0, validate=False)
        for seg in b.pieces:
            if isinstance(seg, Segment):
                assert _points_of(seg, [1.0]) == [seg.end]
        closed, simple = _loop_checks_of(b)
        assert closed["passed"] and simple["passed"]


# Atlas cases that once leaked a bare OverflowError, ValueError or
# ZeroDivisionError: x-space lines evaluated near the quadrant edge, the
# vertical chord l3 in the cone check (delta = 10), and exp overflow in the
# crossing search (delta = 100).
LEAK_CASES = (
    [(((-2, 1), (2, 3), (1, 1), (-1, 1), (-3, 1), (0, 1)), d) for d in (0.5, 1.0, 3.0, 10.0)]
    + [(gens, 10.0) for gens in (
        ((-1, 1), (1, 3), (3, 1), (2, 1)),
        ((-1, 1), (2, 3), (2, 1), (1, 3), (3, 2)),
        ((-3, 2), (1, 3), (3, 1), (1, 1), (-1, 1), (2, 1)),
        ((-2, 3), (1, 3), (2, 1), (3, 2), (0, 1), (-3, 2)),
    )]
    + [(((-1, 1), (1, 3), (3, 1), (2, 1)), 100.0)]
)


@pytest.mark.parametrize("gens, delta", LEAK_CASES)
def test_atlas_leak_cases_end_documented(gens, delta):
    try:
        region = construct_region(Fan(gens), delta)
    except ToricRegionsError:
        return
    assert all(v["passed"] for v in region.report.values())


class TestWorkedConstruction:
    def test_piece_count(self, worked_region):
        b = worked_region
        n_segments = sum(len(v) for v in b.polylines.values())
        assert n_segments == 6
        assert len(b.arcs) == 4
        assert len(b.pieces) == 10

    def test_validation_battery_passes(self, worked_region):
        assert worked_region.report is not None
        assert all(v["passed"] for v in worked_region.report.values())

    def test_anchor_first_segment_oracle(self, worked_region):
        # A1 solves e^(d2) x^2 = y0 + (x0 - x)/2 with x0 = y0 = e^(3 sqrt5).
        E = math.exp(3 * SQRT5)
        x = (-0.5 + math.sqrt(0.25 + 6.0 * E * E)) / (2.0 * E)
        y = 1.5 * E - 0.5 * x
        a1 = worked_region.polylines["I1"][0].end
        assert a1.X == pytest.approx(math.log(x), abs=1e-9)
        assert a1.Y == pytest.approx(math.log(y), abs=1e-9)

    def test_validates_at_delta_100(self):
        # The second I1 segment runs from X = 0.20 to X = -365.4, farther
        # than a fixed 300-log-unit crossing search would reach.
        b = construct_region(Fan(WORKED_GENS), 100.0)
        assert all(v["passed"] for v in b.report.values())
        seg = b.polylines["I1"][1]
        assert (seg.start.X, seg.end.X) == pytest.approx((0.2027, -365.434), abs=1e-3)

    def test_arc_at_lies_on_its_log_line(self, worked_region):
        # Log x = c gives a point of q*Y - p*X = q*start.Y - p*start.X, and
        # the mirrored branch at its log y gives the point back.
        for arc in worked_region.arcs:
            g, a = arc.gen, arc.start
            for c in (a.X, arc.end.X, 0.5 * (a.X + arc.end.X), a.X - 40.0):
                pt = arc.at(c, False)
                assert pt.X == c
                assert g.q * pt.Y - g.p * pt.X == pytest.approx(
                    g.q * a.Y - g.p * a.X, abs=1e-12 * (1.0 + abs(c)))
                back = arc.at(pt.Y, True)
                assert back.Y == pt.Y
                assert back.X == pytest.approx(c, abs=1e-12 * (1.0 + abs(c)))

    def test_segment_slopes(self, worked_region):
        slopes = {name: [str(s.slope) for s in segs]
                  for name, segs in worked_region.polylines.items()}
        assert slopes == {
            "I1": ["-1/2", "1"], "I2": ["-2"], "I3": ["-1/2"], "I4": ["-2", "1"],
        }

    def test_anchors_on_their_curves(self, worked_region):
        b = worked_region
        rows = b.fan.regions(b.delta)
        # A_q and B_u terminate on the negative-slope strip's lower curve.
        for name, k, side in (("Aq", 2, -1), ("Bu", 2, -1), ("Cr", 0, 1), ("Ds", 1, -1)):
            sigma, half_width = _strip_coordinate(b.anchors[name], rows[k])
            assert sigma == pytest.approx(side * half_width, abs=1e-9)

    def test_meeting_points_match_closed_form(self, worked_region):
        b = worked_region
        p12 = b.anchors["P_i1i2"]
        assert p12.X == pytest.approx(-2 * SQRT2 - SQRT5, abs=1e-9)
        assert p12.Y == pytest.approx(-SQRT2 + SQRT5, abs=1e-9)
        p34 = b.anchors["P_i3i4"]
        assert (p34.X, p34.Y) == pytest.approx((p12.Y, p12.X), abs=1e-9)


ATLAS_CATALOG = json.loads((Path(__file__).resolve().parent.parent
                           / "bench" / "data" / "atlas_catalog.json").read_text())
ATLAS_GENS = [tuple(map(tuple, json.loads(line)["gens"])) for line in
              (Path(__file__).resolve().parent / "atlas_outcomes.jsonl").read_text().splitlines()]


def _angle(x: float, y: float) -> float:
    """The position angle of (x, y) in [0, 2*pi)."""
    return math.atan2(y, x) % (2.0 * math.pi)


def _walk_reference(fan: Fan, start, ccw: bool, stop_index: int) -> list[tuple[int, int]]:
    """The arms (generator index, arm sign) that the per-delta walk of
    build_polyline crossed from a start point: the first arm whose angle
    lies more than 1e-12 past the point's position angle either way, then
    a step per arm to the stop one."""
    arms = _fan_table(fan).arms
    n = len(arms)
    phi = _angle(start.cx, start.cy)
    angles = [_angle(*arm) for arm, _, _ in arms]
    if ccw:
        k = next((j for j, a in enumerate(angles) if a > phi + 1e-12), 0)
    else:
        k = next((j for j in reversed(range(n)) if angles[j] < phi - 1e-12), n - 1)
    walk = []
    while True:
        _, gi, sign = arms[k]
        walk.append((gi, sign))
        if gi == stop_index:
            return walk
        k = (k + 1) % n if ccw else (k - 1) % n


class TestFanPlan:
    """The per-fan construction plan is delta-free: its start points and
    walks are what the per-delta construction chose and walked."""

    @pytest.mark.parametrize("delta", [1e-12, 0.5, 3.0, 300.0])
    def test_plan_matches_the_per_delta_choices(self, delta):
        planned = built = 0
        for gens in dict.fromkeys(ATLAS_GENS):
            fan = Fan(gens)
            try:
                plan = _fan_plan(fan)
            except UnsupportedFan:
                with pytest.raises(UnsupportedFan):
                    compute_slope_classes(fan)
                continue
            planned += 1
            classes = compute_slope_classes(fan)
            assert plan.classes == classes
            pts = intersection_points(fan, delta)
            top, low = choose_start_points(pts, classes.mode)
            assert tuple(IntersectionPoint(*row, delta) for row in plan.starts) == (top, low)
            walks = [_walk_reference(fan, top, True, classes.i1),
                     _walk_reference(fan, top, False, classes.i4),
                     _walk_reference(fan, low, False, classes.i2),
                     _walk_reference(fan, low, True, classes.i3)]
            assert [list(w) for w in plan.walks] == walks
            try:
                b = construct_region(fan, delta, validate=False)
            except DeltaTooSmall:
                continue
            built += 1
            crossed = [[(s.region_index, s.arm_sign) for s in b.polylines[name]]
                       for name in ("I1", "I4", "I2", "I3")]
            assert crossed == walks
            assert (b.start_max, b.start_min) == (top, low)
        assert planned > 150 and built > 100

    def test_walks_are_the_recorded_ones(self):
        # The four walks of every atlas fan, in catalog order, hash to the
        # digest recorded when the walks started from bisected atan2 angles
        # with a 1e-12 tolerance.  No start point comes near an arm: the
        # sine of its angle to every arm is at least 0.06, so the exact
        # sign test and the tolerant angle test choose the same arms.
        h, closest = hashlib.sha256(), 1.0
        for entry in ATLAS_CATALOG["fans"]:
            fan = Fan([tuple(g) for g in entry["gens"]])
            plan = _fan_plan(fan)
            h.update(repr(plan.walks).encode())
            for cx, cy in (row[-2:] for row in plan.starts):
                r = math.hypot(cx, cy)
                closest = min(closest, *(abs(x * cy - y * cx) / math.hypot(x, y) / r
                                         for (x, y), _, _ in _fan_table(fan).arms))
        assert len(ATLAS_CATALOG["fans"]) == 206 and h.hexdigest()[:16] == "20f89c33a54df546"
        assert 0.06 < closest < 0.07

    def test_phi_level_misses_the_plan_once_per_fan(self, hull_requests):
        _fan_plan.cache_clear()
        for k, gens in enumerate(LEVEL_FANS, start=1):
            fan = Fan(gens)
            phi_level(_level_point(fan, 3.5), fan, 3.0, 4.0)
            phi_level(_level_point(fan, 3.25), fan, 3.0, 4.0)
            assert _fan_plan.cache_info().misses == k
        assert len(hull_requests) > 4 * len(LEVEL_FANS)

    @pytest.mark.parametrize("validate", [False, True])
    def test_construct_region_fetches_the_strips_once(self, validate, monkeypatch):
        # The construction reads the strip table once; the battery's r <= 1
        # check reads it once more, and gets equal rows.
        tables = []
        regions = Fan.regions
        monkeypatch.setattr(Fan, "regions",
                            lambda fan, delta: tables.append(regions(fan, delta)) or tables[-1])
        for gens in (WORKED_GENS, [(1, 2), (2, 1), (-1, 1), (0, 1)]):
            tables.clear()
            construct_region(Fan(gens), 3.0, validate=validate)
            assert len(tables) == (2 if validate else 1)
            assert all(table == regions(Fan(gens), 3.0) for table in tables)

    @pytest.mark.parametrize("delta", [3.0, 0.0, -1.0, math.nan, math.inf])
    def test_unsupported_fan_is_rejected_before_delta_and_never_cached(self, delta):
        fan = Fan([(2, 1), (-1, 1)])
        before = _fan_plan.cache_info()
        for _ in range(2):
            with pytest.raises(UnsupportedFan):
                construct_region(fan, delta)
        after = _fan_plan.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (2, 0)
        assert after.currsize == before.currsize

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("validate", [False, True])
    def test_non_positive_delta(self, delta, validate):
        with pytest.raises(NonPositiveDelta):
            construct_region(Fan(WORKED_GENS), delta, validate=validate)


class TestRegionContains:
    def test_unit_point_inside(self, worked_region):
        assert region_contains(worked_region, PosPoint(1.0, 1.0)) == "inside"

    def test_start_anchor_on_boundary(self, worked_region):
        assert region_contains(worked_region, worked_region.anchors["NM"]) == "boundary"

    def test_far_point_outside(self, worked_region, monkeypatch):
        assert region_contains(worked_region, LogPoint(1e6, 1e6)) == "outside"
        assert region_contains(worked_region, LogPoint(13.8, 13.8)) == "outside"
        # No piece's box holds a point that far, so no piece is evaluated.
        def evaluated(*args):
            raise AssertionError("a piece was evaluated")
        for cls in (Segment, Arc):
            monkeypatch.setattr(cls, "band_distance", evaluated)
            monkeypatch.setattr(cls, "at", evaluated)
        assert region_contains(worked_region, LogPoint(1e6, 1e6)) == "outside"
        assert region_contains(worked_region, LogPoint(-1e6, 0.0)) == "outside"

    @pytest.mark.parametrize("pt", [LogPoint(math.nan, 0.0), LogPoint(math.inf, 0.0),
                                    LogPoint(0.0, -math.inf)])
    def test_non_finite_point_rejected(self, worked_region, pt):
        with pytest.raises(NonFinitePoint, match="^point"):
            region_contains(worked_region, pt)

    def test_all_intersection_points_contained(self, worked_region):
        for ip in intersection_points(worked_region.fan, worked_region.delta):
            assert region_contains(worked_region, ip.log, band=1e-7) != "outside"
        # An S^uc point at least 430 log units from both ends of the (1,1)
        # segment from (-235.446, -193.019) to (-193.019, -235.446), whose
        # log-space tangent at the level point is vertical and passes
        # within 1e-15 of it: outside the segment's box, it is no boundary.
        b = construct_region(Fan([(1, 3), (1, 2), (1, 1), (3, 2), (-3, 2), (-1, 1)]), 30.0,
                             validate=False)
        pt = LogPoint(-193.01935200630538, 235.44575887749826)
        assert region_contains(b, pt, band=1e-7) == region_contains(b, pt) == "inside"

    @pytest.mark.parametrize("gens, delta", [(WORKED_GENS, 3.0), ([(-2, 1), (2, 3), (1, 1)], 100.0)],
                             ids=["worked-3", "off_branch-100"])
    def test_box_tests_keep_every_label(self, gens, delta):
        # Against every piece evaluated: a boundary point is within band of
        # some piece, and any other point's label is the parity of the +X
        # ray's crossings, each piece's X at the point's Y evaluated.  The
        # probes are boundary samples, seeded points in the box of the
        # piece ends and points level with each end, 0.5 to either side
        # (their rays pass through a vertex).
        b = construct_region(Fan(gens), delta, validate=False)
        X, Y, _ = sample_boundary(b, 64)
        ends = [(pc.start.X, pc.start.Y) for pc in b.pieces]
        box = np.random.default_rng(0).uniform(np.min(ends, axis=0) - 1.0,
                                               np.max(ends, axis=0) + 1.0, size=(200, 2))
        probes = [*zip(X.tolist(), Y.tolist()), *box.tolist(),
                  *((x + s, y) for x, y in ends for s in (-0.5, 0.5))]
        seen = set()
        for x, y in probes:
            pt, label = LogPoint(x, y), region_contains(b, LogPoint(x, y))
            seen.add(label)
            if label == "boundary":
                assert min(pc.band_distance(pt) for pc in b.pieces) <= 1e-9
            else:
                hits = sum(min(pc.start.Y, pc.end.Y) <= y < max(pc.start.Y, pc.end.Y)
                           and pc.at(y, True).X > x for pc in b.pieces)
                assert label == ("inside" if hits % 2 else "outside")
        assert seen == {"inside", "outside", "boundary"}

    def test_one_call_per_validation_probe(self, monkeypatch):
        # validate_region labels each S^uc and chord point with one call at
        # band 1e-7, and reads (1,1) off the boundary's origin_label.
        calls = []
        monkeypatch.setattr(region_construction, "region_contains",
                            lambda *args: calls.append(args) or region_contains(*args))
        b = construct_region(Fan(WORKED_GENS), 3.0, validate=False)
        b.__dict__["origin_label"] = "outside"
        report = region_construction.validate_region(b)
        probes = ([ip.log for ip in intersection_points(b.fan, b.delta)]
                  + region_construction._chord_points(b))
        assert calls == [(b, pt, 1e-7) for pt in probes]
        assert report["origin_interior"] == {"passed": False, "worst": 1.0,
                                             "detail": "(1,1) classified outside"}


def _join_strips(boundary) -> list[int]:
    """The strip index of each axis-parallel join: the segments with end_sign 0."""
    return [p.region_index for p in boundary.pieces if isinstance(p, Segment) and p.end_sign == 0]


class TestSpecialCases:
    def test_all_positive(self):
        b = construct_region(Fan([(1, 2), (2, 1)]), 3.0)
        assert b.mode == "all_positive"
        assert all(v["passed"] for v in b.report.values())
        assert len(b.pieces) == 8

    def test_all_negative(self):
        b = construct_region(Fan([(-1, 2), (-2, 1)]), 3.0)
        assert b.mode == "all_negative"
        assert all(v["passed"] for v in b.report.values())

    def test_horizontal_generator_vertical_join(self):
        b = construct_region(Fan([(1, 2), (2, 1), (-1, 1), (0, 1)]), 3.0)
        assert all(v["passed"] for v in b.report.values())
        horiz = next(i for i, g in enumerate(b.fan.generators) if g.is_horizontal)
        assert horiz in _join_strips(b)
        # The join is the horizontal strip's piece that no polyline crosses.
        crossings = {s for segs in b.polylines.values() for s in segs}
        joins = [p for p in b.pieces if isinstance(p, Segment)
                 and p.region_index == horiz and p.slope is None
                 and p not in crossings and p.reversed() not in crossings]
        assert len(joins) == 1
        assert joins[0].start.X == pytest.approx(joins[0].end.X, abs=1e-9)

    def test_vertical_generator_horizontal_join(self):
        b = construct_region(Fan([(1, 2), (2, 1), (-1, 1), (1, 0)]), 3.0)
        assert all(v["passed"] for v in b.report.values())
        vert = next(i for i, g in enumerate(b.fan.generators) if g.q == 0)  # X = 0
        assert vert in _join_strips(b)

    def test_unsupported_fan(self):
        with pytest.raises(UnsupportedFan):
            construct_region(Fan([(2, 1), (-1, 1)]), 3.0)

    def test_closure_inside_two_axis_strips_is_unsupported(self):
        # No atlas fan reaches it: the terminal curves of (1,2) and (2,1),
        # both on their + side, meet at delta*(-sqrt5/3, sqrt5/3), inside the
        # strips of both axes, so no single axis-parallel join can close.
        fan = Fan([(-1, 1), (1, 2), (2, 1), (1, 0), (0, 1)])
        gens = fan.generators
        ends = [Segment(LogPoint(0.0, 0.0), LogPoint(0.0, 0.0), g, gens.index(g), 1, 1)
                for g in (LineGenerator(1, 2), LineGenerator(2, 1))]
        with pytest.raises(UnsupportedFan, match="closure point inside two axis strips"):
            region_construction._close_side(*ends, fan.regions(3.0), gens, 3.0)

    def test_slope_chain_signs(self, worked_region):
        # In standard mode chain 2 (I2 reversed, then I3) must fall and
        # chain 3 rise; no atlas fan breaks either, so an I3 segment on
        # (-1,1), whose slope 1 is positive, stands in for one that would.
        check = region_construction._slope_chain_check
        assert check(worked_region) == {"passed": True, "worst": 0.0, "detail": "strict order"}
        polylines = dict(worked_region.polylines)
        rising = next(s for s in worked_region.pieces if isinstance(s, Segment)
                      and s.slope is not None and s.slope > 0)
        polylines["I3"] = polylines["I3"] + [rising]
        out = check(SimpleNamespace(polylines=polylines, mode="standard"))
        assert out == {"passed": False, "worst": 1.0, "detail": "chain 2 has a nonnegative slope"}

    def test_small_delta_rejected(self):
        with pytest.raises(DeltaTooSmall):
            construct_region(Fan(WORKED_GENS), 0.05)

    @pytest.mark.parametrize("delta", [5e-10, 1e-300])
    def test_delta_below_strip_tol_rejected(self, delta):
        # The validation battery's near sets stay nonempty.
        with pytest.raises(DeltaTooSmall):
            construct_region(Fan(WORKED_GENS), delta)

    def test_huge_delta_warns_nothing(self):
        # The loop check's chord products overflow at this delta.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DeltaTooSmall):
                construct_region(Fan(WORKED_GENS), 1e300)

    def test_failed_validation_keeps_its_report(self):
        # An atlas fan that fails Nagumo at delta = 0.5: the exception names
        # the first failing check, as before, and carries the whole report.
        fan = Fan([(-2, 3), (1, 3), (3, 2)])
        with pytest.raises(DeltaTooSmall) as exc:
            construct_region(fan, 0.5)
        assert exc.value.check == "nagumo"
        assert str(exc.value) == "nagumo: max extreme-ray outward component"
        report = exc.value.report
        region = construct_region(fan, 0.5, validate=False)
        assert report == region_construction.validate_region(region)
        assert {name for name, res in report.items() if not res["passed"]} == {
            "nagumo", "cone_containment"}
        X, Y = report["nagumo"]["witness"]
        assert report["nagumo"]["worst"] > 1e-9
        assert min(pc.band_distance(LogPoint(X, Y)) for pc in region.pieces) <= 1e-9
        assert report["cone_containment"]["detail"] == (
            "horizontal-ray case: slope(l1) >= 0 or y_u >= M")

    def test_construction_failure_has_no_report(self):
        with pytest.raises(DeltaTooSmall) as exc:
            construct_region(Fan([(-1, 2), (1, 3), (1, 1)]), 0.5)
        assert exc.value.check == "ArcsDontMeet" and exc.value.report is None


def _crossing_pairs_reference(pieces) -> int:
    """Piece pairs that cross, by the scalar chord-by-chord loop that the
    array form of _loop_checks replaced (same formulas, same tolerances)."""
    chains = _loop_chains_reference(pieces)

    def meet(p1, p2, p3, p4) -> bool:
        d1x, d1y = p2.X - p1.X, p2.Y - p1.Y
        d2x, d2y = p4.X - p3.X, p4.Y - p3.Y
        den = d1x * d2y - d1y * d2x
        if abs(den) < 1e-300:
            return False
        t = ((p3.X - p1.X) * d2y - (p3.Y - p1.Y) * d2x) / den
        u = ((p3.X - p1.X) * d1y - (p3.Y - p1.Y) * d1x) / den
        return 1e-9 < t < 1.0 - 1e-9 and 1e-9 < u < 1.0 - 1e-9

    bad = 0
    for a in range(len(chains)):
        for b in range(a + 1, len(chains)):
            ca, cb = chains[a], chains[b]
            if (max(p.X for p in cb) < min(p.X for p in ca) - 1e-9
                    or min(p.X for p in cb) > max(p.X for p in ca) + 1e-9
                    or max(p.Y for p in cb) < min(p.Y for p in ca) - 1e-9
                    or min(p.Y for p in cb) > max(p.Y for p in ca) + 1e-9):
                continue
            bad += any(meet(ca[i], ca[i + 1], cb[j], cb[j + 1])
                       for i in range(32) for j in range(32))
    return bad


def _log_loop(*corners) -> SimpleNamespace:
    """A closed loop of straight log-space pieces through the corners."""
    pts = [LogPoint(*c) for c in corners]
    arcs = tuple(Arc(LineGenerator(1, 1), 1, a, b) for a, b in zip(pts, pts[1:] + pts[:1]))
    return SimpleNamespace(pieces=arcs, table=_PieceTable(arcs))


class TestLoopChecks:
    def test_bow_tie_crosses_once(self):
        closed, simple = _loop_checks_of(_log_loop((0, 0), (3, 2), (3, 0), (0, 1.7)))
        assert closed["passed"] and closed["worst"] == 0.0
        assert not simple["passed"] and simple["worst"] == 1.0

    def test_touching_corners_do_not_cross(self):
        # Two triangles that share only the corner (1, 1).
        loop = _log_loop((0, 0), (1, 1), (2, 0), (2.5, 2), (1, 1), (0, 2.2))
        assert _loop_checks_of(loop)[1]["worst"] == 0.0

    @pytest.mark.parametrize("gens, delta", [
        (WORKED_GENS, 3.0), (WORKED_GENS, 100.0), ([(1, 2), (2, 1)], 1.0),
        ([(1, 2), (2, 1), (-1, 1), (0, 1)], 3.0), ([(-2, 1), (2, 3), (1, 1)], 0.5),
        ([(-1, 1), (1, 3), (3, 1), (2, 1)], 10.0), ([(-2, 1), (2, 3), (1, 1)], 300.0),
        # The boundary doubles back on itself: piece 5 runs back up along
        # piece 4 within ulps, so rounding decides the crossing.
        ([(-2, 1), (2, 3), (3, 1), (0, 1), (-3, 2)], 10.0),
        # Pieces 0 and 3 lie on one log line, 1e-10 apart, inside the box
        # slack: collinear and disjoint, they do not cross.
        ([(0, 0), (1, 0.3), (1, 3.3), (1 + 1e-10, 0.3 * (1 + 1e-10)), (2, 0.6), (3, -1)], None),
    ])
    def test_matches_the_scalar_loop(self, gens, delta):
        if delta is None:
            b = _log_loop(*gens)
        else:
            b = construct_region(Fan(gens), delta, validate=False)
        worst = _loop_checks_of(b)[1]["worst"]
        assert worst == float(_crossing_pairs_reference(b.pieces))
        assert worst == 0.0 or delta is not None

    def test_cached_index_arrays_are_read_only(self):
        # Every loop of a size shares them, so a write would corrupt the
        # next loop's check.
        for pieces in (1, 2, 7):
            loop = _loop_index(pieces)
            nxt, a, b, index, u = loop.nxt, loop.a, loop.b, loop.index, loop.u
            assert nxt.tolist() == np.roll(np.arange(pieces), -1).tolist()
            assert [a.tolist(), b.tolist()] == [x.tolist() for x in np.triu_indices(pieces, 1)]
            assert index.tolist() == [k for k in range(pieces) for _ in range(_LOOP_CHORDS + 1)]
            assert u.tolist() == [i / _LOOP_CHORDS for i in range(_LOOP_CHORDS + 1)] * pieces
            for array in (nxt, a, b, index, u):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[:1] = 0


def _nagumo_reference(boundary, samples) -> dict:
    """The scalar Nagumo loop that the array form replaced: one brute-force
    value per sample, the first strict maximum names the witness."""
    worst = -math.inf
    witness = None
    for x, y, k in zip(*(a.tolist() for a in samples)):
        pt = LogPoint(x, y)
        n = _normal_at_reference(boundary.pieces[k], pt)
        for ray in rhs_bruteforce(pt, boundary.fan, boundary.delta).extreme_rays():
            v = ray[0] * n[0] + ray[1] * n[1]
            if v > worst:
                worst = v
                witness = (pt.X, pt.Y)
    if worst == -math.inf:
        worst = 0.0
    return {"passed": worst <= 1e-9, "worst": worst, "witness": witness,
            "detail": "max extreme-ray outward component"}


def _r_le_1_reference(boundary, samples) -> dict:
    """The scalar r <= 1 loop that the array form replaced."""
    worst = 0
    witness = None
    for x, y in zip(samples[0].tolist(), samples[1].tolist()):
        pt = LogPoint(x, y)
        r = r_count(pt, boundary.fan, boundary.delta)
        if r > worst:
            worst = r
            witness = (pt.X, pt.Y)
    return {"passed": worst <= 1, "worst": float(worst), "witness": witness,
            "detail": "max r(x) on boundary"}


class TestSampleChecks:
    @pytest.mark.parametrize("gens, delta, nagumo, r_le_1", [
        (WORKED_GENS, 3.0, True, True), (WORKED_GENS, 100.0, True, True),
        ([(1, 2), (2, 1)], 1.0, True, True), ([(1, 2), (2, 1), (-1, 1), (0, 1)], 3.0, True, True),
        ([(-2, 1), (2, 3), (1, 1)], 300.0, True, True),
        # Nagumo failures at delta = 0.5.
        ([(-1, 3), (2, 3), (2, 1)], 0.5, False, True), ([(-2, 3), (1, 3), (3, 2)], 0.5, False, True),
        ([(-2, 3), (2, 3), (1, 1), (2, 1), (1, 2)], 0.5, False, True),
        ([(-3, 2), (1, 2), (2, 1), (3, 1), (1, 1)], 0.5, False, True),
        # r <= 1 failures, where Nagumo fails too.
        ([(-2, 1), (2, 3), (3, 1), (0, 1), (-3, 2)], 1.0, False, False),
        # Here a half plane's inward normal is the worst extreme ray.
        ([(-2, 1), (2, 3), (3, 1), (0, 1), (-3, 2)], 3.0, False, False),
        ([(-3, 1), (1, 2), (2, 1), (-1, 2), (-2, 1), (0, 1)], 3.0, False, False),
    ])
    def test_matches_the_scalar_loops(self, gens, delta, nagumo, r_le_1):
        b = construct_region(Fan(gens), delta, validate=False)
        samples = sample_boundary(b, _VALIDATION_SAMPLES)
        got, want = _nagumo_check(b, samples), _nagumo_reference(b, samples)
        assert got == want and got["passed"] is nagumo
        assert type(got["worst"]) is float
        got, want = _r_le_1_check(b, samples), _r_le_1_reference(b, samples)
        assert got == want and got["passed"] is r_le_1

    def test_no_samples(self, worked_region):
        none = (np.array([]), np.array([]), np.array([], dtype=int))
        assert _nagumo_check(worked_region, none) == _nagumo_reference(worked_region, none)
        assert _r_le_1_check(worked_region, none) == _r_le_1_reference(worked_region, none)


class TestWitnesses:
    def test_suc_names_the_first_outside_point(self):
        b = construct_region(Fan([(-2, 1), (2, 3), (3, 1), (0, 1), (-3, 2)]), 3.0,
                             validate=False)
        points = intersection_points(b.fan, b.delta)
        labels = [region_contains(b, ip.log, band=1e-7) for ip in points]
        outside = [(ip.log.X, ip.log.Y) for ip, label in zip(points, labels) if label == "outside"]
        res = _suc_check(b, labels)
        assert len(outside) > 1 and res["worst"] == float(len(outside))
        assert res["witness"] == outside[0]

    @pytest.mark.parametrize("gens", [[(-2, 1), (2, 3), (1, 1)], [(2, 3), (1, 1)]])
    def test_straight_arcs_pass_every_check(self, gens):
        # Each has a (1,1) arc, straight in x-space, on which the tangent
        # slope is constant: the arc turns one way, non-strictly.
        b = construct_region(Fan(gens), 3.0, validate=False)
        assert any(arc.gen.p == arc.gen.q for arc in b.arcs)
        report = region_construction.validate_region(b)
        assert all(res["passed"] for res in report.values()), report
        assert report["arc_tangent_monotonicity"]["witness"] is None

    def test_arc_monotonicity_names_a_zero_length_arc(self, worked_region):
        k, arc = next((k, pc) for k, pc in enumerate(worked_region.pieces)
                      if isinstance(pc, Arc))
        pieces = list(worked_region.pieces)
        pieces[k] = dataclasses.replace(arc, end=arc.start)
        res = _arc_monotonicity_check(dataclasses.replace(worked_region, pieces=tuple(pieces)))
        assert not res["passed"] and res["worst"] == 1.0
        assert res["witness"] == (arc.start.X, arc.start.Y)


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


CATALOG_GENS = [tuple(tuple(g) for g in fan["gens"]) for fan in json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "data" / "atlas_catalog.json")
    .read_text())["fans"]]


class TestArraySampler:
    """The array sampler, normals and chains against the scalar references,
    bit for bit."""

    @staticmethod
    def assert_matches_references(b, sampler=sample_boundary):
        X, Y, index = sampler(b, _VALIDATION_SAMPLES)
        ref = _sample_boundary_reference(b, _VALIDATION_SAMPLES)
        assert _bits(X) == _bits(pt.X for pt, _ in ref)
        assert _bits(Y) == _bits(pt.Y for pt, _ in ref)
        assert index.tolist() == [k for _, k in ref]
        n0, n1 = _normals_at(b.table, index, X, Y)
        normals = [_normal_at_reference(b.pieces[k], pt) for pt, k in ref]
        assert _bits(n0) == _bits(n[0] for n in normals)
        assert _bits(n1) == _bits(n[1] for n in normals)
        chain_x, chain_y = _chains(b.table)
        ref_chains = _loop_chains_reference(b.pieces)
        assert _bits(chain_x.ravel()) == _bits(pt.X for c in ref_chains for pt in c)
        assert _bits(chain_y.ravel()) == _bits(pt.Y for c in ref_chains for pt in c)
        # The battery's one pass has the bits of the two passes apart.
        loop, samples = _validation_points(b.table)
        for got, want in zip((*loop, *samples), (chain_x, chain_y, X, Y, index)):
            assert got.shape == want.shape and _bits(got.ravel()) == _bits(want.ravel())

    def test_worked_fan(self, worked_region):
        self.assert_matches_references(worked_region)

    @pytest.mark.parametrize("delta", [3.0, 100.0])
    def test_catalog_fans(self, delta, monkeypatch):
        scalar_calls, log_form = [], []

        def counting_batch(X0, Y0, s, X):
            # Elements off the batch kernel's direct branch.
            e, t = X0 - Y0, X - X0
            log_form.append(int((~((np.abs(e) < _EXP_SAFE) & (t < _EXP_SAFE)
                                   & (e + t < _EXP_SAFE))).sum()))
            return _line_y_log_batch(X0, Y0, s, X)

        def counting_sampler(b, total):
            # Scalar kernel calls made by the array sampler alone.
            monkeypatch.setattr(region_construction, "_line_y_log",
                                lambda *args: scalar_calls.append(args) or _line_y_log(*args))
            monkeypatch.setattr(region_construction, "_line_y_log_batch", counting_batch)
            try:
                return sample_boundary(b, total)
            finally:
                monkeypatch.setattr(region_construction, "_line_y_log", _line_y_log)
                monkeypatch.setattr(region_construction, "_line_y_log_batch", _line_y_log_batch)

        built = 0
        for gens in CATALOG_GENS:
            try:
                b = construct_region(Fan(gens), delta, validate=False)
            except ToricRegionsError:
                continue
            built += 1
            self.assert_matches_references(b, counting_sampler)
        assert built > 100
        # At delta = 100 some samples leave the direct branch, and the batch
        # kernel takes them in its log form; at delta = 3 none do.  Neither
        # calls the scalar kernel.
        assert scalar_calls == [] and (sum(log_form) > 0) is (delta == 100.0)

    def test_scalar_raise_is_kept(self):
        # The sampled point past the quadrant exit raises NoCrossing in the
        # array sampler as in the scalar one.
        # On y = 2 - x through (1, 1), log x = 0.9 is past the exit at log 2.
        seg = Segment(LogPoint(0.0, 0.0), LogPoint(3.0, -1.0), LineGenerator(1, 1), 0, 1, 0)
        assert _points_of(seg, [0.1]) == [_point_at_reference(seg, 0.1)]
        with pytest.raises(NoCrossing):
            _point_at_reference(seg, 0.3)
        with pytest.raises(NoCrossing):
            _points_of(seg, [0.1, 0.3])


_ORACLE_ARC_SAMPLES = 4096


def _sampled_hull(boundary):
    """The hull's oracle: the monotone chain on every piece endpoint and on
    every arc sampled at its log-space mix s + u*(e - s), u = k/4096.
    Returns the log coordinates of its vertices, so that coordinates that
    underflow in x-space keep their value."""
    pts = {}
    for piece in boundary.pieces:
        us = [0.0, 1.0]
        if isinstance(piece, Arc):
            us += [k / _ORACLE_ARC_SAMPLES for k in range(1, _ORACLE_ARC_SAMPLES)]
        for u in us:
            lp = _point_at_reference(piece, u) if 0.0 < u < 1.0 else (piece.start, piece.end)[int(u)]
            pts[(math.exp(lp.X), math.exp(lp.Y))] = lp
    return [pts[v] for v in _monotone_chain(list(pts))]


def _fraction_chain(pts):
    """Andrew's monotone chain with every cross product exact."""
    pts = sorted(set(pts))

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = (tuple(map(Fraction, q)) for q in chain[-2:])
                bx, by = map(Fraction, p)
                if (ax - ox) * (by - oy) - (ay - oy) * (bx - ox) > 0:
                    break
                chain.pop()
            chain.append(p)
        return chain

    return half(pts)[:-1] + half(pts[::-1])[:-1]


def _bisect_level(pt, fan, delta_lo, delta_hi):
    """phi_level as first written: the same end checks, then bisection of
    the band on hull_contains down to a bracket of _LEVEL_TOL."""
    if not hull_contains(_hull(fan, delta_hi), pt):
        raise OutOfBand(f"point outside conv(P({delta_hi}))")
    if hull_contains(_hull(fan, delta_lo), pt, rel_tol=-1e-9):
        raise OutOfBand(f"point strictly inside conv(P({delta_lo}))")
    lo, hi = delta_lo, delta_hi
    while hi - lo > _LEVEL_TOL:
        mid = 0.5 * (lo + hi)
        if hull_contains(_hull(fan, mid), pt):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


LEVEL_FANS = ([(-1, 1), (1, 2), (2, 1)], [(-1, 1), (1, 2), (2, 1), (1, 0)],
              [(1, 2), (2, 1), (1, 1)], [(-1, 2), (-2, 1)])
LEVEL_CENSUS_FAN = [(-2, 1), (-3, 1), (-3, 2)]  # hull_contains is not monotone in delta here


def _level_point(fan: Fan, level: float) -> LogPoint:
    """The start point (N, M) of the region at delta = level."""
    nm = choose_start_points(intersection_points(fan, 1.0), compute_slope_classes(fan).mode)[0]
    return LogPoint(level * nm.cx, level * nm.cy)


@pytest.fixture
def hull_requests(monkeypatch):
    """The deltas of every _hull request, counted from a cleared cache."""
    requests = []
    _hull.cache_clear()
    monkeypatch.setattr(region_construction, "_hull",
                        lambda fan, delta: requests.append(delta) or _hull(fan, delta))
    return requests


class TestHullAndPhi:
    def test_hull_contains_all_anchors(self, worked_region):
        hull = conv_hull(worked_region)
        for pt in worked_region.anchors.values():
            assert hull_contains(hull, pt, rel_tol=1e-7)

    def test_hull_contains_degenerate_hulls(self):
        # No vertex holds no point; one vertex holds only itself, to 1e-9
        # relative in each coordinate.
        assert not hull_contains([], LogPoint(0.0, 0.0))
        assert hull_contains([(1.0, 2.0)], PosPoint(1.0, 2.0 * (1.0 + 5e-10)))
        assert not hull_contains([(1.0, 2.0)], PosPoint(1.0, 2.0 * (1.0 + 5e-9)))
        assert not hull_contains([(1.0, 2.0)], PosPoint(1.1, 2.0))
        # rel_tol is the one vertex's tolerance too, and a point has no
        # strict interior, as a two-vertex hull has none.
        assert not hull_contains([(1.0, 1.0)], (1.0, 1.0), rel_tol=-1e-9)
        assert not hull_contains([(1.0, 1.0), (2.0, 2.0)], (1.0, 1.0), rel_tol=-1e-9)
        assert hull_contains([(1.0, 1.0)], (1.0, 1.0), rel_tol=0.0)
        assert not hull_contains([(1.0, 1.0)], (1.0, 1.0 + 5e-10), rel_tol=0.0)

    def test_monotone_chain_of_two_or_fewer_distinct_points(self):
        # Two or fewer distinct points are their own hull, sorted.
        assert _monotone_chain([]) == []
        assert _monotone_chain([(1.0, 2.0), (1.0, 2.0)]) == [(1.0, 2.0)]
        assert _monotone_chain([(3.0, 1.0), (1.0, 2.0), (3.0, 1.0)]) == [(1.0, 2.0), (3.0, 1.0)]

    def test_hull_matches_sampled_reference(self):
        # The exact hull against the hull of 4,096 samples per arc: every
        # sampled vertex lies in it, and every vertex of it is a piece
        # endpoint or a point of an arc, the ends of the caps among them.
        band = [3.0 + k / 7 for k in range(8)]
        cases = [(gens, d) for gens in ([(-1, 1), (1, 2), (2, 1)],
                                        [(-1, 1), (1, 2), (2, 1), (1, 0)],
                                        [(1, 2), (2, 1), (1, 1)],
                                        [(-1, 2), (-2, 1)],
                                        [(-2, 1), (-3, 1), (-3, 2)])
                 for d in band]
        cases += [
            ([(-1, 1), (1, 2), (2, 1), (1, 3)], 1.0),  # 650 sampled vertices, 10 from endpoints
            ([(-1, 1), (1, 2), (1, 1)], 1.0),  # an arc on (1,1), straight in x-space
            ([(-1, 1), (1, 2), (2, 1), (1, 0)], 1.0),  # an axis join
            ([(-1, 1), (1, 2), (3, 1)], 100.0),  # coordinates down to 1e-281
            ([(2, 3), (1, 1)], 5.0),  # a bridge walks past a straight edge
            ([(3, 2), (2, 1)], 1.25),  # a bridge walks past a whole cap
        ]
        for gens, delta in cases:
            region = construct_region(Fan(gens), delta, validate=False)
            hull = conv_hull(region)
            assert all(type(c) is float for pt in hull for c in pt)
            for lp in _sampled_hull(region):
                assert hull_contains(hull, lp, rel_tol=1e-12), (gens, delta, lp)
            ends = {(math.exp(pt.X), math.exp(pt.Y))
                    for piece in region.pieces for pt in (piece.start, piece.end)}
            on_caps = {hull[(k + i) % len(hull)] for k in hull.caps for i in (0, 1)}
            for x, y in hull:
                if (x, y) in ends:
                    continue
                assert (x, y) in on_caps, (gens, delta, (x, y))
                lp = LogPoint(math.log(x), math.log(y))
                assert min(arc.band_distance(lp) / (1.0 + delta_i(arc.gen, delta))
                           for arc in region.arcs) <= 1e-12, (gens, delta, lp)
            for k in range(len(hull)):  # strictly convex, by exact turns
                assert region_construction._orient(*(hull[(k + i) % len(hull)] for i in range(3))) > 0

    def test_hull_splices_arcs_as_caps(self):
        # An arc that bulges past the polygon of the piece endpoints is one
        # cap on its curve, not a run of samples: the sampled hull has 650
        # vertices here (50 at 256 samples per arc).
        region = construct_region(Fan([(-1, 1), (1, 2), (2, 1), (1, 3)]), 1.0, validate=False)
        ends = [(math.exp(pt.X), math.exp(pt.Y))
                for piece in region.pieces for pt in (piece.start, piece.end)]
        hull = conv_hull(region)
        assert len(_monotone_chain(ends)) == 10 and len(_sampled_hull(region)) == 650
        assert len(hull.caps) == 1 and len(hull) <= 10 + 2 * len(hull.caps)
        for k, (p, q, L) in hull.caps.items():
            for x, y in (hull[k], hull[(k + 1) % len(hull)]):
                assert abs(q * math.log(y) - p * math.log(x) - L) <= 1e-12 * (1.0 + abs(L))
        # A hull is its vertices and its caps; a list() copy or a slice
        # keeps the vertices and drops the caps.
        assert hull_contains(list(hull), LogPoint(0.0, 0.0))
        copy = Hull(hull, dict(hull.caps))
        assert list(copy) == list(hull) and copy.caps == hull.caps
        assert Hull(hull, {}).caps != hull.caps
        assert type(list(hull)) is list and type(hull[:]) is list

    def test_endpoint_chain_is_exact(self):
        # At delta = 100 this region's coordinates reach down to 1e-281,
        # where float cross products underflow; the chain still matches one
        # taken with exact Fraction cross products on the same floats.
        region = construct_region(Fan([(-1, 1), (1, 2), (3, 1)]), 100.0, validate=False)
        ends = list({(math.exp(pt.X), math.exp(pt.Y))
                     for piece in region.pieces for pt in (piece.start, piece.end)})
        assert _monotone_chain(ends) == _fraction_chain(ends)
        assert len(_monotone_chain(ends)) >= 7

    def test_hull_nesting(self):
        # phi_level's bracket rests on this law: over consecutive deltas of
        # the level band, every vertex of the smaller hull lies in the larger
        # one, and some vertex of the larger lies outside the smaller.
        # LEVEL_CENSUS_FAN stays out: hull_contains is not monotone there.
        for gens in LEVEL_FANS:
            fan = Fan(gens)
            hulls = [_hull(fan, delta) for delta in (3.0, 3.25, 3.5, 3.75, 4.0)]
            for small, big in zip(hulls, hulls[1:]):
                assert all(hull_contains(big, v) for v in small), gens
                assert not all(hull_contains(small, v) for v in big), gens

    def test_phi_fixed_point(self):
        fan = Fan(WORKED_GENS)
        hull = conv_hull(construct_region(fan, 3.5, validate=False))
        for x, y in hull[::2]:
            assert phi_level(PosPoint(x, y), fan, 3.0, 4.0) == pytest.approx(3.5, abs=1e-8)

    def test_overflow_is_a_documented_error(self):
        # At delta = 100 this region reaches past e^709.78, beyond the float
        # range: the hull, a band reaching that delta, and a query point
        # that far out raise MonomialOverflow, not a bare OverflowError.
        fan = Fan([(-2, 1), (2, 3), (1, 1)])
        with pytest.raises(MonomialOverflow, match="beyond the float range"):
            conv_hull(construct_region(fan, 100.0, validate=False))
        with pytest.raises(MonomialOverflow):
            phi_level(LogPoint(5.0, 5.0), fan, 3.0, 100.0)
        hull = conv_hull(construct_region(fan, 3.0, validate=False))
        with pytest.raises(MonomialOverflow, match="710"):
            hull_contains(hull, LogPoint(710.0, 0.0))
        assert hull_contains(hull, LogPoint(0.0, 0.0))

    def test_infinite_delta_is_rejected_at_once(self):
        # No strip crossing exists at an infinite delta for the bisection to
        # find; the delta is rejected where the strip widths are formed.
        fan = Fan(WORKED_GENS)
        with pytest.raises(NonPositiveDelta, match="inf"):
            construct_region(fan, math.inf)
        with pytest.raises(NonPositiveDelta, match="inf"):
            phi_level(LogPoint(1.0, 1.0), fan, 3.0, math.inf)

    def test_phi_out_of_band(self):
        fan = Fan(WORKED_GENS)
        with pytest.raises(OutOfBand):
            phi_level(PosPoint(1.0, 1.0), fan, 3.0, 4.0)
        with pytest.raises(OutOfBand):
            phi_level(LogPoint(100.0, 100.0), fan, 3.0, 4.0)

    @pytest.mark.parametrize("gens", LEVEL_FANS)
    def test_phi_matches_bisection_on_level_fans(self, gens, hull_requests):
        fan = Fan(gens)
        for k in range(12):
            level = 3.0 + (k + 0.5) / 12
            pt = _level_point(fan, level)
            hull_requests.clear()
            _hull.cache_clear()
            phi = phi_level(pt, fan, 3.0, 4.0)
            assert len(hull_requests) <= 12, (level, hull_requests)
            assert abs(phi - _bisect_level(pt, fan, 3.0, 4.0)) <= 1e-9
            assert abs(phi - level) <= 1e-6
            # The bracket contract at phi +- _LEVEL_TOL.
            assert hull_contains(_hull(fan, phi + 1e-9), pt)
            assert not hull_contains(_hull(fan, phi - 1e-9), pt)

    def test_census_levels_keep_bisections_probe_count(self, hull_requests):
        fan = Fan(LEVEL_CENSUS_FAN)
        for k in range(16):
            pt = _level_point(fan, 3.0 + (k + 0.5) / 16)
            hull_requests.clear()
            _hull.cache_clear()
            phi = phi_level(pt, fan, 3.0, 4.0)
            assert len(hull_requests) <= 32
            assert 3.0 <= phi <= 4.0

    @pytest.mark.parametrize("gens", [WORKED_GENS, [(1, 2), (2, 1), (1, 1)], [(-1, 2), (-2, 1)]])
    def test_edge_midpoints_make_few_hull_requests(self, gens, hull_requests):
        # Off every vertex ray: the midpoints of the hull's edges at 3.5.  The
        # measure's zero is where hull_contains flips, so the secant and the
        # Illinois step find it in a few probes (33 requests each before).
        # Two worked-fan midpoints sit on a small coordinate that
        # hull_contains' tolerance swallows: hull(3.31...) and hull(3.5)
        # both hold them, and they make 12.
        fan = Fan(gens)
        hull = conv_hull(construct_region(fan, 3.5, validate=False))
        for k in range(len(hull)):
            (ax, ay), (bx, by) = hull[k], hull[(k + 1) % len(hull)]
            pt = PosPoint(0.5 * (ax + bx), 0.5 * (ay + by))
            hull_requests.clear()
            _hull.cache_clear()
            phi = phi_level(pt, fan, 3.0, 4.0)
            on_edge = not hull_contains(hull, pt, rel_tol=-1e-9)
            assert len(hull_requests) <= (12 if on_edge and phi < 3.5 - 1e-6 else 10), (k, phi)
            assert hull_contains(_hull(fan, phi + 1e-9), pt)
            assert not hull_contains(_hull(fan, phi - 1e-9), pt, rel_tol=-1e-9)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_measure_bisects(self, value, hull_requests, monkeypatch):
        # A measure of no use leaves only bisection steps: the probes and
        # the result are bisection's, bit for bit.
        monkeypatch.setattr(region_construction, "_level_measure", lambda hull, pt: value)
        fan = Fan(WORKED_GENS)
        pt = _level_point(fan, 3.3)
        phi = phi_level(pt, fan, 3.0, 4.0)
        assert len(hull_requests) == 32
        assert phi == _bisect_level(pt, fan, 3.0, 4.0)

    def test_level_fans_probe_mean_and_cap(self, hull_requests):
        # On every level-fan query the point lies on the ray of a hull
        # vertex, so the secant in log delta lands on the level: about two
        # interior probes, one hull on each side of it.
        counts = []
        for gens in LEVEL_FANS:
            fan = Fan(gens)
            for k in range(12):
                hull_requests.clear()
                _hull.cache_clear()
                phi_level(_level_point(fan, 3.0 + (k + 0.5) / 12), fan, 3.0, 4.0)
                counts.append(len(hull_requests))
        assert sum(counts) / len(counts) <= 5.0
        assert max(counts) <= 7

    @pytest.mark.parametrize("inside, outside", [(1.0, -1e-12), (1e-12, -1.0)])
    def test_adversarial_measure_stops_at_the_cap(self, inside, outside, hull_requests,
                                                  monkeypatch):
        # A measure whose secant point always falls next to one end of the
        # bracket: only the projection bounds the probes, to bisection's 30
        # interior probes plus one after the 2 end requests.  The bound
        # holds under rounding: without its ulp margin some levels make 34.
        monkeypatch.setattr(region_construction, "_level_measure",
                            lambda hull, pt: inside if hull_contains(hull, pt) else outside)
        fan = Fan(WORKED_GENS)
        for k in range(20):
            pt = _level_point(fan, 3.0 + (k + 0.5) / 20)
            hull_requests.clear()
            phi = phi_level(pt, fan, 3.0, 4.0)
            assert len(hull_requests) == 2 + 30 + 1, k
            assert abs(phi - _bisect_level(pt, fan, 3.0, 4.0)) <= 1e-9
            assert hull_contains(_hull(fan, phi + 0.5 * _LEVEL_TOL), pt)
            assert not hull_contains(_hull(fan, phi - 0.5 * _LEVEL_TOL), pt)

    def test_secant_far_outside_the_bracket_bisects(self, hull_requests, monkeypatch):
        # Two nearly equal measures of the same sign put the log-space
        # secant point near 3e14, whose exp overflows: it is rejected
        # before exp, so every probe is a bisection step.
        monkeypatch.setattr(region_construction, "_level_measure",
                            lambda hull, pt: 1.0 if hull_contains(hull, pt) else 1.0 + 2.0 ** -50)
        fan = Fan(WORKED_GENS)
        pt = _level_point(fan, 3.3)
        phi = phi_level(pt, fan, 3.0, 4.0)
        assert hull_requests[:3] == [4.0, 3.0, 3.5]
        assert phi == _bisect_level(pt, fan, 3.0, 4.0)

    def test_last_probe_measure_is_not_computed(self, hull_requests, monkeypatch):
        # The measure places the next probe, so the probe that closes the
        # bracket has none: one measure per end and per earlier probe.
        measures = []
        measure = region_construction._level_measure
        monkeypatch.setattr(region_construction, "_level_measure",
                            lambda hull, pt: measures.append(hull) or measure(hull, pt))
        fan = Fan(WORKED_GENS)
        phi = phi_level(_level_point(fan, 3.3), fan, 3.0, 4.0)
        assert len(measures) == len(hull_requests) - 1
        assert abs(phi - 3.3) <= 1e-9

    def test_measure_is_log_of_level_ratio(self):
        # Near the level the start point is the hull vertex on the ray, so
        # the measure is log(delta / level).
        fan = Fan(WORKED_GENS)
        pt = _level_point(fan, 3.5)
        for delta in (3.0, 3.4, 3.5, 3.6, 4.0):
            measure = region_construction._level_measure(_hull(fan, delta), pt)
            assert measure == pytest.approx(math.log(delta / 3.5), abs=1e-12)
        assert math.isnan(region_construction._level_measure([(0.0, 1.0), (2.0, 1.0),
                                                              (1.0, 2.0)], pt))

    def test_measure_of_a_ray_that_meets_no_edge_is_nan(self, worked_region):
        # The origin gives the ray no direction: every edge's denominator is 0.
        hull = conv_hull(worked_region)
        assert math.isnan(region_construction._level_measure(hull, LogPoint(0.0, 0.0)))

    def test_empty_band_is_out_of_band(self, hull_requests):
        fan = Fan(WORKED_GENS)
        with pytest.raises(OutOfBand, match=r"empty band \[4.0, 3.0\]"):
            phi_level(_level_point(fan, 3.5), fan, 4.0, 3.0)
        assert hull_requests == []

    @pytest.mark.parametrize("width", [0.0, 5e-10, 9e-10])
    def test_narrow_band_returns_after_the_end_checks(self, width, hull_requests):
        fan = Fan(WORKED_GENS)
        phi = phi_level(_level_point(fan, 3.5), fan, 3.5, 3.5 + width)
        assert hull_requests == [3.5 + width, 3.5]
        assert phi == 0.5 * (3.5 + 3.5 + width)
