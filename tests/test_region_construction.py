import json
import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

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
    normalize_generator,
    r_count,
    strip_coordinate,
)
from toric_regions.region_construction import (
    _ARC_SAMPLES,
    _EXP_SAFE,
    _HULL_ARC_SAMPLES,
    _LEVEL_TOL,
    _VALIDATION_SAMPLES,
    Arc,
    Segment,
    _arc_monotonicity_check,
    _by_class,
    _chains,
    _curve_cross_on_line,
    _falls,
    _hull,
    _line_x_log,
    _line_y_log,
    _line_y_log_batch,
    _log_mix,
    _loop_checks,
    _monotone_chain,
    _nagumo_check,
    _r_le_1_check,
    _scaled_reciprocals,
    _strip_point,
    _suc_check,
    choose_start_points,
    compute_slope_classes,
    construct_region,
    conv_hull,
    hull_contains,
    intersection_points,
    phi_level,
    region_contains,
    region_contains_batch,
    sample_boundary,
    segment_curve_intersection,
)
from toric_regions.tdi_rhs import rhs_bruteforce

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)

WORKED_GENS = [(-1, 1), (1, 2), (2, 1)]


@pytest.fixture(scope="module")
def worked_region():
    return construct_region(Fan(WORKED_GENS), 3.0)


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


def _points_of(piece, us) -> list[LogPoint]:
    """A piece's points at the fractions us, by its class's array method."""
    X, Y = type(piece).points_at([piece], np.zeros(len(us), dtype=int), np.array(us))
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
        regions = fan.regions(delta)
        for p in intersection_points(fan, delta):
            ri, rj = regions[p.i], regions[p.j]
            assert strip_coordinate(p.log, ri) == pytest.approx(p.si * ri.delta_i, abs=1e-9)
            assert strip_coordinate(p.log, rj) == pytest.approx(p.sj * rj.delta_i, abs=1e-9)

    def test_refound_by_independent_bisection(self):
        # Parametrize one curve by X and bisect the other curve's residual.
        fan = Fan(WORKED_GENS)
        delta = 3.0
        regions = fan.regions(delta)
        for p in intersection_points(fan, delta):
            gi = regions[p.i].gen
            gj = regions[p.j].gen
            ci = p.si * regions[p.i].delta_i
            cj = p.sj * regions[p.j].delta_i

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
        top, low = choose_start_points(pts)
        # (N,M) = (1, e^(sqrt2 delta)) via the prefer-y tie break.
        assert (top.log.X, top.log.Y) == pytest.approx((0.0, SQRT2), abs=1e-12)
        # (n,m) = (e^(-sqrt2 delta), 1) via the provenance tie break.
        assert (low.log.X, low.log.Y) == pytest.approx((-SQRT2, 0.0), abs=1e-12)

    def test_worked_fan_diagonal_points(self):
        pts = intersection_points(Fan(WORKED_GENS), 3.0)
        top, low = choose_start_points(pts)
        assert (top.log.X, top.log.Y) == pytest.approx((3 * SQRT5, 3 * SQRT5), abs=1e-9)
        assert (low.log.X, low.log.Y) == pytest.approx((-3 * SQRT5, -3 * SQRT5), abs=1e-9)

    def test_singleton(self):
        # (n,m) never coincides with (N,M), so one point has no pair.
        pts = intersection_points(Fan([(1, 1), (-1, 1)]), 1.0)[:1]
        with pytest.raises(ValueError, match="need two"):
            choose_start_points(pts)


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
    def test_linear_curve_closed_form(self):
        gen = normalize_generator(1, 1)
        pt = segment_curve_intersection(PosPoint(3.0, 4.0), gen, math.e)
        assert pt.x == pytest.approx(7.0 / (1.0 + math.e), rel=1e-10)
        assert pt.y == pytest.approx(7.0 * math.e / (1.0 + math.e), rel=1e-10)

    def test_huge_coordinates(self):
        gen = normalize_generator(1, 1)
        start = LogPoint(60.0, 60.0).exp()
        pt = segment_curve_intersection(start, gen, math.exp(3.0))
        res = math.log(pt.y) - math.log(pt.x) - 3.0
        assert abs(res) < 1e-9


def _on_xline(pt: LogPoint, anchor: LogPoint, s: float) -> bool:
    """Does pt lie on the x-space line through anchor with slope s?"""
    x, y, x0, y0 = (math.exp(v) for v in (pt.X, pt.Y, anchor.X, anchor.Y))
    return abs((y - y0) - s * (x - x0)) <= 1e-12 * max(x, y, x0, y0)


class TestCrossingSolver:
    def test_log_y_branch(self):
        # From the worked fan at delta = 3: the crossing sits near the x-axis,
        # where the search along log x stalls at a residual of ~4e-8 and only
        # the mirrored search along log y meets the tolerance.
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
                X = _line_x_log(a.X, a.Y, 1.0 / s, pt.Y)
                assert X == _line_y_log(a.Y, a.X, 1.0 / s, pt.Y)
                assert X == pytest.approx(pt.X, abs=1e-12)
                assert _on_xline(LogPoint(X, pt.Y), a, s)

    def test_vertical_direction(self):
        # x = x0: the mirror has slope 0, so log x stays X0 at every log y.
        a = self.ANCHOR
        for Y in (-30.0, -1.0, 0.5, 40.0):
            assert _line_x_log(a.X, a.Y, 0.0, Y) == a.X

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
        assert _line_x_log(0.0, 0.0, -1.0, -math.inf) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_batch_kernel_is_the_scalar_kernel_bit_for_bit(self):
        # Seeded inputs across the direct branch, the log branch (|X0 - Y0|
        # or the exponents past _EXP_SAFE), t = 0 and s = 0.
        rng = np.random.default_rng(14)
        n = 6000
        X0 = rng.uniform(-1000.0, 1000.0, n)
        Y0 = X0 - np.where(rng.random(n) < 0.7, rng.uniform(-40.0, 40.0, n),
                           rng.uniform(-1000.0, 1000.0, n))
        t = np.where(rng.random(n) < 0.7, rng.uniform(-60.0, 60.0, n),
                     rng.uniform(-900.0, 900.0, n))
        t[rng.random(n) < 0.05] = 0.0
        s = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-3.0, 3.0, n))
        s[rng.random(n) < 0.05] = 0.0
        X = X0 + t
        want, exits = [], []
        for k, args in enumerate(zip(X0.tolist(), Y0.tolist(), s.tolist(), X.tolist())):
            try:
                want.append(_line_y_log(*args))
            except NoCrossing:
                exits.append(k)
        keep = np.setdiff1d(np.arange(n), exits)
        got = _line_y_log_batch(X0[keep], Y0[keep], s[keep], X[keep])
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
        e, tk = (X0 - Y0)[keep], (X - X0)[keep]
        direct = (np.abs(e) < _EXP_SAFE) & (tk < _EXP_SAFE) & (e + tk < _EXP_SAFE)
        assert direct.sum() > 1000 and (~direct).sum() > 300
        assert (tk == 0.0).any() and (s[keep] == 0.0).any()
        assert ((tk == 0.0) & ~direct).any() and ((s[keep] == 0.0) & ~direct).any()
        # Each element the scalar kernel rejects makes the batch raise too.
        e = (X0 - Y0)[exits]
        assert (np.abs(e) < _EXP_SAFE).any() and (np.abs(e) >= _EXP_SAFE).any()
        for k in exits:
            with pytest.raises(NoCrossing):
                _line_y_log_batch(X0[[0, k]], Y0[[0, k]], s[[0, k]], X[[0, k]])

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
        closed, simple = _loop_checks(b)
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

    def test_segment_slopes(self, worked_region):
        slopes = {name: [str(s.slope) for s in segs]
                  for name, segs in worked_region.polylines.items()}
        assert slopes == {
            "I1": ["-1/2", "1"], "I2": ["-2"], "I3": ["-1/2"], "I4": ["-2", "1"],
        }

    def test_anchors_on_their_curves(self, worked_region):
        b = worked_region
        regions = b.fan.regions(b.delta)
        # A_q and B_u terminate on the negative-slope strip's lower curve.
        r = regions[2]
        for name in ("Aq", "Bu"):
            assert strip_coordinate(b.anchors[name], r) == pytest.approx(-r.delta_i, abs=1e-9)
        assert strip_coordinate(b.anchors["Cr"], regions[0]) == pytest.approx(
            regions[0].delta_i, abs=1e-9)
        assert strip_coordinate(b.anchors["Ds"], regions[1]) == pytest.approx(
            -regions[1].delta_i, abs=1e-9)

    def test_meeting_points_match_closed_form(self, worked_region):
        b = worked_region
        p12 = b.anchors["P_i1i2"]
        assert p12.X == pytest.approx(-2 * SQRT2 - SQRT5, abs=1e-9)
        assert p12.Y == pytest.approx(-SQRT2 + SQRT5, abs=1e-9)
        p34 = b.anchors["P_i3i4"]
        assert (p34.X, p34.Y) == pytest.approx((p12.Y, p12.X), abs=1e-9)


class TestRegionContains:
    def test_unit_point_inside(self, worked_region):
        assert region_contains(worked_region, PosPoint(1.0, 1.0)) == "inside"

    def test_start_anchor_on_boundary(self, worked_region):
        assert region_contains(worked_region, worked_region.anchors["NM"]) == "boundary"

    def test_far_point_outside(self, worked_region):
        assert region_contains(worked_region, LogPoint(1e6, 1e6)) == "outside"
        assert region_contains(worked_region, LogPoint(13.8, 13.8)) == "outside"

    @pytest.mark.parametrize("pt", [LogPoint(math.nan, 0.0), LogPoint(math.inf, 0.0),
                                    LogPoint(0.0, -math.inf)])
    def test_non_finite_point_rejected(self, worked_region, pt):
        with pytest.raises(NonFinitePoint, match="^point"):
            region_contains(worked_region, pt)

    def test_all_intersection_points_contained(self, worked_region):
        for ip in worked_region.points_uc:
            assert region_contains(worked_region, ip.log, band=1e-7) != "outside"


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
        assert horiz in b.axis_joins
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
        vert = next(i for i, g in enumerate(b.fan.generators) if g.is_vertical)
        assert vert in b.axis_joins

    def test_unsupported_fan(self):
        with pytest.raises(UnsupportedFan):
            construct_region(Fan([(2, 1), (-1, 1)]), 3.0)

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
    arcs = (Arc(LineGenerator(1, 1), 1, a, b) for a, b in zip(pts, pts[1:] + pts[:1]))
    return SimpleNamespace(pieces=tuple(arcs))


class TestLoopChecks:
    def test_bow_tie_crosses_once(self):
        closed, simple = _loop_checks(_log_loop((0, 0), (3, 2), (3, 0), (0, 1.7)))
        assert closed["passed"] and closed["worst"] == 0.0
        assert not simple["passed"] and simple["worst"] == 1.0

    def test_touching_corners_do_not_cross(self):
        # Two triangles that share only the corner (1, 1).
        loop = _log_loop((0, 0), (1, 1), (2, 0), (2.5, 2), (1, 1), (0, 2.2))
        assert _loop_checks(loop)[1]["worst"] == 0.0

    @pytest.mark.parametrize("gens, delta", [
        (WORKED_GENS, 3.0), (WORKED_GENS, 100.0), ([(1, 2), (2, 1)], 1.0),
        ([(1, 2), (2, 1), (-1, 1), (0, 1)], 3.0), ([(-2, 1), (2, 3), (1, 1)], 0.5),
        ([(-1, 1), (1, 3), (3, 1), (2, 1)], 10.0),
    ])
    def test_matches_the_scalar_loop(self, gens, delta):
        b = construct_region(Fan(gens), delta, validate=False)
        assert _loop_checks(b)[1]["worst"] == float(_crossing_pairs_reference(b.pieces))


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
        outside = [(ip.log.X, ip.log.Y) for ip in b.points_uc
                   if region_contains(b, ip.log, band=1e-7) == "outside"]
        res = _suc_check(b, region_contains_batch(b, [ip.log.X for ip in b.points_uc],
                                                  [ip.log.Y for ip in b.points_uc],
                                                  np.full(len(b.points_uc), 1e-7)))
        assert len(outside) > 1 and res["worst"] == float(len(outside))
        assert res["witness"] == outside[0]

    def test_arc_monotonicity_names_where_the_order_breaks(self):
        # A straight (1,1) arc: Y - X is constant, so rounding breaks the order.
        b = construct_region(Fan([(-2, 1), (2, 3), (1, 1)]), 3.0, validate=False)
        res = _arc_monotonicity_check(b)
        assert not res["passed"]
        for arc in b.arcs:
            pts = [_point_at_reference(arc, k / _ARC_SAMPLES) for k in range(_ARC_SAMPLES + 1)]
            d = [pt.Y - pt.X for pt in pts]
            steps = list(zip(d, d[1:]))
            rising = d[0] < d[1]
            ok = [(a < b_) if rising else (a > b_) for a, b_ in steps]
            if not all(ok):
                k = ok.index(False) + 1
                assert res["witness"] == (pts[k].X, pts[k].Y)
                assert arc.band_distance(pts[k]) <= 1e-12
                break
        else:
            pytest.fail("no failing arc")
        passing = _arc_monotonicity_check(construct_region(Fan(WORKED_GENS), 3.0))
        assert passing["passed"] and passing["witness"] is None


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
        n0, n1 = _by_class("normals_at", b.pieces, index, X, Y)
        normals = [_normal_at_reference(b.pieces[k], pt) for pt, k in ref]
        assert _bits(n0) == _bits(n[0] for n in normals)
        assert _bits(n1) == _bits(n[1] for n in normals)
        chain_x, chain_y = _chains(b.pieces, 32)
        ref_chains = _loop_chains_reference(b.pieces)
        assert _bits(chain_x.ravel()) == _bits(pt.X for c in ref_chains for pt in c)
        assert _bits(chain_y.ravel()) == _bits(pt.Y for c in ref_chains for pt in c)

    def test_worked_fan(self, worked_region):
        self.assert_matches_references(worked_region)

    @pytest.mark.parametrize("delta", [3.0, 100.0])
    def test_catalog_fans(self, delta, monkeypatch):
        scalar_calls = []

        def counting_sampler(b, total):
            # Scalar kernel calls made by the array sampler alone.
            monkeypatch.setattr(region_construction, "_line_y_log",
                                lambda *args: scalar_calls.append(args) or _line_y_log(*args))
            try:
                return sample_boundary(b, total)
            finally:
                monkeypatch.setattr(region_construction, "_line_y_log", _line_y_log)

        built = 0
        for gens in CATALOG_GENS:
            try:
                b = construct_region(Fan(gens), delta, validate=False)
            except ToricRegionsError:
                continue
            built += 1
            self.assert_matches_references(b, counting_sampler)
        assert built > 100
        # At delta = 100 some samples leave the direct branch and go through
        # the scalar kernel one by one; at delta = 3 none do.
        assert bool(scalar_calls) is (delta == 100.0)

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


def _containment_probes(b, seed: int):
    """Arrays (X, Y) of the S^uc points, the chord points, (1,1), the
    sample_boundary points, the same jittered by up to 1e-7 in each
    coordinate, seeded points in the box of the piece ends, and points
    level with each piece end, 0.5 to either side (their rays pass through
    a vertex)."""
    rng = np.random.default_rng(seed)
    pts = [ip.log for ip in b.points_uc] + region_construction._chord_points(b)
    X, Y, _ = sample_boundary(b, _VALIDATION_SAMPLES)
    jitter = rng.uniform(-1e-7, 1e-7, size=(2, len(X)))
    ends = np.array([(pc.start.X, pc.start.Y) for pc in b.pieces])
    box = rng.uniform(ends.min(axis=0) - 1.0, ends.max(axis=0) + 1.0, size=(64, 2))
    return (np.concatenate([[pt.X for pt in pts], [0.0], X, X + jitter[0], box[:, 0],
                            ends[:, 0] - 0.5, ends[:, 0] + 0.5]),
            np.concatenate([[pt.Y for pt in pts], [0.0], Y, Y + jitter[1], box[:, 1],
                            ends[:, 1], ends[:, 1]]))


def _scalar_labels(b, X, Y, band: float) -> list[str]:
    return [region_contains(b, LogPoint(x, y), band) for x, y in zip(X.tolist(), Y.tolist())]


@pytest.fixture
def scalar_distances(monkeypatch):
    """(piece, point) of every scalar band_distance call."""
    calls = []
    for cls in (Segment, Arc):
        def counted(piece, pt, original=cls.band_distance):
            calls.append((piece, pt))
            return original(piece, pt)
        monkeypatch.setattr(cls, "band_distance", counted)
    return calls


def _first_atlas_regions(count: int, delta: float) -> list:
    """The first count catalog regions that build at delta."""
    regions = []
    for gens in CATALOG_GENS:
        try:
            regions.append(construct_region(Fan(gens), delta, validate=False))
        except ToricRegionsError:
            continue
        if len(regions) == count:
            return regions
    raise AssertionError(f"fewer than {count} catalog regions build at delta = {delta}")


OFF_BRANCH_GENS = [(-2, 1), (2, 3), (1, 1)]  # at delta = 100 some kernel calls leave the direct branch


class TestRegionContainsBatch:
    """region_contains_batch against the scalar region_contains, label for label."""

    @pytest.mark.parametrize("band", [1e-7, 1e-9])
    def test_labels_match_the_scalar(self, band, worked_region):
        regions = [worked_region, *_first_atlas_regions(14, 3.0),
                   construct_region(Fan(OFF_BRANCH_GENS), 100.0, validate=False)]
        seen = set()
        for seed, b in enumerate(regions):
            X, Y = _containment_probes(b, seed)
            got = region_contains_batch(b, X, Y, np.full(len(X), band))
            assert got == _scalar_labels(b, X, Y, band)
            seen.update(got)
        assert seen == {"inside", "outside", "boundary"}

    @pytest.mark.parametrize("gens, delta", [(WORKED_GENS, 3.0), (OFF_BRANCH_GENS, 100.0),
                                             (OFF_BRANCH_GENS, 300.0)],
                             ids=["worked-3", "off_branch-100", "off_branch-300"])
    def test_every_pair_within_4_ulp_of_the_scalar(self, gens, delta, scalar_distances):
        # Off the kernel's direct branch too: the broadcast takes at's line
        # point, so it needs the scalar on no pair.
        b = construct_region(Fan(gens), delta, validate=False)
        X, Y = _containment_probes(b, 0)
        n, m = len(X), len(b.pieces)
        pair = np.arange(n * m)
        d = _by_class("band_distances", b.pieces, pair % m, X[pair // m], Y[pair // m])[0]
        scalar = np.array([b.pieces[k % m].band_distance(LogPoint(X[k // m].item(), Y[k // m].item()))
                           for k in pair.tolist()])
        assert (np.abs(d - scalar) <= 4 * np.spacing(scalar)).all()
        scalar_distances.clear()
        got = region_contains_batch(b, X, Y, np.full(n, 1e-7))
        assert scalar_distances == []
        assert got == _scalar_labels(b, X, Y, 1e-7)

    def test_zero_length_arc(self):
        # The scalar and the array distance to a one-point arc agree: both
        # are the distance to that point.
        arc = Arc(LineGenerator(1, 2), 1, LogPoint(0.5, -1.0), LogPoint(0.5, -1.0))
        X, Y = np.array([0.5, 3.5, -1.0]), np.array([-1.0, 3.0, -1.0])
        d = Arc.band_distances([arc], np.zeros(3, dtype=int), X, Y)
        assert d.tolist() == [arc.band_distance(LogPoint(x, y)) for x, y in zip(X, Y)]
        assert d.tolist() == [0.0, 5.0, 1.5]

    def test_ties_go_to_band_distance(self, worked_region, scalar_distances):
        # The band is one pair's scalar distance, so that pair is a tie.
        b = worked_region
        X, Y = _containment_probes(b, 3)
        j = len(b.points_uc) + 12  # (1,1), inside
        pt = LogPoint(X[j].item(), Y[j].item())
        dist = [pc.band_distance(pt) for pc in b.pieces]
        k = int(np.argmin(dist))
        band = np.full(len(X), 1e-7)
        band[j] = dist[k]
        scalar_distances.clear()
        got = region_contains_batch(b, X, Y, band)
        assert (b.pieces[k], pt) in scalar_distances
        assert got[j] == "boundary" == region_contains(b, pt, dist[k])
        # Just below the band's scalar distance the pair is still a tie, and
        # the scalar decides it the other way.
        band[j] = math.nextafter(dist[k], 0.0)
        scalar_distances.clear()
        got = region_contains_batch(b, X, Y, band)
        assert (b.pieces[k], pt) in scalar_distances
        assert got[j] == region_contains(b, pt, band[j]) != "boundary"
        # Far from every distance no pair is a tie.
        scalar_distances.clear()
        region_contains_batch(b, X, Y, np.full(len(X), 1e-7))
        assert scalar_distances == []

    def test_one_broadcast_per_validation(self, worked_region, monkeypatch):
        batch, scalar = [], []
        monkeypatch.setattr(region_construction, "region_contains_batch",
                            lambda *args: batch.append(args) or region_contains_batch(*args))
        monkeypatch.setattr(region_construction, "region_contains",
                            lambda *args: scalar.append(args) or region_contains(*args))
        report = region_construction.validate_region(worked_region)
        assert len(batch) == 1 and scalar == []
        assert report == worked_region.report

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, worked_region, bad):
        X, Y = np.array([0.0, 1.0, bad]), np.array([0.0, bad, 0.0])
        with pytest.raises(NonFinitePoint, match=r"point \(1\.0, "):
            region_contains_batch(worked_region, X, Y, np.full(3, 1e-9))
        with pytest.raises(NonFinitePoint):
            region_contains(worked_region, LogPoint(1.0, bad))

    def test_empty_arrays(self, worked_region, monkeypatch):
        def evaluated(*args):
            raise AssertionError("a piece was evaluated")
        for cls in (Segment, Arc):
            for name in ("band_distance", "band_distances", "ray_crossings"):
                monkeypatch.setattr(cls, name, evaluated)
        assert region_contains_batch(worked_region, np.empty(0), np.empty(0), np.empty(0)) == []


def _sampled_hull(boundary):
    """conv_hull as first written: every arc sampled at its log-space mix
    s + u*(e - s) and the monotone chain run on every point."""
    pts = []
    for piece in boundary.pieces:
        for anchor in (piece.start, piece.end):
            pts.append((math.exp(anchor.X), math.exp(anchor.Y)))
        if isinstance(piece, Arc):
            for k in range(1, _HULL_ARC_SAMPLES):
                lp = _point_at_reference(piece, k / _HULL_ARC_SAMPLES)
                pts.append((math.exp(lp.X), math.exp(lp.Y)))
    return _monotone_chain(pts)


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

    def test_hull_matches_sampled_reference(self, monkeypatch):
        # The level-band fans and the level census fan across the band.
        band = [3.0 + k / 7 for k in range(8)]
        cases = [(gens, d) for gens in ([(-1, 1), (1, 2), (2, 1)],
                                        [(-1, 1), (1, 2), (2, 1), (1, 0)],
                                        [(1, 2), (2, 1), (1, 1)],
                                        [(-1, 2), (-2, 1)],
                                        [(-2, 1), (-3, 1), (-3, 2)])
                 for d in band]
        cases += [
            ([(-1, 1), (1, 2), (2, 1), (1, 3)], 1.0),  # 50 vertices, 10 from endpoints
            ([(-1, 1), (1, 2), (1, 1)], 1.0),  # an arc on (1,1), straight in x-space
            ([(-1, 1), (1, 2), (2, 1), (1, 0)], 1.0),  # an axis join
            ([(-1, 1), (1, 2), (3, 1)], 100.0),  # coordinates down to 1e-281
        ]
        for gens, delta in cases:
            region = construct_region(Fan(gens), delta, validate=False)
            hull = conv_hull(region)
            assert hull == _sampled_hull(region), (gens, delta)
            assert all(type(c) is float for pt in hull for c in pt)
        # The chain runs on the piece endpoints, then on the points outside
        # their hull.
        region = construct_region(Fan([(-1, 1), (1, 2), (2, 1), (1, 3)]), 1.0, validate=False)
        ends = [(math.exp(pt.X), math.exp(pt.Y))
                for piece in region.pieces for pt in (piece.start, piece.end)]
        sizes = []
        monkeypatch.setattr(region_construction, "_monotone_chain",
                            lambda pts: sizes.append(len(pts)) or _monotone_chain(pts))
        assert len(conv_hull(region)) == 50 and len(_monotone_chain(ends)) == 10
        total = len(ends) + len(region.arcs) * (_HULL_ARC_SAMPLES - 1)
        assert sizes[0] == len(ends) and 50 <= sizes[1] < total

    def test_hull_nesting(self):
        fan = Fan(WORKED_GENS)
        h3 = conv_hull(construct_region(fan, 3.0, validate=False))
        h4 = conv_hull(construct_region(fan, 4.0, validate=False))
        assert all(hull_contains(h4, p) for p in h3)

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
