import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from toric_regions.errors import (
    NonFinitePoint,
    NonPositiveDelta,
    ParallelGenerators,
    UnsupportedFan,
    ZeroGenerator,
)
from toric_regions.fan_geometry import (
    LINE_WIDTH,
    TWO_PI,
    ZERO_WIDTH,
    Cone,
    Fan,
    LogPoint,
    PosPoint,
    UncertaintyRegion,
    attracting_direction,
    delta_i,
    dist_to_cone,
    fan_2d_cones,
    normalize_generator,
    r_count,
    strip_coordinate,
)
from toric_regions.tdi_rhs import rhs_equal

SQRT2 = math.sqrt(2.0)


def region(p, q, delta):
    g = normalize_generator(p, q)
    return UncertaintyRegion(g, delta_i(g, delta), 0)


class TestNormalizeGenerator:
    def test_gcd_reduction(self):
        g = normalize_generator(2, 4)
        assert (g.p, g.q) == (1, 2)

    def test_sign_canonicalization(self):
        g = normalize_generator(1, -1)
        assert (g.p, g.q) == (-1, 1)

    def test_zero_q_forces_positive_p(self):
        # gcd reduction applies first, so (-3, 0) lands on (1, 0).
        g = normalize_generator(-3, 0)
        assert (g.p, g.q) == (1, 0)

    def test_zero_generator_rejected(self):
        with pytest.raises(ZeroGenerator):
            normalize_generator(0, 0)

    @given(st.integers(-30, 30), st.integers(-30, 30))
    def test_canonical_form(self, p, q):
        if p == 0 and q == 0:
            return
        g = normalize_generator(p, q)
        assert math.gcd(abs(g.p), abs(g.q)) == 1
        assert g.q > 0 or (g.q == 0 and g.p > 0)
        # Same line: (p, q) parallel to (g.p, g.q).
        assert p * g.q - q * g.p == 0


class TestDeltaI:
    def test_three_four(self):
        assert delta_i(normalize_generator(3, 4), 2.0) == pytest.approx(10.0)

    def test_unit_diagonal(self):
        assert delta_i(normalize_generator(1, 1), 0.7) == pytest.approx(0.7 * SQRT2)

    def test_one_two(self):
        assert delta_i(normalize_generator(1, 2), 3.0) == pytest.approx(3.0 * math.sqrt(5.0))

    def test_nonpositive_delta(self):
        for delta in (0.0, math.inf):
            with pytest.raises(NonPositiveDelta):
                delta_i(normalize_generator(1, 1), delta)


class TestStripCoordinate:
    def test_log_origin_is_zero(self):
        for pq in [(1, 1), (-2, 3), (1, 0), (0, 1)]:
            assert strip_coordinate(LogPoint(0.0, 0.0), region(*pq, 1.0)) == 0.0

    def test_above_diagonal(self):
        assert strip_coordinate(LogPoint(0.0, 5.0), region(1, 1, 1.0)) == pytest.approx(5.0)

    def test_on_the_line(self):
        assert strip_coordinate(LogPoint(3.0, 3.0), region(1, 1, 1.0)) == 0.0

    def test_accepts_positive_points(self):
        pt = PosPoint(math.e, math.e**2)
        assert strip_coordinate(pt, region(1, 1, 1.0)) == pytest.approx(1.0)


class TestRCount:
    def test_log_origin_in_all(self):
        fan = Fan([(1, 1), (-1, 1), (1, 2)])
        assert r_count(LogPoint(0.0, 0.0), fan, 0.5) == 3

    def test_far_point_in_none(self):
        fan = Fan([(1, 1)])
        assert r_count(LogPoint(10.0, 0.0), fan, 1.0) == 0

    def test_near_origin_in_both(self):
        fan = Fan([(1, 1), (-1, 1)])
        assert r_count(LogPoint(0.1, 0.0), fan, 1.0) == 2

    def test_boundary_not_interior(self):
        fan = Fan([(1, 1)])
        assert r_count(LogPoint(0.0, SQRT2), fan, 1.0) == 0

    @pytest.mark.parametrize("pt", [LogPoint(math.nan, 0.0), LogPoint(math.inf, 0.0),
                                    LogPoint(0.0, -math.inf)])
    def test_non_finite_point_rejected(self, pt):
        with pytest.raises(NonFinitePoint, match="^point"):
            r_count(pt, Fan([(1, 1), (-1, 1)]), 1.0)


class TestAttractingDirection:
    def test_diagonal_positive_side(self):
        ux, uy = attracting_direction(region(1, 1, 1.0), +1)
        assert (ux, uy) == pytest.approx((1 / SQRT2, -1 / SQRT2))

    def test_sides_are_opposite(self):
        for pq in [(1, 1), (-1, 2), (0, 1), (1, 0)]:
            r = region(*pq, 2.0)
            plus = attracting_direction(r, +1)
            minus = attracting_direction(r, -1)
            assert plus[0] == -minus[0] and plus[1] == -minus[1]

    def test_horizontal_generator(self):
        ux, uy = attracting_direction(region(0, 1, 1.0), +1)
        assert (ux, uy) == pytest.approx((0.0, -1.0))

    @pytest.mark.parametrize("side", [0, 2, -2])
    def test_bad_side_rejected(self, side):
        with pytest.raises(ValueError, match="side must be"):
            attracting_direction(region(1, 1, 1.0), side)

    def test_direction_decreases_strip_coordinate(self):
        r = region(2, 3, 1.5)
        pt = LogPoint(0.3, 2.0)
        s0 = strip_coordinate(pt, r)
        ux, uy = attracting_direction(r, +1 if s0 > 0 else -1)
        moved = LogPoint(pt.X + 1e-3 * ux, pt.Y + 1e-3 * uy)
        assert abs(strip_coordinate(moved, r)) < abs(s0)


class TestPolar:
    def test_ray_gives_halfplane(self):
        c = Cone(0.0, 0.0).polar()
        assert c.kind == "halfplane"
        assert c.contains((-1.0, 0.5)) and c.contains((-1.0, -0.5))
        assert not c.contains((1.0, 0.0))

    def test_full_plane_gives_origin(self):
        assert Cone(0.0, TWO_PI).polar().kind == "zero"

    def test_first_quadrant(self):
        c = Cone(0.0, math.pi / 2).polar()
        assert c.kind == "sector"
        assert c.lo == pytest.approx(math.pi)
        assert c.lo + c.width == pytest.approx(3 * math.pi / 2)

    @given(st.floats(0.0, 2 * math.pi - 1e-6), st.floats(0.0, math.pi))
    def test_polar_involution_sectors(self, start, opening):
        c = Cone(start, opening)
        assert rhs_equal(c.polar().polar(), c, tol=1e-9)

    @given(st.floats(0.0, 2 * math.pi - 1e-6))
    def test_polar_involution_rays_and_halfplanes(self, start):
        for width in (0.0, math.pi, LINE_WIDTH, TWO_PI, ZERO_WIDTH):
            c = Cone(start, width)
            assert rhs_equal(c.polar().polar(), c, tol=1e-9)


def _arc():
    """Arcs of width 0 to pi, the end points drawn on purpose."""
    width = st.one_of(st.just(0.0), st.just(math.pi), st.floats(0.0, math.pi))
    return st.builds(Cone, st.floats(0.0, 2 * math.pi - 1e-6), width)


def _near_boundary(theta, cones, band=1e-9):
    for c in cones:
        for edge in (c.lo, c.lo + c.width):
            gap = (theta - edge) % TWO_PI
            if min(gap, TWO_PI - gap) <= band:
                return True
    return False


class TestConeAlgebra:
    @given(_arc(), _arc(), st.floats(0.0, 2 * math.pi))
    def test_intersection_is_conjunction(self, a, b, theta):
        if _near_boundary(theta, (a, b)):
            return
        v = _dir(theta)
        both = a.contains(v, tol=0.0) and b.contains(v, tol=0.0)
        assert a.intersect(b).contains(v, tol=0.0) == both

    def test_zero_and_full_operands(self):
        sector, zero, full = Cone(0.3, 1.0), Cone(0.0, ZERO_WIDTH), Cone(0.0, TWO_PI)
        assert sector.intersect(zero) == zero == zero.intersect(sector)
        assert sector.intersect(full) == sector == full.intersect(sector)
        assert zero.intersect(full) == zero == full.intersect(zero)

    def test_line_operand_rejected(self):
        line, sector = Cone(0.3, LINE_WIDTH), Cone(0.3, 1.0)
        for a, b in ((line, sector), (sector, line)):
            with pytest.raises(ValueError, match="line cannot be intersected"):
                a.intersect(b)

    @pytest.mark.parametrize("lo", [0.3, 0.3 + math.pi, 6.0])
    def test_opposite_half_planes_give_the_line(self, lo):
        # Two parts arise only here, as two antipodal rays.
        line = Cone(lo, math.pi).intersect(Cone(lo + math.pi, math.pi))
        assert line.kind == "line"
        assert line.contains(_dir(lo)) and line.contains(_dir(lo + math.pi))
        assert not line.contains(_dir(lo + 0.5 * math.pi))

    @pytest.mark.parametrize("width", [-0.5, 3.5, 7.0, math.nan])
    def test_invalid_width_rejected(self, width):
        with pytest.raises(ValueError, match="cone width"):
            Cone(0.0, width)

    @given(_arc(), st.floats(0.0, 2 * math.pi), st.floats(0.0, 1e-6))
    def test_contains_is_violation_below_tol(self, c, theta, tol):
        v = _dir(theta)
        assert c.contains(v, tol) == (c.violation(v) <= tol)


class TestFanSectors:
    def test_single_generator_two_halfplanes(self):
        sectors = fan_2d_cones(Fan([(1, 0)]))
        assert len(sectors) == 2
        assert all(s.kind == "halfplane" for s in sectors)

    def test_two_generators_four_sectors(self):
        sectors = fan_2d_cones(Fan([(1, 1), (-1, 1)]))
        assert len(sectors) == 4
        assert all(s.kind == "sector" for s in sectors)

    @pytest.mark.parametrize("gens", [
        [(1, 1), (-1, 1)],
        [(-1, 1), (1, 2), (2, 1)],
        [(1, 2), (2, 1), (-1, 1), (0, 1)],
        [(1, 3), (1, 1), (3, 1), (-2, 1), (-1, 2)],
    ])
    def test_sectors_tile_the_plane(self, gens):
        fan = Fan(gens)
        sectors = fan_2d_cones(fan)
        assert len(sectors) == 2 * fan.b
        total = sum(s.width for s in sectors)
        assert total == pytest.approx(2 * math.pi, abs=1e-12)
        for k, s in enumerate(sectors):
            nxt = sectors[(k + 1) % len(sectors)]
            a_end = s.lo + s.width
            b_start = nxt.lo
            assert math.isclose(math.cos(a_end), math.cos(b_start), abs_tol=1e-12)
            assert math.isclose(math.sin(a_end), math.sin(b_start), abs_tol=1e-12)

    def test_angular_order_matches_slopes(self):
        fan = Fan([(2, 1), (-1, 1), (1, 2)])
        slopes = [g.slope() for g in fan.generators]
        assert [str(s) for s in slopes] == ["1/2", "2", "-1"]
        # A generator (p, 0) has a vertical line.
        assert normalize_generator(1, 0).slope() is None

    def test_parallel_generators_rejected(self):
        with pytest.raises(ParallelGenerators):
            Fan([(1, 1), (2, 2)])

    def test_empty_fan_rejected(self):
        with pytest.raises(UnsupportedFan, match="at least one generator"):
            Fan([])

    @pytest.mark.parametrize("gens", [[(1, 2.0), (-1, 1)], [("1", 2)], [(1, None)],
                                      [(0.0, 0)]])
    def test_non_integer_generator_rejected(self, gens):
        with pytest.raises(UnsupportedFan, match="not a pair of integers"):
            Fan(gens)

    def test_numpy_integer_generators(self):
        fan = Fan([(np.int64(2), np.int32(4)), (np.int8(-1), 1)])
        assert fan == Fan([(1, 2), (-1, 1)])
        assert all(type(v) is int for g in fan.generators for v in (g.p, g.q))


class TestDistToCone:
    def test_interior_point(self):
        c = Cone(0.0, math.pi / 2)
        assert dist_to_cone(LogPoint(1.0, 1.0), c) == 0.0

    def test_nearest_point_on_ray(self):
        c = Cone(0.0, math.pi / 2)
        assert dist_to_cone(LogPoint(-3.0, 4.0), c) == pytest.approx(3.0)

    def test_nearest_point_is_origin(self):
        c = Cone(0.0, math.pi / 2)
        assert dist_to_cone(LogPoint(-1.0, -1.0), c) == pytest.approx(SQRT2)

    def test_zero_cone(self):
        zero = Cone(0.0, ZERO_WIDTH)
        assert dist_to_cone(LogPoint(3.0, -4.0), zero) == 5.0
        assert dist_to_cone(LogPoint(0.0, 0.0), zero) == 0.0

    @given(st.floats(0.0, 2 * math.pi), st.floats(0.1, math.pi - 0.1),
           st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_zero_iff_member(self, start, opening, x, y):
        c = Cone(start, opening)
        pt = LogPoint(x, y)
        d = dist_to_cone(pt, c)
        if c.contains((x, y), tol=1e-12):
            assert d <= 1e-9 * (1.0 + math.hypot(x, y))
        elif d == 0.0:
            assert c.contains((x, y), tol=1e-9)


def _dir(a):
    return (math.cos(a), math.sin(a))


class TestPoints:
    def test_roundtrip(self):
        pt = PosPoint(2.5, 7.0)
        back = pt.log().exp()
        assert back.x == pytest.approx(pt.x, rel=1e-12)
        assert back.y == pytest.approx(pt.y, rel=1e-12)

    def test_log_roundtrip(self):
        lp = LogPoint(-40.0, 55.0)
        back = lp.exp().log()
        assert back.X == pytest.approx(lp.X, rel=1e-12)
        assert back.Y == pytest.approx(lp.Y, rel=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            PosPoint(0.0, 1.0)
