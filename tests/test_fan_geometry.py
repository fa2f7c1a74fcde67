import copy
import dataclasses
import json
import math
import pickle
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from toric_regions.dynamics import ExtremeRayStrategy, integrate
from toric_regions.errors import (
    NonFinitePoint,
    NonPositiveDelta,
    ParallelGenerators,
    UnsupportedFan,
    ZeroGenerator,
)
from toric_regions.fan_geometry import (
    Cone,
    Fan,
    LineGenerator,
    LogPoint,
    PosPoint,
    _fan_table,
    _flanking_arms,
    delta_i,
    r_count,
)
from toric_regions.region_construction import construct_region
from toric_regions.tdi_rhs import _near_set

from cone_algebra import (
    LINE,
    TWO_PI,
    arc,
    arc_of,
    arcs_equal,
    contains,
    dist_to_cone,
    intersect,
    polar,
    same_rays,
    unit_rays,
)

SQRT2 = math.sqrt(2.0)


def coordinate(pt: LogPoint, p: int, q: int) -> float:
    """The strip coordinate q*Y - p*X of a log point, as the Fan.regions row
    of the one-generator fan (p, q) gives it."""
    _, qf, pf, _, _, _ = Fan([(p, q)]).regions(1.0)[0]
    return qf * pt.Y - pf * pt.X


class TestNormalizeGenerator:
    def test_gcd_reduction(self):
        g = LineGenerator(2, 4)
        assert (g.p, g.q) == (1, 2)

    def test_sign_canonicalization(self):
        g = LineGenerator(1, -1)
        assert (g.p, g.q) == (-1, 1)

    def test_zero_q_forces_positive_p(self):
        # gcd reduction applies first, so (-3, 0) lands on (1, 0).
        g = LineGenerator(-3, 0)
        assert (g.p, g.q) == (1, 0)

    def test_zero_generator_rejected(self):
        with pytest.raises(ZeroGenerator):
            LineGenerator(0, 0)

    @given(st.integers(-30, 30), st.integers(-30, 30))
    def test_canonical_form(self, p, q):
        if p == 0 and q == 0:
            return
        g = LineGenerator(p, q)
        assert math.gcd(abs(g.p), abs(g.q)) == 1
        assert g.q > 0 or (g.q == 0 and g.p > 0)
        # Same line: (p, q) parallel to (g.p, g.q).
        assert p * g.q - q * g.p == 0


    @given(st.integers(-30, 30), st.integers(-30, 30))
    def test_norm_is_stored_and_outside_equality(self, p, q):
        if p == 0 and q == 0:
            return
        g = LineGenerator(p, q)
        assert g.norm.hex() == math.sqrt(g.p * g.p + g.q * g.q).hex()
        # Equality, hash and repr see only (p, q).
        assert [f.name for f in dataclasses.fields(g)] == ["p", "q"]
        assert repr(g) == f"LineGenerator(p={g.p}, q={g.q})"
        twice = LineGenerator(2 * p, 2 * q)
        assert twice == g and hash(twice) == hash(g) and twice.norm == g.norm
        moved = dataclasses.replace(g, q=g.q + 1)
        assert moved.norm == math.sqrt(moved.p ** 2 + moved.q ** 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.norm = 1.0


class TestDeltaI:
    def test_three_four(self):
        assert delta_i(LineGenerator(3, 4), 2.0) == pytest.approx(10.0)

    def test_unit_diagonal(self):
        assert delta_i(LineGenerator(1, 1), 0.7) == pytest.approx(0.7 * SQRT2)

    def test_one_two(self):
        assert delta_i(LineGenerator(1, 2), 3.0) == pytest.approx(3.0 * math.sqrt(5.0))

    def test_nonpositive_delta(self):
        for delta in (0.0, math.inf):
            with pytest.raises(NonPositiveDelta):
                delta_i(LineGenerator(1, 1), delta)


class TestStripCoordinate:
    def test_log_origin_is_zero(self):
        for pq in [(1, 1), (-2, 3), (1, 0), (0, 1)]:
            assert coordinate(LogPoint(0.0, 0.0), *pq) == 0.0

    def test_above_diagonal(self):
        assert coordinate(LogPoint(0.0, 5.0), 1, 1) == pytest.approx(5.0)

    def test_on_the_line(self):
        assert coordinate(LogPoint(3.0, 3.0), 1, 1) == 0.0

    def test_accepts_positive_points(self):
        # r_count reads a positive point's coordinate off its log: here 1,
        # inside the strip of (1,1) at delta 1 (delta_i = sqrt 2), outside
        # it at delta 0.5.
        pt, fan = PosPoint(math.e, math.e**2), Fan([(1, 1)])
        assert coordinate(pt.log(), 1, 1) == pytest.approx(1.0)
        assert (r_count(pt, fan, 1.0), r_count(pt, fan, 0.5)) == (1, 0)

    def test_rows_give_the_generators_coordinate_bit_for_bit(self):
        # The readers form q*Y - p*X from a row's float q and p; on seeded
        # points of every magnitude it has the bits of gen.q*Y - gen.p*X.
        fan = Fan([(-3, 7), (1, 2), (2, 1), (1, 0), (0, 1), (-5, 2), (11, 13)])
        rng = np.random.default_rng(37)
        points = (rng.uniform(-1.0, 1.0, size=(500, 2)) * 10.0 ** rng.integers(-3, 6, (500, 1)))
        for X, Y in points.tolist():
            for (_, q, p, _, _, _), g in zip(fan.regions(3.0), fan.generators):
                assert (q * Y - p * X).hex() == (g.q * Y - g.p * X).hex()


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


class TestStripTable:
    """Fan.regions(delta) is the strip table of a (fan, delta), built on each
    call from the fan's one delta-free record."""

    FANS = [[(1, 1)], [(-1, 1), (1, 2), (2, 1)], [(-1, 1), (1, 2), (2, 1), (1, 0), (0, 1)],
            [(-3, 7), (1, 2), (2, 1), (-5, 2), (11, 13), (0, 1)]]

    def test_one_table_that_every_reader_reads(self, monkeypatch):
        # Repeated calls, also with a fresh equal fan, return equal rows,
        # and r_count, integrate and construct_region all read those rows:
        # the last twice, in the construction and in the r <= 1 check.
        fan = Fan([(-1, 1), (1, 2), (2, 1)])
        table = fan.regions(3.0)
        assert fan.regions(3.0) == table and Fan([(2, 1), (-1, 1), (1, 2)]).regions(3.0) == table
        read = []
        regions = Fan.regions
        monkeypatch.setattr(Fan, "regions",
                            lambda f, delta: read.append(regions(f, delta)) or read[-1])
        r_count(LogPoint(1.0, 2.0), fan, 3.0)
        integrate(ExtremeRayStrategy("left"), LogPoint(1.0, 2.0), fan, 3.0, t_end=0.01)
        construct_region(fan, 3.0)
        assert len(read) == 4 and all(t == table for t in read)

    @pytest.mark.parametrize("gens", FANS)
    def test_rows_hold_delta_i_and_the_arms_flanking_sectors(self, gens):
        # Row i is (i, q, p, delta_i, plus, minus), an exact tuple; plus and
        # minus hold the two sectors of the fan's record whose edge is the
        # arm +(q, p), resp. -(q, p): both half planes of a one-generator fan.
        fan = Fan(gens)
        sectors = _fan_table(fan).sectors
        for delta in (0.5, 3.0, 300.0):
            rows = fan.regions(delta)
            assert len(rows) == fan.b
            for row, g in zip(rows, fan.generators):
                assert type(row) is tuple
                i, q, p, half_width, plus, minus = row
                assert fan.generators[i] is g and (q, p) == (g.q, g.p)
                assert half_width == delta_i(g, delta)
                for sign, code in ((1, plus), (-1, minus)):
                    u = (sign * g.q / g.norm, sign * g.p / g.norm)
                    flank = sum(1 << k for k, c in enumerate(sectors)
                                if any(math.hypot(r[0] - u[0], r[1] - u[1]) < 1e-12
                                       for r in c.extreme_rays()[:2]))
                    assert code == flank and bin(code).count("1") == 2


class TestPolar:
    """The tests' interval algebra (cone_algebra), the definition that the
    values memo is held to: its polar, with None for the zero cone."""

    def test_ray_gives_halfplane(self):
        c = polar(arc(0.0, 0.0))
        assert c.width == math.pi
        assert contains(c, math.atan2(0.5, -1.0)) and contains(c, math.atan2(-0.5, -1.0))
        assert not contains(c, 0.0, 1e-9)

    def test_full_plane_gives_origin(self):
        assert polar(arc(0.0, TWO_PI)) is None
        assert polar(None) == arc(0.0, TWO_PI)

    def test_first_quadrant(self):
        c = polar(arc(0.0, math.pi / 2))
        assert 0.0 < c.width < math.pi
        assert c.lo == pytest.approx(math.pi)
        assert c.lo + c.width == pytest.approx(3 * math.pi / 2)

    @given(st.floats(0.0, 2 * math.pi - 1e-6), st.floats(0.0, math.pi))
    def test_polar_involution_sectors(self, start, opening):
        c = arc(start, opening)
        assert arcs_equal(polar(polar(c)), c, tol=1e-9)

    @given(st.floats(0.0, 2 * math.pi - 1e-6))
    def test_polar_involution_rays_and_halfplanes(self, start):
        for width in (0.0, math.pi, LINE, TWO_PI):
            c = arc(start, width)
            assert arcs_equal(polar(polar(c)), c, tol=1e-9)
        assert polar(polar(None)) is None


def _arc():
    """Arcs of width 0 to pi, the end points drawn on purpose."""
    width = st.one_of(st.just(0.0), st.just(math.pi), st.floats(0.0, math.pi))
    return st.builds(arc, st.floats(0.0, 2 * math.pi - 1e-6), width)


def _near_boundary(theta, arcs, band=1e-9):
    for c in arcs:
        for edge in (c.lo, c.lo + c.width):
            gap = (theta - edge) % TWO_PI
            if min(gap, TWO_PI - gap) <= band:
                return True
    return False


# Cones of every kind, by their integer rays: sectors, half planes, lines, rays, the full plane.
CONES = [Cone(((3, 1), (-2, 5))), Cone(((1, 0), (0, 1))), Cone(((-1, 2), (-1, -2))),
         Cone(((2, -1), (-2, 1), (1, 2))), Cone(((0, -1), (0, 1), (1, 0))),
         Cone(((1, 3), (-1, -3))), Cone(((0, 1), (0, -1))), Cone(((-3, 2),)), Cone(((0, -1),)),
         Cone(())]


class TestConeAlgebra:
    @given(_arc(), _arc(), st.floats(0.0, 2 * math.pi))
    def test_intersection_is_conjunction(self, a, b, theta):
        # The tests' intersection; the zero cone (None) holds no direction.
        if _near_boundary(theta, (a, b)):
            return
        both = contains(a, theta) and contains(b, theta)
        both_arc = intersect(a, b)
        assert (both_arc is not None and contains(both_arc, theta)) == both

    def test_zero_and_full_operands(self):
        sector, full = arc(0.3, 1.0), arc(0.0, TWO_PI)
        assert intersect(sector, None) is None is intersect(None, sector)
        assert intersect(sector, full) == sector == intersect(full, sector)
        assert intersect(None, full) is None is intersect(full, None)

    def test_line_operand_rejected(self):
        line, sector = arc(0.3, LINE), arc(0.3, 1.0)
        for a, b in ((line, sector), (sector, line)):
            with pytest.raises(ValueError, match="line cannot be intersected"):
                intersect(a, b)

    @pytest.mark.parametrize("lo", [0.3, 0.3 + math.pi, 6.0])
    def test_opposite_half_planes_give_the_line(self, lo):
        # Two parts arise only here, as two antipodal rays.
        line = intersect(arc(lo, math.pi), arc(lo + math.pi, math.pi))
        assert line.width == LINE
        assert contains(line, lo, 1e-9) and contains(line, lo + math.pi, 1e-9)
        assert not contains(line, lo + 0.5 * math.pi, 1e-9)

    @pytest.mark.parametrize("width", [-0.5, 3.5, 7.0, math.nan])
    def test_invalid_width_rejected(self, width):
        with pytest.raises(ValueError, match="arc width"):
            arc(0.0, width)

    @pytest.mark.parametrize("rays", [
        ((0, 0),), ((1, 0), (1, 0)), ((1, 0), (0, -1)), ((1, 0), (2, 0)),
        ((1, 0), (-1, 0), (0, -1)), ((1, 0), (0, 1), (-1, 0)),
        ((1, 0), (0, 1), (-1, 0), (0, -1)), ((0.5, 1),), ((1,),), ((1, 2, 3),), (None,),
    ])
    def test_malformed_rays_rejected(self, rays):
        # Clockwise or degenerate pairs, a half plane's wrong normal, too
        # many rays, and anything but integer pairs.
        with pytest.raises(ValueError, match="cone ray"):
            Cone(rays)

    def test_rays_are_gcd_reduced_and_give_the_kind(self):
        # Equal cones by their reduced rays; the unit rays of every kind are
        # the arc's that the tests read off them, and a ray along an axis
        # is exact.
        assert Cone(((6, 2), (-4, 10))) == Cone(((3, 1), (-2, 5)))
        assert Cone(((np.int64(2), 4),)).rays == ((1, 2),)
        assert [len(c.rays) for c in CONES] == [2, 2, 2, 3, 3, 2, 2, 1, 1, 0]
        for cone in CONES:
            assert same_rays(cone, arc_of(cone)), cone
            assert all(type(v) is int for ray in cone.rays for v in ray)
        assert Cone(((0, -3), (0, 1), (5, 0))).extreme_rays() == ((0.0, -1.0), (0.0, 1.0),
                                                                   (1.0, 0.0))

    def test_cones_keep_their_rays_in_slots_and_copy(self):
        # A cone holds its integer rays, unit rays and row in slots, no
        # instance dict; copies and pickles are equal cones with the same rays.
        for cone in CONES:
            assert not hasattr(cone, "__dict__")
            for twin in (pickle.loads(pickle.dumps(cone)), copy.deepcopy(cone)):
                assert twin == cone and twin.extreme_rays() == cone.extreme_rays()
                assert twin._row == cone._row


class TestFanSectors:
    def test_single_generator_two_halfplanes(self):
        sectors = _fan_table(Fan([(1, 0)])).sectors
        assert [s.rays for s in sectors] == [((0, 1), (0, -1), (-1, 0)), ((0, -1), (0, 1), (1, 0))]

    def test_two_generators_four_sectors(self):
        sectors = _fan_table(Fan([(1, 1), (-1, 1)])).sectors
        assert [s.rays for s in sectors] == [((1, 1), (-1, 1)), ((-1, 1), (-1, -1)),
                                             ((-1, -1), (1, -1)), ((1, -1), (1, 1))]

    @pytest.mark.parametrize("gens", [
        [(1, 1), (-1, 1)],
        [(-1, 1), (1, 2), (2, 1)],
        [(1, 2), (2, 1), (-1, 1), (0, 1)],
        [(1, 3), (1, 1), (3, 1), (-2, 1), (-1, 2)],
    ])
    def test_sectors_tile_the_plane(self, gens):
        fan = Fan(gens)
        sectors = _fan_table(fan).sectors
        assert len(sectors) == 2 * fan.b
        arcs = [arc_of(s) for s in sectors]
        total = sum(a.width for a in arcs)
        assert total == pytest.approx(2 * math.pi, abs=1e-12)
        assert arcs[0].lo < math.pi / 2  # the first sector starts at the first arm from angle 0
        for k, s in enumerate(sectors):
            nxt = sectors[(k + 1) % len(sectors)]
            assert s.rays[1] == nxt.rays[0]
            end = unit_rays(arcs[k])[1]
            assert end == pytest.approx(nxt.extreme_rays()[0], abs=1e-12)

    def test_angular_order_matches_slopes(self):
        fan = Fan([(2, 1), (-1, 1), (1, 2)])
        slopes = [Fraction(g.p, g.q) for g in fan.generators]
        assert [str(s) for s in slopes] == ["1/2", "2", "-1"]

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

    def test_equal_fans_hash_once_and_share_cache_entries(self, monkeypatch):
        # Permuted and unreduced generator lists give equal fans with equal
        # hashes, so the second fan finds the first one's record with one
        # cache hit; a fan hashes its generators once, when it is built.
        a = Fan([(-1, 1), (1, 2), (2, 1)])
        b = Fan([(4, 2), (2, 4), (-3, 3)])
        assert a == b and a is not b and hash(a) == hash(b)
        hashed = []
        monkeypatch.setattr(LineGenerator, "__hash__",
                            lambda g: hashed.append(g) or hash((g.p, g.q)))
        first = _fan_table(a)
        hits = _fan_table.cache_info().hits
        assert _fan_table(b) is first
        assert _fan_table.cache_info().hits == hits + 1
        assert hashed == []
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.generators = ()
        assert a.generators == b.generators

    def test_equality_reads_the_pairs(self, monkeypatch):
        # A cache lookup with a fresh equal fan compares the two fans: by
        # identity, then by the generators' (p, q) pairs, with no call of
        # LineGenerator.__eq__.
        a, b = Fan([(-1, 1), (1, 2), (2, 1)]), Fan([(2, 1), (1, 2), (-1, 1)])
        compared = []
        monkeypatch.setattr(LineGenerator, "__eq__",
                            lambda g, h: compared.append(g) or NotImplemented)
        assert a == a and a == b and not a != b
        assert a != Fan([(-1, 1), (1, 2)]) and a != Fan([(1, 1), (1, 2), (2, 1)])
        assert compared == []
        assert a.__eq__(a.generators) is NotImplemented and a != "fan"

    def test_numpy_integer_generators(self):
        fan = Fan([(np.int64(2), np.int32(4)), (np.int8(-1), 1)])
        assert fan == Fan([(1, 2), (-1, 1)])
        assert all(type(v) is int for g in fan.generators for v in (g.p, g.q))


ATLAS = json.loads((Path(__file__).resolve().parent.parent
                    / "bench" / "data" / "atlas_catalog.json").read_text())


class TestFlankingArms:
    """_flanking_arms picks the sector by signs of arm x point, with no angle."""

    def test_seeded_points_lie_in_their_sector_alone(self):
        # At seeded points of every atlas fan the sector found is the one
        # sector the near-set rule finds holding the point: its near set at
        # limit 0.
        rng = np.random.default_rng(31)
        for entry in ATLAS["fans"]:
            fan = Fan([tuple(g) for g in entry["gens"]])
            table = _fan_table(fan)
            for X, Y in rng.uniform(-50.0, 50.0, size=(40, 2)).tolist():
                k = _flanking_arms(X, Y, table.arms)
                assert _near_set(LogPoint(X, Y), fan, 0.0) == 1 << k, (entry["gens"], X, Y)

    def test_an_arm_starts_its_sector(self):
        # At integer multiples of every arm of every atlas fan (and of the
        # one-generator fans') the sector starting at the arm wins.  The
        # arm's cross product with the point is exactly 0 there, so by the
        # near-set rule the point lies in that sector and in the one before
        # it: its near set at limit 0 is those two.
        fans = [Fan([tuple(g) for g in entry["gens"]]) for entry in ATLAS["fans"]]
        fans += [Fan([(1, 0)]), Fan([(0, 1)]), Fan([(-2, 3)])]
        for fan in fans:
            table = _fan_table(fan)
            n = len(table.arms)
            for j, ((x, y), i, sign) in enumerate(table.arms):
                assert (x, y) == (sign * fan.generators[i].q, sign * fan.generators[i].p)
                for m in (1, 2, 7, 1000, 10**6):
                    pt = LogPoint(float(m * x), float(m * y))
                    assert _flanking_arms(pt.X, pt.Y, table.arms) == j, (fan, x, y, m)
                    assert _near_set(pt, fan, 0.0) == 1 << j | 1 << (j - 1) % n, (fan, x, y, m)


class TestDistToCone:
    def test_interior_point(self):
        c = Cone(((1, 0), (0, 1)))
        assert dist_to_cone(LogPoint(1.0, 1.0), c) == 0.0

    def test_nearest_point_on_ray(self):
        c = Cone(((1, 0), (0, 1)))
        assert dist_to_cone(LogPoint(-3.0, 4.0), c) == pytest.approx(3.0)

    def test_nearest_point_is_origin(self):
        c = Cone(((1, 0), (0, 1)))
        assert dist_to_cone(LogPoint(-1.0, -1.0), c) == pytest.approx(SQRT2)

    @given(st.sampled_from(CONES[:5]), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_zero_iff_member(self, c, x, y):
        pt = LogPoint(x, y)
        d = dist_to_cone(pt, c)
        if c.violation((x, y)) <= 1e-12:
            assert d <= 1e-9 * (1.0 + math.hypot(x, y))
        elif d == 0.0:
            assert c.violation((x, y)) <= 1e-9


class TestPoints:
    def test_roundtrip(self):
        pt = PosPoint(2.5, 7.0)
        lp = pt.log()
        back = PosPoint(math.exp(lp.X), math.exp(lp.Y))
        assert back.x == pytest.approx(pt.x, rel=1e-12)
        assert back.y == pytest.approx(pt.y, rel=1e-12)

    def test_log_roundtrip(self):
        lp = LogPoint(-40.0, 55.0)
        back = PosPoint(math.exp(lp.X), math.exp(lp.Y)).log()
        assert back.X == pytest.approx(lp.X, rel=1e-12)
        assert back.Y == pytest.approx(lp.Y, rel=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            PosPoint(0.0, 1.0)
