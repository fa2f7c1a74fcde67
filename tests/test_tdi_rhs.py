import contextlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from toric_regions import fan_geometry, tdi_rhs
from toric_regions.errors import (
    NonFinitePoint,
    NonPositiveDelta,
    ToricRegionsError,
)
from toric_regions.fan_geometry import (
    STRIP_TOL,
    Cone,
    Fan,
    LogPoint,
    PosPoint,
    _fan_table,
    as_log,
    delta_i,
    dist_to_cone,
    near_sectors,
    r_count,
)
from toric_regions.region_construction import construct_region, sample_boundary
from toric_regions.tdi_rhs import _rhs_fast, rhs_bruteforce, rhs_bruteforce_batch

from cone_algebra import arc_of, kind, polar, same_rays, value_of

SQRT2 = math.sqrt(2.0)

CROSS_FAN = Fan([(1, 1), (-1, 1)])
WORKED_FAN = Fan([(-1, 1), (1, 2), (2, 1)])


def on_a_strip_boundary(X: float, Y: float, table: tuple) -> bool:
    """Is the log point (X, Y) within STRIP_TOL of a boundary of a strip of
    table, a Fan.regions table, where the strip count cannot choose?"""
    return any(abs(abs(q * Y - p * X) - half_width) <= STRIP_TOL
               for _, q, p, half_width, _, _ in table)


@contextlib.contextmanager
def fallbacks():
    """The points at which _rhs_fast falls back to rhs_bruteforce while the
    block runs, in call order."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tdi_rhs, "rhs_bruteforce",
                   lambda pt, *args: seen.append(pt) or rhs_bruteforce(pt, *args))
        yield seen


def rhs_fast(point, fan: Fan, delta: float) -> Cone:
    """_rhs_fast's value, the classifier's the integrator steps on, at a
    point.  It must fall back to rhs_bruteforce exactly where the point lies
    within STRIP_TOL of a strip boundary: a band test that fires too often
    would still return the definition's value, so the fallback is counted
    too.  There, and only there, the point's cell has radius 0; its near
    row is a row of the strip table."""
    pt = as_log(point)
    table = fan.regions(delta)
    with fallbacks() as seen:
        value, radius, near_row = _rhs_fast(pt.X, pt.Y, fan, delta, table)
    on = on_a_strip_boundary(pt.X, pt.Y, table)
    assert len(seen) == on, (pt, fan, delta, seen)
    assert (radius == 0.0) == on and near_row in table, (pt, fan, delta, radius)
    return value


class TestBruteforce:
    def test_origin_is_full_plane(self):
        assert rhs_bruteforce(PosPoint(1.0, 1.0), CROSS_FAN, 1.0).rays == ()
        assert rhs_bruteforce(LogPoint(0.0, 0.0), WORKED_FAN, 3.0).rays == ()

    def test_far_diagonal_is_halfplane(self):
        rhs = rhs_bruteforce(LogPoint(10.0, 10.0), CROSS_FAN, 1.0)
        # The half plane normal to the arm (1, 1): its inward normal is -(1, 1).
        assert rhs == Cone(((-1, 1), (1, -1), (-1, -1)))
        assert rhs.violation((-1.0, 0.3)) <= 1e-9
        assert rhs.violation((1.0, 1.0)) > 1e-9

    def test_far_right_is_proper_cone(self):
        rhs = rhs_bruteforce(LogPoint(10.0, 0.0), CROSS_FAN, 1.0)
        # Polar of the sector spanned by (1,-1) and (1,1).
        assert rhs.rays == ((-1, 1), (-1, -1))
        rays = rhs.extreme_rays()
        expect = [(-1 / SQRT2, 1 / SQRT2), (-1 / SQRT2, -1 / SQRT2)]
        for u, e in zip(rays, expect):
            assert u == pytest.approx(e, abs=1e-9)
        assert rhs.violation((-1.0, 0.0)) <= 1e-9
        assert rhs.violation((0.0, 1.0)) > 1e-9

    def test_single_generator_outside_strip(self):
        fan = Fan([(1, 1)])
        rhs = rhs_bruteforce(LogPoint(10.0, 0.0), fan, 1.0)
        # Only one half-plane sector within delta: polar is a single ray.
        assert rhs.rays == ((-1, 1),)
        assert rhs.extreme_rays()[0] == pytest.approx((-1 / SQRT2, 1 / SQRT2), abs=1e-9)

    def test_single_generator_inside_strip(self):
        fan = Fan([(1, 1)])
        rhs = rhs_bruteforce(LogPoint(5.0, 5.0), fan, 1.0)
        assert kind(rhs) == "line"
        assert rhs.violation((1.0, -1.0)) <= 1e-9 and rhs.violation((-1.0, 1.0)) <= 1e-9
        assert rhs.violation((1.0, 1.0)) > 1e-9

    @pytest.mark.parametrize("delta", [5e-10, 1e-300])
    def test_delta_below_strip_tol(self, delta):
        # delta - STRIP_TOL < 0: only the sector that contains the point is
        # near, which gives the gap value.  The last point lies on the arm
        # (2, 1), between the last sector and the first; both read the
        # arm's one unit ray, so rounding puts it in one of them, never
        # outside both, and it takes the value of one of them.
        sectors = _fan_table(WORKED_FAN).sectors
        on_arm = LogPoint(2.683281572999748e-300, 1.3416407864998737e-300)
        assert min(dist_to_cone(on_arm, s) for s in (sectors[0], sectors[-1])) == 0.0
        for pt in (LogPoint(10.0, 0.0), LogPoint(0.3, 2.0), LogPoint(-4.0, -1.0), on_arm):
            value = rhs_bruteforce(pt, WORKED_FAN, delta)
            if pt is on_arm:
                assert any(same_rays(value, polar(arc_of(s))) for s in (sectors[0], sectors[-1]))
            else:
                assert value == rhs_fast(pt, WORKED_FAN, delta)
            values, index = rhs_bruteforce_batch(np.array([pt.X]), np.array([pt.Y]),
                                                 WORKED_FAN, delta, STRIP_TOL)
            assert values[index[0]] == value

    @pytest.mark.parametrize("delta", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_delta_rejected(self, delta):
        with pytest.raises(NonPositiveDelta):
            rhs_bruteforce(LogPoint(0.0, 0.0), WORKED_FAN, delta)
        with pytest.raises(NonPositiveDelta):
            rhs_bruteforce_batch(np.zeros(1), np.zeros(1), WORKED_FAN, delta, STRIP_TOL)

    @pytest.mark.parametrize("pt", [LogPoint(math.nan, 0.0), LogPoint(0.0, -math.inf)])
    def test_non_finite_point_rejected(self, pt):
        with pytest.raises(NonFinitePoint, match="^point"):
            rhs_bruteforce(pt, WORKED_FAN, 3.0)


# The reach workload's fans: worked, axis, all_positive and all_negative.
REACH_FANS = [WORKED_FAN, Fan([(-1, 1), (1, 2), (2, 1), (1, 0)]), Fan([(1, 2), (2, 1)]),
              Fan([(-1, 2), (-2, 1)])]
AXES = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


class TestExactEdges:
    """Values built from integer rays have exact edges: a direction on an
    edge along an axis reads violation 0.0, and one just past it more."""

    def test_half_plane_edge_of_the_axis_fan(self):
        # At (0, 10) the axis fan's value is the half plane {vy <= 0}: its
        # boundary direction (1, 0) lies in it, (-1, 1e-20) does not.
        value = rhs_bruteforce(LogPoint(0.0, 10.0), REACH_FANS[1], 3.0)
        assert value.extreme_rays() == ((-1.0, 0.0), (1.0, 0.0), (0.0, -1.0))
        assert value.violation((1.0, 0.0)) == 0.0 == value.violation((-1.0, -0.0))
        assert value.violation((-1.0, 1e-20)) > 0.0 and value.violation((1.0, 1e-300)) > 0.0

    def test_axis_rays_of_every_value_are_exact(self):
        # Every near-set value of the reach fans: a unit extreme ray within
        # 1e-12 of an axis is the axis direction itself, with an exact 0
        # component, and reads violation 0.0 in its value.
        axis_rays = 0
        for fan in REACH_FANS:
            values = _fan_table(fan).values
            for code in range(1, 1 << 2 * fan.b):
                value = values[code]
                for u in value.extreme_rays():
                    if min(abs(u[0]), abs(u[1])) <= 1e-12:
                        assert u in AXES and value.violation(u) == 0.0, (fan, code, u)
                        axis_rays += 1
        assert axis_rays >= 10


class TestClassified:
    def test_matches_bruteforce_on_examples(self):
        for pt in (LogPoint(0.0, 0.0), LogPoint(10.0, 10.0), LogPoint(10.0, 0.0)):
            a = rhs_bruteforce(pt, CROSS_FAN, 1.0)
            b = rhs_fast(pt, CROSS_FAN, 1.0)
            assert a == b, (pt, a, b)

    def test_single_generator_r1_is_line(self):
        fan = Fan([(1, 1)])
        rhs = rhs_fast(PosPoint(1.0, 1.0), fan, 2.0)
        assert kind(rhs) == "line"
        for pt in (LogPoint(0.0, 0.0), LogPoint(5.0, 5.0), LogPoint(5.0, 4.5)):
            assert rhs_fast(pt, fan, 1.0) == rhs_bruteforce(pt, fan, 1.0)

    @pytest.mark.parametrize("pt", [LogPoint(math.nan, 0.0), LogPoint(math.inf, 0.0),
                                    LogPoint(0.0, -math.inf)])
    def test_non_finite_point_rejected(self, pt):
        with pytest.raises(NonFinitePoint, match="^point"):
            rhs_fast(pt, WORKED_FAN, 3.0)

    def test_boundary_point_is_ambiguous(self):
        # Outer boundary of the strip of (1,1) at delta = 1: sigma = sqrt(2).
        # The strip count cannot choose within STRIP_TOL of it, so there, and
        # only there, _rhs_fast falls back to the definition (rhs_fast counts
        # it); the value is the definition's on the boundary (the gap
        # side's), within STRIP_TOL of it, and just past STRIP_TOL on each side.
        table = CROSS_FAN.regions(1.0)
        for e, near in ((0.0, True), (0.5 * STRIP_TOL, True), (-0.5 * STRIP_TOL, True),
                        (2.0 * STRIP_TOL, False), (-2.0 * STRIP_TOL, False)):
            pt = LogPoint(0.0, SQRT2 + e)
            assert on_a_strip_boundary(pt.X, pt.Y, table) == near
            assert rhs_fast(pt, CROSS_FAN, 1.0) == rhs_bruteforce(pt, CROSS_FAN, 1.0)
        assert kind(rhs_fast(LogPoint(0.0, SQRT2), CROSS_FAN, 1.0)) == "sector"

    def test_one_fan_at_two_deltas_in_turn(self):
        # The strip table is read per (fan, delta): classifying one fan at
        # delta 3, then 1, then 3 and 1 again gives each delta's value.
        grid = [LogPoint(float(X), float(Y)) for X in range(-9, 10, 2) for Y in range(-9, 10, 3)]
        counts = {}
        for delta in (3.0, 1.0, 3.0, 1.0):
            halves = [delta_i(g, delta) for g in WORKED_FAN.generators]
            for pt in grid:
                sigma = [abs(g.q * pt.Y - g.p * pt.X) for g in WORKED_FAN.generators]
                if min(abs(s - h) for s, h in zip(sigma, halves)) <= 1e-6:
                    continue
                fast = rhs_fast(pt, WORKED_FAN, delta)
                slow = rhs_bruteforce(pt, WORKED_FAN, delta)
                assert fast == slow, (delta, pt)
                r = r_count(pt, WORKED_FAN, delta)
                assert r == sum(s < h for s, h in zip(sigma, halves))
                counts.setdefault(pt, {})[delta] = r
        assert any(len(set(by_delta.values())) == 2 for by_delta in counts.values())

    @pytest.mark.parametrize("delta", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_delta_rejected(self, delta):
        # A bad delta raises on every call and builds no record for a fan
        # that no other test uses: the record cache is not even looked up.
        fan = Fan([(-7, 3), (2, 9), (5, 1)])
        before = _fan_table.cache_info()
        for _ in range(2):
            with pytest.raises(NonPositiveDelta):
                fan.regions(delta)
            with pytest.raises(NonPositiveDelta):
                rhs_fast(LogPoint(0.0, 0.0), fan, delta)
            with pytest.raises(NonPositiveDelta):
                r_count(LogPoint(0.0, 0.0), fan, delta)
        assert _fan_table.cache_info() == before

    def test_each_value_is_built_once_per_fan_and_near_set(self, monkeypatch):
        # The record's values memo builds the value of a (fan, near set) on
        # its first read: the first pass of construct_region, battery
        # included, builds each value once, and a second pass builds none.
        fans = [Fan([tuple(g) for g in entry["gens"]]) for entry in ATLAS["fans"][:6]]
        built = []
        missing = fan_geometry._NearValues.__missing__
        monkeypatch.setattr(fan_geometry._NearValues, "__missing__",
                            lambda memo, near: built.append(near) or missing(memo, near))

        def construct_all() -> int:
            built.clear()
            for fan in fans:
                try:
                    construct_region(fan, 3.0)
                except ToricRegionsError:
                    pass
            return len(built)

        _fan_table.cache_clear()
        assert construct_all() == sum(len(_fan_table(fan).values) for fan in fans) > 10
        assert construct_all() == 0

    def test_halfplane_slope_is_attracting_slope(self):
        # Inside the strip of (1,2) only: boundary of the half plane must
        # have slope -q/p = -2, i.e. normal parallel to (q, p) = (2, 1).
        pt = LogPoint(8.0, 4.2)
        assert r_count(pt, WORKED_FAN, 3.0) == 1
        rhs = rhs_fast(pt, WORKED_FAN, 3.0)
        assert kind(rhs) == "half plane" and rhs.rays[2] == (-2, -1)


# Canonical generators of the oracle fans.
POOL = [(p, q) for p in range(-4, 5) for q in range(0, 5)
        if (p, q) != (0, 0) and not (q == 0 and p <= 0) and math.gcd(abs(p), abs(q)) == 1]


def random_fans(rng, count, min_b=2, max_b=6):
    fans = []
    while len(fans) < count:
        b = int(rng.integers(min_b, max_b + 1))
        idx = rng.choice(len(POOL), size=b, replace=False)
        try:
            fans.append(Fan([POOL[i] for i in idx]))
        except Exception:
            continue
    return fans


def agreement_run(fan, delta, n_points, rng):
    """Count disagreements between the two evaluation paths at random log
    points; rhs_fast also fails on a fallback off the strip boundaries."""
    span = 5.0 * delta
    pts = rng.uniform(-span, span, size=(n_points, 2))
    mismatches = 0
    for X, Y in pts:
        pt = LogPoint(float(X), float(Y))
        if rhs_bruteforce(pt, fan, delta) != rhs_fast(pt, fan, delta):
            mismatches += 1
    return mismatches


class TestOracleEquivalence:
    def test_worked_fan(self):
        rng = np.random.default_rng(0)
        assert agreement_run(WORKED_FAN, 3.0, 2000, rng) == 0

    def test_random_fans(self):
        rng = np.random.default_rng(1)
        for fan in random_fans(rng, 6):
            delta = float(rng.uniform(1.0, 6.0))
            assert agreement_run(fan, delta, 500, rng) == 0, (fan, delta)

    def test_one_generator_fans(self):
        rng = np.random.default_rng(6)
        for fan in random_fans(rng, 6, min_b=1, max_b=1):
            for delta in (0.5, 1.0, 3.0):
                assert agreement_run(fan, delta, 200, rng) == 0, (fan, delta)

    def test_full_plane_iff_r_ge_2(self):
        rng = np.random.default_rng(2)
        fan = WORKED_FAN
        for X, Y in rng.uniform(-15, 15, size=(500, 2)):
            pt = LogPoint(float(X), float(Y))
            rhs = rhs_fast(pt, fan, 3.0)
            assert (rhs.rays == ()) == (r_count(pt, fan, 3.0) >= 2)


class TestSwapSymmetry:
    def test_inclusion_commutes_with_the_swap(self):
        # Swapping x and y maps each line (p, q) of a fan to (q, p), and the
        # inclusion's value at (X, Y) to the mirror of its value at (Y, X):
        # a velocity violates the one as its swap violates the other.  The
        # values come from rhs_bruteforce, in one batch per side.
        lines = (Path(__file__).resolve().parent / "atlas_outcomes.jsonl").read_text()
        rng = np.random.default_rng(23)
        worst = probes = 0
        for gens in (json.loads(line)["gens"] for line in lines.splitlines()):
            fan, swapped = Fan([tuple(g) for g in gens]), Fan([(q, p) for p, q in gens])
            for delta in (0.5, 3.0, 300.0):
                X, Y = rng.uniform(-4.0 * delta, 4.0 * delta, size=(2, 160))
                a = rng.uniform(0.0, 2.0 * math.pi, size=160)
                here, i = rhs_bruteforce_batch(X, Y, fan, delta, STRIP_TOL)
                there, j = rhs_bruteforce_batch(Y, X, swapped, delta, STRIP_TOL)
                for k, (vx, vy) in enumerate(zip(np.cos(a).tolist(), np.sin(a).tolist())):
                    v = here[i[k]].violation((vx, vy))
                    worst = max(worst, abs(v - there[j[k]].violation((vy, vx))))
                    probes += v > 0.0
        assert worst <= 1e-12 and probes > 10000


class TestClassifiedIsDefinition:
    """_rhs_fast only chooses the near set; the value is the definition's."""

    @pytest.mark.parametrize("min_b, max_b", [(1, 1), (2, 6)])
    def test_exact_agreement_off_strip_boundaries(self, min_b, max_b):
        rng = np.random.default_rng(9 + min_b)
        seen = set()
        for fan in random_fans(rng, 40, min_b, max_b):
            delta = float(rng.uniform(0.5, 6.0))
            for X, Y in rng.uniform(-5.0 * delta, 5.0 * delta, size=(100, 2)):
                pt = LogPoint(float(X), float(Y))
                if min(abs(abs(g.q * pt.Y - g.p * pt.X) - delta_i(g, delta)) / g.norm
                       for g in fan.generators) <= 1e-6:
                    continue
                fast = rhs_fast(pt, fan, delta)
                slow = rhs_bruteforce(pt, fan, delta)
                assert fast == slow, (fan, delta, pt)
                seen.add(min(r_count(pt, fan, delta), 2))
        assert seen == ({0, 1} if max_b == 1 else {0, 1, 2})

    @pytest.mark.parametrize("min_b, max_b", [(1, 1), (2, 6)])
    def test_one_value_per_side_within_the_radius(self, min_b, max_b):
        # Within the radius of a point (infinity norm), off the STRIP_TOL
        # band of its near row, _rhs_fast gives one value on each side of
        # that row's boundary: at seeded points of the box, at its corners
        # scaled by 0.999, and where the boundary is in reach, at points
        # 2 * STRIP_TOL to 1e-6 across it on both sides.
        rng = np.random.default_rng(21 + min_b)
        both = cells = 0
        for fan in random_fans(rng, 40, min_b, max_b):
            delta = float(rng.uniform(0.5, 6.0))
            table = fan.regions(delta)
            for X, Y in rng.uniform(-5.0 * delta, 5.0 * delta, size=(20, 2)).tolist():
                value, radius, (_, q, p, half_width, _, _) = _rhs_fast(X, Y, fan, delta, table)
                if radius <= 0.0:
                    continue
                cells += 1
                box = [*(rng.uniform(-1.0, 1.0, size=(20, 2)) * radius).tolist(),
                       *(0.999 * radius * np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)])).tolist()]
                a = q * Y - p * X
                step = (math.copysign(half_width, a) - a) / (q * q + p * p)
                foot = (-p * step, q * step)  # the nearest point of the near boundary
                if max(map(abs, foot)) < 0.9 * radius:
                    for e in (2.0 * STRIP_TOL, 1e-8, 1e-6, -2.0 * STRIP_TOL, -1e-8, -1e-6):
                        box.append((foot[0] * (1.0 + e), foot[1] * (1.0 + e)))
                sides = {abs(q * Y - p * X) < half_width: value}
                for dX, dY in box:
                    PX, PY = X + dX, Y + dY
                    s = abs(q * PY - p * PX)
                    if abs(s - half_width) > STRIP_TOL:
                        got = _rhs_fast(PX, PY, fan, delta, table)[0]
                        assert got is sides.setdefault(s < half_width, got), (fan, delta, X, Y)
                both += len(sides) == 2
        assert cells > 600 and both > 50

    def test_full_plane_is_one_shared_object(self):
        a = rhs_fast(LogPoint(0.0, 0.0), WORKED_FAN, 3.0)
        b = rhs_fast(LogPoint(1.0, -0.5), WORKED_FAN, 3.0)
        c = rhs_fast(PosPoint(1.0, 1.0), CROSS_FAN, 1.0)
        d = rhs_bruteforce(LogPoint(0.0, 0.0), WORKED_FAN, 3.0)
        assert a.rays == ()
        assert a is b and a is c and a is d


def subfan_value_inside(point, fan: Fan, subfan: Fan, delta: float) -> bool:
    """rhs_bruteforce of the subfan lies in the fan's: a full plane only in
    a full plane, every other cone by its extreme rays, to 1e-9."""
    inner = rhs_bruteforce(point, subfan, delta)
    outer = rhs_bruteforce(point, fan, delta)
    if not inner.rays:
        return not outer.rays
    return all(outer.violation(u) <= 1e-9 for u in inner.extreme_rays())


class TestSubfanMonotonicity:
    def test_reflexive(self):
        rng = np.random.default_rng(3)
        for X, Y in rng.uniform(-10, 10, size=(50, 2)):
            assert subfan_value_inside(LogPoint(float(X), float(Y)), CROSS_FAN, CROSS_FAN, 1.0)

    def test_single_strip_subfan(self):
        rng = np.random.default_rng(4)
        sub = Fan([(1, 1)])
        for X, Y in rng.uniform(-20, 20, size=(1000, 2)):
            assert subfan_value_inside(LogPoint(float(X), float(Y)), CROSS_FAN, sub, 1.0)

    def test_worked_fan_subfans(self):
        rng = np.random.default_rng(5)
        subs = [Fan([(-1, 1)]), Fan([(1, 2)]), Fan([(2, 1)]),
                Fan([(-1, 1), (1, 2)]), Fan([(-1, 1), (2, 1)]), Fan([(1, 2), (2, 1)])]
        pts = rng.uniform(-15, 15, size=(200, 2))
        for sub in subs:
            for X, Y in pts:
                assert subfan_value_inside(LogPoint(float(X), float(Y)), WORKED_FAN, sub, 3.0)


# The validation battery's reading (a strip boundary takes the gap value)
# and the velocity checks' inclusive one (it takes the larger cone).
TOLS = (STRIP_TOL, -1e-9)


def _definition(pt, fan, delta, tol):
    """The inclusion's value as the definition reads, with no cache."""
    return value_of([s for s in _fan_table(fan).sectors if dist_to_cone(pt, s) <= delta - tol])


def _near_reference(X, Y, fan, limit):
    """dist_to_cone(pt, sector) <= limit for every (sector, point) pair."""
    return np.array([[dist_to_cone(LogPoint(float(x), float(y)), s) <= limit
                      for x, y in zip(X, Y)] for s in _fan_table(fan).sectors], dtype=bool)


def _assert_batch_matches(X, Y, fan, delta):
    """The batch value of every point is the scalar one, float for float, and
    near_sectors is the definition pair by pair, at both tols."""
    for tol in TOLS:
        near = near_sectors(np.array(X), np.array(Y), fan, delta - tol)
        assert near.shape == (2 * fan.b, len(X))
        assert (near == _near_reference(X, Y, fan, delta - tol)).all(), (fan, delta, tol)
        values, index = rhs_bruteforce_batch(np.array(X), np.array(Y), fan, delta, tol)
        assert len(index) == len(X)
        for x, y, k in zip(X, Y, index):
            pt = LogPoint(float(x), float(y))
            want = rhs_bruteforce(pt, fan, delta, tol)
            assert values[k] == want, (fan, delta, tol, pt)
            assert same_rays(want, _definition(pt, fan, delta, tol)), (fan, delta, tol, pt)


def _strip_boundary_points(fan, delta):
    """Points on both boundary curves q*Y - p*X = +-delta_i of every strip."""
    X, Y = [], []
    for g in fan.generators:
        for side in (1.0, -1.0):
            for t in (-7.0, -1.0, -0.25, 0.0, 0.5, 2.0, 9.0):
                if g.q:
                    X.append(t)
                    Y.append((g.p * t + side * delta_i(g, delta)) / g.q)
                else:
                    X.append(-side * delta_i(g, delta) / g.p)
                    Y.append(t)
    return X, Y


ATLAS = json.loads((Path(__file__).resolve().parent.parent
                    / "bench" / "data" / "atlas_catalog.json").read_text())


class TestNearValues:
    def test_memo_is_the_definition(self):
        # The memo's three cases are the interval algebra's value, their
        # unit rays within RAY_TOL, on every near-set code of the atlas fans
        # (300 seeded codes of a fan past 10 sectors) and of the
        # one-generator fans.
        rng = np.random.default_rng(10)
        fans = [Fan([tuple(g) for g in entry["gens"]]) for entry in ATLAS["fans"]]
        fans += [Fan([gen]) for gen in POOL]
        checked = set()
        for fan in fans:
            sectors = _fan_table(fan).sectors
            n = len(sectors)
            memo = fan_geometry._NearValues(sectors)
            codes = range(1, 1 << n) if n <= 10 else rng.integers(1, 1 << n, 300).tolist()
            for code in codes:
                got = memo[code]
                want = value_of([s for k, s in enumerate(sectors) if code >> k & 1])
                assert same_rays(got, want), (fan, code)
                checked.add(kind(got))
        assert checked == {"ray", "sector", "half plane", "line", "full plane"}


class TestBatchBruteforce:
    @pytest.mark.parametrize("delta", [0.5, 1.0, 3.0])
    def test_one_generator_fans(self, delta):
        # Half-plane sectors: three rays each, the third the inward normal.
        rng = np.random.default_rng(7)
        for gen in POOL:
            fan = Fan([gen])
            X, Y = _strip_boundary_points(fan, delta)
            pts = rng.uniform(-5.0 * delta, 5.0 * delta, size=(60, 2))
            _assert_batch_matches(X + [0.0] + list(pts[:, 0]), Y + [0.0] + list(pts[:, 1]),
                                  fan, delta)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 3.0])
    def test_random_fans(self, delta):
        rng = np.random.default_rng(8)
        for fan in random_fans(rng, 12):
            X, Y = _strip_boundary_points(fan, delta)
            pts = rng.uniform(-5.0 * delta, 5.0 * delta, size=(200, 2))
            _assert_batch_matches(X + [0.0] + list(pts[:, 0]), Y + [0.0] + list(pts[:, 1]),
                                  fan, delta)

    @pytest.mark.parametrize("gens", [
        [(1, 0), (0, 1), (1, 1), (-1, 1), (1, 2), (2, 1), (-1, 2), (-2, 1)],
        [(1, 0), (0, 1), (1, 1), (-1, 1), (1, 2), (2, 1), (-1, 2), (-2, 1), (1, 3), (3, 1),
         (-1, 3), (-3, 1)],
    ])
    def test_many_generator_fans(self, gens):
        # 16 and 24 sectors: near-set codes far past 2^(2b) for small b, on
        # strip boundaries, on every arm and off them, at both tols.
        fan = Fan(gens)
        rng = np.random.default_rng(9)
        for delta in (0.5, 3.0):
            X, Y = _strip_boundary_points(fan, delta)
            arms = [(t * g.q, t * g.p) for g in fan.generators
                    for t in (-2.0 * delta, -0.3, 0.0, 0.3, delta, 5.0 * delta)]
            pts = rng.uniform(-6.0 * delta, 6.0 * delta, size=(200, 2))
            _assert_batch_matches(X + [x for x, _ in arms] + list(pts[:, 0]),
                                  Y + [y for _, y in arms] + list(pts[:, 1]), fan, delta)

    def test_empty_array(self):
        for tol in TOLS:
            values, index = rhs_bruteforce_batch(np.empty(0), np.empty(0), WORKED_FAN, 3.0, tol)
            assert values == [] and len(index) == 0

    def test_tol_moves_boundary_values(self):
        # Some strip boundary point takes the gap value at STRIP_TOL and the
        # larger cone at the inclusive tol.
        X, Y = map(np.array, _strip_boundary_points(WORKED_FAN, 3.0))
        strict, inclusive = (rhs_bruteforce_batch(X, Y, WORKED_FAN, 3.0, tol) for tol in TOLS)
        moved = [k for k in range(len(X))
                 if strict[0][strict[1][k]] != inclusive[0][inclusive[1][k]]]
        assert moved
        for k in moved:
            pt = LogPoint(float(X[k]), float(Y[k]))
            assert strict[0][strict[1][k]] == rhs_bruteforce(pt, WORKED_FAN, 3.0, STRIP_TOL)
            assert inclusive[0][inclusive[1][k]] == rhs_bruteforce(pt, WORKED_FAN, 3.0, -1e-9)

    def test_values_are_distinct_near_sets(self):
        X, Y = [0.0, 10.0, 0.0, 10.0], [0.0, 10.0, 0.0, 10.0]
        values, index = rhs_bruteforce_batch(np.array(X), np.array(Y), CROSS_FAN, 1.0,
                                             STRIP_TOL)
        assert len(values) == 2 and list(index[:2]) == list(index[2:])
        assert (kind(values[index[0]]), kind(values[index[1]])) == ("full plane", "half plane")

    def test_atlas_boundary_samples(self):
        regions = 0
        for entry in ATLAS["fans"]:
            fan = Fan([tuple(g) for g in entry["gens"]])
            try:
                region = construct_region(fan, 3.0, validate=False)
            except ToricRegionsError:
                continue
            X, Y, _ = sample_boundary(region, 512)
            _assert_batch_matches(X.tolist(), Y.tolist(), fan, 3.0)
            regions += 1
            if regions == 14:
                break
        assert regions == 14

    @pytest.mark.parametrize("delta", [100.0, 300.0])
    def test_far_atlas_boundary_samples(self, delta):
        # Far from the origin an arm's |arm x p| and the definition's
        # hypot(p - t*arm) round differently; so do points exactly on an
        # arm, t*(q, p), where arm x p is rounding noise around 0.
        regions = 0
        for entry in ATLAS["fans"]:
            fan = Fan([tuple(g) for g in entry["gens"]])
            try:
                region = construct_region(fan, delta, validate=False)
            except ToricRegionsError:
                continue
            X, Y, _ = sample_boundary(region, 256)
            arms = [(t * g.q, t * g.p) for g in fan.generators
                    for t in (-3.0 * delta, -1.0, -1e-3, 1e-3, 0.7, delta, 7.0 * delta)]
            _assert_batch_matches(X.tolist() + [x for x, _ in arms],
                                  Y.tolist() + [y for _, y in arms], fan, delta)
            regions += 1
            if regions == 14:
                break
        assert regions == 14


class TestNearSectors:
    """The arm table: one cross and one dot product per (arm, point);
    TestBatchBruteforce compares it with the definition pair by pair."""

    def test_ties_go_to_dist_to_cone(self, monkeypatch):
        # The limit is one point's distance to a sector away from it, so that
        # pair is a tie; only pairs within 1e-12 (relative) of the limit are
        # handed to dist_to_cone.
        rng = np.random.default_rng(19)
        X, Y = rng.uniform(-10.0, 10.0, size=(2, 50))
        sectors = _fan_table(WORKED_FAN).sectors
        pt = LogPoint(float(X[7]), float(Y[7]))
        k = max(range(len(sectors)), key=lambda k: dist_to_cone(pt, sectors[k]))
        limit = dist_to_cone(pt, sectors[k])
        calls = []

        def counted(point, cone):
            calls.append((point, cone))
            return dist_to_cone(point, cone)

        monkeypatch.setattr(fan_geometry, "dist_to_cone", counted)
        near = near_sectors(X, Y, WORKED_FAN, limit)
        assert (pt, sectors[k]) in calls
        assert all(abs(dist_to_cone(p, c) - limit) <= 1e-11 * limit for p, c in calls)
        assert near[k, 7]
        assert (near == _near_reference(X, Y, WORKED_FAN, limit)).all()
        calls.clear()
        near_sectors(X, Y, WORKED_FAN, limit * (1.0 + 1e-9))
        assert calls == []

    def test_far_points_at_the_limit(self):
        # Points at distance 0.5 (to rounding) from a sector's extreme ray,
        # up to 1e6 from the origin, where |arm x p| and the definition's
        # distance differ by ulps of |p|: far more than 1e-12 * limit.
        for entry in ATLAS["fans"][::17]:
            fan = Fan([tuple(g) for g in entry["gens"]])
            X, Y = [], []
            for s in _fan_table(fan).sectors:
                for ux, uy in s.extreme_rays():
                    for t in (1.0, 1e3, 1e6):
                        for off in (0.5, 0.5 * (1.0 + 1e-13), 0.5 * (1.0 - 1e-15), -0.5):
                            X.append(t * ux - off * uy)
                            Y.append(t * uy + off * ux)
            X, Y = np.array(X), np.array(Y)
            assert (near_sectors(X, Y, fan, 0.5) == _near_reference(X, Y, fan, 0.5)).all(), fan

    def test_battery_samples_make_no_ties(self, monkeypatch):
        # Arc samples lie on a strip boundary, STRIP_TOL from the battery's
        # limit; at delta = 300 they sit thousands of log units out, and the
        # tie band must stay far inside STRIP_TOL there.
        region = construct_region(WORKED_FAN, 300.0, validate=False)
        X, Y, _ = sample_boundary(region, 512)
        assert np.hypot(X, Y).max() > 1e3
        calls = []
        monkeypatch.setattr(fan_geometry, "dist_to_cone", lambda *args: calls.append(args) or 0.0)
        near_sectors(X, Y, WORKED_FAN, 300.0 - STRIP_TOL)
        assert calls == []

    def test_points_on_the_rays_at_a_zero_limit(self):
        # delta = STRIP_TOL makes the limit 0: a point on an arm or a sector's
        # ray is near exactly when the definition's distance is 0, which
        # |arm x p| misses by rounding.
        for entry in ATLAS["fans"][::9]:
            fan = Fan([tuple(g) for g in entry["gens"]])
            pts = [(t * ux, t * uy) for s in _fan_table(fan).sectors for ux, uy in s.extreme_rays()
                   for t in (0.5, 3.0, 100.0, 1e4)]
            pts += [(t * g.q, t * g.p) for g in fan.generators for t in (-7.0, -1e-3, 0.7, 1e3)]
            X, Y = (np.array(v) for v in zip(*pts))
            assert (near_sectors(X, Y, fan, 0.0) == _near_reference(X, Y, fan, 0.0)).all(), fan
            values, index = rhs_bruteforce_batch(X, Y, fan, STRIP_TOL, STRIP_TOL)
            for (x, y), k in zip(pts, index):
                want = rhs_bruteforce(LogPoint(x, y), fan, STRIP_TOL, STRIP_TOL)
                assert values[k] == want, (fan, x, y)

    def test_blocks_match_the_scalar_value(self):
        # 2,500 points span three blocks; strip boundary points sit in each.
        rng = np.random.default_rng(20)
        bX, bY = _strip_boundary_points(WORKED_FAN, 3.0)
        X, Y = rng.uniform(-15.0, 15.0, size=(2, 2500))
        for start in (0, 1000, 2000):
            X[start:start + len(bX)], Y[start:start + len(bY)] = bX, bY
        assert 2 * fan_geometry._NEAR_BLOCK < len(X) <= 3 * fan_geometry._NEAR_BLOCK
        for tol in TOLS:
            values, index = rhs_bruteforce_batch(X, Y, WORKED_FAN, 3.0, tol)
            assert len(index) == len(X)
            for x, y, k in zip(X, Y, index):
                want = rhs_bruteforce(LogPoint(float(x), float(y)), WORKED_FAN, 3.0, tol)
                assert values[k] == want, (x, y, tol)
