"""Integer-exact line generators, uncertainty strips, and the planar cone type.

All combinatorial decisions (angular order, slope classes, pairwise
determinants) use integer arithmetic; point geometry lives in log space so
coordinates of order e^(c*delta) never have to be materialized.
"""

import bisect
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    NonFinitePoint,
    NonPositiveDelta,
    ParallelGenerators,
    UnsupportedFan,
    ZeroGenerator,
)

# Absolute tolerance on strip coordinates separating interior from boundary.
STRIP_TOL = 1e-9
# Angular tolerance for ray coincidence in cone arithmetic.
ANGLE_TOL = 1e-12

TWO_PI = 2.0 * math.pi


def _wrap(angle: float) -> float:
    """Wrap an angle into [0, 2*pi)."""
    a = math.fmod(angle, TWO_PI)
    return a + TWO_PI if a < 0.0 else a


@dataclass(frozen=True, order=False)
class LineGenerator:
    """The line q*Y = p*X through the origin of log space.

    Stored in canonical form: gcd(|p|, |q|) = 1 and q > 0, or q = 0 and
    p > 0.  Construction canonicalizes automatically; p and q may be any
    integers (numpy's too), anything else raises UnsupportedFan.
    """

    p: int
    q: int

    def __post_init__(self):
        try:
            p, q = operator.index(self.p), operator.index(self.q)
        except TypeError:
            raise UnsupportedFan(f"generator ({self.p!r}, {self.q!r}) is not a pair of integers"
                                 ) from None
        if p == 0 and q == 0:
            raise ZeroGenerator("generator (0, 0) does not define a line")
        g = math.gcd(abs(p), abs(q))
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def norm(self) -> float:
        """sqrt(p^2 + q^2), the scale factor relating delta to strip width."""
        return math.sqrt(self.p * self.p + self.q * self.q)

    @property
    def is_horizontal(self) -> bool:
        """Line Y = 0 (zero slope)."""
        return self.p == 0

    @property
    def is_vertical(self) -> bool:
        """Line X = 0 (infinite slope)."""
        return self.q == 0

    @property
    def is_axis(self) -> bool:
        return self.p == 0 or self.q == 0

    def slope(self) -> Fraction | None:
        """Slope p/q of the line; None means infinite (vertical)."""
        if self.q == 0:
            return None
        return Fraction(self.p, self.q)

    def attracting_slope(self) -> Fraction | None:
        """Slope -q/p of the attracting directions; None means vertical."""
        if self.p == 0:
            return None
        return Fraction(-self.q, self.p)

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


def normalize_generator(p: int, q: int) -> LineGenerator:
    """Canonical generator for the line q*Y = p*X."""
    return LineGenerator(p, q)


def _angular_cmp(a: LineGenerator, b: LineGenerator) -> int:
    """Exact comparison of line angles theta in (0, pi] of two distinct
    generators, using integers."""
    if a.p == 0:
        return 1  # horizontal sorts last (theta = pi)
    if b.p == 0:
        return -1
    sa = 1 if a.p > 0 else -1
    sb = 1 if b.p > 0 else -1
    # Direction vectors (q, p) flipped into the open upper half plane.
    aq, ap = sa * a.q, sa * a.p
    bq, bp = sb * b.q, sb * b.p
    cross = aq * bp - ap * bq  # positive iff a's angle is smaller
    return (cross < 0) - (cross > 0)


@dataclass(frozen=True)
class Fan:
    """A complete fan in R^2 generated by pairwise non-parallel lines.

    Generators are kept in ascending angular order theta over (0, pi]:
    index 0 has the smallest positive slope and negative slopes follow,
    continuing counter-clockwise.
    """

    generators: tuple[LineGenerator, ...]

    def __init__(self, generators):
        gens = [g if isinstance(g, LineGenerator) else LineGenerator(*g) for g in generators]
        if not gens:
            raise UnsupportedFan("fan needs at least one generator")
        seen = set()
        for g in gens:
            key = (g.p, g.q)
            if key in seen:
                raise ParallelGenerators(f"duplicate line generator {g}")
            seen.add(key)
        gens.sort(key=functools.cmp_to_key(_angular_cmp))
        object.__setattr__(self, "generators", tuple(gens))

    @property
    def b(self) -> int:
        return len(self.generators)

    def regions(self, delta: float) -> tuple["UncertaintyRegion", ...]:
        """Uncertainty regions for every generator at this delta."""
        return tuple(
            UncertaintyRegion(g, delta_i(g, delta), i) for i, g in enumerate(self.generators)
        )

    def __str__(self) -> str:
        return "{" + ",".join(str(g) for g in self.generators) + "}"


@dataclass(frozen=True)
class PosPoint:
    """A point of the open positive quadrant in x-space."""

    x: float
    y: float

    def __post_init__(self):
        if not (self.x > 0.0 and self.y > 0.0 and math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point ({self.x}, {self.y}) is not strictly positive and finite")

    def log(self) -> "LogPoint":
        return LogPoint(math.log(self.x), math.log(self.y))


@dataclass(frozen=True)
class LogPoint:
    """A point (X, Y) = (log x, log y) of log space."""

    X: float
    Y: float

    def exp(self) -> PosPoint:
        return PosPoint(math.exp(self.X), math.exp(self.Y))


def as_log(point) -> LogPoint:
    """Accept either representation; work internally in log space."""
    if isinstance(point, LogPoint):
        return point
    if isinstance(point, PosPoint):
        return point.log()
    x, y = point
    return PosPoint(x, y).log()


def _finite_log(point, name: str) -> LogPoint:
    """as_log(point); NonFinitePoint naming the argument if a coordinate is
    NaN or infinite."""
    pt = as_log(point)
    if not (math.isfinite(pt.X) and math.isfinite(pt.Y)):
        raise NonFinitePoint(f"{name} ({pt.X}, {pt.Y}) is not finite")
    return pt


@dataclass(frozen=True)
class UncertaintyRegion:
    """The strip |q*Y - p*X| <= delta_i around one generator line.

    In x-space it is the band between y^q = e^(-delta_i) x^p and
    y^q = e^(+delta_i) x^p; (1, 1) is strictly interior for every delta.
    """

    gen: LineGenerator
    delta_i: float
    index: int


def delta_i(gen: LineGenerator, delta: float) -> float:
    """Strip half-width delta * sqrt(p^2 + q^2), for a delta strictly positive and finite."""
    if not 0.0 < delta < math.inf:
        raise NonPositiveDelta(f"delta = {delta}")
    return delta * gen.norm


def strip_coordinate(point, region: UncertaintyRegion) -> float:
    """Signed coordinate s = q*Y - p*X; |s| <= delta_i inside the strip."""
    pt = as_log(point)
    return region.gen.q * pt.Y - region.gen.p * pt.X


def along_coordinate(point, gen: LineGenerator) -> float:
    """Coordinate q*X + p*Y along the generator line (sign picks the arm)."""
    pt = as_log(point)
    return gen.q * pt.X + gen.p * pt.Y


def r_count(point, fan: Fan, delta: float) -> int:
    """Number of uncertainty regions whose open interior contains the point.

    Interior means |strip coordinate| < delta_i - STRIP_TOL; points within
    STRIP_TOL of a boundary curve are not counted.  NonFinitePoint unless
    the point is finite.
    """
    pt = _finite_log(point, "point")
    return sum(abs(g.q * pt.Y - g.p * pt.X) < delta_i(g, delta) - STRIP_TOL
               for g in fan.generators)


def attracting_direction(region: UncertaintyRegion, side: int) -> tuple[float, float]:
    """Unit vector orthogonal to the generator line pointing into the strip.

    side = +1 addresses the component where the strip coordinate is positive;
    the returned direction decreases |strip coordinate| from that side.
    """
    if side not in (1, -1):
        raise ValueError("side must be +1 or -1")
    g = region.gen
    n = g.norm
    return (side * g.p / n, -side * g.q / n)


# ---------------------------------------------------------------------------
# Cones

# Marker widths of the two cones that are not angular intervals.
ZERO_WIDTH = -1.0  # the zero cone {0}
LINE_WIDTH = -2.0  # the line through direction lo; only one-generator fans give it

_KINDS = {ZERO_WIDTH: "zero", LINE_WIDTH: "line", 0.0: "ray", math.pi: "halfplane",
          TWO_PI: "full"}


@dataclass(frozen=True)
class Cone:
    """Closed convex cone in R^2: the directions of the counter-clockwise
    angular interval [lo, lo + width].

    width 0 is a ray, (0, pi) a sector, pi a half plane and 2*pi the full
    plane.  The zero cone and the line through direction lo are not
    intervals and carry ZERO_WIDTH and LINE_WIDTH instead.  Construction
    wraps lo into [0, 2*pi) (0 for the zero cone and the full plane) and
    snaps widths within ANGLE_TOL of 0 or pi onto them.
    """

    lo: float
    width: float

    def __post_init__(self):
        w = self.width
        if abs(w) <= ANGLE_TOL:
            w = 0.0
        elif abs(w - math.pi) <= ANGLE_TOL:
            w = math.pi
        elif not (0.0 < w < math.pi or w in (ZERO_WIDTH, LINE_WIDTH, TWO_PI)):
            raise ValueError(f"cone width {w} is not in [0, pi], 2*pi or a marker width")
        object.__setattr__(self, "lo", 0.0 if w in (ZERO_WIDTH, TWO_PI) else _wrap(self.lo))
        object.__setattr__(self, "width", w)

    @property
    def kind(self) -> str:
        """'zero', 'ray', 'sector', 'halfplane', 'full' or 'line', read off the width."""
        return _KINDS.get(self.width, "sector")

    @functools.cached_property
    def _rays(self) -> tuple[tuple[float, float], ...]:
        w = self.width
        if w in (ZERO_WIDTH, TWO_PI):
            return ()
        u = (math.cos(self.lo), math.sin(self.lo))
        if w == 0.0:
            return (u,)
        if w == LINE_WIDTH:
            return (u, (-u[0], -u[1]))
        if w == math.pi:
            return (u, (-u[0], -u[1]), (-u[1], u[0]))
        end = self.lo + w
        return (u, (math.cos(end), math.sin(end)))

    def extreme_rays(self) -> tuple[tuple[float, float], ...]:
        """Unit extreme directions, counter-clockwise from lo.

        A sector gives (start, end); a half plane (start, end, inward
        normal); the line (u, -u); the zero cone and the full plane none.
        """
        return self._rays

    def _excess(self, vx: float, vy: float) -> float:
        """Worst constraint excess of (vx, vy), not normalized (0 if inside)."""
        w = self.width
        rays = self._rays
        if not rays:
            return 0.0 if w == TWO_PI else math.hypot(vx, vy)
        u = rays[0]
        ccw = u[0] * vy - u[1] * vx  # >= 0 when v is CCW of the start ray
        if w == LINE_WIDTH:
            return abs(ccw)
        e = rays[1] if len(rays) > 1 else u
        cw = e[0] * vy - e[1] * vx  # <= 0 when v is CW of the end ray
        worst = max(0.0, -ccw, cw)
        if w == 0.0:
            # The opposite ray meets both side constraints too.
            worst = max(worst, -(u[0] * vx + u[1] * vy))
        return worst

    def violation(self, v) -> float:
        """Worst constraint excess of v, normalized by |v| (0 if inside)."""
        worst = self._excess(v[0], v[1])
        return worst / math.hypot(v[0], v[1]) if worst > 0.0 else 0.0

    def contains(self, v, tol: float = 1e-9) -> bool:
        """Membership, tolerant at the boundary relative to |v|."""
        return self.violation(v) <= tol

    def polar(self) -> "Cone":
        """Polar cone {w : w.v <= 0 for all v in the cone}."""
        w = self.width
        if w == TWO_PI:
            return Cone(0.0, ZERO_WIDTH)
        if w == ZERO_WIDTH:
            return Cone(0.0, TWO_PI)
        if w == LINE_WIDTH:
            return Cone(self.lo + math.pi / 2.0, LINE_WIDTH)
        return Cone(self.lo + w + math.pi / 2.0, math.pi - w)

    def intersect(self, other: "Cone") -> "Cone":
        """Intersection with another cone.

        Two half planes meeting only in their boundary give the line; a
        line itself cannot be intersected further.
        """
        if self.width == ZERO_WIDTH or other.width == TWO_PI:
            return self
        if other.width == ZERO_WIDTH or self.width == TWO_PI:
            return other
        if LINE_WIDTH in (self.width, other.width):
            raise ValueError("a line cannot be intersected further")
        d = _wrap(other.lo - self.lo)
        parts = []
        for dd in (d, d - TWO_PI):
            s, e = max(0.0, dd), min(self.width, dd + other.width)
            if e >= s - ANGLE_TOL:
                parts.append((_wrap(self.lo + s), max(0.0, e - s)))
        if not parts:
            return Cone(0.0, ZERO_WIDTH)
        if len(parts) == 1:
            return Cone(*parts[0])
        # Two parts need widths summing to 2*pi: two half planes meeting in
        # two antipodal rays, the line through them.
        return Cone(parts[0][0], LINE_WIDTH)


@lru_cache(maxsize=256)
def _arm_table(fan: Fan) -> tuple[tuple[float, int, int], ...]:
    """All 2b arm rays (angle, generator index, arm sign) sorted by angle;
    no two generators are parallel, so the angles strictly increase.

    Arm sign is the sign of the along-coordinate q*X + p*Y on that arm, so
    sign +1 is the arm in direction +(q, p).  Angles are wrapped to [0, 2*pi).
    """
    arms = []
    for i, g in enumerate(fan.generators):
        a = _wrap(math.atan2(g.p, g.q))
        arms.append((a, i, 1))
        arms.append((_wrap(a + math.pi), i, -1))
    arms.sort()
    return tuple(arms)


def _flanking_arms(pt: LogPoint, fan: Fan) -> int:
    """Index k of the sector fan_2d_cones(fan)[k] containing the point: it
    runs counter-clockwise from arm k (inclusive) of the arm table to arm
    k + 1 (mod 2b)."""
    arms = _arm_table(fan)
    phi = _wrap(math.atan2(pt.Y, pt.X))
    return (bisect.bisect_right(arms, phi, key=operator.itemgetter(0)) - 1) % len(arms)


@lru_cache(maxsize=256)
def fan_2d_cones(fan: Fan) -> tuple[Cone, ...]:
    """The 2b full-dimensional sectors from each arm ray to the next.

    A single generator gives two half planes.
    """
    arms = _arm_table(fan)
    return tuple(Cone(a, _wrap(arms[(k + 1) % len(arms)][0] - a))
                 for k, (a, _, _) in enumerate(arms))


def _ray_distance(pt: LogPoint, u: tuple[float, float]) -> float:
    """Distance from a log point to the ray {t*u : t >= 0}."""
    t = pt.X * u[0] + pt.Y * u[1]
    if t <= 0.0:
        return math.hypot(pt.X, pt.Y)
    return math.hypot(pt.X - t * u[0], pt.Y - t * u[1])


def dist_to_cone(point, cone: Cone) -> float:
    """Euclidean distance from a log point to a cone."""
    pt = as_log(point)
    if cone._excess(pt.X, pt.Y) == 0.0:
        return 0.0
    rays = cone._rays
    if not rays:  # the zero cone
        return math.hypot(pt.X, pt.Y)
    # Outside the cone the nearest point lies on an extreme ray.
    return min([_ray_distance(pt, u) for u in rays])


# Points per pass of near_sectors: bounds its (rays x points) temporaries
# on the integrator's long batches of step starts.
_NEAR_BLOCK = 1024


@lru_cache(maxsize=256)
def _sector_rays(fan: Fan) -> tuple[np.ndarray, np.ndarray]:
    """The extreme rays of all fan_2d_cones(fan), stacked as a (rays, 2)
    array, and the row of each sector's first ray.  Every call shares the
    two arrays; nothing writes to them."""
    sectors = fan_2d_cones(fan)
    rays = np.array([u for s in sectors for u in s._rays])
    first = np.cumsum([0] + [len(s._rays) for s in sectors[:-1]])
    return rays, first


def near_sectors(X: np.ndarray, Y: np.ndarray, fan: Fan, limit: float) -> np.ndarray:
    """dist_to_cone(pt, sector) <= limit for every sector of fan_2d_cones(fan)
    (rows) and every log point (X[j], Y[j]) (columns).

    The ray distances of all sectors come from one (rays x points) array,
    each sector's distance is the minimum over its rows, and a sector's
    zero excess sets it to 0.  dist_to_cone decides the (sector, point)
    pairs near the limit, where np.hypot and math.hypot can differ in the
    last place.  Points go in blocks of _NEAR_BLOCK.
    """
    rays, first = _sector_rays(fan)
    rx, ry = rays[:, :1], rays[:, 1:]
    u, e = rays[first], rays[first + 1]
    near = np.empty((len(first), len(X)), dtype=bool)
    for lo in range(0, len(X), _NEAR_BLOCK):
        x, y = X[lo:lo + _NEAR_BLOCK], Y[lo:lo + _NEAR_BLOCK]
        t = x * rx + y * ry
        dist = np.minimum.reduceat(np.where(t <= 0.0, np.hypot(x, y),
                                            np.hypot(x - t * rx, y - t * ry)), first, axis=0)
        dist[(u[:, :1] * y - u[:, 1:] * x >= 0.0) & (e[:, :1] * y - e[:, 1:] * x <= 0.0)] = 0.0
        block = near[:, lo:lo + _NEAR_BLOCK]
        block[...] = dist <= limit
        for k, j in zip(*np.nonzero(np.abs(dist - limit) <= 1e-12 * abs(limit))):
            block[k, j] = dist_to_cone(LogPoint(float(x[j]), float(y[j])),
                                       fan_2d_cones(fan)[k]) <= limit
    return near
