"""Integer-exact line generators, uncertainty strips, and planar cone primitives.

All combinatorial decisions (angular order, slope classes, pairwise
determinants) use integer arithmetic; point geometry lives in log space so
coordinates of order e^(c*delta) never have to be materialized.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import NonPositiveDelta, ParallelGenerators, ZeroGenerator

# Absolute tolerance on strip coordinates separating interior from boundary.
STRIP_TOL = 1e-9
# Angular tolerance for ray coincidence in cone arithmetic.
ANGLE_TOL = 1e-12

TWO_PI = 2.0 * math.pi


def _wrap(angle: float) -> float:
    """Wrap an angle into [0, 2*pi)."""
    a = math.fmod(angle, TWO_PI)
    return a + TWO_PI if a < 0.0 else a


def _unit(v: tuple[float, float]) -> tuple[float, float]:
    n = math.hypot(v[0], v[1])
    return (v[0] / n, v[1] / n)


def _from_angle(angle: float) -> tuple[float, float]:
    return (math.cos(angle), math.sin(angle))


@dataclass(frozen=True, order=False)
class LineGenerator:
    """The line q*Y = p*X through the origin of log space.

    Stored in canonical form: gcd(|p|, |q|) = 1 and q > 0, or q = 0 and
    p > 0.  Construction canonicalizes automatically.
    """

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
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
    """Exact comparison of line angles theta in (0, pi] using integers."""
    if a.p == 0 and b.p == 0:
        return 0
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
            raise ValueError("fan needs at least one generator")
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
    """Strip half-width delta * sqrt(p^2 + q^2) in strip coordinates."""
    if not delta > 0.0:
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


def r_count(point, fan: Fan, delta: float, tol: float = STRIP_TOL) -> int:
    """Number of uncertainty regions whose open interior contains the point.

    Interior means |strip coordinate| < delta_i - tol; points within tol of a
    boundary curve are not counted.
    """
    pt = as_log(point)
    count = 0
    for region in fan.regions(delta):
        if abs(strip_coordinate(pt, region)) < region.delta_i - tol:
            count += 1
    return count


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


@dataclass(frozen=True)
class Cone2:
    """Closed convex cone in R^2.

    kind is one of 'zero', 'ray', 'sector', 'halfplane', 'full', 'line'.
    A sector stores its two extreme rays counter-clockwise with opening in
    (0, pi); a half plane stores (u, -u) meaning the CCW sweep from u; a
    line stores (u, -u) meaning the one-dimensional subspace through u.
    """

    kind: str
    rays: tuple[tuple[float, float], ...] = ()

    @staticmethod
    def zero() -> "Cone2":
        return Cone2("zero")

    @staticmethod
    def full() -> "Cone2":
        return Cone2("full")

    @staticmethod
    def ray(u) -> "Cone2":
        return Cone2("ray", (_unit(u),))

    @staticmethod
    def sector(u1, u2) -> "Cone2":
        u1, u2 = _unit(u1), _unit(u2)
        opening = _wrap(math.atan2(u2[1], u2[0]) - math.atan2(u1[1], u1[0]))
        if opening <= ANGLE_TOL:
            return Cone2.ray(u1)
        if abs(opening - math.pi) <= ANGLE_TOL:
            return Cone2("halfplane", (u1, (-u1[0], -u1[1])))
        if opening >= math.pi:
            raise ValueError("sector opening must be at most pi")
        return Cone2("sector", (u1, u2))

    @staticmethod
    def halfplane(start) -> "Cone2":
        u = _unit(start)
        return Cone2("halfplane", (u, (-u[0], -u[1])))

    @staticmethod
    def line(u) -> "Cone2":
        u = _unit(u)
        return Cone2("line", (u, (-u[0], -u[1])))

    def angles(self) -> tuple[float, ...]:
        return tuple(_wrap(math.atan2(u[1], u[0])) for u in self.rays)

    def opening(self) -> float:
        """Opening angle; 0 for rays/zero, 2*pi for the full plane."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "full":
            return TWO_PI
        if self.kind == "ray":
            return 0.0
        if self.kind == "line":
            return math.pi  # conventional; the line is not solid
        a1, a2 = self.angles()
        return _wrap(a2 - a1) if self.kind == "sector" else math.pi

    def contains(self, v, tol: float = 1e-12) -> bool:
        """Membership test, tolerant at the boundary (relative to |v|)."""
        vx, vy = v
        nv = math.hypot(vx, vy)
        if nv == 0.0:
            return True
        band = tol * nv
        if self.kind == "full":
            return True
        if self.kind == "zero":
            return nv <= band
        if self.kind == "ray":
            u = self.rays[0]
            return abs(vx * u[1] - vy * u[0]) <= band and vx * u[0] + vy * u[1] >= -band
        if self.kind == "line":
            u = self.rays[0]
            return abs(vx * u[1] - vy * u[0]) <= band
        u1, u2 = self.rays
        # CCW of u1 and CW of u2.
        return (u1[0] * vy - u1[1] * vx) >= -band and (u2[0] * vy - u2[1] * vx) <= band


def polar(cone: Cone2) -> Cone2:
    """Polar cone {w : w.x <= 0 for all x in the cone}."""
    if cone.kind == "full":
        return Cone2.zero()
    if cone.kind == "zero":
        return Cone2.full()
    if cone.kind == "ray":
        a = cone.angles()[0]
        return Cone2.halfplane(_from_angle(a + math.pi / 2.0))
    if cone.kind == "line":
        a = cone.angles()[0]
        return Cone2.line(_from_angle(a + math.pi / 2.0))
    if cone.kind == "halfplane":
        a = cone.angles()[0]
        return Cone2.ray(_from_angle(a - math.pi / 2.0))
    a1, a2 = cone.angles()
    return Cone2.sector(_from_angle(a2 + math.pi / 2.0), _from_angle(a1 + 3.0 * math.pi / 2.0))


@lru_cache(maxsize=256)
def _arm_table(fan: Fan) -> tuple[tuple[float, int, int], ...]:
    """All 2b arm rays (angle, generator index, arm sign) sorted by angle.

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


def _flanking_arms(pt: LogPoint, fan: Fan) -> tuple[tuple[float, int, int], tuple[float, int, int]]:
    """The two consecutive arm rays of the sector containing the point.

    The sector runs counter-clockwise from the first arm (inclusive) to the
    second; entries are rows of the arm table.
    """
    arms = _arm_table(fan)
    phi = _wrap(math.atan2(pt.Y, pt.X))
    k = len(arms) - 1
    for i, (a, _, _) in enumerate(arms):
        if phi >= a:
            k = i
        else:
            break
    return arms[k], arms[(k + 1) % len(arms)]


@lru_cache(maxsize=256)
def fan_2d_cones(fan: Fan) -> tuple[Cone2, ...]:
    """The 2b full-dimensional sectors delimited by consecutive arm rays."""
    arms = _arm_table(fan)
    sectors = []
    for k, (a, _, _) in enumerate(arms):
        nxt = arms[(k + 1) % len(arms)][0]
        if len(arms) == 2:
            # Single generator: two half-plane sectors.
            sectors.append(Cone2.halfplane(_from_angle(a)))
        else:
            sectors.append(Cone2.sector(_from_angle(a), _from_angle(nxt)))
    return tuple(sectors)


def _ray_distance(pt: LogPoint, u: tuple[float, float]) -> float:
    """Distance from a log point to the ray {t*u : t >= 0}."""
    t = pt.X * u[0] + pt.Y * u[1]
    if t <= 0.0:
        return math.hypot(pt.X, pt.Y)
    return math.hypot(pt.X - t * u[0], pt.Y - t * u[1])


def dist_to_cone(point, cone: Cone2) -> float:
    """Euclidean distance from a log point to a full-dimensional sector."""
    pt = as_log(point)
    if cone.kind == "full":
        return 0.0
    if cone.kind == "zero":
        return math.hypot(pt.X, pt.Y)
    if cone.kind in ("ray", "line"):
        d = min(_ray_distance(pt, u) for u in cone.rays)
        return d
    if cone.contains((pt.X, pt.Y), tol=0.0):
        return 0.0
    return min(_ray_distance(pt, u) for u in cone.rays)
