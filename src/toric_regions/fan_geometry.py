"""Integer-exact line generators, uncertainty strips, and the planar cone type.

All combinatorial decisions (angular order, slope classes, pairwise
determinants) use integer arithmetic; point geometry lives in log space so
coordinates of order e^(c*delta) never have to be materialized.
"""

import bisect
import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

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
        # sqrt(p^2 + q^2), the scale factor relating delta to strip width;
        # an attribute, not a field, so equality and hash see only (p, q).
        object.__setattr__(self, "norm", math.sqrt(p * p + q * q))

    @property
    def is_horizontal(self) -> bool:
        """Line Y = 0 (zero slope)."""
        return self.p == 0

    @property
    def is_axis(self) -> bool:
        return self.p == 0 or self.q == 0

    def attracting_slope(self) -> Fraction | None:
        """Slope -q/p of the attracting directions; None means vertical."""
        if self.p == 0:
            return None
        return Fraction(-self.q, self.p)

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


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
        # Fans key the per-fan caches (_fan_table, _fan_plan), and a lookup
        # with a fresh equal fan compares them too: the hash and the (p, q)
        # pairs, kept here, spare each lookup a pass of LineGenerator calls.
        object.__setattr__(self, "_hash", hash(self.generators))
        object.__setattr__(self, "_pq", tuple((g.p, g.q) for g in gens))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        """Same generators: the same object, or the same (p, q) pairs."""
        if self is other:
            return True
        if not isinstance(other, Fan):
            return NotImplemented
        return self._pq == other._pq

    @property
    def b(self) -> int:
        return len(self.generators)

    def regions(self, delta: float) -> tuple[tuple[int, float, float, float, int, int], ...]:
        """The strip table at delta, built on each call from the fan's
        _fan_table record: per generator i, in fan order, the row (i, q, p,
        delta_i, plus, minus) of the strip |q*Y - p*X| <= delta_i, with float
        q and p, and plus and minus the codes of the near sets of the r = 1
        values on its arms of sign +1 and -1 (the arm's sector and the one
        before it).  Rows are exact tuples, which the classifier's loops
        unpack fastest.  delta_i forms every half-width first, so a bad delta
        raises NonPositiveDelta and builds no record."""
        half_widths = [delta_i(g, delta) for g in self.generators]
        return tuple([(i, q, p, half_widths[i], plus, minus)
                      for i, q, p, plus, minus in _fan_table(self).strips])

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


def delta_i(gen: LineGenerator, delta: float) -> float:
    """Strip half-width delta * sqrt(p^2 + q^2), for a delta strictly positive and finite."""
    if not 0.0 < delta < math.inf:
        raise NonPositiveDelta(f"delta = {delta}")
    return delta * gen.norm


def along_coordinate(point, gen: LineGenerator) -> float:
    """Coordinate q*X + p*Y along the generator line (sign picks the arm)."""
    pt = as_log(point)
    return gen.q * pt.X + gen.p * pt.Y


def _in_strip(row: tuple, X: float, Y: float) -> bool:
    """Does the log point (X, Y) lie in the open interior of the strip of
    row, a row (i, q, p, delta_i, plus, minus) of Fan.regions:
    |q*Y - p*X| < delta_i - STRIP_TOL?  Points within STRIP_TOL of a
    boundary curve do not."""
    return abs(row[1] * Y - row[2] * X) < row[3] - STRIP_TOL


def r_count(point, fan: Fan, delta: float) -> int:
    """Number of strips of fan.regions(delta) whose open interior contains
    the point (_in_strip).  NonFinitePoint unless the point is finite."""
    pt = _finite_log(point, "point")
    return sum(_in_strip(row, pt.X, pt.Y) for row in fan.regions(delta))


# ---------------------------------------------------------------------------
# Cones

# Marker width of the one cone that is not an angular interval.
LINE_WIDTH = -2.0  # the line through direction lo; only one-generator fans give it


def _unit_rays(lo: float, w: float) -> tuple[tuple[float, float], ...]:
    """Cone.extreme_rays of the cone of start angle lo and width w."""
    if w == TWO_PI:
        return ()
    u = (math.cos(lo), math.sin(lo))
    if w == 0.0:
        return (u,)
    if w == LINE_WIDTH:
        return (u, (-u[0], -u[1]))
    if w == math.pi:
        return (u, (-u[0], -u[1]), (-u[1], u[0]))
    end = lo + w
    return (u, (math.cos(end), math.sin(end)))


@dataclass(frozen=True, slots=True)
class Cone:
    """Closed convex cone in R^2: the directions of the counter-clockwise
    angular interval [lo, lo + width].

    width 0 is a ray, (0, pi) a sector, pi a half plane and 2*pi the full
    plane.  The line through direction lo is not an interval and carries
    LINE_WIDTH instead.  Construction wraps lo into [0, 2*pi) (0 for the
    full plane) and snaps widths within ANGLE_TOL of 0 or pi onto them.

    _row holds the constraints as (u0, u1, e0, e1, b0, b1), three rays u,
    e and b: the excess of v is max(0, -(u x v), e x v, -(b . v)).  u and
    e are the start and end rays; a line takes e = u, so that the cross
    products give |u x v|, and a ray takes e = u and b = u, for its
    opposite direction.  Rays a cone does not read are zero: their terms
    are 0 or NaN, and max passes over both.  _excess and
    dynamics._violations read it.
    """

    lo: float
    width: float
    # extreme_rays and _row, formed on construction; slots, as the fan records hold many cones
    _rays: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)
    _row: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = self.width
        if abs(w) <= ANGLE_TOL:
            w = 0.0
        elif abs(w - math.pi) <= ANGLE_TOL:
            w = math.pi
        elif not (0.0 < w < math.pi or w in (LINE_WIDTH, TWO_PI)):
            raise ValueError(f"cone width {w} is not in [0, pi], 2*pi or LINE_WIDTH")
        lo = 0.0 if w == TWO_PI else _wrap(self.lo)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "width", w)
        rays = _unit_rays(lo, w)
        object.__setattr__(self, "_rays", rays)
        u = rays[0] if rays else (0.0, 0.0)
        e = u if w in (0.0, LINE_WIDTH) or not rays else rays[1]
        b = u if w == 0.0 else (0.0, 0.0)
        object.__setattr__(self, "_row", (*u, *e, *b))

    def extreme_rays(self) -> tuple[tuple[float, float], ...]:
        """Unit extreme directions, counter-clockwise from lo.

        A sector gives (start, end); a half plane (start, end, inward
        normal); the line (u, -u); the full plane none.
        """
        return self._rays

    def _excess(self, vx: float, vy: float) -> float:
        """Worst constraint excess of (vx, vy) by _row, not normalized (0 if inside)."""
        u0, u1, e0, e1, b0, b1 = self._row
        return max(0.0, -(u0 * vy - u1 * vx), e0 * vy - e1 * vx, -(b0 * vx + b1 * vy))

    def violation(self, v) -> float:
        """Worst constraint excess of v, normalized by |v| (0 if inside)."""
        worst = self._excess(v[0], v[1])
        return worst / math.hypot(v[0], v[1]) if worst > 0.0 else 0.0


# The value wherever the near sectors share no ray; Cone is frozen, so every caller shares it.
_FULL_PLANE = Cone(0.0, TWO_PI)


class _NearValues(dict):
    """The inclusion's value by near-set bit code, built on its first read:
    the polar of the intersection of the sectors whose bits the code sets.
    Sectors meet only in the arm two adjacent ones share, so it is the one
    sector's polar, the half plane normal to the shared arm (the line, for
    a one-generator fan's two half planes) or the full plane."""

    __slots__ = ("sectors",)

    def __init__(self, sectors: tuple[Cone, ...]):
        self.sectors = sectors

    def __missing__(self, near: int) -> Cone:
        sectors = self.sectors
        low = near & -near  # the bit of the first near sector, s
        s = sectors[low.bit_length() - 1]
        if near == low:
            value = Cone(s.lo + s.width + math.pi / 2.0, math.pi - s.width)
        elif len(sectors) == 2:
            a, b = sectors
            value = Cone(_wrap(a.lo + _wrap(b.lo - a.lo)) + math.pi / 2.0, LINE_WIDTH)
        elif near == 1 | 1 << len(sectors) - 1:  # the wrap pair shares sector 0's start arm
            value = Cone(s.lo + math.pi / 2.0, math.pi)
        elif near == 3 * low:
            value = Cone(_wrap(s.lo + s.width) + math.pi / 2.0, math.pi)
        else:
            value = _FULL_PLANE
        self[near] = value
        return value


class _FanTable(NamedTuple):
    """Everything the construction and the inclusion read off a fan at no
    delta.  An arm's sign is that of q*X + p*Y on it, so sign +1 is the arm
    +(q, p); no two generators are parallel, so its angles strictly increase."""

    arms: tuple  # the 2b arms (angle in [0, 2*pi), generator index, sign), by angle
    sectors: tuple  # the 2b sectors, k from arm k to arm k + 1: two half planes for b = 1
    rays: tuple  # the sectors' unit start rays, sector 0's again last: two read-only columns
    strips: tuple  # the delta-free columns (i, q, p, plus, minus) of the rows of Fan.regions
    uc: tuple  # the columns cx, cy of S^uc's unit-delta exponents, in _uc_pairs order
    values: _NearValues  # the inclusion's value by near-set code, for the record's lifetime


def _uc_pairs(b: int) -> list[tuple[int, int, int, int]]:
    """S^uc's provenance order (i, j, si, sj), i < j, for b generators."""
    return [(i, j, si, sj) for i in range(b) for j in range(i + 1, b)
            for si in (1, -1) for sj in (1, -1)]


def _meet_exponents(gi: LineGenerator, si: int, gj: LineGenerator, sj: int) -> tuple[float, float]:
    """Unit-delta exponents (cx, cy) of the point where the curve
    q*Y - p*X = si*delta_i of gi meets the curve of gj on side sj.

    Swapping the curves negates both numerators and the determinant, which
    can flip the sign of a zero exponent; callers pass the lower index first.
    """
    det = gi.p * gj.q - gj.p * gi.q
    wi, wj = gi.norm, gj.norm
    return ((gi.q * wj * sj - gj.q * wi * si) / det, (gi.p * wj * sj - gj.p * wi * si) / det)


@lru_cache(maxsize=256)
def _fan_table(fan: Fan) -> _FanTable:
    """The fan's _FanTable record, the one cache of this module."""
    gens = fan.generators
    angles = [_wrap(math.atan2(g.p, g.q)) for g in gens]
    arms = sorted([(a, i, 1) for i, a in enumerate(angles)]
                  + [(_wrap(a + math.pi), i, -1) for i, a in enumerate(angles)])
    n = len(arms)
    sectors = tuple(Cone(a, _wrap(arms[(k + 1) % n][0] - a)) for k, (a, _, _) in enumerate(arms))
    rays = np.array([s._rays[0] for s in sectors + sectors[:1]])
    rays.setflags(write=False)
    codes = {(i, sign): (1 << k) | (1 << (k - 1) % n) for k, (_, i, sign) in enumerate(arms)}
    strips = tuple((i, float(g.q), float(g.p), codes[i, 1], codes[i, -1])
                   for i, g in enumerate(gens))
    uc = [_meet_exponents(gens[i], si, gens[j], sj) for i, j, si, sj in _uc_pairs(len(gens))]
    return _FanTable(tuple(arms), sectors, (rays[:, :1], rays[:, 1:]), strips,
                     (tuple(cx for cx, _ in uc), tuple(cy for _, cy in uc)), _NearValues(sectors))


def _flanking_arms(X: float, Y: float, arms: tuple[tuple[float, int, int], ...]) -> int:
    """Index k of the sector containing the log point (X, Y), given the
    arms of the fan's record: from arm k (inclusive) to arm k + 1 (mod 2b)."""
    phi = _wrap(math.atan2(Y, X))
    return (bisect.bisect_right(arms, phi, key=operator.itemgetter(0)) - 1) % len(arms)


def _ray_distance(pt: LogPoint, u: tuple[float, float]) -> float:
    """Distance from a log point to the ray {t*u : t >= 0}."""
    t = pt.X * u[0] + pt.Y * u[1]
    if t <= 0.0:
        return math.hypot(pt.X, pt.Y)
    return math.hypot(pt.X - t * u[0], pt.Y - t * u[1])


def dist_to_cone(point, cone: Cone) -> float:
    """Euclidean distance from a log point to a cone: 0 inside, else to the
    nearest extreme ray (the full plane, which has none, holds every point)."""
    pt = as_log(point)
    if cone._excess(pt.X, pt.Y) == 0.0:
        return 0.0
    return min([_ray_distance(pt, u) for u in cone._rays])


# Points per pass of near_sectors: bounds its (arms x points) temporaries
# on the integrator's long batches of step starts.
_NEAR_BLOCK = 1024


def near_sectors(X: np.ndarray, Y: np.ndarray, fan: Fan, limit: float) -> np.ndarray:
    """dist_to_cone(pt, sector) <= limit for every sector of the fan's
    _fan_table record (rows) and every log point (X[j], Y[j]) (columns).

    Sector k runs from arm k to arm k + 1.  Per (arm, point) one cross
    product c = arm x p and one dot product d = arm . p give the ray
    distance: |c| where d > 0, else |p|.  A sector's distance is the
    smaller of its two arms', and 0 where c_k >= 0 and c_k+1 <= 0, which
    also bounds a one-generator fan's half planes.  Rounding moves both
    |c| and an arm (from the sector's end ray) by ulps of |p|, so
    dist_to_cone decides the pairs within 1e-12 * limit + 1e-14 * |p| of
    the limit, found by one 2-D nonzero only in a block that has such a
    tie.  Points go in blocks of _NEAR_BLOCK.
    """
    table = _fan_table(fan)
    ax, ay = table.rays
    near = np.empty((len(ax) - 1, len(X)), dtype=bool)
    for lo in range(0, len(X), _NEAR_BLOCK):
        x, y = X[lo:lo + _NEAR_BLOCK], Y[lo:lo + _NEAR_BLOCK]
        c, r = ax * y - ay * x, np.hypot(x, y)
        ray = np.where(ax * x + ay * y > 0.0, np.abs(c), r)
        dist = np.minimum(ray[:-1], ray[1:])
        dist[(c[:-1] >= 0.0) & (c[1:] <= 0.0)] = 0.0
        block = near[:, lo:lo + _NEAR_BLOCK]
        block[...] = dist <= limit
        tie = np.abs(dist - limit) <= 1e-12 * abs(limit) + 1e-14 * r
        if tie.any():
            for k, j in zip(*tie.nonzero()):
                block[k, j] = dist_to_cone(LogPoint(float(x[j]), float(y[j])),
                                           table.sectors[k]) <= limit
    return near
