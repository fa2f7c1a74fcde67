"""Integer-exact line generators, uncertainty strips, and the planar cone type.

All combinatorial decisions (angular order, slope classes, pairwise
determinants) use integer arithmetic; point geometry lives in log space so
coordinates of order e^(c*delta) never have to be materialized.  A cone is
held as its integer extreme rays, from the fan's arms +-(q, p) and their
perpendiculars, and its kind (sector, half plane, line, ray or full plane)
follows from them; no angle is stored.  A point's sector is found by the
signs of cross products of the integer arms with the point, and the
sectors near it from the same products (near_sectors).
"""

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


@dataclass(frozen=True, slots=True)
class Cone:
    """Closed convex cone in R^2, held as its extreme rays: integer pairs,
    gcd-reduced on construction, counter-clockwise.

    The rays give the kind: a sector (start, end) with start x end > 0, a
    half plane (start, -start, inward normal), the line (a, -a), a ray
    (a,) and the full plane ().  Every fan sector and every value of the
    inclusion is spanned by the fan's arms +-(q, p) and their
    perpendiculars, so it is one of these; any other rays raise ValueError.

    _units holds the unit rays, extreme_rays(), and _row the constraints as
    (u0, u1, e0, e1, b0, b1), three unit rays u, e and b: the excess of v is
    max(0, -(u x v), e x v, -(b . v)).  u and e are the first two rays; a
    line takes e = u, so that the cross products give |u x v|, and a ray
    takes e = u and b = u, for its opposite direction.  Rays a cone does not
    read are zero: their terms are 0 or NaN, and max passes over both.
    _excess and dynamics._violations read it.
    """

    rays: tuple[tuple[int, int], ...]
    # extreme_rays and _row, formed on construction; slots, as the fan records hold many cones
    _units: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)
    _row: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rays = []
        for ray in self.rays:
            try:
                x, y = map(operator.index, ray)
            except (TypeError, ValueError):
                raise ValueError(f"cone ray {ray!r} is not a pair of integers") from None
            g = math.gcd(x, y)
            if g == 0:
                raise ValueError("cone ray (0, 0) has no direction")
            rays.append((x // g, y // g))
        n = len(rays)
        x, y = rays[0] if rays else (0, 0)
        line = n == 2 and rays[1] == (-x, -y)
        if not (n < 2 or line or n == 2 and x * rays[1][1] - y * rays[1][0] > 0
                or n == 3 and rays[1:] == [(-x, -y), (-y, x)]):
            raise ValueError(f"cone rays {self.rays!r} are no sector, half plane, line or ray")
        units = tuple((rx / h, ry / h) for rx, ry in rays for h in (math.hypot(rx, ry),))
        object.__setattr__(self, "rays", tuple(rays))
        object.__setattr__(self, "_units", units)
        u = units[0] if units else (0.0, 0.0)
        e = units[1] if n == 3 or n == 2 and not line else u
        b = u if n == 1 else (0.0, 0.0)
        object.__setattr__(self, "_row", (*u, *e, *b))

    def extreme_rays(self) -> tuple[tuple[float, float], ...]:
        """The rays as unit float directions, in their order."""
        return self._units

    def _excess(self, vx: float, vy: float) -> float:
        """Worst constraint excess of (vx, vy) by _row, not normalized (0 if inside)."""
        u0, u1, e0, e1, b0, b1 = self._row
        return max(0.0, -(u0 * vy - u1 * vx), e0 * vy - e1 * vx, -(b0 * vx + b1 * vy))

    def violation(self, v) -> float:
        """Worst constraint excess of v, normalized by |v| (0 if inside)."""
        worst = self._excess(v[0], v[1])
        return worst / math.hypot(v[0], v[1]) if worst > 0.0 else 0.0


# The value wherever the near sectors share no ray; Cone is frozen, so every caller shares it.
_FULL_PLANE = Cone(())


class _NearValues(dict):
    """The inclusion's value by near-set bit code, built on its first read:
    the polar of the intersection of the sectors whose bits the code sets.
    Sectors meet only in the arm two adjacent ones share, so it is the one
    sector's polar, the half plane normal to the shared arm (the line, for
    a one-generator fan's two half planes) or the full plane.  Each is
    spanned by perpendiculars of the sectors' integer arms: the polar of
    the sector from arm a to arm b runs from rot+90(b) to rot-90(a)."""

    __slots__ = ("sectors",)

    def __init__(self, sectors: tuple[Cone, ...]):
        self.sectors = sectors

    def __missing__(self, near: int) -> Cone:
        sectors = self.sectors
        n = len(sectors)
        low = near & -near  # the bit of the first near sector, from arm a to arm b
        (ax, ay), (bx, by) = sectors[low.bit_length() - 1].rays[:2]
        if near == low:  # a half plane's polar is the ray rot+90(b) = rot-90(a)
            value = Cone(((-by, bx),) if n == 2 else ((-by, bx), (ay, -ax)))
        elif n == 2:  # both half planes of a one-generator fan: the line normal to its arms
            value = Cone(((-by, bx), (by, -bx)))
        elif near == 3 * low or near == 1 | 1 << n - 1:
            # Two adjacent sectors share the arm b; the wrap pair, sector 0's arm a.
            cx, cy = (bx, by) if near == 3 * low else (ax, ay)
            value = Cone(((-cy, cx), (cy, -cx), (-cx, -cy)))
        else:
            value = _FULL_PLANE
        self[near] = value
        return value


class _FanTable(NamedTuple):
    """Everything the construction and the inclusion read off a fan at no
    delta.  An arm's sign is that of q*X + p*Y on it, so sign +1 is the arm
    +(q, p); no two generators are parallel, so the arms' angles strictly
    increase.  The near-set rule reads the arms: as integers in
    tdi_rhs._near_set, as the equal float columns in near_sectors."""

    arms: tuple  # the 2b arms ((x, y) = sign * (q, p), generator index, sign), ccw from angle 0
    sectors: tuple  # the 2b sectors, k from arm k to arm k + 1: two half planes for b = 1
    columns: tuple  # the arms' x, y and |(q, p)|, arm 0 again last: three read-only columns
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
    """The fan's _FanTable record, the one cache of this module.  The fan
    order is _angular_cmp's, over (0, pi]: each generator's arm in that half
    circle, then their opposites, run counter-clockwise, and the horizontal
    line's arm (1, 0), last of all, is the one at angle 0."""
    gens = fan.generators
    upper = [(i, 1 if g.p > 0 else -1) for i, g in enumerate(gens)]  # each line's arm in (0, pi]
    arms = [((s * gens[i].q, s * gens[i].p), i, s) for i, s in upper + [(i, -s) for i, s in upper]]
    if gens[-1].p == 0:
        arms.insert(0, arms.pop())
    n = len(arms)
    sectors = tuple(Cone((a, arms[(k + 1) % n][0]) if n > 2
                         else (a, (-a[0], -a[1]), (-a[1], a[0])))  # the half planes
                    for k, (a, _, _) in enumerate(arms))
    columns = np.array([(x, y, gens[i].norm) for (x, y), i, _ in arms + arms[:1]])
    columns.setflags(write=False)
    codes = {(i, sign): (1 << k) | (1 << (k - 1) % n) for k, (_, i, sign) in enumerate(arms)}
    strips = tuple((i, float(g.q), float(g.p), codes[i, 1], codes[i, -1])
                   for i, g in enumerate(gens))
    uc = [_meet_exponents(gens[i], si, gens[j], sj) for i, j, si, sj in _uc_pairs(len(gens))]
    return _FanTable(tuple(arms), sectors, (columns[:, :1], columns[:, 1:2], columns[:, 2:]),
                     strips, (tuple(cx for cx, _ in uc), tuple(cy for _, cy in uc)),
                     _NearValues(sectors))


def _flanking_arms(X: float, Y: float, arms: tuple) -> int:
    """Index k of the sector containing the log point (X, Y), given the
    arms of the fan's record: from arm k (inclusive) to arm k + 1 (mod 2b).
    As _angular_cmp compares lines, it compares half circles first: the
    first b arms lie in [0, pi) and the last b in [pi, 2*pi).  Within the
    point's half an arm is at or before it where arm x (X, Y) >= 0."""
    b = len(arms) // 2
    lower = Y < 0.0 or (Y == 0.0 and X < 0.0)
    k = b * lower + sum(x * Y - y * X >= 0.0 for (x, y), _, _ in (arms[b:] if lower else arms[:b]))
    return (k - 1) % len(arms)


# Points per pass of near_sectors: bounds its (arms x points) temporaries
# on the integrator's long batches of step starts.
_NEAR_BLOCK = 1024


def near_sectors(X: np.ndarray, Y: np.ndarray, fan: Fan, limit: float) -> np.ndarray:
    """Is sector k of the fan's _fan_table record (rows) within limit >= 0
    of the log point (X[j], Y[j]) (columns)?  tdi_rhs._near_set applies
    this rule to one point, in the same IEEE operations, bit for bit.

    Distance is homogeneous, so each point and the limit are first scaled
    by the power of two that brings max(|X|, |Y|, limit) into [0.5, 1):
    exact in the normal range, and no product below can overflow.  Then
    per (arm, point), for the arm (x, y) = +-(q, p) and c = x*Y - y*X: the
    point lies in sector k, from arm k to arm k + 1, where c_k >= 0 >=
    c_k+1 (a one-generator fan's half planes too); an arm is within the
    limit L where x*X + y*Y > 0 and |c| <= L*|(q, p)|, or where X^2 + Y^2
    <= L^2; and a sector is near where it holds the point or either of its
    arms is within L.  The arms come in +- pairs and c(-a) = -c(a)
    exactly, so some sector holds every finite point.  Points go in
    blocks of _NEAR_BLOCK.
    """
    ax, ay, norm = _fan_table(fan).columns
    near = np.empty((len(ax) - 1, len(X)), dtype=bool)
    for lo in range(0, len(X), _NEAR_BLOCK):
        x, y = X[lo:lo + _NEAR_BLOCK], Y[lo:lo + _NEAR_BLOCK]
        e = -np.frexp(np.maximum(np.maximum(np.abs(x), np.abs(y)), limit))[1]
        x, y, L = np.ldexp(x, e), np.ldexp(y, e), np.ldexp(limit, e)
        c = ax * y - ay * x
        arm = (ax * x + ay * y > 0.0) & (np.abs(c) <= L * norm) | (x * x + y * y <= L * L)
        near[:, lo:lo + _NEAR_BLOCK] = arm[:-1] | arm[1:] | (c[:-1] >= 0.0) & (c[1:] <= 0.0)
    return near
