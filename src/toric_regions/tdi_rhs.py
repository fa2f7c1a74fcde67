"""Right-hand side of the toric differential inclusion.

Two evaluation paths are provided: the definitional brute force (polar of
the intersection of all full-dimensional fan sectors within distance delta
of the log point) and the fast classification by the strip-interior count
r(x).  The brute force is the ground truth; the classification must agree
with it away from strip boundaries.
"""

import math
from dataclasses import dataclass

from .errors import AmbiguousClassification, NotASubfan
from .fan_geometry import (
    ANGLE_TOL,
    STRIP_TOL,
    TWO_PI,
    Cone2,
    Fan,
    _arm_table,
    _flanking_arms,
    _from_angle,
    _wrap,
    as_log,
    dist_to_cone,
    fan_2d_cones,
    strip_coordinate,
)

FULL_PLANE = "full_plane"
HALF_PLANE = "half_plane"
PROPER_CONE = "proper_cone"
LINE = "line"


@dataclass(frozen=True)
class ConeRHS:
    """Value of the inclusion right-hand side at one point.

    half_plane stores the outward unit normal n of the allowed set
    {v : v.n <= 0}; proper_cone stores a Cone2 with one or two extreme
    rays; line arises only for single-generator fans.
    """

    kind: str
    normal: tuple[float, float] | None = None
    cone: Cone2 | None = None
    direction: tuple[float, float] | None = None

    @staticmethod
    def full_plane() -> "ConeRHS":
        return ConeRHS(FULL_PLANE)

    @staticmethod
    def half_plane(normal) -> "ConeRHS":
        n = math.hypot(*normal)
        return ConeRHS(HALF_PLANE, normal=(normal[0] / n, normal[1] / n))

    @staticmethod
    def proper_cone(cone: Cone2) -> "ConeRHS":
        return ConeRHS(PROPER_CONE, cone=cone)

    @staticmethod
    def line(direction) -> "ConeRHS":
        n = math.hypot(*direction)
        return ConeRHS(LINE, direction=(direction[0] / n, direction[1] / n))

    @property
    def tag(self) -> str:
        return {FULL_PLANE: "FullPlane", HALF_PLANE: "HalfPlane",
                PROPER_CONE: "ProperCone", LINE: "Line"}[self.kind]

    def contains(self, v, tol: float = 1e-9) -> bool:
        """Cone membership, tolerance relative to |v|."""
        vx, vy = v
        nv = math.hypot(vx, vy)
        if nv == 0.0:
            return True
        if self.kind == FULL_PLANE:
            return True
        if self.kind == HALF_PLANE:
            return vx * self.normal[0] + vy * self.normal[1] <= tol * nv
        if self.kind == LINE:
            return abs(vx * self.direction[1] - vy * self.direction[0]) <= tol * nv
        return self.cone.contains(v, tol)

    def violation(self, v) -> float:
        """Worst constraint excess of v, normalized by |v| (0 if inside)."""
        vx, vy = v
        nv = math.hypot(vx, vy)
        if nv == 0.0 or self.kind == FULL_PLANE:
            return 0.0
        if self.kind == HALF_PLANE:
            return max(0.0, (vx * self.normal[0] + vy * self.normal[1]) / nv)
        if self.kind == LINE:
            return abs(vx * self.direction[1] - vy * self.direction[0]) / nv
        u = self.cone.rays
        if self.cone.kind == "ray":
            u0 = u[0]
            cross = abs(vx * u0[1] - vy * u0[0])
            neg = max(0.0, -(vx * u0[0] + vy * u0[1]))
            return max(cross, neg) / nv
        u1, u2 = u
        a = -(u1[0] * vy - u1[1] * vx)  # violation of "CCW of u1"
        b = u2[0] * vy - u2[1] * vx     # violation of "CW of u2"
        return max(0.0, a / nv, b / nv)

    def extreme_rays(self) -> tuple[tuple[float, float], ...]:
        """Representative extreme directions (empty for the full plane)."""
        if self.kind == FULL_PLANE:
            return ()
        if self.kind == HALF_PLANE:
            nx, ny = self.normal
            return ((-ny, nx), (ny, -nx), (-nx, -ny))
        if self.kind == LINE:
            dx, dy = self.direction
            return ((dx, dy), (-dx, -dy))
        return self.cone.rays


def _intersect_arcs(arcs: list[tuple[float, float]]):
    """Intersect circular arcs (lo, width), each of width <= pi.

    Returns ('zero',), ('arc', lo, width) or ('line', angle); the line case
    only arises for the two antipodal half-plane sectors of a one-line fan.
    """
    lo1, w1 = arcs[0]
    state = ("arc", lo1, w1)
    for lo2, w2 in arcs[1:]:
        if state[0] == "zero":
            return state
        if state[0] == "line":
            # Only reachable for b = 1 fans, which have two sectors total.
            raise AssertionError("line intersection cannot be refined")
        _, lo1, w1 = state
        d = _wrap(lo2 - lo1)
        cands = []
        for dd in (d, d - TWO_PI):
            s, e = max(0.0, dd), min(w1, dd + w2)
            if e >= s - ANGLE_TOL:
                cands.append((_wrap(lo1 + s), max(0.0, e - s)))
        if not cands:
            state = ("zero",)
        elif len(cands) == 1:
            state = ("arc", cands[0][0], cands[0][1])
        else:
            a1, a2 = cands[0][0], cands[1][0]
            if abs(_wrap(a1 - a2)) <= ANGLE_TOL or abs(_wrap(a2 - a1)) <= ANGLE_TOL:
                state = ("arc", a1, max(cands[0][1], cands[1][1]))
            else:
                # Two antipodal degenerate rays: the shared line.
                state = ("line", a1)
    return state


def _polar_of_arc(state) -> ConeRHS:
    """Polar of an intersected sector bundle, mapped onto ConeRHS."""
    if state[0] == "zero":
        return ConeRHS.full_plane()
    if state[0] == "line":
        return ConeRHS.line(_from_angle(state[1] + math.pi / 2.0))
    _, lo, w = state
    if w <= ANGLE_TOL:
        # Polar of a single ray is a half plane with that outward normal.
        return ConeRHS.half_plane(_from_angle(lo))
    if w >= math.pi - ANGLE_TOL:
        return ConeRHS.proper_cone(Cone2.ray(_from_angle(lo - math.pi / 2.0)))
    return ConeRHS.proper_cone(
        Cone2.sector(_from_angle(lo + w + math.pi / 2.0), _from_angle(lo + 3.0 * math.pi / 2.0))
    )


def rhs_bruteforce(point, fan: Fan, delta: float, tol: float = STRIP_TOL) -> ConeRHS:
    """Polar of the intersection of all 2D sectors within delta of log(point).

    Sectors are collected with dist <= delta - tol so that points exactly on
    a strip boundary deterministically take the open-side (gap) value; pass
    a negative tol for the inclusive reading (the larger cone), which is the
    right side for velocity validation.
    """
    pt = as_log(point)
    sectors = fan_2d_cones(fan)
    arms = _arm_table(fan)
    collected = []
    for k, sector in enumerate(sectors):
        if dist_to_cone(pt, sector) <= delta - tol:
            if sector.kind == "halfplane":
                collected.append((arms[k][0], math.pi))
            else:
                a1, a2 = sector.angles()
                collected.append((a1, _wrap(a2 - a1)))
    # Completeness of the fan guarantees the containing sector is collected.
    return _polar_of_arc(_intersect_arcs(collected))


def _near_arm(pt, gen) -> tuple[float, float]:
    """Unit direction of the generator arm on the point's side of the origin."""
    along = gen.q * pt.X + gen.p * pt.Y
    s = 1.0 if along >= 0.0 else -1.0
    n = gen.norm
    return (s * gen.q / n, s * gen.p / n)


def rhs_classified(point, fan: Fan, delta: float, tol: float = STRIP_TOL) -> ConeRHS:
    """Fast three-case evaluation by the strip-interior count r(x).

    r >= 2 gives the full plane; r = 1 a half plane whose boundary slope is
    the active strip's attracting slope; r = 0 the proper cone spanned by
    the two flanking strips' half planes.  Raises AmbiguousClassification
    within tol of any strip boundary.
    """
    pt = as_log(point)
    regions = fan.regions(delta)
    active = None
    r = 0
    for region in regions:
        s = strip_coordinate(pt, region)
        if abs(abs(s) - region.delta_i) <= tol:
            raise AmbiguousClassification(
                f"point within {tol} of boundary of strip {region.index}"
            )
        if abs(s) < region.delta_i:
            r += 1
            active = region
    if r >= 2:
        return ConeRHS.full_plane()
    if r == 1:
        return ConeRHS.half_plane(_near_arm(pt, active.gen))
    # r = 0: the containing sector's polar, computed exactly like the brute
    # force so ray directions agree bit for bit.
    (lo, _, _), (hi, _, _) = _flanking_arms(pt, fan)
    return _polar_of_arc(("arc", lo, _wrap(hi - lo) if fan.b > 1 else math.pi))


def rhs_equal(a: ConeRHS, b: ConeRHS, tol: float = 1e-9) -> bool:
    """Same tag and matching rays/normals within tol (componentwise)."""
    if a.kind != b.kind:
        return False
    if a.kind == FULL_PLANE:
        return True
    if a.kind == HALF_PLANE:
        return max(abs(a.normal[0] - b.normal[0]), abs(a.normal[1] - b.normal[1])) <= tol
    if a.kind == LINE:
        same = max(abs(a.direction[0] - b.direction[0]), abs(a.direction[1] - b.direction[1]))
        flip = max(abs(a.direction[0] + b.direction[0]), abs(a.direction[1] + b.direction[1]))
        return min(same, flip) <= tol
    ra, rb = a.cone.rays, b.cone.rays
    if len(ra) != len(rb):
        return False
    return all(
        max(abs(ua[0] - ub[0]), abs(ua[1] - ub[1])) <= tol for ua, ub in zip(ra, rb)
    )


def rhs_subfan_subset(point, fan: Fan, subfan: Fan, delta: float,
                      tol: float = 1e-9) -> bool:
    """True iff the subfan's right-hand side is contained in the fan's."""
    fan_keys = {(g.p, g.q) for g in fan.generators}
    for g in subfan.generators:
        if (g.p, g.q) not in fan_keys:
            raise NotASubfan(f"generator {g} not in fan {fan}")
    inner = rhs_bruteforce(point, subfan, delta)
    outer = rhs_bruteforce(point, fan, delta)
    if inner.kind == FULL_PLANE:
        return outer.kind == FULL_PLANE
    if outer.kind == FULL_PLANE:
        return True
    if inner.kind == HALF_PLANE:
        return outer.kind == HALF_PLANE and rhs_equal(inner, outer, tol)
    return all(outer.contains(u, tol) for u in inner.extreme_rays())
