"""The interval algebra of planar cones, the tests' definition of the
inclusion's value: the polar of the intersection of the near sectors.

The package holds a cone as its integer extreme rays and builds each value
from the three cases of a complete planar fan (fan_geometry._NearValues).
Here a cone is an angular interval, an Arc read off the rays by atan2,
with its own ANGLE_TOL slack; the package's values are held to this
algebra's unit extreme rays within RAY_TOL.  The zero cone {0}, which no
value of the inclusion is, is None here.
"""

import functools
import math
from typing import NamedTuple

from toric_regions.fan_geometry import Cone

TWO_PI = 2.0 * math.pi
ANGLE_TOL = 1e-12  # widths within it of 0 or pi snap onto them
LINE = -2.0  # the width of the line through direction lo, the one cone no interval is
# Largest gap, per component, between the package's unit rays (integers over
# their length) and an Arc's (cos and sin of an angle summed from atan2s):
# a few ulps of angles up to 5*pi/2.
RAY_TOL = 2e-15


def _wrap(angle: float) -> float:
    """Wrap an angle into [0, 2*pi)."""
    a = math.fmod(angle, TWO_PI)
    return a + TWO_PI if a < 0.0 else a


class Arc(NamedTuple):
    """The counter-clockwise angular interval [lo, lo + width]: width 0 a
    ray, (0, pi) a sector, pi a half plane and 2*pi the full plane; LINE
    the line through lo."""

    lo: float
    width: float


def arc(lo: float, width: float) -> Arc:
    """The Arc of start angle lo and width, lo wrapped into [0, 2*pi) (0 for
    the full plane) and a width within ANGLE_TOL of 0 or pi snapped onto it."""
    if abs(width) <= ANGLE_TOL:
        width = 0.0
    elif abs(width - math.pi) <= ANGLE_TOL:
        width = math.pi
    elif not (0.0 < width < math.pi or width in (LINE, TWO_PI)):
        raise ValueError(f"arc width {width} is not in [0, pi], 2*pi or LINE")
    return Arc(0.0 if width == TWO_PI else _wrap(lo), width)


def _angle(ray) -> float:
    return _wrap(math.atan2(ray[1], ray[0]))


def arc_of(cone: Cone) -> Arc:
    """The Arc of a package cone, from the angles of its integer rays."""
    rays = cone.rays
    if not rays:
        return arc(0.0, TWO_PI)
    lo = _angle(rays[0])
    if len(rays) == 1:
        return arc(lo, 0.0)
    if len(rays) == 3:
        return arc(lo, math.pi)
    if rays[1] == (-rays[0][0], -rays[0][1]):
        return arc(lo, LINE)
    return arc(lo, _wrap(_angle(rays[1]) - lo))


def kind(cone: Cone) -> str:
    """The kind of a package cone, read off its rays."""
    return {0: "full plane", 1: "ray", 3: "half plane"}.get(
        len(cone.rays), "line" if arc_of(cone).width == LINE else "sector")


def unit_rays(a: Arc) -> tuple[tuple[float, float], ...]:
    """The unit extreme rays of an Arc, in the package's order: a sector's
    (start, end), a half plane's (start, end, inward normal), the line's
    (u, -u), a ray's (u,) and the full plane's none."""
    if a.width == TWO_PI:
        return ()
    u = (math.cos(a.lo), math.sin(a.lo))
    if a.width == 0.0:
        return (u,)
    if a.width == LINE:
        return (u, (-u[0], -u[1]))
    if a.width == math.pi:
        return (u, (-u[0], -u[1]), (-u[1], u[0]))
    end = a.lo + a.width
    return (u, (math.cos(end), math.sin(end)))


def contains(a: Arc, theta: float, tol: float = 0.0) -> bool:
    """Does the direction of angle theta lie in the Arc, to tol radians?"""
    if a.width == TWO_PI:
        return True
    gap = _wrap(theta - a.lo)
    if a.width == LINE:
        gap = math.fmod(gap, math.pi)
        return min(gap, math.pi - gap) <= tol
    return gap <= a.width + tol or TWO_PI - gap <= tol


def arcs_equal(a: Arc, b: Arc, tol: float) -> bool:
    """Widths and start angles within tol; a line's start angle counts
    modulo pi."""
    period = math.pi if a.width == LINE else TWO_PI
    gap = (a.lo - b.lo) % period
    return abs(a.width - b.width) <= tol and min(gap, period - gap) <= tol


def same_rays(cone: Cone, a: Arc, tol: float = RAY_TOL) -> bool:
    """Are the cone's unit extreme rays the Arc's, component by component
    within tol?"""
    got, want = cone.extreme_rays(), unit_rays(a)
    return len(got) == len(want) and all(abs(g - w) <= tol for r, s in zip(got, want)
                                         for g, w in zip(r, s))


def polar(a: Arc | None) -> Arc | None:
    """Polar cone {w : w.v <= 0 for all v in the cone}."""
    if a is None:
        return arc(0.0, TWO_PI)
    w = a.width
    if w == TWO_PI:
        return None
    if w == LINE:
        return arc(a.lo + math.pi / 2.0, LINE)
    return arc(a.lo + w + math.pi / 2.0, math.pi - w)


def intersect(a: Arc | None, b: Arc | None) -> Arc | None:
    """Intersection of two Arcs.

    Two half planes meeting only in their boundary give the line; a line
    itself cannot be intersected further.
    """
    if a is None or b is None:
        return None
    if b.width == TWO_PI:
        return a
    if a.width == TWO_PI:
        return b
    if LINE in (a.width, b.width):
        raise ValueError("a line cannot be intersected further")
    d = _wrap(b.lo - a.lo)
    parts = []
    for dd in (d, d - TWO_PI):
        s, e = max(0.0, dd), min(a.width, dd + b.width)
        if e >= s - ANGLE_TOL:
            parts.append((_wrap(a.lo + s), max(0.0, e - s)))
    if not parts:
        return None
    if len(parts) == 1:
        return arc(*parts[0])
    # Two parts need widths summing to 2*pi: two half planes meeting in
    # two antipodal rays, the line through them.
    return arc(parts[0][0], LINE)


def value_of(sectors) -> Arc:
    """The inclusion's value on a non-empty near set of package sectors."""
    return polar(functools.reduce(intersect, map(arc_of, sectors)))
