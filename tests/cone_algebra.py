"""The interval algebra of planar cones, the tests' definition of the
inclusion's value: the polar of the intersection of the near sectors.

The package holds a cone as its integer extreme rays and builds each value
from the three cases of a complete planar fan (fan_geometry._NearValues).
Here a cone is an angular interval, an Arc read off the rays by atan2,
with its own ANGLE_TOL slack; the package's values are held to this
algebra's unit extreme rays within RAY_TOL.  The zero cone {0}, which no
value of the inclusion is, is None here.

dist_to_cone is the tests' distance from a log point to a cone, read off
its unit float rays: an oracle independent of the package's near-set
rule, which decides on the integer arms (fan_geometry.near_sectors).

sampled_leg_check is the tests' check of witness legs at their samples:
every sample's velocity against the inclusive value at its point.  It
sees only the samples, so it misses a violation between two of them; the
package's exact check (dynamics._validate_leg, once per strip cell) must
give its verdict on every real leg, which compared_checks compares call
by call.
"""

import contextlib
import functools
import itertools
import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from toric_regions import dynamics
from toric_regions.errors import WitnessFailed
from toric_regions.fan_geometry import Cone, LogPoint

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


def _ray_distance(pt: LogPoint, u: tuple[float, float]) -> float:
    """Distance from a log point to the ray {t*u : t >= 0}."""
    t = pt.X * u[0] + pt.Y * u[1]
    if t <= 0.0:
        return math.hypot(pt.X, pt.Y)
    return math.hypot(pt.X - t * u[0], pt.Y - t * u[1])


def dist_to_cone(pt: LogPoint, cone: Cone) -> float:
    """Euclidean distance from a log point to a package cone: 0 inside,
    else to the nearest of its unit extreme rays (the full plane, which has
    none, holds every point)."""
    if cone._excess(pt.X, pt.Y) == 0.0:
        return 0.0
    return min([_ray_distance(pt, u) for u in cone.extreme_rays()])


def sampled_leg_check(legs, fan, delta: float) -> float:
    """Worst cone violation of the witness legs' sampled velocities, each
    against the inclusive value at its sample, from one dynamics._violations
    batch over the legs' concatenated arrays (bit for bit as
    Cone.violation); WitnessFailed naming the description of the last leg
    whose worst exceeds the package's cone tolerance."""
    _, _, *arrays = zip(*legs)  # the legs' X, Y, vx and vy
    violations = dynamics._violations(*map(np.concatenate, arrays), fan, delta)
    starts = list(itertools.accumulate([len(leg.X) for leg in legs[:-1]], initial=0))
    # Each leg's max([0.0, *violations]): fmax passes over a NaN as max does.
    worst = np.fmax(np.fmax.reduceat(violations, starts), 0.0).tolist()
    for leg, w in zip(reversed(legs), reversed(worst)):
        if w > dynamics._CONE_TOL:
            raise WitnessFailed(leg.description, f"worst violation {w:.3e}")
    return max(worst)


@contextlib.contextmanager
def compared_checks():
    """While the block runs, every dynamics._validate_leg call is also
    given to sampled_leg_check.  Yields a record of the number of calls
    and of those whose verdicts differ, as (legs, exact verdict, sampled
    verdict): None for a pass, else the leg the WitnessFailed names."""
    record = SimpleNamespace(calls=0, differ=[])
    exact = dynamics._validate_leg

    def both(legs, fan, delta):
        record.calls += 1
        failed = sampled = None
        try:
            worst = exact(legs, fan, delta)
        except WitnessFailed as exc:
            failed = exc
        try:
            sampled_leg_check(legs, fan, delta)
        except WitnessFailed as exc:
            sampled = exc.leg
        if (failed and failed.leg) != sampled:
            record.differ.append((legs, failed and failed.leg, sampled))
        if failed:
            raise failed
        return worst

    dynamics._validate_leg = both
    try:
        yield record
    finally:
        dynamics._validate_leg = exact
