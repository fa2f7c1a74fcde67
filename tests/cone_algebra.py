"""The interval algebra of planar cones, the tests' definition of the
inclusion's value: the polar of the intersection of the near sectors.

The package builds each value from the three cases of a complete planar
fan (fan_geometry._NearValues); this general algebra, with its ANGLE_TOL
slack, is what those cases are held to, bit for bit.  The zero cone {0},
which no value of the inclusion is, is None here.
"""

import functools
import math

from toric_regions.fan_geometry import ANGLE_TOL, LINE_WIDTH, TWO_PI, Cone, _wrap


def polar(cone: Cone | None) -> Cone | None:
    """Polar cone {w : w.v <= 0 for all v in the cone}."""
    if cone is None:
        return Cone(0.0, TWO_PI)
    w = cone.width
    if w == TWO_PI:
        return None
    if w == LINE_WIDTH:
        return Cone(cone.lo + math.pi / 2.0, LINE_WIDTH)
    return Cone(cone.lo + w + math.pi / 2.0, math.pi - w)


def intersect(a: Cone | None, b: Cone | None) -> Cone | None:
    """Intersection of two cones.

    Two half planes meeting only in their boundary give the line; a line
    itself cannot be intersected further.
    """
    if a is None or b is None:
        return None
    if b.width == TWO_PI:
        return a
    if a.width == TWO_PI:
        return b
    if LINE_WIDTH in (a.width, b.width):
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
        return Cone(*parts[0])
    # Two parts need widths summing to 2*pi: two half planes meeting in
    # two antipodal rays, the line through them.
    return Cone(parts[0][0], LINE_WIDTH)


def value_of(sectors) -> Cone:
    """The inclusion's value on a non-empty near set of sectors."""
    return polar(functools.reduce(intersect, sectors))
