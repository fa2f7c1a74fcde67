"""Right-hand side of the toric differential inclusion.

At a log point the value is the polar of the intersection of every
full-dimensional fan sector within distance delta of the point.  Every
value is a ``Cone``: the full plane where r(x) >= 2 strips contain the
point, a half plane where r(x) = 1, and where r(x) = 0 the polar of the
containing sector (a ray for a one-generator fan).  Inside the strip of a
one-generator fan the value is a line.

``rhs_bruteforce`` evaluates the definition and is the ground truth.
``rhs_classified`` reads the value off r(x) instead, and must agree with
the brute force away from strip boundaries.
"""

import functools
import math

from .errors import AmbiguousClassification, NotASubfan
from .fan_geometry import (
    LINE_WIDTH,
    STRIP_TOL,
    TWO_PI,
    Cone,
    Fan,
    _flanking_arms,
    _wrap,
    along_coordinate,
    as_log,
    delta_i,
    dist_to_cone,
    fan_2d_cones,
)


def rhs_bruteforce(point, fan: Fan, delta: float, tol: float = STRIP_TOL) -> Cone:
    """Polar of the intersection of all 2D sectors within delta of log(point).

    Sectors are collected with dist <= delta - tol so that points exactly on
    a strip boundary deterministically take the open-side (gap) value; pass
    a negative tol for the inclusive reading (the larger cone), which is the
    right side for velocity validation.
    """
    pt = as_log(point)
    near = [s for s in fan_2d_cones(fan) if dist_to_cone(pt, s) <= delta - tol]
    # Completeness of the fan guarantees the containing sector is collected.
    return functools.reduce(Cone.intersect, near).polar()


def rhs_classified(point, fan: Fan, delta: float) -> Cone:
    """Fast three-case evaluation by the strip-interior count r(x).

    r >= 2 gives the full plane; r = 1 a half plane whose boundary slope is
    the active strip's attracting slope (a line for a one-generator fan);
    r = 0 the proper cone spanned by the two flanking strips' half planes.
    Raises AmbiguousClassification within STRIP_TOL of any strip boundary.
    """
    pt = as_log(point)
    active = None
    r = 0
    for i, g in enumerate(fan.generators):
        s = abs(g.q * pt.Y - g.p * pt.X)
        half_width = delta_i(g, delta)
        if abs(s - half_width) <= STRIP_TOL:
            raise AmbiguousClassification(f"point within {STRIP_TOL} of boundary of strip {i}")
        if s < half_width:
            r += 1
            active = g
    if r >= 2:
        return Cone(0.0, TWO_PI)
    if r == 1:
        if fan.b == 1:
            # Both half-plane sectors are near: their intersection is the
            # generator line, and its polar is the normal line.
            return Cone(math.atan2(active.p, active.q), LINE_WIDTH).polar()
        # The polar of the active strip's arm on the point's side.
        side = 1 if along_coordinate(pt, active) >= 0.0 else -1
        return Cone(math.atan2(side * active.p, side * active.q), 0.0).polar()
    # r = 0: the polar of the containing sector, built from the same arm
    # angles as the one sector rhs_bruteforce collects, so the two paths
    # agree bit for bit here.
    (lo, _, _), (hi, _, _) = _flanking_arms(pt, fan)
    return Cone(lo, _wrap(hi - lo)).polar()


def rhs_equal(a: Cone, b: Cone, tol: float = 1e-9) -> bool:
    """Widths and start angles within tol; a line's start angle counts
    modulo pi."""
    period = math.pi if a.width == LINE_WIDTH else TWO_PI
    gap = (a.lo - b.lo) % period
    return abs(a.width - b.width) <= tol and min(gap, period - gap) <= tol


def rhs_subfan_subset(point, fan: Fan, subfan: Fan, delta: float,
                      tol: float = 1e-9) -> bool:
    """True iff the subfan's right-hand side is contained in the fan's."""
    fan_keys = {(g.p, g.q) for g in fan.generators}
    for g in subfan.generators:
        if (g.p, g.q) not in fan_keys:
            raise NotASubfan(f"generator {g} not in fan {fan}")
    inner = rhs_bruteforce(point, subfan, delta)
    outer = rhs_bruteforce(point, fan, delta)
    if inner.width == TWO_PI:
        return outer.width == TWO_PI
    # Every other cone is generated by its extreme rays.
    return all(outer.contains(u, tol) for u in inner.extreme_rays())
