"""Right-hand side of the toric differential inclusion.

At a log point the value is the polar of the intersection of every
full-dimensional fan sector within distance delta of the point, built
only by ``_near_value``, once per (fan, near set).  Every value is a
``Cone``: the full plane where r(x) >= 2 strips contain the point, a half
plane where r(x) = 1, and where r(x) = 0 the polar of the containing
sector (a ray for a one-generator fan).  Inside the strip of a
one-generator fan the value is a line.

Each path only chooses the near set.  ``rhs_bruteforce`` does it by the
definition: the ground truth, and the integrator's check at every step;
``rhs_bruteforce_batch`` for an array of points at once, for the
validation battery.  ``rhs_classified`` reads it off r(x) and the active
strip's arm, and returns the definition's value away from strip boundaries.
"""

import functools
import math

import numpy as np

from .errors import AmbiguousClassification, NotASubfan
from .fan_geometry import (
    LINE_WIDTH,
    STRIP_TOL,
    TWO_PI,
    Cone,
    Fan,
    _arm_table,
    _flanking_arms,
    along_coordinate,
    as_log,
    delta_i,
    dist_to_cone,
    fan_2d_cones,
    near_cone,
)

# The value wherever r(x) >= 2; Cone is frozen, so every caller shares it.
_FULL_PLANE = Cone(0.0, TWO_PI)


@functools.lru_cache(maxsize=512)
def _near_value(fan: Fan, near: int) -> Cone:
    """Polar of the intersection of the sectors in the bit set near."""
    return functools.reduce(Cone.intersect, [s for k, s in enumerate(fan_2d_cones(fan))
                                             if near >> k & 1]).polar()


def rhs_bruteforce(point, fan: Fan, delta: float, tol: float = STRIP_TOL) -> Cone:
    """Polar of the intersection of all 2D sectors within delta of log(point).

    Sectors are collected with dist <= delta - tol so that points exactly on
    a strip boundary deterministically take the open-side (gap) value; pass
    a negative tol for the inclusive reading (the larger cone), which is the
    right side for velocity validation.
    """
    pt = as_log(point)
    # Completeness of the fan guarantees the containing sector is near.
    return _near_value(fan, sum(1 << k for k, s in enumerate(fan_2d_cones(fan))
                                if dist_to_cone(pt, s) <= delta - tol))


def rhs_bruteforce_batch(X: np.ndarray, Y: np.ndarray, fan: Fan,
                         delta: float) -> tuple[list[Cone], np.ndarray]:
    """rhs_bruteforce at each log point (X[k], Y[k]) of float arrays, with the
    default tol: the distinct values, and each point's index into them."""
    near = sum(near_cone(X, Y, s, delta - STRIP_TOL).astype(np.int64) << k
               for k, s in enumerate(fan_2d_cones(fan)))
    codes, index = np.unique(near, return_inverse=True)
    return [_near_value(fan, int(c)) for c in codes], index


def rhs_classified(point, fan: Fan, delta: float) -> Cone:
    """Fast evaluation: choose the near set by the strip-interior count r(x),
    and read its value from the definition's cache.

    r >= 2 gives the shared full plane; r = 1 the two sectors on either side
    of the active strip's arm on the point's side (both half planes of a
    one-generator fan); r = 0 the containing sector alone.  Raises
    AmbiguousClassification within STRIP_TOL of any strip boundary.
    """
    pt = as_log(point)
    active = -1
    r = 0
    for i, g in enumerate(fan.generators):
        s = abs(g.q * pt.Y - g.p * pt.X)
        half_width = delta_i(g, delta)
        if abs(s - half_width) <= STRIP_TOL:
            raise AmbiguousClassification(f"point within {STRIP_TOL} of boundary of strip {i}")
        if s < half_width:
            r += 1
            active = i
    if r >= 2:
        return _FULL_PLANE
    if r == 0:
        return _near_value(fan, 1 << _flanking_arms(pt, fan))
    side = 1 if along_coordinate(pt, fan.generators[active]) >= 0.0 else -1
    arms = _arm_table(fan)
    j = next(j for j, (_, gi, sign) in enumerate(arms) if gi == active and sign == side)
    return _near_value(fan, (1 << j) | (1 << (j - 1) % len(arms)))


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
