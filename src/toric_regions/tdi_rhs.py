"""Right-hand side of the toric differential inclusion.

At a log point the value is the polar of the intersection of every
full-dimensional fan sector within distance delta of the point, built
once per (fan, near set) by the values memo of the fan's ``_fan_table``
record.  Sectors meet only in the arm two adjacent ones share, so every
value is one of three ``Cone``s: the full plane where r(x) >= 2 strips
contain the point, the half plane normal to the shared arm where
r(x) = 1, and where r(x) = 0 the polar of the containing sector (a ray
for a one-generator fan, and inside its strip the line).  Each is built
from the integer arms: the sector from arm a to arm b has the polar from
rot+90(b) to rot-90(a), and the half plane normal to arm c runs from
rot+90(c) to rot-90(c) with inward normal -c, so its edges are exact.

There are two evaluators, the definition and the classifier, and each
only chooses the near set.  ``rhs_bruteforce`` does it by the definition,
point by point: the ground truth.  ``rhs_bruteforce_batch`` does the
same for an array of points at once: ``near_sectors`` takes one cross
and one dot product of every arm of the fan with every point, in blocks
of 1,024 points, and reads each sector's distance off its two arms; one
matmul turns the near sectors into bit sets.  It is the validation
battery's check, and, with the inclusive tol, the integrator's check of
every step start and the check of every candidate witness route.
``_rhs_fast``, the value the integrator steps on, reads the near set off
r(x) and the active strip's arm, from the floats (X, Y) and the rows of
``Fan.regions``, the strip table of a (fan, delta); it gives
``rhs_bruteforce``'s value within STRIP_TOL of a strip boundary, and a
radius within which the value is one per side of the nearest boundary.
Velocities are checked against a value c by ``c.violation(v)``: 0
inside, else the worst excess over |v|.
"""

import math

import numpy as np

from .errors import NonFinitePoint, NonPositiveDelta
from .fan_geometry import (
    STRIP_TOL,
    _FULL_PLANE,
    Cone,
    Fan,
    LogPoint,
    _fan_table,
    _finite_log,
    _flanking_arms,
    dist_to_cone,
    near_sectors,
)

def _near_limit(delta: float, tol: float) -> float:
    """Distance delta - tol within which a sector is near, at least 0.
    NonPositiveDelta unless delta is strictly positive and finite."""
    if not 0.0 < delta < math.inf:
        raise NonPositiveDelta(f"delta = {delta}")
    return max(delta - tol, 0.0)


def _near_set(pt: LogPoint, fan: Fan, limit: float) -> int:
    """Bit set of the sectors within limit of pt, never empty.  The fan is
    complete, so some sector contains pt, but with limit near 0 rounding can
    leave a point on an arm just outside both sectors there: then the
    nearest sector is taken."""
    dist = [dist_to_cone(pt, s) for s in _fan_table(fan).sectors]
    return sum(1 << k for k, d in enumerate(dist) if d <= limit) or 1 << dist.index(min(dist))


def rhs_bruteforce(point, fan: Fan, delta: float, tol: float = STRIP_TOL) -> Cone:
    """Polar of the intersection of all 2D sectors within delta of log(point).

    Sectors are collected with dist <= delta - tol so that points exactly on
    a strip boundary deterministically take the open-side (gap) value; pass
    a negative tol for the inclusive reading (the larger cone), which is the
    right side for velocity validation.  NonPositiveDelta unless delta is
    positive and finite, NonFinitePoint unless the point is finite.
    """
    limit = _near_limit(delta, tol)
    return _fan_table(fan).values[_near_set(_finite_log(point, "point"), fan, limit)]


def rhs_bruteforce_batch(X: np.ndarray, Y: np.ndarray, fan: Fan, delta: float,
                         tol: float) -> tuple[list[Cone], np.ndarray]:
    """rhs_bruteforce(pt, fan, delta, tol) at each log point (X[k], Y[k]) of
    float arrays: the distinct values, and each point's index into them.

    near_sectors marks every (sector, point) pair within the limit from
    the arm table, one cross and one dot product per (arm, point), and one
    int64 matmul turns each point's column into its near set's bit code.
    The values come in ascending code order, as np.unique orders them:
    the distinct codes are read off one sort, and np.searchsorted gives
    each point's index, in memory linear in the points for any fan.
    """
    limit = _near_limit(delta, tol)
    record = _fan_table(fan)
    bits = 1 << np.arange(len(record.sectors), dtype=np.int64)
    near = bits @ near_sectors(X, Y, fan, limit)
    for k in np.flatnonzero(near == 0).tolist():
        near[k] = _near_set(LogPoint(float(X[k]), float(Y[k])), fan, limit)
    s = np.sort(near)
    codes = np.concatenate((s[:1], s[1:][s[1:] != s[:-1]]))
    return [record.values[c] for c in codes.tolist()], np.searchsorted(codes, near)


def _rhs_fast(X: float, Y: float, fan: Fan, delta: float, table: tuple):
    """The value at the log point (X, Y) and its cell, (value, radius,
    near_row): the near set is chosen by the strip-interior count r(x) from
    the rows of table, the strip table fan.regions(delta), and the value
    read from the values memo of _fan_table(fan).

    r >= 2 gives the shared full plane; r = 1 the two sectors on either side
    of the active strip's arm on the point's side (both half planes of a
    one-generator fan); r = 0 the containing sector alone.  Within
    STRIP_TOL of any strip boundary the count cannot choose: the value is
    rhs_bruteforce's and the radius 0.  Elsewhere near_row is the row of
    the nearest boundary, and within the radius (infinity norm) lies no
    STRIP_TOL band of another boundary (near_row's far one included) and
    no zero of an along-coordinate q*X + p*Y, each margin over |q| + |p|
    less 2 * STRIP_TOL and a rounding slack: one value on each side of
    near_row's boundary.  NonFinitePoint unless X and Y are finite.
    """
    if not (math.isfinite(X) and math.isfinite(Y)):
        raise NonFinitePoint(f"point ({X}, {Y}) is not finite")
    active, r, near_row = -1, 0, None
    size, radius, nearest = max(abs(X), abs(Y)), math.inf, math.inf
    for i, q, p, half_width, _, _ in table:
        s = abs(q * Y - p * X)
        gap = abs(s - half_width)
        if gap <= STRIP_TOL:
            return rhs_bruteforce(LogPoint(X, Y), fan, delta), 0.0, table[i]
        if s < half_width:
            r += 1
            active = i
        w = abs(q) + abs(p)
        slack = 2.0 * STRIP_TOL + 1e-12 * w * size + 1e-12 * half_width  # finite, so no NaN
        margin = (gap - slack) / w
        if margin <= nearest:  # the old nearest boundary bounds the radius now
            margin, nearest, near_row = nearest, margin, table[i]
        radius = min(radius, margin, (min(s + half_width, abs(q * X + p * Y)) - slack) / w)
    if r >= 2:
        return _FULL_PLANE, radius, near_row
    record = _fan_table(fan)
    if r == 0:
        return record.values[1 << _flanking_arms(X, Y, record.arms)], radius, near_row
    _, q, p, _, plus, minus = table[active]
    # The sign of the along-coordinate q*X + p*Y picks the arm.
    return record.values[plus if q * X + p * Y >= 0.0 else minus], radius, near_row
