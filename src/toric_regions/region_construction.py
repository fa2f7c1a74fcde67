"""Construction of the minimal invariant region and its boundary loop.

The boundary is assembled from straight x-space segments that cross the
uncertainty strips along their attracting directions, plus arcs of the
bounding power curves y^q = h x^p that close the loop.  Anchor points keep
their delta-independent exponents so start-point selection stays exact in
the large-delta asymptotics.
"""

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

import numpy as np

from .errors import (
    ArcsDontMeet,
    ConstructionFailed,
    DeltaTooSmall,
    MonomialOverflow,
    NoCrossing,
    OutOfBand,
    UnsupportedFan,
)
from .fan_geometry import (
    STRIP_TOL,
    Fan,
    LineGenerator,
    LogPoint,
    PosPoint,
    UncertaintyRegion,
    _arm_table,
    _finite_log,
    _wrap,
    along_coordinate,
    as_log,
    delta_i,
    strip_coordinate,
)
from .tdi_rhs import rhs_bruteforce_batch


def _sign(x: float) -> int:
    return 1 if x >= 0.0 else -1


# ---------------------------------------------------------------------------
# Step 1: intersection points of the strip boundary curves


@dataclass(frozen=True)
class IntersectionPoint:
    """Closed-form intersection of two strip boundary curves.

    Log coordinates are (cx * delta, cy * delta); the unit-delta exponents
    cx, cy are what Step 2 compares, so the selection is stable in delta.
    """

    i: int
    j: int
    si: int
    sj: int
    cx: float
    cy: float
    delta: float

    @property
    def log(self) -> LogPoint:
        return LogPoint(self.cx * self.delta, self.cy * self.delta)

    @property
    def key(self) -> tuple[int, int, int, int]:
        """Deterministic provenance order: + signs sort before - signs."""
        return (self.i, self.j, 0 if self.si > 0 else 1, 0 if self.sj > 0 else 1)


def intersection_points(fan: Fan, delta: float) -> tuple[IntersectionPoint, ...]:
    """All 4 * C(b, 2) pairwise curve intersections (the set S^uc)."""
    gens = fan.generators
    points = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            for si in (1, -1):
                for sj in (1, -1):
                    cx, cy = _meet_exponents(gens[i], si, gens[j], sj)
                    points.append(IntersectionPoint(i, j, si, sj, cx, cy, delta))
    return tuple(points)


def _meet_exponents(gi: LineGenerator, si: int, gj: LineGenerator, sj: int) -> tuple[float, float]:
    """Unit-delta exponents (cx, cy) of the point where the curve
    q*Y - p*X = si*delta_i of gi meets the curve of gj on side sj.

    Swapping the curves negates both numerators and the determinant, which
    can flip the sign of a zero exponent; callers pass the lower index first.
    """
    det = gi.p * gj.q - gj.p * gi.q
    wi, wj = gi.norm, gj.norm
    return ((gi.q * wj * sj - gj.q * wi * si) / det, (gi.p * wj * sj - gj.p * wi * si) / det)


# ---------------------------------------------------------------------------
# Step 2: start points


_EXP_TOL = 1e-9  # tolerance on unit-delta exponents when ranking coordinates


def choose_start_points(points, mode: str = "standard"):
    """Pick ((N,M), (n,m)) from S^uc.

    (N,M) maximizes the larger coordinate; on an x/y tie the point whose
    maximum is the y coordinate wins, then proximity to the diagonal, then
    provenance order.  (n,m) minimizes the larger coordinate (the smaller
    one in the all-negative special case), never coincides with (N,M), and
    breaks ties the same way.  ValueError with fewer than two points.
    """
    if len(points) < 2:
        raise ValueError(f"{len(points)} intersection points; start points need two")
    tie_break = lambda p: (abs(p.cx - p.cy), p.key)
    xmax = max(p.cx for p in points)
    ymax = max(p.cy for p in points)
    if ymax >= xmax - _EXP_TOL:
        nm = min((p for p in points if p.cy >= ymax - _EXP_TOL), key=tie_break)
    else:
        nm = min((p for p in points if p.cx >= xmax - _EXP_TOL), key=tie_break)

    rest = [p for p in points if p is not nm]
    if mode == "all_negative":
        score = lambda p: min(p.cx, p.cy)
    else:
        score = lambda p: max(p.cx, p.cy)
    best = min(score(p) for p in rest)
    return nm, min((p for p in rest if score(p) <= best + _EXP_TOL), key=tie_break)


# ---------------------------------------------------------------------------
# Slope classes and stop indices


@dataclass(frozen=True)
class SlopeClasses:
    """Index sets S1 (negative), S2 (0 < slope < 1), S3 (slope >= 1) and the
    four stop indices of the polyline construction."""

    s1: tuple[int, ...]
    s2: tuple[int, ...]
    s3: tuple[int, ...]
    i1: int
    i2: int
    i3: int
    i4: int
    mode: str


def compute_slope_classes(fan: Fan) -> SlopeClasses:
    """Classify generators and resolve the construction mode.

    Modes: 'standard' (at least one generator in each of S1, S2, S3, axis
    generators allowed on top), 'all_positive', 'all_negative'.  Anything
    else is rejected.
    """
    s1, s2, s3, axis = [], [], [], []
    for idx, g in enumerate(fan.generators):
        if g.is_axis:
            axis.append(idx)
        elif g.p < 0:
            s1.append(idx)
        elif g.q > g.p:
            s2.append(idx)
        else:
            s3.append(idx)
    non_axis = s1 + s2 + s3
    if fan.b < 2 or not non_axis:
        raise UnsupportedFan(f"fan {fan} has too few usable generators")
    if s1 and s2 and s3:
        mode = "standard"
        i1, i4 = max(s1), min(s1)  # angular order: max theta / min theta
        i2, i3 = min(s2), max(s3)
    elif (s2 or s3) and not s1 and not axis:
        mode = "all_positive"
        pos = sorted(s2 + s3)
        i2 = i4 = pos[0]
        i1 = i3 = pos[-1]
    elif s1 and not (s2 or s3) and not axis:
        mode = "all_negative"
        i2 = i4 = min(s1)
        i1 = i3 = max(s1)
    else:
        raise UnsupportedFan(
            f"fan {fan} has slope classes S1={s1} S2={s2} S3={s3} axis={axis}; "
            "needs all three classes or a pure-sign special case"
        )
    return SlopeClasses(tuple(s1), tuple(s2), tuple(s3), i1, i2, i3, i4, mode)


# ---------------------------------------------------------------------------
# Boundary pieces


def _ends(pieces) -> np.ndarray:
    """One row (start.X, start.Y, end.X, end.Y) per piece."""
    return np.array([(p.start.X, p.start.Y, p.end.X, p.end.Y) for p in pieces]).reshape(-1, 4)


@dataclass(frozen=True)
class Segment:
    """Straight x-space piece along its generator's attracting direction."""

    start: LogPoint
    end: LogPoint
    gen: LineGenerator
    region_index: int
    arm_sign: int
    end_sign: int  # sign of the curve the piece terminates on (0 for a join)

    @property
    def slope(self) -> Fraction | None:
        """x-space slope -q/p; None means vertical (x constant)."""
        return self.gen.attracting_slope()

    @property
    def direction(self) -> tuple[int, int]:
        """x-space direction (p, -q) of the piece's line, unoriented."""
        return (self.gen.p, -self.gen.q)

    def reversed(self) -> "Segment":
        return Segment(self.end, self.start, self.gen, self.region_index,
                       self.arm_sign, self.end_sign)

    @staticmethod
    def normals_at(segs, which, X, Y):
        """Outward x-space unit normals at points of segs[which], the same
        at every point of a segment."""
        table = np.array([(s.arm_sign * s.gen.q / s.gen.norm, s.arm_sign * s.gen.p / s.gen.norm)
                          for s in segs]).reshape(-1, 2)
        return table[which, 0], table[which, 1]

    def at(self, c: float, mirrored: bool) -> LogPoint:
        """Point of the piece's line with log x = c (log y = c if mirrored),
        evaluated from the nearer endpoint."""
        a, b = self.start, self.end
        if (abs(c - b.Y) < abs(c - a.Y)) if mirrored else (abs(c - b.X) < abs(c - a.X)):
            a = b
        return _xline_at(a, self.gen.p, -self.gen.q, c, mirrored)

    @staticmethod
    def _frames(segs) -> np.ndarray:
        """One row (A0, A1, C0, C1, slope, mirrored, log|p|, log|q|, p, -q)
        per segment: its ends' log coordinates along and across its dominant
        log axis, the slope d(across)/d(along) of its x-space line, 1.0
        where that axis is log y (the x<->y mirror), and the logs and signs
        that _scaled_reciprocals takes of its direction (p, -q)."""
        rows = []
        for s in segs:
            a, b, g = s.start, s.end, s.gen
            logs = (math.log(abs(g.p)) if g.p else -math.inf,
                    math.log(abs(g.q)) if g.q else -math.inf, g.p, -g.q)
            if abs(b.X - a.X) < abs(b.Y - a.Y):
                rows.append((a.Y, b.Y, a.X, b.X, g.p / -g.q, True, *logs))
            else:
                rows.append((a.X, b.X, a.Y, b.Y, -g.q / g.p, False, *logs))
        return np.array(rows).reshape(-1, 10)

    @staticmethod
    def points_at(segs, which, u):
        """Points at fractions u of the dominant log-axis spans of segs[which].

        Each point is the x-space line's point at that log coordinate, as
        at evaluates it from the nearer endpoint.  u = 1 gives the end
        itself: a + 1.0*(b - a) can miss b by an ulp, past the quadrant exit
        on a segment that ends at it.
        """
        A0, A1, C0, C1, slope, mirrored, *_ = Segment._frames(segs)[which].T
        end = u == 1.0
        along = np.where(end, A1, A0 + u * (A1 - A0))
        across = C1.copy()
        c, A0, A1, C0, C1 = along[~end], A0[~end], A1[~end], C0[~end], C1[~end]
        far = np.abs(c - A1) < np.abs(c - A0)
        across[~end] = _line_y_log_batch(np.where(far, A1, A0), np.where(far, C1, C0),
                                         slope[~end], c)
        mirrored = mirrored.astype(bool)
        return np.where(mirrored, across, along), np.where(mirrored, along, across)

    def band_distance(self, pt: LogPoint) -> float:
        """Approximate log-space distance from a point to the piece.

        Beyond the piece's span on its dominant log axis, the distance to the
        nearer endpoint; within it, the distance to the tangent of the line's
        log-space image at the line point level with pt on that axis.
        """
        a, b = self.start, self.end
        mirrored = abs(b.X - a.X) < abs(b.Y - a.Y)
        c, lo, hi = (pt.Y, a.Y, b.Y) if mirrored else (pt.X, a.X, b.X)
        lo, hi = min(lo, hi), max(lo, hi)
        if not (lo - 1e-12 <= c <= hi + 1e-12):
            return min(math.hypot(pt.X - e.X, pt.Y - e.Y) for e in (a, b))
        on = self.at(min(max(c, lo), hi), mirrored)
        # The x-space direction (p, -q) is (p/x, -q/y) in log space.
        tx, ty = _scaled_reciprocals(on, *self.direction)
        return abs((pt.X - on.X) * ty - (pt.Y - on.Y) * tx) / math.hypot(tx, ty)

    @staticmethod
    def band_distances(segs, which, X, Y):
        """band_distance at points (X, Y) of segs[which], in numpy.

        The line point and the tangent's exps are at's and math's, bit for
        bit, so only numpy's hypot differs from the scalar value, by at most
        an ulp: the gap is below _TIE_MARGIN·d.
        """
        A0, A1, C0, C1, slope, mirrored, lp, lq, p, mq = Segment._frames(segs).T[:, which]
        m = mirrored == 1.0
        along, across = np.where(m, Y, X), np.where(m, X, Y)
        with np.errstate(all="ignore"):  # as floats do at huge delta
            d = np.minimum(np.hypot(along - A0, across - C0), np.hypot(along - A1, across - C1))
            lo, hi = np.minimum(A0, A1), np.maximum(A0, A1)
            k = np.flatnonzero((lo - 1e-12 <= along) & (along <= hi + 1e-12))
            c = np.minimum(np.maximum(along[k], lo[k]), hi[k])
            far = np.abs(c - A1[k]) < np.abs(c - A0[k])
            on = _line_y_log_batch(np.where(far, A1[k], A0[k]), np.where(far, C1[k], C0[k]),
                                   slope[k], c)
            onX, onY = np.where(m[k], on, c), np.where(m[k], c, on)
            la, lb = lp[k] - onX, lq[k] - onY
            top = np.maximum(la, lb)
            tx = np.copysign(_math_map(math.exp, la - top), p[k])
            ty = np.copysign(_math_map(math.exp, lb - top), mq[k])
            d[k] = np.abs((X[k] - onX) * ty - (Y[k] - onY) * tx) / np.hypot(tx, ty)
        return d

    @staticmethod
    def ray_crossings(segs, which, X, Y):
        """(cx, spans): 1.0 in spans where Y lies in the half-open log-y
        span of segs[which], as _ray_hit tests it, and there cx, the log x
        of the segment's line at Y, evaluated as _ray_hit evaluates it: from
        the end nearer in log y, by the kernel bit for bit."""
        Y0, X0, Y1, X1, w = np.array([(s.start.Y, s.start.X, s.end.Y, s.end.X,
                                       s.gen.p / -s.gen.q if s.gen.q else math.nan)
                                      for s in segs]).reshape(-1, 5)[which].T
        spans = (np.minimum(Y0, Y1) <= Y) & (Y < np.maximum(Y0, Y1))
        cx = np.zeros(len(Y))
        k = np.flatnonzero(spans)
        far = np.abs(Y[k] - Y1[k]) < np.abs(Y[k] - Y0[k])
        cx[k] = _line_y_log_batch(np.where(far, Y1[k], Y0[k]), np.where(far, X1[k], X0[k]),
                                  w[k], Y[k])
        return cx, spans


def _scaled_reciprocals(pt: LogPoint, a: float, b: float) -> tuple[float, float]:
    """(a/x, b/y) at pt, divided by the larger of |a|/x and |b|/y, so that
    neither part overflows and the larger has magnitude 1."""
    la = math.log(abs(a)) - pt.X if a else -math.inf
    lb = math.log(abs(b)) - pt.Y if b else -math.inf
    m = max(la, lb)
    return (math.copysign(math.exp(la - m), a), math.copysign(math.exp(lb - m), b))


@dataclass(frozen=True)
class Arc:
    """Piece of the curve y^q = exp(h_sign * delta_i) * x^p of gen.

    In log space this is a straight line q*Y - p*X = h_sign * delta_i.
    Arcs lie only on generators off the axes, so p and q are nonzero.
    """

    gen: LineGenerator
    h_sign: int
    start: LogPoint
    end: LogPoint

    @staticmethod
    def normals_at(arcs, which, X, Y):
        """Outward x-space unit normals at points (X, Y) of arcs[which]: the
        normal (-p/x, q/y) scaled as _scaled_reciprocals scales it, then
        divided by its length."""
        table = np.array([(math.log(abs(a.gen.p)), math.log(abs(a.gen.q)), -a.gen.p, a.gen.q,
                           a.h_sign) for a in arcs]).reshape(-1, 5)
        la0, lb0, a, b, h = table[which].T
        la, lb = la0 - X, lb0 - Y
        m = np.maximum(la, lb)
        nx = np.copysign(_math_map(math.exp, la - m), a)
        ny = np.copysign(_math_map(math.exp, lb - m), b)
        n = _math_map(math.hypot, nx, ny)
        return h * nx / n, h * ny / n

    def at(self, c: float, mirrored: bool) -> LogPoint:
        """Point of the arc's log line with log x = c (log y = c if mirrored)."""
        g, a = self.gen, self.start
        k = g.q * a.Y - g.p * a.X
        if mirrored:
            return LogPoint((g.q * c - k) / g.p, c)
        return LogPoint(c, (k + g.p * c) / g.q)

    @staticmethod
    def points_at(arcs, which, u):
        """Points at fractions u of arcs[which]: the log-space mix
        s + u*(e - s) of the endpoints, also at u = 1."""
        sX, sY, eX, eY = _ends(arcs)[which].T
        return sX + u * (eX - sX), sY + u * (eY - sY)

    def band_distance(self, pt: LogPoint) -> float:
        """Exact log-space distance from a point to the arc (a log-space
        segment)."""
        ax, ay = self.start.X, self.start.Y
        dx, dy = self.end.X - ax, self.end.Y - ay
        l2 = dx * dx + dy * dy
        if l2 == 0.0:
            return math.hypot(pt.X - ax, pt.Y - ay)
        t = ((pt.X - ax) * dx + (pt.Y - ay) * dy) / l2
        t = min(1.0, max(0.0, t))
        return math.hypot(pt.X - (ax + t * dx), pt.Y - (ay + t * dy))

    @staticmethod
    def band_distances(arcs, which, X, Y):
        """band_distance at points (X, Y) of arcs[which], in numpy.  Only
        hypot differs from math's, by at most an ulp: the gap to the scalar
        value is below _TIE_MARGIN·d."""
        sX, sY, eX, eY = _ends(arcs)[which].T
        with np.errstate(all="ignore"):  # as floats do at huge delta; t = 0 where l2 = 0
            dx, dy = eX - sX, eY - sY
            l2 = dx * dx + dy * dy
            t = np.clip(((X - sX) * dx + (Y - sY) * dy) / l2, 0.0, 1.0)
            t[l2 == 0.0] = 0.0
            return np.hypot(X - (sX + t * dx), Y - (sY + t * dy))

    @staticmethod
    def ray_crossings(arcs, which, X, Y):
        """(cx, spans) as Segment.ray_crossings gives them, cx by at's
        mirrored closed form, bit for bit."""
        sX, sY, eX, eY = _ends(arcs)[which].T
        p, q = np.array([(a.gen.p, a.gen.q) for a in arcs]).reshape(-1, 2)[which].T
        spans = (np.minimum(sY, eY) <= Y) & (Y < np.maximum(sY, eY))
        cx = np.zeros(len(Y))
        cx[spans] = (q[spans] * Y[spans] - (q[spans] * sY[spans] - p[spans] * sX[spans])) / p[spans]
        return cx, spans


_EXP_SAFE = 700.0  # exponents below this keep e^(...) finite in the line kernel


def _line_y_log(X0: float, Y0: float, s: float, X: float) -> float:
    """Log of y at log-x X on the x-space line of slope s through (X0, Y0).

    This is the one evaluation of an x-space line; log x at log-y Y is the
    same call on the x<->y mirror (_line_x_log).

    y = y0 * (1 + z) with z = s * e^(X0 - Y0) * expm1(X - X0).  The product
    is formed directly while its exponents stay below _EXP_SAFE, and from
    the sum of the logs of its factors beyond that.  Raises NoCrossing where
    the line has left the positive quadrant (1 + z <= 0).
    """
    e = X0 - Y0
    t = X - X0
    if -_EXP_SAFE < e < _EXP_SAFE and t < _EXP_SAFE and e + t < _EXP_SAFE:
        z = s * math.exp(e) * math.expm1(t)
    elif s == 0.0 or t == 0.0:
        return Y0
    else:
        # log|z|, with log|expm1(t)| = max(t, 0) + log(1 - e^-|t|).
        lz = math.log(abs(s)) + e + max(t, 0.0) + math.log(-math.expm1(-abs(t)))
        if lz > _EXP_SAFE and s * t > 0.0:
            return Y0 + lz  # log1p(z) - lz = log1p(1/z) is below 1e-304
        z = math.copysign(math.exp(min(lz, _EXP_SAFE)), s * t)
    if z > -1.0:
        return Y0 + math.log1p(z)
    raise NoCrossing("the line leaves the positive quadrant")


def _line_x_log(X0: float, Y0: float, w: float, Y: float) -> float:
    """Log of x at log-y Y on the x-space line through (X0, Y0) with
    dx/dy = w: the kernel on the x<->y mirror."""
    return _line_y_log(Y0, X0, w, Y)


def _math_map(fn, *arrays) -> np.ndarray:
    """fn from math applied elementwise: numpy's exp, expm1, log1p and
    hypot differ from math's in the last place on some inputs."""
    return np.array(list(map(fn, *(a.tolist() for a in arrays))), dtype=float)


def _line_y_log_batch(X0, Y0, s, X) -> np.ndarray:
    """_line_y_log elementwise over arrays, bit for bit.

    Elements on its direct branch are computed here; the rest go one by one
    through _line_y_log itself.  Raises NoCrossing if any element has left
    the positive quadrant.
    """
    e, t = X0 - Y0, X - X0
    direct = (-_EXP_SAFE < e) & (e < _EXP_SAFE) & (t < _EXP_SAFE) & (e + t < _EXP_SAFE)
    z = s[direct] * _math_map(math.exp, e[direct]) * _math_map(math.expm1, t[direct])
    if not (z > -1.0).all():
        raise NoCrossing("the line leaves the positive quadrant")
    out = np.empty_like(X)
    out[direct] = Y0[direct] + _math_map(math.log1p, z)
    rest = ~direct
    out[rest] = [_line_y_log(*args) for args in zip(X0[rest].tolist(), Y0[rest].tolist(),
                                                     s[rest].tolist(), X[rest].tolist())]
    return out


def _xline_at(near: LogPoint, dx: float, dy: float, c: float, mirrored: bool) -> LogPoint:
    """Point with log x = c (log y = c if mirrored) of the x-space line
    through near with direction (dx, dy), by the kernel (on the x<->y
    mirror when mirrored)."""
    if mirrored:
        return LogPoint(_line_x_log(near.X, near.Y, dx / dy, c), c)
    return LogPoint(c, _line_y_log(near.X, near.Y, dy / dx, c))


# ---------------------------------------------------------------------------
# Segment / curve crossings


def _line_root(anchor: LogPoint, q: int, p: int, log_h: float) -> LogPoint:
    """Root of g = q*Y - p*X - log_h on the x-space line through anchor with
    slope -q/p, by bisection in log x.

    On that line g is strictly monotone in log x with |dg/dX| >= |p|, so
    the root lies between the anchor's X0 and X0 + g(X0)/p.  A point past
    the quadrant exit (where y reaches 0) reads g = -sign(q)*inf.  The
    bisection stops when the midpoint equals an end, and returns the end
    with the smaller |g|.
    """
    X0, Y0 = anchor.X, anchor.Y
    s = -q / p

    def g(t: float) -> float:
        try:
            return q * _line_y_log(X0, Y0, s, t) - p * t - log_h
        except NoCrossing:
            return -math.copysign(math.inf, q)

    g0 = q * Y0 - p * X0 - log_h
    a, ga = X0, g0
    b = X0 + g0 / p
    gb = g(b)
    mid = 0.5 * (a + b)
    while a != mid != b:
        gm = g(mid)
        if (gm > 0.0) == (g0 > 0.0):
            a, ga = mid, gm
        else:
            b, gb = mid, gm
        mid = 0.5 * (a + b)
    t = a if abs(ga) <= abs(gb) else b
    return LogPoint(t, _line_y_log(X0, Y0, s, t))


def _curve_cross_on_line(anchor: LogPoint, gen: LineGenerator, log_h: float) -> LogPoint:
    """Crossing of the x-space line through anchor along gen's attracting
    slope -q/p with the curve q*Y - p*X = log_h.

    The bisection runs along log x first.  Near the quadrant corners that
    parametrization degenerates, so when it leaves a residual above
    1e-11*(1 + |log_h|), it is repeated along log y.  That second search is
    the first one applied to the mirrored problem: swapping x and y turns
    the anchor (X0, Y0) into (Y0, X0), the slope -q/p into -p/q, and the
    curve q*Y - p*X = log_h into (-p)*Y' - (-q)*X' = log_h.  Its root is
    swapped back, and the answer with the smaller residual wins.
    """
    p, q = gen.p, gen.q

    def residual(pt: LogPoint) -> float:
        return abs(q * pt.Y - p * pt.X - log_h)

    pt = _line_root(anchor, q, p, log_h)
    if residual(pt) > 1e-11 * (1.0 + abs(log_h)):
        m = _line_root(LogPoint(anchor.Y, anchor.X), -p, -q, log_h)
        pt = min(pt, LogPoint(m.Y, m.X), key=residual)
    return pt


def segment_curve_intersection(start, generator: LineGenerator, h: float) -> PosPoint:
    """Crossing of the x-space line through start along the generator's
    attracting slope -q/p with the curve y^q = h x^p."""
    return _strip_point(as_log(start), generator, math.log(h)).exp()


def _strip_point(anchor: LogPoint, gen: LineGenerator, sigma: float) -> LogPoint:
    """Point where the x-space line through anchor along gen's attracting
    slope reaches the strip coordinate q*Y - p*X = sigma."""
    p, q = gen.p, gen.q
    if p == 0:
        # Horizontal generator: vertical line, q*Y = sigma directly.
        return LogPoint(anchor.X, sigma / q)
    if q == 0:
        # Vertical generator: horizontal line, -p*X = sigma.
        return LogPoint(-sigma / p, anchor.Y)
    return _curve_cross_on_line(anchor, gen, sigma)


def _crossing_segment(cur: LogPoint, region: UncertaintyRegion,
                      arm_sign: int) -> Segment:
    """Segment from cur across the strip, ending on its far boundary curve."""
    sigma0 = strip_coordinate(cur, region)
    if abs(sigma0) < region.delta_i - STRIP_TOL:
        raise ConstructionFailed(
            "crossing", f"start point lies inside strip {region.index}"
        )
    target = -_sign(sigma0)
    end = _strip_point(cur, region.gen, target * region.delta_i)
    return Segment(cur, end, region.gen, region.index, arm_sign, target)


# ---------------------------------------------------------------------------
# Steps 3-4: polygonal lines


def build_polyline(start: LogPoint, phi: float, ccw: bool, stop_index: int,
                   fan: Fan, delta: float) -> list[Segment]:
    """Cross strips one arm at a time until the stop generator is crossed.

    The traversal follows the angular order of the 2b arm rays, counter-
    clockwise or clockwise from the start point's position angle: the first
    arm more than 1e-12 past it either way.
    """
    arms = _arm_table(fan)
    n = len(arms)
    regions = fan.regions(delta)
    phi = _wrap(phi)
    if ccw:
        k = bisect.bisect_right(arms, phi + 1e-12, key=itemgetter(0)) % n
    else:
        k = (bisect.bisect_left(arms, phi - 1e-12, key=itemgetter(0)) - 1) % n
    segments: list[Segment] = []
    cur = start
    while True:  # the stop generator has an arm among any n consecutive arms
        _, gi, arm_sign = arms[k]
        seg = _crossing_segment(cur, regions[gi], arm_sign)
        segments.append(seg)
        cur = seg.end
        if gi == stop_index:
            return segments
        k = (k + 1) % n if ccw else (k - 1) % n


# ---------------------------------------------------------------------------
# Step 5: closures


def connect_arcs(seg_a: Segment, seg_b: Segment, meet: LogPoint) -> list[Arc]:
    """Connect the ends of two terminal segments along the curves they end on.

    The arcs meet at meet, the closed-form intersection of the two curves;
    if that point does not lie between the terminals along both curves,
    delta is too small for this fan.
    """
    for seg in (seg_a, seg_b):
        ta = along_coordinate(seg.end, seg.gen)
        tp = along_coordinate(meet, seg.gen)
        if _sign(ta) != _sign(tp) or abs(tp) > abs(ta) + 1e-9:
            raise ArcsDontMeet(
                f"curve intersection not between terminals on strip {seg.region_index}"
            )
    return [Arc(seg_a.gen, seg_a.end_sign, seg_a.end, meet),
            Arc(seg_b.gen, seg_b.end_sign, meet, seg_b.end)]


def _extend_segment(seg: Segment, coord: str, value: float) -> Segment:
    """Continue a terminal segment's x-space line until X (or Y) hits value;
    it lies on a stop generator, never an axis one, so it moves both."""
    return Segment(seg.end, seg.at(value, coord == "Y"), seg.gen, seg.region_index,
                   seg.arm_sign, seg.end_sign)


def _close_side(seg_a: Segment, seg_b: Segment, fan: Fan, delta: float):
    """Close one side of the loop between the ends of two terminal segments:
    two arcs meeting where the curves the segments end on cross, or an
    axis-parallel join when that point falls inside an axis strip.

    Returns the pieces, the meeting point of the arcs (None for a join)
    and the joined axis strip's index (None for arcs).
    """
    lo, hi = sorted((seg_a, seg_b), key=lambda seg: seg.region_index)
    cx, cy = _meet_exponents(lo.gen, lo.end_sign, hi.gen, hi.end_sign)
    meet = LogPoint(cx * delta, cy * delta)
    regions = fan.regions(delta)
    axis_hits = [
        r for r in regions
        if r.gen.is_axis and abs(strip_coordinate(meet, r)) < r.delta_i - STRIP_TOL
    ]
    if not axis_hits:
        return connect_arcs(seg_a, seg_b, meet), meet, None
    if len(axis_hits) > 1:
        raise UnsupportedFan("closure point inside two axis strips")
    axisr = axis_hits[0]
    arm = _sign(along_coordinate(meet, axisr.gen))
    coord = "X" if axisr.gen.is_horizontal else "Y"
    term_a, term_b = seg_a.end, seg_b.end
    ca, cb = getattr(term_a, coord), getattr(term_b, coord)
    extreme = min(ca, cb) if arm < 0 else max(ca, cb)
    # The terminal short of the extreme continues its segment's line to it.
    head, tail = [], []
    if (arm < 0 and ca > extreme + 1e-12) or (arm > 0 and ca < extreme - 1e-12):
        ext = _extend_segment(seg_a, coord, extreme)
        head, term_a = [ext], ext.end
    elif (arm < 0 and cb > extreme + 1e-12) or (arm > 0 and cb < extreme - 1e-12):
        ext = _extend_segment(seg_b, coord, extreme)
        tail, term_b = [ext.reversed()], ext.end
    # The join must span the axis strip completely.
    for endpoint in (term_a, term_b):
        if abs(strip_coordinate(endpoint, axisr)) < axisr.delta_i - 1e-9:
            raise ConstructionFailed(
                "closure", "axis-parallel join does not span the axis strip"
            )
    join = Segment(term_a, term_b, axisr.gen, axisr.index, arm, 0)
    return head + [join] + tail, None, axisr.index


# ---------------------------------------------------------------------------
# The assembled boundary


@dataclass
class RegionBoundary:
    """Closed boundary loop with labeled anchors and construction records."""

    fan: Fan
    delta: float
    mode: str
    pieces: tuple
    anchors: dict
    polylines: dict
    points_uc: tuple
    start_max: IntersectionPoint
    start_min: IntersectionPoint
    axis_joins: tuple
    report: dict | None = None

    @property
    def arcs(self) -> list[Arc]:
        return [p for p in self.pieces if isinstance(p, Arc)]

    def chords(self) -> dict[str, tuple[LogPoint, LogPoint]]:
        """The four chords l1..l4 from the start points to the terminals."""
        nm = self.start_max.log
        nm_low = self.start_min.log
        return {
            "l1": (nm, self.anchors["Aq"]),
            "l2": (nm_low, self.anchors["Cr"]),
            "l3": (nm_low, self.anchors["Ds"]),
            "l4": (nm, self.anchors["Bu"]),
        }


def construct_region(fan: Fan, delta: float, validate: bool = True) -> RegionBoundary:
    """Run the full construction, optionally followed by the single-delta
    validation battery (failures raise DeltaTooSmall naming the first
    failing check, with the full report as its ``report``)."""
    classes = compute_slope_classes(fan)
    points = intersection_points(fan, delta)
    start_max, start_min = choose_start_points(points, classes.mode)

    phi_max = _wrap(math.atan2(start_max.cy, start_max.cx))
    phi_min = _wrap(math.atan2(start_min.cy, start_min.cx))
    try:
        i1_segs = build_polyline(start_max.log, phi_max, True, classes.i1, fan, delta)
        i4_segs = build_polyline(start_max.log, phi_max, False, classes.i4, fan, delta)
        i2_segs = build_polyline(start_min.log, phi_min, False, classes.i2, fan, delta)
        i3_segs = build_polyline(start_min.log, phi_min, True, classes.i3, fan, delta)

        side1, p12, join1 = _close_side(i1_segs[-1], i2_segs[-1], fan, delta)
        side2, p34, join2 = _close_side(i3_segs[-1], i4_segs[-1], fan, delta)
    except (ConstructionFailed, ArcsDontMeet, NoCrossing) as exc:
        raise DeltaTooSmall(type(exc).__name__, str(exc)) from exc

    pieces: list = []
    pieces.extend(i1_segs)
    pieces.extend(side1)
    pieces.extend(seg.reversed() for seg in reversed(i2_segs))
    pieces.extend(i3_segs)
    pieces.extend(side2)
    pieces.extend(seg.reversed() for seg in reversed(i4_segs))

    anchors = {
        "NM": start_max.log,
        "nm": start_min.log,
        "Aq": i1_segs[-1].end,
        "Bu": i4_segs[-1].end,
        "Cr": i2_segs[-1].end,
        "Ds": i3_segs[-1].end,
    }
    if p12 is not None:
        anchors["P_i1i2"] = p12
    if p34 is not None:
        anchors["P_i3i4"] = p34
    for name, segs in (("A", i1_segs), ("B", i4_segs), ("C", i2_segs), ("D", i3_segs)):
        for k, seg in enumerate(segs, start=1):
            anchors[f"{name}{k}"] = seg.end

    boundary = RegionBoundary(
        fan=fan,
        delta=delta,
        mode=classes.mode,
        pieces=tuple(pieces),
        anchors=anchors,
        polylines={"I1": i1_segs, "I2": i2_segs, "I3": i3_segs, "I4": i4_segs},
        points_uc=points,
        start_max=start_max,
        start_min=start_min,
        axis_joins=tuple(j for j in (join1, join2) if j is not None),
    )
    if validate:
        report = validate_region(boundary)
        boundary.report = report
        bad = [name for name, res in report.items() if not res["passed"]]
        if bad:
            exc = DeltaTooSmall(bad[0], str(report[bad[0]].get("detail", "")))
            exc.report = report
            raise exc
    return boundary


# ---------------------------------------------------------------------------
# Containment and sampling


def _ray_hit(piece, pt: LogPoint) -> bool:
    """Does the horizontal +X ray from pt cross the piece?

    Half-open convention: the lower Y endpoint is inclusive.
    """
    y0, y1 = piece.start.Y, piece.end.Y
    lo, hi = (y0, y1) if y0 <= y1 else (y1, y0)
    return lo <= pt.Y < hi and piece.at(pt.Y, True).X > pt.X


def region_contains(boundary: RegionBoundary, point,
                    band: float = 1e-9) -> str:
    """Classify a point as 'inside', 'boundary' or 'outside'.

    Boundary means within the given log-space band of some piece; otherwise
    ray casting along +X in log space decides.  NonFinitePoint unless the
    point is finite.
    """
    pt = _finite_log(point, "point")
    if any(piece.band_distance(pt) <= band for piece in boundary.pieces):
        return "boundary"
    crossings = sum(_ray_hit(piece, pt) for piece in boundary.pieces)
    return "inside" if crossings % 2 == 1 else "outside"


# A numpy band distance d differs from the scalar one only by np.hypot's
# rounding, at most an ulp on numpy 2.4 (4 allowed, below 9e-16·d), so it is
# trusted only farther than _TIE_MARGIN·d from the band.
_TIE_MARGIN = 1e-13


def region_contains_batch(boundary: RegionBoundary, X, Y, band) -> list[str]:
    """region_contains' label for every point (X[j], Y[j]) at band[j].

    The band distances of every (point, piece) pair come from one
    broadcast through the pieces' band_distances, whose one bound on the
    gap to the scalar band_distance is _TIE_MARGIN·d.  A pair whose
    distance d lies within that bound of its band, or is nan, is decided by
    the scalar band_distance, unless another piece already claims its
    point: the filtered-predicate pattern of Shewchuk (Discrete Comput.
    Geom. 18, 1997).  The +X rays are cast only from points that no piece
    claims, through ray_crossings, bit for bit as _ray_hit casts them, so
    the crossing parity is the scalar's.  NonFinitePoint names the
    first non-finite point; empty arrays give [] without evaluating a piece.
    """
    X, Y, band = (np.asarray(a, dtype=float) for a in (X, Y, band))
    bad = ~(np.isfinite(X) & np.isfinite(Y))
    if bad.any():
        j = int(np.argmax(bad))
        _finite_log(LogPoint(X[j].item(), Y[j].item()), "point")
    n, pieces = len(X), boundary.pieces
    if n == 0:
        return []
    m = len(pieces)
    pair = np.arange(n * m)  # pair k is point k // m with piece k % m
    pt, pc = pair // m, pair % m
    d = _by_class("band_distances", pieces, pc, X[pt], Y[pt])[0]
    b = band[pt]
    tie = ~(np.abs(d - b) > _TIE_MARGIN * d)  # also where d is nan
    claimed = ((d <= b) & ~tie).reshape(n, m).any(axis=1)
    for k in np.flatnonzero(tie & ~claimed[pt]).tolist():
        j = k // m
        if not claimed[j]:
            point = LogPoint(X[j].item(), Y[j].item())
            claimed[j] = pieces[k % m].band_distance(point) <= band[j]
    labels = ["boundary"] * n
    rest = np.flatnonzero(~claimed)
    pt = rest[pair[:len(rest) * m] // m]
    cx, spans = _by_class("ray_crossings", pieces, pc[:len(pt)], X[pt], Y[pt])
    odd = ((spans == 1.0) & (cx > X[pt])).reshape(-1, m).sum(axis=1) % 2 == 1
    for j, o in zip(rest.tolist(), odd.tolist()):
        labels[j] = "inside" if o else "outside"
    return labels


def _by_class(method: str, pieces, index, *arrays) -> np.ndarray:
    """A piece-class array method over the elements of pieces[index].

    Each class's method(own, which, *arrays) evaluates the elements on its
    own pieces (which indexes those); its two result arrays come back as
    the rows of one (2, len(index)) array, and one array fills both rows.
    """
    out = np.empty((2, len(index)))
    for cls in dict.fromkeys(map(type, pieces)):
        own = [k for k, p in enumerate(pieces) if type(p) is cls]
        local = np.full(len(pieces), -1)
        local[own] = np.arange(len(own))
        which = local[index]
        at = which >= 0
        out[:, at] = getattr(cls, method)([pieces[k] for k in own], which[at],
                                          *(a[at] for a in arrays))
    return out


def _chains(pieces, n: int) -> np.ndarray:
    """Every piece's points at u = i / n, i = 0..n: arrays (X, Y) of shape
    (pieces, n + 1)."""
    index = np.repeat(np.arange(len(pieces)), n + 1)
    u = np.tile(np.arange(n + 1) / n, len(pieces))
    return _by_class("points_at", pieces, index, u).reshape(2, len(pieces), n + 1)


_MIN_PIECE_SAMPLES = 4  # boundary samples on even the shortest piece


def sample_boundary(boundary: RegionBoundary, total: int):
    """Deterministic interior samples of every piece, count ~ log length.

    A piece of log length l = |dX| + |dY| (at least 1e-12) gets
    n = max(_MIN_PIECE_SAMPLES, round(total * l / L)) samples, L the sum of
    all lengths, at u = (j + 1/2) / n for j < n, in piece order.  Returns
    arrays (X, Y, piece index).
    """
    pieces = boundary.pieces
    ends = _ends(pieces)
    lengths = np.maximum(np.abs(ends[:, 2] - ends[:, 0]) + np.abs(ends[:, 3] - ends[:, 1]), 1e-12)
    # Summed left to right: np.sum's pairwise order can round differently.
    whole = sum(lengths.tolist())
    counts = np.maximum(_MIN_PIECE_SAMPLES, np.rint(total * lengths / whole)).astype(int)
    index = np.repeat(np.arange(len(pieces)), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    u = (np.arange(len(index)) - first + 0.5) / np.repeat(counts, counts)
    return (*_by_class("points_at", pieces, index, u), index)


# ---------------------------------------------------------------------------
# Convex hull and the level function


def _monotone_chain(pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2:
                o, a = chain[-2], chain[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0.0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


_HULL_ARC_SAMPLES = 256  # conv_hull samples an arc at u = k / _HULL_ARC_SAMPLES
_HULL_ARC_U = np.arange(1, _HULL_ARC_SAMPLES) / _HULL_ARC_SAMPLES
_HULL_MARGIN = 1e-12  # relative cross-product margin of conv_hull's interior filter
_HULL_FILTER_LOG = 230.0  # conv_hull filters only while every |log coordinate| is below this


def _exp_all(logs: list[float]) -> list[float]:
    """math.exp of each log coordinate; MonomialOverflow past about 709.78."""
    try:
        return list(map(math.exp, logs))
    except OverflowError:
        raise MonomialOverflow(f"log coordinate {max(logs):.6g} exponentiates beyond "
                               "the float range") from None


def conv_hull(boundary: RegionBoundary) -> list[tuple[float, float]]:
    """Convex hull of the boundary in x-space (CCW vertex list).

    Segments are straight in x-space so only their endpoints matter.  Arcs
    are curved in x-space and can bulge outward past the chord between
    their endpoints, extending the hull, so each arc is sampled at its
    _HULL_ARC_SAMPLES - 1 interior log points s + u*(e - s), formed as
    Arc.points_at forms them.  (For the fan {(-1,1),(1,2),(2,1),(1,3)} at
    delta = 1 the hull has 50 vertices; the endpoints alone give 10.)
    The samples are exponentiated with math.exp: np.exp differs from it in
    the last place on about one in eleven of them, which would move hull
    vertices.

    The hull of the piece endpoints is a subset of the full hull, so a
    point strictly inside it is not a vertex of the full hull, and such
    points are dropped before the monotone chain.  Strictly inside means
    that on every edge the cross product exceeds 1e-12 times the sum of
    its two terms' magnitudes, far above its rounding error, so the chain
    returns the vertex list it returns on all the points.  The filter runs
    only while every coordinate lies in (e^-230, e^230): there the chain's
    cross products neither underflow nor overflow.  Beyond that range an
    underflowed product can pop a vertex, so points the filter would drop
    can change the chain's result (an atlas fan at delta = 100, whose
    coordinates reach down to 1e-281, showed it).
    """
    ends = [(pt.X, pt.Y) for piece in boundary.pieces for pt in (piece.start, piece.end)]
    s = np.array([(a.start.X, a.start.Y) for a in boundary.arcs]).reshape(-1, 1, 2)
    e = np.array([(a.end.X, a.end.Y) for a in boundary.arcs]).reshape(-1, 1, 2)
    X, Y = np.concatenate([ends, (s + _HULL_ARC_U[:, None] * (e - s)).reshape(-1, 2)]).T
    xs, ys = _exp_all(X.tolist()), _exp_all(Y.tolist())
    pts = list(zip(xs, ys))
    inner = _monotone_chain(pts[:len(ends)])
    if len(inner) >= 3 and max(np.abs(X).max(), np.abs(Y).max()) < _HULL_FILTER_LOG:
        hx, hy = np.array(inner).T
        a = (np.roll(hx, -1) - hx) * (np.array(ys)[:, None] - hy)
        b = (np.roll(hy, -1) - hy) * (np.array(xs)[:, None] - hx)
        strict = (a - b > _HULL_MARGIN * (np.abs(a) + np.abs(b))).all(axis=1)
        pts = list(itertools.compress(pts, (~strict).tolist()))
    return _monotone_chain(pts)


def hull_contains(hull: list[tuple[float, float]], point,
                  rel_tol: float = 1e-9) -> bool:
    """Point-in-convex-polygon with a relative tolerance on each edge."""
    pt = as_log(point)
    px, py = _exp_all([pt.X, pt.Y])
    m = len(hull)
    if m == 0:
        return False
    if m == 1:
        return math.isclose(px, hull[0][0], rel_tol=1e-9) and math.isclose(py, hull[0][1], rel_tol=1e-9)
    for k in range(m):
        ax, ay = hull[k]
        bx, by = hull[(k + 1) % m]
        ex, ey = bx - ax, by - ay
        dx, dy = px - ax, py - ay
        cross = ex * dy - ey * dx
        scale = math.hypot(ex, ey) * (math.hypot(dx, dy) + 1e-300)
        if cross < -rel_tol * scale:
            return False
    return True


@functools.lru_cache(maxsize=4096)
def _hull(fan: Fan, delta: float) -> list[tuple[float, float]]:
    """Hull of the region at delta, shared by the probes of every phi_level query."""
    return conv_hull(construct_region(fan, delta, validate=False))


def _level_measure(hull: list[tuple[float, float]], pt: LogPoint) -> float:
    """Signed measure of pt against the hull, read only to place phi_level's probes.

    The log-space ray from the origin (x-space (1,1), inside every region)
    through pt leaves the polygon of the hull's vertices, taken to log
    coordinates, at t * pt; the measure is log t, positive when pt lies
    inside that polygon.  An edge counts as met within 1e-9 of its ends, so
    a ray through a vertex meets it despite rounding.  NaN when a vertex is
    at 0.0 or no edge meets the ray.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        xy = np.fromiter(itertools.chain.from_iterable(hull), float, 2 * len(hull))
        v = np.log(xy).reshape(-1, 2)
        e = np.roll(v, -1, axis=0) - v
        den = pt.X * e[:, 1] - pt.Y * e[:, 0]
        t = (v[:, 0] * e[:, 1] - v[:, 1] * e[:, 0]) / den
        s = (v[:, 0] * pt.Y - v[:, 1] * pt.X) / den
    hit = (s >= -1e-9) & (s <= 1.0 + 1e-9) & (t > 0.0)
    if not np.isfinite(v).all() or not hit.any():
        return math.nan
    return math.log(t[hit].max())


_LEVEL_TOL = 1e-9  # phi_level stops once its delta bracket is at most this wide


def phi_level(point, fan: Fan, delta_lo: float, delta_hi: float) -> float:
    """The delta in [delta_lo, delta_hi] whose convex boundary carries the point.

    Returns the midpoint of a bracket [lo, hi] with hi - lo <= _LEVEL_TOL,
    where hull_contains(_hull(fan, hi), pt) is True and
    hull_contains(_hull(fan, lo), pt) is False; at lo = delta_lo the point
    is only known not to lie strictly inside.  A band of width at most
    _LEVEL_TOL returns its midpoint after the two end checks.  OutOfBand if
    delta_lo > delta_hi, if the point is outside the outer hull or if it is
    strictly interior to the inner one; MonomialOverflow if a hull or the
    point is beyond the float range.

    hull_contains decides every bracket update; _level_measure only places
    the next probe.  That measure is log(delta / level) when the point lies
    on the ray of a hull vertex, so the probe is its secant point in
    log delta, exp((log lo * m_hi - log hi * m_lo) / (m_hi - m_lo)): the
    level itself on such a point.  The secant point is checked against
    [log lo, log hi] before exp, so it cannot overflow, and kept
    _LEVEL_TOL / 2 inside the bracket.  A bisection step replaces it when
    it is not finite or outside the bracket.  Either probe is then
    projected as in ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2020) with
    one probe of slack: into the interval from which the bracket still
    narrows to _LEVEL_TOL within bisection's probe count plus one, less an
    ulp of delta_hi per probe for rounding.  So a poor measure costs probes,
    never correctness: no query makes more than
    ceil(log2((delta_hi - delta_lo) / _LEVEL_TOL)) + 1 interior probes.
    """
    pt = as_log(point)
    if delta_lo > delta_hi:
        raise OutOfBand(f"empty band [{delta_lo}, {delta_hi}]: delta_lo exceeds delta_hi")
    hull_hi = _hull(fan, delta_hi)
    if not hull_contains(hull_hi, pt):
        raise OutOfBand(f"point outside conv(P({delta_hi}))")
    hull_lo = _hull(fan, delta_lo)
    if hull_contains(hull_lo, pt, rel_tol=-1e-9):
        raise OutOfBand(f"point strictly inside conv(P({delta_lo}))")
    lo, hi = delta_lo, delta_hi
    band = hi - lo
    if band <= _LEVEL_TOL:
        return 0.5 * (lo + hi)
    m_lo, m_hi = _level_measure(hull_lo, pt), _level_measure(hull_hi, pt)
    # Bisection needs n interior probes; with one of slack the bracket may
    # be at most reach wide after the next probe and half that after each
    # later one.  Every probe may overshoot reach by half an ulp of
    # delta_hi, so reach starts short of _LEVEL_TOL * 2^n by n + 1 ulps.
    n = math.ceil(math.log2(band / _LEVEL_TOL))
    reach = (_LEVEL_TOL - (n + 1) * math.ulp(delta_hi)) * 2.0 ** n
    while True:
        log_lo, log_hi = math.log(lo), math.log(hi)
        s = (log_lo * m_hi - log_hi * m_lo) / (m_hi - m_lo) if m_hi != m_lo else math.nan
        if not log_lo <= s <= log_hi:
            c = 0.5 * (lo + hi)
        else:
            c = min(max(math.exp(s), lo + 0.5 * _LEVEL_TOL), hi - 0.5 * _LEVEL_TOL)
        c = min(max(c, hi - reach), lo + reach)
        reach *= 0.5
        hull = _hull(fan, c)
        inside = hull_contains(hull, pt)
        if inside:
            hi = c
        else:
            lo = c
        if hi - lo <= _LEVEL_TOL:
            return 0.5 * (lo + hi)
        if inside:
            m_hi = _level_measure(hull, pt)
        else:
            m_lo = _level_measure(hull, pt)


# ---------------------------------------------------------------------------
# Single-delta validation battery


_LOOP_CHORDS = 32  # chords per piece in the simple-loop test


def _loop_checks(boundary: RegionBoundary) -> tuple[dict, dict]:
    pieces = boundary.pieces
    worst = 0.0
    for k, piece in enumerate(pieces):
        nxt = pieces[(k + 1) % len(pieces)]
        gap = max(abs(piece.end.X - nxt.start.X), abs(piece.end.Y - nxt.start.Y))
        worst = max(worst, gap)
    closed = {"passed": worst <= 1e-9, "worst": worst, "detail": "max endpoint gap"}

    # Approximate simplicity test: each piece is a chain of _LOOP_CHORDS
    # chords, and two pieces cross when a chord of one meets a chord of the
    # other strictly inside both (contact at shared anchors does not count).
    # All piece pairs a < b whose bounding boxes meet are tested at once.
    chains = np.stack(_chains(pieces, _LOOP_CHORDS), axis=-1)
    lo, hi = chains.min(axis=1), chains.max(axis=1)
    starts, steps = chains[:, :-1], np.diff(chains, axis=1)
    a, b = np.triu_indices(len(pieces), 1)
    near = np.all((hi[b] >= lo[a] - 1e-9) & (lo[b] <= hi[a] + 1e-9), axis=1)
    a, b = a[near], b[near]
    # Chord i of piece a against chord j of piece b: (pair, i, j).
    p1, d1 = starts[a, :, None], steps[a, :, None]
    p3, d2 = starts[b, None], steps[b, None]
    e = p3 - p1
    with np.errstate(all="ignore"):  # the products overflow at huge delta
        den = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
        t = (e[..., 0] * d2[..., 1] - e[..., 1] * d2[..., 0]) / den
        u = (e[..., 0] * d1[..., 1] - e[..., 1] * d1[..., 0]) / den
    eps = 1e-9
    hit = (np.abs(den) >= 1e-300) & (eps < t) & (t < 1.0 - eps) & (eps < u) & (u < 1.0 - eps)
    bad = int(np.count_nonzero(hit.any(axis=(1, 2))))
    simple = {"passed": bad == 0, "worst": float(bad), "detail": "crossing piece pairs"}
    return closed, simple


def _chain_strictly_increasing(slopes: list[Fraction]) -> bool:
    return all(a < b for a, b in zip(slopes, slopes[1:]))


def _slope_chain_check(boundary: RegionBoundary) -> dict:
    """Slope monotonicity of the polyline chains (signs only in standard mode).

    Axis-strip crossings are axis-parallel and carry no finite slope; they
    are skipped when emitting slopes but still position the anchor B_p.
    """
    def slopes(segs) -> list[Fraction]:
        return [s.slope for s in segs if s.slope is not None]

    i1, i2, i3, i4 = (boundary.polylines[name] for name in ("I1", "I2", "I3", "I4"))
    # B_p = the I4 anchor with the largest x coordinate.
    p_idx = max(range(len(i4)), key=lambda k: i4[k].end.X)
    chain1 = slopes(reversed(i4[: p_idx + 1])) + slopes(i1)
    chain2 = slopes(reversed(i2)) + slopes(i3)
    chain3 = slopes(reversed(i4[p_idx + 1:]))
    ok = (_chain_strictly_increasing(chain1)
          and _chain_strictly_increasing(chain2)
          and _chain_strictly_increasing(chain3))
    detail = ""
    if boundary.mode == "standard":
        if not all(s < 0 for s in chain2):
            ok, detail = False, "chain 2 has a nonnegative slope"
        if not all(s > 0 for s in chain3):
            ok, detail = False, "chain 3 has a nonpositive slope"
    return {"passed": ok, "worst": 0.0 if ok else 1.0, "detail": detail or "strict order"}


def _first_max(values: np.ndarray, X: np.ndarray, Y: np.ndarray, floor):
    """Largest value above floor and the first sample (X, Y) with it, or
    (floor, None)."""
    if values.max(initial=floor) == floor:
        return floor, None
    k = int(np.argmax(values))
    return values[k].item(), (X[k].item(), Y[k].item())


def _nagumo_check(boundary: RegionBoundary, samples) -> dict:
    X, Y, piece = samples
    n0, n1 = _by_class("normals_at", boundary.pieces, piece, X, Y)
    values, index = rhs_bruteforce_batch(X, Y, boundary.fan, boundary.delta, STRIP_TOL)
    # Each value's extreme rays (at most 3), gathered per sample and dotted
    # with its normal as ray . n rounds; -inf past a value's last ray.
    rays = np.zeros((len(values), 3, 2))
    has = np.zeros((len(values), 3), dtype=bool)
    for j, value in enumerate(values):
        k = len(value.extreme_rays())
        rays[j, :k] = np.reshape(value.extreme_rays(), (k, 2))
        has[j, :k] = True
    rays, has = rays[index], has[index]
    out = np.where(has, rays[..., 0] * n0[:, None] + rays[..., 1] * n1[:, None], -math.inf)
    worst, witness = _first_max(out.max(axis=1), X, Y, -math.inf)
    return {"passed": worst <= 1e-9, "worst": worst if witness else 0.0, "witness": witness,
            "detail": "max extreme-ray outward component"}


def _r_le_1_check(boundary: RegionBoundary, samples) -> dict:
    X, Y, _ = samples
    gens = boundary.fan.generators
    s = np.abs(np.outer(Y, [g.q for g in gens]) - np.outer(X, [g.p for g in gens]))
    half = np.array([delta_i(g, boundary.delta) for g in gens]) - STRIP_TOL
    worst, witness = _first_max((s < half).sum(axis=1), X, Y, 0)
    return {"passed": worst <= 1, "worst": float(worst), "witness": witness,
            "detail": "max r(x) on boundary"}


def _suc_check(boundary: RegionBoundary, labels: list[str]) -> dict:
    """labels: the containment label of each S^uc point, at band 1e-7."""
    bad = 0
    witness = None
    for ip, label in zip(boundary.points_uc, labels):
        if label == "outside":
            bad += 1
            witness = witness or (ip.log.X, ip.log.Y)
    return {"passed": bad == 0, "worst": float(bad), "witness": witness,
            "detail": "S^uc points outside the region"}


def _falls(a: LogPoint, b: LogPoint) -> bool:
    """Does the x-space chord a-b have a strictly negative slope?

    exp is increasing, so the log displacements carry the signs; a vertical
    or flat chord does not fall.
    """
    dX, dY = b.X - a.X, b.Y - a.Y
    return dX < 0.0 < dY or dY < 0.0 < dX


def _cone_containment_check(boundary: RegionBoundary) -> dict:
    """Lemma-style cone checks at the two start points (standard mode)."""
    ch = boundary.chords()
    nm = boundary.start_max
    issues = []
    rising = [name for name in ("l2", "l3") if not _falls(*ch[name])]
    if rising:
        issues.append(f"slopes of {'/'.join(rising)} not negative")
    tie = abs(nm.cx - nm.cy) <= _EXP_TOL
    if nm.cy >= nm.cx - _EXP_TOL:
        if not (_falls(*ch["l4"]) and boundary.anchors["Aq"].X < nm.log.X):
            issues.append("vertical-ray case: slope(l4) >= 0 or x_q >= N")
    if tie or nm.cx > nm.cy - _EXP_TOL:
        if not (_falls(*ch["l1"]) and boundary.anchors["Bu"].Y < nm.log.Y):
            issues.append("horizontal-ray case: slope(l1) >= 0 or y_u >= M")
    return {"passed": not issues, "worst": float(len(issues)),
            "detail": "; ".join(issues) or "cones contain the stated rays"}


def _log_mix(a: float, b: float, u: float) -> float:
    """log((1 - u)*e^a + u*e^b), without forming e^a or e^b."""
    m = max(a, b)
    return m + math.log((1.0 - u) * math.exp(a - m) + u * math.exp(b - m))


_CHORD_U = (0.25, 0.5, 0.75)  # fractions of each chord whose points must lie inside


def _chord_points(boundary: RegionBoundary) -> list[LogPoint]:
    """The points at _CHORD_U of each x-space chord, chord by chord."""
    return [LogPoint(_log_mix(a.X, b.X, u), _log_mix(a.Y, b.Y, u))
            for a, b in boundary.chords().values() for u in _CHORD_U]


def _chords_inside_check(boundary: RegionBoundary, labels: list[str]) -> dict:
    """labels: the containment label of each _chord_points point, at band 1e-7."""
    keys = [(name, u) for name in boundary.chords() for u in _CHORD_U]
    bad = [key for key, label in zip(keys, labels) if label == "outside"]
    return {"passed": not bad, "worst": float(len(bad)),
            "detail": f"chord points outside: {bad}" if bad else "chords inside"}


_ARC_SAMPLES = 64  # points per arc in the tangent monotonicity check


def _arc_monotonicity_check(boundary: RegionBoundary) -> dict:
    """Tangent slopes along every arc must vary strictly monotonically.

    On y^q = h x^p the tangent slope is the constant p/q times e^(Y - X).
    Arcs lie only on generators off the axes, so p/q is nonzero and the
    slope is strictly monotone exactly where Y - X is.  Each arc is sampled
    at u = k / _ARC_SAMPLES, k = 0.._ARC_SAMPLES.  The witness is the first
    sample of the first failing arc whose step from the previous sample
    does not go the way the arc's first step goes.
    """
    arcs = boundary.arcs
    X, Y = _chains(arcs, _ARC_SAMPLES)
    d = Y - X
    inc, dec = d[:, :-1] < d[:, 1:], d[:, :-1] > d[:, 1:]
    failing = ~(inc.all(axis=1) | dec.all(axis=1))
    bad = [str(arc.gen) for arc, f in zip(arcs, failing.tolist()) if f]
    witness = None
    if bad:
        a = int(np.argmax(failing))
        k = 1 + int(np.argmin(inc[a] if inc[a, 0] else dec[a]))
        witness = (X[a, k].item(), Y[a, k].item())
    return {"passed": not bad, "worst": float(len(bad)), "witness": witness,
            "detail": f"non-monotone arcs on {bad}" if bad else "tangent slopes monotone"}


_VALIDATION_SAMPLES = 512  # boundary samples (arrays X, Y, piece) for the r <= 1 and Nagumo checks


def validate_region(boundary: RegionBoundary) -> dict:
    """Single-delta validation battery; returns {check: result} dicts.

    Every check that evaluates the boundary away from its anchors does so
    in array passes: sample_boundary's points feed the r <= 1 and Nagumo
    checks, and the loop and arc checks take their point chains from the
    same per-class points_at methods.  The S^uc points, the chord points
    (both at band 1e-7) and (1,1) (at region_contains' default 1e-9) are
    classified in one region_contains_batch call.  A failed check names a
    witness point where it has one.
    """
    report = {}
    closed, simple = _loop_checks(boundary)
    report["closed_loop"] = closed
    report["simple_loop"] = simple
    probes = [ip.log for ip in boundary.points_uc] + _chord_points(boundary)
    X = np.array([pt.X for pt in probes] + [0.0])
    Y = np.array([pt.Y for pt in probes] + [0.0])
    labels = region_contains_batch(boundary, X, Y, np.append(np.full(len(probes), 1e-7), 1e-9))
    n_uc = len(boundary.points_uc)
    report["suc_in_region"] = _suc_check(boundary, labels[:n_uc])
    pts = sample_boundary(boundary, _VALIDATION_SAMPLES)
    report["r_le_1"] = _r_le_1_check(boundary, pts)
    report["slope_chains"] = _slope_chain_check(boundary)
    report["nagumo"] = _nagumo_check(boundary, pts)
    origin = labels[-1]
    report["origin_interior"] = {
        "passed": origin == "inside", "worst": 0.0 if origin == "inside" else 1.0,
        "detail": f"(1,1) classified {origin}",
    }
    if boundary.mode == "standard":
        report["cone_containment"] = _cone_containment_check(boundary)
    report["chords_inside"] = _chords_inside_check(boundary, labels[n_uc:-1])
    report["arc_tangent_monotonicity"] = _arc_monotonicity_check(boundary)
    return report
