"""Construction of the minimal invariant region and its boundary loop.

The boundary is assembled from straight x-space segments that cross the
uncertainty strips along their attracting directions, plus arcs of the
bounding power curves y^q = h x^p that close the loop.  Anchor points keep
their delta-independent exponents so start-point selection stays exact in
the large-delta asymptotics.
"""

import collections
import functools
import itertools
import math
from dataclasses import astuple, dataclass
from fractions import Fraction

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
    _fan_table,
    _finite_log,
    _flanking_arms,
    _in_strip,
    _meet_exponents,
    _uc_pairs,
    along_coordinate,
    as_log,
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
    """All 4 * C(b, 2) pairwise curve intersections (the set S^uc), in _uc_pairs order."""
    return tuple(IntersectionPoint(*pair, cx, cy, delta)
                 for pair, cx, cy in zip(_uc_pairs(fan.b), *_fan_table(fan).uc))


# ---------------------------------------------------------------------------
# Step 2: start points


_EXP_TOL = 1e-9  # tolerance on unit-delta exponents when ranking coordinates


def choose_start_points(points, mode: str):
    """Pick ((N,M), (n,m)) from S^uc.

    (N,M) maximizes the larger coordinate; on an x/y tie the point whose
    maximum is the y coordinate wins, then proximity to the diagonal, then
    provenance order.  (n,m) minimizes the larger coordinate (the smaller
    one in the fan's SlopeClasses mode "all_negative"), never coincides
    with (N,M), and breaks ties the same way.  ValueError with < 2 points.
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

    def at(self, c: float, mirrored: bool) -> LogPoint:
        """Point of the piece's line with log x = c (log y = c if mirrored),
        evaluated from the nearer endpoint."""
        a, b = self.start, self.end
        if (abs(c - b.Y) < abs(c - a.Y)) if mirrored else (abs(c - b.X) < abs(c - a.X)):
            a = b
        dx, dy = self.direction
        if mirrored:  # the kernel on the x<->y mirror
            return LogPoint(_line_y_log(a.Y, a.X, dx / dy, c), c)
        return LogPoint(c, _line_y_log(a.X, a.Y, dy / dx, c))

    def band_distance(self, pt: LogPoint) -> float:
        """Approximate log-space distance from a point to the piece.

        Beyond the piece's span on its dominant log axis, the distance to the
        nearer endpoint; within it, the distance to the tangent of the line's
        log-space image at the line point level with pt on that axis.  The
        tangent can pass near a point far beyond the piece's span on the
        other axis, so the value means something only inside the log-space
        box of the piece's ends, where region_contains asks for it.
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

    def at(self, c: float, mirrored: bool) -> LogPoint:
        """Point of the arc's log line with log x = c (log y = c if mirrored)."""
        g, a = self.gen, self.start
        k = g.q * a.Y - g.p * a.X
        if mirrored:
            return LogPoint((g.q * c - k) / g.p, c)
        return LogPoint(c, (k + g.p * c) / g.q)

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


_EXP_SAFE = 700.0  # exponents below this keep e^(...) finite in the line kernel


def _line_y_log(X0: float, Y0: float, s: float, X: float) -> float:
    """Log of y at log-x X on the x-space line of slope s through (X0, Y0).

    This is the one evaluation of an x-space line; log x at log-y Y is the
    same call on the x<->y mirror, _line_y_log(Y0, X0, dx/dy, Y).

    y = y0 * (1 + z) with z = s * e^(X0 - Y0) * expm1(X - X0).  The product
    is formed directly while its exponents stay below _EXP_SAFE and it is
    finite, and from the sum of the logs of its factors otherwise.  Raises
    NoCrossing where the line has left the positive quadrant (1 + z <= 0).
    """
    e = X0 - Y0
    t = X - X0
    direct = -_EXP_SAFE < e < _EXP_SAFE and t < _EXP_SAFE and e + t < _EXP_SAFE
    z = s * math.exp(e) * math.expm1(t) if direct else math.nan
    if not math.isfinite(z):
        if s == 0.0 or t == 0.0:
            return Y0
        # log|z|, with log|expm1(t)| = max(t, 0) + log(1 - e^-|t|).
        lz = math.log(abs(s)) + e + max(t, 0.0) + math.log(-math.expm1(-abs(t)))
        if lz > _EXP_SAFE and s * t > 0.0:
            return Y0 + lz  # log1p(z) - lz = log1p(1/z) is below 1e-304
        z = math.copysign(math.exp(min(lz, _EXP_SAFE)), s * t)
    if z > -1.0:
        return Y0 + math.log1p(z)
    raise NoCrossing("the line leaves the positive quadrant")


def _math_map(fn, *arrays) -> np.ndarray:
    """fn from math applied elementwise: numpy's exp, expm1, log1p and
    hypot differ from math's in the last place on some inputs."""
    return np.fromiter(map(fn, *(a.tolist() for a in arrays)), float, len(arrays[0]))


def _line_y_log_batch(X0, Y0, s, X) -> np.ndarray:
    """_line_y_log elementwise over arrays, bit for bit: each branch in the
    same math functions and order of operations.  A direct element of slope
    below 1e4 has |z| < 1e4 * e^700, finite, so where all are such the log
    form is skipped.  NoCrossing if any element has left the quadrant.
    """
    e, t = X0 - Y0, X - X0
    direct = (-_EXP_SAFE < e) & (e < _EXP_SAFE) & (t < _EXP_SAFE) & (e + t < _EXP_SAFE)
    out, keep = np.empty_like(X), slice(None)  # keep: the elements whose value is Y0 + log1p(z)
    if direct.all() and (np.abs(s) < 1e4).all():
        z = s * _math_map(math.exp, e) * _math_map(math.expm1, t)
    else:
        with np.errstate(all="ignore"):  # inf and NaN arise silently, as in Python floats
            z = np.full_like(X, np.nan)
            z[direct] = s[direct] * _math_map(math.exp, e[direct]) * _math_map(math.expm1, t[direct])
            out[:], keep = Y0, np.isfinite(z)  # the log form's value where s = 0 or t = 0
            k = np.flatnonzero(~keep & (s != 0.0) & (t != 0.0))
            sk, tk = s[k], t[k]
            lz = (_math_map(math.log, np.abs(sk)) + e[k] + np.maximum(tk, 0.0)
                  + _math_map(math.log, -_math_map(math.expm1, -np.abs(tk))))
            far = (lz > _EXP_SAFE) & (sk * tk > 0.0)
            out[k[far]] += lz[far]
            z[k] = np.copysign(_math_map(math.exp, np.minimum(lz, _EXP_SAFE)), sk * tk)
            keep[k[~far]] = True
        z = z[keep]
    if not (z > -1.0).all():
        raise NoCrossing("the line leaves the positive quadrant")
    out[keep] = Y0[keep] + _math_map(math.log1p, z)
    return out


# ---------------------------------------------------------------------------
# Segment / curve crossings


def _softplus(v: float) -> float:
    """log(1 + e^v), without overflow."""
    return max(v, 0.0) + math.log1p(math.exp(-abs(v)))


def _curve_cross_on_line(anchor: LogPoint, gen: LineGenerator, log_h: float) -> LogPoint:
    """Crossing of the x-space line through anchor along gen's attracting
    slope -q/p with the curve q*Y - p*X = log_h, by Newton steps.

    The line q*x + p*y = c is walked by a parameter v that covers all of
    it inside the quadrant; sp is the softplus and w0 = log(q*x0) -
    log(|p|*y0) at the anchor.  For p > 0, q*x and p*y split c as
    c*sigmoid(v) and c*sigmoid(-v): v0 = w0, X - X0 = (v - v0) - (sp(v) -
    sp(v0)) and Y - Y0 = -(sp(v) - sp(v0)).  For p < 0, the larger of q*x
    and |p|*y is |c|*(1 + e^v) and the smaller |c|*e^v: X moves by sp(v) -
    sp(v0) and Y by v - v0 when w0 > 0, and the other way round otherwise.

    The residual F(v) = g0 + A*(v - v0) + B*(sp(v) - sp(v0)) has a slope
    between A and A + B, which share a sign, and is convex or concave with
    linear asymptotes.  So the first step may pass the root, and after it
    |F| falls; the steps stop when it stops falling.  c = 0 (p < 0, w0 = 0)
    is the log line X - Y = const, where the root is closed form.
    """
    p, q = gen.p, gen.q
    X0, Y0 = anchor.X, anchor.Y
    g0 = q * Y0 - p * X0 - log_h
    if g0 == 0.0:
        return anchor
    w0 = (math.log(q) + X0) - (math.log(abs(p)) + Y0)
    if p > 0:
        v0, (aX, bX, aY, bY) = w0, (1, -1, 0, -1)
    elif w0 == 0.0:
        t = -g0 / (q - p)
        return LogPoint(X0 + t, Y0 + t)
    else:
        v0 = -abs(w0) - math.log(-math.expm1(-abs(w0)))
        aX, bX, aY, bY = (0, 1, 1, 0) if w0 > 0.0 else (1, 0, 0, 1)
    A, B = q * aY - p * aX, q * bY - p * bX
    sp0 = _softplus(v0)

    def step(v: float, f: float) -> tuple[float, float]:
        v -= f / (A + B * math.exp(v - _softplus(v)))
        return v, g0 + A * (v - v0) + B * (_softplus(v) - sp0)

    v, f = step(v0, g0)
    while f:
        v1, f1 = step(v, f)
        if not abs(f1) < abs(f):
            break
        v, f = v1, f1
    d = _softplus(v) - sp0
    return LogPoint(X0 + aX * (v - v0) + bX * d, Y0 + aY * (v - v0) + bY * d)


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


def _crossing_segment(cur: LogPoint, row: tuple, gen: LineGenerator,
                      arm_sign: int) -> Segment:
    """Segment from cur across the strip of gen, whose Fan.regions row is
    row, ending on the strip's far boundary curve."""
    i, q, p, half_width, _, _ = row
    if _in_strip(row, cur.X, cur.Y):
        raise ConstructionFailed(f"crossing: start point lies inside strip {i}")
    target = -_sign(q * cur.Y - p * cur.X)
    end = _strip_point(cur, gen, target * half_width)
    return Segment(cur, end, gen, i, arm_sign, target)


# ---------------------------------------------------------------------------
# Steps 3-4: polygonal lines


def _arm_walk(fan: Fan, X: float, Y: float, ccw: bool,
              stop_index: int) -> tuple[tuple[int, int], ...]:
    """The arms (generator index, arm sign) that a polyline from the point
    (X, Y), on no arm, crosses, in order, up to and including the stop
    generator's.

    The traversal follows the angular order of the 2b arm rays, counter-
    clockwise or clockwise from the point: the first arm past it either
    way, the ends of the sector that _flanking_arms finds it in.
    """
    arms = _fan_table(fan).arms
    n = len(arms)
    k = (_flanking_arms(X, Y, arms) + ccw) % n
    walk = []
    while True:  # the stop generator has an arm among any n consecutive arms
        _, gi, arm_sign = arms[k]
        walk.append((gi, arm_sign))
        if gi == stop_index:
            return tuple(walk)
        k = (k + 1) % n if ccw else (k - 1) % n


def build_polyline(start: LogPoint, walk, rows, gens) -> list[Segment]:
    """Cross the strips of the walk's arms (gi, arm_sign) one at a time,
    each segment starting where the last ended: rows[gi] is the strip's
    Fan.regions row and gens[gi] its generator."""
    segments: list[Segment] = []
    cur = start
    for gi, arm_sign in walk:
        seg = _crossing_segment(cur, rows[gi], gens[gi], arm_sign)
        segments.append(seg)
        cur = seg.end
    return segments


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


def _close_side(seg_a: Segment, seg_b: Segment, rows, gens, delta: float):
    """Close one side of the loop between the ends of two terminal segments:
    two arcs meeting where the curves the segments end on cross, or an
    axis-parallel join when that point falls inside an axis strip: of the
    rows of Fan.regions(delta), those whose generator in gens is an axis.

    Returns the pieces and the meeting point of the arcs (None for a
    join).  A join is the Segment with end_sign 0.
    """
    lo, hi = sorted((seg_a, seg_b), key=lambda seg: seg.region_index)
    cx, cy = _meet_exponents(lo.gen, lo.end_sign, hi.gen, hi.end_sign)
    meet = LogPoint(cx * delta, cy * delta)
    axis_hits = [row for row in rows if gens[row[0]].is_axis and _in_strip(row, meet.X, meet.Y)]
    if not axis_hits:
        return connect_arcs(seg_a, seg_b, meet), meet
    if len(axis_hits) > 1:
        raise UnsupportedFan("closure point inside two axis strips")
    row = axis_hits[0]
    i = row[0]
    arm = _sign(along_coordinate(meet, gens[i]))
    coord = "X" if gens[i].is_horizontal else "Y"
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
        if _in_strip(row, endpoint.X, endpoint.Y):
            raise ConstructionFailed("closure: axis-parallel join does not span the axis strip")
    join = Segment(term_a, term_b, gens[i], i, arm, 0)
    return head + [join] + tail, None


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
    start_max: IntersectionPoint
    start_min: IntersectionPoint
    report: dict | None = None

    @property
    def arcs(self) -> list[Arc]:
        return [p for p in self.pieces if isinstance(p, Arc)]

    @functools.cached_property
    def table(self) -> "_PieceTable":
        """The pieces as one _PieceTable, which every array pass and
        region_contains read."""
        return _PieceTable(self.pieces)

    @functools.cached_property
    def origin_label(self) -> str:
        """region_contains' label of the log origin (1, 1)."""
        return region_contains(self, LogPoint(0.0, 0.0))

    @functools.cached_property
    def witness_prefixes(self) -> dict:
        """Checked witness route prefixes of one flow end (dynamics._route_prefix)."""
        return {}

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


@dataclass(frozen=True)
class _FanPlan:
    """Everything of a fan's construction that no delta changes: its slope
    classes, the delta-free rows (i, j, si, sj, cx, cy) of the start points
    (N,M) and (n,m), and the arm walks of I1, I4, I2 and I3."""

    classes: SlopeClasses
    starts: tuple
    walks: tuple


@functools.lru_cache(maxsize=256)
def _fan_plan(fan: Fan) -> _FanPlan:
    """The fan's construction plan.  choose_start_points reads only the
    delta-free exponents and provenance of S^uc, and each walk starts at
    its start point's exponents (cx, cy).  UnsupportedFan, as
    compute_slope_classes raises it, is never cached."""
    classes = compute_slope_classes(fan)
    points = intersection_points(fan, 1.0)
    start_max, start_min = choose_start_points(points, classes.mode)
    big, small = (start_max.cx, start_max.cy), (start_min.cx, start_min.cy)
    walks = (_arm_walk(fan, *big, True, classes.i1), _arm_walk(fan, *big, False, classes.i4),
             _arm_walk(fan, *small, False, classes.i2), _arm_walk(fan, *small, True, classes.i3))
    return _FanPlan(classes, (astuple(start_max)[:-1], astuple(start_min)[:-1]), walks)


def construct_region(fan: Fan, delta: float, validate: bool = True) -> RegionBoundary:
    """Run the full construction, optionally followed by the single-delta
    validation battery (failures raise DeltaTooSmall naming the first
    failing check, with the full report as its ``report``).

    The fan's _fan_plan fixes every choice; at delta only the strips, the
    start points, the crossings and the closures are computed."""
    plan = _fan_plan(fan)
    rows, gens = fan.regions(delta), fan.generators
    start_max, start_min = (IntersectionPoint(*row, delta) for row in plan.starts)
    i1_walk, i4_walk, i2_walk, i3_walk = plan.walks
    try:
        i1_segs = build_polyline(start_max.log, i1_walk, rows, gens)
        i4_segs = build_polyline(start_max.log, i4_walk, rows, gens)
        i2_segs = build_polyline(start_min.log, i2_walk, rows, gens)
        i3_segs = build_polyline(start_min.log, i3_walk, rows, gens)

        side1, p12 = _close_side(i1_segs[-1], i2_segs[-1], rows, gens, delta)
        side2, p34 = _close_side(i3_segs[-1], i4_segs[-1], rows, gens, delta)
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
        mode=plan.classes.mode,
        pieces=tuple(pieces),
        anchors=anchors,
        polylines={"I1": i1_segs, "I2": i2_segs, "I3": i3_segs, "I4": i4_segs},
        start_max=start_max,
        start_min=start_min,
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


def region_contains(boundary: RegionBoundary, point,
                    band: float = 1e-9) -> str:
    """Classify a point as 'inside', 'boundary' or 'outside'.

    Boundary means within the given log-space band of some piece; otherwise
    the parity of the pieces that the +X ray from the point crosses in log
    space decides.  Each piece lies in the log-space box of its ends (the
    table's boxes), so a piece is asked for its band_distance only where
    that box, widened by band, holds the point.  The ray crosses a piece
    whose half-open Y span (lower end inclusive) holds the point's Y when
    the box lies right of the point; only where the box straddles it is
    the piece's X at that Y evaluated.  NonFinitePoint unless the point is
    finite.
    """
    pt = _finite_log(point, "point")
    X, Y = pt.X, pt.Y
    pieces, boxes = boundary.pieces, boundary.table.boxes
    for piece, (x0, x1, y0, y1) in zip(pieces, boxes):
        if (x0 - band <= X <= x1 + band and y0 - band <= Y <= y1 + band
                and piece.band_distance(pt) <= band):
            return "boundary"
    crossings = 0
    for piece, (x0, x1, y0, y1) in zip(pieces, boxes):
        if y0 <= Y < y1 and (X < x0 or (X < x1 and piece.at(Y, True).X > X)):
            crossings += 1
    return "inside" if crossings % 2 == 1 else "outside"


# ---------------------------------------------------------------------------
# The pieces as one table


class _PieceTable:
    """A boundary's pieces as arrays, one entry per piece in piece order,
    each formed with math as the pieces' scalar methods form it.

    sX, sY, eX, eY: the log coordinates of start and end; arc: True for an
    Arc; p, q: the generator; lp, lq: log|p|, log|q| (-inf at 0); dydx,
    dxdy: the x-space slopes -q/p, p/-q (nan where infinite); sign: h_sign
    or arm_sign; (n0, n1): a segment's outward unit normal sign*(q, p)/|g|.
    boxes: a list of the log-space boxes (X lo, X hi, Y lo, Y hi) of the
    ends, as Python floats; region_contains reads them.
    """

    def __init__(self, pieces):
        rows, self.boxes = [], []
        for pc in pieces:
            g, a, b, arc = pc.gen, pc.start, pc.end, isinstance(pc, Arc)
            self.boxes.append((min(a.X, b.X), max(a.X, b.X), min(a.Y, b.Y), max(a.Y, b.Y)))
            sign = pc.h_sign if arc else pc.arm_sign
            rows.append((a.X, a.Y, b.X, b.Y, arc, g.p, g.q,
                         math.log(abs(g.p)) if g.p else -math.inf,
                         math.log(abs(g.q)) if g.q else -math.inf,
                         -g.q / g.p if g.p else math.nan, g.p / -g.q if g.q else math.nan,
                         sign, sign * g.q / g.norm, sign * g.p / g.norm))
        (self.sX, self.sY, self.eX, self.eY, arc, self.p, self.q, self.lp, self.lq,
         self.dydx, self.dxdy, self.sign, self.n0, self.n1) = np.array(rows).reshape(-1, 14).T.copy()
        self.arc = arc == 1.0


def _frame(t: _PieceTable, k):
    """(A0, A1, C0, C1, slope, mirrored) of the segments t[k]: their ends
    along and across the dominant log axis, the slope d(across)/d(along),
    and True where that axis is log y (the x<->y mirror)."""
    sX, sY, eX, eY = t.sX[k], t.sY[k], t.eX[k], t.eY[k]
    m = np.abs(eX - sX) < np.abs(eY - sY)
    return (np.where(m, sY, sX), np.where(m, eY, eX), np.where(m, sX, sY), np.where(m, eX, eY),
            np.where(m, t.dxdy[k], t.dydx[k]), m)


def _points_at(t: _PieceTable, index, u):
    """Points (X, Y) at fractions u of the pieces t[index]: an arc's is the
    log-space mix s + u*(e - s) of its ends, also at u = 1; a segment's is
    its x-space line's point level with the mix on the dominant log axis,
    by at from the nearer end, and at u = 1 the end itself, which the mix
    can miss by an ulp, past the quadrant exit on a segment that ends at it."""
    sX, sY, eX, eY = t.sX[index], t.sY[index], t.eX[index], t.eY[index]
    X, Y = sX + u * (eX - sX), sY + u * (eY - sY)
    seg = ~t.arc[index]
    end = seg & (u == 1.0)
    X[end], Y[end] = eX[end], eY[end]
    s = np.flatnonzero(seg & ~end)
    A0, A1, C0, C1, slope, m = _frame(t, index[s])
    c = np.where(m, Y[s], X[s])
    far = np.abs(c - A1) < np.abs(c - A0)
    across = _line_y_log_batch(np.where(far, A1, A0), np.where(far, C1, C0), slope, c)
    X[s], Y[s] = np.where(m, across, c), np.where(m, c, across)
    return X, Y


def _normals_at(t: _PieceTable, index, X, Y):
    """Outward x-space unit normals (n0, n1) of the pieces t[index] at the
    points (X, Y): a segment's own; an arc's h_sign*(-p/x, q/y), scaled as
    _scaled_reciprocals scales it, then divided by its length.  Of its two
    exps one is exp(0) = 1, of the larger log (both are finite on an arc),
    so one math.exp per point is taken, of -|la - lb|."""
    n0, n1 = t.n0[index], t.n1[index]
    arc = t.arc[index]
    k = index[arc]
    la, lb = t.lp[k] - X[arc], t.lq[k] - Y[arc]
    other = _math_map(math.exp, -np.abs(la - lb))
    nx = np.copysign(np.where(la >= lb, 1.0, other), -t.p[k])
    ny = np.copysign(np.where(la >= lb, other, 1.0), t.q[k])
    n = _math_map(math.hypot, nx, ny)
    n0[arc], n1[arc] = t.sign[k] * nx / n, t.sign[k] * ny / n
    return n0, n1


def _read_only(*arrays) -> tuple:
    """The arrays, made read-only: a cache shares them with its callers."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


_MIN_PIECE_SAMPLES = 4  # boundary samples on even the shortest piece


def _sample_where(t: _PieceTable, total: int):
    """(index, u) of sample_boundary's samples of the pieces of t."""
    lengths = np.maximum(np.abs(t.eX - t.sX) + np.abs(t.eY - t.sY), 1e-12)
    # Summed left to right: np.sum's pairwise order can round differently.
    whole = sum(lengths.tolist())
    counts = np.maximum(_MIN_PIECE_SAMPLES, np.rint(total * lengths / whole)).astype(int)
    index = np.repeat(np.arange(len(counts)), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    return index, (np.arange(len(index)) - first + 0.5) / np.repeat(counts, counts)


def sample_boundary(boundary: RegionBoundary, total: int):
    """Deterministic interior samples of every piece, count ~ log length.

    A piece of log length l = |dX| + |dY| (at least 1e-12) gets
    n = max(_MIN_PIECE_SAMPLES, round(total * l / L)) samples, L the sum of
    all lengths, at u = (j + 1/2) / n for j < n, in piece order.  Returns
    arrays (X, Y, piece index).
    """
    index, u = _sample_where(boundary.table, total)
    return (*_points_at(boundary.table, index, u), index)


# ---------------------------------------------------------------------------
# Convex hull and the level function


_ORIENT_ERR = 3.3306690738754716e-16  # Shewchuk's ccwerrboundA, (3 + 16 eps) eps
_ORIENT_ABS = 1e-300  # absolute slack of the orientation filter, for products that underflow


def _orient(o, a, b):
    """Cross product (a - o) x (b - o) of the first two coordinates, sign-exact.

    The float value is returned when it clears Shewchuk's forward error
    bound (Discrete Comput. Geom. 18, 1997) by more than _ORIENT_ABS, which
    covers products that underflow.  Otherwise it is the exact Fraction
    cross product of the same floats.
    """
    ax, ay, bx, by = a[0] - o[0], a[1] - o[1], b[0] - o[0], b[1] - o[1]
    left, right = ax * by, ay * bx
    det = left - right
    if abs(det) > _ORIENT_ERR * (abs(left) + abs(right)) + _ORIENT_ABS:
        return det
    ox, oy = Fraction(o[0]), Fraction(o[1])
    return ((Fraction(a[0]) - ox) * (Fraction(b[1]) - oy)
            - (Fraction(a[1]) - oy) * (Fraction(b[0]) - ox))


def _half_chain(pts) -> list:
    """One half of Andrew's monotone chain over sorted points, each turn
    decided by _orient."""
    chain = []
    for p in pts:
        while len(chain) >= 2 and _orient(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return chain


def _monotone_chain(pts: list[tuple]) -> list[tuple]:
    """CCW convex hull of points (x, y, ...), from the lowest of the
    leftmost ones: Andrew's monotone chain."""
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts
    return _half_chain(pts)[:-1] + _half_chain(reversed(pts))[:-1]


def _exp_all(logs: list[float]) -> list[float]:
    """math.exp of each log coordinate; MonomialOverflow past about 709.78."""
    try:
        return list(map(math.exp, logs))
    except OverflowError:
        raise MonomialOverflow(f"log coordinate {max(logs):.6g} exponentiates beyond "
                               "the float range") from None


class Hull(list):
    """CCW vertex list (x, y) of a convex hull in x-space, with its caps.

    caps maps k to (p, q, L) when the edge from vertex k to the next is not
    straight but a piece of the curve q*Y - p*X = L, signed so that the hull
    lies on the side q*Y - p*X <= L.  Equality is the list's: it compares
    the vertices alone, so compare caps separately.  A slice or list() copy
    is a plain list and drops the caps, so hull_contains reads every edge
    of it as straight.
    """

    def __init__(self, vertices, caps: dict):
        super().__init__(vertices)
        self.caps = caps


_CAP_TOL = 1e-12  # relative margin by which an arc must clear a hull vertex's line


class _HullArc:
    """An arc as conv_hull reads it: the log-space segment between its ends,
    on the line Y = r*X + L.

    r is the segment's slope, p/q up to the rounding of the ends, and the
    x-space curve y = e^L * x^r has tangent slope r*y/x.  Its point of
    tangent slope r*e^nu is the closed form Y - X = nu on that line.  The
    arc spans nu0 <= nu <= nu1, with the ends end0 and end1 (log
    coordinates).  sigma is +1 if the arc is convex in x-space (r < 0 or
    r > 1), so that only the lower hull chain can meet it, and -1 if it is
    concave and only the upper chain can.
    """

    __slots__ = ("r", "log_r", "nu0", "nu1", "end0", "end1", "sigma")

    def __init__(self, nu0: float, end0: tuple, nu1: float, end1: tuple, r: float):
        self.r, self.log_r, self.sigma = r, math.log(abs(r)), 1 if r < 0.0 or r > 1.0 else -1
        self.nu0, self.end0, self.nu1, self.end1 = nu0, end0, nu1, end1

    @staticmethod
    def of(arc: Arc):
        """The arc's _HullArc; None for an arc straight in x-space (p = q)
        or one too short to have a slope."""
        (nu0, *end0), (nu1, *end1) = sorted((pt.Y - pt.X, pt.X, pt.Y) for pt in (arc.start, arc.end))
        dX = end1[0] - end0[0]
        r = (end1[1] - end0[1]) / dX if dX else 0.0
        if arc.gen.p == arc.gen.q or r * (r - 1.0) == 0.0:
            return None
        return _HullArc(nu0, tuple(end0), nu1, tuple(end1), r)

    @property
    def cap(self) -> tuple:
        """(p, q, L) of the line, signed so that the hull side is q*Y - p*X <= L."""
        X, Y = self.end0
        return (-self.sigma * self.r, float(-self.sigma), -self.sigma * (Y - self.r * X))

    def nu(self, slope: tuple) -> float:
        """nu of the open arc's tangent of a slope given as (sign, log|slope|);
        nan if it has none."""
        nu = self.clamp(slope)
        return nu if self.nu0 < nu < self.nu1 else math.nan

    def clamp(self, slope: tuple) -> float:
        """nu of the arc's tangent of that slope, or of the end whose
        tangent slope is nearest to it: the end nearer to slope 0 when the
        signs differ."""
        sign, lam = slope
        return min(max(lam - self.log_r, self.nu0), self.nu1) if sign * self.r > 0.0 else self.nu0

    def point(self, nu: float) -> tuple:
        """Log coordinates (X, Y) of the arc's point at nu, from its nearer
        end: the ends themselves at nu0 and nu1."""
        if nu == self.nu0:
            return self.end0
        if nu == self.nu1:
            return self.end1
        (X, Y), base = (self.end0, self.nu0) if nu - self.nu0 < self.nu1 - nu else (self.end1, self.nu1)
        dX = (nu - base) / (self.r - 1.0)
        return (X + dX, Y + self.r * dX)

    def slope_at(self, v) -> tuple:
        """Tangent slope (sign, log|slope|) of the arc's curve at the hull
        vertex v."""
        return (math.copysign(1.0, self.r), v[3] - v[2] + self.log_r)

    def beyond(self, X: float, Y: float, nu: float) -> float:
        """Negative where the point (X, Y) lies strictly on the hull side of
        the arc's tangent at nu, that is where that tangent line leaves the
        point out of the hull chain.

        The value is sigma * G, G = (y_T - y - m*(x_T - x)) / y_T at the
        tangent point T and its slope m: (1 - r) - e^(Y - Y_T) + r*e^(X - X_T),
        scaled by the largest exponential so that nothing overflows.  It
        reads 0 within _CAP_TOL of the size of its terms.
        """
        tX, tY = self.point(nu)
        dx, dy = X - tX, Y - tY
        top = max(0.0, dx, dy)
        a, b, c = (1.0 - self.r) * math.exp(-top), math.exp(dy - top), self.r * math.exp(dx - top)
        g = a - b + c
        return 0.0 if abs(g) <= _CAP_TOL * (abs(a) + b + abs(c)) else self.sigma * g

    def beats(self, v, slope: tuple) -> bool:
        """Does the arc's tangent of that slope leave the hull vertex v out?"""
        nu = self.nu(slope)
        return nu == nu and self.beyond(v[2], v[3], nu) < 0.0


def _root(f, a: float, b: float) -> float:
    """A zero of f between a and b, where f(a) >= 0 > f(b) (Illinois).

    If f(a) <= 0, a is returned.  Every third step bisects, so the
    bracket at least halves in three steps; the search stops at adjacent
    floats and returns the end whose |f| is smaller.
    """
    fa, fb = f(a), f(b)
    if fa <= 0.0:
        return a
    side = 0
    for step in itertools.count():
        c = 0.5 * (a + b) if step % 3 == 2 or fa == fb else (a * fb - b * fa) / (fb - fa)
        if not min(a, b) < c < max(a, b):
            return a if abs(fa) <= abs(fb) else b
        fc = f(c)
        if fc == 0.0:
            return c
        if fc > 0.0:
            a, fa = c, fc
            if side > 0:
                fb *= 0.5
            side = 1
        else:
            b, fb = c, fc
            if side < 0:
                fa *= 0.5
            side = -1


def _vertex(X: float, Y: float) -> tuple:
    """A hull chain vertex (x, y, X, Y)."""
    return (*_exp_all([X, Y]), X, Y)


def _edge_slope(u, v) -> tuple:
    """x-space slope (sign, log|slope|) of a chain edge, from the float
    differences of its ends, so that no slope overflows; vertical edges
    (only the last edge of either CCW chain can be one) read +inf."""
    dx, dy = v[0] - u[0], v[1] - u[1]
    if not dx:
        return (1.0, math.inf)
    if not dy:
        return (1.0, -math.inf)
    return (math.copysign(1.0, dx * dy), math.log(abs(dy)) - math.log(abs(dx)))


def _bridge(chain: list, owner: list, arc: _HullArc, k: int, slope: tuple, step: int):
    """The bridge between the hull chain and arc, found walking from
    chain[k] by step (-1 toward the chain's start, +1 toward its end).

    The arc's tangent of the given slope leaves chain[k] out of the hull.
    Each vertex the tangents leave out is passed; the walk stops at the
    first one v with an outer slope (of its straight edge, or of the cap
    ending at it, on the far side) whose tangent keeps it.  The bridge is
    then the arc's tangent through v, a root of beyond along nu; or, when
    the tangent through v would cut the cap ending at v, the common
    tangent of the arc and that cap, whose point on the cap replaces v.
    Returns (k, log point of the bridge on the arc).
    """
    while True:
        n = k + step
        v, cap = chain[k], None
        if 0 <= n < len(chain):
            cap = owner[min(k, n)]
            out = cap.slope_at(v) if cap else _edge_slope(chain[min(k, n)], chain[max(k, n)])
        else:
            out = (step, math.inf)
        if not arc.beats(v, out):
            nu = _root(lambda nu: arc.beyond(v[2], v[3], nu), arc.clamp(out), arc.nu(slope))
            return k, arc.point(nu)
        if cap is None:
            k, slope = n, out
            continue
        far = cap.slope_at(chain[n])
        if arc.beats(chain[n], far):  # the whole cap is left out
            k, slope = n, far
            continue
        shift = math.log(arc.r / cap.r)  # the cap's nu at the arc's nu, at equal slopes
        lo, hi = sorted((v[3] - v[2], chain[n][3] - chain[n][2]))

        def on_cap(nu):
            return cap.point(min(max(nu + shift, lo), hi))

        nu = _root(lambda nu: arc.beyond(*on_cap(nu), nu), arc.clamp(far), arc.nu(out))
        chain[k] = _vertex(*on_cap(nu))
        return k, arc.point(nu)


def _add_cap(chain: list, owner: list, arc: _HullArc) -> None:
    """Splice arc into one CCW hull chain, in place.

    chain holds vertices (x, y, X, Y) and owner[k] the _HullArc of the cap
    from chain[k] to chain[k + 1], or None for a straight edge; along the
    chain the edge slopes increase, and so do the arc's tangent slopes.
    The arc clears a straight edge when its tangent parallel to the edge
    leaves the nearer end of the edge out.  From each edge it clears,
    _bridge walks both ways to the bridges, and the cap between them
    replaces every vertex the walks passed.
    """
    k = len(chain) - 2
    while k >= 0:
        slope = _edge_slope(chain[k], chain[k + 1])
        nu = arc.nu(slope) if owner[k] is None else math.nan
        X = arc.point(nu)[0] if nu == nu else math.nan
        if nu == nu and arc.beats(min(chain[k], chain[k + 1], key=lambda v: abs(v[2] - X)), slope):
            i, start = _bridge(chain, owner, arc, k, slope, -1)
            j, end = _bridge(chain, owner, arc, k + 1, slope, 1)
            # The path chain[i], start, end, chain[j], with the cap from
            # start to end, less the points that coincide with a neighbour.
            kept = [0, *(m for m, new in ((1, start != chain[i][2:]),
                                          (2, end not in (start, chain[j][2:]))) if new), 3]
            ends = {0: chain[i], 1: start, 2: end, 3: chain[j]}
            chain[i:j + 1] = [ends[m] if m in (0, 3) else _vertex(*ends[m]) for m in kept]
            owner[i:j] = [arc if a <= 1 < 2 <= b and start != end else None
                          for a, b in zip(kept, kept[1:])]
            k = i
        k -= 1


def conv_hull(boundary: RegionBoundary) -> Hull:
    """Convex hull of the boundary in x-space: a Hull, CCW from the lowest
    of its leftmost vertices.

    Segments are straight in x-space, so the piece endpoints give the
    polygon: Andrew's monotone chain, each turn sign-exact by _orient.  An
    arc y^q = h*x^p is convex or concave in x-space, so it can bulge past
    that polygon only on one chain, the lower or the upper.  Each arc that
    does is spliced in as a cap, its piece between two tangent points on
    it: a tangent from a hull vertex, or a common tangent with a cap
    already spliced in.  Each is a root along the arc's tangent slope,
    whose tangent point has a closed form in log space.  A (1,1) arc
    (p = q) is straight in x-space and never a cap.  MonomialOverflow if a
    vertex lies beyond the float range.
    """
    logs = dict.fromkeys((pt.X, pt.Y) for piece in boundary.pieces
                         for pt in (piece.start, piece.end))
    X, Y = zip(*logs)
    hull = _monotone_chain(list(zip(_exp_all(list(X)), _exp_all(list(Y)), X, Y)))
    r = hull.index(max(hull))  # the highest rightmost vertex ends the lower chain
    chains = {1: hull[:r + 1], -1: hull[r:] + hull[:1]}
    owners = {side: [None] * (len(chain) - 1) for side, chain in chains.items()}
    for h in filter(None, map(_HullArc.of, boundary.arcs)):
        _add_cap(chains[h.sigma], owners[h.sigma], h)
    vertices, caps = [], {}
    for side in (1, -1):
        for k, arc in enumerate(owners[side]):
            if arc is not None:
                caps[len(vertices) + k] = arc.cap
        vertices += [v[:2] for v in chains[side][:-1]]
    return Hull(vertices, caps)


def hull_contains(hull: list[tuple[float, float]], point,
                  rel_tol: float = 1e-9) -> bool:
    """Is the point in the convex hull, to a relative tolerance on each edge?

    hull is conv_hull's Hull or a plain CCW vertex list.  A straight edge
    from a to b keeps the point when (b - a) x (pt - a) is at least
    -rel_tol * |b - a| * |pt - a|.  A cap keeps it too when it is beyond
    the chord but on the hull side of the cap's curve q*Y - p*X = L, to a
    log distance rel_tol: beyond the chord, that side is the cap's lens.
    A negative rel_tol asks for strict interior points; a one-vertex hull
    holds its vertex only, to rel_tol in each coordinate, and no point then.
    """
    pt = as_log(point)
    px, py = _exp_all([pt.X, pt.Y])
    m = len(hull)
    if m == 0:
        return False
    if m == 1:
        return rel_tol >= 0.0 and all(math.isclose(a, b, rel_tol=rel_tol)
                                      for a, b in zip((px, py), hull[0]))
    caps = getattr(hull, "caps", {})
    for k in range(m):
        if _edge_margin(hull[k], hull[(k + 1) % m], px, py, rel_tol) < 0.0:
            cap = caps.get(k)
            if cap is None:
                return False
            p, q, L = cap
            if q * pt.Y - p * pt.X - L > rel_tol * math.hypot(p, q):
                return False
    return True


def _edge_margin(a, b, px: float, py: float, rel_tol: float) -> float:
    """(b - a) x (p - a) + rel_tol * |b - a| * |p - a|: negative where the
    straight edge from a to b leaves the point p out."""
    ex, ey = b[0] - a[0], b[1] - a[1]
    dx, dy = px - a[0], py - a[1]
    return ex * dy - ey * dx + rel_tol * math.hypot(ex, ey) * (math.hypot(dx, dy) + 1e-300)


@functools.lru_cache(maxsize=4096)
def _hull(fan: Fan, delta: float) -> Hull:
    """Hull of the region at delta, shared by the probes of every phi_level query."""
    return conv_hull(construct_region(fan, delta, validate=False))


def _level_measure(hull: Hull, pt: LogPoint) -> float:
    """Signed measure of pt against the hull, read only to place phi_level's probes.

    The log-space ray from the origin (x-space (1,1), inside every region)
    through pt leaves the hull at t * pt; the measure is log t, positive
    when pt lies inside.  The exit edge is the one whose log-space chord
    the ray leaves through, counting an edge as met within 1e-9 of its
    ends.  Through a vertex, t is the chord's.  On a cap the chord is the
    cap itself, and t is where the ray meets the cap's line moved out by
    hull_contains' log distance 1e-9.  On a straight edge t is the first
    root along the ray of the margins (_edge_margin at hull_contains'
    default rel_tol) of that edge and of the straight edges next to it.
    So the measure's zero is where hull_contains flips.  NaN when a vertex
    is at 0.0 or no edge meets the ray.
    """
    if not all(x > 0.0 and y > 0.0 for x, y in hull):
        return math.nan
    m = len(hull)
    v = [(math.log(x), math.log(y)) for x, y in hull]
    t, k, at = 0.0, None, 0.0
    for j, (ax, ay) in enumerate(v):
        bx, by = v[(j + 1) % m]
        ex, ey = bx - ax, by - ay
        den = pt.X * ey - pt.Y * ex
        if den:
            tj = (ax * ey - ay * ex) / den
            s = (ax * pt.Y - ay * pt.X) / den
            if -1e-9 <= s <= 1.0 + 1e-9 and tj > t:
                t, k, at = tj, j, s
    caps = hull.caps
    if 1e-9 < at < 1.0 - 1e-9 and k in caps:
        p, q, L = caps[k]
        t = (L + 1e-9 * math.hypot(p, q)) / (q * pt.Y - p * pt.X)
    elif 1e-9 < at < 1.0 - 1e-9:
        far, exits = 700.0 / max(abs(pt.X), abs(pt.Y)), []  # exp(far * |X|) stays finite
        for j in (k - 1, k, k + 1):
            if j % m not in caps:
                a, b = hull[j % m], hull[(j + 1) % m]

                def margin(u):
                    if u >= far:
                        return -1.0
                    return _edge_margin(a, b, math.exp(u * pt.X), math.exp(u * pt.Y), 1e-9)

                out = t
                while margin(out) >= 0.0 and out < far:
                    out *= 2.0
                if out < far:
                    exits.append(_root(margin, 0.0, out))
        t = min(exits, default=t)
    return math.log(t) if t > 0.0 else math.nan


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
    the next probe.  Its zero is where hull_contains flips on the hull's
    vertices and caps, and it is log(delta / level) when the point lies on
    the ray of a hull vertex, so the probe is its secant point in log
    delta, exp((log lo * m_hi - log hi * m_lo) / (m_hi - m_lo)): the level
    itself on such a point.  As in the Illinois method, the end that a
    probe leaves in place has its measure halved, unless the probe before
    moved that end, so that the secant reaches past the level and the
    bracket closes from both sides.  The secant point is checked against
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
    moved = 0  # the end the last probe moved: 1 for hi, -1 for lo
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
            m_lo *= 0.5 if moved != -1 else 1.0
            moved = 1
        else:
            m_lo = _level_measure(hull, pt)
            m_hi *= 0.5 if moved != 1 else 1.0
            moved = -1


# ---------------------------------------------------------------------------
# Single-delta validation battery


_LOOP_CHORDS = 32  # chords per piece in the simple-loop test
_LoopIndex = collections.namedtuple("_LoopIndex", "nxt a b index u")  # see _loop_index


@functools.lru_cache(maxsize=64)
def _loop_index(pieces: int) -> _LoopIndex:
    """The _LoopIndex of a loop of that many pieces: each piece's successor
    nxt, the piece pairs a < b (np.triu_indices' order), and (index, u) of
    the chain points at u = i / _LOOP_CHORDS, i = 0.._LOOP_CHORDS, piece by
    piece; read-only, and shared by every loop of that size."""
    n = _LOOP_CHORDS
    return _LoopIndex(*_read_only(np.roll(np.arange(pieces), -1), *np.triu_indices(pieces, 1),
                                  np.repeat(np.arange(pieces), n + 1),
                                  np.tile(np.arange(n + 1) / n, pieces)))


def _loop_checks(boundary: RegionBoundary, chains) -> tuple[dict, dict]:
    """Closed and simple loop checks; chains: the arrays (X, Y) of every
    piece's points at u = i / _LOOP_CHORDS, one row per piece."""
    t = boundary.table
    loop = _loop_index(len(t.sX))
    gaps = np.maximum(np.abs(t.eX - t.sX[loop.nxt]), np.abs(t.eY - t.sY[loop.nxt]))
    worst = gaps.max(initial=0.0).item()
    closed = {"passed": worst <= 1e-9, "worst": worst, "detail": "max endpoint gap"}

    # Approximate simplicity test: each piece is a chain of _LOOP_CHORDS
    # chords, and two pieces cross when a chord of one meets a chord of the
    # other strictly inside both (contact at shared anchors does not count).
    # Such a point lies in both chords' boxes, so of the piece pairs a < b
    # whose boxes meet only the chord pairs whose boxes meet are tested:
    # the chords of each piece that meet the other's box, crossed.
    chains = np.stack(chains, axis=-1)
    lo, hi = chains.min(axis=1), chains.max(axis=1)
    clo = np.minimum(chains[:, :-1], chains[:, 1:])
    chi = np.maximum(chains[:, :-1], chains[:, 1:])
    near = ((hi[loop.b] >= lo[loop.a] - 1e-9) & (lo[loop.b] <= hi[loop.a] + 1e-9)).all(axis=1)
    a, b = loop.a[near], loop.b[near]
    in_a = ((chi[a] >= lo[b, None] - 1e-9) & (clo[a] <= hi[b, None] + 1e-9)).all(axis=-1)
    in_b = ((chi[b] >= lo[a, None] - 1e-9) & (clo[b] <= hi[a, None] + 1e-9)).all(axis=-1)
    # Chord i of piece a[k] against chord j of piece b[k], flat.
    k, i, j = (in_a[:, :, None] & in_b[:, None, :]).nonzero()
    a, b = a[k], b[k]
    meet = ((chi[b, j] >= clo[a, i] - 1e-9) & (clo[b, j] <= chi[a, i] + 1e-9)).all(axis=-1)
    k, a, i, b, j = k[meet], a[meet], i[meet], b[meet], j[meet]
    p1, p3 = chains[a, i], chains[b, j]
    d1, d2, e = chains[a, i + 1] - p1, chains[b, j + 1] - p3, p3 - p1
    with np.errstate(all="ignore"):  # the products overflow at huge delta
        den = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
        t = (e[..., 0] * d2[..., 1] - e[..., 1] * d2[..., 0]) / den
        u = (e[..., 0] * d1[..., 1] - e[..., 1] * d1[..., 0]) / den
    eps = 1e-9
    hit = (np.abs(den) >= 1e-300) & (eps < t) & (t < 1.0 - eps) & (eps < u) & (u < 1.0 - eps)
    bad = len(set(k[hit].tolist()))  # np.unique's first call imports numpy.ma
    simple = {"passed": bad == 0, "worst": float(bad), "detail": "crossing piece pairs"}
    return closed, simple


def _slope_chain_check(boundary: RegionBoundary) -> dict:
    """Slope monotonicity of the polyline chains (signs only in standard mode).

    Axis-strip crossings are axis-parallel and carry no finite slope; they
    are skipped when emitting slopes but still position the anchor B_p.
    """
    def slopes(segs) -> list[Fraction]:
        return [slope for slope in (s.slope for s in segs) if slope is not None]

    i1, i2, i3, i4 = (boundary.polylines[name] for name in ("I1", "I2", "I3", "I4"))
    # B_p = the I4 anchor with the largest x coordinate.
    p_idx = max(range(len(i4)), key=lambda k: i4[k].end.X)
    chain1 = slopes(reversed(i4[: p_idx + 1])) + slopes(i1)
    chain2 = slopes(reversed(i2)) + slopes(i3)
    chain3 = slopes(reversed(i4[p_idx + 1:]))
    ok = all(a < b for chain in (chain1, chain2, chain3) for a, b in zip(chain, chain[1:]))
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
    n0, n1 = _normals_at(boundary.table, piece, X, Y)
    values, index = rhs_bruteforce_batch(X, Y, boundary.fan, boundary.delta, STRIP_TOL)
    # Each value's extreme rays (at most 3), padded to 3 in one array,
    # gathered per sample and dotted with its normal as ray . n rounds;
    # -inf past a value's last ray.
    rays = [value.extreme_rays() for value in values]
    has = np.arange(3) < np.array([len(r) for r in rays], dtype=int)[:, None]
    rays = np.array([r + ((0.0, 0.0),) * (3 - len(r)) for r in rays]).reshape(-1, 3, 2)
    rays, has = rays[index], has[index]
    out = np.where(has, rays[..., 0] * n0[:, None] + rays[..., 1] * n1[:, None], -math.inf)
    worst, witness = _first_max(out.max(axis=1), X, Y, -math.inf)
    return {"passed": worst <= 1e-9, "worst": worst if witness else 0.0, "witness": witness,
            "detail": "max extreme-ray outward component"}


def _r_le_1_check(boundary: RegionBoundary, samples) -> dict:
    X, Y, _ = samples
    q, p, half_width = np.array([row[1:4] for row in boundary.fan.regions(boundary.delta)]).T
    s = np.abs(Y[:, None] * q - X[:, None] * p)
    worst, witness = _first_max((s < half_width - STRIP_TOL).sum(axis=1), X, Y, 0)
    return {"passed": worst <= 1, "worst": float(worst), "witness": witness,
            "detail": "max r(x) on boundary"}


def _suc_check(boundary: RegionBoundary, labels: list[str]) -> dict:
    """labels: the containment label of each S^uc point, at band 1e-7.
    The points are read off the S^uc exponents of the fan's _fan_table
    record times delta, as IntersectionPoint.log forms them."""
    d = boundary.delta
    bad = [(cx * d, cy * d) for cx, cy, label in zip(*_fan_table(boundary.fan).uc, labels)
           if label == "outside"]
    return {"passed": not bad, "worst": float(len(bad)), "witness": bad[0] if bad else None,
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


def _arc_monotonicity_check(boundary: RegionBoundary) -> dict:
    """Every arc must turn one way: be convex, concave or straight in x-space.

    An arc lies on the log line q*Y - p*X = h_sign * delta_i, so along it
    Y - X changes linearly, by ((p - q) / q) * dX, and the tangent slope
    (p/q) * e^(Y - X) is monotone: constant on a p = q arc, the x-space ray
    y = h*x.  conv_hull relies on this when it gives each arc one chain.
    So only a degenerate arc fails, one of zero length, start.X == end.X
    (dY = (p/q) * dX).  The witness is the start of the first one.
    """
    bad = [arc for arc in boundary.arcs if arc.start.X == arc.end.X]
    return {"passed": not bad, "worst": float(len(bad)),
            "witness": (bad[0].start.X, bad[0].start.Y) if bad else None,
            "detail": f"zero-length arcs on {[str(arc.gen) for arc in bad]}" if bad
            else "every arc turns one way"}


_VALIDATION_SAMPLES = 512  # boundary samples (arrays X, Y, piece) for the r <= 1 and Nagumo checks


def _validation_points(t: _PieceTable):
    """The battery's points of the pieces of t, from one _points_at pass:
    the loop chains of every piece (_LOOP_CHORDS chords) as arrays (X, Y)
    with one row per piece, and sample_boundary's _VALIDATION_SAMPLES
    samples (X, Y, piece index).  _points_at is elementwise, so each part
    has the bits of its own pass.
    """
    n = len(t.sX)
    loop, samples = _loop_index(n), _sample_where(t, _VALIDATION_SAMPLES)
    X, Y = _points_at(t, *(np.concatenate(parts) for parts in zip((loop.index, loop.u), samples)))
    cut = len(loop.index)
    chains = (X[:cut].reshape(n, _LOOP_CHORDS + 1), Y[:cut].reshape(n, _LOOP_CHORDS + 1))
    return chains, (X[cut:], Y[cut:], samples[0])


def validate_region(boundary: RegionBoundary) -> dict:
    """Single-delta validation battery; returns {check: result} dicts.

    Every check that evaluates the boundary away from its anchors does so
    in array passes over the boundary's one piece table: one _points_at
    pass (_validation_points) gives the loop checks their point chains and
    the r <= 1 and Nagumo checks sample_boundary's samples.
    Each S^uc point (the exponents of the fan's _fan_table record times
    delta, as IntersectionPoint.log forms them) and each chord point is
    labelled by one region_contains call at band 1e-7; (1,1) is the
    boundary's origin_label.  A failed check names a witness point where
    it has one.
    """
    report = {}
    loop, pts = _validation_points(boundary.table)
    closed, simple = _loop_checks(boundary, loop)
    report["closed_loop"] = closed
    report["simple_loop"] = simple
    (uc_x, uc_y), d = _fan_table(boundary.fan).uc, boundary.delta
    uc = [region_contains(boundary, LogPoint(cx * d, cy * d), 1e-7) for cx, cy in zip(uc_x, uc_y)]
    chords = [region_contains(boundary, pt, 1e-7) for pt in _chord_points(boundary)]
    report["suc_in_region"] = _suc_check(boundary, uc)
    report["r_le_1"] = _r_le_1_check(boundary, pts)
    report["slope_chains"] = _slope_chain_check(boundary)
    report["nagumo"] = _nagumo_check(boundary, pts)
    origin = boundary.origin_label
    report["origin_interior"] = {
        "passed": origin == "inside", "worst": 0.0 if origin == "inside" else 1.0,
        "detail": f"(1,1) classified {origin}",
    }
    if boundary.mode == "standard":
        report["cone_containment"] = _cone_containment_check(boundary)
    report["chords_inside"] = _chords_inside_check(boundary, chords)
    report["arc_tangent_monotonicity"] = _arc_monotonicity_check(boundary)
    return report
