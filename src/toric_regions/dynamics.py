"""Solutions of the inclusion: embedded mass-action fields, pluggable
velocity-selection strategies, log-space integration, and reachability
witnesses.

Velocities are x-space vectors constrained by the inclusion cone; the
integrator steps the log coordinates (X' = x'/x componentwise) so positivity
is automatic and points of order e^(c*delta) stay representable.  A
selection that reads the cone takes classical RK4 steps at fixed caps; an
embedded field, which reads none, takes Dormand and Prince's 5(4) steps
under their error control, with dt its first trial step only.

The integrator works on floats: a selection gives its velocities at the
log point (X, Y) through one method, velocity(X, Y, rhs, t, stiff), and
one that reads the cone gets it from _rhs_fast and fan.regions(delta),
once per cell of the run and side of the cell's near strip boundary.
Trajectories and witness legs hold their samples as float arrays (X, Y,
vx, vy), and a trajectory makes LogPoints only when read.  integrate
checks its step starts from the arrays by _violations, bit for bit as
Cone.violation; _validate_leg checks a witness leg exactly, once per
strip cell it crosses, from its geometry and not its samples.
"""

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    MonomialOverflow,
    NoCrossing,
    NonFinitePoint,
    StepCollapse,
    WitnessFailed,
)
from .fan_geometry import (
    STRIP_TOL,
    Cone,
    Fan,
    LogPoint,
    _fan_table,
    _finite_log,
    _flanking_arms,
    _in_strip,
    along_coordinate,
    as_log,
    r_count,
)
from .region_construction import (
    IntersectionPoint,
    RegionBoundary,
    Segment,
    _line_y_log,
    _line_y_log_batch,
    _math_map,
    _read_only,
    _root,
    _sign,
    _strip_point,
    region_contains,
)
from .tdi_rhs import _rhs_fast, rhs_bruteforce, rhs_bruteforce_batch

_CONE_TOL = 1e-9  # cone-violation tolerance of every velocity check
# Strip tolerance of the checks' cone: sectors within delta + 1e-9 count, so
# a point on a strip boundary is checked against the larger value.
_INCLUSIVE_TOL = -1e-9


def _violations(X: np.ndarray, Y: np.ndarray, vx: np.ndarray, vy: np.ndarray, fan: Fan,
                delta: float) -> np.ndarray:
    """Cone violation of each velocity (vx[k], vy[k]) at its log point
    (X[k], Y[k]), against the inclusive value of the inclusion, from one
    batched evaluation: Cone.violation's value, bit for bit.

    Cone._excess runs on all points at once, from the _row of each
    distinct value.  Products and differences round in numpy as in Python
    floats, and fmax passes over a NaN term as Python's max does.  Where
    the excess is positive it is divided by |v| from math.hypot (numpy's
    hypot differs in the last place on some inputs); elsewhere it is 0.
    """
    values, index = rhs_bruteforce_batch(X, Y, fan, delta, _INCLUSIVE_TOL)
    u0, u1, e0, e1, b0, b1 = np.array([c._row for c in values]).T[:, index]
    with np.errstate(all="ignore"):  # inf and NaN arise silently, as in Python floats
        worst = np.fmax(np.fmax(-(u0 * vy - u1 * vx), e0 * vy - e1 * vx),
                        np.fmax(-(b0 * vx + b1 * vy), 0.0))
        hit = worst > 0.0
        out = np.zeros(len(X))
        out[hit] = worst[hit] / _math_map(math.hypot, vx[hit], vy[hit])
    return out


# ---------------------------------------------------------------------------
# Mass-action systems

_LOG_CAP = 600.0  # largest |monomial exponent| evaluated; e^600 is finite
_LOG_MAX = math.log(sys.float_info.max)  # largest x whose e^x is finite


@dataclass(frozen=True)
class Reaction:
    """One directed reaction: vertex source -> vertex target at a fixed rate."""

    source: tuple[float, float]
    target: tuple[float, float]
    rate: float
    log_rate: float


@dataclass(frozen=True)
class MassActionSystem:
    """A reversible power-law reaction system with piecewise-constant rates.

    Every edge's reverse must be present and all rates must lie in the
    declared band [eps, 1/eps].
    """

    reactions: tuple[Reaction, ...]
    eps: float
    label: str = ""
    # One row per reaction, in reaction order, built at construction:
    # (log_rate, sx, sy, dx, dy, |sx| + |sy|) for source (sx, sy) and
    # target - source (dx, dy).
    terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pairs = {(r.source, r.target) for r in self.reactions}
        for r in self.reactions:
            if (r.target, r.source) not in pairs:
                raise ValueError(f"reaction {r.source}->{r.target} has no reverse")
            # The upper bound is relative: 1 / (1 / k) can round below k.
            if not (self.eps - 1e-15 <= r.rate and r.rate * self.eps <= 1.0 + 1e-15):
                raise ValueError(f"rate {r.rate} outside [{self.eps}, {1/self.eps}]")
        object.__setattr__(self, "terms", tuple(
            (r.log_rate, r.source[0], r.source[1], r.target[0] - r.source[0],
             r.target[1] - r.source[1], abs(r.source[0]) + abs(r.source[1]))
            for r in self.reactions))


def _reversible(source, target, k_fwd: float, k_bwd: float) -> list[Reaction]:
    return [
        Reaction(source, target, k_fwd, math.log(k_fwd)),
        Reaction(target, source, k_bwd, math.log(k_bwd)),
    ]


def _term_sums(terms: tuple, X: float, Y: float, stiff: bool):
    """Sums over the rows (log_rate, sx, sy, a, b, w) of a term table of
    m * a and m * b, and, if stiff, of m * |a| * w and m * |b| * w (else
    0.0), where m = e^(log_rate + sx*X + sy*Y) is the row's monomial at the
    log point (X, Y).  Each sum runs from 0.0 in row order.
    MonomialOverflow past _LOG_CAP.

    Every evaluation of an embedded field makes one pass here.
    """
    fx = fy = lx = ly = 0.0
    for log_rate, sx, sy, a, b, w in terms:
        e = log_rate + sx * X + sy * Y
        if abs(e) > _LOG_CAP:
            raise MonomialOverflow(f"monomial exponent {e:.1f} beyond cap {_LOG_CAP}")
        m = math.exp(e)
        fx += m * a
        fy += m * b
        if stiff:
            lx += m * abs(a) * w
            ly += m * abs(b) * w
    return fx, fy, lx, ly


def _field(system: MassActionSystem, X: float, Y: float, stiff: bool):
    """The embedded field (fx, fy) at the log point (X, Y), e^-X, e^-Y and,
    if stiff, its stiffness (else 0.0): (fx, fy, e^-X, e^-Y, stiffness),
    from one _term_sums pass.  The stiffness bounds the log-space Jacobian
    row sum of the field, which keeps explicit steps stable on the
    exponentially stiff reversible pair systems."""
    fx, fy, lx, ly = _term_sums(system.terms, X, Y, stiff)
    gx, gy = math.exp(-X), math.exp(-Y)
    if not stiff:
        return fx, fy, gx, gy, 0.0
    return fx, fy, gx, gy, max(lx * gx, ly * gy) + max(abs(fx) * gx, abs(fy) * gy)


def embedded_system_for_target(fan: Fan, delta: float, target: str,
                               provenance: IntersectionPoint | None = None) -> MassActionSystem:
    """Reversible network q*Y <-> p*X per generator pair, rates placed so the
    complex-balanced equilibrium sits at the requested target.

    'origin_11' uses every generator with all rates 1; 'point_NM' uses the
    two generators of the provenance intersection point with the backward
    rates e^(s_i * delta_i), which puts the equilibrium on that point;
    MonomialOverflow, before any reaction is built, when such a rate is
    not a positive finite float (its log rate lies past 709.78, or below
    about -745.13).  Negative p is encoded directly as a power-law complex
    (p, 0).
    """
    reactions: list[Reaction] = []
    if target == "origin_11":
        for g in fan.generators:
            reactions += _reversible((0.0, float(g.q)), (float(g.p), 0.0), 1.0, 1.0)
        eps = 1.0
        label = "embedded_origin_11"
    elif target == "point_NM":
        if provenance is None:
            raise ValueError("point_NM target needs the intersection-point provenance")
        rates = []
        for idx, s in ((provenance.i, provenance.si), (provenance.j, provenance.sj)):
            log_rate = s * delta * fan.generators[idx].norm
            k_bwd = math.exp(log_rate) if log_rate <= _LOG_MAX else math.inf
            if not 0.0 < k_bwd < math.inf:
                raise MonomialOverflow(f"rate e^{log_rate:.1f} beyond the float range")
            rates.append((fan.generators[idx], k_bwd))
        for g, k_bwd in rates:
            reactions += _reversible((0.0, float(g.q)), (float(g.p), 0.0), 1.0, k_bwd)
        eps = min(1.0, *(min(k, 1.0 / k) for _, k in rates))
        label = "embedded_point_NM"
    else:
        raise ValueError(f"unknown target {target!r}")
    return MassActionSystem(tuple(reactions), eps, label)


# ---------------------------------------------------------------------------
# Selection strategies

_FALLBACK_ANGLE = 2.5  # full-plane direction of the left extreme ray; right mirrors it
_ALTERNATION_PERIOD = 0.5  # time between AlternatingStrategy's switches


class FieldStrategy:
    """Follow a fixed embedded mass-action field.

    The field lies in the cone, so the selection reads none (integrate
    passes rhs=None) and gets error-controlled steps.
    """

    reads_cone = False

    def __init__(self, system: MassActionSystem):
        self.system = system
        self.name = system.label or "field"

    def velocity(self, X: float, Y: float, rhs: Cone | None, t: float, stiff: bool):
        """The field at the log point (X, Y), its log velocity and, if stiff,
        _field's stiffness (else 0.0): (vx, vy, x'/x, y'/y, stiffness)."""
        fx, fy, gx, gy, stiffness = _field(self.system, X, Y, stiff)
        return fx, fy, fx * gx, fy * gy, stiffness


class TimeRescaledField(FieldStrategy):
    """Embedded field rescaled toward unit log speed.

    Positive rescaling keeps every velocity inside the inclusion cone, so
    this traces the same path as the raw field in bounded trajectory time
    even where the rates make the raw field exponentially slow.
    """

    def __init__(self, system: MassActionSystem):
        super().__init__(system)
        self.name += "_rescaled"

    def velocity(self, X: float, Y: float, rhs: Cone | None, t: float, stiff: bool):
        """The field over d = 1 + its log speed, at the log point (X, Y), as
        FieldStrategy.velocity gives it, with the stiffness bound over d."""
        fx, fy, gx, gy, stiffness = _field(self.system, X, Y, stiff)
        d = 1.0 + math.hypot(fx * gx, fy * gy)
        c = 1.0 / d
        vx, vy = fx * c, fy * c
        return vx, vy, vx * gx, vy * gy, stiffness / d


class _DirectionSelection:
    """A selection of one x-space direction of the cone, _direction(rhs, t),
    at unit log speed (cones allow any).  It jumps at sector boundaries, so
    integrate steps it at the caps alone."""

    reads_cone = True

    def velocity(self, X: float, Y: float, rhs: Cone, t: float, stiff: bool):
        u = self._direction(rhs, t)
        gx, gy = math.exp(-X), math.exp(-Y)  # for the speed and the log velocity
        n = math.hypot(u[0] * gx, u[1] * gy)
        if n == 0.0:
            return 0.0, 0.0, 0.0, 0.0, 0.0
        vx, vy = u[0] / n, u[1] / n
        return vx, vy, vx * gx, vy * gy, 0.0


class ExtremeRayStrategy(_DirectionSelection):
    """Always pick one extreme ray of the cone (unit log speed).

    In full-plane zones there is no constraint; a fixed fallback direction
    keeps the trajectory moving deterministically.
    """

    def __init__(self, side: str):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.side = side
        self.name = f"extreme_{side}"
        a = _FALLBACK_ANGLE if side == "left" else -_FALLBACK_ANGLE
        self._fallback = (math.cos(a), math.sin(a))

    def _direction(self, rhs: Cone, t: float) -> tuple[float, float]:
        rays = rhs.extreme_rays()
        return rays[-1 if self.side == "left" else 0] if rays else self._fallback


class AlternatingStrategy(_DirectionSelection):
    """Switch between the two extreme rays on a fixed time period."""

    def __init__(self):
        self.name = "alternating"
        self._left = ExtremeRayStrategy("left")
        self._right = ExtremeRayStrategy("right")

    def _direction(self, rhs: Cone, t: float) -> tuple[float, float]:
        pick = self._left if int(t / _ALTERNATION_PERIOD) % 2 == 0 else self._right
        return pick._direction(rhs, t)


class RandomInConeStrategy(_DirectionSelection):
    """Seeded random direction inside the cone (unit log speed): in the full
    plane uniform in angle, on a line or a ray one of its rays, in a half
    plane cos(pi*u) * start + sin(pi*u) * inward normal, uniform in angle,
    and in a sector the normalized (1 - u) * start + u * end, which is not
    uniform in angle; u is uniform in [0.05, 0.95]."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.name = f"random_in_cone_{seed}"
        self._doubles = iter(())

    def _uniform(self, low: float, high: float) -> float:
        """The next rng.uniform(low, high), from doubles drawn 512 at a time."""
        d = next(self._doubles, None)
        if d is None:
            self._doubles = iter(self.rng.random(512).tolist())
            d = next(self._doubles)
        return low + (high - low) * d

    def _direction(self, rhs: Cone, t: float) -> tuple[float, float]:
        u = self._uniform(0.05, 0.95)
        rays = rhs.extreme_rays()
        if not rays:
            a = self._uniform(0.0, 2.0 * math.pi)
            return (math.cos(a), math.sin(a))
        (sx, sy), (ex, ey) = rays[0], rays[-1]
        if len(rays) == 3:
            c, s = math.cos(math.pi * u), math.sin(math.pi * u)
            return (c * sx + s * ex, c * sy + s * ey)
        if sx * ey - sy * ex <= 0.0:  # the line (a, -a) or the ray (a,)
            return rays[0] if u < 0.5 else rays[-1]
        x, y = (1.0 - u) * sx + u * ex, (1.0 - u) * sy + u * ey
        n = math.hypot(x, y)
        return (x / n, y / n)


def builtin_strategies(fan: Fan, delta: float, seed: int = 0) -> dict:
    """The shipped strategy registry, keyed by name."""
    return {
        "origin_11": FieldStrategy(embedded_system_for_target(fan, delta, "origin_11")),
        "extreme_left": ExtremeRayStrategy("left"),
        "extreme_right": ExtremeRayStrategy("right"),
        "alternating": AlternatingStrategy(),
        "random_in_cone": RandomInConeStrategy(seed),
    }


# ---------------------------------------------------------------------------
# Integration

_MAX_LOG_STEP = 0.25  # largest log-space move of one integrator step
_STEP_TOL = 1e-9  # largest error estimate, in log space, of an error-controlled step
# Dormand and Prince's 5(4) pair (J. Comput. Appl. Math. 6, 1980): stage k
# is evaluated at t + c_k h, from the stages before it weighted by a_kj;
# b weighs stages 1 and 3 to 6 into the 5th-order step, and e weighs
# stages 1 and 3 to 7 into its gap to the embedded 4th-order one.  Stage 7
# is the step's end (first same as last).
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200,
                                22 / 525, -1 / 40)


@dataclass(eq=False)
class Trajectory:
    """Time-stamped log-space samples with the velocities that produced
    them, held as float arrays: the times t, the log points (X, Y) and the
    x-space velocities (vx, vy).  times, points (LogPoints) and velocities
    (tuples) are their lists, made on first read and kept."""

    t: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    strategy: str
    termination: str
    worst_violation: float = 0.0
    legs: list = field(default_factory=list)

    def __post_init__(self):
        self.t, self.X, self.Y, self.vx, self.vy = (
            np.asarray(a, dtype=float) for a in (self.t, self.X, self.Y, self.vx, self.vy))
        if np.any(self.t[1:] <= self.t[:-1]):  # a NaN fails no pair
            raise ValueError("trajectory times must strictly increase")

    times = functools.cached_property(lambda self: self.t.tolist())
    points = functools.cached_property(
        lambda self: list(map(LogPoint, self.X.tolist(), self.Y.tolist())))
    velocities = functools.cached_property(
        lambda self: list(zip(self.vx.tolist(), self.vy.tolist())))


def integrate(strategy, start, fan: Fan, delta: float, t_end: float,
              dt: float = 1e-2, stop_when=None) -> Trajectory:
    """Explicit stepping of the selection in log coordinates.

    A selection has a class attribute reads_cone and a method
    velocity(X, Y, rhs, t, stiff), which gives at the log point (X, Y) and
    time t the tuple (vx, vy, fx, fy, stiffness): the x-space velocity,
    the log velocity (x'/x, y'/y), and, if stiff, a bound on the log-space
    Jacobian row sum (else 0.0).  Step starts, stages and step ends are
    all evaluated by it from the floats the run holds.

    reads_cone decides the rest.  A selection that reads the cone (the
    ray, alternating and random ones, which jump at sector boundaries) is
    passed its cone rhs, the very value _rhs_fast gives at the point, with
    the strip table fan.regions(delta) built once per run, and takes
    classical RK4 steps at its caps alone.  The run keeps one cell, the
    last point _rhs_fast classified: a point within its radius and off its
    near boundary's STRIP_TOL band gets its value for that side of the
    boundary (filled on first visit); any other (NaN and inf too) calls
    _rhs_fast and restarts the cell.  Any other selection (a smooth
    embedded field) is passed rhs=None, is asked for the stiffness of its
    step starts and ends, and takes Dormand and Prince's 5(4) steps under
    their error control.

    Every step is capped at t_end - t and so that no single update moves
    more than 0.25 in log space; a cone reader's also at dt, and a
    field's at 1.5 over the stiffness of the step start (the fields are
    exponentially stiff far from equilibrium).  dt is only a field's first
    trial step.  A step is halved while a stage fails or the increment is
    not finite or moves more than 1.0.  Its floor is dt/1024 for a cone
    reader, and 1/1024 of the smaller of dt and the capped step for a
    field (at stiff starts the cap lies far below dt, and on long runs far
    above it); a retry below it raises StepCollapse, and so does a step
    that passes but no longer advances t (t + h == t).  At most
    64 * ceil(t_end / dt) + 16 steps are taken, whatever their size.

    A field step's end is evaluated with its stiffness at once, and that
    evaluation starts the next step when the step is accepted (first same
    as last), so an attempt costs six evaluations; stage k is evaluated at
    t + c_k h.  err = h * max|sum_k e_k f_k| over the two log coordinates
    is the gap between the 5th- and the embedded 4th-order step.  A step
    is accepted when err <= _STEP_TOL; the next then tries
    h * min(5, 0.9 * (tol/err)^(1/5)), within the caps.  A rejected step
    retries at h * max(0.2, 0.9 * (tol/err)^(1/5)); a failing evaluation
    at the end fails the step as a stage's does.

    stop_when(X, Y, t) gets the log coordinates and time of every sample
    and the start; the run ends "stopped" at the first true one, even with
    t_end <= 0, and otherwise "t_end", "stalled" or "max_steps".

    The velocity of every step start is checked against the inclusive
    brute-force cone once, in one batch from the floats the run stepped
    on (bit for bit as Cone.violation), when the run ends or an exception
    leaves it.  The first violating step start raises StepCollapse, with
    the step and message a check at every step would give; a selection
    that leaves the cone is thus evaluated to the end of its run first.

    ValueError unless t_end is finite and dt positive and finite;
    NonFinitePoint (a ValueError too) unless the start is finite;
    NonPositiveDelta unless delta is positive and finite, before the first
    sample for a selection that reads the cone.
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, not {t_end}")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, not {dt}")
    pt = _finite_log(start, "start")
    X, Y = pt.X, pt.Y
    t = 0.0
    times, xs, ys = [t], [X], [Y]  # the samples
    vxs, vys = [], []  # the velocity of each step start, as it is computed
    termination = "t_end"

    controlled = not strategy.reads_cone
    table = None if controlled else fan.regions(delta)
    velocity = strategy.velocity
    # A cone reader's cell: its centre, radius and near row, and its value
    # on each side of the near row's boundary, [outside, inside], once seen.
    cx, cy, radius, near, sides = 0.0, 0.0, 0.0, None, None

    def evaluate(px: float, py: float, tt: float, stiff: bool):
        nonlocal cx, cy, radius, near, sides
        if controlled:
            return velocity(px, py, None, tt, stiff)
        if abs(px - cx) < radius and abs(py - cy) < radius:  # never true of NaN or inf
            _, q, p, half_width, _, _ = near
            s = abs(q * py - p * px)
            if abs(s - half_width) > STRIP_TOL:
                inside = s < half_width
                sides[inside] = sides[inside] or _rhs_fast(px, py, fan, delta, table)[0]
                return velocity(px, py, sides[inside], tt, stiff)
        rhs, radius, near = _rhs_fast(px, py, fan, delta, table)
        cx, cy, sides = px, py, [None, None]
        sides[abs(near[1] * py - near[2] * px) < near[3]] = rhs
        return velocity(px, py, rhs, tt, stiff)

    def check_starts() -> float:
        """Worst cone violation of the recorded step starts, in one batch."""
        n = len(vxs)
        if not n:
            return 0.0
        violations = _violations(*map(np.array, (xs[:n], ys[:n], vxs, vys)), fan, delta)
        bad = np.flatnonzero(violations > _CONE_TOL)
        if len(bad):
            # Halving cannot fix the start velocity, so this is exactly
            # the fails-at-minimum-step condition.
            k = bad[0]
            raise StepCollapse(f"velocity violates the cone by {float(violations[k]):.3e} "
                               f"at t={times[k]:.4g}")
        return float(np.fmax.reduce(violations, initial=0.0))  # NaN passed over, as by max

    max_steps = int(math.ceil(t_end / dt)) * 64 + 16
    h_next = dt  # a field's next trial step; a cone reader's cap
    end = None  # the evaluation of the last accepted step's end, if controlled
    try:
        while stop_when is None or not stop_when(X, Y, t):
            if t >= t_end or len(vxs) >= max_steps:
                break
            vx, vy, f1x, f1y, stiffness = end or evaluate(X, Y, t, controlled)
            vxs.append(vx)
            vys.append(vy)
            speed = math.hypot(f1x, f1y)
            if speed == 0.0:
                termination = "stalled"
                break
            h_cap = min(t_end - t, _MAX_LOG_STEP / speed)
            if stiffness > 0.0:
                h_cap = min(h_cap, 1.5 / stiffness)
            h = min(h_next, h_cap)
            floor = (min(dt, h_cap) if controlled else dt) / 1024.0
            while True:
                try:
                    if controlled:
                        # Dormand-Prince stages 2 to 6 and the 5th-order step.
                        _, _, k2x, k2y, _ = velocity(X + h * _A21 * f1x, Y + h * _A21 * f1y,
                                                     None, t + _C2 * h, False)
                        _, _, k3x, k3y, _ = velocity(X + h * (_A31 * f1x + _A32 * k2x),
                                                     Y + h * (_A31 * f1y + _A32 * k2y),
                                                     None, t + _C3 * h, False)
                        _, _, k4x, k4y, _ = velocity(
                            X + h * (_A41 * f1x + _A42 * k2x + _A43 * k3x),
                            Y + h * (_A41 * f1y + _A42 * k2y + _A43 * k3y),
                            None, t + _C4 * h, False)
                        _, _, k5x, k5y, _ = velocity(
                            X + h * (_A51 * f1x + _A52 * k2x + _A53 * k3x + _A54 * k4x),
                            Y + h * (_A51 * f1y + _A52 * k2y + _A53 * k3y + _A54 * k4y),
                            None, t + _C5 * h, False)
                        _, _, k6x, k6y, _ = velocity(
                            X + h * (_A61 * f1x + _A62 * k2x + _A63 * k3x + _A64 * k4x
                                     + _A65 * k5x),
                            Y + h * (_A61 * f1y + _A62 * k2y + _A63 * k3y + _A64 * k4y
                                     + _A65 * k5y),
                            None, t + h, False)
                        dX = h * (_B1 * f1x + _B3 * k3x + _B4 * k4x + _B5 * k5x + _B6 * k6x)
                        dY = h * (_B1 * f1y + _B3 * k3y + _B4 * k4y + _B5 * k5y + _B6 * k6y)
                    else:
                        _, _, f2x, f2y, _ = evaluate(X + 0.5 * h * f1x, Y + 0.5 * h * f1y,
                                                     t + 0.5 * h, False)
                        _, _, f3x, f3y, _ = evaluate(X + 0.5 * h * f2x, Y + 0.5 * h * f2y,
                                                     t + 0.5 * h, False)
                        _, _, f4x, f4y, _ = evaluate(X + h * f3x, Y + h * f3y, t + h, False)
                        dX = h / 6.0 * (f1x + 2.0 * f2x + 2.0 * f3x + f4x)
                        dY = h / 6.0 * (f1y + 2.0 * f2y + 2.0 * f3y + f4y)
                    # isfinite, not a bound alone: a NaN increment must halve too.
                    ok = (math.isfinite(dX) and math.isfinite(dY)
                          and max(abs(dX), abs(dY)) <= 4.0 * _MAX_LOG_STEP)
                    if ok and controlled:
                        # The end's evaluation is stage 7, and starts the
                        # next step if this one is accepted.
                        end = velocity(X + dX, Y + dY, None, t + h, True)
                        err = h * max(
                            abs(_E1 * f1x + _E3 * k3x + _E4 * k4x + _E5 * k5x + _E6 * k6x
                                + _E7 * end[2]),
                            abs(_E1 * f1y + _E3 * k3y + _E4 * k4y + _E5 * k5y + _E6 * k6y
                                + _E7 * end[3]))
                        ok = math.isfinite(err)
                except (MonomialOverflow, NonFinitePoint, OverflowError):
                    ok = False
                if not ok:
                    h *= 0.5
                elif not controlled:
                    break
                else:
                    scale = 0.9 * (_STEP_TOL / err) ** 0.2 if err else 5.0
                    if err <= _STEP_TOL:
                        h_next = h * min(5.0, scale)
                        break
                    h *= max(0.2, scale)
                if h < floor:
                    raise StepCollapse(f"step below {floor} without passing at t={t:.4g}")
            if t + h == t:  # the clock has stalled: the samples' times would repeat
                raise StepCollapse(f"step {h:.3g} no longer advances t={t:.4g}")
            X += dX
            Y += dY
            t += h
            times.append(t)
            xs.append(X)
            ys.append(Y)
        else:
            termination = "stopped"
    except Exception:
        # An earlier step start that violates the cone is the first failure.
        check_starts()
        raise
    worst = check_starts()
    if termination == "t_end" and t < t_end:  # the loop ran out of steps
        termination = "max_steps"
    # The last sample starts no step (a stalled start's velocity is replaced).
    n = len(xs) - 1
    return Trajectory(times, xs, ys, vxs[:n] + [0.0], vys[:n] + [0.0],
                      getattr(strategy, "name", "custom"), termination, worst)


def integrate_to_point(system: MassActionSystem, start, fan: Fan, delta: float,
                       target: LogPoint, t_end: float = 200.0, rel_tol: float = 1e-6,
                       rescale: bool = False) -> Trajectory:
    """Integrate an embedded field, in integrate's error-controlled steps
    from a first trial step of its default dt, until within rel_tol (log
    space) of target."""
    strat = TimeRescaledField(system) if rescale else FieldStrategy(system)

    def close(X: float, Y: float, t: float) -> bool:
        return max(abs(X - target.X), abs(Y - target.Y)) <= rel_tol * 0.5

    return integrate(strat, start, fan, delta, t_end, stop_when=close)


# ---------------------------------------------------------------------------
# Reachability witnesses

_LEG_STEP = 0.05  # log-space sample spacing of the straight witness legs
_EXP_ROOM = 700.0  # largest log coordinate a straight leg's velocity exponentiates
_FLOW_T_END = 400.0  # time horizon of the witnesses' embedded flow to (1,1)
_CHAINS = ("I1", "I4", "I2", "I3")  # route search order; I1 and I4 start at (N,M)


class WitnessLeg(NamedTuple):
    """A witness leg as it is built, checked and returned: its kind ('flow',
    'xline' or 'logline'), its description, and its samples' log points
    (X, Y) and x-space velocities (vx, vy) as float arrays."""

    kind: str
    description: str
    X: np.ndarray
    Y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray

    @property
    def end(self) -> LogPoint:
        """The last sample."""
        return LogPoint(float(self.X[-1]), float(self.Y[-1]))


def _validate_leg(legs: list[WitnessLeg], fan: Fan, delta: float) -> float:
    """Worst cone violation of the legs' velocities along their whole
    paths, each against the inclusive value, exactly, from the legs'
    geometry: a log line's ends (_logline_cuts) or an x-line's ends and
    constant velocity (_xline_cuts), not their samples.

    A leg is cut wherever a strip coordinate q*Y - p*X crosses an
    inclusive edge +-(delta - _INCLUSIVE_TOL)*|(q, p)|; between two cuts
    the value is one cone (arm lines and the disk |P| <= delta + 1e-9
    never change it), read once by rhs_bruteforce(..., _INCLUSIVE_TOL) at the
    piece's middle.  A log line's velocity (dX*x, dY*y) turns monotonically
    within one quadrant, so a cone holds it along the piece when it holds
    it at both ends; an x-line's is constant, so each distinct value is
    tested once.  WitnessFailed naming the description of the last leg
    whose worst exceeds _CONE_TOL, and the first point of that leg whose
    velocity does."""
    edges = [(g.q, g.p, (delta - _INCLUSIVE_TOL) * g.norm) for g in fan.generators]
    worst = []
    for leg in legs:
        cuts, point, velocity = (_xline_cuts if leg.kind == "xline" else _logline_cuts)(leg, edges)
        worst.append(_pieces_worst(cuts, point, velocity, leg.kind == "xline", fan, delta))
    for leg, (w, first) in zip(reversed(legs), reversed(worst)):
        if w > _CONE_TOL:
            raise WitnessFailed(leg.description,
                                f"worst violation {w:.3e} at ({first[0]:.9g}, {first[1]:.9g})")
    return max(w for w, _ in worst)


def _pieces_worst(cuts: list[float], point, velocity, constant: bool, fan: Fan, delta: float):
    """(worst, first) over the pieces between consecutive cuts, given in
    leg order, of a leg whose log point and x-space velocity at a cut
    parameter are point(c) and velocity(c): worst is the largest violation
    of a piece's velocity at its ends against the piece's value (once per
    distinct value if the velocity is constant), and first the log point
    (X, Y) where the leg first violates by more than _CONE_TOL (None if it
    never does).  Within a piece the violating parameters lie next to its
    ends, so a piece that violates only at its far end is bisected for the
    first."""
    worst, first, seen = 0.0, None, set()
    ends = [velocity(c) for c in cuts]
    for k in range(len(cuts) - 1):
        a, b = cuts[k], cuts[k + 1]
        value = rhs_bruteforce(LogPoint(*point(0.5 * (a + b))), fan, delta, _INCLUSIVE_TOL)
        if constant:
            if value in seen:
                continue
            seen.add(value)
        wa = value.violation(ends[k])
        wb = wa if constant else value.violation(ends[k + 1])
        worst = max(worst, wa, wb)
        if first is None and wa > _CONE_TOL:
            first = point(a)
        elif first is None and wb > _CONE_TOL:
            while a != 0.5 * (a + b) != b:  # value holds the velocity at a, not at b
                m = 0.5 * (a + b)
                a, b = (a, m) if value.violation(velocity(m)) > _CONE_TOL else (m, b)
            first = point(b)
    return worst, first


def _logline_cuts(leg: WitnessLeg, edges: list):
    """The cuts of a straight log-space leg (see _validate_leg), as
    fractions s of the way from its first sample to its last, where each
    strip coordinate is linear in s; with its point and velocity at s, the
    latter as _logline_leg forms it."""
    X0, Y0, X1, Y1 = float(leg.X[0]), float(leg.Y[0]), float(leg.X[-1]), float(leg.Y[-1])
    dX, dY = X1 - X0, Y1 - Y0
    cuts = {0.0, 1.0}
    for q, p, h in edges:
        s0, s1 = q * Y0 - p * X0, q * Y1 - p * X1
        cuts.update((level - s0) / (s1 - s0) for level in (h, -h) if (s0 < level) != (s1 < level))

    def point(s: float) -> tuple[float, float]:
        return X0 + s * dX, Y0 + s * dY

    def velocity(s: float) -> tuple[float, float]:
        X, Y = point(s)
        room = max(0.0, X - _EXP_ROOM, Y - _EXP_ROOM)
        return dX * math.exp(X - room), dY * math.exp(Y - room)

    return sorted(cuts), point, velocity


def _xline_cuts(leg: WitnessLeg, edges: list):
    """The cuts of a straight x-space leg (see _validate_leg), as values of
    its dominant log coordinate c in leg order, with its point at c and its
    constant velocity.  As _xline_leg samples it, the leg is the line of
    its velocity through its first sample up to the middle value of c,
    and through its last beyond it; far from its anchor a line's log
    coordinates round away from the other's, so the two need not meet,
    and an edge whose side changes at the middle is cut there.

    Along the line (x0 + t*dx, y0 + t*dy) the numerator q*dy*x - p*dx*y of
    d(q*Y - p*X)/dt is linear in t, so each strip coordinate turns at most
    once, where x/y = p*dx / (q*dy): at x = p*k / (dy*(p - q)) and y =
    q*k / (dx*(p - q)), k = x0*dy - y0*dx, when both are positive.  On
    each monotone branch an edge is crossed where its coordinate changes
    side, and _root finds the crossing."""
    X0, Y0, X1, Y1 = float(leg.X[0]), float(leg.Y[0]), float(leg.X[-1]), float(leg.Y[-1])
    dx, dy = float(leg.vx[0]), float(leg.vy[0])
    # _xline_leg's frame: the ends tell it, unless the direction has no
    # component along one axis (the last sample comes from the far anchor,
    # so a walk a few ulps long may end off its axis).
    mirrored = dx == 0.0 or dy != 0.0 and abs(X1 - X0) < abs(Y1 - Y0)
    # The kernel's frame: c runs from A0 to A1, the other coordinate from B0 to B1.
    A0, B0, A1, B1, slope = (Y0, X0, Y1, X1, dx / dy) if mirrored else (X0, Y0, X1, Y1, dy / dx)
    Am = 0.5 * (A0 + A1)

    def on(P: float, Q: float, c: float) -> tuple[float, float]:
        """The log point at c of the line through the kernel-frame point (P, Q)."""
        o = _line_y_log(P, Q, slope, c)
        return (o, c) if mirrored else (c, o)

    # Per half: its anchor, its span of c, its log points at the span's ends,
    # and M and k / e^M of its anchor, scaled so that nothing overflows.
    halves = []
    for P, Q, lo, hi, a, b in ((A0, B0, A0, Am, (X0, Y0), on(A0, B0, Am)),
                               (A1, B1, Am, A1, on(A1, B1, Am), (X1, Y1))):
        X, Y = (Q, P) if mirrored else (P, Q)
        M = max(X, Y)
        halves.append((P, Q, lo, hi, a, b, M, dy * math.exp(X - M) - dx * math.exp(Y - M)))

    cuts = [A0, A1]
    for q, p, h in edges:
        nodes = []  # (c, strip coordinate, the half's anchor) along the leg
        for P, Q, lo, hi, (Xa, Ya), (Xb, Yb), M, k in halves:
            nodes.append((lo, q * Ya - p * Xa, P, Q))
            if k and dx and dy and p != q:
                rx, ry = p * k / (dy * (p - q)), q * k / (dx * (p - q))
                if rx > 0.0 and ry > 0.0:
                    X, Y = M + math.log(rx), M + math.log(ry)
                    if min(lo, hi) < (Y if mirrored else X) < max(lo, hi):
                        nodes.append((Y if mirrored else X, q * Y - p * X, P, Q))
            nodes.append((hi, q * Yb - p * Xb, P, Q))
        for (ca, sa, P, Q), (cb, sb, _, _) in zip(nodes, nodes[1:]):
            for level in (h, -h):
                if (sa < level) != (sb < level):
                    sign = 1.0 if sa >= level else -1.0

                    def excess(c: float) -> float:
                        """The strip coordinate's excess over the level at c, >= 0 at ca."""
                        X, Y = on(P, Q, c)
                        return sign * (q * Y - p * X - level)

                    cuts.append(ca if ca == cb else _root(excess, ca, cb))

    def point(c: float) -> tuple[float, float]:
        return on(A1, B1, c) if 2.0 * abs(c - A0) > abs(A1 - A0) else on(A0, B0, c)

    return sorted(set(cuts), reverse=A1 < A0), point, lambda c: (dx, dy)


def _logline_leg(a: LogPoint, b: LogPoint, desc: str) -> WitnessLeg:
    """Straight path in log space; x-space velocity is (dX*x, dY*y) times
    e^-s, s = max(0, max(X, Y) - _EXP_ROOM), finite at any delta.  No cone
    check sees a positive factor, and where s = 0.0 X - s is X, bit for bit."""
    dX, dY = b.X - a.X, b.Y - a.Y
    n = max(2, int(math.ceil(math.hypot(dX, dY) / _LEG_STEP)))
    u = np.arange(n + 1) / n
    X, Y = a.X + u * dX, a.Y + u * dY
    s = np.maximum(np.maximum(X, Y) - _EXP_ROOM, 0.0)
    return WitnessLeg("logline", desc, X, Y, dX * _math_map(math.exp, X - s),
                      dY * _math_map(math.exp, Y - s))


def _xline_leg(a: LogPoint, direction: tuple[float, float], x_end: LogPoint,
               desc: str) -> WitnessLeg:
    """Straight x-space path from a to x_end along an exact direction.

    The direction (not endpoint differences) is used for the velocities so
    exactly cone-parallel walks validate exactly.  Samples are even in the
    dominant log axis and lie on the direction's line through the nearer
    end, evaluated by the line kernel (on the x<->y mirror when log y
    dominates), all by one _line_y_log_batch call: sample k of n is
    _line_y_log's point at c on the line through a if 2k <= n, else through
    x_end (x and y swapped on the mirror), bit for bit.  Raises NoCrossing
    if that line leaves the quadrant, or if the direction has no component
    along the dominant axis (its slope there would divide by zero).
    """
    dx, dy = direction
    mirrored = abs(x_end.X - a.X) < abs(x_end.Y - a.Y)
    if (dy if mirrored else dx) == 0.0:
        raise NoCrossing("the direction has no component along the walk's dominant axis")
    # The kernel's (X0, Y0, slope), near end first; the mirror swaps x and y.
    (A0, A1), (B0, B1), s = (((a.Y, x_end.Y), (a.X, x_end.X), dx / dy) if mirrored
                             else ((a.X, x_end.X), (a.Y, x_end.Y), dy / dx))
    n = max(2, int(math.ceil(abs(A1 - A0) / _LEG_STEP)))
    k = np.arange(n + 1)
    c = A0 + (A1 - A0) * k / n
    far = 2 * k > n
    other = _line_y_log_batch(np.where(far, A1, A0), np.where(far, B1, B0), np.full(n + 1, s), c)
    X, Y = (other, c) if mirrored else (c, other)
    return WitnessLeg("xline", desc, X, Y, np.full(n + 1, dx), np.full(n + 1, dy))


def _segment_direction(seg: Segment) -> tuple[float, float]:
    """Unit x-space direction of a boundary segment, oriented start -> end.

    Per axis the log displacement has the sign of the x-space one, which is
    parallel to the direction, so its dot product with the direction has
    the orientation's sign exactly.
    """
    dx, dy = seg.direction
    n = math.hypot(dx, dy)
    if dx * (seg.end.X - seg.start.X) + dy * (seg.end.Y - seg.start.Y) < 0.0:
        n = -n
    return (dx / n, dy / n)


def _xspace_unit(a: LogPoint, b: LogPoint) -> tuple[float, float]:
    """Unit x-space direction from a to b, formed after scaling both points
    by e^-max of their log coordinates so that nothing overflows.  Raises
    NoCrossing where both scaled displacements round to 0.0, which leaves
    no direction."""
    m = max(a.X, a.Y, b.X, b.Y)
    dx = math.exp(b.X - m) - math.exp(a.X - m)
    dy = math.exp(b.Y - m) - math.exp(a.Y - m)
    n = math.hypot(dx, dy)
    if n == 0.0:
        raise NoCrossing("the x-space displacement rounds to zero")
    return (dx / n, dy / n)


@functools.lru_cache(maxsize=256)
def _origin_system(fan: Fan, delta: float) -> MassActionSystem:
    """The "origin_11" embedded system, built once per (fan, delta): it is
    frozen, so every witness shares it."""
    return embedded_system_for_target(fan, delta, "origin_11")


def reach_witness(from_point, to_point, fan: Fan, delta: float,
                  region: RegionBoundary, arrive_tol: float = 1e-6) -> Trajectory:
    """Piecewise trajectory witnessing reachability inside the region.

    Leg 1 rides the all-rates-one embedded field to (1,1).  Leg 2 dispatches
    on r(target): full-plane targets get a straight log-space run; strip
    (r = 1) and gap (r = 0) targets are routed along the region boundary
    (see ``_route_via_boundary``).  Every leg is velocity-validated: the
    integrator checks the flow, and _validate_leg checks the straight run
    or a candidate route's finish legs, exactly.  A route's prefix (the hop and
    the chain walk) is built and checked once and kept on the region for
    its lifetime, for one flow end at a time (from (1,1) the end is always
    (1,1)); another end replaces them, so the region keeps at most one per
    chain segment.  Witnesses share the prefix legs, whose arrays are
    read-only.  The legs and the returned trajectory hold float arrays;
    the trajectory makes its LogPoints only when read.

    The region must be built for this fan and delta, and both endpoints
    must lie in it (``region_contains`` says "inside" or "boundary"): the
    region is invariant, so no trajectory from inside it reaches a point
    outside.  Otherwise ``WitnessFailed("precondition")`` is raised before
    any leg is built.  Otherwise a failure raises ``WitnessFailed`` naming
    the step: "leg1_flow" when the flow to (1,1) does not converge,
    "full-plane straight run" when that run fails validation, and "route"
    when no boundary route to a strip or gap target arrives and validates.
    The route's detail names the last candidate's error (the last leg of
    it that failed validation, with its worst violation and first
    violating point, an "arrival" drift or a walk whose line left the
    quadrant), then lists every candidate tried as "chain[k]: error".
    A non-finite endpoint raises NonFinitePoint.
    """
    if region.fan != fan or region.delta != delta:
        raise WitnessFailed("precondition", f"the region is built for {region.fan} at delta "
                            f"{region.delta}, not {fan} at {delta}")
    src = as_log(from_point)
    dst = as_log(to_point)
    # (1, 1) is classified once per region.
    src_label = region.origin_label if src == LogPoint(0.0, 0.0) else region_contains(region, src)
    if src_label == "outside" or region_contains(region, dst) == "outside":
        raise WitnessFailed("precondition", "both endpoints must lie in the region")

    flow1 = integrate_to_point(_origin_system(fan, delta), src, fan, delta, LogPoint(0.0, 0.0),
                               t_end=_FLOW_T_END, rel_tol=arrive_tol, rescale=True)
    if flow1.termination != "stopped":
        raise WitnessFailed("leg1_flow", f"did not converge ({flow1.termination})")
    # Flow legs were validated by the integrator.
    legs = [WitnessLeg("flow", "embedded flow to (1,1)", flow1.X, flow1.Y, flow1.vx, flow1.vy)]
    cur = legs[0].end

    r_dst = r_count(dst, fan, delta)
    worst = 0.0
    if max(abs(dst.X - cur.X), abs(dst.Y - cur.Y)) <= arrive_tol:
        pass  # target was (1,1): single leg
    elif r_dst >= 2:
        legs.append(_logline_leg(cur, dst, "full-plane straight run"))
        worst = _validate_leg(legs[1:], fan, delta)
    else:
        route, worst = _route_via_boundary(cur, dst, r_dst, region, arrive_tol)
        legs += route

    # The source, at rest, then every leg's samples, one column at a time.
    _, _, *columns = zip(*legs)  # the legs' X, Y, vx and vy
    X, Y, vx, vy = (np.concatenate([(first,), *col])
                    for first, col in zip((src.X, src.Y, 0.0, 0.0), columns))
    return Trajectory(np.arange(len(X), dtype=float), X, Y, vx, vy, "reach_witness",
                      "arrived", worst, legs=legs)


def _hop_and_walk(cur: LogPoint, chain: str, k: int,
                  region: RegionBoundary) -> list[WitnessLeg]:
    """Hop from near (1,1) to the chain's start point, (N,M) or (n,m),
    then walk the chain's first k segments.

    The log-straight segment from the origin to a pairwise intersection
    point stays strictly inside both of that point's strips (its strip
    coordinates scale linearly), so the inclusion value along the hop is
    the whole plane and any velocity is admissible.
    """
    name, ip = ("NM", region.start_max) if chain in ("I1", "I4") else ("nm", region.start_min)
    legs = [_logline_leg(cur, ip.log, f"full-plane hop to {name}")]
    for seg in region.polylines[chain][:k]:
        legs.append(_xline_leg(legs[-1].end, _segment_direction(seg), seg.end,
                               f"walk {chain} segment"))
    return legs


def _route_prefix(cur: LogPoint, chain: str, k: int,
                  region: RegionBoundary) -> tuple[list[WitnessLeg], float | WitnessFailed]:
    """The legs of _hop_and_walk(cur, chain, k, region) and their exact
    _validate_leg worst (or the WitnessFailed it raised, which names the
    first violating point), built and checked once per region and flow
    end: region.witness_prefixes keeps one end's, at most one per chain
    segment.  The legs' arrays are read-only, since witnesses share them.
    A walk that raises NoCrossing is not kept."""
    at = (cur.X.hex(), cur.Y.hex())  # the bits: -0.0 starts other legs than 0.0
    memo = region.witness_prefixes
    if at not in memo:
        memo.clear()
    prefixes = memo.setdefault(at, {})
    if (chain, k) not in prefixes:
        legs = _hop_and_walk(cur, chain, k, region)
        try:
            worst = _validate_leg(legs, region.fan, region.delta)
        except WitnessFailed as exc:
            worst = exc.with_traceback(None)
        for leg in legs:
            _read_only(*leg[2:])
        prefixes[chain, k] = legs, worst
    return prefixes[chain, k]


def _route_via_boundary(cur: LogPoint, dst: LogPoint, r_dst: int, region: RegionBoundary,
                        arrive_tol: float):
    """Validated legs from (1,1) to a strip (r=1) or gap (r=0) target in
    the region, and their worst cone violation.

    Candidates are the crossing segments of the boundary chains: for a
    strip target, the target strip's segments on the target's arm, then on
    the other arm; for a gap target, the segments of either flanking arm.
    Each route hops to the chain's start point and walks the chain up to
    the candidate segment's start (_route_prefix).  It finishes at a strip
    target by walking along that segment into the strip and sliding along
    the strip.  At a gap target it ends at the corner when that is the
    target; else it walks the segment when its end is the target, or when
    a closure arc starting at that end holds the target, and then slides
    along the arc; else it makes one straight x-space run (a run whose
    x-space displacement rounds to zero raises NoCrossing, as a walk that
    leaves the quadrant does, and the next candidate is tried).  After the
    arrival check the finish legs' exact check runs, then the prefix's.
    A slide lies on or inside a strip's edge, within rounding of it, and
    is checked against the inclusive value.  The first route whose legs
    arrive and all validate wins.
    """
    if r_dst == 1:
        # The target's strip: the one row of fan.regions(delta) that r_dst counted.
        i, q, p, _, _, _ = next(row for row in region.fan.regions(region.delta)
                                if _in_strip(row, dst.X, dst.Y))
        sigma = q * dst.Y - p * dst.X
        gen = region.fan.generators[i]
        arm = _sign(along_coordinate(dst, gen))
        arm_sets = ({(i, arm)}, {(i, -arm)})

        def finish(c: LogPoint, seg: Segment) -> list[WitnessLeg]:
            match = _strip_point(seg.start, gen, sigma)
            into = _xline_leg(c, _segment_direction(seg), match, "walk into the strip")
            return [into, _logline_leg(into.end, dst, "slide along the strip")]
    else:
        arms = _fan_table(region.fan).arms
        k = _flanking_arms(dst.X, dst.Y, arms)
        arm_sets = ({arms[k][1:], arms[(k + 1) % len(arms)][1:]},)

        def finish(c: LogPoint, seg: Segment) -> list[WitnessLeg]:
            if max(abs(c.X - dst.X), abs(c.Y - dst.Y)) <= arrive_tol:
                return []  # the corner is the target
            if max(abs(seg.end.X - dst.X), abs(seg.end.Y - dst.Y)) <= arrive_tol:
                return [_xline_leg(c, _segment_direction(seg), seg.end, "walk to the target")]
            arc = next((a for a in region.arcs if seg.end in (a.start, a.end)), None)
            if arc is not None and arc.band_distance(dst) <= arrive_tol:
                # The closure arc at the segment's end holds the target, and
                # is straight in log space.
                walk = _xline_leg(c, _segment_direction(seg), seg.end, "walk to the arc")
                return [walk, _logline_leg(walk.end, dst, "slide along the arc")]
            return [_xline_leg(c, _xspace_unit(c, dst), dst, "straight gap run")]

    candidates = [(chain, k) for arms in arm_sets for chain in _CHAINS
                  for k, seg in enumerate(region.polylines[chain])
                  if (seg.region_index, seg.arm_sign) in arms]
    last_err: Exception | str = "no crossing segment on the target's arms"
    tried = []  # "chain[k]: error" of every candidate
    for chain, k in candidates:
        try:
            prefix, worst = _route_prefix(cur, chain, k, region)
            legs = finish(prefix[-1].end, region.polylines[chain][k])
            end = (legs or prefix)[-1].end
            if max(abs(end.X - dst.X), abs(end.Y - dst.Y)) > arrive_tol:
                raise WitnessFailed("arrival", "route drifted from the target")
            finish_worst = _validate_leg(legs, region.fan, region.delta) if legs else 0.0
            if isinstance(worst, WitnessFailed):
                raise WitnessFailed(worst.leg, worst.detail)
            return prefix + legs, max(worst, finish_worst)
        except (WitnessFailed, NoCrossing) as exc:
            last_err = exc
            tried.append(f"{chain}[{k}]: {exc}")
    raise WitnessFailed("route", "; ".join([f"no valid route: {last_err}", *tried]))
