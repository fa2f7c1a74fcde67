"""Trajectory figures of the benchmark's reach fans.

It prints one JSON line per record, in eight groups:

    {"group": "witness", "fan": name, "X": x, "Y": y, "outcome": o,
     "message": m, "worst": <float.hex of worst_violation> or null,
     "points": n, "digest": d}

for every target of ``bench/data/reach_targets.json``: ``reach_witness``
from (1, 1) at delta = 3, as the benchmark calls it;

    {"group": "strategy", "fan": name, "strategy": s, "start": [X, Y],
     "outcome": o, "message": m, "worst": ..., "points": n, "digest": d}

for every reach fan and built-in strategy from each of ``STRATEGY_STARTS``
with seed ``STRATEGY_SEED``, integrated to t = 5; and

    {"group": "converge", "fan": name, "start": [X, Y], "outcome": o,
     "message": m, "worst": ..., "points": n, "digest": d}

for each of ``CONVERGE_STARTS`` on the benchmark's convergence fans: the
all-rates-one embedded field integrated to (1, 1); and

    {"group": "collapse", "t0": t0, "wall": w, "outcome": o, "message": m,
     "worst": ..., "points": n, "digest": d}

for a selection that turns out of the cone at each of ``COLLAPSE_T0``
(see ``Turning``), with and without a wall of overflowing evaluations
after the turn; and

    {"group": "halving", "past": p, "outcome": o, "message": m,
     "worst": ..., "points": n, "digest": d}

for each of ``PAST_KINDS``: a selection that meets a wall (see ``Past``)
whose evaluations raise, return NaN or a thousandfold speed, so that the
integrator halves its steps.  The raising one stops after its first halved
step; the others run to ``HALVING_T_END``; and

    {"group": "accuracy", "fan": name, "start": [X, Y], "rescale": r,
     "steps": n, "deviation": d}

for each convergence fan, start of ``CONVERGE_STARTS`` and rescale: the
flow of the convergence group stopped at t = 1 instead (rel_tol 0), its
step count, and the largest log-coordinate gap at t = 1 to a fixed-step
RK4 reference of step ``REFERENCE_DT``, printed as "%.0e"; and

    {"group": "anchor", "fan": name, "anchor": a, "X": x, "Y": y,
     "outcome": o, "message": m, "worst": ..., "points": n, "digest": d}

for every anchor of every reach fan's region: its witness as in the
witness group.  Some of their routes end at a segment's end or slide
along a closure arc, which no catalog target's route does.  Then come
more strategy records: every reach fan and built-in strategy from each
of ``PROPER_STARTS``, where many steps meet proper cones, and one
``random_in_cone`` run on the one-generator fan ``LINE_FAN`` from
``LINE_START`` to t = ``LINE_T_END``, inside its strip, where the value
is a line; and last

    {"group": "far_anchor", "fan": name, "delta": d, "anchor": a, "X": x,
     "Y": y, "outcome": o, "message": m, "worst": ..., "points": n,
     "digest": d}

for every anchor of every reach fan's region at each of ``FAR_DELTAS``,
as in the anchor group; a fan whose region does not build there gives
one record with null anchor, X and Y and the construction's error.  The
digest is a sha256 of the trajectory's points and velocities, bit for
bit.  An outcome is the trajectory's termination ("arrived" for a
witness), the class name of a package error (with the failing leg of a
``WitnessFailed``), or "bare:<class>" for an exception that is not one;
the message is the exception's text, null when none was raised.
``bench/`` is only read.

Run from anywhere, against the package under SRC_DIR (default: the
``src`` directory next to this file's parent):

    python tools/reach_outcomes.py [SRC_DIR] > reach.jsonl

Running it on two source trees and comparing the outputs with ``diff``
shows every trajectory that changed.
"""

import functools
import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STRATEGY_STARTS = ((-2.0, 1.5), (2.5, -1.0))
STRATEGY_SEED = 12345
CONVERGE_STARTS = ((2.0, -1.5), (-2.5, 0.5), (1.0, 2.5), (-1.5, -2.0))
# Turn times of the collapse group: the first step, step 38 and step 65.
COLLAPSE_T0 = (0.0, 0.37, 0.64)
PAST_KINDS = ("raise", "nan", "fast")
HALVING_DT = 1.0 / 64.0
# Past the wall the fast selection moves 0.25 in log X per step; by this
# t_end it has reached X = 3, still where the inclusion is the full plane.
HALVING_T_END = 0.028
REFERENCE_DT = 1e-4
# Starts of the later strategy records, far out in the sectors and strips.
PROPER_STARTS = ((12.0, -4.0), (-10.0, -10.0))
# One generator: inside its strip the inclusion's value is a line.
LINE_FAN = {"line": ((1, 2),)}
LINE_START = (4.0, 2.0)
LINE_T_END = 1.0
# Deltas of the far_anchor group, where (N,M) lies past log x = 709.
FAR_DELTAS = (100.0, 300.0)


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _error(exc: Exception, package) -> str:
    if isinstance(exc, package.errors.WitnessFailed):
        return f"WitnessFailed:{exc.leg}"
    if isinstance(exc, package.errors.ToricRegionsError):
        return type(exc).__name__
    return f"bare:{type(exc).__name__}"


def trajectory_digest(traj) -> str:
    """Short hash of a trajectory's points and velocities, bit for bit."""
    h = hashlib.sha256()
    for p, v in zip(traj.points, traj.velocities):
        h.update(f"{p.X.hex()} {p.Y.hex()} {float(v[0]).hex()} {float(v[1]).hex()};".encode())
    return h.hexdigest()[:16]


def _run(call, package) -> dict:
    """Outcome fields of one trajectory-producing call."""
    try:
        traj = call()
    except Exception as exc:
        return {"outcome": _error(exc, package), "message": str(exc), "worst": None,
                "points": None, "digest": None}
    return {"outcome": traj.termination, "message": None,
            "worst": float(traj.worst_violation).hex(), "points": len(traj.points),
            "digest": trajectory_digest(traj)}


@functools.lru_cache(maxsize=None)
def _region(fan, delta: float, package):
    return package.region_construction.construct_region(fan, delta)


def _witness(name: str, X: float, Y: float, package, workloads, delta=None) -> dict:
    """Outcome fields of the witness from (1, 1) to (X, Y) on a reach fan,
    at delta (default: the benchmark's)."""
    fg, dy = package.fan_geometry, package.dynamics
    fan = fg.Fan(workloads.REACH_FANS[name])
    delta = workloads.REACH_DELTA if delta is None else delta
    region = _region(fan, delta, package)
    return _run(lambda: dy.reach_witness(
        fg.PosPoint(1.0, 1.0), fg.LogPoint(X, Y), fan, delta, region,
        arrive_tol=workloads.Reach.ARRIVE_TOL), package)


def witness_record(name: str, X: float, Y: float, package, workloads) -> dict:
    return {"group": "witness", "fan": name, "X": X, "Y": Y,
            **_witness(name, X, Y, package, workloads)}


def anchor_records(name: str, package, workloads):
    fan = package.fan_geometry.Fan(workloads.REACH_FANS[name])
    for anchor, pt in _region(fan, workloads.REACH_DELTA, package).anchors.items():
        yield {"group": "anchor", "fan": name, "anchor": anchor, "X": pt.X, "Y": pt.Y,
               **_witness(name, pt.X, pt.Y, package, workloads)}


def far_anchor_records(name: str, delta: float, package, workloads):
    fan = package.fan_geometry.Fan(workloads.REACH_FANS[name])
    head = {"group": "far_anchor", "fan": name, "delta": delta}
    try:
        anchors = _region(fan, delta, package).anchors
    except Exception as exc:
        yield {**head, "anchor": None, "X": None, "Y": None, "outcome": _error(exc, package),
               "message": str(exc), "worst": None, "points": None, "digest": None}
        return
    for anchor, pt in anchors.items():
        yield {**head, "anchor": anchor, "X": pt.X, "Y": pt.Y,
               **_witness(name, pt.X, pt.Y, package, workloads, delta)}


def strategy_record(name: str, strategy: str, start, package, workloads,
                    t_end=None) -> dict:
    """The strategy's run on a reach fan or LINE_FAN at the benchmark's
    delta, to t_end (default: the benchmark's)."""
    fg, dy = package.fan_geometry, package.dynamics
    fan = fg.Fan({**workloads.REACH_FANS, **LINE_FAN}[name])
    delta = workloads.REACH_DELTA
    t_end = workloads.Reach.T_END if t_end is None else t_end
    strat = dy.builtin_strategies(fan, delta, seed=STRATEGY_SEED)[strategy]
    rec = {"group": "strategy", "fan": name, "strategy": strategy, "start": list(start)}
    rec.update(_run(lambda: dy.integrate(strat, fg.LogPoint(*start), fan, delta,
                                         t_end=t_end), package))
    return rec


def converge_record(name: str, start, package, workloads) -> dict:
    fg, dy = package.fan_geometry, package.dynamics
    fan = fg.Fan(workloads.REACH_FANS[name])
    delta = workloads.REACH_DELTA
    field = dy.embedded_system_for_target(fan, delta, "origin_11")
    rec = {"group": "converge", "fan": name, "start": list(start)}
    rec.update(_run(lambda: dy.integrate_to_point(field, fg.LogPoint(*start), fan, delta,
                                                  fg.LogPoint(0.0, 0.0), t_end=200.0,
                                                  rel_tol=workloads.Reach.REL_TOL), package))
    return rec


class XVelocity:
    """A cone-reading selection given by its x-space velocity
    x_velocity(X, Y, t), with the log velocity integrate takes from it."""

    reads_cone = True

    def velocity(self, X, Y, rhs, t, stiff):
        vx, vy = self.x_velocity(X, Y, t)
        return vx, vy, vx * math.exp(-X), vy * math.exp(-Y), 0.0


class Turning(XVelocity):
    """Inward x-space velocity (-1, -1) until half a step before t0, outward
    (1, 1) from then on; with wall, every evaluation after t0 + 0.015 raises
    the package's MonomialOverflow.  Far up the diagonal of the fan (1,1),
    (-1,1) at delta 1 the cone is {v . (1,1) <= 0}, which (1, 1) violates."""

    name = "turning"

    def __init__(self, t0: float, wall: bool, package):
        self.t0, self.wall, self.overflow = t0, wall, package.errors.MonomialOverflow

    def x_velocity(self, X, Y, t):
        if self.wall and t > self.t0 + 0.015:
            raise self.overflow("past the wall")
        return (1.0, 1.0) if t > self.t0 - 0.005 else (-1.0, -1.0)


def collapse_record(t0: float, wall: bool, package) -> dict:
    fg, dy = package.fan_geometry, package.dynamics
    rec = {"group": "collapse", "t0": t0, "wall": wall}
    rec.update(_run(lambda: dy.integrate(Turning(t0, wall, package), fg.LogPoint(10.0, 10.0),
                                         fg.Fan([(1, 1), (-1, 1)]), 1.0, t_end=1.0, dt=1e-2),
                    package))
    return rec


class Past(XVelocity):
    """Unit log speed along +X up to X = 0.025, and past it: every
    evaluation raises the package's MonomialOverflow ("raise"), or the
    velocity is NaN ("nan") or a thousandfold ("fast").  From X = 0 at
    dt = 1/64 the second step's last stage lies past the wall, so that
    step is halved."""

    name = "past"

    def __init__(self, kind: str, package):
        self.kind, self.overflow = kind, package.errors.MonomialOverflow

    def x_velocity(self, X, Y, t):
        factor = 1.0
        if X > 0.025:
            if self.kind == "raise":
                raise self.overflow("past the wall")
            factor = math.nan if self.kind == "nan" else 1000.0
        return (math.exp(X) * factor, 0.0)


def halving_record(kind: str, package) -> dict:
    fg, dy = package.fan_geometry, package.dynamics
    # The time is stop_when's last argument whether it gets (point, t) or
    # (X, Y, t), so trees of either signature run alike.
    stop = (lambda *args: args[-1] > HALVING_DT) if kind == "raise" else None
    rec = {"group": "halving", "past": kind}
    rec.update(_run(lambda: dy.integrate(Past(kind, package), fg.LogPoint(0.0, 0.0),
                                         fg.Fan([(-1, 1), (1, 2), (2, 1)]), 3.0,
                                         t_end=HALVING_T_END, dt=HALVING_DT, stop_when=stop),
                    package))
    return rec


class Plain:
    """A field strategy's velocity as a cone reader's, with no stiffness:
    integrate steps it at the caps, with no error control and no
    stiffness bound."""

    reads_cone = True

    def __init__(self, strategy):
        self.strategy = strategy

    def velocity(self, X, Y, rhs, t, stiff):
        return self.strategy.velocity(X, Y, None, t, False)


def accuracy_record(name: str, start, rescale: bool, package, workloads) -> dict:
    fg, dy = package.fan_geometry, package.dynamics
    fan = fg.Fan(workloads.REACH_FANS[name])
    delta = workloads.REACH_DELTA
    field = dy.embedded_system_for_target(fan, delta, "origin_11")
    run = dy.integrate_to_point(field, fg.LogPoint(*start), fan, delta, fg.LogPoint(0.0, 0.0),
                                t_end=1.0, rel_tol=0.0, rescale=rescale)
    strat = (dy.TimeRescaledField if rescale else dy.FieldStrategy)(field)
    ref = dy.integrate(Plain(strat), fg.LogPoint(*start), fan, delta, t_end=1.0,
                       dt=REFERENCE_DT)
    a, b = run.points[-1], ref.points[-1]
    return {"group": "accuracy", "fan": name, "start": list(start), "rescale": rescale,
            "steps": len(run.times) - 1,
            "deviation": f"{max(abs(a.X - b.X), abs(a.Y - b.Y)):.0e}"}


def records(package, workloads):
    catalog = json.loads((ROOT / "bench" / "data" / "reach_targets.json").read_text())
    for name, entry in catalog["fans"].items():
        for t in entry["targets"]:
            yield witness_record(name, t["X"], t["Y"], package, workloads)
    for name in workloads.REACH_FANS:
        for strategy in workloads.Reach.STRATEGIES:
            for start in STRATEGY_STARTS:
                yield strategy_record(name, strategy, start, package, workloads)
    for name in workloads.Reach.CONVERGE_FANS:
        for start in CONVERGE_STARTS:
            yield converge_record(name, start, package, workloads)
    for t0 in COLLAPSE_T0:
        for wall in (False, True):
            yield collapse_record(t0, wall, package)
    for kind in PAST_KINDS:
        yield halving_record(kind, package)
    for name in workloads.Reach.CONVERGE_FANS:
        for start in CONVERGE_STARTS:
            for rescale in (False, True):
                yield accuracy_record(name, start, rescale, package, workloads)
    for name in workloads.REACH_FANS:
        yield from anchor_records(name, package, workloads)
    for name in workloads.REACH_FANS:
        for strategy in workloads.Reach.STRATEGIES:
            for start in PROPER_STARTS:
                yield strategy_record(name, strategy, start, package, workloads)
    yield strategy_record("line", "random_in_cone", LINE_START, package, workloads,
                          t_end=LINE_T_END)
    for name in workloads.REACH_FANS:
        for delta in FAR_DELTAS:
            yield from far_anchor_records(name, delta, package, workloads)


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else ROOT / "src"
    if not (src / "toric_regions").is_dir():
        print(f"no toric_regions package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    package = importlib.import_module("toric_regions")
    importlib.import_module("toric_regions.dynamics")
    for rec in records(package, _workloads()):
        print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
