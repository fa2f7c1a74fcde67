import contextlib
import importlib.util
import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from toric_regions import dynamics, tdi_rhs
from toric_regions.dynamics import (
    AlternatingStrategy,
    ExtremeRayStrategy,
    FieldStrategy,
    MassActionSystem,
    RandomInConeStrategy,
    TimeRescaledField,
    Trajectory,
    _logline_leg,
    _origin_system,
    _reversible,
    _validate_leg,
    _violations,
    _xline_leg,
    _xspace_unit,
    builtin_strategies,
    embedded_system_for_target,
    integrate,
    integrate_to_point,
    reach_witness,
)
from toric_regions.errors import (
    MonomialOverflow,
    NoCrossing,
    NonFinitePoint,
    NonPositiveDelta,
    StepCollapse,
    WitnessFailed,
)
from toric_regions.fan_geometry import (
    STRIP_TOL,
    Cone,
    Fan,
    LineGenerator,
    LogPoint,
    PosPoint,
    as_log,
    delta_i,
    r_count,
)
from toric_regions.region_construction import (
    _line_y_log,
    construct_region,
    intersection_points,
    region_contains,
)
from toric_regions.tdi_rhs import rhs_bruteforce

from cone_algebra import compared_checks, kind, sampled_leg_check

WORKED_FAN = Fan([(-1, 1), (1, 2), (2, 1)])
# The reach workload's fans: worked, axis, all_positive and all_negative.
REACH_GENS = ([(-1, 1), (1, 2), (2, 1)], [(-1, 1), (1, 2), (2, 1), (1, 0)], [(1, 2), (2, 1)],
              [(-1, 2), (-2, 1)])
CROSS_FAN = Fan([(1, 1), (-1, 1)])
DELTA = 3.0


@pytest.fixture(scope="module")
def region():
    return construct_region(WORKED_FAN, DELTA)


@pytest.fixture(scope="module")
def nm_system(region):
    return embedded_system_for_target(WORKED_FAN, DELTA, "point_NM",
                                      provenance=region.start_max)


def array_leg(desc, points, velocities):
    """A leg through the given samples, as _validate_leg takes it."""
    return dynamics.WitnessLeg("logline", desc, np.array([p.X for p in points]),
                               np.array([p.Y for p in points]),
                               *np.array(velocities, dtype=float).T)


def leg_points(leg) -> list[LogPoint]:
    """The leg's log points, from its X and Y arrays."""
    return list(map(LogPoint, leg.X.tolist(), leg.Y.tolist()))


def leg_velocities(leg) -> list[tuple[float, float]]:
    """The leg's x-space velocities, from its vx and vy arrays."""
    return list(zip(leg.vx.tolist(), leg.vy.tolist()))


def simple_exchange():
    # Y <-> X with both rates 1: vertices (0,1) and (1,0).
    return MassActionSystem(tuple(_reversible((0.0, 1.0), (1.0, 0.0), 1.0, 1.0)),
                            1.0, "exchange")


def mass_action_field(system: MassActionSystem, point) -> tuple[float, float]:
    """The embedded field (fx, fy) at a point: the sum over the reactions of
    k * x^source * (target - source), in x-space, from dynamics._field."""
    pt = as_log(point)
    return dynamics._field(system, pt.X, pt.Y, False)[:2]


def field_stiffness(system: MassActionSystem, point) -> float:
    """dynamics._field's stiffness bound at a point."""
    pt = as_log(point)
    return dynamics._field(system, pt.X, pt.Y, True)[4]


def xline_at(near: LogPoint, dx: float, dy: float, c: float, mirrored: bool) -> LogPoint:
    """Point with log x = c (log y = c if mirrored) of the x-space line
    through near with direction (dx, dy), by the line kernel (on the x<->y
    mirror when mirrored)."""
    if mirrored:
        return LogPoint(_line_y_log(near.Y, near.X, dx / dy, c), c)
    return LogPoint(c, _line_y_log(near.X, near.Y, dy / dx, c))


def on_a_strip_boundary(X: float, Y: float, table: tuple) -> bool:
    """Is the log point (X, Y) within STRIP_TOL of a boundary of a strip of
    table, a Fan.regions table, where the strip count cannot choose?"""
    return any(abs(abs(q * Y - p * X) - half_width) <= STRIP_TOL
               for _, q, p, half_width, _, _ in table)


@contextlib.contextmanager
def fallbacks():
    """The points at which _rhs_fast falls back to rhs_bruteforce while the
    block runs, in call order."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tdi_rhs, "rhs_bruteforce",
                   lambda pt, *args: seen.append(pt) or rhs_bruteforce(pt, *args))
        yield seen


def complex_balance_residual(system: MassActionSystem, point) -> float:
    """max over vertices of |inflow - outflow| / (inflow + outflow): 0 where
    the system is complex balanced, as its embedding places it at the target."""
    pt = as_log(point)
    worst = 0.0
    for v in {c for r in system.reactions for c in (r.source, r.target)}:
        # Weights 1.0 and 0.0 pick the reactions into and out of v exactly
        # (m * 1.0 is m, and adding m * 0.0 adds nothing), so the two sums
        # are the vertex's inflow and outflow, in reaction order.
        rows = tuple((log_rate, sx, sy, float(r.target == v), float(r.source == v), 0.0)
                     for r, (log_rate, sx, sy, _, _, _) in zip(system.reactions, system.terms))
        fin, fout, _, _ = dynamics._term_sums(rows, pt.X, pt.Y, False)
        tot = fin + fout
        if tot > 0.0:
            worst = max(worst, abs(fin - fout) / tot)
    return worst


class XVelocity:
    """A cone-reading test selection given by its x-space velocity at a
    LogPoint, x_velocity(point, rhs, t), with the log velocity integrate
    takes from it."""

    reads_cone = True

    def velocity(self, X, Y, rhs, t, stiff):
        vx, vy = self.x_velocity(LogPoint(X, Y), rhs, t)
        return vx, vy, vx * math.exp(-X), vy * math.exp(-Y), 0.0


class TestMassActionField:
    def test_exchange_field(self):
        assert mass_action_field(simple_exchange(), PosPoint(2.0, 3.0)) == \
            pytest.approx((1.0, -1.0))

    def test_vanishes_on_diagonal(self):
        for v in (0.5, 1.0, 7.3):
            fx, fy = mass_action_field(simple_exchange(), PosPoint(v, v))
            assert fx == 0.0 and fy == 0.0

    def test_nm_system_vanishes_at_anchor(self, region, nm_system):
        fx, fy = mass_action_field(nm_system, region.start_max.log)
        scale = math.exp(region.start_max.log.X)
        assert math.hypot(fx, fy) <= 1e-10 * scale

    def test_overflow_cap(self):
        with pytest.raises(MonomialOverflow):
            mass_action_field(simple_exchange(), LogPoint(0.0, 700.0))

    def test_stiffness(self):
        # Y <-> X at (2, 3): row sums 5/2 and 5/3, field (1, -1) scaled by
        # (1/2, 1/3); the bound is 5/2 + 1/2.  It is the stiffness that the
        # field strategy computes in the same pass as the velocity.
        pt = PosPoint(2.0, 3.0)
        assert field_stiffness(simple_exchange(), pt) == pytest.approx(3.0, rel=1e-15)
        X, Y = pt.log().X, pt.log().Y
        assert FieldStrategy(simple_exchange()).velocity(X, Y, None, 0.0, True)[4] == \
            field_stiffness(simple_exchange(), pt)

    def test_reversibility_enforced(self):
        from toric_regions.dynamics import Reaction
        with pytest.raises(ValueError):
            MassActionSystem((Reaction((0.0, 1.0), (1.0, 0.0), 1.0, 0.0),), 1.0)

    @pytest.mark.parametrize("rate", [0.49, 2.01])
    def test_rate_outside_band_rejected(self, rate):
        with pytest.raises(ValueError, match="outside"):
            MassActionSystem(tuple(_reversible((0.0, 1.0), (1.0, 0.0), rate, 1.0)), 0.5)


    @pytest.mark.parametrize("evaluate", [
        lambda system, pt: FieldStrategy(system).velocity(pt.X, pt.Y, None, 0.0, True),
        complex_balance_residual,
        lambda system, pt: FieldStrategy(system).velocity(pt.X, pt.Y, None, 0.0, False),
        lambda system, pt: TimeRescaledField(system).velocity(pt.X, pt.Y, None, 0.0, False),
        lambda system, pt: TimeRescaledField(system).velocity(pt.X, pt.Y, None, 0.0, True),
    ], ids=["field_and_stiffness", "complex_balance", "field_stage", "rescaled_stage",
            "rescaled_and_stiffness"])
    def test_every_evaluator_caps_the_exponent(self, evaluate):
        # The term kernel raises for all of them, as for _field.
        with pytest.raises(MonomialOverflow, match="monomial exponent 700.0 beyond cap"):
            evaluate(simple_exchange(), LogPoint(0.0, 700.0))

    def test_evaluators_match_the_per_reaction_loops(self, nm_system):
        # The term kernel against the loops over the reactions it replaced,
        # with the same float operations in the same order: equal bits.
        def reference(system, pt):
            fx = fy = lx = ly = 0.0
            inflow, outflow = {}, {}
            for r in system.reactions:
                m = math.exp(r.log_rate + r.source[0] * pt.X + r.source[1] * pt.Y)
                dx, dy = r.target[0] - r.source[0], r.target[1] - r.source[1]
                wy = abs(r.source[0]) + abs(r.source[1])
                fx += m * dx
                fy += m * dy
                lx += m * abs(dx) * wy
                ly += m * abs(dy) * wy
                outflow[r.source] = outflow.get(r.source, 0.0) + m
                inflow[r.target] = inflow.get(r.target, 0.0) + m
            gx, gy = math.exp(-pt.X), math.exp(-pt.Y)
            stiff = max(lx * gx, ly * gy) + max(abs(fx) * gx, abs(fy) * gy)
            balance = max([0.0] + [abs(inflow.get(v, 0.0) - outflow.get(v, 0.0))
                                   / (inflow.get(v, 0.0) + outflow.get(v, 0.0))
                                   for v in set(inflow) | set(outflow)])
            return (fx, fy), stiff, balance

        axis = embedded_system_for_target(Fan([(-1, 1), (1, 2), (2, 1), (1, 0)]), DELTA,
                                          "origin_11")
        for system in (nm_system, axis, simple_exchange()):
            for pt in (LogPoint(0.3, -0.7), LogPoint(-2.5, 1.25), LogPoint(4.0, 3.0)):
                field, stiff, balance = reference(system, pt)
                assert mass_action_field(system, pt) == field
                assert field_stiffness(system, pt) == stiff
                assert complex_balance_residual(system, pt) == balance

    def test_term_table(self):
        # One row per reaction: log rate, source, target - source and the
        # source's L1 norm; it takes no part in equality.
        system = MassActionSystem(tuple(_reversible((0.0, 2.0), (1.0, 0.0), 2.0, 0.5)), 0.5)
        assert system.terms == ((math.log(2.0), 0.0, 2.0, 1.0, -2.0, 2.0),
                                (math.log(0.5), 1.0, 0.0, -1.0, 2.0, 1.0))
        assert system == MassActionSystem(system.reactions, 0.5)


class TestComplexBalance:
    def test_overflow_cap(self):
        with pytest.raises(MonomialOverflow):
            complex_balance_residual(simple_exchange(), LogPoint(0.0, 800.0))

    def test_symmetric_at_diagonal(self):
        assert complex_balance_residual(simple_exchange(), PosPoint(4.0, 4.0)) == 0.0

    def test_nm_system_balanced_at_anchor(self, region, nm_system):
        assert complex_balance_residual(nm_system, region.start_max.log) <= 1e-12

    def test_generic_point_unbalanced(self, nm_system):
        assert complex_balance_residual(nm_system, PosPoint(2.0, 5.0)) > 1e-3

    def test_origin_system_balanced_at_unit(self):
        sys11 = embedded_system_for_target(WORKED_FAN, DELTA, "origin_11")
        assert complex_balance_residual(sys11, PosPoint(1.0, 1.0)) == 0.0


class TestEmbedding:
    """The tagged fields must take values inside the inclusion cone."""

    def test_bad_targets_rejected(self):
        with pytest.raises(ValueError, match="needs the intersection-point provenance"):
            embedded_system_for_target(WORKED_FAN, DELTA, "point_NM")
        with pytest.raises(ValueError, match="unknown target 'nowhere'"):
            embedded_system_for_target(WORKED_FAN, DELTA, "nowhere")

    @pytest.mark.parametrize("gens, delta", [
        ([(-3, 2), (1, 3), (3, 1)], 200.0), ([(-1, 3), (2, 3), (3, 1)], 200.0),
        ([(-1, 1), (1, 2), (2, 1)], 1000.0), ([(1, 2), (2, 1)], 1000.0)])
    def test_rates_beyond_the_float_range_raise(self, gens, delta):
        # A backward rate e^(s_i * delta_i) past the float range, or one that
        # rounds to 0.0, is a MonomialOverflow; every other point builds.
        fan = Fan(gens)
        raised = []
        for ip in intersection_points(fan, delta):
            logs = [s * delta * fan.generators[i].norm for i, s in ((ip.i, ip.si), (ip.j, ip.sj))]
            if all(-745.0 < x < 709.0 for x in logs):
                embedded_system_for_target(fan, delta, "point_NM", provenance=ip)
                continue
            with pytest.raises(MonomialOverflow, match="beyond the float range"):
                embedded_system_for_target(fan, delta, "point_NM", provenance=ip)
            raised.append(max(logs, key=abs))
        assert any(x > 709.79 for x in raised)
        assert delta < 1000.0 or any(x < -745.14 for x in raised)

    def test_large_rates_lie_in_their_band(self):
        # At delta 1.5 the rate e^(1.5 * sqrt(5)) of strip (1,2) lies above
        # 1 / (1 / itself) in floats, so above 1/eps of a system where it is
        # the largest rate; the band check still takes it, at every
        # intersection point of the worked fan.
        rate = math.exp(1.5 * math.sqrt(5.0))
        assert 1.0 / (1.0 / rate) < rate
        for ip in intersection_points(WORKED_FAN, 1.5):
            system = embedded_system_for_target(WORKED_FAN, 1.5, "point_NM", provenance=ip)
            assert all(system.eps <= r.rate for r in system.reactions)

    @pytest.mark.parametrize("target", ["origin_11", "point_NM"])
    def test_field_in_cone_everywhere(self, region, target):
        prov = region.start_max if target == "point_NM" else None
        system = embedded_system_for_target(WORKED_FAN, DELTA, target, provenance=prov)
        rng = np.random.default_rng(11)
        worst = 0.0
        for X, Y in rng.uniform(-12.0, 12.0, size=(800, 2)):
            pt = LogPoint(float(X), float(Y))
            v = mass_action_field(system, pt)
            worst = max(worst, rhs_bruteforce(pt, WORKED_FAN, DELTA, tol=-1e-9).violation(v))
        assert worst <= 1e-9


class TestIntegrate:
    def test_constant_velocity_two_steps(self):
        class Constant(XVelocity):
            name = "constant"

            def x_velocity(self, point, rhs, t):
                return (1.0, 0.0)

        # x' = 1 from x = 1: the log step cap 0.25 splits t = 0.5 in two.
        traj = integrate(Constant(), PosPoint(1.0, 1.0), WORKED_FAN, DELTA,
                         t_end=0.5, dt=0.5)
        assert len(traj.times) == 3
        end = traj.points[-1]
        assert math.exp(end.X) == pytest.approx(1.5, rel=1e-4)
        assert math.exp(end.Y) == pytest.approx(1.0, rel=1e-12)

    def test_times_strictly_increase(self):
        sys11 = embedded_system_for_target(WORKED_FAN, DELTA, "origin_11")
        traj = integrate(FieldStrategy(sys11), LogPoint(2.0, -1.0), WORKED_FAN,
                         DELTA, t_end=0.2, dt=1e-2)
        assert all(b > a for a, b in zip(traj.times, traj.times[1:]))

    def test_invalid_strategy_collapses(self):
        class Outward(XVelocity):
            name = "outward"

            def x_velocity(self, point, rhs, t):
                return (1.0, 1.0)

        # Far up the diagonal the cone is {v . (1,1) <= 0}: (1,1) violates.
        with pytest.raises(StepCollapse):
            integrate(Outward(), LogPoint(10.0, 10.0), Fan([(1, 1), (-1, 1)]),
                      1.0, t_end=1.0, dt=1e-2)

    class Turning(XVelocity):
        """Inward (-1, -1) until t0, outward (1, 1) from then on.  With wall,
        every evaluation after t0 + 0.015 raises MonomialOverflow.

        The turn is half a step before t0, so rounding of the summed step
        times cannot move it.  Far up the diagonal of CROSS_FAN at delta 1
        the cone is {v . (1,1) <= 0}, which (1, 1) violates by 1.
        """

        name = "turning"

        def __init__(self, t0, wall):
            self.t0 = t0
            self.wall = wall

        def x_velocity(self, point, rhs, t):
            if self.wall and t > self.t0 + 0.015:
                raise MonomialOverflow("past the wall")
            return (1.0, 1.0) if t > self.t0 - 0.005 else (-1.0, -1.0)

    @pytest.mark.parametrize("wall", [False, True])
    @pytest.mark.parametrize("t0", [0.0, 0.37, 0.64])
    def test_first_violating_step_collapses(self, t0, wall):
        # The turn comes at the first step (t = 0), at step 38 (t = 0.37) or
        # at step 65 (t = 0.64) of this run of 100 steps; without the wall the
        # run goes on to t_end before the check.  With the wall, later stages
        # and step starts fail, but the violating step start comes first.
        with pytest.raises(StepCollapse) as err:
            integrate(self.Turning(t0, wall), LogPoint(10.0, 10.0), CROSS_FAN, 1.0,
                      t_end=1.0, dt=1e-2)
        assert str(err.value) == f"velocity violates the cone by 1.000e+00 at t={t0:.4g}"

    def test_keyboard_interrupt_is_not_replaced(self):
        # The first step start violates the cone, but an interrupt in its
        # stages leaves as it is, with no check made.
        class Interrupting(XVelocity):
            def x_velocity(self, point, rhs, t):
                if t > 0.0:
                    raise KeyboardInterrupt
                return (1.0, 1.0)

        with pytest.raises(KeyboardInterrupt):
            integrate(Interrupting(), LogPoint(10.0, 10.0), CROSS_FAN, 1.0, t_end=1.0, dt=1e-2)

    def test_step_starts_are_checked_in_one_batch(self, monkeypatch):
        batches = []
        violations = dynamics._violations

        def counted(X, Y, vx, vy, *args):
            batches.append(len(vx))
            return violations(X, Y, vx, vy, *args)

        monkeypatch.setattr(dynamics, "_violations", counted)
        traj = integrate(ExtremeRayStrategy("right"), LogPoint(-2.0, 1.5), WORKED_FAN, DELTA,
                         t_end=5.0)
        assert batches == [len(traj.times) - 1]
        # A run that starts no step makes no batch call.
        batches.clear()
        traj = integrate(ExtremeRayStrategy("right"), LogPoint(-2.0, 1.5), WORKED_FAN, DELTA,
                         t_end=5.0, stop_when=lambda X, Y, t: True)
        assert traj.termination == "stopped" and traj.velocities == [(0.0, 0.0)]
        assert batches == []

    def test_worst_violation_is_the_per_step_maximum(self):
        # An extreme ray scaled to unit log speed can leave its cone by
        # rounding, some 1e-16, where its components differ, as on the arms
        # of this fan; on the worked fan's (-1, -1) they are equal.
        fan = Fan([(-1, 3), (2, 3), (2, 1)])
        traj = integrate(ExtremeRayStrategy("right"), LogPoint(1.5, 3.0), fan, DELTA, t_end=5.0)
        ref = 0.0
        for p, v in zip(traj.points[:-1], traj.velocities[:-1]):
            ref = max(ref, rhs_bruteforce(p, fan, DELTA, tol=-1e-9).violation(v))
        assert len(traj.times) > 3 * 64 and ref > 0.0
        assert traj.worst_violation == ref

    @pytest.mark.parametrize("strategy", [FieldStrategy, TimeRescaledField])
    def test_field_flows_compute_no_cone(self, monkeypatch, strategy):
        calls = []
        fast = dynamics._rhs_fast
        monkeypatch.setattr(dynamics, "_rhs_fast", lambda *a: calls.append(a) or fast(*a))
        sys11 = embedded_system_for_target(WORKED_FAN, DELTA, "origin_11")
        traj = integrate(strategy(sys11), LogPoint(2.0, -1.5), WORKED_FAN, DELTA, t_end=5.0,
                         dt=1e-3)
        assert len(traj.times) > 50 and calls == []

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.inf, math.nan])
    def test_cone_readers_need_a_positive_delta(self, delta):
        # The run's strip table, fan.regions(delta), is built before
        # the first sample.
        with pytest.raises(NonPositiveDelta):
            integrate(ExtremeRayStrategy("left"), LogPoint(0.0, 0.0), WORKED_FAN, delta,
                      t_end=0.0)

    def test_ray_and_custom_selections_get_the_cone(self):
        # Step starts and stages alike get the very value _rhs_fast gives at
        # their point (the brute-force one at a strip boundary), whether the
        # run's cell keeps it or calls _rhs_fast.  Short runs of the worked
        # fan, then long runs of the four built-in cone readers on the four
        # reach fans, from far starts that slide along a boundary and from
        # seeded starts in [-3, 3]^2 that cross the r >= 2 zone.
        seen = []

        def recorded(strategy):
            velocity = strategy.velocity

            def wrapper(X, Y, rhs, t, stiff):
                seen.append((X, Y, rhs))
                return velocity(X, Y, rhs, t, stiff)

            strategy.velocity = wrapper
            return strategy

        class Custom(XVelocity):
            def x_velocity(self, point, rhs, t):
                seen.append((point.X, point.Y, rhs))
                return (rhs.extreme_rays() or [(-1.0, -1.0)])[0]

        def check(strategy, start, fan, t_end):
            seen.clear()
            integrate(strategy, start, fan, DELTA, t_end=t_end)
            table = fan.regions(DELTA)
            for X, Y, rhs in seen:
                assert rhs is dynamics._rhs_fast(X, Y, fan, DELTA, table)[0]
            return [rhs for _, _, rhs in seen]

        for strategy in (recorded(ExtremeRayStrategy("left")), Custom()):
            assert len(check(strategy, LogPoint(-2.0, 1.5), WORKED_FAN, 0.1)) > 10
        rng = np.random.default_rng(45)
        starts = [(12.0, -4.0), (-10.0, -10.0), *rng.uniform(-3.0, 3.0, (3, 2)).tolist()]
        switches = full = 0
        for gens in REACH_GENS:
            fan = Fan(gens)
            for k, start in enumerate(starts):
                for name, strategy in builtin_strategies(fan, DELTA, seed=k).items():
                    if strategy.reads_cone:
                        values = check(recorded(strategy), LogPoint(*start), fan, 5.0)
                        assert len(values) > 2000
                        switches += sum(a is not b for a, b in zip(values, values[1:]))
                        full += sum(not c.rays for c in values)
        assert switches > 10000 and full > 10000

    def test_a_sliding_run_keeps_its_cell(self, monkeypatch):
        # extreme_left from (12, -4) runs down to the boundary X + Y = 3*sqrt(2)
        # of the strip of (-1, 1) and slides along it, switching between the
        # values on either side hundreds of times: its cell keeps both, and
        # _rhs_fast runs on under 5 % of the evaluations.
        calls, seen = [], []
        fast = dynamics._rhs_fast
        monkeypatch.setattr(dynamics, "_rhs_fast", lambda *a: calls.append(a) or fast(*a))

        class Recording(ExtremeRayStrategy):
            def velocity(self, X, Y, rhs, t, stiff):
                seen.append(rhs)
                return super().velocity(X, Y, rhs, t, stiff)

        traj = integrate(Recording("left"), LogPoint(12.0, -4.0), WORKED_FAN, DELTA, t_end=5.0)
        assert traj.termination == "t_end" and traj.worst_violation <= 1e-9
        assert np.all(np.abs(traj.X[-100:] + traj.Y[-100:] - 3.0 * math.sqrt(2.0)) < 0.01)
        assert len({id(c) for c in seen}) == 2
        assert sum(a is not b for a, b in zip(seen, seen[1:])) > 300
        assert len(calls) < 0.05 * len(seen)

    class Walled(XVelocity):
        """Unit log speed along +X; the velocity overflows past X = 0.025."""

        name = "walled"

        def x_velocity(self, point, rhs, t):
            if point.X > 0.025:
                raise MonomialOverflow("past the wall")
            return (math.exp(point.X), 0.0)

    def test_overflowing_stage_halves_the_step(self):
        # From X = 1/64 a full step's last stage reaches 0.03125, past the
        # wall; the half step ends at 0.0234, short of it.
        dt = 1.0 / 64.0
        traj = integrate(self.Walled(), LogPoint(0.0, 0.0), WORKED_FAN, DELTA,
                         t_end=1.0, dt=dt, stop_when=lambda X, Y, t: t > dt)
        assert traj.termination == "stopped"
        assert np.diff(traj.times).tolist() == [dt, dt / 2.0]
        assert traj.points[-1].X == pytest.approx(dt * 1.5, rel=1e-12)

    def test_overflow_at_the_wall_collapses(self):
        # The remaining gap to the wall shrinks until no step above
        # dt/1024 passes.
        with pytest.raises(StepCollapse, match="step below"):
            integrate(self.Walled(), LogPoint(0.0, 0.0), WORKED_FAN, DELTA,
                      t_end=1.0, dt=1.0 / 64.0)

    def test_stalled_clock_collapses(self):
        # From this anchor the stiffness bound is 6.2e36, so the step cap is
        # tiny; after about 470 steps a step of 1.57e-52 no longer changes
        # t = 1.856e-36, and the samples' times would repeat.
        fan = Fan([(-2, 3), (1, 2), (1, 1), (1, 3)])
        start = construct_region(fan, 3.0, validate=False).anchors["A2"]
        field = FieldStrategy(embedded_system_for_target(fan, 3.0, "origin_11"))
        with pytest.raises(StepCollapse, match="no longer advances t="):
            integrate(field, start, fan, 3.0, t_end=5.0)

    class Past(XVelocity):
        """Walled's unit log speed along +X, but past X = 0.025 the velocity
        is scaled by factor: NaN, or a thousandfold speed."""

        name = "past"

        def __init__(self, factor):
            self.factor = factor

        def x_velocity(self, point, rhs, t):
            return (math.exp(point.X) * (self.factor if point.X > 0.025 else 1.0), 0.0)

    @pytest.mark.parametrize("factor", [math.nan, 1000.0])
    def test_bad_increment_halves_the_step(self, factor):
        # As at the wall: a full second step's last stage lies past X = 0.025,
        # so its increment in X is NaN, or (5 + 1000) / 384 > 1; the half step
        # stays short of it, and the run goes on.
        dt = 1.0 / 64.0
        traj = integrate(self.Past(factor), LogPoint(0.0, 0.0), WORKED_FAN, DELTA,
                         t_end=1.0, dt=dt, stop_when=lambda X, Y, t: t > dt)
        assert traj.termination == "stopped"
        assert np.diff(traj.times).tolist() == [dt, dt / 2.0]
        assert traj.points[-1].X == pytest.approx(dt * 1.5, rel=1e-12)

    def test_non_finite_stage_point_halves_the_step(self):
        # Past X = 0.02 the velocity is NaN.  The second step's second stage
        # (X = 0.0234) lies past it, so its third stage point is not finite:
        # that point's cone raises NonFinitePoint, which fails the stage as
        # an overflow does, and the selection is never evaluated there.  The
        # half step's last stage is past the wall too; the quarter step
        # passes.
        seen = []

        class NanPast(XVelocity):
            def x_velocity(self, point, rhs, t):
                seen.append(point)
                return (math.exp(point.X) if point.X <= 0.02 else math.nan, 0.0)

        dt = 1.0 / 64.0
        traj = integrate(NanPast(), LogPoint(0.0, 0.0), WORKED_FAN, DELTA,
                         t_end=1.0, dt=dt, stop_when=lambda X, Y, t: t > dt)
        assert np.diff(traj.times).tolist() == [dt, dt / 4.0]
        assert any(p.X > 0.02 for p in seen)
        assert all(math.isfinite(p.X) and math.isfinite(p.Y) for p in seen)

    def test_zero_velocity_stalls(self):
        class Still(XVelocity):
            name = "still"

            def x_velocity(self, point, rhs, t):
                return (0.0, 0.0)

        traj = integrate(Still(), LogPoint(0.0, 0.0), WORKED_FAN, DELTA, t_end=1.0)
        assert traj.termination == "stalled"
        assert traj.times == [0.0] and traj.points == [LogPoint(0.0, 0.0)]
        assert traj.velocities == [(0.0, 0.0)]

    def test_stop_when_once_per_sample(self):
        seen = []

        def stop(X, Y, t):
            seen.append((LogPoint(X, Y), t))
            return False

        traj = integrate(ExtremeRayStrategy("left"), LogPoint(-2.0, 1.5), WORKED_FAN, DELTA,
                         t_end=1.0, stop_when=stop)
        assert traj.termination == "t_end" and len(traj.points) == 101
        assert seen == list(zip(traj.points, traj.times))

    @pytest.mark.parametrize("t_end", [0.0, -1.0])
    def test_stopping_start_stops_without_time(self, t_end):
        traj = integrate(ExtremeRayStrategy("left"), LogPoint(0.0, 0.0), WORKED_FAN, DELTA,
                         t_end=t_end, stop_when=lambda X, Y, t: True)
        assert traj.termination == "stopped" and traj.points == [LogPoint(0.0, 0.0)]
        traj = integrate(ExtremeRayStrategy("left"), LogPoint(0.0, 0.0), WORKED_FAN, DELTA,
                         t_end=t_end, stop_when=lambda X, Y, t: False)
        assert traj.termination == "t_end" and traj.points == [LogPoint(0.0, 0.0)]

    def test_runs_out_of_steps(self):
        # A fast turn about (1,1), where every strip holds the point (so the
        # cone is the whole plane): each step moves 0.25 in log space in
        # 2.5e-5 time, so 64 * ceil(t_end / dt) + 16 = 656 steps end short
        # of t_end.  Spin reads the cone, so its steps are fixed.
        class Spin(XVelocity):
            def x_velocity(self, p, rhs, t):
                return (-1e4 * p.Y * math.exp(p.X), 1e4 * p.X * math.exp(p.Y))

        traj = integrate(Spin(), LogPoint(1.0, 0.0), WORKED_FAN, DELTA, t_end=0.1, dt=0.01)
        assert traj.termination == "max_steps"
        assert len(traj.points) == 657 and traj.times[-1] < 0.1
        assert max(math.hypot(p.X, p.Y) for p in traj.points) < 1.1
        assert traj.worst_violation == 0.0

    @pytest.mark.parametrize("kwargs, name", [
        ({"t_end": math.nan}, "t_end"), ({"t_end": math.inf}, "t_end"),
        ({"t_end": -math.inf}, "t_end"), ({"t_end": 1.0, "dt": 0.0}, "dt"),
        ({"t_end": 1.0, "dt": -0.01}, "dt"), ({"t_end": 1.0, "dt": math.nan}, "dt"),
        ({"t_end": 1.0, "dt": math.inf}, "dt"),
    ])
    def test_bad_time_arguments_are_named(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            integrate(ExtremeRayStrategy("left"), LogPoint(0.0, 0.0), WORKED_FAN, DELTA,
                      **kwargs)

    @pytest.mark.parametrize("start", [LogPoint(math.nan, 0.0), LogPoint(0.0, math.inf)])
    def test_non_finite_start_is_named(self, start):
        with pytest.raises(NonFinitePoint, match="^start"):
            integrate(ExtremeRayStrategy("left"), start, WORKED_FAN, DELTA, t_end=1.0)

    def test_convergence_origin_system(self):
        sys11 = embedded_system_for_target(WORKED_FAN, DELTA, "origin_11")
        traj = integrate_to_point(sys11, PosPoint(math.exp(3.0), math.exp(-2.0)),
                                  WORKED_FAN, DELTA, LogPoint(0.0, 0.0), t_end=200.0)
        assert traj.termination == "stopped"
        end = traj.points[-1]
        assert max(abs(end.X), abs(end.Y)) <= 1e-6
        assert traj.worst_violation <= 1e-9

    @staticmethod
    def attempted_ends(monkeypatch, run):
        """run() under a count of term-kernel passes: the trajectory, the
        number of passes, and the log points of the passes that evaluate
        stiffness, which are the start's and then each attempted step's
        end."""
        passes = []
        sums = dynamics._term_sums
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "_term_sums", lambda *args: passes.append(args) or sums(*args))
            traj = run()
        return traj, len(passes), [LogPoint(X, Y) for _, X, Y, stiff in passes if stiff]

    @pytest.mark.parametrize("rescale", [False, True])
    def test_six_monomial_passes_per_step(self, monkeypatch, rescale):
        # The first step start's velocity and stiffness come from one pass of
        # the term kernel.  Every attempted step makes six: its five later
        # stages and its end, whose velocity and stiffness start the next
        # step when the step is accepted.  The last sample's goes unused.
        sys11 = embedded_system_for_target(WORKED_FAN, DELTA, "origin_11")
        traj, passes, ends = self.attempted_ends(monkeypatch, lambda: integrate_to_point(
            sys11, LogPoint(4.0, -3.0), WORKED_FAN, DELTA, LogPoint(0.0, 0.0),
            rescale=rescale))
        steps = len(traj.times) - 1
        assert traj.termination == "stopped" and steps >= 100
        # The accepted ends are the samples, in order; no start is evaluated
        # again.
        assert ends[0] == traj.points[0]
        assert [p for p in ends[1:] if p in traj.points] == traj.points[1:]
        attempts = len(ends) - 1
        assert attempts >= steps
        assert passes == 6 * attempts + 1

    class Generic:
        """A selection's x-space velocity and stiffness alone: integrate
        gets the log velocity from them as (vx * e^-X, vy * e^-Y)."""

        def __init__(self, strategy):
            self.strategy = strategy
            self.reads_cone = strategy.reads_cone

        def velocity(self, X, Y, rhs, t, stiff):
            vx, vy, _, _, stiffness = self.strategy.velocity(X, Y, rhs, t, stiff)
            return vx, vy, vx * math.exp(-X), vy * math.exp(-Y), stiffness

    @pytest.mark.parametrize("rescale", [False, True])
    @pytest.mark.parametrize("gens", [[(-1, 1), (1, 2), (2, 1)],
                                      [(-1, 1), (1, 2), (2, 1), (1, 0)]],
                             ids=["worked", "axis"])
    def test_float_stages_match_the_generic_stage(self, monkeypatch, gens, rescale):
        # The log velocity a field strategy gives is its velocity's, bit for
        # bit: the same run with the generic stage has equal times, points
        # and velocities, over more than 500 samples from six starts.
        fan = Fan(gens)
        sys11 = embedded_system_for_target(fan, DELTA, "origin_11")
        compared = 0
        for start in (LogPoint(2.0, -1.5), LogPoint(-2.5, 0.5), LogPoint(1.0, 2.5),
                      LogPoint(-1.5, -2.0), LogPoint(4.0, -3.0), LogPoint(-4.0, 3.0)):
            fast = integrate_to_point(sys11, start, fan, DELTA, LogPoint(0.0, 0.0),
                                      rescale=rescale)
            with monkeypatch.context() as patch:
                for name in ("FieldStrategy", "TimeRescaledField"):
                    cls = getattr(dynamics, name)
                    patch.setattr(dynamics, name,
                                  lambda system, cls=cls: self.Generic(cls(system)))
                generic = integrate_to_point(sys11, start, fan, DELTA, LogPoint(0.0, 0.0),
                                             rescale=rescale)
            assert fast.termination == generic.termination == "stopped"
            assert fast.times == generic.times
            assert fast.points == generic.points
            assert fast.velocities == generic.velocities
            assert fast.worst_violation == generic.worst_violation
            compared += len(fast.times)
        assert compared > 500

    @pytest.mark.parametrize("make", [lambda: ExtremeRayStrategy("left"),
                                      lambda: ExtremeRayStrategy("right"),
                                      AlternatingStrategy, lambda: RandomInConeStrategy(3)],
                             ids=["left", "right", "alternating", "random"])
    @pytest.mark.parametrize("gens", [[(-1, 1), (1, 2), (2, 1)],
                                      [(-1, 1), (1, 2), (2, 1), (1, 0)]],
                             ids=["worked", "axis"])
    def test_cone_readers_float_stages_match_the_generic_stage(self, gens, make):
        # The log velocity a ray, alternating or random selection gives is
        # its velocity's, bit for bit: the same run with the generic stage
        # has equal times, points, velocities, termination and worst
        # violation.  Both runs cross strip boundaries, and the second
        # starts on the boundary of strip (1,2), where the cone is the
        # brute-force one.
        fan = Fan(gens)
        on_strip = LogPoint(-7.0, (delta_i(LineGenerator(1, 2), DELTA) - 7.0) / 2.0)
        assert on_a_strip_boundary(on_strip.X, on_strip.Y, fan.regions(DELTA))
        for start in (LogPoint(-5.0, -1.0), on_strip):
            fast = integrate(make(), start, fan, DELTA, t_end=5.0)
            generic = integrate(self.Generic(make()), start, fan, DELTA, t_end=5.0)
            assert len({r_count(p, fan, DELTA) for p in fast.points}) > 1
            assert fast.termination == generic.termination
            assert fast.times == generic.times
            assert fast.points == generic.points
            assert fast.velocities == generic.velocities
            assert fast.worst_violation == generic.worst_violation

    def test_convergence_nm_system(self, monkeypatch, region, nm_system):
        # At (-8, 8) the stiffness is about 8e10, so the capped first step,
        # 1.5 over it, is far below dt/1024.  Error rejections there still
        # pass: their floor is 1/1024 of the capped step.
        target = region.start_max.log
        traj, _, ends = self.attempted_ends(monkeypatch, lambda: integrate_to_point(
            nm_system, LogPoint(-8.0, 8.0), WORKED_FAN, DELTA, target, t_end=200.0))
        assert traj.termination == "stopped"
        end = traj.points[-1]
        assert max(abs(end.X - target.X), abs(end.Y - target.Y)) <= 1e-6
        assert traj.worst_violation <= 1e-9
        assert traj.times[1] < 1e-2 / 1024.0
        assert ends[1] != traj.points[1]  # the first attempt was rejected
        assert len(ends) - 1 > len(traj.times) - 1

    class FixedStep:
        """A field strategy's velocity as a cone reader's, with no
        stiffness: integrate steps it at the caps, with no error control
        and no stiffness bound."""

        reads_cone = True

        def __init__(self, strategy):
            self.strategy = strategy

        def velocity(self, X, Y, rhs, t, stiff):
            return self.strategy.velocity(X, Y, None, t, False)

    @pytest.mark.parametrize("rescale", [False, True])
    @pytest.mark.parametrize("gens", [[(-1, 1), (1, 2), (2, 1)],
                                      [(-1, 1), (1, 2), (2, 1), (1, 0)]],
                             ids=["worked", "axis"])
    def test_error_control_meets_a_fine_fixed_step(self, gens, rescale):
        # At t = 1 the error-controlled flow lies within 1e-9 (log space) of
        # fixed RK4 steps of 1e-4; fixed steps of 1e-3 missed by up to 4e-8.
        fan = Fan(gens)
        strategy = (TimeRescaledField if rescale else FieldStrategy)(
            embedded_system_for_target(fan, DELTA, "origin_11"))
        for start in (LogPoint(2.0, -1.5), LogPoint(-2.5, 0.5), LogPoint(1.0, 2.5),
                      LogPoint(-1.5, -2.0)):
            run = integrate(strategy, start, fan, DELTA, t_end=1.0)
            ref = integrate(self.FixedStep(strategy), start, fan, DELTA, t_end=1.0, dt=1e-4)
            assert len(run.times) <= 501 and len(ref.times) > 10000
            a, b = run.points[-1], ref.points[-1]
            assert max(abs(a.X - b.X), abs(a.Y - b.Y)) <= 1e-9

    def test_runs_keep_their_recorded_digests(self):
        # tools/reach_outcomes.trajectory_digest of one run of every built-in
        # selection and of both field flows: a change that moves any bit of
        # them fails here.  The cone readers start on the boundary of strip
        # (1,2), where the cone is the brute-force one, and cross from the
        # gap into two strips.
        path = Path(__file__).resolve().parent.parent / "tools" / "reach_outcomes.py"
        spec = importlib.util.spec_from_file_location("reach_outcomes", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        on_strip = LogPoint(-7.0, (delta_i(LineGenerator(1, 2), DELTA) - 7.0) / 2.0)
        digests = {}
        for name, strategy in builtin_strategies(WORKED_FAN, DELTA, seed=3).items():
            start = LogPoint(2.0, -1.5) if name == "origin_11" else on_strip
            traj = integrate(strategy, start, WORKED_FAN, DELTA, t_end=5.0)
            digests[name] = (tool.trajectory_digest(traj), len(traj.points))
        sys11 = embedded_system_for_target(WORKED_FAN, DELTA, "origin_11")
        for rescale in (False, True):
            traj = integrate_to_point(sys11, LogPoint(-2.5, 0.5), WORKED_FAN, DELTA,
                                      LogPoint(0.0, 0.0), rescale=rescale)
            digests[f"flow_rescale_{rescale}"] = (tool.trajectory_digest(traj), len(traj.points))
        assert digests == {
            "origin_11": ("a89a73d81ede36a8", 167),
            "extreme_left": ("98f76d7b7f009dfa", 502),
            "extreme_right": ("636348ee71ca0aea", 502),
            "alternating": ("a1d025d45750dc99", 502),
            "random_in_cone": ("b2866197ce3c5cf3", 502),
            "flow_rescale_False": ("eace7e348576569f", 136),
            "flow_rescale_True": ("d2788cbd4f1d0458", 90),
        }

    class EndTimes:
        """A field selection that records the time of every evaluation asked
        for its stiffness: the start's, then each attempted step's end."""

        reads_cone = False

        def __init__(self, strategy):
            self.strategy = strategy
            self.ends = []

        def velocity(self, X, Y, rhs, t, stiff):
            if stiff:
                self.ends.append(t)
            return self.strategy.velocity(X, Y, rhs, t, stiff)

        def attempts(self, times) -> list[tuple[float, float, bool]]:
            """(start time, step, accepted) of each attempted step of the
            run whose sample times are times."""
            out, t0, accepted = [], 0.0, set(times)
            for t in self.ends[1:]:
                out.append((t0, t - t0, t in accepted))
                if t in accepted:
                    t0 = t
            return out

    def test_error_rejections_shrink_the_step(self):
        # From (2, -1.5) the first attempt, at its caps, misses the
        # tolerance; the error control retries shorter (by its factor in
        # [0.2, 0.9), not the halving of a failed stage) and then grows the
        # step again.
        sys11 = embedded_system_for_target(WORKED_FAN, DELTA, "origin_11")
        field = self.EndTimes(FieldStrategy(sys11))
        traj = integrate(field, LogPoint(2.0, -1.5), WORKED_FAN, DELTA, t_end=0.05)
        (_, h1, accepted1), (_, h2, accepted2) = field.attempts(traj.times)[:2]
        assert not accepted1 and accepted2
        assert 0.2 * h1 <= h2 < 0.9 * h1 and h2 != 0.5 * h1
        steps = np.diff(traj.times)
        assert steps[0] == h2 and steps.max() > 2.0 * steps[0]

    @pytest.mark.parametrize("rescale", [False, True])
    def test_field_steps_outgrow_dt(self, rescale):
        # dt is a field's first trial step only: where the error allows,
        # its steps grow past it, up to its other caps.  Both flows reach
        # t = 5 in fewer steps than dt would allow.
        sys11 = embedded_system_for_target(WORKED_FAN, DELTA, "origin_11")
        strategy = (TimeRescaledField if rescale else FieldStrategy)(sys11)
        traj = integrate(strategy, LogPoint(2.0, -1.5), WORKED_FAN, DELTA, t_end=5.0, dt=1e-2)
        steps = np.diff(traj.times)
        assert traj.termination == "t_end"
        assert steps[0] <= 1e-2 and steps.max() > 10.0 * 1e-2
        assert len(steps) < 5.0 / 1e-2

    def test_uncapped_rejection_retries_above_its_floor(self):
        # On a flow to (1, 1) with t_end = 200, an attempt of 0.2 (twenty
        # times dt) at t = 0.75 misses the tolerance and retries at 0.18.
        # That lies below 1/1024 of the time left, 0.195, but above the
        # retry floor, 1/1024 of the smaller of dt and the capped step: the
        # run goes on and converges.
        sys11 = embedded_system_for_target(WORKED_FAN, DELTA, "origin_11")
        field = self.EndTimes(TimeRescaledField(sys11))
        traj = integrate(field, LogPoint(2.0, -1.5), WORKED_FAN, DELTA, t_end=200.0,
                         stop_when=lambda X, Y, t: max(abs(X), abs(Y)) <= 5e-7)
        assert traj.termination == "stopped"
        attempts = field.attempts(traj.times)
        retries = [(t0, h, attempts[k + 1][1]) for k, (t0, h, accepted) in enumerate(attempts)
                   if not accepted and h > 1e-2]
        assert retries
        assert any(retry < (200.0 - t0) / 1024.0 for t0, _, retry in retries)

    @pytest.mark.parametrize("strategy", [ExtremeRayStrategy("left"), AlternatingStrategy(),
                                          RandomInConeStrategy(3)],
                             ids=["ray", "alternating", "random"])
    def test_other_selections_step_exactly_dt(self, strategy):
        # The ray and random selections jump at sector boundaries and get no
        # error control: every step is dt (1/64, so the summed times are
        # exact) up to t_end.
        traj = integrate(strategy, LogPoint(-2.0, 1.5), WORKED_FAN, DELTA, t_end=1.0,
                         dt=1.0 / 64.0)
        assert traj.termination == "t_end"
        assert np.diff(traj.times).tolist() == [1.0 / 64.0] * 64


class TestRhsFast:
    @pytest.mark.parametrize("gens", [[(-1, 1), (1, 2), (2, 1)],
                                      [(-1, 1), (1, 2), (2, 1), (1, 0)]],
                             ids=["worked", "axis"])
    def test_matches_the_definition(self, gens):
        # On a seeded grid, and at points on, within and just past STRIP_TOL
        # of every strip boundary, _rhs_fast gives the definition's value:
        # by the strip count, or, within STRIP_TOL of a boundary, where the
        # count cannot choose, by rhs_bruteforce.  It falls back there and
        # nowhere else: never on the grid, once at each boundary probe.
        fan = Fan(gens)
        table = fan.regions(DELTA)
        rng = np.random.default_rng(17)
        points = [tuple(p) for p in rng.uniform(-12.0, 12.0, size=(400, 2)).tolist()]
        for _, q, p, half_width, _, _ in table:
            n2 = q * q + p * p
            for s in (half_width, -half_width):
                for e in (0.0, 0.5e-9, -0.5e-9, 5e-9, -5e-9):
                    a = float(rng.uniform(-6.0, 6.0))
                    points.append((-p * (s + e) / n2 + q * a, q * (s + e) / n2 + p * a))
        ambiguous = []
        with fallbacks() as seen:
            for X, Y in points:
                if on_a_strip_boundary(X, Y, table):
                    ambiguous.append(LogPoint(X, Y))
                truth = rhs_bruteforce(LogPoint(X, Y), fan, DELTA)
                assert dynamics._rhs_fast(X, Y, fan, DELTA, table)[0] is truth
        assert seen == ambiguous and len(ambiguous) >= 2 * len(table)
        assert not any(on_a_strip_boundary(X, Y, table) for X, Y in points[:400])

    @pytest.mark.parametrize("X, Y", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan)])
    def test_non_finite_points_raise(self, X, Y):
        table = WORKED_FAN.regions(DELTA)
        with pytest.raises(NonFinitePoint, match="^point"):
            dynamics._rhs_fast(X, Y, WORKED_FAN, DELTA, table)

    def test_overflowing_strip_coordinates_keep_a_cell(self):
        # Near the float limit q*Y - p*X and q*X + p*Y overflow to inf: the
        # cell still names a row, its radius is no NaN, and a ray run from
        # there stalls at once, its velocity 0.
        fan = Fan([(1, 2), (2, 1)])
        table = fan.regions(DELTA)
        for X, Y in ((1e308, 1e308), (1e308, -1e308), (-1e308, 1e308)):
            _, radius, near_row = dynamics._rhs_fast(X, Y, fan, DELTA, table)
            assert near_row in table and not math.isnan(radius)
        traj = integrate(ExtremeRayStrategy("left"), LogPoint(1e308, 1e308), fan, DELTA,
                         t_end=1.0)
        assert traj.termination == "stalled" and len(traj.times) == 1

    def test_strip_boundary_takes_the_bruteforce_value(self):
        # On the boundary of strip (1,2), 2Y - X = delta_i, with the gap
        # outside: the strip count cannot choose, and _rhs_fast gives the
        # definition's open-side value, inside the checks' inclusive one.
        pt = LogPoint(-7.0, (delta_i(LineGenerator(1, 2), DELTA) - 7.0) / 2.0)
        table = WORKED_FAN.regions(DELTA)
        assert on_a_strip_boundary(pt.X, pt.Y, table)
        with fallbacks() as seen:
            value, radius, _ = dynamics._rhs_fast(pt.X, pt.Y, WORKED_FAN, DELTA, table)
        assert value is rhs_bruteforce(pt, WORKED_FAN, DELTA) and radius == 0.0
        assert seen == [pt]
        # The run steps off the boundary: only its points within STRIP_TOL
        # of one fall back, the start among them.
        with fallbacks() as seen:
            traj = integrate(ExtremeRayStrategy("left"), pt, WORKED_FAN, DELTA, t_end=1.0)
        assert traj.termination == "t_end" and traj.worst_violation <= 1e-9
        assert seen and seen[0] == pt
        assert all(on_a_strip_boundary(p.X, p.Y, table) for p in seen)


class TestStrategies:
    def test_ray_selections_keep_unit_log_speed(self):
        # At x = y = e^-12 a unit log speed is an x-space speed of about
        # 6e-6, in a proper cone as in the full plane: no selection raises
        # it, and each stays in its cone.
        pt = LogPoint(-12.0, -12.0)
        rhs = rhs_bruteforce(pt, WORKED_FAN, DELTA)
        full = rhs_bruteforce(LogPoint(0.0, 0.0), WORKED_FAN, DELTA)
        assert kind(rhs) == "sector" and kind(full) == "full plane"
        reg = builtin_strategies(WORKED_FAN, DELTA, seed=7)
        for name in ("extreme_left", "extreme_right", "alternating", "random_in_cone"):
            for t in (0.1, 0.6):
                for cone in (rhs, full):
                    v = reg[name].velocity(pt.X, pt.Y, cone, t, False)[:2]
                    assert math.hypot(v[0] * math.exp(12.0), v[1] * math.exp(12.0)) == \
                        pytest.approx(1.0, rel=1e-12), name
                    assert cone.violation(v) <= 1e-9, name

    @pytest.mark.parametrize("gens", [REACH_GENS[0], [(1, 2), (2, 1), (1, 3)]])
    def test_ray_selections_run_to_t_end_from_the_far_corner(self, gens):
        # From (-10, -10) every cone reader, extreme_right among them, runs
        # at unit log speed to t = 5 in 502 points.  An x-space speed floor
        # of 1e-3 once drove y to 0 in finite time there: extreme_right then
        # spent its whole step budget and ended max_steps at t = 0.102.
        fan = Fan(gens)
        for name, strategy in builtin_strategies(fan, DELTA, seed=0).items():
            if strategy.reads_cone:
                traj = integrate(strategy, LogPoint(-10.0, -10.0), fan, DELTA, t_end=5.0)
                assert (traj.termination, len(traj.points)) == ("t_end", 502), name
                assert traj.worst_violation <= 1e-9, name

    def test_extreme_rays_stay_in_cone(self):
        rng = np.random.default_rng(3)
        left = ExtremeRayStrategy("left")
        right = ExtremeRayStrategy("right")
        for X, Y in rng.uniform(-10, 10, size=(200, 2)):
            pt = LogPoint(float(X), float(Y))
            rhs = rhs_bruteforce(pt, WORKED_FAN, DELTA, tol=-1e-9)
            for strat in (left, right):
                assert rhs.violation(strat.velocity(pt.X, pt.Y, rhs, 0.0, False)[:2]) <= 1e-9

    def test_random_in_cone_stays_in_cone(self):
        rng = np.random.default_rng(4)
        strat = RandomInConeStrategy(seed=5)
        for X, Y in rng.uniform(-10, 10, size=(200, 2)):
            pt = LogPoint(float(X), float(Y))
            rhs = rhs_bruteforce(pt, WORKED_FAN, DELTA, tol=-1e-9)
            assert rhs.violation(strat.velocity(pt.X, pt.Y, rhs, 0.0, False)[:2]) <= 1e-9

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError, match="'left' or 'right'"):
            ExtremeRayStrategy("up")

    def test_random_in_cone_draws_the_scalar_stream(self):
        # Doubles drawn 512 at a time give what scalar Generator.uniform
        # calls would, for both ranges, across block refills.
        strat = RandomInConeStrategy(seed=9)
        rng = np.random.default_rng(9)
        for k in range(1200):
            low, high = (0.05, 0.95) if k % 3 else (0.0, 2.0 * math.pi)
            assert strat._uniform(low, high) == float(rng.uniform(low, high))

    def test_random_in_cone_on_a_line(self):
        # On a line cone each draw is one of its two directions.
        line = Cone(((3, 1), (-3, -1)))
        strat = RandomInConeStrategy(seed=2)
        picks = {strat.velocity(0.0, 0.0, line, 0.0, False)[:2] for _ in range(32)}
        u = (3 / math.sqrt(10), 1 / math.sqrt(10))
        assert len(picks) == 2
        for v in picks:
            assert line.violation(v) <= 1e-12
            assert abs(abs(v[0] * u[0] + v[1] * u[1]) - math.hypot(*v)) <= 1e-12

    def test_zero_log_speed_gives_zero_velocity(self):
        # At x = y = e^800 a unit x-space direction has log speed 0.0 in
        # floats, and the ray selection rests instead of dividing by it.
        strat = ExtremeRayStrategy("left")
        assert strat.velocity(800.0, 800.0, Cone(((1, 0), (1, 2))), 0.0, False) == (0.0,) * 5

    def test_velocity_gives_the_stiffness_on_request(self):
        # Asked for the stiffness or not, a field gives the same velocity
        # and log velocity bits; the stiffness is field_stiffness, over
        # d = 1 + the log speed for the rescaled field, and 0.0 unasked.
        # Cone readers give 0.0 either way.
        system = embedded_system_for_target(WORKED_FAN, DELTA, "origin_11")
        reg = builtin_strategies(WORKED_FAN, DELTA, seed=7)
        field, rescaled = FieldStrategy(system), TimeRescaledField(system)
        assert (field.reads_cone, rescaled.reads_cone) == (False, False)
        for X, Y in ((0.3, -0.7), (-2.5, 1.25), (4.0, 3.0), (-12.0, -12.0)):
            stiffness = field_stiffness(system, LogPoint(X, Y))
            for strategy in (field, rescaled):
                asked = strategy.velocity(X, Y, None, 0.0, True)
                unasked = strategy.velocity(X, Y, None, 0.0, False)
                assert asked[:4] == unasked[:4] and unasked[4] == 0.0
            fx, fy, f0, f1, s = field.velocity(X, Y, None, 0.0, True)
            assert s == stiffness and (fx, fy) == mass_action_field(system, LogPoint(X, Y))
            assert rescaled.velocity(X, Y, None, 0.0, True)[4] == \
                stiffness / (1.0 + math.hypot(f0, f1))
            rhs = rhs_bruteforce(LogPoint(X, Y), WORKED_FAN, DELTA)
            for name in ("extreme_left", "extreme_right", "alternating", "random_in_cone"):
                assert reg[name].reads_cone
                for stiff in (False, True):
                    assert reg[name].velocity(X, Y, rhs, 0.6, stiff)[4] == 0.0

    def test_registry_names(self):
        reg = builtin_strategies(WORKED_FAN, DELTA)
        assert set(reg) == {"origin_11", "extreme_left", "extreme_right",
                            "alternating", "random_in_cone"}
        # No wrapper renames the ray selections.
        assert [reg[n].name for n in ("extreme_left", "extreme_right", "alternating")] == \
            ["extreme_left", "extreme_right", "alternating"]
        assert reg["random_in_cone"].name == "random_in_cone_0"


class TestTrajectory:
    @pytest.mark.parametrize("times", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0]])
    def test_times_must_increase(self, times):
        with pytest.raises(ValueError, match="strictly increase"):
            Trajectory(times, *[[0.0] * 3] * 4, "synthetic", "t_end")

    @pytest.mark.parametrize("times", [
        [], [0.0], [0.0, 1.0, 2.0], [1.0, -0.0, 0.0],
        [0.0, math.nan, 1.0], [math.nan, math.nan], [0.0, 1.0, math.nan, 0.5],
        [0.0, math.inf, math.inf], [-math.inf, 0.0, math.inf]])
    def test_time_check_is_the_pairwise_rule(self, times):
        # A pair fails when the later time is <= the earlier; a NaN fails no pair.
        n = len(times)
        if any(b <= a for a, b in zip(times, times[1:])):
            with pytest.raises(ValueError, match="strictly increase"):
                Trajectory(times, *[[0.0] * n] * 4, "s", "t_end")
        else:
            Trajectory(times, *[[0.0] * n] * 4, "s", "t_end")


class TestReachWitness:
    def test_gap_run_along_no_dominant_component_moves_on(self):
        # At delta 100 the Cr anchor lies at X = -1411: the difference of
        # exponentials in _xspace_unit rounds the first candidate's straight
        # gap run to dx = 0.0, whose walk along log x raises NoCrossing; the
        # next candidate walks its segment to the target.
        fan = Fan([(-1, 1), (1, 3), (1, 1), (1, 0), (-3, 1), (2, 1)])
        region = construct_region(fan, 100.0, validate=False)
        target = region.anchors["Cr"]
        traj = reach_witness(PosPoint(1.0, 1.0), target, fan, 100.0, region)
        assert traj.termination == "arrived" and traj.worst_violation <= 1e-9
        assert traj.legs[-1].description == "walk to the target"
        end = traj.points[-1]
        assert max(abs(end.X - target.X), abs(end.Y - target.Y)) <= 1e-6

    @pytest.mark.parametrize("gens, delta", [([(2, 3), (1, 1)], 100.0),
                                             ([(-2, 3), (2, 3), (3, 2)], 300.0)])
    def test_straight_legs_past_exp_range(self, gens, delta):
        # (N,M) lies past log x = 709, where e^X overflows: the straight
        # legs' velocities are scaled down there, and the witness arrives.
        fan = Fan(gens)
        region = construct_region(fan, delta)
        target = region.anchors["NM"]
        assert max(target.X, target.Y) > 750.0
        traj = reach_witness(PosPoint(1.0, 1.0), target, fan, delta, region)
        assert traj.termination == "arrived" and traj.worst_violation <= 1e-9
        assert "logline" in [leg.kind for leg in traj.legs]
        assert np.isfinite(traj.vx).all() and np.isfinite(traj.vy).all()
        end = traj.points[-1]
        assert max(abs(end.X - target.X), abs(end.Y - target.Y)) <= 1e-6

    def test_target_is_unit_point(self, region):
        traj = reach_witness(LogPoint(2.0, 1.0), PosPoint(1.0, 1.0), WORKED_FAN,
                             DELTA, region)
        assert len(traj.legs) == 1
        assert traj.worst_violation <= 1e-9

    def test_full_plane_target(self, region):
        target = LogPoint(-1.5, -1.0)
        assert r_count(target, WORKED_FAN, DELTA) >= 2
        assert region_contains(region, target) == "inside"
        traj = reach_witness(PosPoint(1.0, 1.0), target, WORKED_FAN, DELTA, region)
        kinds = [leg.kind for leg in traj.legs]
        assert kinds == ["flow", "logline"]
        end = traj.points[-1]
        assert max(abs(end.X - target.X), abs(end.Y - target.Y)) <= 1e-6

    def test_strip_target(self, region):
        # In the region and in the strip of (2,1) only: r = 1.
        target = LogPoint(4.0, 7.0)
        assert r_count(target, WORKED_FAN, DELTA) == 1
        assert region_contains(region, target) == "inside"
        traj = reach_witness(PosPoint(1.0, 1.0), target, WORKED_FAN, DELTA, region)
        kinds = [leg.kind for leg in traj.legs]
        # Routed along the boundary into the strip, not a full-plane straight run.
        assert len(kinds) > 2
        assert kinds[0] == "flow" and "xline" in kinds and kinds[-1] == "logline"
        assert traj.worst_violation <= 1e-9
        end = traj.points[-1]
        assert max(abs(end.X - target.X), abs(end.Y - target.Y)) <= 1e-6

    def test_gap_target(self, region):
        target = LogPoint(5.5, -1.0)
        assert r_count(target, WORKED_FAN, DELTA) == 0
        assert region_contains(region, target) == "inside"
        traj = reach_witness(PosPoint(1.0, 1.0), target, WORKED_FAN, DELTA, region)
        assert traj.worst_violation <= 1e-9
        end = traj.points[-1]
        assert max(abs(end.X - target.X), abs(end.Y - target.Y)) <= 1e-6

    def test_origin_is_classified_once_per_region(self, monkeypatch):
        # The precondition reads the label of (1,1) off the region, where it
        # is computed once, also for a region built without validation; any
        # other start is classified by region_contains, as every target is.
        region = construct_region(WORKED_FAN, DELTA, validate=False)
        assert region.origin_label == region_contains(region, LogPoint(0.0, 0.0)) == "inside"
        seen = []
        contains = dynamics.region_contains
        monkeypatch.setattr(dynamics, "region_contains",
                            lambda reg, point: seen.append(point) or contains(reg, point))
        target, src = LogPoint(-1.5, -1.0), LogPoint(2.0, 1.0)
        first = reach_witness(PosPoint(1.0, 1.0), target, WORKED_FAN, DELTA, region)
        again = reach_witness(LogPoint(0.0, 0.0), target, WORKED_FAN, DELTA, region)
        assert first.points == again.points and first.velocities == again.velocities
        assert seen == [target, target]
        seen.clear()
        reach_witness(src, target, WORKED_FAN, DELTA, region)
        assert seen == [src, target]
        with pytest.raises(WitnessFailed) as err:
            reach_witness(LogPoint(4.0, 8.3), target, WORKED_FAN, DELTA, region)
        assert err.value.leg == "precondition"
        # The cached label is the one read.
        region.__dict__["origin_label"] = "outside"
        with pytest.raises(WitnessFailed) as err:
            reach_witness(PosPoint(1.0, 1.0), target, WORKED_FAN, DELTA, region)
        assert err.value.leg == "precondition"

    def test_out_of_region_target_rejected(self, region):
        # Beyond the I1 segment NM->A1 (x + 2y ~ 2.5e3 there, ~8.1e3 here): the
        # region is invariant, so no trajectory from (1,1) reaches this point.
        target = LogPoint(4.0, 8.3)
        assert region_contains(region, target) == "outside"
        with pytest.raises(WitnessFailed) as err:
            reach_witness(PosPoint(1.0, 1.0), target, WORKED_FAN, DELTA, region)
        assert err.value.leg == "precondition"

    @pytest.mark.parametrize("gens, delta", [
        ([(-1, 1), (1, 2), (2, 1)], 1.0),   # the region's fan at another delta
        ([(1, 2), (2, 1)], DELTA),          # a subfan
        ([(1, 1), (-1, 1)], DELTA),         # another fan
    ])
    def test_region_of_another_fan_or_delta_rejected(self, region, monkeypatch, gens, delta):
        # The region is the invariant one of its own (fan, delta) only, so
        # a witness through it proves nothing for another: the precondition
        # fails before any leg is built, for a full-plane and a strip target
        # alike.  An equal fan in another order is the same fan.
        monkeypatch.setattr(dynamics, "integrate_to_point", None)  # a leg would call it
        for target in (LogPoint(-1.5, -1.0), LogPoint(4.0, 7.0)):
            with pytest.raises(WitnessFailed, match="^precondition: the region is built for "):
                reach_witness(PosPoint(1.0, 1.0), target, Fan(gens), delta, region)
        monkeypatch.undo()
        permuted = Fan([(2, 1), (-1, 1), (1, 2)])
        traj = reach_witness(PosPoint(1.0, 1.0), LogPoint(4.0, 7.0), permuted, DELTA, region)
        assert traj.termination == "arrived"

    @pytest.mark.parametrize("gens, target, kind", [
        ([(1, 2), (2, 1)], (4.66, 1.30), "strip"),                  # all positive
        ([(-1, 2), (-2, 1)], (-12.2, 4.05), "strip"),               # all negative
        ([(-1, 1), (1, 2), (2, 1), (1, 0)], (11.07, 11.25), "gap"),  # axis fan
    ])
    def test_boundary_route_off_the_worked_fan(self, gens, target, kind):
        fan = Fan(gens)
        region = construct_region(fan, DELTA)
        target = LogPoint(*target)
        assert r_count(target, fan, DELTA) == (1 if kind == "strip" else 0)
        assert region_contains(region, target) == "inside"
        traj = reach_witness(PosPoint(1.0, 1.0), target, fan, DELTA, region)
        assert len(traj.legs) > 2
        assert traj.worst_violation <= 1e-9
        end = traj.points[-1]
        assert max(abs(end.X - target.X), abs(end.Y - target.Y)) <= 1e-6


    @pytest.mark.parametrize("target", [
        (10.724911, 0.807701), (9.550168, -3.008221), (-6.248087, 12.081331),
        (9.451584, 8.506706), (11.006854, 0.067787), (-4.193756, 10.382501),
    ])
    def test_axis_fan_gap_targets(self, target):
        # Gap targets the two-ray finish could not reach: its corner left the
        # quadrant or the target was not in the cone from it.  One straight
        # x-space run from the candidate's corner arrives.
        fan = Fan([(-1, 1), (1, 2), (2, 1), (1, 0)])
        region = construct_region(fan, DELTA)
        target = LogPoint(*target)
        assert r_count(target, fan, DELTA) == 0
        assert region_contains(region, target) == "inside"
        traj = reach_witness(PosPoint(1.0, 1.0), target, fan, DELTA, region)
        assert traj.legs[-1].description == "straight gap run"
        assert traj.worst_violation <= 1e-9
        end = traj.points[-1]
        assert max(abs(end.X - target.X), abs(end.Y - target.Y)) <= 1e-6


    def test_flow_that_does_not_converge(self, region, monkeypatch):
        monkeypatch.setattr(dynamics, "_FLOW_T_END", 0.01)
        with pytest.raises(WitnessFailed) as err:
            reach_witness(LogPoint(2.0, 1.0), LogPoint(-1.5, -1.0), WORKED_FAN, DELTA, region)
        assert err.value.leg == "leg1_flow"
        assert err.value.detail == "did not converge (t_end)"

    def test_axis_fan_census_gap_without_route(self):
        # A census gap target on the axis fan that no candidate route reaches:
        # the last candidate's straight run leaves the cone.
        data = json.loads((Path(__file__).resolve().parent.parent / "bench" / "data"
                           / "reach_targets.json").read_text())
        axis = data["fans"]["axis"]
        target = next(LogPoint(t["X"], t["Y"]) for t in axis["targets"]
                      if (t["X"], t["Y"]) == (4.492845, -14.046111))
        fan = Fan(axis["gens"])
        region = construct_region(fan, data["delta"])
        assert r_count(target, fan, data["delta"]) == 0
        assert region_contains(region, target) == "inside"
        with pytest.raises(WitnessFailed) as err:
            reach_witness(PosPoint(1.0, 1.0), target, fan, data["delta"], region)
        assert err.value.leg == "route"
        assert err.value.detail.startswith("no valid route: straight gap run: worst violation")
        # The one candidate tried is listed after the last error, which
        # names the first point of the run that leaves the cone.
        assert re.fullmatch(r"no valid route: (straight gap run: worst violation \S+ "
                            r"at \(\S+, \S+\)); I4\[2\]: \1", err.value.detail)

    def test_gap_target_on_a_route_corner(self, region):
        # (N,M) is a gap point and the corner of the I1[0] route, which ends
        # there with no straight gap run: that run's direction would be 0/0.
        target = region.start_max.log
        assert r_count(target, WORKED_FAN, DELTA) == 0
        traj = reach_witness(PosPoint(1.0, 1.0), target, WORKED_FAN, DELTA, region)
        assert [leg.description for leg in traj.legs] == ["embedded flow to (1,1)",
                                                         "full-plane hop to NM"]
        assert traj.points[-1] == target and traj.worst_violation == 0.0

    @pytest.mark.parametrize("gens", [[(-3, 1), (1, 3), (1, 1), (-1, 3)],
                                      [(-2, 3), (1, 2), (1, 1), (-2, 1)]])
    def test_gap_target_at_a_segment_end_walks_the_segment(self, gens):
        # Aq ends a candidate segment.  A straight gap run there took its
        # direction from the end points and left the cone by rounding
        # (5.5e-09 and 3.4e-06); the walk keeps the segment's own direction.
        fan = Fan(gens)
        boundary = construct_region(fan, DELTA)
        target = boundary.anchors["Aq"]
        assert r_count(target, fan, DELTA) == 0
        traj = reach_witness(PosPoint(1.0, 1.0), target, fan, DELTA, boundary)
        assert traj.termination == "arrived"
        assert traj.legs[-1].description == "walk to the target"
        assert (traj.X[-1].hex(), traj.Y[-1].hex()) == (target.X.hex(), target.Y.hex())

    @pytest.mark.parametrize("gens, name", [([(2, 3), (1, 2)], "P_i1i2"),
                                            ([(-1, 2), (-2, 1)], "P_i3i4")])
    def test_closure_meet_point_slides_along_the_arc(self, gens, name):
        # Where a closure's two arcs meet, every straight gap run left the
        # cone.  The route walks a terminal segment to the arc that starts
        # at its end, then slides along that arc, straight in log space.
        fan = Fan(gens)
        boundary = construct_region(fan, DELTA)
        target = boundary.anchors[name]
        assert r_count(target, fan, DELTA) == 0
        traj = reach_witness(PosPoint(1.0, 1.0), target, fan, DELTA, boundary)
        assert traj.termination == "arrived"
        walk, slide = traj.legs[-2:]
        assert (walk.description, slide.description) == ("walk to the arc", "slide along the arc")
        assert walk.end in {pt for arc in boundary.arcs for pt in (arc.start, arc.end)}
        assert max(abs(slide.end.X - target.X), abs(slide.end.Y - target.Y)) <= 1e-12

    def test_route_that_drifts_fails_arrival(self, region):
        # This gap target's straight run ends an ulp or so off the target:
        # within the default arrive_tol, but not within 0.0.  From (1,1) the
        # flow still stops at once.
        target = LogPoint(-1.844537, 6.17671)
        assert r_count(target, WORKED_FAN, DELTA) == 0
        traj = reach_witness(PosPoint(1.0, 1.0), target, WORKED_FAN, DELTA, region)
        end = traj.points[-1]
        assert 0.0 < max(abs(end.X - target.X), abs(end.Y - target.Y)) < 1e-14
        with pytest.raises(WitnessFailed) as err:
            reach_witness(PosPoint(1.0, 1.0), target, WORKED_FAN, DELTA, region, arrive_tol=0.0)
        assert err.value.leg == "route"
        drift = "arrival: route drifted from the target"
        assert err.value.detail == f"no valid route: {drift}; I1[0]: {drift}; I1[1]: {drift}"

    def test_origin_system_is_built_once(self):
        system = _origin_system(WORKED_FAN, DELTA)
        assert _origin_system(Fan([(-1, 1), (1, 2), (2, 1)]), DELTA) is system
        assert system == embedded_system_for_target(WORKED_FAN, DELTA, "origin_11")

    @pytest.fixture
    def batches(self, monkeypatch):
        """The samples of the legs of every _validate_leg call and the
        (chain, k) of every candidate route built, in call order."""
        record = SimpleNamespace(batches=[], routes=[])
        validate, hop_and_walk = dynamics._validate_leg, dynamics._hop_and_walk

        def counted(legs, *args):
            record.batches.append(sum(len(leg.X) for leg in legs))
            return validate(legs, *args)

        def hop(cur, chain, k, region):
            record.routes.append((chain, k))
            return hop_and_walk(cur, chain, k, region)

        monkeypatch.setattr(dynamics, "_validate_leg", counted)
        monkeypatch.setattr(dynamics, "_hop_and_walk", hop)
        return record

    @pytest.mark.parametrize("target, routes", [
        ((4.0, 7.0), [("I1", 0)]),                           # strip
        ((5.954689, -0.749074), [("I4", 0), ("I4", 1)]),     # gap: the first route fails
        ((-1.5, -1.0), []),                                  # full plane
    ])
    def test_one_batch_per_route(self, batches, target, routes):
        # Every check is of route legs: a route's prefix (the hop and its
        # walk) once per region, then each route's finish legs in one check
        # of their own.
        region = construct_region(WORKED_FAN, DELTA)
        cold = reach_witness(PosPoint(1.0, 1.0), LogPoint(*target), WORKED_FAN, DELTA, region)
        assert len(cold.legs[0].X) == 1
        assert batches.routes == routes
        assert len(batches.batches) == max(1, 2 * len(routes))
        # The winning route's prefix is its first k + 1 legs after the flow.
        prefix = 1 + (routes[-1][1] + 1 if routes else 0)
        finish = sum(len(leg.X) for leg in cold.legs[prefix:])
        assert batches.batches[-1] == finish
        if routes:
            assert batches.batches[-2] == sum(len(leg.X) for leg in cold.legs[1:prefix])
        batches.batches.clear()
        warm = reach_witness(PosPoint(1.0, 1.0), LogPoint(*target), WORKED_FAN, DELTA, region)
        assert batches.routes == routes  # no prefix is built again
        assert batches.batches[-1] == finish and len(batches.batches) == max(1, len(routes))
        assert warm.X.tobytes() == cold.X.tobytes() and warm.vy.tobytes() == cold.vy.tobytes()

    def test_route_failure_lists_every_candidate(self, batches, monkeypatch):
        # With no tolerance left every prefix and every finish fails its
        # check, and each route names its finish leg, the last that failed.
        monkeypatch.setattr(dynamics, "_CONE_TOL", -1.0)
        region = construct_region(WORKED_FAN, DELTA)
        details = []
        for _ in range(2):
            with pytest.raises(WitnessFailed) as err:
                reach_witness(PosPoint(1.0, 1.0), LogPoint(5.954689, -0.749074), WORKED_FAN,
                              DELTA, region)
            details.append(err.value.detail)
        # Two prefixes and two finishes, then the two finishes alone.
        assert batches.routes == [("I4", 0), ("I4", 1)]
        assert len(batches.batches) == 4 + 2
        assert details[0] == details[1]
        head, *tried = details[0].split("; ")
        # Each failure names its leg's first point, where the check starts.
        start = dynamics._hop_and_walk(LogPoint(0.0, 0.0), "I4", 1, region)[-1].end
        last = f"straight gap run: worst violation 0.000e+00 at ({start.X:.9g}, {start.Y:.9g})"
        assert head == f"no valid route: {last}"
        assert [t.split(": ", 1)[0] for t in tried] == ["I4[0]", "I4[1]"]
        assert tried[0].startswith("I4[0]: straight gap run: worst violation ")
        assert tried[1] == f"I4[1]: {last}"

    def test_failed_prefix_is_named_after_the_finish_checks(self, batches, monkeypatch):
        # Walks along directions turned 0.1 counter-clockwise off their segments'
        # fail the prefix of I4[1], whose finish arrives and validates: the
        # route fails naming the walk, on every call, from the one check of
        # that prefix.  A walk still ends on its segment's end.
        direction = dynamics._segment_direction

        def turned(seg):
            (dx, dy), c, s = direction(seg), math.cos(0.1), math.sin(0.1)
            return (c * dx - s * dy, c * dy + s * dx)

        monkeypatch.setattr(dynamics, "_segment_direction", turned)
        region = construct_region(WORKED_FAN, DELTA)
        details = []
        for _ in range(2):
            with pytest.raises(WitnessFailed) as err:
                reach_witness(PosPoint(1.0, 1.0), LogPoint(5.954689, -0.749074), WORKED_FAN,
                              DELTA, region)
            details.append(err.value.detail)
        assert details[0] == details[1]
        failure = r"worst violation \S+ at \(\S+, \S+\)"
        assert re.fullmatch(rf"no valid route: (walk I4 segment: {failure}); "
                            rf"I4\[0\]: straight gap run: {failure}; I4\[1\]: \1", details[0])
        assert len(batches.batches) == 4 + 2

    def test_memoized_prefix_legs_are_read_only(self, region):
        # Witnesses through one prefix share its legs' arrays; the memo keeps
        # the prefixes of one flow end, and another end replaces them.
        target = LogPoint(5.954689, -0.749074)
        traj = reach_witness(PosPoint(1.0, 1.0), target, WORKED_FAN, DELTA, region)
        again = reach_witness(PosPoint(1.0, 1.0), target, WORKED_FAN, DELTA, region)
        hop = traj.legs[1]
        assert hop.description == "full-plane hop to NM" and again.legs[1].X is hop.X
        for array in hop[2:]:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        assert len(region.witness_prefixes) == 1
        src = LogPoint(0.5, 0.25)  # its flow ends near (1,1), not on it
        other = reach_witness(src, target, WORKED_FAN, DELTA, region)
        cold = reach_witness(src, target, WORKED_FAN, DELTA, construct_region(WORKED_FAN, DELTA))
        assert other.X.tobytes() == cold.X.tobytes() and other.Y.tobytes() == cold.Y.tobytes()
        assert other.legs[1].X[0] != 0.0 and len(region.witness_prefixes) == 1

    def test_warm_region_gives_the_cold_witnesses(self):
        # Every witness target of the benchmark, on a region that has
        # routed every target before it and on a fresh one: the same bits.
        data = json.loads((Path(__file__).resolve().parent.parent / "bench" / "data"
                           / "reach_targets.json").read_text())
        delta, failed = data["delta"], 0

        def witness(fan, region, target):
            try:
                traj = reach_witness(PosPoint(1.0, 1.0), target, fan, delta, region)
            except WitnessFailed as exc:
                return exc.detail
            return ([a.tobytes() for a in (traj.X, traj.Y, traj.vx, traj.vy)],
                    traj.worst_violation.hex(), [leg.description for leg in traj.legs])

        for entry in data["fans"].values():
            fan = Fan([tuple(g) for g in entry["gens"]])
            warm = construct_region(fan, delta)
            for t in entry["targets"]:
                target = LogPoint(t["X"], t["Y"])
                cold = witness(fan, construct_region(fan, delta), target)
                assert witness(fan, warm, target) == cold, (entry["gens"], target)
                failed += isinstance(cold, str)
        assert failed > 0


class TestValidateLeg:
    """The witness legs' checks: the tests' sampled oracle on array legs,
    whose per-sample velocities no straight leg has, and the exact check
    _validate_leg on straight legs."""

    def test_worst_is_the_scalar_loops(self, region):
        # Two strip targets and a gap target, whose routes' worst is 0 on
        # the integer edges, and, on another fan, a leg in the gap sector
        # from arm (3, 2) to (1, 2) whose velocities are the value's extreme
        # rays (-2, 1) and (2, -3) over scales: rounding puts some outside.
        legs, other = [], Fan([(-1, 3), (2, 3), (2, 1)])
        for target in ((4.0, 7.0), (3.677344, -3.26284), (5.5, -1.0)):
            traj = reach_witness(PosPoint(1.0, 1.0), LogPoint(*target), WORKED_FAN, DELTA,
                                 region)
            legs += [(leg.description, leg_points(leg), leg_velocities(leg)) for leg in traj.legs]
        points = [LogPoint(20.0 + 0.05 * k, 20.0) for k in range(64)]
        assert {rhs_bruteforce(p, other, DELTA).rays for p in points} == {((-2, 1), (2, -3))}
        rays = rhs_bruteforce(points[0], other, DELTA).extreme_rays()
        scales = [math.exp(0.3 * k - 9.0) for k in range(64)]
        legs.append(("rays", points, [(u / s, w / s) for s, (u, w) in zip(scales, rays * 32)]))
        fans = [WORKED_FAN] * (len(legs) - 1) + [other]
        worst = []
        for fan, (desc, points, velocities) in zip(fans, legs):
            ref = 0.0
            for p, v in zip(points, velocities):
                ref = max(ref, rhs_bruteforce(p, fan, DELTA, tol=-1e-9).violation(v))
            worst.append(sampled_leg_check([array_leg(desc, points, velocities)], fan, DELTA))
            assert worst[-1] == ref, desc
        assert len(worst) > 7 and max(worst[:-1]) == 0.0 < worst[-1]

    def test_bad_velocity_names_the_leg(self):
        # Up the diagonal strip of CROSS_FAN the cone is {v . (1,1) <= 0}.
        points = [LogPoint(10.0, 10.0 + 0.05 * k) for k in range(9)]
        velocities = [(-1.0, -1.0)] * 9
        velocities[4] = (1.0, 1.0)
        with pytest.raises(WitnessFailed) as err:
            sampled_leg_check([array_leg("test run", points, velocities)], CROSS_FAN, 1.0)
        assert err.value.leg == "test run"
        assert str(err.value) == "test run: worst violation 1.000e+00"
        velocities[4] = (-1.0, 1.0)
        assert sampled_leg_check([array_leg("test run", points, velocities)], CROSS_FAN, 1.0) == 0.0

    def test_route_names_its_last_bad_leg(self):
        # The bad velocities sit at the end of the first bad leg and the start
        # of the second, next to the good legs' points in the one batch.
        points = [LogPoint(10.0, 10.0 + 0.05 * k) for k in range(9)]
        inward = [(-1.0, -1.0)] * 9
        good = array_leg("good", points, inward)
        first = array_leg("first bad", points, inward[1:] + [(1.0, 1.0)])
        second = array_leg("second bad", points, [(0.0, 1.0)] + inward[1:])
        with pytest.raises(WitnessFailed) as err:
            sampled_leg_check([good, first, good, second, good], CROSS_FAN, 1.0)
        assert err.value.leg == "second bad"
        assert str(err.value) == "second bad: worst violation 7.071e-01"
        with pytest.raises(WitnessFailed) as err:
            sampled_leg_check([good, first, good], CROSS_FAN, 1.0)
        assert str(err.value) == "first bad: worst violation 1.000e+00"
        assert sampled_leg_check([good, good], CROSS_FAN, 1.0) == 0.0

    @pytest.mark.parametrize("leg", [
        _logline_leg(LogPoint(-0.8, 0.7), LogPoint(-0.3, 1.2), "run"),
        _xline_leg(LogPoint(1.0, -0.6), (math.sqrt(0.5), math.sqrt(0.5)),
                   LogPoint(1.4, _line_y_log(1.0, -0.6, 1.0, 1.4)), "walk"),
    ], ids=["logline", "xline"])
    def test_violation_between_samples(self, leg):
        # On the worked fan at delta 1 every sample of each leg, at most 0.05
        # apart in either log coordinate, lies where two strips overlap, in
        # the full plane, but between two samples the leg crosses a sliver of
        # one strip alone, whose half plane its velocity leaves: the sampled
        # check passes it, the exact one names the sliver.
        samples = list(zip(leg.X.tolist(), leg.Y.tolist()))
        assert max(max(abs(a[0] - b[0]), abs(a[1] - b[1]))
                   for a, b in zip(samples, samples[1:])) <= dynamics._LEG_STEP
        assert {rhs_bruteforce(LogPoint(*p), WORKED_FAN, 1.0, tol=-1e-9).rays
                for p in samples} == {()}
        assert sampled_leg_check([leg], WORKED_FAN, 1.0) == 0.0
        with pytest.raises(WitnessFailed) as err:
            _validate_leg([leg], WORKED_FAN, 1.0)
        head, X, Y = re.fullmatch(r"worst violation \S+ at \((\S+), (\S+)\)",
                                  err.value.detail).group(0, 1, 2)
        first = (float(X), float(Y))
        # The named point, where the sliver starts, lies strictly between two
        # consecutive samples, in the half plane of the strip of (-1, 1).
        between = [j for j, (a, b) in enumerate(zip(samples, samples[1:]))
                   if all(min(u, v) < w < max(u, v) for u, v, w in zip(a, b, first))]
        assert len(between) == 1
        assert kind(rhs_bruteforce(LogPoint(*first), WORKED_FAN, 1.0)) == "half plane"
        assert float(head.split()[2]) > 0.5

    def test_first_violating_point_inside_a_piece(self):
        # In the gap sector of CROSS_FAN about +x the value is {v_x <= -|v_y|}.
        # The run's velocity (-0.9*x, 7.5*y) turns out of it where X - Y =
        # log(7.5/0.9), inside its one piece: the failure names that point.
        run = _logline_leg(LogPoint(10.0, 0.0), LogPoint(9.1, 7.5), "run")
        with pytest.raises(WitnessFailed) as err:
            _validate_leg([run], CROSS_FAN, 1.0)
        X, Y = map(float, re.fullmatch(r"worst violation \S+ at \((\S+), (\S+)\)",
                                       err.value.detail).groups())
        s = (10.0 - math.log(7.5 / 0.9)) / 8.4
        assert (X, Y) == pytest.approx((10.0 - 0.9 * s, 7.5 * s), abs=1e-8)

    @pytest.mark.parametrize("gens, delta, name", [([(2, 3), (1, 2)], DELTA, "P_i1i2"),
                                                   ([(-1, 2), (-2, 1)], DELTA, "P_i3i4")])
    def test_slide_along_an_arc_is_one_piece(self, gens, delta, name):
        # A closure arc lies on a strip's boundary curve: its strip coordinate
        # stays within rounding of the edge, inside the inclusive one, so that
        # strip cuts the slide nowhere, and the slide is checked against the
        # strip's (inclusive) value, not the gap's beyond it.  (Its end, where
        # two arcs meet, lies on a second strip's edge too.)
        fan = Fan(gens)
        region = construct_region(fan, delta)
        traj = reach_witness(PosPoint(1.0, 1.0), region.anchors[name], fan, delta, region)
        slide = traj.legs[-1]
        assert slide.description == "slide along the arc"
        self.assert_one_edge_piece(slide, fan, delta)
        assert _validate_leg([slide], fan, delta) <= 1e-9

    def test_slide_along_a_strip_boundary_is_one_piece(self):
        # Down the boundary y = e^sqrt(2) x of the diagonal strip of CROSS_FAN.
        h = math.sqrt(2.0)
        slide = _logline_leg(LogPoint(8.0, 8.0 + h), LogPoint(5.0, 5.0 + h), "slide")
        self.assert_one_edge_piece(slide, CROSS_FAN, 1.0)
        assert _validate_leg([slide], CROSS_FAN, 1.0) == 0.0

    @staticmethod
    def assert_one_edge_piece(leg, fan, delta):
        # The strip on whose boundary both ends lie cuts the leg nowhere.
        ends = [(leg.X[0], leg.Y[0]), (leg.X[-1], leg.Y[-1])]
        (g,) = [g for g in fan.generators
                if all(abs(abs(g.q * Y - g.p * X) - delta * g.norm) <= 1e-9 for X, Y in ends)]
        cuts, point, _ = dynamics._logline_cuts(leg, [(g.q, g.p, (delta + 1e-9) * g.norm)])
        assert cuts == [0.0, 1.0]
        middle = LogPoint(*point(0.5))
        inclusive = rhs_bruteforce(middle, fan, delta, tol=-1e-9)
        assert kind(inclusive) == "half plane" != kind(rhs_bruteforce(middle, fan, delta))

    def test_value_is_constant_between_inclusive_edges(self):
        # The fact the exact check rests on: along a log segment whose strip
        # coordinates cross no inclusive edge +-(delta + 1e-9)*|(q, p)|, the
        # value does not change.  Values are compared by their rays, not by
        # near-set codes: distinct codes can give equal full planes.
        catalog = json.loads((Path(__file__).resolve().parent.parent / "bench" / "data"
                              / "atlas_catalog.json").read_text())
        rng = np.random.default_rng(49)
        fans = [Fan([tuple(g) for g in catalog["fans"][k]["gens"]])
                for k in rng.choice(len(catalog["fans"]), 40, replace=False)]
        tested, seen = 0, set()
        for fan in fans:
            for delta in (0.5, 3.0, 30.0):
                edges = [(g.q, g.p, (delta + 1e-9) * g.norm) for g in fan.generators]
                for _ in range(20):
                    # Ends within 3*delta of the origin, some within delta of it.
                    scale = delta * rng.choice([0.5, 1.0], 2)[:, None]
                    a, b = rng.uniform(-3.0, 3.0, (2, 2)) * scale
                    if any((q * a[1] - p * a[0] < h) != (q * b[1] - p * b[0] < h)
                           for q, p, h0 in edges for h in (h0, -h0)):
                        continue
                    values = {rhs_bruteforce(LogPoint(*(a + u * (b - a))), fan, delta,
                                             tol=-1e-9).rays for u in np.linspace(0.0, 1.0, 17)}
                    assert len(values) == 1, (fan, delta, a, b, values)
                    tested += 1
                    seen.add(kind(rhs_bruteforce(LogPoint(*a), fan, delta, tol=-1e-9)))
        assert tested > 300 and seen == {"full plane", "half plane", "sector"}

    def test_reach_target_checks_match_the_sampled_oracle(self):
        # Every check of every route to every benchmark target, passed or
        # failed, gives the sampled check's verdict and names its leg.
        data = json.loads((Path(__file__).resolve().parent.parent / "bench" / "data"
                           / "reach_targets.json").read_text())
        delta = data["delta"]
        with compared_checks() as checks:
            for entry in data["fans"].values():
                fan = Fan([tuple(g) for g in entry["gens"]])
                region = construct_region(fan, delta)
                for t in entry["targets"]:
                    with contextlib.suppress(WitnessFailed):
                        reach_witness(PosPoint(1.0, 1.0), LogPoint(t["X"], t["Y"]), fan, delta,
                                      region)
        assert checks.calls > 150 and checks.differ == []


class TestXlineLeg:
    def test_log_y_dominant_walk(self):
        a, b = LogPoint(0.2, -0.5), LogPoint(0.7, 2.5)
        ax, ay, bx, by = math.exp(a.X), math.exp(a.Y), math.exp(b.X), math.exp(b.Y)
        n = math.hypot(bx - ax, by - ay)
        direction = ((bx - ax) / n, (by - ay) / n)
        leg = _xline_leg(a, direction, b, "test walk")
        assert leg.kind == "xline"
        points = leg_points(leg)
        assert leg_velocities(leg) == [direction] * len(points)
        assert (points[0].X, points[0].Y) == pytest.approx((a.X, a.Y), abs=1e-12)
        assert (points[-1].X, points[-1].Y) == pytest.approx((b.X, b.Y), abs=1e-12)
        # Even in log y, the dominant axis, and on the x-space line a -> b.
        steps = [q.Y - p.Y for p, q in zip(points, points[1:])]
        assert steps == pytest.approx([steps[0]] * len(steps), abs=1e-12)
        for p in points:
            x, y = math.exp(p.X), math.exp(p.Y)
            assert abs((x - ax) * direction[1] - (y - ay) * direction[0]) <= 1e-12 * n


def _hex(values):
    return [float(v).hex() for v in values]


class TestViolations:
    """_violations is Cone.violation, bit for bit."""

    @pytest.mark.parametrize("fan, kinds", [
        (WORKED_FAN, {"full plane", "half plane", "sector"}),
        (Fan([(1, 2)]), {"ray", "line"}),
    ])
    def test_matches_the_bruteforce_value(self, fan, kinds):
        rng = np.random.default_rng(7)
        X, Y = rng.uniform(-12.0, 12.0, (2, 3000))
        angles = rng.uniform(0.0, 2.0 * math.pi, 3000)
        scale = 10.0 ** rng.uniform(-8.0, 8.0, 3000)
        vx, vy = scale * np.cos(angles), scale * np.sin(angles)
        values = [rhs_bruteforce(LogPoint(x, y), fan, DELTA, tol=-1e-9)
                  for x, y in zip(X.tolist(), Y.tolist())]
        assert {kind(c) for c in values} == kinds
        # Every tenth velocity lies on an extreme ray of its value, and one
        # in twenty is zero.
        for k in range(0, 3000, 10):
            rays = values[k].extreme_rays()
            if rays:
                vx[k], vy[k] = rays[k // 10 % len(rays)]
        vx[::20] = vy[::20] = 0.0
        ref = [c.violation(v) for c, v in zip(values, zip(vx.tolist(), vy.tolist()))]
        assert max(ref) > 0.0 and ref.count(0.0) > 100
        assert _hex(_violations(X, Y, vx, vy, fan, DELTA)) == _hex(ref)

    CONES = [Cone(()), Cone(((3, 1), (-3, -1))), Cone(((-2, 5),)),
             Cone(((1, 2), (-1, -2), (-2, 1))), Cone(((1, -3), (4, 1)))]
    VELOCITIES = [(0, 0), (0.0, -0.0), (3, 4), (-7, 2), (2**60 + 1, -1), (math.nan, 1.0),
                  (math.nan, math.nan), (math.inf, 0.0), (math.inf, math.nan),
                  (-math.inf, math.inf), (1e308, 1e308), (5e-324, -5e-324), (0.3, -0.9)]

    def test_hand_built_cones(self, monkeypatch):
        # Every cone kind against zero, integer, NaN, infinite, overflowing
        # and subnormal velocities.
        pairs = [(c, v) for c in self.CONES for v in self.VELOCITIES]
        index = np.repeat(np.arange(len(self.CONES)), len(self.VELOCITIES))
        monkeypatch.setattr(dynamics, "rhs_bruteforce_batch",
                            lambda X, Y, fan, delta, tol: (self.CONES, index))
        vx, vy = np.array([v for _, v in pairs], dtype=float).T
        got = _violations(np.zeros(len(pairs)), np.zeros(len(pairs)), vx, vy, WORKED_FAN, DELTA)
        ref = [c.violation(v) for c, v in pairs]
        assert _hex(got) == _hex(ref)


class TestArrayLegs:
    """Each leg's samples are the per-sample scalar evaluations."""

    @pytest.mark.parametrize("a, b", [
        (LogPoint(0.2, -0.5), LogPoint(0.7, 2.5)),      # mirrored: log y dominates
        (LogPoint(-1.0, 0.3), LogPoint(2.9, 1.1)),      # unmirrored
        (LogPoint(4.0, -3.0), LogPoint(-2.5, -1.0)),    # unmirrored, leftward
        (LogPoint(760.0, 8.0), LogPoint(745.0, 9.0)),   # off the kernel's direct branch
    ])
    def test_xline_leg_is_the_scalar_walk(self, a, b):
        direction = _xspace_unit(a, b)
        leg = _xline_leg(a, direction, b, "walk")
        assert leg.end == leg_points(leg)[-1]
        mirrored = abs(b.X - a.X) < abs(b.Y - a.Y)
        c0, c1 = (a.Y, b.Y) if mirrored else (a.X, b.X)
        n = max(2, int(math.ceil(abs(c1 - c0) / dynamics._LEG_STEP)))
        ref = [xline_at(a if 2 * k <= n else b, *direction, c0 + (c1 - c0) * k / n, mirrored)
               for k in range(n + 1)]
        assert leg_points(leg) == ref
        assert leg_velocities(leg) == [direction] * (n + 1)

    @pytest.mark.parametrize("a, b", [
        (LogPoint(0.0, 0.0), LogPoint(-1.5, -1.0)),
        (LogPoint(3.0, -2.0), LogPoint(3.01, 40.0)),
        (LogPoint(-700.0, 650.0), LogPoint(-690.0, 700.0)),
    ])
    def test_logline_leg_is_the_scalar_run(self, a, b):
        leg = _logline_leg(a, b, "run")
        assert leg.kind == "logline"
        dX, dY = b.X - a.X, b.Y - a.Y
        n = max(2, int(math.ceil(math.hypot(dX, dY) / dynamics._LEG_STEP)))
        ref = [LogPoint(a.X + k / n * dX, a.Y + k / n * dY) for k in range(n + 1)]
        assert leg_points(leg) == ref
        assert leg_velocities(leg) == [(dX * math.exp(p.X), dY * math.exp(p.Y)) for p in ref]

    def test_walk_that_leaves_the_quadrant(self):
        # From (1,1) along (1,-1) the line y = 2 - x ends at x = 2 < e.
        a, b = LogPoint(0.0, 0.0), LogPoint(2.0, 0.0)
        direction = (math.sqrt(0.5), -math.sqrt(0.5))
        with pytest.raises(NoCrossing) as scalar:
            xline_at(a, *direction, 1.0, False)
        with pytest.raises(NoCrossing) as err:
            _xline_leg(a, direction, b, "walk")
        assert str(err.value) == str(scalar.value) == "the line leaves the positive quadrant"

    def test_direction_whose_displacement_underflows(self):
        # Both scaled x-space displacements round to 0.0: there is no
        # direction, and a route would take the next candidate.
        with pytest.raises(NoCrossing, match="displacement rounds to zero"):
            _xspace_unit(LogPoint(-800.0, 5.0), LogPoint(-790.0, 5.0))

    def test_walk_along_no_component_of_its_direction(self):
        # Log x dominates the walk, but the direction has no x component.
        with pytest.raises(NoCrossing, match="no component along the walk's dominant axis"):
            _xline_leg(LogPoint(0.0, 0.0), (0.0, 1.0), LogPoint(2.0, 1.0), "walk")


class TestLazyLogPoints:
    """Trajectories and legs hold arrays; LogPoints are made when read."""

    @pytest.fixture
    def made(self, monkeypatch):
        """A counting stand-in for dynamics.LogPoint: the list of the
        LogPoints the module has made."""
        made = []

        def counting(X, Y):
            made.append(LogPoint(X, Y))
            return made[-1]

        monkeypatch.setattr(dynamics, "LogPoint", counting)
        return made

    @staticmethod
    def assert_lists_of_arrays(traj):
        assert traj.times == traj.t.tolist()
        assert traj.points == list(map(LogPoint, traj.X.tolist(), traj.Y.tolist()))
        assert traj.velocities == list(zip(traj.vx.tolist(), traj.vy.tolist()))
        # Each list is made once and kept.
        assert traj.times is traj.times and traj.points is traj.points
        assert traj.velocities is traj.velocities

    @pytest.mark.parametrize("target", [(-1.5, -1.0), (4.0, 7.0), (5.5, -1.0)],
                             ids=["full_plane", "strip", "gap"])
    def test_witness_makes_its_points_on_read(self, region, made, target):
        traj = reach_witness(PosPoint(1.0, 1.0), LogPoint(*target), WORKED_FAN, DELTA, region)
        n = len(traj.X)
        # A few leg ends, not one LogPoint per sample.
        before = len(made)
        assert before < n // 4
        points = traj.points
        assert len(made) == before + n and made[before:] == points
        self.assert_lists_of_arrays(traj)
        assert points[1:] == [p for leg in traj.legs for p in leg_points(leg)]
        assert traj.velocities[1:] == [v for leg in traj.legs for v in leg_velocities(leg)]

    def test_ray_run_makes_its_points_on_read(self, made):
        traj = integrate(ExtremeRayStrategy("left"), LogPoint(0.5, -0.3), WORKED_FAN, DELTA,
                         t_end=2.0)
        assert len(traj.X) > 100 and made == []
        assert traj.points == made
        self.assert_lists_of_arrays(traj)
