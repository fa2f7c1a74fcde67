import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from toric_regions import dynamics
from toric_regions.dynamics import (
    AlternatingStrategy,
    ExtremeRayStrategy,
    FieldStrategy,
    MassActionSystem,
    RandomInConeStrategy,
    TimeRescaledField,
    Trajectory,
    WitnessLeg,
    _reversible,
    _validate_leg,
    _xline_leg,
    builtin_strategies,
    complex_balance_residual,
    embedded_system_for_target,
    field_stiffness,
    integrate,
    integrate_to_point,
    mass_action_field,
    omega_limit_estimate,
    reach_witness,
)
from toric_regions.errors import (
    AmbiguousClassification,
    MonomialOverflow,
    NonFinitePoint,
    StepCollapse,
    WitnessFailed,
)
from toric_regions.fan_geometry import (
    LINE_WIDTH,
    Cone,
    Fan,
    LineGenerator,
    LogPoint,
    PosPoint,
    delta_i,
    r_count,
)
from toric_regions.region_construction import construct_region, region_contains
from toric_regions.tdi_rhs import rhs_bruteforce, rhs_classified

WORKED_FAN = Fan([(-1, 1), (1, 2), (2, 1)])
CROSS_FAN = Fan([(1, 1), (-1, 1)])
DELTA = 3.0


@pytest.fixture(scope="module")
def region():
    return construct_region(WORKED_FAN, DELTA)


@pytest.fixture(scope="module")
def nm_system(region):
    return embedded_system_for_target(WORKED_FAN, DELTA, "point_NM",
                                      provenance=region.start_max)


def simple_exchange():
    # Y <-> X with both rates 1: vertices (0,1) and (1,0).
    return MassActionSystem(tuple(_reversible((0.0, 1.0), (1.0, 0.0), 1.0, 1.0)),
                            1.0, "exchange")


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
        assert FieldStrategy(simple_exchange()).with_stiffness(pt.log(), None, 0.0)[1] == \
            field_stiffness(simple_exchange(), pt)

    def test_reversibility_enforced(self):
        from toric_regions.dynamics import Reaction
        with pytest.raises(ValueError):
            MassActionSystem((Reaction((0.0, 1.0), (1.0, 0.0), 1.0, 0.0),), 1.0)

    @pytest.mark.parametrize("rate", [0.49, 2.01])
    def test_rate_outside_band_rejected(self, rate):
        with pytest.raises(ValueError, match="outside"):
            MassActionSystem(tuple(_reversible((0.0, 1.0), (1.0, 0.0), rate, 1.0)), 0.5)


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
        class Constant:
            name = "constant"

            def __call__(self, point, rhs, t):
                return (1.0, 0.0)

        # x' = 1 from x = 1: the log step cap 0.25 splits t = 0.5 in two.
        traj = integrate(Constant(), PosPoint(1.0, 1.0), WORKED_FAN, DELTA,
                         t_end=0.5, dt=0.5)
        assert len(traj.times) == 3
        end = traj.points[-1].exp()
        assert end.x == pytest.approx(1.5, rel=1e-4)
        assert end.y == pytest.approx(1.0, rel=1e-12)

    def test_times_strictly_increase(self):
        sys11 = embedded_system_for_target(WORKED_FAN, DELTA, "origin_11")
        traj = integrate(FieldStrategy(sys11), LogPoint(2.0, -1.0), WORKED_FAN,
                         DELTA, t_end=0.2, dt=1e-2)
        assert all(b > a for a, b in zip(traj.times, traj.times[1:]))

    def test_invalid_strategy_collapses(self):
        class Outward:
            name = "outward"

            def __call__(self, point, rhs, t):
                return (1.0, 1.0)

        # Far up the diagonal the cone is {v . (1,1) <= 0}: (1,1) violates.
        with pytest.raises(StepCollapse):
            integrate(Outward(), LogPoint(10.0, 10.0), Fan([(1, 1), (-1, 1)]),
                      1.0, t_end=1.0, dt=1e-2)

    class Turning:
        """Inward (-1, -1) until t0, outward (1, 1) from then on.  With wall,
        every call after t0 + 0.015 raises MonomialOverflow.

        The turn is half a step before t0, so rounding of the summed step
        times cannot move it.  Far up the diagonal of CROSS_FAN at delta 1
        the cone is {v . (1,1) <= 0}, which (1, 1) violates by 1.
        """

        name = "turning"

        def __init__(self, t0, wall):
            self.t0 = t0
            self.wall = wall

        def __call__(self, point, rhs, t):
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
        class Interrupting:
            def __call__(self, point, rhs, t):
                if t > 0.0:
                    raise KeyboardInterrupt
                return (1.0, 1.0)

        with pytest.raises(KeyboardInterrupt):
            integrate(Interrupting(), LogPoint(10.0, 10.0), CROSS_FAN, 1.0, t_end=1.0, dt=1e-2)

    def test_step_starts_are_checked_in_one_batch(self, monkeypatch):
        batches = []
        violations = dynamics._violations

        def counted(points, velocities, *args):
            batches.append(len(velocities))
            return violations(points, velocities, *args)

        monkeypatch.setattr(dynamics, "_violations", counted)
        traj = integrate(ExtremeRayStrategy("right"), LogPoint(-2.0, 1.5), WORKED_FAN, DELTA,
                         t_end=5.0)
        assert batches == [len(traj.times) - 1]
        # A run that starts no step makes no batch call.
        batches.clear()
        traj = integrate(ExtremeRayStrategy("right"), LogPoint(-2.0, 1.5), WORKED_FAN, DELTA,
                         t_end=5.0, stop_when=lambda p, t: True)
        assert traj.termination == "stopped" and traj.velocities == [(0.0, 0.0)]
        assert batches == []

    def test_worst_violation_is_the_per_step_maximum(self):
        traj = integrate(ExtremeRayStrategy("right"), LogPoint(-2.0, 1.5), WORKED_FAN, DELTA,
                         t_end=5.0)
        ref = 0.0
        for p, v in zip(traj.points[:-1], traj.velocities[:-1]):
            ref = max(ref, rhs_bruteforce(p, WORKED_FAN, DELTA, tol=-1e-9).violation(v))
        assert len(traj.times) > 3 * 64 and ref > 0.0
        assert traj.worst_violation == ref

    @pytest.mark.parametrize("strategy", [FieldStrategy, TimeRescaledField])
    def test_field_flows_compute_no_cone(self, monkeypatch, strategy):
        calls = []
        fast = dynamics._rhs_fast
        monkeypatch.setattr(dynamics, "_rhs_fast", lambda *a: calls.append(a) or fast(*a))
        sys11 = embedded_system_for_target(WORKED_FAN, DELTA, "origin_11")
        traj = integrate(strategy(sys11), LogPoint(2.0, -1.5), WORKED_FAN, DELTA, t_end=0.05,
                         dt=1e-3)
        assert len(traj.times) > 50 and calls == []

    def test_ray_and_custom_selections_get_the_cone(self):
        seen = []

        class Recording(ExtremeRayStrategy):
            def __call__(self, point, rhs, t):
                seen.append((point, rhs))
                return super().__call__(point, rhs, t)

        class Custom:
            def __call__(self, point, rhs, t):
                seen.append((point, rhs))
                return (rhs.extreme_rays() or [(-1.0, -1.0)])[0]

        for strategy in (Recording("left"), Custom()):
            seen.clear()
            integrate(strategy, LogPoint(-2.0, 1.5), WORKED_FAN, DELTA, t_end=0.1)
            assert len(seen) > 10
            for point, rhs in seen:
                assert rhs == dynamics._rhs_fast(point, WORKED_FAN, DELTA)

    class Walled:
        """Unit log speed along +X; the velocity overflows past X = 0.025."""

        name = "walled"

        def __call__(self, point, rhs, t):
            if point.X > 0.025:
                raise MonomialOverflow("past the wall")
            return (math.exp(point.X), 0.0)

    def test_overflowing_stage_halves_the_step(self):
        # From X = 1/64 a full step's last stage reaches 0.03125, past the
        # wall; the half step ends at 0.0234, short of it.
        dt = 1.0 / 64.0
        traj = integrate(self.Walled(), LogPoint(0.0, 0.0), WORKED_FAN, DELTA,
                         t_end=1.0, dt=dt, stop_when=lambda p, t: t > dt)
        assert traj.termination == "stopped"
        assert np.diff(traj.times).tolist() == [dt, dt / 2.0]
        assert traj.points[-1].X == pytest.approx(dt * 1.5, rel=1e-12)

    def test_overflow_at_the_wall_collapses(self):
        # The remaining gap to the wall shrinks until no step above
        # dt/1024 passes.
        with pytest.raises(StepCollapse, match="step below"):
            integrate(self.Walled(), LogPoint(0.0, 0.0), WORKED_FAN, DELTA,
                      t_end=1.0, dt=1.0 / 64.0)

    class Past:
        """Walled's unit log speed along +X, but past X = 0.025 the velocity
        is scaled by factor: NaN, or a thousandfold speed."""

        name = "past"

        def __init__(self, factor):
            self.factor = factor

        def __call__(self, point, rhs, t):
            return (math.exp(point.X) * (self.factor if point.X > 0.025 else 1.0), 0.0)

    @pytest.mark.parametrize("factor", [math.nan, 1000.0])
    def test_bad_increment_halves_the_step(self, factor):
        # As at the wall: a full second step's last stage lies past X = 0.025,
        # so its increment in X is NaN, or (5 + 1000) / 384 > 1; the half step
        # stays short of it, and the run goes on.
        dt = 1.0 / 64.0
        traj = integrate(self.Past(factor), LogPoint(0.0, 0.0), WORKED_FAN, DELTA,
                         t_end=1.0, dt=dt, stop_when=lambda p, t: t > dt)
        assert traj.termination == "stopped"
        assert np.diff(traj.times).tolist() == [dt, dt / 2.0]
        assert traj.points[-1].X == pytest.approx(dt * 1.5, rel=1e-12)

    def test_non_finite_stage_point_halves_the_step(self):
        # Past X = 0.02 the velocity is NaN.  The second step's second stage
        # (X = 0.0234) lies past it, so its third stage point is not finite:
        # that point's cone raises NonFinitePoint, which fails the stage as
        # an overflow does, and the selection is never called there.  The
        # half step's last stage is past the wall too; the quarter step
        # passes.
        seen = []

        def nan_past(point, rhs, t):
            seen.append(point)
            return (math.exp(point.X) if point.X <= 0.02 else math.nan, 0.0)

        dt = 1.0 / 64.0
        traj = integrate(nan_past, LogPoint(0.0, 0.0), WORKED_FAN, DELTA,
                         t_end=1.0, dt=dt, stop_when=lambda p, t: t > dt)
        assert np.diff(traj.times).tolist() == [dt, dt / 4.0]
        assert any(p.X > 0.02 for p in seen)
        assert all(math.isfinite(p.X) and math.isfinite(p.Y) for p in seen)

    def test_zero_velocity_stalls(self):
        class Still:
            name = "still"

            def __call__(self, point, rhs, t):
                return (0.0, 0.0)

        traj = integrate(Still(), LogPoint(0.0, 0.0), WORKED_FAN, DELTA, t_end=1.0)
        assert traj.termination == "stalled"
        assert traj.times == [0.0] and traj.points == [LogPoint(0.0, 0.0)]
        assert traj.velocities == [(0.0, 0.0)]

    def test_stop_when_once_per_sample(self):
        seen = []

        def stop(p, t):
            seen.append((p, t))
            return False

        traj = integrate(ExtremeRayStrategy("left"), LogPoint(-2.0, 1.5), WORKED_FAN, DELTA,
                         t_end=1.0, stop_when=stop)
        assert traj.termination == "t_end" and len(traj.points) == 101
        assert seen == list(zip(traj.points, traj.times))

    @pytest.mark.parametrize("t_end", [0.0, -1.0])
    def test_stopping_start_stops_without_time(self, t_end):
        traj = integrate(ExtremeRayStrategy("left"), LogPoint(0.0, 0.0), WORKED_FAN, DELTA,
                         t_end=t_end, stop_when=lambda p, t: True)
        assert traj.termination == "stopped" and traj.points == [LogPoint(0.0, 0.0)]
        traj = integrate(ExtremeRayStrategy("left"), LogPoint(0.0, 0.0), WORKED_FAN, DELTA,
                         t_end=t_end, stop_when=lambda p, t: False)
        assert traj.termination == "t_end" and traj.points == [LogPoint(0.0, 0.0)]

    def test_runs_out_of_steps(self):
        # A fast turn about (1,1), where every strip holds the point (so the
        # cone is the whole plane): each step moves 0.25 in log space in
        # 2.5e-5 time, so 64 * ceil(t_end / dt) + 16 = 656 steps end short
        # of t_end.
        class Spin:
            reads_cone = False

            def __call__(self, p, rhs, t):
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

    @pytest.mark.parametrize("rescale", [False, True])
    def test_four_monomial_passes_per_step(self, monkeypatch, rescale):
        # The step start's velocity and stiffness come from one pass and
        # each later stage makes one; no step of this flow is halved.
        passes = []
        monomials = dynamics._monomials
        monkeypatch.setattr(dynamics, "_monomials",
                            lambda system, pt: passes.append(pt) or monomials(system, pt))
        sys11 = embedded_system_for_target(WORKED_FAN, DELTA, "origin_11")
        traj = integrate_to_point(sys11, LogPoint(2.0, -1.5), WORKED_FAN, DELTA,
                                  LogPoint(0.0, 0.0), t_end=0.05, rescale=rescale)
        steps = len(traj.times) - 1
        assert traj.termination == "t_end" and steps >= 50
        assert len(passes) == 4 * steps

    def test_convergence_nm_system(self, region, nm_system):
        target = region.start_max.log
        traj = integrate_to_point(nm_system, LogPoint(-8.0, 8.0), WORKED_FAN,
                                  DELTA, target, t_end=200.0)
        assert traj.termination == "stopped"
        end = traj.points[-1]
        assert max(abs(end.X - target.X), abs(end.Y - target.Y)) <= 1e-6
        assert traj.worst_violation <= 1e-9


class TestRhsFast:
    def test_strip_boundary_takes_the_bruteforce_value(self):
        # On the boundary of strip (1,2), 2Y - X = delta_i, with the gap
        # outside: rhs_classified cannot choose, and the fallback gives the
        # definition's open-side value, inside the checks' inclusive one.
        pt = LogPoint(-7.0, (delta_i(LineGenerator(1, 2), DELTA) - 7.0) / 2.0)
        with pytest.raises(AmbiguousClassification):
            rhs_classified(pt, WORKED_FAN, DELTA)
        assert dynamics._rhs_fast(pt, WORKED_FAN, DELTA) == rhs_bruteforce(pt, WORKED_FAN, DELTA)
        traj = integrate(ExtremeRayStrategy("left"), pt, WORKED_FAN, DELTA, t_end=1.0)
        assert traj.termination == "t_end" and traj.worst_violation <= 1e-9


class TestStrategies:
    def test_ray_selections_floor(self):
        # At x = y = e^-12 a unit log speed is an x-space speed of about
        # 6e-6; in a proper cone each ray selection is raised to 1e-3, still
        # in the cone, and in the full plane the unit log speed stands.
        pt = LogPoint(-12.0, -12.0)
        rhs = rhs_bruteforce(pt, WORKED_FAN, DELTA)
        full = rhs_bruteforce(LogPoint(0.0, 0.0), WORKED_FAN, DELTA)
        assert (rhs.kind, full.kind) == ("sector", "full")
        reg = builtin_strategies(WORKED_FAN, DELTA, seed=7)
        for name in ("extreme_left", "extreme_right", "alternating", "random_in_cone"):
            for t in (0.1, 0.6):
                v = reg[name](pt, rhs, t)
                assert math.hypot(*v) == pytest.approx(1e-3, rel=1e-12), name
                assert rhs.violation(v) <= 1e-9, name
                v = reg[name](pt, full, t)
                assert math.hypot(v[0] * math.exp(12.0), v[1] * math.exp(12.0)) == \
                    pytest.approx(1.0, rel=1e-12), name

    def test_extreme_rays_stay_in_cone(self):
        rng = np.random.default_rng(3)
        left = ExtremeRayStrategy("left")
        right = ExtremeRayStrategy("right")
        for X, Y in rng.uniform(-10, 10, size=(200, 2)):
            pt = LogPoint(float(X), float(Y))
            rhs = rhs_bruteforce(pt, WORKED_FAN, DELTA, tol=-1e-9)
            for strat in (left, right):
                assert rhs.violation(strat(pt, rhs, 0.0)) <= 1e-9

    def test_random_in_cone_stays_in_cone(self):
        rng = np.random.default_rng(4)
        strat = RandomInConeStrategy(seed=5)
        for X, Y in rng.uniform(-10, 10, size=(200, 2)):
            pt = LogPoint(float(X), float(Y))
            rhs = rhs_bruteforce(pt, WORKED_FAN, DELTA, tol=-1e-9)
            assert rhs.violation(strat(pt, rhs, 0.0)) <= 1e-9

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError, match="'left' or 'right'"):
            ExtremeRayStrategy("up")

    def test_random_in_cone_on_a_line(self):
        # On a line cone each draw is one of its two directions.
        line = Cone(0.4, LINE_WIDTH)
        strat = RandomInConeStrategy(seed=2)
        picks = {strat(LogPoint(0.0, 0.0), line, 0.0) for _ in range(32)}
        u = (math.cos(0.4), math.sin(0.4))
        assert len(picks) == 2
        for v in picks:
            assert line.violation(v) <= 1e-12
            assert abs(abs(v[0] * u[0] + v[1] * u[1]) - math.hypot(*v)) <= 1e-12

    def test_zero_log_speed_gives_zero_velocity(self):
        # At x = y = e^800 a unit x-space direction has log speed 0.0 in
        # floats, and the ray selection rests instead of dividing by it.
        strat = ExtremeRayStrategy("left")
        assert strat(LogPoint(800.0, 800.0), Cone(0.0, 1.0), 0.0) == (0.0, 0.0)

    def test_registry_names(self):
        reg = builtin_strategies(WORKED_FAN, DELTA)
        assert set(reg) == {"origin_11", "extreme_left", "extreme_right",
                            "alternating", "random_in_cone"}
        # The ray selections carry their own floor: no wrapper renames them.
        assert [reg[n].name for n in ("extreme_left", "extreme_right", "alternating")] == \
            ["extreme_left", "extreme_right", "alternating"]
        assert reg["random_in_cone"].name == "random_in_cone_0"


class TestOmegaLimit:
    @staticmethod
    def _mk(points):
        n = len(points)
        return Trajectory(list(range(n)), points, [(0.0, 0.0)] * n,
                          "synthetic", "t_end")

    def test_short_trajectory_rejected(self):
        with pytest.raises(ValueError, match="at least 100"):
            omega_limit_estimate(self._mk([LogPoint(0.0, 0.0)] * 99))

    @pytest.mark.parametrize("times", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0]])
    def test_times_must_increase(self, times):
        with pytest.raises(ValueError, match="strictly increase"):
            Trajectory(times, [LogPoint(0.0, 0.0)] * 3, [(0.0, 0.0)] * 3, "synthetic", "t_end")

    def test_constant_trajectory(self):
        pts = [LogPoint(1.0, 2.0)] * 150
        centers = omega_limit_estimate(self._mk(pts))
        assert len(centers) == 1
        assert (centers[0].X, centers[0].Y) == (1.0, 2.0)

    def test_periodic_log_circle(self):
        pts = [LogPoint(math.cos(2 * math.pi * k / 200), math.sin(2 * math.pi * k / 200))
               for k in range(600)]
        centers = omega_limit_estimate(self._mk(pts), tail_fraction=0.5)
        # Every circle point is within the sampling gap of some center.
        gap = 2 * math.pi / 200 + 1e-3
        for p in pts[-200:]:
            assert min(math.hypot(p.X - c.X, p.Y - c.Y) for c in centers) <= gap
        for c in centers:
            assert math.hypot(c.X, c.Y) == pytest.approx(1.0, abs=1e-9)

    def test_converging_trajectory(self):
        sys11 = embedded_system_for_target(WORKED_FAN, DELTA, "origin_11")
        traj = integrate_to_point(sys11, LogPoint(3.0, -2.0), WORKED_FAN, DELTA,
                                  LogPoint(0.0, 0.0), t_end=200.0, rel_tol=1e-6)
        centers = omega_limit_estimate(traj, tail_fraction=0.05)
        assert len(centers) == 1
        assert math.hypot(centers[0].X, centers[0].Y) <= 1e-3


class TestReachWitness:
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

    def test_out_of_region_target_rejected(self, region):
        # Beyond the I1 segment NM->A1 (x + 2y ~ 2.5e3 there, ~8.1e3 here): the
        # region is invariant, so no trajectory from (1,1) reaches this point.
        target = LogPoint(4.0, 8.3)
        assert region_contains(region, target) == "outside"
        with pytest.raises(WitnessFailed) as err:
            reach_witness(PosPoint(1.0, 1.0), target, WORKED_FAN, DELTA, region)
        assert err.value.leg == "precondition"

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
        # The one candidate tried is listed after the last error.
        assert re.fullmatch(r"no valid route: (straight gap run: worst violation \S+); I4\[2\]: \1",
                            err.value.detail)

    @pytest.fixture
    def batches(self, monkeypatch):
        """Lengths of the _violations batches and the (chain, k) of every
        candidate route built, in call order."""
        record = SimpleNamespace(batches=[], routes=[])
        violations, hop_and_walk = dynamics._violations, dynamics._hop_and_walk

        def counted(points, velocities, *args):
            record.batches.append(len(velocities))
            return violations(points, velocities, *args)

        def hop(cur, chain, k, region):
            record.routes.append((chain, k))
            return hop_and_walk(cur, chain, k, region)

        monkeypatch.setattr(dynamics, "_violations", counted)
        monkeypatch.setattr(dynamics, "_hop_and_walk", hop)
        return record

    @pytest.mark.parametrize("target, routes", [
        ((4.0, 7.0), [("I1", 0)]),                           # strip
        ((5.954689, -0.749074), [("I4", 0), ("I4", 1)]),     # gap: the first route fails
        ((-1.5, -1.0), []),                                  # full plane
    ])
    def test_one_batch_per_route(self, region, batches, target, routes):
        # From (1,1) the flow makes no step, so every batch checks a route.
        traj = reach_witness(PosPoint(1.0, 1.0), LogPoint(*target), WORKED_FAN, DELTA, region)
        assert len(traj.legs[0].points) == 1
        assert batches.routes == routes
        assert len(batches.batches) == max(1, len(routes))
        assert batches.batches[-1] == sum(len(leg.points) for leg in traj.legs[1:])

    def test_route_failure_lists_every_candidate(self, region, batches, monkeypatch):
        # With no tolerance left every candidate fails its one check.
        monkeypatch.setattr(dynamics, "_CONE_TOL", -1.0)
        with pytest.raises(WitnessFailed) as err:
            reach_witness(PosPoint(1.0, 1.0), LogPoint(5.954689, -0.749074), WORKED_FAN, DELTA,
                          region)
        assert batches.routes == [("I4", 0), ("I4", 1)]
        assert len(batches.batches) == 2
        head, *tried = err.value.detail.split("; ")
        assert head == "no valid route: straight gap run: worst violation 0.000e+00"
        assert [t.split(": ", 1)[0] for t in tried] == ["I4[0]", "I4[1]"]
        assert tried[0].startswith("I4[0]: straight gap run: worst violation ")
        assert tried[1] == "I4[1]: straight gap run: worst violation 0.000e+00"


class TestValidateLeg:
    def test_worst_is_the_scalar_loops(self, region):
        # Two strip targets and a gap target; the second strip route rounds
        # to a positive worst.
        worst = []
        for target in ((4.0, 7.0), (3.677344, -3.26284), (5.5, -1.0)):
            traj = reach_witness(PosPoint(1.0, 1.0), LogPoint(*target), WORKED_FAN, DELTA,
                                 region)
            for leg in traj.legs:
                ref = 0.0
                for p, v in zip(leg.points, leg.velocities):
                    ref = max(ref, rhs_bruteforce(p, WORKED_FAN, DELTA, tol=-1e-9).violation(v))
                worst.append(_validate_leg([leg], WORKED_FAN, DELTA))
                assert worst[-1] == ref, (target, leg.description)
        assert len(worst) > 6 and max(worst) > 0.0

    def test_bad_velocity_names_the_leg(self):
        # Up the diagonal strip of CROSS_FAN the cone is {v . (1,1) <= 0}.
        points = [LogPoint(10.0, 10.0 + 0.05 * k) for k in range(9)]
        velocities = [(-1.0, -1.0)] * 9
        velocities[4] = (1.0, 1.0)
        leg = WitnessLeg("logline", "test run", points, velocities)
        with pytest.raises(WitnessFailed) as err:
            _validate_leg([leg], CROSS_FAN, 1.0)
        assert err.value.leg == "test run"
        assert str(err.value) == "test run: worst violation 1.000e+00"
        velocities[4] = (-1.0, 1.0)
        assert _validate_leg([leg], CROSS_FAN, 1.0) == 0.0

    def test_route_names_its_last_bad_leg(self):
        # The bad velocities sit at the end of the first bad leg and the start
        # of the second, next to the good legs' points in the one batch.
        points = [LogPoint(10.0, 10.0 + 0.05 * k) for k in range(9)]
        inward = [(-1.0, -1.0)] * 9
        good = WitnessLeg("logline", "good", points, inward)
        first = WitnessLeg("logline", "first bad", points, inward[1:] + [(1.0, 1.0)])
        second = WitnessLeg("logline", "second bad", points, [(0.0, 1.0)] + inward[1:])
        with pytest.raises(WitnessFailed) as err:
            _validate_leg([good, first, good, second, good], CROSS_FAN, 1.0)
        assert err.value.leg == "second bad"
        assert str(err.value) == "second bad: worst violation 7.071e-01"
        with pytest.raises(WitnessFailed) as err:
            _validate_leg([good, first, good], CROSS_FAN, 1.0)
        assert str(err.value) == "first bad: worst violation 1.000e+00"
        assert _validate_leg([good, good], CROSS_FAN, 1.0) == 0.0


class TestXlineLeg:
    def test_log_y_dominant_walk(self):
        a, b = LogPoint(0.2, -0.5), LogPoint(0.7, 2.5)
        ax, ay, bx, by = math.exp(a.X), math.exp(a.Y), math.exp(b.X), math.exp(b.Y)
        n = math.hypot(bx - ax, by - ay)
        direction = ((bx - ax) / n, (by - ay) / n)
        leg = _xline_leg(a, direction, b, "test walk")
        assert leg.kind == "xline"
        assert leg.velocities == [direction] * len(leg.points)
        assert (leg.points[0].X, leg.points[0].Y) == pytest.approx((a.X, a.Y), abs=1e-12)
        assert (leg.points[-1].X, leg.points[-1].Y) == pytest.approx((b.X, b.Y), abs=1e-12)
        # Even in log y, the dominant axis, and on the x-space line a -> b.
        steps = [q.Y - p.Y for p, q in zip(leg.points, leg.points[1:])]
        assert steps == pytest.approx([steps[0]] * len(steps), abs=1e-12)
        for p in leg.points:
            x, y = math.exp(p.X), math.exp(p.Y)
            assert abs((x - ax) * direction[1] - (y - ay) * direction[0]) <= 1e-12 * n
