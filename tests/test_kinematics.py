import dataclasses
import math
import re

import numpy as np
import pytest

from trajsim.geom import Pose, wrap_angle
from trajsim.kinematics import (
    DENSE_TICKS,
    TICK_DT,
    DenseTrajectory,
    EgoState,
    KinematicsConfig,
    Trajectory,
    pid_track,
    trajectory_to_world,
)
from trajsim.metrics import MetricConfig, ScoreContext, score_hc
from trajsim.scene_io import SyntheticSpec, generate_scene

CFG = KinematicsConfig()


def straight_plan(v, m=8):
    t = 0.5 * (np.arange(m) + 1)
    return Trajectory(np.stack([v * t, np.zeros(m), np.zeros(m)], axis=1))


def state(x=0.0, y=0.0, psi=0.0, v=0.0, a=0.0, steer=0.0):
    return EgoState(Pose(x, y, psi), v, a, steer)


class TestBicycleStep:
    """The forward-Euler bicycle step that pid_track applies every tick."""

    def test_rest_is_fixed_point(self):
        d = pid_track(Trajectory(np.zeros((8, 3))), state())
        for field in (d.x, d.y, d.psi, d.v, d.a, d.steer):
            assert field.tolist() == [0.0] * DENSE_TICKS

    def test_straight_advance(self):
        d = pid_track(straight_plan(10.0), state(v=10.0))
        assert d.x[1] == pytest.approx(1.0)
        assert d.y[1] == 0.0

    def test_constant_steer_heading_sum(self):
        # each tick turns by (v / wheelbase) * tan(steer) * dt with the speed
        # before the tick and the steer command recorded at it
        plan = Trajectory([[4.0 * (i + 1), 0.4 * (i + 1) ** 2, 0.2 * (i + 1)] for i in range(8)])
        d = pid_track(plan, state(v=8.0))
        total = sum((d.v[k] / CFG.wheelbase) * math.tan(d.steer[k + 1]) * TICK_DT for k in range(DENSE_TICKS - 1))
        assert d.psi[-1] == pytest.approx(total, abs=1e-9)
        assert 0.5 < total < math.pi

    def test_commands_clamped_and_recorded(self):
        # waypoints far ahead and far to the right saturate both commands
        plan = Trajectory([[50.0 * (i + 1), -20.0 * (i + 1), 0.0] for i in range(8)])
        d = pid_track(plan, state(v=5.0))
        assert d.a.max() == CFG.accel_max
        assert d.steer.min() == -CFG.steer_max

    def test_speed_floors_at_zero(self):
        # a plan that stays at the start makes the moving ego brake to a stop
        d = pid_track(Trajectory(np.zeros((8, 3))), state(v=5.0))
        floored = [k for k in range(1, DENSE_TICKS) if d.v[k - 1] + d.a[k] * TICK_DT < 0.0]
        assert floored and all(d.v[k] == 0.0 for k in floored)
        assert d.v.min() == 0.0


class TestPidTrack:
    def test_requires_two_waypoints(self):
        with pytest.raises(ValueError):
            pid_track(Trajectory([[1.0, 0.0, 0.0]]), state())

    def test_stationary_plan_stays_put(self):
        plan = Trajectory(np.zeros((8, 3)))
        d = pid_track(plan, state())
        assert np.hypot(d.x, d.y).max() <= 0.05

    def test_straight_plan_tracking_error(self):
        d = pid_track(straight_plan(10.0), state(v=10.0))
        t = TICK_DT * np.arange(DENSE_TICKS)
        err = np.hypot(d.x - 10.0 * t, d.y)
        assert err.max() < 0.5

    def test_always_41_states_with_index0_init(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            plan = Trajectory(np.column_stack([
                np.cumsum(rng.uniform(-1, 6, 8)),
                np.cumsum(rng.uniform(-2, 2, 8)),
                rng.uniform(-math.pi, math.pi, 8),
            ]))
            init = state(v=float(rng.uniform(0, 15)))
            d = pid_track(plan, init)
            assert len(d) == DENSE_TICKS
            assert (d.x[0], d.y[0], d.psi[0], d.v[0]) == (
                init.pose.x, init.pose.y, init.pose.psi, init.v)

    def test_bitwise_deterministic(self):
        plan = Trajectory(np.column_stack([np.linspace(3, 30, 8), np.sin(np.arange(8)), np.zeros(8)]))
        init = state(v=7.3)
        a, b = pid_track(plan, init), pid_track(plan, init)
        assert a == b

    def test_speeds_nonnegative_commands_bounded(self):
        # a teleporting, infeasible plan: must saturate, never reject
        plan = Trajectory([[50, 0, 0], [-50, 20, 3], [80, -40, -3], [0, 0, 0],
                           [10, 10, 1], [0, -30, 2], [90, 5, 0], [-5, -5, -1]])
        d = pid_track(plan, state(v=5.0))
        assert d.v.min() >= 0.0
        assert d.a[1:].min() >= CFG.accel_min and d.a[1:].max() <= CFG.accel_max
        assert np.abs(d.steer[1:]).max() <= CFG.steer_max

    def test_tracks_dynamically_feasible_plan(self):
        # sample the plan from a rollout of the bicycle model itself, then re-track it
        t = 0.5 * (np.arange(8) + 1)
        curve = Trajectory(np.stack([8.0 * t, 0.2 * t * t, np.arctan2(0.4 * t, 8.0)], axis=1))
        rollout = pid_track(curve, state(v=8.0))
        plan = Trajectory([[rollout.x[k], rollout.y[k], rollout.psi[k]] for k in range(5, DENSE_TICKS, 5)])
        d = pid_track(plan, state(v=8.0))
        for i, (px, py, _) in enumerate(plan.poses):
            tick = 5 * (i + 1)
            assert math.hypot(d.x[tick] - px, d.y[tick] - py) < 0.5


class TestDeriveProfiles:
    """The comfort profiles that score_hc bounds, over the history-padded rollout."""

    def _hc(self, v, psi, **bounds):
        """score_hc of a rollout whose speeds and headings over the padded
        window (15 history ticks, then 41 rollout ticks) are v(t) and psi(t)."""
        t = TICK_DT * np.arange(-16, DENSE_TICKS)
        vs, psis = v(t), psi(t)
        scene = generate_scene(SyntheticSpec("clean_straight", seed=0))
        history = [[0.0, 0.0, p, s, 0.0, 0.0] for s, p in zip(vs[:16], psis[:16])]
        scene = dataclasses.replace(scene, ego_history=history)
        z = np.zeros(DENSE_TICKS)
        d = DenseTrajectory(z, z, [wrap_angle(p) for p in psis[16:]], vs[16:], z, z)
        return score_hc(d, ScoreContext(scene, metric_cfg=MetricConfig(**bounds)))

    def test_constant_velocity_all_zero(self):
        tight = dict(lon_accel_min=-1e-9, lon_accel_max=1e-9, lat_accel_max=1e-9, lon_jerk_max=1e-9,
                     jerk_max=1e-9, yaw_rate_max=1e-9, yaw_accel_max=1e-9)
        assert self._hc(lambda t: np.full_like(t, 10.0), np.zeros_like, **tight) == 1.0

    def test_uniform_acceleration(self):
        def hc(**bounds):
            return self._hc(lambda t: 8.0 + 2.0 * t, np.zeros_like, jerk_max=1e-9, lon_jerk_max=1e-9, **bounds)

        assert hc(lon_accel_min=2.0 - 1e-9, lon_accel_max=2.0 + 1e-9) == 1.0
        assert hc(lon_accel_max=2.0 - 1e-6) == 0.0
        assert hc(lon_accel_min=2.0 + 1e-6) == 0.0

    def test_circular_motion(self):
        # v = 5 m/s on a 25 m radius: lat accel v^2/r = 1.0, yaw rate v/r = 0.2
        r, v = 25.0, 5.0

        def hc(**bounds):
            return self._hc(lambda t: np.full_like(t, v), lambda t: (v / r) * t, **bounds)

        assert hc(lat_accel_max=1.0 + 1e-9, yaw_rate_max=0.2 + 1e-9, jerk_max=1e-9, yaw_accel_max=1e-9) == 1.0
        assert hc(lat_accel_max=1.0 - 1e-6) == 0.0
        assert hc(yaw_rate_max=0.2 - 1e-6) == 0.0


def world_to_ego(t: Trajectory, frame: Pose) -> Trajectory:
    """The inverse of trajectory_to_world."""
    c, s = math.cos(frame.psi), math.sin(frame.psi)
    dx, dy = t.poses[:, 0] - frame.x, t.poses[:, 1] - frame.y
    psi = [wrap_angle(p - frame.psi) for p in t.poses[:, 2]]
    return Trajectory(np.stack([c * dx + s * dy, -s * dx + c * dy, psi], axis=1))


class TestFrames:
    def test_world_round_trip(self):
        rng = np.random.default_rng(11)
        frame = Pose(12.3, -4.5, 2.2)
        t = Trajectory(rng.uniform(-20, 20, size=(8, 3)))
        back = world_to_ego(trajectory_to_world(t, frame), frame)
        assert np.allclose(back.poses[:, :2], t.poses[:, :2], atol=1e-9)
        wrapped = [wrap_angle(p) for p in t.poses[:, 2]]
        assert np.allclose(np.remainder(back.poses[:, 2] - wrapped + math.pi, 2 * math.pi), math.pi, atol=1e-9)

    def test_dense_trajectory_requires_41(self):
        with pytest.raises(ValueError):
            DenseTrajectory(*[np.zeros(40)] * 6)

    @pytest.mark.parametrize("before, after, refused", [
        (0.0, math.pi, True),
        (0.0, 3.0, False),
        (3.1, -3.1, False),  # across the wrap, 0.08 rad
    ])
    def test_dense_trajectory_refuses_a_heading_jump_of_pi(self, before, after, refused):
        psi = np.where(np.arange(DENSE_TICKS) < 20, before, after)
        z = np.zeros(DENSE_TICKS)
        if refused:
            with pytest.raises(ValueError, match=re.escape("heading jumps by >= pi between consecutive ticks")):
                DenseTrajectory(z, z, psi, z, z, z)
        else:
            assert np.array_equal(DenseTrajectory(z, z, psi, z, z, z).psi, psi)
