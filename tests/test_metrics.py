import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajsim.geom import Polygon, Polyline, Pose, wrap_angle
from trajsim.kinematics import (
    DENSE_TICKS,
    DenseTrajectory,
    EgoState,
    Trajectory,
    pid_track,
    trajectory_to_world,
)
from trajsim import metrics
from trajsim.metrics import (
    PHASE_GREEN,
    PHASE_RED,
    Intersection,
    Lane,
    MetricConfig,
    Scene,
    ScoreContext,
    SubScores,
    aggregate_epdms,
    aggregate_pdms,
    diversity,
    evaluate_rollout,
    score_dac,
    score_ddc,
    score_ec,
    score_ep,
    score_hc,
    score_lk,
    score_nc,
    score_tlc,
    score_ttc,
)
from trajsim.scene_io import TEMPLATES, SyntheticSpec, _agent_fields, generate_scene, transform_scene

import oracles

T = 0.1 * np.arange(DENSE_TICKS)


def straight_dense(v, y=0.0, x0=0.0):
    z = np.zeros(DENSE_TICKS)
    return DenseTrajectory(x0 + v * T, np.full(DENSE_TICKS, float(y)), z, np.full(DENSE_TICKS, float(v)), z, z)


def dense_from_xy(x, y, v):
    z = np.zeros(DENSE_TICKS)
    return DenseTrajectory(np.asarray(x, float), np.asarray(y, float), z, np.asarray(v, float), z, z)


def history(v0, n=16):
    return np.array([[-v0 * 0.1 * j, 0.0, 0.0, v0, 0.0, 0.0] for j in range(n, 0, -1)])


def make_scene(agents=(), lanes=None, intersections=(), v0=10.0, drivable=None,
               human=None, route=None, hist=None):
    if lanes is None:
        lanes = [Lane(Polyline([[-50.0, 0.0], [100.0, 0.0]]), 1)]
    if drivable is None:
        drivable = [Polygon([[-50, -6], [100, -6], [100, 6], [-50, 6]])]
    if human is None:
        t = 0.5 * (np.arange(8) + 1)
        human = Trajectory(np.stack([v0 * t, np.zeros(8), np.zeros(8)], axis=1))
    return Scene(
        scene_id="test",
        ego_init=EgoState(Pose(0.0, 0.0, 0.0), v0, 0.0, 0.0),
        ego_history=history(v0) if hist is None else hist,
        **_agent_fields(agents),
        drivable=drivable,
        route=route or Polyline([[-50.0, 0.0], [100.0, 0.0]]),
        lanes=lanes,
        intersections=list(intersections),
        human_trajectory=human,
        command="forward",
    )


def parked(agent_id, x, y, psi=0.0):
    return agent_id, 2.3, 0.95, np.tile([x, y, psi], (DENSE_TICKS, 1))


def moving(agent_id, x0, y0, vx, vy, psi):
    states = np.stack([x0 + vx * T, y0 + vy * T, np.full(DENSE_TICKS, psi)], axis=1)
    return agent_id, 2.3, 0.95, states


class TestNoCollision:
    def test_no_agents(self):
        assert score_nc(straight_dense(10.0), ScoreContext(make_scene())) == 1.0

    def test_parked_agent_ahead_full_speed(self):
        scene = make_scene(agents=[parked("p", 10.0, 0.0)])
        assert score_nc(straight_dense(10.0), ScoreContext(scene)) == 0.0

    def test_rear_ended_while_stopped_is_no_fault(self):
        # stopped ego, faster agent approaching from behind
        scene = make_scene(agents=[moving("rear", -15.0, 0.0, 5.0, 0.0, 0.0)], v0=0.0)
        assert score_nc(straight_dense(0.0), ScoreContext(scene)) == 1.0

    def test_hitting_agent_while_reversing_logic(self):
        # same geometry but the ego drives backwards into the agent's path is
        # impossible here (v >= 0); an agent ahead is always at fault
        scene = make_scene(agents=[parked("p", 6.0, 0.0)])
        assert score_nc(straight_dense(2.0), ScoreContext(scene)) == 0.0


class TestDrivableArea:
    def test_wide_road(self):
        assert score_dac(straight_dense(10.0), ScoreContext(make_scene())) == 1.0

    def test_veering_off_corridor(self):
        narrow = [Polygon([[-50, -1.75], [100, -1.75], [100, 1.75], [-50, 1.75]])]
        scene = make_scene(drivable=narrow)
        assert score_dac(straight_dense(10.0, y=5.0), ScoreContext(scene)) == 0.0

    def test_tangent_corners_on_boundary(self):
        band = [Polygon([[-50, -2], [100, -2], [100, 2], [-50, 2]])]
        scene = make_scene(drivable=band)
        # top corners at y = 1.05 + 0.95 = 2.0, exactly on the boundary
        assert score_dac(straight_dense(10.0, y=1.05), ScoreContext(scene)) == 1.0


class TestDrivingDirection:
    def _scene_with_flip(self, x_flip):
        lanes = [
            Lane(Polyline([[-50.0, 0.0], [x_flip, 0.0]]), 1),
            Lane(Polyline([[x_flip, 0.0], [100.0, 0.0]]), -1),
        ]
        return make_scene(lanes=lanes)

    def test_aligned_rollout(self):
        assert score_ddc(straight_dense(10.0), ScoreContext(make_scene())) == 1.0

    def test_long_incursion_zero(self):
        # at 10 m/s the rollout covers 1 m per tick: 14 wrong-way meters
        assert score_ddc(straight_dense(10.0), ScoreContext(self._scene_with_flip(25.0))) == 0.0

    def test_short_incursion_half(self):
        # ticks 37..39 oppose: 3 m in [2, 6) -> 0.5
        assert score_ddc(straight_dense(10.0), ScoreContext(self._scene_with_flip(36.0))) == 0.5

    def test_incursion_inside_intersection_ignored(self):
        poly = Polygon([[24, -6], [100, -6], [100, 6], [24, 6]])
        scene = make_scene(
            lanes=self._scene_with_flip(25.0).lanes,
            intersections=[Intersection(poly, "i0", np.full(DENSE_TICKS, PHASE_GREEN))],
        )
        assert score_ddc(straight_dense(10.0), ScoreContext(scene)) == 1.0


class TestTrafficLight:
    def _intersection(self, x_lo, phases):
        poly = Polygon([[x_lo, -6], [x_lo + 20, -6], [x_lo + 20, 6], [x_lo, 6]])
        return Intersection(poly, "i0", phases)

    def test_no_intersections(self):
        assert score_tlc(straight_dense(10.0), ScoreContext(make_scene())) == 1.0

    def test_entry_on_red(self):
        # front of the box (x + 2.3) first touches the polygon at tick 12
        inter = self._intersection(14.3, np.full(DENSE_TICKS, PHASE_RED))
        assert score_tlc(straight_dense(10.0), ScoreContext(make_scene(intersections=[inter]))) == 0.0

    def test_entry_on_green_then_red_inside(self):
        phases = np.full(DENSE_TICKS, PHASE_GREEN)
        phases[20:] = PHASE_RED
        inter = self._intersection(7.3, phases)  # entry at tick 5, still green
        assert score_tlc(straight_dense(10.0), ScoreContext(make_scene(intersections=[inter]))) == 1.0

    def test_starting_inside_is_not_an_entry(self):
        inter = self._intersection(-10.0, np.full(DENSE_TICKS, PHASE_RED))
        assert score_tlc(straight_dense(10.0, x0=0.0), ScoreContext(make_scene(intersections=[inter]))) == 1.0

    def test_phases_kept_read_only(self):
        phases = np.full(DENSE_TICKS, PHASE_RED)
        inter = self._intersection(0.0, phases)
        assert inter.phases.dtype == np.int8 and not inter.phases.flags.writeable and phases.flags.writeable

    @pytest.mark.parametrize("phases, message", [
        (np.full(DENSE_TICKS - 1, PHASE_GREEN), "traffic light 'i0': needs 41 phases"),
        (np.full(DENSE_TICKS, 3), "traffic light 'i0': invalid phase code"),
    ])
    def test_bad_phases_named(self, phases, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            self._intersection(0.0, phases)


class TestEgoProgress:
    def test_identity(self):
        ctx = ScoreContext(make_scene())
        assert score_ep(ctx.reference, ctx) == 1.0

    def test_half_progress(self):
        # the reference runs along the route (the x axis); half its x, half its progress
        ctx = ScoreContext(make_scene())
        ref = ctx.reference
        assert ctx.ref_progress > 1.0
        half = dense_from_xy(0.5 * ref.x, np.zeros(DENSE_TICKS), ref.v)
        assert score_ep(half, ctx) == pytest.approx(0.5)

    def test_stationary_reference(self):
        # a human plan that stays at the origin gives a reference with no progress
        ctx = ScoreContext(make_scene(v0=0.0))
        assert ctx.ref_progress < ctx.metric_cfg.ep_min_ref_progress_m
        assert score_ep(straight_dense(0.0), ctx) == 1.0

    def test_uses_human_reference_by_default(self):
        scene = make_scene(v0=10.0)  # human plan advances at 10 m/s
        assert score_ep(straight_dense(10.0), ScoreContext(scene)) == pytest.approx(1.0, abs=1e-6)


class TestTimeToCollision:
    def test_empty_scene(self):
        assert score_ttc(straight_dense(10.0), ScoreContext(make_scene())) == 1.0

    def test_static_agent_in_projection_horizon(self):
        scene = make_scene(agents=[parked("p", 8.0, 0.0)])
        assert score_ttc(straight_dense(10.0), ScoreContext(scene)) == 0.0

    def test_constant_gap_same_speed(self):
        scene = make_scene(agents=[moving("lead", 25.0, 0.0, 10.0, 0.0, 0.0)])
        assert score_ttc(straight_dense(10.0), ScoreContext(scene)) == 1.0


class TestLaneKeeping:
    def _offset_dense(self, offset, start, stop, v=10.0):
        y = np.zeros(DENSE_TICKS)
        y[start:stop] = offset
        return dense_from_xy(v * T, y, np.full(DENSE_TICKS, v))

    def test_centered(self):
        assert score_lk(straight_dense(10.0), ScoreContext(make_scene())) == 1.0

    def test_held_offset_fails(self):
        # 1.2 m offset for 2 s (20 ticks) is well past the 1 s window
        d = self._offset_dense(1.2, 10, 30)
        assert score_lk(d, ScoreContext(make_scene())) == 0.0

    def test_brief_offset_passes(self):
        d = self._offset_dense(0.8, 10, 15)  # 0.5 s only
        assert score_lk(d, ScoreContext(make_scene())) == 1.0

    @pytest.mark.parametrize("runs, want", [
        ([(10, 20)], 1.0),                       # exactly the 10-tick window
        ([(10, 21)], 0.0),                       # one tick past it
        ([(2, 8), (12, 18), (25, 31)], 1.0),     # 18 ticks, no run past the window
        ([(2, 8), (12, 23)], 0.0),
    ])
    def test_only_a_run_past_the_window_fails(self, runs, want):
        y = np.zeros(DENSE_TICKS)
        for start, stop in runs:
            y[start:stop] = 1.2
        d = dense_from_xy(10.0 * T, y, np.full(DENSE_TICKS, 10.0))
        assert score_lk(d, ScoreContext(make_scene())) == want

    def test_offset_inside_intersection_ignored(self):
        poly = Polygon([[5, -6], [50, -6], [50, 6], [5, 6]])
        inter = Intersection(poly, "i0", np.full(DENSE_TICKS, PHASE_GREEN))
        d = self._offset_dense(1.2, 10, 30)
        assert score_lk(d, ScoreContext(make_scene(intersections=[inter]))) == 1.0


@pytest.mark.parametrize("rule", [score_ddc, score_lk], ids=["ddc", "lk"])
def test_a_scene_without_lanes_passes_lane_rules(rule):
    # 1.2 m off the only lane for 2 s: LK fails with the lane, and neither rule has a lane to read without it
    y = np.zeros(DENSE_TICKS)
    y[10:30] = 1.2
    d = dense_from_xy(10.0 * T, y, np.full(DENSE_TICKS, 10.0))
    assert score_lk(d, ScoreContext(make_scene())) == 0.0
    assert rule(d, ScoreContext(make_scene(lanes=[]))) == 1.0


class TestHistoryComfort:
    def test_smooth_rollout(self):
        assert score_hc(straight_dense(10.0), ScoreContext(make_scene(v0=10.0))) == 1.0

    def test_emergency_stop_fails(self):
        v = np.maximum(0.0, 10.0 - 8.0 * T)
        x = np.concatenate([[0.0], np.cumsum(v[:-1] * 0.1)])
        d = dense_from_xy(x, np.zeros(DENSE_TICKS), v)
        assert score_hc(d, ScoreContext(make_scene(v0=10.0))) == 0.0

    def test_junction_jerk_fails(self):
        assert score_hc(straight_dense(10.0), ScoreContext(junction_scene())) == 0.0


def junction_scene():
    """A scene whose history accelerates at +2 m/s^2 up to 10 m/s: into a
    constant-speed rollout, lon accel flips 2 -> 0 in one tick, lon jerk
    ~ 20 m/s^3."""
    hist = [[-10 * 0.1 * j + 0.01 * j * j, 0.0, 0.0, 10.0 - 2.0 * 0.1 * j, 2.0, 0.0] for j in range(16, 0, -1)]
    return make_scene(v0=10.0, hist=hist)


class TestEgoHistory:
    """Scene keeps its history as one checked, read-only (H, 6) array."""

    def test_read_only_copy_with_wrapped_headings(self):
        hist = history(10.0)
        hist[5, 2], hist[6, 2], hist[7, 2] = 1.5 * math.pi, -math.pi, 0.25
        scene = make_scene(hist=hist)
        assert scene.ego_history is not hist and hist[5, 2] == 1.5 * math.pi
        assert not scene.ego_history.flags.writeable
        assert scene.ego_history[5, 2] == wrap_angle(1.5 * math.pi)
        assert scene.ego_history[6, 2] == math.pi and scene.ego_history[7, 2] == 0.25
        assert np.array_equal(np.delete(scene.ego_history, 2, axis=1), np.delete(hist, 2, axis=1))

    @pytest.mark.parametrize("column, value, message", [
        (0, float("nan"), "pose components"),
        (1, -2e9, "pose components"),
        (2, float("inf"), "pose components"),
        (3, -0.5, "speed v must be finite and non-negative"),
        (3, 2e9, "speed v must be finite and non-negative, at most 1e+09"),
        (4, float("nan"), "acceleration a must be finite"),
        (5, float("-inf"), "steer must be finite"),
    ])
    def test_bad_state_named_by_its_row(self, column, value, message):
        hist = history(10.0)
        hist[[3, 9], column] = value
        with pytest.raises(ValueError, match=re.escape(f"ego.history[3]: {message}")):
            make_scene(hist=hist)

    @pytest.mark.parametrize("hist, message", [
        (history(10.0)[:15], "ego history needs at least 16 states"),
        (history(10.0)[:, :5], "ego history must be an (H, 6) array"),
        (history(10.0).ravel(), "ego history must be an (H, 6) array"),
    ])
    def test_bad_shape(self, hist, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make_scene(hist=hist)


class TestAgentArrays:
    """Scene keeps its agents as checked, read-only arrays, which the
    context reads as views."""

    def test_read_only_copies_one_row_per_agent(self):
        agents = [parked("p", 10.0, 1.0, 0.5), moving("m", -5.0, 0.0, 4.0, 0.0, 0.0)]
        scene = make_scene(agents=agents)
        assert scene.agent_ids == ("p", "m")
        assert scene.agent_states.shape == (2, DENSE_TICKS, 3)
        assert np.array_equal(scene.agent_states, np.stack([a[3] for a in agents]))
        assert scene.agent_half_lengths.tolist() == [2.3, 2.3] and scene.agent_half_widths.tolist() == [0.95, 0.95]
        for arr in (scene.agent_states, scene.agent_half_lengths, scene.agent_half_widths):
            assert not arr.flags.writeable
        assert not any(np.shares_memory(scene.agent_states, a[3]) for a in agents)

    def test_context_reads_views(self):
        scene = make_scene(agents=[parked("p", 10.0, 1.0), parked("q", 20.0, -1.0)])
        ctx = ScoreContext(scene)
        for arr in (ctx.agent_x, ctx.agent_y):
            assert np.shares_memory(arr, scene.agent_states)
        assert np.shares_memory(ctx.agent_hl, scene.agent_half_lengths)
        assert np.shares_memory(ctx.agent_hw, scene.agent_half_widths)

    def test_replay_velocity_repeats_the_last_step(self):
        # accelerating in x, so the last tick's velocity differs from any other
        states = np.column_stack([T * T, -3.0 * T, np.zeros(DENSE_TICKS)])
        ctx = ScoreContext(make_scene(agents=[("a", 2.3, 0.95, states)]))
        steps = np.diff(states[:, :2], axis=0) / 0.1
        want = np.vstack([steps, steps[-1:]])
        assert np.array_equal(ctx.agent_vx[0], want[:, 0]) and np.array_equal(ctx.agent_vy[0], want[:, 1])

    def test_no_agents(self):
        scene = make_scene()
        assert scene.agent_ids == () and scene.agent_states.shape == (0, DENSE_TICKS, 3)
        assert scene.agent_half_lengths.shape == scene.agent_half_widths.shape == (0,)
        assert ScoreContext(scene).n_agents == 0

    @pytest.mark.parametrize("index, agent, message", [
        (1, ("b", 2.3, -1.0, np.zeros((DENSE_TICKS, 3))),
         "agents[1]: agent 'b': half_width must be finite and positive, at most 1e+09, got -1.0"),
        (2, ("c", 2.3, 0.95, np.zeros((DENSE_TICKS - 1, 3))),
         "agents[2]: agent 'c': states must be (41, 3), got (40, 3)"),
        (2, ("c", 2.3, 0.95, np.full((DENSE_TICKS, 3), np.nan)), "agents[2]: agent 'c': states must be finite"),
    ])
    def test_first_bad_agent_named(self, index, agent, message):
        agents = [parked(f"ok-{i}", 10.0 * i, 0.0) for i in range(4)]
        agents[index] = agent
        agents[3] = ("d", 2.3, float("nan"), np.zeros((DENSE_TICKS - 1, 3)))  # a later defect is not named
        with pytest.raises(ValueError, match=re.escape(message)):
            make_scene(agents=agents)

    def test_one_entry_per_id(self):
        with pytest.raises(ValueError, match="one entry per id"):
            dataclasses.replace(make_scene(), agent_ids=("x",))


class TestMetricConfig:
    def test_defaults_unchanged(self):
        assert repr(MetricConfig()) == (
            "MetricConfig(ddc_minor_m=2.0, ddc_major_m=6.0, lk_offset_m=0.5, lk_window_ticks=10, ec_pos_m=1.0, "
            "ec_heading_rad=0.2, ec_speed_mps=2.0, ttc_horizon_s=1.0, ttc_substeps=10, lon_accel_min=-4.05, "
            "lon_accel_max=2.4, lat_accel_max=4.89, lon_jerk_max=4.13, jerk_max=8.37, yaw_rate_max=0.95, "
            "yaw_accel_max=1.93, ep_min_ref_progress_m=0.1, history_pad_ticks=15)"
        )

    @pytest.mark.parametrize("name, value", [
        ("history_pad_ticks", -3),
        ("ttc_substeps", 0),
        ("lk_window_ticks", -1),
        ("ttc_substeps", 2.5),
        ("lk_window_ticks", True),
    ])
    def test_bad_integer_named(self, name, value):
        # a value that is not an integer is named as such before its range is checked
        message = f"{name} must be an integer" + (" of at least" if type(value) is int else f", got {value!r}")
        with pytest.raises(ValueError, match=re.escape(message)):
            MetricConfig(**{name: value})

    def test_pad_of_zero_uses_no_history(self):
        # the junction history fails HC at the default pad; at 0 no state of it counts
        ctx = ScoreContext(junction_scene(), metric_cfg=MetricConfig(history_pad_ticks=0))
        assert ctx.hist_v.size == ctx.hist_psi.size == 0
        assert score_hc(straight_dense(10.0), ctx) == 1.0

    def test_pad_beyond_the_history_named(self):
        ScoreContext(make_scene(), metric_cfg=MetricConfig(history_pad_ticks=16))
        with pytest.raises(ValueError, match=re.escape("history_pad_ticks=40 exceeds the 16 history states")):
            ScoreContext(make_scene(), metric_cfg=MetricConfig(history_pad_ticks=40))


class TestExtendedComfort:
    def test_consistent_replan(self):
        prev = straight_dense(10.0, x0=0.0)
        now = straight_dense(10.0, x0=5.0)  # re-planned 0.5 s later, same path
        assert score_ec(now, prev, frame_gap=5) == 1.0

    def test_divergence_fails(self):
        prev = straight_dense(10.0, x0=0.0)
        now = straight_dense(10.0, y=3.0, x0=5.0)
        assert score_ec(now, prev, frame_gap=5) == 0.0

    def test_first_frame_vacuous(self):
        assert score_ec(straight_dense(10.0), None) == 1.0

    def test_symmetric_only_at_zero_gap(self):
        a = straight_dense(10.0)
        b = straight_dense(10.0, y=0.4)
        assert score_ec(a, b, frame_gap=0) == score_ec(b, a, frame_gap=0)

    @pytest.mark.parametrize("with_prev", [True, False])
    @pytest.mark.parametrize("frame_gap", [2.5, np.float64(5.0), True])
    def test_gap_must_be_an_integer(self, frame_gap, with_prev):
        # a float used to fail inside the rule with a TypeError, and True passed as 1; without a
        # previous frame any gap used to pass
        d = straight_dense(10.0)
        with pytest.raises(ValueError, match=f"^frame_gap must be an integer, got {re.escape(repr(frame_gap))}$"):
            score_ec(d, d if with_prev else None, frame_gap)

    @pytest.mark.parametrize("with_prev", [True, False])
    @pytest.mark.parametrize("frame_gap", [-1, 41])
    def test_gap_out_of_range_named(self, frame_gap, with_prev):
        d = straight_dense(10.0)
        with pytest.raises(ValueError, match=rf"^frame_gap must be in \[0, 41\), got {frame_gap}$"):
            score_ec(d, d if with_prev else None, frame_gap)

    def test_numpy_integer_gap_accepted(self):
        prev = straight_dense(10.0, x0=0.0)
        now = straight_dense(10.0, x0=5.0)
        assert score_ec(now, prev, np.int64(5)) == score_ec(now, prev, 5) == 1.0


def subs(**kw):
    base = dict(nc=1.0, dac=1.0, ddc=1.0, tlc=1.0, ep=1.0, ttc=1.0, lk=1.0, hc=1.0, ec=1.0, c=1.0)
    base.update(kw)
    return SubScores(**base)


class TestAggregates:
    def test_all_ones(self):
        assert aggregate_pdms(subs()) == 1.0
        assert aggregate_epdms(subs()) == 1.0

    def test_nc_gates_to_zero(self):
        assert aggregate_pdms(subs(nc=0.0)) == 0.0
        assert aggregate_epdms(subs(nc=0.0)) == 0.0
        assert aggregate_epdms(subs(tlc=0.0)) == 0.0

    def test_worked_pdms_value(self):
        # NC=1, DAC=1, EP=0.8, TTC=1, C=1 -> (5*1.8 + 2)/12 = 11/12
        val = aggregate_pdms(subs(ep=0.8))
        assert val == pytest.approx(11.0 / 12.0, abs=1e-12)

    def test_worked_epdms_value(self):
        # DDC=0.5, EP=0.8, rest 1 -> 0.5 * (5*1.8 + 6)/16 = 0.46875
        val = aggregate_epdms(subs(ddc=0.5, ep=0.8))
        assert val == pytest.approx(0.46875, abs=1e-12)

    def test_matches_formula_on_random_vectors(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            ddc = float(rng.choice([0.0, 0.5, 1.0]))
            vals = dict(
                nc=float(rng.choice([0.0, 1.0])), dac=float(rng.choice([0.0, 1.0])), ddc=ddc,
                tlc=float(rng.choice([0.0, 1.0])), ep=float(rng.uniform(0, 1)),
                ttc=float(rng.choice([0.0, 1.0])), lk=float(rng.choice([0.0, 1.0])),
                hc=float(rng.choice([0.0, 1.0])), ec=float(rng.choice([0.0, 1.0])),
            )
            s = subs(**vals, c=vals["hc"])
            assert aggregate_pdms(s) == pytest.approx(
                oracles.pdms_formula(s.nc, s.dac, s.ep, s.ttc, s.c), abs=1e-12)
            assert aggregate_epdms(s) == pytest.approx(
                oracles.epdms_formula(s.nc, s.dac, s.ddc, s.tlc, s.ep, s.ttc, s.lk, s.hc, s.ec), abs=1e-12)

    def test_epdms_monotone_in_each_subscore(self):
        rng = np.random.default_rng(21)
        fields = ["nc", "dac", "ddc", "tlc", "ep", "ttc", "lk", "hc", "ec"]
        for _ in range(200):
            vals = {f: float(rng.uniform(0, 1)) for f in fields}
            s = subs(**vals, c=vals["hc"])
            base = aggregate_epdms(s)
            for f in fields:
                bumped = dict(vals)
                bumped[f] = min(1.0, vals[f] + 0.1)
                assert aggregate_epdms(subs(**bumped, c=bumped["hc"])) >= base - 1e-12

    def test_subscores_validated(self):
        with pytest.raises(ValueError):
            subs(ep=1.5)


class TestDiversity:
    def _straight(self, y, v=10.0):
        t = 0.5 * (np.arange(8) + 1)
        return Trajectory(np.stack([v * t, np.full(8, float(y)), np.zeros(8)], axis=1))

    def test_identical_proposals(self):
        p = self._straight(0.0)
        assert diversity([p, p, p]) == 0.0

    def test_two_disjoint_corridors(self):
        d = diversity([self._straight(0.0), self._straight(10.0)])
        assert d == pytest.approx(0.5, abs=0.02)

    def test_four_disjoint_corridors(self):
        props = [self._straight(10.0 * i) for i in range(4)]
        assert diversity(props) == pytest.approx(0.75, abs=0.02)

    def test_permutation_invariant(self):
        props = [self._straight(0.0), self._straight(3.0), self._straight(10.0)]
        assert diversity(props) == diversity(props[::-1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            diversity([])

    def test_stationary_proposal_supported(self):
        still = Trajectory(np.zeros((8, 3)))
        assert 0.0 <= diversity([still, self._straight(10.0)]) < 1.0

    def test_nonidentical_corridors_positive(self):
        # overlapping but distinct corridors must yield strictly positive D
        assert diversity([self._straight(0.0), self._straight(1.0)]) > 0.0


def _cells_area(xy) -> float:
    """Area of the corridor cells around the waypoints xy."""
    _, cells = metrics._corridor_cells(np.asarray(xy, dtype=float))
    return np.count_nonzero(cells) * metrics._CELL_M**2


class TestCorridorCells:
    def test_single_point_disc(self):
        assert _cells_area([[3.0, -2.0]]) == pytest.approx(math.pi, rel=0.10)

    def test_straight_segment_capsule(self):
        assert _cells_area([[0, 0], [10, 0]]) == pytest.approx(oracles.capsule_area(10, 2), rel=0.05)

    def test_occupied_cells_satisfy_distance_bound(self):
        line = np.array([[0.0, 0.0], [4.0, 3.0], [8.0, 1.0]])
        lo, cells = metrics._corridor_cells(line)
        for ix, iy in zip(*np.nonzero(cells)):
            center = (lo + (ix, iy) + 0.5) * metrics._CELL_M
            _, d = oracles.dense_projection(line, center, samples=20_000)
            assert d <= 1.0 + 1e-6


class TestCorridorUnion:
    """The corridor union that diversity divides each corridor's area by.

    A proposal of two coincident waypoints on a lattice point is a one-point
    corridor and covers 52 cells: the centers (a, b) / 8 m with a, b odd and
    a^2 + b^2 <= 64, that is 4, 6, 8, 8, 8, 8, 6 and 4 cells in the columns
    a = -7, -5, ..., 7.
    """

    @staticmethod
    def _dot(x, y=0.0):
        return Trajectory([[x, y, 0.0]] * 2)

    def test_disc_cell_count(self):
        assert np.count_nonzero(metrics._corridor_cells(self._dot(0.0).xy)[1]) == 52

    def test_self_union_is_the_corridor(self):
        assert diversity([self._dot(0.0), self._dot(0.0)]) == 0.0

    def test_disjoint_corridors(self):
        # union 104 cells: each corridor is half of it
        assert diversity([self._dot(0.0), self._dot(40.0, 40.0)]) == 0.5

    def test_hand_counted_overlap(self):
        # two cells (0.5 m) apart, the union's columns a = -7, ..., 11 hold
        # 4, 6, 8, 8, 8, 8, 8, 8, 6 and 4 cells: 68
        assert diversity([self._dot(0.0), self._dot(0.5)]) == 1.0 - 52 / 68

    def test_monotone_while_sliding_apart(self):
        ds = [diversity([self._dot(0.0), self._dot(0.25 * k)]) for k in range(11)]
        assert ds[0] == 0.0 and ds[8:] == [0.5] * 3
        assert all(a < b for a, b in zip(ds[:8], ds[1:9]))


def rollout_to_world(d: DenseTrajectory, frame: Pose) -> DenseTrajectory:
    """An ego-frame rollout expressed in the world frame of `frame`."""
    c, s = math.cos(frame.psi), math.sin(frame.psi)
    psi = [wrap_angle(p + frame.psi) for p in d.psi]
    return DenseTrajectory(frame.x + c * d.x - s * d.y, frame.y + s * d.x + c * d.y, psi, d.v, d.a, d.steer)


class TestInvariance:
    def test_rigid_transform_leaves_subscores_unchanged(self):
        for template, seed in (("parked_agent", 3), ("red_light", 5), ("oncoming_lane", 7)):
            scene = generate_scene(SyntheticSpec(template, seed=seed))
            ctx = ScoreContext(scene)
            sub = evaluate_rollout(ctx.reference, ctx)

            frame = Pose(321.0, -45.0, 1.234)
            moved_scene = transform_scene(scene, frame)
            moved_rollout = rollout_to_world(ctx.reference, frame)
            moved_sub = evaluate_rollout(moved_rollout, ScoreContext(moved_scene))
            for name, val in sub.as_dict().items():
                assert getattr(moved_sub, name) == pytest.approx(val, abs=1e-9), name

    def test_codomain_on_template_scenes(self):
        rng = np.random.default_rng(22)
        for seed in range(4):
            for template in ("clean_straight", "parked_agent", "crossing_agent",
                             "red_light", "oncoming_lane", "lane_drift"):
                scene = generate_scene(SyntheticSpec(template, seed=seed))
                ctx = ScoreContext(scene)
                sub = evaluate_rollout(ctx.reference, ctx)  # validates [0,1] on build
                assert 0.0 <= aggregate_epdms(sub) <= 1.0
                assert 0.0 <= aggregate_pdms(sub) <= 1.0


# Property tests: random finite ego-frame plans on every template, drawn as
# the human plan moved by offsets of up to 0.1, 1 or 20 (metres, radians) so
# that both plans near the road and wild ones occur.  The examples are
# derandomized, so each run checks the same plans.
PROPERTIES = settings(max_examples=40, deadline=None, derandomize=True)
unit = st.floats(-1.0, 1.0)
nudges = st.tuples(st.sampled_from([0.1, 1.0, 20.0]), st.lists(st.tuples(unit, unit, unit), min_size=8, max_size=8))
frames = st.builds(Pose, st.floats(-500.0, 500.0), st.floats(-500.0, 500.0), st.floats(-math.pi, math.pi))


@functools.cache
def template_scene(template):
    return generate_scene(SyntheticSpec(template, seed=TEMPLATES.index(template)))


def nudged_rollout(scene, nudge):
    scale, offsets = nudge
    plan = Trajectory(scene.human_trajectory.poses + scale * np.array(offsets))
    return pid_track(trajectory_to_world(plan, scene.ego_init.pose), scene.ego_init)


@pytest.mark.parametrize("template", TEMPLATES)
class TestProperties:
    @PROPERTIES
    @given(nudge=nudges)
    def test_subscores_lie_in_unit_interval(self, template, nudge):
        scene = template_scene(template)
        ctx = ScoreContext(scene)
        rollout = nudged_rollout(scene, nudge)
        for rule in (score_nc, score_dac, score_ddc, score_tlc, score_ep, score_ttc, score_lk, score_hc):
            assert 0.0 <= rule(rollout, ctx) <= 1.0, rule.__name__

    @PROPERTIES
    @given(nudge=nudges, frame=frames)
    def test_subscores_invariant_under_transform_scene(self, template, nudge, frame):
        scene = template_scene(template)
        rollout = nudged_rollout(scene, nudge)
        sub = evaluate_rollout(rollout, ScoreContext(scene))
        moved = evaluate_rollout(rollout_to_world(rollout, frame), ScoreContext(transform_scene(scene, frame)))
        for name, val in sub.as_dict().items():
            assert getattr(moved, name) == pytest.approx(val, abs=1e-9), name
