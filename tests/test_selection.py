import re

import numpy as np
import pytest

from trajsim.geom import Polygon, Polyline, Pose
from trajsim.kinematics import DenseTrajectory, EgoState, Trajectory, pid_track, trajectory_to_world
from trajsim.metrics import Lane, Scene, score_ec
from trajsim.scene_io import SyntheticSpec, generate_scene
from trajsim.selection import ProposalSet, SelectionState, comfort_scores, recalibrate, select


def road_scene(x0=0.0, v0=10.0):
    human = straight(v0)
    return Scene(
        scene_id=f"frame-{x0:.0f}",
        ego_init=EgoState(Pose(x0, 0.0, 0.0), v0, 0.0, 0.0),
        ego_history=[[x0 - v0 * 0.1 * j, 0.0, 0.0, v0, 0.0, 0.0] for j in range(16, 0, -1)],
        drivable=[Polygon([[-50, -8], [200, -8], [200, 8], [-50, 8]])],
        route=Polyline([[-50.0, 0.0], [200.0, 0.0]]),
        lanes=[Lane(Polyline([[-50.0, 0.0], [200.0, 0.0]]), 1)],
        intersections=[],
        human_trajectory=human,
        command="forward",
    )


def straight(v=10.0):
    t = 0.5 * (np.arange(8) + 1)
    return Trajectory(np.stack([v * t, np.zeros(8), np.zeros(8)], axis=1))


def swerve(dy, v=10.0):
    """Reach a lateral offset of dy by 1 s, hold it afterwards."""
    t = 0.5 * (np.arange(8) + 1)
    y = dy * np.clip(t / 1.0, 0.0, 1.0)
    return Trajectory(np.stack([v * t, y, np.zeros(8)], axis=1))


def rollout(plan, scene):
    return pid_track(trajectory_to_world(plan, scene.ego_init.pose), scene.ego_init)


class TestComfortScores:
    def test_no_previous_frame_all_ones(self):
        ps = ProposalSet((straight(), swerve(3.0)), np.array([0.5, 0.5]))
        out = comfort_scores(SelectionState(), ps, road_scene())
        assert np.array_equal(out, [1.0, 1.0])

    def test_exact_continuation_comfortable(self):
        prev_scene, now_scene = road_scene(0.0), road_scene(5.0)
        state = SelectionState(previous_selected=rollout(straight(), prev_scene))
        ps = ProposalSet((straight(),), np.array([0.9]))
        assert comfort_scores(state, ps, now_scene)[0] == 1.0

    def test_swerving_proposal_uncomfortable(self):
        prev_scene, now_scene = road_scene(0.0), road_scene(5.0)
        state = SelectionState(previous_selected=rollout(straight(), prev_scene))
        ps = ProposalSet((swerve(3.0),), np.array([0.9]))
        assert comfort_scores(state, ps, now_scene)[0] == 0.0


class TestRecalibrate:
    def test_worked_values(self):
        out = recalibrate(np.array([1.0, 0.8]), np.array([1.0, 0.0]))
        assert out[0] == pytest.approx(1.0, abs=1e-12)
        assert out[1] == pytest.approx(0.7, abs=1e-12)

    def test_codomain_and_monotonicity(self):
        rng = np.random.default_rng(40)
        s = rng.uniform(0, 1, 1000)
        c = rng.integers(0, 2, 1000).astype(float)
        out = recalibrate(s, c)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert np.all(recalibrate(s + 0.0001 * (1 - s), c) >= out)
        assert np.all(recalibrate(s, np.ones_like(c)) >= out)

    def test_constant_comfort_preserves_argmax(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            s = rng.uniform(0, 1, 32)
            c = float(rng.integers(0, 2))
            assert np.argmax(recalibrate(s, np.full(32, c))) == np.argmax(s)


class TestSelect:
    def test_single_proposal(self):
        ps = ProposalSet((straight(),), np.array([0.4]))
        idx, winner, recal = select(ps, SelectionState(), road_scene())
        assert idx == 0 and winner is ps.proposals[0]
        assert recal.shape == (1,)

    def test_comfort_flips_close_scores(self):
        prev_scene, now_scene = road_scene(0.0), road_scene(5.0)
        state = SelectionState(previous_selected=rollout(straight(), prev_scene))
        ps = ProposalSet((swerve(3.0), straight()), np.array([0.9, 0.9]))
        idx, _, recal = select(ps, state, now_scene)
        assert idx == 1
        assert recal[0] == pytest.approx(7 * 0.9 / 8, abs=1e-12)
        assert recal[1] == pytest.approx((7 * 0.9 + 1) / 8, abs=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        ps = ProposalSet((straight(), straight()), np.array([0.8, 0.8]))
        idx, _, _ = select(ps, SelectionState(), road_scene())
        assert idx == 0

    def test_empty_proposals_rejected(self):
        with pytest.raises(ValueError):
            ProposalSet((), np.array([]))

    def test_scores_validated(self):
        with pytest.raises(ValueError):
            ProposalSet((straight(),), np.array([1.2]))

    def test_nan_score_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ProposalSet((straight(), straight()), np.array([np.nan, 0.5]))

    def test_one_waypoint_proposal_cannot_be_built(self):
        # a single waypoint cannot be rolled out, so no ProposalSet can be
        # handed one; the loaders name its file and proposals[i]
        with pytest.raises(ValueError, match=r"^plan needs at least 2 waypoints, got 1$"):
            Trajectory([[5.0, 0.0, 0.0]])

    @pytest.mark.parametrize("counts, bad", [
        ((2,), 0),
        ((8, 2), 1),
        ((3, 12, 2, 8), 2),
        ((12, 2, 5, 2), 1),   # the first of two
    ])
    def test_proposal_placed_out_of_range_named(self, counts, bad):
        # in range in the ego frame, beyond 1e9 m once placed at the ego
        # pose; the set mixes waypoint counts, so only the per-proposal
        # offsets find the index
        far = Trajectory([[1e9, 1e9, 0.0], [1e9, 1e9 - 1.0, 0.0]])
        scene = generate_scene(SyntheticSpec("clean_straight", seed=0))
        e = scene.ego_init
        z = np.zeros(41)
        standing = DenseTrajectory(z + e.pose.x, z + e.pose.y, z + e.pose.psi, z + e.v, z, z)
        proposals = tuple(far if m == 2 else Trajectory(straight().poses[np.arange(m) % 8])
                          for m in counts)
        ps = ProposalSet(proposals, np.full(len(counts), 0.5))
        message = f"proposals[{bad}]: trajectory waypoints must be at most 1e+09 in magnitude"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            select(ps, SelectionState(standing), scene)


class TestSelectionState:
    @pytest.mark.parametrize("frame_gap", [1, 5, 40])
    def test_gaps_that_overlap_accepted(self, frame_gap):
        assert SelectionState(frame_gap=frame_gap).frame_gap == frame_gap

    @pytest.mark.parametrize("frame_gap", [-1, 0, 41, 1000])
    def test_gaps_without_overlap_rejected(self, frame_gap):
        with pytest.raises(ValueError, match=rf"^frame_gap must be in \[1, 41\), got {frame_gap}$"):
            SelectionState(frame_gap=frame_gap)

    @pytest.mark.parametrize("frame_gap", [2.5, np.float64(5.0), True, "5"])
    def test_gaps_that_are_not_integers_rejected(self, frame_gap):
        # each used to pass, or fail with a TypeError, and a float then broke comfort_scores' slices
        with pytest.raises(ValueError, match=f"^frame_gap must be an integer, got {re.escape(repr(frame_gap))}$"):
            SelectionState(frame_gap=frame_gap)

    def test_numpy_integer_gap_accepted(self):
        prev_scene, now_scene = road_scene(0.0), road_scene(5.0)
        ps = ProposalSet((straight(), swerve(3.0)), np.array([0.9, 0.9]))
        prev = rollout(straight(), prev_scene)
        got = comfort_scores(SelectionState(prev, np.int64(5)), ps, now_scene)
        assert np.array_equal(got, comfort_scores(SelectionState(prev, 5), ps, now_scene))

    def test_gap_40_compares_only_the_start(self):
        prev = rollout(straight(), road_scene(0.0))
        state = SelectionState(previous_selected=prev, frame_gap=40)
        ps = ProposalSet((straight(), swerve(3.0)), np.array([0.5, 0.5]))
        assert np.array_equal(comfort_scores(state, ps, road_scene(40.0)), [1.0, 1.0])
        assert np.array_equal(comfort_scores(state, ps, road_scene(45.0)), [0.0, 0.0])


class TestTenFrameSequence:
    """A fixed proposal set with one temporally consistent chain: momentum-aware
    selection must achieve at least the EC pass count of plain argmax."""

    def _run(self, momentum: bool):
        proposals = (straight(), swerve(3.0), swerve(-3.0))
        selected_rollouts = []
        state = SelectionState()
        for frame in range(10):
            scene = road_scene(x0=5.0 * frame)
            scores = np.array([0.85, 0.85, 0.85])
            if frame == 0:
                scores[0] = 0.90
            else:
                scores[1 if frame % 2 else 2] = 0.95
            ps = ProposalSet(proposals, scores)
            if momentum:
                idx, winner, _ = select(ps, state, scene)
            else:
                idx = int(np.argmax(scores))
                winner = proposals[idx]
            r = rollout(winner, scene)
            selected_rollouts.append(r)
            state = SelectionState(previous_selected=r)
        passes = sum(
            score_ec(selected_rollouts[i], selected_rollouts[i - 1], frame_gap=5)
            for i in range(1, 10)
        )
        return passes

    def test_momentum_beats_plain_argmax_on_ec(self):
        plain = self._run(momentum=False)
        momentum = self._run(momentum=True)
        assert momentum >= plain
        assert momentum == 9  # locks onto the consistent chain
        assert plain <= 1
