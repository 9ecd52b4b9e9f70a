"""The rollout and scoring layers reproduce their reference paths bit for bit.

The references in oracles.py keep the arithmetic of the per-call paths as
they were before per-scene geometry was precomputed, the PID tick schedule
cached, the lane projections shared between DDC and LK and the comfort
profiles folded into HC, of k-means before its seeding distances were
summed over a transposed copy and its loop-invariant terms hoisted, and of
diversity before every corridor was rasterized on one shared lattice.  The
scene transform keeps its own copy of the rigid frame change, as it had
before it shared geom.to_world with trajectory_to_world.  Every
comparison here is on the bytes of the float64 values, so -0.0 against 0.0
fails too.
"""

import json
import math
import sys
import threading

import numpy as np
import pytest

from trajsim.distill import score_scene_row
from trajsim.geom import (
    Polygon, Polyline, Pose, arc_positions, nearest_segments, segments_intersect_batch, xy_in_polygon,
)
from trajsim.kinematics import EgoState, KinematicsConfig, Trajectory, ego_rollout, pid_track, trajectory_to_world
from trajsim.metrics import ScoreContext, score_ddc, score_lk
from trajsim import metrics, scene_io
from trajsim.scene_io import TEMPLATES, SyntheticSpec, generate_scene, scene_to_doc, transform_scene
from trajsim.seeding import stable_seed
from trajsim.vocabulary import (
    TrajectoryCorpus, Vocabulary, _assign_chunk, _pairwise_row_sum, headings_from_tangents, kmeans,
)

import oracles

FIELDS = ("x", "y", "psi", "v", "a", "steer")
RULES = ("nc", "dac", "ddc", "tlc", "ep", "ttc", "lk", "hc")


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def assert_same_rollout(got, want):
    for f in FIELDS:
        assert bits(getattr(got, f)) == bits(getattr(want, f)), f


@pytest.fixture(scope="module")
def scenes():
    return [generate_scene(SyntheticSpec(t, seed=seed)) for t in TEMPLATES for seed in (3, 11)]


@pytest.fixture(scope="module")
def vocab():
    corpus = TrajectoryCorpus(
        generate_scene(SyntheticSpec(TEMPLATES[j % len(TEMPLATES)], seed=900 + j // len(TEMPLATES))).human_trajectory
        for j in range(192)
    )
    return kmeans(corpus, k=32, seed=5, workers=1)


@pytest.fixture(scope="module")
def centers(vocab):
    return vocab.centers


def test_rollouts_match_oracle(scenes, centers):
    for scene in scenes:
        for plan in (scene.human_trajectory, *centers):
            world = trajectory_to_world(plan, scene.ego_init.pose)
            want_world = oracles.trajectory_to_world(plan, scene.ego_init.pose)
            assert bits(world.poses) == bits(want_world.poses)
            assert_same_rollout(pid_track(world, scene.ego_init), oracles.pid_track(want_world, scene.ego_init))


def test_each_subscore_matches_oracle(scenes, centers):
    for scene in scenes:
        ctx = ScoreContext(scene)
        for center in centers:
            rollout = pid_track(trajectory_to_world(center, scene.ego_init.pose), scene.ego_init, ctx.kin_cfg)
            want = oracles.subscores(rollout, ctx)
            # in the order evaluate_rollout and the row use, so DDC fills the lane memo for LK
            for rule in RULES:
                got = getattr(metrics, f"score_{rule}")(rollout, ctx)
                assert bits(got) == bits(want[rule]), (scene.scene_id, rule)


def test_score_scene_row_matches_oracle(scenes, vocab):
    for scene in scenes:
        assert bits(score_scene_row(scene, vocab)) == bits(oracles.epdms_row(scene, vocab.centers)), scene.scene_id


def test_center_score_does_not_depend_on_its_batch(scenes, vocab):
    # a center scores the same bits alone, in the K=32 vocabulary, in that
    # vocabulary reversed and in a sub-vocabulary
    def batch(centers):
        centers = list(centers)
        return Vocabulary(centers=centers, k=len(centers), seed=vocab.seed, inertia=0.0)

    picked = list(range(1, vocab.k, 3))
    one_per_template = scenes[::2]
    assert sorted(s.scene_id.split("-")[0] for s in one_per_template) == sorted(TEMPLATES)
    for scene in one_per_template:
        full = score_scene_row(scene, vocab)
        alone = [score_scene_row(scene, batch([c]))[0] for c in vocab.centers]
        assert bits(alone) == bits(full), scene.scene_id
        assert bits(score_scene_row(scene, batch(vocab.centers[::-1]))[::-1]) == bits(full), scene.scene_id
        sub = score_scene_row(scene, batch(vocab.centers[i] for i in picked))
        assert bits(sub) == bits(full[picked]), scene.scene_id


def test_headings_that_need_wrapping():
    # frames and plan headings near +-pi, so sums leave (-pi, pi] and the
    # interpolated heading crosses the seam between waypoints
    rng = np.random.default_rng(17)
    for _ in range(200):
        frame = Pose(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.choice([-1, 1]) * rng.uniform(3.0, math.pi))
        m = int(rng.integers(2, 9))
        xy = np.cumsum(rng.uniform(-6, 6, size=(m, 2)), axis=0)
        psi = np.where(rng.random(m) < 0.5, math.pi, -math.pi) - rng.uniform(-0.2, 0.2, size=m)
        plan = Trajectory(np.column_stack([xy, np.vectorize(oracles.wrap_angle)(psi)]))
        world = trajectory_to_world(plan, frame)
        want_world = oracles.trajectory_to_world(plan, frame)
        assert bits(world.poses) == bits(want_world.poses)
        init = EgoState(frame, v=float(rng.uniform(0, 15)), a=float(rng.uniform(-2, 2)), steer=float(rng.uniform(-0.3, 0.3)))
        assert_same_rollout(pid_track(world, init), oracles.pid_track(want_world, init))


def test_ego_rollout_is_the_world_frame_rollout(scenes, centers):
    slow_steer = KinematicsConfig(steer_max=0.3, kp_lat=1.0)
    for scene in scenes:
        init = scene.ego_init
        for plan in (scene.human_trajectory, *centers[:8]):
            want = oracles.pid_track(oracles.trajectory_to_world(plan, init.pose), init)
            assert_same_rollout(ego_rollout(plan, init), want)
            assert_same_rollout(ego_rollout(plan, init, slow_steer),
                                pid_track(trajectory_to_world(plan, init.pose), init, slow_steer))


def doc_json(scene) -> str:
    # float repr round-trips, so equal text means equal bits (and -0.0 shows)
    return json.dumps(scene_to_doc(scene))


def oracle_generate_scene(spec):
    """generate_scene with the scene placed by the oracle transform."""
    rng = np.random.default_rng(stable_seed("trajsim-scene", spec.template, spec.seed))
    params = scene_io._draw_params(spec, rng)
    scene = scene_io._BUILDERS[spec.template](f"{spec.template}-{spec.seed:05d}", params)
    world = Pose(rng.uniform(-200.0, 200.0), rng.uniform(-200.0, 200.0), rng.uniform(-math.pi, math.pi))
    return oracles.transform_scene(scene, world)


@pytest.mark.parametrize("template", TEMPLATES)
def test_generated_scenes_match_oracle(template):
    for seed in range(8):
        spec = SyntheticSpec(template, seed=seed)
        assert doc_json(generate_scene(spec)) == doc_json(oracle_generate_scene(spec)), seed


def test_transform_scene_matches_oracle_when_headings_wrap(scenes):
    # scenes turned until the ego heads at +-3 rad, then by nearly pi the
    # same way round, so the heading sums leave (-pi, pi]
    rng = np.random.default_rng(29)
    for scene in scenes:
        for _ in range(4):
            sign = rng.choice([-1, 1])
            base = oracles.transform_scene(scene, Pose(0.0, 0.0, sign * 3.0 - scene.ego_init.pose.psi))
            frame = Pose(rng.uniform(-300, 300), rng.uniform(-300, 300), sign * rng.uniform(3.0, math.pi))
            assert abs(base.ego_init.pose.psi + frame.psi) > math.pi
            got, want = transform_scene(base, frame), oracles.transform_scene(base, frame)
            assert doc_json(got) == doc_json(want), (scene.scene_id, frame)
            for a, b in zip(got.agents, want.agents):
                assert bits(a.poses) == bits(b.poses)
            assert all(-math.pi < st.pose.psi <= math.pi for st in got.ego_history)


def test_points_on_polygon_edges_match_oracle():
    rng = np.random.default_rng(23)
    polys = [
        [[0, 0], [4, 0], [4, 3], [0, 3]],                    # horizontal and vertical edges
        [[0, 0], [5, 1], [3, 4], [1, 3.5], [-1, 2]],          # slanted, given CCW
        [[0, 0], [0, 2], [1, 1], [2, 2], [2, 0]],             # concave, given CW
    ]
    for verts in polys:
        poly = Polygon(verts)
        v, nxt = poly.vertices, np.roll(poly.vertices, -1, axis=0)
        w = rng.uniform(0, 1, size=(40, 1))
        on_edges = np.concatenate([v, v + w[: len(v)] * (nxt - v), 0.5 * (v + nxt)])
        inner = v.mean(axis=0) + rng.uniform(-0.05, 0.05, size=(30, 2))
        around = rng.uniform(v.min(axis=0) - 1, v.max(axis=0) + 1, size=(200, 2))
        for pts in (on_edges, inner, around, np.concatenate([inner, on_edges])):
            got = xy_in_polygon(pts[:, 0], pts[:, 1], poly)
            assert bits(got.astype(float)) == bits(oracles.points_in_polygon(pts, poly.vertices).astype(float))
        assert xy_in_polygon(on_edges[:, 0], on_edges[:, 1], poly).all()


def test_segment_intersections_match_oracle():
    # end points on a small integer grid, so collinear triples and touching
    # or overlapping segments are common
    rng = np.random.default_rng(31)
    p1, p2 = rng.integers(0, 4, size=(2, 60, 1, 2)).astype(float)
    q1, q2 = rng.integers(0, 4, size=(2, 1, 60, 2)).astype(float)
    got = segments_intersect_batch(p1, p2, q1, q2)
    want = oracles.segments_intersect_batch(p1, p2, q1, q2)
    assert np.array_equal(got, want) and want.any() and not want.all()
    # and in general position, where no orientation is exactly zero
    p1, p2 = rng.uniform(0, 4, size=(2, 60, 1, 2))
    q1, q2 = rng.uniform(0, 4, size=(2, 1, 60, 2))
    assert np.array_equal(segments_intersect_batch(p1, p2, q1, q2), oracles.segments_intersect_batch(p1, p2, q1, q2))


def test_project_many_matches_oracle():
    rng = np.random.default_rng(29)
    for _ in range(50):
        pts = np.cumsum(rng.uniform(0.5, 4.0, size=(int(rng.integers(2, 8)), 2)) * rng.choice([-1, 1], size=2), axis=0)
        line = Polyline(pts)
        queries = np.concatenate([pts, rng.uniform(pts.min() - 5, pts.max() + 5, size=(60, 2))])
        s, _, dist, seg = oracles.project_many(pts, queries)
        got_dist, got_seg = nearest_segments(line, queries[:, 0], queries[:, 1])
        assert bits(arc_positions(line, queries[:, 0], queries[:, 1])) == bits(s)
        assert bits(got_dist) == bits(dist) and np.array_equal(got_seg, seg)


def _distinct_pair(scene, rule, centers):
    """Two rollouts of `scene` whose `rule` subscores differ."""
    plans = [scene.human_trajectory, *centers]
    rollouts = [pid_track(trajectory_to_world(p, scene.ego_init.pose), scene.ego_init) for p in plans]
    values = [getattr(metrics, f"score_{rule}")(r, ScoreContext(scene)) for r in rollouts]
    first = values[0]
    other = next(i for i, val in enumerate(values) if val != first)
    return rollouts[0], rollouts[other]


@pytest.mark.parametrize("template, first, then", [
    ("lane_drift", score_ddc, score_lk),
    ("oncoming_lane", score_lk, score_ddc),
])
def test_lane_memo_never_serves_another_rollout(template, first, then, centers):
    scene = generate_scene(SyntheticSpec(template, seed=4))
    name = then.__name__.removeprefix("score_")
    a, b = _distinct_pair(scene, name, centers)
    ctx = ScoreContext(scene)
    first(a, ctx)
    assert bits(then(b, ctx)) == bits(then(b, ScoreContext(scene)))
    first(b, ctx)
    assert bits(then(a, ctx)) == bits(then(a, ScoreContext(scene)))


def test_shared_context_across_threads(centers):
    """Threads sharing one context and interleaving DDC and LK on different
    rollouts get the single-threaded scores."""
    scene = generate_scene(SyntheticSpec("oncoming_lane", seed=4))
    rollouts = [pid_track(trajectory_to_world(c, scene.ego_init.pose), scene.ego_init) for c in centers]
    want = [(score_ddc(r, ScoreContext(scene)), score_lk(r, ScoreContext(scene))) for r in rollouts]
    ctx = ScoreContext(scene)
    wrong = []

    def work(offset):
        for rep in range(20):
            for i in range(len(rollouts)):
                j = (i + offset + rep) % len(rollouts)
                if (score_ddc(rollouts[j], ctx), score_lk(rollouts[j], ctx)) != want[j]:
                    wrong.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_pairwise_row_sum_is_numpys_row_sum_order():
    # widths below 8, the 8-128 block with every remainder, and the halving
    # above 128; columns of very different scales, so any other order of
    # the additions changes some bits
    rng = np.random.default_rng(41)
    for width in range(1, 301):
        a = rng.normal(size=(97, width)) * rng.uniform(1e-3, 1e3, size=width)
        want = np.sum(a, axis=1)
        assert bits(_pairwise_row_sum(np.ascontiguousarray(a.T))) == bits(want), width
        assert bits(_pairwise_row_sum(np.ascontiguousarray((a * a).T))) == bits(np.sum(a * a, axis=1)), width


def test_assign_chunk_matches_oracle_at_near_ties():
    # points on the bisector between two centers, where the last bit of each
    # distance, and so the order of its three terms, decides the label
    rng = np.random.default_rng(47)
    centers = rng.normal(size=(6, 16)) * 10
    pair = rng.integers(0, 5, size=4096)
    u = centers[pair + 1] - centers[pair]
    v = rng.normal(size=(4096, 16))
    v -= (np.sum(v * u, axis=1) / np.sum(u * u, axis=1))[:, None] * u
    x = (centers[pair] + centers[pair + 1]) / 2 + 0.1 * v
    cc = np.sum(centers * centers, axis=1)
    got = _assign_chunk(x, np.sum(x * x, axis=1), 2.0 * x, centers, cc, 6, np.empty((4096, 6)))
    want = oracles.assign_chunk(x, centers, 6)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[2], want[2])
    assert bits(got[1]) == bits(want[1]) and bits(got[3]) == bits(want[3]) and bits(got[4]) == bits(want[4])


def _corpus(xy):
    """Trajectories with the (N, M, 2) waypoints xy."""
    return TrajectoryCorpus(Trajectory(np.column_stack([w, headings_from_tangents(w)])) for w in xy)


def _assert_kmeans_matches_oracle(xy, k, seed, max_iters=6):
    """kmeans with 1 and 2 workers gives the oracle's centers and inertia
    history bit for bit; returns the oracle's count of repaired clusters."""
    want_centers, want_history, repaired = oracles.kmeans(xy.reshape(len(xy), -1), k, max_iters, seed)
    corpus = _corpus(xy)
    for workers in (1, 2):
        got = kmeans(corpus, k=k, max_iters=max_iters, seed=seed, workers=workers)
        assert bits(got.embeddings()) == bits(want_centers), (k, seed, workers)
        assert bits(got.inertia_history) == bits(want_history), (k, seed, workers)
    return repaired


@pytest.mark.parametrize("m, k, seed", [
    (1, 12, 0), (3, 256, 1), (8, 1, 2), (8, 12, 3), (8, 256, 23), (70, 12, 4), (70, 256, 5),
])
def test_kmeans_matches_oracle(m, k, seed):
    # 2M = 2, 6, 16 and 140 embedding widths cover each branch of the
    # pairwise row sum; 5000 points make two assignment chunks
    rng = np.random.default_rng(100 + seed)
    xy = np.cumsum(rng.normal(size=(5000, m, 2)) * rng.uniform(0.2, 5.0, size=(5000, 1, 1)), axis=1)
    _assert_kmeans_matches_oracle(xy, k, seed)


def test_kmeans_with_empty_cluster_repair_matches_oracle():
    # 300 distinct trajectories, 20 copies each: past 300 centers every
    # remaining distance is 0, later centers land on existing ones and their
    # clusters empty out
    rng = np.random.default_rng(43)
    xy = np.repeat(np.cumsum(rng.normal(size=(300, 8, 2)), axis=1), 20, axis=0)
    assert _assert_kmeans_matches_oracle(xy, k=320, seed=6) > 0


def test_kmeans_on_identical_trajectories_matches_oracle():
    # every distance is 0 from the first center on, the total <= 0 draw
    xy = np.tile(np.cumsum(np.full((8, 2), 1.5), axis=0), (40, 1, 1))
    assert _assert_kmeans_matches_oracle(xy, k=5, seed=7) > 0


def _proposal_set(rng):
    """1-12 proposals of 1-8 waypoints, spanning 1-50 m (2% of sets 50-300
    m) about an origin up to 500 m away; a fifth of the sets has every
    waypoint on the 0.25 m lattice."""
    origin = rng.uniform(-500.0, 500.0, size=2)
    span = rng.uniform(50.0, 300.0) if rng.random() < 0.02 else math.exp(rng.uniform(0.0, math.log(50.0)))
    heading = rng.uniform(-math.pi, math.pi) if rng.random() < 0.05 else rng.normal(0.0, 0.05)
    on_lattice = rng.random() < 0.2
    proposals = []
    for _ in range(rng.integers(1, 13)):
        m = int(rng.integers(1, 9))
        psi = heading + np.cumsum(rng.normal(0.0, 0.05, size=m))
        xy = origin + np.cumsum(span / max(m - 1, 1) * np.column_stack([np.cos(psi), np.sin(psi)]), axis=0)
        if on_lattice:
            xy = np.round(xy * 4.0) / 4.0
        proposals.append(Trajectory(np.column_stack([xy, np.zeros(m)])))
    return proposals


def test_diversity_matches_per_grid_oracle():
    # one shared lattice against a grid per corridor resampled onto the union
    rng = np.random.default_rng(59)
    for trial in range(1000):
        proposals = _proposal_set(rng)
        assert metrics.diversity(proposals).hex() == oracles.diversity(proposals, 0.25).hex(), trial
