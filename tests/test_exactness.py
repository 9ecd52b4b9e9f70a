"""The rollout and scoring layers reproduce their reference paths bit for bit.

The references in oracles.py keep the arithmetic of the per-call paths as
they were before per-scene geometry was precomputed, the PID tick schedule
cached, the lane projections shared between DDC and LK, the comfort
profiles folded into HC, and each rollout's heading terms, box corners and
lane projections computed once for all rules (NC and TTC with their own
trig and SAT over broadcast arrays, TLC with four orientation determinants
per segment pair, HC with numpy's unwrap).  They keep k-means as it was
before its seeding distances were summed over a transposed copy and its
loop-invariant terms hoisted, diversity before every corridor was
rasterized on one shared lattice, and extended comfort over whole arrays
and selection comfort over full rollouts, before either stopped at the
first tick that breaks a tolerance (or EC screened its position test by
the squared error), and the PID with every interval's node terms built
before its first step.  The rigid frame change keeps its
per-coordinate form (``oracles._compose``), as the scene transform had it
before scenes, plans and render's boxes all placed their rows through one
geom.to_world, and the templates build a canonical scene that the oracle
transform places, as the generator did before each scene was built once.
Besides the generated scenes, a hand-built scene checks the rules on
geometry the generator never makes: multi-segment and curved lanes, five
agents, a concave drivable area with a second polygon, and two
intersections.  Every comparison here is on the bytes of the
float64 values, so -0.0 against 0.0 fails too.
"""

import dataclasses
import itertools
import json
import math
import re
import sys
import threading

import numpy as np
import pytest

from trajsim.distill import score_scene_row
from trajsim.geom import (
    Polygon, Polyline, Pose, _ring_meets_polygon, arc_positions, to_world, xy_in_polygon,
)
from trajsim.kinematics import (
    DENSE_TICKS, DenseTrajectory, EgoState, KinematicsConfig, Trajectory, ego_rollout, pid_track, trajectory_to_world,
)
from trajsim.metrics import (
    PHASE_RED, Intersection, Lane, MetricConfig, ScoreContext,
    score_dac, score_ddc, score_ec, score_lk, score_nc, score_tlc, score_ttc,
)
from trajsim.selection import ProposalSet, SelectionState, comfort_scores, select
from trajsim import metrics, scene_io, vocabulary
from trajsim.scene_io import TEMPLATES, SyntheticSpec, generate_scene, scene_to_doc, stable_seed, transform_scene
from trajsim.vocabulary import (
    TrajectoryCorpus, Vocabulary, _assign_chunk, _draw, _kmeans_pp, _nearest_rows, _nearest_two, _pairwise_row_sum,
    export_vocabulary_csv, headings_from_tangents, kmeans,
)

import oracles
from scenes import rich_scene

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


def _with_length(plan, m):
    """`plan` cut to its first m waypoints, or continued to m by repeating
    its last step (heading held), as an ego-frame Trajectory."""
    p = plan.poses
    if m <= len(p):
        return Trajectory(p[:m])
    extra = p[-1] + np.outer(np.arange(1, m - len(p) + 1), np.append(p[-1, :2] - p[-2, :2], 0.0))
    return Trajectory(np.concatenate([p, extra]))


def test_rollouts_match_oracle(scenes, centers):
    # plans of 2, 3 and 5 waypoints end before the 40 steps do, so the
    # steps past their last node track it; 8 and 12 never reach theirs
    lengths = [_with_length(centers[i], m) for i, m in enumerate((2, 3, 5, 8, 12) * 3)]
    for scene in scenes:
        for plan in (scene.human_trajectory, *centers, *lengths):
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


@pytest.fixture(scope="module")
def rich_scenes():
    return [rich_scene(seed) for seed in (1, 2)]


def test_each_subscore_matches_oracle_on_rich_geometry(rich_scenes, centers):
    for scene in rich_scenes:
        ctx = ScoreContext(scene)
        seen = {rule: set() for rule in RULES}
        for plan in (scene.human_trajectory, *centers):
            rollout = ego_rollout(plan, scene.ego_init)
            want = oracles.subscores(rollout, ctx)
            for rule in RULES:
                got = getattr(metrics, f"score_{rule}")(rollout, ctx)
                assert bits(got) == bits(want[rule]), (scene.scene_id, rule)
                seen[rule].add(got)
        # every rule takes more than one value, so each path was compared
        assert all(len(values) > 1 for values in seen.values()), (scene.scene_id, seen)


def test_unwrap_is_numpys_unwrap():
    # steps of exactly +-pi (numpy maps +pi to +pi, not -pi), steps just
    # below and above it, several turns, signed zeros and random walks
    rng = np.random.default_rng(53)
    steps = [math.pi, -math.pi, np.nextafter(math.pi, 0), np.nextafter(math.pi, 4), 2 * math.pi, -0.0, 0.0, 0.5]
    cases = [np.array([0.0, math.pi, 0.0, -math.pi, -0.0, 2 * math.pi, 0.0])]
    cases += [np.cumsum(rng.choice(steps, size=int(rng.integers(2, 60)))) for _ in range(500)]
    cases += [rng.uniform(-math.pi, math.pi, size=56) for _ in range(100)]
    for p in cases:
        assert bits(metrics._unwrap(p)) == bits(np.unwrap(p)), p


def test_box_polygon_contacts_match_oracle():
    # boxes and polygons on a 0.5 m lattice, axis aligned: corners on edges,
    # collinear edges and touching end points are common
    rng = np.random.default_rng(37)
    hl, hw = 2.0, 1.0
    polys = [[[0, 0], [6, 0], [6, 4], [0, 4]], [[0, 0], [8, 0], [8, 6], [4, 2], [0, 6]]]
    contacts = 0
    for verts in polys:
        inter = Intersection(Polygon(verts), "x", np.full(DENSE_TICKS, PHASE_RED))
        scene = generate_scene(SyntheticSpec("red_light", seed=1))
        scene = dataclasses.replace(scene, intersections=[inter], ego_half_length=hl, ego_half_width=hw)
        ctx = ScoreContext(scene)
        for _ in range(40):
            x = rng.integers(-12, 28, size=DENSE_TICKS) / 2
            y = rng.integers(-6, 18, size=DENSE_TICKS) / 2
            psi = np.full(DENSE_TICKS, rng.choice([0.0, math.pi / 2]))
            d = DenseTrajectory(x, y, psi, np.zeros(DENSE_TICKS), np.zeros(DENSE_TICKS), np.zeros(DENSE_TICKS))
            sh = metrics._shared(d, ctx)
            got = metrics._box_in_polygon_per_tick(sh, ctx, sh.in_intersections[0][:4], scene.intersections[0].polygon)
            want = oracles._box_in_polygon_per_tick(d, hl, hw, scene.intersections[0].polygon.vertices)
            assert np.array_equal(got, want)
            assert bits(score_tlc(d, ctx)) == bits(oracles.score_tlc(d, scene))
            contacts += int(got.sum())
    assert contacts > 0


def test_score_scene_row_matches_oracle(scenes, vocab):
    for scene in scenes:
        assert bits(score_scene_row(scene, vocab)) == bits(oracles.epdms_row(scene, vocab.centers)), scene.scene_id


def test_center_score_does_not_depend_on_its_batch(scenes, vocab):
    # a center scores the same bits alone, in the K=32 vocabulary, in that
    # vocabulary reversed and in a sub-vocabulary
    def batch(centers):
        return Vocabulary(np.stack([c.poses for c in centers]), seed=vocab.seed, inertia=0.0)

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
        # the placement itself, on point rows and on state rows with extra columns
        for rows in (xy, np.column_stack([xy, psi, rng.uniform(-20, 20, size=(m, 3))])):
            before = rows.copy()
            got = to_world(frame, rows)
            want = oracles._compose(frame, *rows[:, :3].T)
            assert bits(got[:, 0]) == bits(want[0]) and bits(got[:, 1]) == bits(want[1])
            if rows.shape[1] > 2:
                assert bits(got[:, 2]) == bits(np.vectorize(oracles.wrap_angle)(want[2]))
                assert bits(got[:, 3:]) == bits(rows[:, 3:])
            assert bits(rows) == bits(before)


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
    """generate_scene as it was: the template's canonical scene built, then
    placed by the oracle transform."""
    rng = np.random.default_rng(stable_seed("trajsim-scene", spec.template, spec.seed))
    params = scene_io._draw_params(spec, rng)
    scene = oracles.BUILDERS[spec.template](f"{spec.template}-{spec.seed:05d}", params)
    world = Pose(rng.uniform(-200.0, 200.0), rng.uniform(-200.0, 200.0), rng.uniform(-math.pi, math.pi))
    return oracles.transform_scene(scene, world)


def pinned_specs(template):
    """One spec for each corner of the template's parameter box: every
    parameter pinned at one end of its documented range."""
    ranges, _ = scene_io._TEMPLATES[template]
    for i, ends in enumerate(itertools.product(*ranges.values())):
        yield SyntheticSpec(template, seed=i, params=dict(zip(ranges, ends)))


@pytest.mark.parametrize("template", TEMPLATES)
def test_generated_scenes_match_oracle(template):
    specs = [SyntheticSpec(template, seed=seed) for seed in range(100)] + list(pinned_specs(template))
    for spec in specs:
        assert doc_json(generate_scene(spec)) == doc_json(oracle_generate_scene(spec)), spec


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
            assert (np.abs(base.ego_history[:, 2] + frame.psi) > math.pi).all()
            got, want = transform_scene(base, frame), oracles.transform_scene(base, frame)
            assert doc_json(got) == doc_json(want), (scene.scene_id, frame)
            assert bits(got.ego_history) == bits(want.ego_history)
            assert bits(got.agent_states) == bits(want.agent_states)
            psi = got.ego_history[:, 2]
            assert ((-math.pi < psi) & (psi <= math.pi)).all()


def test_polyline_arc_lengths_match_norm():
    # Polyline's sqrt(dx^2 + dy^2) segment lengths against np.linalg.norm's
    rng = np.random.default_rng(41)
    for n in (2, 3, 11, 200):
        for scale in (1e-3, 1.0, 1e3, 1e6):
            points = rng.normal(size=(n, 2)) * scale
            want = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(points, axis=0), axis=1))])
            assert bits(Polyline(points)._cum) == bits(want), (n, scale)


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
    # a ring of points (edge i runs to point nxt[i]) against polygon edges:
    # on a small integer grid, where collinear triples and touching or
    # overlapping segments are common, and in general position, where no
    # orientation is exactly zero
    rng = np.random.default_rng(31)
    met = pairs = 0
    for grid in (True, False):
        for _ in range(40):
            n = int(rng.integers(3, 60))
            pts = rng.integers(0, 4, size=(n, 2)).astype(float) if grid else rng.uniform(0, 4, size=(n, 2))
            nxt = rng.permutation(n)
            poly = Polygon([[0, 0], [3, 0], [3, 3], [1, 1], [0, 3]] if grid else rng.uniform(0, 4, size=(5, 2)))
            got = _ring_meets_polygon(pts[:, 0], pts[:, 1], nxt, poly)
            v = poly.vertices
            want = oracles.segments_intersect_batch(pts[None], pts[nxt][None], v[:, None], np.roll(v, -1, axis=0)[:, None])
            assert np.array_equal(got, want)
            met, pairs = met + int(want.sum()), pairs + want.size
    assert 0 < met < pairs


def _lane_segments_chosen(ctx, d):
    """The closest segment of each lane per tick, (L, 41), as the lane memo
    chooses it, read back one bit at a time: with the heading along +x and
    every segment's tangent set to +x or -x by one bit of its index within
    its lane, ``aligned`` is that bit of the chosen segment."""
    tangents = ctx.lane_dir_x, ctx.lane_dir_y
    local = np.concatenate([np.arange(hi - lo) for lo, hi in ctx.lane_slices])
    chosen = np.zeros((len(ctx.lane_slices), DENSE_TICKS), dtype=np.intp)
    try:
        ctx.lane_dir_y = np.zeros(len(local))
        for b in range(int(local.max()).bit_length()):
            ctx.lane_dir_x = np.where(local >> b & 1, 1.0, -1.0)
            ctx._memo = None
            chosen |= metrics._shared(d, ctx).lanes[1].astype(np.intp) << b
    finally:
        ctx.lane_dir_x, ctx.lane_dir_y = tangents
        ctx._memo = None
    return chosen


def test_project_many_matches_oracle():
    # three random polylines per scene as its lanes, so the stacked
    # projection and each lane's slice of it are used; the queries include
    # every vertex, where two segments of a lane are equally close
    rng = np.random.default_rng(29)
    base = generate_scene(SyntheticSpec("lane_drift", seed=1))
    for _ in range(30):
        lines = [
            np.cumsum(rng.uniform(0.5, 4.0, size=(int(rng.integers(2, 8)), 2)) * rng.choice([-1, 1], size=2), axis=0)
            for _ in range(3)
        ]
        vertices = np.concatenate(lines)
        lo, hi = vertices.min() - 5, vertices.max() + 5
        queries = np.concatenate([vertices, rng.uniform(lo, hi, size=(2 * DENSE_TICKS - len(vertices), 2))])
        scene = dataclasses.replace(base, lanes=[Lane(Polyline(p), 1) for p in lines], intersections=[])
        ctx = ScoreContext(scene)
        for q in (queries[:DENSE_TICKS], queries[DENSE_TICKS:]):
            d = DenseTrajectory(q[:, 0], q[:, 1], np.zeros(DENSE_TICKS), *np.zeros((3, DENSE_TICKS)))
            dists = metrics._shared(d, ctx).lanes[0]
            chosen = _lane_segments_chosen(ctx, d)
            for i, pts in enumerate(lines):
                s, _, dist, seg = oracles.project_many(pts, q)
                assert bits(arc_positions(Polyline(pts), q[:, 0], q[:, 1])) == bits(s)
                assert bits(dists[i]) == bits(dist) and np.array_equal(chosen[i], seg)


def _distinct_pair(scene, rule, centers):
    """Two rollouts of `scene` whose `rule` subscores differ."""
    plans = [scene.human_trajectory, *centers]
    rollouts = [pid_track(trajectory_to_world(p, scene.ego_init.pose), scene.ego_init) for p in plans]
    values = [getattr(metrics, f"score_{rule}")(r, ScoreContext(scene)) for r in rollouts]
    first = values[0]
    other = next(i for i, val in enumerate(values) if val != first)
    return rollouts[0], rollouts[other]


# every rule that reads the per-rollout memo (NC, DAC, TLC, TTC its heading
# terms and corners, DDC and LK its lane geometry), each after another one
MEMO_READERS = (score_nc, score_dac, score_ddc, score_tlc, score_ttc, score_lk)


@pytest.mark.parametrize("template, first, then", [
    ("lane_drift", score_ddc, score_lk),
    ("oncoming_lane", score_lk, score_ddc),
    *(("rich", first, then) for first, then in zip(MEMO_READERS, MEMO_READERS[1:] + MEMO_READERS[:1])),
    ("rich", score_tlc, score_dac),
    ("rich", score_ttc, score_nc),
])
def test_lane_memo_never_serves_another_rollout(template, first, then, centers):
    scene = rich_scene(1) if template == "rich" else generate_scene(SyntheticSpec(template, seed=4))
    name = then.__name__.removeprefix("score_")
    a, b = _distinct_pair(scene, name, centers)
    ctx = ScoreContext(scene)
    first(a, ctx)
    assert bits(then(b, ctx)) == bits(then(b, ScoreContext(scene)))
    first(b, ctx)
    assert bits(then(a, ctx)) == bits(then(a, ScoreContext(scene)))


def test_shared_context_across_threads(centers):
    """Threads sharing one context and interleaving the memo readers on
    different rollouts, each thread in its own rule order, get the
    single-threaded scores."""
    scene = rich_scene(2)
    rollouts = [pid_track(trajectory_to_world(c, scene.ego_init.pose), scene.ego_init) for c in centers]
    want = [tuple(rule(r, ScoreContext(scene)) for rule in MEMO_READERS) for r in rollouts]
    assert all(len({w[k] for w in want}) > 1 for k in range(len(MEMO_READERS)))
    ctx = ScoreContext(scene)
    wrong = []

    def work(offset):
        order = MEMO_READERS[offset:] + MEMO_READERS[:offset]
        for rep in range(20):
            for i in range(len(rollouts)):
                j = (i + offset + rep) % len(rollouts)
                got = {rule: rule(rollouts[j], ctx) for rule in order}
                if tuple(got[rule] for rule in MEMO_READERS) != want[j]:
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


def _assert_complete(obj):
    """Every slot of obj is set, and a slot holds None only where its class
    docstring has a sentence (or clause) that names it together with None."""
    clauses = re.split(r"(?<=[.;])\s+", " ".join(type(obj).__doc__.split()))
    for slot in type(obj).__slots__:
        assert hasattr(obj, slot), slot
        if getattr(obj, slot) is None:
            assert any(f"``{slot}``" in c and "None" in c for c in clauses), slot


@pytest.mark.parametrize("bare", [False, True], ids=["rich", "no_lanes_agents_or_intersections"])
def test_scoring_objects_complete_when_built(bare, centers):
    scene = rich_scene(1)
    if bare:
        scene = dataclasses.replace(scene, lanes=[], intersections=[], agent_ids=(), agent_states=(),
                                    agent_half_lengths=(), agent_half_widths=())
    ctx = ScoreContext(scene)
    _assert_complete(ctx)
    d = pid_track(trajectory_to_world(centers[0], scene.ego_init.pose), scene.ego_init)
    sh = metrics._Shared(d, ctx)
    _assert_complete(sh)
    assert (sh.lanes is None, len(sh.in_intersections)) == ((True, 0) if bare else (False, 2))
    # a record: nothing is computed after its constructor
    assert [name for name, value in vars(metrics._Shared).items() if callable(value)] == ["__init__"]


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


def _chunk(x):
    """kmeans' per-chunk tuple for the points x, with room for their bounds."""
    xx = np.sum(x * x, axis=1)
    mx = np.sqrt(2.0 * (x.shape[1] + 8) * 2.0**-48) * np.sqrt(xx)
    n = len(x)
    return (np.ascontiguousarray(x.T), xx, x, mx, np.zeros(n, dtype=np.intp), np.empty(n), np.empty(n))


def _bisector_points(rng, centers, n):
    """n points near the bisectors of consecutive centers, where the last bit
    of each distance, and so the order of its three terms, decides the label."""
    pair = rng.integers(0, len(centers) - 1, size=n)
    u = centers[pair + 1] - centers[pair]
    v = rng.normal(size=(n, centers.shape[1]))
    v -= (np.sum(v * u, axis=1) / np.sum(u * u, axis=1))[:, None] * u
    return (centers[pair] + centers[pair + 1]) / 2 + 0.1 * v


def test_assign_chunk_matches_oracle_at_near_ties():
    rng = np.random.default_rng(47)
    centers = rng.normal(size=(6, 16)) * 10
    x = _bisector_points(rng, centers, 4096)
    chunk = _chunk(x)
    cc = np.sum(centers * centers, axis=1)
    got = _assign_chunk(chunk, centers, np.ascontiguousarray(centers.T), cc, None, 0.0, 0.0, 0.0, np.empty(4096 * 22))
    want = oracles.assign_chunk(x, centers, 6)
    assert np.array_equal(chunk[4], want[0]) and np.array_equal(got[1], want[2])
    assert bits(got[0]) == bits(want[1]) and bits(got[2]) == bits(want[3]) and bits(got[3]) == bits(want[4])


@pytest.mark.parametrize("k", [6, 37, 256])
def test_nearest_rows_give_the_whole_chunks_labels(k):
    # any sorted subset of a chunk's rows, in blocks of any size, gets the
    # labels the whole chunk's product gives; the second-least distance is
    # the whole product's within the rounding the margin covers
    rng = np.random.default_rng([53, k])
    centers = rng.normal(size=(k, 140)) * 10
    x = _bisector_points(rng, centers, 1500)
    _, xx, _, mx = _chunk(x)[:4]
    cc = np.sum(centers * centers, axis=1)
    c2 = centers + centers
    want_labels, want_second, _ = _nearest_two(x, xx, c2, cc, np.empty((1500, k)))
    margin = mx + np.sqrt(2.0 * 148 * 2.0**-48) * np.sqrt(cc.max())
    for block in (1, 2, 5, 100, 1499):
        rows = np.flatnonzero(rng.random(1500) < 0.3)
        labels, second = _nearest_rows(rows, x, xx, c2, cc, margin[rows], np.empty(block * (k + 140)))
        assert np.array_equal(labels, want_labels[rows]), block
        assert np.all(np.abs(second - want_second[rows]) <= margin[rows] ** 2), block


def _corpus(xy):
    """Trajectories with the (N, M, 2) waypoints xy."""
    return TrajectoryCorpus(Trajectory(np.column_stack([w, headings_from_tangents(w)])) for w in xy)


def _assert_kmeans_matches_oracle(xy, k, seed, max_iters=6):
    """kmeans gives the oracle's centers and inertia history bit for bit;
    returns the oracle's count of repaired clusters."""
    want_centers, want_history, repaired = oracles.kmeans(xy.reshape(len(xy), -1), k, max_iters, seed)
    got = kmeans(_corpus(xy), k=k, max_iters=max_iters, seed=seed)
    assert bits(got.poses[:, :, :2].reshape(got.k, -1)) == bits(want_centers), (k, seed)
    assert bits(got.inertia_history) == bits(want_history), (k, seed)
    return repaired


@pytest.mark.parametrize("m, k, seed", [
    (2, 12, 0), (3, 256, 1), (8, 1, 2), (8, 12, 3), (8, 256, 23), (70, 12, 4), (70, 256, 5),
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


def _lloyd_corpus(kind, rng):
    """(N, M, 2) waypoints and the K to cluster them into."""
    if kind == "duplicates":  # 40 trajectories, 25 copies each: more centers than distinct points
        return np.repeat(np.cumsum(rng.normal(size=(40, 8, 2)), axis=1), 25, axis=0), 60
    if kind == "repair_ties":
        # 6 integer trajectories, 4 interleaved copies each, and 7 centers:
        # the seventh lands on a copy of another trajectory than point 0's,
        # its cluster empties, and the repair moves point 0 there.  Its
        # donor's center then has point 0's bits, a tie the whole row breaks
        # to the lower index, which bounds kept from the old label would skip
        return np.tile(rng.integers(-50, 51, size=(6, 8, 2)).astype(float), (4, 1, 1)), 7
    if kind == "collinear_exact":
        # integer multiples of one integer direction: a center is the mean of
        # a run of them, and many points lie exactly midway between two
        return np.arange(1, 801)[:, None, None] * rng.integers(-3, 4, size=(1, 8, 2)).astype(float), 40
    if kind == "collinear_rounded":  # the same with a direction whose products round
        return np.arange(1, 801)[:, None, None] * rng.normal(size=(1, 8, 2)), 40
    if kind == "huge":  # 1e8 coordinates: the expanded distances round to noise
        return 1e8 + np.cumsum(rng.normal(size=(600, 8, 2)), axis=1), 30
    if kind == "k1":
        return np.cumsum(rng.normal(size=(300, 8, 2)), axis=1), 1
    if kind == "k2":
        return np.cumsum(rng.normal(size=(300, 8, 2)), axis=1), 2
    return np.cumsum(rng.normal(size=(80, 8, 2)), axis=1), 80  # K = N


LLOYD_CORPORA = ["duplicates", "repair_ties", "collinear_exact", "collinear_rounded", "huge", "k1", "k2", "k_equals_n"]


@pytest.mark.parametrize("kind", LLOYD_CORPORA)
def test_pruned_lloyd_matches_oracle(kind):
    # the Lloyd passes that skip rows the bounds settle give the centers and
    # inertia of passes that assign every row
    xy, k = _lloyd_corpus(kind, np.random.default_rng([73, LLOYD_CORPORA.index(kind)]))
    _assert_kmeans_matches_oracle(xy, k, seed=3, max_iters=12)


class _PerturbedProducts:
    """numpy, except that a matrix product of fewer than `rows` rows moves
    each result one ulp up or down at random: another BLAS's rounding."""

    def __init__(self, rows, rng):
        self.rows = rows
        self.rng = rng

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, out):
        np.matmul(a, b, out=out)
        if out.ndim == 2 and len(out) < self.rows:
            np.nextafter(out, np.where(self.rng.random(out.shape) < 0.5, -np.inf, np.inf), out=out)
        return out


@pytest.mark.parametrize("kind", ["duplicates", "collinear_exact", "collinear_rounded", "huge"])
def test_lloyd_labels_do_not_depend_on_the_bits_of_partial_products(kind, monkeypatch):
    # the rows of a product of some rows need not have the bits of the same
    # rows in the whole chunk's product; near ties must still get the whole
    # product's labels
    xy, k = _lloyd_corpus(kind, np.random.default_rng([79, LLOYD_CORPORA.index(kind)]))
    want_centers, want_history, _ = oracles.kmeans(xy.reshape(len(xy), -1), k, 12, 3)
    monkeypatch.setattr(vocabulary, "np", _PerturbedProducts(len(xy), np.random.default_rng(83)))
    got = kmeans(_corpus(xy), k=k, max_iters=12, seed=3)
    assert bits(got.poses[:, :, :2].reshape(got.k, -1)) == bits(want_centers)
    assert bits(got.inertia_history) == bits(want_history)


def _seeding_corpus(kind, rng):
    """(N, 16) embeddings and the K to seed them with."""
    if kind == "identical":  # every distance 0: the total <= 0 draw
        return np.tile(rng.normal(size=16), (50, 1)), 20
    if kind == "duplicates":  # 40 points, 30 copies each, more centers than points
        return np.repeat(rng.normal(size=(40, 16)) * 3.0, 30, axis=0), 60
    if kind == "on_bound_exact":
        # collinear integer points: for centers a and b, the points midway
        # are at exactly cd2 = 4 d2 from the nearer one, in every bit
        return np.arange(600)[:, None] * rng.integers(-3, 4, size=16).astype(float), 120
    if kind == "on_bound_rounded":
        # the same chain with a direction whose products round, so a new
        # center lies within a few ulps of 4 d2 from the midpoints
        return np.arange(600)[:, None] * rng.normal(size=16), 120
    if kind == "tiny":  # differences at 1e-165..1e-150: many squares subnormal
        return rng.normal(size=(400, 16)) * 10.0 ** rng.uniform(-165, -150, size=(400, 1)), 60
    if kind == "on_bound_subnormal":
        # the rounded chain with every square subnormal, where the rounding
        # of the distances is absolute, not relative
        return np.arange(600)[:, None] * (rng.normal(size=16) * 1e-163), 120
    if kind == "huge":
        return rng.normal(size=(400, 16)) * 1e8, 60
    return rng.normal(size=(80, 16)), 80  # K = N


@pytest.mark.parametrize("kind", [
    "identical", "duplicates", "on_bound_exact", "on_bound_rounded", "tiny", "on_bound_subnormal", "huge", "k_equals_n",
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pruned_seeding_matches_oracle(kind, seed):
    # the pruned seeding gives the centers and the final distances of seeding
    # that recomputes every distance and draws with Generator.choice
    x, k = _seeding_corpus(kind, np.random.default_rng([61, seed]))
    want_centers, want_d2 = oracles.kmeans_pp(x, k, seed)
    got_centers, got_d2 = _kmeans_pp(np.ascontiguousarray(x.T), k, np.random.default_rng(seed))
    assert bits(got_centers) == bits(want_centers)
    assert bits(got_d2) == bits(want_d2)


def test_draw_is_generator_choice():
    # the same index and the same next random() as rng.choice(n, p=d2 / total)
    rng = np.random.default_rng(67)
    for case in range(3000):
        n = int(rng.integers(1, 5001)) if case % 10 == 0 else int(rng.integers(1, 200))
        d2 = 10.0 ** rng.uniform(-5.0, 5.0, size=n)
        shape = case % 4
        if shape == 1 and n > 2:  # zeros at both ends
            d2[: int(rng.integers(1, n // 2 + 1))] = 0.0
            d2[-int(rng.integers(1, n // 2 + 1)) :] = 0.0
        elif shape == 2:  # one nonzero weight
            d2[:] = 0.0
            d2[int(rng.integers(n))] = 10.0 ** rng.uniform(-5.0, 5.0)
        total = d2.sum()
        if total <= 0:
            continue
        seed = int(rng.integers(2**32))
        want, got = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _draw(d2, total, got, np.empty(n)) == int(want.choice(n, p=d2 / total)), case
        assert got.random() == want.random(), case


def test_csv_export_matches_oracle(tmp_path):
    # floats as csv.writer writes them: -0.0, whole numbers, subnormal and
    # tiny, the coordinate limit and below it, 17 significant digits, and
    # small ones that print with an exponent (1e16, where large ones would
    # start, is past the limit)
    poses = np.array([[-0.0, 5.0, 1e9], [3.0, -2.0, 0.0], [0.1, -1e-300, -1e9], [2.5, 1e-05, 1234567.0],
                      [5e-324, 0.30000000000000004, -123456789.12345678], [1e-300, 999999999.9999999, 2.0 / 3.0]])
    rng = np.random.default_rng(71)
    vocab = Vocabulary(np.stack([poses, poses[::-1], rng.normal(size=(6, 3)) * 50.0]), seed=0, inertia=0.0)
    export_vocabulary_csv(vocab, tmp_path / "got.csv")
    oracles.export_vocabulary_csv(vocab, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_center_headings_match_per_center_oracle():
    # the headings of every center at once give the bits of one math.atan2
    # call per displacement, zero displacements and signed zeros included
    rng = np.random.default_rng(73)
    for trial in range(240):
        k, m = int(rng.integers(1, 300)), int(rng.integers(2, 13))
        xy = rng.normal(size=(k, m, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(k, 1, 1))
        repeat = rng.random((k, m)) < 0.2  # the previous waypoint again
        repeat[:, 0] = False
        for j in range(1, m):
            xy[:, j][repeat[:, j]] = xy[:, j - 1][repeat[:, j]]
        zeros = rng.random(xy.shape) < 0.1
        xy[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
        centers = xy.reshape(k, 2 * m)
        assert bits(vocabulary._center_poses(centers, m)) == bits(oracles.center_poses(centers, m)), trial


def _proposal_set(rng):
    """1-12 proposals of 1-8 waypoints, spanning 1-50 m (2% of sets 50-300
    m) about an origin up to 500 m away; a fifth of the sets has every
    waypoint on the 0.25 m lattice.  A plan needs 2 waypoints, so a drawn
    single waypoint is passed twice: a one-point corridor."""
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
        poses = np.column_stack([xy, np.zeros(m)])
        proposals.append(Trajectory(np.repeat(poses, 2, axis=0) if m == 1 else poses))
    return proposals


def test_diversity_matches_per_grid_oracle():
    # one shared lattice against a grid per corridor resampled onto the union
    rng = np.random.default_rng(59)
    for trial in range(1000):
        proposals = _proposal_set(rng)
        assert metrics.diversity(proposals).hex() == oracles.diversity(proposals, 0.25).hex(), trial


# (frame_gap, kinematics config, metric config) of each seeded drive
COMFORT_CASES = [
    (1, None, None),
    (5, None, None),
    (40, None, None),
    (5, KinematicsConfig(steer_max=0.3, kp_lat=1.0), MetricConfig(ec_pos_m=2.5, ec_heading_rad=0.4, ec_speed_mps=3.0)),
]


def _placed_at(scene, pose):
    """The scene rigidly moved so that its ego starts at (about) `pose`."""
    e = scene.ego_init.pose
    psi = pose.psi - e.psi
    c, s = math.cos(psi), math.sin(psi)
    return transform_scene(scene, Pose(pose.x - (c * e.x - s * e.y), pose.y - (s * e.x + c * e.y), psi))


def _continuation(prev, frame_gap, init):
    """The rest of the previous rollout, from frame_gap ticks in, as an
    ego-frame plan from `init` (None when it has under 2 waypoints)."""
    ticks = list(range(frame_gap + 5, 41, 5))
    if len(ticks) < 2:
        return None
    e = init.pose
    c, s = math.cos(e.psi), math.sin(e.psi)
    dx, dy = prev.x[ticks] - e.x, prev.y[ticks] - e.y
    psi = [oracles.wrap_angle(a - e.psi) for a in prev.psi[ticks].tolist()]
    return Trajectory(np.column_stack([c * dx + s * dy, -s * dx + c * dy, psi]))


@pytest.mark.parametrize("frame_gap, kin_cfg, metric_cfg", COMFORT_CASES)
def test_comfort_scores_match_full_rollout_oracle(centers, frame_gap, kin_cfg, metric_cfg):
    # one drive of 9 frames per template, 16 vocabulary proposals a frame
    # (one of them continues the previous winner); frame f starts at the
    # previous winner's state frame_gap ticks in (f % 3 == 1), at its pose
    # only (f % 3 == 2), or wherever its scene was generated (f % 3 == 0)
    rng = np.random.default_rng([61, frame_gap])
    tol = metric_cfg or MetricConfig()
    far = some_pass = mid_rollout_fails = 0
    for template in TEMPLATES:
        state = SelectionState(frame_gap=frame_gap)
        for f in range(9):
            scene = generate_scene(SyntheticSpec(template, seed=500 + f))
            prev = state.previous_selected
            if prev is not None and f % 3 != 0:
                scene = _placed_at(scene, Pose(prev.x[frame_gap], prev.y[frame_gap], prev.psi[frame_gap]))
                if f % 3 == 1:
                    scene = dataclasses.replace(scene, ego_init=prev.state(frame_gap))
            proposals = [centers[i] for i in rng.choice(len(centers), size=16, replace=False)]
            plan = None if prev is None else _continuation(prev, frame_gap, scene.ego_init)
            if plan is not None:
                proposals[int(rng.integers(16))] = plan
            if f % 2:  # a frame of mixed plan lengths, 2 to 12 waypoints, one a cut continuation
                for slot in rng.choice(16, size=6, replace=False).tolist():
                    proposals[slot] = _with_length(proposals[slot], int(rng.integers(2, 13)))
                if plan is not None:
                    proposals[int(rng.integers(16))] = _with_length(plan, 2)
            ps = ProposalSet(tuple(proposals), rng.uniform(0.0, 1.0, size=16))
            got = comfort_scores(state, ps, scene, kin_cfg, metric_cfg)
            want = oracles.comfort_scores(prev, frame_gap, proposals, scene.ego_init, kin_cfg, tol)
            assert bits(got) == bits(want), (template, f)
            if prev is not None:
                e = scene.ego_init.pose
                far += math.hypot(e.x - prev.x[frame_gap], e.y - prev.y[frame_gap]) > tol.ec_pos_m
                some_pass += want.any()
                mid_rollout_fails += f % 3 == 1 and not want.all()
            idx, winner, _ = select(ps, state, scene, kin_cfg, metric_cfg)
            state = SelectionState(ego_rollout(winner, scene.ego_init, kin_cfg), frame_gap)
    # frames whose tick 0 breaks, frames with a comfortable proposal, and
    # frames where a rollout that starts comfortable breaks later
    assert far >= 12 and some_pass >= 6
    assert mid_rollout_fails >= (0 if frame_gap == 40 else 6)


@pytest.mark.parametrize("frame_gap", [1, 5, 39])
def test_comfort_sees_every_compared_tick(scenes, centers, frame_gap):
    # a previous rollout that the proposal's rollout continues exactly, but
    # for 1.5 m at one tick: the first, the second or the last compared
    scene = scenes[1]
    plan = centers[3]
    rollout = ego_rollout(plan, scene.ego_init)
    ps = ProposalSet((plan,), np.array([0.5]))
    for tick in (0, 1, 40 - frame_gap):
        for dx, want in ((0.0, 1.0), (1.5, 0.0)):
            fields = {f: np.concatenate([np.repeat(getattr(rollout, f)[:1], frame_gap),
                                         getattr(rollout, f)[:41 - frame_gap]]) for f in FIELDS}
            fields["x"][tick + frame_gap] += dx
            prev = DenseTrajectory(**fields)
            got = comfort_scores(SelectionState(prev, frame_gap), ps, scene)
            assert got[0] == want, (tick, dx)
            assert bits(got) == bits(oracles.comfort_scores(prev, frame_gap, [plan], scene.ego_init, None,
                                                           MetricConfig()))


def _standing(x=0.0, y=0.0, psi=0.0, v=0.0):
    """A 41-tick rollout whose fields hold the given values (scalars or arrays)."""
    z = np.zeros(41)
    return DenseTrajectory(z + x, z + y, z + psi, z + v, z, z)


def _one_tick(tick, **fields):
    """A rollout at rest at the origin except for `fields` at one tick."""
    arrays = {f: np.zeros(41) for f in ("x", "y", "psi", "v")}
    for f, value in fields.items():
        arrays[f][tick] = value
    return _standing(**arrays)


def _below(value):
    return float(np.nextafter(value, -np.inf))


def assert_ec_matches_oracle(now, prev, frame_gap, cfg):
    got = score_ec(now, prev, frame_gap, cfg)
    assert got == oracles.score_ec(now, prev, frame_gap, cfg)
    return got


def test_ec_position_error_at_exactly_the_tolerance():
    # the tolerance set to numpy's hypot of the error, and one ulp below it;
    # for some errors math.hypot rounds to a neighbour of numpy's hypot
    rng = np.random.default_rng(67)
    prev = _standing()
    rounding_differs = 0
    for trial in range(1500):
        frame_gap = int(rng.choice([0, 1, 5, 23, 40]))
        tick = int(rng.integers(0, 41 - frame_gap))
        dx, dy = rng.uniform(-1.5, 1.5, size=2).tolist()
        now = _one_tick(tick, x=dx, y=dy)
        h = float(np.hypot(dx, dy))
        rounding_differs += math.hypot(dx, dy) != h
        cfg = MetricConfig(ec_pos_m=h)
        assert assert_ec_matches_oracle(now, prev, frame_gap, cfg) == 1.0, trial
        assert assert_ec_matches_oracle(now, prev, frame_gap, MetricConfig(ec_pos_m=_below(h))) == 0.0, trial
    assert rounding_differs >= 3
    # exactly the default 1 m along an axis
    assert assert_ec_matches_oracle(_one_tick(7, x=1.0), _standing(), 5, MetricConfig()) == 1.0


def _ulps(value, n):
    """`value` moved by n ulps, up for n > 0, down for n < 0."""
    for _ in range(abs(n)):
        value = float(np.nextafter(value, math.copysign(np.inf, n)))
    return value


@pytest.mark.parametrize("pos_m", [1.0, 0.3, 2.5, 7.0, 1e-150, 1e150])
def test_ec_position_error_a_few_ulps_from_the_tolerance(pos_m):
    # within a few ulps of the tolerance the squared error is inside the
    # screen's margin, so numpy's hypot decides: exactly along an axis, and
    # as the oracle's array hypot does on a diagonal
    cfg = MetricConfig(ec_pos_m=pos_m)
    for n in (-4, -1, 0, 1, 4):
        error = _ulps(pos_m, n)
        for now in (_one_tick(6, x=error), _one_tick(6, y=-error)):
            assert assert_ec_matches_oracle(now, _standing(), 5, cfg) == (1.0 if n <= 0 else 0.0), n
        d = _ulps(pos_m / math.sqrt(2.0), n)
        assert_ec_matches_oracle(_one_tick(6, x=d, y=-d), _standing(), 5, cfg)


@pytest.mark.parametrize("pos_m, errors", [
    (0.0, [(0.0, 1.0), (5e-324, 0.0), (1.0, 0.0)]),
    (-1.0, [(0.0, 0.0), (0.5, 0.0)]),
    (1e-200, [(0.0, 1.0), (1e-200, 1.0), (2e-200, 0.0), (1e-150, 0.0)]),
    (1e200, [(1e150, 1.0), (1e200, 1.0), (2e200, 0.0), (1e300, 0.0)]),
])
def test_ec_position_tolerance_without_a_normal_square(pos_m, errors):
    # zero, negative, and tolerances whose square underflows or overflows:
    # no screen applies, numpy's hypot decides every tick (a negative
    # tolerance breaks every tick)
    cfg = MetricConfig(ec_pos_m=pos_m)
    for error, want in errors:
        for frame_gap in (0, 5):
            assert assert_ec_matches_oracle(_one_tick(3, x=error), _standing(), frame_gap, cfg) == want, error


@pytest.mark.parametrize("prev_psi, now_psi", [
    (0.0, 0.2),
    (0.1, -0.1),
    (math.pi - 0.05, -math.pi + 0.15),   # across +-pi
    (-math.pi + 0.01, math.pi - 0.19),
    (math.pi, -math.pi + 0.2),
    (math.pi - 0.2, math.pi),
])
def test_ec_heading_difference_at_exactly_the_tolerance(prev_psi, now_psi):
    prev, now = _standing(psi=prev_psi), _standing(psi=now_psi)
    wrapped = float(np.abs(np.remainder(now_psi - prev_psi + np.pi, 2 * np.pi) - np.pi))
    assert abs(wrapped - 0.2) < 1e-12
    assert assert_ec_matches_oracle(now, prev, 5, MetricConfig()) == (1.0 if wrapped <= 0.2 else 0.0)
    for tolerance, want in ((wrapped, 1.0), (_below(wrapped), 0.0)):
        cfg = MetricConfig(ec_heading_rad=tolerance)
        assert assert_ec_matches_oracle(now, prev, 5, cfg) == want
        assert assert_ec_matches_oracle(now, prev, 0, cfg) == want


def test_ec_speed_difference_and_the_ticks_compared():
    prev = _standing(v=10.0)
    cfg = MetricConfig()
    for frame_gap in (0, 1, 5, 40):
        last = 40 - frame_gap
        assert assert_ec_matches_oracle(_standing(v=12.0), prev, frame_gap, cfg) == 1.0
        for tick in (0, last // 2, last):
            assert assert_ec_matches_oracle(_one_tick(tick, v=12.0 + 2 ** -48), prev, frame_gap, cfg) == 0.0
        # a tick the previous rollout does not reach is not compared
        if frame_gap:
            assert assert_ec_matches_oracle(_one_tick(last + 1, x=50.0), _standing(), frame_gap, cfg) == 1.0


def test_ec_nan_error_breaks():
    prev = _standing(v=np.where(np.arange(41) == 9, np.nan, 0.0))
    assert assert_ec_matches_oracle(_standing(), prev, 5, MetricConfig()) == 0.0
    assert assert_ec_matches_oracle(_standing(), prev, 35, MetricConfig()) == 1.0
