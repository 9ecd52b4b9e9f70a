"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with `pytest -s tests/test_acceptance.py` to see them).
Budgets are asserted alongside the functional checks."""

import math
import time

import numpy as np
import pytest

from trajsim.distill import DistillConfig, distill_loss, score_scene_row, score_vocabulary, select_pseudo_teachers
from trajsim.geom import OrientedBox, Pose, obb_overlap_batch
from trajsim.kinematics import DENSE_TICKS, EgoState, Trajectory, pid_track, trajectory_to_world
from trajsim.metrics import (
    ScoreContext,
    SubScores,
    aggregate_epdms,
    aggregate_pdms,
    diversity,
    evaluate_rollout,
    score_ec,
    score_nc,
    score_tlc,
)
from trajsim.scene_io import SyntheticSpec, generate_scene, straight_plan
from trajsim.selection import ProposalSet, SelectionState, recalibrate, select
from trajsim.vocabulary import TrajectoryCorpus, Vocabulary, embed, headings_from_tangents, kmeans

import oracles


def _timed(budget_s):
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.t0
            if exc[0] is None:
                assert self.elapsed < budget_s, f"runtime {self.elapsed:.1f}s exceeds {budget_s}s budget"
            return False

    return _Timer()


def _report(num, name, timer, detail=""):
    tail = f" - {detail}" if detail else ""
    print(f"\n[criterion {num:2d}] {name}: PASS ({timer.elapsed:.2f}s){tail}")


def _traj_from_xy(xy):
    xy = np.asarray(xy, dtype=float)
    return Trajectory(np.column_stack([xy, headings_from_tangents(xy)]))


def _subs(**kw):
    base = dict(nc=1.0, dac=1.0, ddc=1.0, tlc=1.0, ep=1.0, ttc=1.0, lk=1.0, hc=1.0, ec=1.0, c=1.0)
    base.update(kw)
    return SubScores(**base)


def test_criterion_1_aggregation_exactness():
    with _timed(1.0) as t:
        assert aggregate_pdms(_subs(ep=0.8)) == pytest.approx(11.0 / 12.0, abs=1e-12)
        assert aggregate_epdms(_subs(ddc=0.5, ep=0.8)) == pytest.approx(0.46875, abs=1e-12)
        rng = np.random.default_rng(100)
        for _ in range(50):
            v = {f: float(rng.uniform(0, 1)) for f in ("nc", "dac", "ddc", "tlc", "ep", "ttc", "lk", "hc", "ec")}
            s = _subs(**v, c=v["hc"])
            assert abs(aggregate_pdms(s) - oracles.pdms_formula(s.nc, s.dac, s.ep, s.ttc, s.c)) <= 1e-12
            assert abs(
                aggregate_epdms(s)
                - oracles.epdms_formula(s.nc, s.dac, s.ddc, s.tlc, s.ep, s.ttc, s.lk, s.hc, s.ec)
            ) <= 1e-12
    _report(1, "aggregation exactness", t, "50 random vectors + worked values to 1e-12")


def test_criterion_2_41_point_contract():
    with _timed(5.0) as t:
        rng = np.random.default_rng(101)
        for _ in range(1000):
            plan = Trajectory(np.column_stack([
                np.cumsum(rng.uniform(-1, 6, 8)),
                np.cumsum(rng.uniform(-2, 2, 8)),
                rng.uniform(-math.pi, math.pi, 8),
            ]))
            init = EgoState(
                Pose(*rng.uniform(-5, 5, 2), rng.uniform(-math.pi, math.pi)),
                float(rng.uniform(0, 15)), float(rng.uniform(-2, 2)), float(rng.uniform(-0.5, 0.5)),
            )
            d = pid_track(plan, init)
            assert len(d) == DENSE_TICKS
            assert (d.x[0], d.y[0], d.psi[0], d.v[0], d.a[0], d.steer[0]) == (
                init.pose.x, init.pose.y, init.pose.psi, init.v, init.a, init.steer)
            assert pid_track(plan, init) == d  # bitwise determinism
    _report(2, "41-point contract", t, "1000 random plans, index 0 exact, bitwise reruns")


def test_criterion_3_known_answer_scenes():
    with _timed(60.0) as t:
        for seed in range(100):
            s = generate_scene(SyntheticSpec("clean_straight", seed=seed))
            ctx = ScoreContext(s)
            assert aggregate_epdms(evaluate_rollout(ctx.reference, ctx)) >= 0.95

            s = generate_scene(SyntheticSpec("parked_agent", seed=seed))
            ctx = ScoreContext(s)
            assert score_nc(ctx.reference, ctx) == 1.0
            d = pid_track(trajectory_to_world(straight_plan(s.ego_init.v), s.ego_init.pose),
                          s.ego_init, ctx.kin_cfg)
            assert score_nc(d, ctx) == 0.0

            s = generate_scene(SyntheticSpec("red_light", seed=seed))
            ctx = ScoreContext(s)
            assert score_tlc(ctx.reference, ctx) == 1.0
            d = pid_track(trajectory_to_world(straight_plan(s.ego_init.v), s.ego_init.pose),
                          s.ego_init, ctx.kin_cfg)
            assert score_tlc(d, ctx) == 0.0

            s = generate_scene(SyntheticSpec("crossing_agent", seed=seed))
            ctx = ScoreContext(s)
            assert score_nc(ctx.reference, ctx) == 1.0

            s = generate_scene(SyntheticSpec("oncoming_lane", seed=seed))
            ctx = ScoreContext(s)
            assert evaluate_rollout(ctx.reference, ctx).ddc < 1.0

            s = generate_scene(SyntheticSpec("lane_drift", seed=seed))
            ctx = ScoreContext(s)
            assert evaluate_rollout(ctx.reference, ctx).lk == 0.0
    _report(3, "known-answer scenes", t, "6 templates x 100 seeds")


def test_criterion_4_geometry_oracle():
    with _timed(60.0) as t:
        rng = np.random.default_rng(102)
        n = 100_000
        a = np.column_stack([
            rng.uniform(-8, 8, n), rng.uniform(-8, 8, n), rng.uniform(-math.pi, math.pi, n),
            rng.uniform(0.5, 2.5, n), rng.uniform(0.3, 1.5, n),
        ])
        b = np.column_stack([
            rng.uniform(-8, 8, n), rng.uniform(-8, 8, n), rng.uniform(-math.pi, math.pi, n),
            rng.uniform(0.5, 2.5, n), rng.uniform(0.3, 1.5, n),
        ])
        outside_band = np.abs(oracles.box_axes_measure_batch(a, b)) >= 0.01
        lib = obb_overlap_batch(
            a[:, 0], a[:, 1], a[:, 2], a[:, 3], a[:, 4],
            b[:, 0], b[:, 1], b[:, 2], b[:, 3], b[:, 4],
        )
        oracle = oracles.sampling_overlap_batch(np.random.default_rng(103), a, b, n=10_000)
        checked = int(outside_band.sum())
        agree = int((lib[outside_band] == oracle[outside_band]).sum())
        assert checked >= 90_000
        assert agree / checked >= 0.999
    _report(4, "geometry oracle", t, f"{agree}/{checked} agreement = {agree / checked:.5f}")


def _parallel_corridors(n, spacing=10.0):
    t = 0.5 * (np.arange(8) + 1)
    return [Trajectory(np.stack([10 * t, np.full(8, spacing * i), np.zeros(8)], axis=1))
            for i in range(n)]


def test_criterion_5_diversity_analytics():
    with _timed(5.0) as t:
        same = _parallel_corridors(1)[0]
        assert diversity([same, same, same]) == 0.0
        assert diversity(_parallel_corridors(2)) == pytest.approx(0.5, abs=0.02)
        assert diversity(_parallel_corridors(8)) == pytest.approx(0.875, abs=0.02)
    _report(5, "diversity analytics", t, "identical, 2-disjoint, 8-disjoint corridors")


def test_criterion_6_kmeans_properties():
    with _timed(60.0) as t:
        rng = np.random.default_rng(104)
        # inertia monotone on 20 random corpora
        for trial in range(20):
            items = [_traj_from_xy(np.cumsum(rng.uniform(-2, 2, (8, 2)), axis=0)) for _ in range(300)]
            vocab = kmeans(TrajectoryCorpus(items), k=12, seed=trial)
            assert np.all(np.diff(vocab.inertia_history) <= 1e-9)

        # two-blob recovery against brute-force means
        blobs, means = [], []
        for center_y in (0.0, 50.0):
            base = np.stack([np.linspace(5, 40, 8), np.full(8, center_y)], axis=1)
            pts = base[None] + rng.normal(0, 0.8, size=(200, 8, 2))
            blobs.append(pts)
            means.append(pts.reshape(200, -1).mean(axis=0))
        corpus = TrajectoryCorpus([_traj_from_xy(xy) for b in blobs for xy in b])
        vocab = kmeans(corpus, k=2, seed=0)
        got = sorted(vocab.embeddings(), key=lambda c: c[1])
        for g, w in zip(got, sorted(means, key=lambda c: c[1])):
            assert np.hypot(*(g - w).reshape(8, 2).T).max() < 0.5

        # desk scale with worker-count determinism
        big = TrajectoryCorpus(
            [_traj_from_xy(np.cumsum(rng.uniform(-2, 4, (8, 2)), axis=0)) for _ in range(10_000)]
        )
        v1 = kmeans(big, k=256, seed=9, workers=1)
        v2 = kmeans(big, k=256, seed=9, workers=2)
        assert np.array_equal(v1.embeddings(), v2.embeddings())
        assert v1.inertia_history == v2.inertia_history
    _report(6, "k-means properties", t, f"desk-scale inertia {v1.inertia:.1f} in {len(v1.inertia_history)} iters")


def _distill_suite():
    """200 scenes (40 pinned clean + 160 mixed) and a 256-center vocabulary
    whose center 0 is the pinned clean scenes' exact human trajectory."""
    scenes = [generate_scene(SyntheticSpec("clean_straight", seed=s, params={"v0": 10.0}))
              for s in range(40)]
    mixed = ("parked_agent", "crossing_agent", "red_light", "oncoming_lane", "lane_drift")
    for s in range(160):
        scenes.append(generate_scene(SyntheticSpec(mixed[s % len(mixed)], seed=200 + s)))

    corpus_items = []
    templates = ("clean_straight",) + mixed
    for s in range(600):
        spec = SyntheticSpec(templates[s % len(templates)], seed=1000 + s)
        corpus_items.append(generate_scene(spec).human_trajectory)
    vocab = kmeans(TrajectoryCorpus(corpus_items), k=256, seed=11)
    centers = list(vocab.centers)
    centers[0] = scenes[0].human_trajectory  # identical across all pinned clean scenes
    return scenes, Vocabulary(centers=centers, k=256, seed=11, inertia=vocab.inertia)


def test_criterion_7_distillation_pipeline():
    with _timed(600.0) as t:
        scenes, vocab = _distill_suite()
        m1 = score_vocabulary(scenes, vocab, workers=1)
        m8 = score_vocabulary(scenes, vocab, workers=8)
        assert np.array_equal(m1.values, m8.values), "worker counts must give bitwise-equal matrices"

        # the planted human-trajectory center is a candidate in every clean scene
        clean_rows = m1.values[:40]
        assert np.all(clean_rows[:, 0] >= 0.95)

        # every selected pseudo-teacher re-scores at or above the threshold
        cfg = DistillConfig(threshold=0.95, n_pseudo=4, rng_seed=3)
        reselected = 0
        for i, scene in enumerate(scenes):
            ts = select_pseudo_teachers(m1.values[i], vocab, cfg, scene.scene_id)
            if not len(ts):
                continue
            sub = Vocabulary(centers=list(ts.trajectories), k=len(ts), seed=0, inertia=0.0)
            again = score_scene_row(scene, sub)
            assert np.all(again >= 0.95)
            assert np.allclose(again, np.asarray(ts.scores), atol=1e-12)
            reselected += len(ts)
        assert reselected > 0
    _report(7, "distillation pipeline", t, f"200x256 evals, {reselected} teachers re-scored >= 0.95")


def test_criterion_8_loss_arithmetic():
    with _timed(5.0) as t:
        h = _traj_from_xy(np.stack([5.0 * np.arange(1, 9), np.zeros(8)], axis=1))

        def shifted(base, dy):
            xy = base.xy.copy()
            xy[0, 1] += dy
            return _traj_from_xy(xy)

        assert distill_loss([[h]], h, []) == 0.0
        props = [shifted(h, d) for d in (3.0, 1.0, 7.0)]
        assert distill_loss([props], h, []) == pytest.approx(1.0, abs=1e-12)
        teacher = _traj_from_xy(np.stack([5.0 * np.arange(1, 9), np.full(8, 100.0)], axis=1))
        it1 = [shifted(h, 2.0), shifted(teacher, 4.0)]
        it2 = [shifted(h, 0.5), shifted(teacher, 1.0)]
        assert distill_loss([it1, it2], h, [teacher], discount=0.1) == pytest.approx(2.1, abs=1e-12)

        rng = np.random.default_rng(105)
        for _ in range(1000):
            human = _traj_from_xy(rng.uniform(-10, 10, (8, 2)))
            props = [_traj_from_xy(rng.uniform(-10, 10, (8, 2))) for _ in range(3)]
            teachers = [_traj_from_xy(rng.uniform(-10, 10, (8, 2))) for _ in range(3)]
            base = distill_loss([props], human, teachers[:2])
            assert distill_loss([props], human, teachers) >= base - 1e-12
    _report(8, "loss arithmetic", t, "worked values 0.0 / 1.0 / 2.1 and 1000 monotonicity draws")


def test_criterion_9_momentum_selection():
    with _timed(30.0) as t:
        rng = np.random.default_rng(106)
        s = rng.uniform(0, 1, (10_000, 32))
        c = rng.integers(0, 2, (10_000, 1)).astype(float)
        recal = recalibrate(s, np.broadcast_to(c, s.shape))
        assert np.abs(recal - (7 * s + c) / 8).max() <= 1e-12
        assert np.array_equal(np.argmax(recal, axis=1), np.argmax(s, axis=1))

        # 10-frame sequence: a consistent chain plus alternating distractors
        from test_selection import TestTenFrameSequence

        seq = TestTenFrameSequence()
        plain = seq._run(momentum=False)
        momentum = seq._run(momentum=True)
        assert momentum >= plain
        assert momentum == 9
    _report(9, "momentum-aware selection", t,
            f"argmax invariance on 10k vectors; EC passes {momentum} vs {plain}")


def test_criterion_10_throughput_report():
    # soft goal: reported for regression tracking, not gated
    with _timed(600.0) as t:
        scenes = [generate_scene(SyntheticSpec("parked_agent", seed=s)) for s in range(16)]
        corpus = TrajectoryCorpus(
            [generate_scene(SyntheticSpec("lane_drift", seed=2000 + s)).human_trajectory for s in range(320)]
        )
        vocab = kmeans(corpus, k=256, seed=1)
        rates = {}
        for workers in (1, 8):
            t0 = time.perf_counter()
            score_vocabulary(scenes, vocab, workers=workers)
            dt = time.perf_counter() - t0
            rates[workers] = len(scenes) * vocab.k / dt
    import os

    per_worker = rates[1]
    scaling = rates[8] / rates[1]
    _report(10, "throughput (soft, not gated)", t,
            f"{per_worker:.0f} evals/s single worker (goal >= 500); "
            f"1->8 workers scaling x{scaling:.2f} on {os.cpu_count()} cpus")
