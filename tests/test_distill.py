import functools
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import trajsim
from trajsim import distill
from trajsim.distill import (
    DistillConfig,
    PseudoTeacherSet,
    ScoreMatrix,
    _run_fingerprint,
    load_score_matrix,
    save_score_matrix,
    save_teacher_sets,
    score_scene_row,
    score_vocabulary,
    select_pseudo_teachers,
)
from trajsim.geom import Pose
from trajsim.kinematics import KinematicsConfig, Trajectory
from trajsim.metrics import MetricConfig
from trajsim.scene_io import SyntheticSpec, generate_scene, transform_scene
from trajsim.vocabulary import TrajectoryCorpus, Vocabulary, headings_from_tangents, kmeans

from scenes import OLD_PINNED_FINGERPRINT, pinned_run, rich_scene


def traj_from_xy(xy):
    xy = np.asarray(xy, dtype=float)
    return Trajectory(np.column_stack([xy, headings_from_tangents(xy)]))


def _marking_row(started, fail_first, scene, vocab, kin_cfg, metric_cfg):
    """A score_scene_row stand-in, once `started` and `fail_first` are bound:
    it marks the row as started in the directory `started`, then raises on
    scene seed 0 if `fail_first`, or takes 0.5 s."""
    (started / scene.scene_id).touch()
    if fail_first and scene.scene_id.endswith("-00000"):
        raise ValueError("row 0 failed")
    time.sleep(0.5)
    return np.full(vocab.k, 0.5)


@pytest.fixture(scope="module")
def small_world():
    scenes = [
        generate_scene(SyntheticSpec("clean_straight", seed=0, params={"v0": 10.0})),
        generate_scene(SyntheticSpec("parked_agent", seed=1)),
        generate_scene(SyntheticSpec("red_light", seed=2)),
        generate_scene(SyntheticSpec("lane_drift", seed=3)),
    ]
    corpus = TrajectoryCorpus(
        [generate_scene(SyntheticSpec(t, seed=s)).human_trajectory
         for s in range(6) for t in ("clean_straight", "parked_agent", "red_light")]
    )
    vocab = kmeans(corpus, k=8, seed=5)
    # plant the clean scene's exact human trajectory as center 0
    poses = vocab.poses.copy()
    poses[0] = scenes[0].human_trajectory.poses
    vocab = Vocabulary(poses, seed=5, inertia=vocab.inertia)
    return scenes, vocab


class TestScoreVocabulary:
    def test_row_codomain_and_planted_center(self, small_world):
        scenes, vocab = small_world
        row = score_scene_row(scenes[0], vocab)
        assert row.shape == (8,)
        assert row.min() >= 0.0 and row.max() <= 1.0
        assert row[0] >= 0.95  # planted human trajectory in a clean scene

    def test_worker_counts_bitwise_identical(self, small_world, tmp_path):
        scenes, vocab = small_world
        a = score_vocabulary(scenes, vocab, workers=1, checkpoint=tmp_path / "w1.bin")
        b = score_vocabulary(scenes, vocab, workers=2, checkpoint=tmp_path / "w2.bin")
        assert np.array_equal(a.values, b.values)
        assert a.scene_ids == b.scene_ids

    @pytest.mark.parametrize("n_scenes, most_children", [(2, 2), (1, 0)])
    def test_pool_starts_no_more_workers_than_rows(self, small_world, tmp_path, n_scenes, most_children):
        # 4 workers asked for: 2 rows start at most 2 processes, 1 row is
        # scored in this process
        scenes, vocab = small_world
        children = []
        got = score_vocabulary(
            scenes[:n_scenes], vocab, workers=4, checkpoint=tmp_path / "w4.bin",
            progress=lambda idx: children.append(len(multiprocessing.active_children())),
        )
        assert len(children) == n_scenes
        assert max(children) <= most_children
        one = score_vocabulary(scenes[:n_scenes], vocab, workers=1, checkpoint=tmp_path / "w1.bin")
        assert np.array_equal(got.values, one.values)

    def test_checkpoint_resume_skips_done_rows(self, small_world, tmp_path):
        scenes, vocab = small_world
        path = tmp_path / "matrix.bin"
        full = score_vocabulary(scenes, vocab, workers=1, checkpoint=path)

        # poison row 0 in the checkpoint: a resumed run must trust it
        poisoned = np.full(vocab.k, 0.123456)
        from trajsim.distill import _Checkpoint

        ck = _Checkpoint(path, len(scenes), vocab.k)
        ck.write_row(0, poisoned)
        resumed = score_vocabulary(scenes, vocab, workers=1, checkpoint=path)
        assert np.array_equal(resumed.values[0], poisoned)
        assert np.array_equal(resumed.values[1:], full.values[1:])

    def test_torn_done_line_not_trusted(self, small_world, tmp_path):
        scenes, vocab = small_world
        path = tmp_path / "matrix.bin"
        full = score_vocabulary(scenes, vocab, workers=1, checkpoint=path)
        # a run interrupted after rows 0 and 1 and while appending "2\n",
        # before row 2's scores reached the matrix file
        raw = bytearray(path.read_bytes())
        row_bytes = vocab.k * 8
        header = len(raw) - len(scenes) * row_bytes
        raw[header + 2 * row_bytes:] = bytes(len(raw) - header - 2 * row_bytes)
        path.write_bytes(bytes(raw))
        done = path.with_name(path.name + ".done")
        fingerprint = done.read_text().splitlines()[0]
        done.write_text(f"{fingerprint}\n0\n1\n2")

        resumed = score_vocabulary(scenes, vocab, workers=1, checkpoint=path)
        assert np.array_equal(resumed.values, full.values)
        lines = done.read_text().split()
        assert lines[0] == fingerprint
        assert sorted(int(i) for i in lines[1:]) == list(range(len(scenes)))
        assert done.read_text().endswith("\n")

    def test_checkpoint_mismatch_rejected(self, small_world, tmp_path):
        scenes, vocab = small_world
        path = tmp_path / "matrix.bin"
        score_vocabulary(scenes[:2], vocab, checkpoint=path)
        with pytest.raises(ValueError):
            score_vocabulary(scenes, vocab, checkpoint=path)

    def test_checkpoint_of_another_vocabulary_refused(self, small_world, tmp_path):
        scenes, vocab = small_world
        path = tmp_path / "matrix.bin"
        first = Vocabulary(vocab.poses[:3], seed=5, inertia=vocab.inertia)
        other = Vocabulary(vocab.poses[3:6], seed=5, inertia=vocab.inertia)
        score_vocabulary(scenes[:2], first, checkpoint=path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="matrix.bin: existing checkpoint was written for other"):
            score_vocabulary(scenes[:2], other, checkpoint=path)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("change", ["scene", "kin_cfg", "metric_cfg"])
    def test_checkpoint_of_other_inputs_refused(self, small_world, tmp_path, change):
        scenes, vocab = small_world
        path = tmp_path / "matrix.bin"
        score_vocabulary(scenes[:2], vocab, checkpoint=path)
        rerun = {"scenes": scenes[:2], "vocab": vocab, "checkpoint": path}
        rerun.update({
            # same scene ids, one scene moved by 1 m
            "scene": {"scenes": [scenes[0], transform_scene(scenes[1], Pose(1.0, 0.0, 0.0))]},
            "kin_cfg": {"kin_cfg": KinematicsConfig(kp_lon=2.5)},
            "metric_cfg": {"metric_cfg": MetricConfig(lk_offset_m=0.6)},
        }[change])
        with pytest.raises(ValueError, match="written for other"):
            score_vocabulary(**rerun)

    def test_identical_rerun_resumes(self, small_world, tmp_path):
        scenes, vocab = small_world
        path = tmp_path / "matrix.bin"
        full = score_vocabulary(scenes, vocab, checkpoint=path, kin_cfg=KinematicsConfig())
        resumed_rows = []
        again = score_vocabulary(scenes, vocab, checkpoint=path, progress=resumed_rows.append)
        assert resumed_rows == []  # every row came from the checkpoint
        assert np.array_equal(again.values, full.values)

    def test_empty_inputs_rejected(self, small_world, tmp_path):
        _, vocab = small_world
        path = tmp_path / "matrix.bin"
        with pytest.raises(ValueError):
            score_vocabulary([], vocab, checkpoint=path)
        assert not path.exists()

    @pytest.mark.parametrize("workers", [2.5, True, "2"])
    def test_worker_count_must_be_an_integer(self, small_world, tmp_path, workers):
        scenes, vocab = small_world
        path = tmp_path / "matrix.bin"
        with pytest.raises(ValueError, match=re.escape(f"workers must be an integer, got {workers!r}")):
            score_vocabulary(scenes, vocab, workers=workers, checkpoint=path)
        assert not path.exists()  # refused before the checkpoint is touched

    def test_numpy_worker_count_accepted(self, small_world, tmp_path):
        scenes, vocab = small_world
        got = score_vocabulary(scenes, vocab, workers=np.int64(2), checkpoint=tmp_path / "w2.bin")
        one = score_vocabulary(scenes, vocab, workers=1, checkpoint=tmp_path / "w1.bin")
        assert np.array_equal(got.values, one.values)

    def test_interrupted_run_leaves_zero_rows(self, small_world, tmp_path):
        scenes, vocab = small_world
        path = tmp_path / "matrix.bin"

        def stop(idx):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            score_vocabulary(scenes, vocab, workers=1, checkpoint=path, progress=stop)
        raw = path.read_bytes()
        row_bytes = vocab.k * 8
        header = len(raw) - len(scenes) * row_bytes
        assert header == 16
        assert raw[header:header + row_bytes] == score_scene_row(scenes[0], vocab).astype("<f8").tobytes()
        assert raw[header + row_bytes:] == bytes((len(scenes) - 1) * row_bytes)

    @pytest.mark.parametrize("case", ["fail-first", "progress-raises"])
    def test_a_failure_stops_the_run_early(self, small_world, tmp_path, monkeypatch, case):
        # 24 rows of 0.5 s on 2 workers: after the failure only the rows
        # already running (2) or in the pool's call queue (workers + 1 = 3)
        # start, besides row 0; 8 leaves room for a slow reaction, 24 is
        # every row
        _, vocab = small_world
        scenes = [generate_scene(SyntheticSpec("clean_straight", seed=s)) for s in range(24)]
        started = tmp_path / "started"
        started.mkdir()
        monkeypatch.setattr(distill, "score_scene_row", functools.partial(_marking_row, started, case == "fail-first"))

        def progress(idx):
            if case == "progress-raises":
                raise RuntimeError("progress failed")

        error = {"fail-first": (ValueError, "row 0 failed"), "progress-raises": (RuntimeError, "progress failed")}
        with pytest.raises(error[case][0], match=error[case][1]):
            score_vocabulary(scenes, vocab, workers=2, checkpoint=tmp_path / "matrix.bin", progress=progress)
        assert 1 <= len(list(started.iterdir())) <= 8, sorted(p.name for p in started.iterdir())

    def test_scoring_and_mining_build_no_center_views(self, small_world, tmp_path):
        scenes, vocab = small_world
        fresh = Vocabulary(vocab.poses, seed=5, inertia=vocab.inertia)
        matrix = score_vocabulary(scenes, fresh, workers=1, checkpoint=tmp_path / "matrix.bin")
        for row, scene in zip(matrix.values, scenes):
            select_pseudo_teachers(row, fresh, DistillConfig(threshold=0.5), scene.scene_id)
        assert fresh._centers is None

    @pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resumed"])
    def test_memory_grows_with_one_matrix(self, tmp_path, resume):
        # rows go straight to the checkpoint file and the finished file is
        # read once, into the array the matrix keeps, so the peak grows by one
        # matrix; a resumed run also reads the finished file to check its
        # shape, but frees that read before the final one.  Scoring is
        # stubbed out so only the framework runs; each run is a fresh child
        # so that its peak RSS is its own
        src = str(Path(trajsim.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               "OPENBLAS_NUM_THREADS": "1"}
        child = (
            "import resource, sys; import numpy as np; from trajsim import distill; "
            "from trajsim.scene_io import SyntheticSpec, generate_scene; from trajsim.vocabulary import Vocabulary; "
            "scene = generate_scene(SyntheticSpec('clean_straight', seed=0)); "
            "vocab = Vocabulary(np.zeros((8192, 8, 3)), seed=0, inertia=0.0); "
            "distill.score_scene_row = lambda scene, vocab, *cfgs: np.full(vocab.k, 0.5); "
            "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; start = peak(); "
            "distill.score_vocabulary([scene] * int(sys.argv[1]), vocab, workers=1, checkpoint=sys.argv[2]); "
            "print((peak() - start) * 1024)"
        )
        grown = {}
        for n in (500, 1500):
            for _ in range(1 + resume):  # the second run resumes the first one's finished checkpoint
                proc = subprocess.run([sys.executable, "-c", child, str(n), str(tmp_path / f"m{n}.bin")],
                                      capture_output=True, text=True, env=env)
                assert proc.returncode == 0, proc.stderr[-2000:]
            grown[n] = int(proc.stdout)
        matrix_growth = 1000 * 8192 * 8
        assert grown[1500] - grown[500] <= 1.3 * matrix_growth, (grown, matrix_growth)

    def test_the_matrix_keeps_the_one_read_of_its_file(self, small_world, tmp_path, monkeypatch):
        scenes, vocab = small_world
        path = tmp_path / "matrix.bin"
        reads = []
        read = distill._read_matrix
        monkeypatch.setattr(distill, "_read_matrix", lambda p: reads.append(read(p)) or reads[-1])
        for run in (lambda: score_vocabulary(scenes, vocab, checkpoint=path), lambda: load_score_matrix(path)):
            matrix = run()
            assert matrix.values is reads[-1]
            assert matrix.values.flags.owndata and not matrix.values.flags.writeable

    def test_fingerprint_of_pinned_scenes_and_centers(self):
        scene, vocab = pinned_run()
        want = "9068662b0493be1eaf3d29cb421a8aed97b11d14653af91de4918a28eab750ad"
        assert _run_fingerprint([scene], vocab, None, None) == want
        # a scene with agents and lights
        want = "a34b427167db0424ad4525178f0e4919baa357ac4c774beb84d0b3258ab0d0c9"
        assert _run_fingerprint([rich_scene(1)], vocab, None, None) == want

    def test_checkpoint_of_the_format_with_dropped_scene_keys_refused(self, tmp_path):
        # the sidecar the pinned run wrote while scene documents still held
        # route_polygon_m and agents[].is_static
        scene, vocab = pinned_run()
        path = tmp_path / "matrix.bin"
        score_vocabulary([scene], vocab, checkpoint=path)
        done = tmp_path / "matrix.bin.done"
        done.write_text(f"sha256:{OLD_PINNED_FINGERPRINT}\n0\n")
        with pytest.raises(ValueError, match="written for other scenes, vocabulary or configs"):
            score_vocabulary([scene], vocab, checkpoint=path)


class TestSelectPseudoTeachers:
    def _vocab(self, k=100):
        t = 0.5 * (np.arange(8) + 1)
        centers = [traj_from_xy(np.stack([10 * t, np.full(8, 0.1 * i)], axis=1)) for i in range(k)]
        return Vocabulary(np.stack([c.poses for c in centers]), seed=0, inertia=0.0)

    def test_no_candidates_empty_set(self):
        vocab = self._vocab(8)
        out = select_pseudo_teachers(np.zeros(8), vocab, DistillConfig(), "s0")
        assert len(out) == 0

    def test_under_quota_returns_all_in_index_order(self):
        vocab = self._vocab(8)
        row = np.zeros(8)
        row[[6, 1, 4]] = [0.97, 0.99, 0.95]
        out = select_pseudo_teachers(row, vocab, DistillConfig(n_pseudo=4), "s0")
        assert out.source_indices == (1, 4, 6)
        assert out.scores == (0.99, 0.95, 0.97)
        assert all(s >= 0.95 for s in out.scores)

    def test_seeded_draw_reproducible(self):
        vocab = self._vocab()
        row = np.full(100, 0.99)
        cfg = DistillConfig(rng_seed=7)
        a = select_pseudo_teachers(row, vocab, cfg, "scene-42")
        b = select_pseudo_teachers(row, vocab, cfg, "scene-42")
        assert a.source_indices == b.source_indices
        assert len(a) == 4
        c = select_pseudo_teachers(row, vocab, DistillConfig(rng_seed=8), "scene-42")
        assert a.source_indices != c.source_indices or True  # different seed may differ

    def test_scene_id_decorrelates_draws(self):
        vocab = self._vocab()
        row = np.full(100, 0.99)
        cfg = DistillConfig(rng_seed=7)
        draws = {select_pseudo_teachers(row, vocab, cfg, f"s{i}").source_indices for i in range(30)}
        assert len(draws) > 20

    def test_uniform_inclusion_frequency(self):
        # 100 candidates, quota 4, 10^4 reseeded draws: inclusion counts must
        # stay within 3 sigma of the binomial expectation (deterministic seeds)
        vocab = self._vocab()
        row = np.full(100, 0.99)
        counts = np.zeros(100)
        n_draws = 10_000
        for seed in range(n_draws):
            out = select_pseudo_teachers(row, vocab, DistillConfig(rng_seed=seed), "freq")
            counts[list(out.source_indices)] += 1
        p = 4 / 100
        mean = n_draws * p
        sigma = (n_draws * p * (1 - p)) ** 0.5
        assert np.all(np.abs(counts - mean) <= 3 * sigma)

    def test_row_length_checked(self):
        with pytest.raises(ValueError):
            select_pseudo_teachers(np.zeros(5), self._vocab(8), DistillConfig(), "s")


class TestSelfConsistency:
    def test_selected_teachers_rescore_identically(self, small_world, tmp_path):
        scenes, vocab = small_world
        matrix = score_vocabulary(scenes, vocab, checkpoint=tmp_path / "matrix.bin")
        cfg = DistillConfig(threshold=0.5, n_pseudo=3, rng_seed=1)
        for i, scene in enumerate(scenes):
            ts = select_pseudo_teachers(matrix.values[i], vocab, cfg, scene.scene_id)
            if not len(ts):
                continue
            sub_vocab = Vocabulary(vocab.poses[list(ts.source_indices)], seed=0, inertia=0.0)
            again = score_scene_row(scene, sub_vocab)
            assert np.allclose(again, np.asarray(ts.scores), atol=1e-12)
            assert all(s >= cfg.threshold for s in ts.scores)


class TestPersistence:
    def test_nan_score_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ScoreMatrix(("a",), np.array([[np.nan, 0.2]]))

    @pytest.mark.parametrize("make, message", [
        (lambda: ScoreMatrix(("a",), np.zeros((2, 3))), "values must be (n_scenes, k)"),
        (lambda: ScoreMatrix(("a",), np.zeros(3)), "values must be (n_scenes, k)"),
        (lambda: PseudoTeacherSet("s", (1, 2), (0.97,)), "teacher fields must have equal lengths"),
    ], ids=["matrix-rows", "matrix-ndim", "teachers"])
    def test_record_shape_checked(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(32)
        m = ScoreMatrix(scene_ids=("a", "b", "c"), values=rng.uniform(0, 1, (3, 5)))
        path = tmp_path / "m.bin"
        save_score_matrix(m, path)
        again = load_score_matrix(path)
        assert np.array_equal(again.values, m.values)
        assert again.scene_ids == ("0", "1", "2")  # the file holds no ids

    @pytest.mark.parametrize("raw, message", [
        (b"TSCR", "truncated score matrix"),
        (b"XXXX" + bytes(12), "bad magic b'XXXX', expected b'TSCR'"),
        (b"TSCR" + (2).to_bytes(4, "little") + bytes(8), "unsupported score-matrix version 2"),
        (b"TSCR" + (1).to_bytes(4, "little") + (1).to_bytes(4, "little") + (2).to_bytes(4, "little") + bytes(8),
         "size 24 does not match header"),
    ], ids=["truncated", "magic", "version", "size"])
    def test_matrix_file_error_named(self, tmp_path, raw, message):
        path = tmp_path / "m.bin"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_score_matrix(path)

    def test_teacher_sets_round_trip(self, small_world, tmp_path):
        _, vocab = small_world
        sets = [
            PseudoTeacherSet("s0", (1, 3), (0.97, 0.96)),
            PseudoTeacherSet("s1", (), ()),
        ]
        path = tmp_path / "teachers.txt"
        save_teacher_sets(sets, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records == [
            {"scene_id": "s0", "indices": [1, 3], "scores": [0.97, 0.96]},
            {"scene_id": "s1", "indices": [], "scores": []},
        ]
