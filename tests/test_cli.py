import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import trajsim
from trajsim import cli
from trajsim.cli import main
from trajsim.distill import ScoreMatrix, save_score_matrix
from trajsim.kinematics import Trajectory, ego_rollout
from trajsim.metrics import _corridor_cells
from trajsim.render import render_scene_svg
from trajsim.scene_io import (
    TEMPLATES,
    SyntheticSpec,
    generate_scene,
    save_proposal_set,
    save_scene,
    save_trajectory_map,
    straight_plan,
)
from trajsim.vocabulary import save_vocabulary

from scenes import OLD_PINNED_FINGERPRINT, pinned_run, rich_scene


def only_error_line(capsys) -> str:
    """The one line the command wrote to stderr, which must be an error line."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


def write_scenes(directory, specs):
    directory.mkdir(exist_ok=True)
    scenes = []
    for template, seed in specs:
        scene = generate_scene(SyntheticSpec(template, seed=seed))
        save_scene(scene, directory / f"{scene.scene_id}.json")
        scenes.append(scene)
    return scenes


def one_waypoint_scene(directory) -> Path:
    """A scene file in `directory` whose human plan holds one waypoint."""
    write_scenes(directory, [("clean_straight", 0)])
    bad = directory / "zz-one-waypoint.json"
    doc = json.loads((directory / "clean_straight-00000.json").read_text())
    del doc["human_trajectory_ego"]["waypoints"][1:]
    bad.write_text(json.dumps(doc))
    return bad


# a one-waypoint plan: what a file may hold and no Trajectory can
ONE_WAYPOINT = [[3.0, 0.0, 0.0]]


def write_doc(path, **fields) -> Path:
    """A JSON file at `path` of the current schema version with `fields`."""
    path.write_text(json.dumps({"schema_version": 1, **fields}))
    return path


def diversity_in_2gib_child(path) -> subprocess.CompletedProcess:
    """`trajsim diversity --proposals path` in a child process whose address space is limited to 2 GiB."""
    src = str(Path(trajsim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "OPENBLAS_NUM_THREADS": "1"}
    limit = 2 << 30
    child = ("import resource, sys; "
             f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, resource.getrlimit(resource.RLIMIT_AS)[1])); "
             "from trajsim.cli import main; sys.exit(main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", child, "diversity", "--proposals", str(path)],
                          capture_output=True, text=True, env=env)


@pytest.fixture
def clean_dir(tmp_path):
    d = tmp_path / "clean"
    write_scenes(d, [("clean_straight", s) for s in range(3)])
    return d


class TestScore:
    def test_clean_suite_human(self, clean_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["score", "--scenes", str(clean_dir), "--traj", "human", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["metric"] == "epdms"
        assert report["n_scenes"] == 3
        assert report["mean_epdms"] >= 0.95
        mean = sum(r["epdms"] for r in report["scenes"]) / len(report["scenes"])
        assert abs(mean - report["mean_epdms"]) <= 1e-12

    def test_v1_reports_pdms(self, clean_dir, tmp_path):
        out = tmp_path / "report.json"
        assert main(["score", "--scenes", str(clean_dir), "--traj", "human", "--out", str(out), "--v1"]) == 0
        report = json.loads(out.read_text())
        assert report["metric"] == "pdms"
        assert "mean_pdms" in report

    def test_adversarial_straight_plans_collide(self, tmp_path):
        d = tmp_path / "parked"
        scenes = write_scenes(d, [("parked_agent", s) for s in range(3)])
        tmap = tmp_path / "straight.json"
        save_trajectory_map({"*": straight_plan(9.0)}, tmap)
        out = tmp_path / "report.json"
        assert main(["score", "--scenes", str(d), "--traj", str(tmap), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert all(r["subscores"]["nc"] == 0.0 for r in report["scenes"])

    def test_trajectory_map_id_beats_wildcard(self, tmp_path):
        d = tmp_path / "scenes"
        scenes = write_scenes(d, [("clean_straight", 0), ("clean_straight", 1)])
        # scene 0 gets a stopped plan by id, everything else the human-speed one
        stopped = straight_plan(0.01)
        tmap = tmp_path / "map.json"
        save_trajectory_map({scenes[0].scene_id: stopped, "*": straight_plan(10.0)}, tmap)
        out = tmp_path / "report.json"
        assert main(["score", "--scenes", str(d), "--traj", str(tmap), "--out", str(out)]) == 0
        rows = {r["scene_id"]: r for r in json.loads(out.read_text())["scenes"]}
        # braking from the scene's initial speed still covers a few meters
        assert rows[scenes[0].scene_id]["subscores"]["ep"] < 0.4
        assert rows[scenes[1].scene_id]["subscores"]["ep"] > 0.8

    def test_trajectory_map_missing_scene_fails(self, tmp_path, capsys):
        d = tmp_path / "scenes"
        write_scenes(d, [("clean_straight", 0)])
        tmap = tmp_path / "map.json"
        save_trajectory_map({"some-other-id": straight_plan(10.0)}, tmap)
        code = main(["score", "--scenes", str(d), "--traj", str(tmap), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert only_error_line(capsys) == "error: no trajectory for scene 'clean_straight-00000' (and no '*' default)"

    def test_non_object_json_fails_without_traceback(self, clean_dir, tmp_path, capsys):
        tmap = tmp_path / "trajs.json"
        tmap.write_text("[]")
        code = main(["score", "--scenes", str(clean_dir), "--traj", str(tmap), "--out", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "trajs.json" in err and "Traceback" not in err

    def test_trajectories_of_wrong_type_fail_with_one_error_line(self, clean_dir, tmp_path, capsys):
        tmap = tmp_path / "trajs.json"
        tmap.write_text(json.dumps({"schema_version": 1, "trajectories": []}))
        code = main(["score", "--scenes", str(clean_dir), "--traj", str(tmap), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert only_error_line(capsys) == f"error: {tmap}: trajectories must be an object, not an array"

    def test_malformed_scene_named_in_error(self, clean_dir, tmp_path, capsys):
        bad = clean_dir / "zz-bad.json"
        doc = json.loads(next(clean_dir.glob("*.json")).read_text())
        doc["ego"]["init"]["speed_mps"] = "fast"
        bad.write_text(json.dumps(doc))
        code = main(["score", "--scenes", str(clean_dir), "--traj", "human", "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert only_error_line(capsys) == f"error: {bad}: ego.init.speed_mps must be a number, not a string"
        # the bad file sorts last: the scenes before it were scored, but no report is written
        assert not (tmp_path / "r.json").exists()

    def test_one_waypoint_human_plan_named_in_error(self, tmp_path, capsys):
        bad = one_waypoint_scene(tmp_path / "scenes")
        code = main(["score", "--scenes", str(tmp_path / "scenes"), "--traj", "human",
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert only_error_line(capsys) == (
            f"error: {bad}: human_trajectory_ego.waypoints: plan needs at least 2 waypoints, got 1"
        )

    def test_missing_dir_fails(self, tmp_path, capsys):
        code = main(["score", "--scenes", str(tmp_path / "nope"), "--traj", "human",
                     "--out", str(tmp_path / "r.json")])
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_report_in_a_missing_directory_named(self, clean_dir, tmp_path, capsys):
        out = tmp_path / "nope" / "r.json"
        assert main(["score", "--scenes", str(clean_dir), "--traj", "human", "--out", str(out)]) == 1
        assert only_error_line(capsys) == f"error: [Errno 2] No such file or directory: '{out}'"

    def test_idempotent_bytes(self, clean_dir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["score", "--scenes", str(clean_dir), "--traj", "human", "--out", str(a)])
        main(["score", "--scenes", str(clean_dir), "--traj", "human", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_human_plan_rolled_out_once_per_scene(self, tmp_path, monkeypatch):
        # --traj human scores the context's reference rollout; a map holding
        # each scene's human plan rolls it out again, to the same report bytes
        d = tmp_path / "scenes"
        scenes = write_scenes(d, [(template, 3) for template in TEMPLATES])
        tmap = tmp_path / "human-plans.json"
        save_trajectory_map({s.scene_id: s.human_trajectory for s in scenes}, tmap)
        calls = []
        monkeypatch.setattr(cli, "ego_rollout", lambda *args: calls.append(args) or ego_rollout(*args))
        human, mapped = tmp_path / "human.json", tmp_path / "mapped.json"
        assert main(["score", "--scenes", str(d), "--traj", "human", "--out", str(human)]) == 0
        assert not calls
        assert main(["score", "--scenes", str(d), "--traj", str(tmap), "--out", str(mapped)]) == 0
        assert len(calls) == len(scenes)
        assert human.read_bytes() == mapped.read_bytes()


class TestBuildVocab:
    def test_builds_and_saves(self, tmp_path, capsys):
        d = tmp_path / "scenes"
        write_scenes(d, [(t, s) for s in range(4) for t in ("clean_straight", "lane_drift")])
        out = tmp_path / "vocab.bin"
        code = main(["build-vocab", "--scenes", str(d), "--k", "4", "--seed", "3", "--out", str(out)])
        assert code == 0
        from trajsim.vocabulary import load_vocabulary

        vocab = load_vocabulary(out)
        assert vocab.k == 4 and vocab.seed == 3

    def test_one_waypoint_human_plan_named_in_error(self, tmp_path, capsys):
        bad = one_waypoint_scene(tmp_path / "scenes")
        out = tmp_path / "v.bin"
        code = main(["build-vocab", "--scenes", str(tmp_path / "scenes"), "--k", "1", "--seed", "0", "--out", str(out)])
        assert code == 1
        assert only_error_line(capsys) == (
            f"error: {bad}: human_trajectory_ego.waypoints: plan needs at least 2 waypoints, got 1"
        )
        assert not out.exists()

    def test_k_exceeding_corpus_surfaces_module_error(self, tmp_path, capsys):
        d = tmp_path / "scenes"
        write_scenes(d, [("clean_straight", 0)])
        code = main(["build-vocab", "--scenes", str(d), "--k", "5", "--seed", "0",
                     "--out", str(tmp_path / "v.bin")])
        assert code != 0
        err = capsys.readouterr().err
        assert "corpus has 1 trajectories but k=5" in err


    @pytest.mark.parametrize("seed", ["-3", str(2**63)])
    def test_unstorable_seed_fails_with_one_error_line(self, tmp_path, capsys, seed):
        d = tmp_path / "scenes"
        write_scenes(d, [("clean_straight", s) for s in range(3)])
        out = tmp_path / "v.bin"
        code = main(["build-vocab", "--scenes", str(d), "--k", "2", "--seed", seed, "--out", str(out)])
        assert code == 1
        assert only_error_line(capsys) == f"error: seed must be an integer in [0, 2**63), got {seed}"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--max-iters", "0")])
    def test_invalid_kmeans_argument_fails_with_one_error_line(self, tmp_path, capsys, flag, value):
        d = tmp_path / "scenes"
        write_scenes(d, [("clean_straight", s) for s in range(3)])
        out = tmp_path / "v.bin"
        code = main(["build-vocab", "--scenes", str(d), "--k", "2", "--seed", "0", "--out", str(out), flag, value])
        assert code == 1
        name = flag[2:].replace("-", "_")
        assert only_error_line(capsys) == f"error: {name} must be >= 1, got {value}"
        assert not out.exists()

    def test_takes_no_worker_count(self, tmp_path, capsys):
        # clustering runs in one thread; distill's --workers is the only pool size
        with pytest.raises(SystemExit) as exit_info:
            main(["build-vocab", "--scenes", str(tmp_path), "--k", "2", "--seed", "0",
                  "--out", str(tmp_path / "v.bin"), "--workers", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_plan_of_another_waypoint_count_named_in_error(self, tmp_path, capsys):
        d = tmp_path / "scenes"
        write_scenes(d, [("clean_straight", s) for s in range(3)])
        doc = json.loads((d / "clean_straight-00002.json").read_text())
        del doc["human_trajectory_ego"]["waypoints"][6:]
        (d / "clean_straight-00002.json").write_text(json.dumps(doc))
        out = tmp_path / "v.bin"
        code = main(["build-vocab", "--scenes", str(d), "--k", "2", "--seed", "0", "--out", str(out)])
        assert code == 1
        assert only_error_line(capsys) == (
            "error: scene 'clean_straight-00002': corpus trajectories must share one waypoint count: "
            "items[2] has 6 waypoints, items[0] has 8"
        )
        assert not out.exists()


class TestDistillCmd:
    def _vocab(self, tmp_path):
        d = tmp_path / "scenes"
        scenes = write_scenes(d, [("clean_straight", s) for s in range(2)] + [("parked_agent", 2)])
        vocab_path = tmp_path / "vocab.bin"
        main(["build-vocab", "--scenes", str(d), "--k", "3", "--seed", "1", "--out", str(vocab_path)])
        return d, vocab_path

    @pytest.mark.parametrize("k, m, message", [
        (3, 8, "centers[1]: trajectory waypoints must be finite"),
        (0, 8, "k must be >= 1, got 0"),
        (3, 1, "m must be >= 2 waypoints, got 1"),
    ])
    def test_bad_vocabulary_fails_with_one_error_line_naming_the_file(self, tmp_path, capsys, k, m, message):
        d = tmp_path / "scenes"
        write_scenes(d, [("clean_straight", 0)])
        poses = np.zeros((k, m, 3))
        poses[:, :, 0] = np.arange(m)
        if k == 3 and m == 8:
            poses[1, 4, 1] = np.nan
        vocab_path = tmp_path / "vocab.bin"
        vocab_path.write_bytes(struct.pack("<4sIIIq", b"TVOC", 1, k, m, 0) + poses.astype("<f8").tobytes())
        code = main(["distill", "--scenes", str(d), "--vocab", str(vocab_path), "--seed", "5",
                     "--out", str(tmp_path / "m.bin"), "--teachers", str(tmp_path / "t.txt")])
        assert code == 1
        assert only_error_line(capsys) == f"error: {vocab_path}: {message}"

    def test_worker_counts_identical_bytes(self, tmp_path):
        d, vocab_path = self._vocab(tmp_path)
        outs = []
        for w, name in ((1, "m1.bin"), (2, "m2.bin")):
            out = tmp_path / name
            code = main(["distill", "--scenes", str(d), "--vocab", str(vocab_path),
                         "--seed", "5", "--workers", str(w), "--out", str(out),
                         "--teachers", str(tmp_path / f"t{w}.txt")])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert (tmp_path / "t1.txt").read_bytes() == (tmp_path / "t2.txt").read_bytes()

    @pytest.mark.parametrize("workers", ["-3", "0"])
    def test_workers_below_one_fail_with_one_error_line(self, tmp_path, capsys, workers):
        d, vocab_path = self._vocab(tmp_path)
        capsys.readouterr()
        out = tmp_path / "m.bin"
        code = main(["distill", "--scenes", str(d), "--vocab", str(vocab_path), "--seed", "5",
                     "--workers", workers, "--out", str(out), "--teachers", str(tmp_path / "t.txt")])
        assert code == 1
        assert only_error_line(capsys) == f"error: workers must be >= 1, got {workers}"
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_center_placed_out_of_range_named_with_its_scene(self, tmp_path, capsys, workers):
        d = tmp_path / "scenes"
        write_scenes(d, [("clean_straight", s) for s in range(3)])
        poses = np.zeros((3, 8, 3))
        poses[:, :, 0] = np.arange(8)
        poses[2, 7, :2] = 1e9  # a valid center, out of range once placed at the ego pose
        vocab_path = tmp_path / "vocab.bin"
        vocab_path.write_bytes(struct.pack("<4sIIIq", b"TVOC", 1, 3, 8, 0) + poses.astype("<f8").tobytes())
        code = main(["distill", "--scenes", str(d), "--vocab", str(vocab_path), "--seed", "5", "--workers", workers,
                     "--out", str(tmp_path / "m.bin"), "--teachers", str(tmp_path / "t.txt")])
        assert code == 1
        assert only_error_line(capsys) == (
            "error: scene 'clean_straight-00000', centers[2]: trajectory waypoints must be at most 1e+09 in magnitude"
        )

    # the 3 scenes have indices 0, 1 and 2; a matrix file is cut to a length,
    # or the sidecar gets one bad line after its fingerprint
    @pytest.mark.parametrize("damaged, content", [
        ("matrix", 10), ("matrix", 40), ("done", "x1"), ("done", "3"), ("done", "-1"),
    ])
    def test_damaged_checkpoint_fails_with_one_error_line_naming_the_file(self, tmp_path, capsys, damaged, content):
        d, vocab_path = self._vocab(tmp_path)
        out = tmp_path / "m.bin"
        done = tmp_path / "m.bin.done"
        args = ["distill", "--scenes", str(d), "--vocab", str(vocab_path), "--seed", "5",
                "--out", str(out), "--teachers", str(tmp_path / "t.txt")]
        assert main(args) == 0
        capsys.readouterr()
        if damaged == "matrix":
            out.write_bytes(out.read_bytes()[:content])
            named = out
        else:
            fingerprint = done.read_text().splitlines()[0]
            done.write_text(f"{fingerprint}\n0\n{content}\n")
            named = done
        assert main(args) == 1
        assert only_error_line(capsys).startswith(f"error: {named}: ")

    def test_checkpoint_of_the_format_with_dropped_scene_keys_refused(self, tmp_path, capsys):
        # a checkpoint of the pinned run as written while scene documents held
        # route_polygon_m and agents[].is_static: refused, and nothing written
        scene, vocab = pinned_run()
        d = tmp_path / "scenes"
        d.mkdir()
        save_scene(scene, d / "pinned.json")
        vocab_path = tmp_path / "vocab.bin"
        save_vocabulary(vocab, vocab_path)
        out, done, teachers = tmp_path / "m.bin", tmp_path / "m.bin.done", tmp_path / "t.txt"
        save_score_matrix(ScoreMatrix(("pinned",), np.full((1, vocab.k), 0.5)), out)
        done.write_text(f"sha256:{OLD_PINNED_FINGERPRINT}\n0\n")
        stale = out.read_bytes()
        code = main(["distill", "--scenes", str(d), "--vocab", str(vocab_path), "--seed", "5",
                     "--out", str(out), "--teachers", str(teachers)])
        assert code == 1
        assert only_error_line(capsys).startswith(
            f"error: {out}: existing checkpoint was written for other scenes, vocabulary or configs")
        assert out.read_bytes() == stale and not teachers.exists()

    def test_rerun_resumes_identically(self, tmp_path, capsys):
        d, vocab_path = self._vocab(tmp_path)
        out = tmp_path / "m.bin"
        args = ["distill", "--scenes", str(d), "--vocab", str(vocab_path), "--seed", "5",
                "--out", str(out), "--teachers", str(tmp_path / "t.txt"),
                "--report", str(tmp_path / "report.json")]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0  # resumes from the completed checkpoint
        assert out.read_bytes() == first
        report = json.loads((tmp_path / "report.json").read_text())
        assert (report["workers"], report["evals_per_s"]) == (0, 0.0)  # nothing was left to score

    def test_resumed_rows_are_not_counted_as_scored(self, tmp_path, capsys):
        d, vocab_path = self._vocab(tmp_path)
        capsys.readouterr()
        out = tmp_path / "m.bin"
        report_path = tmp_path / "report.json"
        args = ["distill", "--scenes", str(d), "--vocab", str(vocab_path), "--seed", "5", "--workers", "2",
                "--out", str(out), "--teachers", str(tmp_path / "t.txt"), "--report", str(report_path)]
        assert main(args) == 0
        first = out.read_bytes()
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("scored 3 scenes x 3 centers (9 evals) in ")
        assert lines[0].endswith(" per worker (2 workers)") and ", 0 resumed from the checkpoint: " in lines[0]

        # keep only row 0 in the sidecar: the rerun scores rows 1 and 2
        done = tmp_path / "m.bin.done"
        done.write_text("\n".join(done.read_text().splitlines()[:1] + ["0"]) + "\n")
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("scored 2 scenes x 3 centers (6 evals) in ")
        assert ", 1 resumed from the checkpoint: " in lines[0] and lines[0].endswith(" (2 workers)")
        report = json.loads(report_path.read_text())
        assert (report["scored_scenes"], report["resumed_scenes"], report["workers"]) == (2, 1, 2)
        assert report["evals_per_s"] > 0

        # every row resumed: nothing scored, no worker used
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("scored 0 scenes x 3 centers (0 evals) in ")
        assert lines[0].endswith(", 3 resumed from the checkpoint: 0 evals/s total, 0 per worker (0 workers)")
        report = json.loads(report_path.read_text())
        assert (report["scored_scenes"], report["resumed_scenes"], report["workers"]) == (0, 3, 0)
        assert report["evals_per_s"] == 0.0 and report["evals_per_s_per_worker"] == 0.0
        assert out.read_bytes() == first


class TestSelectCmd:
    PROPS = [straight_plan(10.0), straight_plan(6.0)]

    def _run(self, tmp_path, frame_ids, score_ids, props=PROPS, frame_gap=5, scores=None):
        """select over 3 clean scenes, with frames and scores for the given scene ids; each score
        vector is `scores[i]`, given as JSON text, if given, else [0.9, 0.6]."""
        d = tmp_path / "scenes"
        d.mkdir()
        for seed in range(3):
            scene = generate_scene(SyntheticSpec("clean_straight", seed=seed, params={"v0": 10.0}))
            save_scene(scene, d / f"{scene.scene_id}.json")
        frames = {
            "schema_version": 1,
            "frames": [{"scene_id": i, "proposals": [p.poses.tolist() for p in props]} for i in frame_ids],
        }
        (tmp_path / "frames.json").write_text(json.dumps(frames))
        scores = scores or ["[0.9, 0.6]"] * len(score_ids)
        score_frames = ", ".join(f'{{"scene_id": {json.dumps(i)}, "scores": {v}}}' for i, v in zip(score_ids, scores))
        (tmp_path / "scores.json").write_text(f'{{"schema_version": 1, "frames": [{score_frames}]}}')
        out = tmp_path / "selected.txt"
        code = main(["select", "--scenes", str(d), "--proposals", str(tmp_path / "frames.json"),
                     "--scores", str(tmp_path / "scores.json"), "--out", str(out), "--frame-gap", str(frame_gap)])
        return code, out

    def test_frame_sequence(self, tmp_path):
        ids = [f"clean_straight-{seed:05d}" for seed in range(3)]
        code, out = self._run(tmp_path, ids, ids)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert all(line.split("\t")[1] == "0" for line in lines)

    @pytest.mark.parametrize("frame_ids, score_ids, message", [
        (["ghost"], ["ghost"], "frame references scene 'ghost', which no file in {scenes} holds"),
        (["clean_straight-00001"], ["clean_straight-00000"], "no scores for scene 'clean_straight-00001' in {scores}"),
    ])
    def test_missing_scene_fails_with_one_error_line(self, tmp_path, capsys, frame_ids, score_ids, message):
        # named by the proposal file's field that holds the scene id
        code, out = self._run(tmp_path, frame_ids, score_ids)
        assert code == 1 and not out.exists()
        message = message.format(scenes=tmp_path / "scenes", scores=tmp_path / "scores.json")
        assert only_error_line(capsys) == f"error: {tmp_path / 'frames.json'}: frames[0].scene_id: {message}"

    @pytest.mark.parametrize("bad, message", [
        ("[0.9]", "scores must align one-to-one with proposals"),
        ("[0.9, 0.6, 0.3]", "scores must align one-to-one with proposals"),
        ("[1e400, 0.1]", "scores must lie in [0, 1]"),
        ("[0.9, -0.5]", "scores must lie in [0, 1]"),
    ])
    def test_scores_that_do_not_fit_their_frame_fail_naming_the_score_field(self, tmp_path, capsys, bad, message):
        # the score file holds one more scene and another order, so its index is not the frame's
        ids = ["clean_straight-00000", "clean_straight-00001"]
        score_ids = ["parked_agent-00000", *ids[::-1]]
        code, out = self._run(tmp_path, ids, score_ids, scores=["[0.9, 0.6]", "[0.9, 0.6]", bad])
        assert code == 1 and not out.exists()
        assert only_error_line(capsys) == f"error: {tmp_path / 'scores.json'}: frames[2].scores: {message}"

    def test_frame_without_proposals_fails_naming_the_proposals_field(self, tmp_path, capsys):
        ids = ["clean_straight-00000"]
        code, out = self._run(tmp_path, ids, ids, props=[])
        assert code == 1 and not out.exists()
        assert only_error_line(capsys) == (
            f"error: {tmp_path / 'frames.json'}: frames[0].proposals: need at least one proposal"
        )

    def test_one_waypoint_proposal_fails_with_one_error_line(self, tmp_path, capsys):
        # the losing proposal: refused where the file is read, before any rollout
        ids = ["clean_straight-00000", "clean_straight-00001"]
        one = SimpleNamespace(poses=np.array(ONE_WAYPOINT))
        code, out = self._run(tmp_path, ids, ids, props=[straight_plan(10.0), one])
        assert code == 1 and not out.exists()
        assert only_error_line(capsys) == (
            f"error: {tmp_path / 'frames.json'}: frames[0].proposals[1]: plan needs at least 2 waypoints, got 1"
        )

    def test_scene_id_held_by_two_scene_files_fails_with_one_error_line(self, tmp_path, capsys):
        d = tmp_path / "scenes"
        write_scenes(d, [("clean_straight", 0)])
        (d / "zz-copy.json").write_bytes((d / "clean_straight-00000.json").read_bytes())
        scene_id = "clean_straight-00000"
        plan = straight_plan(10.0).poses.tolist()
        write_doc(tmp_path / "frames.json", frames=[{"scene_id": scene_id, "proposals": [plan]}])
        write_doc(tmp_path / "scores.json", frames=[{"scene_id": scene_id, "scores": [0.9]}])
        out = tmp_path / "selected.txt"
        code = main(["select", "--scenes", str(d), "--proposals", str(tmp_path / "frames.json"),
                     "--scores", str(tmp_path / "scores.json"), "--out", str(out)])
        assert code == 1 and not out.exists()
        assert only_error_line(capsys) == f"error: {d}: two scene files hold scene_id 'clean_straight-00000'"

    def test_scene_id_scored_twice_fails_with_one_error_line(self, tmp_path, capsys):
        ids = ["clean_straight-00000"]
        code, out = self._run(tmp_path, ids, ids * 2)
        assert code == 1 and not out.exists()
        assert only_error_line(capsys) == (
            f"error: {tmp_path / 'scores.json'}: frames[1].scene_id: scene 'clean_straight-00000' already has scores"
        )

    @pytest.mark.parametrize("frame, scores", [(0, [0.6, 0.9]), (1, [0.9, 0.6])])
    def test_proposal_placed_out_of_range_fails_naming_it(self, tmp_path, capsys, frame, scores):
        # proposals[1] is in range in the ego frame, beyond 1e9 m once placed.
        # Frame 0 has no previous rollout, so only the rollout of its winner
        # places it; frame 1 starts at frame 0's winner 5 ticks in, so
        # comfort places every proposal
        far = [[1e9, 1e9, 0.0], [1e9, 1e9 - 1.0, 0.0]]
        good = straight_plan(10.0)
        first = generate_scene(SyntheticSpec("clean_straight", seed=0))
        second = dataclasses.replace(first, scene_id="next",
                                     ego_init=ego_rollout(good, first.ego_init).state(5))
        d = tmp_path / "scenes"
        d.mkdir()
        for scene in (first, second):
            save_scene(scene, d / f"{scene.scene_id}.json")
        ids = [first.scene_id, second.scene_id]
        write_doc(tmp_path / "frames.json",
                  frames=[{"scene_id": i, "proposals": [good.poses.tolist(), far]} for i in ids])
        write_doc(tmp_path / "scores.json",
                  frames=[{"scene_id": i, "scores": scores if j == frame else [0.9, 0.6]} for j, i in enumerate(ids)])
        out = tmp_path / "selected.txt"
        code = main(["select", "--scenes", str(d), "--proposals", str(tmp_path / "frames.json"),
                     "--scores", str(tmp_path / "scores.json"), "--out", str(out)])
        assert code == 1 and not out.exists()
        assert only_error_line(capsys) == (f"error: {tmp_path / 'frames.json'}: frames[{frame}].proposals[1]: "
                                           "trajectory waypoints must be at most 1e+09 in magnitude")

    @pytest.mark.parametrize("frame_gap", [0, 41])
    def test_frame_gap_without_overlap_fails_with_one_error_line(self, tmp_path, capsys, frame_gap):
        ids = ["clean_straight-00000"]
        code, out = self._run(tmp_path, ids, ids, frame_gap=frame_gap)
        assert code == 1 and not out.exists()
        assert only_error_line(capsys) == f"error: frame_gap must be in [1, 41), got {frame_gap}"


class TestDiversityCmd:
    def test_prints_d(self, tmp_path, capsys):
        t = 0.5 * (np.arange(8) + 1)
        a = Trajectory(np.stack([10 * t, np.zeros(8), np.zeros(8)], axis=1))
        b = Trajectory(np.stack([10 * t, np.full(8, 12.0), np.zeros(8)], axis=1))
        path = tmp_path / "props.json"
        save_proposal_set([a, b], path)
        assert main(["diversity", "--proposals", str(path)]) == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(0.5, abs=0.02)

    def test_proposals_of_wrong_type_fail_with_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "props.json"
        path.write_text(json.dumps({"schema_version": 1, "proposals": 5}))
        assert main(["diversity", "--proposals", str(path)]) == 1
        assert only_error_line(capsys) == f"error: {path}: proposals must be an array, not a number"

    def test_empty_proposal_set_fails_naming_the_file(self, tmp_path, capsys):
        path = write_doc(tmp_path / "props.json", proposals=[])
        assert main(["diversity", "--proposals", str(path)]) == 1
        assert only_error_line(capsys) == f"error: {path}: proposals must hold at least one proposal"

    def test_far_apart_proposals_take_no_memory_for_the_gap(self, tmp_path):
        # 1e7 m apart on both axes, within COORD_LIMIT_M: one boolean grid over both corridors
        # would take about 1.4 PiB, so the child, limited to 2 GiB, runs only if the union is
        # counted from the corridors' own cells
        t = 0.5 * (np.arange(8) + 1)
        near = Trajectory(np.stack([10 * t, np.zeros(8), np.zeros(8)], axis=1))
        far = Trajectory(near.poses + [1e7, 1e7, 0.0])
        path = tmp_path / "props.json"
        save_proposal_set([near, far], path)
        proc = diversity_in_2gib_child(path)
        assert proc.returncode == 0, proc.stderr[-2000:]
        # disjoint corridors: the union is the sum of the two
        c = [np.count_nonzero(_corridor_cells(p.xy)[1]) for p in (near, far)]
        assert proc.stdout == f"{1.0 - np.mean([ci / sum(c) for ci in c]):.6f}\n"

    def test_proposals_too_far_apart_for_memory_fail_with_one_error_line(self, tmp_path):
        # 1e6 m apart on both axes: the grid D is computed on needs far more than the child's
        # 2 GiB, so the run ends with one error line naming the file instead of numpy's traceback
        path = write_doc(tmp_path / "props.json", proposals=[[[0, 0, 0], [1e6, 1e6, 0]]])
        proc = diversity_in_2gib_child(path)
        assert proc.returncode == 1, proc.stderr[-2000:]
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("kind", ["scene", "trajectory map", "diversity", "render", "select"])
def test_every_file_kind_names_a_one_waypoint_plan(tmp_path, capsys, kind):
    d = tmp_path / "scenes"
    write_scenes(d, [("clean_straight", 0)])
    scene_id = "clean_straight-00000"
    good = straight_plan(10.0).poses.tolist()
    out = str(tmp_path / "out")
    if kind == "scene":
        bad, field = one_waypoint_scene(d), "human_trajectory_ego.waypoints"
        argv = ["score", "--scenes", str(d), "--traj", "human", "--out", out]
    elif kind == "trajectory map":
        bad, field = write_doc(tmp_path / "map.json", trajectories={"*": ONE_WAYPOINT}), "trajectories.*"
        argv = ["score", "--scenes", str(d), "--traj", str(bad), "--out", out]
    elif kind == "diversity":
        bad, field = write_doc(tmp_path / "one.json", proposals=[good, ONE_WAYPOINT]), "proposals[1]"
        argv = ["diversity", "--proposals", str(bad)]
    elif kind == "render":
        bad, field = write_doc(tmp_path / "one.json", proposals=[ONE_WAYPOINT]), "proposals[0]"
        argv = ["render", "--scene", str(d / f"{scene_id}.json"), "--trajs", str(bad), "--out", out]
    else:
        frames = [{"scene_id": scene_id, "proposals": [good]}, {"scene_id": scene_id, "proposals": [ONE_WAYPOINT]}]
        bad, field = write_doc(tmp_path / "frames.json", frames=frames), "frames[1].proposals[0]"
        scores = write_doc(tmp_path / "scores.json", frames=[{"scene_id": scene_id, "scores": [0.9]}])
        argv = ["select", "--scenes", str(d), "--proposals", str(bad), "--scores", str(scores), "--out", out]
    assert main(argv) == 1
    assert only_error_line(capsys) == f"error: {bad}: {field}: plan needs at least 2 waypoints, got 1"
    assert not Path(out).exists()


class TestRenderCmd:
    def test_svg_structure(self, tmp_path):
        scene = generate_scene(SyntheticSpec("parked_agent", seed=0))
        scene_path = tmp_path / "scene.json"
        save_scene(scene, scene_path)
        trajs = [straight_plan(8.0), straight_plan(5.0), scene.human_trajectory]
        tpath = tmp_path / "trajs.json"
        save_proposal_set(trajs, tpath)
        out = tmp_path / "scene.svg"
        assert main(["render", "--scene", str(scene_path), "--trajs", str(tpath), "--out", str(out)]) == 0
        root = ET.parse(out).getroot()
        assert root.tag.endswith("svg")
        paths = root.findall(".//{http://www.w3.org/2000/svg}path")
        assert len(paths) == len(trajs)

    def test_idempotent_bytes(self, tmp_path):
        scene = generate_scene(SyntheticSpec("red_light", seed=1))
        scene_path = tmp_path / "scene.json"
        save_scene(scene, scene_path)
        tpath = tmp_path / "trajs.json"
        save_proposal_set([straight_plan(7.0)], tpath)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["render", "--scene", str(scene_path), "--trajs", str(tpath), "--out", str(a)])
        main(["render", "--scene", str(scene_path), "--trajs", str(tpath), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


# SHA-256 of render_scene_svg's file for each scene with pinned_plans()
RENDER_PINS = {
    "rich-1": "80f758a6735d278bdca65fea310558e15eb97ddc85d90c20596bfcd586807402",
    "clean_straight": "f6d594f2570fda79778cde8d6c201db8b6c5b1907b089e1520255fae39bbe92f",
    "parked_agent": "e8d4e4a03973f19406f60b2a183f452ae020bcf96e99574a942612ad2b3c1f69",
    "crossing_agent": "eff90cfc805f656bcc319a1b03b41557096b1dcc9b99ec872e65ab82a51cdce2",
    "red_light": "e57294299067a64606de481764d6e85a038c125be3350699c036deace7b59d90",
    "oncoming_lane": "f5cae4b9fc5b5e0255993534991eb974a42e922da16ffd7a2fd4ad5f0534b775",
    "lane_drift": "88f068fc356a28be1f4fdff84913c2ea317c0e6180d3bb97a810a2bb3151d341",
}


def pinned_plans():
    """Three fixed ego-frame plans: straight at two speeds, and a left arc
    of radius 20 m."""
    psi = 0.15 * (np.arange(8) + 1)
    arc = np.column_stack([20.0 * np.sin(psi), 20.0 * (1.0 - np.cos(psi)), psi])
    return [straight_plan(8.0), straight_plan(3.0), Trajectory(arc)]


@pytest.mark.parametrize("name", RENDER_PINS)
def test_render_bytes_pinned(name, tmp_path):
    scene = rich_scene(1) if name == "rich-1" else generate_scene(SyntheticSpec(name, seed=2))
    out = tmp_path / "scene.svg"
    render_scene_svg(scene, pinned_plans(), out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RENDER_PINS[name]


class TestEntryPoint:
    def test_console_script_usage_error(self):
        # the child imports the same trajsim as this test, not an installed copy
        src = str(Path(trajsim.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "trajsim.cli", "score"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode != 0
        assert "usage" in proc.stderr.lower() or "required" in proc.stderr.lower()


# the generated scenes whose bytes numpy's AVX-512 arctan2 changed; seeds 0-1
# of every template are the same at both levels, so they would show nothing
LEVEL_SENSITIVE_SCENES = [("parked_agent", 17), ("parked_agent", 18), ("parked_agent", 49), ("oncoming_lane", 18),
                          ("oncoming_lane", 20), ("oncoming_lane", 31), ("oncoming_lane", 39)]
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")  # numpy 2.4's names for its AVX-512 dispatch targets


def test_pipeline_bytes_do_not_depend_on_avx512(tmp_path):
    # scenes, build-vocab, distill, select and diversity in a child, once with
    # numpy's default dispatch and once with its AVX-512 targets disabled:
    # every file must have the same bytes
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        pytest.skip("numpy reports no dispatch targets")
    targets = [t for t in AVX512_TARGETS if t in __cpu_dispatch__ and __cpu_features__.get(t)]
    if not targets:
        pytest.skip("this CPU enables none of numpy's AVX-512 dispatch targets")
    child = f"""
import contextlib, json, sys
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_features__
from trajsim.cli import main
from trajsim.distill import load_score_matrix
from trajsim.scene_io import SyntheticSpec, generate_scene, save_proposal_set, save_scene
from trajsim.vocabulary import load_vocabulary

out = Path(sys.argv[1])
d = out / "scenes"
d.mkdir(parents=True)
scenes = sorted((generate_scene(SyntheticSpec(t, seed=s)) for t, s in {LEVEL_SENSITIVE_SCENES!r}), key=lambda s: s.scene_id)
for scene in scenes:
    save_scene(scene, d / f"{{scene.scene_id}}.json")
with contextlib.redirect_stdout(None):
    assert main(["build-vocab", "--scenes", str(d), "--k", "4", "--seed", "0", "--out", str(out / "vocab.bin"),
                 "--csv", str(out / "vocab.csv")]) == 0
    assert main(["distill", "--scenes", str(d), "--vocab", str(out / "vocab.bin"), "--seed", "0", "--threshold", "0.5",
                 "--out", str(out / "matrix.bin"), "--teachers", str(out / "teachers.jsonl")]) == 0
vocab, matrix = load_vocabulary(out / "vocab.bin"), load_score_matrix(out / "matrix.bin")
proposals = [p.tolist() for p in vocab.poses]
(out / "frames.json").write_text(json.dumps({{"schema_version": 1, "frames": [
    {{"scene_id": s.scene_id, "proposals": proposals}} for s in scenes]}}))
(out / "scores.json").write_text(json.dumps({{"schema_version": 1, "frames": [
    {{"scene_id": s.scene_id, "scores": row.tolist()}} for s, row in zip(scenes, matrix.values)]}}))
save_proposal_set(vocab.centers, out / "proposals.json")
with contextlib.redirect_stdout(None):
    assert main(["select", "--scenes", str(d), "--proposals", str(out / "frames.json"), "--scores",
                 str(out / "scores.json"), "--out", str(out / "selected.tsv")]) == 0
with open(out / "diversity.txt", "w") as f, contextlib.redirect_stdout(f):
    assert main(["diversity", "--proposals", str(out / "proposals.json")]) == 0
print(json.dumps([t for t in {targets!r} if __cpu_features__[t]]))
"""
    src = str(Path(trajsim.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if not k.startswith("NPY_")}
    env.update(PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), OPENBLAS_NUM_THREADS="1")
    files = {}
    for level, extra in (("default", {}), ("no-avx512", {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)})):
        proc = subprocess.run([sys.executable, "-c", child, str(tmp_path / level)],
                              capture_output=True, text=True, env={**env, **extra})
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout) == ([] if extra else targets)
        files[level] = {p.relative_to(tmp_path / level): p.read_bytes()
                        for p in sorted((tmp_path / level).rglob("*")) if p.is_file()}
    assert len(files["default"]) == 7 + 10  # the scenes and every output file
    assert files["default"] == files["no-avx512"], [p for p in files["default"]
                                                    if files["default"][p] != files["no-avx512"].get(p)]
