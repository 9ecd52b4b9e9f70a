import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import trajsim
from trajsim.cli import main
from trajsim.kinematics import Trajectory
from trajsim.scene_io import (
    SyntheticSpec,
    generate_scene,
    save_proposal_set,
    save_scene,
    save_trajectory_map,
    straight_plan,
)


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

    def test_missing_dir_fails(self, tmp_path, capsys):
        code = main(["score", "--scenes", str(tmp_path / "nope"), "--traj", "human",
                     "--out", str(tmp_path / "r.json")])
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_idempotent_bytes(self, clean_dir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["score", "--scenes", str(clean_dir), "--traj", "human", "--out", str(a)])
        main(["score", "--scenes", str(clean_dir), "--traj", "human", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


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

    def test_k_exceeding_corpus_surfaces_module_error(self, tmp_path, capsys):
        d = tmp_path / "scenes"
        write_scenes(d, [("clean_straight", 0)])
        code = main(["build-vocab", "--scenes", str(d), "--k", "5", "--seed", "0",
                     "--out", str(tmp_path / "v.bin")])
        assert code != 0
        err = capsys.readouterr().err
        assert "corpus has 1 trajectories but k=5" in err


    @pytest.mark.parametrize("flag, value", [("--max-iters", "0"), ("--workers", "-3")])
    def test_invalid_kmeans_argument_fails_with_one_error_line(self, tmp_path, capsys, flag, value):
        d = tmp_path / "scenes"
        write_scenes(d, [("clean_straight", s) for s in range(3)])
        out = tmp_path / "v.bin"
        code = main(["build-vocab", "--scenes", str(d), "--k", "2", "--seed", "0", "--out", str(out), flag, value])
        assert code == 1
        name = flag[2:].replace("-", "_")
        assert only_error_line(capsys) == f"error: {name} must be >= 1, got {value}"
        assert not out.exists()


class TestDistillCmd:
    def _vocab(self, tmp_path):
        d = tmp_path / "scenes"
        scenes = write_scenes(d, [("clean_straight", s) for s in range(2)] + [("parked_agent", 2)])
        vocab_path = tmp_path / "vocab.bin"
        main(["build-vocab", "--scenes", str(d), "--k", "3", "--seed", "1", "--out", str(vocab_path)])
        return d, vocab_path

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

    def test_env_var_sets_default_workers(self, tmp_path, monkeypatch, capsys):
        d, vocab_path = self._vocab(tmp_path)
        monkeypatch.setenv("TRAJSIM_THREADS", "2")
        out = tmp_path / "m.bin"
        code = main(["distill", "--scenes", str(d), "--vocab", str(vocab_path), "--seed", "5",
                     "--out", str(out), "--teachers", str(tmp_path / "t.txt"),
                     "--report", str(tmp_path / "r.json")])
        assert code == 0
        assert json.loads((tmp_path / "r.json").read_text())["workers"] == 2

    def test_workers_flag_beats_env(self, tmp_path, monkeypatch):
        d, vocab_path = self._vocab(tmp_path)
        monkeypatch.setenv("TRAJSIM_THREADS", "4")
        out = tmp_path / "m.bin"
        code = main(["distill", "--scenes", str(d), "--vocab", str(vocab_path), "--seed", "5",
                     "--workers", "1", "--out", str(out), "--teachers", str(tmp_path / "t.txt"),
                     "--report", str(tmp_path / "r.json")])
        assert code == 0
        assert json.loads((tmp_path / "r.json").read_text())["workers"] == 1

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

    @pytest.mark.parametrize("env, message", [
        ("0", "TRAJSIM_THREADS must be >= 1, got 0"),
        ("-2", "TRAJSIM_THREADS must be >= 1, got -2"),
        ("abc", "TRAJSIM_THREADS must be an integer, got 'abc'"),
    ])
    def test_bad_env_workers_fail_with_one_error_line(self, tmp_path, monkeypatch, capsys, env, message):
        d, vocab_path = self._vocab(tmp_path)
        capsys.readouterr()
        monkeypatch.setenv("TRAJSIM_THREADS", env)
        out = tmp_path / "m.bin"
        code = main(["distill", "--scenes", str(d), "--vocab", str(vocab_path), "--seed", "5",
                     "--out", str(out), "--teachers", str(tmp_path / "t.txt")])
        assert code == 1
        assert only_error_line(capsys) == f"error: {message}"
        assert not out.exists()

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
        assert report["workers"] == 1
        assert report["evals_per_s"] > 0


class TestSelectCmd:
    PROPS = [straight_plan(10.0), straight_plan(6.0)]

    def _run(self, tmp_path, frame_ids, score_ids):
        """select over 3 clean scenes, with frames and scores for the given scene ids."""
        d = tmp_path / "scenes"
        d.mkdir()
        for seed in range(3):
            scene = generate_scene(SyntheticSpec("clean_straight", seed=seed, params={"v0": 10.0}))
            save_scene(scene, d / f"{scene.scene_id}.json")
        frames = {
            "schema_version": 1,
            "frames": [{"scene_id": i, "proposals": [p.poses.tolist() for p in self.PROPS]} for i in frame_ids],
        }
        (tmp_path / "frames.json").write_text(json.dumps(frames))
        scores = {
            "schema_version": 1,
            "frames": [{"scene_id": i, "scores": [0.9, 0.6]} for i in score_ids],
        }
        (tmp_path / "scores.json").write_text(json.dumps(scores))
        out = tmp_path / "selected.txt"
        code = main(["select", "--scenes", str(d), "--proposals", str(tmp_path / "frames.json"),
                     "--scores", str(tmp_path / "scores.json"), "--out", str(out)])
        return code, out

    def test_frame_sequence(self, tmp_path):
        ids = [f"clean_straight-{seed:05d}" for seed in range(3)]
        code, out = self._run(tmp_path, ids, ids)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert all(line.split("\t")[1] == "0" for line in lines)

    @pytest.mark.parametrize("frame_ids, score_ids, message", [
        (["ghost"], ["ghost"], "frame references unknown scene 'ghost'"),
        (["clean_straight-00001"], ["clean_straight-00000"], "no scores for scene 'clean_straight-00001'"),
    ])
    def test_missing_scene_fails_with_one_error_line(self, tmp_path, capsys, frame_ids, score_ids, message):
        code, _ = self._run(tmp_path, frame_ids, score_ids)
        assert code == 1
        assert only_error_line(capsys) == f"error: {message}"


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
