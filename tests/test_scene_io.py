import contextlib
import copy
import functools
import io
import json
import operator
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajsim.cli import main
from trajsim.geom import Pose
from trajsim.kinematics import pid_track, trajectory_to_world
from trajsim.vocabulary import TrajectoryCorpus
from trajsim.metrics import ScoreContext, aggregate_epdms, evaluate_rollout, score_nc, score_tlc
from trajsim.scene_io import (
    TEMPLATES,
    SceneFormatError,
    SyntheticSpec,
    generate_scene,
    load_proposal_frames,
    load_proposal_set,
    load_scene,
    load_scene_dir,
    load_score_frames,
    load_trajectory_map,
    save_proposal_set,
    save_scene,
    scene_from_doc,
    scene_to_doc,
    straight_plan,
)


def doc_json(scene) -> str:
    # float repr round-trips, so equal text means equal bits (and -0.0 shows)
    return json.dumps(scene_to_doc(scene))


@pytest.fixture
def scene():
    return generate_scene(SyntheticSpec("parked_agent", seed=12))


class TestRoundTrip:
    def test_save_load_equal(self, scene, tmp_path):
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        assert doc_json(load_scene(path)) == doc_json(scene)

    def test_serialization_byte_stable(self, scene, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_scene(scene, a)
        save_scene(scene, b)
        assert a.read_bytes() == b.read_bytes()

    def test_float_fields_bitwise(self, scene, tmp_path):
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        again = load_scene(path)
        assert np.array_equal(again.human_trajectory.poses, scene.human_trajectory.poses)
        assert again.ego_init.pose.x == scene.ego_init.pose.x
        assert np.array_equal(again.agents[0].poses, scene.agents[0].poses)


class TestValidation:
    def test_agent_with_40_ticks(self, scene):
        doc = scene_to_doc(scene)
        doc["agents"][0]["states"] = doc["agents"][0]["states"][:40]
        with pytest.raises(SceneFormatError) as err:
            scene_from_doc(doc)
        assert "states" in str(err.value)
        assert str(scene.agents[0].id) in str(err.value)

    def test_unknown_schema_version(self, scene):
        doc = scene_to_doc(scene)
        doc["schema_version"] = 99
        with pytest.raises(SceneFormatError) as err:
            scene_from_doc(doc)
        assert "schema_version" in str(err.value)

    def test_missing_field_named(self, scene):
        doc = scene_to_doc(scene)
        del doc["route_polyline_m"]
        with pytest.raises(SceneFormatError) as err:
            scene_from_doc(doc)
        assert "route_polyline_m" in str(err.value)

    def test_bad_phase_name(self, scene, tmp_path):
        doc = scene_to_doc(generate_scene(SyntheticSpec("red_light", seed=0)))
        doc["intersections"][0]["light"]["phase_per_tick"][3] = "purple"
        with pytest.raises(SceneFormatError):
            scene_from_doc(doc)

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SceneFormatError):
            load_scene(path)

    @pytest.mark.parametrize("loader", [
        load_scene, load_trajectory_map, load_proposal_set, load_proposal_frames, load_score_frames,
    ])
    @pytest.mark.parametrize("top", ["[1, 2]", "null"])
    def test_top_level_must_be_an_object(self, tmp_path, loader, top):
        path = tmp_path / "odd.json"
        path.write_text(top)
        with pytest.raises(SceneFormatError, match="odd.json: top-level JSON value must be an object"):
            loader(path)


NON_FINITE = [
    (("agents", 0, "states", 7, 1), float("nan"), "agent 'parked-0': states must be finite"),
    (("agents", 0, "half_length_m"), float("nan"), "agent 'parked-0': half_length"),
    (("agents", 0, "half_width_m"), float("inf"), "agent 'parked-0': half_width"),
    (("ego", "init", "x_m"), float("nan"), "ego.init: pose"),
    (("ego", "init", "speed_mps"), float("nan"), "ego.init: speed"),
    (("ego", "init", "accel_mps2"), float("nan"), "ego.init: acceleration"),
    (("ego", "init", "steer_rad"), float("inf"), "ego.init: steer"),
    (("ego", "history", 3, "speed_mps"), float("-inf"), "ego.history[3]: speed"),
    (("ego", "half_length_m"), float("nan"), "ego_half_length"),
    (("ego", "half_width_m"), float("inf"), "ego_half_width"),
]


def doc_with(scene, where, value) -> dict:
    """The document of `scene` with the value at path `where` replaced."""
    doc = scene_to_doc(scene)
    target = doc
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    return doc


def write_with(scene, path, where, value):
    """Save `scene` with one value replaced; json writes NaN and Infinity
    as the bare literals that its parser accepts back as floats."""
    text = json.dumps(doc_with(scene, where, value))
    assert "NaN" in text or "Infinity" in text
    path.write_text(text)


class TestNonFinite:
    @pytest.mark.parametrize("where, value, message", NON_FINITE)
    def test_rejected_naming_the_field(self, scene, tmp_path, where, value, message):
        path = tmp_path / "scene.json"
        write_with(scene, path, where, value)
        with pytest.raises(SceneFormatError, match=re.escape(message)):
            load_scene(path)

    def test_score_exits_1_without_traceback(self, scene, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        write_with(scene, scenes / "bad.json", ("agents", 0, "states", 0, 0), float("nan"))
        code = main(["score", "--scenes", str(scenes), "--traj", "human", "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "states must be finite" in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()


WRONG_TYPE = [
    (("ego", "init", "speed_mps"), "fast", "ego.init.speed_mps must be a number, not a string"),
    (("agents",), "x", "agents must be an array, not a string"),
    (("lanes",), [1], "lanes[0] must be an object, not a number"),
    (("ego", "half_length_m"), "2", "ego.half_length_m must be a number, not a string"),
]

MORE_WRONG_TYPES = [
    (("ego",), [], "ego must be an object, not an array"),
    (("ego", "history", 2), 5, "ego.history[2] must be an object, not a number"),
    (("ego", "init", "x_m"), True, "ego.init.x_m must be a number, not a boolean"),
    (("ego", "init", "steer_rad"), None, "ego.init.steer_rad must be a number, not null"),
    (("agents", 0, "states"), "x", "agents[0].states must be an array, not a string"),
    (("agents", 0, "states", 3, 1), "1.5", "agents[0].states must hold only numbers"),
    (("agents", 0, "is_static"), "no", "agents[0].is_static must be a boolean, not a string"),
    (("drivable_polygons_m", 0), {"x": 1}, "drivable_polygons_m[0] must be an array, not an object"),
    (("lanes", 0, "direction_sign"), "1", "lanes[0].direction_sign must be a number, not a string"),
    (("human_trajectory_ego",), [], "human_trajectory_ego must be an object, not an array"),
    (("scene_id",), 7, "scene_id must be a string, not a number"),
    (("human_trajectory_ego", "waypoints"), "x", "human_trajectory_ego.waypoints must be an array, not a string"),
    (("human_trajectory_ego", "waypoints"), [[1.0, 2.0]], "human_trajectory_ego.waypoints: trajectory needs an (M, 3)"),
]


class TestWrongJsonType:
    @pytest.mark.parametrize("where, value, message", WRONG_TYPE + MORE_WRONG_TYPES)
    def test_rejected_naming_the_field(self, scene, where, value, message):
        with pytest.raises(SceneFormatError, match=re.escape(message)):
            scene_from_doc(doc_with(scene, where, value))

    def test_missing_nested_field_named(self, scene):
        doc = scene_to_doc(scene)
        del doc["agents"][0]["half_width_m"]
        with pytest.raises(SceneFormatError, match=re.escape("agents[0]: missing field 'half_width_m'")):
            scene_from_doc(doc)

    @pytest.mark.parametrize("where, value, message", WRONG_TYPE)
    def test_score_exits_1_with_one_error_line(self, scene, tmp_path, capsys, where, value, message):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        (scenes / "bad.json").write_text(json.dumps(doc_with(scene, where, value)))
        code = main(["score", "--scenes", str(scenes), "--traj", "human", "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {scenes / 'bad.json'}: {message}"]
        assert not (tmp_path / "r.json").exists()


# Constructor errors name the field the constructor's input was read from.
UNNAMED_BY_CONSTRUCTOR = [
    (("route_polygon_m", 0, 0), float("nan"), "route_polygon_m: polygon vertices must be finite"),
    (("route_polyline_m",), [], "route_polyline_m: polyline needs at least 1 planar point"),
    (("drivable_polygons_m", 0), [[0.0, 0.0]], "drivable_polygons_m[0]: polygon needs at least 3 planar vertices"),
    (("drivable_polygons_m",), [], "drivable_polygons_m must hold at least one polygon"),
    (("lanes", 1, "centerline_m"), [[0.0, 0.0]], "lanes[1]: lane centerline needs at least 2 points"),
    (("lanes", 0, "centerline_m", 1, 0), float("inf"), "lanes[0].centerline_m: polyline points must be finite"),
    (("agents", 0, "half_width_m"), 0.0, "agents[0]: agent 'parked-0': half_width must be finite and positive"),
]


def fuzz_base(template):
    return scene_to_doc(generate_scene(SyntheticSpec(template, seed=1)))


# a parked agent, two lanes and a red light cover every kind of scene field
FUZZ_BASES = [fuzz_base("parked_agent"), fuzz_base("red_light")]


def value_paths(node, prefix=()):
    """The path of every value below `node` in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    paths = []
    for key, value in items:
        paths.append(prefix + (key,))
        paths.extend(value_paths(value, prefix + (key,)))
    return paths


@st.composite
def mutated_docs(draw):
    """(path, document): a valid scene document with the value at `path`
    replaced by a wrong JSON type, removed, nested one level deeper, made
    non-finite or emptied."""
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    path = draw(st.sampled_from(value_paths(doc)))
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    key, value = path[-1], parent[path[-1]]
    kind = draw(st.sampled_from(["type", "missing", "nesting", "non_finite", "empty"]))
    if kind == "missing":
        del parent[key]
    else:
        parent[key] = draw(st.sampled_from({
            "type": ["x", 7, -1.5, True, None, {}, [[0.5]]],
            "nesting": [[value], {"value": value}],
            "non_finite": [float("nan"), float("inf"), float("-inf")],
            "empty": [[], {}, ""],
        }[kind]))
    # through the text, as a scene file is read: json writes NaN and Infinity
    # as the bare literals its parser accepts back
    return path, json.loads(json.dumps(doc))


def score_stderr(doc):
    """(exit code, stderr lines) of `trajsim score` on a directory holding
    only the scene document `doc`."""
    with tempfile.TemporaryDirectory() as tmp:
        scenes = Path(tmp) / "scenes"
        scenes.mkdir()
        (scenes / "bad.json").write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["score", "--scenes", str(scenes), "--traj", "human", "--out", str(Path(tmp) / "r.json")])
    return code, err.getvalue().splitlines()


FUZZ = settings(max_examples=300, deadline=None, derandomize=True)


class TestMutatedDocument:
    @pytest.mark.parametrize("where, value, message", UNNAMED_BY_CONSTRUCTOR)
    def test_constructor_error_names_the_field(self, scene, where, value, message):
        with pytest.raises(SceneFormatError, match=re.escape(message)):
            scene_from_doc(doc_with(scene, where, value))

    @FUZZ
    @given(mutated_docs())
    def test_loads_or_names_a_field_on_the_path(self, mutation):
        path, doc = mutation
        try:
            scene_from_doc(doc)
        except SceneFormatError as exc:
            assert any(isinstance(key, str) and key in str(exc) for key in path), (path, str(exc))

    @settings(FUZZ, max_examples=40)
    @given(mutated_docs())
    def test_score_exits_0_or_1_with_one_error_line(self, mutation):
        code, err = score_stderr(mutation[1])
        assert (code, err) == (0, []) or (code == 1 and len(err) == 1 and err[0].startswith("error: ")), err

    @pytest.mark.parametrize("where, value, message", UNNAMED_BY_CONSTRUCTOR[:4])
    def test_score_exits_1_with_the_named_error_line(self, scene, where, value, message):
        code, err = score_stderr(doc_with(scene, where, value))
        assert code == 1 and len(err) == 1 and err[0].endswith(f"bad.json: {message}"), err


class TestGenerator:
    def test_same_spec_identical_scenes(self):
        spec = SyntheticSpec("crossing_agent", seed=4)
        assert doc_json(generate_scene(spec)) == doc_json(generate_scene(spec))

    def test_seeds_differ(self):
        a = generate_scene(SyntheticSpec("clean_straight", seed=1))
        b = generate_scene(SyntheticSpec("clean_straight", seed=2))
        assert doc_json(a) != doc_json(b)

    def test_param_pinning_and_ranges(self):
        pinned = generate_scene(SyntheticSpec("clean_straight", seed=3, params={"v0": 9.0}))
        assert pinned.ego_init.v == 9.0
        with pytest.raises(ValueError):
            generate_scene(SyntheticSpec("clean_straight", seed=3, params={"v0": 99.0}))
        with pytest.raises(ValueError):
            generate_scene(SyntheticSpec("clean_straight", seed=3, params={"nope": 1.0}))

    def test_unknown_template(self):
        with pytest.raises(ValueError):
            SyntheticSpec("zigzag", seed=0)

    @pytest.mark.parametrize("seed", [0, 17])
    def test_template_ground_truths(self, seed):
        # smoke version of the acceptance sweep
        s = generate_scene(SyntheticSpec("clean_straight", seed=seed))
        ctx = ScoreContext(s)
        assert aggregate_epdms(evaluate_rollout(ctx.reference, ctx)) >= 0.95

        s = generate_scene(SyntheticSpec("parked_agent", seed=seed))
        ctx = ScoreContext(s)
        assert score_nc(ctx.reference, ctx) == 1.0
        d = pid_track(trajectory_to_world(straight_plan(s.ego_init.v), s.ego_init.pose), s.ego_init)
        assert score_nc(d, ctx) == 0.0

        s = generate_scene(SyntheticSpec("red_light", seed=seed))
        ctx = ScoreContext(s)
        assert score_tlc(ctx.reference, ctx) == 1.0
        d = pid_track(trajectory_to_world(straight_plan(s.ego_init.v), s.ego_init.pose), s.ego_init)
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


class TestCorpus:
    def test_loads_all_scenes(self, tmp_path):
        for i, template in enumerate(TEMPLATES[:3]):
            save_scene(generate_scene(SyntheticSpec(template, seed=i)), tmp_path / f"{template}.json")
        (tmp_path / "notes.txt").write_text("not a scene")
        scenes = load_scene_dir(tmp_path)
        # sorted by file name, which here is the template name
        assert [s.scene_id for s in scenes] == [f"{t}-{i:05d}" for t, i in sorted(zip(TEMPLATES[:3], range(3)))]
        corpus = TrajectoryCorpus(s.human_trajectory for s in scenes)
        assert corpus.count == 3
        assert corpus.m == 8

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=r"no scene files \(\*\.json\) under"):
            load_scene_dir(tmp_path)

    def test_missing_dir_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="scene directory not found: .*nope"):
            load_scene_dir(tmp_path / "nope")

    def test_corpus_items_are_ego_frame(self, tmp_path):
        # placing an item back at its scene's world pose must reproduce the
        # rollout start: the first waypoint of an ego-frame plan lies roughly
        # one plan step ahead of the origin, never at the world pose
        scene = generate_scene(SyntheticSpec("clean_straight", seed=9))
        save_scene(scene, tmp_path / "s.json")
        item = load_scene_dir(tmp_path)[0].human_trajectory
        assert np.array_equal(item.poses, scene.human_trajectory.poses)
        first_step = np.hypot(*item.poses[0, :2])
        assert first_step <= 0.5 * 12.0 + 0.5  # within one plan step of the origin
        world = trajectory_to_world(item, scene.ego_init.pose)
        assert np.allclose(
            np.hypot(world.poses[0, 0] - scene.ego_init.pose.x,
                     world.poses[0, 1] - scene.ego_init.pose.y),
            first_step, atol=1e-9)


class TestProposalFiles:
    def test_round_trip(self, tmp_path):
        props = [straight_plan(8.0), straight_plan(11.0)]
        path = tmp_path / "props.json"
        save_proposal_set(props, path)
        again = load_proposal_set(path)
        assert len(again) == 2
        assert np.array_equal(again[0].poses, props[0].poses)

    def test_version_checked(self, tmp_path):
        path = tmp_path / "props.json"
        path.write_text(json.dumps({"schema_version": 5, "proposals": []}))
        with pytest.raises(SceneFormatError):
            load_proposal_set(path)


POSE = [[1.0, 0.0, 0.0]]

LOADER_WRONG_TYPES = [
    (load_trajectory_map, {"trajectories": []}, "trajectories must be an object, not an array"),
    (load_trajectory_map, {"trajectories": {"*": "x"}}, "trajectories.* must be an array, not a string"),
    (load_trajectory_map, {"trajectories": {"*": [[1.0, 2.0]]}}, "trajectories.*: trajectory needs an (M, 3)"),
    (load_trajectory_map, {"trajectories": {"*": [[1.0, 2.0, 0.0], [1.0]]}},
     "trajectories.* must be a rectangular array"),
    (load_proposal_set, {"proposals": 5}, "proposals must be an array, not a number"),
    (load_proposal_set, {"proposals": [POSE, {"a": 1}]}, "proposals[1] must be an array, not an object"),
    (load_proposal_set, {}, "missing field 'proposals'"),
    (load_proposal_frames, {"frames": {}}, "frames must be an array, not an object"),
    (load_proposal_frames, {"frames": [7]}, "frames[0] must be an object, not a number"),
    (load_proposal_frames, {"frames": [{"scene_id": 3, "proposals": [POSE]}]},
     "frames[0].scene_id must be a string, not a number"),
    (load_proposal_frames, {"frames": [{"scene_id": "a", "proposals": [["x", 0, 0]]}]},
     "frames[0].proposals[0] must hold only numbers"),
    (load_proposal_frames, {"frames": [{"scene_id": "a"}]}, "frames[0]: missing field 'proposals'"),
    (load_score_frames, {"frames": [{"scene_id": "a", "scores": "x"}]},
     "frames[0].scores must be an array, not a string"),
    (load_score_frames, {"frames": [{"scene_id": "a", "scores": [1, None]}]},
     "frames[0].scores must hold only numbers"),
    (load_score_frames, {"frames": [{"scene_id": None, "scores": [1]}]},
     "frames[0].scene_id must be a string, not null"),
]


class TestLoaderJsonTypes:
    @pytest.mark.parametrize("loader, doc, message", LOADER_WRONG_TYPES)
    def test_rejected_naming_file_and_field(self, tmp_path, loader, doc, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"schema_version": 1, **doc}))
        with pytest.raises(SceneFormatError) as err:
            loader(path)
        assert str(err.value).startswith(f"{path}: ") and message in str(err.value)

    @pytest.mark.parametrize("loader", [
        load_scene, load_trajectory_map, load_proposal_set, load_proposal_frames, load_score_frames,
    ])
    def test_version_named_once_with_the_file(self, tmp_path, loader):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"schema_version": 2}))
        with pytest.raises(SceneFormatError) as err:
            loader(path)
        assert str(err.value) == f"{path}: unsupported schema_version 2 (expected 1)"

    def test_well_typed_frames_load(self, tmp_path):
        path = tmp_path / "frames.json"
        path.write_text(json.dumps({"schema_version": 1, "frames": [{"scene_id": "a", "proposals": [POSE]}]}))
        [(scene_id, [plan])] = load_proposal_frames(path)
        assert scene_id == "a" and plan.poses.tolist() == POSE
        path.write_text(json.dumps({"schema_version": 1, "frames": [{"scene_id": "a", "scores": [1, 0.5]}]}))
        scores = load_score_frames(path)["a"]
        assert scores.dtype == np.float64 and scores.tolist() == [1.0, 0.5]
