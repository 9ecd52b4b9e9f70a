import collections
import contextlib
import copy
import functools
import hashlib
import io
import json
import operator
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajsim.cli import main
from trajsim.distill import score_scene_row
from trajsim.geom import COORD_LIMIT_M, Polygon, Polyline, Pose
from trajsim.kinematics import pid_track, trajectory_to_world
from trajsim.vocabulary import TrajectoryCorpus, Vocabulary
from trajsim.metrics import Scene, ScoreContext, aggregate_epdms, evaluate_rollout, score_nc, score_tlc
from trajsim.scene_io import (
    TEMPLATES,
    SceneFormatError,
    SyntheticSpec,
    generate_scene,
    load_proposal_frames,
    load_proposal_set,
    load_scene,
    iter_scene_dir,
    load_score_frames,
    load_trajectory_map,
    save_proposal_set,
    save_scene,
    scene_from_doc,
    scene_to_doc,
    straight_plan,
    write_json,
)

from scenes import rich_scene

# a path that starts with RICH is into the document of rich_scene(1), whose
# five agents and two lights catch a check that names the wrong one
RICH = "rich"
RICH_SCENE = rich_scene(1)


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
        assert np.array_equal(again.agent_states, scene.agent_states)

    def test_failed_save_leaves_no_temp_file(self, scene, tmp_path):
        # the rename onto a directory fails after the temp file was written
        (tmp_path / "scene.json").mkdir()
        with pytest.raises(OSError):
            save_scene(scene, tmp_path / "scene.json")
        assert [p.name for p in tmp_path.iterdir()] == ["scene.json"]

    @pytest.mark.parametrize("mask", [0o022, 0o027], ids=["022", "027"])
    def test_written_files_get_the_mode_of_a_plain_write(self, scene, tmp_path, mask):
        # the mode open(path, "w") gives a new file, not the 0o600 of mkstemp
        old = os.umask(mask)
        try:
            save_scene(scene, tmp_path / "scene.json")
            write_json({"schema_version": 1}, tmp_path / "doc.json")
        finally:
            os.umask(old)
        modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
        assert modes == {"scene.json": 0o666 & ~mask, "doc.json": 0o666 & ~mask}
        assert (tmp_path / "doc.json").read_text() == '{\n  "schema_version": 1\n}\n'


# The SHA-256 of scene files: as the format before this one wrote them,
# with route_polygon_m and each agent's is_static, and as save_scene writes
# them.  rich_scene has five agents and two lights; clean_straight and
# crossing_agent plan no heading with np.arctan2, so their bytes are the
# same at every SIMD level.
SCENE_FILE_SHA256 = [
    (RICH, 1, "7995509fa4ace762715908c628afe79302c26b1c37f82a7fd2ff6a83b93ab685",
     "7a078950416186ee4b2a0dcfe6f40113f058a0523c18d7150a8009d449b2e311"),
    (RICH, 2, "3c2171b04448889e3860b550d356e7311edb42704fb118aec83c1b96848324ec",
     "048b53dcaf723d19570ddfbe7469ad7d36cee6aa201d3d5a697388d2ad8903e9"),
    ("clean_straight", 0, "7ebb6c887ed7dfdb8ef0a95733fe9ab0b0d71f8357102316a1dfa8ac5e48b541",
     "47bba817909489a51f8cc5bd187e4f0eb310725e501b52128c41d7396eb6f187"),
    ("clean_straight", 1, "dc66b8e05115a732754c95a9feced9eac78d39b0ed6c9bb5f164df9cd276cd00",
     "0f6c58ff977004f553b6a65d0456a955a5c5971dfe0b69ea8d0a87fe1ca759aa"),
    ("clean_straight", 2, "69158bcffc9efe8f7d688d368ee2463656ffb4e61cc61bd1c5ac262afc47d171",
     "cf26afd20a19f6d81b889c7b4e0a5b58d391a3cfa98fa91f0c1a6eac06157b78"),
    ("clean_straight", 3, "32330470eb411bcfdd25bd1550a4c769b2f17f7320bbb360763643c5bf42cd86",
     "b3fdfcce1d450e9e0bd55fdac9304410909e546876049976861c04c394e36e72"),
    ("clean_straight", 4, "3bc91529db84a335a9c967b28da14304ed8f3e6d9d408c2e05420d4ad27df931",
     "5760f070846bc3f88566adfd1003d4e42636695d0ee83579b9a111d1e5d8e1f3"),
    ("crossing_agent", 0, "8b07a626cc1440bb96dd38de981cb68a4309b0ca7d1e0121c77bed42fb1729f1",
     "a9b9e4cecedce6aa759d02077fbf0d2ccc43a1182815ab2571efff2be1a00d33"),
    ("crossing_agent", 1, "404762876683afb686481709b7cdb347bb2062baf78391b766730907cce48b8e",
     "a21fdfd4f7ea41492562602ed03f62f1c1e0483c722f0f032f86dc70b7c45a4a"),
    ("crossing_agent", 2, "a196810db0541ccd938591f0ab8b93c0561888a4244392901e8513369702cf4e",
     "a8063f31ea20dfff49e78701ec8301022c0f2cdd6b13bdca24d07bb09c176ea3"),
    ("crossing_agent", 3, "1075a91fd41d0c70ab8168a932092dfd4010736565f1aa2fcb24d4a1b0afc118",
     "fbd1793db4c45b5738197dde808f57a9cde5d0c70fa3b51965682eba976753ea"),
    ("crossing_agent", 4, "1670fafa1318f169a9fe143d8035b7336302d0b17cd959b2fa3a24745695ef77",
     "7cba1e66f083438fe67e655c0c4c2dc3dfeaeba8747e9245479795c4b1222dea"),
]


def table_scene(template, seed):
    return rich_scene(seed) if template == RICH else generate_scene(SyntheticSpec(template, seed=seed))


@pytest.mark.parametrize("template, seed, old_sha256, sha256", SCENE_FILE_SHA256)
def test_scene_files_keep_their_bytes(tmp_path, template, seed, old_sha256, sha256):
    path = tmp_path / "scene.json"
    save_scene(table_scene(template, seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def inserted(d: dict, before: str, key: str, value) -> dict:
    """A copy of `d` with key: value inserted just ahead of the key `before`."""
    items = list(d.items())
    i = list(d).index(before)
    return dict([*items[:i], (key, value), *items[i:]])


def old_format_doc(scene, route_polygon=None, is_static=None) -> dict:
    """The document of `scene` as the format before this one wrote it: each
    agent's is_static ahead of its states, true for the parked agents, and
    route_polygon_m, the first drivable polygon, after route_polyline_m.
    Either value may be replaced, by one that was never valid there."""
    doc = scene_to_doc(scene)
    doc["agents"] = [
        inserted(a, "states", "is_static", a["id"].startswith("parked") if is_static is None else is_static)
        for a in doc["agents"]
    ]
    polygon = doc["drivable_polygons_m"][0] if route_polygon is None else route_polygon
    return inserted(doc, "lanes", "route_polygon_m", polygon)


@pytest.mark.parametrize("template, seed, old_sha256, sha256", SCENE_FILE_SHA256)
def test_files_lose_only_the_two_dropped_keys(tmp_path, template, seed, old_sha256, sha256):
    # the format before this one, rebuilt from today's document, has the
    # bytes it had; it and copies with malformed dropped keys load to scenes
    # that score the same bits as the scene itself
    scene = table_scene(template, seed)
    text = json.dumps(old_format_doc(scene), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == old_sha256
    vocab = Vocabulary(np.stack([straight_plan(v).poses for v in (4.0, 8.0, 12.0)]), seed=0, inertia=0.0)
    want = score_scene_row(scene, vocab)
    malformed = [old_format_doc(scene, [[float("nan"), 0.0]], "no"), old_format_doc(scene, "x", 7)]
    for doc in (old_format_doc(scene), *malformed):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        assert score_scene_row(load_scene(path), vocab).tobytes() == want.tobytes()


class TestValidation:
    def test_agent_with_40_ticks(self, scene):
        doc = scene_to_doc(scene)
        doc["agents"][0]["states"] = doc["agents"][0]["states"][:40]
        with pytest.raises(SceneFormatError) as err:
            scene_from_doc(doc)
        assert "states" in str(err.value)
        assert str(scene.agent_ids[0]) in str(err.value)

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
        message = "intersections[0].light.phase_per_tick[3] must be one of ('green', 'yellow', 'red'), not 'purple'"
        with pytest.raises(SceneFormatError, match=re.escape(message)):
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
    ((RICH, "agents", 3, "half_width_m"), float("nan"),
     "agents[3]: agent 'from-behind': half_width must be finite and positive"),
]


def doc_with(scene, where, value) -> dict:
    """The document of `scene`, or of rich_scene(1) if the path starts with
    RICH, with the value at path `where` replaced."""
    if where[0] == RICH:
        scene, where = RICH_SCENE, where[1:]
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


# finite, but beyond COORD_LIMIT_M: squares and products of such values overflow
HUGE = [
    (("drivable_polygons_m", 0, 0, 0), "drivable_polygons_m[0]: polygon vertices must be at most 1e+09 in magnitude"),
    (("route_polyline_m", 1, 1), "route_polyline_m: polyline points must be at most 1e+09 in magnitude"),
    (("agents", 0, "states", 7, 0), "agent 'parked-0': states must be at most 1e+09 in magnitude"),
    (("ego", "init", "y_m"), "ego.init: pose components"),
    (("ego", "init", "speed_mps"), "ego.init: speed v must be finite and non-negative, at most 1e+09"),
    (("ego", "half_width_m"), "ego_half_width must be finite and positive, at most 1e+09"),
    (("agents", 0, "half_length_m"), "agent 'parked-0': half_length must be finite and positive, at most 1e+09"),
    (("human_trajectory_ego", "waypoints", 2, 0),
     "human_trajectory_ego.waypoints: trajectory waypoints must be at most 1e+09 in magnitude"),
    ((RICH, "agents", 3, "states", 7, 0), "agents[3]: agent 'from-behind': states must be at most 1e+09 in magnitude"),
]


class TestHuge:
    @pytest.mark.parametrize("where, message", HUGE)
    def test_rejected_naming_the_field(self, scene, where, message):
        with pytest.raises(SceneFormatError, match=re.escape(message)):
            scene_from_doc(doc_with(scene, where, 1e200))

    def test_the_limit_itself_loads(self, scene):
        doc = doc_with(scene, ("agents", 0, "states", 7, 0), -COORD_LIMIT_M)
        assert scene_from_doc(doc).agent_states[0, 7, 0] == -COORD_LIMIT_M

    def test_score_exits_1_with_one_error_line(self, scene):
        # a drivable vertex at x = 1e200 used to overflow in the edge arrays
        # and score EPDMS 1 with exit code 0
        code, err = score_stderr(doc_with(scene, ("drivable_polygons_m", 0, 0, 0), 1e200))
        assert code == 1 and len(err) == 1 and err[0].endswith(
            "bad.json: drivable_polygons_m[0]: polygon vertices must be at most 1e+09 in magnitude"), err


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
    ((RICH, "intersections", 0, "light"), [], "intersections[0].light must be an object, not an array"),
    (("drivable_polygons_m", 0), {"x": 1}, "drivable_polygons_m[0] must be an array, not an object"),
    (("lanes", 0, "direction_sign"), "1", "lanes[0].direction_sign must be a number, not a string"),
    (("human_trajectory_ego",), [], "human_trajectory_ego must be an object, not an array"),
    (("scene_id",), 7, "scene_id must be a string, not a number"),
    (("human_trajectory_ego", "waypoints"), "x", "human_trajectory_ego.waypoints must be an array, not a string"),
    (("human_trajectory_ego", "waypoints"), [[1.0, 2.0]], "human_trajectory_ego.waypoints: trajectory needs an (M, 3)"),
    # both lights share one id, and only the path tells which holds the bad phase
    ((RICH, "intersections", 1, "light"), {"intersection_id": "a", "phase_per_tick": ["red"] * 40 + ["purple"]},
     "intersections[1].light.phase_per_tick[40] must be one of ('green', 'yellow', 'red'), not 'purple'"),
    ((RICH, "agents", 3, "states"), [[0.0, 0.0, 0.0]] * 40,
     "agents[3]: agent 'from-behind': states must be (41, 3), got (40, 3)"),
    ((RICH, "intersections", 1, "light", "phase_per_tick"), ["red"] * 40,
     "intersections[1].light: traffic light 'b': needs 41 phases"),
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
    (("drivable_polygons_m", 0, 0, 0), float("nan"), "drivable_polygons_m[0]: polygon vertices must be finite"),
    (("route_polyline_m",), [], "route_polyline_m: polyline needs an (n, 2) array of points"),
    (("drivable_polygons_m", 0), [[0.0, 0.0]], "drivable_polygons_m[0]: polygon needs at least 3 planar vertices"),
    (("drivable_polygons_m",), [], "drivable_polygons_m must hold at least one polygon"),
    (("lanes", 1, "centerline_m"), [[0.0, 0.0]], "lanes[1].centerline_m: polyline needs at least 2 points, got 1"),
    (("lanes", 0, "centerline_m", 1, 0), float("inf"), "lanes[0].centerline_m: polyline points must be finite"),
    (("agents", 0, "half_width_m"), 0.0, "agents[0]: agent 'parked-0': half_width must be finite and positive"),
    # a repeated vertex, then a closed ring, each a zero-length edge
    (("drivable_polygons_m", 0), [[-20.0, -6.0], [80.0, -6.0], [80.0, -6.0], [80.0, 6.0], [-20.0, 6.0]],
     "drivable_polygons_m[0]: polygon has consecutive duplicate vertices"),
    (("drivable_polygons_m", 0), [[-20.0, -6.0], [80.0, -6.0], [80.0, 6.0], [-20.0, 6.0], [-20.0, -6.0]],
     "drivable_polygons_m[0]: polygon has consecutive duplicate vertices"),
    (("route_polyline_m",), [[0.0, 0.0]], "route_polyline_m: polyline needs at least 2 points, got 1"),
]

# values of the right JSON type that a constructor's range check refuses
OUT_OF_RANGE = [
    (("drivable_polygons_m", 0), [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
     "drivable_polygons_m[0]: polygon is degenerate (zero area)"),
    (("lanes", 0, "direction_sign"), 0, "lanes[0]: direction_sign must be +1 or -1"),
    (("command",), "back", "command must be one of ('left', 'forward', 'right')"),
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
    non-finite or huge, or emptied."""
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    path = draw(st.sampled_from(value_paths(doc)))
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    key, value = path[-1], parent[path[-1]]
    kind = draw(st.sampled_from(["type", "missing", "nesting", "non_finite", "huge", "empty"]))
    if kind == "missing":
        del parent[key]
    else:
        parent[key] = draw(st.sampled_from({
            "type": ["x", 7, -1.5, True, None, {}, [[0.5]]],
            "nesting": [[value], {"value": value}],
            "non_finite": [float("nan"), float("inf"), float("-inf")],
            "huge": [1e200, -1e200],
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
    @pytest.mark.parametrize("where, value, message", UNNAMED_BY_CONSTRUCTOR + OUT_OF_RANGE)
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

    @pytest.mark.parametrize("where, value, message", UNNAMED_BY_CONSTRUCTOR[:4] + UNNAMED_BY_CONSTRUCTOR[-3:])
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

    @pytest.mark.parametrize("seed, params, message", [
        (1, {"v0": "9"}, "params['v0'] must be a real number, got '9'"),
        (1, {"v0": True}, "params['v0'] must be a real number"),
        (1.5, {}, "seed must be a non-negative integer, got 1.5"),
        (True, {}, "seed must be a non-negative integer, got True"),
        (-1, {}, "seed must be a non-negative integer, got -1"),
        (1, None, "params must be a dict, not NoneType"),
    ])
    def test_bad_field_named(self, seed, params, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SyntheticSpec("clean_straight", seed=seed, params=params)

    @pytest.mark.parametrize("template", TEMPLATES)
    def test_each_object_built_once(self, template, monkeypatch):
        # a generator that builds a canonical scene and then places it builds each object twice
        counts = collections.Counter()
        for cls in (Scene, Polygon, Polyline, Pose):
            def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                counts[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        scene = generate_scene(SyntheticSpec(template, seed=7))
        polygons = [*scene.drivable, *(i.polygon for i in scene.intersections)]
        held = {
            "Scene": 1,
            "Polygon": len(set(map(id, polygons))),
            "Polyline": len(set(map(id, [scene.route, *(lane.centerline for lane in scene.lanes)]))),
            "Pose": 1,
        }
        assert counts["Scene"] == 1 and all(counts[name] <= n for name, n in held.items()), (counts, held)

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
        scenes = list(iter_scene_dir(tmp_path))
        # sorted by file name, which here is the template name
        assert [s.scene_id for s in scenes] == [f"{t}-{i:05d}" for t, i in sorted(zip(TEMPLATES[:3], range(3)))]
        corpus = TrajectoryCorpus(s.human_trajectory for s in scenes)
        assert corpus.count == 3
        assert corpus.m == 8

    def test_iter_checks_the_directory_at_once_and_loads_lazily(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="scene directory not found: .*nope"):
            iter_scene_dir(tmp_path / "nope")
        with pytest.raises(FileNotFoundError, match=r"no scene files \(\*\.json\) under"):
            iter_scene_dir(tmp_path)
        save_scene(generate_scene(SyntheticSpec("clean_straight", seed=1)), tmp_path / "a.json")
        (tmp_path / "b.json").write_text("{}")
        scenes = iter_scene_dir(tmp_path)
        assert next(scenes).scene_id == "clean_straight-00001"
        with pytest.raises(SceneFormatError, match="b.json"):
            next(scenes)

    def test_one_waypoint_human_plan_named(self):
        doc = scene_to_doc(generate_scene(SyntheticSpec("clean_straight", seed=2)))
        del doc["human_trajectory_ego"]["waypoints"][1:]
        message = "human_trajectory_ego.waypoints: plan needs at least 2 waypoints, got 1"
        with pytest.raises(SceneFormatError, match=re.escape(message)):
            scene_from_doc(doc)

    def test_corpus_items_are_ego_frame(self, tmp_path):
        # placing an item back at its scene's world pose must reproduce the
        # rollout start: the first waypoint of an ego-frame plan lies roughly
        # one plan step ahead of the origin, never at the world pose
        scene = generate_scene(SyntheticSpec("clean_straight", seed=9))
        save_scene(scene, tmp_path / "s.json")
        item = list(iter_scene_dir(tmp_path))[0].human_trajectory
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


POSE = [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]

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

    @pytest.mark.parametrize("text", [
        "{not json", "[1]", json.dumps({"schema_version": 2}), json.dumps({"schema_version": 1, "proposals": 5}),
    ], ids=["parse", "top-level", "version", "field"])
    def test_every_error_names_the_file_as_given(self, tmp_path, monkeypatch, text):
        monkeypatch.chdir(tmp_path)
        Path("p.json").write_text(text)
        with pytest.raises(SceneFormatError, match=r"^\./p\.json: "):
            load_proposal_set("./p.json")

    def test_well_typed_frames_load(self, tmp_path):
        path = tmp_path / "frames.json"
        path.write_text(json.dumps({"schema_version": 1, "frames": [{"scene_id": "a", "proposals": [POSE]}]}))
        [(scene_id, [plan])] = load_proposal_frames(path)
        assert scene_id == "a" and plan.poses.tolist() == POSE
        path.write_text(json.dumps({"schema_version": 1, "frames": [{"scene_id": "a", "scores": [1, 0.5]}]}))
        scores = load_score_frames(path)["a"]
        assert scores.dtype == np.float64 and scores.tolist() == [1.0, 0.5]
