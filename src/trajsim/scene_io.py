"""Scene persistence, synthetic scene generation, and shared file formats.

Scene files are JSON with units spelled out in the field names (``_m``,
``_rad``, ``_mps``).  The full schema is documented in the README; the
loader ignores any key it does not list, so older files that carry more
still load.  Binary formats (vocabulary, score matrix) live with their
owning modules.

Synthetic templates replace recorded driving data at desk scale.  Each is
one ``_TEMPLATES`` entry (its parameter ranges and its builder) and
guarantees a documented ground-truth property for every seed:

  clean_straight   human rollout scores EPDMS >= 0.95
  parked_agent     human avoids the parked agent (NC=1); a straight
                   full-speed plan collides with it (NC=0)
  crossing_agent   the human plan is timed to clear the crossing gap (NC=1)
  red_light        human stops before the stop line (TLC=1); a non-stopping
                   full-speed plan enters on red (TLC=0)
  oncoming_lane    human incurs into the oncoming lane (DDC < 1)
  lane_drift       human holds an off-center offset long enough that LK=0

A template gives its scene as plain arrays in a canonical frame: points,
the agent states, and the ego states as one array.  One placement function
moves each array to the world pose in one ``geom.to_world`` call, the rigid
frame change that also places plans, and assembles the ``Scene`` once, so
each object is built and checked once.  ``transform_scene`` takes a scene's
arrays out and runs the same placement.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .geom import Polygon, Polyline, Pose, to_world, wrap_angle
from .kinematics import DENSE_TICKS, PLAN_DT, TICK_DT, EgoState, Trajectory
from .metrics import PHASE_NAMES, PHASE_RED, Intersection, Lane, Scene

__all__ = [
    "SceneFormatError",
    "SyntheticSpec",
    "TEMPLATES",
    "save_scene",
    "load_scene",
    "iter_scene_dir",
    "generate_scene",
    "transform_scene",
    "straight_plan",
    "load_trajectory_map",
    "save_trajectory_map",
    "load_proposal_set",
    "save_proposal_set",
    "load_proposal_frames",
    "load_score_frames",
]

SCHEMA_VERSION = 1


class SceneFormatError(ValueError):
    """Raised when a scene file is malformed or violates an invariant."""


# ---------------------------------------------------------------------------
# JSON serialization


# an ego state's fields in the file, in the order of a history row's columns
_STATE_KEYS = ("x_m", "y_m", "psi_rad", "speed_mps", "accel_mps2", "steer_rad")


def _state_doc(s: EgoState) -> dict:
    return dict(zip(_STATE_KEYS, (s.pose.x, s.pose.y, s.pose.psi, s.v, s.a, s.steer)))


_JSON_TYPES = {
    dict: "an object", list: "an array", str: "a string", bool: "a boolean",
    int: "a number", float: "a number", type(None): "null",
}


def _typed(value, kind: type, name: str):
    """value, if it has the JSON type `kind`, otherwise SceneFormatError naming
    the field.  float is any number but a boolean, object is anything, and
    np.ndarray is an array of numbers nested to any depth, returned as one."""
    if kind is np.ndarray:
        value = _typed(value, list, name)
        try:
            arr = np.asarray(value)
        except ValueError:
            raise SceneFormatError(f"{name} must be a rectangular array") from None
        if arr.dtype.kind not in "iuf":
            raise SceneFormatError(f"{name} must hold only numbers")
        return arr
    if not (type(value) in (int, float) if kind is float else isinstance(value, kind)):
        got = _JSON_TYPES.get(type(value), type(value).__name__)
        raise SceneFormatError(f"{name} must be {_JSON_TYPES[kind]}, not {got}")
    return value


def _field(doc: dict, key: str, kind: type = object, where: str = ""):
    """doc[key] checked by _typed; `where` names doc in messages."""
    if key not in doc:
        raise SceneFormatError(f"{where or 'scene file'}: missing field {key!r}")
    value = doc[key]
    if kind is object or type(value) is kind:  # the common case, without naming the field
        return value
    return _typed(value, kind, f"{where}.{key}" if where else key)


def _objects(doc: dict, key: str):
    """(name, element) of the JSON array doc[key], every element an object."""
    return [(f"{key}[{i}]", _typed(e, dict, f"{key}[{i}]")) for i, e in enumerate(_field(doc, key, list))]


def _built(name: str, make, *args):
    """make(*args), with a ValueError turned into a SceneFormatError naming
    the field `name` that the arguments were read from."""
    try:
        return make(*args)
    except ValueError as exc:
        raise SceneFormatError(f"{name}: {exc}") from None


def _from_array(make, value, name: str):
    """make(the JSON number array `value`), naming the field `name` in any
    error."""
    return _built(name, make, _typed(value, np.ndarray, name))


def _trajectories(doc: dict, key: str, where: str = "") -> list:
    """The trajectories of the JSON array doc[key]."""
    name = f"{where}.{key}" if where else key
    return [_from_array(Trajectory, p, f"{name}[{i}]") for i, p in enumerate(_field(doc, key, list, where))]


def _check_version(doc: dict) -> None:
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SceneFormatError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")


def _state_row(doc, where: str) -> list:
    """The numbers of the ego state object `doc`, in _STATE_KEYS order."""
    _typed(doc, dict, where)
    return [_field(doc, key, float, where) for key in _STATE_KEYS]


def _state_from(doc, where: str) -> EgoState:
    x, y, psi, v, a, steer = _state_row(doc, where)
    return _built(where, lambda: EgoState(Pose(x, y, psi), v, a, steer))


def scene_to_doc(scene: Scene) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "scene_id": scene.scene_id,
        "command": scene.command,
        "ego": {
            "half_length_m": scene.ego_half_length,
            "half_width_m": scene.ego_half_width,
            "init": _state_doc(scene.ego_init),
            "history": [dict(zip(_STATE_KEYS, row)) for row in scene.ego_history.tolist()],
        },
        "agents": [
            {"id": id_, "half_length_m": hl, "half_width_m": hw, "states": states}
            for id_, hl, hw, states in zip(
                scene.agent_ids, scene.agent_half_lengths.tolist(), scene.agent_half_widths.tolist(),
                scene.agent_states.tolist(),
            )
        ],
        "drivable_polygons_m": [p.vertices.tolist() for p in scene.drivable],
        "route_polyline_m": scene.route.points.tolist(),
        "lanes": [
            {"centerline_m": lane.centerline.points.tolist(), "direction_sign": lane.direction_sign}
            for lane in scene.lanes
        ],
        "intersections": [
            {
                "polygon_m": inter.polygon.vertices.tolist(),
                "light": {
                    "intersection_id": inter.light_id,
                    "phase_per_tick": [PHASE_NAMES[p] for p in inter.phases.tolist()],
                },
            }
            for inter in scene.intersections
        ],
        "human_trajectory_ego": {"waypoints": scene.human_trajectory.poses.tolist()},
    }


def _agent_fields(agents) -> dict:
    """Scene's agent arguments from one (id, half length, half width,
    (41, 3) states) tuple per agent."""
    ids, half_lengths, half_widths, states = zip(*agents) if agents else ((),) * 4
    return dict(agent_ids=ids, agent_states=states, agent_half_lengths=half_lengths,
                agent_half_widths=half_widths)


def scene_from_doc(doc: dict) -> Scene:
    """Build a scene from its JSON document, checking the JSON type of every
    field where it is read; any defect raises SceneFormatError naming it.
    Keys it does not read are ignored."""
    _check_version(doc)
    try:
        ego = _field(doc, "ego", dict)
        agents = [
            (
                _field(a, "id", object, where),
                _field(a, "half_length_m", float, where),
                _field(a, "half_width_m", float, where),
                _field(a, "states", np.ndarray, where),
            )
            for where, a in _objects(doc, "agents")
        ]
        intersections = []
        for where, inter in _objects(doc, "intersections"):
            light = _field(inter, "light", dict, where)
            names = _field(light, "phase_per_tick", list, f"{where}.light")
            try:
                phases = [PHASE_NAMES.index(n) for n in names]
            except ValueError:
                j = next(j for j, n in enumerate(names) if n not in PHASE_NAMES)
                raise SceneFormatError(f"{where}.light.phase_per_tick[{j}] must be one of {PHASE_NAMES}, "
                                       f"not {names[j]!r}") from None
            polygon = _from_array(Polygon, _field(inter, "polygon_m", where=where), f"{where}.polygon_m")
            intersections.append(_built(f"{where}.light", Intersection, polygon,
                                        _field(light, "intersection_id", object, f"{where}.light"), phases))
        history = _field(ego, "history", list, "ego")
        human = _field(doc, "human_trajectory_ego", dict)
        drivable = [
            _from_array(Polygon, v, f"drivable_polygons_m[{i}]")
            for i, v in enumerate(_field(doc, "drivable_polygons_m", list))
        ]
        route = _from_array(Polyline, _field(doc, "route_polyline_m"), "route_polyline_m")
        plan = _from_array(Trajectory, _field(human, "waypoints", where="human_trajectory_ego"),
                           "human_trajectory_ego.waypoints")
        scene = Scene(
            scene_id=_field(doc, "scene_id", str),
            ego_init=_state_from(_field(ego, "init", where="ego"), "ego.init"),
            ego_history=[_state_row(s, f"ego.history[{i}]") for i, s in enumerate(history)],
            **_agent_fields(agents),
            drivable=drivable,
            route=route,
            lanes=[
                _built(
                    where,
                    Lane,
                    _from_array(Polyline, _field(lane, "centerline_m", where=where), f"{where}.centerline_m"),
                    _field(lane, "direction_sign", float, where),
                )
                for where, lane in _objects(doc, "lanes")
            ],
            intersections=intersections,
            human_trajectory=plan,
            command=_field(doc, "command", str),
            ego_half_length=_field(ego, "half_length_m", float, "ego"),
            ego_half_width=_field(ego, "half_width_m", float, "ego"),
        )
    except ValueError as exc:
        if isinstance(exc, SceneFormatError):
            raise
        raise SceneFormatError(str(exc)) from None
    return scene


def write_json(doc, path) -> None:
    """Write the JSON document `doc`, indented by 2 and with a final newline,
    atomically: a new file beside `path`, with the mode open(path, "w") gives
    a new file, is renamed over it."""
    data = json.dumps(doc, indent=2) + "\n"
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"  # O_EXCL refuses a name that exists
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # a missing or unwritable directory: name the file asked for
        exc.filename = os.fspath(path)
        raise
    try:
        with os.fdopen(fd, "w") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_scene(scene: Scene, path) -> None:
    """Write a scene file, atomically."""
    write_json(scene_to_doc(scene), path)


@contextmanager
def _document(path):
    """The top-level JSON object of the file `path`, of the supported
    schema_version; a ValueError in parsing it or in the body becomes a
    SceneFormatError that names the file as `path` spells it."""
    with open(path) as f:
        text = f.read()
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise SceneFormatError(f"top-level JSON value must be an object, not {type(doc).__name__}")
        _check_version(doc)
        yield doc
    except json.JSONDecodeError as exc:
        raise SceneFormatError(f"{path}: not valid JSON ({exc})") from None
    except ValueError as exc:
        raise SceneFormatError(f"{path}: {exc}") from None


def load_scene(path) -> Scene:
    with _document(path) as doc:
        return scene_from_doc(doc)


# ---------------------------------------------------------------------------
# placement: a scene's content as plain arrays, moved rigidly, assembled once


class _Frame(NamedTuple):
    """The world pose generate_scene places a scene at, as to_world reads a
    pose, psi in (-pi, pi]: a plain tuple, so that the only Pose the
    generator builds is the one its scene holds."""

    x: float
    y: float
    psi: float


def _placed(frame, ego, agent_states, drivable, route, lanes, intersections, **rest) -> Scene:
    """A scene from its parts in their own frame, moved rigidly by the pose
    `frame`, each array of rows through to_world.  Polygons and polylines
    come as plain arrays, the agent states as (A, 41, 3) rows placed in one
    pass, and the ego states as one (H + 1, 6) array: the history rows, then
    the initial state.  An array given twice (a template's route is also its
    main lane) gives one object.
    The remaining parts, the agents' ids and extents and the ego-frame human
    trajectory among them, go to Scene unchanged."""
    built = {}

    def once(make, points):
        key = (make, id(points))
        if key not in built:
            built[key] = make(to_world(frame, points))
        return built[key]

    ego = to_world(frame, ego)
    x, y, psi, v, a, steer = ego[-1].tolist()
    return Scene(
        ego_init=EgoState(Pose(x, y, psi), v, a, steer),
        ego_history=ego[:-1],
        agent_states=to_world(frame, np.concatenate(agent_states)).reshape(-1, DENSE_TICKS, 3) if len(agent_states) else (),
        drivable=[once(Polygon, v) for v in drivable],
        route=once(Polyline, route),
        lanes=[Lane(once(Polyline, p), sign) for p, sign in lanes],
        intersections=[Intersection(once(Polygon, v), light_id, phases) for v, light_id, phases in intersections],
        **rest,
    )


def transform_scene(scene: Scene, frame: Pose) -> Scene:
    """Rigidly transform all world-frame scene content by `frame`.

    The human trajectory is ego-frame and therefore unchanged.
    """
    e = scene.ego_init
    return _placed(
        frame,
        ego=np.vstack([scene.ego_history, [[e.pose.x, e.pose.y, e.pose.psi, e.v, e.a, e.steer]]]),
        agent_states=scene.agent_states,
        drivable=[p.vertices for p in scene.drivable],
        route=scene.route.points,
        lanes=[(lane.centerline.points, lane.direction_sign) for lane in scene.lanes],
        intersections=[(i.polygon.vertices, i.light_id, i.phases) for i in scene.intersections],
        scene_id=scene.scene_id,
        agent_ids=scene.agent_ids,
        agent_half_lengths=scene.agent_half_lengths,
        agent_half_widths=scene.agent_half_widths,
        human_trajectory=scene.human_trajectory,
        command=scene.command,
        ego_half_length=scene.ego_half_length,
        ego_half_width=scene.ego_half_width,
    )


# ---------------------------------------------------------------------------
# synthetic templates


@dataclass(frozen=True)
class SyntheticSpec:
    """Template name, optional parameter pins, and the jitter seed.

    Pinned parameters must stay within each template's documented range;
    anything unpinned is drawn uniformly from that range.
    """

    template: str
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.template not in TEMPLATES:
            raise ValueError(f"unknown template {self.template!r}; known: {TEMPLATES}")
        if not isinstance(self.seed, numbers.Integral) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.params, dict):
            raise ValueError(f"params must be a dict, not {type(self.params).__name__}")
        for name, value in self.params.items():
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"params[{name!r}] must be a real number, got {value!r}")


def _draw_params(spec: SyntheticSpec, rng: np.random.Generator) -> dict:
    ranges, _ = _TEMPLATES[spec.template]
    unknown = set(spec.params) - set(ranges)
    if unknown:
        raise ValueError(f"unknown parameters for {spec.template}: {sorted(unknown)}")
    out = {}
    for name, (lo, hi) in ranges.items():
        if name in spec.params:
            val = float(spec.params[name])
            if not lo <= val <= hi:
                raise ValueError(f"{spec.template}.{name}={val} outside documented range [{lo}, {hi}]")
            out[name] = val
        else:
            out[name] = float(rng.uniform(lo, hi))
    return out


def _smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


_PLAN_T = PLAN_DT * (np.arange(8) + 1)  # the times of a template plan's 8 waypoints
_PLAN_T.setflags(write=False)


def _plan_from_profile(x_of_t, y_of_t) -> Trajectory:
    """Sample waypoints from position profiles, each a function of an array
    of times; headings from local tangents."""
    t, eps = _PLAN_T, 1e-3
    dx = x_of_t(t + eps) - x_of_t(t - eps)
    dy = y_of_t(t + eps) - y_of_t(t - eps)
    psi = np.array(list(map(math.atan2, dy.tolist(), dx.tolist())))  # libm's bits at every SIMD level
    return Trajectory(np.stack([x_of_t(t), y_of_t(t), psi], axis=1))


def straight_plan(v: float) -> Trajectory:
    """Constant-speed straight-ahead plan in the ego frame."""
    zeros = np.zeros(len(_PLAN_T))
    return Trajectory(np.stack([v * _PLAN_T, zeros, zeros], axis=1))


def _shift_plan(v0, shift, t0, duration) -> Trajectory:
    """The one lane change of the templates: constant speed v0 along x,
    moving `shift` metres sideways on a smoothstep from t0 to t0 + duration."""
    return _plan_from_profile(lambda t: v0 * t, lambda t: shift * _smoothstep((t - t0) / duration))


def _road_polygon(x_lo, x_hi, y_lo, y_hi) -> np.ndarray:
    """The vertices of an axis-aligned rectangle, counter-clockwise."""
    return np.array([[x_lo, y_lo], [x_hi, y_lo], [x_hi, y_hi], [x_lo, y_hi]])


def _lane_at(y) -> np.ndarray:
    """The points of a template lane along the road at lateral offset y."""
    return np.array([[-15.0, y], [70.0, y]])


def _on_road(v0, human, road_y, lanes=(), agents=(), intersections=()) -> dict:
    """The parts (see _placed) of a scene in its canonical frame, on the
    template road, x from -15 to 70 m and y from road_y[0] to road_y[1], the
    drivable area; the route and the main lane run along y = 0.  The ego
    starts at the origin heading +x at v0, after a constant-speed straight
    history of 16 ticks."""
    main = _lane_at(0.0)
    ego = np.zeros((17, 6))
    ego[:16, 0] = -v0 * TICK_DT * np.arange(16, 0, -1)
    ego[:, 3] = v0
    return dict(ego=ego, drivable=[_road_polygon(-15.0, 70.0, *road_y)], route=main, lanes=[(main, 1), *lanes],
                intersections=list(intersections), human_trajectory=human, command="forward",
                **_agent_fields(agents))


def stable_seed(*parts) -> list[int]:
    """Derive reproducible RNG entropy from arbitrary parts.

    Hash-based, so the result depends only on the values (never on process
    state or platform), which keeps every seeded draw replayable.
    """
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode()).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


def generate_scene(spec: SyntheticSpec) -> Scene:
    """Build a synthetic scene; deterministic for a fixed spec and seed.

    Each template gives its scene as plain arrays in a canonical frame, on a
    straight road with the ego at the origin heading +x.  One placement moves
    them to a seed-dependent world pose, so world and ego frames never
    coincide by accident, and the scene's objects are built once, there.
    """
    rng = np.random.default_rng(stable_seed("trajsim-scene", spec.template, spec.seed))
    _, build = _TEMPLATES[spec.template]
    parts = build(_draw_params(spec, rng))
    world = _Frame(rng.uniform(-200.0, 200.0), rng.uniform(-200.0, 200.0), wrap_angle(rng.uniform(-math.pi, math.pi)))
    return _placed(world, scene_id=f"{spec.template}-{spec.seed:05d}", **parts)


def _build_clean_straight(p):
    v0 = p["v0"]
    return _on_road(v0, straight_plan(v0), (-3.5, 3.5))


def _build_parked_agent(p):
    v0 = p["v0"]
    lane_shift = 3.5
    human = _shift_plan(v0, lane_shift, 0.0, 1.4)
    parked = ("parked-0", 2.3, 0.95, np.tile([p["gap_factor"] * v0, 0.0, 0.0], (DENSE_TICKS, 1)))
    return _on_road(v0, human, (-3.5, 7.0), [(_lane_at(lane_shift), 1)], agents=[parked])


def _build_crossing_agent(p):
    v0 = p["v0"]
    cross_x, y0, va = p["cross_x"], p["agent_y0"], p["agent_speed"]
    t = TICK_DT * np.arange(DENSE_TICKS)
    states = np.stack([np.full(DENSE_TICKS, cross_x), y0 - va * t, np.full(DENSE_TICKS, -math.pi / 2)], axis=1)
    return _on_road(v0, straight_plan(v0), (-3.5, 3.5), agents=[("crossing-0", 2.3, 0.95, states)])


def _build_red_light(p):
    v0, stop_x = p["v0"], p["stopline_x"]
    x_stop = stop_x - 5.5  # rest position of the ego center, with controller overshoot margin
    decel = v0 * v0 / (2.0 * x_stop)
    t_stop = v0 / decel
    human = _plan_from_profile(lambda t: np.where(t < t_stop, v0 * t - 0.5 * decel * t * t, x_stop), np.zeros_like)
    light = (_road_polygon(stop_x, stop_x + 12.0, -6.0, 6.0), "signal-0", np.full(DENSE_TICKS, PHASE_RED))
    return _on_road(v0, human, (-6.0, 6.0), intersections=[light])


def _build_oncoming_lane(p):
    lane_shift = 3.5
    human = _shift_plan(p["v0"], lane_shift, p["incursion_t0"], 1.0)
    return _on_road(p["v0"], human, (-3.5, 7.0), [(_lane_at(lane_shift), -1)])


def _build_lane_drift(p):
    v0 = p["v0"]
    return _on_road(v0, _shift_plan(v0, p["drift_m"], 1.0, 0.8), (-3.5, 3.5))


# template -> (its documented parameter ranges, {name: (lo, hi)}, and its
# builder of the scene's parts, see _placed, from one draw of them)
_TEMPLATES = {
    "clean_straight": ({"v0": (8.0, 12.0)}, _build_clean_straight),
    "parked_agent": ({"v0": (7.0, 9.0), "gap_factor": (2.2, 3.0)}, _build_parked_agent),
    "crossing_agent": ({"v0": (9.0, 11.0), "cross_x": (18.0, 22.0), "agent_y0": (18.0, 22.0),
                        "agent_speed": (3.5, 4.5)}, _build_crossing_agent),
    "red_light": ({"v0": (7.0, 9.0), "stopline_x": (18.0, 22.0)}, _build_red_light),
    "oncoming_lane": ({"v0": (8.0, 10.0), "incursion_t0": (0.8, 1.2)}, _build_oncoming_lane),
    "lane_drift": ({"v0": (8.0, 10.0), "drift_m": (1.0, 1.4)}, _build_lane_drift),
}
TEMPLATES = tuple(_TEMPLATES)


# ---------------------------------------------------------------------------
# scene directories and auxiliary file formats


def iter_scene_dir(directory):
    """The scenes of every *.json file in `directory` in file-name order, each
    loaded when reached (list() to hold all); a missing directory or one
    without scene files raises FileNotFoundError naming it at once."""
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"scene directory not found: {directory}")
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no scene files (*.json) under {directory}")
    return map(load_scene, paths)


def save_trajectory_map(trajs: dict, path) -> None:
    """Write a scene_id -> trajectory map ('*' applies to any scene)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "trajectories": {k: v.poses.tolist() for k, v in trajs.items()},
    }
    write_json(doc, path)


def load_trajectory_map(path) -> dict:
    with _document(path) as doc:
        return {k: _from_array(Trajectory, v, f"trajectories.{k}")
                for k, v in _field(doc, "trajectories", dict).items()}


def save_proposal_set(proposals, path) -> None:
    write_json({"schema_version": SCHEMA_VERSION, "proposals": [p.poses.tolist() for p in proposals]}, path)


def load_proposal_set(path) -> list:
    with _document(path) as doc:
        return _trajectories(doc, "proposals")


def load_proposal_frames(path) -> list:
    """[(scene_id, [Trajectory] proposals)] for frame-by-frame selection."""
    with _document(path) as doc:
        return [(_field(f, "scene_id", str, where), _trajectories(f, "proposals", where))
                for where, f in _objects(doc, "frames")]


def load_score_frames(path) -> dict:
    """scene_id -> external score vector, aligned with proposal frames; a
    scene_id may appear in one frame only."""
    with _document(path) as doc:
        scores = {}
        for where, f in _objects(doc, "frames"):
            scene_id = _field(f, "scene_id", str, where)
            if scene_id in scores:
                raise SceneFormatError(f"{where}.scene_id: scene {scene_id!r} already has scores")
            scores[scene_id] = _field(f, "scores", np.ndarray, where).astype(float)
        return scores
