"""Scene persistence, synthetic scene generation, and shared file formats.

Scene files are JSON with units spelled out in the field names (``_m``,
``_rad``, ``_mps``).  The full schema is documented in the README.  Binary
formats (vocabulary, score matrix) live with their owning modules.

Synthetic templates replace recorded driving data at desk scale.  Each
template guarantees a documented ground-truth property for every seed:

  clean_straight   human rollout scores EPDMS >= 0.95
  parked_agent     human avoids the parked agent (NC=1); a straight
                   full-speed plan collides with it (NC=0)
  crossing_agent   the human plan is timed to clear the crossing gap (NC=1)
  red_light        human stops before the stop line (TLC=1); a non-stopping
                   full-speed plan enters on red (TLC=0)
  oncoming_lane    human incurs into the oncoming lane (DDC < 1)
  lane_drift       human holds an off-center offset long enough that LK=0
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geom import Polygon, Polyline, Pose, to_world, wrap_angle
from .seeding import stable_seed
from .kinematics import DENSE_TICKS, PLAN_DT, TICK_DT, EgoState, Trajectory
from .metrics import (
    PHASE_NAMES,
    PHASE_RED,
    Agent,
    Intersection,
    Lane,
    Scene,
    TrafficLight,
)

__all__ = [
    "SceneFormatError",
    "SyntheticSpec",
    "TEMPLATES",
    "save_scene",
    "load_scene",
    "load_scene_dir",
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

TEMPLATES = (
    "clean_straight",
    "parked_agent",
    "crossing_agent",
    "red_light",
    "oncoming_lane",
    "lane_drift",
)


class SceneFormatError(ValueError):
    """Raised when a scene file is malformed or violates an invariant."""


# ---------------------------------------------------------------------------
# JSON serialization


def _state_doc(s: EgoState) -> dict:
    return {
        "x_m": s.pose.x,
        "y_m": s.pose.y,
        "psi_rad": s.pose.psi,
        "speed_mps": s.v,
        "accel_mps2": s.a,
        "steer_rad": s.steer,
    }


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


def _state_from(doc, where: str) -> EgoState:
    _typed(doc, dict, where)
    x, y, psi, v, a, steer = [
        _field(doc, key, float, where) for key in ("x_m", "y_m", "psi_rad", "speed_mps", "accel_mps2", "steer_rad")
    ]
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
            "history": [_state_doc(s) for s in scene.ego_history],
        },
        "agents": [
            {
                "id": a.id,
                "half_length_m": a.half_length,
                "half_width_m": a.half_width,
                "is_static": a.is_static,
                "states": a.poses.tolist(),
            }
            for a in scene.agents
        ],
        "drivable_polygons_m": [p.vertices.tolist() for p in scene.drivable],
        "route_polyline_m": scene.route.points.tolist(),
        "route_polygon_m": scene.route_polygon.vertices.tolist(),
        "lanes": [
            {"centerline_m": lane.centerline.points.tolist(), "direction_sign": lane.direction_sign}
            for lane in scene.lanes
        ],
        "intersections": [
            {
                "polygon_m": inter.polygon.vertices.tolist(),
                "light": {
                    "intersection_id": inter.light.intersection_id,
                    "phase_per_tick": [PHASE_NAMES[p] for p in inter.light.phases],
                },
            }
            for inter in scene.intersections
        ],
        "human_trajectory_ego": {"waypoints": scene.human_trajectory.poses.tolist()},
    }


def scene_from_doc(doc: dict) -> Scene:
    """Build a scene from its JSON document, checking the JSON type of every
    field where it is read; any defect raises SceneFormatError naming it."""
    _check_version(doc)
    try:
        ego = _field(doc, "ego", dict)
        agents = [
            _built(
                where,
                Agent,
                _field(a, "id", object, where),
                _field(a, "half_length_m", float, where),
                _field(a, "half_width_m", float, where),
                _field(a, "states", np.ndarray, where),
                _field(a, "is_static", bool, where),
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
                raise SceneFormatError(
                    f"intersection {light.get('intersection_id')!r}: bad phase in phase_per_tick"
                ) from None
            intersections.append(
                Intersection(
                    polygon=_from_array(Polygon, _field(inter, "polygon_m", where=where), f"{where}.polygon_m"),
                    light=_built(f"{where}.light", TrafficLight,
                                 _field(light, "intersection_id", object, f"{where}.light"), phases),
                )
            )
        history = _field(ego, "history", list, "ego")
        human = _field(doc, "human_trajectory_ego", dict)
        drivable = [
            _from_array(Polygon, v, f"drivable_polygons_m[{i}]")
            for i, v in enumerate(_field(doc, "drivable_polygons_m", list))
        ]
        if not drivable:
            raise SceneFormatError("drivable_polygons_m must hold at least one polygon")
        scene = Scene(
            scene_id=_field(doc, "scene_id", str),
            ego_init=_state_from(_field(ego, "init", where="ego"), "ego.init"),
            ego_history=[_state_from(s, f"ego.history[{i}]") for i, s in enumerate(history)],
            agents=agents,
            drivable=drivable,
            route=_from_array(Polyline, _field(doc, "route_polyline_m"), "route_polyline_m"),
            route_polygon=_from_array(Polygon, _field(doc, "route_polygon_m"), "route_polygon_m"),
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
            human_trajectory=_from_array(Trajectory, _field(human, "waypoints", where="human_trajectory_ego"),
                                         "human_trajectory_ego.waypoints"),
            command=_field(doc, "command", str),
            ego_half_length=_field(ego, "half_length_m", float, "ego"),
            ego_half_width=_field(ego, "half_width_m", float, "ego"),
        )
    except ValueError as exc:
        if isinstance(exc, SceneFormatError):
            raise
        raise SceneFormatError(str(exc)) from None
    return scene


def save_scene(scene: Scene, path) -> None:
    """Write a scene file; the write is atomic (temp file + rename)."""
    path = Path(path)
    data = json.dumps(scene_to_doc(scene), indent=2) + "\n"
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_json_object(path) -> dict:
    """The top-level JSON object of a file; SceneFormatError names the file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SceneFormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SceneFormatError(f"{path}: top-level JSON value must be an object, not {type(doc).__name__}")
    return doc


@contextmanager
def _document(path):
    """The top-level JSON object of `path`, of the supported schema_version;
    a ValueError in the body becomes a SceneFormatError naming the file."""
    doc = _load_json_object(path)
    try:
        _check_version(doc)
        yield doc
    except ValueError as exc:
        raise SceneFormatError(f"{path}: {exc}") from None


def load_scene(path) -> Scene:
    with _document(path) as doc:
        return scene_from_doc(doc)


# ---------------------------------------------------------------------------
# rigid transforms


def _transform_points(frame: Pose, points: np.ndarray) -> np.ndarray:
    return np.stack(to_world(frame, points[:, 0], points[:, 1]), axis=1)


def _transform_state(frame: Pose, st: EgoState) -> EgoState:
    x, y = to_world(frame, st.pose.x, st.pose.y)
    return EgoState(Pose(float(x), float(y), wrap_angle(st.pose.psi + frame.psi)), st.v, st.a, st.steer)


def transform_scene(scene: Scene, frame: Pose) -> Scene:
    """Rigidly transform all world-frame scene content by `frame`.

    The human trajectory is ego-frame and therefore unchanged.
    """
    agents = []
    for a in scene.agents:
        nx, ny = to_world(frame, a.x, a.y)
        npsi = np.array([wrap_angle(p) for p in a.psi + frame.psi])
        agents.append(Agent(a.id, a.half_length, a.half_width, np.stack([nx, ny, npsi], axis=1), a.is_static))
    return Scene(
        scene_id=scene.scene_id,
        ego_init=_transform_state(frame, scene.ego_init),
        ego_history=[_transform_state(frame, s) for s in scene.ego_history],
        agents=agents,
        drivable=[Polygon(_transform_points(frame, p.vertices)) for p in scene.drivable],
        route=Polyline(_transform_points(frame, scene.route.points)),
        route_polygon=Polygon(_transform_points(frame, scene.route_polygon.vertices)),
        lanes=[
            Lane(Polyline(_transform_points(frame, l.centerline.points)), l.direction_sign)
            for l in scene.lanes
        ],
        intersections=[
            Intersection(Polygon(_transform_points(frame, i.polygon.vertices)), i.light)
            for i in scene.intersections
        ],
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


# documented parameter ranges per template
_RANGES = {
    "clean_straight": {"v0": (8.0, 12.0)},
    "parked_agent": {"v0": (7.0, 9.0), "gap_factor": (2.2, 3.0)},
    "crossing_agent": {"v0": (9.0, 11.0), "cross_x": (18.0, 22.0), "agent_y0": (18.0, 22.0), "agent_speed": (3.5, 4.5)},
    "red_light": {"v0": (7.0, 9.0), "stopline_x": (18.0, 22.0)},
    "oncoming_lane": {"v0": (8.0, 10.0), "incursion_t0": (0.8, 1.2)},
    "lane_drift": {"v0": (8.0, 10.0), "drift_m": (1.0, 1.4)},
}


def _draw_params(spec: SyntheticSpec, rng: np.random.Generator) -> dict:
    ranges = _RANGES[spec.template]
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


def _plan_from_profile(x_of_t, y_of_t, m: int = 8) -> Trajectory:
    """Sample waypoints from position profiles; headings from local tangents."""
    t = PLAN_DT * (np.arange(m) + 1)
    x = np.asarray(x_of_t(t), dtype=float)
    y = np.asarray(y_of_t(t), dtype=float)
    eps = 1e-3
    dx = np.asarray(x_of_t(t + eps)) - np.asarray(x_of_t(t - eps))
    dy = np.asarray(y_of_t(t + eps)) - np.asarray(y_of_t(t - eps))
    psi = np.arctan2(dy, dx)
    return Trajectory(np.stack([x, y, psi], axis=1))


def straight_plan(v: float, m: int = 8) -> Trajectory:
    """Constant-speed straight-ahead plan in the ego frame."""
    t = PLAN_DT * (np.arange(m) + 1)
    return Trajectory(np.stack([v * t, np.zeros(m), np.zeros(m)], axis=1))


def _history(v0: float, n: int = 16) -> list:
    """Constant-speed straight history ending one tick before t=0."""
    return [EgoState(Pose(-v0 * TICK_DT * j, 0.0, 0.0), v0, 0.0, 0.0) for j in range(n, 0, -1)]


def _road_polygon(x_lo, x_hi, y_lo, y_hi) -> Polygon:
    return Polygon([[x_lo, y_lo], [x_hi, y_lo], [x_hi, y_hi], [x_lo, y_hi]])


def _static_agent(agent_id, x, y, psi=0.0, hl=2.3, hw=0.95) -> Agent:
    states = np.tile([x, y, psi], (DENSE_TICKS, 1))
    return Agent(agent_id, hl, hw, states, is_static=True)


def _base_scene(scene_id, v0, human, road_y, extra_lanes=(), agents=(), intersections=()):
    """A scene on the template road, x from -15 to 70 m and y from road_y[0]
    to road_y[1]: the road is both the drivable area and the route band, and
    the route and the main lane run along y = 0."""
    road = _road_polygon(-15.0, 70.0, *road_y)
    main = Polyline([[-15.0, 0.0], [70.0, 0.0]])
    return Scene(
        scene_id=scene_id,
        ego_init=EgoState(Pose(0.0, 0.0, 0.0), v0, 0.0, 0.0),
        ego_history=_history(v0),
        agents=list(agents),
        drivable=[road],
        route=main,
        route_polygon=road,
        lanes=[Lane(main, 1), *extra_lanes],
        intersections=list(intersections),
        human_trajectory=human,
        command="forward",
    )


def generate_scene(spec: SyntheticSpec) -> Scene:
    """Build a synthetic scene; deterministic for a fixed spec and seed.

    Scenes are constructed on a canonical straight road (ego at the origin
    heading +x) and then placed at a seed-dependent world pose, so world and
    ego frames never coincide by accident.
    """
    rng = np.random.default_rng(stable_seed("trajsim-scene", spec.template, spec.seed))
    p = _draw_params(spec, rng)
    builder = _BUILDERS[spec.template]
    scene = builder(f"{spec.template}-{spec.seed:05d}", p)
    world = Pose(rng.uniform(-200.0, 200.0), rng.uniform(-200.0, 200.0), rng.uniform(-math.pi, math.pi))
    return transform_scene(scene, world)


def _build_clean_straight(scene_id, p):
    v0 = p["v0"]
    return _base_scene(scene_id, v0, straight_plan(v0), (-3.5, 3.5))


def _build_parked_agent(scene_id, p):
    v0 = p["v0"]
    agent_x = p["gap_factor"] * v0
    lane_shift = 3.5
    t_change, t0 = 1.4, 0.0

    def y_of_t(t):
        return lane_shift * _smoothstep((np.asarray(t) - t0) / t_change)

    human = _plan_from_profile(lambda t: v0 * np.asarray(t), y_of_t)
    shifted = Lane(Polyline([[-15.0, lane_shift], [70.0, lane_shift]]), 1)
    agent = _static_agent("parked-0", agent_x, 0.0)
    return _base_scene(scene_id, v0, human, (-3.5, 7.0), [shifted], agents=[agent])


def _build_crossing_agent(scene_id, p):
    v0 = p["v0"]
    cross_x, y0, va = p["cross_x"], p["agent_y0"], p["agent_speed"]
    t = TICK_DT * np.arange(DENSE_TICKS)
    states = np.stack([np.full(DENSE_TICKS, cross_x), y0 - va * t, np.full(DENSE_TICKS, -math.pi / 2)], axis=1)
    agent = Agent("crossing-0", 2.3, 0.95, states, is_static=False)
    return _base_scene(scene_id, v0, straight_plan(v0), (-3.5, 3.5), agents=[agent])


def _build_red_light(scene_id, p):
    v0, stop_x = p["v0"], p["stopline_x"]
    x_stop = stop_x - 5.5  # rest position of the ego center, with controller overshoot margin
    decel = v0 * v0 / (2.0 * x_stop)
    t_stop = v0 / decel

    def x_of_t(t):
        t = np.asarray(t, dtype=float)
        moving = v0 * t - 0.5 * decel * t * t
        return np.where(t < t_stop, moving, x_stop)

    human = _plan_from_profile(x_of_t, lambda t: np.zeros_like(np.asarray(t, dtype=float)))
    poly = _road_polygon(stop_x, stop_x + 12.0, -6.0, 6.0)
    light = TrafficLight("signal-0", np.full(DENSE_TICKS, PHASE_RED))
    return _base_scene(scene_id, v0, human, (-6.0, 6.0), intersections=[Intersection(poly, light)])


def _build_oncoming_lane(scene_id, p):
    v0, t0 = p["v0"], p["incursion_t0"]
    lane_shift, t_change = 3.5, 1.0

    def y_of_t(t):
        return lane_shift * _smoothstep((np.asarray(t) - t0) / t_change)

    human = _plan_from_profile(lambda t: v0 * np.asarray(t), y_of_t)
    oncoming = Lane(Polyline([[-15.0, lane_shift], [70.0, lane_shift]]), -1)
    return _base_scene(scene_id, v0, human, (-3.5, 7.0), [oncoming])


def _build_lane_drift(scene_id, p):
    v0, drift = p["v0"], p["drift_m"]
    t0, t_change = 1.0, 0.8

    def y_of_t(t):
        return drift * _smoothstep((np.asarray(t) - t0) / t_change)

    human = _plan_from_profile(lambda t: v0 * np.asarray(t), y_of_t)
    return _base_scene(scene_id, v0, human, (-3.5, 3.5))


_BUILDERS = {
    "clean_straight": _build_clean_straight,
    "parked_agent": _build_parked_agent,
    "crossing_agent": _build_crossing_agent,
    "red_light": _build_red_light,
    "oncoming_lane": _build_oncoming_lane,
    "lane_drift": _build_lane_drift,
}


# ---------------------------------------------------------------------------
# scene directories and auxiliary file formats


def load_scene_dir(directory) -> list:
    """The scenes of every *.json file in `directory`, in sorted file-name
    order; a missing directory or one without scene files raises
    FileNotFoundError naming it."""
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"scene directory not found: {directory}")
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no scene files (*.json) under {directory}")
    return [load_scene(p) for p in paths]


def save_trajectory_map(trajs: dict, path) -> None:
    """Write a scene_id -> trajectory map ('*' applies to any scene)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "trajectories": {k: v.poses.tolist() for k, v in trajs.items()},
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_trajectory_map(path) -> dict:
    with _document(path) as doc:
        return {k: _from_array(Trajectory, v, f"trajectories.{k}")
                for k, v in _field(doc, "trajectories", dict).items()}


def save_proposal_set(proposals, path) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "proposals": [p.poses.tolist() for p in proposals]}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_proposal_set(path) -> list:
    with _document(path) as doc:
        return _trajectories(doc, "proposals")


def load_proposal_frames(path) -> list:
    """[(scene_id, [Trajectory] proposals)] for frame-by-frame selection."""
    with _document(path) as doc:
        return [(_field(f, "scene_id", str, where), _trajectories(f, "proposals", where))
                for where, f in _objects(doc, "frames")]


def load_score_frames(path) -> dict:
    """scene_id -> external score vector, aligned with proposal frames."""
    with _document(path) as doc:
        return {_field(f, "scene_id", str, where): _field(f, "scores", np.ndarray, where).astype(float)
                for where, f in _objects(doc, "frames")}
