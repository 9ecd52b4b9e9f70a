"""Log-replay scoring of dense rollouts against a scene.

Produces the nine rule-based subscores (NC, DAC, DDC, TLC, EP, TTC, LK, HC,
EC), their multiplicative/weighted aggregates, and the proposal-set diversity
measure.  The scene is immutable during scoring and every function here
returns a value that depends only on its arguments, so (trajectory, scene)
pairs can be scored concurrently.

A ``Scene`` holds its replayed agents as arrays, one row per agent: the
(A, 41, 3) world-frame states and the (A,) box extents, checked at once
when the scene is built.  Each ``Intersection`` holds its light's (41,)
phases, and each polygon and polyline holds the edge or segment arrays
its queries read, built with it.  Every rule takes the rollout and a
``ScoreContext`` of its scene.  The context reads views of those arrays,
and when it is built it computes the per-scene arrays (agent headings as
cosines and sines, TTC's agent horizon positions, the ego box's corner
offsets, every lane's segments stacked into one array) and the human
reference rollout with its route progress (EP's denominator, from
``ego_rollout`` of the scene's human plan).  A context also keeps what the
rules derive from the last rollout they scored: the cosine and sine of its
heading, its box corners, which corners and centers lie in each
intersection, and its lane geometry, all computed when the first rule to
read that rollout builds the record, then shared by every rule that reads
it.  The memo is one record per rollout, complete when built and never
changed, replaced whole and matched by rollout identity (rollouts are
immutable), so threads sharing a context can at worst build a rollout's
record again and never receive another rollout's values.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .geom import (
    COORD_LIMIT_M,
    Polygon,
    Polyline,
    Pose,
    _coord_error,
    _obb_overlap,
    _ring_meets_polygon,
    _segment_projection,
    arc_positions,
    wrap_angle,
    xy_in_polygon,
)
from .kinematics import (
    _DEFAULT_KIN_CFG,
    DENSE_TICKS,
    TICK_DT,
    DenseTrajectory,
    EgoState,
    Trajectory,
    _check_fields,
    ego_rollout,
)

__all__ = [
    "PHASE_GREEN",
    "PHASE_YELLOW",
    "PHASE_RED",
    "PHASE_NAMES",
    "Lane",
    "Intersection",
    "Scene",
    "SubScores",
    "MetricConfig",
    "ScoreContext",
    "score_nc",
    "score_dac",
    "score_ddc",
    "score_tlc",
    "score_ep",
    "score_ttc",
    "score_lk",
    "score_hc",
    "score_ec",
    "aggregate_pdms",
    "aggregate_epdms",
    "evaluate_rollout",
    "diversity",
    "COMMANDS",
]

PHASE_GREEN, PHASE_YELLOW, PHASE_RED = 0, 1, 2
PHASE_NAMES = ("green", "yellow", "red")
COMMANDS = ("left", "forward", "right")


@dataclass(frozen=True, eq=False)
class Lane:
    """A lane: its centerline, a Polyline and so at least 2 points, and the
    direction of legal travel along it."""

    centerline: Polyline
    direction_sign: int  # +1: legal travel follows the centerline order, -1: against

    def __post_init__(self):
        if self.direction_sign not in (1, -1):
            raise ValueError("direction_sign must be +1 or -1")


@dataclass(frozen=True, eq=False)
class Intersection:
    """A signalised intersection: its polygon, the id of its traffic light,
    and the light's phase per tick, kept as a read-only (41,) int8 copy of
    PHASE_* codes."""

    polygon: Polygon
    light_id: object
    phases: np.ndarray

    def __post_init__(self):
        p = np.array(self.phases, dtype=np.int8)
        if p.shape != (DENSE_TICKS,):
            raise ValueError(f"traffic light {self.light_id!r}: needs {DENSE_TICKS} phases")
        if not np.all((p >= PHASE_GREEN) & (p <= PHASE_RED)):
            raise ValueError(f"traffic light {self.light_id!r}: invalid phase code")
        p.setflags(write=False)
        object.__setattr__(self, "phases", p)


# The bounds on the columns of an ego state row (x, y, psi, v, a, steer),
# which Pose and EgoState apply to one state; the largest float stands for
# "finite".  The speed must also be non-negative.
_STATE_BOUNDS = np.array([COORD_LIMIT_M, COORD_LIMIT_M, np.finfo(float).max,
                          COORD_LIMIT_M, np.finfo(float).max, np.finfo(float).max])


def _ego_states(states) -> np.ndarray:
    """`states` as a new read-only (H, 6) float array of x, y, psi, v, a and
    steer rows, H >= 16, each row valid as Pose and EgoState check one
    state, and psi wrapped to (-pi, pi].  An error names the first bad row
    as the scene file does, ego.history[i]."""
    h = np.array(states, dtype=float)
    if h.ndim != 2 or h.shape[1] != 6:
        raise ValueError(f"ego history must be an (H, 6) array of x, y, psi, v, a and steer, got shape {h.shape}")
    if len(h) < 16:
        raise ValueError("ego history needs at least 16 states (1.5 s plus margin)")
    if not ((np.abs(h) <= _STATE_BOUNDS).all() and (h[:, 3] >= 0).all()):
        for i, (x, y, psi, v, a, steer) in enumerate(h.tolist()):
            try:
                EgoState(Pose(x, y, psi), v, a, steer)  # which names what is wrong
            except ValueError as exc:
                raise ValueError(f"ego.history[{i}]: {exc}") from None
    h[:, 2] = [wrap_angle(p) for p in h[:, 2].tolist()]
    h.setflags(write=False)
    return h


def _agent_arrays(ids, states, half_lengths, half_widths) -> tuple:
    """The agents of a scene as (ids, states, half lengths, half widths): a
    tuple and new read-only (A, 41, 3), (A,) and (A,) float arrays, one row
    per id.  The extents must be finite and positive, and every state value
    finite, all at most COORD_LIMIT_M in magnitude (headings too, which
    keeps it one test).  An error names the first bad agent as the scene
    file does, agents[i], and its id."""
    ids = tuple(ids)
    n = len(ids)
    if not len(states) == len(half_lengths) == len(half_widths) == n:
        raise ValueError(f"agent states, half lengths and half widths need one entry per id, {n}")
    if not n:
        return _NO_AGENTS
    extents = np.array([half_lengths, half_widths], dtype=float)
    try:
        s = np.array(states, dtype=float)
    except ValueError:  # states of different shapes
        s = None
    # a NaN fails each comparison, since min and max return it
    if s is None or s.shape != (n, DENSE_TICKS, 3) or not (
        0 < extents.min() and extents.max() <= COORD_LIMIT_M and np.abs(s).max() <= COORD_LIMIT_M
    ):
        for i, (id_, hl, hw, poses) in enumerate(zip(ids, half_lengths, half_widths, states)):
            where = f"agents[{i}]: agent {id_!r}"
            for name, value in (("half_length", hl), ("half_width", hw)):
                if not 0 < value <= COORD_LIMIT_M:
                    raise ValueError(f"{where}: {name} must be finite and positive, at most {COORD_LIMIT_M:g}, "
                                     f"got {value}")
            poses = np.asarray(poses, dtype=float)
            if poses.shape != (DENSE_TICKS, 3):
                raise ValueError(f"{where}: states must be ({DENSE_TICKS}, 3), got {poses.shape}")
            if not (np.abs(poses) <= COORD_LIMIT_M).all():
                raise _coord_error(f"{where}: states", poses)
    for arr in (s, extents):
        arr.setflags(write=False)
    return ids, s, extents[0], extents[1]


# the agent arrays of every scene without agents: empty, so one read-only set serves all
_NO_AGENTS = ((), np.empty((0, DENSE_TICKS, 3)), np.empty(0), np.empty(0))
for _arr in _NO_AGENTS[1:]:
    _arr.setflags(write=False)


@dataclass(eq=False)
class Scene:
    """Log-replayed world state for one 4 s scoring window.

    ego_history is an (H, 6) float array, H >= 16, of the past ego states at
    0.1 s, oldest first, one row of x, y, psi, v, a and steer each (world
    frame); the scene keeps a read-only copy with each psi wrapped to
    (-pi, pi].

    The replayed agents are arrays with one row per agent, in file order:
    agent_ids, a tuple; agent_states, (A, 41, 3) world-frame x, y and psi at
    each tick; and agent_half_lengths and agent_half_widths, (A,) box
    extents.  Any sequences of those shapes are accepted, checked at once
    and kept as a tuple and read-only arrays (see ``_agent_arrays``); a
    scene without agents leaves them out.
    """

    scene_id: str
    ego_init: EgoState            # world frame
    ego_history: np.ndarray       # (H, 6), see above
    drivable: list                # list of Polygon, nonempty
    route: Polyline
    lanes: list
    intersections: list
    human_trajectory: Trajectory  # ego frame
    agent_ids: tuple = ()
    agent_states: np.ndarray = ()          # (A, 41, 3), see above
    agent_half_lengths: np.ndarray = ()    # (A,)
    agent_half_widths: np.ndarray = ()     # (A,)
    command: str = "forward"
    ego_half_length: float = 2.3
    ego_half_width: float = 0.95

    def __post_init__(self):
        if not self.drivable:
            raise ValueError("drivable_polygons_m must hold at least one polygon")
        self.ego_history = _ego_states(self.ego_history)
        self.agent_ids, self.agent_states, self.agent_half_lengths, self.agent_half_widths = _agent_arrays(
            self.agent_ids, self.agent_states, self.agent_half_lengths, self.agent_half_widths)
        if self.command not in COMMANDS:
            raise ValueError(f"command must be one of {COMMANDS}")
        for name in ("ego_half_length", "ego_half_width"):
            value = getattr(self, name)
            if not 0 < value <= COORD_LIMIT_M:
                raise ValueError(f"{name} must be finite and positive, at most {COORD_LIMIT_M:g}, got {value}")


@dataclass(frozen=True)
class SubScores:
    """The nine rule subscores plus the v1 comfort term, all in [0, 1]."""

    nc: float
    dac: float
    ddc: float
    tlc: float
    ep: float
    ttc: float
    lk: float
    hc: float
    ec: float
    c: float

    def __post_init__(self):
        for name in ("nc", "dac", "ddc", "tlc", "ep", "ttc", "lk", "hc", "ec", "c"):
            val = getattr(self, name)
            if not (0.0 <= val <= 1.0):
                raise ValueError(f"subscore {name} out of [0, 1]: {val}")

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in ("nc", "dac", "ddc", "tlc", "ep", "ttc", "lk", "hc", "ec", "c")}


@dataclass(frozen=True)
class MetricConfig:
    """Every metric threshold, centralized so recalibration is config-only.

    The comfort bounds follow the nuPlan defaults.  lk_window_ticks is the
    number of 0.1 s ticks equated with the 1 s lane-keeping tolerance window;
    a violation run must exceed it to fail.
    """

    ddc_minor_m: float = 2.0
    ddc_major_m: float = 6.0
    lk_offset_m: float = 0.5
    lk_window_ticks: int = 10
    ec_pos_m: float = 1.0
    ec_heading_rad: float = 0.2
    ec_speed_mps: float = 2.0
    ttc_horizon_s: float = 1.0
    ttc_substeps: int = 10
    lon_accel_min: float = -4.05
    lon_accel_max: float = 2.40
    lat_accel_max: float = 4.89
    lon_jerk_max: float = 4.13
    jerk_max: float = 8.37
    yaw_rate_max: float = 0.95
    yaw_accel_max: float = 1.93
    ep_min_ref_progress_m: float = 0.1
    history_pad_ticks: int = 15

    def __post_init__(self):
        _check_fields(self)
        for name, least in (("lk_window_ticks", 0), ("ttc_substeps", 1), ("history_pad_ticks", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be an integer of at least {least}, got {getattr(self, name)!r}")


_DEFAULT_METRIC_CFG = MetricConfig()


class ScoreContext:
    """Per-scene precomputation shared across many rollout evaluations.

    Built once per scene: views of the scene's agent arrays (x, y and the
    extents), with the cosine and sine of their headings, their replay
    velocities and, for TTC, their constant-velocity positions over the
    horizon; the ego box's corner offsets; every lane's centerline
    segments stacked into one array, with the legal direction of each; and
    the speeds and headings of the last history_pad_ticks history rows, which
    pad HC; and the human reference rollout with its route progress, EP's
    denominator.

    The values that several rules derive from one rollout (a ``_Shared``
    record) are kept in ``_memo`` for the last rollout scored, so they are
    computed once per rollout (see ``_shared``); ``_memo`` is None until a
    rule reads it.  In a scene without lanes ``lane_segments``,
    ``lane_dir_x`` and ``lane_dir_y`` are None and ``lane_slices`` is empty.
    """

    __slots__ = (
        "scene", "metric_cfg", "kin_cfg",
        "agent_x", "agent_y", "agent_cos", "agent_sin", "agent_hl", "agent_hw",
        "agent_vx", "agent_vy", "n_agents", "ttc_horizon", "ttc_x", "ttc_y",
        "corner_lon", "corner_lat", "lane_segments", "lane_slices", "lane_dir_x", "lane_dir_y",
        "reference", "ref_progress", "_memo", "hist_psi", "hist_v",
    )

    def __init__(self, scene: Scene, kin_cfg=None, metric_cfg=None):
        self.scene = scene
        self.kin_cfg = kin_cfg or _DEFAULT_KIN_CFG
        self.metric_cfg = cfg = metric_cfg or _DEFAULT_METRIC_CFG

        # views of the scene's agent arrays, (A, 41) each but the (A, 1) extents
        states = scene.agent_states
        self.n_agents = len(states)
        self.agent_x, self.agent_y, psi = states[:, :, 0], states[:, :, 1], states[:, :, 2]
        self.agent_cos, self.agent_sin = np.cos(psi), np.sin(psi)
        self.agent_hl = scene.agent_half_lengths[:, None]
        self.agent_hw = scene.agent_half_widths[:, None]
        # replay velocity by forward difference, last tick repeats
        v = np.empty((self.n_agents, DENSE_TICKS, 2))
        v[:, :-1] = np.diff(states[:, :, :2], axis=1) / TICK_DT
        v[:, -1] = v[:, -2]
        self.agent_vx, self.agent_vy = v[:, :, 0], v[:, :, 1]
        # TTC's substep offsets (J,) and the agents' positions there, (A, 41, J)
        self.ttc_horizon = np.arange(1, cfg.ttc_substeps + 1) * (cfg.ttc_horizon_s / cfg.ttc_substeps)
        self.ttc_x = self.agent_x[:, :, None] + self.agent_vx[:, :, None] * self.ttc_horizon
        self.ttc_y = self.agent_y[:, :, None] + self.agent_vy[:, :, None] * self.ttc_horizon

        # box corners in the ego frame, (4, 1) columns, CCW from front-left
        hl, hw = scene.ego_half_length, scene.ego_half_width
        self.corner_lon = np.array([[hl], [-hl], [-hl], [hl]])
        self.corner_lat = np.array([[hw], [hw], [-hw], [-hw]])

        # every lane's segments, stacked in lane order: (S, 2) start points and
        # offsets and (S, 1) squared lengths, each segment's unit tangent (its
        # offset over its length) signed by its lane's legal direction, and
        # each lane's (lo, hi) range of segments
        self.lane_segments = self.lane_dir_x = self.lane_dir_y = None
        self.lane_slices = ()
        if scene.lanes:
            lines = [lane.centerline for lane in scene.lanes]
            d = np.concatenate([line._d for line in lines])
            seg_len = np.concatenate([line._seg_len for line in lines])
            self.lane_segments = (np.concatenate([line.points[:-1] for line in lines]), d,
                                  np.concatenate([line._len2 for line in lines]))
            counts = [len(line) - 1 for line in lines]
            sign = np.repeat([lane.direction_sign for lane in scene.lanes], counts)
            self.lane_dir_x = sign * (d[:, 0] / seg_len)
            self.lane_dir_y = sign * (d[:, 1] / seg_len)
            ends = np.cumsum(counts).tolist()
            self.lane_slices = tuple(zip([0, *ends[:-1]], ends))

        history, pad = scene.ego_history, cfg.history_pad_ticks
        if pad > len(history):
            raise ValueError(f"history_pad_ticks={pad} exceeds the {len(history)} history states "
                             f"of scene {scene.scene_id!r}")
        self.hist_psi = history[len(history) - pad:, 2]
        self.hist_v = history[len(history) - pad:, 3]

        # EP's denominator: the human plan's rollout and its route progress
        self.reference = ego_rollout(scene.human_trajectory, scene.ego_init, self.kin_cfg)
        self.ref_progress = route_progress(self.reference, scene.route)
        self._memo = None


_TICKS = np.arange(DENSE_TICKS)
_ENDS = np.array([0, DENSE_TICKS - 1])


def route_progress(d: DenseTrajectory, route: Polyline) -> float:
    """Arc length gained along the route between first and last rollout pose."""
    s = arc_positions(route, d.x.take(_ENDS), d.y.take(_ENDS))
    return float(s[1] - s[0])


class _Shared:
    """What several rules derive from one rollout d, all computed when the
    record is built and never changed: ``c`` and ``s``, the cosine and sine
    of its heading; ``corners``, (4, 41) world x and y of the ego box
    corners, CCW from front-left; ``in_intersections``, per intersection,
    (5, 41) whether each box corner (rows 0-3) and the ego center (row 4)
    lie in its polygon, () without intersections; and ``lanes``, the lane
    geometry DDC and LK share, (dists, aligned, outside): the (L, 41)
    distances to each centerline, (L, 41) whether the heading agrees with
    that lane's legal direction at the closest segment, and (41,) whether
    the ego center is outside every intersection, None without lanes."""

    __slots__ = ("d", "c", "s", "corners", "in_intersections", "lanes")

    def __init__(self, d: DenseTrajectory, ctx: ScoreContext):
        self.d = d
        self.c = c = np.cos(d.psi)
        self.s = s = np.sin(d.psi)
        lon, lat = ctx.corner_lon, ctx.corner_lat
        self.corners = cx, cy = (d.x + lon * c - lat * s, d.y + lon * s + lat * c)
        self.in_intersections = ()
        if ctx.scene.intersections:
            px, py = np.concatenate([cx.ravel(), d.x]), np.concatenate([cy.ravel(), d.y])
            self.in_intersections = tuple(
                xy_in_polygon(px, py, inter.polygon).reshape(5, DENSE_TICKS) for inter in ctx.scene.intersections
            )
        self.lanes = None
        if ctx.scene.lanes:
            _, d2 = _segment_projection(*ctx.lane_segments, d.x, d.y)    # (S, 41)
            # each lane's closest segment; equidistant ones break to the lowest index
            seg = np.empty((len(ctx.lane_slices), DENSE_TICKS), dtype=np.intp)
            for i, (lo, hi) in enumerate(ctx.lane_slices):
                seg[i] = d2[lo:hi].argmin(axis=0) + lo
            aligned = c * ctx.lane_dir_x.take(seg) + s * ctx.lane_dir_y.take(seg) > 0
            outside = np.ones(DENSE_TICKS, dtype=bool)
            for inside in self.in_intersections:
                outside &= ~inside[4]
            self.lanes = (np.sqrt(d2[seg, _TICKS]), aligned, outside)


def _shared(d: DenseTrajectory, ctx: ScoreContext) -> _Shared:
    """The shared values of rollout d: the context's memo if it is d's, else
    a new one, complete when built, that replaces it.  The memo holds d, so
    d's id cannot be reused while the memo is matched against it."""
    memo = ctx._memo
    if memo is None or memo.d is not d:
        memo = ctx._memo = _Shared(d, ctx)
    return memo


def _ego_at_fault(ex, ey, hx, hy, ev, ax, ay, avx, avy):
    """The at-fault rule, elementwise: a received rear-end while not
    reversing (agent centered in the rear half-plane and closing at least as
    fast as the ego moves) is not the ego's fault; everything else is.
    hx and hy are the cosine and sine of the ego heading."""
    behind = (ax - ex) * hx + (ay - ey) * hy < 0
    closing = avx * hx + avy * hy
    return ~(behind & (ev <= closing))


def _onsets(overlap: np.ndarray) -> np.ndarray:
    """First tick of each contiguous overlap run along the last axis.

    Fault is judged where contact begins; replayed agents pass through the
    ego, so later ticks of the same contact are not fresh collisions.
    """
    onset = np.zeros_like(overlap)
    onset[..., 0] = overlap[..., 0]
    onset[..., 1:] = overlap[..., 1:] & ~overlap[..., :-1]
    return onset


def score_nc(d: DenseTrajectory, ctx: ScoreContext) -> float:
    """No at-fault collision: 0 iff some contact onset is the ego's fault."""
    if ctx.n_agents == 0:
        return 1.0
    sh = _shared(d, ctx)
    overlap = _obb_overlap(
        d.x, d.y, sh.c, sh.s, ctx.scene.ego_half_length, ctx.scene.ego_half_width,
        ctx.agent_x, ctx.agent_y, ctx.agent_cos, ctx.agent_sin, ctx.agent_hl, ctx.agent_hw,
    )
    if not overlap.any():
        return 1.0
    at_fault = _ego_at_fault(d.x, d.y, sh.c, sh.s, d.v, ctx.agent_x, ctx.agent_y, ctx.agent_vx, ctx.agent_vy)
    return 0.0 if (at_fault & _onsets(overlap)).any() else 1.0


def score_dac(d: DenseTrajectory, ctx: ScoreContext) -> float:
    """Drivable-area compliance: all ego corners inside the drivable union."""
    cx, cy = _shared(d, ctx).corners
    px, py = cx.ravel(), cy.ravel()
    covered = np.zeros(len(px), dtype=bool)
    for poly in ctx.scene.drivable:
        covered |= xy_in_polygon(px, py, poly)
        if covered.all():
            return 1.0
    return 0.0



def score_ddc(d: DenseTrajectory, ctx: ScoreContext) -> float:
    """Driving-direction compliance, banded by wrong-way meters traveled."""
    cfg = ctx.metric_cfg
    if not ctx.scene.lanes:
        return 1.0
    dists, aligned, outside = _shared(d, ctx).lanes
    opposing = ~aligned[dists.argmin(axis=0), _TICKS]
    wrong = (opposing & outside)[:-1]
    # the sum over no steps is 0.0, so the steps are measured only when needed
    wrong_way = float(np.sum(np.hypot(np.diff(d.x), np.diff(d.y))[wrong])) if wrong.any() else 0.0
    if wrong_way < cfg.ddc_minor_m:
        return 1.0
    if wrong_way < cfg.ddc_major_m:
        return 0.5
    return 0.0


# the corner each box edge runs to, over the (4 * 41,) raveled corners
_NEXT_CORNER = np.roll(np.arange(4 * DENSE_TICKS), -DENSE_TICKS)


def _box_in_polygon_per_tick(sh: _Shared, ctx: ScoreContext, corners_in: np.ndarray, poly: Polygon) -> np.ndarray:
    """Whether the ego box intersects the polygon, per tick (bool (41,)):
    a box corner in the polygon (corners_in, (4, 41)), a polygon vertex in
    the box, or a box edge meeting a polygon edge.  Work arrays keep the
    ticks as their last axis, so numpy's inner loops run over ticks, not
    corners.
    """
    d, c, s = sh.d, sh.c, sh.s
    # polygon vertex inside the box, tested in the box frame
    ax, ay = poly.vertices[:, 0:1], poly.vertices[:, 1:2]
    dx = ax - d.x                                     # (E, 41)
    dy = ay - d.y
    vert_in = (
        (np.abs(dx * c + dy * s) <= ctx.scene.ego_half_length) & (np.abs(dy * c - dx * s) <= ctx.scene.ego_half_width)
    ).any(axis=0)

    cx, cy = sh.corners
    edge_cross = _ring_meets_polygon(cx.ravel(), cy.ravel(), _NEXT_CORNER, poly)    # (E, 4 * 41)
    return corners_in.any(axis=0) | vert_in | edge_cross.reshape(-1, 4, DENSE_TICKS).any(axis=(0, 1))


def score_tlc(d: DenseTrajectory, ctx: ScoreContext) -> float:
    """Traffic-light compliance: only the tick of first entry is checked."""
    if not ctx.scene.intersections:
        return 1.0
    sh = _shared(d, ctx)
    for inter, points_in in zip(ctx.scene.intersections, sh.in_intersections):
        inside = _box_in_polygon_per_tick(sh, ctx, points_in[:4], inter.polygon)
        entries = np.flatnonzero(inside[1:] & ~inside[:-1]) + 1
        if np.any(inter.phases[entries] != PHASE_GREEN):
            return 0.0
    return 1.0


def score_ep(d: DenseTrajectory, ctx: ScoreContext) -> float:
    """Ego progress along the route relative to the reference rollout."""
    ref_progress = ctx.ref_progress
    if ref_progress < ctx.metric_cfg.ep_min_ref_progress_m:
        return 1.0
    ratio = route_progress(d, ctx.scene.route) / ref_progress
    return float(min(max(ratio, 0.0), 1.0))


def score_ttc(d: DenseTrajectory, ctx: ScoreContext) -> float:
    """Time-to-collision: constant-velocity projection over a 1 s horizon."""
    if ctx.n_agents == 0:
        return 1.0
    sh = _shared(d, ctx)
    # ego positions over the horizon, (41, J); the heading terms stay (41, 1)
    hx, hy = sh.c[:, None], sh.s[:, None]
    ex = d.x[:, None] + (d.v * sh.c)[:, None] * ctx.ttc_horizon
    ey = d.y[:, None] + (d.v * sh.s)[:, None] * ctx.ttc_horizon
    overlap = _obb_overlap(
        ex, ey, hx, hy, ctx.scene.ego_half_length, ctx.scene.ego_half_width,
        ctx.ttc_x, ctx.ttc_y, ctx.agent_cos[:, :, None], ctx.agent_sin[:, :, None],
        ctx.agent_hl[:, :, None], ctx.agent_hw[:, :, None],
    )                                                                  # (A, 41, J)
    if not overlap.any():
        return 1.0
    # judge fault at the first overlapping substep of each tick's projection
    at_fault = _ego_at_fault(
        ex, ey, hx, hy, d.v[:, None], ctx.ttc_x, ctx.ttc_y, ctx.agent_vx[:, :, None], ctx.agent_vy[:, :, None]
    )
    has_overlap = overlap.any(axis=2)
    first = np.argmax(overlap, axis=2)
    fault_at_first = np.take_along_axis(at_fault & overlap, first[:, :, None], axis=2)[:, :, 0]
    return 0.0 if (fault_at_first & has_overlap).any() else 1.0


def score_lk(d: DenseTrajectory, ctx: ScoreContext) -> float:
    """Lane keeping: offset to the nearest same-direction centerline."""
    cfg = ctx.metric_cfg
    if not ctx.scene.lanes:
        return 1.0
    dists, aligned, outside = _shared(d, ctx).lanes
    # distance to the nearest centerline whose legal direction the heading follows
    offset = np.where(aligned, dists, np.inf).min(axis=0)
    viol = (offset > cfg.lk_offset_m) & outside

    run = longest = 0
    for flag in viol.tolist():
        run = run + 1 if flag else 0
        longest = max(longest, run)
    return 0.0 if longest > cfg.lk_window_ticks else 1.0


def _unwrap(p: np.ndarray) -> np.ndarray:
    """np.unwrap(p) of a 1-d float array (period 2 pi, discontinuity pi),
    by the operations numpy's own unwrap performs, without its generic
    argument handling."""
    dd = p[1:] - p[:-1]
    ddmod = np.remainder(dd + np.pi, 2 * np.pi) - np.pi
    # a difference of exactly +pi maps to +pi, not -pi
    ddmod[(ddmod == -np.pi) & (dd > 0)] = np.pi
    ph_correct = ddmod - dd
    ph_correct[np.abs(dd) < np.pi] = 0
    up = p.copy()
    up[1:] = p[1:] + ph_correct.cumsum()
    return up


def _finite_difference(v: np.ndarray, dt: float) -> np.ndarray:
    """Central differences on interior points, one-sided at the ends."""
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2 * dt)
    out[0] = (v[1] - v[0]) / dt
    out[-1] = (v[-1] - v[-2]) / dt
    return out


def score_hc(d: DenseTrajectory, ctx: ScoreContext) -> float:
    """History comfort: nuPlan bounds over the 1.5 s-padded rollout."""
    cfg = ctx.metric_cfg
    v = np.concatenate([ctx.hist_v, d.v])
    psi = np.concatenate([ctx.hist_psi, d.psi])
    lon_accel = _finite_difference(v, TICK_DT)
    yaw_rate = _finite_difference(_unwrap(psi), TICK_DT)
    yaw_accel = _finite_difference(yaw_rate, TICK_DT)
    lat_accel = v * yaw_rate
    lon_jerk = _finite_difference(lon_accel, TICK_DT)
    jerk = np.hypot(lon_jerk, _finite_difference(lat_accel, TICK_DT))
    ok = (
        lon_accel.min() >= cfg.lon_accel_min
        and lon_accel.max() <= cfg.lon_accel_max
        and np.abs(lat_accel).max() <= cfg.lat_accel_max
        and np.abs(lon_jerk).max() <= cfg.lon_jerk_max
        and jerk.max() <= cfg.jerk_max
        and np.abs(yaw_rate).max() <= cfg.yaw_rate_max
        and np.abs(yaw_accel).max() <= cfg.yaw_accel_max
    )
    return 1.0 if ok else 0.0


def _ec_breaks(d_prev: DenseTrajectory, frame_gap: int, cfg: MetricConfig):
    """Extended comfort's per-tick test against the previous frame's rollout.

    ``breaks(k, x, y, psi, v)`` says whether the new rollout's state at tick
    k is beyond a tolerance from ``d_prev`` at tick k + frame_gap.  It is the
    one definition of that test: ``score_ec`` applies it to every compared
    tick, and selection applies it tick by tick as a rollout is computed.
    The arithmetic is that of the array form (numpy's hypot, a floored
    remainder, plain differences), and a tick breaks unless each error is
    <= its tolerance, so a NaN error breaks, as it fails a max() test.

    The position test first screens the squared error d2 = dx*dx + dy*dy:
    a tick passes if d2 <= pos_m**2 * (1 - 2**-40) and breaks if d2 >
    pos_m**2 * (1 + 2**-40); only in between does it call numpy's hypot.
    The screen gives hypot's verdict: d2, hypot and the two thresholds are
    each within a few rounding errors (2**-53 relative) of their exact
    values, far inside 2**-40, as long as pos_m**2 is a normal float (an
    underflowing d2 is off by less than 2**-1073, far below pos_m**2 *
    2**-40).  For any other tolerance (zero, negative, or one whose square
    underflows or overflows) every tick calls hypot.  A NaN d2 passes
    neither screen, so it reaches hypot and breaks.
    """
    px = d_prev.x[frame_gap:].tolist()
    py = d_prev.y[frame_gap:].tolist()
    ppsi = d_prev.psi[frame_gap:].tolist()
    pv = d_prev.v[frame_gap:].tolist()
    pos_m, heading_rad, speed_mps = cfg.ec_pos_m, cfg.ec_heading_rad, cfg.ec_speed_mps
    pos2 = pos_m * pos_m
    if pos_m > 0.0 and sys.float_info.min <= pos2 <= sys.float_info.max:
        sure_in, sure_out = pos2 * (1.0 - 2.0**-40), pos2 * (1.0 + 2.0**-40)
    else:
        sure_in, sure_out = -np.inf, np.inf  # no d2 is below or above these
    hypot = np.hypot
    pi = np.pi
    tau = 2 * np.pi

    def breaks(k, x, y, psi, v) -> bool:
        if not (abs(v - pv[k]) <= speed_mps and abs((psi - ppsi[k] + pi) % tau - pi) <= heading_rad):
            return True
        dx = x - px[k]
        dy = y - py[k]
        d2 = dx * dx + dy * dy
        if d2 <= sure_in:
            return False
        if d2 > sure_out:
            return True
        return not hypot(dx, dy) <= pos_m

    return breaks


def score_ec(
    d_now: DenseTrajectory,
    d_prev: DenseTrajectory | None,
    frame_gap: int = 5,
    cfg: MetricConfig = _DEFAULT_METRIC_CFG,
) -> float:
    """Extended comfort: agreement with the previous frame's plan, 0.0 if
    any tick k < 41 - frame_gap breaks a tolerance (see ``_ec_breaks``)."""
    if not isinstance(frame_gap, numbers.Integral) or isinstance(frame_gap, bool):  # it slices d_prev
        raise ValueError(f"frame_gap must be an integer, got {frame_gap!r}")
    if not 0 <= frame_gap < DENSE_TICKS:
        raise ValueError(f"frame_gap must be in [0, {DENSE_TICKS}), got {frame_gap}")
    if d_prev is None:
        return 1.0
    breaks = _ec_breaks(d_prev, frame_gap, cfg)
    ticks = list(zip(d_now.x.tolist(), d_now.y.tolist(), d_now.psi.tolist(), d_now.v.tolist()))
    return 0.0 if any(breaks(k, *tick) for k, tick in enumerate(ticks[:DENSE_TICKS - frame_gap])) else 1.0


def aggregate_pdms(sub: SubScores) -> float:
    """v1 aggregate: NC * DAC * (5*(EP + TTC) + 2*C) / 12."""
    return sub.nc * sub.dac * (5.0 * (sub.ep + sub.ttc) + 2.0 * sub.c) / 12.0


def aggregate_epdms(sub: SubScores) -> float:
    """v2 aggregate: NC * DAC * DDC * TLC * (5*(EP+TTC) + 2*(LK+HC+EC)) / 16."""
    return (
        sub.nc
        * sub.dac
        * sub.ddc
        * sub.tlc
        * (5.0 * (sub.ep + sub.ttc) + 2.0 * (sub.lk + sub.hc + sub.ec))
        / 16.0
    )


def evaluate_rollout(d: DenseTrajectory, ctx: ScoreContext) -> SubScores:
    """All nine subscores for one rollout.  EC compares consecutive frames,
    which only selection sees, so it is vacuous (1.0) here."""
    hc = score_hc(d, ctx)
    return SubScores(
        nc=score_nc(d, ctx),
        dac=score_dac(d, ctx),
        ddc=score_ddc(d, ctx),
        tlc=score_tlc(d, ctx),
        ep=score_ep(d, ctx),
        ttc=score_ttc(d, ctx),
        lk=score_lk(d, ctx),
        hc=hc,
        ec=1.0,
        c=hc,
    )


def _distinct_points(xy: np.ndarray) -> np.ndarray:
    """The waypoints without consecutive duplicates (within 1e-9 m)."""
    keep = [0]
    for i in range(1, len(xy)):
        if np.hypot(*(xy[i] - xy[keep[-1]])) > 1e-9:
            keep.append(i)
    return xy[keep]


_CORRIDOR_WIDTH_M = 2.0
# Corridors are rasterized on the one lattice of multiples of this cell, so
# their union is an OR of integer windows.  A power of two: every cell center
# (i + 0.5) * _CELL_M is exact.
_CELL_M = 0.25


def _corridor_cells(xy: np.ndarray):
    """The 2 m corridor around a proposal's waypoints on the cell lattice.

    Returns the integer (x, y) lattice index of the window's low corner and
    the window's cells as booleans indexed [x, y].  A cell is occupied iff its
    center lies within half the corridor width of the waypoint polyline
    (round caps and joins).  Coincident waypoints collapse to one point, so
    the path is a Polyline only where 2 or more distinct points remain; a
    single point gives a disc.
    """
    pts = _distinct_points(xy)
    radius = 0.5 * _CORRIDOR_WIDTH_M
    lo = np.floor((pts.min(axis=0) - radius - _CELL_M) / _CELL_M).astype(np.int64)
    n = np.ceil((pts.max(axis=0) + radius + _CELL_M - lo * _CELL_M) / _CELL_M).astype(np.int64)
    gx, gy = np.meshgrid(*((lo[k] + np.arange(n[k]) + 0.5) * _CELL_M for k in (0, 1)), indexing="ij")

    if len(pts) == 1:
        d2 = (gx - pts[0, 0]) ** 2 + (gy - pts[0, 1]) ** 2
    else:
        # squared distance from every cell center to every segment, min over segments
        line = Polyline(pts)
        _, d2 = _segment_projection(pts[:-1], line._d, line._len2, gx.ravel(), gy.ravel())
        d2 = d2.min(axis=0).reshape(gx.shape)
    return lo, d2 <= radius * radius


def diversity(proposals) -> float:
    """One minus the mean IoU of each proposal's 2 m corridor against the union."""
    proposals = list(proposals)
    if not proposals:
        raise ValueError("need at least one proposal")
    corridors = [_corridor_cells(p.xy) for p in proposals]
    # the union counted over the occupied cells' sorted (x, y) lattice indices, so that its memory
    # grows with the corridors and not with the distance between them; kept as pairs, since one
    # flat index over both axes could overflow int64
    ix, iy = np.concatenate([lo[:, None] + np.nonzero(cells) for lo, cells in corridors], axis=1)
    order = np.lexsort((iy, ix))
    ix, iy = ix[order], iy[order]
    union_count = 1 + np.count_nonzero((ix[1:] != ix[:-1]) | (iy[1:] != iy[:-1]))
    ratios = np.array([np.count_nonzero(cells) / union_count for _, cells in corridors])
    return float(1.0 - ratios.mean())
