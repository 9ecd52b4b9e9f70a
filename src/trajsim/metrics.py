"""Log-replay scoring of dense rollouts against a scene.

Produces the nine rule-based subscores (NC, DAC, DDC, TLC, EP, TTC, LK, HC,
EC), their multiplicative/weighted aggregates, and the proposal-set diversity
measure.  The scene is immutable during scoring and every function here
returns a value that depends only on its arguments, so (trajectory, scene)
pairs can be scored concurrently.

Every rule takes the rollout and a ``ScoreContext`` of its scene, which
precomputes the replay arrays once and the human reference rollout (EP's
denominator, ``ego_rollout`` of the scene's human plan) on first use.
A context also memoizes the lane geometry of the last rollout that DDC or
LK scored, so the other of the two reuses it.  The memo is one immutable
``(rollout, value)`` tuple, read and replaced whole and matched by rollout
identity (rollouts are immutable), so threads sharing a context can at worst
recompute it and never receive another rollout's geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import (
    Polygon,
    Polyline,
    arc_length,
    arc_positions,
    nearest_segments,
    obb_overlap_batch,
    segments_intersect_batch,
    xy_in_polygon,
)
from .kinematics import (
    DENSE_TICKS,
    TICK_DT,
    DenseTrajectory,
    EgoState,
    KinematicsConfig,
    Trajectory,
    ego_rollout,
    finite_difference,
)

__all__ = [
    "PHASE_GREEN",
    "PHASE_YELLOW",
    "PHASE_RED",
    "PHASE_NAMES",
    "Agent",
    "TrafficLight",
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


class Agent:
    """Replayed road agent: oriented box footprint with 41 world-frame poses."""

    __slots__ = ("id", "half_length", "half_width", "x", "y", "psi", "is_static")

    def __init__(self, id, half_length, half_width, states, is_static=False):
        for name, value in (("half_length", half_length), ("half_width", half_width)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"agent {id!r}: {name} must be finite and positive, got {value}")
        s = np.asarray(states, dtype=float)
        if s.shape != (DENSE_TICKS, 3):
            raise ValueError(f"agent {id!r}: states must be ({DENSE_TICKS}, 3), got {s.shape}")
        if not np.isfinite(s).all():
            raise ValueError(f"agent {id!r}: states must be finite")
        self.id = id
        self.half_length = float(half_length)
        self.half_width = float(half_width)
        self.x = s[:, 0].copy()
        self.y = s[:, 1].copy()
        self.psi = s[:, 2].copy()
        for arr in (self.x, self.y, self.psi):
            arr.setflags(write=False)
        self.is_static = bool(is_static)

    @property
    def poses(self) -> np.ndarray:
        return np.stack([self.x, self.y, self.psi], axis=1)


class TrafficLight:
    """Signal phase per tick for one intersection (codes from PHASE_*)."""

    __slots__ = ("intersection_id", "phases")

    def __init__(self, intersection_id, phases):
        p = np.asarray(phases, dtype=np.int8)
        if p.shape != (DENSE_TICKS,):
            raise ValueError(f"traffic light {intersection_id!r}: needs {DENSE_TICKS} phases")
        if not np.all((p >= PHASE_GREEN) & (p <= PHASE_RED)):
            raise ValueError(f"traffic light {intersection_id!r}: invalid phase code")
        self.intersection_id = intersection_id
        self.phases = p
        self.phases.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Lane:
    centerline: Polyline
    direction_sign: int  # +1: legal travel follows the centerline order, -1: against

    def __post_init__(self):
        if self.direction_sign not in (1, -1):
            raise ValueError("direction_sign must be +1 or -1")
        if len(self.centerline) < 2:
            raise ValueError("lane centerline needs at least 2 points")


@dataclass(frozen=True, eq=False)
class Intersection:
    polygon: Polygon
    light: TrafficLight


@dataclass(eq=False)
class Scene:
    """Log-replayed world state for one 4 s scoring window."""

    scene_id: str
    ego_init: EgoState            # world frame
    ego_history: list             # >= 16 past EgoStates at 0.1 s, oldest first
    agents: list
    drivable: list                # list of Polygon, nonempty
    route: Polyline
    route_polygon: Polygon
    lanes: list
    intersections: list
    human_trajectory: Trajectory  # ego frame
    command: str = "forward"
    ego_half_length: float = 2.3
    ego_half_width: float = 0.95

    def __post_init__(self):
        if not self.drivable:
            raise ValueError("scene needs at least one drivable polygon")
        if arc_length(self.route) <= 0:
            raise ValueError("route must have positive arc length")
        if len(self.ego_history) < 16:
            raise ValueError("ego history needs at least 16 states (1.5 s plus margin)")
        if self.command not in COMMANDS:
            raise ValueError(f"command must be one of {COMMANDS}")
        for name in ("ego_half_length", "ego_half_width"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


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


_DEFAULT_METRIC_CFG = MetricConfig()
_DEFAULT_KIN_CFG = KinematicsConfig()


class ScoreContext:
    """Per-scene precomputation shared across many rollout evaluations.

    The human reference rollout (needed by EP) is computed on first use.
    The lane geometry of the last rollout scored by DDC or LK is kept, so
    that the other of the two reuses it (see ``_lane_state``).
    """

    __slots__ = (
        "scene", "metric_cfg", "kin_cfg",
        "agent_x", "agent_y", "agent_psi", "agent_hl", "agent_hw",
        "agent_vx", "agent_vy", "n_agents",
        "lane_dirs", "_reference", "_ref_progress", "_lane_memo",
        "hist_x", "hist_y", "hist_psi", "hist_v",
    )

    def __init__(self, scene: Scene, kin_cfg=None, metric_cfg=None):
        self.scene = scene
        self.kin_cfg = kin_cfg or _DEFAULT_KIN_CFG
        self.metric_cfg = metric_cfg or _DEFAULT_METRIC_CFG

        agents = scene.agents
        self.n_agents = len(agents)
        if agents:
            self.agent_x = np.stack([a.x for a in agents])
            self.agent_y = np.stack([a.y for a in agents])
            self.agent_psi = np.stack([a.psi for a in agents])
            self.agent_hl = np.array([a.half_length for a in agents])[:, None]
            self.agent_hw = np.array([a.half_width for a in agents])[:, None]
            # replay velocity by forward difference, last tick repeats
            self.agent_vx = np.empty_like(self.agent_x)
            self.agent_vy = np.empty_like(self.agent_y)
            self.agent_vx[:, :-1] = np.diff(self.agent_x, axis=1) / TICK_DT
            self.agent_vy[:, :-1] = np.diff(self.agent_y, axis=1) / TICK_DT
            self.agent_vx[:, -1] = self.agent_vx[:, -2]
            self.agent_vy[:, -1] = self.agent_vy[:, -2]
        else:
            self.agent_x = self.agent_y = self.agent_psi = None
            self.agent_hl = self.agent_hw = self.agent_vx = self.agent_vy = None

        # per-lane unit tangents, signed by legal direction
        self.lane_dirs = []
        for lane in scene.lanes:
            d = np.diff(lane.centerline.points, axis=0)
            d /= np.linalg.norm(d, axis=1, keepdims=True)
            self.lane_dirs.append(lane.direction_sign * d)

        hist = scene.ego_history[-self.metric_cfg.history_pad_ticks:]
        self.hist_x = np.array([s.pose.x for s in hist])
        self.hist_y = np.array([s.pose.y for s in hist])
        self.hist_psi = np.array([s.pose.psi for s in hist])
        self.hist_v = np.array([s.v for s in hist])

        self._reference = None
        self._ref_progress = None
        self._lane_memo = None

    @property
    def reference(self) -> DenseTrajectory:
        if self._reference is None:
            self._reference = ego_rollout(self.scene.human_trajectory, self.scene.ego_init, self.kin_cfg)
        return self._reference

    @property
    def ref_progress(self) -> float:
        if self._ref_progress is None:
            self._ref_progress = route_progress(self.reference, self.scene.route)
        return self._ref_progress


def route_progress(d: DenseTrajectory, route: Polyline) -> float:
    """Arc length gained along the route between first and last rollout pose."""
    s = arc_positions(route, np.array([d.x[0], d.x[-1]]), np.array([d.y[0], d.y[-1]]))
    return float(s[1] - s[0])


def _ego_corners(d: DenseTrajectory, hl: float, hw: float, c: np.ndarray, s: np.ndarray):
    """(4, 41) world x and y of the ego box corners along a rollout, CCW from
    front-left; c and s are the cosine and sine of the rollout heading."""
    lx = np.array([[hl], [-hl], [-hl], [hl]])
    ly = np.array([[hw], [hw], [-hw], [-hw]])
    cx = d.x + lx * c - ly * s
    cy = d.y + lx * s + ly * c
    return cx, cy


def _ego_at_fault(ex, ey, epsi, ev, ax, ay, avx, avy):
    """The at-fault rule, elementwise: a received rear-end while not
    reversing (agent centered in the rear half-plane and closing at least as
    fast as the ego moves) is not the ego's fault; everything else is."""
    hx, hy = np.cos(epsi), np.sin(epsi)
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
    overlap = obb_overlap_batch(
        d.x, d.y, d.psi, ctx.scene.ego_half_length, ctx.scene.ego_half_width,
        ctx.agent_x, ctx.agent_y, ctx.agent_psi, ctx.agent_hl, ctx.agent_hw,
    )
    if not overlap.any():
        return 1.0
    at_fault = _ego_at_fault(
        d.x, d.y, d.psi, d.v, ctx.agent_x, ctx.agent_y, ctx.agent_vx, ctx.agent_vy
    )
    return 0.0 if (at_fault & _onsets(overlap)).any() else 1.0


def score_dac(d: DenseTrajectory, ctx: ScoreContext) -> float:
    """Drivable-area compliance: all ego corners inside the drivable union."""
    cx, cy = _ego_corners(d, ctx.scene.ego_half_length, ctx.scene.ego_half_width, np.cos(d.psi), np.sin(d.psi))
    px, py = cx.ravel(), cy.ravel()
    covered = np.zeros(len(px), dtype=bool)
    for poly in ctx.scene.drivable:
        covered |= xy_in_polygon(px, py, poly)
        if covered.all():
            return 1.0
    return 1.0 if covered.all() else 0.0


_TICKS = np.arange(DENSE_TICKS)


def _lane_state(d: DenseTrajectory, ctx: ScoreContext):
    """Lane geometry of a rollout that DDC and LK share, per lane and tick.

    Returns (dists, aligned, outside): (L, 41) distances to each centerline,
    (L, 41) whether the heading agrees with that lane's legal direction, and
    (41,) whether the ego center is outside every intersection.  The result
    of the last rollout is memoized on the context as one (rollout, value)
    tuple, which is read and replaced whole, so a context shared between
    threads can never pair a rollout with another rollout's lane geometry.
    """
    memo = ctx._lane_memo
    if memo is not None and memo[0] is d:
        return memo[1]
    px, py = d.x, d.y
    hx, hy = np.cos(d.psi), np.sin(d.psi)
    dists, aligned = [], []
    for lane, dirs in zip(ctx.scene.lanes, ctx.lane_dirs):
        dist, seg = nearest_segments(lane.centerline, px, py)
        tangent = dirs[seg]
        dists.append(dist)
        aligned.append(hx * tangent[:, 0] + hy * tangent[:, 1] > 0)
    outside = np.ones(DENSE_TICKS, dtype=bool)
    for inter in ctx.scene.intersections:
        outside &= ~xy_in_polygon(px, py, inter.polygon)
    value = (np.stack(dists), np.stack(aligned), outside)
    ctx._lane_memo = (d, value)
    return value


def score_ddc(d: DenseTrajectory, ctx: ScoreContext) -> float:
    """Driving-direction compliance, banded by wrong-way meters traveled."""
    cfg = ctx.metric_cfg
    if not ctx.scene.lanes:
        return 1.0
    dists, aligned, outside = _lane_state(d, ctx)
    opposing = ~aligned[np.argmin(dists, axis=0), _TICKS]
    wrong = (opposing & outside)[:-1]
    # the sum over no steps is 0.0, so the steps are measured only when needed
    wrong_way = float(np.sum(np.hypot(np.diff(d.x), np.diff(d.y))[wrong])) if wrong.any() else 0.0
    if wrong_way < cfg.ddc_minor_m:
        return 1.0
    if wrong_way < cfg.ddc_major_m:
        return 0.5
    return 0.0


def _box_in_polygon_per_tick(d: DenseTrajectory, hl, hw, c, s, cx, cy, poly: Polygon) -> np.ndarray:
    """Whether the ego box intersects the polygon, per tick (bool (41,)).

    c and s are the cosine and sine of the rollout heading, cx and cy the
    (4, 41) box corners from _ego_corners.  Work arrays keep the 41 ticks as
    their last axis, so numpy's inner loops run over ticks, not corners.
    """
    corner_in = xy_in_polygon(cx.ravel(), cy.ravel(), poly).reshape(4, DENSE_TICKS).any(axis=0)

    # polygon vertex inside the box, tested in the box frame
    next_vertices, ax, ay = poly._edge_arrays()[:3]
    dx = ax - d.x                                     # (E, 41)
    dy = ay - d.y
    lon = dx * c + dy * s
    lat = -dx * s + dy * c
    vert_in = ((np.abs(lon) <= hl) & (np.abs(lat) <= hw)).any(axis=0)

    # edge crossings between the 4 box edges and the polygon boundary
    corners = np.stack([cx, cy], axis=2)
    p1 = corners[None, :, :, :]                       # (1, 4, 41, 2)
    p2 = corners[None, [1, 2, 3, 0], :, :]
    q1 = poly.vertices[:, None, None, :]              # (E, 1, 1, 2)
    q2 = next_vertices[:, None, None, :]
    edge_cross = segments_intersect_batch(p1, p2, q1, q2).any(axis=(0, 1))
    return corner_in | vert_in | edge_cross


def score_tlc(d: DenseTrajectory, ctx: ScoreContext) -> float:
    """Traffic-light compliance: only the tick of first entry is checked."""
    if not ctx.scene.intersections:
        return 1.0
    hl, hw = ctx.scene.ego_half_length, ctx.scene.ego_half_width
    cos_psi, sin_psi = np.cos(d.psi), np.sin(d.psi)
    cx, cy = _ego_corners(d, hl, hw, cos_psi, sin_psi)
    for inter in ctx.scene.intersections:
        inside = _box_in_polygon_per_tick(d, hl, hw, cos_psi, sin_psi, cx, cy, inter.polygon)
        entries = np.flatnonzero(inside[1:] & ~inside[:-1]) + 1
        if np.any(inter.light.phases[entries] != PHASE_GREEN):
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
    cfg = ctx.metric_cfg
    sub_dt = cfg.ttc_horizon_s / cfg.ttc_substeps
    horizon = (np.arange(1, cfg.ttc_substeps + 1) * sub_dt)[None, None, :]  # (1, 1, J)

    hx, hy = np.cos(d.psi), np.sin(d.psi)
    ex = d.x[None, :, None] + (d.v * hx)[None, :, None] * horizon   # (1, 41, J)
    ey = d.y[None, :, None] + (d.v * hy)[None, :, None] * horizon
    ax = ctx.agent_x[:, :, None] + ctx.agent_vx[:, :, None] * horizon  # (A, 41, J)
    ay = ctx.agent_y[:, :, None] + ctx.agent_vy[:, :, None] * horizon

    overlap = obb_overlap_batch(
        ex, ey, d.psi[None, :, None], ctx.scene.ego_half_length, ctx.scene.ego_half_width,
        ax, ay, ctx.agent_psi[:, :, None], ctx.agent_hl[:, :, None], ctx.agent_hw[:, :, None],
    )
    if not overlap.any():
        return 1.0
    # judge fault at the first overlapping substep of each tick's projection
    at_fault = _ego_at_fault(
        ex, ey, d.psi[None, :, None], d.v[None, :, None],
        ax, ay, ctx.agent_vx[:, :, None], ctx.agent_vy[:, :, None],
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
    dists, aligned, outside = _lane_state(d, ctx)
    # distance to the nearest centerline whose legal direction the heading follows
    offset = np.where(aligned, dists, np.inf).min(axis=0)
    viol = (offset > cfg.lk_offset_m) & outside

    run = longest = 0
    for flag in viol.tolist():
        run = run + 1 if flag else 0
        longest = max(longest, run)
    return 0.0 if longest > cfg.lk_window_ticks else 1.0


def score_hc(d: DenseTrajectory, ctx: ScoreContext) -> float:
    """History comfort: nuPlan bounds over the 1.5 s-padded rollout."""
    cfg = ctx.metric_cfg
    v = np.concatenate([ctx.hist_v, d.v])
    psi = np.concatenate([ctx.hist_psi, d.psi])
    lon_accel = finite_difference(v, TICK_DT)
    yaw_rate = finite_difference(np.unwrap(psi), TICK_DT)
    yaw_accel = finite_difference(yaw_rate, TICK_DT)
    lat_accel = v * yaw_rate
    lon_jerk = finite_difference(lon_accel, TICK_DT)
    jerk = np.hypot(lon_jerk, finite_difference(lat_accel, TICK_DT))
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


def score_ec(
    d_now: DenseTrajectory,
    d_prev: DenseTrajectory | None,
    frame_gap: int = 5,
    cfg: MetricConfig = _DEFAULT_METRIC_CFG,
) -> float:
    """Extended comfort: agreement with the previous frame's plan."""
    if d_prev is None:
        return 1.0
    if not 0 <= frame_gap < DENSE_TICKS:
        raise ValueError("frame_gap must be in [0, 41)")
    n = DENSE_TICKS - frame_gap
    dx = d_now.x[:n] - d_prev.x[frame_gap:]
    dy = d_now.y[:n] - d_prev.y[frame_gap:]
    dpsi = np.abs(np.remainder(d_now.psi[:n] - d_prev.psi[frame_gap:] + np.pi, 2 * np.pi) - np.pi)
    dv = np.abs(d_now.v[:n] - d_prev.v[frame_gap:])
    ok = (
        np.hypot(dx, dy).max() <= cfg.ec_pos_m
        and dpsi.max() <= cfg.ec_heading_rad
        and dv.max() <= cfg.ec_speed_mps
    )
    return 1.0 if ok else 0.0


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


def _corridor_polyline(xy: np.ndarray) -> Polyline:
    """Waypoints as a polyline, dropping consecutive duplicates."""
    keep = [0]
    for i in range(1, len(xy)):
        if np.hypot(*(xy[i] - xy[keep[-1]])) > 1e-9:
            keep.append(i)
    return Polyline(xy[keep])


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
    (round caps and joins).
    """
    pts = _corridor_polyline(xy).points
    radius = 0.5 * _CORRIDOR_WIDTH_M
    lo = np.floor((pts.min(axis=0) - radius - _CELL_M) / _CELL_M).astype(np.int64)
    n = np.ceil((pts.max(axis=0) + radius + _CELL_M - lo * _CELL_M) / _CELL_M).astype(np.int64)
    gx, gy = np.meshgrid(*((lo[k] + np.arange(n[k]) + 0.5) * _CELL_M for k in (0, 1)), indexing="ij")

    if len(pts) == 1:
        d2 = (gx - pts[0, 0]) ** 2 + (gy - pts[0, 1]) ** 2
    else:
        a = pts[:-1]
        d = np.diff(pts, axis=0)
        len2 = np.sum(d * d, axis=1)
        # distance from every cell center to every segment, min over segments
        rx = gx[:, :, None] - a[:, 0]
        ry = gy[:, :, None] - a[:, 1]
        t = np.clip((rx * d[:, 0] + ry * d[:, 1]) / len2, 0.0, 1.0)
        qx = rx - t * d[:, 0]
        qy = ry - t * d[:, 1]
        d2 = np.min(qx * qx + qy * qy, axis=2)
    return lo, d2 <= radius * radius


def diversity(proposals) -> float:
    """One minus the mean IoU of each proposal's 2 m corridor against the union."""
    proposals = list(proposals)
    if not proposals:
        raise ValueError("need at least one proposal")
    corridors = [_corridor_cells(p.xy) for p in proposals]
    lo = np.min([c for c, _ in corridors], axis=0)
    hi = np.max([c + cells.shape for c, cells in corridors], axis=0)
    union = np.zeros(hi - lo, dtype=bool)
    for c, cells in corridors:
        (x0, y0), (nx, ny) = c - lo, cells.shape
        union[x0 : x0 + nx, y0 : y0 + ny] |= cells
    union_count = np.count_nonzero(union)
    ratios = np.array([np.count_nonzero(cells) / union_count for _, cells in corridors])
    return float(1.0 - ratios.mean())
