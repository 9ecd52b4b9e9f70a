"""Sparse plans, dense rollouts, and the PID tracker that links them.

A plan is M waypoints at 0.5 s spacing (waypoint i at t + 0.5*(i+1), ego at
the origin of its own frame at time t).  Metrics never consume plans
directly; they consume the 41-state, 10 Hz rollout produced by tracking the
plan with a PID-controlled kinematic bicycle.  ``ego_rollout`` is that step
for an ego-frame plan: it places the plan at the initial pose
(``trajectory_to_world``, one ``geom.to_world`` of the plan's pose rows) and
tracks it in the world frame (EP's reference, distillation rows and the CLI
all call it).  The tracking loop itself is one generator, ``_pid_ticks``,
that yields each state as it is computed: ``pid_track`` collects all 40, and
selection comfort stops at the first tick that fails it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .geom import COORD_LIMIT_M, Pose, _coord_error, to_world, wrap_angle

__all__ = [
    "Trajectory",
    "EgoState",
    "DenseTrajectory",
    "KinematicsConfig",
    "pid_track",
    "ego_rollout",
    "trajectory_to_world",
    "DENSE_TICKS",
    "PLAN_DT",
    "TICK_DT",
]

DENSE_TICKS = 41
TICK_DT = 0.1
PLAN_DT = 0.5


class Trajectory:
    """Sparse planned motion: (M, 3) array of (x, y, psi) at 0.5 s spacing,
    M >= 2 for the PID tracker to follow, the trajectory's own copy, read-only."""

    __slots__ = ("poses",)

    def __init__(self, poses):
        p = np.array(poses, dtype=float)
        if p.ndim != 2 or p.shape[1] != 3:
            raise ValueError("trajectory needs an (M, 3) array of waypoints")
        if len(p) < 2:
            raise ValueError(f"plan needs at least 2 waypoints, got {len(p)}")
        if not (np.abs(p) <= COORD_LIMIT_M).all():  # headings too, which keeps it one test
            raise _coord_error("trajectory waypoints", p)
        p.setflags(write=False)
        self.poses = p

    @property
    def m(self) -> int:
        return len(self.poses)

    @property
    def xy(self) -> np.ndarray:
        return self.poses[:, :2]

    def __len__(self):
        return len(self.poses)

    def __eq__(self, other):
        return isinstance(other, Trajectory) and np.array_equal(self.poses, other.poses)

    def __repr__(self):
        return f"Trajectory(M={self.m})"


@dataclass(frozen=True)
class EgoState:
    """Pose plus longitudinal speed/acceleration and front-wheel angle."""

    pose: Pose
    v: float = 0.0
    a: float = 0.0
    steer: float = 0.0

    def __post_init__(self):
        if not 0 <= self.v <= COORD_LIMIT_M:
            raise ValueError(f"speed v must be finite and non-negative, at most {COORD_LIMIT_M:g}, got {self.v}")
        if not math.isfinite(self.a):
            raise ValueError(f"acceleration a must be finite, got {self.a}")
        if not math.isfinite(self.steer):
            raise ValueError(f"steer must be finite, got {self.steer}")


class DenseTrajectory:
    """Exactly 41 kinematic states at 0.1 s, stored as per-field arrays, each
    the rollout's own copy, read-only."""

    __slots__ = ("x", "y", "psi", "v", "a", "steer")

    def __init__(self, x, y, psi, v, a, steer):
        arrays = [np.array(f, dtype=float) for f in (x, y, psi, v, a, steer)]
        for arr in arrays:
            if arr.shape != (DENSE_TICKS,):
                raise ValueError(f"dense trajectory fields must have shape ({DENSE_TICKS},)")
            arr.setflags(write=False)
        self.x, self.y, self.psi, self.v, self.a, self.steer = arrays
        dpsi = np.abs(np.diff(self.psi))
        if np.any(np.minimum(dpsi, 2 * math.pi - dpsi) >= math.pi):
            raise ValueError("heading jumps by >= pi between consecutive ticks")

    def __len__(self):
        return DENSE_TICKS

    def state(self, i: int) -> EgoState:
        return EgoState(Pose(self.x[i], self.y[i], self.psi[i]), self.v[i], self.a[i], self.steer[i])

    def __eq__(self, other):
        return isinstance(other, DenseTrajectory) and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("x", "y", "psi", "v", "a", "steer")
        )


def _check_fields(cfg) -> None:
    """Raise ValueError naming the first field of the dataclass `cfg` whose
    value is not of its declared kind: a finite real number for a float
    field, an integer for an int field (a bool is neither)."""
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        if field.type == "float":
            if not isinstance(value, numbers.Real) or isinstance(value, bool) or not math.isfinite(value):
                raise ValueError(f"{field.name} must be a finite real number, got {value!r}")
        elif field.type == "int" and (not isinstance(value, numbers.Integral) or isinstance(value, bool)):
            raise ValueError(f"{field.name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class KinematicsConfig:
    """Bicycle geometry, command bounds, and PID gains; the controller steps
    at TICK_DT, the replay clock the metrics and agents share."""

    wheelbase: float = 2.7
    steer_max: float = 0.8
    accel_min: float = -6.0
    accel_max: float = 4.0
    kp_lon: float = 2.0
    ki_lon: float = 0.1
    kd_lon: float = 0.2
    kp_lat: float = 1.5
    kd_lat: float = 0.3

    def __post_init__(self):
        _check_fields(self)
        if self.wheelbase <= 0:
            raise ValueError("wheelbase must be positive")


_DEFAULT_KIN_CFG = KinematicsConfig()


@functools.lru_cache(maxsize=16)
def _tick_schedule(m: int) -> tuple:
    """Where each control-step time 0 .. 39*TICK_DT falls among the plan nodes.

    The nodes sit at t = 0 (the initial state) and 0.5*(i+1) for the m
    waypoints.  Entry k is (j, w), the interval j holding time k*TICK_DT and
    the interpolation weight within it, or None once that time reaches the
    last node.  It depends on nothing but the plan length, so it is computed
    once per m.
    """
    nodes_t = [0.0] + [PLAN_DT * (i + 1) for i in range(m)]
    out = []
    j = 0
    for k in range(DENSE_TICKS - 1):
        t = k * TICK_DT
        while j + 1 < len(nodes_t) - 1 and nodes_t[j + 1] < t:
            j += 1
        if t >= nodes_t[-1]:
            out.append(None)
        else:
            out.append((j, (t - nodes_t[j]) / (nodes_t[j + 1] - nodes_t[j])))
    return tuple(out)


def _pid_ticks(poses: np.ndarray, init: EgoState, cfg: KinematicsConfig | None = None):
    """The PID tracking loop of ``pid_track``, one control step at a time,
    for the (M, 3) waypoint rows `poses` of a plan (M >= 2) in the frame of
    `init`.

    Yields (x, y, psi, v, a, steer) after each of the 40 steps, so a caller
    that has seen enough (selection stops at the first tick that breaks
    extended comfort) can stop the rollout there.  An interval's node terms
    are computed when the steps first reach it, so a rollout stopped early
    pays only for the intervals it reached.
    """
    if cfg is None:
        cfg = _DEFAULT_KIN_CFG
    dt = TICK_DT
    # the control step at tick k tracks the target at tick time k - 1
    schedule = _tick_schedule(len(poses))
    nodes = poses.tolist()
    n = len(nodes)  # intervals: node i (init is node 0) to node i + 1
    reached = 0     # intervals whose terms have been computed
    # the last interval reached: its start node (x, y, psi, arc length),
    # node deltas, heading delta along the shortest arc, and its end node
    ax = ay = apsi = a_s = dx = dy = dpsi = ds = 0.0
    bx, by, bpsi, b_s = init.pose.x, init.pose.y, init.pose.psi, 0.0
    hypot = math.hypot

    kp_lon, ki_lon, kd_lon = cfg.kp_lon, cfg.ki_lon, cfg.kd_lon
    kp_lat, kd_lat = cfg.kp_lat, cfg.kd_lat
    accel_min, accel_max = cfg.accel_min, cfg.accel_max
    steer_min, steer_max = -cfg.steer_max, cfg.steer_max
    wheelbase = cfg.wheelbase
    cos, sin, tan, remainder = math.cos, math.sin, math.tan, math.remainder
    pi = math.pi
    tau = math.tau

    x, y, psi, v = init.pose.x, init.pose.y, init.pose.psi, init.v
    traveled = 0.0
    e_s_prev = 0.0
    e_s_int = 0.0
    for target in schedule:
        # None, once the tick time reaches the last node, needs every interval's arc length
        upto = n if target is None else target[0] + 1
        while reached < upto:
            ax, ay, apsi, a_s = bx, by, bpsi, b_s
            bx, by, bpsi = nodes[reached]
            dx = bx - ax
            dy = by - ay
            b_s = a_s + hypot(dx, dy)
            dpsi = wrap_angle(bpsi - apsi)
            ds = b_s - a_s
            reached += 1
        if target is None:
            tx, ty, tpsi, ts = bx, by, bpsi, b_s
        else:
            w = target[1]
            tx = ax + w * dx
            ty = ay + w * dy
            tpsi = apsi + w * dpsi
            ts = a_s + w * ds
        cos_psi = cos(psi)
        sin_psi = sin(psi)
        # longitudinal PID on arc-length progress at the current tick time
        e_s = ts - traveled
        e_s_int += e_s * dt
        accel_cmd = kp_lon * e_s + ki_lon * e_s_int + kd_lon * (e_s - e_s_prev) / dt
        e_s_prev = e_s
        # lateral PD: cross-track error plus speed-scaled heading mismatch
        ex = tx - x
        ey_w = ty - y
        e_y = -sin_psi * ex + cos_psi * ey_w
        e_psi = remainder(tpsi - psi, tau)
        steer_cmd = kp_lat * e_y + kd_lat * v * sin(e_psi)

        # the clamps are min(max(cmd, lo), hi), written as comparisons
        a = accel_cmd
        if a < accel_min:
            a = accel_min
        if a > accel_max:
            a = accel_max
        steer = steer_cmd
        if steer < steer_min:
            steer = steer_min
        if steer > steer_max:
            steer = steer_max
        step = v * dt
        x += step * cos_psi
        y += step * sin_psi
        psi += (v / wheelbase) * tan(steer) * dt
        if psi > pi or psi <= -pi:
            psi = remainder(psi, tau)
            if psi <= -pi:
                psi += tau
        v += a * dt
        if not v > 0.0:  # max(0.0, v), which also turns -0.0 into 0.0
            v = 0.0
        traveled += step
        yield x, y, psi, v, a, steer


def pid_track(plan: Trajectory, init: EgoState, cfg: KinematicsConfig | None = None) -> DenseTrajectory:
    """Track a sparse plan for 40 ticks of 0.1 s, returning 41 states.

    Longitudinal: PID on the gap between the time-interpolated target arc
    length and the distance actually traveled.  Lateral: PD steering from the
    cross-track error to the time-interpolated target pose, damped by the
    heading mismatch scaled by speed.  Targets interpolate linearly in time
    between the plan nodes (init is the node at t=0); heading interpolates
    along the shortest arc.  Plan and init must share one frame.
    Deterministic; infeasible plans saturate the commands and roll out as-is.
    """
    first = (init.pose.x, init.pose.y, init.pose.psi, init.v, init.a, init.steer)
    return DenseTrajectory(*zip(first, *_pid_ticks(plan.poses, init, cfg)))


# ---------------------------------------------------------------------------
# frame change from the ego frame to the world frame


def trajectory_to_world(t: Trajectory, frame: Pose) -> Trajectory:
    """Express an ego-frame trajectory in the world frame of `frame`."""
    return Trajectory(to_world(frame, t.poses))


def ego_rollout(plan: Trajectory, init: EgoState, cfg: KinematicsConfig | None = None) -> DenseTrajectory:
    """Roll out an ego-frame plan from `init`, in the world frame of `init`."""
    return pid_track(trajectory_to_world(plan, init.pose), init, cfg)
