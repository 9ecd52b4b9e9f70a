"""Independent reference implementations used to cross-check the library.

Nothing here may call into trajsim geometry/metric code paths it validates;
these are deliberately brute-force or analytic alternatives.
"""

import csv
import math

import numpy as np

from trajsim.geom import Polygon, Polyline, Pose
from trajsim.kinematics import DENSE_TICKS, TICK_DT, EgoState, Trajectory
from trajsim.metrics import PHASE_RED, Intersection, Lane, Scene
from trajsim.scene_io import _agent_fields


def sample_points_in_box(rng, x, y, psi, hl, hw, n):
    """Uniform points inside one oriented box, (n, 2)."""
    local = rng.uniform(-1.0, 1.0, size=(n, 2)) * np.array([hl, hw])
    c, s = math.cos(psi), math.sin(psi)
    out = np.empty_like(local)
    out[:, 0] = x + c * local[:, 0] - s * local[:, 1]
    out[:, 1] = y + s * local[:, 0] + c * local[:, 1]
    return out


def points_in_box(pts, x, y, psi, hl, hw):
    c, s = math.cos(psi), math.sin(psi)
    dx = pts[:, 0] - x
    dy = pts[:, 1] - y
    lon = dx * c + dy * s
    lat = -dx * s + dy * c
    return (np.abs(lon) <= hl) & (np.abs(lat) <= hw)


def sampling_overlap(rng, a, b, n=10_000):
    """Membership-sampling overlap verdict for one box pair.

    a/b are (x, y, psi, hl, hw) tuples.  True iff any of n samples drawn in
    either box lies in the other, so thin overlaps can be missed but a True
    verdict is always correct.
    """
    pa = sample_points_in_box(rng, *a, n)
    if points_in_box(pa, *b).any():
        return True
    pb = sample_points_in_box(rng, *b, n)
    return bool(points_in_box(pb, *a).any())


def box_axes_measure(a, b):
    """Signed contact measure from projection gaps on the 4 box axes.

    Positive: at least this much clearance exists (lower bound on the true
    separation).  Negative: exact penetration depth for rectangles.
    """
    ax, ay, apsi, ahl, ahw = a
    bx, by, bpsi, bhl, bhw = b
    gaps = []
    for (ux, uy), own, ox, oy, opsi, ohl, ohw in (
        ((math.cos(apsi), math.sin(apsi)), ahl, bx, by, bpsi, bhl, bhw),
        ((-math.sin(apsi), math.cos(apsi)), ahw, bx, by, bpsi, bhl, bhw),
        ((math.cos(bpsi), math.sin(bpsi)), bhl, ax, ay, apsi, ahl, ahw),
        ((-math.sin(bpsi), math.cos(bpsi)), bhw, ax, ay, apsi, ahl, ahw),
    ):
        t = abs((bx - ax) * ux + (by - ay) * uy)
        other = ohl * abs(math.cos(opsi) * ux + math.sin(opsi) * uy) + ohw * abs(
            -math.sin(opsi) * ux + math.cos(opsi) * uy
        )
        gaps.append(t - own - other)
    return max(gaps)


def box_axes_measure_batch(a, b):
    """Vectorized form of box_axes_measure for (N, 5) parameter arrays."""
    ax, ay, apsi, ahl, ahw = a.T
    bx, by, bpsi, bhl, bhw = b.T
    dx, dy = bx - ax, by - ay
    ca, sa = np.cos(apsi), np.sin(apsi)
    cb, sb = np.cos(bpsi), np.sin(bpsi)
    best = np.full(len(a), -np.inf)
    for ux, uy, own, ohl, ohw, oc, os in (
        (ca, sa, ahl, bhl, bhw, cb, sb),
        (-sa, ca, ahw, bhl, bhw, cb, sb),
        (cb, sb, bhl, ahl, ahw, ca, sa),
        (-sb, cb, bhw, ahl, ahw, ca, sa),
    ):
        t = np.abs(dx * ux + dy * uy)
        other = ohl * np.abs(oc * ux + os * uy) + ohw * np.abs(-os * ux + oc * uy)
        best = np.maximum(best, t - own - other)
    return best


def sampling_overlap_batch(rng, a, b, n=10_000, chunk=128):
    """Batched membership-sampling overlap verdicts for (N, 5) box pairs.

    Pairs whose circumcircles are disjoint cannot contain a witness point, so
    their verdict is False without drawing samples; everything else gets n
    uniform samples per box, tested for membership in the other box.
    """

    def to_local(px, py, box):
        dx = px - box[:, 0:1]
        dy = py - box[:, 1:2]
        c, s = np.cos(box[:, 2:3]), np.sin(box[:, 2:3])
        return dx * c + dy * s, -dx * s + dy * c

    verdict = np.zeros(len(a), dtype=bool)
    ra = np.hypot(a[:, 3], a[:, 4])
    rb = np.hypot(b[:, 3], b[:, 4])
    candidates = np.flatnonzero(np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]) <= ra + rb)
    for lo in range(0, len(candidates), chunk):
        idx = candidates[lo : lo + chunk]
        found = np.zeros(len(idx), dtype=bool)
        for src, dst in ((a[idx], b[idx]), (b[idx], a[idx])):
            local = rng.uniform(-1.0, 1.0, size=(len(idx), n, 2))
            lx = local[:, :, 0] * src[:, 3:4]
            ly = local[:, :, 1] * src[:, 4:5]
            c, s = np.cos(src[:, 2:3]), np.sin(src[:, 2:3])
            wx = src[:, 0:1] + c * lx - s * ly
            wy = src[:, 1:2] + s * lx + c * ly
            lon, lat = to_local(wx, wy, dst)
            found |= ((np.abs(lon) <= dst[:, 3:4]) & (np.abs(lat) <= dst[:, 4:5])).any(axis=1)
        verdict[idx] = found
    return verdict


def winding_number_inside(p, vertices, boundary_eps=1e-9):
    """Winding-number containment with boundary points counted inside."""
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    px, py = p
    for i in range(n):
        ax, ay = v[i]
        bx, by = v[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        t = ((px - ax) * ex + (py - ay) * ey) / (ex * ex + ey * ey)
        t = min(max(t, 0.0), 1.0)
        if math.hypot(px - (ax + t * ex), py - (ay + t * ey)) <= boundary_eps:
            return True
    total = 0.0
    for i in range(n):
        ax, ay = v[i] - (px, py)
        bx, by = v[(i + 1) % n] - (px, py)
        total += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    return abs(total) > math.pi


def dense_projection(line_points, p, samples=100_000):
    """Nearest point on a polyline by dense arc-length sampling."""
    pts = np.asarray(line_points, dtype=float)
    seg = np.diff(pts, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    s = np.linspace(0.0, cum[-1], samples)
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(seg) - 1)
    t = (s - cum[idx]) / seg_len[idx]
    xy = pts[idx] + t[:, None] * seg[idx]
    d = np.hypot(xy[:, 0] - p[0], xy[:, 1] - p[1])
    best = int(np.argmin(d))
    return float(s[best]), float(d[best])


def capsule_area(length, width):
    """Area of a straight corridor with round caps (total width `width`)."""
    r = width / 2.0
    return length * width + math.pi * r * r


def pdms_formula(nc, dac, ep, ttc, c):
    return nc * dac * (5 * (ep + ttc) + 2 * c) / 12


def epdms_formula(nc, dac, ddc, tlc, ep, ttc, lk, hc, ec):
    return nc * dac * ddc * tlc * (5 * (ep + ttc) + 2 * (lk + hc + ec)) / 16


# ---------------------------------------------------------------------------
# Exactness oracles: the rollout and rule-scoring paths as they were before
# per-scene geometry was precomputed, the PID tick schedule cached, the lane
# projections shared between DDC and LK and each rollout's heading terms
# computed once for all rules.  The library must reproduce them bit for bit,
# so they keep the original arithmetic, operation order, numpy calls and
# array layouts.


def wrap_angle(a):
    r = math.remainder(a, math.tau)
    if r <= -math.pi:
        r += math.tau
    return r


def trajectory_to_world(t, frame):
    c, s = math.cos(frame.psi), math.sin(frame.psi)
    p = t.poses
    out = np.empty_like(p)
    out[:, 0] = frame.x + c * p[:, 0] - s * p[:, 1]
    out[:, 1] = frame.y + s * p[:, 0] + c * p[:, 1]
    out[:, 2] = np.vectorize(wrap_angle)(p[:, 2] + frame.psi)
    return Trajectory(out)


def _compose(frame, x, y, psi=None):
    """The rigid frame change of points (x, y) and, if given, headings psi
    (unwrapped), written out per coordinate as transform_scene had it before
    scenes, plans and render's boxes all placed their rows through one
    geom.to_world."""
    c, s = math.cos(frame.psi), math.sin(frame.psi)
    nx = frame.x + c * np.asarray(x) - s * np.asarray(y)
    ny = frame.y + s * np.asarray(x) + c * np.asarray(y)
    if psi is None:
        return nx, ny
    return nx, ny, np.asarray(psi) + frame.psi


def history_states(history):
    """The EgoStates of the rows of an (H, 6) ego history array."""
    return [EgoState(Pose(x, y, psi), v, a, steer) for x, y, psi, v, a, steer in history.tolist()]


def history_array(states):
    """The (H, 6) ego history array of a list of EgoStates."""
    return np.array([[s.pose.x, s.pose.y, s.pose.psi, s.v, s.a, s.steer] for s in states])


def transform_scene(scene, frame):
    """scene_io.transform_scene over _compose, one EgoState at a time."""

    def points(p):
        nx, ny = _compose(frame, p[:, 0], p[:, 1])
        return np.stack([nx, ny], axis=1)

    def state(st):
        nx, ny, npsi = _compose(frame, st.pose.x, st.pose.y, st.pose.psi)
        return EgoState(Pose(float(nx), float(ny), wrap_angle(float(npsi))), st.v, st.a, st.steer)

    s = scene.agent_states
    nx, ny, npsi = _compose(frame, s[:, :, 0], s[:, :, 1], s[:, :, 2])
    npsi = np.reshape([wrap_angle(p) for p in npsi.ravel()], npsi.shape)
    return Scene(
        scene_id=scene.scene_id,
        ego_init=state(scene.ego_init),
        ego_history=history_array([state(st) for st in history_states(scene.ego_history)]),
        agent_ids=scene.agent_ids,
        agent_states=np.stack([nx, ny, npsi], axis=2),
        agent_half_lengths=scene.agent_half_lengths,
        agent_half_widths=scene.agent_half_widths,
        drivable=[Polygon(points(p.vertices)) for p in scene.drivable],
        route=Polyline(points(scene.route.points)),
        lanes=[Lane(Polyline(points(lane.centerline.points)), lane.direction_sign) for lane in scene.lanes],
        intersections=[Intersection(Polygon(points(i.polygon.vertices)), i.light_id, i.phases)
                       for i in scene.intersections],
        human_trajectory=scene.human_trajectory,
        command=scene.command,
        ego_half_length=scene.ego_half_length,
        ego_half_width=scene.ego_half_width,
    )


# ---------------------------------------------------------------------------
# the scene generator as it was before each template gave plain arrays that
# one placement builds into a scene: every template built and validated a
# canonical scene, which transform_scene then rebuilt at the world pose


def _smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _plan_times():
    """The times of a template plan's 8 waypoints, 0.5 s apart from 0.5 s."""
    return 0.5 * (np.arange(8) + 1)


def _plan_from_profile(x_of_t, y_of_t):
    """Waypoints sampled from position profiles at the plan times; each
    heading that of the chord between the positions 1 ms either side."""
    t, eps = _plan_times(), 1e-3
    dx = x_of_t(t + eps) - x_of_t(t - eps)
    dy = y_of_t(t + eps) - y_of_t(t - eps)
    psi = [math.atan2(b, a) for a, b in zip(dx.tolist(), dy.tolist())]
    return Trajectory(np.stack([x_of_t(t), y_of_t(t), psi], axis=1))


def straight_plan(v):
    t = _plan_times()
    return Trajectory(np.stack([v * t, np.zeros(8), np.zeros(8)], axis=1))


def _history(v0, n=16):
    """Constant-speed straight history ending one tick before t=0."""
    return [EgoState(Pose(-v0 * TICK_DT * j, 0.0, 0.0), v0, 0.0, 0.0) for j in range(n, 0, -1)]


def _road_polygon(x_lo, x_hi, y_lo, y_hi):
    return Polygon([[x_lo, y_lo], [x_hi, y_lo], [x_hi, y_hi], [x_lo, y_hi]])


def _static_agent(agent_id, x, y, psi=0.0, hl=2.3, hw=0.95):
    return agent_id, hl, hw, np.tile([x, y, psi], (DENSE_TICKS, 1))


def _base_scene(scene_id, v0, human, road_y, extra_lanes=(), agents=(), intersections=()):
    road = _road_polygon(-15.0, 70.0, *road_y)
    main = Polyline([[-15.0, 0.0], [70.0, 0.0]])
    return Scene(
        scene_id=scene_id,
        ego_init=EgoState(Pose(0.0, 0.0, 0.0), v0, 0.0, 0.0),
        ego_history=history_array(_history(v0)),
        **_agent_fields(agents),
        drivable=[road],
        route=main,
        lanes=[Lane(main, 1), *extra_lanes],
        intersections=list(intersections),
        human_trajectory=human,
        command="forward",
    )


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
    agent = ("crossing-0", 2.3, 0.95, states)
    return _base_scene(scene_id, v0, straight_plan(v0), (-3.5, 3.5), agents=[agent])


def _build_red_light(scene_id, p):
    v0, stop_x = p["v0"], p["stopline_x"]
    x_stop = stop_x - 5.5
    decel = v0 * v0 / (2.0 * x_stop)
    t_stop = v0 / decel

    def x_of_t(t):
        t = np.asarray(t, dtype=float)
        moving = v0 * t - 0.5 * decel * t * t
        return np.where(t < t_stop, moving, x_stop)

    human = _plan_from_profile(x_of_t, lambda t: np.zeros_like(np.asarray(t, dtype=float)))
    poly = _road_polygon(stop_x, stop_x + 12.0, -6.0, 6.0)
    inter = Intersection(poly, "signal-0", np.full(DENSE_TICKS, PHASE_RED))
    return _base_scene(scene_id, v0, human, (-6.0, 6.0), intersections=[inter])


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


BUILDERS = {
    "clean_straight": _build_clean_straight,
    "parked_agent": _build_parked_agent,
    "crossing_agent": _build_crossing_agent,
    "red_light": _build_red_light,
    "oncoming_lane": _build_oncoming_lane,
    "lane_drift": _build_lane_drift,
}


def _interp_targets(plan, init, dt, ticks):
    nodes_t = [0.0] + [0.5 * (i + 1) for i in range(plan.m)]
    nodes_x = [init.pose.x] + [float(v) for v in plan.poses[:, 0]]
    nodes_y = [init.pose.y] + [float(v) for v in plan.poses[:, 1]]
    nodes_psi = [init.pose.psi] + [float(v) for v in plan.poses[:, 2]]
    nodes_s = [0.0]
    for i in range(1, len(nodes_x)):
        nodes_s.append(nodes_s[-1] + math.hypot(nodes_x[i] - nodes_x[i - 1], nodes_y[i] - nodes_y[i - 1]))

    tx, ty, tpsi, ts = [], [], [], []
    j = 0
    for k in range(ticks):
        t = k * dt
        while j + 1 < len(nodes_t) - 1 and nodes_t[j + 1] < t:
            j += 1
        if t >= nodes_t[-1]:
            tx.append(nodes_x[-1])
            ty.append(nodes_y[-1])
            tpsi.append(nodes_psi[-1])
            ts.append(nodes_s[-1])
            continue
        w = (t - nodes_t[j]) / (nodes_t[j + 1] - nodes_t[j])
        tx.append(nodes_x[j] + w * (nodes_x[j + 1] - nodes_x[j]))
        ty.append(nodes_y[j] + w * (nodes_y[j + 1] - nodes_y[j]))
        dpsi = wrap_angle(nodes_psi[j + 1] - nodes_psi[j])
        tpsi.append(nodes_psi[j] + w * dpsi)
        ts.append(nodes_s[j] + w * (nodes_s[j + 1] - nodes_s[j]))
    return tx, ty, tpsi, ts


def pid_track(plan, init, cfg=None):
    from trajsim.kinematics import DENSE_TICKS, DenseTrajectory, KinematicsConfig

    if plan.m < 2:
        raise ValueError("plan needs at least 2 waypoints")
    if cfg is None:
        cfg = KinematicsConfig()
    dt = 0.1
    tx, ty, tpsi, ts = _interp_targets(plan, init, dt, DENSE_TICKS)

    xs = [0.0] * DENSE_TICKS
    ys = [0.0] * DENSE_TICKS
    psis = [0.0] * DENSE_TICKS
    vs = [0.0] * DENSE_TICKS
    accs = [0.0] * DENSE_TICKS
    steers = [0.0] * DENSE_TICKS
    x, y, psi, v = init.pose.x, init.pose.y, init.pose.psi, init.v
    xs[0], ys[0], psis[0], vs[0] = x, y, psi, v
    accs[0], steers[0] = init.a, init.steer

    traveled = 0.0
    e_s_prev = 0.0
    e_s_int = 0.0
    pi = math.pi
    tau = math.tau
    for k in range(1, DENSE_TICKS):
        cos_psi = math.cos(psi)
        sin_psi = math.sin(psi)
        e_s = ts[k - 1] - traveled
        e_s_int += e_s * dt
        accel_cmd = cfg.kp_lon * e_s + cfg.ki_lon * e_s_int + cfg.kd_lon * (e_s - e_s_prev) / dt
        e_s_prev = e_s
        ex = tx[k - 1] - x
        ey_w = ty[k - 1] - y
        e_y = -sin_psi * ex + cos_psi * ey_w
        e_psi = tpsi[k - 1] - psi
        e_psi = math.remainder(e_psi, tau)
        steer_cmd = cfg.kp_lat * e_y + cfg.kd_lat * v * math.sin(e_psi)

        a = min(max(accel_cmd, cfg.accel_min), cfg.accel_max)
        steer = min(max(steer_cmd, -cfg.steer_max), cfg.steer_max)
        step = v * dt
        x += step * cos_psi
        y += step * sin_psi
        psi += (v / cfg.wheelbase) * math.tan(steer) * dt
        if psi > pi or psi <= -pi:
            psi = math.remainder(psi, tau)
            if psi <= -pi:
                psi += tau
        v = max(0.0, v + a * dt)
        traveled += step
        xs[k], ys[k], psis[k], vs[k], accs[k], steers[k] = x, y, psi, v, a, steer

    return DenseTrajectory(xs, ys, psis, vs, accs, steers)


def points_in_polygon(points, vertices, edge_eps=1e-9):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    v = np.asarray(vertices, dtype=float)
    a = v
    b = np.roll(v, -1, axis=0)

    px = pts[:, 0:1]
    py = pts[:, 1:2]
    ax_, ay = a[:, 0], a[:, 1]
    bx_, by = b[:, 0], b[:, 1]

    cond = (ay > py) != (by > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = ax_ + (py - ay) * (bx_ - ax_) / (by - ay)
    crossings = np.sum(cond & (px < x_cross), axis=1)
    inside = (crossings % 2) == 1

    ex = bx_ - ax_
    ey = by - ay
    seg_len2 = ex * ex + ey * ey
    t = ((px - ax_) * ex + (py - ay) * ey) / seg_len2
    t = np.clip(t, 0.0, 1.0)
    dx = px - (ax_ + t * ex)
    dy = py - (ay + t * ey)
    on_edge = np.any(dx * dx + dy * dy <= edge_eps * edge_eps, axis=1)
    return inside | on_edge


def project_many(line_points, points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    p = np.asarray(line_points, dtype=float)
    cum = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(p, axis=0), axis=1))])
    a = p[:-1]
    d = np.diff(p, axis=0)
    len2 = np.sum(d * d, axis=1)
    seg_len = np.sqrt(len2)

    rx = pts[:, 0:1] - a[:, 0]
    ry = pts[:, 1:2] - a[:, 1]
    t = np.clip((rx * d[:, 0] + ry * d[:, 1]) / len2, 0.0, 1.0)
    qx = rx - t * d[:, 0]
    qy = ry - t * d[:, 1]
    d2 = qx * qx + qy * qy
    seg = np.argmin(d2, axis=1)

    rows = np.arange(len(pts))
    t_best = t[rows, seg]
    s = cum[seg] + t_best * seg_len[seg]
    dist = np.sqrt(d2[rows, seg])
    cross = d[seg, 0] * ry[rows, seg] - d[seg, 1] * rx[rows, seg]
    lat_sign = np.where(cross >= 0, 1.0, -1.0)
    lateral = lat_sign * np.abs(cross) / seg_len[seg]
    return s, lateral, dist, seg


def _ego_corners(d, hl, hw):
    c, s = np.cos(d.psi), np.sin(d.psi)
    local = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
    cx = d.x[:, None] + local[:, 0] * c[:, None] - local[:, 1] * s[:, None]
    cy = d.y[:, None] + local[:, 0] * s[:, None] + local[:, 1] * c[:, None]
    return np.stack([cx, cy], axis=2)


def route_progress(d, route):
    pts = np.array([[d.x[0], d.y[0]], [d.x[-1], d.y[-1]]])
    s, _, _, _ = project_many(route.points, pts)
    return float(s[1] - s[0])


def score_dac(d, scene):
    corners = _ego_corners(d, scene.ego_half_length, scene.ego_half_width).reshape(-1, 2)
    covered = np.zeros(len(corners), dtype=bool)
    for poly in scene.drivable:
        covered |= points_in_polygon(corners, poly.vertices)
        if covered.all():
            return 1.0
    return 1.0 if covered.all() else 0.0


def _outside_intersections(scene, pts):
    outside = np.ones(len(pts), dtype=bool)
    for inter in scene.intersections:
        outside &= ~points_in_polygon(pts, inter.polygon.vertices)
    return outside


def _lane_projections(scene, pts, heading):
    hx, hy = np.cos(heading), np.sin(heading)
    dists, aligned = [], []
    for lane in scene.lanes:
        d = np.diff(lane.centerline.points, axis=0)
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        dirs = lane.direction_sign * d
        _, _, dist, seg = project_many(lane.centerline.points, pts)
        tangent = dirs[seg]
        dists.append(dist)
        aligned.append(hx * tangent[:, 0] + hy * tangent[:, 1] > 0)
    return dists, aligned


def score_ddc(d, scene, cfg):
    if not scene.lanes:
        return 1.0
    pts = np.stack([d.x, d.y], axis=1)
    dists, aligned = _lane_projections(scene, pts, d.psi)
    nearest = np.argmin(np.stack(dists), axis=0)
    opposing = ~np.stack(aligned)[nearest, np.arange(len(pts))]
    cond = opposing & _outside_intersections(scene, pts)
    steps = np.hypot(np.diff(d.x), np.diff(d.y))
    wrong_way = float(np.sum(steps[cond[:-1]]))
    if wrong_way < cfg.ddc_minor_m:
        return 1.0
    if wrong_way < cfg.ddc_major_m:
        return 0.5
    return 0.0


def score_lk(d, scene, cfg):
    if not scene.lanes:
        return 1.0
    pts = np.stack([d.x, d.y], axis=1)
    dists, aligned = _lane_projections(scene, pts, d.psi)
    offset = np.full(len(pts), np.inf)
    for dist, ok in zip(dists, aligned):
        offset = np.where(ok, np.minimum(offset, dist), offset)
    viol = (offset > cfg.lk_offset_m) & _outside_intersections(scene, pts)
    run = longest = 0
    for flag in viol:
        run = run + 1 if flag else 0
        longest = max(longest, run)
    return 0.0 if longest > cfg.lk_window_ticks else 1.0


def segments_intersect_batch(p1, p2, q1, q2, edge_eps=1e-9):
    p1 = np.asarray(p1, float)
    p2 = np.asarray(p2, float)
    q1 = np.asarray(q1, float)
    q2 = np.asarray(q2, float)

    def orient(a, b, c):
        return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (
            b[..., 1] - a[..., 1]
        ) * (c[..., 0] - a[..., 0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)

    def on_box(a, b, c):
        return (
            (np.minimum(a[..., 0], b[..., 0]) - edge_eps <= c[..., 0])
            & (c[..., 0] <= np.maximum(a[..., 0], b[..., 0]) + edge_eps)
            & (np.minimum(a[..., 1], b[..., 1]) - edge_eps <= c[..., 1])
            & (c[..., 1] <= np.maximum(a[..., 1], b[..., 1]) + edge_eps)
        )

    touch = (
        ((d1 == 0) & on_box(q1, q2, p1))
        | ((d2 == 0) & on_box(q1, q2, p2))
        | ((d3 == 0) & on_box(p1, p2, q1))
        | ((d4 == 0) & on_box(p1, p2, q2))
    )
    return proper | touch


def _box_in_polygon_per_tick(d, hl, hw, vertices):
    corners = _ego_corners(d, hl, hw)
    corner_in = points_in_polygon(corners.reshape(-1, 2), vertices).reshape(len(d.x), 4).any(axis=1)
    v = vertices
    c, s = np.cos(d.psi), np.sin(d.psi)
    dx = v[None, :, 0] - d.x[:, None]
    dy = v[None, :, 1] - d.y[:, None]
    lon = dx * c[:, None] + dy * s[:, None]
    lat = -dx * s[:, None] + dy * c[:, None]
    vert_in = ((np.abs(lon) <= hl) & (np.abs(lat) <= hw)).any(axis=1)
    p1 = corners[:, :, None, :]
    p2 = np.roll(corners, -1, axis=1)[:, :, None, :]
    q1 = v[None, None, :, :]
    q2 = np.roll(v, -1, axis=0)[None, None, :, :]
    edge_cross = segments_intersect_batch(p1, p2, q1, q2).any(axis=(1, 2))
    return corner_in | vert_in | edge_cross


def score_tlc(d, scene):
    hl, hw = scene.ego_half_length, scene.ego_half_width
    for inter in scene.intersections:
        inside = _box_in_polygon_per_tick(d, hl, hw, inter.polygon.vertices)
        entries = np.flatnonzero(inside[1:] & ~inside[:-1]) + 1
        if np.any(inter.phases[entries] != 0):
            return 0.0
    return 1.0


def score_ep(d, scene, kin_cfg, cfg):
    reference = pid_track(trajectory_to_world(scene.human_trajectory, scene.ego_init.pose), scene.ego_init, kin_cfg)
    ref_progress = route_progress(reference, scene.route)
    if ref_progress < cfg.ep_min_ref_progress_m:
        return 1.0
    ratio = route_progress(d, scene.route) / ref_progress
    return float(min(max(ratio, 0.0), 1.0))


def obb_overlap_batch(ax, ay, apsi, ahl, ahw, bx, by, bpsi, bhl, bhw):
    """SAT overlap over arrays broadcast to one shape, headings as angles."""
    ax, ay, apsi, ahl, ahw, bx, by, bpsi, bhl, bhw = np.broadcast_arrays(
        ax, ay, apsi, ahl, ahw, bx, by, bpsi, bhl, bhw
    )
    dx = bx - ax
    dy = by - ay
    ca, sa = np.cos(apsi), np.sin(apsi)
    cb, sb = np.cos(bpsi), np.sin(bpsi)
    cab = ca * cb + sa * sb
    sab = ca * sb - sa * cb

    overlap = np.ones(ax.shape, dtype=bool)
    t_lon = dx * ca + dy * sa
    t_lat = -dx * sa + dy * ca
    rb_lon = bhl * np.abs(cab) + bhw * np.abs(sab)
    rb_lat = bhl * np.abs(sab) + bhw * np.abs(cab)
    overlap &= np.abs(t_lon) <= ahl + rb_lon
    overlap &= np.abs(t_lat) <= ahw + rb_lat
    u_lon = dx * cb + dy * sb
    u_lat = -dx * sb + dy * cb
    ra_lon = ahl * np.abs(cab) + ahw * np.abs(sab)
    ra_lat = ahl * np.abs(sab) + ahw * np.abs(cab)
    overlap &= np.abs(u_lon) <= bhl + ra_lon
    overlap &= np.abs(u_lat) <= bhw + ra_lat
    return overlap


def _ego_at_fault(ex, ey, epsi, ev, ax, ay, avx, avy):
    hx, hy = np.cos(epsi), np.sin(epsi)
    behind = (ax - ex) * hx + (ay - ey) * hy < 0
    closing = avx * hx + avy * hy
    return ~(behind & (ev <= closing))


def _agent_arrays(scene):
    """(x, y, psi, half length, half width, vx, vy) of the agents, (A, 41)
    each but the (A, 1) extents; replay velocity by forward difference."""
    s = scene.agent_states
    x, y, psi = s[:, :, 0], s[:, :, 1], s[:, :, 2]
    hl = scene.agent_half_lengths[:, None]
    hw = scene.agent_half_widths[:, None]
    vx = np.empty_like(x)
    vy = np.empty_like(y)
    vx[:, :-1] = np.diff(x, axis=1) / 0.1
    vy[:, :-1] = np.diff(y, axis=1) / 0.1
    vx[:, -1] = vx[:, -2]
    vy[:, -1] = vy[:, -2]
    return x, y, psi, hl, hw, vx, vy


def score_nc(d, scene):
    if not scene.agent_ids:
        return 1.0
    x, y, psi, hl, hw, vx, vy = _agent_arrays(scene)
    overlap = obb_overlap_batch(d.x, d.y, d.psi, scene.ego_half_length, scene.ego_half_width, x, y, psi, hl, hw)
    if not overlap.any():
        return 1.0
    at_fault = _ego_at_fault(d.x, d.y, d.psi, d.v, x, y, vx, vy)
    onset = np.zeros_like(overlap)
    onset[..., 0] = overlap[..., 0]
    onset[..., 1:] = overlap[..., 1:] & ~overlap[..., :-1]
    return 0.0 if (at_fault & onset).any() else 1.0


def score_ttc(d, scene, cfg):
    if not scene.agent_ids:
        return 1.0
    x, y, psi, hl, hw, vx, vy = _agent_arrays(scene)
    sub_dt = cfg.ttc_horizon_s / cfg.ttc_substeps
    horizon = (np.arange(1, cfg.ttc_substeps + 1) * sub_dt)[None, None, :]

    hx, hy = np.cos(d.psi), np.sin(d.psi)
    ex = d.x[None, :, None] + (d.v * hx)[None, :, None] * horizon
    ey = d.y[None, :, None] + (d.v * hy)[None, :, None] * horizon
    ax = x[:, :, None] + vx[:, :, None] * horizon
    ay = y[:, :, None] + vy[:, :, None] * horizon

    overlap = obb_overlap_batch(
        ex, ey, d.psi[None, :, None], scene.ego_half_length, scene.ego_half_width,
        ax, ay, psi[:, :, None], hl[:, :, None], hw[:, :, None],
    )
    if not overlap.any():
        return 1.0
    at_fault = _ego_at_fault(
        ex, ey, d.psi[None, :, None], d.v[None, :, None], ax, ay, vx[:, :, None], vy[:, :, None],
    )
    has_overlap = overlap.any(axis=2)
    first = np.argmax(overlap, axis=2)
    fault_at_first = np.take_along_axis(at_fault & overlap, first[:, :, None], axis=2)[:, :, 0]
    return 0.0 if (fault_at_first & has_overlap).any() else 1.0


def _finite_difference(v, dt):
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2 * dt)
    out[0] = (v[1] - v[0]) / dt
    out[-1] = (v[-1] - v[-2]) / dt
    return out


def score_hc(d, scene, cfg, dt=0.1):
    """HC with the motion profiles derived first, lon jerk differenced again."""
    hist = history_states(scene.ego_history)[len(scene.ego_history) - cfg.history_pad_ticks:]
    v = np.concatenate([[s.v for s in hist], d.v])
    psi = np.concatenate([[s.pose.psi for s in hist], d.psi])
    lon_accel = _finite_difference(v, dt)
    yaw_rate = _finite_difference(np.unwrap(psi), dt)
    yaw_accel = _finite_difference(yaw_rate, dt)
    lat_accel = v * yaw_rate
    jerk = np.hypot(_finite_difference(lon_accel, dt), _finite_difference(lat_accel, dt))
    lon_jerk = _finite_difference(lon_accel, dt)
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


def subscores(d, ctx):
    """The eight rollout subscores of one rollout, by name."""
    scene, cfg = ctx.scene, ctx.metric_cfg
    return {
        "nc": score_nc(d, scene),
        "dac": score_dac(d, scene),
        "ddc": score_ddc(d, scene, cfg),
        "tlc": score_tlc(d, scene),
        "ep": score_ep(d, scene, ctx.kin_cfg, cfg),
        "ttc": score_ttc(d, scene, cfg),
        "lk": score_lk(d, scene, cfg),
        "hc": score_hc(d, scene, cfg),
    }


def epdms_row(scene, centers):
    """score_scene_row through the oracle rollout and subscores."""
    from trajsim.metrics import ScoreContext

    ctx = ScoreContext(scene)
    row = []
    for center in centers:
        rollout = pid_track(trajectory_to_world(center, scene.ego_init.pose), scene.ego_init, ctx.kin_cfg)
        sub = subscores(rollout, ctx)
        row.append(epdms_formula(sub["nc"], sub["dac"], sub["ddc"], sub["tlc"], sub["ep"], sub["ttc"],
                                 sub["lk"], sub["hc"], 1.0))
    return np.array(row)


def score_ec(d_now, d_prev, frame_gap, cfg):
    """Extended comfort over whole arrays: every compared tick's errors
    against their tolerances through max()."""
    if d_prev is None:
        return 1.0
    n = 41 - frame_gap
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


def comfort_scores(prev, frame_gap, proposals, init, kin_cfg, metric_cfg):
    """Selection comfort with every proposal rolled out for all 40 ticks."""
    return np.array([
        score_ec(pid_track(trajectory_to_world(p, init.pose), init, kin_cfg), prev, frame_gap, metric_cfg)
        for p in proposals
    ])


def assign_chunk(x_chunk, centers, k):
    """Labels, per-cluster sums and counts, inertia and squared distances of
    one chunk, every distance expanded from scratch."""
    d2 = (
        np.sum(x_chunk * x_chunk, axis=1)[:, None]
        - 2.0 * x_chunk @ centers.T
        + np.sum(centers * centers, axis=1)[None, :]
    )
    labels = np.argmin(d2, axis=1)
    chosen = x_chunk - centers[labels]
    dist2 = np.sum(chosen * chosen, axis=1)
    sums = np.zeros_like(centers)
    np.add.at(sums, labels, x_chunk)
    return labels, sums, np.bincount(labels, minlength=k), float(dist2.sum()), dist2


def kmeans_pp(x, k, seed):
    """k-means++ centers of the rows of x and each row's squared distance to
    its nearest center, every distance recomputed at every step and every
    draw made by Generator.choice."""
    n = len(x)
    rng = np.random.default_rng(seed)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[i] = x[idx]
        d2 = np.minimum(d2, np.sum((x - centers[i]) ** 2, axis=1))
    return centers, d2


def kmeans(x, k, max_iters, seed, chunk=4096):
    """k-means++ seeding and chunked Lloyd passes on the (N, D) embeddings x,
    with the arithmetic of vocabulary.kmeans before its seeding was transposed
    and pruned and its loop-invariant terms hoisted: every distance is a
    row-wise np.sum, every chunk distance matrix is built from scratch, and
    the cluster sums come from np.add.at.  `chunk` is vocabulary._CHUNK, on
    which the reduction order depends.

    Returns (centers, inertia history, number of empty clusters repaired).
    """
    n = len(x)
    centers, _ = kmeans_pp(x, k, seed)
    prev_labels = None
    history = []
    repaired = 0
    for _ in range(max_iters):
        parts = [assign_chunk(x[lo : lo + chunk], centers, k) for lo in range(0, n, chunk)]
        labels = np.concatenate([p[0] for p in parts])
        sums = np.zeros_like(centers)
        counts = np.zeros(k, dtype=np.int64)
        inertia = 0.0
        for _, s, c, part_inertia, _ in parts:
            sums += s
            counts += c
            inertia += part_inertia
        history.append(inertia)
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        prev_labels = labels
        empty = np.flatnonzero(counts == 0)
        if len(empty):
            order = np.argsort(-np.concatenate([p[4] for p in parts]), kind="stable")
            cursor = 0
            for cluster in empty:
                while counts[labels[order[cursor]]] <= 1:
                    cursor += 1
                idx = int(order[cursor])
                cursor += 1
                old = labels[idx]
                sums[old] -= x[idx]
                counts[old] -= 1
                sums[cluster] = x[idx]
                counts[cluster] = 1
                labels[idx] = cluster
                repaired += 1
            prev_labels = labels
        centers = sums / counts[:, None]
    return centers, tuple(history), repaired


def center_poses(centers, m):
    """kmeans' (K, M, 3) center poses built one center at a time: per (2M,)
    center row, one math.atan2 call per displacement of that center, the
    last heading copied, and one Trajectory built from the waypoints and
    headings."""
    out = []
    for vec in centers:
        xy = vec.reshape(m, 2)
        d = np.diff(xy, axis=0)
        psi = np.array([math.atan2(dy, dx) for dx, dy in d])
        psi = np.concatenate([psi, psi[-1:]]) if len(psi) else np.zeros(1)
        out.append(Trajectory(np.column_stack([xy, psi])).poses)
    return np.stack(out)


def export_vocabulary_csv(vocab, path):
    """vocabulary.export_vocabulary_csv as it was before it formatted rows
    from the pose array: csv.writer over each center Trajectory's rows."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["center", "waypoint", "x_m", "y_m", "psi_rad"])
        # csv writes a float as str(), which is repr()
        writer.writerows(
            [ci, wi, *pose] for ci, center in enumerate(vocab.centers) for wi, pose in enumerate(center.poses.tolist())
        )


# ---------------------------------------------------------------------------
# Proposal-set diversity as it was computed before every corridor shared one
# lattice: each corridor is rasterized onto its own grid, whose origin snaps
# to a multiple of the cell, and the union resamples the grids onto the
# smallest origin after checking that they share a lattice.


def _snap(value, cell):
    return math.floor(value / cell) * cell


def _corridor_grid(xy, width, cell_size):
    """(origin, bits indexed [iy, ix]) of the corridor of total width
    `width` around the waypoints, consecutive duplicates dropped."""
    keep = [0]
    for i in range(1, len(xy)):
        if np.hypot(*(xy[i] - xy[keep[-1]])) > 1e-9:
            keep.append(i)
    pts = np.asarray(xy, dtype=float)[keep]
    radius = 0.5 * width
    lo = pts.min(axis=0) - radius - cell_size
    hi = pts.max(axis=0) + radius + cell_size
    ox, oy = _snap(lo[0], cell_size), _snap(lo[1], cell_size)
    nx = int(math.ceil((hi[0] - ox) / cell_size))
    ny = int(math.ceil((hi[1] - oy) / cell_size))

    cxs = ox + (np.arange(nx) + 0.5) * cell_size
    cys = oy + (np.arange(ny) + 0.5) * cell_size
    gx, gy = np.meshgrid(cxs, cys)  # (ny, nx)

    if len(pts) == 1:
        d2 = (gx - pts[0, 0]) ** 2 + (gy - pts[0, 1]) ** 2
    else:
        a = pts[:-1]
        d = np.diff(pts, axis=0)
        len2 = np.sum(d * d, axis=1)
        rx = gx[:, :, None] - a[:, 0]
        ry = gy[:, :, None] - a[:, 1]
        t = np.clip((rx * d[:, 0] + ry * d[:, 1]) / len2, 0.0, 1.0)
        qx = rx - t * d[:, 0]
        qy = ry - t * d[:, 1]
        d2 = np.min(qx * qx + qy * qy, axis=2)
    return (ox, oy), d2 <= radius * radius


def _lattice_offset(origin_a, origin_b, cell):
    rel = (origin_b - origin_a) / cell
    k = round(rel)
    if abs(rel - k) > 1e-6:
        raise ValueError("grids are not on a common cell lattice")
    return int(k)


def _union_count(grids, cell):
    ox = min(origin[0] for origin, _ in grids)
    oy = min(origin[1] for origin, _ in grids)
    kxs = [_lattice_offset(ox, origin[0], cell) for origin, _ in grids]
    kys = [_lattice_offset(oy, origin[1], cell) for origin, _ in grids]
    nx = max(kx + bits.shape[1] for kx, (_, bits) in zip(kxs, grids))
    ny = max(ky + bits.shape[0] for ky, (_, bits) in zip(kys, grids))
    union = np.zeros((ny, nx), dtype=bool)
    for kx, ky, (_, bits) in zip(kxs, kys, grids):
        union[ky : ky + bits.shape[0], kx : kx + bits.shape[1]] |= bits
    return int(np.count_nonzero(union))


def diversity(proposals, cell_size):
    """One minus the mean IoU of each proposal's 2 m corridor against the
    union, on grids of cell `cell_size`."""
    grids = [_corridor_grid(p.xy, 2.0, cell_size) for p in proposals]
    union_count = _union_count(grids, cell_size)
    ratios = np.array([int(np.count_nonzero(bits)) / union_count for _, bits in grids])
    return float(1.0 - ratios.mean())
