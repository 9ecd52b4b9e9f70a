"""Independent reference implementations used to cross-check the library.

Nothing here may call into trajsim geometry/metric code paths it validates;
these are deliberately brute-force or analytic alternatives.
"""

import math

import numpy as np


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
# per-scene geometry was precomputed, the PID tick schedule cached and the
# lane projections shared between DDC and LK.  The library must reproduce
# them bit for bit, so they keep the original arithmetic, operation order,
# numpy calls and array layouts.  NC, TTC and HC, whose paths were not
# changed, are taken from the library.


def wrap_angle(a):
    r = math.remainder(a, math.tau)
    if r <= -math.pi:
        r += math.tau
    return r


def trajectory_to_world(t, frame):
    from trajsim.kinematics import Trajectory

    c, s = math.cos(frame.psi), math.sin(frame.psi)
    p = t.poses
    out = np.empty_like(p)
    out[:, 0] = frame.x + c * p[:, 0] - s * p[:, 1]
    out[:, 1] = frame.y + s * p[:, 0] + c * p[:, 1]
    out[:, 2] = np.vectorize(wrap_angle)(p[:, 2] + frame.psi)
    return Trajectory(out)


def _compose(frame, x, y, psi=None):
    """The rigid frame change transform_scene applied before it shared
    geom.to_world with trajectory_to_world."""
    c, s = math.cos(frame.psi), math.sin(frame.psi)
    nx = frame.x + c * np.asarray(x) - s * np.asarray(y)
    ny = frame.y + s * np.asarray(x) + c * np.asarray(y)
    if psi is None:
        return nx, ny
    return nx, ny, np.asarray(psi) + frame.psi


def transform_scene(scene, frame):
    """scene_io.transform_scene over _compose."""
    from trajsim.geom import Polygon, Polyline, Pose
    from trajsim.kinematics import EgoState
    from trajsim.metrics import Agent, Intersection, Lane, Scene

    def points(p):
        nx, ny = _compose(frame, p[:, 0], p[:, 1])
        return np.stack([nx, ny], axis=1)

    def state(st):
        nx, ny, npsi = _compose(frame, st.pose.x, st.pose.y, st.pose.psi)
        return EgoState(Pose(float(nx), float(ny), wrap_angle(float(npsi))), st.v, st.a, st.steer)

    agents = []
    for a in scene.agents:
        nx, ny, npsi = _compose(frame, a.x, a.y, a.psi)
        npsi = np.array([wrap_angle(p) for p in npsi])
        agents.append(Agent(a.id, a.half_length, a.half_width, np.stack([nx, ny, npsi], axis=1), a.is_static))
    return Scene(
        scene_id=scene.scene_id,
        ego_init=state(scene.ego_init),
        ego_history=[state(st) for st in scene.ego_history],
        agents=agents,
        drivable=[Polygon(points(p.vertices)) for p in scene.drivable],
        route=Polyline(points(scene.route.points)),
        route_polygon=Polygon(points(scene.route_polygon.vertices)),
        lanes=[Lane(Polyline(points(lane.centerline.points)), lane.direction_sign) for lane in scene.lanes],
        intersections=[Intersection(Polygon(points(i.polygon.vertices)), i.light) for i in scene.intersections],
        human_trajectory=scene.human_trajectory,
        command=scene.command,
        ego_half_length=scene.ego_half_length,
        ego_half_width=scene.ego_half_width,
    )


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
    pts = d.xy
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
    pts = d.xy
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
        if np.any(inter.light.phases[entries] != 0):
            return 0.0
    return 1.0


def score_ep(d, scene, kin_cfg, cfg):
    reference = pid_track(trajectory_to_world(scene.human_trajectory, scene.ego_init.pose), scene.ego_init, kin_cfg)
    ref_progress = route_progress(reference, scene.route)
    if ref_progress < cfg.ep_min_ref_progress_m:
        return 1.0
    ratio = route_progress(d, scene.route) / ref_progress
    return float(min(max(ratio, 0.0), 1.0))


def _finite_difference(v, dt):
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2 * dt)
    out[0] = (v[1] - v[0]) / dt
    out[-1] = (v[-1] - v[-2]) / dt
    return out


def score_hc(d, scene, cfg, dt=0.1):
    """HC with the motion profiles derived first, lon jerk differenced again."""
    hist = scene.ego_history[-cfg.history_pad_ticks:]
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
    from trajsim import metrics

    scene, cfg = ctx.scene, ctx.metric_cfg
    return {
        "nc": metrics.score_nc(d, ctx),
        "dac": score_dac(d, scene),
        "ddc": score_ddc(d, scene, cfg),
        "tlc": score_tlc(d, scene),
        "ep": score_ep(d, scene, ctx.kin_cfg, cfg),
        "ttc": metrics.score_ttc(d, ctx),
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


def kmeans(x, k, max_iters, seed, chunk=4096):
    """k-means++ seeding and chunked Lloyd passes on the (N, D) embeddings x,
    with the arithmetic of vocabulary.kmeans before its seeding was transposed
    and its loop-invariant terms hoisted: every distance is a row-wise np.sum
    and every chunk distance matrix is built from scratch.  `chunk` is
    vocabulary._CHUNK, on which the reduction order depends.

    Returns (centers, inertia history, number of empty clusters repaired).
    """
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
