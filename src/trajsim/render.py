"""Hand-rolled SVG bird's-eye-view plots.

SVG is written directly (no plotting dependency) so identical inputs give
identical bytes.  World +y maps up on the page via a flip transform; every
trajectory becomes exactly one <path> element.
"""

from __future__ import annotations

import numpy as np

from .geom import Pose, to_world
from .kinematics import trajectory_to_world
from .metrics import PHASE_GREEN, PHASE_YELLOW, Scene

__all__ = ["render_scene_svg"]

_TRAJ_COLORS = ("#d81b60", "#1e88e5", "#ffc107", "#004d40", "#8e24aa", "#f4511e", "#00acc1", "#6d4c41")


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _path_d(points: np.ndarray) -> str:
    parts = [f"M {_fmt(points[0, 0])} {_fmt(points[0, 1])}"]
    parts.extend(f"L {_fmt(x)} {_fmt(y)}" for x, y in points[1:])
    return " ".join(parts)


def _poly_points(vertices: np.ndarray) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in vertices)


# a box's corners in its own frame, CCW from front-left, per half length and half width
_CORNER_SIGNS = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def _box_corners(x, y, psi, hl, hw) -> np.ndarray:
    """The (4, 2) world corners of the box of center (x, y), heading psi and
    half extents hl and hw."""
    return to_world(Pose(float(x), float(y), float(psi)), _CORNER_SIGNS * [hl, hw])


def render_scene_svg(scene: Scene, trajectories, path) -> None:
    """Write a BEV plot: map polygons, agent boxes at tick 0, the route, and
    one path per trajectory (trajectories are ego-frame and get placed at the
    scene's ego pose)."""
    world_trajs = [trajectory_to_world(t, scene.ego_init.pose) for t in trajectories]

    xs = [p.vertices[:, 0] for p in scene.drivable] + [t.poses[:, 0] for t in world_trajs]
    ys = [p.vertices[:, 1] for p in scene.drivable] + [t.poses[:, 1] for t in world_trajs]
    min_x = min(float(np.min(a)) for a in xs) - 5.0
    max_x = max(float(np.max(a)) for a in xs) + 5.0
    min_y = min(float(np.min(a)) for a in ys) - 5.0
    max_y = max(float(np.max(a)) for a in ys) + 5.0
    w, h = max_x - min_x, max_y - min_y
    scale = 8.0  # px per meter

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(w * scale)}" height="{_fmt(h * scale)}" '
        f'viewBox="0 0 {_fmt(w)} {_fmt(h)}">',
        '<rect width="100%" height="100%" fill="#fafafa"/>',
        # flip +y up and move the world bounds onto the viewport
        f'<g transform="translate(0,{_fmt(h)}) scale(1,-1) translate({_fmt(-min_x)},{_fmt(-min_y)})" '
        'stroke-linejoin="round" stroke-linecap="round">',
    ]
    for poly in scene.drivable:
        out.append(f'<polygon points="{_poly_points(poly.vertices)}" fill="#e0e0e0" stroke="#9e9e9e" stroke-width="0.15"/>')
    for inter in scene.intersections:
        phase = int(inter.phases[0])
        tint = "#c8e6c9" if phase == PHASE_GREEN else ("#fff9c4" if phase == PHASE_YELLOW else "#ffcdd2")
        out.append(f'<polygon points="{_poly_points(inter.polygon.vertices)}" fill="{tint}" fill-opacity="0.8" stroke="#757575" stroke-width="0.1"/>')
    for lane in scene.lanes:
        out.append(f'<polyline points="{_poly_points(lane.centerline.points)}" fill="none" stroke="#bdbdbd" stroke-width="0.1" stroke-dasharray="1,1"/>')
    out.append(f'<polyline points="{_poly_points(scene.route.points)}" fill="none" stroke="#43a047" stroke-width="0.25" stroke-dasharray="2,1"/>')
    for (x, y, psi), hl, hw in zip(scene.agent_states[:, 0].tolist(), scene.agent_half_lengths.tolist(),
                                   scene.agent_half_widths.tolist()):
        corners = _box_corners(x, y, psi, hl, hw)
        out.append(f'<polygon points="{_poly_points(corners)}" fill="#90a4ae" stroke="#455a64" stroke-width="0.12"/>')
    ego = scene.ego_init.pose
    ego_corners = _box_corners(ego.x, ego.y, ego.psi, scene.ego_half_length, scene.ego_half_width)
    out.append(f'<polygon points="{_poly_points(ego_corners)}" fill="#263238" stroke="#000000" stroke-width="0.12"/>')
    for i, traj in enumerate(world_trajs):
        color = _TRAJ_COLORS[i % len(_TRAJ_COLORS)]
        out.append(f'<path d="{_path_d(traj.poses[:, :2])}" fill="none" stroke="{color}" stroke-width="0.3"/>')
    out.append("</g>")
    out.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(out) + "\n")
