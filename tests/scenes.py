"""Hand-built scenes that several test modules share."""

import math

import numpy as np

from trajsim.geom import Polygon, Polyline, Pose
from trajsim.kinematics import DENSE_TICKS, EgoState
from trajsim.metrics import PHASE_GREEN, PHASE_RED, PHASE_YELLOW, Intersection, Lane, Scene
from trajsim.scene_io import _agent_fields, straight_plan, transform_scene
from trajsim.vocabulary import Vocabulary


def rich_scene(seed):
    """A hand-built scene with the geometry the generator never makes, placed
    at a seeded world pose: a concave L-shaped road plus a lay-by polygon
    overlapping it; three lanes, two of several segments of unequal length
    (one along the curve, one the other way); five agents, one ahead that
    the faster rollouts hit, one that reaches the slower ones from behind;
    and two intersections whose lights change at different ticks."""
    rng = np.random.default_rng(seed)
    v0 = 8.0
    t = 0.1 * np.arange(DENSE_TICKS)

    def moving(x0, y0, psi, speed):
        return np.column_stack([x0 + speed * math.cos(psi) * t, y0 + speed * math.sin(psi) * t, np.full(DENSE_TICKS, psi)])

    agents = [
        ("slow-ahead", 2.3, 0.95, moving(22.0 + rng.uniform(-1, 1), 0.2, 0.0, 4.0)),
        ("crossing", 2.2, 1.0, moving(36.0, 9.0 + rng.uniform(-1, 1), -math.pi / 2, 4.0)),
        ("oncoming", 2.4, 0.9, moving(52.0, 28.0, -math.pi / 2, 5.0)),
        ("from-behind", 2.3, 0.95, moving(-12.0, 0.3, 0.0, 9.0)),
        ("parked", 2.0, 0.9, np.tile([30.0, -3.0, 0.3], (DENSE_TICKS, 1))),
    ]
    road = Polygon([[-20, -4], [60, -4], [60, 30], [44, 30], [44, 4], [-20, 4]])
    layby = Polygon([[8, -9], [30, -9], [30, -3], [8, -3]])
    arc = [[40 + 8 * math.sin(a), 8 - 8 * math.cos(a)] for a in np.linspace(0.3, math.pi / 2, 4)]
    lanes = [
        Lane(Polyline([[-20, 0.0], [12, 0.0], [38, 0.2], *arc, [48, 30]]), 1),
        Lane(Polyline([[58, 2.5], [30, 2.6], [25, 2.0], [-20, 2.5]]), 1),
        Lane(Polyline([[8, -6], [30, -6]]), 1),
    ]
    phases_a = np.full(DENSE_TICKS, PHASE_GREEN)
    phases_a[18:26] = PHASE_YELLOW
    phases_a[26:] = PHASE_RED
    phases_b = np.full(DENSE_TICKS, PHASE_RED)
    phases_b[30:] = PHASE_GREEN
    intersections = [
        Intersection(Polygon([[20, -4], [30, -4], [30, 4], [20, 4]]), "a", phases_a),
        Intersection(Polygon([[44, 4], [60, 4], [60, 16], [44, 16]]), "b", phases_b),
    ]
    history = [[-v0 * 0.1 * j, 0.0, 0.0, v0, 0.0, 0.0] for j in range(16, 0, -1)]
    scene = Scene(f"rich-{seed}", EgoState(Pose(0.0, 0.0, 0.0), v0), history, [road, layby],
                  Polyline([[-20, 0], [50, 0], [52, 30]]), lanes, intersections, straight_plan(v0),
                  **_agent_fields(agents))
    return transform_scene(scene, Pose(rng.uniform(-100, 100), rng.uniform(-100, 100), rng.uniform(-math.pi, math.pi)))


def pinned_run():
    """(scene, vocabulary) of the run whose distill fingerprint is pinned: a
    straight road without agents or lights, and three centers."""
    plan = straight_plan(10.0)
    box = Polygon([[-50, -6], [100, -6], [100, 6], [-50, 6]])
    road = Polyline([[-50.0, 0.0], [100.0, 0.0]])
    scene = Scene(
        scene_id="pinned",
        ego_init=EgoState(Pose(0.0, 0.0, 0.0), 10.0),
        ego_history=np.array([[-1.0 * j, 0.0, 0.0, 10.0, 0.0, 0.0] for j in range(16, 0, -1)]),
        drivable=[box], route=road, lanes=[Lane(road, 1)], intersections=[], human_trajectory=plan,
    )
    poses = np.stack([plan.poses, 0.5 * plan.poses, -plan.poses + [0.0, 1.5, 0.25]])
    return scene, Vocabulary(poses, seed=3, inertia=0.0)


# the fingerprint of pinned_run() while scene documents held route_polygon_m
# and agents[].is_static, and before the centers were hashed as one array
OLD_PINNED_FINGERPRINT = "0669c543f9865aa5795f65c767a209ab9398aad7e42ef3680fcbaf771bafa6d4"
