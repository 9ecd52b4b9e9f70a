import dataclasses
import math

import numpy as np
import pytest

from trajsim.geom import (
    Polygon,
    Polyline,
    Pose,
    _obb_overlap,
    arc_positions,
    to_world,
    wrap_angle,
    xy_in_polygon,
)
from trajsim.distill import ScoreMatrix
from trajsim.kinematics import DENSE_TICKS, DenseTrajectory, Trajectory
from trajsim.metrics import _agent_arrays
from trajsim.scene_io import SyntheticSpec, generate_scene, scene_from_doc, scene_to_doc, straight_plan
from trajsim.selection import ProposalSet
from trajsim.vocabulary import Vocabulary

import oracles
from scenes import rich_scene


def box(x, y, psi, hl, hw) -> np.ndarray:
    """The (4, 2) corners of a box, CCW from front-left."""
    return to_world(Pose(x, y, psi), np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]], dtype=float))


def overlaps(pa, pb) -> bool:
    """The rules' SAT test on two boxes given as (x, y, psi, hl, hw)."""
    (ax, ay, apsi, ahl, ahw), (bx, by, bpsi, bhl, bhw) = pa, pb
    return bool(_obb_overlap(ax, ay, np.cos(apsi), np.sin(apsi), ahl, ahw, bx, by, np.cos(bpsi), np.sin(bpsi), bhl, bhw))


def in_polygon(pts, poly) -> np.ndarray:
    """xy_in_polygon on an (n, 2) array of points."""
    pts = np.asarray(pts, dtype=float)
    return xy_in_polygon(pts[:, 0], pts[:, 1], poly)


def inside(p, poly) -> bool:
    return bool(in_polygon([p], poly)[0])


def corners_covered(corners, polys) -> bool:
    """All four box corners inside the union of the polygons, as DAC tests."""
    covered = np.zeros(4, dtype=bool)
    for poly in polys:
        covered |= in_polygon(corners, poly)
    return bool(covered.all())


def arc_at(line: Polyline, p) -> float:
    return float(arc_positions(line, np.array([p[0]], float), np.array([p[1]], float))[0])


UNIT_SQUARE = Polygon([[0, 0], [1, 0], [1, 1], [0, 1]])


class TestPose:
    def test_wraps_heading(self):
        assert Pose(0, 0, 3 * math.pi).psi == pytest.approx(math.pi)
        assert Pose(0, 0, -math.pi).psi == math.pi

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Pose(float("nan"), 0, 0)

    @pytest.mark.parametrize("a", [-10.0, -math.pi, 0.0, 1.0, math.pi, 7.5])
    def test_wrap_idempotent(self, a):
        assert wrap_angle(wrap_angle(a)) == wrap_angle(a)
        assert -math.pi < wrap_angle(a) <= math.pi


class TestObbOverlap:
    def test_identical_boxes(self):
        a = (1, 2, 0.3, 2, 1)
        assert overlaps(a, a)

    def test_separated_axis_aligned(self):
        # 4x2 m boxes, centers 10 m apart
        assert not overlaps((0, 0, 0, 2, 1), (10, 0, 0, 2, 1))

    def test_rotated_case_matches_sampling_oracle(self):
        a = (0, 0, 0, 2, 1)
        b = (3.9, 0, math.pi / 4, 2, 1)
        rng = np.random.default_rng(0)
        assert overlaps(a, b) == oracles.sampling_overlap(rng, a, b)

    def test_touching_edges_count_as_overlap(self):
        assert overlaps((0, 0, 0, 2, 1), (4, 0, 0, 2, 1))

    def test_symmetry_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            pa = (*rng.uniform(-5, 5, 2), rng.uniform(-math.pi, math.pi), *rng.uniform(0.3, 3, 2))
            pb = (*rng.uniform(-5, 5, 2), rng.uniform(-math.pi, math.pi), *rng.uniform(0.3, 3, 2))
            assert overlaps(pa, pb) == overlaps(pb, pa)

    def test_agreement_with_sampling_oracle(self):
        # smaller version of the acceptance sweep, margin band excluded
        rng = np.random.default_rng(2)
        checked = disagree = 0
        for _ in range(2000):
            pa = (*rng.uniform(-8, 8, 2), rng.uniform(-math.pi, math.pi), rng.uniform(0.5, 2.5), rng.uniform(0.3, 1.5))
            pb = (*rng.uniform(-8, 8, 2), rng.uniform(-math.pi, math.pi), rng.uniform(0.5, 2.5), rng.uniform(0.3, 1.5))
            if abs(oracles.box_axes_measure(pa, pb)) < 0.01:
                continue
            checked += 1
            if overlaps(pa, pb) != oracles.sampling_overlap(rng, pa, pb, n=2000):
                disagree += 1
        assert checked > 1500
        assert disagree / checked <= 0.001

    def test_rejects_degenerate(self):
        # the boxes the rules test are a scene's, and the scene checks their extents
        with pytest.raises(ValueError, match="half_length must be finite and positive"):
            _agent_arrays(("a",), [np.zeros((DENSE_TICKS, 3))], [0.0], [1.0])


class TestPointInPolygon:
    def test_centroid_inside(self):
        assert inside((0.5, 0.5), UNIT_SQUARE)

    def test_far_point_outside(self):
        assert not inside((100, 100), UNIT_SQUARE)

    def test_edge_midpoint_counts_inside(self):
        p = (0.5, 0.0)
        assert inside(p, UNIT_SQUARE)
        assert oracles.winding_number_inside(p, UNIT_SQUARE.vertices)

    def test_vertex_counts_inside(self):
        assert inside((1.0, 1.0), UNIT_SQUARE)

    def test_matches_winding_oracle_randomized(self):
        rng = np.random.default_rng(3)
        # an L-shaped (non-convex) polygon
        poly = Polygon([[0, 0], [4, 0], [4, 2], [2, 2], [2, 4], [0, 4]])
        pts = rng.uniform(-1, 5, size=(500, 2))
        got = in_polygon(pts, poly)
        assert got.tolist() == [oracles.winding_number_inside(tuple(p), poly.vertices) for p in pts]

    def test_cw_input_normalized(self):
        cw = Polygon([[0, 0], [0, 1], [1, 1], [1, 0]])
        assert cw.area > 0
        assert inside((0.5, 0.5), cw)

    @pytest.mark.parametrize("vertices", [
        [[0, 0], [4, 0], [4, 0], [4, 3], [0, 3]],
        [[0, 0], [4, 0], [4, 3], [0, 3], [0, 0]],  # closed ring: the last repeats the first
    ])
    def test_rejects_consecutive_duplicates(self, vertices):
        # a zero-length edge would divide by zero in the boundary pass
        with pytest.raises(ValueError, match="polygon has consecutive duplicate vertices"):
            Polygon(vertices)


class TestBoxInPolygons:
    def test_small_box_in_big_polygon(self):
        big = Polygon([[-50, -50], [50, -50], [50, 50], [-50, 50]])
        assert corners_covered(box(0, 0, 0.4, 0.5, 0.5), [big])

    def test_straddling_edge_fails(self):
        assert not corners_covered(box(0.9, 0.5, 0.0, 0.3, 0.2), [UNIT_SQUARE])

    def test_union_of_abutting_polygons(self):
        left = Polygon([[0, 0], [1, 0], [1, 2], [0, 2]])
        right = Polygon([[1, 0], [2, 0], [2, 2], [1, 2]])
        spanning = box(1.0, 1.0, 0.0, 0.5, 0.4)
        assert not corners_covered(spanning, [left])
        assert not corners_covered(spanning, [right])
        assert corners_covered(spanning, [left, right])

    def test_empty_polygon_list(self):
        # DAC tests the union of a scene's drivable polygons, and a scene
        # must have at least one
        scene = generate_scene(SyntheticSpec("clean_straight", seed=0))
        with pytest.raises(ValueError, match="drivable"):
            dataclasses.replace(scene, drivable=[])


class TestPolyline:
    def test_rejects_consecutive_duplicates(self):
        with pytest.raises(ValueError):
            Polyline([[0, 0], [0, 0], [1, 0]])

    def test_arc_length_345(self):
        assert arc_at(Polyline([[0, 0], [3, 4]]), (3, 4)) == pytest.approx(5.0)

    def test_projection_axis_aligned(self):
        line = Polyline([[0, 0], [10, 0]])
        assert arc_at(line, (3.0, 2.0)) == pytest.approx(3.0)

    def test_projection_beyond_end_clamps(self):
        line = Polyline([[0, 0], [4, 0], [4, 6]])
        s = arc_at(line, (5.0, 8.0))
        assert s == pytest.approx(10.0)
        s_oracle, _ = oracles.dense_projection(line.points, (5.0, 8.0))
        assert s == pytest.approx(s_oracle, abs=1e-3)

    def test_projection_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        pts = np.cumsum(rng.uniform(-2, 3, size=(6, 2)), axis=0)
        line = Polyline(pts)
        queries = rng.uniform(-5, 10, size=(50, 2))
        for s, p in zip(arc_positions(line, queries[:, 0], queries[:, 1]), queries):
            s_oracle, _ = oracles.dense_projection(pts, p)
            assert s == pytest.approx(s_oracle, abs=2e-3)

    def test_needs_two_points_for_projection(self):
        # every polyline is projected onto, which takes a segment
        with pytest.raises(ValueError, match=r"^polyline needs at least 2 points, got 1$"):
            Polyline([[0, 0]])
        with pytest.raises(ValueError, match=r"^polyline needs an \(n, 2\) array of points$"):
            Polyline([])


def held_arrays(obj) -> list:
    """Every ndarray reachable from `obj` through the attributes and slots of
    trajsim objects and through lists and tuples; a slot never filled
    raises AttributeError."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in held_arrays(item)]
    if type(obj).__module__.startswith("trajsim."):
        names = [*getattr(obj, "__dict__", ()), *getattr(type(obj), "__slots__", ())]
        return [a for name in names for a in held_arrays(getattr(obj, name))]
    return []


# Each class that validates arrays, as (a float64 array a caller holds, how
# the class is built from it, how many arrays the object holds).
_TRIANGLE = [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]
OWNERS = {
    "Polygon": (np.array(_TRIANGLE), Polygon, 5),
    "Polygon CW": (np.array(_TRIANGLE[::-1]), Polygon, 5),  # stored reversed
    "Polyline": (np.array(_TRIANGLE), Polyline, 5),
    "Trajectory": (np.array([[1.0, 0.0, 0.0], [2.0, 0.1, 0.1]]), Trajectory, 1),
    "DenseTrajectory": (np.full((6, DENSE_TICKS), 0.5), lambda a: DenseTrajectory(*a), 6),
    "Vocabulary": (np.ones((2, 4, 3)), lambda a: Vocabulary(a, seed=0, inertia=0.0), 1),
    "ScoreMatrix": (np.full((2, 3), 0.5), lambda a: ScoreMatrix(("a", "b"), a), 1),
    # the two proposals' poses too
    "ProposalSet": (np.array([0.2, 0.7]), lambda a: ProposalSet((straight_plan(4.0), straight_plan(6.0)), a), 3),
}


@pytest.mark.parametrize("name", OWNERS)
def test_the_callers_array_stays_writable(name):
    given, make, _ = OWNERS[name]
    arr = given.copy()
    make(arr)
    assert arr.flags.writeable
    arr[...] = 0.25  # and writing it is allowed


@pytest.mark.parametrize("name", OWNERS)
def test_a_write_to_the_base_of_a_view_changes_nothing_held(name):
    given, make, _ = OWNERS[name]
    base = np.stack([given, given])
    obj = make(base[1])
    held = [a.tobytes() for a in held_arrays(obj)]  # derived arrays included
    base += 1.0
    assert [a.tobytes() for a in held_arrays(obj)] == held


@pytest.mark.parametrize("make, count", [
    (lambda: Polygon([[0, 0], [2, 0], [0, 2]]), 5),
    (lambda: Polygon([[0, 0], [0, 2], [2, 0]]), 5),  # given CW, stored reversed
    (lambda: Polyline([[0, 0], [3, 4], [3, 9]]), 5),
    (lambda: Polyline([[1, 2], [1, 3]]), 5),
    *(pytest.param(lambda given=given, make=make: make(given.copy()), count, id=name)
      for name, (given, make, count) in OWNERS.items()),
    (lambda: generate_scene(SyntheticSpec("parked_agent", seed=3)), None),
    (lambda: rich_scene(1), None),
    (lambda: scene_from_doc(scene_to_doc(rich_scene(2))), None),
])
def test_every_array_held_is_read_only_once_built(make, count):
    arrays = held_arrays(make())
    assert arrays and not any(a.flags.writeable for a in arrays)
    assert count is None or len(arrays) == count
