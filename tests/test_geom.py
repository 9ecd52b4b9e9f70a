import dataclasses
import math

import numpy as np
import pytest

from trajsim.geom import (
    OrientedBox,
    Polygon,
    Polyline,
    Pose,
    arc_length,
    arc_positions,
    obb_overlap_batch,
    wrap_angle,
    xy_in_polygon,
)
from trajsim.scene_io import SyntheticSpec, generate_scene

import oracles


def box(x, y, psi, hl, hw):
    return OrientedBox(Pose(x, y, psi), hl, hw)


def overlaps(pa, pb) -> bool:
    """obb_overlap_batch on two boxes given as (x, y, psi, hl, hw)."""
    return bool(obb_overlap_batch(*pa, *pb))


def in_polygon(pts, poly) -> np.ndarray:
    """xy_in_polygon on an (n, 2) array of points."""
    pts = np.asarray(pts, dtype=float)
    return xy_in_polygon(pts[:, 0], pts[:, 1], poly)


def inside(p, poly) -> bool:
    return bool(in_polygon([p], poly)[0])


def corners_covered(b: OrientedBox, polys) -> bool:
    """All four box corners inside the union of the polygons, as DAC tests."""
    covered = np.zeros(4, dtype=bool)
    for poly in polys:
        covered |= in_polygon(b.corners(), poly)
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
        with pytest.raises(ValueError):
            box(0, 0, 0, 0, 1)


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
        assert arc_length(Polyline([[0, 0], [3, 4]])) == pytest.approx(5.0)

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
        with pytest.raises(ValueError):
            arc_at(Polyline([[0, 0]]), (1, 1))
