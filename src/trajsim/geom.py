"""Planar geometry kernel: poses, oriented boxes, polygons, polylines.

Conventions used throughout the package:
  * headings are radians in (-pi, pi], +x is "forward", angles grow CCW
  * points on polygon edges count as inside; touching boxes count as
    overlapping (a grazing contact is a collision)
  * all values are immutable after construction and every operation here is
    a pure function, so everything is safe to share across threads
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Pose",
    "OrientedBox",
    "Polygon",
    "Polyline",
    "wrap_angle",
    "to_world",
    "obb_overlap_batch",
    "xy_in_polygon",
    "arc_length",
    "arc_positions",
    "nearest_segments",
    "segments_intersect_batch",
]

_EDGE_EPS = 1e-9


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    r = math.remainder(a, math.tau)
    if r <= -math.pi:
        r += math.tau
    return r


def to_world(frame: Pose, x, y):
    """World coordinates of the points (x, y) given in the frame of the pose
    `frame`; x and y are floats or arrays of one shape."""
    c, s = math.cos(frame.psi), math.sin(frame.psi)
    return frame.x + c * x - s * y, frame.y + s * x + c * y


@dataclass(frozen=True)
class Pose:
    """Planar pose (x, y, psi) in meters/radians; psi normalized to (-pi, pi]."""

    x: float
    y: float
    psi: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.psi)):
            raise ValueError(f"pose components must be finite, got ({self.x}, {self.y}, {self.psi})")
        object.__setattr__(self, "psi", wrap_angle(self.psi))


@dataclass(frozen=True)
class OrientedBox:
    """Rectangle given by center pose and half extents (both > 0)."""

    center: Pose
    half_length: float
    half_width: float

    def __post_init__(self):
        if self.half_length <= 0 or self.half_width <= 0:
            raise ValueError("box extents must be positive")

    def corners(self) -> np.ndarray:
        """4x2 array of corners, CCW starting front-left."""
        c, s = math.cos(self.center.psi), math.sin(self.center.psi)
        hl, hw = self.half_length, self.half_width
        local = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.array([self.center.x, self.center.y])


class Polygon:
    """Simple polygon, stored CCW (input orientation is normalized).

    `vertices` is an (n, 2) float array, n >= 3.  Self-intersection is the
    caller's contract and is not checked.
    """

    __slots__ = ("vertices", "_edges")

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("polygon needs at least 3 planar vertices")
        if not np.all(np.isfinite(v)):
            raise ValueError("polygon vertices must be finite")
        area2 = float(np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]))
        if abs(area2) < 1e-12:
            raise ValueError("polygon is degenerate (zero area)")
        if area2 < 0:
            v = v[::-1].copy()
        self.vertices = v
        self.vertices.setflags(write=False)
        self._edges = None

    def _edge_arrays(self):
        """(end points, start x, start y, end y, dx, dy, squared length) of
        every edge, edge i running from vertex i to vertex i+1; all but the
        end points are (n, 1) columns, to broadcast against rows of points.

        Built on the first geometric query and kept: many polygons, such as
        those of generated scenes used only for their human trajectory, are
        never queried.  Two threads may both build them; the results are
        equal, and either may be kept.
        """
        edges = self._edges
        if edges is None:
            v = self.vertices
            nxt = np.concatenate([v[1:], v[:1]])
            e = nxt - v
            nxt.setflags(write=False)
            e.setflags(write=False)  # before taking views, which keep the flag they start with
            ex, ey = e[:, 0:1], e[:, 1:2]
            len2 = ex * ex + ey * ey
            len2.setflags(write=False)
            edges = self._edges = (nxt, v[:, 0:1], v[:, 1:2], nxt[:, 1:2], ex, ey, len2)
        return edges

    @property
    def area(self) -> float:
        v = self.vertices
        return 0.5 * float(np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]))

    def __eq__(self, other):
        return isinstance(other, Polygon) and np.array_equal(self.vertices, other.vertices)

    def __repr__(self):
        return f"Polygon({len(self.vertices)} vertices, area={self.area:.3f})"


class Polyline:
    """Ordered point chain, >= 1 point, no consecutive duplicates (> 1e-9 m)."""

    __slots__ = ("points", "_cum", "_segs")

    def __init__(self, points):
        p = np.asarray(points, dtype=float)
        if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 1:
            raise ValueError("polyline needs at least 1 planar point")
        if not np.all(np.isfinite(p)):
            raise ValueError("polyline points must be finite")
        if len(p) > 1:
            seg = np.linalg.norm(np.diff(p, axis=0), axis=1)
            if np.any(seg <= _EDGE_EPS):
                raise ValueError("polyline has consecutive duplicate points")
            self._cum = np.concatenate([[0.0], np.cumsum(seg)])
        else:
            self._cum = np.zeros(1)
        self.points = p
        self.points.setflags(write=False)
        self._segs = None

    def _segment_arrays(self):
        """(start x, start y, dx, dy, squared length, length) of every
        segment, built on the first projection and kept, as for polygons;
        all but the lengths are (n, 1) columns."""
        segs = self._segs
        if segs is None:
            p = self.points
            d = np.diff(p, axis=0)
            len2 = np.sum(d * d, axis=1)
            seg_len = np.sqrt(len2)
            for arr in (d, len2, seg_len):
                arr.setflags(write=False)
            segs = self._segs = (p[:-1, 0:1], p[:-1, 1:2], d[:, 0:1], d[:, 1:2], len2[:, None], seg_len)
        return segs

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"Polyline({len(self.points)} points, length={self._cum[-1]:.3f})"


# ---------------------------------------------------------------------------
# oriented-box overlap (separating axis test)


def obb_overlap_batch(ax, ay, apsi, ahl, ahw, bx, by, bpsi, bhl, bhw) -> np.ndarray:
    """Vectorized SAT overlap for paired boxes; touching counts as overlap.

    All arguments broadcast together; returns a bool array.
    """
    ax, ay, apsi, ahl, ahw, bx, by, bpsi, bhl, bhw = np.broadcast_arrays(
        ax, ay, apsi, ahl, ahw, bx, by, bpsi, bhl, bhw
    )
    dx = bx - ax
    dy = by - ay
    ca, sa = np.cos(apsi), np.sin(apsi)
    cb, sb = np.cos(bpsi), np.sin(bpsi)
    # relative heading terms reused across all four axes
    cab = ca * cb + sa * sb   # cos(b - a)
    sab = ca * sb - sa * cb   # sin(b - a)

    overlap = np.ones(ax.shape, dtype=bool)
    # axes of A: project center offset and B's extents onto A's long/lat axes
    t_lon = dx * ca + dy * sa
    t_lat = -dx * sa + dy * ca
    rb_lon = bhl * np.abs(cab) + bhw * np.abs(sab)
    rb_lat = bhl * np.abs(sab) + bhw * np.abs(cab)
    overlap &= np.abs(t_lon) <= ahl + rb_lon
    overlap &= np.abs(t_lat) <= ahw + rb_lat
    # axes of B, symmetric roles
    u_lon = dx * cb + dy * sb
    u_lat = -dx * sb + dy * cb
    ra_lon = ahl * np.abs(cab) + ahw * np.abs(sab)
    ra_lat = ahl * np.abs(sab) + ahw * np.abs(cab)
    overlap &= np.abs(u_lon) <= bhl + ra_lon
    overlap &= np.abs(u_lat) <= bhw + ra_lat
    return overlap


# ---------------------------------------------------------------------------
# polygon containment


def xy_in_polygon(px: np.ndarray, py: np.ndarray, poly: Polygon) -> np.ndarray:
    """Even-odd containment of points given as (n,) x and y arrays; boundary
    points are inside.

    Work arrays are (edges, points), so numpy's inner loops run over the
    many points rather than the few edges.
    """
    _, ax, ay, by, ex, ey, len2 = poly._edge_arrays()
    ry = py - ay
    # crossing number: edge straddles the horizontal ray through the point
    cond = (ay > py) != (by > py)
    # x coordinate where the edge crosses the ray
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = ax + ry * ex / ey
    crossings = np.sum(cond & (px < x_cross), axis=0)
    inside = (crossings % 2) == 1
    if inside.all():
        return inside  # the boundary test below could only add points

    # boundary inclusion: squared distance to each edge segment under tolerance
    rx = px - ax
    t = (rx * ex + ry * ey) / len2
    t = np.clip(t, 0.0, 1.0)
    dx = px - (ax + t * ex)
    dy = py - (ay + t * ey)
    on_edge = np.any(dx * dx + dy * dy <= _EDGE_EPS * _EDGE_EPS, axis=0)
    return inside | on_edge


# ---------------------------------------------------------------------------
# polylines: arc length and projection


def arc_length(line: Polyline) -> float:
    return float(line._cum[-1])


def _closest_segments(line: Polyline, px: np.ndarray, py: np.ndarray):
    """For (n,) point coordinates: (segments, points) arrays of the clamped
    segment parameters and the squared distances, and the closest segment of
    each point (equidistant segments break to the lowest index)."""
    if len(line) < 2:
        raise ValueError("projection needs a polyline with at least 2 points")
    ax, ay, dx, dy, len2, _ = line._segment_arrays()
    rx = px - ax
    ry = py - ay
    t = np.clip((rx * dx + ry * dy) / len2, 0.0, 1.0)
    qx = rx - t * dx
    qy = ry - t * dy
    d2 = qx * qx + qy * qy
    return t, d2, np.argmin(d2, axis=0)


def arc_positions(line: Polyline, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Arc length of the closest polyline point to each of the (n,) points,
    clamped to [0, total length]."""
    t, _, seg = _closest_segments(line, px, py)
    return line._cum[seg] + t[seg, np.arange(len(px))] * line._segment_arrays()[5][seg]


def nearest_segments(line: Polyline, px: np.ndarray, py: np.ndarray):
    """(distance to the polyline, closest segment index) of each of the (n,)
    points."""
    _, d2, seg = _closest_segments(line, px, py)
    return np.sqrt(d2[seg, np.arange(len(px))]), seg


# ---------------------------------------------------------------------------
# segment intersection (used by the box-vs-polygon entry test)


def segments_intersect_batch(p1, p2, q1, q2) -> np.ndarray:
    """Whether closed segments p1-p2 and q1-q2 intersect, elementwise.

    Arguments are (..., 2) arrays broadcasting together.  Touching endpoints
    count as intersecting; collinear overlap is detected via bounding boxes.
    """
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
    collinear = (d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0)
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & ~collinear
    if not collinear.any():
        return proper  # a touch needs a collinear triple

    def on_box(a, b, c):
        return (
            (np.minimum(a[..., 0], b[..., 0]) - _EDGE_EPS <= c[..., 0])
            & (c[..., 0] <= np.maximum(a[..., 0], b[..., 0]) + _EDGE_EPS)
            & (np.minimum(a[..., 1], b[..., 1]) - _EDGE_EPS <= c[..., 1])
            & (c[..., 1] <= np.maximum(a[..., 1], b[..., 1]) + _EDGE_EPS)
        )

    touch = (
        ((d1 == 0) & on_box(q1, q2, p1))
        | ((d2 == 0) & on_box(q1, q2, p2))
        | ((d3 == 0) & on_box(p1, p2, q1))
        | ((d4 == 0) & on_box(p1, p2, q2))
    )
    return proper | touch
