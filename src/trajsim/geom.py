"""Planar geometry kernel: poses, the rigid frame change, polygons,
polylines and the oriented-box overlap test.

Conventions used throughout the package:
  * headings are radians in (-pi, pi], +x is "forward", angles grow CCW
  * points on polygon edges count as inside; touching boxes count as
    overlapping (a grazing contact is a collision)
  * all values are immutable after construction: polygons and polylines
    copy the points they are given, build the edge and segment arrays their
    queries read in the constructor and hold them all read-only, and every
    operation here is a pure function, so everything is safe to share across
    threads
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Pose",
    "Polygon",
    "Polyline",
    "wrap_angle",
    "to_world",
    "xy_in_polygon",
    "arc_positions",
    "COORD_LIMIT_M",
]

_EDGE_EPS = 1e-9

# The largest magnitude accepted for a coordinate (m), and for a box half
# extent (m) or the ego speed (m/s).  Map frames stay far below it (UTM
# northings are under 1e7 m), and below it the squares and products the
# geometry and the rules form cannot overflow float64.
COORD_LIMIT_M = 1e9


def _coord_error(what: str, values) -> ValueError:
    """The error for `values` that are not all finite and at most
    COORD_LIMIT_M in magnitude; `what` names them."""
    if not np.all(np.isfinite(values)):
        return ValueError(f"{what} must be finite")
    return ValueError(f"{what} must be at most {COORD_LIMIT_M:g} in magnitude")


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    r = math.remainder(a, math.tau)
    if r <= -math.pi:
        r += math.tau
    return r


def to_world(frame: Pose, rows: np.ndarray) -> np.ndarray:
    """The (n, >= 2) float rows, given in the frame of the pose `frame`, in
    the world frame, as a new array: columns 0 and 1 are the point, column 2,
    if there is one, the heading (plus frame.psi, wrapped to (-pi, pi]), and
    any further column is copied.  `frame` is read only for its x, y and psi,
    and `rows` is not written."""
    c, s = math.cos(frame.psi), math.sin(frame.psi)
    x, y = rows[:, 0], rows[:, 1]
    out = rows.copy()
    out[:, 0] = frame.x + c * x - s * y
    out[:, 1] = frame.y + s * x + c * y
    if rows.shape[1] > 2:
        out[:, 2] = [wrap_angle(a) for a in (rows[:, 2] + frame.psi).tolist()]
    return out


@dataclass(frozen=True)
class Pose:
    """Planar pose (x, y, psi) in meters/radians; psi normalized to (-pi, pi]."""

    x: float
    y: float
    psi: float

    def __post_init__(self):
        if not (abs(self.x) <= COORD_LIMIT_M and abs(self.y) <= COORD_LIMIT_M and math.isfinite(self.psi)):
            raise _coord_error(f"pose components ({self.x}, {self.y}, {self.psi})", (self.x, self.y, self.psi))
        object.__setattr__(self, "psi", wrap_angle(self.psi))


class Polygon:
    """Simple polygon, stored CCW (input orientation is normalized).

    `vertices` is an (n, 2) float array, n >= 3, the ring open: no vertex
    repeats its predecessor, and the last does not repeat the first (each
    within 1e-9 m).  Self-intersection is the caller's contract and is not
    checked.

    The constructor also keeps the edge arrays every query reads, edge i
    running from vertex i to vertex i+1 of the stored ring: `_nxt`, (n, 2)
    end points; `_e`, (n, 2) offsets; `_len2`, (n, 1) squared lengths; and
    `_ey_div`, (n, 1), the y offsets with the zeros of horizontal edges
    replaced by 1, for the crossing test, where they never count.  Every
    array is the polygon's own and read-only.
    """

    __slots__ = ("vertices", "_nxt", "_e", "_len2", "_ey_div")

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("polygon needs at least 3 planar vertices")
        if not (np.abs(v) <= COORD_LIMIT_M).all():
            raise _coord_error("polygon vertices", v)
        nxt = np.concatenate([v[1:], v[:1]])
        area2 = float(np.sum(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1]))
        if area2 < 0:
            v = v[::-1]
            nxt = np.concatenate([v[1:], v[:1]])
        v = v.copy()  # the polygon's own ring, which no later write of the caller's reaches
        e = nxt - v
        sq = e * e
        len2 = sq[:, 0:1] + sq[:, 1:2]
        if (len2 <= _EDGE_EPS**2).any():
            raise ValueError("polygon has consecutive duplicate vertices")
        if abs(area2) < 1e-12:
            raise ValueError("polygon is degenerate (zero area)")
        ey = e[:, 1:2]
        ey_div = np.where(ey == 0.0, 1.0, ey)
        for arr in (v, nxt, e, len2, ey_div):
            arr.setflags(write=False)
        self.vertices, self._nxt, self._e, self._len2, self._ey_div = v, nxt, e, len2, ey_div

    @property
    def area(self) -> float:
        v, nxt = self.vertices, self._nxt
        return 0.5 * float(np.sum(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1]))

    def __repr__(self):
        return f"Polygon({len(self.vertices)} vertices, area={self.area:.3f})"


class Polyline:
    """Ordered point chain, >= 2 points, no consecutive duplicates (> 1e-9 m).

    The constructor also keeps the segment arrays every projection reads,
    segment i running from point i to point i+1: `_d`, (n - 1, 2) offsets;
    `_len2`, (n - 1, 1) squared lengths; `_seg_len`, (n - 1,) lengths; and
    `_cum`, (n,) the arc length at each point.  Every array is the
    polyline's own and read-only.
    """

    __slots__ = ("points", "_d", "_len2", "_seg_len", "_cum")

    def __init__(self, points):
        p = np.array(points, dtype=float)  # a copy: no later write of the caller's reaches it
        if p.ndim != 2 or p.shape[1] != 2:
            raise ValueError("polyline needs an (n, 2) array of points")
        if len(p) < 2:
            raise ValueError(f"polyline needs at least 2 points, got {len(p)}")
        if not (np.abs(p) <= COORD_LIMIT_M).all():
            raise _coord_error("polyline points", p)
        d = p[1:] - p[:-1]
        sq = d * d
        len2 = sq[:, 0:1] + sq[:, 1:2]
        seg_len = np.sqrt(len2[:, 0])
        if (seg_len <= _EDGE_EPS).any():
            raise ValueError("polyline has consecutive duplicate points")
        cum = np.zeros(len(p))
        np.cumsum(seg_len, out=cum[1:])
        for arr in (p, d, len2, seg_len, cum):
            arr.setflags(write=False)
        self.points, self._d, self._len2, self._seg_len, self._cum = p, d, len2, seg_len, cum

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"Polyline({len(self.points)} points, length={self._cum[-1]:.3f})"


# ---------------------------------------------------------------------------
# oriented-box overlap (separating axis test)


def _obb_overlap(ax, ay, ca, sa, ahl, ahw, bx, by, cb, sb, bhl, bhw) -> np.ndarray:
    """SAT overlap of paired boxes, each given by its center, the cosine and
    sine of its heading (ca, sa for box A, cb, sb for box B) and its half
    length and half width; touching counts as overlap.

    The arguments broadcast together, and the result is a bool array of
    their broadcast shape.  Each term is formed at the shape of its own
    operands: heading terms repeated along an axis on which only the centers
    move (TTC's horizon substeps) are computed once, not per element of that
    axis.
    """
    dx = bx - ax
    dy = by - ay
    # relative heading terms reused across all four axes
    cab = np.abs(ca * cb + sa * sb)   # |cos(b - a)|
    sab = np.abs(ca * sb - sa * cb)   # |sin(b - a)|
    # axes of A: project the center offset and B's extents onto A's long/lat
    # axes; every argument is in these two terms, so they have the full shape
    overlap = (np.abs(dx * ca + dy * sa) <= ahl + (bhl * cab + bhw * sab)) & (
        np.abs(dy * ca - dx * sa) <= ahw + (bhl * sab + bhw * cab)
    )
    # axes of B, symmetric roles
    overlap &= np.abs(dx * cb + dy * sb) <= bhl + (ahl * cab + ahw * sab)
    overlap &= np.abs(dy * cb - dx * sb) <= bhw + (ahl * sab + ahw * cab)
    return overlap


# ---------------------------------------------------------------------------
# polygon containment


def xy_in_polygon(px: np.ndarray, py: np.ndarray, poly: Polygon) -> np.ndarray:
    """Even-odd containment of points given as (n,) x and y arrays; boundary
    points are inside.

    Work arrays are (edges, points), so numpy's inner loops run over the
    many points rather than the few edges.
    """
    v, e, len2 = poly.vertices, poly._e, poly._len2
    ax, ay, by, ex, ey = v[:, 0:1], v[:, 1:2], poly._nxt[:, 1:2], e[:, 0:1], e[:, 1:2]
    ry = py - ay
    # crossing number: edge straddles the horizontal ray through the point
    cond = (ay > py) != (by > py)
    # x coordinate where the edge crosses the ray (for the straddling edges)
    x_cross = ax + ry * ex / poly._ey_div
    # an odd number of crossings is inside
    inside = np.bitwise_xor.reduce(cond & (px < x_cross), axis=0)
    if inside.all():
        return inside  # the boundary test below could only add points

    # boundary inclusion: squared distance to each edge segment under tolerance
    rx = px - ax
    t = ((rx * ex + ry * ey) / len2).clip(0.0, 1.0)
    dx = px - (ax + t * ex)
    dy = py - (ay + t * ey)
    return inside | (dx * dx + dy * dy <= _EDGE_EPS * _EDGE_EPS).any(axis=0)


# ---------------------------------------------------------------------------
# polylines: arc length and projection


def _segment_projection(starts, d, len2, px: np.ndarray, py: np.ndarray):
    """Each of the (n,) points projected onto each segment: (S, n) arrays of
    the clamped parameter along the segment and of the squared distance to
    it.  The segments are given by their (S, 2) start points and offsets and
    (S, 1) squared lengths, as a Polyline holds them."""
    dx, dy = d[:, 0:1], d[:, 1:2]
    rx = px - starts[:, 0:1]
    ry = py - starts[:, 1:2]
    t = ((rx * dx + ry * dy) / len2).clip(0.0, 1.0)
    qx = rx - t * dx
    qy = ry - t * dy
    return t, qx * qx + qy * qy


def arc_positions(line: Polyline, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Arc length of the closest polyline point to each of the (n,) points,
    clamped to [0, total length]; equidistant segments break to the lowest
    index."""
    t, d2 = _segment_projection(line.points[:-1], line._d, line._len2, px, py)
    seg = d2.argmin(axis=0)
    return line._cum[seg] + t[seg, np.arange(len(px))] * line._seg_len[seg]


# ---------------------------------------------------------------------------
# segment intersection (used by the box-vs-polygon entry test)


def _ring_meets_polygon(px, py, nxt, poly: Polygon) -> np.ndarray:
    """Whether each ring edge meets each polygon edge, (E, n) bool.

    The ring edges run from point i of the (n,) arrays px, py to point
    nxt[i].  Segments are closed: touching end points count as meeting, and
    collinear overlap is detected via bounding boxes.  The orientation
    determinants share their differences: with r the offset of a ring point
    from a polygon vertex, e the polygon edge and b the ring edge,
    d1 = e x r and d3 = b x (-r) = r x b; d2 and d4 are d1 at the next ring
    point and d3 at the next polygon vertex, so each is one gather.
    """
    v, e = poly.vertices, poly._e
    ax, ay, bx, by, ex, ey = v[:, 0:1], v[:, 1:2], poly._nxt[:, 0:1], poly._nxt[:, 1:2], e[:, 0:1], e[:, 1:2]
    rx = px - ax                                       # (E, n)
    ry = py - ay
    qx, qy = px.take(nxt), py.take(nxt)
    d1 = ex * ry - ey * rx                             # orient(vertex, next vertex, ring point)
    d2 = d1.take(nxt, axis=1)                          # ... the ring edge's end point
    d3 = (qy - py) * rx - (qx - px) * ry               # orient(ring point, its end point, vertex)
    d4 = np.concatenate([d3[1:], d3[:1]])              # ... the polygon edge's end point
    collinear = (d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0)
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & ~collinear
    if not collinear.any():
        return proper  # a touch needs a collinear triple

    def on_box(x1, y1, x2, y2, x, y):
        return (
            (np.minimum(x1, x2) - _EDGE_EPS <= x)
            & (x <= np.maximum(x1, x2) + _EDGE_EPS)
            & (np.minimum(y1, y2) - _EDGE_EPS <= y)
            & (y <= np.maximum(y1, y2) + _EDGE_EPS)
        )

    touch = (
        ((d1 == 0) & on_box(ax, ay, bx, by, px, py))
        | ((d2 == 0) & on_box(ax, ay, bx, by, qx, qy))
        | ((d3 == 0) & on_box(px, py, qx, qy, ax, ay))
        | ((d4 == 0) & on_box(px, py, qx, qy, bx, by))
    )
    return proper | touch
