"""Trajectory vocabulary: k-means over flattened (x, y) waypoint embeddings.

A corpus and a vocabulary are each one read-only array.  TrajectoryCorpus
holds the (N, 2M) flattened (x, y) waypoints that kmeans clusters, read once
from its trajectories; headings are never clustered, so it drops them.
Vocabulary holds the (K, M, 3) center poses that save_vocabulary writes, and
builds its per-center Trajectory views only when `centers` is first read;
they stay out of its pickle, so a process-pool submit ships one array.

Clustering works on positions only; headings are reconstructed on the final
centers from consecutive displacement tangents (mixing radians into a metric
of meters would need an arbitrary scale), by math.atan2 per displacement.
The implementation is k-means++ seeding plus Lloyd iterations, with a
chunked assignment step in one thread: the cluster sums and the inertia are
reduced in chunk-index order, so the fixed chunk boundaries fix their bits.

kmeans keeps one transposed (2M, N) copy of the embeddings, which seeding
and every Lloyd chunk read.  In seeding, each new center's squared
distances are a few whole-row operations over N points instead of N short
rows.  The rows are then summed in the order numpy's pairwise summation
uses for ``np.sum(a, axis=1)`` over the original (N, 2M) layout (eight
interleaved accumulators per block of 128, halves above that), so the
distances, and with them every k-means++ draw, are the same bits as the
row-wise sum.  That order is a numpy implementation detail;
tests/test_exactness.py pins it.

Seeding recomputes only the distances a new center can change.  Each point
p keeps the index l of its nearest chosen center and the computed squared
distance d2 to it.  When center c is drawn, a lower bound of |c - l|^2 comes
from one matrix-vector product of the earlier centers with c, less an
absolute margin of 2 eps (|c|^2 + |l|^2); p is recomputed only where that
bound is below 4 d2 (1 + eps) + tau.  With D coordinates, eps = (D + 8)
2^-48 exceeds the (D + 2) ulp relative rounding of a D-term squared distance
or dot product, with the few roundings of the bound itself, and tau = (D +
8) 2^-1060 exceeds the D 2^-1074 absolute rounding of subnormal squares.
For a skipped p the triangle inequality |p - c| >= |c - l| - |p - l| then
puts the true |p - c|^2 above the true |p - l|^2 by more than either
computed distance can be off, so the computed distance to c is not below
d2 and the minimum with it would keep d2's bits.  The draw takes the steps
Generator.choice(n, p=d2 / total) takes, without its checks on p: cumsum,
division by the last entry, and searchsorted of one random() on the right.
That too follows numpy's implementation, and a test pins it to choice.

The Lloyd passes skip the points whose label the bounds settle (Hamerly,
"Making k-means even faster", SDM 2010), and give the labels of passes that
assign every point.  A computed distance (xx - 2x.c) + cc is within E =
eps (|x| + |c|)^2 + tau of the true squared distance, for any summation
order of the product, so the margin m = sqrt(2 eps) (|x| + C) + tiny, with
C the largest center norm and tiny = (D + 8) 2^-530, has m^2 >= 2 E.  Each
point keeps an upper bound u on the distance to its label's center, from
the directly computed distance, and a lower bound l on the distance to every
other center: the root of the second-least distance of its last computed
row, less m.  Per center, s is half the root of the least computed squared
distance to another center, less C sqrt(2 eps) + tiny, a lower bound on
half the true gap; it is computed in row blocks, never as a (k, k) array.
After a pass, u grows by its label's center drift and l shrinks by the
largest drift of another center, each sum stepped one ulp outward; a point
moved by the empty-cluster repair gets u = inf and l = -inf.  A point whose
max(l, s[label]) - u exceeds m keeps its label: every other center is
farther by more than m, so its true squared distance exceeds the label's by
more than 2 E, and the computed row's argmin is the label, with no tie.  A
point that fails first has u replaced by its direct distance and is tested
again; only then is its row computed.  eps is over 32 times the (D + 3)
2^-53 relative rounding of a row entry, which leaves room for the roundings
of the norms and bounds themselves.

A computed row comes from a product of the rows being recomputed, gathered
a block at a time into a small anonymous mapping, with the doubled centers:
doubling is exact, so each term x_i (2 c_i) is the real number (2 x_i) c_i
and rounds the same, and no doubled copy of the points is kept.  Its bits need not be the
whole chunk's: with OpenBLAS 0.3.31, the rows of a product of a few rows
differ in their last bits from the same rows of the whole product once
D >= 32 (up to 600 rows at k = 2, D = 140).  So a row's
label is taken from the block only when its two least distances differ by
more than 2 m^2 >= 4 E; otherwise (a tie, or nearly) the row is taken from
the whole chunk's product, as the pass that assigns every point computes
it.  The cluster sums, the inertia and the chunk-order reduction are as
before, and the direct distances are summed over the transposed chunk in
np.sum's order (_pairwise_row_sum), so every center keeps its bits.
"""

from __future__ import annotations

import math
import mmap
import numbers
import struct
from pathlib import Path

import numpy as np

from .geom import COORD_LIMIT_M, _coord_error
from .kinematics import Trajectory

__all__ = [
    "FULL_SCALE_K",
    "DESK_SCALE_K",
    "TrajectoryCorpus",
    "Vocabulary",
    "headings_from_tangents",
    "kmeans",
    "save_vocabulary",
    "load_vocabulary",
    "export_vocabulary_csv",
]

_MAGIC = b"TVOC"
_VERSION = 1
_CHUNK = 4096  # fixed assignment chunk size: it fixes the order of the sums
_BLOCK = 2**18  # distances per block of rows: 2 MiB, to stay in cache

# vocabulary sizes balancing coverage against batch-scoring cost
FULL_SCALE_K = 8192
DESK_SCALE_K = 256


class TrajectoryCorpus:
    """The (x, y) waypoints of N ego-frame trajectories with one waypoint
    count M (>= 2, as every Trajectory has), as one read-only (N, 2M) array
    `xy`, row i the flattened waypoints of trajectory i.  `items` is read
    once and not kept."""

    __slots__ = ("xy", "m")

    def __init__(self, items):
        items = iter(items)
        first = next(items, None)
        if first is None:
            raise ValueError("corpus is empty")
        m = first.m

        def positions():
            yield first.xy
            for i, t in enumerate(items, 1):
                if t.m != m:
                    raise ValueError(f"corpus trajectories must share one waypoint count: items[{i}] has "
                                     f"{t.m} waypoints, items[0] has {m}")
                yield t.xy

        # one growing array, not a list of N small ones whose freed heap a
        # later fork would carry
        xy = np.fromiter(positions(), dtype=np.dtype((float, (m, 2)))).reshape(-1, 2 * m)
        xy.setflags(write=False)
        self.xy = xy
        self.m = m

    @property
    def count(self) -> int:
        return len(self.xy)

    def __len__(self):
        return len(self.xy)


class Vocabulary:
    """K cluster-center trajectories as one read-only (K, M, 3) array of
    (x, y, psi) poses, the vocabulary's own copy, plus the clustering
    provenance."""

    __slots__ = ("poses", "seed", "inertia", "inertia_history", "_centers")

    def __init__(self, poses, seed: int, inertia: float, inertia_history=()):
        p = np.array(poses, dtype=float)
        if p.ndim != 3 or p.shape[2] != 3:
            raise ValueError("vocabulary needs a (K, M, 3) array of center waypoints")
        if len(p) < 1:
            raise ValueError(f"k must be >= 1, got {len(p)}")
        if p.shape[1] < 2:  # Trajectory's M >= 2, tested on all K centers at once
            raise ValueError(f"m must be >= 2 waypoints, got {p.shape[1]}")
        # the test Trajectory makes of each center, headings too
        ok = (np.abs(p) <= COORD_LIMIT_M).all(axis=(1, 2))
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValueError(f"centers[{i}]: {_coord_error('trajectory waypoints', p[i])}")
        p.setflags(write=False)
        self.poses = p
        self.seed = seed
        self.inertia = inertia
        self.inertia_history = tuple(inertia_history)
        self._centers = None

    @property
    def k(self) -> int:
        return self.poses.shape[0]

    @property
    def m(self) -> int:
        return self.poses.shape[1]

    @property
    def centers(self) -> tuple:
        """One Trajectory per center, built from its rows of `poses` on first
        use."""
        if self._centers is None:
            self._centers = tuple(Trajectory(p) for p in self.poses)
        return self._centers

    def __reduce__(self):
        return Vocabulary, (self.poses, self.seed, self.inertia, self.inertia_history)


def headings_from_tangents(xy: np.ndarray) -> np.ndarray:
    """Headings of the (..., M, 2) waypoints xy from consecutive
    displacements, each by math.atan2, whose bits, unlike np.arctan2's, do
    not depend on numpy's SIMD level; the last copies its neighbor."""
    d = np.diff(xy, axis=-2)
    psi = np.frompyfunc(math.atan2, 2, 1)(d[..., 1], d[..., 0]).astype(float)
    return np.concatenate([psi, psi[..., -1:]], axis=-1) if psi.shape[-1] else np.zeros(xy.shape[:-1])


def _center_poses(centers: np.ndarray, m: int) -> np.ndarray:
    """The (K, M, 3) poses of the (K, 2M) flattened center positions, with
    the headings of all centers from one headings_from_tangents."""
    poses = np.empty((len(centers), m, 3))
    poses[:, :, :2] = centers.reshape(len(centers), m, 2)
    poses[:, :, 2] = headings_from_tangents(poses[:, :, :2])
    return poses


def _pairwise_row_sum(a: np.ndarray) -> np.ndarray:
    """The column sums of `a`, overwriting it, in the order np.sum(a.T, axis=1)
    adds them: numpy's pairwise summation over the len(a) rows."""
    n = len(a)
    if n < 8:
        for i in range(1, n):
            a[0] += a[i]
        return a[0]
    if n <= 128:
        blocked = n - n % 8
        for i in range(8, blocked, 8):
            a[:8] += a[i : i + 8]
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        a[0:8:2] += a[1:8:2]
        a[0:8:4] += a[2:8:4]
        a[0] += a[4]
        for i in range(blocked, n):
            a[0] += a[i]
        return a[0]
    half = n // 2
    half -= half % 8
    total = _pairwise_row_sum(a[:half])
    total += _pairwise_row_sum(a[half:])
    return total


def _sq_dist_to(xt: np.ndarray, ct: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """np.sum((x - c) ** 2, axis=1) from the transposed xt and ct, bit for bit;
    ct is one center as a (dim, 1) column or one center per point.  A view of
    buf, which may be ct."""
    np.subtract(xt, ct, out=buf)
    np.square(buf, out=buf)
    return _pairwise_row_sum(buf)


def _draw(d2, total, rng, cdf) -> int:
    """rng.choice(len(d2), p=d2 / total) by the steps Generator.choice takes,
    without its checks on p; cdf is a work array the size of d2."""
    np.divide(d2, total, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeans_pp(xt: np.ndarray, k: int, rng):
    """k-means++ centers of the columns of xt, the transposed points, and
    every point's squared distance to its nearest center: the bits of
    seeding that recomputes every point's distance to each new center (see
    the module docstring for the bound)."""
    dim, n = xt.shape
    eps = (dim + 8) * 2.0**-48
    tau = (dim + 8) * 2.0**-1060
    work = np.empty(dim * n)  # the distance terms of the rows recomputed
    centers = np.empty((k, dim))
    shrunk = np.empty(k)  # (1 - 2 eps) |center|^2
    lower = np.empty(k)
    at_label = np.empty(n)
    near = np.empty(n, dtype=bool)
    cdf = np.empty(n)
    labels = np.zeros(n, dtype=np.intp)  # each row's nearest center

    centers[0] = xt[:, int(rng.integers(n))]
    shrunk[0] = (1.0 - 2.0 * eps) * (centers[0] @ centers[0])
    d2 = _sq_dist_to(xt, centers[0][:, None], work.reshape(dim, n)).copy()
    bound = d2 * (4.0 * (1.0 + eps)) + tau
    for i in range(1, k):
        total = d2.sum()
        idx = int(rng.integers(n)) if total <= 0 else _draw(d2, total, rng, cdf)
        c = centers[i]
        c[:] = xt[:, idx]
        shrunk[i] = (1.0 - 2.0 * eps) * (c @ c)
        # lo[j] <= |c - centers[j]|^2: the expansion less its error margin
        lo = lower[:i]
        np.matmul(centers[:i], c, out=lo)
        lo *= -2.0
        lo += shrunk[:i]
        lo += shrunk[i] - tau
        # mode="clip" since every index is in range; "raise" would buffer out
        np.take(lo, labels, out=at_label, mode="clip")
        np.less(at_label, bound, out=near)
        rows = np.flatnonzero(near)
        sub = work[: dim * len(rows)].reshape(dim, len(rows))
        np.take(xt, rows, axis=1, out=sub, mode="clip")
        new = _sq_dist_to(sub, c[:, None], sub)
        closer = new < d2[rows]
        rows = rows[closer]
        new = new[closer]
        d2[rows] = new
        labels[rows] = i
        bound[rows] = new * (4.0 * (1.0 + eps)) + tau
    return centers, d2


def _nearest_two(x, xx, c2, cc, d2):
    """Each row's label, its second-least and its least distance, from the
    distances (xx - x @ c2.T) + cc written to the (len(x), k) array d2; c2
    is the centers doubled, whose products with x are exactly those of 2x
    with the centers.

    The label is argmin's, the first index of the least computed distance."""
    np.matmul(x, c2.T, out=d2)
    np.subtract(xx[:, None], d2, out=d2)
    d2 += cc
    labels = np.argmin(d2, axis=1)
    at = (np.arange(len(d2)), labels)
    least = d2[at]
    d2[at] = np.inf
    return labels, d2.min(axis=1), least


def _nearest_rows(rows, x, xx, c2, cc, margin, buf):
    """The labels that the whole chunk's product gives the sorted rows `rows`
    of one chunk x, and their second-least computed distances; c2 is the
    centers doubled and margin holds the rows' margins.

    The rows of x are gathered behind their distances in the flat work array
    buf, a block at a time, and a row whose two least distances lie within
    2 margin^2 of each other is taken from the whole chunk's product instead:
    the bits of a product of some rows need not be those of the same rows in
    the whole product, so only a clear least distance settles the label."""
    n, dim = x.shape
    k = len(c2)
    labels = np.empty(len(rows), dtype=np.intp)
    second = np.empty(len(rows))
    close = np.empty(len(rows), dtype=bool)
    b = len(buf) // (k + dim)
    for lo in range(0, len(rows), b):
        take = rows[lo : lo + b]
        m = len(take)
        sub = buf[m * k : m * (k + dim)].reshape(m, dim)
        np.take(x, take, axis=0, out=sub)
        block = slice(lo, lo + m)
        labels[block], second[block], least = _nearest_two(sub, xx[take], c2, cc, buf[: m * k].reshape(m, k))
        margin2 = margin[block] ** 2
        close[block] = second[block] - least <= margin2 + margin2
    if close.any():
        whole = np.frombuffer(mmap.mmap(-1, 8 * n * k)).reshape(n, k)
        all_labels, all_second, _ = _nearest_two(x, xx, c2, cc, whole)
        labels[close] = all_labels[rows[close]]
        second[close] = all_second[rows[close]]
    return labels, second


def _loose(rows, lab, u, l, s, mx, mc):
    """Which of the rows `rows` the bounds do not settle: max(l, s[label]) - u
    is at most the margin mx + mc."""
    gap = np.maximum(l[rows], s[lab[rows]])
    gap -= u[rows]
    gap -= mx[rows]
    return gap <= mc


def _assign_chunk(chunk, centers, ct, cc, s, mc, eps, tiny, buf):
    """Assign one chunk to the centers and refresh its bounds.

    chunk is (x.T, xx, x, mx, labels, u, l) over the same points, the last
    four views of kmeans' per-point arrays, which this updates in place; ct
    is centers.T.  With s None every row is recomputed (the first pass);
    otherwise only the rows whose bounds leave the label open.  Returns the
    per-cluster sums and counts, the inertia, each point's squared distance
    to its center and the number of labels that changed."""
    xt, xx, x, mx, lab, u, l = chunk
    k = len(centers)
    if s is None:
        rows = np.arange(xt.shape[1])
    else:
        rows = np.flatnonzero(_loose(slice(None), lab, u, l, s, mx, mc))
        # the cheaper check first: the distance to the point's own center
        cols = np.take(xt, rows, axis=1)
        u[rows] = _upper(_sq_dist_to(cols, np.take(ct, lab[rows], axis=1), cols), eps, tiny)
        rows = rows[_loose(rows, lab, u, l, s, mx, mc)]
    changed = 0
    if len(rows):
        margin = mx[rows] + mc
        new, second = _nearest_rows(rows, x, xx, centers + centers, cc, margin, buf)
        changed = int(np.count_nonzero(new != lab[rows]))
        lab[rows] = new
        np.maximum(second, 0.0, out=second)
        l[rows] = np.sqrt(second) - margin
    # recompute the chosen distance directly: the expansion can go slightly
    # negative from cancellation
    own = np.take(ct, lab, axis=1)
    dist2 = _sq_dist_to(xt, own, own)
    _upper(dist2, eps, tiny, out=u)
    sums = np.empty_like(centers)
    for j in range(len(xt)):
        sums[:, j] = np.bincount(lab, weights=xt[j], minlength=k)
    counts = np.bincount(lab, minlength=k)
    return sums, counts, float(dist2.sum()), dist2, changed


def _upper(d2, eps, tiny, out=None):
    """Upper bounds on the true distances whose computed squares are d2."""
    d = np.sqrt(d2, out=out)
    d *= 1.0 + eps
    d += tiny
    return d


def _half_gaps(centers, cc, mc, buf):
    """Per center, a lower bound on half the distance to its nearest other
    center: half the root of the least computed squared distance, less mc.

    The (k, k) distances are computed in row blocks in the flat work array
    buf, never whole."""
    k = len(centers)
    gaps = np.empty(k)
    minus2 = -2.0 * centers
    step = len(buf) // k
    for lo in range(0, k, step):
        hi = min(lo + step, k)
        blk = buf[: (hi - lo) * k].reshape(hi - lo, k)
        np.matmul(minus2[lo:hi], centers.T, out=blk)
        blk += cc[lo:hi, None]
        blk += cc
        blk[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        np.min(blk, axis=1, out=gaps[lo:hi])
    np.maximum(gaps, 0.0, out=gaps)
    np.sqrt(gaps, out=gaps)
    gaps *= 0.5
    gaps -= mc
    return gaps


def _drift_bounds(old, centers, lab, u, l, eps, tiny):
    """Carry the bounds from the centers `old` to `centers`: u grows by its
    label's drift, l shrinks by the largest drift of another center, each
    sum stepped one ulp outward."""
    diff = centers - old
    drift = _upper(np.sum(diff * diff, axis=1), eps, tiny)
    top = int(np.argmax(drift))
    other = np.full(len(drift), drift[top])
    other[top] = np.delete(drift, top).max(initial=0.0)
    u += drift[lab]
    np.nextafter(u, np.inf, out=u)
    l -= other[lab]
    np.nextafter(l, -np.inf, out=l)


def kmeans(
    corpus: TrajectoryCorpus,
    k: int,
    max_iters: int = 100,
    seed: int = 0,
    workers: int = 1,
) -> Vocabulary:
    """k-means++ seeded Lloyd clustering, deterministic for a fixed seed.

    Stops at an assignment fixed point or after `max_iters`.  Clusters that
    empty out are re-seeded to the point currently farthest from its center
    (successive farthest points when several empty at once).  Clustering
    runs in one thread; `workers` must be 1, kept for callers that pass it.
    """
    for name, value in (("k", k), ("max_iters", max_iters), ("workers", workers)):
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}")
    # the vocabulary file stores the seed as an i64
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= seed < 2**63:
        raise ValueError(f"seed must be an integer in [0, 2**63), got {seed!r}")
    if corpus.count < k:
        raise ValueError(f"corpus has {corpus.count} trajectories but k={k}")
    x = corpus.xy
    n, dim = x.shape
    rng = np.random.default_rng(seed)

    xt = np.ascontiguousarray(x.T)  # seeding's and every chunk's
    centers, _ = _kmeans_pp(xt, k, rng)

    # the rounding bounds of the module docstring
    eps = (dim + 8) * 2.0**-48
    tiny = (dim + 8) * 2.0**-530
    root2eps = np.sqrt(2.0 * eps)
    # per point: its label, upper bound u on the distance to the label's
    # center, lower bound l on the distance to every other center, and the
    # margin term sqrt(2 eps) |x|
    labels = np.zeros(n, dtype=np.intp)
    u = np.empty(n)
    l = np.empty(n)
    mx = np.empty(n)
    # each chunk with the terms no iteration changes: its transpose and
    # squared norms
    chunks = []
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        c = x[lo:hi]
        xx = np.sum(c * c, axis=1)
        np.sqrt(xx, out=mx[lo:hi])
        mx[lo:hi] *= root2eps
        chunks.append((xt[:, lo:hi], xx, c, mx[lo:hi], labels[lo:hi], u[lo:hi], l[lo:hi]))
    # one work array for a block of distance rows and the rows of x behind
    # them, in every chunk and pass, and for the center gaps.  It is an
    # anonymous mapping, so its pages go back to the OS when kmeans returns:
    # malloc may keep a freed block this size resident, and every process
    # forked later (a distill pool) would carry it
    buf = np.frombuffer(mmap.mmap(-1, 8 * max(_BLOCK // k, 1) * (k + dim)))
    old = s = None
    history = []
    for _ in range(max_iters):
        cc = np.sum(centers * centers, axis=1)
        ct = np.ascontiguousarray(centers.T)
        mc = root2eps * np.sqrt(cc.max()) + tiny
        if old is not None:
            s = _half_gaps(centers, cc, mc, buf)
            _drift_bounds(old, centers, labels, u, l, eps, tiny)
        parts = [_assign_chunk(chunk, centers, ct, cc, s, mc, eps, tiny, buf) for chunk in chunks]
        # reduce in chunk-index order: the chunk boundaries fix the bits
        sums = np.zeros_like(centers)
        counts = np.zeros(k, dtype=np.int64)
        inertia = 0.0
        for part_sums, part_counts, part_inertia, _, _ in parts:
            sums += part_sums
            counts += part_counts
            inertia += part_inertia
        history.append(inertia)
        if old is not None and not any(p[4] for p in parts):
            break  # no label changed: an assignment fixed point

        empty = np.flatnonzero(counts == 0)
        if len(empty):
            dist2 = np.concatenate([p[3] for p in parts])
            order = np.argsort(-dist2, kind="stable")
            cursor = 0
            for cluster in empty:
                # take the farthest point whose donor keeps >= 1 member
                while counts[labels[order[cursor]]] <= 1:
                    cursor += 1
                idx = int(order[cursor])
                cursor += 1
                old_label = labels[idx]
                sums[old_label] -= x[idx]
                counts[old_label] -= 1
                sums[cluster] = x[idx]
                counts[cluster] = 1
                labels[idx] = cluster
                # bounds that held for the old label say nothing now
                u[idx] = np.inf
                l[idx] = -np.inf
        old = centers
        centers = sums / counts[:, None]

    return Vocabulary(_center_poses(centers, corpus.m), seed=seed, inertia=history[-1], inertia_history=tuple(history))


# ---------------------------------------------------------------------------
# persistence: binary header {magic, version, K, M, seed} + K*M*3 float64 LE


_HEADER = struct.Struct("<4sIIIq")


def save_vocabulary(vocab: Vocabulary, path) -> None:
    with open(path, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, _VERSION, vocab.k, vocab.m, vocab.seed))
        f.write(np.ascontiguousarray(vocab.poses, dtype="<f8").data)


def load_vocabulary(path) -> Vocabulary:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated vocabulary file")
    magic, version, k, m, seed = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported vocabulary version {version}")
    expected = _HEADER.size + k * m * 3 * 8
    if len(raw) != expected:
        raise ValueError(f"{path}: size {len(raw)} does not match header (expected {expected})")
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(k, m, 3)
    try:
        return Vocabulary(data, seed=seed, inertia=float("nan"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def export_vocabulary_csv(vocab: Vocabulary, path) -> None:
    """One `center,waypoint,x_m,y_m,psi_rad` row per waypoint, each float
    as repr() writes it, with the \\r\\n line ends of csv.writer."""
    with open(path, "w", newline="") as f:
        f.write("center,waypoint,x_m,y_m,psi_rad\r\n")
        f.writelines(
            f"{ci},{wi},{x!r},{y!r},{psi!r}\r\n"
            for ci, center in enumerate(vocab.poses.tolist())
            for wi, (x, y, psi) in enumerate(center)
        )
