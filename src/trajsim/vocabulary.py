"""Trajectory vocabulary: k-means over flattened (x, y) waypoint embeddings.

Clustering works on positions only; headings are reconstructed on the final
centers from consecutive displacement tangents (mixing radians into a metric
of meters would need an arbitrary scale).  The implementation is k-means++
seeding plus Lloyd iterations, with a deterministic chunked assignment step:
chunks may be processed by a thread pool, but labels are order-free and the
per-cluster reduction always runs in chunk-index order, so the result is
bitwise identical for any worker count.

Seeding keeps a transposed (2M, N) copy of the embeddings, so each new
center's squared distances are a few whole-row operations over N points
instead of N short rows.  The rows are then summed in the order numpy's
pairwise summation uses for ``np.sum(a, axis=1)`` over the original (N, 2M)
layout (eight interleaved accumulators per block of 128, halves above
that), so the distances, and with them every k-means++ draw, are the same
bits as the row-wise sum.  That order is a numpy implementation detail;
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
"""

from __future__ import annotations

import csv
import mmap
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .kinematics import Trajectory

__all__ = [
    "FULL_SCALE_K",
    "DESK_SCALE_K",
    "TrajectoryCorpus",
    "Vocabulary",
    "embed",
    "embed_corpus",
    "headings_from_tangents",
    "kmeans",
    "save_vocabulary",
    "load_vocabulary",
    "export_vocabulary_csv",
]

_MAGIC = b"TVOC"
_VERSION = 1
_CHUNK = 4096  # fixed assignment chunk size; must not depend on worker count

# vocabulary sizes balancing coverage against batch-scoring cost
FULL_SCALE_K = 8192
DESK_SCALE_K = 256


class TrajectoryCorpus:
    """Ego-frame trajectories with a common waypoint count."""

    __slots__ = ("items",)

    def __init__(self, items):
        items = list(items)
        if not items:
            raise ValueError("corpus is empty")
        m = items[0].m
        if any(t.m != m for t in items):
            raise ValueError("corpus trajectories must share one waypoint count")
        self.items = items

    @property
    def count(self) -> int:
        return len(self.items)

    @property
    def m(self) -> int:
        return self.items[0].m

    def __len__(self):
        return len(self.items)


@dataclass(frozen=True)
class Vocabulary:
    """K cluster-center trajectories plus the clustering provenance."""

    centers: list
    k: int
    seed: int
    inertia: float
    inertia_history: tuple = field(default=(), repr=False)

    def __post_init__(self):
        if self.k < 1 or len(self.centers) != self.k:
            raise ValueError("vocabulary must hold exactly k centers, k >= 1")

    @property
    def m(self) -> int:
        return self.centers[0].m

    def embeddings(self) -> np.ndarray:
        return np.stack([embed(c) for c in self.centers])


def embed(t: Trajectory) -> np.ndarray:
    """Flatten the M (x, y) waypoints into a length-2M feature vector."""
    return t.xy.reshape(-1).copy()


def embed_corpus(corpus: TrajectoryCorpus) -> np.ndarray:
    return np.stack([t.xy for t in corpus.items]).reshape(corpus.count, -1)


def headings_from_tangents(xy: np.ndarray) -> np.ndarray:
    """Headings from consecutive displacements; the last copies its neighbor."""
    d = np.diff(xy, axis=0)
    psi = np.arctan2(d[:, 1], d[:, 0])
    return np.concatenate([psi, psi[-1:]]) if len(psi) else np.zeros(1)


def _center_to_trajectory(vec: np.ndarray, m: int) -> Trajectory:
    xy = vec.reshape(m, 2)
    return Trajectory(np.column_stack([xy, headings_from_tangents(xy)]))


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


def _sq_dist_to(xt: np.ndarray, c: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """np.sum((x - c) ** 2, axis=1) from the transposed xt, bit for bit; a view of buf."""
    np.subtract(xt, c[:, None], out=buf)
    np.square(buf, out=buf)
    return _pairwise_row_sum(buf)


def _draw(d2, total, rng, cdf) -> int:
    """rng.choice(len(d2), p=d2 / total) by the steps Generator.choice takes,
    without its checks on p; cdf is a work array the size of d2."""
    np.divide(d2, total, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeans_pp(x: np.ndarray, k: int, rng):
    """k-means++ centers of the rows of x, and every row's squared distance
    to its nearest center: the bits of seeding that recomputes every row's
    distance to each new center (see the module docstring for the bound)."""
    n, dim = x.shape
    eps = (dim + 8) * 2.0**-48
    tau = (dim + 8) * 2.0**-1060
    xt = np.ascontiguousarray(x.T)
    work = np.empty(dim * n)  # the distance terms of the rows recomputed
    centers = np.empty((k, dim))
    shrunk = np.empty(k)  # (1 - 2 eps) |center|^2
    lower = np.empty(k)
    at_label = np.empty(n)
    near = np.empty(n, dtype=bool)
    cdf = np.empty(n)
    labels = np.zeros(n, dtype=np.intp)  # each row's nearest center

    centers[0] = x[int(rng.integers(n))]
    shrunk[0] = (1.0 - 2.0 * eps) * (centers[0] @ centers[0])
    d2 = _sq_dist_to(xt, centers[0], work.reshape(dim, n)).copy()
    bound = d2 * (4.0 * (1.0 + eps)) + tau
    for i in range(1, k):
        total = d2.sum()
        idx = int(rng.integers(n)) if total <= 0 else _draw(d2, total, rng, cdf)
        c = centers[i]
        c[:] = x[idx]
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
        new = _sq_dist_to(sub, c, sub)
        closer = new < d2[rows]
        rows = rows[closer]
        new = new[closer]
        d2[rows] = new
        labels[rows] = i
        bound[rows] = new * (4.0 * (1.0 + eps)) + tau
    return centers, d2


def _assign_chunk(x_chunk, xx, x2, centers, cc, k, d2):
    """Labels, per-cluster sums/counts, and inertia for one chunk.

    xx and x2 are the chunk's squared norms and 2 * x_chunk, cc the centers'
    squared norms; the distances (xx - x2 @ centers.T) + cc are written to
    the (len(x_chunk), k) array d2."""
    np.matmul(x2, centers.T, out=d2)
    np.subtract(xx[:, None], d2, out=d2)
    d2 += cc
    labels = np.argmin(d2, axis=1)
    # recompute the chosen distance directly: the expansion above can go
    # slightly negative from cancellation
    chosen = x_chunk - centers[labels]
    dist2 = np.sum(chosen * chosen, axis=1)
    sums = np.empty_like(centers)
    for j in range(x_chunk.shape[1]):
        sums[:, j] = np.bincount(labels, weights=x_chunk[:, j], minlength=k)
    counts = np.bincount(labels, minlength=k)
    return labels, sums, counts, float(dist2.sum()), dist2


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
    (successive farthest points when several empty at once).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if corpus.count < k:
        raise ValueError(f"corpus has {corpus.count} trajectories but k={k}")
    x = embed_corpus(corpus)
    n = len(x)
    rng = np.random.default_rng(seed)

    centers, _ = _kmeans_pp(x, k, rng)

    # each chunk with the terms no iteration changes: its squared norms and 2x
    chunks = [(c, np.sum(c * c, axis=1), 2.0 * c) for c in (x[lo : lo + _CHUNK] for lo in range(0, n, _CHUNK))]
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    # one (chunk, k) distance buffer for every chunk and pass; pool threads
    # each take their own.  It is an anonymous mapping, so its pages go back
    # to the OS when kmeans returns: malloc may keep a freed block this size
    # resident, and every process forked later (a distill pool) would carry it
    d2_buf = np.frombuffer(mmap.mmap(-1, 8 * min(n, _CHUNK) * k)).reshape(-1, k) if pool is None else None
    try:
        prev_labels = None
        history = []
        for _ in range(max_iters):
            cc = np.sum(centers * centers, axis=1)
            if pool is None:
                parts = [_assign_chunk(*chunk, centers, cc, k, d2_buf[: len(chunk[0])]) for chunk in chunks]
            else:
                parts = list(pool.map(
                    lambda chunk: _assign_chunk(*chunk, centers, cc, k, np.empty((len(chunk[0]), k))), chunks
                ))
            labels = np.concatenate([p[0] for p in parts])
            # reduce in chunk-index order so results never depend on scheduling
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
                dist2 = np.concatenate([p[4] for p in parts])
                order = np.argsort(-dist2, kind="stable")
                cursor = 0
                for cluster in empty:
                    # take the farthest point whose donor keeps >= 1 member
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
                prev_labels = labels
            centers = sums / counts[:, None]
    finally:
        if pool is not None:
            pool.shutdown()

    m = corpus.m
    return Vocabulary(
        centers=[_center_to_trajectory(c, m) for c in centers],
        k=k,
        seed=seed,
        inertia=history[-1],
        inertia_history=tuple(history),
    )


# ---------------------------------------------------------------------------
# persistence: binary header {magic, version, K, M, seed} + K*M*3 float64 LE


_HEADER = struct.Struct("<4sIIIq")


def save_vocabulary(vocab: Vocabulary, path) -> None:
    data = np.stack([c.poses for c in vocab.centers]).astype("<f8")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, _VERSION, vocab.k, vocab.m, vocab.seed))
        f.write(data.tobytes())


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
    centers = [Trajectory(data[i]) for i in range(k)]
    return Vocabulary(centers=centers, k=k, seed=seed, inertia=float("nan"))


def export_vocabulary_csv(vocab: Vocabulary, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["center", "waypoint", "x_m", "y_m", "psi_rad"])
        # csv writes a float as str(), which is repr()
        writer.writerows(
            [ci, wi, *pose] for ci, center in enumerate(vocab.centers) for wi, pose in enumerate(center.poses.tolist())
        )
