"""Batch vocabulary scoring and pseudo-teacher mining.

score_vocabulary is the throughput-critical path: every (scene, center) cell
places the ego-frame center at the scene's ego pose, tracks it with the PID
bicycle, and aggregates the EPDMS subscores.  Work is distributed per scene
row across a process pool.  Each row goes straight to its fixed offset in the
checkpoint file, the run's one store of scores, so the result is bitwise
identical for any worker count and a long run resumes one scene row at a
time; the finished file is read once, into the array the run returns.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .geom import to_world
from .kinematics import _DEFAULT_KIN_CFG, KinematicsConfig, Trajectory, _check_fields, pid_track
from .metrics import _DEFAULT_METRIC_CFG, MetricConfig, Scene, ScoreContext, aggregate_epdms, evaluate_rollout
from .scene_io import scene_to_doc, stable_seed
from .vocabulary import Vocabulary

__all__ = [
    "ScoreMatrix",
    "PseudoTeacherSet",
    "DistillConfig",
    "score_scene_row",
    "score_vocabulary",
    "select_pseudo_teachers",
    "save_score_matrix",
    "load_score_matrix",
    "save_teacher_sets",
]

_MAGIC = b"TSCR"
_VERSION = 1
_HEADER = struct.Struct("<4sIII")


@dataclass(frozen=True)
class ScoreMatrix:
    """EPDMS of every vocabulary center against every scene, (S, K) in [0, 1];
    `values` keeps a read-only float64 array that owns its data, else a copy."""

    scene_ids: tuple
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if not (isinstance(v, np.ndarray) and v.dtype == float and v.flags.owndata and not v.flags.writeable):
            v = np.array(v, dtype=float)
        if v.ndim != 2 or v.shape[0] != len(self.scene_ids):
            raise ValueError("values must be (n_scenes, k)")
        if not (v.min(initial=0.0) >= 0.0 and v.max(initial=1.0) <= 1.0):  # also rejects NaN
            raise ValueError("scores must lie in [0, 1]")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_scenes(self) -> int:
        return self.values.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class PseudoTeacherSet:
    """The pseudo-teachers mined for one scene: the vocabulary indices of the
    chosen centers and their scores, in index order."""

    scene_id: str
    source_indices: tuple
    scores: tuple

    def __post_init__(self):
        if len(self.source_indices) != len(self.scores):
            raise ValueError("teacher fields must have equal lengths")

    def __len__(self):
        return len(self.source_indices)


@dataclass(frozen=True)
class DistillConfig:
    threshold: float = 0.95
    n_pseudo: int = 4
    rng_seed: int = 0

    def __post_init__(self):
        _check_fields(self)
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if self.n_pseudo < 0:
            raise ValueError("n_pseudo must be non-negative")


# ---------------------------------------------------------------------------
# batch scoring


def score_scene_row(
    scene: Scene,
    vocab: Vocabulary,
    kin_cfg: KinematicsConfig | None = None,
    metric_cfg: MetricConfig | None = None,
) -> np.ndarray:
    """EPDMS of every center against one scene (the unit of parallel work);
    one frame change of `vocab.poses` places all K centers at the ego pose.
    A center that cannot be scored, say one placed out of range, raises
    ValueError naming the scene and the center."""
    ctx = ScoreContext(scene, kin_cfg, metric_cfg)
    init = scene.ego_init
    plans = to_world(init.pose, vocab.poses.reshape(-1, 3)).reshape(vocab.poses.shape)
    out = np.empty(vocab.k)
    try:
        for i, plan in enumerate(plans):
            out[i] = aggregate_epdms(evaluate_rollout(pid_track(Trajectory(plan), init, ctx.kin_cfg), ctx))
    except ValueError as exc:
        raise ValueError(f"scene {scene.scene_id!r}, centers[{i}]: {exc}") from None
    return out


def _run_fingerprint(scenes, vocab: Vocabulary, kin_cfg, metric_cfg) -> str:
    """SHA-256 hex digest of everything a score matrix depends on: the scene
    contents in row order, the vocabulary centers and both configs."""
    h = hashlib.sha256()
    for scene in scenes:
        h.update(json.dumps(scene_to_doc(scene), sort_keys=True).encode() + b"\n")
    h.update(repr(vocab.poses.shape).encode())
    h.update(vocab.poses.astype("<f8", copy=False).tobytes())
    h.update(repr(kin_cfg or _DEFAULT_KIN_CFG).encode())
    h.update(repr(metric_cfg or _DEFAULT_METRIC_CFG).encode())
    return h.hexdigest()


class _Checkpoint:
    """Row-granular resume state: the matrix file plus a .done sidecar.

    The sidecar's first line is ``sha256:<fingerprint>`` of the run that
    created the checkpoint; each further line is a completed scene index.
    """

    def __init__(self, path, n_scenes: int, k: int):
        self.path = Path(path)
        self.done_path = self.path.with_name(self.path.name + ".done")
        self.n_scenes = n_scenes
        self.k = k
        self.row_bytes = k * 8

    def load_done(self, fingerprint: str) -> set:
        """The scene indices of the rows an earlier run with the same
        fingerprint completed; their scores stay in the file.  A checkpoint
        of any other run is refused."""
        tag = f"sha256:{fingerprint}\n"
        text = self.done_path.read_text() if self.path.exists() and self.done_path.exists() else ""
        # a torn append leaves a last line without its newline: that row's
        # bytes may be incomplete, so it is not trusted and is cut off before
        # the next append could extend it into another index
        complete = text[: text.rfind("\n") + 1]
        if not complete:  # not even the fingerprint line: nothing was recorded
            with open(self.path, "wb") as f:  # zero rows, without building them in memory
                f.write(_HEADER.pack(_MAGIC, _VERSION, self.n_scenes, self.k))
                f.truncate(_HEADER.size + self.n_scenes * self.row_bytes)
            self.done_path.write_text(tag)
            return set()
        s, k = _read_matrix(self.path).shape
        if s != self.n_scenes or k != self.k:
            raise ValueError(
                f"{self.path}: existing checkpoint does not match this run "
                f"({s}x{k}, expected {self.n_scenes}x{self.k})"
            )
        if not complete.startswith(tag):
            raise ValueError(
                f"{self.path}: existing checkpoint was written for other scenes, vocabulary or "
                f"configs (the first line of {self.done_path.name} is not sha256:{fingerprint})"
            )
        if complete != text:
            self.done_path.write_text(complete)
        done = set()
        for line in complete[len(tag):].split():
            if not (line.isdecimal() and int(line) < s):
                raise ValueError(f"{self.done_path}: {line!r} is not a scene index in [0, {s})")
            done.add(int(line))
        return done

    def write_row(self, idx: int, row: np.ndarray) -> None:
        with open(self.path, "r+b") as f:
            f.seek(_HEADER.size + idx * self.row_bytes)
            f.write(row.astype("<f8").tobytes())
        with open(self.done_path, "a") as f:
            f.write(f"{idx}\n")


def score_vocabulary(
    scenes,
    vocab: Vocabulary,
    checkpoint,
    workers: int = 1,
    kin_cfg: KinematicsConfig | None = None,
    metric_cfg: MetricConfig | None = None,
    progress=None,
) -> ScoreMatrix:
    """Score every (scene, center) pair; bitwise stable across worker counts.

    `checkpoint` names the score-matrix file the run writes each row into as
    it is scored (with a .done sidecar); the matrix returned is the file's
    one read.  Rerun with the same arguments to resume after an interruption.
    A checkpoint written for other scenes, centers or configs raises
    ValueError.  `progress` is an optional callable invoked with
    (scene_index,) as each row scored by this call completes, in row order
    (rows resumed from the checkpoint are not reported).  At most `workers`
    processes, and no more than there are rows to score, score the rows; one
    row or worker is scored in this process.  A bad count raises ValueError
    before the checkpoint is touched.  An exception from a row, a write or
    `progress`, or an interrupt, cancels the rows not yet started and is
    raised once the rows already running end.
    """
    scenes = list(scenes)
    if not scenes:
        raise ValueError("need at least one scene")
    if not isinstance(workers, numbers.Integral) or isinstance(workers, bool):
        raise ValueError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    ckpt = _Checkpoint(checkpoint, len(scenes), vocab.k)
    done = ckpt.load_done(_run_fingerprint(scenes, vocab, kin_cfg, metric_cfg))
    todo = [i for i in range(len(scenes)) if i not in done]
    workers = min(workers, len(todo))
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    args = ([scenes[i] for i in todo], repeat(vocab), repeat(kin_cfg), repeat(metric_cfg))
    try:
        for idx, row in zip(todo, (pool.map if pool else map)(score_scene_row, *args)):
            ckpt.write_row(idx, row)
            if progress:
                progress(idx)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    return ScoreMatrix(scene_ids=tuple(s.scene_id for s in scenes), values=_read_matrix(checkpoint))


# ---------------------------------------------------------------------------
# pseudo-teacher mining


def select_pseudo_teachers(
    row: np.ndarray,
    vocab: Vocabulary,
    cfg: DistillConfig,
    scene_id: str,
) -> PseudoTeacherSet:
    """Rank-and-threshold mining of one scene's score row.

    All centers at or above the threshold are candidates.  When more than
    n_pseudo qualify, n_pseudo are drawn uniformly without replacement from a
    generator seeded by (rng_seed, scene_id); the draw never depends on call
    order.  No candidates gives an empty set (the human term stands alone).
    """
    row = np.asarray(row, dtype=float)
    if row.shape != (vocab.k,):
        raise ValueError(f"row length {row.shape} does not match vocabulary size {vocab.k}")
    candidates = np.flatnonzero(row >= cfg.threshold)
    if len(candidates) > cfg.n_pseudo:
        rng = np.random.default_rng(stable_seed("pseudo-teachers", cfg.rng_seed, scene_id))
        chosen = rng.choice(candidates, size=cfg.n_pseudo, replace=False)
        candidates = np.sort(chosen)
    return PseudoTeacherSet(
        scene_id=scene_id,
        source_indices=tuple(int(i) for i in candidates),
        scores=tuple(float(row[i]) for i in candidates),
    )


# ---------------------------------------------------------------------------
# persistence


def save_score_matrix(matrix: ScoreMatrix, path) -> None:
    with open(path, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, _VERSION, matrix.n_scenes, matrix.vocab_size))
        f.write(matrix.values.astype("<f8").tobytes())


def _read_matrix(path) -> np.ndarray:
    """The (S, K) scores of a score-matrix file whose magic, version and size
    match its header, read once into a read-only array that owns its data;
    anything else raises ValueError naming the file."""
    with open(path, "rb") as f:
        size = Path(path).stat().st_size
        if size < _HEADER.size:
            raise ValueError(f"{path}: truncated score matrix")
        magic, version, s, k = _HEADER.unpack(f.read(_HEADER.size))
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported score-matrix version {version}")
        if size != _HEADER.size + s * k * 8:
            raise ValueError(f"{path}: size {size} does not match header")
        values = np.fromfile(f, dtype="<f8")
    values.shape = (s, k)  # in place: reshape would return a view that does not own the data
    values.setflags(write=False)
    return values


def load_score_matrix(path) -> ScoreMatrix:
    """The matrix of a file written by save_score_matrix; rows are named by
    their index, since the file holds no scene ids."""
    values = _read_matrix(path)
    return ScoreMatrix(scene_ids=tuple(str(i) for i in range(len(values))), values=values)


def save_teacher_sets(teacher_sets, path) -> None:
    """One JSON record per line: {scene_id, indices, scores}."""
    with open(path, "w") as f:
        for ts in teacher_sets:
            f.write(
                json.dumps(
                    {
                        "scene_id": ts.scene_id,
                        "indices": list(ts.source_indices),
                        "scores": list(ts.scores),
                    }
                )
                + "\n"
            )
