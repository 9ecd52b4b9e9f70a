"""The three benchmark workloads: input set-up, timed passes, checks, traces.

Every workload builds its inputs from the synthetic generator and the
workload seed, then drives the same public library calls the CLI commands
make.  A timed pass returns a `Pass`: the units it attempted, the units that
failed a correctness check, its wall time, per-unit latencies where the
workload has them, and a SHA-256 of its artifacts.  A traced pass times the
calls into each layer's public functions from this file (flat spans: every
traced call is a leaf, so its self time is its duration) and returns the
per-layer metrics.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from trajsim import distill as dist
from trajsim import metrics as met
from trajsim import scene_io, selection, vocabulary as voc
from trajsim.geom import Pose, wrap_angle
from trajsim.kinematics import pid_track, trajectory_to_world
from trajsim.scene_io import TEMPLATES, SyntheticSpec, generate_scene

# Seed layout: scenes of workload seed n use generator seeds n*1000 + i, the
# clustering corpora use CORPUS_SEED0 + n*100000 + j, so the two never meet.
SCENE_STRIDE = 1000
CORPUS_SEED0 = 10_000_000
CORPUS_STRIDE = 100_000

DISTILL_SEEDS_PER_TEMPLATE = 6        # 6 templates x 6 seeds = 36 scenes
DISTILL_CORPUS = 2048                 # human trajectories clustered into K
REPLAY_FRAMES_PER_TEMPLATE = 100      # 6 runs of 100 consecutive seeds
REPLAY_PROPOSALS = 16
FRAME_GAP = 5
MAX_WORKERS = 2
VOCAB_N = 12_000
VOCAB_K = 1024
# At N=12000, K=1024 the Lloyd loop reaches its fixed point after 15 to 31
# iterations depending on the seed, so uncapped passes would differ up to 2x
# in work from seed to seed.  The cap gives every seed k-means++ seeding plus
# the same number of Lloyd passes.
VOCAB_MAX_ITERS = 10
THRESHOLD = 0.95

# A sampled cell re-scored through the scalar public path must agree with the
# matrix to this absolute EPDMS tolerance; at this commit it agrees bitwise.
RESCORE_SAMPLES = 32
RESCORE_TOL = 1e-9
# Relative slack on "inertia never increases", for float rounding only.
INERTIA_RTOL = 1e-12
# Per-eval layer times must add up to within this share of a row's time / K.
LAYER_SUM_TOL = 0.15

SUBSCORES = ("nc", "dac", "ddc", "tlc", "ep", "ttc", "lk", "hc")
_SCORERS = {name: (f"metrics.score_{name}", getattr(met, f"score_{name}")) for name in SUBSCORES}


@dataclass
class Pass:
    attempted: int
    failed: int
    wall_s: float
    latencies_s: list = field(default_factory=list)
    digest: str = ""
    notes: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    unit: str = "timed pass"      # what one latency sample times


class Tracer:
    """Call counts and busy seconds per span name, kept in memory."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}

    def call(self, name, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self.busy[name] = self.busy.get(name, 0.0) + perf_counter() - t0
        self.calls[name] = self.calls.get(name, 0) + 1
        return out

    def us(self, name) -> float:
        return 1e6 * self.busy[name] / self.calls[name]


def _untraced(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _sha256(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _human_corpus(seed: int, n: int) -> voc.TrajectoryCorpus:
    base = CORPUS_SEED0 + seed * CORPUS_STRIDE
    return voc.TrajectoryCorpus(
        generate_scene(SyntheticSpec(TEMPLATES[j % len(TEMPLATES)], seed=base + j // len(TEMPLATES))).human_trajectory
        for j in range(n)
    )


def _write_scenes(seed: int, per_template: int, directory: Path) -> list:
    """Generate and save per_template consecutive seeds of every template."""
    directory.mkdir(parents=True)
    paths = []
    for template in TEMPLATES:
        for i in range(per_template):
            scene = generate_scene(SyntheticSpec(template, seed=seed * SCENE_STRIDE + i))
            path = directory / f"{scene.scene_id}.json"
            scene_io.save_scene(scene, path)
            paths.append(path)
    return paths


def _desk_vocabulary(seed: int, work: Path) -> voc.Vocabulary:
    """The K=256 vocabulary, clustered, written and read back as the CLI does."""
    vocab = voc.kmeans(_human_corpus(seed, DISTILL_CORPUS), k=voc.DESK_SCALE_K, seed=seed, workers=1)
    voc.save_vocabulary(vocab, work / "vocab.bin")
    return voc.load_vocabulary(work / "vocab.bin")


# ---------------------------------------------------------------------------
# distill: every scene scored against the K=256 vocabulary, then mined


def distill_workers() -> int:
    """The pool size, passed explicitly so that TRAJSIM_THREADS cannot change it."""
    return min(MAX_WORKERS, len(os.sched_getaffinity(0)))


@dataclass
class DistillInputs:
    scenes: list
    vocab: voc.Vocabulary
    cfg: dist.DistillConfig
    seed: int


def setup_distill(seed: int, work: Path) -> DistillInputs:
    paths = _write_scenes(seed, DISTILL_SEEDS_PER_TEMPLATE, work / "scenes")
    vocab = _desk_vocabulary(seed, work)
    scenes = [scene_io.load_scene(p) for p in sorted(paths)]
    return DistillInputs(scenes, vocab, dist.DistillConfig(threshold=THRESHOLD, rng_seed=seed), seed)


def _mine_and_write(inp: DistillInputs, matrix, out: Path, tr: Tracer | None = None):
    call = tr.call if tr else _untraced
    teachers = [
        call("distill.select_pseudo_teachers", dist.select_pseudo_teachers,
             matrix.values[i], inp.vocab, inp.cfg, matrix.scene_ids[i])
        for i in range(matrix.n_scenes)
    ]
    call("distill.save_score_matrix", dist.save_score_matrix, matrix, out / "matrix.bin")
    call("distill.save_teacher_sets", dist.save_teacher_sets, teachers, out / "teachers.jsonl")
    return teachers


def _scalar_epdms(scene, center) -> float:
    ctx = met.ScoreContext(scene)
    rollout = pid_track(trajectory_to_world(center, scene.ego_init.pose), scene.ego_init, ctx.kin_cfg)
    return met.aggregate_epdms(met.evaluate_rollout(rollout, ctx))


def _check_distill(inp: DistillInputs, matrix, teachers, rows_done: list) -> tuple[int, list]:
    """Failed evals of one distill pass, and a note per failed check."""
    s, k = matrix.values.shape
    notes = []
    if sorted(rows_done) != list(range(s)):
        # a resumed row was not scored in this pass, so the pass measured nothing
        notes.append(f"progress fired for {len(rows_done)} of {s} rows")
        return s * k, notes
    v = matrix.values
    bad = ~np.isfinite(v) | (v < 0.0) | (v > 1.0)
    for i, ts in enumerate(teachers):
        for j, score in zip(ts.source_indices, ts.scores):
            if not (v[i, j] >= inp.cfg.threshold and score == v[i, j]):
                bad[i, j] = True
    rng = np.random.default_rng([inp.seed, 1])
    for flat in rng.choice(s * k, size=min(RESCORE_SAMPLES, s * k), replace=False):
        i, j = divmod(int(flat), k)
        if abs(_scalar_epdms(inp.scenes[i], inp.vocab.centers[j]) - v[i, j]) > RESCORE_TOL:
            bad[i, j] = True
    if bad.any():
        notes.append(f"{int(bad.sum())} matrix cells failed range, teacher or re-score checks")
    return int(bad.sum()), notes


def distill_pass(inp: DistillInputs, out: Path) -> Pass:
    out.mkdir(parents=True)
    rows_done = []
    t0 = perf_counter()
    matrix = dist.score_vocabulary(
        inp.scenes, inp.vocab, workers=distill_workers(), checkpoint=out / "matrix.ckpt", progress=rows_done.append
    )
    teachers = _mine_and_write(inp, matrix, out)
    wall = perf_counter() - t0
    failed, notes = _check_distill(inp, matrix, teachers, rows_done)
    return Pass(matrix.values.size, failed, wall, [wall],
                _sha256(out / "matrix.bin", out / "teachers.jsonl"), notes)


def _piecewise_row(scene, vocab, tr: Tracer):
    """score_scene_row, one layer call at a time; returns the row and gate zeros."""
    ctx = tr.call("metrics.ScoreContext", _forced_context, scene)
    row = np.empty(vocab.k)
    gate_zero = 0
    for i, center in enumerate(vocab.centers):
        plan = tr.call("kinematics.trajectory_to_world", trajectory_to_world, center, scene.ego_init.pose)
        rollout = tr.call("kinematics.pid_track", pid_track, plan, scene.ego_init, ctx.kin_cfg)
        sub = {name: tr.call(span, fn, rollout, ctx) for name, (span, fn) in _SCORERS.items()}
        scores = met.SubScores(**sub, ec=met.score_ec(rollout, None, FRAME_GAP, ctx.metric_cfg), c=sub["hc"])
        row[i] = met.aggregate_epdms(scores)
        gate_zero += scores.nc * scores.dac * scores.ddc * scores.tlc == 0.0
    return row, gate_zero


def _forced_context(scene):
    ctx = met.ScoreContext(scene)
    ctx.reference  # noqa: B018 - the lazy reference rollout is part of the set-up cost
    ctx.ref_progress  # noqa: B018
    return ctx


def distill_trace(inp: DistillInputs, out: Path) -> tuple[dict, Pass]:
    """End-to-end pass, then per scene its single-process row followed by the
    same row recomputed one traced layer call at a time (paired per scene so
    that drift in machine speed hits both alike)."""
    e2e = distill_pass(inp, out / "e2e")
    end_to_end = dist.load_score_matrix(out / "e2e" / "matrix.bin").values

    tr = Tracer()
    gate_zero = 0
    rows, row_s, traced_s = [], [], 0.0
    for scene in inp.scenes:
        t0 = perf_counter()
        dist.score_scene_row(scene, inp.vocab)
        t1 = perf_counter()
        row, zeros = _piecewise_row(scene, inp.vocab, tr)
        traced_s += perf_counter() - t1
        row_s.append(t1 - t0)
        rows.append(row)
        gate_zero += zeros
    matrix = dist.ScoreMatrix(tuple(s.scene_id for s in inp.scenes), np.stack(rows))
    (out / "traced").mkdir()
    _mine_and_write(inp, matrix, out / "traced", tr)

    k, evals = inp.vocab.k, matrix.values.size
    per_eval = ["kinematics.trajectory_to_world", "kinematics.pid_track"] + [span for span, _ in _SCORERS.values()]
    layer_sum_us = sum(tr.us(name) for name in per_eval)
    row_us = 1e6 * float(np.mean(row_s))
    notes = list(e2e.notes)
    failed = e2e.failed
    if not np.array_equal(matrix.values, end_to_end):
        notes.append("piecewise recomputation differs from the end-to-end matrix")
        failed = evals
    if abs(layer_sum_us - row_us / k) > LAYER_SUM_TOL * row_us / k:
        notes.append("per-eval layer times do not add up to the row time")
        failed = max(failed, 1)
    notes.append(f"per-eval layer sum {layer_sum_us:.1f} us vs score_scene_row / K {row_us / k:.1f} us")

    layers = {f"{name}.us": (tr.us(name), "us") for name in per_eval}
    layers.update({
        "metrics.gate_zero_frac": (gate_zero / evals, "ratio"),
        "distill.score_scene_row.us": (row_us, "us"),
        "distill.parallel_efficiency": (sum(row_s) / (distill_workers() * e2e.wall_s), "ratio"),
        "distill.select_pseudo_teachers.us": (tr.us("distill.select_pseudo_teachers"), "us"),
        "distill.save_score_matrix.us": (tr.us("distill.save_score_matrix"), "us"),
        "distill.save_teacher_sets.us": (tr.us("distill.save_teacher_sets"), "us"),
        "distill.evals": (evals, "count"),
        "distill.teacher_candidate_frac": (int(np.count_nonzero(end_to_end >= THRESHOLD)) / evals, "ratio"),
        "trace.overhead_frac.distill": (traced_s / sum(row_s) - 1.0, "ratio"),
    })
    return layers, Pass(e2e.attempted, failed, e2e.wall_s, digest=e2e.digest, notes=notes)


# ---------------------------------------------------------------------------
# replay: one client, frame after frame, scoring the human plan and selecting


# The template guarantees of the human plan (see trajsim.scene_io).
GUARANTEES = {
    "clean_straight": lambda sub: met.aggregate_epdms(sub) >= 0.95,
    "parked_agent": lambda sub: sub.nc == 1.0,
    "crossing_agent": lambda sub: sub.nc == 1.0,
    "red_light": lambda sub: sub.tlc == 1.0,
    "oncoming_lane": lambda sub: sub.ddc < 1.0,
    "lane_drift": lambda sub: sub.lk == 0.0,
}


@dataclass
class ReplayInputs:
    runs: list          # per template: [(template, scene path, proposals, scores)]
    bytes_per_pass: int


def _placed_after(scene, pose: Pose):
    """The scene rigidly moved so that its ego starts at `pose`."""
    e = scene.ego_init.pose
    c, s = math.cos(e.psi), math.sin(e.psi)
    ix, iy = -(c * e.x + s * e.y), s * e.x - c * e.y      # inverse of the ego pose
    c, s = math.cos(pose.psi), math.sin(pose.psi)
    frame = Pose(pose.x + c * ix - s * iy, pose.y + s * ix + c * iy, wrap_angle(pose.psi - e.psi))
    return scene_io.transform_scene(scene, frame)


def _write_drives(seed: int, directory: Path) -> list:
    """One drive per template: REPLAY_FRAMES_PER_TEMPLATE consecutive seeds,
    each scene placed where the previous frame's human rollout is FRAME_GAP
    ticks in, so that frame-to-frame comfort compares nearby plans."""
    directory.mkdir(parents=True)
    paths = []
    for template in TEMPLATES:
        pose = None
        for i in range(REPLAY_FRAMES_PER_TEMPLATE):
            scene = generate_scene(SyntheticSpec(template, seed=seed * SCENE_STRIDE + i))
            if pose is not None:
                scene = _placed_after(scene, pose)
            path = directory / f"{scene.scene_id}.json"
            scene_io.save_scene(scene, path)
            paths.append(path)
            plan = trajectory_to_world(scene.human_trajectory, scene.ego_init.pose)
            pose = pid_track(plan, scene.ego_init).state(FRAME_GAP).pose
    return paths


def setup_replay(seed: int, work: Path) -> ReplayInputs:
    paths = _write_drives(seed, work / "scenes")
    vocab = _desk_vocabulary(seed, work)
    rng = np.random.default_rng([seed, 2])
    runs = []
    for t, template in enumerate(TEMPLATES):
        frames = []
        for path in paths[t * REPLAY_FRAMES_PER_TEMPLATE:(t + 1) * REPLAY_FRAMES_PER_TEMPLATE]:
            picks = rng.choice(vocab.k, size=REPLAY_PROPOSALS, replace=False)
            scores = rng.uniform(0.0, 1.0, size=REPLAY_PROPOSALS)
            frames.append((template, path, tuple(vocab.centers[i] for i in picks), scores))
        runs.append(frames)
    return ReplayInputs(runs, sum(p.stat().st_size for p in paths))


def replay_pass(inp: ReplayInputs, out: Path, tr: Tracer | None = None) -> Pass:
    """Closed loop over every frame; the checks run outside the frame timings."""
    call = tr.call if tr else _untraced
    out.mkdir(parents=True)
    latencies, lines, notes = [], [], []
    failed = passed_comfort = judged_comfort = 0
    t_pass = perf_counter()
    for frames in inp.runs:
        state = selection.SelectionState(previous_selected=None, frame_gap=FRAME_GAP)
        for template, path, proposals, scores in frames:
            t0 = perf_counter()
            scene = call("scene_io.load_scene", scene_io.load_scene, path)
            ctx = call("metrics.ScoreContext", _forced_context, scene) if tr else met.ScoreContext(scene)
            plan = call("kinematics.trajectory_to_world", trajectory_to_world, scene.human_trajectory, scene.ego_init.pose)
            rollout = call("kinematics.pid_track", pid_track, plan, scene.ego_init, ctx.kin_cfg)
            sub = call("metrics.evaluate_rollout", met.evaluate_rollout, rollout, ctx)
            met.aggregate_epdms(sub)
            ps = selection.ProposalSet(proposals, scores)
            idx, winner, recal = call("selection.select", selection.select, ps, state, scene)
            plan = call("kinematics.trajectory_to_world", trajectory_to_world, winner, scene.ego_init.pose)
            winner_rollout = call("kinematics.pid_track", pid_track, plan, scene.ego_init)
            latencies.append(perf_counter() - t0)

            lines.append(f"{scene.scene_id}\t{idx}\t{recal[idx]:.6f}")
            comfort = call("selection.comfort_scores", selection.comfort_scores, state, ps, scene)
            if state.previous_selected is not None:
                judged_comfort += len(comfort)
                passed_comfort += int(comfort.sum())
            ok = GUARANTEES[template](sub) and idx == int(np.argmax(selection.recalibrate(ps.scores, comfort)))
            if not ok:
                failed += 1
                notes.append(f"frame {scene.scene_id}: template guarantee or argmax check failed")
            state = selection.SelectionState(previous_selected=winner_rollout, frame_gap=FRAME_GAP)
    wall = perf_counter() - t_pass
    (out / "selected.tsv").write_text("\n".join(lines) + "\n")
    return Pass(len(latencies), failed, wall, latencies, _sha256(out / "selected.tsv"), notes,
                {"comfort_pass_frac": passed_comfort / judged_comfort}, unit="frame")


def replay_trace(inp: ReplayInputs, out: Path) -> tuple[dict, Pass]:
    """A traced pass between two untraced ones, whose mean frame time is the base."""
    before = replay_pass(inp, out / "before")
    tr = Tracer()
    traced = replay_pass(inp, out / "traced", tr)
    after = replay_pass(inp, out / "after")
    names = ["metrics.ScoreContext", "metrics.evaluate_rollout", "scene_io.load_scene",
             "selection.comfort_scores", "selection.select"]
    untraced_s = (sum(before.latencies_s) + sum(after.latencies_s)) / 2
    layers = {f"{name}.us": (tr.us(name), "us") for name in names}
    layers.update({
        "scene_io.bytes_read": (inp.bytes_per_pass, "bytes"),
        "selection.comfort_pass_frac": (traced.counts["comfort_pass_frac"], "ratio"),
        "trace.overhead_frac.replay": (sum(traced.latencies_s) / untraced_s - 1.0, "ratio"),
    })
    return layers, _merged(before, traced, after)


def _merged(first: Pass, *others: Pass) -> Pass:
    """The first pass, failed wholesale if another pass's artifacts differ."""
    notes = first.notes + [n for p in others for n in p.notes]
    failed = max(p.failed for p in (first, *others))
    if any(p.digest != first.digest for p in others):
        notes.append("a traced or repeated pass changed the artifacts")
        failed = first.attempted
    return Pass(first.attempted, failed, first.wall_s, first.latencies_s, first.digest, notes, unit=first.unit)


# ---------------------------------------------------------------------------
# vocab: k-means on an in-memory corpus, then the vocabulary file round trip


@dataclass
class VocabInputs:
    corpus: voc.TrajectoryCorpus
    seed: int


def setup_vocab(seed: int, work: Path) -> VocabInputs:
    return VocabInputs(_human_corpus(seed, VOCAB_N), seed)


def vocab_pass(inp: VocabInputs, out: Path, tr: Tracer | None = None) -> Pass:
    call = tr.call if tr else _untraced
    out.mkdir(parents=True)
    t0 = perf_counter()
    vocab = call("vocabulary.kmeans", voc.kmeans, inp.corpus, k=VOCAB_K, max_iters=VOCAB_MAX_ITERS,
                 seed=inp.seed, workers=1)
    call("vocabulary.save_vocabulary", voc.save_vocabulary, vocab, out / "vocab.bin")
    call("vocabulary.export_vocabulary_csv", voc.export_vocabulary_csv, vocab, out / "vocab.csv")
    back = call("vocabulary.load_vocabulary", voc.load_vocabulary, out / "vocab.bin")
    wall = perf_counter() - t0

    notes = []
    h = vocab.inertia_history
    if any(b > a * (1.0 + INERTIA_RTOL) for a, b in zip(h, h[1:])):
        notes.append("k-means inertia increased between iterations")
    if back.k != vocab.k or any(not np.array_equal(a.poses, b.poses) for a, b in zip(vocab.centers, back.centers)):
        notes.append("vocabulary save/load round trip changed the centers")
    return Pass(inp.corpus.count, inp.corpus.count if notes else 0, wall, [wall],
                _sha256(out / "vocab.bin", out / "vocab.csv"), notes, {"iterations": len(h)})


def vocab_trace(inp: VocabInputs, out: Path) -> tuple[dict, Pass]:
    plain = vocab_pass(inp, out / "plain")
    tr = Tracer()
    traced = vocab_pass(inp, out / "traced", tr)
    t0 = perf_counter()
    voc.kmeans(inp.corpus, k=VOCAB_K, max_iters=1, seed=inp.seed, workers=1)
    first_iter_s = perf_counter() - t0
    kmeans_s = tr.busy["vocabulary.kmeans"]
    iterations = traced.counts["iterations"]
    layers = {
        "vocabulary.kmeans.s": (kmeans_s, "s"),
        "vocabulary.kmeans.iterations": (iterations, "count"),
        "vocabulary.kmeans.first_iter_s": (first_iter_s, "s"),
        "vocabulary.kmeans.s_per_iter": ((kmeans_s - first_iter_s) / max(1, iterations - 1), "s"),
    }
    for name in ("save_vocabulary", "export_vocabulary_csv", "load_vocabulary"):
        layers[f"vocabulary.{name}.us"] = (tr.us(f"vocabulary.{name}"), "us")
    layers["trace.overhead_frac.vocab"] = (traced.wall_s / plain.wall_s - 1.0, "ratio")
    return layers, _merged(plain, traced)


# name: (set up inputs from (seed, work dir), timed pass, traced pass)
WORKLOADS = {
    "distill": (setup_distill, distill_pass, distill_trace),
    "replay": (setup_replay, replay_pass, replay_trace),
    "vocab": (setup_vocab, vocab_pass, vocab_trace),
}
