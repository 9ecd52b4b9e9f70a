"""Command-line surface tying the pipeline together.

Commands are thin orchestration over the library modules; every run is
deterministic given its inputs and explicit seeds, and all primary output
files are byte-identical across reruns.  Timing/throughput numbers are
printed (and optionally written via --report) but kept out of the
deterministic artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import distill as distill_mod
from . import scene_io, selection, vocabulary
from .kinematics import ego_rollout
from .metrics import ScoreContext, aggregate_epdms, aggregate_pdms, evaluate_rollout
from .metrics import diversity as diversity_metric
from .render import render_scene_svg

__all__ = ["main"]


def _write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def cmd_score(args) -> int:
    scenes = scene_io.load_scene_dir(args.scenes)
    traj_map = None
    if args.traj != "human":
        traj_map = scene_io.load_trajectory_map(args.traj)

    aggregate = aggregate_pdms if args.v1 else aggregate_epdms
    metric_name = "pdms" if args.v1 else "epdms"
    rows = []
    scores = []
    t0 = time.perf_counter()
    for scene in scenes:
        ctx = ScoreContext(scene)
        if traj_map is None:
            plan = scene.human_trajectory
        else:
            plan = traj_map.get(scene.scene_id) or traj_map.get("*")
            if plan is None:
                raise ValueError(f"no trajectory for scene {scene.scene_id!r} (and no '*' default)")
        sub = evaluate_rollout(ego_rollout(plan, scene.ego_init, ctx.kin_cfg), ctx)
        score = aggregate(sub)
        scores.append(score)
        rows.append({"scene_id": scene.scene_id, "subscores": sub.as_dict(), metric_name: score})
    elapsed = time.perf_counter() - t0

    report = {
        "schema_version": 1,
        "metric": metric_name,
        "n_scenes": len(rows),
        "scenes": rows,
        f"mean_{metric_name}": sum(scores) / len(scores),
    }
    _write_json(args.out, report)
    print(
        f"scored {len(rows)} scenes in {elapsed:.2f} s "
        f"({len(rows) / elapsed:.1f} scenes/s); mean {metric_name} = {report[f'mean_{metric_name}']:.4f}"
    )
    return 0


def cmd_build_vocab(args) -> int:
    corpus = vocabulary.TrajectoryCorpus(s.human_trajectory for s in scene_io.load_scene_dir(args.scenes))
    vocab = vocabulary.kmeans(corpus, k=args.k, max_iters=args.max_iters, seed=args.seed, workers=args.workers)
    vocabulary.save_vocabulary(vocab, args.out)
    if args.csv:
        vocabulary.export_vocabulary_csv(vocab, args.csv)
    print(f"vocabulary: k={vocab.k} from {corpus.count} trajectories, inertia {vocab.inertia:.3f} -> {args.out}")
    return 0


def cmd_distill(args) -> int:
    scenes = scene_io.load_scene_dir(args.scenes)
    vocab = vocabulary.load_vocabulary(args.vocab)
    cfg = distill_mod.DistillConfig(threshold=args.threshold, n_pseudo=args.n_pseudo, rng_seed=args.seed)

    t0 = time.perf_counter()
    matrix = distill_mod.score_vocabulary(scenes, vocab, workers=args.workers, checkpoint=args.out)
    elapsed = time.perf_counter() - t0
    evals = matrix.n_scenes * matrix.vocab_size
    workers = distill_mod.resolve_workers(args.workers)

    teacher_sets = [
        distill_mod.select_pseudo_teachers(matrix.values[i], vocab, cfg, matrix.scene_ids[i])
        for i in range(matrix.n_scenes)
    ]
    distill_mod.save_teacher_sets(teacher_sets, args.teachers)

    per_s = evals / elapsed if elapsed > 0 else float("inf")
    print(
        f"scored {matrix.n_scenes} scenes x {matrix.vocab_size} centers "
        f"({evals} evals) in {elapsed:.1f} s: {per_s:.0f} evals/s total, "
        f"{per_s / workers:.0f} per worker ({workers} workers)"
    )
    print(f"teachers: {sum(len(t) for t in teacher_sets)} selected across {len(teacher_sets)} scenes")
    if args.report:
        _write_json(
            args.report,
            {
                "schema_version": 1,
                "n_scenes": matrix.n_scenes,
                "vocab_size": matrix.vocab_size,
                "workers": workers,
                "wall_clock_s": elapsed,
                "evals_per_s": per_s,
                "evals_per_s_per_worker": per_s / workers,
            },
        )
    return 0


def cmd_select(args) -> int:
    scenes = {s.scene_id: s for s in scene_io.load_scene_dir(args.scenes)}
    frames = scene_io.load_proposal_frames(args.proposals)
    score_map = scene_io.load_score_frames(args.scores)

    state = selection.SelectionState(previous_selected=None, frame_gap=args.frame_gap)
    lines = []
    for scene_id, proposals in frames:
        if scene_id not in scenes:
            raise ValueError(f"frame references unknown scene {scene_id!r}")
        if scene_id not in score_map:
            raise ValueError(f"no scores for scene {scene_id!r}")
        scene = scenes[scene_id]
        ps = selection.ProposalSet(tuple(proposals), score_map[scene_id])
        idx, winner, recal = selection.select(ps, state, scene)
        lines.append(f"{scene_id}\t{idx}\t{recal[idx]:.6f}")
        state = selection.SelectionState(previous_selected=ego_rollout(winner, scene.ego_init),
                                         frame_gap=args.frame_gap)
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"selected over {len(lines)} frames -> {args.out}")
    return 0


def cmd_diversity(args) -> int:
    proposals = scene_io.load_proposal_set(args.proposals)
    d = diversity_metric(proposals)
    print(f"{d:.6f}")
    return 0


def cmd_render(args) -> int:
    scene = scene_io.load_scene(args.scene)
    trajs = scene_io.load_proposal_set(args.trajs)
    render_scene_svg(scene, trajs, args.out)
    print(f"rendered {len(trajs)} trajectories -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trajsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score a trajectory per scene and write a report")
    p.add_argument("--scenes", required=True, help="directory of scene .json files")
    p.add_argument("--traj", default="human", help="'human' or a trajectory-map file")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--v1", action="store_true", help="report PDMS instead of EPDMS")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("build-vocab", help="cluster a trajectory vocabulary")
    p.add_argument("--scenes", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="vocabulary binary path")
    p.add_argument("--csv", default=None, help="optional CSV export path")
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("distill", help="batch-score the vocabulary and mine pseudo-teachers")
    p.add_argument("--scenes", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--threshold", type=float, default=0.95)
    p.add_argument("--n-pseudo", type=int, default=4)
    p.add_argument("--workers", type=int, default=None, help="default: TRAJSIM_THREADS or 1")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="score-matrix binary (doubles as checkpoint)")
    p.add_argument("--teachers", required=True, help="pseudo-teacher JSONL output")
    p.add_argument("--report", default=None, help="optional throughput report JSON")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("select", help="momentum-aware selection over a frame sequence")
    p.add_argument("--scenes", required=True)
    p.add_argument("--proposals", required=True, help="per-frame proposal file")
    p.add_argument("--scores", required=True, help="per-frame external score file")
    p.add_argument("--out", required=True, help="selection output (tsv)")
    p.add_argument("--frame-gap", type=int, default=5)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("diversity", help="print the proposal-set diversity D")
    p.add_argument("--proposals", required=True, help="proposal-set file")
    p.set_defaults(func=cmd_diversity)

    p = sub.add_parser("render", help="BEV SVG plot of a scene and trajectories")
    p.add_argument("--scene", required=True)
    p.add_argument("--trajs", required=True, help="proposal-set file (ego frame)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
