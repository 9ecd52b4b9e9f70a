#!/usr/bin/env python3
"""trajsim benchmark: distill, replay and vocab workloads.

Run from the root of a source checkout:

    python3 bench/run.py --workload distill --seed 1 --seconds 12 --trace 0

With --trace 0 the run sets the workload up SETUPS times (reporting the median
set-up time); after each set-up it repeats the workload's timed pass, until
the passes have taken --seconds in all, and it reports the end-to-end
metrics.  With --trace 1 it sets up
and runs the traced pass of every workload once, since each workload
exercises different layers, and reports the per-layer metrics.  Either way
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the environment,
each metric with its unit and sample count, and the artifact SHA-256s.

The library is imported from src/ of the checkout, never from an installed
copy; without src/trajsim the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS = 3
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "TRAJSIM_THREADS")


def _parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="ignored by --trace 1, which does fixed work")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def _environment(workers: int) -> dict:
    import numpy

    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "distill_workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def _peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus `workers` times the largest pool child's.

    Pages a forked child shares with this process count in both.  Without a
    pool pass workers=0: RUSAGE_CHILDREN can also hold processes that a
    launcher ran before it exec'd this interpreter.
    """
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + workers * child_kb) / 1024.0


def _percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _run_plain(workload, seed: int, seconds: float, work: Path, pool_workers: int):
    """SETUPS set-ups, each followed by timed passes, until the passes have
    taken `seconds` in all.  The machine's speed drifts over seconds, so the
    passes are spread over the whole run rather than packed at its end."""
    set_up, run_pass, _ = workload
    setup_times, passes = [], []
    for i in range(SETUPS):
        target = work / f"setup{i}"
        target.mkdir()
        t0 = perf_counter()
        inputs = set_up(seed, target)
        setup_times.append(perf_counter() - t0)
        share = seconds * (i + 1) / SETUPS
        while True:
            out = work / f"pass{len(passes)}"
            passes.append(run_pass(inputs, out))
            shutil.rmtree(out)
            if passes[-1].digest != passes[0].digest:
                passes[-1].failed = passes[-1].attempted
                passes[-1].notes.append("artifacts differ from the first pass")
            if sum(p.wall_s for p in passes) >= share:
                break

    units = [s for p in passes for s in p.latencies_s]
    basis = f"{len(units)} samples of one {passes[0].unit}"
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", f"median of {SETUPS} set-ups"),
        "items_per_s": (sum(p.attempted for p in passes) / sum(units), "1/s",
                        f"over {len(passes)} passes"),
        "unit_p50_ms": (1e3 * _percentile(units, 50), "ms", basis),
        "unit_p90_ms": (1e3 * _percentile(units, 90), "ms", basis),
        "peak_rss_mb": (_peak_rss_mb(pool_workers), "MB", "this process plus its pool children"),
    }
    return metrics, passes


def _run_traced(workloads: dict, seed: int, work: Path):
    """The traced pass of every workload, since each calls different layers."""
    metrics, passes = {}, []
    for name, (set_up, _, trace) in workloads.items():
        target = work / name
        (target / "setup").mkdir(parents=True)
        layers, p = trace(set_up(seed, target / "setup"), target)
        for metric, (value, unit) in layers.items():
            metrics[metric] = (value, unit, f"traced {name}")
        p.notes.insert(0, f"{name}:")
        passes.append(p)
        shutil.rmtree(target)
    return metrics, passes


def _exit_on_term(main_pid: int):
    """A SIGTERM handler that unwinds the main process, so that the pool is
    joined and the scratch directory removed; forked workers die as usual."""

    def handler(signum, _frame):
        if os.getpid() != main_pid:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
        sys.exit(128 + signum)

    return handler


def main(argv=None) -> int:
    if not (SRC / "trajsim" / "__init__.py").is_file():
        print(f"bench: no trajsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl  # noqa: E402 - needs src/ on the path first

    args = _parse_args(argv, list(wl.WORKLOADS))
    signal.signal(signal.SIGTERM, _exit_on_term(os.getpid()))
    workers = wl.distill_workers()
    work = WORK / f"{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, passes = _run_traced(wl.WORKLOADS, args.seed, work)
        else:
            pool_workers = workers if args.workload == "distill" else 0  # only distill starts a pool
            metrics, passes = _run_plain(wl.WORKLOADS[args.workload], args.seed, args.seconds, work, pool_workers)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    env = _environment(workers)
    env.update(workload=args.workload, seed=args.seed, trace=args.trace, passes=len(passes))
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, basis) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit:6s} {basis}")
    print(f"{'error_rate':40s} {failed / attempted:>16.6g} {'ratio':6s} {failed} of {attempted} units failed")
    for i, p in enumerate(passes):
        print(f"pass {i}: sha256 {p.digest}")
        for note in p.notes:
            print(f"  {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
