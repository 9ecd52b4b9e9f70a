"""Momentum-aware trajectory selection.

Proposal scores arrive from outside (e.g., a learned scorer); this module
recalibrates them with a cross-frame distortion comfort term and picks the
argmax.  Comfort reuses the extended-comfort per-tick test, so there is
exactly one definition of frame-to-frame distortion in the package.  Comfort
is pass/fail and fails at the first tick that breaks a tolerance, so each
proposal's rollout stops there; the scores are those of rolling every
proposal out in full and calling ``score_ec``.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .geom import COORD_LIMIT_M, _coord_error, to_world
from .kinematics import DENSE_TICKS, DenseTrajectory, KinematicsConfig, _pid_ticks
from .metrics import _DEFAULT_METRIC_CFG, MetricConfig, Scene, _ec_breaks

__all__ = ["ProposalSet", "SelectionState", "comfort_scores", "recalibrate", "select"]


@dataclass(frozen=True)
class ProposalSet:
    """Ego-frame candidate trajectories (each a Trajectory, so M >= 2) with
    their external scores in [0, 1], the set's own read-only copy."""

    proposals: tuple
    scores: np.ndarray

    def __post_init__(self):
        scores = np.array(self.scores, dtype=float)
        if len(self.proposals) < 1:
            raise ValueError("need at least one proposal")
        if scores.shape != (len(self.proposals),):
            raise ValueError("scores must align one-to-one with proposals")
        if not np.all((scores >= 0.0) & (scores <= 1.0)):  # also rejects NaN
            raise ValueError("scores must lie in [0, 1]")
        object.__setattr__(self, "scores", scores)
        scores.setflags(write=False)

    def __len__(self):
        return len(self.proposals)


@dataclass(frozen=True)
class SelectionState:
    """What selection remembers between frames: the previous world-frame
    rollout of the selected trajectory, if any, and how many ticks later
    the current frame starts (an integer, at least 1, and below 41 so that
    some tick of the two rollouts overlaps)."""

    previous_selected: DenseTrajectory | None = None
    frame_gap: int = 5

    def __post_init__(self):
        gap = self.frame_gap
        if not isinstance(gap, numbers.Integral) or isinstance(gap, bool):  # it slices the previous rollout
            raise ValueError(f"frame_gap must be an integer, got {gap!r}")
        if not 1 <= gap < DENSE_TICKS:
            raise ValueError(f"frame_gap must be in [1, {DENSE_TICKS}), got {gap}")


def comfort_scores(
    state: SelectionState,
    ps: ProposalSet,
    scene: Scene,
    kin_cfg: KinematicsConfig | None = None,
    metric_cfg: MetricConfig | None = None,
) -> np.ndarray:
    """Binary distortion comfort of each proposal against the previous frame.

    Each proposal is rolled out from the scene's ego state and compared with
    the previously selected rollout under the extended-comfort tolerances.
    Without a previous frame every proposal is comfortable.  Tick 0 is the
    ego state itself, so it is tested once for all proposals; past it, a
    proposal's rollout stops at its first breaking tick.  All proposals are
    placed at the ego pose by one frame change; one placed out of range
    raises ValueError naming ``proposals[i]``.
    """
    if state.previous_selected is None:
        return np.ones(len(ps))
    breaks = _ec_breaks(state.previous_selected, state.frame_gap, metric_cfg or _DEFAULT_METRIC_CFG)
    init = scene.ego_init
    if breaks(0, init.pose.x, init.pose.y, init.pose.psi, init.v):
        return np.zeros(len(ps))
    ends = np.cumsum([len(p) for p in ps.proposals])  # a set may mix waypoint counts
    rows = to_world(init.pose, np.concatenate([p.poses for p in ps.proposals]))
    plans = np.split(rows, ends[:-1])
    if not (np.abs(rows) <= COORD_LIMIT_M).all():  # Trajectory's rule, headings too
        i = next(i for i, plan in enumerate(plans) if not (np.abs(plan) <= COORD_LIMIT_M).all())
        raise _coord_error(f"proposals[{i}]: trajectory waypoints", plans[i])
    compared = DENSE_TICKS - 1 - state.frame_gap  # ticks 1 .. 40 - frame_gap reach the previous rollout
    out = np.ones(len(ps))
    for i, plan in enumerate(plans):
        ticks = itertools.islice(_pid_ticks(plan, init, kin_cfg), compared)
        if any(breaks(k, x, y, psi, v) for k, (x, y, psi, v, _, _) in enumerate(ticks, 1)):
            out[i] = 0.0
    return out


def recalibrate(scores: np.ndarray, comfort: np.ndarray) -> np.ndarray:
    """Blend external scores with comfort: (7*S + S_c) / 8, elementwise."""
    scores = np.asarray(scores, dtype=float)
    comfort = np.asarray(comfort, dtype=float)
    return (7.0 * scores + comfort) / 8.0


def select(
    ps: ProposalSet,
    state: SelectionState,
    scene: Scene,
    kin_cfg: KinematicsConfig | None = None,
    metric_cfg: MetricConfig | None = None,
):
    """Pick the argmax of the recalibrated scores (ties to the lowest index).

    Returns (index, selected trajectory, recalibrated scores).  The caller
    owns the state; thread the winner's rollout into the next frame's
    SelectionState to keep selection momentum-aware.
    """
    comfort = comfort_scores(state, ps, scene, kin_cfg, metric_cfg)
    recal = recalibrate(ps.scores, comfort)
    idx = int(np.argmax(recal))
    return idx, ps.proposals[idx], recal
