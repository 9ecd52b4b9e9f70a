"""Momentum-aware trajectory selection.

Proposal scores arrive from outside (e.g., a learned scorer); this module
recalibrates them with a cross-frame distortion comfort term and picks the
argmax.  Comfort reuses the extended-comfort pass/fail machinery so there is
exactly one definition of frame-to-frame distortion in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import DenseTrajectory, KinematicsConfig, ego_rollout
from .metrics import MetricConfig, Scene, score_ec

__all__ = ["ProposalSet", "SelectionState", "comfort_scores", "recalibrate", "select"]


@dataclass(frozen=True)
class ProposalSet:
    """Ego-frame candidate trajectories with their external scores in [0, 1]."""

    proposals: tuple
    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
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
    rollout of the selected trajectory, if any."""

    previous_selected: DenseTrajectory | None = None
    frame_gap: int = 5

    def __post_init__(self):
        if self.frame_gap < 1:
            raise ValueError("frame_gap must be >= 1")


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
    Without a previous frame every proposal is comfortable.
    """
    if state.previous_selected is None:
        return np.ones(len(ps))
    metric_cfg = metric_cfg or MetricConfig()
    out = np.empty(len(ps))
    for i, proposal in enumerate(ps.proposals):
        rollout = ego_rollout(proposal, scene.ego_init, kin_cfg)
        out[i] = score_ec(rollout, state.previous_selected, state.frame_gap, metric_cfg)
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
