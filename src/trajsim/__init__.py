"""trajsim: offline trajectory scoring and distillation for driving research.

Simulates candidate ego trajectories against log-replayed scenes, computes
the PDMS/EPDMS rule subscores, clusters a trajectory vocabulary, mines
multimodal pseudo-teacher trajectories, performs momentum-aware selection,
and reports proposal-set diversity.

The top level holds what the library example in the README uses; everything
else is imported from its submodule: ``geom``, ``kinematics``, ``metrics``,
``scene_io``, ``vocabulary``, ``distill``, ``selection`` and ``render``.
"""

from .kinematics import ego_rollout
from .metrics import ScoreContext, aggregate_epdms, evaluate_rollout
from .scene_io import SyntheticSpec, generate_scene, save_scene

__all__ = [
    "SyntheticSpec",
    "generate_scene",
    "save_scene",
    "ScoreContext",
    "evaluate_rollout",
    "aggregate_epdms",
    "ego_rollout",
]

__version__ = "0.1.0"
