"""The config dataclasses: every field is checked where the config is
built, and each class has one default instance that the library reuses."""

import dataclasses
import math
import re

import numpy as np
import pytest

from trajsim import distill
from trajsim.distill import DistillConfig
from trajsim.kinematics import DENSE_TICKS, DenseTrajectory, KinematicsConfig, pid_track, trajectory_to_world
from trajsim.metrics import MetricConfig, ScoreContext
from trajsim.scene_io import SyntheticSpec, generate_scene
from trajsim.selection import ProposalSet, SelectionState, comfort_scores
from trajsim.vocabulary import Vocabulary

CONFIGS = (MetricConfig, KinematicsConfig, DistillConfig)
FIELDS = {f"{cls.__name__}.{f.name}": (cls, f) for cls in CONFIGS for f in dataclasses.fields(cls)}


def each_field(kind):
    """Parametrize over every config field declared `kind`, by name."""
    names = [name for name, (_, f) in FIELDS.items() if f.type == kind]
    return pytest.mark.parametrize("cls, field", [FIELDS[name] for name in names], ids=names)


def test_every_field_is_a_float_or_an_int():
    # the checks below cover exactly these two kinds of field
    assert {f.type for _, f in FIELDS.values()} == {"float", "int"}


@each_field("float")
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "1.0", None])
def test_float_field_must_be_finite_real(cls, field, value):
    with pytest.raises(ValueError, match=re.escape(f"{field.name} must be a finite real number, got {value!r}")):
        cls(**{field.name: value})


@each_field("float")
def test_float_field_takes_any_real_type(cls, field):
    # the default as an int where it is integral, and as a numpy float
    default = getattr(cls(), field.name)
    for value in (int(default) if float(default).is_integer() else default, np.float64(default)):
        assert getattr(cls(**{field.name: value}), field.name) == default


@each_field("int")
@pytest.mark.parametrize("value", [2.5, np.float64(3.0), True, "3", None])
def test_int_field_must_be_an_integer(cls, field, value):
    with pytest.raises(ValueError, match=re.escape(f"{field.name} must be an integer")):
        cls(**{field.name: value})


@each_field("int")
def test_int_field_takes_a_numpy_integer(cls, field):
    default = getattr(cls(), field.name)
    assert getattr(cls(**{field.name: np.int64(default)}), field.name) == default


@pytest.mark.parametrize("cls, name, value, message", [
    (KinematicsConfig, "wheelbase", 0.0, "wheelbase must be positive"),
    (DistillConfig, "threshold", 0.0, "threshold must be in (0, 1]"),
    (DistillConfig, "threshold", 1.5, "threshold must be in (0, 1]"),
    (DistillConfig, "n_pseudo", -1, "n_pseudo must be non-negative"),
], ids=["wheelbase", "threshold-0", "threshold-1.5", "n_pseudo"])
def test_out_of_range_field_named(cls, name, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(**{name: value})


def test_distill_seed_may_be_negative():
    # the seed is hashed, never handed to numpy as is
    assert DistillConfig(rng_seed=-3).rng_seed == -3


def test_library_reuses_one_default_config_per_class(monkeypatch):
    scene = generate_scene(SyntheticSpec("clean_straight", seed=1))
    init = scene.ego_init
    plan = trajectory_to_world(scene.human_trajectory, init.pose)
    # the previous rollout stands still at the ego state, so tick 0 passes
    # and each proposal is rolled out
    still = DenseTrajectory(*(np.full(DENSE_TICKS, value) for value in (init.pose.x, init.pose.y, init.pose.psi,
                                                                         init.v, 0.0, 0.0)))
    state = SelectionState(previous_selected=still, frame_gap=5)
    ps = ProposalSet((scene.human_trajectory, scene.human_trajectory), [0.5, 0.5])
    vocab = Vocabulary(np.stack([scene.human_trajectory.poses]), seed=0, inertia=0.0)
    built = []
    for cls in (KinematicsConfig, MetricConfig):
        check = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, check=check: built.append(self) or check(self))

    pid_track(plan, init)
    comfort_scores(state, ps, scene)
    ScoreContext(scene)
    distill._run_fingerprint([scene], vocab, None, None)
    assert built == []
    MetricConfig()  # the counter does count a new instance
    assert len(built) == 1
