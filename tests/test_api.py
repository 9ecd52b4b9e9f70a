"""The public surface: every exported name resolves, and the top level is small."""

import importlib
import pkgutil

import pytest

import trajsim

MODULES = sorted(m.name for m in pkgutil.iter_modules(trajsim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"trajsim.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    exec(f"from trajsim.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_top_level_is_the_library_example():
    assert trajsim.__all__ == [
        "SyntheticSpec",
        "generate_scene",
        "save_scene",
        "ScoreContext",
        "evaluate_rollout",
        "aggregate_epdms",
        "pid_track",
    ]
    assert all(hasattr(trajsim, n) for n in trajsim.__all__)
    namespace = {}
    exec("from trajsim import *", namespace)
    assert {n for n in namespace if not n.startswith("__")} == set(trajsim.__all__)
