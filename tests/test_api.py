"""The public surface: every exported name resolves, and the top level is small."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import trajsim
from trajsim.scene_io import scene_to_doc

from scenes import rich_scene

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
        "ego_rollout",
    ]
    assert all(hasattr(trajsim, n) for n in trajsim.__all__)
    namespace = {}
    exec("from trajsim import *", namespace)
    assert {n for n in namespace if not n.startswith("__")} == set(trajsim.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_no_import_inside_a_function(name):
    # every dependency of a module is visible at its top
    path = Path(trajsim.__file__).parent / f"{name}.py"
    tree = ast.parse(path.read_text())
    nested = [
        f"{path.name}:{node.lineno}"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not nested


@pytest.mark.parametrize("name", MODULES)
def test_only_distill_starts_a_pool(name):
    # distill's process pool is the one parallel path: no module imports
    # threading or multiprocessing, and only distill imports concurrent.futures
    path = Path(trajsim.__file__).parent / f"{name}.py"
    banned = ("threading", "multiprocessing") + (() if name == "distill" else ("concurrent.futures",))
    imported = []  # (line, dotted name): each module, and each name a from-import takes
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported += [(node.lineno, node.module)] + [(node.lineno, f"{node.module}.{a.name}") for a in node.names]
    found = {f"{path.name}:{line}" for line, mod in imported
             if any(mod == b or mod.startswith(b + ".") for b in banned)}
    assert not found


def readme_scene_table() -> dict:
    """{field cell: meaning cell} of each row of the README's scene-file table."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("### Scene file", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    return {field.strip(): meaning.strip() for field, meaning in rows}


def test_readme_scene_table_lists_the_keys_a_scene_file_holds():
    doc = scene_to_doc(rich_scene(1))
    table = readme_scene_table()
    # the first name of each backquoted field path: `ego.init` names ego, `agents[]` agents
    assert {name for field in table for name in re.findall(r"`(\w+)", field)} == set(doc)
    # the backquoted plain names of the agents[] row
    assert set(re.findall(r"`(\w+)`", table["`agents[]`"])) == set(doc["agents"][0])
