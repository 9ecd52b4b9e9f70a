"""The public surface: every exported name resolves, and the top level is small."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import trajsim
from trajsim.scene_io import TEMPLATES, scene_to_doc

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


def _indented_json_calls(tree) -> set:
    """The lines of the json.dump and json.dumps calls under `tree` that pass
    indent=."""
    return {
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and any(kw.arg == "indent" for kw in node.keywords)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps")
    }


@pytest.mark.parametrize("name", MODULES)
def test_only_write_json_indents_json(name):
    # every indented JSON document goes through scene_io.write_json, the one
    # atomic writer
    path = Path(trajsim.__file__).parent / f"{name}.py"
    tree = ast.parse(path.read_text())
    found = _indented_json_calls(tree)
    if name == "scene_io":
        [writer] = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "write_json"]
        assert found == _indented_json_calls(writer) and len(found) == 1
    else:
        assert not found


# numpy's transcendental ufuncs, aliases included through the objects they
# name; their float64 loops may round differently at each SIMD level
TRANSCENDENTAL = {
    np.sin, np.cos, np.tan, np.arcsin, np.arccos, np.arctan, np.arctan2, np.sinh, np.cosh, np.tanh,
    np.arcsinh, np.arccosh, np.arctanh, np.exp, np.exp2, np.expm1, np.log, np.log2, np.log10, np.log1p,
    np.logaddexp, np.logaddexp2, np.power, np.float_power, np.cbrt, np.hypot, np.sqrt,
}
# the ones checked to give the same bits with numpy's AVX2 and AVX-512 loops
# (np.hypot's are not libm's, but they are the same at both levels)
SAME_BITS_AT_EVERY_LEVEL = {np.cos, np.sin, np.hypot, np.sqrt}


@pytest.mark.parametrize("name", MODULES)
def test_only_level_independent_transcendentals(name):
    # np.arctan2, np.tan, np.exp and np.log give other bits on AVX-512
    # machines than on AVX2 ones; math's functions are the same on both
    path = Path(trajsim.__file__).parent / f"{name}.py"
    found = [
        f"{path.name}:{node.lineno}: np.{node.attr}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
        and getattr(np, node.attr, None) in TRANSCENDENTAL - SAME_BITS_AT_EVERY_LEVEL
    ]
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


def test_readme_template_table_lists_the_templates_in_order():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    table = text.split("Synthetic templates and their guaranteed properties", 1)[1].split("\n\n", 2)[1]
    names = [line.split("|")[1].strip() for line in table.splitlines()[2:]]
    assert tuple(names) == TEMPLATES
