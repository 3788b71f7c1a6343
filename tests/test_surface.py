"""The package's public surface is used by the package itself.

A public top-level function or class that no other part of ``src/`` names is
surface nothing needs: delete it, or make it private if only tests reach it.
"""

import ast
import inspect
import re
from collections import Counter
from dataclasses import is_dataclass
from pathlib import Path
from typing import get_type_hints

from depwalk import pipeline
from depwalk.config import PipelineConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "depwalk"


def _names(node) -> list[str]:
    """Every identifier under ``node``: plain names, attributes and imports."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.append(sub.attr)
        elif isinstance(sub, ast.alias):
            found.append(sub.name.rsplit(".", 1)[-1])
    return found


def unused_public_definitions(src: Path = SRC) -> list[str]:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    counts = Counter(name for tree in trees.values() for name in _names(tree))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            # references inside the definition itself (recursion) do not count
            if counts[node.name] == _names(node).count(node.name):
                unused.append(f"{module}: {node.name}")
    return unused


def test_every_public_definition_is_named_elsewhere_in_src():
    assert unused_public_definitions() == []


def test_an_unused_public_function_is_found(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    return used()\n\n"
                                   "def unused():\n    return 1\n\nclass Kept:\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import used\nx = Kept()\n")
    assert unused_public_definitions(tmp_path) == ["a.py: unused"]


def private_imports(src: Path = SRC) -> list[str]:
    """Each ``_``-prefixed name a module imports from a sibling module."""
    return [f"{path.name}: {alias.name}" for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_another_modules_private_name():
    # a name another module needs is part of its owner's surface: make it public
    assert private_imports() == []


def test_a_private_import_is_found(tmp_path):
    (tmp_path / "a.py").write_text("def _hidden():\n    return 1\n\n_SHARED = 2\n")
    (tmp_path / "b.py").write_text("from collections import _chain_from_iterable\n"
                                   "from .a import (\n    _SHARED,\n    _hidden)\n")
    assert private_imports(tmp_path) == ["b.py: _SHARED", "b.py: _hidden"]


def test_the_runtime_dependencies_are_numpy_and_pyyaml():
    # a new runtime dependency is a decision to record, not a side effect
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    listing = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    assert re.findall(r'"([A-Za-z0-9_.-]+)', listing) == ["numpy", "PyYAML"]


def test_stage_functions_name_no_file_and_return_nothing():
    # the stage table is the one list of each stage's files: run_stage passes them
    files = {name for stage in pipeline.STAGES for name in stage.inputs + stage.outputs}
    tree = ast.parse((SRC / "pipeline.py").read_text(encoding="utf-8"))
    found = [(node.name, ast.unparse(sub)) for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name.startswith("stage_")
             for sub in ast.walk(node)
             if isinstance(sub, ast.Constant) and sub.value in files
             or isinstance(sub, ast.Return) and sub.value is not None]
    assert found == []


def test_each_stage_function_takes_its_table_entrys_files_and_options():
    for stage in pipeline.STAGES:
        function = getattr(pipeline, f"stage_{stage.name}")
        files = [name.replace(".", "_") for name in stage.inputs + stage.outputs]
        assert list(inspect.signature(function).parameters) == \
            ["cfg", *files, *(name for name, _ in stage.options)], stage.name


# The size of src/ is tracked like a benchmark: a change that grows it past
# this budget raises the budget in its own diff and says why in CHANGES.md.
SRC_LINE_BUDGET = 3246


def test_src_stays_within_its_line_budget():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.glob("*.py"))
    assert lines <= SRC_LINE_BUDGET


def test_every_config_section_is_declared_in_the_config_module():
    # one module declares every key, default and bound of the config file
    hints = get_type_hints(PipelineConfig)
    modules = {name: hints[name].__module__ for name in hints if name not in ("master_seed", "workdir")}
    assert modules == dict.fromkeys(modules, "depwalk.config")


def test_every_config_key_is_named_in_the_readme():
    # a key the README does not name is one a user cannot find; the sections'
    # rng_seed is derived from master_seed, not a key
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    keys = [f"{name}.{key}" if is_dataclass(hint) else name
            for name, hint in get_type_hints(PipelineConfig).items()
            for key in (get_type_hints(hint) if is_dataclass(hint) else [name]) if key != "rng_seed"]
    assert [key for key in keys if not re.search(rf"\b{key.split('.')[-1]}\b", readme)] == []


def test_only_the_config_module_raises_config_errors():
    raising = [path.name for path in sorted(SRC.glob("*.py")) if path.name != "config.py"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Raise) and "ConfigError" in _names(node)]
    assert raising == []
