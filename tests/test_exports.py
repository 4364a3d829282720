import ast
import importlib
import inspect
import pathlib
import re

import pytest

import crossbar_lowrank
from crossbar_lowrank import core, experiments, lowrank, matrixgen, montecarlo, rng, schemes

REMOVED = ("sample_input", "vmm_exact", "sample_noise", "make_stream", "lane_count",
           "SchemeConfig", "SingularProfile", "spectrum", "DecompositionError",
           "ROLE_BLOCK", "STREAM_SWEEP_MC", "mix64", "MASK64", "_GOLDEN", "child_seed",
           "run_two_step_on", "_checked_once")


def test_every_exported_name_resolves():
    missing = [name for name in crossbar_lowrank.__all__ if not hasattr(crossbar_lowrank, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(crossbar_lowrank.__all__) == len(set(crossbar_lowrank.__all__))


def test_exports_are_the_imported_functions_and_classes():
    public = {name for name, obj in vars(crossbar_lowrank).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == set(crossbar_lowrank.__all__)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_cannot_be_imported(name):
    assert name not in crossbar_lowrank.__all__
    with pytest.raises(ImportError):
        exec(f"from crossbar_lowrank import {name}", {})
    for module in (core, schemes, rng, montecarlo, experiments, matrixgen, lowrank):
        assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_no_module_imports_a_private_name():
    # a module uses another package module through its public names only
    private = []
    for path in sorted(pathlib.Path(crossbar_lowrank.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "crossbar_lowrank"):
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []


def test_one_way_to_build_a_stream():
    # rng alone builds a Generator, and experiments alone imports rng (the
    # package's export list aside): every other module is handed a Generator
    builders, importers = [], []
    for path in sorted(pathlib.Path(crossbar_lowrank.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            named = {getattr(node, field, None) for field in ("attr", "id", "name")}
            if path.name != "rng.py" and named & {"default_rng", "SeedSequence"}:
                builders.append(path.name)
            if isinstance(node, ast.ImportFrom) and (
                    (node.module or "").split(".")[-1] == "rng"
                    or any(alias.name == "rng" for alias in node.names)):
                importers.append(path.name)
    assert builders == []
    assert sorted(set(importers)) == ["__init__.py", "experiments.py"]


def test_each_rule_is_stated_once():
    # the growth law's (0, 1] range and the fit rule each have one owner in
    # analysis; every other refusal of them is that owner's message
    package = pathlib.Path(crossbar_lowrank.__file__).parent
    texts = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert sum(text.count("must lie in (0, 1]") for text in texts.values()) == 1
    assert [name for name, text in texts.items()
            for _ in range(text.count("does not fit the budget"))] == ["analysis.py"]
    fits = inspect.getsource(crossbar_lowrank.analysis._check_fits)
    assert "does not fit the budget" in fits
    assert not any("no rank fits" in text.lower() for text in texts.values())


def test_readme_module_names_resolve():
    # every `module.NAME` the README cites is an attribute of that module
    package = pathlib.Path(crossbar_lowrank.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    readme = (package.parents[1] / "README.md").read_text()
    cited = [(module, name) for module, name in re.findall(r"`(\w+)\.(\w+)`", readme)
             if module in modules]
    assert cited
    missing = [f"{module}.{name}" for module, name in cited
               if not hasattr(importlib.import_module(f"crossbar_lowrank.{module}"), name)]
    assert missing == []


def test_readme_python_blocks_run():
    # every ```python block of the README runs against the current API
    readme = (pathlib.Path(crossbar_lowrank.__file__).parents[2] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert blocks
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), {})
