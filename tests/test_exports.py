import ast
import inspect
import pathlib

import pytest

import crossbar_lowrank
from crossbar_lowrank import core, experiments, lowrank, matrixgen, montecarlo, rng, schemes

REMOVED = ("sample_input", "vmm_exact", "sample_noise", "make_stream", "lane_count",
           "SchemeConfig", "SingularProfile", "spectrum", "DecompositionError")


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
