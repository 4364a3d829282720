import ast
import importlib
import inspect
import pathlib
import re

import pytest

import crossbar_lowrank

PACKAGE = pathlib.Path(crossbar_lowrank.__file__).parent
MODULES = [path.stem for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]

REMOVED = ("sample_input", "vmm_exact", "sample_noise", "make_stream", "lane_count",
           "SchemeConfig", "SingularProfile", "spectrum", "DecompositionError",
           "ROLE_BLOCK", "STREAM_SWEEP_MC", "mix64", "MASK64", "_GOLDEN", "child_seed",
           "run_two_step_on", "_checked_once", "truncate", "truncation_error_sq",
           "harmonic_trace", "tail_bound", "_check_finite", "dumps_matrix", "loads_matrix",
           "prescribed_matrix", "conductance_map", "roundoff_floor", "_check_lam",
           "_check_variances", "_finite_positive")

# the exports that no other package module uses, each with why it stays
UNREACHED_ALLOWED = {
    "ErrorBreakdown": "the return type of the closed form and the optimizers",
    "MagnitudeCheck": "the return type of magnitude_check",
    "TrialBatchResult": "the return type of the MC trial functions",
    "asymptotic_bound": "the paper's asymptotic bound, which each scaling row lies under",
    "fit_loglog_slope": "scaling's slope fit, for refitting a scaling CSV",
    "harmonic_matrix": "perfbench's worker builds its targets with it",
    "optimize_rank": "perfbench's worker calls it",
    "random_orthogonal": "the random orthogonal factors every target is drawn from",
    "svd": "the paper's first step on a general matrix; perfbench's worker calls it",
    "two_step_error_analytic": "the paper's general expression for the two-step error",
}


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
    for module in MODULES:
        assert not hasattr(importlib.import_module(f"crossbar_lowrank.{module}"), name), \
            f"{module}.{name}"


def _names_used(path):
    """Every name a module's code refers to: bare, as an attribute, or imported."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_export_is_used_by_another_module_or_allowed():
    # an export that only its own module (and the export list) names is
    # public API no command reaches: it goes, or the allow-list says why not
    used = {module: _names_used(PACKAGE / f"{module}.py") for module in MODULES}
    unreached = set()
    for name in crossbar_lowrank.__all__:
        home = getattr(crossbar_lowrank, name).__module__.rsplit(".", 1)[1]
        if not any(name in names for module, names in used.items() if module != home):
            unreached.add(name)
    assert sorted(unreached) == sorted(UNREACHED_ALLOWED)


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


# what the benchmark's worker (perfbench/worker.py) reaches of each package module
WORKER_REACHES = {
    "experiments": {"load_config", "run_mc", "run_sweep", "mc_csv", "sweep_csv",
                    "STREAM_MATRIX"},
    "matrixgen": {"harmonic_matrix"},
    "lowrank": {"svd"},
    "rng": {"child_stream"},
    "analysis": {"optimize_rank", "optimize_repetitions"},
    "cli": {"main"},
}


def test_every_name_the_benchmark_worker_reaches_resolves():
    # the worker imports package modules and uses their attributes; a rename
    # that would stop the benchmark fails here first
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "worker.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "crossbar_lowrank"
               for alias in node.names}
    reached = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reached.setdefault(modules[node.value.id], set()).add(node.attr)
    missing = [f"{module}.{name}" for module, names in sorted(reached.items())
               for name in sorted(names)
               if not hasattr(importlib.import_module(f"crossbar_lowrank.{module}"), name)]
    assert missing == []
    assert reached == WORKER_REACHES


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
    # the repetition-count rule has one owner in schemes
    assert sum(text.count("repetition counts must be >= 1") for text in texts.values()) == 1
    repetitions = inspect.getsource(crossbar_lowrank.schemes.check_repetitions)
    assert "repetition counts must be >= 1" in repetitions


# each input rule's refusal, as its raise statement writes it, and the one
# function in core that raises it; as_matrix and the matrix file header
# refuse an empty matrix with messages of their own, which name its shape
INPUT_RULES = {
    "must be finite and positive, got": "core.check_positive",
    "must be finite and nonnegative, got": "core.check_nonnegative",
    "dimensions must be positive, got {m}x{n}": "core.check_dims",
    "unsupported distribution": "core.check_dist",
}


@pytest.mark.parametrize("text", INPUT_RULES)
def test_each_input_rule_is_raised_by_one_owner(text):
    def raises(node):
        return isinstance(node, ast.Raise) and text in ast.unparse(node)
    assert _sites(raises) == [INPUT_RULES[text]]


def test_check_spectrum_has_one_path():
    # its three checks run on every call: there is no early return
    source = inspect.getsource(crossbar_lowrank.matrixgen.check_spectrum)
    returns = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Return)]
    assert len(returns) == 1


def test_no_module_imports_a_name_it_never_uses():
    # an import that the module's code never reads is dead; the package's
    # __init__ imports names to export them
    unused = []
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{module}: {name}" for name in sorted(imported - read)]
    assert unused == []


# calls that sum, by the name called: np.sum, math.fsum, np.add.reduce, ...
SUMMING_CALLS = {"sum", "fsum", "reduce", "nansum", "dot", "vdot", "inner", "einsum", "norm"}


def _sums(node):
    """Whether node is a summing call or a matrix product."""
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, ast.MatMult)
    return isinstance(node, ast.Call) and getattr(
        node.func, "attr", getattr(node.func, "id", None)) in SUMMING_CALLS


def _sums_by_rank(path):
    """(function, 'tail' or 'head') for each function of a module that sums
    and slices by the rank, which the package names k throughout: x[k:...]
    is a tail, x[...:k] a head."""
    found = set()
    for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(ast.walk(fn))
        if not any(_sums(node) for node in nodes):
            continue
        for node in nodes:
            if isinstance(node, ast.Slice):
                for end, bound in (("tail", node.lower), ("head", node.upper)):
                    if isinstance(bound, ast.Name) and bound.id == "k":
                        found.add((f"{path.stem}.{fn.name}", end))
    return found


def test_the_tail_and_the_trace_are_each_summed_once():
    # the truncation tail sum_{i>k} s_i^2 and trace_k = sum_{i<=k} s_i are
    # summed in one function, which every closed form and optimizer uses
    found = set().union(*(_sums_by_rank(PACKAGE / f"{module}.py") for module in MODULES))
    assert found == {("analysis._tail_and_trace", "tail"), ("analysis._tail_and_trace", "head")}


def _sites(match):
    """module.function for each node of the package that match holds for,
    the function being the innermost def around it ('' at module level)."""
    found = []

    def visit(node, module, fn):
        if match(node):
            found.append(f"{module}.{fn}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, child.name if isinstance(child, ast.FunctionDef) else fn)
    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, "")
    return found


def test_the_tie_rule_and_the_fit_rule_each_have_one_owner():
    def reads_tie_rtol(node):
        return (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                and getattr(node, "id", getattr(node, "attr", None)) == "TIE_RTOL")

    def fits_at_one(node):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "budget_feasible"
                and [ast.unparse(arg) for arg in node.args[3:]] == ["1", "1"])
    # TIE_RTOL is read in least alone, which picks every winner: t_L in the
    # optimizer pass, k in optimize_rank and the plan
    assert _sites(reads_tie_rtol) == ["analysis.least"]
    # "rank k fits at t_L = t_R = 1" is written once, in fitting_ranks
    assert _sites(fits_at_one) == ["analysis.fitting_ranks"]


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
