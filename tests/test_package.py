"""The package's public names: declared once, in each module's ``__all__``."""

import argparse
import ast
import inspect
from pathlib import Path

import zerosound
from zerosound import cli, dispersion, errors, kinetic, model

MODULES = (dispersion, errors, kinetic, model)


def test_exports_are_the_union_of_the_module_lists():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared))
    assert sorted(zerosound.__all__) == sorted(["__version__", *declared])
    # the only other public attributes are the submodules themselves
    for name in set(dir(zerosound)) - set(zerosound.__all__):
        assert name.startswith("_") or inspect.ismodule(getattr(zerosound, name))


def test_each_export_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(zerosound, name) is getattr(module, name)


def test_errors_lists_every_error_type():
    defined = {
        name for name, value in vars(errors).items()
        if inspect.isclass(value) and issubclass(value, zerosound.ZeroSoundError)
    }
    assert set(errors.__all__) == defined


# every option of every subcommand; a new option must show up here
OPTIONS = {
    "solve": {"--tol", "--params-file", "--Q0", "--k-lambda"},
    "scan": {"--tol", "--params-file", "--Q0", "--k-min", "--k-max", "--points", "--log",
             "--out", "--format"},
    "simulate": {"--tol", "--Q0", "--k-lambda", "--n-mu", "--dt", "--steps", "--out"},
    "compare": {"--tol", "--params-file", "--Q0", "--k-lambda", "--n-mu", "--dt", "--steps",
                "--mass-convention", "--out", "--format"},
}


def test_option_surface():
    (subparsers,) = [action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    found = {
        command: {flag for action in parser._actions if not isinstance(action, argparse._HelpAction)
                  for flag in action.option_strings}
        for command, parser in subparsers.choices.items()
    }
    assert found == OPTIONS
    assert list(zerosound.SolverConfig.__match_args__) == ["tolerance"]
    assert list(inspect.signature(zerosound.spectral_peak).parameters) == ["series"]


def test_cli_imports_no_numpy():
    # the CLI parses, calls and renders; array work stays in the library
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(cli))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.partition(".")[0])
    assert "numpy" not in imported


# modules that no source file imports at load time: numpy is imported on
# first use, in the bodies of the functions that need it, and the records
# are built by model._record instead of dataclasses (which loads inspect),
# so `import zerosound` and the solve and scan commands load none of them
NOT_IMPORTED_AT_LOAD = {"numpy", "dataclasses", "inspect"}


def test_no_module_imports_numpy_dataclasses_or_inspect_when_loaded():
    paths = sorted(Path(zerosound.__file__).parent.glob("*.py"))
    assert {"cli.py", "kinetic.py"} <= {path.name for path in paths}
    for path in paths:
        imported, pending = set(), list(ast.parse(path.read_text(encoding="utf-8")).body)
        while pending:
            node = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # a function body runs when called, not when loaded
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
            pending.extend(ast.iter_child_nodes(node))
        assert not imported & NOT_IMPORTED_AT_LOAD, path.name


def test_each_module_with_records_keeps_its_annotations_as_strings():
    # model._record reads the field names from the class body's
    # __annotations__; from Python 3.14 on, a module without this future
    # import has none there, and its records would have no fields
    paths = sorted(Path(zerosound.__file__).parent.glob("*.py"))
    with_records = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(isinstance(decorator, ast.Name) and decorator.id == "_record"
               for node in tree.body if isinstance(node, ast.ClassDef)
               for decorator in node.decorator_list):
            with_records.add(path.name)
            assert any(isinstance(node, ast.ImportFrom) and node.module == "__future__"
                       and {alias.name for alias in node.names} == {"annotations"}
                       for node in tree.body), path.name
    assert with_records == {"model.py", "dispersion.py", "kinetic.py"}


def test_no_floating_point_warning_is_suppressed():
    # every warning is an error under pytest, so a suppressed overflow or
    # invalid operation would hide a result outside the float range
    for path in sorted(Path(zerosound.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # a name, an attribute (np.errstate) or an imported name
            names = {getattr(node, field, None) for field in ("id", "attr", "name")}
            assert "errstate" not in names, path.name


def test_time_domain_oracle_stays_independent():
    # no eigenvalues anywhere in kinetic, and nothing the evolution reaches
    # touches the secular function or its root
    tree = ast.parse(inspect.getsource(kinetic))
    identifiers = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            identifiers.add(node.id)
        elif isinstance(node, ast.Attribute):
            identifiers.add(node.attr)
        elif isinstance(node, ast.alias):
            identifiers.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            identifiers.update(node.module.split("."))
    assert "linalg" not in identifiers

    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, pending = set(), ["_rk4_trace"]
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending.extend(
                node.id for node in ast.walk(functions[name])
                if isinstance(node, ast.Name) and node.id in functions
            )
    assert "_block_size" in reached  # the walk follows helpers
    assert not reached & {"secular_sum", "discrete_collective_root"}


def test_one_root_finder():
    # the exact solver and the matrix oracle each make one call to the shared
    # solve _roots.edge_root, which alone holds the start estimate (the 7.2 of
    # x/3 + x^2/5 = 1/A) and calls _roots.increasing_root; no source file
    # reaches for scipy's
    calls = {"_roots.py": (0, 1), "dispersion.py": (1, 0), "kinetic.py": (1, 0)}
    for path in sorted(Path(zerosound.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        called = [getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(tree) if isinstance(node, ast.Call)]
        assert (called.count("edge_root"), called.count("increasing_root")) == calls.get(path.name, (0, 0)), path.name
        if path.name in ("dispersion.py", "kinetic.py"):
            assert not any(isinstance(node, ast.Constant) and node.value == 7.2 for node in ast.walk(tree)), path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(alias.name.startswith("scipy") for alias in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("scipy"), path.name


def test_range_messages_are_written_only_in_model():
    # count and sign checks go through model's helpers, so a hand-written
    # one cannot come back in another module; "k_max must be >= k_min"
    # bounds one knob by another, not by a number, and stays with GridSpec
    phrases = ("must be >=", "must be <=", "must be non-negative", "must be an integer")
    knob_against_knob = {"k_max must be >= k_min, got "}
    found = {}
    for path in sorted(Path(zerosound.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for phrase in phrases:
                    if phrase in node.value and node.value not in knob_against_knob:
                        found.setdefault(phrase, set()).add(path.name)
    assert found == {phrase: {"model.py"} for phrase in phrases}
