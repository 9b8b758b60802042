"""The package's public names: declared once, in each module's ``__all__``."""

import ast
import inspect

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


def test_cli_imports_no_numpy():
    # the CLI parses, calls and renders; array work stays in the library
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(cli))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.partition(".")[0])
    assert "numpy" not in imported
