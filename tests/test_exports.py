"""Every name a module exports exists, and every name it imports is used."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pupcast


def test_every_exported_name_exists():
    modules = [importlib.import_module(f"pupcast.{m.name}") for m in pkgutil.iter_modules(pupcast.__path__)]
    assert len(modules) >= 13
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def unused_imports(source: str, exported=()) -> list[str]:
    """Names a module's source imports but neither uses nor lists in ``exported``."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used and name not in exported]


def test_no_unused_imports():
    paths = sorted(p for p in Path(pupcast.__file__).parent.glob("*.py") if p.name != "__init__.py")
    assert len(paths) >= 13
    unused = [
        f"{path.name}:{found}"
        for path in paths
        for found in unused_imports(path.read_text(), getattr(importlib.import_module(f"pupcast.{path.stem}"), "__all__", ()))
    ]
    assert unused == []
    assert unused_imports("import json\nfrom math import exp, log\nprint(exp(1))\n") == ["1: json", "2: log"]


def test_only_the_kernel_raises_missing_kernel():
    # a status never fitted is the kernel's one missing-pmf case: no other
    # module raises MissingKernel, and the oracle, which skips a parcel in
    # such a status as the engine does, does not name it
    package = Path(pupcast.__file__).parent
    raising = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and node.exc is not None and "MissingKernel" in ast.unparse(node.exc)
    }
    assert raising == {"kernel.py"}
    oracle = ast.parse((package / "oracle.py").read_text(encoding="utf-8"))
    named = {node.id for node in ast.walk(oracle) if isinstance(node, ast.Name)}
    named |= {alias.name for node in ast.walk(oracle) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "ValidationError" in named  # the scan sees the errors the oracle imports
    assert "MissingKernel" not in named


def test_only_the_event_log_raises_multiple_pups():
    # the one-pup rule is EventLog.pup_name's: the engine and the oracle call it
    package = Path(pupcast.__file__).parent
    raising = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and node.exc is not None and "parcels target multiple pups" in ast.unparse(node.exc)
    }
    assert raising == {"records.py"}


def test_only_the_draw_searches_a_cdf():
    # every uniform -> index mapping of the oracles goes through _Draw, which
    # answers most of them from its guide table
    tree = ast.parse((Path(pupcast.__file__).parent / "oracle.py").read_text(encoding="utf-8"))
    searching = {
        getattr(top, "name", None)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "searchsorted"
    }
    assert searching == {"_Draw"}


def test_every_error_is_raised_somewhere():
    # an error type outlives its last raise only as dead code: delete the two together
    package = Path(pupcast.__file__).parent
    errors = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    declared = {node.name for node in errors.body if isinstance(node, ast.ClassDef)} - {"PupcastError"}
    raised = {
        name.id
        for path in package.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and node.exc is not None
        for name in ast.walk(node.exc)
        if isinstance(name, ast.Name)
    }
    assert len(declared) >= 8
    assert sorted(declared - raised) == []
