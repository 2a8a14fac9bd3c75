"""Every name a module exports exists."""

import importlib
import pkgutil

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
