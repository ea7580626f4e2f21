"""The package's lazy top-level names."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import fdmlink


@pytest.mark.parametrize("module", sorted(fdmlink._EXPORTS))
def test_lazy_exports_resolve_and_are_public(module):
    mod = importlib.import_module(f"fdmlink.{module}")
    assert getattr(fdmlink, module) is mod
    for name in fdmlink._EXPORTS[module]:
        assert getattr(fdmlink, name) is getattr(mod, name), name
        assert name in mod.__all__, f"{module}.__all__ lacks {name}"


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(fdmlink.__path__)))
def test_annotations_resolve(module):
    """Every annotation in the package names something its module can see."""
    mod = importlib.import_module(f"fdmlink.{module}")
    for obj in vars(mod).values():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj):
            typing.get_type_hints(obj)
            for member in vars(obj).values():
                if inspect.isfunction(member):
                    typing.get_type_hints(member)
        elif inspect.isfunction(obj):
            typing.get_type_hints(obj)
