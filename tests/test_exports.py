"""The package's lazy top-level names."""

import importlib

import pytest

import fdmlink


@pytest.mark.parametrize("module", sorted(fdmlink._EXPORTS))
def test_lazy_exports_resolve_and_are_public(module):
    mod = importlib.import_module(f"fdmlink.{module}")
    assert getattr(fdmlink, module) is mod
    for name in fdmlink._EXPORTS[module]:
        assert getattr(fdmlink, name) is getattr(mod, name), name
        assert name in mod.__all__, f"{module}.__all__ lacks {name}"
