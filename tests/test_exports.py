"""Every name a kernelval module exports resolves."""

import importlib
import pkgutil

import pytest

import kernelval

MODULES = ["kernelval"] + [f"kernelval.{m.name}"
                           for m in pkgutil.iter_modules(kernelval.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
