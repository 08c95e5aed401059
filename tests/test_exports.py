"""Every exported name resolves: a name deleted from a module cannot stay
behind in its ``__all__`` or in the package's."""

import importlib
import pkgutil

import pytest

import hpdcover

MODULES = ["hpdcover", *(f"hpdcover.{m.name}" for m in pkgutil.iter_modules(hpdcover.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = mod.__all__
    assert [name for name in names if not hasattr(mod, name)] == []
    assert len(set(names)) == len(names)
