"""Every name a fairtile module exports exists."""

import importlib
import pkgutil

import pytest

import fairtile

MODULES = sorted(m.name for m in pkgutil.iter_modules(fairtile.__path__, "fairtile."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
