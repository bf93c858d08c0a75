"""Every name in a covertq module's ``__all__`` is an attribute of the
module, so ``from covertq.<module> import *`` works."""

import importlib
import pkgutil

import pytest

import covertq

MODULES = sorted(m.name for m in pkgutil.iter_modules(covertq.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"covertq.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []
