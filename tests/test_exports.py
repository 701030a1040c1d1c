"""Every public name a module lists in __all__ exists in that module: a stale
entry still imports, but breaks ``from greenbvp.<module> import *``."""

import importlib
import pkgutil

import pytest

import greenbvp

MODULES = sorted(info.name for info in pkgutil.iter_modules(greenbvp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"greenbvp.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"greenbvp.{name}.__all__ lists missing names {missing}"
