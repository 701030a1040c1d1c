"""Every public name a module lists in __all__ exists in that module: a stale
entry still imports, but breaks ``from greenbvp.<module> import *``.  And the
public names offer no more settable values than callers use."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import greenbvp

MODULES = sorted(info.name for info in pkgutil.iter_modules(greenbvp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"greenbvp.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"greenbvp.{name}.__all__ lists missing names {missing}"


# A setting stays only while a caller outside the tests sets it.  The settable
# values counted are the parameters with defaults of every function and public
# method named in a module's __all__ (each object once), plus the fields with
# defaults that a dataclass constructor takes.
MAX_SETTABLE_VALUES = 29


def _defaults(fn) -> list[str]:
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.default is not inspect.Parameter.empty]


def settable_values() -> list[str]:
    seen, values = set(), []
    for name in MODULES:
        module = importlib.import_module(f"greenbvp.{name}")
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if inspect.isfunction(obj):
                values += [f"{attr}({p})" for p in _defaults(obj)]
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    values += [f"{attr}.{f.name}" for f in dataclasses.fields(obj) if f.init
                               and (f.default is not dataclasses.MISSING
                                    or f.default_factory is not dataclasses.MISSING)]
                for method, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # class and static methods
                    if not method.startswith("_") and inspect.isfunction(member):
                        values += [f"{attr}.{method}({p})" for p in _defaults(member)]
    return values


def test_settable_value_count():
    values = settable_values()
    assert len(values) <= MAX_SETTABLE_VALUES, values
