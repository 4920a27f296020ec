"""Package layout: the modules are the API, and each module's ``__all__``
names only what that module defines."""

import importlib
import inspect
import pkgutil

import pytest

import mitoscope

MODULES = sorted(m.name for m in pkgutil.iter_modules(mitoscope.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined_in_their_module(name):
    mod = importlib.import_module(f"mitoscope.{name}")
    for public in mod.__all__:
        assert public in vars(mod), f"{name}.__all__ lists undefined {public!r}"
        obj = vars(mod)[public]
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == mod.__name__, f"{name}.{public} is re-exported"


def test_package_namespace_binds_no_module_function():
    for name in MODULES:
        importlib.import_module(f"mitoscope.{name}")
    public = {k for k in vars(mitoscope) if not k.startswith("__")}
    assert public <= set(MODULES), sorted(public - set(MODULES))
