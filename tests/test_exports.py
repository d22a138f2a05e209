import importlib
import types

import pytest

MODULES = ("savanna",) + tuple(
    f"savanna.{m}" for m in ("model", "thresholds", "integrate", "floquet", "sweep", "cli"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ lists undefined names: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_no_module_object_is_exported(name):
    mod = importlib.import_module(name)
    modules = [n for n in getattr(mod, "__all__", ())
               if isinstance(getattr(mod, n, None), types.ModuleType)]
    assert not modules, f"{name}.__all__ exports module objects: {modules}"
