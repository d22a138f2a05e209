import importlib

import pytest

MODULES = ("savanna",) + tuple(
    f"savanna.{m}" for m in ("model", "thresholds", "integrate", "floquet", "sweep", "cli"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ lists undefined names: {missing}"
