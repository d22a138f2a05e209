import importlib
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
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


def test_every_name_the_bench_tracer_wraps_exists(monkeypatch):
    # bench/spans.py wraps these by name; a missing one breaks traced runs
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    missing = [f"{m}.{f}" for m, f, _ in spans.FUNCTIONS
               if not callable(getattr(importlib.import_module(f"savanna.{m}"), f, None))]
    missing += [f"{m}.{c}.{meth}" for m, c, meth, _ in spans.METHODS
                if meth not in vars(getattr(importlib.import_module(f"savanna.{m}"), c, object))]
    assert spans.FUNCTIONS and spans.METHODS and not missing, missing
