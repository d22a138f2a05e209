"""Timing spans around the savanna layers, installed from outside the package.

A ``Tracer`` wraps the public functions that the per-layer metrics name and
rebinds each wrapper in every ``savanna`` module namespace that binds the
original, so calls made through ``from .x import f`` bindings are seen too.
Nothing under ``src/`` changes; private kernels (``_rhs``, ``_period_map``)
are measured only through their public callers.

Each span is one row of (name, start, end, parent, run id) kept in flat
arrays in memory and written out when the run ends.  Self time, call counts
and the exact work counters are derived from these rows.
"""

from __future__ import annotations

import contextlib
import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "model", "thresholds", "integrate", "floquet", "sweep")


def _orbit_counts(counts, orbit):
    counts["fp_iterations"] += orbit.iterations
    counts["newton_iterations"] += orbit.newton_iterations
    counts["period_maps"] += orbit.iterations + orbit.newton_iterations
    counts["converged_orbits"] += int(orbit.converged)


def _scan_counts(counts, grid):
    counts["cells"] += int(grid.values.size)
    counts["defined_cells"] += int(grid.defined.sum())


def _simulate_counts(counts, traj):
    counts["steps"] += len(traj.samples) - 1


# (module, function, hook reading exact work counts off the result)
FUNCTIONS = (
    ("floquet", "floquet_report", None),
    ("floquet", "locate_savanna_orbit", _orbit_counts),
    ("floquet", "monodromy", None),
    ("floquet", "cubic_eigenvalues", None),
    ("floquet", "grassland_agreement", None),
    ("sweep", "scan", _scan_counts),
    ("sweep", "level_curve", None),
    ("thresholds", "compute_thresholds", None),
    ("thresholds", "critical_values", None),
    ("integrate", "simulate", _simulate_counts),
    ("model", "require_valid", None),
)
# (module, class, method, span name): the CSV writers of the result types
METHODS = (
    ("sweep", "GridScan", "to_csv", "sweep.to_csv"),
    ("sweep", "LevelCurve", "to_csv", "sweep.to_csv"),
    ("integrate", "Trajectory", "to_csv", "integrate.to_csv"),
)
# span call counts that are exact work counters
COUNTED_SPANS = {
    "floquet.monodromy": "monodromy_calls",
    "thresholds.compute_thresholds": "compute_thresholds_calls",
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.run_id = -1
        self.counts: dict[int, Counter] = {}

    def wrap(self, name: str, fn, hook=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.run.append(self.run_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts[self.run_id], result)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_run(self, run_id: int) -> None:
        self.run_id = run_id
        self.counts[run_id] = Counter()

    @contextlib.contextmanager
    def installed(self):
        """Rebind every listed function and method to its wrapper; restore
        the originals on exit."""
        modules = [importlib.import_module("savanna")] + [
            importlib.import_module(f"savanna.{m}") for m in LAYERS]
        patches = []
        for mod_name, fn_name, hook in FUNCTIONS:
            orig = getattr(importlib.import_module(f"savanna.{mod_name}"), fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", orig, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(importlib.import_module(f"savanna.{mod_name}"), cls_name)
            orig = cls.__dict__[meth]
            patches.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(span, orig))
        try:
            yield
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)

    def run_counts(self, run_id: int) -> dict[str, int]:
        """Exact work counters of one traced command."""
        counts = Counter(self.counts.get(run_id, {}))
        names = np.frombuffer(self.name_id, dtype=np.int32)
        runs = np.frombuffer(self.run, dtype=np.int32)
        for span, key in COUNTED_SPANS.items():
            if span in self._ids:
                counts[key] += int(np.count_nonzero(
                    (names == self._ids[span]) & (runs == run_id)))
        return dict(counts)

    def totals(self, run_ids) -> dict[str, dict[str, float]]:
        """Per span name over the given runs: calls, inclusive and self time."""
        n = len(self.start)
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        if n == 0:
            return out
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        keep = np.isin(np.frombuffer(self.run, dtype=np.int32), list(run_ids))
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        for nid, name in enumerate(self.names):
            sel = keep & (names == nid)
            out[name] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                         "self_s": float(self_time[sel].sum())}
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            parent=np.frombuffer(self.parent, np.int32), run=np.frombuffer(self.run, np.int32),
            start=np.frombuffer(self.start, np.float64), end=np.frombuffer(self.end, np.float64))
