"""Two-parameter grid scans, unity level curves and classification maps.

A scan evaluates one scalar quantity (any threshold-report field, a critical
value, the savanna spectral radius ``rho_tg`` or the categorical ``case``
label) at every node of a two-parameter grid.  Closed-form quantities are
computed as arrays, a block of axis-1 rows at a time, by the kernel that
``compute_thresholds`` runs on one cell; ``rho_tg`` cells each locate an
orbit, one after another in row-major order.  Cells where the quantity is
undefined carry an explicit marker and are excluded from contour
interpolation.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .floquet import floquet_report
from .model import ModelParams, NumericalError, _valid_cells
from .thresholds import CRITICAL_FIELDS, _closed_forms

__all__ = ["AxisSpec", "GridScan", "LevelCurve", "scan", "level_curve", "classify_grid"]

NUMERIC_QUANTITIES = (
    "r_t0", "r_g0", "rho_g0", "g_int", "r_g_t", "r", "a_coef", "b_coef",
    "rho_t", "r_t_g", "rho_t_g", "sigma_g_star", "sigma_ns_star", "tau_star",
    "rho_tg",
)
QUANTITIES = NUMERIC_QUANTITIES + ("case",)

DEFAULT_GRID_N = 101
DEFAULT_RHO_TG_N = 21
# axis-1 rows per closed-form block: bounds the kernel's temporaries
ROW_BLOCK = 16
# cells of one grid: its values and defined mask hold 9 bytes a cell (90 MB at
# the cap), and its CSV takes 40 to 80 bytes a cell (about 0.5 GB)
MAX_CELLS = 10**7


@dataclass(frozen=True)
class AxisSpec:
    name: str
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"axis {self.name!r} needs n >= 2, got {self.n}")
        if not np.isfinite([self.lo, self.hi]).all():
            raise ValueError(f"axis {self.name!r} bounds must be finite")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)


@dataclass(frozen=True)
class GridScan:
    axis1: AxisSpec
    axis2: AxisSpec
    base: ModelParams
    quantity: str
    values: np.ndarray            # (n1, n2); float (nan where undefined) or object
    defined: np.ndarray           # (n1, n2) bool

    def to_csv(self, file: TextIO | None = None) -> str | None:
        """One row per cell, axis 1 outer.  Without ``file`` the CSV is
        returned as one string; with one, each axis-1 row of cells is written
        to it as it is formatted and nothing is returned."""
        if file is None:
            return "".join(self._csv_blocks())
        file.writelines(self._csv_blocks())
        return None

    def _csv_blocks(self) -> Iterator[str]:
        # one string per axis-1 row: far fewer live objects than one per cell
        yield f"{self.axis1.name},{self.axis2.name},value,defined\n"
        a2 = [f"{y:.17g}" for y in self.axis2.values()]
        numeric = self.values.dtype != object
        for x, row, row_defined in zip(self.axis1.values(), self.values, self.defined):
            x = f"{x:.17g}"
            yield "".join(
                (f"{x},{y},{v:.17g},1\n" if numeric else f"{x},{y},{v},1\n") if ok
                else f"{x},{y},undefined,0\n"
                for y, v, ok in zip(a2, row.tolist(), row_defined.tolist()))


@dataclass(frozen=True)
class LevelCurve:
    level: float
    polylines: tuple[tuple[tuple[float, float], ...], ...]

    def to_csv(self) -> str:
        lines = ["curve_id,axis1,axis2"]
        for cid, line in enumerate(self.polylines):
            for x, y in line:
                lines.append(f"{cid},{x:.17g},{y:.17g}")
        return "\n".join(lines) + "\n"


def _cell_value(base: ModelParams, name1: str, v1: float, name2: str, v2: float):
    """``rho_tg`` at one grid node; (value, defined).  Infeasible parameter
    combos, orbits that do not converge and orbits that diverge numerically
    yield an undefined cell, never an exception."""
    try:
        p = base.replace(**{name1: float(v1), name2: float(v2)})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = floquet_report(p)
        if not rep.diagnostics.get("converged", False):
            return np.nan, False
        return rep.rho_tg, True
    except (ValueError, NumericalError):
        return np.nan, False


def _closed_form_rows(base: ModelParams, quantity: str, axis1: AxisSpec,
                      axis2: AxisSpec, rows: slice):
    """(values, defined) of a closed-form quantity on a block of axis-1 rows.

    A cell is defined where its parameters are valid, its closed forms
    evaluate in floating point and the quantity is available there; numeric
    threshold fields must also be finite.
    """
    flat = base.flat()
    flat[axis1.name] = axis1.values()[rows, None]
    flat[axis2.name] = axis2.values()[None, :]
    cells = _closed_forms(**flat)
    ok = _valid_cells(flat)
    if quantity == "case":
        ok = ok & cells.ok
        return np.where(ok, cells.label, "undefined"), ok
    v = cells.values[quantity]
    if quantity in CRITICAL_FIELDS:
        ok = ok & cells.critical_ok & cells.defined[quantity]
    else:
        ok = ok & cells.ok & np.isfinite(v)
    return np.where(ok, v, np.nan), ok


def _require_cells(axis1: AxisSpec, axis2: AxisSpec) -> None:
    if axis1.n * axis2.n > MAX_CELLS:
        raise ValueError(
            f"a grid of {axis1.n}x{axis2.n} = {axis1.n * axis2.n:.3g} cells is above "
            f"the cap of {MAX_CELLS:.0e} cells (use fewer points per axis)")


def scan(base: ModelParams, axis1: AxisSpec, axis2: AxisSpec, quantity: str,
         concurrent: bool = False) -> GridScan:
    """Evaluate ``quantity`` on the full axis1 x axis2 grid.

    Closed-form quantities (every threshold-report field, the critical
    values and ``case``) are evaluated as arrays, ``ROW_BLOCK`` rows of
    axis 1 at a time, by the same kernel that ``compute_thresholds`` runs
    on one cell, so each cell carries the same bits as that call.  Axis
    values replace the base's fields as ``ModelParams.replace`` would (a
    ``K_G`` axis keeps the base's ``g0``).  ``rho_tg`` cells run the orbit
    location and monodromy machinery one after another in row-major order;
    they are orders of magnitude slower and a runtime warning is issued for
    large grids.  ``concurrent`` is accepted for compatibility only and
    changes nothing.  A grid of more than ``MAX_CELLS`` cells is refused
    before anything is allocated.
    """
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}; expected one of {QUANTITIES}")
    for ax in (axis1, axis2):
        if ax.name not in base.flat() or ax.name == "alpha":
            raise ValueError(f"invalid axis parameter {ax.name!r}")
    if axis1.name == axis2.name:
        raise ValueError("the two axes must scan different parameters")
    _require_cells(axis1, axis2)
    if quantity == "rho_tg" and axis1.n * axis2.n > DEFAULT_RHO_TG_N ** 2:
        warnings.warn(
            f"rho_tg scan of {axis1.n}x{axis2.n} cells is expensive; "
            f"{DEFAULT_RHO_TG_N}x{DEFAULT_RHO_TG_N} is the intended scale",
            stacklevel=2,
        )

    defined = np.zeros((axis1.n, axis2.n), dtype=bool)
    if quantity == "case":
        values = np.full((axis1.n, axis2.n), "undefined", dtype=object)
    else:
        values = np.full((axis1.n, axis2.n), np.nan)
    if quantity == "rho_tg":
        a1 = axis1.values()
        a2 = axis2.values()
        for i in range(axis1.n):
            for j in range(axis2.n):
                values[i, j], defined[i, j] = _cell_value(
                    base, axis1.name, a1[i], axis2.name, a2[j])
    else:
        for start in range(0, axis1.n, ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            values[rows], defined[rows] = _closed_form_rows(base, quantity, axis1, axis2, rows)

    if not defined.any():
        raise ValueError(f"quantity {quantity!r} is undefined on the whole grid")
    return GridScan(axis1=axis1, axis2=axis2, base=base, quantity=quantity,
                    values=values, defined=defined)


def classify_grid(base: ModelParams, axis1: AxisSpec, axis2: AxisSpec) -> GridScan:
    """Case label at every node (shorthand for a ``case`` scan)."""
    return scan(base, axis1, axis2, "case")


# ---------------------------------------------------------------------------
# level curves (marching squares with linear edge interpolation)
# ---------------------------------------------------------------------------

def _interp(x1, v1, x2, v2, level):
    t = (level - v1) / (v2 - v1)
    return x1 + t * (x2 - x1)


def level_curve(gs: GridScan, level: float = 1.0) -> LevelCurve:
    """Extract the ``quantity = level`` contour as ordered polylines.

    Vertices sit on grid edges where the value crosses the level between two
    defined nodes (linear interpolation); squares touching an undefined node
    are skipped, so contours never cross undefined cells.  No crossing at all
    yields an empty curve.
    """
    if gs.values.dtype == object:
        raise ValueError("level curves need a numeric quantity")
    a1 = gs.axis1.values()
    a2 = gs.axis2.values()
    v = gs.values
    segments: list[tuple[tuple[float, float], tuple[float, float]]] = []

    # squares whose four nodes are defined and one of whose edges crosses
    d = gs.defined
    with np.errstate(all="ignore"):
        s = np.where(d, v - level, 0.0)
        crossing = ((s[:-1, :-1] * s[1:, :-1] < 0.0) | (s[1:, :-1] * s[1:, 1:] < 0.0)
                    | (s[1:, 1:] * s[:-1, 1:] < 0.0) | (s[:-1, 1:] * s[:-1, :-1] < 0.0))
    corners_defined = d[:-1, :-1] & d[1:, :-1] & d[1:, 1:] & d[:-1, 1:]
    ij = np.argwhere(corners_defined & crossing)
    r, c = ij[:, 0], ij[:, 1]
    # corner values as Python floats: a product beyond 1e308 is a signed inf,
    # without the overflow warning that numpy scalars raise
    square_values = np.stack(
        (v[r, c], v[r + 1, c], v[r + 1, c + 1], v[r, c + 1]), axis=1).tolist()
    for (i, j), (v00, v10, v11, v01) in zip(ij.tolist(), square_values):
        corners = (
            (v00, a1[i], a2[j]),
            (v10, a1[i + 1], a2[j]),
            (v11, a1[i + 1], a2[j + 1]),
            (v01, a1[i], a2[j + 1]),
        )
        pts = []
        for k in range(4):
            (va, xa, ya) = corners[k]
            (vb, xb, yb) = corners[(k + 1) % 4]
            if (va - level) * (vb - level) < 0.0:
                pts.append((
                    _interp(xa, va, xb, vb, level),
                    _interp(ya, va, yb, vb, level),
                ))
        # crossings come in pairs; join them in discovery order (the
        # rare 4-crossing saddle keeps that simple deterministic pairing)
        for k in range(0, len(pts) - 1, 2):
            segments.append((pts[k], pts[k + 1]))

    return LevelCurve(level=level, polylines=_chain(segments))


def _chain(segments):
    """Join shared-endpoint segments into ordered polylines."""
    def key(pt):
        return (round(pt[0], 12), round(pt[1], 12))

    by_end: dict[tuple, list[int]] = {}
    for idx, (a, b) in enumerate(segments):
        by_end.setdefault(key(a), []).append(idx)
        by_end.setdefault(key(b), []).append(idx)

    polylines = []
    used = set()
    for start in range(len(segments)):
        if start in used:
            continue
        used.add(start)
        a, b = segments[start]
        line = [a, b]
        # extend forward from b, then backward from a
        for grow_end in (True, False):
            while True:
                tip = line[-1] if grow_end else line[0]
                cands = [i for i in by_end.get(key(tip), []) if i not in used]
                if not cands:
                    break
                idx = cands[0]
                used.add(idx)
                sa, sb = segments[idx]
                nxt = sb if key(sa) == key(tip) else sa
                if grow_end:
                    line.append(nxt)
                else:
                    line.insert(0, nxt)
        polylines.append(tuple(line))
    return tuple(polylines)
