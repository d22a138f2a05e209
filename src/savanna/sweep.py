"""Two-parameter grid scans, unity level curves and classification maps.

A scan rebuilds the parameter set at every grid node and evaluates one scalar
quantity (any threshold-report field, the savanna spectral radius ``rho_tg``
or the categorical ``case`` label).  Cells where the quantity is undefined
carry an explicit marker and are excluded from contour interpolation.
Cells are evaluated one after another in row-major order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, NumericalError, ParameterError
from .thresholds import ThresholdError, compute_thresholds, critical_values

__all__ = ["AxisSpec", "GridScan", "LevelCurve", "scan", "level_curve", "classify_grid"]

NUMERIC_QUANTITIES = (
    "r_t0", "r_g0", "rho_g0", "g_int", "r_g_t", "r", "a_coef", "b_coef",
    "rho_t", "r_t_g", "rho_t_g", "sigma_g_star", "sigma_ns_star", "tau_star",
    "rho_tg",
)
QUANTITIES = NUMERIC_QUANTITIES + ("case",)

DEFAULT_GRID_N = 101
DEFAULT_RHO_TG_N = 21


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

    def to_csv(self) -> str:
        lines = [f"{self.axis1.name},{self.axis2.name},value,defined"]
        a1 = self.axis1.values()
        a2 = self.axis2.values()
        numeric = self.values.dtype != object
        for i in range(self.axis1.n):
            for j in range(self.axis2.n):
                if self.defined[i, j]:
                    v = self.values[i, j]
                    sval = f"{v:.17g}" if numeric else str(v)
                else:
                    sval = "undefined"
                lines.append(f"{a1[i]:.17g},{a2[j]:.17g},{sval},{int(self.defined[i, j])}")
        return "\n".join(lines) + "\n"


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


def _cell_value(base: ModelParams, quantity: str, name1: str, v1: float,
                name2: str, v2: float):
    """Evaluate one grid node; (value, defined).  Infeasible parameter combos,
    unavailable quantities and orbits that diverge numerically yield an
    undefined cell, never an exception."""
    try:
        p = base.replace(**{name1: float(v1), name2: float(v2)})
        if quantity == "rho_tg":
            from .floquet import floquet_report

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rep = floquet_report(p)
            if not rep.diagnostics.get("converged", False):
                return np.nan, False
            return rep.rho_tg, True
        if quantity in ("sigma_g_star", "sigma_ns_star", "tau_star"):
            cv = critical_values(p)
            v = getattr(cv, quantity)
            return (np.nan, False) if v is None else (v, True)
        rep = compute_thresholds(p)
        if quantity == "case":
            return rep.classification, True
        v = getattr(rep, quantity)
        if v is None or not np.isfinite(v):
            return np.nan, False
        return float(v), True
    except (ParameterError, ThresholdError, ValueError, NumericalError):
        return np.nan, False


def scan(base: ModelParams, axis1: AxisSpec, axis2: AxisSpec, quantity: str,
         concurrent: bool = False) -> GridScan:
    """Evaluate ``quantity`` on the full axis1 x axis2 grid.

    ``rho_tg`` cells run the orbit location and monodromy machinery and are
    orders of magnitude slower than threshold fields; a runtime warning is
    issued for large grids.  ``concurrent`` is accepted for compatibility
    only: cells are always evaluated in sequence, because a thread pool
    measured slower than the plain loop and gives the same result.
    """
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}; expected one of {QUANTITIES}")
    for ax in (axis1, axis2):
        if ax.name not in base.flat() or ax.name == "alpha":
            raise ValueError(f"invalid axis parameter {ax.name!r}")
    if axis1.name == axis2.name:
        raise ValueError("the two axes must scan different parameters")
    if quantity == "rho_tg" and axis1.n * axis2.n > DEFAULT_RHO_TG_N ** 2:
        warnings.warn(
            f"rho_tg scan of {axis1.n}x{axis2.n} cells is expensive; "
            f"{DEFAULT_RHO_TG_N}x{DEFAULT_RHO_TG_N} is the intended scale",
            stacklevel=2,
        )

    a1 = axis1.values()
    a2 = axis2.values()
    defined = np.zeros((axis1.n, axis2.n), dtype=bool)
    if quantity == "case":
        values = np.full((axis1.n, axis2.n), "undefined", dtype=object)
    else:
        values = np.full((axis1.n, axis2.n), np.nan)
    for i in range(axis1.n):
        for j in range(axis2.n):
            v, ok = _cell_value(base, quantity, axis1.name, a1[i], axis2.name, a2[j])
            defined[i, j] = ok
            if ok:
                values[i, j] = v

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

    for i in range(gs.axis1.n - 1):
        for j in range(gs.axis2.n - 1):
            if not (gs.defined[i, j] and gs.defined[i + 1, j]
                    and gs.defined[i, j + 1] and gs.defined[i + 1, j + 1]):
                continue
            corners = (
                (v[i, j], a1[i], a2[j]),
                (v[i + 1, j], a1[i + 1], a2[j]),
                (v[i + 1, j + 1], a1[i + 1], a2[j + 1]),
                (v[i, j + 1], a1[i], a2[j + 1]),
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
