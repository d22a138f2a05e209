"""Monodromy matrices, Floquet multipliers and periodic-orbit location.

The monodromy of a fire-period orbit is ``J(s_pre) @ Phi(tau)`` where ``Phi``
solves the variational equation ``Phi' = DF(orbit(t)) Phi`` along the orbit
(integrated jointly with the orbit by the fourth-order reference stepper) and
``J`` is the linearization of the fire map at the pre-fire state.  The orbit
is re-integrated on every call rather than interpolated from stored samples.

The spectral radius of the monodromy decides local stability of the orbit
that ``floquet_report`` locates.  The analytic grassland multipliers are a
separate cross-check: they exponentiate the period-averaged Jacobian, exact
only for commuting families, so ``grassland_agreement`` compares their
verdict with the variational monodromy's.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    ModelParams,
    NumericalError,
    VegState,
    _impulse,
    _jacobian,
    _rhs,
    fire_intensity,
    fire_intensity_slope,
    require_valid,
)
from .integrate import _rk4_step
from .thresholds import compute_thresholds, grassland_orbit_end

__all__ = [
    "FloquetReport", "OrbitResult", "jacobian", "jump_jacobian", "monodromy",
    "monodromy_full", "locate_savanna_orbit", "rho_tg", "cubic_eigenvalues",
    "grassland_multipliers_analytic", "grassland_agreement", "floquet_report",
]

DEFAULT_STEPS = 2048


def _require_steps(n: int) -> None:
    if n < 1:
        raise ValueError(f"steps per period must be at least 1, got {n}")


# ---------------------------------------------------------------------------
# jacobians
# ---------------------------------------------------------------------------

def jacobian(s: VegState, p: ModelParams) -> np.ndarray:
    """Exact Jacobian of the flow at ``s``."""
    return _jacobian(s.t_s, s.t_ns, s.g, p)


def jump_jacobian(s: VegState, p: ModelParams) -> np.ndarray:
    """Linearization of the fire map at the pre-fire state ``s``.

    Includes the cross term d(T_S+)/dG = -eta_S w'(G) T_S from the
    grass-dependent burn fraction.
    """
    w = fire_intensity(s.g, p.fire)
    wp = fire_intensity_slope(s.g, p.fire)
    return np.array([
        [1.0 - p.eta_S * w, 0.0, -p.eta_S * wp * s.t_s],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0 - p.eta_G],
    ])


# ---------------------------------------------------------------------------
# flow + variational integration (RK4 on the augmented system)
# ---------------------------------------------------------------------------

def _flow_variational(p: ModelParams, anchor: VegState, n: int):
    """Returns (pre-fire state, Phi(tau), integral of trace DF along orbit)."""
    h = p.tau / n
    s = np.array([anchor.t_s, anchor.t_ns, anchor.g])
    phi = np.eye(3)
    q = 0.0

    def rhs(sv, pv, qv):
        del qv
        df = _jacobian(sv[0], sv[1], sv[2], p)
        return np.array(_rhs(sv[0], sv[1], sv[2], p)), df @ pv, np.trace(df)

    for _ in range(n):
        k1s, k1p, k1q = rhs(s, phi, q)
        k2s, k2p, k2q = rhs(s + 0.5 * h * k1s, phi + 0.5 * h * k1p, q + 0.5 * h * k1q)
        k3s, k3p, k3q = rhs(s + 0.5 * h * k2s, phi + 0.5 * h * k2p, q + 0.5 * h * k2q)
        k4s, k4p, k4q = rhs(s + h * k3s, phi + h * k3p, q + h * k3q)
        s = s + h / 6.0 * (k1s + 2.0 * (k2s + k3s) + k4s)
        phi = phi + h / 6.0 * (k1p + 2.0 * (k2p + k3p) + k4p)
        q = q + h / 6.0 * (k1q + 2.0 * (k2q + k3q) + k4q)
        if not np.all(np.isfinite(s)):
            raise NumericalError("orbit escaped during variational integration")
    pre = VegState(max(float(s[0]), 0.0), max(float(s[1]), 0.0), max(float(s[2]), 0.0))
    return pre, phi, q


@dataclass(frozen=True)
class MonodromyResult:
    matrix: np.ndarray
    pre_fire_state: VegState
    fundamental: np.ndarray       # Phi(tau), flow part only
    trace_integral: float         # integral of trace DF over one period


def monodromy_full(p: ModelParams, anchor: VegState,
                   n: int = DEFAULT_STEPS) -> MonodromyResult:
    require_valid(p)
    _require_steps(n)
    pre, phi, q = _flow_variational(p, anchor, n)
    m = jump_jacobian(pre, p) @ phi
    return MonodromyResult(matrix=m, pre_fire_state=pre, fundamental=phi,
                           trace_integral=q)


def monodromy(p: ModelParams, anchor: VegState, n: int = DEFAULT_STEPS) -> np.ndarray:
    """Monodromy matrix of the period map anchored at the post-fire state."""
    return monodromy_full(p, anchor, n).matrix


# ---------------------------------------------------------------------------
# 3x3 eigenvalues
# ---------------------------------------------------------------------------

def cubic_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real 3x3 matrix from LAPACK (``np.linalg.eigvals``),
    largest modulus first, ties by real then imaginary part, descending.
    The name is kept from the characteristic-cubic solver this replaced."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    eigs = np.linalg.eigvals(m).astype(complex)
    return np.array(sorted(eigs, key=lambda z: (-abs(z), -z.real, -z.imag)))


# ---------------------------------------------------------------------------
# periodic-orbit location
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitResult:
    anchor: VegState
    converged: bool
    residual: float
    iterations: int
    newton_iterations: int
    boundary: str | None          # "desert"/"forest"/"grassland" if not interior

    @property
    def interior(self) -> bool:
        return self.boundary is None


def _period_map(p: ModelParams, x: np.ndarray, n: int) -> np.ndarray:
    ts, tns, g = x
    h = p.tau / n
    for _ in range(n):
        ts, tns, g = _rk4_step(ts, tns, g, p, h)
    if not (math.isfinite(ts) and math.isfinite(tns) and math.isfinite(g)):
        raise NumericalError("period map diverged")
    ts, tns, g = _impulse(max(ts, 0.0), max(tns, 0.0), max(g, 0.0), p)
    return np.array([ts, tns, g])


def _boundary_label(x: np.ndarray, p: ModelParams, rel: float = 1e-6) -> str | None:
    tree_zero = x[0] < rel * p.K_T and x[1] < rel * p.K_T
    grass_zero = x[2] < rel * p.K_G
    if tree_zero and grass_zero:
        return "desert"
    if tree_zero:
        return "grassland"
    if grass_zero:
        return "forest"
    return None


def locate_savanna_orbit(p: ModelParams, guess: VegState, tol: float = 1e-10,
                         max_iter: int = 600, n: int = DEFAULT_STEPS) -> OrbitResult:
    """Find a fixed point of the period map (flow over one period, then fire).

    Fixed-point iteration runs first; if it stalls, Newton steps using
    ``I - M`` (M = monodromy at the current point) polish the anchor.
    Convergence to a boundary solution is reported by name, not as an error.
    """
    rep = compute_thresholds(p)
    _require_steps(n)
    if not rep.savanna_existence_condition:
        warnings.warn(
            "savanna existence condition fails (needs rho_g0 > 1, and r_g0 > 1"
            " when mu_G > 0); attempting orbit location anyway",
            stacklevel=2,
        )

    x = guess.as_array().astype(float)
    residual = math.inf
    newton_used = 0
    prev_residual = math.inf
    for it in range(1, max_iter + 1):
        px = _period_map(p, x, n)
        residual = float(np.linalg.norm(px - x))
        x = px
        if residual < tol:
            break
        stalled = residual > 0.95 * prev_residual and it >= 10
        prev_residual = residual
        if stalled and residual < 1e-2:
            # Newton refinement on P(x) - x = 0 with Jacobian M - I
            for _ in range(12):
                newton_used += 1
                full = monodromy_full(p, VegState.from_array(x), n)
                pre = full.pre_fire_state
                fx = np.array(_impulse(pre.t_s, pre.t_ns, pre.g, p)) - x
                residual = float(np.linalg.norm(fx))
                if residual < tol:
                    break
                try:
                    delta = np.linalg.solve(np.eye(3) - full.matrix, fx)
                except np.linalg.LinAlgError:
                    break
                scale = 1.0
                while scale > 1e-4 and np.any(x + scale * delta < -1e-12):
                    scale *= 0.5
                x = np.maximum(x + scale * delta, 0.0)
            if residual < tol:
                break
    converged = residual < tol
    x = np.maximum(x, 0.0)
    return OrbitResult(
        anchor=VegState.from_array(x),
        converged=converged,
        residual=residual,
        iterations=it,
        newton_iterations=newton_used,
        boundary=_boundary_label(x, p),
    )


def rho_tg(p: ModelParams, anchor: VegState, n: int = DEFAULT_STEPS) -> float:
    """Spectral radius of the monodromy at ``anchor`` (< 1: locally stable)."""
    eigs = cubic_eigenvalues(monodromy(p, anchor, n))
    return float(np.max(np.abs(eigs)))


# ---------------------------------------------------------------------------
# analytic grassland multipliers and the agreement audit
# ---------------------------------------------------------------------------

def grassland_multipliers_analytic(p: ModelParams) -> tuple[complex, complex, float]:
    """Analytic multipliers of the grassland orbit from the averaged tree
    block: xi1 pairs the fire shrink factor with the larger-real-part root,
    xi2 is the bare second root, xi3 = 1/rho_g0 is the exact grass multiplier.
    """
    rep = compute_thresholds(p)
    shrink = 1.0 - p.eta_S * fire_intensity(grassland_orbit_end(p), p.fire)
    xi1 = shrink * cmath.exp(rep.lambda1)
    xi2 = cmath.exp(rep.lambda2)
    return xi1, xi2, 1.0 / rep.rho_g0


def grassland_agreement(p: ModelParams, n: int = DEFAULT_STEPS) -> dict:
    """Compare the analytic tree-block stability verdict with the variational
    monodromy at the grassland anchor.  Disagreements are possible because the
    analytic route exponentiates a period average; callers log them.
    """
    rep = compute_thresholds(p)
    anchor = VegState(0.0, 0.0, (1.0 - p.eta_G) * grassland_orbit_end(p))
    eigs = cubic_eigenvalues(monodromy(p, anchor, n))
    xi3 = 1.0 / rep.rho_g0
    # the grass direction is exact in both routes; drop it from the tree pair
    tree_mods = sorted(abs(z) for z in eigs)
    tree_mods.remove(min(tree_mods, key=lambda v: abs(v - xi3)))
    numeric = max(tree_mods)
    return {
        "rho_t_analytic": rep.rho_t,
        "tree_multiplier_numeric": numeric,
        "xi3": xi3,
        "agree": (rep.rho_t - 1.0) * (numeric - 1.0) > 0.0
        or (abs(rep.rho_t - 1.0) < 1e-9 and abs(numeric - 1.0) < 1e-9),
    }


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FloquetReport:
    anchor: VegState
    monodromy: np.ndarray
    multipliers: np.ndarray
    rho_tg: float
    verdict: str
    residual: float
    boundary: str | None
    diagnostics: dict

    CSV_FIELDS = (
        "anchor_t_s", "anchor_t_ns", "anchor_g",
        "m11", "m12", "m13", "m21", "m22", "m23", "m31", "m32", "m33",
        "mult1_mod", "mult2_mod", "mult3_mod", "rho_tg", "verdict",
    )

    def to_csv(self) -> str:
        mods = sorted((abs(z) for z in self.multipliers), reverse=True)
        vals = [self.anchor.t_s, self.anchor.t_ns, self.anchor.g]
        vals += [self.monodromy[i, j] for i in range(3) for j in range(3)]
        vals += mods + [self.rho_tg]
        row = ",".join(f"{v:.17g}" for v in vals) + f",{self.verdict}"
        return ",".join(self.CSV_FIELDS) + "\n" + row + "\n"


def _verdict(rho: float) -> str:
    if abs(rho - 1.0) < 1e-9:
        return "marginal"
    return "stable" if rho < 1.0 else "unstable"


def floquet_report(p: ModelParams, guess: VegState | None = None,
                   n: int = DEFAULT_STEPS) -> FloquetReport:
    """Locate an orbit from ``guess`` and package its monodromy, multipliers
    and stability verdict.  Only the located orbit is analysed; the analytic
    grassland cross-check is ``grassland_agreement``."""
    if guess is None:
        guess = VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G)
    orbit = locate_savanna_orbit(p, guess, n=n)
    m = monodromy(p, orbit.anchor, n)
    eigs = cubic_eigenvalues(m)
    rho = float(np.max(np.abs(eigs)))
    diagnostics = {
        "converged": orbit.converged,
        "iterations": orbit.iterations,
        "newton_iterations": orbit.newton_iterations,
    }
    return FloquetReport(
        anchor=orbit.anchor, monodromy=m, multipliers=eigs, rho_tg=rho,
        verdict=_verdict(rho), residual=orbit.residual, boundary=orbit.boundary,
        diagnostics=diagnostics,
    )
