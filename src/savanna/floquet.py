"""Monodromy matrices, Floquet multipliers and periodic-orbit location.

The monodromy of a fire-period orbit is ``J(s_pre) @ Phi(tau)`` where ``Phi``
solves the variational equation ``Phi' = DF(orbit(t)) Phi`` along the orbit
(integrated jointly with the orbit by the fourth-order reference stepper) and
``J`` is the linearization of the fire map at the pre-fire state.  The orbit
is re-integrated on every call rather than interpolated from stored samples,
by RK4 on plain floats that carries the nine entries of ``Phi`` as named
floats and writes out the nine entries of ``DF @ Phi``, with no list built
per stage; its state update is the period map's, bit for bit.

``locate_savanna_orbit`` finds the fixed point of the period map (flow, then
fire) by fixed-point iteration until the residual is below
``1e-4 * max(K_T, K_G)`` and the contraction ratio has settled, then by
Newton steps.  The tight switch keeps Newton from jumping to a neighbouring
orbit.  Each Newton point is evaluated by one variational pass, which gives
both the period map there and the monodromy that the step from it solves
with (Kelley, *Iterative Methods for Linear and Nonlinear Equations*, SIAM
1995, chapter 5).  A first pass that does not shrink the residual, a pass
that diverges or a singular solve sends the location back to fixed-point
steps.  The zero sets of the trees (``T_S = T_NS = 0``) and of the grass
(``G = 0``) are invariant faces of the period map, and the grassland and
forest orbits lie on them: a step that would cross a face, or that starts
on one the period map keeps, ends on it, with the rest of the step solved
there (a projected Newton step; Bertsekas, SIAM J. Control Optim. 20,
1982), so those orbits are reached in a few steps and their zeros are
exact.  The period map runs the same float kernels as the variational
pass, and every point gets at most one pass: the located orbit carries the
pass at its anchor, which is its last Newton pass when that pass showed
convergence.  A ``ModelParams`` is checked when it is built; the public
entry points check only the step count.

The step counts do not depend on the steps per period ``n``, but each step
costs time linear in ``n``.  So the location climbs a ladder of rungs,
``16 * 4^k`` steps per period below ``n``, then ``n``, from the guess.  A
rung that converges sends it straight to ``n`` with its anchor and
monodromy (within O(rung^-4) of the ``n``-step ones): that anchor costs one
``n``-step period map, its step solves with that monodromy, and each later
point costs one ``n``-step pass, for unstable orbits too.  A rung that
stops unconverged hands its last point to the next rung; one that raises
``NumericalError`` hands on its start.  A rung raises where its map
diverges, or where its fixed point has an unclamped pre-fire state below
``simulate``'s floor: the period map clamps that state at 0 before the
fire, which makes fixed points with no orbit of the flow behind them.  At
``n`` the error propagates.  The converged rung's monodromy gives
``floquet_report`` a free error estimate of ``rho_tg``, as RK4 is fourth
order: ``|rho(r) - rho(n)| / ((n/r)^4 - 1)`` at ``r`` steps per period.

The spectral radius of the monodromy that the located orbit carries decides
local stability of the orbit that ``floquet_report`` locates.  The analytic
grassland multipliers are a separate cross-check: they exponentiate the
period-averaged Jacobian, exact only for commuting families, so
``grassland_agreement`` compares their verdict with the variational
monodromy's.
"""

from __future__ import annotations

import cmath
import math
import warnings
from collections import Counter
from dataclasses import dataclass, replace

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
    impulse_map,
)
from .integrate import _UNDERSHOOT_FLOOR, _rk4_step
from .thresholds import compute_thresholds, grassland_orbit_end

__all__ = [
    "FloquetReport", "OrbitResult", "jacobian", "jump_jacobian", "monodromy",
    "monodromy_full", "locate_savanna_orbit", "rho_tg", "cubic_eigenvalues",
    "grassland_multipliers_analytic", "grassland_agreement", "floquet_report",
]

DEFAULT_STEPS = 2048
_ORBIT_TOL = 1e-10        # period-map residual at which an orbit is located


def _require_steps(n: int) -> None:
    if n < 1:
        raise ValueError(f"steps per period must be at least 1, got {n}")


# ---------------------------------------------------------------------------
# jacobians
# ---------------------------------------------------------------------------

def jacobian(s: VegState, p: ModelParams) -> np.ndarray:
    """Exact Jacobian of the flow at ``s``."""
    j11, j12, j13, j32, j33 = _jacobian(s.t_s, s.t_ns, s.g, p)
    return np.array([[j11, j12, j13],
                     [p.omega_S, -p.mu_NS, 0.0],
                     [0.0, j32, j33]])


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

def _variational_rhs(ts, tns, g, f11, f12, f13, f21, f22, f23, f31, f32, f33,
                     p, j21, j22):
    """Right-hand side of the augmented system on plain floats: the flow,
    the nine entries of ``DF @ Phi`` (row-major) and ``trace DF``, as one
    flat tuple."""
    j11, j12, j13, j32, j33 = _jacobian(ts, tns, g, p)
    a, b, c = _rhs(ts, tns, g, p)
    return (
        a, b, c,
        j11 * f11 + j12 * f21 + j13 * f31,
        j11 * f12 + j12 * f22 + j13 * f32,
        j11 * f13 + j12 * f23 + j13 * f33,
        j21 * f11 + j22 * f21,
        j21 * f12 + j22 * f22,
        j21 * f13 + j22 * f23,
        j32 * f21 + j33 * f31,
        j32 * f22 + j33 * f32,
        j32 * f23 + j33 * f33,
        j11 + j22 + j33,
    )


def _flow_variational(p: ModelParams, anchor: VegState, n: int):
    """Returns (pre-fire state, Phi(tau), integral of trace DF, lowest
    component of the pre-fire state before its clamp at 0).

    Classical RK4 on floats, with the nine entries of ``Phi`` as named
    floats ``fij`` and their stage derivatives as ``uij``, ``vij``, ``wij``
    and ``zij`` (no per-stage lists); the state update is
    ``integrate._rk4_step``'s expression, so the pre-fire state equals the
    period map's bit for bit.
    """
    h = p.tau / n
    half = 0.5 * h
    sixth = h / 6.0
    j21, j22 = p.omega_S, -p.mu_NS
    ts, tns, g = anchor.t_s, anchor.t_ns, anchor.g
    f11, f12, f13, f21, f22, f23, f31, f32, f33 = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
    q = 0.0
    for _ in range(n):
        (a1, b1, c1, u11, u12, u13, u21, u22, u23, u31, u32, u33, q1) = _variational_rhs(
            ts, tns, g, f11, f12, f13, f21, f22, f23, f31, f32, f33, p, j21, j22)
        (a2, b2, c2, v11, v12, v13, v21, v22, v23, v31, v32, v33, q2) = _variational_rhs(
            ts + half * a1, tns + half * b1, g + half * c1,
            f11 + half * u11, f12 + half * u12, f13 + half * u13,
            f21 + half * u21, f22 + half * u22, f23 + half * u23,
            f31 + half * u31, f32 + half * u32, f33 + half * u33, p, j21, j22)
        (a3, b3, c3, w11, w12, w13, w21, w22, w23, w31, w32, w33, q3) = _variational_rhs(
            ts + half * a2, tns + half * b2, g + half * c2,
            f11 + half * v11, f12 + half * v12, f13 + half * v13,
            f21 + half * v21, f22 + half * v22, f23 + half * v23,
            f31 + half * v31, f32 + half * v32, f33 + half * v33, p, j21, j22)
        (a4, b4, c4, z11, z12, z13, z21, z22, z23, z31, z32, z33, q4) = _variational_rhs(
            ts + h * a3, tns + h * b3, g + h * c3,
            f11 + h * w11, f12 + h * w12, f13 + h * w13,
            f21 + h * w21, f22 + h * w22, f23 + h * w23,
            f31 + h * w31, f32 + h * w32, f33 + h * w33, p, j21, j22)
        ts = ts + sixth * (a1 + 2.0 * (a2 + a3) + a4)
        tns = tns + sixth * (b1 + 2.0 * (b2 + b3) + b4)
        g = g + sixth * (c1 + 2.0 * (c2 + c3) + c4)
        f11 = f11 + sixth * (u11 + 2.0 * (v11 + w11) + z11)
        f12 = f12 + sixth * (u12 + 2.0 * (v12 + w12) + z12)
        f13 = f13 + sixth * (u13 + 2.0 * (v13 + w13) + z13)
        f21 = f21 + sixth * (u21 + 2.0 * (v21 + w21) + z21)
        f22 = f22 + sixth * (u22 + 2.0 * (v22 + w22) + z22)
        f23 = f23 + sixth * (u23 + 2.0 * (v23 + w23) + z23)
        f31 = f31 + sixth * (u31 + 2.0 * (v31 + w31) + z31)
        f32 = f32 + sixth * (u32 + 2.0 * (v32 + w32) + z32)
        f33 = f33 + sixth * (u33 + 2.0 * (v33 + w33) + z33)
        q = q + sixth * (q1 + 2.0 * (q2 + q3) + q4)
    if not (math.isfinite(ts) and math.isfinite(tns) and math.isfinite(g)):
        raise NumericalError("orbit escaped during variational integration")
    pre = VegState(max(ts, 0.0), max(tns, 0.0), max(g, 0.0))
    phi = np.array([[f11, f12, f13], [f21, f22, f23], [f31, f32, f33]])
    return pre, phi, q, min(ts, tns, g)


@dataclass(frozen=True)
class MonodromyResult:
    matrix: np.ndarray
    pre_fire_state: VegState
    fundamental: np.ndarray       # Phi(tau), flow part only
    trace_integral: float         # integral of trace DF over one period
    unclamped_min: float          # lowest pre-fire component before the clamp at 0


def monodromy_full(p: ModelParams, anchor: VegState,
                   n: int = DEFAULT_STEPS) -> MonodromyResult:
    """One variational pass from ``anchor``: the monodromy with the pre-fire
    state, ``Phi(tau)`` and the trace integral it came from."""
    _require_steps(n)
    pre, phi, q, low = _flow_variational(p, anchor, n)
    m = jump_jacobian(pre, p) @ phi
    return MonodromyResult(matrix=m, pre_fire_state=pre, fundamental=phi,
                           trace_integral=q, unclamped_min=low)


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
    iterations: int               # period maps: fixed-point steps and the map at a given monodromy
    newton_iterations: int        # Newton points, one variational pass each
    boundary: str | None          # "desert"/"forest"/"grassland" if not interior
    clamped: int                  # Newton steps that ended on a face
    monodromy: MonodromyResult    # the variational pass at ``anchor``
    coarse_monodromy: MonodromyResult | None   # the converged coarse rung's pass
    coarse_steps: int | None      # that rung's steps per period

    @property
    def interior(self) -> bool:
        return self.boundary is None


def _period_map(p: ModelParams, x: np.ndarray, n: int) -> np.ndarray:
    ts, tns, g = x.tolist()       # plain floats, as in the variational pass
    h = p.tau / n
    for _ in range(n):
        ts, tns, g = _rk4_step(ts, tns, g, p, h)
    if not (math.isfinite(ts) and math.isfinite(tns) and math.isfinite(g)):
        raise NumericalError("period map diverged")
    ts, tns, g = _impulse(max(ts, 0.0), max(tns, 0.0), max(g, 0.0), p)
    return np.array([ts, tns, g])


_BOUNDARY_REL = 1e-6                # a component below this share of its capacity is 0


def _boundary_label(x: np.ndarray, p: ModelParams) -> str | None:
    tree_zero = x[0] < _BOUNDARY_REL * p.K_T and x[1] < _BOUNDARY_REL * p.K_T
    grass_zero = x[2] < _BOUNDARY_REL * p.K_G
    if tree_zero and grass_zero:
        return "desert"
    if tree_zero:
        return "grassland"
    if grass_zero:
        return "forest"
    return None


def locate_savanna_orbit(p: ModelParams, guess: VegState, *, max_iter: int = 600,
                         n: int = DEFAULT_STEPS) -> OrbitResult:
    """Find a fixed point of the period map (flow over one period, then fire).

    ``_locate_at`` runs on each rung of the ladder (module docstring) in
    turn.  The anchor, residual, boundary and ``monodromy`` are the
    ``n``-step rung's; ``iterations``, ``newton_iterations`` and ``clamped``
    are totals over every rung, also one that raised, and ``max_iter`` bounds
    each rung.  The existence warning is issued once per call.
    """
    rep = compute_thresholds(p)
    _require_steps(n)
    if not rep.savanna_existence_condition:
        warnings.warn(
            "savanna existence condition fails (needs rho_g0 > 1, and r_g0 > 1"
            " when mu_G > 0); attempting orbit location anyway",
            stacklevel=2,
        )
    start, m, steps, coarse, coarse_steps, tally = guess, None, 16, None, None, Counter()
    while True:
        rung = min(steps, n)
        try:
            orbit = _locate_at(p, start, max_iter, rung, m, tally)
        except NumericalError:
            if rung == n:
                raise
            steps *= 4
            continue
        if rung == n:
            return replace(orbit, **tally, coarse_monodromy=coarse, coarse_steps=coarse_steps)
        start, steps = orbit.anchor, 4 * steps
        if orbit.converged:
            coarse, coarse_steps, m, steps = orbit.monodromy, rung, orbit.monodromy.matrix, n


def _face_step(a, x, px):
    """The Newton step ``delta`` of ``a @ delta = px - x`` from ``x``, with
    ``a = I - M`` and ``px = P(x)``, projected on the invariant faces.

    The components fall into two groups, the trees ``[0, 1]`` and the grass
    ``[2]``.  A group that the full step would push below 0, or that is
    exactly 0 in both ``x`` and ``px``, steps to 0 (``delta = -x`` there,
    so its zeros are exact), and the other rows are solved with that group
    held at 0.  Returns the step and whether any group stepped onto its
    face.
    """
    r = px - x
    delta = np.linalg.solve(a, r)
    zero = [i for g in ([0, 1], [2]) for i in g
            if np.any(x[g] + delta[g] < 0.0) or not (np.any(x[g]) or np.any(px[g]))]
    if zero:
        free = [i for i in range(3) if i not in zero]
        delta[zero] = -x[zero]
        delta[free] = np.linalg.solve(a[np.ix_(free, free)],
                                      r[free] + a[np.ix_(free, zero)] @ x[zero])
    return delta, bool(zero)


def _locate_at(p: ModelParams, guess: VegState, max_iter: int, n: int,
               m: np.ndarray | None = None, tally: Counter | None = None) -> OrbitResult:
    """One location of the ``n``-step fixed point from ``guess``.

    Fixed-point iteration runs until it is in the basin of the fixed point it
    is heading for: the residual ``res_k = |P(x) - x|`` is below
    ``1e-4 * max(K_T, K_G)`` and the contraction ratio
    ``r_k = res_k / res_{k-1}`` has settled (``|r_k - r_{k-1}| < 0.05`` and
    ``r_k < 1``).  A looser switch lets Newton jump to a neighbouring orbit
    (a forest instead of a grassland orbit, say).  A monodromy ``m``, when
    given, skips that phase: its steps start at ``guess``.

    Newton steps on ``P(x) - x = 0`` then finish the location (Kelley,
    *Iterative Methods for Linear and Nonlinear Equations*, SIAM 1995,
    chapter 5).  Each point is evaluated by one variational pass, which
    gives both ``P(x)`` and the monodromy ``M`` that the step from ``x``
    solves with, ``I - M``.  The one exception is a given ``m``: ``guess``
    is evaluated by one period map, and its step solves with ``I - m``.
    Steps go through ``_face_step``: a step that would cross the tree or the
    grass face, or that starts on a face the period map keeps, ends on that
    face and is counted in ``clamped``; any other component the step leaves
    negative is set to 0.  The first pass after fixed-point steps must bring
    the residual below the last fixed-point residual; every later point is
    kept whatever its residual.  If that first pass does not shrink the
    residual, if a pass raises ``NumericalError`` or if a solve is singular,
    the iteration goes back to fixed-point steps from the image of the last
    accepted point, and they must settle again before the next Newton step.
    Convergence to a boundary solution is reported by name, not as an
    error.  The orbit is located when the residual is below ``_ORBIT_TOL``
    (1e-10).  ``iterations`` counts the period maps (fixed-point steps and
    the map at a given ``m``) and ``newton_iterations`` the passes at Newton
    points, and each stops at ``max_iter``.  A given ``tally`` gets these
    counts and ``clamped`` added, also when the location raises.

    ``monodromy`` holds the variational pass at the anchor: the last Newton
    pass when it showed convergence, else one more pass at the anchor (after
    a period map showed convergence, or when ``max_iter`` ran out).  A
    located point whose pre-fire state there is below ``simulate``'s floor
    before the clamp at 0 is not an orbit of the flow: it raises
    ``NumericalError``.
    """
    basin = 1e-4 * max(p.K_T, p.K_G)
    x = fallback = guess.as_array().astype(float)
    residual = bound = math.inf           # a Newton point is kept if its residual is below bound
    prev_residual = ratio = math.nan      # no history yet: every test is False
    iterations = newton_used = clamped = 0
    newton, at_anchor = m is not None, None
    try:
        while iterations < max_iter and newton_used < max_iter:
            if not newton:
                iterations += 1
                px = _period_map(p, x, n)
                residual = float(np.linalg.norm(px - x))
                x = px
                if residual < _ORBIT_TOL:
                    break
                prev_ratio, ratio = ratio, residual / prev_residual if prev_residual else math.nan
                prev_residual = residual
                if residual < basin and ratio < 1.0 and abs(ratio - prev_ratio) < 0.05:
                    # the last fixed-point step is the fallback of the first pass;
                    # fixed-point steps after a Newton step must settle again
                    newton, bound, fallback, prev_residual = True, residual, x, math.nan
                continue
            try:
                if m is None:
                    newton_used += 1
                    full = monodromy_full(p, VegState.from_array(x), n)
                    px, a = impulse_map(full.pre_fire_state, p).as_array(), np.eye(3) - full.matrix
                else:
                    iterations += 1
                    full, px, a, m = None, _period_map(p, x, n), np.eye(3) - m, None
                step_residual = float(np.linalg.norm(px - x))
                if step_residual < _ORBIT_TOL:
                    # x has no negative component, so it is the anchor
                    residual, at_anchor = step_residual, full
                    break
                if step_residual < bound:
                    residual, bound, fallback = step_residual, math.inf, px
                    delta, on_face = _face_step(a, x, px)
                    x = np.maximum(x + delta, 0.0)
                    clamped += on_face
                    continue
            except (NumericalError, np.linalg.LinAlgError):
                pass
            x, newton = fallback, False       # back to fixed-point steps
        anchor = VegState.from_array(x)
        if at_anchor is None:
            at_anchor = monodromy_full(p, anchor, n)
        low = at_anchor.unclamped_min
        if residual < _ORBIT_TOL and low < -_UNDERSHOOT_FLOOR * max(p.K_T, p.K_G):
            raise NumericalError(f"the fixed point at {n} steps per period is not an orbit: its "
                                 f"pre-fire state has a component of {low:.3g} before the clamp")
    finally:
        if tally is not None:
            tally.update(iterations=iterations, newton_iterations=newton_used, clamped=clamped)
    return OrbitResult(
        anchor=anchor,
        converged=residual < _ORBIT_TOL,
        residual=residual,
        iterations=iterations,
        newton_iterations=newton_used,
        boundary=_boundary_label(x, p),
        clamped=clamped,
        monodromy=at_anchor,
        coarse_monodromy=None,
        coarse_steps=None,
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
    # the trees are exactly 0 at the anchor and stay 0 whatever the grass, so
    # M[0:2, 2] == 0: M is block triangular and M[:2, :2] holds the tree pair
    numeric = float(np.max(np.abs(np.linalg.eigvals(monodromy(p, anchor, n)[:2, :2]))))
    xi3 = 1.0 / rep.rho_g0
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
        mods = [abs(z) for z in self.multipliers]      # descending already
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
    grassland cross-check is ``grassland_agreement``.

    ``diagnostics`` holds the location's counters (totals over its rungs),
    ``coarse_steps`` (the converged coarse rung's steps per period, or None
    without one) and ``rho_tg_error``, the error estimate of ``rho_tg`` from
    that rung's monodromy (None without one).  ``cubic_eigenvalues`` runs
    once, on the located orbit's monodromy; the coarse radius feeds only the
    error estimate."""
    if guess is None:
        guess = VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G)
    orbit = locate_savanna_orbit(p, guess, n=n)
    m = orbit.monodromy.matrix
    eigs = cubic_eigenvalues(m)
    rho = float(np.max(np.abs(eigs)))
    diagnostics = {
        "converged": orbit.converged,
        "iterations": orbit.iterations,
        "newton_iterations": orbit.newton_iterations,
        "clamped": orbit.clamped,
        "coarse_steps": orbit.coarse_steps,
        "rho_tg_error": None,
    }
    if orbit.coarse_monodromy is not None:
        # RK4 is fourth order: rho(h) = rho + C h^4, so rho(r) - rho(n) is
        # (n/r)^4 - 1 times the error of rho(n)
        coarse_rho = float(np.max(np.abs(np.linalg.eigvals(orbit.coarse_monodromy.matrix))))
        diagnostics["rho_tg_error"] = abs(coarse_rho - rho) / ((n / orbit.coarse_steps) ** 4 - 1.0)
    return FloquetReport(
        anchor=orbit.anchor, monodromy=m, multipliers=eigs, rho_tg=rho,
        verdict=_verdict(rho), residual=orbit.residual, boundary=orbit.boundary,
        diagnostics=diagnostics,
    )
