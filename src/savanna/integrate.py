"""Time stepping for the flow-plus-fire system.

Two schemes are provided:

* ``nsfd`` - the positivity-preserving scheme whose denominator functions are
  matched to the dominant linear rates.  The grass update is exact on the
  grass-only subsystem, and the desert and forest equilibria are fixed points
  for every step size.
* ``reference`` - classical fixed-step fourth-order Runge-Kutta, used as the
  accuracy oracle between fires.

The NSFD tree step keeps ``T_S + T_NS <= K_T`` for every ``h > 0``.  By
Mickens' rule for nonlocal terms (R. E. Mickens, *Nonstandard Finite
Difference Models of Differential Equations*, 1994), production
``P = gamma_S T_S + gamma_NS T_NS'`` and the crowding loss
``P (T_S' + T_NS') / K_T`` use the new values (primed), so the tree sum
``Sigma`` obeys ``Sigma' (1 + phi P / K_T) = Sigma + phi P - phi (mu_S T_S +
mu_NS T_NS' + sigma_G G T_S')`` with ``phi > 0``.  The last bracket is
nonnegative on a nonnegative state, so ``Sigma <= K_T`` gives
``Sigma' <= K_T``.

``simulate`` snaps the step to an exact divisor of the fire period, so fires
land on grid nodes, and runs one step loop with one pass per period: each
pass takes the period's grid steps and applies the fire map at its end, and
a last pass without a fire takes the grid steps left after the last fire.  A
horizon off the grid ends with one shorter step.  Each step's state goes to
``_sanitize`` only when a component is negative or not finite.  Every sample
is kept in memory as four floats of one flat store, 32 bytes a sample, with
no ``VegState`` per step, so ``simulate`` refuses runs with ``horizon / h``
above ``MAX_SAMPLES`` (10^7).  ``Trajectory.to_csv`` formats the rows
between two fires in blocks, one ``%`` call per block.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property

from .model import (
    ModelParams,
    NumericalError,
    VegState,
    _impulse,
    _rhs,
)

__all__ = [
    "DenominatorFunctions", "Trajectory", "denominators", "nsfd_step",
    "reference_step", "simulate",
]

MAX_SAMPLES = 10**7     # horizon / h; each kept sample is four floats, 32 bytes
_UNDERSHOOT_FLOOR = 1e-9  # a state below -this * max(K_T, K_G) has left the feasible region
_ROW = "%.17g,%.17g,%.17g,%.17g,\n"
_FIRE_ROWS = "%.17g,%.17g,%.17g,%.17g,pre_fire\n%.17g,%.17g,%.17g,%.17g,post_fire\n"
_BLOCK_ROWS = 1024        # CSV rows formatted by one % call


@dataclass(frozen=True)
class DenominatorFunctions:
    """NSFD denominators phi (trees) and phi_G (grass) for one step size."""

    q: float
    phi: float
    phi_g: float


def denominators(p: ModelParams, h: float) -> DenominatorFunctions:
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    q = max(p.mu_NS, p.gamma_S - (p.mu_S + p.omega_S))
    phi = math.expm1(q * h) / q if q != 0.0 else h
    rate = p.gamma_G - p.mu_G
    phi_g = math.expm1(rate * h) / rate if rate != 0.0 else h
    return DenominatorFunctions(q=q, phi=phi, phi_g=phi_g)


def _nsfd_step(ts: float, tns: float, g: float, p: ModelParams,
               phi: float, phi_g: float):
    """One NSFD update on plain floats.  Order matters: grass first (from the
    old T_NS), then mature trees (from the old T_S), then sensitive trees
    (from the new T_NS, which also sets the crowding term, and the old
    grass)."""
    rate = p.gamma_G - p.mu_G
    g_den = 1.0 + phi_g * (p.gamma_G * g / p.K_G + p.sigma_NS * tns)
    if g_den <= 0.0:
        # only reachable with facilitation (sigma_NS < 0) and a large step
        raise NumericalError(
            "grass update denominator is nonpositive (facilitation term "
            f"sigma_NS*T_NS = {p.sigma_NS * tns:.3g} dominates); reduce the step"
        )
    # 1 + phi_g*rate == exp(rate*h), keeping the grass step exact
    g_new = g * (1.0 + phi_g * rate) / g_den
    tns_new = (tns + phi * p.omega_S * ts) / (1.0 + phi * p.mu_NS)
    crowd = (p.gamma_S * ts + p.gamma_NS * tns_new) / p.K_T
    ts_new = (
        ts * (1.0 + phi * (p.gamma_S - p.mu_S - p.omega_S))
        + phi * tns_new * (p.gamma_NS - crowd)
    ) / (1.0 + phi * (crowd + p.sigma_G * g))
    return ts_new, tns_new, g_new


def nsfd_step(s: VegState, p: ModelParams, h: float) -> VegState:
    d = denominators(p, h)
    return VegState(*_nsfd_step(s.t_s, s.t_ns, s.g, p, d.phi, d.phi_g))


def _rk4_step(ts: float, tns: float, g: float, p: ModelParams, h: float):
    a1, b1, c1 = _rhs(ts, tns, g, p)
    a2, b2, c2 = _rhs(ts + 0.5 * h * a1, tns + 0.5 * h * b1, g + 0.5 * h * c1, p)
    a3, b3, c3 = _rhs(ts + 0.5 * h * a2, tns + 0.5 * h * b2, g + 0.5 * h * c2, p)
    a4, b4, c4 = _rhs(ts + h * a3, tns + h * b3, g + h * c3, p)
    sixth = h / 6.0
    return (
        ts + sixth * (a1 + 2.0 * (a2 + a3) + a4),
        tns + sixth * (b1 + 2.0 * (b2 + b3) + b4),
        g + sixth * (c1 + 2.0 * (c2 + c3) + c4),
    )


def _stepper(p: ModelParams, scheme: str, h: float):
    """``scheme``'s update on plain floats for the fixed step ``h``."""
    if scheme == "reference":
        return lambda ts, tns, g: _rk4_step(ts, tns, g, p, h)
    d = denominators(p, h)
    return lambda ts, tns, g: _nsfd_step(ts, tns, g, p, d.phi, d.phi_g)


def reference_step(s: VegState, p: ModelParams, h: float) -> VegState:
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    ts, tns, g = _rk4_step(s.t_s, s.t_ns, s.g, p, h)
    return VegState(ts, tns, g)


@dataclass(frozen=True)
class Trajectory:
    """Sampled run: grid samples plus explicit pre/post states at each fire.

    The grid samples are kept flat, ``t, T_S, T_NS, G`` for each in turn, in
    one ``array('d')`` of 32 bytes per sample; ``_fire_rows`` holds the
    sample index of each fire.  ``samples`` is the ``(t, VegState)`` view of
    that store, built on first access.  At fire times the stored sample is
    the post-fire state (right-continuous convention) and the matching
    ``impulse_records`` entry carries both sides.
    """

    _rows: array = field(repr=False, hash=False)    # an array is unhashable
    _fire_rows: tuple[int, ...]
    impulse_records: tuple[tuple[float, VegState, VegState], ...]
    h_requested: float
    h_effective: float
    scheme: str

    @cached_property
    def samples(self) -> tuple[tuple[float, VegState], ...]:
        it = iter(self._rows)
        return tuple((t, VegState(ts, tns, g)) for t, ts, tns, g in zip(it, it, it, it))

    def to_csv(self) -> str:
        """One row per sample; a fire time gets its pre-fire row, then the
        sample as its post-fire row.  The rows between two fires are
        formatted ``_BLOCK_ROWS`` at a time."""
        rows, start = self._rows, 0
        parts = ["t,T_S,T_NS,G,event\n"]
        for stop, fire in zip((*self._fire_rows, len(rows) // 4), (*self.impulse_records, None)):
            for a in range(start, stop, _BLOCK_ROWS):
                b = min(stop, a + _BLOCK_ROWS)
                parts.append((_ROW * (b - a)) % tuple(rows[4 * a:4 * b]))
            if fire is not None:
                t, pre, post = fire
                parts.append(_FIRE_ROWS % (t, pre.t_s, pre.t_ns, pre.g,
                                           t, post.t_s, post.t_ns, post.g))
            start = stop + 1
        return "".join(parts)

    def final_state(self) -> VegState:
        return VegState(*self._rows[-3:])


def _sanitize(ts, tns, g, t, floor):
    """Zero out integrator undershoot just below 0; fail loudly otherwise.

    The reference scheme is not positivity preserving, so decaying
    compartments may dip a rounding-sized amount below zero; anything larger
    (or non-finite) means the run has genuinely left the feasible cone.
    """
    if not (math.isfinite(ts) and math.isfinite(tns) and math.isfinite(g)):
        raise NumericalError(f"state became non-finite at t = {t:.6g}")
    if ts < 0.0 or tns < 0.0 or g < 0.0:
        for v in (ts, tns, g):
            if v < -floor:
                raise NumericalError(
                    f"state left the feasible region at t = {t:.6g} "
                    f"(component {v:.3g})"
                )
        return tuple(0.0 if v < 0.0 else v for v in (ts, tns, g))
    return ts, tns, g


def simulate(p: ModelParams, s0: VegState, horizon: float, h: float,
             scheme: str = "nsfd") -> Trajectory:
    """Integrate from ``s0`` over ``[0, horizon]`` with fires at every
    multiple of the fire period.

    The requested step is coerced to tau/m with m = ceil(tau/h) so fire times
    are grid nodes; the effective step is recorded on the trajectory.  One
    step loop makes a pass per whole period, ending in a fire, and one more
    pass without a fire over the grid steps after the last fire (fewer than
    m).  If the horizon is not a grid node, one shorter step ends the run
    there.  Output is deterministic for identical inputs.
    """
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"step h must be positive and finite, got {h}")
    if scheme not in ("nsfd", "reference"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if not horizon / h <= MAX_SAMPLES:
        raise ValueError(
            f"the run would keep horizon / h = {horizon / h:.3g} samples; the cap "
            f"is {MAX_SAMPLES:.0e} (use a longer step or a shorter horizon)")

    m = max(1, math.ceil(p.tau / h - 1e-12))
    h_eff = p.tau / m
    step = _stepper(p, scheme, h_eff)

    n_periods = int(math.floor(horizon / p.tau + 1e-9))
    remainder = horizon - n_periods * p.tau
    if remainder < 1e-9 * p.tau:
        remainder = 0.0
    n_rem = int(math.floor(remainder / h_eff + 1e-12))    # grid steps after the last fire; < m
    floor = _UNDERSHOOT_FLOOR * max(p.K_T, p.K_G)

    ts, tns, g = s0.t_s, s0.t_ns, s0.g
    rows = array("d", (0.0, ts, tns, g))
    fire_rows: list[int] = []
    impulses: list[tuple[float, VegState, VegState]] = []

    for k in range(n_periods + 1):
        base = k * p.tau
        fire = k < n_periods
        for j in range(1, m + 1 if fire else n_rem + 1):
            ts, tns, g = step(ts, tns, g)
            t = base + j * h_eff if j < m else (k + 1) * p.tau
            # NaN fails every comparison; +inf, and only an overflowing sum,
            # fails the last one, so _sanitize sees every state it could act on
            if not (ts >= 0.0 and tns >= 0.0 and g >= 0.0 and ts + tns + g < math.inf):
                ts, tns, g = _sanitize(ts, tns, g, t, floor)
            if j < m:
                rows.extend((t, ts, tns, g))
        if fire:
            pre = VegState(ts, tns, g)
            ts, tns, g = _impulse(ts, tns, g, p)
            post = VegState(ts, tns, g)
            impulses.append((t, pre, post))
            fire_rows.append(len(rows) // 4)
            rows.extend((t, ts, tns, g))

    last = remainder - n_rem * h_eff
    if last > 1e-12 * p.tau:
        ts, tns, g = _stepper(p, scheme, last)(ts, tns, g)
        ts, tns, g = _sanitize(ts, tns, g, horizon, floor)
        rows.extend((horizon, ts, tns, g))

    return Trajectory(rows, tuple(fire_rows), impulse_records=tuple(impulses),
                      h_requested=h, h_effective=h_eff, scheme=scheme)
