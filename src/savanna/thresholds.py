"""Closed-form thresholds, equilibria, the grassland periodic solution and the
qualitative classification of the long-run vegetation outcome.

Naming of the scalar quantities (report fields):

===========  ================================================================
``r_t0``     woody reproduction number without fire or grass competition
``r_g0``     grass reproduction number gamma_G/mu_G (undefined for mu_G=0)
``rho_g0``   per-fire-period residual growth factor of grass
``g_int``    period average of the grassland orbit (formal value of the
             closed form; meaningful when ``rho_g0 > 1``)
``r_g_t``    tree invasion number against the grassland orbit
``r``        auxiliary ratio entering the trace coefficient ``a_coef``
``a_coef``   trace of the period-integrated tree block (quadratic coefficient)
``b_coef``   determinant of the period-integrated tree block
``lambda1``  root of x^2 - a_coef*x + b_coef with the larger real part
``lambda2``  the other root
``rho_t``    grassland-orbit stability factor built from lambda1, lambda2
``r_t_g``    grass invasion number against the forest equilibrium
``rho_t_g``  forest-equilibrium stability factor under fires
===========  ================================================================

Every grassland formula uses the net grass rate ``gamma_G - mu_G``, never
``r_g0``, so ``mu_G = 0`` needs no branch and the ``mu_G -> 0`` limit is
continuous.

The classification follows an eleven-case table (both reproduction numbers
above one) plus global-stability verdicts for the remaining quadrants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    ModelParams,
    ParameterError,
    VegState,
    fire_intensity,
    require_valid,
)

DEGENERATE_TOL = 1e-9


class ThresholdError(ValueError):
    """Raised when an operation's existence precondition fails."""


# ---------------------------------------------------------------------------
# report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdReport:
    r_t0: float
    r_g0: float | None           # None when mu_G = 0
    rho_g0: float
    g_int: float                 # formal closed-form value
    r_g_t: float
    r: float
    a_coef: float
    b_coef: float
    lambda1: complex
    lambda2: complex
    rho_t: float
    r_t_g: float | None          # None when the forest equilibrium is absent
    rho_t_g: float | None
    forest_eq: VegState | None
    grassland_exists: bool
    forest_exists: bool
    savanna_existence_condition: bool
    classification: str

    # fixed CSV field order; complex roots are split into re/im columns
    CSV_FIELDS = (
        "r_t0", "r_g0", "rho_g0", "g_int", "r_g_t", "r", "a_coef", "b_coef",
        "lambda1_re", "lambda1_im", "lambda2_re", "lambda2_im", "rho_t",
        "r_t_g", "rho_t_g", "t_s_bar", "t_ns_bar", "grassland_exists",
        "forest_exists", "savanna_existence_condition", "classification",
    )

    def csv_row(self) -> dict[str, str]:
        def num(v):
            return "undefined" if v is None else f"{v:.17g}"

        return {
            "r_t0": num(self.r_t0),
            "r_g0": num(self.r_g0),
            "rho_g0": num(self.rho_g0),
            "g_int": num(self.g_int),
            "r_g_t": num(self.r_g_t),
            "r": num(self.r),
            "a_coef": num(self.a_coef),
            "b_coef": num(self.b_coef),
            "lambda1_re": num(self.lambda1.real),
            "lambda1_im": num(self.lambda1.imag),
            "lambda2_re": num(self.lambda2.real),
            "lambda2_im": num(self.lambda2.imag),
            "rho_t": num(self.rho_t),
            "r_t_g": num(self.r_t_g),
            "rho_t_g": num(self.rho_t_g),
            "t_s_bar": num(self.forest_eq.t_s if self.forest_eq else None),
            "t_ns_bar": num(self.forest_eq.t_ns if self.forest_eq else None),
            "grassland_exists": str(int(self.grassland_exists)),
            "forest_exists": str(int(self.forest_exists)),
            "savanna_existence_condition": str(int(self.savanna_existence_condition)),
            "classification": self.classification,
        }

    def to_csv(self) -> str:
        row = self.csv_row()
        header = ",".join(self.CSV_FIELDS)
        return header + "\n" + ",".join(row[f] for f in self.CSV_FIELDS) + "\n"

    def to_text(self) -> str:
        def num(v):
            return "undefined" if v is None else f"{v:.6g}"

        eq = self.forest_eq
        lines = [
            f"woody reproduction number        r_t0    = {num(self.r_t0)}",
            f"grass reproduction number        r_g0    = {num(self.r_g0)}",
            f"grass per-period residual        rho_g0  = {num(self.rho_g0)}",
            f"grassland orbit period average   g_int   = {num(self.g_int)}",
            f"tree invasion of grassland       r_g_t   = {num(self.r_g_t)}",
            f"trace/det coefficients           a, b    = {num(self.a_coef)}, {num(self.b_coef)}",
            f"tree-block roots                 lambda  = {self.lambda1:.6g}, {self.lambda2:.6g}",
            f"grassland stability factor       rho_t   = {num(self.rho_t)}",
            f"grass invasion of forest         r_t_g   = {num(self.r_t_g)}",
            f"forest stability factor          rho_t_g = {num(self.rho_t_g)}",
            f"forest equilibrium               (T_S, T_NS) = "
            + ("undefined" if eq is None else f"({eq.t_s:.6g}, {eq.t_ns:.6g})"),
            f"grassland orbit exists:  {self.grassland_exists}",
            f"forest equilibrium exists: {self.forest_exists}",
            f"savanna orbit existence condition: {self.savanna_existence_condition}",
            f"classification: {self.classification}",
        ]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Classification:
    """Case label plus per-solution local verdicts."""

    label: str
    case: int | None
    e_t: str
    e_g: str
    savanna: str


@dataclass(frozen=True)
class CriticalValues:
    """Bifurcation anchors: parameter values where a stability factor is 1."""

    sigma_g_star: float | None
    sigma_ns_star: float | None
    tau_star: float | None


@dataclass(frozen=True)
class SigmaNSEstimation:
    delta_g: float
    gamma_g: float
    k_t: float
    epsilon: float
    cover_area: float
    t_tilde: float
    sigma_ns: float


# ---------------------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------------------

def _grass_rate(p: ModelParams) -> float:
    """Net exponential grass rate gamma_G - mu_G (equals mu_G*(r_g0 - 1))."""
    return p.gamma_G - p.mu_G


def _rho_g0(p: ModelParams) -> float:
    return (1.0 - p.eta_G) * math.exp(_grass_rate(p) * p.tau)


def _g_int(p: ModelParams) -> float:
    return (p.K_G / p.gamma_G) * (math.log(1.0 - p.eta_G) + _grass_rate(p) * p.tau) / p.tau


def _forest_eq(p: ModelParams, r_t0: float) -> VegState | None:
    if r_t0 <= 1.0:
        return None
    t_s = p.K_T * p.mu_NS / (p.mu_NS + p.omega_S) * (1.0 - 1.0 / r_t0)
    t_ns = p.omega_S / p.mu_NS * t_s
    return VegState(t_s, t_ns, 0.0)


def _quadratic_roots(a: float, b: float) -> tuple[complex, complex]:
    """Roots of x^2 - a x + b, largest real part first; stable evaluation."""
    disc = a * a - 4.0 * b
    if disc >= 0.0:
        sq = math.sqrt(disc)
        # avoid cancellation: compute the larger-magnitude root first
        if a >= 0.0:
            big = (a + sq) / 2.0
        else:
            big = (a - sq) / 2.0
        other = b / big if big != 0.0 else a - big
        lo, hi = sorted((big, other))
        return complex(hi), complex(lo)
    sq = math.sqrt(-disc)
    return complex(a / 2.0, sq / 2.0), complex(a / 2.0, -sq / 2.0)


def _require_r_g0(p: ModelParams, what: str) -> None:
    """Raise unless gamma_G > mu_G, i.e. r_g0 > 1 (always so when mu_G = 0)."""
    if _grass_rate(p) <= 0.0:
        raise ThresholdError(
            f"{what} requires r_g0 > 1; got r_g0 = {p.gamma_G / p.mu_G:.6g}"
        )


def _grassland_at(p: ModelParams, tt: float) -> float:
    """G*(tt) for tt in [0, tau]: post-fire at tt = 0, pre-fire at tt = tau."""
    _require_r_g0(p, "grassland orbit")
    rho = _rho_g0(p)
    if rho <= 1.0:
        raise ThresholdError(
            f"grassland orbit requires rho_g0 > 1; got rho_g0 = {rho:.6g}"
        )
    lead = p.K_G * (1.0 - p.mu_G / p.gamma_G) * (rho - 1.0)
    decay = math.exp(-_grass_rate(p) * (tt - p.tau))
    return lead / ((rho - 1.0) + p.eta_G * decay)


def grassland_orbit_end(p: ModelParams) -> float:
    """Pre-fire grass level G*(tau-) of the grassland orbit."""
    return _grassland_at(p, p.tau)


def grassland_orbit(p: ModelParams, t: float) -> float:
    """Grass level G*(t) of the periodic grassland solution.

    The closed form is evaluated on one period and extended periodically;
    at multiples of tau the post-fire (right-continuous) value is returned.
    Raises ThresholdError, naming the violated threshold, when the orbit
    does not exist.
    """
    return _grassland_at(p, t % p.tau)


# ---------------------------------------------------------------------------
# main computations
# ---------------------------------------------------------------------------

def compute_thresholds(p: ModelParams) -> ThresholdReport:
    """Evaluate every threshold, the equilibria and the case classification.

    All algebraic quantities are evaluated from their closed forms even in
    regimes where the underlying solution does not exist (the existence flags
    say so); quantities whose defining equilibrium is absent (``r_t_g``,
    ``rho_t_g`` without a forest) are None.
    """
    require_valid(p)

    r_t0 = (p.gamma_S * p.mu_NS + p.gamma_NS * p.omega_S) / (
        p.mu_NS * (p.mu_S + p.omega_S)
    )
    r_g0 = p.gamma_G / p.mu_G if p.mu_G > 0 else None
    rho_g0 = _rho_g0(p)
    g_int = _g_int(p)

    grassland_exists = rho_g0 > 1.0 and _grass_rate(p) > 0.0

    # tree block averaged over one grassland period
    denom_rgt = p.mu_NS * (p.mu_S + p.omega_S) + p.mu_NS * p.sigma_G * g_int
    num_rgt = p.gamma_S * p.mu_NS + p.omega_S * p.gamma_NS
    r_g_t = num_rgt / denom_rgt if denom_rgt != 0.0 else math.inf
    denom_r = p.mu_S + p.omega_S + p.mu_NS + p.sigma_G * g_int
    r = p.gamma_S / denom_r if denom_r != 0.0 else math.inf
    a_coef = p.tau * (p.gamma_S - denom_r)
    b_coef = p.tau * p.tau * (p.mu_NS * (p.mu_S + p.omega_S + p.sigma_G * g_int) - num_rgt)
    lambda1, lambda2 = _quadratic_roots(a_coef, b_coef)

    # the fire-size factor uses the orbit's pre-fire grass level; when the
    # orbit degenerates (rho_g0 <= 1) grass dies out and the factor is w(0)=0
    g_end = grassland_orbit_end(p) if grassland_exists else 0.0
    shrink = abs(1.0 - p.eta_S * fire_intensity(g_end, p.fire))
    rho_t = max(shrink * math.exp(lambda1.real), math.exp(lambda2.real))

    forest_eq = _forest_eq(p, r_t0)
    forest_exists = forest_eq is not None
    if forest_exists:
        crowd = p.mu_G + p.sigma_NS * forest_eq.t_ns
        r_t_g = p.gamma_G / crowd if crowd > 0.0 else math.inf
        rho_t_g = (1.0 - p.eta_G) * math.exp((p.gamma_G - crowd) * p.tau)
    else:
        r_t_g = None
        rho_t_g = None

    cls = _classify_values(
        r_t0=r_t0, r_g0=r_g0, rho_g0=rho_g0, r_t_g=r_t_g,
        rho_t_g=rho_t_g, r_g_t=r_g_t, rho_t=rho_t,
        grassland_exists=grassland_exists, forest_exists=forest_exists,
    )

    return ThresholdReport(
        r_t0=r_t0, r_g0=r_g0, rho_g0=rho_g0, g_int=g_int, r_g_t=r_g_t, r=r,
        a_coef=a_coef, b_coef=b_coef, lambda1=lambda1, lambda2=lambda2,
        rho_t=rho_t, r_t_g=r_t_g, rho_t_g=rho_t_g, forest_eq=forest_eq,
        grassland_exists=grassland_exists, forest_exists=forest_exists,
        savanna_existence_condition=grassland_exists, classification=cls.label,
    )


def _near_one(x: float | None) -> bool:
    return x is not None and math.isfinite(x) and abs(x - 1.0) < DEGENERATE_TOL


def _verdicts(r_t_g, rho_t_g, r_g_t, rho_t, grassland_exists, forest_exists):
    if not grassland_exists:
        e_g = "nonexistent"
    elif r_g_t < 1.0 or rho_t < 1.0:
        e_g = "locally asymptotically stable"
    elif rho_t == 1.0:
        e_g = "locally stable"
    else:
        e_g = "unstable"
    if not forest_exists:
        e_t = "nonexistent"
    elif r_t_g <= 1.0 or rho_t_g < 1.0:
        e_t = "locally asymptotically stable"
    elif rho_t_g == 1.0:
        e_t = "locally stable"
    else:
        e_t = "unstable"
    return e_t, e_g


def _classify_values(r_t0, r_g0, rho_g0, r_t_g, rho_t_g, r_g_t, rho_t,
                     grassland_exists, forest_exists) -> Classification:
    e_t, e_g = _verdicts(r_t_g, rho_t_g, r_g_t, rho_t, grassland_exists, forest_exists)

    def deg(name, value) -> Classification:
        del value
        return Classification(
            label=f"degenerate({name}=1)", case=None, e_t=e_t, e_g=e_g,
            savanna="indeterminate",
        )

    def gas(which) -> Classification:
        return Classification(label=f"{which}_gas", case=None, e_t=e_t, e_g=e_g,
                              savanna="nonexistent")

    if _near_one(r_t0):
        return deg("r_t0", r_t0)

    if r_g0 is not None:
        if _near_one(r_g0):
            return deg("r_g0", r_g0)
        if r_t0 < 1.0 and r_g0 < 1.0:
            return gas("desert")
        if r_t0 > 1.0 and r_g0 < 1.0:
            return gas("forest")
        if r_t0 < 1.0 and r_g0 > 1.0:
            if _near_one(rho_g0):
                return deg("rho_g0", rho_g0)
            return gas("grassland") if rho_g0 > 1.0 else gas("desert")
    else:
        if _near_one(rho_g0):
            return deg("rho_g0", rho_g0)
        if r_t0 < 1.0:
            return gas("grassland") if rho_g0 > 1.0 else gas("desert")
        if rho_g0 < 1.0:
            return gas("forest")

    # summary table: r_t0 > 1 together with r_g0 > 1 (mu_G > 0) or rho_g0 > 1
    for name, value in (("r_t_g", r_t_g), ("rho_g0", rho_g0)):
        if _near_one(value):
            return deg(name, value)

    def case(n: int) -> Classification:
        return Classification(label=f"case_{n}", case=n, e_t=e_t, e_g=e_g,
                              savanna="numerical")

    if r_t_g > 1.0:
        if rho_g0 > 1.0:
            if _near_one(rho_t_g):
                return deg("rho_t_g", rho_t_g)
            if rho_t_g > 1.0:
                if _near_one(r_g_t):
                    return deg("r_g_t", r_g_t)
                if r_g_t > 1.0:
                    if _near_one(rho_t):
                        return deg("rho_t", rho_t)
                    return case(1) if rho_t > 1.0 else case(2)
                return case(3)
            if _near_one(r_g_t):
                return deg("r_g_t", r_g_t)
            if r_g_t > 1.0:
                if _near_one(rho_t):
                    return deg("rho_t", rho_t)
                return case(4) if rho_t > 1.0 else case(5)
            return case(6)
        return case(7)
    if rho_g0 > 1.0:
        if _near_one(r_g_t):
            return deg("r_g_t", r_g_t)
        if r_g_t > 1.0:
            if _near_one(rho_t):
                return deg("rho_t", rho_t)
            return case(8) if rho_t > 1.0 else case(9)
        return case(10)
    return case(11)


def classify(rep: ThresholdReport) -> Classification:
    """Re-derive the classification from a computed report."""
    return _classify_values(
        r_t0=rep.r_t0, r_g0=rep.r_g0, rho_g0=rep.rho_g0,
        r_t_g=rep.r_t_g, rho_t_g=rep.rho_t_g, r_g_t=rep.r_g_t, rho_t=rep.rho_t,
        grassland_exists=rep.grassland_exists, forest_exists=rep.forest_exists,
    )


# ---------------------------------------------------------------------------
# critical values and boundaries
# ---------------------------------------------------------------------------

def critical_values(p: ModelParams) -> CriticalValues:
    """Parameter values at which a stability factor crosses one.

    ``sigma_g_star`` needs a positive orbit average (g_int > 0);
    ``sigma_ns_star`` needs the forest equilibrium; ``tau_star`` needs
    r_t_g > 1.  Unavailable values are None.
    """
    rep = compute_thresholds(p)

    sigma_g_star = None
    if rep.g_int > 0.0:
        sigma_g_star = (p.gamma_S - (p.mu_S + p.omega_S + p.mu_NS)) / rep.g_int

    sigma_ns_star = None
    if rep.forest_exists:
        sigma_ns_star = (
            _grass_rate(p) + math.log(1.0 - p.eta_G) / p.tau
        ) / rep.forest_eq.t_ns

    tau_star = None
    if rep.r_t_g is not None and rep.r_t_g > 1.0:
        tau_star = -math.log(1.0 - p.eta_G) / (p.gamma_G * (1.0 - 1.0 / rep.r_t_g))
    return CriticalValues(sigma_g_star, sigma_ns_star, tau_star)


def eta_g_boundary(p: ModelParams) -> float:
    """Burned-grass fraction at which rho_g0 = 1 (grassland orbit threshold)."""
    _require_r_g0(p, "eta_G boundary")
    return 1.0 - math.exp(-_grass_rate(p) * p.tau)


def tau_boundary(p: ModelParams) -> float:
    """Fire period at which rho_g0 = 1 for the current eta_G."""
    _require_r_g0(p, "tau boundary")
    return -math.log(1.0 - p.eta_G) / _grass_rate(p)


def estimate_sigma_ns(delta_g: float, gamma_g: float, k_t: float,
                      epsilon: float, cover_area: float = 1.0) -> SigmaNSEstimation:
    """Crown-effect estimate of sigma_NS from the under/outside-crown grass
    production ratio ``delta_g``.

    The single-tree biomass density is t_tilde = epsilon*K_T/S and
    sigma_NS = (1 - delta_g) * gamma_G / t_tilde.  delta_g > 1 (facilitation)
    gives a negative value.
    """
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
    if cover_area <= 0.0 or k_t <= 0.0:
        raise ParameterError("cover_area and k_t must be positive")
    t_tilde = epsilon * k_t / cover_area
    sigma_ns = (1.0 - delta_g) * gamma_g / t_tilde
    return SigmaNSEstimation(
        delta_g=delta_g, gamma_g=gamma_g, k_t=k_t, epsilon=epsilon,
        cover_area=cover_area, t_tilde=t_tilde, sigma_ns=sigma_ns,
    )
