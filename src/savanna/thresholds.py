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
above one) plus global-stability verdicts for the remaining quadrants.  It is
one ordered rule table, ``_RULES``: degenerate (a quantity within
``DEGENERATE_TOL`` of one) and global-stability rules first, then the eleven
cases as sign patterns of ``r_t_g``, ``rho_g0``, ``rho_t_g``, ``r_g_t`` and
``rho_t``; the first rule that holds gives the label.  ``compute_thresholds``
and grid scans read that table, and ``classify`` reads the label it gave.

Every closed form is computed by one kernel, ``_closed_forms``, on floats or
on broadcastable arrays: ``compute_thresholds`` and ``critical_values`` run it
on one cell, ``sweep.scan`` on blocks of a grid.  Branches are masks.  The
kernel's ``exp``, ``log`` and fire-intensity power go element by element
through the libm functions of ``math`` and Python's ``**``, because numpy's
vectorised ``exp``, ``log`` and power round differently in the last bit for
a few percent of inputs, and a grid cell must carry the same bits as the
one-cell call.  A closed form that overflows in floating point raises
``NumericalError`` from the one-cell calls and leaves a grid cell undefined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .model import (
    ModelParams,
    NumericalError,
    ParameterError,
    VegState,
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

    def to_csv(self) -> str:
        def num(v):
            return "undefined" if v is None else f"{v:.17g}"

        eq = self.forest_eq
        row = [num(v) for v in (
            self.r_t0, self.r_g0, self.rho_g0, self.g_int, self.r_g_t, self.r,
            self.a_coef, self.b_coef, self.lambda1.real, self.lambda1.imag,
            self.lambda2.real, self.lambda2.imag, self.rho_t, self.r_t_g, self.rho_t_g,
            None if eq is None else eq.t_s, None if eq is None else eq.t_ns)]
        row += [str(int(flag)) for flag in (
            self.grassland_exists, self.forest_exists, self.savanna_existence_condition)]
        row.append(self.classification)
        return ",".join(self.CSV_FIELDS) + "\n" + ",".join(row) + "\n"

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
# scalar helpers of the grassland orbit
# ---------------------------------------------------------------------------

def _grass_rate(p) -> float:
    """Net exponential grass rate gamma_G - mu_G (equals mu_G*(r_g0 - 1))."""
    return p.gamma_G - p.mu_G


def _rho_g0(p: ModelParams) -> float:
    return (1.0 - p.eta_G) * math.exp(_grass_rate(p) * p.tau)


def _grass_level(p, rho, decay):
    """Closed-form grassland orbit level, with ``decay = exp(-rate*(t - tau))``."""
    return p.K_G * (1.0 - p.mu_G / p.gamma_G) * (rho - 1.0) / ((rho - 1.0) + p.eta_G * decay)


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
    return _grass_level(p, rho, math.exp(-_grass_rate(p) * (tt - p.tau)))


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
# the closed-form kernel
# ---------------------------------------------------------------------------

def _libm(fn, *args):
    """``fn`` (a ``math`` function, or ``pow``) on every element of the
    broadcast ``args``, through Python floats, so each element rounds as the
    scalar call does.  Returns the values and the mask of elements where
    ``fn`` raised (an overflow; those values are NaN)."""
    arrays = np.broadcast_arrays(*args) if len(args) > 1 else [np.asarray(args[0])]
    flat = [a.ravel().tolist() for a in arrays]
    shape = arrays[0].shape
    try:
        out = list(map(fn, *flat))
        raised = np.zeros(shape, dtype=bool)
    except (OverflowError, ValueError, ZeroDivisionError):
        out, raised = [], []
        for xs in zip(*flat):
            try:
                out.append(fn(*xs))
                raised.append(False)
            except (OverflowError, ValueError, ZeroDivisionError):
                out.append(math.nan)
                raised.append(True)
        raised = np.reshape(raised, shape)
    return np.array(out, dtype=float).reshape(shape), raised


def _quadratic_roots(a, b):
    """Roots (re, im) of x^2 - a x + b, largest real part first; stable evaluation."""
    disc = a * a - 4.0 * b
    real = disc >= 0.0
    sq = np.sqrt(np.where(real, disc, -disc))
    # avoid cancellation: compute the larger-magnitude root first
    big = np.where(a >= 0.0, (a + sq) / 2.0, (a - sq) / 2.0)
    other = np.where(big != 0.0, b / big, a - big)
    swap = other < big          # hi, lo as sorted() orders them, NaN and ties included
    hi = np.where(swap, big, other)
    lo = np.where(swap, other, big)
    half = a / 2.0
    return ((np.where(real, hi, half), np.where(real, 0.0, sq / 2.0)),
            (np.where(real, lo, half), np.where(real, 0.0, -sq / 2.0)))


CRITICAL_FIELDS = ("sigma_g_star", "sigma_ns_star", "tau_star")


@dataclass(frozen=True)
class _Cells:
    """Every closed form on a grid of cells (or on one cell, as numpy scalars)."""

    values: dict[str, np.ndarray]       # report and critical fields; NaN where None
    defined: dict[str, np.ndarray]      # optional field -> where it is not None
    # (closed form, what goes wrong, where): evaluations that overflow or
    # divide by zero in floating point, in evaluation order; the one-cell
    # calls raise NumericalError for the first
    fails: tuple[tuple[str, str, np.ndarray], ...]
    critical_fails: tuple[tuple[str, str, np.ndarray], ...]
    label: np.ndarray                   # case label (object array of str)

    @property
    def ok(self) -> np.ndarray:
        """Cells whose report can be computed."""
        return ~_any_failed(self.fails)

    @property
    def critical_ok(self) -> np.ndarray:
        """Cells whose report and critical values can be computed."""
        return ~(_any_failed(self.fails) | _any_failed(self.critical_fails))


def _any_failed(fails):
    out = False
    for _, _, bad in fails:
        out = out | bad
    return out


def _closed_forms(**params) -> _Cells:
    """Every threshold, critical value and case label at once.

    ``params`` are the ``ModelParams.flat`` fields, floats or broadcastable
    arrays.  Every result is computed on every cell and branches become masks;
    ``+ - * /`` and ``sqrt`` run in numpy in the scalar formulas' order, while
    ``exp``, ``log`` and the fire-intensity power go through ``_libm``, so a
    cell carries the same bits as the closed form evaluated on Python floats.
    """
    alpha = np.asarray(params.pop("alpha"))
    # [()] makes a 0-d array a numpy scalar, whose arithmetic is much cheaper
    p = SimpleNamespace(**{k: np.asarray(v, dtype=float)[()] for k, v in params.items()})
    nan = math.nan
    with np.errstate(all="ignore"):
        rt0_den = p.mu_NS * (p.mu_S + p.omega_S)
        r_t0 = (p.gamma_S * p.mu_NS + p.gamma_NS * p.omega_S) / rt0_den
        has_r_g0 = p.mu_G > 0.0
        r_g0 = np.where(has_r_g0, p.gamma_G / p.mu_G, nan)
        rate = _grass_rate(p)
        growth, growth_raised = _libm(math.exp, rate * p.tau)
        rho_g0 = (1.0 - p.eta_G) * growth
        log_keep, _ = _libm(math.log, 1.0 - p.eta_G)
        g_int = (p.K_G / p.gamma_G) * (log_keep + rate * p.tau) / p.tau
        grassland_exists = (rho_g0 > 1.0) & (rate > 0.0)

        # tree block averaged over one grassland period
        denom_rgt = p.mu_NS * (p.mu_S + p.omega_S) + p.mu_NS * p.sigma_G * g_int
        num_rgt = p.gamma_S * p.mu_NS + p.omega_S * p.gamma_NS
        r_g_t = np.where(denom_rgt != 0.0, num_rgt / denom_rgt, math.inf)
        denom_r = p.mu_S + p.omega_S + p.mu_NS + p.sigma_G * g_int
        r = np.where(denom_r != 0.0, p.gamma_S / denom_r, math.inf)
        a_coef = p.tau * (p.gamma_S - denom_r)
        b_coef = p.tau * p.tau * (p.mu_NS * (p.mu_S + p.omega_S + p.sigma_G * g_int) - num_rgt)
        (l1_re, l1_im), (l2_re, l2_im) = _quadratic_roots(a_coef, b_coef)

        # the fire-size factor uses the orbit's pre-fire grass level G*(tau-)
        # (exp(0) = 1 in _grass_level); when the orbit degenerates
        # (rho_g0 <= 1) grass dies out and the factor is w(0) = 0
        g_end = np.where(grassland_exists, _grass_level(p, rho_g0, 1.0), 0.0)
        ga, ga_raised = _libm(pow, g_end, alpha)
        g0a, g0a_raised = _libm(pow, p.g0, alpha)
        w_den = ga + g0a
        shrink = np.abs(1.0 - p.eta_S * (ga / w_den))
        e1, e1_raised = _libm(math.exp, l1_re)
        e2, e2_raised = _libm(math.exp, l2_re)
        fired = shrink * e1
        rho_t = np.where(e2 > fired, e2, fired)          # max(fired, e2)

        forest_exists = ~(r_t0 <= 1.0)
        t_s = p.K_T * p.mu_NS / (p.mu_NS + p.omega_S) * (1.0 - 1.0 / r_t0)
        t_ns = p.omega_S / p.mu_NS * t_s
        crowd = p.mu_G + p.sigma_NS * t_ns
        r_t_g = np.where(crowd > 0.0, p.gamma_G / crowd, math.inf)
        e3, e3_raised = _libm(math.exp, (p.gamma_G - crowd) * p.tau)
        rho_t_g = (1.0 - p.eta_G) * e3

        sigma_g_star = (p.gamma_S - (p.mu_S + p.omega_S + p.mu_NS)) / g_int
        sigma_ns_star = (rate + log_keep / p.tau) / t_ns
        tau_den = p.gamma_G * (1.0 - 1.0 / r_t_g)
        tau_star = -log_keep / tau_den

    tau_star_defined = forest_exists & (r_t_g > 1.0)
    defined = {
        "r_g0": has_r_g0, "r_t_g": forest_exists, "rho_t_g": forest_exists,
        "t_s": forest_exists, "t_ns": forest_exists, "sigma_g_star": g_int > 0.0,
        "sigma_ns_star": forest_exists, "tau_star": tau_star_defined,
    }
    values = {
        "r_t0": r_t0, "r_g0": r_g0, "rho_g0": rho_g0, "g_int": g_int, "r_g_t": r_g_t,
        "r": r, "a_coef": a_coef, "b_coef": b_coef, "lambda1_re": l1_re,
        "lambda1_im": l1_im, "lambda2_re": l2_re, "lambda2_im": l2_im, "rho_t": rho_t,
        "r_t_g": r_t_g, "rho_t_g": rho_t_g, "t_s": t_s, "t_ns": t_ns,
        "grassland_exists": grassland_exists, "forest_exists": forest_exists,
        "sigma_g_star": sigma_g_star, "sigma_ns_star": sigma_ns_star, "tau_star": tau_star,
    }
    for name, where in defined.items():
        values[name] = np.where(where, values[name], nan)
    # VegState rejects a forest equilibrium that is not finite and nonnegative
    bad_eq = forest_exists & ~((t_s >= 0.0) & (t_ns >= 0.0) & np.isfinite(t_s + t_ns))
    fails = (
        ("r_t0", "divides by zero", rt0_den == 0.0),
        ("rho_g0", "overflows", growth_raised),
        ("rho_t", "overflows", ga_raised | g0a_raised | (w_den == 0.0) | e1_raised | e2_raised),
        ("forest_eq", "is not finite", bad_eq),
        ("rho_t_g", "overflows", forest_exists & e3_raised),
    )
    critical_fails = (
        ("sigma_ns_star", "divides by zero", forest_exists & (t_ns == 0.0)),
        ("tau_star", "divides by zero", tau_star_defined & (tau_den == 0.0)),
    )
    facts = {k: values[k] for k in ("r_t0", "r_g0", "rho_g0", "r_t_g", "rho_t_g",
                                     "r_g_t", "rho_t")}
    facts["has_r_g0"] = has_r_g0
    label = _LABELS[_rule_index(facts)]
    return _Cells(values, defined, fails, critical_fails, label)


def _one_cell(p: ModelParams) -> _Cells:
    """The kernel on one parameter set.

    Raises NumericalError, naming the closed form, where float evaluation
    fails (an overflow the scalar ``math`` call would raise).
    """
    cells = _closed_forms(**p.flat())
    _raise_failure(cells.fails)
    return cells


def _raise_failure(fails) -> None:
    for name, what, bad in fails:
        if bad:
            raise NumericalError(f"the closed form of {name} {what} at these parameters")


def _unpack(cells: _Cells, name: str) -> float | None:
    """One cell's optional field: a float, or None where it is undefined."""
    return float(cells.values[name]) if cells.defined[name] else None


# ---------------------------------------------------------------------------
# main computations
# ---------------------------------------------------------------------------

def compute_thresholds(p: ModelParams) -> ThresholdReport:
    """Evaluate every threshold, the equilibria and the case classification.

    All algebraic quantities are evaluated from their closed forms even in
    regimes where the underlying solution does not exist (the existence flags
    say so); quantities whose defining equilibrium is absent (``r_t_g``,
    ``rho_t_g`` without a forest) are None.  This is ``_closed_forms`` on
    one cell.  Raises NumericalError where a closed form overflows (for
    instance ``exp((gamma_G - mu_G) * tau)`` for a very long fire period).
    """
    cells = _one_cell(p)
    v = cells.values
    forest_exists = bool(v["forest_exists"])
    grassland_exists = bool(v["grassland_exists"])
    return ThresholdReport(
        r_t0=float(v["r_t0"]), r_g0=_unpack(cells, "r_g0"), rho_g0=float(v["rho_g0"]),
        g_int=float(v["g_int"]), r_g_t=float(v["r_g_t"]), r=float(v["r"]),
        a_coef=float(v["a_coef"]), b_coef=float(v["b_coef"]),
        lambda1=complex(float(v["lambda1_re"]), float(v["lambda1_im"])),
        lambda2=complex(float(v["lambda2_re"]), float(v["lambda2_im"])),
        rho_t=float(v["rho_t"]), r_t_g=_unpack(cells, "r_t_g"),
        rho_t_g=_unpack(cells, "rho_t_g"),
        forest_eq=(VegState(float(v["t_s"]), float(v["t_ns"]), 0.0)
                   if forest_exists else None),
        grassland_exists=grassland_exists, forest_exists=forest_exists,
        savanna_existence_condition=grassland_exists,
        classification=str(cells.label),
    )


# ---------------------------------------------------------------------------
# classification: one ordered rule table
# ---------------------------------------------------------------------------

def _near_one(x):
    """|x - 1| below DEGENERATE_TOL; False where x is NaN (None) or infinite."""
    return np.isfinite(x) & (np.abs(x - 1.0) < DEGENERATE_TOL)


class _Outcome(NamedTuple):
    label: str
    case: int | None
    savanna: str


def _degenerate(name, when=lambda f: True):
    return (_Outcome(f"degenerate({name}=1)", None, "indeterminate"),
            lambda f: _near_one(f[name]) & when(f))


def _gas(which, when):
    return _Outcome(f"{which}_gas", None, "nonexistent"), when


# First matching rule wins.  Conditions read "facts": the report values,
# NaN where a value is None (so every comparison with it is False), plus
# ``has_r_g0`` (mu_G > 0).  A cell no rule takes is a case of the summary
# table below.
_RULES = (
    _degenerate("r_t0"),
    _degenerate("r_g0"),
    _gas("desert", lambda f: (f["r_t0"] < 1.0) & (f["r_g0"] < 1.0)),
    _gas("forest", lambda f: (f["r_t0"] > 1.0) & (f["r_g0"] < 1.0)),
    # r_g0 > 1 (or undefined: mu_G = 0): grass persistence is rho_g0's call;
    # with trees (r_t0 > 1, r_g0 > 1) it is the summary table's
    _degenerate("rho_g0", lambda f: (f["r_t0"] < 1.0) | ~f["has_r_g0"]),
    _gas("grassland", lambda f: (f["r_t0"] < 1.0) & (f["rho_g0"] > 1.0)),
    _gas("desert", lambda f: f["r_t0"] < 1.0),
    _gas("forest", lambda f: ~f["has_r_g0"] & (f["rho_g0"] < 1.0)),
    # summary table
    _degenerate("r_t_g"),
    _degenerate("rho_g0"),
    _degenerate("rho_t_g", lambda f: (f["r_t_g"] > 1.0) & (f["rho_g0"] > 1.0)),
    _degenerate("r_g_t", lambda f: f["rho_g0"] > 1.0),
    _degenerate("rho_t", lambda f: (f["rho_g0"] > 1.0) & (f["r_g_t"] > 1.0)),
)

# the paper's summary table (r_t0 > 1 with r_g0 > 1, or rho_g0 > 1 for
# mu_G = 0): case n is the row saying whether each quantity exceeds one
# (None: either way); every sign pattern falls in exactly one row
_SUMMARY = ("r_t_g", "rho_g0", "rho_t_g", "r_g_t", "rho_t")
_CASE_SIGNS = (
    (True, True, True, True, True),
    (True, True, True, True, False),
    (True, True, True, False, None),
    (True, True, False, True, True),
    (True, True, False, True, False),
    (True, True, False, False, None),
    (True, False, None, None, None),
    (False, True, None, True, True),
    (False, True, None, True, False),
    (False, True, None, False, None),
    (False, False, None, None, None),
)


def _case_of_pattern(code: int) -> int:
    """Case number of the sign pattern whose bit k says _SUMMARY[k] > 1."""
    (n,) = (n for n, signs in enumerate(_CASE_SIGNS, start=1)
            if all(s is None or s == bool(code >> k & 1) for k, s in enumerate(signs)))
    return n


_CASE_OF_PATTERN = np.array([_case_of_pattern(code) for code in range(2 ** len(_SUMMARY))])
# every outcome: the rules' in table order, then case_1 ... case_11
_OUTCOMES = tuple(outcome for outcome, _ in _RULES) + tuple(
    _Outcome(f"case_{n}", n, "numerical") for n in range(1, len(_CASE_SIGNS) + 1))
_LABELS = np.array([outcome.label for outcome in _OUTCOMES], dtype=object)
# a label names one outcome: the rules that share a label share its outcome
_OUTCOME_OF_LABEL = {outcome.label: outcome for outcome in _OUTCOMES}


def _rule_index(facts) -> np.ndarray:
    """Index into ``_OUTCOMES``, cell by cell: the first rule that holds,
    else the summary-table case."""
    f = {k: np.asarray(v)[()] for k, v in facts.items()}
    pattern = sum((f[name] > 1.0) << k for k, name in enumerate(_SUMMARY))
    index = len(_RULES) - 1 + _CASE_OF_PATTERN[pattern]
    for k in reversed(range(len(_RULES))):
        index = np.where(_RULES[k][1](f), k, index)
    return index


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


def classify(rep: ThresholdReport) -> Classification:
    """The outcome of a computed report's case label, with the local verdicts."""
    outcome = _OUTCOME_OF_LABEL[rep.classification]
    e_t, e_g = _verdicts(rep.r_t_g, rep.rho_t_g, rep.r_g_t, rep.rho_t,
                         rep.grassland_exists, rep.forest_exists)
    return Classification(label=outcome.label, case=outcome.case, e_t=e_t, e_g=e_g,
                          savanna=outcome.savanna)


# ---------------------------------------------------------------------------
# critical values and boundaries
# ---------------------------------------------------------------------------

def critical_values(p: ModelParams) -> CriticalValues:
    """Parameter values at which a stability factor crosses one.

    ``sigma_g_star`` needs a positive orbit average (g_int > 0);
    ``sigma_ns_star`` needs the forest equilibrium; ``tau_star`` needs
    r_t_g > 1.  Unavailable values are None.  Raises like
    ``compute_thresholds``.
    """
    cells = _one_cell(p)
    _raise_failure(cells.critical_fails)
    return CriticalValues(*(_unpack(cells, name) for name in CRITICAL_FIELDS))


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
