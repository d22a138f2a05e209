"""Core model: parameters, state, vector field, fire impulse and region presets.

Parameters are valid by construction: building a ``ModelParams`` (directly,
by ``replace`` or by the file parser) runs ``require_valid``, the one check of
its hard invariants, so no other layer checks them.

The system tracks three biomass compartments (t per hectare): fire-sensitive
trees ``T_S``, non-sensitive trees ``T_NS`` and grass ``G``.  Between fires the
state follows a smooth competition flow; every ``tau`` years a fire instantly
removes a fraction ``eta_S * w(G)`` of sensitive trees and a fraction ``eta_G``
of grass, where ``w`` is a saturating intensity function of grass biomass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np


class ParameterError(ValueError):
    """Raised when parameters violate a hard model constraint."""


class NumericalError(RuntimeError):
    """Raised when a computation loses finiteness or fails to converge."""


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FireIntensityParams:
    """Sigmoid fire intensity w(g) = g^alpha / (g^alpha + g0^alpha).

    ``g0`` is the grass biomass at which intensity reaches one half;
    ``alpha`` is a positive integer steepness exponent.
    """

    g0: float
    alpha: int = 2

    def __post_init__(self):
        if not (math.isfinite(self.g0) and self.g0 > 0):
            raise ParameterError(f"g0 must be positive and finite, got {self.g0}")
        if not (isinstance(self.alpha, (int, np.integer)) and self.alpha >= 1):
            raise ParameterError(f"alpha must be a positive integer, got {self.alpha!r}")


@dataclass(frozen=True)
class ModelParams:
    """All rate, capacity, competition and fire parameters (units: yr, t/ha)."""

    gamma_S: float      # sensitive-tree intrinsic growth (1/yr)
    gamma_NS: float     # sensitive-tree production from mature trees (1/yr)
    gamma_G: float      # grass intrinsic growth (1/yr)
    mu_S: float         # extra sensitive-tree death (1/yr)
    mu_NS: float        # mature-tree death (1/yr)
    mu_G: float         # extra grass death (1/yr), may be 0
    omega_S: float      # maturation rate of sensitive trees (1/yr)
    sigma_G: float      # grass pressure on sensitive trees (ha/t/yr)
    sigma_NS: float     # mature-tree pressure on grass (ha/t/yr); <0 = facilitation
    eta_S: float        # max burned fraction of sensitive trees, in [0, 1]
    eta_G: float        # burned fraction of grass, in [0, 1)
    K_T: float          # tree carrying capacity (t/ha)
    K_G: float          # grass carrying capacity (t/ha)
    tau: float          # fire period (yr), inverse of fire frequency
    fire: FireIntensityParams | None = None

    def __post_init__(self):
        if self.fire is None:
            # half saturation at half the grass capacity unless configured
            object.__setattr__(self, "fire", FireIntensityParams(g0=self.K_G / 2.0))
        require_valid(self)         # the one check of a parameter set

    def replace(self, **changes) -> "ModelParams":
        """Copy with updates; accepts core field names plus ``g0``/``alpha``.

        The fire settings are ordinary parameters: changing ``K_G`` does not
        re-derive the default ``g0 = K_G/2`` - pass ``g0`` explicitly to move
        the half-saturation point.
        """
        fire_changes = {}
        for key in ("g0", "alpha"):
            if key in changes:
                fire_changes[key] = changes.pop(key)
        if fire_changes:
            changes["fire"] = replace(self.fire, **fire_changes)
        return replace(self, **changes)

    def flat(self) -> dict[str, float]:
        """Flat key/value view matching the parameter-file key set."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "fire"}
        out["g0"] = self.fire.g0
        out["alpha"] = self.fire.alpha
        return out


@dataclass(frozen=True)
class VegState:
    """Biomass triple (t_s, t_ns, g), all nonnegative, in t/ha."""

    t_s: float
    t_ns: float
    g: float

    def __post_init__(self):
        for name in ("t_s", "t_ns", "g"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
            if v < 0:
                raise ValueError(f"{name} must be nonnegative, got {v}")

    def as_array(self) -> np.ndarray:
        return np.array([self.t_s, self.t_ns, self.g], dtype=float)

    @staticmethod
    def from_array(arr) -> "VegState":
        return VegState(float(arr[0]), float(arr[1]), float(arr[2]))


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass(frozen=True)
class RegionPreset:
    """Defaults and admissible ranges for one ecological region (1, 2 or 3)."""

    region: int
    params: ModelParams
    ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    notes: tuple[str, ...] = ()


# key order used by parameter files, CSV echoes and ``presets`` output
PARAM_KEYS = (
    "gamma_S", "gamma_NS", "gamma_G", "mu_S", "mu_NS", "mu_G", "omega_S",
    "sigma_G", "sigma_NS", "eta_S", "eta_G", "K_T", "K_G", "tau", "g0", "alpha",
)

# literature spans for parameters the regional tables leave unconstrained;
# used only to build randomized test draws, never enforced
LITERATURE_RANGES = {
    "mu_S": (0.0, 0.3),
    "omega_S": (0.05, 0.2),
    "mu_G": (0.0, 0.6),
    "eta_S": (0.02, 0.66),
    "eta_G": (0.1, 1.0),
}


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def fire_intensity(g: float, fire: FireIntensityParams) -> float:
    """Fire intensity w(g) in [0, 1); strictly increasing, w(g0) = 1/2."""
    if g < 0:
        raise ValueError(f"grass biomass must be nonnegative, got {g}")
    ga = g ** fire.alpha
    return ga / (ga + fire.g0 ** fire.alpha)


def fire_intensity_slope(g: float, fire: FireIntensityParams) -> float:
    """dw/dg, needed to linearize the fire impulse."""
    if g < 0:
        raise ValueError(f"grass biomass must be nonnegative, got {g}")
    a = fire.alpha
    g0a = fire.g0 ** a
    if g == 0.0:
        return 1.0 / fire.g0 if a == 1 else 0.0
    return a * g ** (a - 1) * g0a / (g ** a + g0a) ** 2


def _rhs(ts: float, tns: float, g: float, p: ModelParams):
    """Flow right-hand side on plain floats (hot path)."""
    growth = (p.gamma_S * ts + p.gamma_NS * tns) * (1.0 - (ts + tns) / p.K_T)
    dts = growth - ts * (p.mu_S + p.omega_S + p.sigma_G * g)
    dtns = p.omega_S * ts - p.mu_NS * tns
    dg = p.gamma_G * (1.0 - g / p.K_G) * g - (p.sigma_NS * tns + p.mu_G) * g
    return dts, dtns, dg


def _jacobian(ts: float, tns: float, g: float, p: ModelParams):
    """Exact Jacobian of ``_rhs`` on plain floats (states may be negative).

    Returns its state-dependent entries ``(j11, j12, j13, j32, j33)``; the
    others are constant: ``j21 = omega_S``, ``j22 = -mu_NS`` and
    ``j23 = j31 = 0``.
    """
    j11 = (p.gamma_S * (1.0 - (2.0 * ts + tns) / p.K_T)
           - p.gamma_NS / p.K_T * tns - p.sigma_G * g - p.mu_S - p.omega_S)
    j12 = (p.gamma_NS * (1.0 - (ts + 2.0 * tns) / p.K_T)
           - p.gamma_S / p.K_T * ts)
    j33 = p.gamma_G * (1.0 - 2.0 * g / p.K_G) - p.sigma_NS * tns - p.mu_G
    return j11, j12, -p.sigma_G * ts, -p.sigma_NS * g, j33


def vector_field(s: VegState, p: ModelParams) -> np.ndarray:
    """Time derivative of the flow at state ``s``."""
    return np.array(_rhs(s.t_s, s.t_ns, s.g, p), dtype=float)


def _impulse(ts: float, tns: float, g: float, p: ModelParams):
    """Fire map on plain floats: removes eta_S*w(G) of T_S and eta_G of G."""
    return (1.0 - p.eta_S * fire_intensity(g, p.fire)) * ts, tns, (1.0 - p.eta_G) * g


def impulse_map(s: VegState, p: ModelParams) -> VegState:
    """State just after a fire event; T_NS is untouched."""
    return VegState(*_impulse(s.t_s, s.t_ns, s.g, p))


def in_omega(s: VegState, p: ModelParams, tol: float = 1e-9) -> bool:
    """Membership in the feasible region 0<=T_S+T_NS<=K_T, 0<=G<=K_G."""
    return (
        s.t_s >= -tol
        and s.t_ns >= -tol
        and s.g >= -tol
        and s.t_s + s.t_ns <= p.K_T * (1.0 + tol)
        and s.g <= p.K_G * (1.0 + tol)
    )


# hard invariants of the finite core fields, in the order ``validate``
# reports them: (fields, violated(value), requirement)
_INVARIANTS = (
    (("gamma_S", "gamma_NS", "gamma_G", "mu_S", "mu_NS", "mu_G", "omega_S",
      "sigma_G", "eta_S", "eta_G"), lambda v: v < 0, "must be nonnegative"),
    (("mu_NS", "omega_S", "gamma_G", "K_T", "K_G", "tau"), lambda v: v <= 0,
     "must be positive"),
    (("eta_S",), lambda v: v > 1, "must lie in [0, 1]"),
    (("eta_G",), lambda v: v >= 1, "must lie in [0, 1)"),
)


def validate(p: ModelParams, preset: RegionPreset | None = None) -> ValidationReport:
    """Check hard invariants (errors) and region ranges (warnings).

    Every violated invariant is listed; range departures are warnings only,
    taken against ``preset.ranges`` when a preset is supplied.
    """
    errors: list[str] = []
    warnings: list[str] = []

    for key, value in p.flat().items():
        if not math.isfinite(value):
            errors.append(f"{key} must be finite, got {value}")
    if errors:
        return ValidationReport(tuple(errors), ())

    for keys, violated, what in _INVARIANTS:
        for key in keys:
            value = getattr(p, key)
            if violated(value):
                errors.append(f"{key} {what}, got {value}")

    if preset is not None:
        for key, (lo, hi) in preset.ranges.items():
            value = p.flat()[key]
            if not (lo - 1e-12 <= value <= hi + 1e-12):
                warnings.append(
                    f"{key} = {value:g} outside region-{preset.region} range [{lo:g}, {hi:g}]"
                )
    return ValidationReport(tuple(errors), tuple(warnings))


def _valid_cells(flat) -> np.ndarray:
    """``validate(...).ok`` on a grid: ``flat`` maps every ``ModelParams.flat``
    key to a float or a broadcastable array.  A cell is valid where every
    value is finite, no invariant is violated and ``g0 > 0``, which
    ``FireIntensityParams`` requires."""
    ok = np.asarray(flat["g0"]) > 0
    for value in flat.values():
        ok = ok & np.isfinite(value)
    for keys, violated, _ in _INVARIANTS:
        for key in keys:
            ok = ok & ~violated(np.asarray(flat[key]))
    return ok


def require_valid(p: ModelParams) -> None:
    rep = validate(p)
    if not rep.ok:
        raise ParameterError("; ".join(rep.errors))


# ---------------------------------------------------------------------------
# region presets
# ---------------------------------------------------------------------------

def region_preset(region: int) -> RegionPreset:
    """Defaults and ranges for ecological regions 1 (semiarid), 2 (mesic),
    3 (humid tropical).

    Where the source tables give no default (sigma_G, sigma_NS, tau in some
    regions) the midpoint of the admissible range is used; the notes record
    every such choice.
    """
    if region == 1:
        params = ModelParams(
            gamma_S=0.3, gamma_NS=1.0, gamma_G=0.6, mu_S=0.2, mu_NS=0.15,
            mu_G=0.3, omega_S=0.1, sigma_G=0.59135, sigma_NS=-0.02225,
            eta_S=0.5, eta_G=0.6, K_T=30.0, K_G=2.5, tau=7.0,
        )
        ranges = {
            "tau": (5.0, 20.0), "K_T": (30.0, 30.0), "K_G": (0.0, 5.0),
            "gamma_G": (0.4, 2.0), "gamma_S": (0.2, 0.8),
            "gamma_NS": (0.256, 1.2), "mu_NS": (0.1, 0.25),
            "sigma_G": (0.1843, 0.9984), "sigma_NS": (-0.029, -0.0155),
        }
        notes = (
            "eta_G=0.6 and mu_G=0.3 are not in the region-1 table; they are the"
            " values used in the accompanying worked results",
            "tau upper bound 20 is a practical cap; the source only states tau>5",
            "sigma_G, sigma_NS defaults are range midpoints",
        )
    elif region == 2:
        params = ModelParams(
            gamma_S=0.4, gamma_NS=2.0, gamma_G=2.8, mu_S=0.1, mu_NS=0.08,
            mu_G=0.3, omega_S=0.1, sigma_G=0.93785, sigma_NS=0.02675,
            eta_S=0.5, eta_G=0.6, K_T=85.0, K_G=7.0, tau=3.5,
        )
        ranges = {
            "tau": (2.0, 5.0), "K_T": (80.0, 90.0), "K_G": (5.0, 10.0),
            "gamma_G": (2.0, 3.5), "gamma_S": (0.2, 1.0),
            "gamma_NS": (1.2, 2.5), "mu_NS": (0.07, 0.1),
            "sigma_G": (0.2470, 1.6287), "sigma_NS": (-0.0412, 0.0412),
        }
        notes = (
            "mu_G=0.3 follows the region-2 table; the reported grass reproduction"
            " number 14 is consistent with mu_G=0.2 instead - both are in use",
            "sigma_NS admissible set is two intervals, [-0.0412,-0.0123] and"
            " [0.0123,0.0412]; the stored range is their hull and the default is"
            " the midpoint of the depressive (positive) branch",
            "tau default is the range midpoint",
        )
    elif region == 3:
        params = ModelParams(
            gamma_S=2.0, gamma_NS=3.0, gamma_G=4.2, mu_S=0.1, mu_NS=0.06,
            mu_G=0.2, omega_S=0.1, sigma_G=0.9, sigma_NS=0.0761,
            eta_S=0.5, eta_G=0.6, K_T=115.0, K_G=15.0, tau=1.75,
        )
        ranges = {
            "tau": (0.5, 3.0), "K_T": (110.0, 120.0), "K_G": (10.0, 20.0),
            "gamma_G": (3.5, 4.6), "gamma_S": (1.5, 2.7),
            "gamma_NS": (2.5, 4.5), "mu_NS": (0.02, 0.07),
            "sigma_NS": (0.0609, 0.0913),
        }
        notes = (
            "no sigma_G range was derived for region 3; default 0.9 sits in the"
            " span used by the region-3 level-curve axes",
            "tau and sigma_NS defaults are range midpoints",
        )
    else:
        raise ParameterError(f"unknown region {region!r}; expected 1, 2 or 3")
    return RegionPreset(region=region, params=params, ranges=ranges, notes=notes)


# ---------------------------------------------------------------------------
# parameter files: one `key = value` per line, `#` starts a comment
# ---------------------------------------------------------------------------

def _param_values(text: str) -> dict[str, float]:
    """Read the flat parameter-file format into a value for every key in
    ``PARAM_KEYS``, without building parameters.  Unknown keys are errors.

    ``g0`` and ``alpha`` are optional (defaults: the file's K_G/2 and 2); all
    other keys are required.
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, sval = line.partition("=")
        key = key.strip()
        sval = sval.strip()
        if key not in PARAM_KEYS:
            raise ParameterError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ParameterError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = int(sval) if key == "alpha" else float(sval)
        except ValueError:
            raise ParameterError(f"line {lineno}: bad value for {key}: {sval!r}") from None

    required = [k for k in PARAM_KEYS if k not in ("g0", "alpha")]
    missing = [k for k in required if k not in values]
    if missing:
        raise ParameterError(f"missing keys: {', '.join(missing)}")
    values.setdefault("g0", values["K_G"] / 2.0)
    values.setdefault("alpha", 2)
    return values


def _params_from_values(values: dict[str, float]) -> ModelParams:
    """The inverse of ``ModelParams.flat``: one value per ``PARAM_KEYS`` key."""
    core = {k: v for k, v in values.items() if k not in ("g0", "alpha")}
    return ModelParams(fire=FireIntensityParams(values["g0"], values["alpha"]), **core)


def parse_params_text(text: str) -> ModelParams:
    """Parse the flat parameter-file format (see ``_param_values``)."""
    return _params_from_values(_param_values(text))


def _read_params_text(path) -> str:
    """The text of a parameter file; a file that is not UTF-8 is a
    ``ParameterError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParameterError(f"{path}: not UTF-8 text ({exc.reason} at "
                                 f"byte {exc.start})") from None


def load_params_file(path) -> ModelParams:
    return parse_params_text(_read_params_text(path))


def dump_params_text(p: ModelParams) -> str:
    """Serialize in file-format key order (round-trips through the parser)."""
    flat = p.flat()
    lines = []
    for key in PARAM_KEYS:
        v = flat[key]
        lines.append(f"{key} = {v:d}" if key == "alpha" else f"{key} = {v:.17g}")
    return "\n".join(lines) + "\n"
