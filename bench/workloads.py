"""Seeded CLI inputs and output checks for the savanna benchmark workloads.

A workload is a list of command groups generated from ``--seed``.  Each
command is a ``savanna`` argv; parameters are drawn from the region preset
ranges plus ``LITERATURE_RANGES`` and reach the program only as
``--region/--set`` options.  A run executes every group once, in order, and
then cycles through them again until its time is up.  Draws are kept whatever they show: unconverged orbits and
coarse-step NSFD escapes stay in and are counted as failed operations.

The checks recompute each output through public library calls that the
planned optimisations leave alone (one reference period, per-cell closed
forms, scalar Floquet reports) instead of comparing golden bytes.
"""

from __future__ import annotations

import math
import types
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from savanna import (
    LITERATURE_RANGES,
    ParameterError,
    ThresholdError,
    VegState,
    compute_thresholds,
    floquet_report,
    in_omega,
    region_preset,
    simulate,
)

OUT = "{out}"          # argv placeholder for the output file
CURVES = "{curves}"    # argv placeholder for the level-curve file

# Why each workload exists; BENCHMARK.json repeats these lines.
WHY = {
    "floquet_orbits": "single-orbit floquet reports: the interactive path that orbit-location work "
                      "(Newton in the basin) targets and that cross-cell batching cannot help",
    "threshold_sweep": "201x201 closed-form sweeps (rho_t_g with a level curve, and case labels): "
                       "the sweep.scan path with no Floquet work, guarding it against rho_tg-only changes",
    "trajectory": "long simulate runs, nsfd and reference at h=0.01 plus coarse nsfd: the only "
                  "workload on the integrate layer, output- and memory-bound",
    "rho_tg_sweep": "small rho_tg grids around a region-1 base: where batching Floquet work across "
                    "sweep cells shows",
}

ORBIT_TOL = 1e-8            # |P(anchor) - anchor| / max(K_T, K_G) for a closed orbit
RESIDUAL_TOL = 1e-10        # locate_savanna_orbit's default convergence tolerance
EIG_RTOL = 1e-6             # printed rho_tg against numpy eigenvalues of the printed monodromy
CELL_RTOL = 1e-12           # closed-form sweep cell against scalar compute_thresholds
RHO_RTOL = 1e-8             # rho_tg sweep cell against a scalar floquet_report
AGREE_TOL = 1e-2            # nsfd vs reference over the last tenth of the horizon, / capacity
SAMPLED_CELLS = 64          # closed-form cells re-evaluated per sweep output


@dataclass(frozen=True)
class Sizes:
    floquet_steps: int      # --steps of each floquet command
    threshold_n: int        # points per axis of the closed-form sweeps
    horizon: float          # years per simulate command
    rho_tg_n: int           # points per axis of the rho_tg sweeps
    # groups generated per workload: a run executes all of them once, then
    # cycles through them again until its time is up
    groups: dict[str, int]


# "full" sets hold about 25 s of work on a 2-core host at the seed commit
SIZES = {
    "full": Sizes(floquet_steps=64, threshold_n=201, horizon=1000.0, rho_tg_n=3,
                  groups={"floquet_orbits": 90, "threshold_sweep": 5, "trajectory": 12,
                          "rho_tg_sweep": 3}),
    "smoke": Sizes(floquet_steps=16, threshold_n=21, horizon=20.0, rho_tg_n=2,
                   groups=dict.fromkeys(("floquet_orbits", "threshold_sweep", "trajectory",
                                         "rho_tg_sweep"), 2)),
}


@dataclass(frozen=True)
class Command:
    region: int
    overrides: tuple[tuple[str, float], ...]
    argv: tuple[str, ...]

    def params(self):
        return region_preset(self.region).params.replace(**dict(self.overrides))

    def opt(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]

    def argv_for(self, out: str, curves: str) -> list[str]:
        """The argv with the output placeholders filled in."""
        return [out if a == OUT else curves if a == CURVES else a for a in self.argv]


@dataclass(frozen=True)
class Outcome:
    ok: bool
    work: int = 0               # orbits, cells or steps completed
    reason: str = ""
    # a failure mode the program already has and reports as measured: an
    # unconverged orbit, an NSFD escape from the feasible region (ROADMAP
    # items 2 and 3), or a numerical failure the CLI reports with exit code 3
    known: bool = False


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _draw(rng, region: int) -> dict[str, float]:
    values = {k: float(rng.uniform(lo, hi)) for k, (lo, hi) in region_preset(region).ranges.items()}
    for k, (lo, hi) in LITERATURE_RANGES.items():
        # eta_G must stay below 1 to be valid
        values[k] = float(rng.uniform(lo, min(hi, 0.95) if k == "eta_G" else hi))
    return values


def _window(rng, lo: float, hi: float) -> tuple[float, float]:
    """A seeded sub-range covering a quarter to a half of [lo, hi]."""
    centre = float(rng.uniform(lo, hi))
    half = (hi - lo) / 4.0
    return max(lo, centre - half), min(hi, centre + half)


def _command(sub, region, values, *options) -> Command:
    sets = []
    for k, v in values.items():
        sets += ["--set", f"{k}={v!r}"]
    argv = (sub, "--region", str(region), *sets, *options, "--output", OUT)
    return Command(region, tuple(values.items()), argv)


def _axes(rng, region, a1, a2, n, spans=None) -> str:
    spans = spans or {}
    parts = []
    for name in (a1, a2):
        lo, hi = _window(rng, *(spans[name] if name in spans else region_preset(region).ranges[name]))
        parts.append(f"{name}:{lo!r}:{hi!r}:{n}")
    return ",".join(parts)


def _floquet_group(rng, sizes):
    return [_command("floquet", r, _draw(rng, r), "--steps", str(sizes.floquet_steps))
            for r in (1, 2, 3)]


def _threshold_group(rng, sizes, region):
    values = _draw(rng, region)
    n = sizes.threshold_n
    level = _command("sweep", region, values,
                     "--axes", _axes(rng, region, "tau", "eta_G", n, {"eta_G": (0.1, 0.95)}),
                     "--quantity", "rho_t_g", "--level", "1.0", "--curves", CURVES)
    case = _command("sweep", region, _draw(rng, region),
                    "--axes", _axes(rng, region, "sigma_NS", "gamma_G", n),
                    "--quantity", "case")
    return [level, case]


def _trajectory_group(rng, sizes, region):
    values = _draw(rng, region)
    horizon = ("--horizon", repr(sizes.horizon))
    coarse = float(rng.uniform(0.5, 1.0))
    return [
        _command("simulate", region, values, *horizon, "--h", "0.01", "--scheme", "nsfd"),
        _command("simulate", region, values, *horizon, "--h", "0.01",
                 "--scheme", "reference"),
        _command("simulate", region, values, *horizon, "--h", repr(coarse),
                 "--scheme", "nsfd"),
    ]


def _rho_tg_group(rng, sizes):
    values = _draw(rng, 1)
    return [_command("sweep", 1, values,
                     "--axes", _axes(rng, 1, "sigma_G", "sigma_NS", sizes.rho_tg_n),
                     "--quantity", "rho_tg")]


def generate(workload: str, seed: int, sizes: Sizes) -> list[list[Command]]:
    """The seeded command groups of one workload."""
    if workload not in sizes.groups:
        raise ValueError(f"unknown workload {workload!r}")
    rng = _rng(workload, seed)
    groups = []
    for g in range(sizes.groups[workload]):
        region = g % 3 + 1
        if workload == "floquet_orbits":
            groups.append(_floquet_group(rng, sizes))
        elif workload == "threshold_sweep":
            groups.append(_threshold_group(rng, sizes, region))
        elif workload == "trajectory":
            groups.append(_trajectory_group(rng, sizes, region))
        else:
            groups.append(_rho_tg_group(rng, sizes))
    return groups


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _data_lines(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh.read().splitlines() if not line.startswith("#")]


def _comment(path, key: str) -> str:
    """Value of ``key = value`` in the ``#`` lines that follow the parameter echo."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") and f" {key} = " in line:
                return line.split(f" {key} = ", 1)[1].split(",")[0].strip()
    raise ValueError(f"no {key!r} line in {path}")


def _check_floquet(cmd: Command, out) -> Outcome:
    p = cmd.params()
    header, row = _data_lines(out)[:2]
    rec = dict(zip(header.split(","), row.split(",")))
    anchor = VegState(float(rec["anchor_t_s"]), float(rec["anchor_t_ns"]), float(rec["anchor_g"]))
    residual = float(_comment(out, "residual"))
    if not residual < RESIDUAL_TOL:
        return Outcome(False, reason=f"orbit unconverged (residual {residual:.3g})", known=True)
    steps = int(cmd.opt("--steps"))
    back = simulate(p, anchor, horizon=p.tau, h=p.tau / steps, scheme="reference").final_state()
    gap = max(abs(back.t_s - anchor.t_s), abs(back.t_ns - anchor.t_ns), abs(back.g - anchor.g))
    if not gap <= ORBIT_TOL * max(p.K_T, p.K_G):
        return Outcome(False, reason=f"anchor does not return after one period (gap {gap:.3g})")
    rho = float(rec["rho_tg"])
    verdict = "marginal" if abs(rho - 1.0) < 1e-9 else ("stable" if rho < 1.0 else "unstable")
    if rec["verdict"] != verdict:
        return Outcome(False, reason=f"verdict {rec['verdict']!r} but rho_tg = {rho!r}")
    m = np.array([[float(rec[f"m{i}{j}"]) for j in (1, 2, 3)] for i in (1, 2, 3)])
    radius = float(np.max(np.abs(np.linalg.eigvals(m))))
    if not math.isclose(radius, rho, rel_tol=EIG_RTOL):
        return Outcome(False, reason=f"rho_tg {rho!r} but monodromy spectral radius {radius!r}")
    return Outcome(True, work=1)


def _parse_axes(spec: str):
    axes = []
    for part in spec.split(","):
        name, lo, hi, n = part.split(":")
        axes.append((name, float(lo), float(hi), int(n)))
    return axes


def _expected_cell(p, quantity, a1, x, a2, y):
    """Scalar value of one sweep cell, None where it is undefined."""
    if quantity == "rho_tg":
        try:
            q = p.replace(**{a1: x, a2: y})
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rep = floquet_report(q)
        except (ParameterError, ThresholdError, ValueError):
            return None
        return rep.rho_tg if rep.diagnostics["converged"] else None
    try:
        rep = compute_thresholds(p.replace(**{a1: x, a2: y}))
    except (ParameterError, ThresholdError):
        return None
    if quantity == "case":
        return rep.classification
    v = getattr(rep, quantity)
    return None if v is None or not math.isfinite(v) else float(v)


def _check_grid(cmd: Command, out, curves) -> Outcome:
    (a1, lo1, hi1, n1), (a2, lo2, hi2, n2) = _parse_axes(cmd.opt("--axes"))
    quantity = cmd.opt("--quantity")
    # a rho_tg cell costs a full orbit location, so only one is re-evaluated
    samples, rtol = (1, RHO_RTOL) if quantity == "rho_tg" else (SAMPLED_CELLS, CELL_RTOL)
    lines = _data_lines(out)
    if lines[0] != f"{a1},{a2},value,defined" or len(lines) != 1 + n1 * n2:
        return Outcome(False, reason=f"grid has {len(lines) - 1} rows, expected {n1 * n2}")
    p = cmd.params()
    rng = np.random.default_rng(zlib.crc32(" ".join(cmd.argv).encode()))
    for k in rng.choice(n1 * n2, size=min(samples, n1 * n2), replace=False):
        xs, ys, value, defined = lines[1 + int(k)].split(",")
        expected = _expected_cell(p, quantity, a1, float(xs), a2, float(ys))
        if expected is None:
            good = value == "undefined" and defined == "0"
        elif quantity == "case":
            good = value == expected and defined == "1"
        else:
            good = defined == "1" and math.isclose(float(value), expected, rel_tol=rtol)
        if not good:
            return Outcome(False, reason=f"cell {a1}={xs}, {a2}={ys}: {value} != {expected!r}")
    if "--level" in cmd.argv:
        for line in _data_lines(curves)[1:]:
            _, x, y = line.split(",")
            if not (lo1 <= float(x) <= hi1 and lo2 <= float(y) <= hi2):
                return Outcome(False, reason=f"level-curve vertex ({x}, {y}) off the grid")
    return Outcome(True, work=n1 * n2)


def _read_trajectory(path):
    """States (one row per CSV row) and the number of integration steps."""
    header = "t,T_S,T_NS,G,event\n"
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    body = text[text.index(header) + len(header):]
    fires = body.count(",pre_fire\n")
    body = body.replace(",pre_fire\n", ",\n").replace(",post_fire\n", ",\n")
    rows = np.array(body.replace(",\n", ",").split(",")[:-1], dtype=float).reshape(-1, 4)
    return rows[:, 1:], len(rows) - fires - 1


def _escape(states, p) -> str | None:
    """First state outside the region the scheme must keep invariant, judged
    by ``in_omega``.  With facilitation (sigma_NS < 0) the model itself lifts
    grass above K_G, so there only the grass cap is waived."""
    grass_cap = p.sigma_NS >= 0.0
    outside = ((states < 0.0).any(axis=1) | (states[:, 0] + states[:, 1] > p.K_T)
               | (grass_cap & (states[:, 2] > p.K_G)))
    for i in np.flatnonzero(outside):
        ts, tns, g = states[i]
        s = types.SimpleNamespace(t_s=ts, t_ns=tns, g=g if grass_cap else min(g, p.K_G))
        if not in_omega(s, p):
            return (f"nsfd left the feasible region: T_S+T_NS = {ts + tns:.6g} "
                    f"(K_T = {p.K_T:.6g}), G = {g:.6g} (K_G = {p.K_G:.6g})")
    return None


def _check_trajectory_group(group, outputs) -> list[Outcome | None]:
    p = group[0].params()
    read = [None if out is None else _read_trajectory(out) for out in outputs]
    outcomes = []
    for cmd, got in zip(group, read):
        if got is None:
            outcomes.append(None)
            continue
        states, steps = got
        escape = _escape(states, p) if cmd.opt("--scheme") == "nsfd" else None
        outcomes.append(Outcome(False, reason=escape, known=True) if escape
                        else Outcome(True, work=steps))
    if outcomes[0] is not None and outcomes[0].ok and read[1] is not None:
        fine, ref = read[0][0], read[1][0]
        if fine.shape != ref.shape:
            outcomes[0] = Outcome(False, reason="nsfd and reference grids differ")
        else:
            tail = len(fine) - len(fine) // 10
            scale = np.array([p.K_T, p.K_T, p.K_G])
            gap = float(np.max(np.abs(fine[tail:] - ref[tail:]) / scale))
            if not gap <= AGREE_TOL:
                outcomes[0] = Outcome(False, reason=f"nsfd differs from reference by {gap:.3g} "
                                                    "of capacity over the last tenth")
    return outcomes


def check_group(workload: str, group: list[Command], outputs, curves) -> list[Outcome | None]:
    """One outcome per command of a group; ``outputs[i]`` and ``curves[i]``
    are the files command ``i`` wrote, ``outputs[i]`` is None (and so is the
    outcome) for a command that did not complete."""
    if workload == "trajectory":
        return _check_trajectory_group(group, outputs)
    outcomes = []
    for cmd, out, crv in zip(group, outputs, curves):
        if out is None:
            outcomes.append(None)
        elif cmd.argv[0] == "floquet":
            outcomes.append(_check_floquet(cmd, out))
        else:
            outcomes.append(_check_grid(cmd, out, crv))
    return outcomes
