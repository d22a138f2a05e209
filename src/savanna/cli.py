"""Command-line front end.

Subcommands: ``classify``, ``simulate``, ``floquet``, ``sweep``, ``presets``.
Parameters come from a region preset (``--region``) or a flat key=value file
(``--params``); ``--set key=value`` overrides replace their values, last wins,
before the parameters are built and checked, so they can repair a bad file.
Every output starts with the effective parameter set as ``#`` comment lines
so runs are reproducible from their own artifacts.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import math
import os
import sys
import warnings

from .model import (
    ModelParams,
    NumericalError,
    PARAM_KEYS,
    ParameterError,
    VegState,
    _param_values,
    _params_from_values,
    _read_params_text,
    dump_params_text,
    region_preset,
)
from .thresholds import CRITICAL_FIELDS, ThresholdError, compute_thresholds, critical_values
from .integrate import simulate
from .floquet import DEFAULT_STEPS, MAX_STEPS, floquet_report
from .sweep import AxisSpec, DEFAULT_GRID_N, _require_cells, level_curve, scan

USAGE_ERROR = 1
VALIDATION_ERROR = 2
NUMERICAL_ERROR = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; remap to the documented code 1
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    # built once per process, on the first ``main`` call: ``parse_args`` keeps
    # no state, and argparse copies the ``--set`` default list before appending
    parser = _Parser(prog="savanna", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params_opts(p):
        p.add_argument("--region", type=int, choices=(1, 2, 3),
                       help="start from a region preset")
        p.add_argument("--params", metavar="FILE",
                       help="start from a key=value parameter file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides", help="override one parameter (repeatable)")
        p.add_argument("--output", metavar="FILE", help="write here instead of stdout")

    p_classify = sub.add_parser("classify", help="thresholds, critical values, case label")
    add_params_opts(p_classify)
    p_classify.add_argument("--csv", action="store_true",
                            help="emit the one-row CSV form instead of text")

    p_sim = sub.add_parser("simulate", help="integrate and write the trajectory CSV")
    add_params_opts(p_sim)
    p_sim.add_argument("--horizon", type=float, default=100.0, help="years to run")
    p_sim.add_argument("--h", type=float, default=0.01, dest="h",
                       help="requested step (snapped to divide the fire period)")
    p_sim.add_argument("--scheme", choices=("nsfd", "reference"), default="nsfd")
    p_sim.add_argument("--s0", default=None, metavar="TS,TNS,G",
                       help="initial state; default 0.1*K_T,0.05*K_T,0.5*K_G")

    p_flo = sub.add_parser("floquet", help="locate a periodic orbit, write its report CSV")
    add_params_opts(p_flo)
    p_flo.add_argument("--guess", default=None, metavar="TS,TNS,G",
                       help="initial guess; default 0.1*K_T,0.1*K_T,0.5*K_G")
    p_flo.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                       help="integration steps per period of the located orbit; it is "
                            "first sought at 16, 64, 256, ... steps below this count, then "
                            "finished at it; a fixed point that only the clamp of the "
                            "pre-fire state at 0 makes is a numerical failure (exit 3)")

    p_sweep = sub.add_parser("sweep", help="grid scan a quantity, optionally contour it")
    add_params_opts(p_sweep)
    p_sweep.add_argument("--axes", required=True,
                         metavar="P1:MIN:MAX:N,P2:MIN:MAX:N",
                         help="the two scanned parameters")
    p_sweep.add_argument("--quantity", required=True,
                         help="threshold field, rho_tg, or case")
    p_sweep.add_argument("--level", type=float, default=None,
                         help="also extract this level curve")
    p_sweep.add_argument("--curves", metavar="FILE",
                         help="write the level curve CSV here (default: stdout after the grid)")

    p_presets = sub.add_parser("presets", help="dump a region's defaults and ranges")
    p_presets.add_argument("--region", type=int, choices=(1, 2, 3), required=True)
    p_presets.add_argument("--output", metavar="FILE")
    return parser


def _parse_overrides(pairs) -> dict[str, float]:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise _UsageError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, sval = item.partition("=")
        key = key.strip()
        if key not in PARAM_KEYS:
            raise ParameterError(f"unknown parameter {key!r} in --set")
        try:
            out[key] = int(sval) if key == "alpha" else float(sval)
        except ValueError:
            raise ParameterError(f"bad value for {key!r}: {sval!r}") from None
    return out


def _load_params(args) -> ModelParams:
    if getattr(args, "region", None) is not None and getattr(args, "params", None):
        raise _UsageError("give exactly one of --region and --params")
    if getattr(args, "region", None) is not None:
        values = region_preset(args.region).params.flat()
    elif getattr(args, "params", None):
        values = _param_values(_read_params_text(args.params))
    else:
        raise _UsageError("one of --region or --params is required")
    values.update(_parse_overrides(args.overrides))
    return _params_from_values(values)


def _echo_block(p: ModelParams) -> str:
    return "".join(f"# {line}\n" for line in dump_params_text(p).splitlines())


def _check_output_path(path: str | None) -> None:
    """Fail now, with the error that opening ``path`` for writing would raise
    later, when it is a directory or its parent directory does not exist, so
    that a long computation does not end in that error; create nothing."""
    if not path:
        return
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


@contextlib.contextmanager
def _output(path: str | None):
    """The file ``path``, created on entry and closed on exit, or stdout
    without one.  Open it only once the output has been computed, so that a
    failing command leaves no file."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(path: str | None, *texts: str) -> None:
    """Write ``texts`` in order to ``path``, or to stdout without one."""
    with _output(path) as fh:
        fh.writelines(texts)


def _parse_state(spec: str | None, p: ModelParams, default) -> VegState:
    if spec is None:
        return default
    parts = spec.split(",")
    if len(parts) != 3:
        raise _UsageError(f"state must be TS,TNS,G; got {spec!r}")
    try:
        vals = [float(x) for x in parts]
    except ValueError:
        raise _UsageError(f"state must be numeric; got {spec!r}") from None
    try:
        return VegState(*vals)
    except ValueError as exc:
        raise ParameterError(str(exc)) from None


def _cmd_classify(args) -> None:
    p = _load_params(args)
    rep = compute_thresholds(p)
    cv = critical_values(p)
    out = _echo_block(p)
    if args.csv:
        out += rep.to_csv()
        vals = [getattr(cv, f) for f in CRITICAL_FIELDS]
        out += ",".join(CRITICAL_FIELDS) + "\n"
        out += ",".join("undefined" if v is None else f"{v:.17g}" for v in vals) + "\n"
    else:
        out += rep.to_text()
        for name, v in (("sigma_G*", cv.sigma_g_star), ("sigma_NS*", cv.sigma_ns_star),
                        ("tau*", cv.tau_star)):
            out += f"critical value {name:<10} = " + (
                "undefined" if v is None else f"{v:.6g}") + "\n"
    _emit(args.output, out)


def _cmd_simulate(args) -> None:
    p = _load_params(args)
    s0 = _parse_state(args.s0, p, VegState(0.1 * p.K_T, 0.05 * p.K_T, 0.5 * p.K_G))
    _check_output_path(args.output)
    try:
        traj = simulate(p, s0, horizon=args.horizon, h=args.h, scheme=args.scheme)
    except ValueError as exc:       # a bad horizon or step, or above the sample cap
        raise _UsageError(str(exc)) from None
    header = f"# scheme = {traj.scheme}, h_requested = {traj.h_requested:.17g}, " \
             f"h_effective = {traj.h_effective:.17g}\n"
    with _output(args.output) as fh:
        fh.write(_echo_block(p) + header)
        traj.to_csv(fh)


def _cmd_floquet(args) -> None:
    p = _load_params(args)
    if not 1 <= args.steps <= MAX_STEPS:
        raise _UsageError(f"--steps must lie in [1, {MAX_STEPS}], got {args.steps}")
    guess = _parse_state(args.guess, p, None)      # None: floquet_report's default
    _check_output_path(args.output)
    rep = floquet_report(p, guess, n=args.steps)
    out = _echo_block(p)
    out += f"# residual = {rep.residual:.17g}, boundary = {rep.boundary or 'interior'}\n"
    out += rep.to_csv()
    _emit(args.output, out)


def _parse_axes(spec: str) -> tuple[AxisSpec, AxisSpec]:
    parts = spec.split(",")
    if len(parts) != 2:
        raise _UsageError("--axes needs exactly two P:MIN:MAX:N entries")
    axes = []
    for part in parts:
        bits = part.split(":")
        if len(bits) not in (3, 4):
            raise _UsageError(f"bad axis spec {part!r}")
        name = bits[0]
        try:
            lo, hi = float(bits[1]), float(bits[2])
            n = int(bits[3]) if len(bits) == 4 else DEFAULT_GRID_N
        except ValueError:
            raise _UsageError(f"bad axis spec {part!r}") from None
        try:
            axes.append(AxisSpec(name, lo, hi, n))
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    try:
        _require_cells(*axes)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return axes[0], axes[1]


def _cmd_sweep(args) -> None:
    if args.curves and args.level is None:
        raise _UsageError("--curves needs --level")
    if args.level is not None and not math.isfinite(args.level):
        raise _UsageError(f"--level must be finite, got {args.level!r}")
    p = _load_params(args)
    axis1, axis2 = _parse_axes(args.axes)
    _check_output_path(args.output)
    _check_output_path(args.curves)
    try:
        gs = scan(p, axis1, axis2, args.quantity)
        curve = None if args.level is None else level_curve(gs, args.level)
    except ValueError as exc:
        raise ParameterError(str(exc)) from None
    with _output(args.output) as fh:
        fh.write(_echo_block(p) + f"# quantity = {gs.quantity}\n")
        gs.to_csv(fh)
    if curve is not None:
        cout = _echo_block(p)
        cout += f"# quantity = {gs.quantity}, level = {args.level:.17g}\n"
        cout += curve.to_csv()
        _emit(args.curves, cout)


def _cmd_presets(args) -> None:
    preset = region_preset(args.region)
    out = f"# region {preset.region} preset\n"
    out += dump_params_text(preset.params)
    out += "# admissible ranges\n"
    for key, (lo, hi) in sorted(preset.ranges.items()):
        out += f"# {key}: [{lo:g}, {hi:g}]\n"
    for note in preset.notes:
        out += f"# note: {note}\n"
    _emit(args.output, out)


_COMMANDS = {
    "classify": _cmd_classify,
    "simulate": _cmd_simulate,
    "floquet": _cmd_floquet,
    "sweep": _cmd_sweep,
    "presets": _cmd_presets,
}


def _show_warning(message, *args, **kwargs) -> None:
    print(f"savanna: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    with warnings.catch_warnings():
        # every warning prints as a plain message, on every call
        warnings.simplefilter("always")
        warnings.showwarning = _show_warning
        return _run(argv)


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _COMMANDS[args.command](args)
        return 0
    except _UsageError as exc:
        print(f"savanna: usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ParameterError, ThresholdError) as exc:
        print(f"savanna: validation error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR
    except NumericalError as exc:
        print(f"savanna: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except OSError as exc:
        print(f"savanna: {exc}", file=sys.stderr)
        return VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
