"""Seeded CLI fuzz test: hostile argvs exit with a documented code and a message.

Argvs come from a small grammar of subcommands, options and values (nan, inf,
1e308, 1e-320, negative, missing and non-numeric values, bad axes, bad
paths), drawn with stdlib ``random``, and run in-process through
``cli.main``.  Every run must return 0, 1, 2 or 3 without raising, and every
line it writes to stderr must start with ``savanna:``.  Each case is kept
cheap: short horizons and coarse steps, ``--steps`` at most 64, closed-form
grids of at most 5x5 and ``rho_tg`` grids of at most 2x2 on preset axes.
"""

from __future__ import annotations

import random

import pytest

from savanna import PARAM_KEYS, dump_params_text, region_preset
from savanna.cli import main

SEED = 2028
CASES = 500
NUMBERS = ("nan", "inf", "-inf", "1e308", "-1e308", "1e200", "1e-100", "1e-320", "-1", "0")
HOSTILE = NUMBERS + ("abc", "")
AXIS_NAMES = ("tau", "eta_G", "sigma_G", "K_G", "g0", "alpha", "oops")
QUANTITIES = ("rho_t_g", "r_t0", "rho_t", "sigma_ns_star", "tau_star", "case", "oops")

# argvs that once ended in a traceback or in unbounded work; the first fails
# fast where the others are not refused, so the test stops before them
KNOWN = (
    ["simulate", "--region", "1", "--set", "tau=1e308", "--horizon", "10"],
    ["simulate", "--region", "1", "--set", "tau=0.001", "--horizon", "100000"],
    ["sweep", "--region", "1", "--axes", "tau:1:2:100000000,eta_G:0:1:100000000",
     "--quantity", "rho_t"],
    ["floquet", "--region", "1", "--steps", "2000000000"],
    # overflows: the NSFD denominators, the fire intensity and its slope
    ["simulate", "--region", "2", "--set", "gamma_S=1e308", "--horizon", "5"],
    ["simulate", "--region", "1", "--set", "K_G=1e200", "--horizon", "20", "--h", "0.1"],
    ["simulate", "--region", "3", "--set", "g0=1e308", "--horizon", "20", "--h", "0.1"],
    ["floquet", "--region", "1", "--set", "g0=1e100", "--steps", "64"],
    # a non-finite monodromy at the orbit, and a non-finite Newton step
    ["floquet", "--region", "2", "--set", "K_T=1e-320", "--set", "sigma_NS=0.999999",
     "--steps", "16"],
    ["floquet", "--region", "1", "--set", "gamma_NS=0", "--set", "gamma_S=0.999999",
     "--set", "tau=1e-320", "--steps", "16"],
)


def _paths(tmp_path):
    """Output paths, stdout most often: a new file, a directory, a file in a
    missing directory."""
    return (None, None, None, str(tmp_path / "out.csv"), str(tmp_path),
            str(tmp_path / "missing" / "out.csv"))


def _params_files(tmp_path):
    good = tmp_path / "good.txt"
    good.write_text(dump_params_text(region_preset(2).params))
    bad = tmp_path / "bad.txt"
    bad.write_text("gamma_S = oops\n")
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe tau = 1\n")
    return (str(good), str(good), str(bad), str(binary), str(tmp_path / "absent.txt"),
            str(tmp_path))


def _value(rng, *usual):
    """One of ``usual`` or, one time in five, a hostile value."""
    return rng.choice(HOSTILE) if rng.random() < 0.2 else rng.choice(usual)


def _source(rng, files, hostile=True):
    """Parameter options: a preset or a file, rarely both or neither, and
    ``--set`` overrides, most of them numeric."""
    pick = rng.random() if hostile else 0.0
    if pick < 0.7:
        argv = ["--region", rng.choice("123")]
    elif pick < 0.9:
        argv = ["--params", rng.choice(files)]
    else:
        argv = rng.choice(([], ["--region", "1", "--params", files[0]],
                           ["--region", rng.choice(("0", "x", "nan"))]))
    for _ in range(rng.randrange(3) if hostile else 0):
        key = rng.choice(PARAM_KEYS)
        value = rng.choice(NUMBERS + (f"{rng.uniform(0.0, 2.0):.3g}",) * 4)
        argv += ["--set", rng.choice((f"{key}={value}",) * 8 + (key, f"{key}=abc", "oops=1"))]
    return argv


def _state(rng):
    return rng.choice((None, None, "1,1,1", "20,5,1", "1,1", "a,b,c", "-1,0,0", "nan,0,0",
                       "1e308,1e308,1e308", "1e-320,0,1e-320"))


def _option(argv, name, value):
    return argv if value is None else argv + [name, value]


def _axis(rng):
    name = rng.choice(AXIS_NAMES)
    lo, hi, n = _value(rng, "0.1", "1", "3"), _value(rng, "0.5", "2", "10"), _value(rng, "2", "5")
    spec = f"{name}:{lo}:{hi}:{rng.choice((n,) * 6 + ('1', '-3', '100000000'))}"
    return rng.choice((spec,) * 6 + (f"{name}:{lo}:{hi}", f"{name}:{lo}", name))


def _argv(rng, paths, files):
    command = rng.choice(("classify", "simulate", "floquet", "sweep", "presets"))
    if command == "presets":
        argv = ["presets", "--region", rng.choice(("1", "2", "3") * 3 + ("0", "x"))]
        return _option(argv, "--output", rng.choice(paths))
    rho_tg = command == "sweep" and rng.random() < 0.15
    argv = [command] + _source(rng, files, hostile=not rho_tg)
    argv = _option(argv, "--output", rng.choice(paths))
    if command == "classify" and rng.random() < 0.5:
        argv.append("--csv")
    elif command == "simulate":
        argv = _option(argv, "--horizon", _value(rng, None, "1", "5", "20"))
        argv = _option(argv, "--h", _value(rng, None, "0.1", "0.5", "1", "1e308"))
        argv = _option(argv, "--scheme", rng.choice((None, None, "nsfd", "reference", "bogus")))
        argv = _option(argv, "--s0", _state(rng))
    elif command == "floquet":
        argv = _option(argv, "--steps", _value(rng, "16", "32", "64", "2000000000"))
        argv = _option(argv, "--guess", _state(rng))
    elif rho_tg:
        argv += ["--axes", "tau:5:8:2,eta_G:0.5:0.7:2", "--quantity", "rho_tg"]
    elif command == "sweep":
        axes = ",".join(_axis(rng) for _ in range(rng.choice((1, 2, 2, 2, 2, 2, 3))))
        argv += ["--axes", axes, "--quantity", rng.choice(QUANTITIES)]
        argv = _option(argv, "--level", rng.choice((None, None, None, "1", "0.5", "nan", "x")))
        argv = _option(argv, "--curves", rng.choice(paths))
    return argv


def _check(argv, capsys):
    try:
        code = main(argv)
    except BaseException as exc:            # a traceback, or SystemExit
        pytest.fail(f"{argv} raised {exc!r}")
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, code)
    assert code == 0 or err, argv
    for line in err.splitlines():
        assert line.startswith("savanna: "), (argv, err)


def test_hostile_argvs_exit_with_a_documented_code(tmp_path, capsys):
    paths, files = _paths(tmp_path), _params_files(tmp_path)
    rng = random.Random(SEED)
    for argv in list(KNOWN) + [_argv(rng, paths, files) for _ in range(CASES)]:
        _check(argv, capsys)
