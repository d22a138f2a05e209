import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import savanna
import savanna.integrate
import savanna.sweep
from savanna import cli, dump_params_text, region_preset
from savanna.cli import main
from draws import CLAMP_CASES

SRC = Path(savanna.__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_region1_reference_values(capsys):
    code, out, _ = run(capsys, "classify", "--region", "1",
                       "--set", "mu_G=0.3", "--set", "eta_G=0.6", "--set", "sigma_G=0.93")
    assert code == 0
    assert "r_t0    = 3.22222" in out
    assert "r_g0    = 2" in out
    assert "classification: case_2" in out
    # overrides echoed in the effective-parameter block
    assert "# sigma_G = 0.93" in out
    assert "# mu_G = 0.29999999999999999" in out


def test_classify_csv_mode(capsys):
    code, out, _ = run(capsys, "classify", "--region", "2", "--csv")
    assert code == 0
    assert out.count("\n") > 4
    assert "r_t0,r_g0" in out
    assert "sigma_g_star,sigma_ns_star,tau_star" in out


def test_presets_region3(capsys):
    code, out, _ = run(capsys, "presets", "--region", "3")
    assert code == 0
    assert "K_T = 115" in out
    assert "K_G = 15" in out
    assert "# sigma_NS: [0.0609, 0.0913]" in out


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "simulate", "--region", "2", "--horizon", "-1")[0] == 1
    assert run(capsys, "classify")[0] == 1                       # no source
    assert run(capsys, "classify", "--region", "1", "--set", "oops")[0] == 1
    assert run(capsys, "sweep", "--region", "1", "--quantity", "rho_g0",
               "--axes", "bad")[0] == 1
    assert run(capsys, "floquet", "--region", "2", "--steps", "0")[0] == 1
    assert run(capsys, "floquet", "--region", "2", "--steps", "-5")[0] == 1


def test_one_parser_per_process_gives_a_fresh_parsers_bytes(capsys):
    # the parser is built once; each call must still start from the
    # defaults, so --set lists from earlier calls never leak into later ones
    argvs = (["classify", "--region", "1", "--set", "tau=2.5", "--set", "sigma_G=0.93"],
             ["classify", "--region", "1"],
             ["classify", "--region", "1", "--set", "oops"],          # usage error
             ["classify", "--region", "2", "--csv", "--set", "mu_G=0.2"],
             ["classify", "--region", "1"])
    shared = [run(capsys, *argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 1, 0, 0]
    assert shared[0][1] != shared[1][1] == shared[4][1]
    assert cli._build_parser() is cli._build_parser()


def test_validation_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.params"
    bad.write_text(dump_params_text(region_preset(1).params) + "mystery = 3\n")
    code, _, err = run(capsys, "classify", "--params", str(bad))
    assert code == 2
    assert "unknown key" in err
    # bad value through --set
    assert run(capsys, "classify", "--region", "1", "--set", "eta_G=1.0")[0] == 2
    assert run(capsys, "classify", "--region", "1", "--set", "nope=1")[0] == 2


def test_a_params_file_that_is_not_utf8_is_a_validation_error(tmp_path, capsys):
    bad = tmp_path / "utf16.params"
    bad.write_bytes(b"\xff\xfe" + dump_params_text(region_preset(1).params).encode("utf-16-le"))
    code, out, err = run(capsys, "classify", "--params", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("savanna: validation error: ") and "not UTF-8" in err
    assert "Traceback" not in err


def test_set_repairs_an_invalid_params_file(tmp_path, capsys):
    # the file's values, then the overrides, and only then one checked build
    flat = region_preset(2).params.flat()
    bad = tmp_path / "bad.params"
    bad.write_text("".join(f"{k} = {v!r}\n" for k, v in {**flat, "eta_G": 1.5}.items()))
    code, _, err = run(capsys, "classify", "--params", str(bad))
    assert code == 2 and "eta_G must lie in [0, 1), got 1.5" in err
    code, out, _ = run(capsys, "classify", "--params", str(bad), "--set", "eta_G=0.6")
    assert code == 0
    assert out == run(capsys, "classify", "--region", "2")[1]
    # without a g0 line, g0 is half the file's K_G, whatever K_G --set gives
    no_g0 = tmp_path / "no_g0.params"
    no_g0.write_text("".join(f"{k} = {v!r}\n" for k, v in flat.items() if k != "g0"))
    code, out, _ = run(capsys, "classify", "--params", str(no_g0), "--set", "K_G=9")
    assert code == 0
    assert "# K_G = 9\n" in out and f"# g0 = {flat['K_G'] / 2:.17g}\n" in out


def test_params_file_round_trip(tmp_path, capsys):
    f = tmp_path / "r2.params"
    f.write_text(dump_params_text(region_preset(2).params))
    code, out, _ = run(capsys, "classify", "--params", str(f))
    assert code == 0
    assert "r_t0    = 14.5" in out


def test_simulate_writes_deterministic_csv(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--region", "1", "--horizon", "21", "--h", "0.5",
            "--set", "sigma_G=0.93", "--s0", "1,1,1"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    text = b1.decode()
    assert text.startswith("# gamma_S")
    assert "t,T_S,T_NS,G,event" in text
    assert text.count("pre_fire") == 3
    capsys.readouterr()


def test_floquet_command_writes_report(tmp_path, capsys):
    out = tmp_path / "flo.csv"
    code = main(["floquet", "--region", "2", "--set", "gamma_S=1.0",
                 "--set", "mu_G=0.6", "--set", "eta_G=0.8", "--set", "K_G=5",
                 "--set", "tau=2", "--set", "sigma_G=0.247",
                 "--set", "sigma_NS=0.0123", "--guess", "10,10,2",
                 "--output", str(out)])
    assert code == 0
    text = out.read_text()
    assert "anchor_t_s" in text
    assert text.strip().endswith("stable")
    capsys.readouterr()


def test_warnings_print_as_plain_messages_on_every_call(tmp_path, capsys):
    # r_g0 < 1: orbit location warns that the existence condition fails
    argv = ["floquet", "--region", "1", "--set", "mu_G=0.9", "--steps", "8",
            "--output", str(tmp_path / "flo.csv")]
    for _ in range(2):
        code, _, err = run(capsys, *argv)
        assert code == 0
        assert "savanna: warning: savanna existence condition fails" in err
        assert ".py:" not in err


def test_sweep_command_grid_and_curve(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    curve = tmp_path / "curve.csv"
    code = main(["sweep", "--region", "1", "--set", "mu_G=0.5",
                 "--axes", "eta_G:0.1:0.87:21,sigma_NS:-0.029:-0.0155:11",
                 "--quantity", "rho_t_g", "--level", "1.0",
                 "--output", str(grid), "--curves", str(curve)])
    assert code == 0
    gtext = grid.read_text()
    assert "eta_G,sigma_NS,value,defined" in gtext
    ctext = curve.read_text()
    assert "curve_id,axis1,axis2" in ctext
    assert len(ctext.strip().split("\n")) > 3
    capsys.readouterr()


def test_unknown_region_is_usage_error(capsys):
    assert run(capsys, "classify", "--region", "7")[0] == 1


def test_sweep_case_grid_and_level_misuse(tmp_path, capsys):
    grid = tmp_path / "cases.csv"
    args = ["sweep", "--region", "1",
            "--axes", "sigma_G:0.9:0.99:3,sigma_NS:-0.029:-0.0155:3",
            "--quantity", "case"]
    assert main(args + ["--output", str(grid)]) == 0
    assert "case_" in grid.read_text()
    # a level curve over a categorical grid is a validation error
    assert main(args + ["--level", "1.0", "--output", str(grid)]) == 2
    capsys.readouterr()


def test_sweep_curves_without_level_is_usage_error(tmp_path, capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("a grid was computed")
    monkeypatch.setattr(savanna.cli, "scan", no_scan)
    grid, curve = tmp_path / "grid.csv", tmp_path / "curve.csv"
    code, out, err = run(capsys, "sweep", "--region", "1",
                         "--axes", "eta_G:0.1:0.87:5,sigma_NS:-0.029:-0.0155:5",
                         "--quantity", "rho_t_g", "--output", str(grid),
                         "--curves", str(curve))
    assert code == 1
    assert "usage error" in err and "--level" in err
    assert out == ""
    assert not grid.exists() and not curve.exists()


def test_sweep_non_finite_level_is_usage_error(tmp_path, capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("a grid was computed")
    monkeypatch.setattr(savanna.cli, "scan", no_scan)
    grid, curve = tmp_path / "grid.csv", tmp_path / "curve.csv"
    for level in ("nan", "inf", "-inf"):
        code, out, err = run(capsys, "sweep", "--region", "1",
                             "--axes", "eta_G:0.1:0.87:5,sigma_NS:-0.029:-0.0155:5",
                             "--quantity", "rho_t_g", "--level", level,
                             "--output", str(grid), "--curves", str(curve))
        assert code == 1, level
        assert "usage error" in err and "--level" in err
        assert out == ""
        assert not grid.exists() and not curve.exists()


def test_numerical_failure_exits_3(capsys):
    code, _, err = run(capsys, "simulate", "--region", "1",
                       "--set", "gamma_S=80", "--set", "gamma_NS=90",
                       "--set", "K_T=1e6", "--s0", "1,1,0",
                       "--scheme", "reference", "--h", "0.45", "--horizon", "20")
    assert code == 3
    assert "numerical failure" in err
    # a 16-step fixed point that only the pre-fire clamp makes is not an orbit
    for case, (region, values) in sorted(CLAMP_CASES.items()):
        sets = [a for k, v in values.items() for a in ("--set", f"{k}={v!r}")]
        code, out, err = run(capsys, "floquet", "--region", str(region), *sets,
                             "--steps", "16")
        assert code == 3 and out == "", case
        assert "numerical failure: the fixed point at 16 steps per period is not an orbit" in err


def run_process(*argv):
    """The CLI in a fresh interpreter, so an uncaught exception would print
    its traceback to stderr instead of failing the test process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    code = "import sys; from savanna.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


# with mu_G = 0 and gamma_G = 2, exp(gamma_G * tau) overflows for tau > 354.9
OVERFLOW = ("--region", "1", "--set", "mu_G=0", "--set", "gamma_G=2")


def test_overflowing_closed_form_classify_exits_3():
    proc = run_process("classify", *OVERFLOW, "--set", "tau=400")
    assert proc.returncode == 3
    assert "savanna: numerical failure: the closed form of rho_g0 overflows" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_overflowing_sweep_cells_are_undefined(tmp_path):
    grid = tmp_path / "cases.csv"
    proc = run_process("sweep", *OVERFLOW, "--axes", "tau:300:500:3,eta_G:0.1:0.9:3",
                       "--quantity", "case", "--output", str(grid))
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    rows = [line.split(",") for line in grid.read_text().splitlines()
            if not line.startswith("#")][1:]
    assert [(tau, defined) for tau, _, _, defined in rows] == (
        [("300", "1")] * 3 + [("400", "0")] * 3 + [("500", "0")] * 3)


def test_level_curve_through_huge_values_prints_no_warning(tmp_path):
    # rho_g0 reaches 7e216 at tau = 500, so the crossing test multiplies two
    # numbers whose product is beyond the float range; the curve is the one
    # the product's signed inf gives, without a numpy overflow warning
    grid, curves = tmp_path / "grid.csv", tmp_path / "curve.csv"
    proc = run_process("sweep", "--region", "1", "--set", "gamma_G=1.3",
                       "--axes", "tau:1:500:2,eta_G:0.5:0.95:4", "--quantity", "rho_g0",
                       "--level", "1", "--output", str(grid), "--curves", str(curves))
    assert proc.returncode == 0
    assert proc.stderr == ""
    rows = [line for line in curves.read_text().splitlines() if not line.startswith("#")]
    assert rows == [
        "curve_id,axis1,axis2",
        "0,1,0.94999999999999996",
        "0,1,0.80000000000000004",
        "0,1,0.65000000000000002",
        "0,1,0.63212055882855767",
    ]


def test_simulate_rejects_more_samples_than_the_cap():
    from savanna.integrate import MAX_SAMPLES
    assert MAX_SAMPLES >= 100 * 10**5      # far above a 1000 y run at h = 0.01
    for horizon, h in (("1e9", "1e-9"), ("1", "1e-320")):
        proc = run_process("simulate", "--region", "2", "--horizon", horizon, "--h", h)
        assert proc.returncode == 1
        assert "savanna: usage error:" in proc.stderr and "the cap is" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


def test_simulate_cap_counts_the_samples_at_the_snapped_step(monkeypatch):
    # tau = 0.001 snaps h = 0.01 to h_eff = 0.001: horizon / h is 1000, but the
    # run keeps 10001 samples
    p = region_preset(1).params.replace(tau=0.001)
    s0 = savanna.VegState(3.0, 1.5, 1.25)
    monkeypatch.setattr(savanna.integrate, "MAX_SAMPLES", 5000)
    with pytest.raises(ValueError, match="the cap is 5e\\+03"):
        savanna.simulate(p, s0, horizon=10.0, h=0.01)
    monkeypatch.setattr(savanna.integrate, "MAX_SAMPLES", 20000)
    assert savanna.simulate(p, s0, horizon=10.0, h=0.01).n_samples == 10001


def test_simulate_with_more_steps_per_period_than_floats_hold_is_usage_error(capsys):
    # tau / h overflows to inf, which math.ceil refuses
    code, out, err = run(capsys, "simulate", "--region", "1", "--set", "tau=1e308",
                         "--horizon", "10")
    assert (code, out) == (1, "")
    assert err.startswith("savanna: usage error:") and "the cap is 1e+07" in err


def test_sweep_refuses_a_grid_past_the_cell_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "scan", _refuse)
    code, out, err = run(capsys, "sweep", "--region", "1", "--quantity", "rho_t",
                         "--axes", "tau:1:2:100000000,eta_G:0:1:100000000")
    assert (code, out) == (1, "")
    assert err.startswith("savanna: usage error:") and "the cap of 1e+07 cells" in err
    # the library refuses it before it allocates the grid
    with pytest.raises(ValueError, match="cap"):
        savanna.sweep.scan(region_preset(1).params, savanna.AxisSpec("tau", 1.0, 2.0, 10**8),
                           savanna.AxisSpec("eta_G", 0.0, 1.0, 10**8), "rho_t")


def test_floquet_refuses_huge_steps_and_bad_outputs_before_locating(tmp_path, capsys,
                                                                    monkeypatch):
    monkeypatch.setattr(cli, "floquet_report", _refuse)
    code, out, err = run(capsys, "floquet", "--region", "1", "--steps", "2000000000")
    assert (code, out) == (1, "")
    assert err == "savanna: usage error: --steps must lie in [1, 65536], got 2000000000\n"
    for path, reason in ((tmp_path / "missing_dir" / "x.csv", "No such file or directory"),
                         (tmp_path, "Is a directory")):
        code, out, err = run(capsys, "floquet", "--region", "1", "--output", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("savanna: ") and reason in err and str(path) in err
    assert list(tmp_path.iterdir()) == []


def test_simulate_rejects_a_non_finite_horizon_or_step(capsys):
    for horizon, h, message in (("nan", "0.01", "horizon must be positive and finite, got nan"),
                                ("inf", "0.01", "horizon must be positive and finite, got inf"),
                                ("10", "nan", "step h must be positive and finite, got nan"),
                                ("10", "inf", "step h must be positive and finite, got inf")):
        code, out, err = run(capsys, "simulate", "--region", "2", "--horizon", horizon,
                             "--h", h)
        assert (code, out) == (1, ""), (horizon, h)
        assert err == f"savanna: usage error: {message}\n"


def _simulated_csv(region, horizon, h):
    """What ``simulate`` writes for a region preset and its default state."""
    p = region_preset(region).params
    traj = savanna.simulate(p, savanna.VegState(0.1 * p.K_T, 0.05 * p.K_T, 0.5 * p.K_G),
                            horizon=horizon, h=h)
    header = (f"# scheme = {traj.scheme}, h_requested = {traj.h_requested:.17g}, "
              f"h_effective = {traj.h_effective:.17g}\n")
    return cli._echo_block(p) + header + traj.to_csv()


# (region, horizon, h): region 1 has tau = 7 and region 2 tau = 3.5, so the last
# case has more rows between two fires than one formatting block holds
STREAMED_SIMULATIONS = {
    "off the grid": (1, 21.37, 0.5),
    "no fire": (1, 6.3, 0.1),
    "blocks between fires": (2, 30.0, 0.001),
}


def test_simulate_streams_the_csv_of_simulate(tmp_path, capsys):
    for case, (region, horizon, h) in STREAMED_SIMULATIONS.items():
        expected = _simulated_csv(region, horizon, h)
        argv = ("simulate", "--region", str(region), "--horizon", str(horizon), "--h", str(h))
        assert run(capsys, *argv) == (0, expected, ""), case
        out = tmp_path / f"{case}.csv"
        assert run(capsys, *argv, "--output", str(out)) == (0, "", ""), case
        assert out.read_bytes() == expected.encode(), case


def _scanned_csv(region, axes, quantity):
    """What ``sweep`` writes for a region preset, without a level curve."""
    p = region_preset(region).params
    gs = savanna.scan(p, *cli._parse_axes(axes), quantity)
    return cli._echo_block(p) + f"# quantity = {gs.quantity}\n" + gs.to_csv()


# (region, axes, quantity)
STREAMED_SWEEPS = {
    "numeric": (1, "eta_G:0.1:0.87:21,sigma_NS:-0.029:-0.0155:11", "rho_t_g"),
    "undefined cells": (1, "mu_G:0:0.4:5,eta_G:0.2:0.6:3", "r_g0"),
    "case labels": (1, "sigma_G:0.5:0.99:6,sigma_NS:-0.029:-0.0155:4", "case"),
}


def test_sweep_streams_the_csv_of_scan(tmp_path, capsys):
    for case, (region, axes, quantity) in STREAMED_SWEEPS.items():
        expected = _scanned_csv(region, axes, quantity)
        if case == "undefined cells":
            assert "undefined,0" in expected
        argv = ("sweep", "--region", str(region), "--axes", axes, "--quantity", quantity)
        assert run(capsys, *argv) == (0, expected, ""), case
        out = tmp_path / f"{case}.csv"
        assert run(capsys, *argv, "--output", str(out)) == (0, "", ""), case
        assert out.read_bytes() == expected.encode(), case


def _refuse(*args, **kwargs):
    raise AssertionError("the computation ran")


def test_an_unwritable_output_path_fails_before_the_computation(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "simulate", _refuse)
    monkeypatch.setattr(cli, "scan", _refuse)
    missing = tmp_path / "missing_dir" / "x.csv"
    sweep = ("sweep", "--region", "1", "--axes", "eta_G:0.1:0.87:5,sigma_NS:-0.029:-0.0155:5",
             "--quantity", "rho_tg", "--level", "1")
    for argv, path in (
            (("simulate", "--region", "2", "--output", str(missing)), missing),
            (("simulate", "--region", "2", "--output", str(tmp_path)), tmp_path),
            ((*sweep, "--output", str(missing)), missing),
            ((*sweep, "--output", str(tmp_path / "grid.csv"), "--curves", str(missing)), missing),
            ((*sweep, "--output", str(tmp_path / "grid.csv"), "--curves", str(tmp_path)),
             tmp_path)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        reason = "Is a directory" if path == tmp_path else "No such file or directory"
        assert err.startswith("savanna: ") and reason in err and str(path) in err, argv
        assert list(tmp_path.iterdir()) == [], argv


def test_a_sweep_whose_level_curve_fails_writes_no_grid(tmp_path, capsys):
    # a level curve over a categorical grid is a validation error
    grid = tmp_path / "cases.csv"
    argv = ("sweep", "--region", "1", "--axes", "sigma_G:0.9:0.99:3,sigma_NS:-0.029:-0.0155:3",
            "--quantity", "case", "--level", "1.0")
    for output in ((), ("--output", str(grid))):
        code, out, err = run(capsys, *argv, *output)
        assert (code, out) == (2, "")
        assert err == "savanna: validation error: level curves need a numeric quantity\n"
        assert not grid.exists()


def _traced_peak(argv) -> int:
    """Peak bytes that Python allocated in one ``main(argv)`` call."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_holds_its_samples_and_one_block_of_csv(tmp_path):
    out = str(tmp_path / "run.csv")
    assert main(["simulate", "--region", "2", "--horizon", "10", "--output", out]) == 0  # warm
    peak = _traced_peak(["simulate", "--region", "2", "--horizon", "1000", "--h", "0.01",
                         "--output", out])
    n_samples = 100_001         # region 2 has tau = 3.5: 285 fires, each with two rows
    rows = [line for line in Path(out).read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + n_samples + 285
    # the CSV is 8.2 MB; the store of samples is 32 bytes each
    assert peak < 32 * n_samples + 2e6, peak


def test_sweep_holds_its_grid_and_one_row_of_csv(tmp_path):
    out = str(tmp_path / "grid.csv")
    argv = ["sweep", "--region", "1",
            "--axes", "eta_G:0.1:0.87:201,sigma_NS:-0.029:-0.0155:201",
            "--quantity", "rho_t_g", "--output", out]
    assert main(argv) == 0       # warm
    peak = _traced_peak(argv)
    # the CSV is 2.3 MB; the grid holds 9 bytes a cell: a float and a flag
    assert peak < 9 * 201 ** 2 + 2e6, peak
