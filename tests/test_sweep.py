import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import savanna
import savanna.floquet
import savanna.model
import savanna.sweep
import savanna.thresholds
from savanna import (
    AxisSpec,
    NumericalError,
    classify_grid,
    compute_thresholds,
    critical_values,
    level_curve,
    region_preset,
    scan,
)
from savanna.sweep import QUANTITIES


def base1(**over):
    over.setdefault("mu_G", 0.3)
    return region_preset(1).params.replace(**over)


def test_scan_forest_factor_decreases_with_burned_fraction():
    gs = scan(base1(), AxisSpec("eta_G", 0.1, 0.87, 13),
              AxisSpec("sigma_NS", -0.029, -0.0155, 7), "rho_t_g")
    assert gs.values.shape == (13, 7)
    assert gs.defined.all()
    assert np.all(np.diff(gs.values, axis=0) < 0)       # eta_G increases
    assert np.all(np.diff(gs.values, axis=1) < 0)       # sigma_NS increases


def test_scan_degenerate_axis_duplicates_columns():
    gs = scan(base1(), AxisSpec("eta_G", 0.2, 0.8, 5),
              AxisSpec("sigma_NS", -0.02, -0.02, 2), "rho_t_g")
    assert np.array_equal(gs.values[:, 0], gs.values[:, 1])


def test_scan_constant_when_axes_do_not_enter():
    gs = scan(base1(), AxisSpec("eta_G", 0.1, 0.8, 4),
              AxisSpec("sigma_NS", -0.029, -0.0155, 4), "r_t0")
    assert np.all(gs.values == gs.values[0, 0])


def test_scan_transpose_symmetry():
    a1 = AxisSpec("eta_G", 0.1, 0.8, 6)
    a2 = AxisSpec("tau", 5.0, 9.0, 5)
    g12 = scan(base1(), a1, a2, "rho_g0")
    g21 = scan(base1(), a2, a1, "rho_g0")
    assert np.array_equal(g12.values, g21.values.T)


def test_scan_concurrent_identical_to_sequential():
    a1 = AxisSpec("eta_G", 0.1, 0.87, 9)
    a2 = AxisSpec("sigma_NS", -0.029, -0.0155, 9)
    seq = scan(base1(), a1, a2, "rho_t_g")
    par = scan(base1(), a1, a2, "rho_t_g", concurrent=True)
    assert seq.to_csv() == par.to_csv()


def test_scan_marks_undefined_cells():
    # mu_G = 0 leaves the grass reproduction number undefined
    gs = scan(base1(), AxisSpec("mu_G", 0.0, 0.4, 5),
              AxisSpec("eta_G", 0.2, 0.6, 3), "r_g0")
    assert not gs.defined[0].any()
    assert gs.defined[1:].all()
    assert "undefined" in gs.to_csv()


def test_scan_rejects_bad_requests():
    with pytest.raises(ValueError, match="quantity"):
        scan(base1(), AxisSpec("eta_G", 0.1, 0.8, 3),
             AxisSpec("tau", 5, 9, 3), "not_a_field")
    with pytest.raises(ValueError, match="axis"):
        scan(base1(), AxisSpec("bogus", 0.1, 0.8, 3),
             AxisSpec("tau", 5, 9, 3), "rho_g0")
    with pytest.raises(ValueError, match="different"):
        scan(base1(), AxisSpec("tau", 5, 9, 3), AxisSpec("tau", 5, 9, 3), "rho_g0")
    with pytest.raises(ValueError, match="n >= 2"):
        AxisSpec("tau", 5, 9, 1)
    with pytest.raises(ValueError, match="whole grid"):
        scan(base1(mu_G=0.0), AxisSpec("eta_G", 0.2, 0.6, 3),
             AxisSpec("tau", 5, 9, 3), "r_g0")


def test_monotonicity_rho_g0_in_tau_and_eta_g():
    gs = scan(base1(), AxisSpec("tau", 5.0, 12.0, 8),
              AxisSpec("eta_G", 0.1, 0.8, 6), "rho_g0")
    assert np.all(np.diff(gs.values, axis=0) > 0)
    assert np.all(np.diff(gs.values, axis=1) < 0)


# ---------------------------------------------------------------------------
# level curves
# ---------------------------------------------------------------------------

def test_level_curve_empty_without_crossing():
    gs = scan(base1(), AxisSpec("eta_G", 0.1, 0.3, 4),
              AxisSpec("sigma_NS", -0.029, -0.0155, 4), "rho_t_g")
    assert np.all(gs.values > 1.0)
    assert level_curve(gs, 1.0).polylines == ()


def test_level_curve_two_by_two_grid():
    # hand-made scan: values 0.5 / 1.5 across the first axis
    gs = scan(base1(), AxisSpec("eta_G", 0.3, 0.8, 2),
              AxisSpec("sigma_NS", -0.02, -0.019, 2), "rho_g0")
    target = float(0.5 * (gs.values[0, 0] + gs.values[1, 0]))
    lc = level_curve(gs, target)
    assert len(lc.polylines) == 1
    (x1, y1), (x2, y2) = lc.polylines[0]
    assert y1 == pytest.approx(-0.02) and y2 == pytest.approx(-0.019)
    assert x1 == pytest.approx(x2)
    # interpolation equation holds exactly at the vertices
    v_lo, v_hi = gs.values[0, 0], gs.values[1, 0]
    t = (x1 - 0.3) / 0.5
    assert v_lo + t * (v_hi - v_lo) == pytest.approx(target, rel=1e-12)


def test_level_curve_forest_factor_region1_heavier_mortality():
    base = base1(mu_G=0.5)
    gs = scan(base, AxisSpec("eta_G", 0.1, 0.87, 41),
              AxisSpec("sigma_NS", -0.029, -0.0155, 21), "rho_t_g")
    lc = level_curve(gs, 1.0)
    assert len(lc.polylines) >= 1
    pts = [pt for line in lc.polylines for pt in line]
    assert len(pts) > 10
    for eta_g, s_ns in pts[::5]:
        rep = compute_thresholds(base.replace(eta_G=float(eta_g), sigma_NS=float(s_ns)))
        assert abs(rep.rho_t_g - 1.0) < 0.02  # grid-linearization error only


def test_level_curve_grassland_factor_region2():
    # the rho_t = 1 contour separates grassland-stable from unstable cells,
    # and every cell left of the critical sigma_G(tau) is unstable
    from savanna import critical_values

    base = region_preset(2).params.replace(mu_G=0.2, gamma_S=1.0)
    a_tau = AxisSpec("tau", 2.0, 5.0, 21)
    a_sg = AxisSpec("sigma_G", 0.247, 1.6287, 21)
    gs = scan(base, a_tau, a_sg, "rho_t")
    assert gs.defined.all()
    assert (gs.values > 1).any() and (gs.values < 1).any()

    lc = level_curve(gs, 1.0)
    assert len(lc.polylines) >= 1
    # every vertex satisfies its defining linear interpolation to roundoff
    taus, sgs = a_tau.values(), a_sg.values()
    for line in lc.polylines:
        for t, s in line:
            i = int(np.clip(np.searchsorted(taus, t) - 1, 0, a_tau.n - 2))
            j = int(np.clip(np.searchsorted(sgs, s) - 1, 0, a_sg.n - 2))
            on_tau_edge = abs(s - sgs[j]) < 1e-12 or abs(s - sgs[j + 1]) < 1e-12
            on_sg_edge = abs(t - taus[i]) < 1e-12 or abs(t - taus[i + 1]) < 1e-12
            assert on_tau_edge or on_sg_edge
            if on_tau_edge:
                jj = j if abs(s - sgs[j]) < 1e-12 else j + 1
                frac = (t - taus[i]) / (taus[i + 1] - taus[i])
                v = gs.values[i, jj] + frac * (gs.values[i + 1, jj] - gs.values[i, jj])
            else:
                ii = i if abs(t - taus[i]) < 1e-12 else i + 1
                frac = (s - sgs[j]) / (sgs[j + 1] - sgs[j])
                v = gs.values[ii, j] + frac * (gs.values[ii, j + 1] - gs.values[ii, j])
            assert v == pytest.approx(1.0, abs=1e-9)

    for i, tau in enumerate(taus):
        star = critical_values(base.replace(tau=float(tau))).sigma_g_star
        if star is None:
            continue
        below = sgs < star
        assert np.all(gs.values[i, below] > 1.0)


def test_forest_factor_grid_region2_and_critical_tau():
    # data-grid form of the region-2 forest-factor figure; within the
    # region's tau range the factor stays above one, and widening tau
    # downward exposes the unity crossing exactly at tau_star
    from savanna import critical_values

    base = region_preset(2).params
    gs = scan(base, AxisSpec("tau", 2.0, 5.0, 7),
              AxisSpec("sigma_NS", -0.0412, 0.0412, 9), "rho_t_g")
    assert np.all(np.diff(gs.values, axis=1) < 0)
    assert np.all(gs.values > 1.0)

    wide = scan(base.replace(sigma_NS=0.0412), AxisSpec("tau", 0.5, 5.0, 46),
                AxisSpec("sigma_NS", 0.0410, 0.0412, 2), "rho_t_g")
    lc = level_curve(wide, 1.0)
    assert len(lc.polylines) >= 1
    tau_cross = lc.polylines[0][0][0]
    star = critical_values(base.replace(sigma_NS=0.0412)).tau_star
    assert tau_cross == pytest.approx(star, abs=0.02)


def test_grassland_factor_grid_region3_qualitative():
    # low grass pressure: the fire period hardly moves the factor;
    # high pressure: the factor decreases as the period grows
    gs = scan(region_preset(3).params, AxisSpec("tau", 0.5, 3.0, 11),
              AxisSpec("sigma_G", 0.3, 1.6, 11), "rho_t")
    low = gs.values[:, 2]
    high = gs.values[:, 9]
    assert low.max() - low.min() < 0.1
    assert np.all(np.diff(high) < 0)


def test_level_curve_respects_undefined_cells():
    gs = scan(base1(), AxisSpec("mu_G", 0.0, 0.4, 5),
              AxisSpec("eta_G", 0.2, 0.6, 3), "r_g0")
    lc = level_curve(gs, 2.0)
    for line in lc.polylines:
        for x, _ in line:
            assert x > 0.0  # nothing interpolated into the mu_G = 0 row


def test_level_curve_needs_numeric_quantity():
    cg = classify_grid(base1(), AxisSpec("sigma_G", 0.9, 0.99, 3),
                       AxisSpec("sigma_NS", -0.029, -0.0155, 3))
    with pytest.raises(ValueError, match="numeric"):
        level_curve(cg, 1.0)


# ---------------------------------------------------------------------------
# classification grids
# ---------------------------------------------------------------------------

def test_classify_grid_region1_sigma_g_boundary():
    cg = classify_grid(base1(eta_G=0.6),
                       AxisSpec("sigma_G", 0.90, 0.9984, 25),
                       AxisSpec("sigma_NS", -0.029, -0.0155, 3))
    labels = cg.values
    assert set(np.unique(labels)) == {"case_2", "case_3"}
    # the case_2 -> case_3 switch happens near sigma_G = 0.95
    sig = cg.axis1.values()
    for j in range(cg.axis2.n):
        col = labels[:, j]
        switch = sig[np.argmax(col == "case_3")]
        assert 0.94 <= switch <= 0.96


def test_classify_grid_region3_forest_stable_cases():
    cg = classify_grid(region_preset(3).params.replace(sigma_NS=0.07),
                       AxisSpec("sigma_G", 0.3, 1.6, 5),
                       AxisSpec("tau", 0.5, 3.0, 5))
    for label in np.unique(cg.values):
        assert label in {"case_8", "case_9", "case_10", "case_11"}


def test_classify_grid_gas_outside_summary_table():
    cg = classify_grid(base1(gamma_S=0.01, gamma_NS=0.01),
                       AxisSpec("sigma_G", 0.2, 0.9, 3),
                       AxisSpec("eta_G", 0.2, 0.6, 3))
    assert set(np.unique(cg.values)) == {"grassland_gas"}


def test_rho_tg_scan_smoke():
    base = region_preset(2).params.replace(
        gamma_S=1.0, mu_G=0.6, eta_G=0.8, K_G=5.0, tau=2.0, sigma_NS=0.0123)
    gs = scan(base, AxisSpec("sigma_G", 0.247, 0.30, 2),
              AxisSpec("sigma_NS", 0.0123, 0.015, 2), "rho_tg")
    assert gs.defined.all()
    assert np.all(gs.values < 1.0)


def test_rho_tg_scan_survives_a_numerically_failing_cell(monkeypatch):
    def report(p, guess=None, n=savanna.floquet.DEFAULT_STEPS):
        if p.sigma_G == 0.5 and p.eta_G == 0.4:
            raise NumericalError("period map diverged")
        return SimpleNamespace(rho_tg=p.sigma_G + p.eta_G,
                               diagnostics={"converged": True})

    monkeypatch.setattr(savanna.sweep, "floquet_report", report)
    gs = scan(base1(), AxisSpec("sigma_G", 0.3, 0.5, 3),
              AxisSpec("eta_G", 0.2, 0.4, 3), "rho_tg")
    expected = np.ones((3, 3), dtype=bool)
    expected[2, 2] = False
    assert np.array_equal(gs.defined, expected)
    assert np.isnan(gs.values[2, 2])
    assert np.all(np.isfinite(gs.values[expected]))


# ---------------------------------------------------------------------------
# closed-form grids against cell-by-cell evaluation
# ---------------------------------------------------------------------------

CRITICAL = ("sigma_g_star", "sigma_ns_star", "tau_star")
CLOSED_FORM = tuple(q for q in QUANTITIES if q != "rho_tg")


def _cell(base, name1, x, name2, y):
    """Every closed-form quantity at one node through the one-cell calls;
    None where undefined, and any exception leaves the whole cell undefined."""
    out = dict.fromkeys(CLOSED_FORM)
    try:
        p = base.replace(**{name1: float(x), name2: float(y)})
        rep = compute_thresholds(p)
    except Exception:
        return out
    out["case"] = rep.classification
    for q in CLOSED_FORM[:-1]:
        if q not in CRITICAL:
            v = getattr(rep, q)
            out[q] = v if v is not None and math.isfinite(v) else None
    try:
        cv = critical_values(p)
    except Exception:
        return out
    for q in CRITICAL:
        out[q] = getattr(cv, q)
    return out


def _cellwise_csv(cells, a1, a2, quantity):
    lines = [f"{a1.name},{a2.name},value,defined"]
    for i, x in enumerate(a1.values()):
        for j, y in enumerate(a2.values()):
            v = cells[i][j][quantity]
            sval = "undefined" if v is None else v if quantity == "case" else f"{v:.17g}"
            lines.append(f"{x:.17g},{y:.17g},{sval},{int(v is not None)}")
    return "\n".join(lines) + "\n"


def _grid_cases():
    for region in (1, 2, 3):
        preset = region_preset(region)
        base, ranges = preset.params, preset.ranges
        yield base, AxisSpec("tau", *ranges["tau"], 6), AxisSpec("eta_G", 0.0, 1.2, 7)
        yield base, AxisSpec("mu_G", 0.0, 0.6, 7), AxisSpec("gamma_G", *ranges["gamma_G"], 5)
        yield base, AxisSpec("sigma_NS", -0.05, 0.1, 6), AxisSpec("K_G", *ranges["K_G"], 5)
        yield base, AxisSpec("g0", -1.0, base.K_G, 5), AxisSpec("sigma_G", 0.1, 1.6, 6)
    # exp((gamma_G - mu_G) tau) overflows for tau above 354.9
    yield (region_preset(1).params.replace(mu_G=0.0, gamma_G=2.0),
           AxisSpec("tau", 300.0, 500.0, 5), AxisSpec("eta_G", 0.1, 0.9, 3))
    # a subnormal K_T underflows the forest equilibrium to zero, and the
    # critical values divide by it
    yield (region_preset(1).params, AxisSpec("K_T", 5e-324, 1e-322, 3),
           AxisSpec("sigma_NS", -0.02, 0.02, 3))
    # an axis that runs into invalid values (eta_G >= 1)
    yield (region_preset(2).params,
           AxisSpec("tau", 2.0, 5.0, 4), AxisSpec("eta_G", 0.5, 1.1, 4))


@pytest.mark.parametrize("base,a1,a2", list(_grid_cases()))
def test_closed_form_scan_equals_cell_by_cell_evaluation(base, a1, a2):
    cells = [[_cell(base, a1.name, x, a2.name, y) for y in a2.values()] for x in a1.values()]
    for quantity in CLOSED_FORM:
        if all(c[quantity] is None for row in cells for c in row):
            with pytest.raises(ValueError, match="whole grid"):
                scan(base, a1, a2, quantity)
        else:
            expected = _cellwise_csv(cells, a1, a2, quantity)
            assert scan(base, a1, a2, quantity).to_csv() == expected, quantity


def test_closed_form_scan_does_not_evaluate_cell_by_cell(monkeypatch):
    calls = Counter()
    modules = (savanna, savanna.model, savanna.thresholds, savanna.sweep, savanna.floquet)
    for name, original in (("compute_thresholds", savanna.thresholds.compute_thresholds),
                           ("validate", savanna.model.validate)):
        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)

    a1 = AxisSpec("eta_G", 0.1, 0.87, 41)
    a2 = AxisSpec("sigma_NS", -0.029, -0.0155, 37)
    base = base1()
    for quantity in ("rho_t_g", "case", "tau_star"):
        calls.clear()
        gs = scan(base, a1, a2, quantity)
        assert gs.defined.any()
        assert calls["compute_thresholds"] == 0
        assert calls["validate"] == 0         # no cell builds a ModelParams
    # the counters do see a one-cell evaluation and the two checked
    # constructions (preset, replace) of its parameters
    savanna.compute_thresholds(base1())
    assert calls["compute_thresholds"] == 1 and calls["validate"] == 2
