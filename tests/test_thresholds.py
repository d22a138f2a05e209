import math

import numpy as np
import pytest

from savanna import (
    ThresholdError,
    classify,
    compute_thresholds,
    critical_values,
    estimate_sigma_ns,
    eta_g_boundary,
    grassland_orbit,
    grassland_orbit_end,
    region_preset,
    tau_boundary,
    vector_field,
    VegState,
)
from draws import draw_region_params, draw_valid_params


def r1(**over):
    return region_preset(1).params.replace(**over)


# ---------------------------------------------------------------------------
# headline threshold values
# ---------------------------------------------------------------------------

def test_reproduction_numbers_per_region():
    rep1 = compute_thresholds(r1())
    assert rep1.r_t0 == pytest.approx(3.2222, abs=1e-3)
    assert rep1.r_g0 == pytest.approx(2.0, abs=1e-12)
    rep2 = compute_thresholds(region_preset(2).params.replace(mu_G=0.2))
    assert rep2.r_t0 == pytest.approx(14.5, abs=1e-12)
    assert rep2.r_g0 == pytest.approx(14.0, abs=1e-9)
    rep3 = compute_thresholds(region_preset(3).params)
    assert rep3.r_t0 == pytest.approx(35.0, abs=1e-9)
    assert rep3.r_g0 == pytest.approx(21.0, abs=1e-9)


def test_forest_equilibrium_closed_form_and_root_find():
    p = r1()
    eq = compute_thresholds(p).forest_eq
    assert eq.t_s == pytest.approx(12.4138, abs=1e-4)
    assert eq.t_ns == pytest.approx(8.2759, abs=1e-4)

    # independent oracle: 2-d Newton on the fire-free tree system
    x = np.array([10.0, 10.0])
    for _ in range(60):
        f = vector_field(VegState(x[0], x[1], 0.0), p)[:2]
        eps = 1e-7
        j = np.empty((2, 2))
        for k in range(2):
            xp = x.copy()
            xp[k] += eps
            j[:, k] = (vector_field(VegState(xp[0], xp[1], 0.0), p)[:2] - f) / eps
        x = x - np.linalg.solve(j, f)
    assert x[0] == pytest.approx(eq.t_s, rel=1e-9)
    assert x[1] == pytest.approx(eq.t_ns, rel=1e-9)


def test_orbit_average_matches_quadrature():
    p = r1()
    rep = compute_thresholds(p)
    # composite Simpson over one period of the closed-form orbit
    n = 4000
    ts = np.linspace(0.0, p.tau, n + 1)
    ts[-1] -= 1e-12  # stay on the pre-fire branch
    vals = np.array([grassland_orbit(p, float(t)) for t in ts])
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    integral = (p.tau / n) / 3.0 * float(weights @ vals)
    assert rep.g_int == pytest.approx(integral / p.tau, rel=1e-8)
    assert rep.g_int == pytest.approx(0.7045888500749, rel=1e-10)


def test_orbit_end_value_closed_form():
    p = r1()
    rho = 0.4 * math.exp(2.1)
    expected = 1.25 * (rho - 1.0) / ((rho - 1.0) + 0.6)
    assert grassland_orbit_end(p) == pytest.approx(expected, rel=1e-14)


def test_orbit_periodicity_and_impulse_consistency():
    p = r1()
    rng = np.random.default_rng(6)
    for t in rng.uniform(0, 5 * p.tau, size=20):
        assert grassland_orbit(p, float(t)) == pytest.approx(
            grassland_orbit(p, float(t) + p.tau), rel=1e-12)
    assert (1 - p.eta_G) * grassland_orbit_end(p) == pytest.approx(
        grassland_orbit(p, 0.0), rel=1e-12)


def test_orbit_mu_g_zero_branch():
    p = r1(mu_G=0.0, eta_G=0.6)
    rho = 0.4 * math.exp(0.6 * 7)
    assert grassland_orbit_end(p) == pytest.approx(
        2.5 * (rho - 1) / (rho - 1 + 0.6), rel=1e-12)
    rep = compute_thresholds(p)
    assert rep.r_g0 is None
    assert rep.grassland_exists


def test_tiny_mu_g_matches_mu_g_zero():
    # the grassland formulas use gamma_G - mu_G, so a subnormal mu_G gives the
    # mu_G = 0 values instead of overflowing through r_g0 = gamma_G/mu_G
    zero, tiny = r1(mu_G=0.0), r1(mu_G=1e-320)
    rep0, rep = compute_thresholds(zero), compute_thresholds(tiny)
    assert rep.rho_g0 == pytest.approx(rep0.rho_g0, rel=1e-15)
    assert rep.rho_t == pytest.approx(rep0.rho_t, rel=1e-15)
    assert grassland_orbit_end(tiny) == pytest.approx(grassland_orbit_end(zero), rel=1e-15)
    assert rep.classification == rep0.classification


def test_orbit_errors_name_violated_threshold():
    with pytest.raises(ThresholdError, match="rho_g0"):
        grassland_orbit(r1(eta_G=0.9), 1.0)  # eta_G above the 0.8775 boundary
    with pytest.raises(ThresholdError, match="r_g0"):
        grassland_orbit(r1(mu_G=0.9), 1.0)  # r_g0 = 2/3


# ---------------------------------------------------------------------------
# boundaries and identities
# ---------------------------------------------------------------------------

def test_eta_g_boundaries_region1():
    assert eta_g_boundary(r1(mu_G=0.3)) == pytest.approx(0.8775, abs=1e-3)
    assert eta_g_boundary(r1(mu_G=0.5)) == pytest.approx(0.5034, abs=1e-3)


def test_tau_boundaries_regions_2_and_3():
    p2 = region_preset(2).params
    assert tau_boundary(p2.replace(mu_G=0.2)) == pytest.approx(0.3524, abs=1e-3)
    assert tau_boundary(p2.replace(mu_G=0.3)) == pytest.approx(0.3665, abs=1e-3)
    assert tau_boundary(region_preset(3).params) == pytest.approx(0.2291, abs=1e-3)


def test_rho_g0_is_one_exactly_at_boundary():
    for mu_g in (0.3, 0.5, 0.0):
        p = r1(mu_G=mu_g)
        b = eta_g_boundary(p)
        rep = compute_thresholds(p.replace(eta_G=b))
        assert rep.rho_g0 == pytest.approx(1.0, abs=1e-12)
        assert compute_thresholds(p.replace(eta_G=b - 1e-6)).rho_g0 > 1.0
        assert compute_thresholds(p.replace(eta_G=b + 1e-6)).rho_g0 < 1.0


def test_stability_identity_and_threshold_ordering():
    rng = np.random.default_rng(7)
    for _ in range(300):
        p = draw_valid_params(rng, require_forest=True)
        rep = compute_thresholds(p)
        # independently coded right-hand side of the identity
        r_t0 = (p.gamma_S * p.mu_NS + p.gamma_NS * p.omega_S) / (p.mu_NS * (p.mu_S + p.omega_S))
        t_ns = p.K_T * p.omega_S / (p.mu_NS + p.omega_S) * (1 - 1 / r_t0)
        if p.mu_G > 0:
            rho_g0 = (1 - p.eta_G) * math.exp(p.mu_G * (p.gamma_G / p.mu_G - 1) * p.tau)
        else:
            rho_g0 = (1 - p.eta_G) * math.exp(p.gamma_G * p.tau)
        rhs = rho_g0 * math.exp(-p.tau * p.sigma_NS * t_ns)
        assert rep.rho_t_g == pytest.approx(rhs, rel=1e-10)
        if p.sigma_G * rep.g_int > 0:
            assert rep.r_g_t < rep.r_t0


def test_low_grass_reproduction_caps_forest_invasion():
    rng = np.random.default_rng(8)
    found = 0
    while found < 50:
        p = draw_valid_params(rng, require_forest=True)
        p = p.replace(mu_G=float(rng.uniform(1.0, 1.5)) * p.gamma_G,
                      sigma_NS=abs(p.sigma_NS))
        rep = compute_thresholds(p)
        if rep.r_g0 is not None and rep.r_g0 < 1:
            assert rep.r_t_g < 1
            found += 1


def test_lambda_roots_satisfy_vieta():
    rng = np.random.default_rng(9)
    for _ in range(200):
        rep = compute_thresholds(draw_valid_params(rng))
        prod = rep.lambda1 * rep.lambda2
        tot = rep.lambda1 + rep.lambda2
        assert prod.real == pytest.approx(rep.b_coef, rel=1e-12, abs=1e-12)
        assert tot.real == pytest.approx(rep.a_coef, rel=1e-12, abs=1e-12)
        assert abs(prod.imag) < 1e-12 and abs(tot.imag) < 1e-12
        assert rep.lambda1.real >= rep.lambda2.real
        # off-diagonal product omega_S*gamma_NS > 0 forces a real spectrum
        assert rep.lambda1.imag == 0.0


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classification_region1_sigma_g_window():
    rep = compute_thresholds(r1(sigma_G=0.93))
    assert rep.r_g_t > 1 and rep.rho_t <= 1
    assert rep.classification == "case_2"
    cls = classify(rep)
    assert cls.e_g == "locally asymptotically stable"
    # above the invasion threshold the grassland stays stable, case 3
    rep2 = compute_thresholds(r1(sigma_G=0.96))
    assert rep2.r_g_t < 1 and rep2.rho_t <= 1
    assert rep2.classification == "case_3"


def test_classification_high_grass_mortality_destabilizes_grassland():
    rep = compute_thresholds(r1(mu_G=0.5, sigma_G=0.93))
    assert not rep.grassland_exists
    assert rep.rho_t > 1


def test_classification_desert_gas():
    p = r1(gamma_S=0.01, gamma_NS=0.01, mu_G=0.9)
    rep = compute_thresholds(p)
    assert rep.r_t0 < 1 and rep.r_g0 < 1
    assert rep.classification == "desert_gas"


def test_classification_forest_gas_and_grassland_gas():
    p = region_preset(2).params.replace(mu_G=3.0)
    assert compute_thresholds(p).classification == "forest_gas"
    q = r1(gamma_S=0.01, gamma_NS=0.01)
    assert compute_thresholds(q).classification == "grassland_gas"


def test_classification_mu_g_zero_quadrants():
    p3 = region_preset(3).params
    rep = compute_thresholds(p3.replace(mu_G=0.0, tau=0.5, eta_G=0.95))
    assert rep.classification == "forest_gas"
    rep2 = compute_thresholds(r1(mu_G=0.0, gamma_S=0.01, gamma_NS=0.01))
    assert rep2.classification == "grassland_gas"
    rep3 = compute_thresholds(
        r1(mu_G=0.0, gamma_S=0.01, gamma_NS=0.01, eta_G=0.99, tau=1.0))
    assert rep3.classification == "desert_gas"


def test_classification_degenerate_at_critical_sigma_ns():
    p = r1()
    cv = critical_values(p)
    rep = compute_thresholds(p.replace(sigma_NS=cv.sigma_ns_star))
    assert rep.rho_t_g == pytest.approx(1.0, abs=1e-12)
    assert rep.classification.startswith("degenerate")


def test_identical_reports_classify_identically():
    rep = compute_thresholds(r1(sigma_G=0.93))
    assert classify(rep) == classify(rep)
    assert classify(rep).label == rep.classification


def test_region3_defaults_fall_in_forest_stable_cases():
    for sigma_ns in (0.0609, 0.07, 0.0913):
        rep = compute_thresholds(region_preset(3).params.replace(sigma_NS=sigma_ns))
        assert rep.r_t_g < 1 and rep.rho_t_g < 1
        assert rep.classification in {"case_8", "case_9", "case_10", "case_11"}


# ---------------------------------------------------------------------------
# critical values
# ---------------------------------------------------------------------------

def test_critical_sigma_ns_puts_forest_factor_at_one():
    for region in (1, 2, 3):
        p = region_preset(region).params
        star = critical_values(p).sigma_ns_star
        rep = compute_thresholds(p.replace(sigma_NS=star))
        assert rep.rho_t_g == pytest.approx(1.0, abs=1e-12)


def test_critical_tau_region3_grass_persistence():
    # rho_g0 > 1 exactly when tau exceeds the boundary 0.2291
    p = region_preset(3).params
    b = tau_boundary(p)
    assert b == pytest.approx(0.2291, abs=1e-3)
    assert compute_thresholds(p.replace(tau=b * 1.001)).rho_g0 > 1
    assert compute_thresholds(p.replace(tau=b * 0.999)).rho_g0 < 1


def test_sigma_g_below_star_destabilizes_grassland():
    # informative regime: region-3 growth keeps sigma_g_star positive, and
    # tau >= 2 keeps the bifurcation relation decisive for every draw
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 100:
        p = draw_region_params(rng, 3)
        p = p.replace(tau=float(rng.uniform(2.0, 3.0)))
        star = critical_values(p).sigma_g_star
        if star is None or star <= 0.05:
            continue
        p2 = p.replace(sigma_G=float(rng.uniform(0.05, star * 0.999)))
        rep = compute_thresholds(p2)
        assert rep.rho_t > 1.0
        checked += 1


def test_sigma_g_star_undefined_when_orbit_average_nonpositive():
    p = r1(eta_G=0.9)  # rho_g0 < 1 makes the formal average negative
    assert compute_thresholds(p).g_int < 0
    assert critical_values(p).sigma_g_star is None


def test_tau_star_undefined_without_grass_invasion():
    p = region_preset(3).params.replace(sigma_NS=0.0913)
    rep = compute_thresholds(p)
    assert rep.r_t_g < 1
    assert critical_values(p).tau_star is None
    p2 = region_preset(2).params
    star = critical_values(p2).tau_star
    rep2 = compute_thresholds(p2.replace(tau=star))
    assert rep2.rho_t_g == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# sigma_NS estimation
# ---------------------------------------------------------------------------

def test_sigma_ns_estimation_neutral_crown():
    assert estimate_sigma_ns(1.0, 2.8, 85, 0.5).sigma_ns == 0.0


@pytest.mark.parametrize("delta,gg,kt,eps,expected", [
    (1.58, 0.6, 30, 0.75, -0.0155),
    (1.58, 0.6, 30, 0.4, -0.029),
    (1.25, 2.8, 85, 0.67, -0.0123),
    (1.25, 2.8, 85, 0.2, -0.0412),
    (0.75, 2.8, 85, 0.67, 0.0123),
    (0.75, 2.8, 85, 0.2, 0.0412),
    (0.75, 4.2, 115, 0.15, 0.0609),
    (0.75, 4.2, 115, 0.1, 0.0913),
])
def test_sigma_ns_estimation_table(delta, gg, kt, eps, expected):
    assert estimate_sigma_ns(delta, gg, kt, eps).sigma_ns == pytest.approx(expected, abs=1e-3)


def test_sigma_ns_estimation_rejects_bad_epsilon():
    from savanna import ParameterError

    for eps in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ParameterError):
            estimate_sigma_ns(1.0, 1.0, 10.0, eps)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def test_report_csv_and_text():
    rep = compute_thresholds(r1(sigma_G=0.93))
    csv = rep.to_csv()
    header, row = csv.strip().split("\n")
    assert header.split(",") == list(rep.CSV_FIELDS)
    assert len(row.split(",")) == len(rep.CSV_FIELDS)
    assert "case_2" in row
    text = rep.to_text()
    assert "classification: case_2" in text


def test_report_marks_undefined_fields():
    rep = compute_thresholds(r1(mu_G=0.0))
    assert rep.r_g0 is None
    assert "undefined" in rep.to_csv()
    rep2 = compute_thresholds(r1(gamma_S=0.01, gamma_NS=0.01))
    assert rep2.forest_eq is None and rep2.r_t_g is None
