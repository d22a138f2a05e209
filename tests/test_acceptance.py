"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` (or ``-rA``) to see the
per-criterion lines.  Criterion 10 checks membership in the full feasible
region, tree capacity included, after every NSFD step (the invariance
argument is in the ``savanna.integrate`` docstring; see also
tests/test_integrate.py).
"""

import itertools
import math
import time

import numpy as np

from savanna import (
    VegState,
    compute_thresholds,
    cubic_eigenvalues,
    estimate_sigma_ns,
    eta_g_boundary,
    grassland_multipliers_analytic,
    grassland_orbit,
    impulse_map,
    in_omega,
    jacobian,
    jump_jacobian,
    level_curve,
    locate_savanna_orbit,
    monodromy_full,
    nsfd_step,
    region_preset,
    rho_tg,
    scan,
    simulate,
    tau_boundary,
    vector_field,
    AxisSpec,
)
from draws import draw_region_params, draw_state_in_omega, draw_valid_params


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def r1(**over):
    return region_preset(1).params.replace(**over)


def test_criterion_01_threshold_tables():
    t0 = time.perf_counter()
    rep1 = compute_thresholds(r1(mu_G=0.3))
    rep2 = compute_thresholds(region_preset(2).params.replace(mu_G=0.2))
    rep3 = compute_thresholds(region_preset(3).params)
    elapsed = time.perf_counter() - t0
    checks = [
        abs(rep1.r_t0 - 3.2222) < 1e-3, abs(rep1.r_g0 - 2.0) < 1e-3,
        abs(rep2.r_t0 - 14.5) < 1e-3, abs(rep2.r_g0 - 14.0) < 1e-3,
        abs(rep3.r_t0 - 35.0) < 1e-3, abs(rep3.r_g0 - 21.0) < 1e-3,
        elapsed < 1.0,
    ]
    ok = all(checks)
    _report(1, ok, f"regional reproduction numbers to 1e-3 in {elapsed:.3f}s")
    assert ok, checks


def test_criterion_02_grass_persistence_boundaries():
    vals = [
        (eta_g_boundary(r1(mu_G=0.3)), 0.8775),
        (eta_g_boundary(r1(mu_G=0.5)), 0.5034),
        (tau_boundary(region_preset(2).params.replace(mu_G=0.2)), 0.3524),
        (tau_boundary(region_preset(2).params.replace(mu_G=0.3)), 0.3665),
        (tau_boundary(region_preset(3).params), 0.2291),
    ]
    ok = all(abs(got - want) < 1e-3 for got, want in vals)
    _report(2, ok, "eta_G and tau boundaries of the grass residual factor")
    assert ok, vals


def test_criterion_03_sigma_g_bifurcation_anchor():
    base = r1(mu_G=0.3, eta_G=0.6)  # tau = 7 from the preset

    def invasion_gap(sigma_g):
        return compute_thresholds(base.replace(sigma_G=sigma_g)).r_g_t - 1.0

    lo, hi = 0.5, 1.2
    assert invasion_gap(lo) > 0 > invasion_gap(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if invasion_gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)

    window = np.linspace(0.92, 0.9984, 60, endpoint=False)
    rho_vals = [compute_thresholds(base.replace(sigma_G=float(s))).rho_t for s in window]
    rho_heavy = compute_thresholds(base.replace(mu_G=0.5, sigma_G=0.93)).rho_t

    checks = [0.94 <= root <= 0.96, all(v <= 1.0 for v in rho_vals), rho_heavy > 1.0]
    ok = all(checks)
    _report(3, ok, f"tree-invasion sign change at sigma_G = {root:.4f}; "
                   f"grassland factor <= 1 on the window, > 1 for mu_G = 0.5")
    assert ok, (root, max(rho_vals), rho_heavy)


def test_criterion_04_sigma_ns_table():
    rows = [
        (1.58, 0.6, 30, 0.4, -0.029), (1.58, 0.6, 30, 0.75, -0.0155),
        (1.25, 2.8, 85, 0.2, -0.0412), (1.25, 2.8, 85, 0.67, -0.0123),
        (0.75, 2.8, 85, 0.67, 0.0123), (0.75, 2.8, 85, 0.2, 0.0412),
        (0.75, 4.2, 115, 0.15, 0.0609), (0.75, 4.2, 115, 0.1, 0.0913),
    ]
    errs = [abs(estimate_sigma_ns(d, g, k, e).sigma_ns - want)
            for d, g, k, e, want in rows]
    ok = all(e < 1e-3 for e in errs)
    _report(4, ok, f"all eight crown-effect estimates to 1e-3 (worst {max(errs):.2e})")
    assert ok, errs


def test_criterion_05_analytic_identity_suite():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_identity = 0.0
    for _ in range(1000):
        p = draw_valid_params(rng, require_forest=True)
        rep = compute_thresholds(p)
        # independently coded identity right-hand side
        r_t0 = (p.gamma_S * p.mu_NS + p.gamma_NS * p.omega_S) / (
            p.mu_NS * (p.mu_S + p.omega_S))
        t_ns = p.K_T * p.omega_S / (p.mu_NS + p.omega_S) * (1 - 1 / r_t0)
        rate = p.mu_G * (p.gamma_G / p.mu_G - 1) if p.mu_G > 0 else p.gamma_G
        rhs = (1 - p.eta_G) * math.exp(rate * p.tau) * math.exp(
            -p.tau * p.sigma_NS * t_ns)
        worst_identity = max(worst_identity, abs(rep.rho_t_g - rhs) / abs(rhs))
        if p.sigma_G * rep.g_int > 0:
            assert rep.r_g_t < rep.r_t0
    elapsed = time.perf_counter() - t0
    ok = worst_identity < 1e-10 and elapsed < 5.0
    _report(5, ok, f"forest-factor identity over 1000 draws "
                   f"(worst {worst_identity:.2e}) in {elapsed:.2f}s")
    assert ok, (worst_identity, elapsed)


def test_criterion_06_closed_form_orbit_vs_simulation():
    p = r1()  # mu_G = 0.3, eta_G = 0.6 preset values
    start = VegState(0.0, 0.0, grassland_orbit(p, 0.0))

    def worst_error(scheme):
        traj = simulate(p, start, horizon=10 * p.tau, h=p.tau / 1000, scheme=scheme)
        stride = max(1, len(traj.samples) // 100)
        picked = traj.samples[::stride][:100]
        assert len(picked) == 100
        return max(abs(s.g - grassland_orbit(p, t)) / grassland_orbit(p, t)
                   for t, s in picked)

    err_ref = worst_error("reference")
    err_nsfd = worst_error("nsfd")
    ok = err_ref < 1e-6 and err_nsfd < 1e-3
    _report(6, ok, f"grass orbit reproduced: reference {err_ref:.2e} (<1e-6), "
                   f"positivity scheme {err_nsfd:.2e} (<1e-3)")
    assert ok, (err_ref, err_nsfd)


def test_criterion_07_global_stability_convergence():
    regimes = {
        "desert": (r1(gamma_S=0.01, gamma_NS=0.01, mu_G=0.9),
                   lambda p, t: np.zeros(3)),
        "forest (grass mortality)": (region_preset(2).params.replace(mu_G=3.0),
                                     None),
        "forest (no grass death rate)": (
            region_preset(3).params.replace(mu_G=0.0, tau=0.5, eta_G=0.95), None),
        "grassland": (r1(gamma_S=0.01, gamma_NS=0.01),
                      lambda p, t: np.array([0.0, 0.0, grassland_orbit(p, t)])),
    }
    expected_class = {
        "desert": "desert_gas",
        "forest (grass mortality)": "forest_gas",
        "forest (no grass death rate)": "forest_gas",
        "grassland": "grassland_gas",
    }
    rng = np.random.default_rng(77)
    worst = {}
    for name, (p, attractor) in regimes.items():
        rep = compute_thresholds(p)
        assert rep.classification == expected_class[name]
        if attractor is None:
            eq = rep.forest_eq.as_array()
            attractor = lambda p, t, eq=eq: eq
        dist = 0.0
        for _ in range(5):
            u = rng.uniform(size=3)
            s0 = VegState(float((0.05 + 0.55 * u[0]) * p.K_T),
                          float((0.05 + 0.25 * u[1]) * p.K_T),
                          float((0.05 + 0.85 * u[2]) * p.K_G))
            traj = simulate(p, s0, horizon=500.0, h=0.05, scheme="reference")
            t_end, s_end = traj.samples[-1]
            dist = max(dist, float(np.max(np.abs(s_end.as_array() - attractor(p, t_end)))))
        worst[name] = dist
    ok = all(d < 1e-4 for d in worst.values())
    _report(7, ok, "convergence to the classified attractor from 5 interior "
                   f"states per regime (worst {max(worst.values()):.2e})")
    assert ok, worst


def test_criterion_08_floquet_cross_validation():
    p = r1()
    anchor = VegState(0.0, 0.0, grassland_orbit(p, 0.0))
    full = monodromy_full(p, anchor)
    eigs = cubic_eigenvalues(full.matrix)
    _, _, xi3 = grassland_multipliers_analytic(p)
    xi3_err = min(abs(abs(z) - xi3) for z in eigs)
    liouville_err = abs(np.linalg.det(full.fundamental)
                        - math.exp(full.trace_integral)) / math.exp(full.trace_integral)

    rng = np.random.default_rng(31)
    fd_worst = 0.0
    for _ in range(50):
        q = draw_region_params(rng, int(rng.integers(1, 4)), interval_only=False)
        s = draw_state_in_omega(rng, q)
        x = s.as_array()
        for target, jac in ((vector_field, jacobian(s, q)),
                            (lambda st, pp: impulse_map(st, pp).as_array(),
                             jump_jacobian(s, q))):
            fd = np.empty((3, 3))
            for k in range(3):
                eps = 1e-6 * max(1.0, abs(x[k]))
                xp, xm = x.copy(), x.copy()
                xp[k] += eps
                xm[k] = max(xm[k] - eps, 0.0)
                fp = np.asarray(target(VegState(*xp), q), dtype=float)
                fm = np.asarray(target(VegState(*xm), q), dtype=float)
                fd[:, k] = (fp - fm) / (xp[k] - xm[k])
            fd_worst = max(fd_worst, float(np.max(np.abs(jac - fd)))
                           / max(1.0, float(np.max(np.abs(jac)))))
    ok = xi3_err < 1e-6 and liouville_err < 1e-6 and fd_worst < 1e-6
    _report(8, ok, f"grass multiplier {xi3_err:.1e}, volume identity "
                   f"{liouville_err:.1e}, jacobians vs differences {fd_worst:.1e}")
    assert ok, (xi3_err, liouville_err, fd_worst)


def test_criterion_09_savanna_orbit_case1():
    # scan the region-2 admissible ranges for a both-boundary-unstable regime
    base = region_preset(2).params
    hit = None
    for gs_, mg, eg, kg, tau, sg in itertools.product(
            (0.4, 1.0), (0.3, 0.6), (0.6, 0.8), (5.0, 7.0), (2.0, 3.5),
            (0.247, 0.5)):
        p = base.replace(gamma_S=gs_, mu_G=mg, eta_G=eg, K_G=kg, tau=tau,
                         sigma_G=sg, sigma_NS=0.0123)
        if compute_thresholds(p).classification == "case_1":
            hit = p
            break
    assert hit is not None, "no case_1 regime found in the scanned ranges"

    res = locate_savanna_orbit(hit, VegState(0.1 * hit.K_T, 0.1 * hit.K_T,
                                             0.5 * hit.K_G))
    rho = rho_tg(hit, res.anchor)

    anchor = res.anchor.as_array()
    pert = anchor * (1 + np.array([1e-3, -5e-4, 2e-4]))
    traj = simulate(hit, VegState(*pert), horizon=40 * hit.tau, h=hit.tau / 2048,
                    scheme="reference")
    dists = [float(np.linalg.norm(post.as_array() - anchor))
             for _, _, post in traj.impulse_records]
    k = np.arange(1, len(dists) + 1)
    slope = float(np.polyfit(k[10:], np.log(dists[10:]), 1)[0])
    slope_err = abs(slope - math.log(rho)) / abs(math.log(rho))

    checks = [res.converged, res.interior, min(anchor) > 0,
              res.residual < 1e-10, rho < 1.0, slope_err < 0.20]
    ok = all(checks)
    _report(9, ok, f"interior orbit (residual {res.residual:.1e}), spectral "
                   f"radius {rho:.4f} < 1, decay-rate match {slope_err:.1e}")
    assert ok, (res, rho, slope_err)


def test_criterion_10_nsfd_feasible_region_invariance():
    # 1000 draws inside region ranges (sigma_NS >= 0 exists only in regions 2
    # and 3), five step sizes, 120 steps each; membership in the full feasible
    # region is asserted for every iterate
    rng = np.random.default_rng(1234)
    t0 = time.perf_counter()
    failures = 0
    example = None
    for trial in range(1000):
        region = 2 + trial % 2
        p = draw_region_params(rng, region, sigma_ns_nonneg=True)
        s0 = draw_state_in_omega(rng, p)
        for h in (0.001, 0.01, 0.1, 0.5, 1.0):
            s = s0
            for _ in range(120):
                s = nsfd_step(s, p, h)
                if not in_omega(s, p, tol=1e-9):
                    failures += 1
                    if example is None:
                        example = (region, h, s, p.K_T)
                    break
            else:
                continue
            break
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 120.0
    detail = (f"feasible-region invariance: {failures}/1000 draws escaped "
              f"in {elapsed:.1f}s")
    if example is not None:
        region, h, s, kt = example
        detail += (f"; e.g. region {region}, h={h:g}: tree biomass "
                   f"{s.t_s + s.t_ns:.2f} > K_T={kt:g}")
    _report(10, ok, detail)
    assert ok, detail


def test_criterion_11_level_curve_determinism():
    base = r1(mu_G=0.3)
    a1 = AxisSpec("eta_G", 0.1, 0.87, 41)
    a2 = AxisSpec("sigma_NS", -0.029, -0.0155, 21)
    g_seq1 = scan(base, a1, a2, "rho_t_g")
    g_seq2 = scan(base, a1, a2, "rho_t_g")
    g_par = scan(base, a1, a2, "rho_t_g", concurrent=True)
    grid_ok = (g_seq1.to_csv().encode() == g_seq2.to_csv().encode()
               == g_par.to_csv().encode())

    # a crossing grid so the curve itself is compared too
    heavy = r1(mu_G=0.5)
    c_seq = level_curve(scan(heavy, a1, a2, "rho_t_g"), 1.0)
    c_par = level_curve(scan(heavy, a1, a2, "rho_t_g", concurrent=True), 1.0)
    curve_ok = c_seq.to_csv().encode() == c_par.to_csv().encode()
    assert len(c_seq.polylines) >= 1

    ok = grid_ok and curve_ok
    _report(11, ok, "grid and level-curve CSV bytes identical across repeats "
                    "and across sequential vs concurrent evaluation")
    assert ok
