import cmath
import hashlib
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from savanna import (
    VegState,
    compute_thresholds,
    cubic_eigenvalues,
    floquet_report,
    grassland_agreement,
    grassland_multipliers_analytic,
    grassland_orbit,
    grassland_orbit_end,
    impulse_map,
    jacobian,
    jump_jacobian,
    locate_savanna_orbit,
    monodromy,
    monodromy_full,
    region_preset,
    simulate,
    vector_field,
)
from savanna import floquet, integrate, model, thresholds
from savanna.floquet import _locate_at, _period_map
from savanna.model import NumericalError
from savanna.thresholds import ThresholdError
from draws import ANCHOR_CASE, CLAMP_CASES, draw_region_params, draw_state_in_omega, draw_valid_params


def r1(**over):
    return region_preset(1).params.replace(**over)


def case1_region2_params():
    # inside the region-2 admissible ranges; classification is case_1
    return region_preset(2).params.replace(
        gamma_S=1.0, mu_G=0.6, eta_G=0.8, K_G=5.0, tau=2.0,
        sigma_G=0.247, sigma_NS=0.0123)


def _expm_taylor(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Taylor exponential (test oracle)."""
    norm = np.linalg.norm(a, np.inf)
    s = max(0, int(math.ceil(math.log2(max(norm, 1e-30)))) + 4)
    b = a / (2 ** s)
    term = np.eye(3)
    out = np.eye(3)
    for k in range(1, 30):
        term = term @ b / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


# ---------------------------------------------------------------------------
# jacobians
# ---------------------------------------------------------------------------

def test_jacobian_at_desert_is_constant_matrix():
    p = r1()
    j = jacobian(VegState(0, 0, 0), p)
    expected = np.array([
        [p.gamma_S - p.mu_S - p.omega_S, p.gamma_NS, 0.0],
        [p.omega_S, -p.mu_NS, 0.0],
        [0.0, 0.0, p.gamma_G - p.mu_G],
    ])
    assert np.allclose(j, expected, atol=0)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(14)
    for _ in range(50):
        p = draw_region_params(rng, int(rng.integers(1, 4)), interval_only=False)
        s = draw_state_in_omega(rng, p)
        j = jacobian(s, p)
        fd = np.empty((3, 3))
        x = s.as_array()
        for k in range(3):
            eps = 1e-6 * max(1.0, abs(x[k]))
            xp, xm = x.copy(), x.copy()
            xp[k] += eps
            xm[k] = max(xm[k] - eps, 0.0)
            fp = vector_field(VegState(*xp), p)
            fm = vector_field(VegState(*xm), p)
            fd[:, k] = (fp - fm) / (xp[k] - xm[k])
        assert np.max(np.abs(j - fd)) < 1e-6 * max(1.0, np.max(np.abs(j)))


def test_jacobian_third_column_at_forest_equilibrium():
    p = r1()
    eq = compute_thresholds(p).forest_eq
    j = jacobian(eq, p)
    assert j[0, 2] == pytest.approx(-p.sigma_G * eq.t_s, rel=1e-14)
    assert j[1, 2] == 0.0
    assert j[2, 2] == pytest.approx(
        p.gamma_G - p.mu_G - p.sigma_NS * eq.t_ns, rel=1e-14)


def test_jump_jacobian_special_cases():
    p = r1(eta_S=0.0, eta_G=0.0)
    assert np.allclose(jump_jacobian(VegState(3, 2, 1), p), np.eye(3), atol=0)
    q = r1()
    j = jump_jacobian(VegState(0.0, 2.0, 1.0), q)
    # no sensitive trees: the grass cross term carries a factor T_S = 0
    assert j[0, 2] == 0.0
    assert np.allclose(np.diag(j), [1 - q.eta_S * 1.0 / (1 + (q.fire.g0) ** 2), 1, 1 - q.eta_G])


def test_jump_jacobian_matches_finite_differences():
    rng = np.random.default_rng(15)
    for _ in range(50):
        p = draw_region_params(rng, int(rng.integers(1, 4)), interval_only=False)
        s = draw_state_in_omega(rng, p)
        j = jump_jacobian(s, p)
        x = s.as_array()
        fd = np.empty((3, 3))
        for k in range(3):
            eps = 1e-6 * max(1.0, abs(x[k]))
            xp, xm = x.copy(), x.copy()
            xp[k] += eps
            xm[k] = max(xm[k] - eps, 0.0)
            fp = impulse_map(VegState(*xp), p).as_array()
            fm = impulse_map(VegState(*xm), p).as_array()
            fd[:, k] = (fp - fm) / (xp[k] - xm[k])
        assert np.max(np.abs(j - fd)) < 1e-6 * max(1.0, np.max(np.abs(j)))


# ---------------------------------------------------------------------------
# cubic eigenvalues
# ---------------------------------------------------------------------------

def _greedy_match_error(got, ref):
    # lexicographic complex sorting mis-pairs conjugates whose real parts
    # differ in the last ulp, so pair by nearest distance instead
    got = list(got)
    worst = 0.0
    for r in ref:
        z = min(got, key=lambda g: abs(g - r))
        got.remove(z)
        worst = max(worst, abs(z - r))
    return worst


def test_cubic_eigenvalues_match_numpy_on_random_matrices():
    rng = np.random.default_rng(16)
    for k in range(600):
        kind = k % 6
        if kind in (0, 1):
            m = rng.normal(size=(3, 3)) * (10.0 ** rng.integers(-4, 5))
        elif kind == 2:
            m = (lambda x: (x + x.T) / 2)(rng.normal(size=(3, 3)))
        elif kind == 3:
            # defective: exact double eigenvalue on a triangular matrix
            m = np.triu(rng.normal(size=(3, 3)))
            m[1, 1] = m[0, 0]
        elif kind == 4:
            a = rng.normal(size=(3, 2))
            m = a @ rng.normal(size=(2, 3))  # rank deficient
        else:
            # tight cluster: rotation pair next to a nearby real eigenvalue
            th = rng.uniform(0.0, 0.05)
            m = np.eye(3) * rng.uniform(0.5, 2.0)
            c, s = math.cos(th), math.sin(th)
            m[:2, :2] = m[0, 0] * np.array([[c, -s], [s, c]])
            m[2, 2] *= 1.0 + rng.uniform(-1e-4, 1e-4)
        ref = np.linalg.eigvals(m)
        scale = max(1.0, np.max(np.abs(ref)))
        assert _greedy_match_error(cubic_eigenvalues(m), ref) < 1e-6 * scale


def test_cubic_eigenvalues_near_degenerate():
    for eps in (0.0, 1e-14, 1e-9):
        m = np.eye(3) + eps * np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        eigs = cubic_eigenvalues(m)
        assert np.allclose(eigs, 1.0, atol=1e-4)
    m = np.diag([2.0, 2.0, 1.0])
    assert sorted(np.real(cubic_eigenvalues(m))) == pytest.approx([1.0, 2.0, 2.0])


def test_cubic_eigenvalues_resolve_small_multipliers():
    # shape of a grassland-anchored monodromy: a tree block with a dominant
    # and a tiny multiplier, grass coupled in the bottom row only; the small
    # moduli must come out to a few ulps of the largest, which the
    # characteristic cubic misses through cancellation
    v = np.array([[1.0, 2.0], [1.4, -0.5]])
    m = np.zeros((3, 3))
    m[:2, :2] = v @ np.diag([1.0, 1e-9]) @ np.linalg.inv(v)
    m[2] = [1.5e-3, 6.6e-3, 1e-10]
    mods = np.abs(cubic_eigenvalues(m))
    assert np.max(np.abs(mods - [1.0, 1e-9, 1e-10])) < 1e-13


def test_spectral_radius_trivial_matrices():
    assert np.max(np.abs(cubic_eigenvalues(np.eye(3)))) == pytest.approx(1.0)
    assert np.max(np.abs(cubic_eigenvalues(np.diag([0.5, 0.2, 1.5])))) == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# monodromy
# ---------------------------------------------------------------------------

def test_monodromy_constant_coefficient_case():
    # desert anchor without fire losses: monodromy is exp(tau * DF(0))
    p = r1(eta_S=0.0, eta_G=0.0)
    m = monodromy(p, VegState(0, 0, 0), n=1024)
    expected = _expm_taylor(p.tau * jacobian(VegState(0, 0, 0), p))
    assert np.max(np.abs(m - expected)) < 1e-9 * np.max(np.abs(expected))
    assert m[2, 2] == pytest.approx(math.exp((p.gamma_G - p.mu_G) * p.tau), rel=1e-9)


def test_monodromy_grassland_block_structure_and_xi3():
    p = r1()
    anchor = VegState(0.0, 0.0, grassland_orbit(p, 0.0))
    full = monodromy_full(p, anchor)
    m = full.matrix
    assert abs(m[0, 2]) < 1e-8
    assert m[1, 2] == 0.0
    eigs = cubic_eigenvalues(m)
    _, _, xi3 = grassland_multipliers_analytic(p)
    assert min(abs(abs(z) - xi3) for z in eigs) < 1e-6
    # pre-fire state reproduced the closed form
    assert full.pre_fire_state.g == pytest.approx(grassland_orbit_end(p), rel=1e-9)


def test_monodromy_liouville_identity():
    p = r1()
    anchor = VegState(0.0, 0.0, grassland_orbit(p, 0.0))
    full = monodromy_full(p, anchor)
    det = np.linalg.det(full.fundamental)
    assert det == pytest.approx(math.exp(full.trace_integral), rel=1e-6)

    # independent quadrature of the trace along a separately integrated orbit
    traj = simulate(p, anchor, horizon=p.tau, h=p.tau / 2048, scheme="reference")
    states = [s for _, s in traj.samples]
    states[-1] = traj.impulse_records[0][1]  # flow segment ends pre-fire
    tr = np.array([np.trace(jacobian(s, p)) for s in states])
    n = len(tr) - 1
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    integral = (p.tau / n) / 3.0 * float(weights @ tr)
    assert det == pytest.approx(math.exp(integral), rel=1e-6)


def test_monodromy_determinant_equals_multiplier_product():
    p = case1_region2_params()
    res = locate_savanna_orbit(p, VegState(10, 10, 2))
    m = monodromy(p, res.anchor)
    eigs = cubic_eigenvalues(m)
    prod = complex(np.prod(eigs))
    assert prod.real == pytest.approx(np.linalg.det(m), rel=1e-8)
    assert abs(prod.imag) < 1e-10 * max(1.0, abs(prod.real))


def test_period_map_and_variational_pass_share_the_orbit():
    # the float RK4 of the period map and the float RK4 of the variational
    # pass must land on the same pre-fire state, bit for bit
    for region in (1, 2, 3):
        p = region_preset(region).params
        anchor = VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G)
        for n in (16, 64, 2048):
            direct = _period_map(p, anchor.as_array(), n)
            pre = monodromy_full(p, anchor, n).pre_fire_state
            assert np.array_equal(direct, impulse_map(pre, p).as_array())


# sha256 of one variational pass from the default guess of each preset:
# monodromy, Phi(tau), trace integral and pre-fire state, as little-endian
# doubles.  Recorded before the pass moved from a tuple of Phi entries to
# nine named floats; any change of expression or order changes a digest
PASS_DIGESTS = {
    (1, 16): "72232bc75391b81bab510a01466975b3d0f28ebc29c2622854fcf79068f63367",
    (1, 64): "a27136cce8aee61e174fb0a80c1377c2aab5b4ed1c0a514b1ea8c25736c0ec9b",
    (1, 2048): "356df8731279fb88ba72a04c119a8345163959e457a6b9d9eb08be20af04bb04",
    (2, 16): "49d0a2b48b91a7e8086e9a223ce37ee7493072915b23a1b0e1c4d4a208916490",
    (2, 64): "4ad96aa3a65fa6c17d4818b3ee309a4e113d2b9ff85359576f721c1b599a1c57",
    (2, 2048): "76a1d4c83532d858f285cb90b8fbe50e5cd200a9bf8d4242f5bc3283bc35cdc9",
    (3, 16): "7755e0c295b37d4282d5a53cf009db335986699fb2e3911f4b5f73518e0119c7",
    (3, 64): "cf8519b823ab3780cc41fb8837f0b47a87c453c95960cb8a22cf688e58ed5850",
    (3, 2048): "1a1f4c9e09b88f3b85a646367a5b4df8cea53ad4eae41df8996e5a8cb5b07872",
}


@pytest.mark.parametrize("region, n", sorted(PASS_DIGESTS))
def test_variational_pass_bits_are_pinned(region, n):
    p = region_preset(region).params
    full = monodromy_full(p, VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G), n)
    digest = hashlib.sha256()
    for part in (full.matrix, full.fundamental, [full.trace_integral],
                 full.pre_fire_state.as_array()):
        digest.update(np.asarray(part, dtype="<f8").tobytes())
    assert digest.hexdigest() == PASS_DIGESTS[region, n]


@pytest.mark.parametrize("region", (1, 2, 3))
def test_monodromy_matches_finite_differences_of_the_period_map(region):
    # the hand-written entries of DF @ Phi against central differences of
    # impulse o flow; interior anchors keep every perturbed state positive
    p = region_preset(region).params
    anchors = (VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G),
               VegState(0.3 * p.K_T, 0.05 * p.K_T, 0.9 * p.K_G),
               VegState(0.02 * p.K_T, 0.4 * p.K_T, 0.1 * p.K_G))
    for anchor in anchors:
        x = anchor.as_array()
        for n in (16, 64):
            m = monodromy_full(p, anchor, n).matrix
            fd = np.empty((3, 3))
            for k in range(3):
                eps = 1e-5 * x[k]
                xp, xm = x.copy(), x.copy()
                xp[k] += eps
                xm[k] -= eps
                fd[:, k] = (_period_map(p, xp, n) - _period_map(p, xm, n)) / (2.0 * eps)
            assert np.max(np.abs(m - fd)) < 1e-6 * np.max(np.abs(m))


def test_step_count_below_one_is_rejected():
    p = case1_region2_params()
    for n in (0, -5):
        with pytest.raises(ValueError, match="steps"):
            locate_savanna_orbit(p, VegState(10, 10, 2), n=n)
        with pytest.raises(ValueError, match="steps"):
            monodromy_full(p, VegState(10, 10, 2), n=n)


# ---------------------------------------------------------------------------
# orbit location
# ---------------------------------------------------------------------------

def test_locate_converges_to_grassland_when_it_is_gas():
    p = r1(gamma_S=0.01, gamma_NS=0.01)
    assert compute_thresholds(p).classification == "grassland_gas"
    res = locate_savanna_orbit(p, VegState(3.0, 3.0, 1.0))
    assert res.converged
    assert res.boundary == "grassland"
    assert res.anchor.g == pytest.approx(grassland_orbit(p, 0.0), rel=1e-6)


def test_locate_without_fire_finds_fire_free_attractor():
    # no grass reproduction: the fire-free flow converges to the forest state
    p = region_preset(2).params.replace(eta_S=0.0, eta_G=0.0, mu_G=3.0)
    eq = compute_thresholds(p).forest_eq
    with pytest.warns(UserWarning, match="existence condition"):
        res = locate_savanna_orbit(p, VegState(5.0, 5.0, 2.0))
    assert res.boundary == "forest"
    assert res.anchor.t_s == pytest.approx(eq.t_s, abs=1e-6)


def test_locate_interior_savanna_orbit_case1():
    p = case1_region2_params()
    assert compute_thresholds(p).classification == "case_1"
    res = locate_savanna_orbit(p, VegState(10.0, 10.0, 2.0))
    assert res.converged and res.interior
    assert res.residual < 1e-10
    assert min(res.anchor.as_array()) > 0.0
    rho = np.max(np.abs(cubic_eigenvalues(monodromy(p, res.anchor))))
    assert rho < 1.0


def test_newton_polish_lands_on_a_fixed_point_of_the_period_map():
    # a region-2 draw whose fixed-point iteration stalls near the grassland
    # orbit, so Newton steps finish the location
    p = region_preset(2).params.replace(
        tau=3.5774218896387917, K_T=86.58715135564158, K_G=6.865401957188544,
        gamma_G=2.6929322102983813, gamma_S=0.5960444556113227,
        gamma_NS=1.6908676975115688, mu_NS=0.07699814025121458,
        sigma_G=1.1143221759513025, sigma_NS=0.00010776891169619884,
        mu_S=0.2190302917162641, omega_S=0.14853507445585779,
        mu_G=0.19460536937730233, eta_S=0.026213961295888665,
        eta_G=0.91907907682733)
    guess = VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G)
    orbit = locate_savanna_orbit(p, guess, n=64)
    assert orbit.newton_iterations > 0
    assert orbit.converged and orbit.boundary == "grassland"
    x = orbit.anchor.as_array()
    assert np.linalg.norm(_period_map(p, x, 64) - x) < 1e-10


# floquet_orbits commands (bench/workloads.generate, full size, groups
# flattened) whose fixed-point iteration creeps towards a grassland orbit with
# a tree multiplier near 1 (rho_tg 0.982 and 0.986); Newton steps taken from
# a residual of 1e-2 * max(K_T, K_G) head for the forest orbit instead
BASIN_CASES = {
    "seed 2, command 155": dict(
        tau=1.1746550960325668, K_T=110.3210556427421, K_G=13.477846085529674,
        gamma_G=3.904479345930069, gamma_S=2.436685622365115,
        gamma_NS=4.176084610165015, mu_NS=0.06360583434806998,
        sigma_NS=0.07528758836984031, mu_S=0.14317134090898687,
        omega_S=0.0851747688516595, mu_G=0.38646303205635196,
        eta_S=0.6230368085402342, eta_G=0.4708273393425205),
    "seed 3, command 173": dict(
        tau=0.8935386055459889, K_T=114.26135961069211, K_G=13.155028794510649,
        gamma_G=4.232395453149541, gamma_S=2.0783939357635832,
        gamma_NS=2.684262327587395, mu_NS=0.050047198012582866,
        sigma_NS=0.08480365157719265, mu_S=0.059918435781651645,
        omega_S=0.0717443576370767, mu_G=0.16417548582488697,
        eta_S=0.24766601836898544, eta_G=0.6918895618959058),
}


@pytest.mark.parametrize("case", sorted(BASIN_CASES))
def test_newton_waits_for_the_basin_of_the_fixed_point_iteration(case):
    p = region_preset(3).params.replace(**BASIN_CASES[case])
    guess = VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G)
    orbit = locate_savanna_orbit(p, guess, n=64)
    assert orbit.newton_iterations >= 1
    assert orbit.converged and orbit.boundary == "grassland"
    # the last Newton step overshoots T = 0, and the zeroing is counted
    assert orbit.clamped >= 1 and orbit.anchor.t_s == orbit.anchor.t_ns == 0.0
    assert floquet_report(p, n=64).diagnostics["clamped"] == orbit.clamped
    # plain fixed-point iteration from the same guess; at a contraction of
    # 0.986 a residual below 1e-10 leaves it within 1e-8 of its limit
    x = guess.as_array()
    for _ in range(5000):
        px = _period_map(p, x, 64)
        residual = np.linalg.norm(px - x)
        x = px
        if residual < 1e-10:
            break
    assert residual < 1e-10
    assert np.max(np.abs(orbit.anchor.as_array() - x)) < 1e-8 * p.K_G


def test_locate_warns_when_existence_condition_fails():
    p = r1(mu_G=0.9)  # r_g0 < 1
    with pytest.warns(UserWarning, match="existence condition"):
        locate_savanna_orbit(p, VegState(1.0, 1.0, 1.0), max_iter=5)


# ---------------------------------------------------------------------------
# analytic multipliers and agreement audit
# ---------------------------------------------------------------------------

def test_grassland_multipliers_match_report_roots():
    p = r1(sigma_G=0.93)
    rep = compute_thresholds(p)
    xi1, xi2, xi3 = grassland_multipliers_analytic(p)
    shrink = 1 - p.eta_S * (grassland_orbit_end(p) ** 2 /
                            (grassland_orbit_end(p) ** 2 + p.fire.g0 ** 2))
    assert xi1 == pytest.approx(shrink * cmath.exp(rep.lambda1), rel=1e-12)
    assert xi2 == pytest.approx(cmath.exp(rep.lambda2), rel=1e-12)
    assert max(abs(xi1), abs(xi2)) == pytest.approx(rep.rho_t, rel=1e-12)
    assert xi3 == pytest.approx(
        math.exp(-(p.gamma_G - p.mu_G) * p.tau) / (1 - p.eta_G), rel=1e-12)


def test_xi3_below_one_whenever_orbit_exists():
    rng = np.random.default_rng(17)
    for _ in range(200):
        p = draw_valid_params(rng, require_grassland=True)
        _, _, xi3 = grassland_multipliers_analytic(p)
        assert xi3 < 1.0


def test_tree_multipliers_inside_unit_disk_when_invasion_fails():
    rng = np.random.default_rng(18)
    found = 0
    while found < 200:
        p = draw_valid_params(rng, require_grassland=True)
        rep = compute_thresholds(p)
        if rep.r_g_t >= 1.0:
            continue
        xi1, xi2, _ = grassland_multipliers_analytic(p)
        assert abs(xi1) < 1.0 and abs(xi2) < 1.0
        found += 1


def test_multipliers_error_when_grassland_missing():
    with pytest.raises(ThresholdError, match="rho_g0"):
        grassland_multipliers_analytic(r1(eta_G=0.9))


def test_agreement_audit_runs_and_is_logged():
    rng = np.random.default_rng(19)
    disagreements = []
    for _ in range(40):
        p = draw_valid_params(rng, require_grassland=True)
        audit = grassland_agreement(p, n=512)
        # the tree rows of the monodromy at the grassland anchor do not see
        # the grass, so its tree multipliers are those of M[:2, :2]
        anchor = VegState(0.0, 0.0, (1.0 - p.eta_G) * grassland_orbit_end(p))
        assert np.all(monodromy(p, anchor, 512)[0:2, 2] == 0.0)
        assert math.isfinite(audit["rho_t_analytic"])
        assert math.isfinite(audit["tree_multiplier_numeric"])
        if not audit["agree"]:
            disagreements.append((p, audit))
    # the averaged-exponential route may disagree with the true monodromy;
    # record, never assert
    for p, audit in disagreements:
        print(f"verdict disagreement: analytic {audit['rho_t_analytic']:.4f} vs "
              f"numeric {audit['tree_multiplier_numeric']:.4f}")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_floquet_report_csv_and_verdict():
    p = case1_region2_params()
    rep = floquet_report(p, VegState(10, 10, 2))
    assert rep.verdict == "stable"
    assert rep.boundary is None
    assert rep.rho_tg == pytest.approx(np.max(np.abs(rep.multipliers)))
    lines = rep.to_csv().strip().split("\n")
    assert lines[0].split(",") == list(rep.CSV_FIELDS)
    assert len(lines[1].split(",")) == len(rep.CSV_FIELDS)
    assert lines[1].endswith("stable")


def test_floquet_report_analyses_only_the_located_orbit(monkeypatch):
    # one variational pass per point: one per Newton point, and one more at
    # the anchor of each rung that ended on a period map (none here: the
    # 16-step rung's last pass, which feeds the n-step rung and the error
    # estimate, and the n-step rung's, which the report reads, both showed
    # convergence).  The parameters were checked when they were built, so
    # the report checks nothing; the closed forms are evaluated once and the
    # grassland cross-check is not run
    p = r1(gamma_S=0.01, gamma_NS=0.01)
    calls = Counter()
    passed = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    flow = floquet._flow_variational

    def flow_variational(p, anchor, n):
        passed.append((anchor, n))
        return flow(p, anchor, n)
    monkeypatch.setattr(floquet, "_flow_variational", flow_variational)
    counted(floquet, "compute_thresholds")
    for module in (model, thresholds, integrate, floquet):
        for name in ("require_valid", "validate"):
            if hasattr(module, name):
                counted(module, name)         # every binding of the check
    rep = floquet_report(p, n=64)
    assert rep.boundary == "grassland"
    assert rep.diagnostics["converged"] and rep.diagnostics["newton_iterations"] >= 1
    assert len(passed) == rep.diagnostics["newton_iterations"] == 4
    assert len(set(passed)) == len(passed)          # no point gets two passes
    assert calls["require_valid"] == calls["validate"] == 0
    assert calls["compute_thresholds"] == 1
    r1(gamma_S=0.02)                # the counters see its two builds (preset, replace)
    assert calls["require_valid"] == calls["validate"] == 2
    assert grassland_agreement(p, 64)["xi3"] == grassland_multipliers_analytic(p)[2]


# floquet_orbits seed 1, group 13, command 2 (region 3): fixed-point steps
# creep towards the grassland orbit under a tree multiplier of 0.99666, and a
# full Newton step from the basin crosses T = 0
SLOW_GRASSLAND_CASE = dict(
    tau=0.7021465670802941, K_T=115.28858421398968, K_G=14.299699772256119,
    gamma_G=4.335380712856412, gamma_S=2.0927137926289054,
    gamma_NS=2.559679322901968, mu_NS=0.030212560699296516,
    sigma_NS=0.07321193445823004, mu_S=0.05222608329566198,
    omega_S=0.09628174041382045, mu_G=0.14743538678765608,
    eta_S=0.40923193769294175, eta_G=0.25705307196350824)


def test_a_newton_step_across_the_tree_face_ends_on_it():
    p = region_preset(3).params.replace(**SLOW_GRASSLAND_CASE)
    guess = VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G)
    orbit = locate_savanna_orbit(p, guess, n=64)
    assert orbit.converged and orbit.boundary == "grassland"
    assert orbit.newton_iterations >= 1 and orbit.clamped >= 1
    assert orbit.anchor.t_s == orbit.anchor.t_ns == 0.0
    # the 64-step fixed point on the face; the closed form is the exact
    # orbit, 1.03e-9 * K_G away from it at 64 RK4 steps per period
    closed = (1.0 - p.eta_G) * grassland_orbit_end(p)
    on_face = _locate_at(p, VegState(0.0, 0.0, closed), 600, 64)
    assert on_face.converged and on_face.anchor.t_s == on_face.anchor.t_ns == 0.0
    assert abs(orbit.anchor.g - on_face.anchor.g) < 1e-10 * p.K_G
    assert abs(orbit.anchor.g - closed) < 2e-9 * p.K_G


def test_the_coarse_stage_reaches_the_grassland_face():
    # floquet_orbits seed 1, group 42, command 1 (region 2): the 16-step
    # location used to halve its Newton steps towards T = 0 for 600 steps
    p = region_preset(2).params.replace(
        tau=4.265178334161965, K_T=87.84722690201897, K_G=9.430898351035193,
        gamma_G=3.4773467871209225, gamma_S=0.4872209112356358,
        gamma_NS=1.5897030351378638, mu_NS=0.098202322779044,
        sigma_G=1.340870424373485, sigma_NS=0.03565939410827708,
        mu_S=0.2630900900694518, omega_S=0.12329923755739251,
        mu_G=0.33286978964983993, eta_S=0.19064291871366848,
        eta_G=0.2816016011810881)
    guess = VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G)
    orbit = _locate_at(p, guess, 600, 16)
    assert orbit.converged and orbit.boundary == "grassland"
    assert 1 <= orbit.newton_iterations <= 10
    assert orbit.anchor.t_s == orbit.anchor.t_ns == 0.0


def _orbit_cases():
    # case -> (params, guess, n, max_iter, converged, Newton steps taken)
    cases = {}
    for region in (1, 2, 3):
        p = region_preset(region).params
        guess = VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G)
        for n in (16, 64):
            cases[f"region {region}, n={n}"] = (p, guess, n, 600, True, True)
    p = region_preset(3).params
    # from the grassland anchor, three 16-step fixed-point steps converge
    cases["no Newton step"] = (
        p, VegState(0.0, 0.0, (1.0 - p.eta_G) * grassland_orbit_end(p)), 16, 600,
        True, False)
    cases["unconverged"] = (
        p, VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G), 64, 3, False, False)
    # the slow grassland approach below: 600 steps converge on the face; 200
    # stop after a Newton step, so the last pass is not at the anchor
    p = p.replace(**SLOW_GRASSLAND_CASE)
    guess = VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G)
    cases["slow grassland approach"] = (p, guess, 64, 600, True, True)
    cases["unconverged after Newton steps"] = (p, guess, 64, 200, False, True)
    return cases


ORBIT_CASES = _orbit_cases()


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_located_orbit_carries_the_monodromy_at_its_anchor(case):
    p, guess, n, max_iter, converged, newton = ORBIT_CASES[case]
    orbit = locate_savanna_orbit(p, guess, n=n, max_iter=max_iter)
    assert (orbit.converged, orbit.newton_iterations > 0) == (converged, newton)
    assert np.array_equal(orbit.monodromy.matrix, monodromy(p, orbit.anchor, n))
    assert orbit.monodromy.pre_fire_state == monodromy_full(p, orbit.anchor, n).pre_fire_state


# ---------------------------------------------------------------------------
# the rung ladder
# ---------------------------------------------------------------------------

def _same_orbit(a, b, p):
    tol = 3e-10 * max(p.K_T, p.K_G)
    return (np.max(np.abs(a.anchor.as_array() - b.anchor.as_array())) < tol
            and a.converged == b.converged and a.boundary == b.boundary)


def test_coarse_to_fine_lands_on_the_direct_orbit():
    # the ladder only changes how the n-step fixed point is reached
    rng = np.random.default_rng(31)
    for k in range(12):
        p = draw_region_params(rng, k % 3 + 1, interval_only=False)
        guess = VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            orbit = locate_savanna_orbit(p, guess, n=64)
        direct = _locate_at(p, guess, 600, 64)
        assert orbit.coarse_monodromy is not None, k
        assert _same_orbit(orbit, direct, p), k


# floquet_orbits seed 2, group 60, command 1 (region 2, tau about 4.55): the
# 16-step RK4 period map diverges from the default guess, the 64-step one
# does not
DIVERGING_COARSE_CASE = dict(
    tau=4.554134114403383, K_T=83.20945615177101, K_G=9.902020808370299,
    gamma_G=2.082379952257611, gamma_S=0.3230083050546509,
    gamma_NS=1.986985790746699, mu_NS=0.07420138036297327,
    sigma_G=1.325301212915527, sigma_NS=0.027079198686182304,
    mu_S=0.20717688635030826, omega_S=0.11562762196442036,
    mu_G=0.06898666591129034, eta_S=0.4130853384841238,
    eta_G=0.14508070182457597)


# floquet_orbits seed 2, group 70, command 2 (region 3): an unstable
# interior orbit, rho_tg about 1.012, that the 16-step rung converges to
UNSTABLE_CASE = dict(
    tau=1.5852931219012145, K_T=113.36959796141923, K_G=16.42691531881782,
    gamma_G=3.6323505437211674, gamma_S=2.5344849286002638,
    gamma_NS=2.9814270521520547, mu_NS=0.027865061442108027,
    sigma_NS=0.07118794637012323, mu_S=0.10389721320313927,
    omega_S=0.06979370265040358, mu_G=0.27685440632781017,
    eta_S=0.6541578721241995, eta_G=0.5542018288360463)


def test_the_fine_stage_finishes_an_unstable_coarse_orbit():
    # fixed-point steps at n would move away from it; Newton steps from the
    # coarse monodromy converge to it all the same
    p = region_preset(3).params.replace(**UNSTABLE_CASE)
    guess = VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G)
    orbit = locate_savanna_orbit(p, guess, n=64)
    assert orbit.converged and orbit.coarse_monodromy is not None
    assert _same_orbit(orbit, _locate_at(p, guess, 600, 64), p)
    assert floquet_report(p, n=64).verdict == "unstable"


# floquet_orbits seed 6, group 53, command 1 (region 2, tau about 4.88): the
# 16-step map has a spurious fixed point near (61.35, 0, 2.72) made by the
# clamp of the pre-fire state (RK4's pre-fire T_NS is -4.69 there), and the
# first Newton step from the basin crosses to the grassland face, where the
# residual grows; the point is kept, and the step from it with its own pass
# reaches the grassland orbit at 16 steps; the 64-step rung keeps its exact
# tree zeros
RISING_RESIDUAL_CASE = dict(
    tau=4.879537203044667, K_T=85.61138292074708, K_G=8.290794496621718,
    gamma_G=2.5871140736022236, gamma_S=0.5150152417355027,
    gamma_NS=1.882396927733581, mu_NS=0.07512727938770371,
    sigma_G=1.5317333039077772, sigma_NS=-0.02131291030328035,
    mu_S=0.23505574982932753, omega_S=0.09302551901383797,
    mu_G=0.4279693596996546, eta_S=0.2901357982036774,
    eta_G=0.5993794504876223)


def test_a_step_onto_the_grassland_face_is_kept_though_its_residual_grows():
    p = region_preset(2).params.replace(**RISING_RESIDUAL_CASE)
    guess = VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G)
    coarse = _locate_at(p, guess, 600, 16)
    assert coarse.converged and coarse.boundary == "grassland"
    assert coarse.anchor.t_s == coarse.anchor.t_ns == 0.0
    orbit = locate_savanna_orbit(p, guess, n=64)
    assert orbit.converged and orbit.boundary == "grassland"
    assert orbit.anchor.t_s == orbit.anchor.t_ns == 0.0
    assert _same_orbit(orbit, _locate_at(p, guess, 600, 64), p)


POOR_MATRICES = {
    # the step from the guess is twice the Newton step; a pass at the point
    # it reaches and one more finish the location: one map and two passes
    "non-shrinking": lambda m: (np.eye(3) + m) / 2.0,
    # the step from the guess is 1e12 residuals long and the pass there
    # raises, so three fixed-point steps run from the image of the guess,
    # then two more passes: four maps and three passes
    "diverging": lambda m: (1.0 - 1e-12) * np.eye(3),
}
POOR_MATRIX_COUNTS = {"non-shrinking": (1, 2), "diverging": (4, 3)}


@pytest.mark.parametrize("case", sorted(POOR_MATRICES))
def test_a_poor_given_monodromy_still_lands_on_the_direct_orbit(case):
    p = region_preset(1).params
    guess = VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G)
    direct = _locate_at(p, guess, 600, 64)
    coarse = _locate_at(p, guess, 600, 16)
    orbit = _locate_at(p, coarse.anchor, 600, 64,
                       POOR_MATRICES[case](coarse.monodromy.matrix))
    assert (orbit.iterations, orbit.newton_iterations) == POOR_MATRIX_COUNTS[case]
    assert orbit.converged and orbit.interior
    assert _same_orbit(orbit, direct, p)
    assert np.array_equal(orbit.monodromy.matrix, monodromy(p, orbit.anchor, 64))


def test_a_fresh_step_whose_map_diverges_falls_back_to_fixed_point_steps(monkeypatch):
    # the first Newton step overshoots to where the variational pass
    # diverges, and fixed-point steps resume from the image of its start
    p = region_preset(1).params
    guess = VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G)
    direct = _locate_at(p, guess, 600, 16)
    face_step, full = floquet._face_step, floquet.monodromy_full
    steps, passed = [], []

    def first_step_overshoots(a, x, px):
        steps.append(x)
        return (np.full(3, 1e3 * p.K_T), False) if len(steps) == 1 else face_step(a, x, px)

    def pass_at(p, anchor, n):
        passed.append(anchor)
        return full(p, anchor, n)
    monkeypatch.setattr(floquet, "_face_step", first_step_overshoots)
    monkeypatch.setattr(floquet, "monodromy_full", pass_at)
    orbit = _locate_at(p, guess, 600, 16)
    assert len(set(passed)) == len(passed)          # no point gets two passes
    # three passes as in the direct location, one at the overshoot, and the
    # one whose step overshot
    assert orbit.converged and orbit.newton_iterations == 5
    assert _same_orbit(orbit, direct, p)


@pytest.mark.parametrize("region", (1, 2, 3))
def test_the_n_rung_of_a_preset_runs_one_map_and_one_pass(region, monkeypatch):
    # after the converged 16-step rung, the 256-step rung maps the coarse
    # anchor once, steps with the coarse monodromy, and the pass at the
    # point reached shows convergence and is the anchor's
    p = region_preset(region).params
    guess = VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G)
    calls = Counter()
    period_map, flow = floquet._period_map, floquet._flow_variational

    def counted_map(p, x, n):
        calls["map", n] += 1
        return period_map(p, x, n)

    def counted_pass(p, anchor, n):
        calls["pass", n] += 1
        return flow(p, anchor, n)
    monkeypatch.setattr(floquet, "_period_map", counted_map)
    monkeypatch.setattr(floquet, "_flow_variational", counted_pass)
    orbit = locate_savanna_orbit(p, guess, n=256)
    assert orbit.converged and orbit.coarse_steps == 16
    assert (calls["map", 256], calls["pass", 256]) == (1, 1)
    assert np.array_equal(orbit.monodromy.matrix, monodromy(p, orbit.anchor, 256))


def test_the_anchor_is_the_point_full_newton_steps_reach():
    # every Newton step solves with the monodromy at its start, so the step
    # that reaches the anchor converges quadratically, and five more full
    # Newton steps move it by rounding only (a step with a reused monodromy
    # stopped 8.0e-11 * max(K_T, K_G) away)
    region, values = ANCHOR_CASE
    p = region_preset(region).params.replace(**values)
    orbit = locate_savanna_orbit(p, VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G), n=64)
    assert orbit.converged and orbit.interior
    x = orbit.anchor.as_array()
    for _ in range(5):
        full = monodromy_full(p, VegState.from_array(x), 64)
        px = impulse_map(full.pre_fire_state, p).as_array()
        x = np.maximum(x + floquet._face_step(np.eye(3) - full.matrix, x, px)[0], 0.0)
    assert np.max(np.abs(orbit.anchor.as_array() - x)) < 1e-12 * max(p.K_T, p.K_G)


def test_location_runs_at_most_two_stages(monkeypatch):
    calls = Counter()

    def counted(*args, **kwargs):
        calls["_locate_at"] += 1
        return _locate_at(*args, **kwargs)
    monkeypatch.setattr(floquet, "_locate_at", counted)
    cases = ((3, UNSTABLE_CASE, 600), (3, SLOW_GRASSLAND_CASE, 600),
             (3, SLOW_GRASSLAND_CASE, 200), (2, DIVERGING_COARSE_CASE, 600))
    for region, case, max_iter in cases:
        p = region_preset(region).params.replace(**case)
        calls.clear()
        locate_savanna_orbit(p, VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G),
                             n=64, max_iter=max_iter)
        assert calls["_locate_at"] <= 2, (region, max_iter)


def _count_period_maps(patch):
    """The step count of every ``_period_map`` call from now on."""
    maps, period_map = [], floquet._period_map
    patch.setattr(floquet, "_period_map", lambda p, x, n: maps.append(n) or period_map(p, x, n))
    return maps


def _assert_identical(a, b, maps=0):
    # ``maps``: period maps that ``a``'s rungs ran before ``b``'s location
    assert a.anchor == b.anchor
    assert (a.converged, a.residual, a.iterations, a.newton_iterations, a.boundary,
            a.clamped) == (b.converged, b.residual, b.iterations + maps, b.newton_iterations,
                           b.boundary, b.clamped)
    assert np.array_equal(a.monodromy.matrix, b.monodromy.matrix)
    assert a.coarse_monodromy is b.coarse_monodromy is None


def test_a_diverging_coarse_stage_falls_back_to_the_direct_path(monkeypatch):
    p = region_preset(2).params.replace(**DIVERGING_COARSE_CASE)
    guess = VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G)
    with monkeypatch.context() as patch:
        maps = _count_period_maps(patch)
        with pytest.raises(NumericalError, match="diverged"):
            _locate_at(p, guess, 600, 16)
    orbit = locate_savanna_orbit(p, guess, n=64)
    assert orbit.converged
    # the counters also hold the maps of the 16-step rung that diverged
    _assert_identical(orbit, _locate_at(p, guess, 600, 64), maps=len(maps))
    # at n=256 the 64-step rung takes over from the guess and converges
    orbit = locate_savanna_orbit(p, guess, n=256)
    assert orbit.converged and orbit.coarse_steps == 64
    assert _same_orbit(orbit, _locate_at(p, guess, 600, 256), p)


@pytest.mark.parametrize("case", sorted(CLAMP_CASES) + ["diverging"])
def test_iterations_count_every_period_map_also_of_rungs_that_raise(case, monkeypatch):
    # a refused 16-step rung (the clamp cases) or one whose map diverges
    # still counts its maps
    region, values = CLAMP_CASES.get(case, (2, DIVERGING_COARSE_CASE))
    p = region_preset(region).params.replace(**values)
    maps = _count_period_maps(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        orbit = locate_savanna_orbit(p, VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G), n=64)
    assert orbit.converged and 16 in maps
    assert orbit.iterations == len(maps)


@pytest.mark.parametrize("case", sorted(CLAMP_CASES))
def test_a_fixed_point_of_the_clamp_is_refused(case):
    region, values = CLAMP_CASES[case]
    p = region_preset(region).params.replace(**values)
    guess = VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NumericalError, match="16 steps per period is not an orbit"):
            locate_savanna_orbit(p, guess, n=16)
        # the refused 16-step rung hands the guess to the 64-step one
        orbit = locate_savanna_orbit(p, guess, n=64)
    assert orbit.converged and orbit.boundary == "grassland"
    assert orbit.coarse_steps is orbit.coarse_monodromy is None
    assert _same_orbit(orbit, _locate_at(p, guess, 600, 64), p)


def test_no_coarse_stage_at_or_below_its_step_count():
    for region in (1, 2, 3):
        p = region_preset(region).params
        guess = VegState(0.1 * p.K_T, 0.1 * p.K_T, 0.5 * p.K_G)
        _assert_identical(locate_savanna_orbit(p, guess, n=16),
                          _locate_at(p, guess, 600, 16))


def test_existence_warning_is_issued_once_per_call():
    p = r1(mu_G=0.9)  # r_g0 < 1
    guess = VegState(1.0, 1.0, 1.0)
    # max_iter=5: the 16-step rung does not converge and the 64-step rung
    # starts from its last point; 600: both rungs converge
    for max_iter in (5, 600):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            locate_savanna_orbit(p, guess, max_iter=max_iter, n=64)
        assert [str(w.message).count("existence condition") for w in caught] == [1]


@pytest.mark.parametrize("region", (1, 2, 3))
def test_rho_tg_error_estimate_tracks_the_true_error(region):
    p = region_preset(region).params
    rep = floquet_report(p, n=64)
    r = rep.diagnostics["coarse_steps"]
    true_error = abs(rep.rho_tg - floquet_report(p, n=1024).rho_tg)
    coarse_error = abs(floquet_report(p, n=r).rho_tg - rep.rho_tg) / ((64 / r) ** 4 - 1.0)
    assert rep.diagnostics["rho_tg_error"] == pytest.approx(coarse_error, rel=1e-6)
    assert 0.5 * true_error < rep.diagnostics["rho_tg_error"] < 2.0 * true_error
    direct = floquet_report(p, n=16).diagnostics
    assert direct["coarse_steps"] is direct["rho_tg_error"] is None
