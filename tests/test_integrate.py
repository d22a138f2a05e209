import math

import numpy as np
import pytest

from savanna import (
    NumericalError,
    VegState,
    compute_thresholds,
    denominators,
    grassland_orbit,
    grassland_orbit_end,
    impulse_map,
    nsfd_step,
    reference_step,
    region_preset,
    simulate,
)
from draws import draw_region_params, draw_state_in_omega


def r1(**over):
    return region_preset(1).params.replace(**over)


# ---------------------------------------------------------------------------
# denominator functions
# ---------------------------------------------------------------------------

def test_denominators_positive_and_first_order():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = draw_region_params(rng, int(rng.integers(1, 4)), interval_only=False)
        for h in (1e-4, 1e-2, 0.5, 1.0):
            d = denominators(p, h)
            assert d.phi > 0 and d.phi_g > 0
            if h <= 1e-2 and d.q != 0:
                assert d.phi == pytest.approx(h, rel=1.5 * abs(d.q) * h)


def test_denominator_grass_branches():
    p = r1(mu_G=0.3)
    d = denominators(p, 0.25)
    rate = p.gamma_G - p.mu_G
    assert d.phi_g == pytest.approx(math.expm1(rate * 0.25) / rate, rel=1e-14)
    p0 = r1(mu_G=0.0)
    d0 = denominators(p0, 0.25)
    assert d0.phi_g == pytest.approx(math.expm1(p0.gamma_G * 0.25) / p0.gamma_G, rel=1e-14)
    # without trees the grass step is the exact logistic step, also at mu_G = 0
    r = p0.gamma_G
    for g in (0.01, 1.25, 2.4):
        for h in (0.01, 0.5, 1.0):
            out = nsfd_step(VegState(0.0, 0.0, g), p0, h)
            exact = g * math.exp(r * h) / (1.0 + g * math.expm1(r * h) / p0.K_G)
            assert out.g == pytest.approx(exact, rel=1e-14)
            assert out.g <= p0.K_G


def test_denominators_reject_bad_step():
    with pytest.raises(ValueError):
        denominators(r1(), 0.0)
    with pytest.raises(ValueError):
        nsfd_step(VegState(1, 1, 1), r1(), -0.5)


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def test_desert_is_nsfd_fixed_point():
    for h in (0.01, 0.37, 2.0):
        out = nsfd_step(VegState(0, 0, 0), r1(), h)
        assert (out.t_s, out.t_ns, out.g) == (0.0, 0.0, 0.0)


def test_forest_equilibrium_is_nsfd_fixed_point_any_step():
    for region in (1, 2, 3):
        p = region_preset(region).params
        eq = compute_thresholds(p).forest_eq
        for h in (0.01, 0.1, 1.0):
            out = nsfd_step(eq, p, h)
            err = max(abs(out.t_s - eq.t_s), abs(out.t_ns - eq.t_ns), abs(out.g - eq.g))
            assert err < 1e-10


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------

def test_nsfd_tracks_reference_over_one_year():
    p = r1()
    s_n = VegState(1.0, 1.0, 1.0)
    for _ in range(100):
        s_n = nsfd_step(s_n, p, 0.01)
    s_r = VegState(1.0, 1.0, 1.0)
    for _ in range(20000):
        s_r = reference_step(s_r, p, 5e-5)
    for a, b in zip(s_n.as_array(), s_r.as_array()):
        assert a == pytest.approx(b, rel=1e-3)


def test_nsfd_error_is_first_order():
    p = region_preset(2).params
    s0 = VegState(5.0, 5.0, 2.0)

    def nsfd_end(h):
        s = s0
        for _ in range(int(round(p.tau / h))):
            s = nsfd_step(s, p, h)
        return s.as_array()

    ref = s0
    for _ in range(int(round(p.tau / 1e-4))):
        ref = reference_step(ref, p, 1e-4)
    err1 = np.max(np.abs(nsfd_end(0.05) - ref.as_array()))
    err2 = np.max(np.abs(nsfd_end(0.025) - ref.as_array()))
    assert 1.4 < err1 / err2 < 2.8


def test_reference_matches_exact_logistic():
    # trees absent: grass follows a logistic with shifted rate and capacity
    p = r1(mu_G=0.3)
    rate = p.gamma_G - p.mu_G
    cap = p.K_G * rate / p.gamma_G
    g0 = 0.2

    def exact(t):
        return cap * g0 * math.exp(rate * t) / (cap + g0 * (math.exp(rate * t) - 1.0))

    s = VegState(0.0, 0.0, g0)
    h = 1e-3
    for k in range(2000):
        s = reference_step(s, p, h)
    assert s.g == pytest.approx(exact(2.0), abs=1e-12)


def test_reference_is_fourth_order():
    p = region_preset(2).params
    s0 = VegState(5.0, 5.0, 2.0)

    def end(h, n):
        s = s0
        for _ in range(n):
            s = reference_step(s, p, h)
        return s.as_array()

    e1 = end(0.2, 5)
    e2 = end(0.1, 10)
    e3 = end(0.05, 20)
    ratio = np.max(np.abs(e1 - e2)) / np.max(np.abs(e2 - e3))
    assert 10.0 < ratio < 22.0  # 2^4 up to higher-order contamination


# ---------------------------------------------------------------------------
# invariance
# ---------------------------------------------------------------------------

def test_nsfd_preserves_positivity_and_grass_cap():
    # the scheme's guarantee: compartments stay nonnegative and grass stays
    # below its capacity (nonnegative crowding), for any step size
    rng = np.random.default_rng(13)
    for _ in range(300):
        region = int(rng.integers(2, 4))
        p = draw_region_params(rng, region, sigma_ns_nonneg=True)
        s = draw_state_in_omega(rng, p)
        for h in (0.001, 0.01, 0.1, 0.5, 1.0):
            x = s
            for _ in range(40):
                x = nsfd_step(x, p, h)
                assert x.t_s >= 0 and x.t_ns >= 0
                assert 0 <= x.g <= p.K_G * (1 + 1e-12)


def test_nsfd_rejects_step_too_large_for_facilitation():
    # strong facilitation with a large step makes the grass-update denominator
    # nonpositive; the step must fail loudly rather than emit negative biomass
    p = r1(sigma_NS=-0.029)
    with pytest.raises(NumericalError, match="facilitation"):
        nsfd_step(VegState(0.0, p.K_T, 0.01), p, 1.0)
    # the same configuration is fine at a smaller step
    out = nsfd_step(VegState(0.0, p.K_T, 0.01), p, 0.1)
    assert out.g > 0


def test_nsfd_tree_sum_stays_within_capacity():
    # T_S + T_NS <= K_T is invariant for every step size (argument in the
    # integrate module docstring), including the mu_S = 0 corner (K_T, 0, 0)
    # where crowding alone holds the tree sum down
    for region in (1, 2, 3):
        base = region_preset(region).params
        for p in (base, base.replace(mu_S=0.0)):
            for frac in (1.0, 0.9):
                for h in (1e-3, 1e-2, 0.1, 0.5, 1.0):
                    x = VegState(frac * p.K_T, 0.0, 0.0)
                    for _ in range(40):
                        x = nsfd_step(x, p, h)
                        assert x.t_s >= 0.0 and x.t_ns >= 0.0
                        assert x.t_s + x.t_ns <= p.K_T * (1.0 + 1e-14), (region, h)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_step_snapping_and_impulse_count():
    p = r1()
    traj = simulate(p, VegState(1, 1, 1), horizon=10 * p.tau, h=0.3)
    assert traj.h_requested == 0.3
    m = round(p.tau / traj.h_effective)
    assert m == math.ceil(p.tau / 0.3)
    assert traj.h_effective == pytest.approx(p.tau / m)
    assert len(traj.impulse_records) == 10
    traj2 = simulate(p, VegState(1, 1, 1), horizon=10.5 * p.tau, h=0.3)
    assert len(traj2.impulse_records) == 10
    traj3 = simulate(p, VegState(1, 1, 1), horizon=0.9 * p.tau, h=0.3)
    assert len(traj3.impulse_records) == 0
    assert traj3.samples[-1][0] == pytest.approx(0.9 * p.tau)


def test_simulate_records_match_impulse_map():
    p = r1()
    traj = simulate(p, VegState(2, 1, 1), horizon=3 * p.tau, h=0.1)
    for t_k, pre, post in traj.impulse_records:
        assert post == impulse_map(pre, p)
        assert t_k / p.tau == pytest.approx(round(t_k / p.tau))
    times = [t for t, _ in traj.samples]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_simulate_stationary_at_forest_without_fire_effects():
    p = r1(eta_S=0.0, eta_G=0.0)
    eq = compute_thresholds(p).forest_eq
    traj = simulate(p, eq, horizon=5 * p.tau, h=0.05, scheme="reference")
    dev = max(np.max(np.abs(s.as_array() - eq.as_array())) for _, s in traj.samples)
    assert dev < 1e-9


def test_simulate_grassland_attractor_long_run():
    # forest reproduction forced below one: grassland orbit is the attractor
    p = r1(gamma_S=0.01, gamma_NS=0.01)
    g_end = grassland_orbit_end(p)
    traj = simulate(p, VegState(5.0, 5.0, 0.5), horizon=200 * p.tau, h=0.05,
                    scheme="reference")
    pre = traj.impulse_records[-1][1]
    assert abs(pre.g - g_end) / g_end < 1e-4
    assert pre.t_s < 1e-6 and pre.t_ns < 1e-6


def test_simulate_forest_attractor_when_grass_dies():
    p = region_preset(2).params.replace(mu_G=3.0)
    eq = compute_thresholds(p).forest_eq
    traj = simulate(p, VegState(5.0, 5.0, 5.0), horizon=500.0, h=0.05,
                    scheme="reference")
    final = traj.final_state()
    assert np.max(np.abs(final.as_array() - eq.as_array())) < 1e-6


def test_simulate_grass_equation_matches_closed_form():
    p = r1()
    start = VegState(0.0, 0.0, grassland_orbit(p, 0.0))
    traj = simulate(p, start, horizon=5 * p.tau, h=p.tau / 500, scheme="reference")
    for t_k, pre, _post in traj.impulse_records:
        assert pre.g == pytest.approx(grassland_orbit_end(p), rel=1e-6)
    # mid-period samples too
    for t, s in traj.samples[::100]:
        if t % p.tau > 1e-9:
            assert s.g == pytest.approx(grassland_orbit(p, t), rel=1e-6)


def test_simulate_grass_orbit_without_death_rate():
    # mu_G = 0 branch of the closed form against the reference integrator
    p = r1(mu_G=0.0)
    start = VegState(0.0, 0.0, grassland_orbit(p, 0.0))
    traj = simulate(p, start, horizon=5 * p.tau, h=p.tau / 500, scheme="reference")
    g_end = grassland_orbit_end(p)
    for _t, pre, _post in traj.impulse_records:
        assert pre.g == pytest.approx(g_end, rel=1e-9)


def test_simulate_rejects_bad_arguments():
    p = r1()
    with pytest.raises(ValueError):
        simulate(p, VegState(1, 1, 1), horizon=-1.0, h=0.1)
    with pytest.raises(ValueError):
        simulate(p, VegState(1, 1, 1), horizon=1.0, h=0.0)
    with pytest.raises(ValueError):
        simulate(p, VegState(1, 1, 1), horizon=1.0, h=0.1, scheme="euler")


def test_simulate_reports_divergence_with_time_stamp():
    # an explosive reference run must fail loudly, not overflow silently
    p = r1(gamma_S=80.0, gamma_NS=90.0, K_T=1e6)
    with pytest.raises(NumericalError, match="t ="):
        simulate(p, VegState(1.0, 1.0, 0.0), horizon=20.0, h=0.45, scheme="reference")



def _replay(p, s0, horizon, h_eff, scheme):
    """``simulate``'s run one public step at a time: steps of ``h_eff``, the
    fire map after every m-th of them, and one step of the length left over
    past the last grid node, if any."""
    step = nsfd_step if scheme == "nsfd" else reference_step
    m = round(p.tau / h_eff)
    n_grid = int(horizon / h_eff + 1e-9)
    n_periods, n_rem = divmod(n_grid, m)
    last = (horizon - n_periods * p.tau) - n_rem * h_eff
    s, samples, fires = s0, [(0.0, s0)], []
    for i in range(1, n_grid + 1):
        s = step(s, p, h_eff)
        if i % m == 0:
            fires.append((i * h_eff, s, impulse_map(s, p)))
            s = fires[-1][2]
        samples.append((i * h_eff, s))
    if last > 1e-12 * p.tau:
        samples.append((horizon, step(s, p, last)))
    return samples, fires


# (tau, h, whole periods, grid steps after them); a fractional step count
# puts the horizon off the grid
REPLAY_CASES = {
    "whole periods": (1.75, 0.1, 4, 0),
    "remainder": (1.75, 0.1, 4, 5),
    "off the grid": (1.75, 0.1, 4, 5.5),
    "h >= tau": (0.5, 0.6, 5, 0.25),
    "horizon < tau": (1.75, 0.1, 0, 7.5),
}


@pytest.mark.parametrize("scheme", ("nsfd", "reference"))
@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
def test_simulate_equals_a_step_by_step_replay(case, scheme):
    tau, h, periods, steps = REPLAY_CASES[case]
    p = region_preset(3).params.replace(tau=tau)
    m = math.ceil(tau / h)
    horizon = periods * tau + steps * (tau / m)
    s0 = VegState(0.3 * p.K_T, 0.2 * p.K_T, 0.5 * p.K_G)
    traj = simulate(p, s0, horizon=horizon, h=h, scheme=scheme)
    assert traj.h_effective == tau / m
    samples, fires = _replay(p, s0, horizon, traj.h_effective, scheme)
    assert len(fires) == periods
    assert len(samples) == 1 + periods * m + math.ceil(steps)
    assert len(traj.samples) == len(samples) and len(traj.impulse_records) == len(fires)
    for (t, s), (t_r, s_r) in zip(traj.samples, samples):
        assert t == pytest.approx(t_r, rel=1e-12, abs=1e-12)
        assert s == s_r
    for (t, pre, post), (t_r, pre_r, post_r) in zip(traj.impulse_records, fires):
        assert t == pytest.approx(t_r, rel=1e-12)
        assert (pre, post) == (pre_r, post_r)

def test_trajectory_csv_shape():
    p = r1()
    traj = simulate(p, VegState(1, 1, 1), horizon=2 * p.tau, h=1.0)
    lines = traj.to_csv().strip().split("\n")
    assert lines[0] == "t,T_S,T_NS,G,event"
    pre_rows = [l for l in lines if l.endswith("pre_fire")]
    post_rows = [l for l in lines if l.endswith("post_fire")]
    assert len(pre_rows) == 2 and len(post_rows) == 2
    # pre/post pairs share their time stamp
    for a, b in zip(pre_rows, post_rows):
        assert a.split(",")[0] == b.split(",")[0]
