import hashlib
import importlib
import io
import math
from collections import Counter
from pathlib import Path

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
from savanna import integrate
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


# (fire period, or None for the preset's; grid steps per period; horizon in
# periods).  1500 steps per period puts more rows between two fires than one
# formatting block holds.
CSV_CASES = {
    "whole periods": (None, 1500, 3),
    "remainder": (None, 1500, 3 + 700 / 1500),
    "off the grid": (None, 1500, 3 + 700.5 / 1500),
    "h >= tau": (0.4, 0.8, 5.25),
    "horizon < tau": (None, 1500, 0.7),
}

# sha256 of ``to_csv()`` for each (preset, scheme, case), recorded from the
# per-row writer that ``_per_row_csv`` restates
CSV_DIGESTS = {
    (1, "nsfd", "whole periods"): "f38e407d7f21c58b4220bb47eb341b1d06653684f2a77de538d7ac2eaae8cb9b",
    (1, "nsfd", "remainder"): "6c77b6d3201b45cf12a6c076215110d47ba313c239dc840deabc6b9cc3ce2628",
    (1, "nsfd", "off the grid"): "602eeea512dde3bc6d759d7dc151f13a7a6b73c72aa848e17a168d1c4c993001",
    (1, "nsfd", "h >= tau"): "6eaa4dcf4005fe3269b5a96bc88ff4b8c40574cc2334e419e554644e5a740c72",
    (1, "nsfd", "horizon < tau"): "6e76c2bc80cbce6dd396e1d418c0707121f00fca9d22a66df3fbd1c77ee39ee8",
    (1, "reference", "whole periods"): "00a8722ba38399fc55f890d9fdfc614bcbb80ab7012e4b39f9d9bf5cee91a444",
    (1, "reference", "remainder"): "12f720cf60c5af6cedb7a23cf19d0031a8229ea08bb30445cc412403875c03c0",
    (1, "reference", "off the grid"): "ab7c0b454de9f8a324faaed00564c3b0c98675e2569a9eed006518db89ca7331",
    (1, "reference", "h >= tau"): "89b31724dd309a0ec0b0fd0e493ddb5c47eb45239c6953985f4c0b8e3bb81c7a",
    (1, "reference", "horizon < tau"): "d59881fbc51e72d13152ad19178a68751ec2ef31e97b33b84f18678f253ce10a",
    (2, "nsfd", "whole periods"): "865918ff7acb67bbe8f7cb6218f4f28b31a78eeb047d87619ee294356a574985",
    (2, "nsfd", "remainder"): "866f70b8179662ed03b478dcfa220963c9ef6785df4105dd82be5efd20bc0846",
    (2, "nsfd", "off the grid"): "d8f2303b1b7e6b0641e1ac4c19eef444c7ed45ba77d9ce77fe7440acca08191f",
    (2, "nsfd", "h >= tau"): "04625e77ca7977c33a25482ffd7bf8e8e83634b5c5347d52eec061eb86e44e22",
    (2, "nsfd", "horizon < tau"): "90d5108e6b0feaf4011fc5520fa856ac4386eae2d76f55659631a82166fea71f",
    (2, "reference", "whole periods"): "9a86cf28f421bc33274324280bb534c0d1bf377ae301c959237e79e05bf5e5d5",
    (2, "reference", "remainder"): "16467de4aabf0dd461fae6ccce6684765b2e17d19865556ed92ce67f4d474157",
    (2, "reference", "off the grid"): "63a7ad2394be938ddc55b9cff19db4b760e8d8cb77cfb025faf0278b64a4235d",
    (2, "reference", "h >= tau"): "2abf21b6416f4139254a3c59ffc286b09db83929fe26c6366c8207bf661dc14c",
    (2, "reference", "horizon < tau"): "310022c5611c8c3b5b1d37b725f2ebfe08901c83dd17c6626d7479e433b872fd",
    (3, "nsfd", "whole periods"): "7f5dcdda2fb63aa9d97cae648cd751aead76f7678d9155c0a936cbfe323e7df9",
    (3, "nsfd", "remainder"): "94d4c388a8764833e56b47acdcf60a582ebad17a1f77a51d8138f3a1dc953ef3",
    (3, "nsfd", "off the grid"): "b7106cc569f3adae6028c99521221a25d5a16b9699f54dbf3999a3a2e19318a2",
    (3, "nsfd", "h >= tau"): "7207116fd09856e175678d0ee5c6ef00a34ef01f49fd7fc5dd51e3475df6536a",
    (3, "nsfd", "horizon < tau"): "9bbd399eb57c48050d7796f4da637656446dc5ea02636b667f47e468d7c6a9f6",
    (3, "reference", "whole periods"): "77e73bdb67c6c19b68f48c107c071dbb354f5ed8599ce20fc13d25a29167ce9e",
    (3, "reference", "remainder"): "d5d04816e59a032fd4344d29721d0256cc17655ea93bd75e085b017efa669941",
    (3, "reference", "off the grid"): "74b482459da9f8f6ae8207eb2f24f935b1a91d709f25ea048cbada9e649acc48",
    (3, "reference", "h >= tau"): "a96dbe42329aa9349f1c873dcdb823e19cd4693a064ce416edd6fd3baf787647",
    (3, "reference", "horizon < tau"): "5e27cedad58d8c6b6e328c9f0bb7c4a47002d74a779714cf25a78a3cd9a7907e",
}


def _csv_case(region, scheme, case):
    tau, m, periods = CSV_CASES[case]
    p = region_preset(region).params
    if tau is not None:
        p = p.replace(tau=tau)
    s0 = VegState(0.1 * p.K_T, 0.05 * p.K_T, 0.5 * p.K_G)
    return simulate(p, s0, horizon=periods * p.tau, h=p.tau / m, scheme=scheme)


def _per_row_csv(traj):
    """The CSV written one row at a time from ``samples`` and
    ``impulse_records``: a fire time gets its pre-fire row, then the sample
    as its post-fire row."""
    pre_fire = {t: pre for t, pre, _ in traj.impulse_records}
    lines = ["t,T_S,T_NS,G,event"]
    for t, s in traj.samples:
        pre = pre_fire.get(t)
        if pre is None:
            lines.append(f"{t:.17g},{s.t_s:.17g},{s.t_ns:.17g},{s.g:.17g},")
        else:
            lines.append(f"{t:.17g},{pre.t_s:.17g},{pre.t_ns:.17g},{pre.g:.17g},pre_fire")
            lines.append(f"{t:.17g},{s.t_s:.17g},{s.t_ns:.17g},{s.g:.17g},post_fire")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("region, scheme, case", sorted(CSV_DIGESTS))
def test_trajectory_csv_bytes_are_pinned(region, scheme, case):
    csv = _csv_case(region, scheme, case).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == CSV_DIGESTS[region, scheme, case]


@pytest.mark.parametrize("scheme", ("nsfd", "reference"))
@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_to_csv_equals_a_per_row_writer(case, scheme):
    for region in (1, 2, 3):
        traj = _csv_case(region, scheme, case)
        assert traj.to_csv() == _per_row_csv(traj)


@pytest.mark.parametrize("scheme", ("nsfd", "reference"))
@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_to_csv_writes_to_a_file_the_string_it_returns(case, scheme):
    for region in (1, 2, 3):
        traj = _csv_case(region, scheme, case)
        fh = io.StringIO()
        assert traj.to_csv(fh) is None
        assert fh.getvalue() == traj.to_csv()


@pytest.mark.parametrize("scheme", ("nsfd", "reference"))
@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_n_samples_counts_the_samples_without_building_them(case, scheme):
    for region in (1, 2, 3):
        traj = _csv_case(region, scheme, case)
        n = traj.n_samples
        assert "samples" not in vars(traj)
        assert n == len(traj.samples)


def _counting_stepper(monkeypatch):
    """Count every step ``simulate`` takes, grid steps and the short last one."""
    taken = Counter()
    stepper = integrate._stepper

    def counted(p, scheme, h):
        step = stepper(p, scheme, h)

        def step_and_count(ts, tns, g):
            taken["steps"] += 1
            return step(ts, tns, g)
        return step_and_count
    monkeypatch.setattr(integrate, "_stepper", counted)
    return taken


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_the_bench_tracer_counts_the_steps_taken(case, monkeypatch):
    # bench/spans.py reads len(samples) - 1 as the integrate layer's step count
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    spans = importlib.import_module("spans")
    for scheme in ("nsfd", "reference"):
        taken = _counting_stepper(monkeypatch)
        traj = _csv_case(3, scheme, case)
        counts = Counter()
        spans._simulate_counts(counts, traj)
        assert counts["steps"] == taken["steps"] == len(traj.samples) - 1 > 0


# step 2 is inside the first period, step 7 ends it (the pre-fire state) and
# step 11 is the short last step to the horizon 10.5; (time, ``.6g`` of it)
GUARD_STEPS = {2: (2.0, "2"), 7: (7.0, "7"), 11: (10.5, "10.5")}


def _scripted_run(monkeypatch, at, bad):
    """Region 1 (tau = 7) at h = 1 to 10.5 with a stepper that returns
    (1, 1, 1) on every step but step ``at``, where it returns ``bad``."""
    calls = Counter()

    def stepper(p, scheme, h):
        def step(ts, tns, g):
            calls["n"] += 1
            return bad if calls["n"] == at else (1.0, 1.0, 1.0)
        return step
    monkeypatch.setattr(integrate, "_stepper", stepper)
    return simulate(r1(), VegState(1.0, 1.0, 1.0), horizon=10.5, h=1.0)


def _state_after(traj, at):
    return traj.impulse_records[0][1] if at == 7 else dict(traj.samples)[GUARD_STEPS[at][0]]


@pytest.mark.parametrize("at", sorted(GUARD_STEPS))
@pytest.mark.parametrize("bad", [(1.0, math.nan, 1.0), (math.inf, 1.0, 1.0),
                                 (1.0, 1.0, -math.inf)], ids=("nan", "+inf", "-inf"))
def test_the_step_guard_rejects_non_finite_states(at, bad, monkeypatch):
    with pytest.raises(NumericalError) as err:
        _scripted_run(monkeypatch, at, bad)
    assert str(err.value) == f"state became non-finite at t = {GUARD_STEPS[at][1]}"


@pytest.mark.parametrize("at", sorted(GUARD_STEPS))
def test_the_step_guard_rejects_a_state_below_the_floor(at, monkeypatch):
    # the floor is 1e-9 * max(K_T, K_G) = 3e-8 on region 1
    with pytest.raises(NumericalError) as err:
        _scripted_run(monkeypatch, at, (1.0, 1.0, -1e-6))
    assert str(err.value) == (f"state left the feasible region at t = "
                              f"{GUARD_STEPS[at][1]} (component -1e-06)")


@pytest.mark.parametrize("at", sorted(GUARD_STEPS))
def test_the_step_guard_clamps_rounding_undershoot_and_keeps_negative_zero(at, monkeypatch):
    traj = _scripted_run(monkeypatch, at, (1.0, -2.5e-8, -0.0))
    s = _state_after(traj, at)
    assert (s.t_s, s.t_ns, s.g) == (1.0, 0.0, 0.0)
    assert math.copysign(1.0, s.t_ns) == 1.0 and math.copysign(1.0, s.g) == -1.0
    event = "pre_fire" if at == 7 else ""
    assert f"{GUARD_STEPS[at][1]},1,0,-0,{event}" in traj.to_csv().split("\n")
    assert traj.to_csv() == _per_row_csv(traj)
