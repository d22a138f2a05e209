import math
from dataclasses import fields

import numpy as np
import pytest

from savanna import (
    FireIntensityParams,
    ModelParams,
    ParameterError,
    VegState,
    dump_params_text,
    fire_intensity,
    fire_intensity_slope,
    impulse_map,
    in_omega,
    load_params_file,
    parse_params_text,
    region_preset,
    validate,
    vector_field,
)
from draws import draw_region_params, draw_state_in_omega


# ---------------------------------------------------------------------------
# fire intensity
# ---------------------------------------------------------------------------

def test_fire_intensity_that_fails_in_floating_point_is_a_numerical_error():
    from savanna.model import NumericalError
    for g, fire in ((1e200, FireIntensityParams(1.0)),        # g ** 2 overflows
                    (1.0, FireIntensityParams(1e200)),        # g0 ** 2 overflows
                    (1e-170, FireIntensityParams(1e-170))):   # 0 / 0 from underflows
        with pytest.raises(NumericalError, match="fire intensity"):
            fire_intensity(g, fire)
        with pytest.raises(NumericalError, match="fire intensity"):
            fire_intensity_slope(g, fire)


def test_fire_intensity_zero_and_half_saturation():
    fire = FireIntensityParams(g0=1.25, alpha=2)
    assert fire_intensity(0.0, fire) == 0.0
    assert fire_intensity(1.25, fire) == pytest.approx(0.5, abs=1e-15)
    for g0, alpha in [(0.3, 1), (2.0, 3), (7.5, 2)]:
        assert fire_intensity(g0, FireIntensityParams(g0, alpha)) == pytest.approx(0.5)


def test_fire_intensity_direct_value():
    # g^2/(g^2+1) at g=3 is 9/10
    assert fire_intensity(3.0, FireIntensityParams(g0=1.0, alpha=2)) == pytest.approx(0.9, abs=1e-15)


def test_fire_intensity_rejects_negative():
    with pytest.raises(ValueError):
        fire_intensity(-0.1, FireIntensityParams(g0=1.0))


def test_fire_intensity_monotone_and_bounded():
    rng = np.random.default_rng(1)
    for _ in range(50):
        fire = FireIntensityParams(g0=float(rng.uniform(0.1, 10)), alpha=int(rng.integers(1, 5)))
        gs = np.sort(rng.uniform(0, 50, size=20))
        w = [fire_intensity(float(g), fire) for g in gs]
        assert all(0.0 <= x < 1.0 for x in w)
        assert np.all(np.diff(w) > 0)


def test_fire_intensity_slope_matches_differences():
    rng = np.random.default_rng(2)
    for _ in range(30):
        fire = FireIntensityParams(g0=float(rng.uniform(0.5, 5)), alpha=int(rng.integers(1, 4)))
        g = float(rng.uniform(0.1, 10))
        eps = 1e-6 * max(1.0, g)
        fd = (fire_intensity(g + eps, fire) - fire_intensity(g - eps, fire)) / (2 * eps)
        assert fire_intensity_slope(g, fire) == pytest.approx(fd, rel=1e-6, abs=1e-10)
    assert fire_intensity_slope(0.0, FireIntensityParams(2.0, 1)) == pytest.approx(0.5)
    assert fire_intensity_slope(0.0, FireIntensityParams(2.0, 2)) == 0.0


# ---------------------------------------------------------------------------
# vector field
# ---------------------------------------------------------------------------

def test_vector_field_desert_is_equilibrium():
    rng = np.random.default_rng(3)
    for region in (1, 2, 3):
        p = draw_region_params(rng, region)
        assert np.all(vector_field(VegState(0, 0, 0), p) == 0.0)


def test_vector_field_vanishes_at_forest_equilibrium():
    from savanna import compute_thresholds

    p = region_preset(1).params
    eq = compute_thresholds(p).forest_eq
    assert np.max(np.abs(vector_field(eq, p))) < 1e-12


def test_vector_field_matches_independent_evaluation():
    # re-coded right-hand sides, evaluated term by term
    p = region_preset(1).params
    s = VegState(1.0, 1.0, 1.0)
    ts, tns, g = s.t_s, s.t_ns, s.g
    expected = np.array([
        (p.gamma_S * ts + p.gamma_NS * tns) * (1 - (ts + tns) / p.K_T)
        - ts * (p.mu_S + p.omega_S + p.sigma_G * g),
        p.omega_S * ts - p.mu_NS * tns,
        p.gamma_G * (1 - g / p.K_G) * g - (p.sigma_NS * tns + p.mu_G) * g,
    ])
    assert vector_field(s, p) == pytest.approx(expected, rel=1e-15)


def test_facilitation_relaxed_grass_bound():
    # with sigma_NS < 0 grass may exceed K_G, but never the relaxed ceiling
    # K_G * (1 + |sigma_NS| K_T / gamma_G), where the flow turns inward again
    rng = np.random.default_rng(40)
    for _ in range(100):
        p = draw_region_params(rng, 1)
        assert p.sigma_NS < 0
        ceiling = p.K_G * (1.0 + abs(p.sigma_NS) * p.K_T / p.gamma_G)
        t_ns = float(rng.uniform(0, p.K_T))
        d = vector_field(VegState(0.0, t_ns, ceiling), p)
        assert d[2] <= 1e-9


def test_boundary_flow_points_inward():
    rng = np.random.default_rng(4)
    for _ in range(100):
        region = int(rng.integers(1, 4))
        p = draw_region_params(rng, region, sigma_ns_nonneg=True)
        # grass ceiling
        t_ns = float(rng.uniform(0, p.K_T))
        d = vector_field(VegState(0.0, t_ns, p.K_G), p)
        assert d[2] <= 1e-12
        # tree ceiling
        t_s = float(rng.uniform(0, p.K_T))
        d = vector_field(VegState(t_s, p.K_T - t_s, float(rng.uniform(0, p.K_G))), p)
        assert d[0] + d[1] <= 1e-12


# ---------------------------------------------------------------------------
# impulse map
# ---------------------------------------------------------------------------

def test_impulse_identity_without_fire_consumption():
    p = region_preset(1).params.replace(eta_S=0.0, eta_G=0.0)
    s = VegState(3.0, 2.0, 1.0)
    assert impulse_map(s, p) == s


def test_impulse_at_half_saturation():
    p = region_preset(1).params.replace(eta_S=0.5, eta_G=0.6, K_T=40.0)
    g0 = p.fire.g0
    out = impulse_map(VegState(10.0, 5.0, g0), p)
    assert out.t_s == pytest.approx(7.5, rel=1e-15)
    assert out.t_ns == 5.0
    assert out.g == pytest.approx(0.4 * g0, rel=1e-15)


def test_impulse_zero_trees_stay_zero():
    p = region_preset(2).params
    out = impulse_map(VegState(0.0, 0.0, p.K_G), p)
    assert out.t_s == 0.0 and out.t_ns == 0.0
    assert out.g == pytest.approx((1 - p.eta_G) * p.K_G)


def test_impulse_never_increases_and_preserves_tns():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = draw_region_params(rng, int(rng.integers(1, 4)))
        s = draw_state_in_omega(rng, p)
        out = impulse_map(s, p)
        assert out.t_s <= s.t_s + 1e-15
        assert out.t_ns == s.t_ns
        assert out.g <= s.g + 1e-15
        assert in_omega(out, p)


# ---------------------------------------------------------------------------
# validation and presets
# ---------------------------------------------------------------------------

def test_validate_accepts_presets():
    for region in (1, 2, 3):
        preset = region_preset(region)
        assert validate(preset.params).ok
        flat = preset.params.flat()
        for key, (lo, hi) in preset.ranges.items():
            assert lo <= flat[key] <= hi, (region, key)


def test_validate_lists_every_violation():
    with pytest.raises(ParameterError) as err:
        region_preset(1).params.replace(mu_NS=0.0, eta_G=1.0, gamma_S=-0.1)
    text = str(err.value)
    assert "mu_NS" in text and "eta_G" in text and "gamma_S" in text
    assert len(text.split("; ")) >= 3


def _unchecked(p, **changes):
    """``p`` with ``changes`` applied and no check: what ``validate`` reads."""
    q = object.__new__(ModelParams)
    for f in fields(ModelParams):
        object.__setattr__(q, f.name, changes.get(f.name, getattr(p, f.name)))
    return q


# one violation per row of the invariant table, then non-finite values
@pytest.mark.parametrize("changes,message", [
    ({"gamma_S": -0.1}, "gamma_S must be nonnegative, got -0.1"),
    ({"tau": 0.0}, "tau must be positive, got 0.0"),
    ({"eta_S": 1.5}, "eta_S must lie in [0, 1], got 1.5"),
    ({"eta_G": 1.0}, "eta_G must lie in [0, 1), got 1.0"),
    ({"mu_G": math.nan, "K_T": math.inf},
     "mu_G must be finite, got nan; K_T must be finite, got inf"),
])
def test_every_construction_checks_the_invariants(changes, message):
    p = region_preset(1).params
    assert "; ".join(validate(_unchecked(p, **changes)).errors) == message
    flat = {**p.flat(), **changes}
    core = {k: v for k, v in flat.items() if k not in ("g0", "alpha")}
    text = "".join(f"{k} = {v!r}\n" for k, v in flat.items())
    for build in (lambda: ModelParams(**core),
                  lambda: p.replace(**changes),
                  lambda: parse_params_text(text)):
        with pytest.raises(ParameterError) as err:
            build()
        assert str(err.value) == message


def test_negative_sigma_ns_is_legal():
    p = region_preset(1).params
    assert p.sigma_NS < 0
    assert validate(p).ok


def test_region_preset_values():
    r1 = region_preset(1).params
    assert (r1.tau, r1.K_T, r1.gamma_NS, r1.mu_NS) == (7.0, 30.0, 1.0, 0.15)
    r3 = region_preset(3).params
    assert (r3.K_G, r3.mu_G, r3.K_T) == (15.0, 0.2, 115.0)
    r2 = region_preset(2).params
    assert (r2.K_T, r2.K_G, r2.mu_G) == (85.0, 7.0, 0.3)
    with pytest.raises(ParameterError):
        region_preset(4)


def test_region_defaults_inside_ranges():
    for region in (1, 2, 3):
        preset = region_preset(region)
        flat = preset.params.flat()
        for key, (lo, hi) in preset.ranges.items():
            assert lo <= flat[key] <= hi, (region, key)


# ---------------------------------------------------------------------------
# parameter files
# ---------------------------------------------------------------------------

def test_params_text_round_trip():
    p = region_preset(2).params.replace(sigma_G=0.321, g0=1.75, alpha=3)
    q = parse_params_text(dump_params_text(p))
    assert q == p


def test_params_text_comments_and_defaults():
    text = "\n".join(
        f"{k} = {v}" for k, v in region_preset(1).params.flat().items()
        if k not in ("g0", "alpha")
    )
    text = "# leading comment\n" + text + "   # trailing\n"
    p = parse_params_text(text)
    assert p.fire.g0 == pytest.approx(p.K_G / 2)
    assert p.fire.alpha == 2


def test_params_file_must_be_utf8_text(tmp_path):
    p = region_preset(3).params
    good = tmp_path / "good.params"
    good.write_text(dump_params_text(p), encoding="utf-8")
    assert load_params_file(good) == p
    bad = tmp_path / "bad.params"
    bad.write_bytes(dump_params_text(p).encode() + b"# \xff\n")
    with pytest.raises(ParameterError, match="not UTF-8 text"):
        load_params_file(bad)


def test_params_text_rejects_unknown_and_malformed():
    base = dump_params_text(region_preset(1).params)
    with pytest.raises(ParameterError, match="unknown key"):
        parse_params_text(base + "mystery = 1\n")
    with pytest.raises(ParameterError, match="missing keys"):
        parse_params_text("gamma_S = 0.3\n")
    with pytest.raises(ParameterError, match="duplicate"):
        parse_params_text(base + "gamma_S = 0.3\n")
    with pytest.raises(ParameterError, match="bad value"):
        parse_params_text(base.replace("gamma_S = ", "gamma_S = abc", 1))
    with pytest.raises(ParameterError, match="key = value"):
        parse_params_text("gamma_S 0.3\n")


def test_vegstate_rejects_bad_values():
    with pytest.raises(ValueError):
        VegState(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        VegState(0.0, math.nan, 0.0)


def test_model_params_replace_handles_fire_keys():
    p = region_preset(1).params
    q = p.replace(g0=0.9, alpha=4, sigma_G=0.5)
    assert q.fire == FireIntensityParams(0.9, 4)
    assert q.sigma_G == 0.5
    # fire settings are sticky under K_G changes
    assert p.replace(K_G=9.0).fire.g0 == p.fire.g0


def test_model_params_replace_leaves_alpha_to_the_fire_type():
    p = region_preset(1).params
    with pytest.raises(ParameterError, match="alpha"):
        p.replace(alpha=2.7)
    assert p.replace(alpha=3).fire == FireIntensityParams(p.fire.g0, 3)
