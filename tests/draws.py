"""Seeded random parameter draws shared across test modules."""

from __future__ import annotations

import numpy as np

from savanna import LITERATURE_RANGES, ModelParams, region_preset, validate


def draw_region_params(rng: np.random.Generator, region: int,
                       interval_only: bool = True,
                       sigma_ns_nonneg: bool = False) -> ModelParams:
    """One random parameter set inside a region's declared ranges.

    ``interval_only`` keeps point-valued parameters (mu_S, omega_S, eta_S,
    eta_G, mu_G) at their preset defaults; otherwise they are drawn from the
    literature spans.
    """
    preset = region_preset(region)
    kwargs = {}
    for key, (lo, hi) in preset.ranges.items():
        kwargs[key] = float(rng.uniform(lo, hi))
    if not interval_only:
        for key, (lo, hi) in LITERATURE_RANGES.items():
            hi_eff = min(hi, 0.95) if key == "eta_G" else hi
            kwargs[key] = float(rng.uniform(lo, hi_eff))
    if sigma_ns_nonneg:
        if region == 1:
            kwargs["sigma_NS"] = 0.0
        elif region == 2:
            kwargs["sigma_NS"] = float(rng.uniform(0.0123, 0.0412))
        # region 3's whole range is already nonnegative
    p = preset.params.replace(**kwargs)
    assert validate(p).ok
    return p


def draw_valid_params(rng: np.random.Generator, require_forest: bool = False,
                      require_grassland: bool = False) -> ModelParams:
    """Region-based draw with literature spans for the point-valued fields,
    optionally filtered on the existence thresholds."""
    from savanna import compute_thresholds

    while True:
        region = int(rng.integers(1, 4))
        p = draw_region_params(rng, region, interval_only=False)
        rep = compute_thresholds(p)
        if require_forest and not rep.forest_exists:
            continue
        if require_grassland and not rep.grassland_exists:
            continue
        return p


def draw_state_in_omega(rng: np.random.Generator, p: ModelParams):
    from savanna import VegState

    u = rng.uniform(0.0, 1.0, size=3)
    t_s = u[0] * p.K_T
    t_ns = u[1] * (p.K_T - t_s)
    return VegState(float(t_s), float(t_ns), float(u[2] * p.K_G))


# floquet_orbits seed/group/command 1/84/0, 2/38/1 and 3/53/0, as (region,
# parameters): the 16-step period map has a fixed point off the faces that
# only the clamp of the pre-fire state at 0 makes (RK4's unclamped pre-fire
# T_NS is -1.49, -3.99 and -0.064 there); the 64-step orbit is the
# grassland orbit
CLAMP_CASES = {
    "1/84/0": (1, dict(
        tau=19.016168293048672, K_T=30.0, K_G=4.387645284923421,
        gamma_G=1.3435041846771612, gamma_S=0.4786760641605555,
        gamma_NS=0.2607329658768129, mu_NS=0.22714165178992113,
        sigma_G=0.9661117291040304, sigma_NS=-0.015616085756618969,
        mu_S=0.008835751478313902, omega_S=0.19736893703638858,
        mu_G=0.4570404256759141, eta_S=0.11234928848502058,
        eta_G=0.6983326866237045)),
    "2/38/1": (2, dict(
        tau=4.737202200239196, K_T=86.50269113388232, K_G=7.261206652306837,
        gamma_G=3.195368881447244, gamma_S=0.5810415879313708,
        gamma_NS=1.9749512469462474, mu_NS=0.08104397560193538,
        sigma_G=1.4790993186965213, sigma_NS=-0.02460285824180222,
        mu_S=0.11435460525426329, omega_S=0.1455428398481229,
        mu_G=0.11929288858839153, eta_S=0.09730457504428834,
        eta_G=0.22082598585539115)),
    "3/53/0": (1, dict(
        tau=14.54053826130488, K_T=30.0, K_G=4.493328841483766,
        gamma_G=1.284549920783062, gamma_S=0.3401767713510956,
        gamma_NS=0.47409581098237874, mu_NS=0.12135370651203235,
        sigma_G=0.8261326386655197, sigma_NS=-0.020463529389475845,
        mu_S=0.289913026333972, omega_S=0.16549950340066766,
        mu_G=0.24097180969972376, eta_S=0.5833007109203829,
        eta_G=0.23461071696743546)),
}


# floquet_orbits seed/group/command 10/77/1, as (region, parameters): an
# interior orbit with rho_tg 0.998 at 64 steps per period, so a residual
# below 1e-10 can leave a point about 500 residuals from the fixed point
ANCHOR_CASE = (2, dict(
    tau=3.5464802491996688, K_T=87.35524162827708, K_G=7.009614418210316,
    gamma_G=3.1424606944400137, gamma_S=0.472599907556714,
    gamma_NS=2.38636555707415, mu_NS=0.08862735632485685,
    sigma_G=0.623048940659165, sigma_NS=0.029943954947100615,
    mu_S=0.04019793562542355, omega_S=0.14334875048916118,
    mu_G=0.08187087550474255, eta_S=0.5861448434173205,
    eta_G=0.4934110528968719))
