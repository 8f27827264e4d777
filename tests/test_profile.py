import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from ricci_forge import (
    CertificationError,
    ConfigurationError,
    DomainError,
    build_gamma,
    run_verification,
    verify,
)
from ricci_forge.bumps import step_derivative_sups, step_jet
from ricci_forge.profile import BridgeTheta, ProfileC1, validate_c1, validate_smooth

mpmath.mp.dps = 40

T_MAX = math.pi / 2


# ---------------------------------------------------------------------------
# taper gamma
# ---------------------------------------------------------------------------

def test_gamma_plateau_values(gamma33):
    g = gamma33
    assert g.jet(-5.0)[0] == 1.0
    assert g.jet(0.0)[0] == 1.0
    assert g.jet(g.Lambda)[0] == 0.0
    assert g.jet(g.Lambda + 1.0)[0] == 0.0
    assert g.jet(-2.0)[1] == 0.0 and g.jet(g.Lambda + 0.5)[2] == 0.0


def test_gamma_support_length_exceeds_inverse_squash(params33, gamma33):
    assert gamma33.Lambda > 1.0 / params33.R0


def test_gamma_derivative_bounds_on_grid(params33, gamma33):
    xs = np.linspace(-1.0, gamma33.Lambda + 1.0, 100_001)
    _, d1, d2 = gamma33.jet(xs)
    assert np.max(np.abs(d1)) < params33.R0
    assert np.max(np.abs(d2)) < params33.R0
    # monotone non-increasing
    assert np.all(d1 <= 0.0)


def test_gamma_derivatives_match_finite_differences(gamma33):
    # errors measured against the derivative sups; the derivatives themselves
    # cross zero, where a pointwise relative error is meaningless
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.05, gamma33.Lambda - 0.05, 400)
    (s1, _), (s2, _) = gamma33.derivative_sups()
    g0, g1, g2 = gamma33.jet(xs)

    def g(x):
        return gamma33.jet(x)[0]

    h = 1e-6
    fd1 = (g(xs + h) - g(xs - h)) / (2 * h)
    assert np.max(np.abs(fd1 - g1)) < 1e-5 * s1
    h = 1e-3
    fd2 = (g(xs + h) - 2 * g0 + g(xs - h)) / h**2
    assert np.max(np.abs(fd2 - g2)) < 1e-5 * s2


def test_build_gamma_rejects_small_support():
    with pytest.raises(ConfigurationError) as err:
        build_gamma(0.1, Lambda=5.0)
    assert "2.7" in str(err.value)


def test_build_gamma_rejects_steep_taper():
    # Lambda = 15 clears Lambda > 1/R0, but sup|gamma'| = 2/15 exceeds R0
    with pytest.raises(ConfigurationError) as err:
        build_gamma(0.1, Lambda=15.0)
    assert err.value.clause == "Definition 2.7"
    assert "taper derivative bounds violated" in str(err.value)


def _unit_step_mp(u):
    return 1 / (1 + mpmath.exp(1 / (1 - u) - 1 / u))


def _mp_sup_abs_derivative(order):
    """sup |S^(order)| on (0, 1): a coarse scan brackets the peak, then the
    next derivative's root locates it in extended precision."""
    us = [mpmath.mpf(k) / 200 for k in range(1, 200)]
    k = max(range(1, len(us) - 1),
            key=lambda i: abs(mpmath.diff(_unit_step_mp, us[i], order)))
    u = mpmath.findroot(lambda v: mpmath.diff(_unit_step_mp, v, order + 1),
                        (us[k - 1], us[k + 1]), solver="anderson")
    return abs(mpmath.diff(_unit_step_mp, u, order))


@pytest.mark.parametrize("u", [0.05, 0.2, 0.37, 0.61, 0.85])
def test_step_jet_matches_extended_precision(u):
    for got, k in zip(step_jet(u), range(3)):
        assert type(got) is float
        assert got == pytest.approx(float(mpmath.diff(_unit_step_mp, mpmath.mpf(u), k)),
                                    rel=1e-12)


def test_step_jet_limits_at_tiny_u():
    """Down to the smallest subnormal the jet stays finite, and where
    exp(-1/u) underflows it is the limit (1, -0, -0); the suite's
    RuntimeWarning filter turns any 0/0 or overflow into a failure."""
    us = np.array([10.0 ** -k for k in range(1, 324)] + [5e-324])
    s0, s1, s2 = step_jet(us)
    assert np.all(np.isfinite(s1)) and np.all(np.isfinite(s2))
    assert np.all((s0 > 0.5) & (s0 <= 1.0) & (s1 <= 0.0))
    flat = us <= 1e-3  # exp(-1/u) underflows below about 1/745
    assert np.all(s0[flat] == 1.0)
    assert np.all((s1[flat] == 0.0) & np.signbit(s1[flat]))
    assert np.all((s2[flat] == 0.0) & np.signbit(s2[flat]))
    for u, a, b, c in zip(us, s0, s1, s2):
        assert step_jet(float(u)) == (a, b, c)


def test_step_derivative_sups_match_extended_precision():
    (s1, _), (s2, _) = step_derivative_sups()
    assert s1 == pytest.approx(float(_mp_sup_abs_derivative(1)), rel=1e-9)
    assert s2 == pytest.approx(float(_mp_sup_abs_derivative(2)), rel=1e-9)


def _full_grid_step_sups():
    """The reference scan: one jet of the whole 100,001-point grid, its
    first maximum of each |S^(k)|, then 2,001 points across the bracket."""
    g = np.linspace(0.0, 1.0, 100_001)
    coarse = step_jet(g)
    sups = []
    for k in (1, 2):
        i = int(np.argmax(np.abs(coarse[k])))
        fine = np.linspace(g[i - 1], g[i + 1], 2_001)
        vals = np.abs(step_jet(fine)[k])
        j = int(np.argmax(vals))
        sups.append((float(vals[j]), float(fine[j])))
    return tuple(sups)


def test_step_derivative_sups_equal_full_grid_scan():
    def bits(sups):
        return [x.hex() for pair in sups for x in pair]

    assert bits(step_derivative_sups.__wrapped__()) == bits(_full_grid_step_sups())


def test_step_derivative_sups_peak_memory():
    # a jet of the whole 100,001-point grid holds about 14.5 MB of temporaries
    tracemalloc.start()
    try:
        step_derivative_sups.__wrapped__()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("Lambda", [None, 30.0, 100.0], ids=["default", "30", "100"])
def test_taper_derivative_sups_match_dense_scan(Lambda):
    gamma = build_gamma(0.1, Lambda)
    xs = np.linspace(0.0, gamma.Lambda, 200_001)
    step = gamma.Lambda * 1e-5  # the unit-step grid spacing, in x
    for (sup, at), d in zip(gamma.derivative_sups(), gamma.jet(xs)[1:]):
        d = np.abs(d)
        i = int(np.argmax(d))
        assert sup == pytest.approx(d[i], rel=1e-9)
        # |gamma''| peaks twice, symmetrically about Lambda/2, at equal values
        assert min(abs(at - xs[i]), abs(gamma.Lambda - at - xs[i])) <= step


def test_build_gamma_rejects_bad_squash():
    with pytest.raises(ConfigurationError):
        build_gamma(0.5)


# ---------------------------------------------------------------------------
# bridge
# ---------------------------------------------------------------------------

def test_bridge_left_boundary_exact(bridge33):
    th0, th1, _ = bridge33.jet(bridge33.psi)
    assert th0 == 0.0
    assert th1 == 0.0


def test_bridge_right_boundary_values(bridge33):
    br = bridge33
    assert br.theta_b < 0.0 and br.dtheta_b < 0.0
    assert br.q > 0.0
    th0, th1, _ = br.jet(br.b)
    assert abs(th0 - br.theta_b) < 1e-10
    assert abs(th1 - br.dtheta_b) < 1e-14


def test_bridge_value_matches_independent_quadrature(bridge33):
    # integrate the slope numerically in extended precision
    br = bridge33
    q = mpmath.mpf(br.q)
    integral = mpmath.quad(lambda u: u**q, [0, 1])
    theta_b = br.dtheta_b * (br.b - br.psi) * integral
    assert abs(float(theta_b) - br.theta_b) < 1e-10


def test_bridge_concave_and_nonpositive(bridge33):
    br = bridge33
    ts = np.linspace(br.psi, br.b, 10_001)[1:-1]
    th0, th1, th2 = br.jet(ts)
    assert np.all(th0 <= 0.0)
    assert np.all(th1 <= 0.0)
    assert np.all(th2 <= 0.0)


def test_bridge_requires_chord_slope_inequality(params33):
    # a junction candidate far too large makes the exponent negative
    from ricci_forge import build_bridge_theta
    import dataclasses

    bad = dataclasses.replace(params33, psi=0.9 * params33.t_cut)
    with pytest.raises(CertificationError) as err:
        build_bridge_theta(bad)
    assert "2.9" in err.value.clause


# ---------------------------------------------------------------------------
# C1 profile
# ---------------------------------------------------------------------------

def test_profile_pole_values(profile33):
    assert profile33.jet(0.0) == (0.0, 1.0, 0.0)


def test_profile_second_derivative_at_pole_is_positive_zero(profile33):
    # -0.0 == 0.0, but the CSV dumps would print it as -0
    assert math.copysign(1.0, profile33.jet(0.0)[2]) == 1.0
    assert math.copysign(1.0, profile33.jet(np.zeros(2))[2][0]) == 1.0


def test_profile_outer_end_equals_squash(params33, profile33):
    # the taper is exhausted before pi/2, so the value there is exactly R0
    assert profile33.jet(T_MAX)[0] == params33.R0


def test_profile_piece_formulas(params33, gamma33, profile33):
    p = params33
    ts = np.linspace(0.0, p.psi, 50)
    assert np.array_equal(profile33.jet(ts)[0], (p.r0 / 2) * np.sin(2 * ts / p.r0))
    ts = np.linspace(p.t_cut, T_MAX, 50)
    x = ts / p.r0 - 1.0
    expected = p.R0 * np.sin(ts + p.shift * gamma33.jet(x)[0])
    assert np.array_equal(profile33.jet(ts)[0], expected)


def test_profile_jet_is_the_owning_piece_jet(params33, profile33):
    # psi belongs to the inner piece and b to the outer one; one ulp past
    # either junction belongs to the bridge on the inside
    psi, b = params33.psi, params33.t_cut
    down, up = np.nextafter([psi, b], 0.0), np.nextafter([psi, b], T_MAX)
    owned = ((profile33.inner_jet, [down[0], psi]),
             (profile33.bridge_jet, [up[0], down[1]]),
             (profile33.outer_jet, [b, up[1]]))
    for piece, ts in owned:
        ts = np.array(ts)
        expected = piece(ts)
        for k, got in enumerate(profile33.jet(ts)):
            assert got.tobytes() == expected[k].tobytes()
        for i, t in enumerate(ts):
            scalar = profile33.jet(float(t))
            assert all(type(v) is float for v in scalar)
            assert scalar == tuple(float(piece(ts[i:i + 1])[k][0]) for k in range(3))


def test_profile_c1_joins(profile33):
    gaps = profile33.junction_gaps()
    assert max(gaps.values()) < 1e-9


def test_profile_bridge_concavity_ratio(params33, profile33):
    p = params33
    ts = np.linspace(p.psi, p.t_cut, 10_001)[1:-1]
    R, _, R2 = profile33.bridge_jet(ts)
    assert np.min(-R2 / R) >= 4.0 / p.r0**2
    R, _, R2 = profile33.bridge_jet(0.5 * (p.psi + p.t_cut))
    assert -R2 / R >= 4.0 / p.r0**2


def test_profile_outer_concave(params33, profile33):
    ts = np.linspace(params33.t_cut, T_MAX, 10_001)[1:]
    assert np.max(profile33.outer_jet(ts)[2]) < 0.0


def test_profile_positive(profile33):
    ts = np.linspace(0.0, T_MAX, 10_001)[1:]
    assert np.min(profile33.jet(ts)[0]) > 0.0


def test_validate_c1_margins_positive(profile33):
    margins = validate_c1(profile33, points=5_000)
    assert all(m > 0.0 for m, _ in margins.values())


def test_profile_domain_error(profile33):
    with pytest.raises(DomainError):
        profile33.jet(2.0)
    with pytest.raises(DomainError):
        profile33.jet(-0.5)


def _fd_consistency(profile, lo, hi, seed):
    rng = np.random.default_rng(seed)
    ts = rng.uniform(lo, hi, 1_000)
    h1, h2 = 1e-6, 1e-4
    R, R1, R2 = profile.jet(ts)

    def val(t):
        return profile.jet(t)[0]

    fd1 = (val(ts + h1) - val(ts - h1)) / (2 * h1)
    rel1 = np.abs(fd1 - R1) / np.maximum(np.abs(R1), 1e-8)
    fd2 = (val(ts + h2) - 2 * R + val(ts - h2)) / h2**2
    rel2 = np.abs(fd2 - R2) / np.maximum(np.abs(R2), 1e-8)
    return float(np.max(rel1)), float(np.max(rel2))


def test_profile_c1_derivative_consistency(profile33):
    # random points away from the junction set
    r1, r2 = _fd_consistency(profile33, 2e-3, T_MAX - 2e-4, seed=11)
    assert r1 < 1e-5 and r2 < 1e-5


# ---------------------------------------------------------------------------
# smoothing clauses, certified on the C1 profile
# ---------------------------------------------------------------------------

def test_smooth_slope_ratio_limit_at_pole(profile33):
    t = 1e-8
    R, R1, _ = profile33.jet(t)
    assert abs((R1 / R) * math.tan(t) - 1.0) < 1e-10


def test_smooth_ratio_band_on_outer_run(params33, profile33):
    # max of (R''/R + 1) over the outer run stays below mu
    p = params33
    ts = np.linspace(p.t_cut, p.r0, 20_001)
    R, _, R2 = profile33.jet(ts)
    worst = np.max(R2 / R + 1.0)
    assert worst < p.mu


def test_smooth_clause_margins(params33, profile33):
    margins = validate_smooth(profile33, params33.mu, points=5_000)
    for name, (margin, _) in margins.items():
        if name == "profile_le_sin":
            assert margin >= 0.0
        else:
            assert margin > 0.0, name
    assert margins["lemma_2_13_a"][0] > 1.0
    # zero correction, zero drift: the margin is the full budget at the
    # first point of the inner window
    assert margins["lemma_2_13_c"][0] == params33.mu
    assert params33.psi - params33.mu < margins["lemma_2_13_c"][1] < params33.psi


def test_smooth_ratio_margins_keep_tiny_mu(params33, profile33):
    # -R''/R = 1 exactly on the untapered outer piece, so both ratio
    # clauses bind there at the whole budget mu, however small mu is
    for mu in (params33.mu, 1e-300):
        margins = validate_smooth(profile33, mu, points=2_000)
        assert margins["lemma_2_13_b"][0] == mu
        assert margins["corollary_2_14_ratio"][0] == mu


class _QuarterCurvature(ProfileC1):
    """The default profile with R'' scaled by 1/4: -R''/R = 1/r0^2 on the
    inner piece, below the 2/r0^2 that Lemma 2.13(a) asks for."""

    def jet(self, t):
        R, R1, R2 = super().jet(t)
        return R, R1, 0.25 * R2


@pytest.fixture
def quarter_report(monkeypatch):
    """``run_verification(3, 3)`` with the profile stage building
    ``_QuarterCurvature``; the stage's cache is emptied before and after."""
    verify._profile_stage.cache_clear()
    monkeypatch.setattr(verify, "ProfileC1", _QuarterCurvature)
    yield run_verification(3, 3)
    verify._profile_stage.cache_clear()


def test_smooth_clause_failure_names_worst_clause(params33, quarter_report):
    # validate_smooth only measures; the report names the worst failing clause
    chk = quarter_report.check("lemma_2_13_a")
    assert not chk.passed
    assert chk.margin == pytest.approx(-1.0 / params33.r0**2, rel=1e-9)
    assert chk.cause == (
        "lemma_2_13_a: smoothing clauses fail; worst clause lemma_2_13_a "
        f"with margin {chk.margin!r} at t = {chk.at!r}")
    skip = f"skipped: profile construction failed ({chk.cause})"
    assert quarter_report.check("ricci_tt_positive").cause == skip


def test_lemma_2_15_margin_per_unit_t2_on_both_paths(params33, bridge33, profile33,
                                                      report33, quarter_report):
    # a failing smoothing stage reports the slope bound in the unit of a
    # passing report: per unit t^2
    reported = report33.check("lemma_2_15").margin
    assert validate_smooth(profile33, params33.mu)["lemma_2_15"][0] == reported
    chk = quarter_report.check("lemma_2_15")
    R, R1, _ = _QuarterCurvature(params=params33, bridge=bridge33).jet(chk.at)
    raw = 1.0 - (R1 / R) * math.tan(chk.at)
    assert chk.margin == pytest.approx(raw / chk.at**2, rel=1e-12)
    assert chk.margin == pytest.approx(reported, rel=1e-12)


def test_smooth_concave_everywhere(profile33):
    ts = np.linspace(0.0, T_MAX, 10_001)[1:]
    assert np.max(profile33.jet(ts)[2]) < 0.0


def test_smooth_small_and_monotone_bounds(params33, profile33):
    p = params33
    ts = np.linspace(0.0, p.r0, 10_001)
    vals, d1, _ = profile33.jet(ts)
    assert np.all(np.sin(ts) - vals >= 0.0)
    assert np.all(d1 >= 0.0) and np.all(d1 <= 1.0)
    # squashed bound on the outer region, away from the very top where the
    # shifted sine already passed its maximum
    ts = np.linspace(p.t_cut, T_MAX - p.shift, 10_001)
    assert np.all(p.R0 * np.sin(ts + p.shift) - profile33.jet(ts)[0] >= 0.0)
    ts = np.linspace(p.t_cut, T_MAX, 10_001)
    assert np.all(profile33.jet(ts)[0] <= p.R0)


def test_smooth_strict_slope_bound_outer_half(params33, profile33):
    p = params33
    ts = np.linspace(p.r0 / 2, p.r0, 5_001)
    R, R1, _ = profile33.jet(ts)
    margin = 1.0 - (R1 / R) * np.tan(ts)
    assert np.min(margin) > 0.0


def test_smooth_profile_rejects_bad_mu(profile33, params33):
    with pytest.raises(ConfigurationError) as err:
        validate_smooth(profile33, params33.mu0 * 2.0)
    assert "2.13" in str(err.value)
    with pytest.raises(ConfigurationError):
        validate_smooth(profile33, 0.0)


# ---------------------------------------------------------------------------
# synthetic bridge sanity (construction helper used directly)
# ---------------------------------------------------------------------------

def test_bridge_theta_closed_form_consistency():
    br = BridgeTheta(psi=0.1, b=0.3, theta_b=-0.05, dtheta_b=-0.5, q=1.0)
    # with q = 1 the slope is linear and the value is a parabola
    ts = np.linspace(0.1, 0.3, 101)
    assert np.allclose(br.jet(ts)[1], -0.5 * (ts - 0.1) / 0.2)
    assert br.jet(0.3)[0] == pytest.approx(-0.5 * 0.2 / 2.0)
