import math

import numpy as np
import pytest

from ricci_forge import (
    DomainError,
    curvature_grid,
    intrinsic_sectional,
    principal_curvatures,
    ricci_components,
)

R0_TEST = 0.06


# ---------------------------------------------------------------------------
# round-sphere degeneration: every quantity has a known constant value
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 7, 13])
def test_round_sphere_ricci_constant(round_profile, n):
    # below t ~ 0.01 the generic (1 - R'^2) evaluation loses the identity to
    # double-precision cancellation, hence the grid start
    ts = np.linspace(0.01, math.pi / 2, 10_000)
    tt, xx, ss = ricci_components(round_profile, n, ts)
    for comp in (tt, xx, ss):
        assert np.max(np.abs(comp - (n - 1))) < 1e-10


def test_round_sphere_principal_curvatures_constant(round_profile):
    cot = 1.0 / math.tan(R0_TEST)
    ts = np.linspace(0.0, R0_TEST, 2_000)
    pc_c, pc_s = principal_curvatures(round_profile, R0_TEST, ts)
    assert np.max(np.abs(pc_c + cot)) == 0.0
    assert np.max(np.abs(pc_s + cot)) < 1e-10


def test_round_sphere_intrinsic_constant(round_profile):
    cot2 = 1.0 / math.tan(R0_TEST) ** 2
    ts = np.concatenate([[0.0], np.linspace(0.01, R0_TEST, 2_000)])
    ki_ys, ki_ss = intrinsic_sectional(round_profile, R0_TEST, ts)
    assert np.max(np.abs(ki_ys - (1.0 + cot2))) < 1e-10
    assert np.max(np.abs(ki_ss - (1.0 + cot2))) < 1e-10


# ---------------------------------------------------------------------------
# constructed profile
# ---------------------------------------------------------------------------

def test_ricci_reduces_to_round_value_beyond_taper(params33, profile33):
    # where the taper has died out the profile is exactly R0*sin(t), whose
    # meridian Ricci value equals n - 1
    p = params33
    t = 0.5 * (p.r0 * (1.0 + p.Lambda) + math.pi / 2)
    for n in (3, 8):
        tt, _, _ = ricci_components(profile33, n, t)
        assert tt == pytest.approx(n - 1, abs=1e-12)


def test_ricci_circle_component_at_least_one(params33, profile33):
    ts = np.linspace(1e-6, math.pi / 2, 10_000)
    _, xx, _ = ricci_components(profile33, 3, ts)
    assert np.min(xx) >= 1.0


def test_ricci_positive_all_components(params33, profile33):
    ts = np.linspace(1e-6, math.pi / 2, 10_000)
    tt, xx, ss = ricci_components(profile33, 5, ts)
    assert min(np.min(tt), np.min(xx), np.min(ss)) > 0.0


def test_principal_curvature_bound_and_strictness(params33, profile33):
    p = params33
    cot = 1.0 / math.tan(p.r0)
    ts = np.linspace(0.0, p.r0, 5_000)
    _, pc_s = principal_curvatures(profile33, p.r0, ts)
    assert np.min(pc_s + cot) >= 0.0
    # strictly above the bound at the outer rim
    _, pc_end = principal_curvatures(profile33, p.r0, p.r0)
    assert pc_end > -cot
    # pole value is the limit
    _, pc_pole = principal_curvatures(profile33, p.r0, 0.0)
    assert pc_pole == -cot


def test_intrinsic_bounds_on_grid(params33, profile33):
    p = params33
    cot2 = 1.0 / math.tan(p.r0) ** 2
    ts = np.linspace(0.0, p.r0, 5_000)
    ki_ys, ki_ss = intrinsic_sectional(profile33, p.r0, ts)
    assert np.min(ki_ys - cot2) > 0.0
    assert np.min(ki_ss - cot2) > 0.0
    assert np.min(ki_ss) >= 1.0 + cot2 - 1e-9


def test_intrinsic_pole_limits_match_axisymmetric_expansion(params33, profile33):
    # near the pole of the boundary sphere B(s) ~ s - a*s^3 with
    # 6a = cot^2(r0) + 4/r0^2, so both sectional curvatures tend to that value
    p = params33
    expected = 1.0 / math.tan(p.r0) ** 2 + 4.0 / p.r0**2
    ki_ys, ki_ss = intrinsic_sectional(profile33, p.r0, 0.0)
    assert ki_ys == pytest.approx(expected, rel=1e-12)
    assert ki_ss == pytest.approx(expected, rel=1e-12)
    # the closed forms approach the same value along t -> 0 through the
    # small-sphere piece (below psi; past it the bridge curvature takes over);
    # the sphere-sphere form loses digits to the 1 - R'^2 cancellation there
    ki_ys_near, ki_ss_near = intrinsic_sectional(profile33, p.r0, 1e-9)
    assert ki_ys_near == pytest.approx(expected, rel=1e-6)
    _, ki_ss_near = intrinsic_sectional(profile33, p.r0, 2e-8)
    assert ki_ss_near == pytest.approx(expected, rel=1e-3)


def test_rescaling_conclusions(params33, profile33):
    # rescaling the metric by cot^2(r0) divides sectional curvatures by
    # cot^2(r0) and principal curvatures by cot(r0)
    p = params33
    cot = 1.0 / math.tan(p.r0)
    ts = np.linspace(0.0, p.r0, 2_000)
    _, pc_s = principal_curvatures(profile33, p.r0, ts)
    ki_ys, ki_ss = intrinsic_sectional(profile33, p.r0, ts)
    assert np.min(pc_s / cot) >= -1.0
    assert np.min(ki_ys / cot**2) > 1.0
    assert np.min(ki_ss / cot**2) > 1.0


def test_curvature_grid_single_point(profile33, params33):
    res = curvature_grid(profile33, 3, params33.r0, np.array([math.pi / 2]))
    assert res.t.size == 1
    assert math.isfinite(res.ric_tt[0]) and math.isfinite(res.ric_ss[0])
    assert math.isnan(res.pc_sphere[0])  # beyond the boundary ball


def test_curvature_grid_minima_and_samples(profile33, params33):
    ts = np.linspace(1e-6, math.pi / 2, 500)
    res = curvature_grid(profile33, 3, params33.r0, ts)
    assert min(np.min(res.ric_tt), np.min(res.ric_xx), np.min(res.ric_ss)) > 0.0
    assert res.t.size == 500
    assert res.t[0] == pytest.approx(1e-6)


def test_curvature_domain_errors(profile33, params33):
    with pytest.raises(DomainError):
        ricci_components(profile33, 3, 2.0)
    with pytest.raises(DomainError):
        ricci_components(profile33, 3, -0.1)
    with pytest.raises(DomainError):
        principal_curvatures(profile33, params33.r0, params33.r0 * 1.5)
    with pytest.raises(DomainError):
        intrinsic_sectional(profile33, params33.r0, params33.r0 + 0.01)
