import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from ricci_forge import (
    CertificationError,
    ConfigurationError,
    DomainError,
    LemmaId,
    lemma_bound_eval,
    select_params,
    threshold_scan,
)
from ricci_forge import paramgen
from ricci_forge.paramgen import (
    LEMMAS,
    SAFETY,
    X_MAX,
    lemma_margin,
    star_margin,
    theta_boundary_values,
)
from ricci_forge.verify import CHECK_TABLE

CONSTS = {"R0": 0.1, "kappa": 4.0, "zeta": 4.5}

mpmath.mp.dps = 50


def _mp_sides(lemma, x, R0, kappa, zeta):
    x = mpmath.mpf(x)
    R0, kappa, zeta = mpmath.mpf(R0), mpmath.mpf(kappa), mpmath.mpf(zeta)
    inner = x**2 / kappa + x**4 / zeta
    if lemma is LemmaId.L2_2:
        return mpmath.tan(inner) / mpmath.tan(x**2 / kappa), 1 + mpmath.tan(x) ** 2
    if lemma is LemmaId.L2_3:
        return mpmath.sin(x + x**4 / zeta) / mpmath.tan(x), mpmath.mpf(1)
    if lemma is LemmaId.L2_4:
        return x**2 / 2 + mpmath.tan(x**2 / kappa) ** 2, mpmath.tan(x) ** 2
    if lemma is LemmaId.L2_5:
        return (R0 / zeta) / (1 - x**3 * R0 / zeta) ** 2, mpmath.tan(inner) / x**2
    if lemma is LemmaId.L2_6i:
        return R0 * mpmath.sin(inner), (x / 2) * mpmath.sin(2 * x / kappa)
    if lemma is LemmaId.L2_6ii:
        return R0 * mpmath.cos(inner), mpmath.cos(2 * x / kappa)
    lhs = ((x / 2) * mpmath.sin(2 * x / kappa) - R0 * mpmath.sin(inner)) / (x**2 / kappa)
    return lhs, mpmath.cos(2 * x / kappa) - R0 * mpmath.cos(inner)


@pytest.mark.parametrize("lemma", list(LemmaId))
@pytest.mark.parametrize("x", [1e-4, 1e-2, 0.05, 0.3])
def test_lemma_sides_match_extended_precision(lemma, x):
    lhs, rhs = lemma_bound_eval(lemma, x, CONSTS)
    mp_lhs, mp_rhs = _mp_sides(lemma, x, **CONSTS)
    assert lhs == pytest.approx(float(mp_lhs), rel=1e-12)
    assert rhs == pytest.approx(float(mp_rhs), rel=1e-12)


def test_sine_ratio_bound_near_zero_from_below():
    # the left side tends to 1 from below as x -> 0+
    lhs, rhs = lemma_bound_eval(LemmaId.L2_3, 1e-6, {"zeta": 4.5})
    assert rhs == 1.0
    assert 0.999999 < lhs < 1.0
    mp_lhs, _ = _mp_sides(LemmaId.L2_3, 1e-6, **CONSTS)
    assert lhs == pytest.approx(float(mp_lhs), rel=1e-12)


def test_cosine_bound_near_zero_endpoint():
    # at the left endpoint the two sides approach R0*cos(0) and cos(0)
    lhs, rhs = lemma_bound_eval(LemmaId.L2_6ii, 1e-12, CONSTS)
    assert lhs == pytest.approx(0.1, abs=1e-10)
    assert rhs == pytest.approx(1.0, abs=1e-10)


def test_tan_over_x_squared_limits():
    # left side tends to R0/zeta, right side to 1/kappa
    lhs, rhs = lemma_bound_eval(LemmaId.L2_5, 1e-8, CONSTS)
    assert lhs == pytest.approx(0.1 / 4.5, rel=1e-8)
    assert rhs == pytest.approx(0.25, rel=1e-8)


def test_lemma_eval_requires_constants():
    with pytest.raises(ConfigurationError):
        lemma_bound_eval(LemmaId.L2_2, 0.1, {"zeta": 4.5})
    with pytest.raises(ConfigurationError):
        lemma_bound_eval(LemmaId.L2_5, 0.1, {"kappa": 4.0, "zeta": 4.5})


@pytest.mark.parametrize("x", [0.0, -0.1, math.pi / 2])
def test_lemma_eval_domain_errors(x):
    with pytest.raises(DomainError):
        lemma_bound_eval(LemmaId.L2_2, x, CONSTS)


@pytest.mark.parametrize("lemma", list(LemmaId))
def test_threshold_scan_aposteriori_rescan(lemma):
    c = threshold_scan(lemma, CONSTS)
    assert 0.0 < c <= SAFETY * X_MAX
    # dense rescan at 10x resolution: strict inequality everywhere below c
    xs = np.linspace(0.0, c, 100_001)[1:]
    assert np.all(lemma_margin(lemma, xs, CONSTS) > 0.0)


def test_threshold_scan_locates_sign_change():
    # unphysical constants force a sign change inside the scan range
    consts = {"R0": 0.99, "kappa": 1.0, "zeta": 4.5}
    c = threshold_scan(LemmaId.L2_6ii, consts)
    assert 0.0 < c < SAFETY * X_MAX
    root = c / SAFETY
    assert float(lemma_margin(LemmaId.L2_6ii, root * (1 - 1e-4), consts)) > 0.0
    assert float(lemma_margin(LemmaId.L2_6ii, root * (1 + 1e-4), consts)) < 0.0
    assert abs(float(lemma_margin(LemmaId.L2_6ii, root, consts))) < 1e-8


def test_threshold_scan_rejects_invalid_ordering():
    # zeta below kappa breaks the tan-ratio bound arbitrarily close to 0
    with pytest.raises(CertificationError) as err:
        threshold_scan(LemmaId.L2_2, {"kappa": 4.0, "zeta": 2.0})
    assert "Lemma 2.2" in str(err.value)


def test_threshold_scans_shared_across_n_and_p():
    paramgen._threshold_scan.cache_clear()
    try:
        first = select_params(3, 1)
        second = select_params(13, 10)
        info = paramgen._threshold_scan.cache_info()
        # seven scans per cascade, all reused by the second (n, p)
        assert (info.misses, info.hits) == (7, 7)
        assert second.c == first.c
        # a mapping that also carries unused constants shares the entry
        extra = {"R0": first.R0, "kappa": first.kappa, "zeta": first.zeta, "r0": 0.01}
        assert threshold_scan(LemmaId.L2_2, extra) == first.c[0]
        assert paramgen._threshold_scan.cache_info().misses == 7
    finally:
        paramgen._threshold_scan.cache_clear()


def _budgets(p, **changes):
    """``(iota, mu0)`` of the cascade ``p`` with some constants replaced."""
    p = replace(p, **changes)
    return paramgen._slope_budgets(p.r0, p.zeta, p.kappa, p.psi)


def test_slope_budgets_cached_per_cascade(params33):
    p = params33
    paramgen._slope_budgets.cache_clear()
    try:
        # every p <= 46 shares the default cascade
        for n, punctures in ((3, 3), (5, 1), (13, 10)):
            assert select_params(n, punctures) == replace(p, n=n, p=punctures)
        assert paramgen._slope_budgets.cache_info()[1:] == (1, 64, 1)
        # the cached floats are those of a fresh evaluation
        fresh = paramgen._slope_budgets.__wrapped__(p.r0, p.zeta, p.kappa, p.psi)
        assert fresh == (p.iota, p.mu0)
        # r0^4/zeta underflows to 0: no slope margin, and no cache entry
        for _ in range(2):
            with pytest.raises(CertificationError) as err:
                paramgen._slope_budgets(1e-80, 4.5, 4.0, 1e-90)
            assert err.value.clause == "Lemma 2.11"
        assert paramgen._slope_budgets.cache_info().currsize == 1
    finally:
        paramgen._slope_budgets.cache_clear()


def test_lemma_catalogue_feeds_check_table_and_cascade(params33):
    anchors = {name: anchor for name, anchor, _ in CHECK_TABLE}
    for lemma in LEMMAS.values():
        assert anchors[lemma.check] == lemma.anchor
    assert sorted({lemma.c for lemma in LEMMAS.values()}) == [1, 2, 3, 4, 5]
    assert list(LEMMAS) == list(LemmaId)
    # each c entry is the least threshold of the lemmas bounding it
    p = params33
    consts = {"R0": p.R0, "kappa": p.kappa, "zeta": p.zeta}
    for k in range(1, 6):
        assert p.c[k - 1] == min(threshold_scan(lemma_id, consts)
                                 for lemma_id, lemma in LEMMAS.items()
                                 if lemma.c == k)


def test_compute_iota_positive_and_matches_dense_rescan(params33):
    p = params33
    iota, _ = _budgets(p)
    assert iota > 0.0
    ts = np.linspace(p.t_cut, p.r0, 100_001)
    dense = SAFETY * float(np.min(1.0 - np.tan(ts) / np.tan(ts + p.shift)))
    assert iota == pytest.approx(dense, rel=1e-6)
    # right endpoint value is itself positive
    assert 1.0 - math.tan(p.r0) / math.tan(p.r0 + p.shift) > 0.0


def test_compute_iota_tiny_radius():
    iota, mu0 = paramgen._slope_budgets(1e-4, 4.5, 4.0, 1e-4**2 / 8.0)
    assert iota > 0.0 and mu0 > 0.0


def test_compute_iota_shrinks_as_zeta_grows(params33):
    small, _ = _budgets(params33, zeta=params33.zeta * 100)
    base, _ = _budgets(params33)
    assert small < base


def test_compute_mu0_aposteriori(params33):
    p = params33
    _, mu0 = _budgets(p)
    assert 0.0 < mu0 < p.psi
    assert mu0 * math.tan(p.r0) < p.iota
    # all four admissibility bounds hold at mu0 on a dense grid
    ts = np.linspace(p.t_cut, p.r0, 50_001)
    cot = 1.0 / np.tan(ts)
    cot_s = 1.0 / np.tan(ts + p.shift)
    cot_r0_sq = 1.0 / math.tan(p.r0) ** 2
    assert np.all(mu0 < (cot - cot_s) / (1.0 + cot))
    numer = cot_s * (1.0 + cot_r0_sq) * np.tan(ts) - cot_r0_sq
    assert np.all(mu0 < numer / (math.tan(p.r0) * (1.0 + cot_r0_sq)))


def test_mu0_fourth_bound_reduces_to_tan_ratio_inequality(params33):
    # positivity of the fourth bound's numerator at the inner cut is the
    # same statement as the tan-ratio inequality evaluated at x = r0
    p = params33
    cot_r0_sq = 1.0 / math.tan(p.r0) ** 2
    b = p.t_cut
    numer = (1.0 / math.tan(b + p.shift)) * (1.0 + cot_r0_sq) * math.tan(b) - cot_r0_sq
    ratio_form = math.tan(b + p.shift) / math.tan(b) < 1.0 + math.tan(p.r0) ** 2
    assert (numer > 0.0) == ratio_form
    lhs, rhs = lemma_bound_eval(LemmaId.L2_2, p.r0,
                                {"kappa": p.kappa, "zeta": p.zeta})
    assert (lhs < rhs) == (numer > 0.0)
    assert numer > 0.0


def test_select_params_defaults(params33):
    p = params33
    assert p.n == 3 and p.p == 3
    assert p.R0 == 0.1
    assert p.kappa > 2.0 / math.sqrt(3.0 * p.R0)
    assert p.kappa < p.zeta < 3.0 * p.R0 * p.kappa**3 / 4.0
    assert p.Lambda > 1.0 / p.R0
    assert p.r0 < min(p.R0, math.pi / (2.0 * (1.0 + p.Lambda)), *p.c)
    assert p.r0 < math.pi / p.p
    assert 0.0 < p.psi < p.t_cut
    assert star_margin(p.R0, p.kappa, p.zeta, p.r0, p.psi) > 0.0
    assert 0.0 < p.mu0 < p.psi
    assert p.mu0 * math.tan(p.r0) < p.iota
    assert 0.0 < p.mu < p.mu0
    assert p.mu == p.mu0 / 2.0


def test_select_params_deterministic():
    a = select_params(3, 3)
    b = select_params(3, 3)
    assert a == b
    assert a.as_dict() == b.as_dict()


def test_lemma_margins_positive_on_r0_grid(params33):
    p = params33
    consts = {"R0": p.R0, "kappa": p.kappa, "zeta": p.zeta}
    xs = np.linspace(0.0, p.r0, 10_001)[1:]
    for lemma in LemmaId:
        assert np.all(lemma_margin(lemma, xs, consts) > 0.0), lemma


def test_bridge_boundary_data_negative(params33):
    p = params33
    theta_b, dtheta_b = theta_boundary_values(p.R0, p.kappa, p.zeta, p.r0)
    assert theta_b < 0.0
    assert dtheta_b < 0.0


def test_star_inequality_as_written(params33):
    p = params33
    b = p.t_cut
    lhs = math.cos(2.0 * p.r0 / p.kappa) - p.R0 * math.cos(b + p.shift)
    rhs = ((p.r0 / 2.0) * math.sin(2.0 * p.r0 / p.kappa)
           - p.R0 * math.sin(b + p.shift)) / (b - p.psi)
    assert lhs > rhs


def test_select_params_rejects_zeta_equal_kappa():
    kappa = 1.1 * 2.0 / math.sqrt(3.0 * 0.1)
    with pytest.raises(ConfigurationError) as err:
        select_params(3, 1, {"zeta": kappa})
    assert "2.1(c)" in str(err.value)


def test_select_params_rejects_r0_above_threshold():
    with pytest.raises(ConfigurationError) as err:
        select_params(3, 1, {"r0": 0.5})
    assert "2.8" in str(err.value)


def test_select_params_rejects_unknown_override():
    with pytest.raises(ConfigurationError) as err:
        select_params(3, 1, {"nonsense": 1.0})
    assert "r0" in str(err.value)  # valid names are listed


def test_select_params_rejects_bad_dimensions():
    with pytest.raises(ConfigurationError):
        select_params(2, 1)
    with pytest.raises(ConfigurationError):
        select_params(3, 0)


def test_select_params_monotone_in_p():
    r0s = [select_params(3, p).r0 for p in (1, 3, 45, 46, 60, 200)]
    assert all(a >= b for a, b in zip(r0s, r0s[1:]))
    # once pi/p binds, r0 tracks it
    assert select_params(3, 200).r0 == pytest.approx(0.9 * math.pi / 200, rel=1e-12)


def test_select_params_large_p_small_radius():
    p = select_params(7, 100)
    assert p.r0 < math.pi / 100
