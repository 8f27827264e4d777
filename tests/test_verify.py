import json
import math
import random
import sys
import threading

import pytest

from ricci_forge import (
    CHECK_NAMES,
    CertificationError,
    GridSpec,
    gauss_crosscheck,
    report_to_dict,
    report_to_json,
    run_verification,
    verify,
)
from ricci_forge import cli
from ricci_forge.paramgen import _slope_budgets, _threshold_scan
from ricci_forge.profile import validate_smooth
from ricci_forge.verify import CHECK_TABLE, GAUSS_TOL, STRICT_FLOOR
from test_acceptance import NS, PS

SWEEP = tuple((n, p) for n in NS for p in PS)
CSV_CONFIGS = ((3, 1), (13, 10))


def test_default_run_passes(report33):
    assert report33.overall
    assert all(c.passed for c in report33.checks)


def test_check_set_complete_and_ordered(report33):
    assert tuple(c.name for c in report33.checks) == CHECK_NAMES
    assert len(set(CHECK_NAMES)) == len(CHECK_NAMES)


def test_every_check_carries_anchor_and_location(report33):
    for c in report33.checks:
        assert c.anchor
        assert c.margin is not None


def test_reports_deterministic(report33):
    fresh = run_verification(3, 3)
    assert report_to_json(fresh) == report_to_json(report33)


def test_higher_dimension_run(report_cache):
    rep = report_cache(11, 1)
    assert rep.overall
    bm = rep.artifacts["boundary"]
    assert bm.rho_lo == bm.tau ** (9.0 / 10.0)
    assert bm.rho_lo < 0.5


@pytest.mark.parametrize("overrides,clause", [
    ({"zeta": 10.0 * (1.1 * 2.0 / math.sqrt(3.0 * 0.1)) ** 3}, "2.1(c)"),
    ({"Lambda": math.inf}, "2.7"),
    ({"r0": 1e-300}, "2.8"),
    ({"Lambda": 2e154}, "2.7"),
], ids=["zeta", "Lambda_inf", "r0_tiny", "Lambda_huge"])
def test_invalid_override_fails_report_naming_clause(report_cache, overrides, clause):
    rep = report_cache(3, 1, overrides)
    assert not rep.overall
    pi = rep.check("parameter_invariants")
    assert not pi.passed
    assert clause in pi.cause
    assert rep.params is None


def test_skipped_checks_report_cause_not_omission(report_cache):
    rep = report_cache(3, 1, {"zeta": 10.0 * (1.1 * 2.0 / math.sqrt(0.3)) ** 3})
    assert tuple(c.name for c in rep.checks) == CHECK_NAMES
    skip = f"skipped: parameter cascade failed ({rep.check('parameter_invariants').cause})"
    for c in rep.checks[1:]:
        assert not c.passed
        assert c.margin is None
        assert c.cause == skip, c.name


@pytest.mark.parametrize("n, p, overrides, clause, message", [
    (math.nan, 3, None, "Proposition 1.12 (n >= 3)", "n = nan must be an integer >= 3"),
    (math.inf, 3, None, "Proposition 1.12 (n >= 3)", "n = inf must be an integer >= 3"),
    (3, math.inf, None, "Proposition 1.12 (p >= 1)", "p = inf must be an integer >= 1"),
    (3, None, None, "Proposition 1.12 (p >= 1)", "p = None must be an integer >= 1"),
    (3, 3, {"R0": None}, "overrides", "'R0' needs a numeric value, got None"),
    (3, 3, {"R0": "abc"}, "overrides", "'R0' needs a numeric value, got 'abc'"),
], ids=["n_nan", "n_inf", "p_inf", "p_none", "R0_none", "R0_text"])
def test_malformed_input_fails_report_naming_clause(n, p, overrides, clause, message):
    rep = run_verification(n, p, overrides)
    pi = rep.check("parameter_invariants")
    assert not rep.overall and not pi.passed
    assert pi.cause.startswith(f"{clause}: ") and message in pi.cause
    skip = f"skipped: parameter cascade failed ({pi.cause})"
    assert all(c.cause == skip and c.margin is None for c in rep.checks[1:])
    assert json.loads(report_to_json(rep))["params"] is None


# The first three cascade_inputs(801) draws of perfbench/workloads.py.
DRAWS = (
    (9, 2, {"R0": 0.0552567236891138, "kappa": 6.022741319098202,
            "zeta": 8.26770781459589}),
    (7, 9, {"R0": 0.07482134834728418, "kappa": 6.277409295562714,
            "zeta": 7.847210916649709}),
    (13, 5, {"R0": 0.06045298420273381, "kappa": 7.13677585227541,
             "zeta": 11.659543953825452}),
)


@pytest.mark.parametrize("n, p, overrides", [(3, 3, None), (11, 5, None), *DRAWS])
def test_cascade_independent_of_grid(n, p, overrides):
    cascades = {k: run_verification(n, p, overrides,
                                    grid=GridSpec(points=k, lo=0.0, hi=1.0)).params
                for k in (100, 2_000, 10_000, 20_000)}
    assert cascades[10_000] is not None
    assert all(c == cascades[10_000] for c in cascades.values()), cascades


def test_gauss_crosscheck_round_hook(round_profile, params33):
    # both routes are constant for the round profile; the finite-difference
    # route agrees far inside the certification tolerance
    chk = gauss_crosscheck(round_profile, params33)
    assert chk.passed
    assert chk.margin > GAUSS_TOL - 1e-6


def test_gauss_crosscheck_degenerate_grid(profile33, params33):
    chk = gauss_crosscheck(profile33, params33)
    assert chk.passed


def test_report_serialization_schema(report33):
    d = report_to_dict(report33)
    assert list(d) == ["schema", "params", "checks", "overall"]
    assert d["schema"] == "ricci-forge/1"
    assert d["overall"] == "pass"
    assert list(d["params"])[:7] == ["n", "p", "R0", "kappa", "zeta", "Lambda", "r0"]
    for entry in d["checks"]:
        assert list(entry) == ["name", "anchor", "passed", "margin", "at", "cause"]
    # serialization is valid JSON and round-trips
    text = report_to_json(report33)
    assert json.loads(text) == d


def test_failed_report_serializes_null_margins(report_cache):
    rep = report_cache(3, 1, {"zeta": 10.0 * (1.1 * 2.0 / math.sqrt(0.3)) ** 3})
    d = report_to_dict(rep)
    assert d["overall"] == "fail"
    assert d["params"] is None
    skipped = [e for e in d["checks"] if e["name"] != "parameter_invariants"]
    assert all(e["margin"] is None for e in skipped)
    json.loads(report_to_json(rep))


def test_strict_margin_floor(report33):
    strict = {name for name, _, kind in CHECK_TABLE if kind == "strict"}
    for c in report33.checks:
        if c.name in strict:
            assert c.margin > STRICT_FLOOR, c.name


def test_nonneg_checks_allow_zero(report33):
    pi = report33.check("parameter_invariants")
    assert pi.passed and pi.margin == 0.0  # R0 sits exactly at its cap
    cb = report33.check("corollary_2_16_bound")
    assert cb.passed and cb.margin >= 0.0


def test_grid_resolution_respected():
    rep = run_verification(3, 3, grid=GridSpec(points=1_000, lo=0.0, hi=math.pi / 2))
    assert rep.overall
    assert rep.artifacts["t_grid"].size <= 2_001


def test_gridspec_invariants():
    from ricci_forge.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        GridSpec(points=1, lo=0.0, hi=1.0)
    with pytest.raises(ConfigurationError):
        GridSpec(points=10, lo=1.0, hi=1.0)
    spec = GridSpec(points=10, lo=0.0, hi=1.0)
    assert (spec.points, spec.lo, spec.hi) == (10, 0.0, 1.0)


def test_boundary_rho_default_midpoint(report33):
    bm = report33.artifacts["boundary"]
    lo, hi = report33.artifacts["rho"]
    assert bm.rho_default() == 0.5 * (lo + hi)


def test_lemma_2_13_a_margin_is_inner_piece_value(report33):
    # -R''/R = 4/r0^2 on the small-sphere piece, where the clause binds
    r0 = report33.params.r0
    assert report33.check("lemma_2_13_a").margin == pytest.approx(2.0 / r0**2, rel=1e-12)


def test_mu_near_mu0_certifies(report_cache, params33):
    rep = report_cache(3, 3, {"mu": 0.95 * params33.mu0})
    assert rep.overall
    assert rep.check("lemma_2_13_c").margin == 0.95 * params33.mu0


def test_many_punctures_run_passes(report_cache):
    rep = report_cache(7, 100)
    assert rep.overall
    assert rep.params.r0 < math.pi / 100


# ---------------------------------------------------------------------------
# The memoised n-independent profile stage
# ---------------------------------------------------------------------------

def _clear_caches():
    verify._profile_stage.cache_clear()
    _threshold_scan.cache_clear()
    _slope_budgets.cache_clear()


def _csv_texts(report):
    return tuple("".join(cli._render(dump, report)) for dump in cli.DUMPS)


@pytest.fixture
def empty_profile_cache():
    _clear_caches()
    yield
    _clear_caches()


@pytest.fixture(scope="module")
def uncached_sweep():
    """JSON (and, for CSV_CONFIGS, CSV text) of every sweep report, each
    computed with the caches emptied first."""
    out = {}
    for n, p in SWEEP:
        _clear_caches()
        rep = run_verification(n, p)
        out[(n, p)] = (report_to_json(rep),
                       _csv_texts(rep) if (n, p) in CSV_CONFIGS else None)
    _clear_caches()
    return out


@pytest.mark.parametrize("seed", [11, 12])
def test_profile_cache_keeps_sweep_bytes(uncached_sweep, seed):
    order = list(SWEEP)
    random.Random(seed).shuffle(order)
    _clear_caches()
    for n, p in order:
        rep = run_verification(n, p)
        ref_json, ref_csv = uncached_sweep[(n, p)]
        assert report_to_json(rep) == ref_json, (n, p)
        if ref_csv is not None:
            assert _csv_texts(rep) == ref_csv, (n, p)
    # every sweep input shares one cascade: one build, then reuse
    info = verify._profile_stage.cache_info()
    assert (info.misses, info.hits) == (1, len(SWEEP) - 1)


def test_profile_cache_misses_on_other_points_or_cascade(empty_profile_cache):
    base = run_verification(3, 3)
    coarse = run_verification(3, 3, grid=GridSpec(points=2_000, lo=0.0, hi=1.0))
    # same cascade, different grid: the margins must come from the coarse grid
    assert coarse.params == base.params
    assert coarse.check("lemma_2_9_iii").at != base.check("lemma_2_9_iii").at
    mu = base.params.mu / 2.0
    other = run_verification(3, 3, {"mu": mu})
    assert other.artifacts["profile"].params.mu == mu != base.artifacts["profile"].params.mu
    info = verify._profile_stage.cache_info()
    assert (info.misses, info.hits) == (3, 0)


def test_profile_stage_failure_is_not_cached(empty_profile_cache, monkeypatch):
    calls = []

    def failing_smooth(profile, mu, points):
        calls.append(points)
        raise CertificationError("injected smoothing failure", check="lemma_2_13_c",
                                 margins={"lemma_2_13_c": (-1.0, 0.5)})

    monkeypatch.setattr(verify, "validate_smooth", failing_smooth)
    first = run_verification(3, 3)
    second = run_verification(3, 3)
    assert len(calls) == 2
    assert report_to_json(second) == report_to_json(first)
    assert not first.overall
    chk = first.check("lemma_2_13_c")
    assert chk.margin == -1.0 and "injected smoothing failure" in chk.cause
    # the C1 margins found before the smoothing failed are still reported
    assert first.check("c1_join_inner").passed
    emitted = {*CHECK_NAMES[:CHECK_NAMES.index("lemma_2_13_a")],
               "lemma_2_13_c", "r0_disjointness"}
    skip = "skipped: profile construction failed (lemma_2_13_c: injected smoothing failure)"
    for c in first.checks:
        if c.name not in emitted:
            assert c.cause == skip, c.name
            assert c.margin is None and not c.passed
        elif c.name != "lemma_2_13_c":
            assert c.cause is None and c.passed, c.name

    monkeypatch.undo()
    assert run_verification(3, 3).overall


def test_profile_cache_stays_within_bound(empty_profile_cache, monkeypatch,
                                          profile33, params33):
    # a stand-in smoothing check keeps each miss cheap; only the cache size
    # matters
    margins = validate_smooth(profile33, params33.mu)
    monkeypatch.setattr(verify, "validate_smooth", lambda profile, mu, points: margins)
    bound = verify._profile_stage.cache_info().maxsize
    for k in range(bound + 3):
        run_verification(3, 3, grid=GridSpec(points=200 + k, lo=0.0, hi=1.0))
        assert verify._profile_stage.cache_info().currsize == min(k + 1, bound)


def test_profile_cache_shared_across_threads(uncached_sweep, empty_profile_cache):
    configs = SWEEP[:3]
    out = {}

    def work(n, p):
        out[(n, p)] = report_to_json(run_verification(n, p))

    threads = [threading.Thread(target=work, args=cfg) for cfg in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert out == {cfg: uncached_sweep[cfg][0] for cfg in configs}
