import json
import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from ricci_forge import (
    CHECK_NAMES,
    CertificationError,
    DomainError,
    GridSpec,
    cascade_artifacts,
    gauss_crosscheck,
    report_to_dict,
    report_to_json,
    run_verification,
    select_params,
    verify,
)
from ricci_forge import cli
from ricci_forge.paramgen import OVERRIDE_NAMES, _slope_budgets, _threshold_scan
from ricci_forge.profile import validate_smooth
from ricci_forge.grids import T_MAX
from ricci_forge.verify import (
    ANGLE_TOL, CASCADE_ARTIFACTS, CHECK_TABLE, GAUSS_TOL, RICCI_EPS, STAGES,
    STRICT_FLOOR)
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
    # kappa**3 past the float range raises OverflowError, not inf; a tiny R0
    # gets such a kappa by default
    (3, 3, {"kappa": 1e150}, "Definition 2.1(c)",
     "3*R0*kappa^3/4 overflows at kappa = 1e+150"),
    (3, 3, {"R0": 1e-300}, "Definition 2.1(c)", "3*R0*kappa^3/4 overflows at kappa = "),
], ids=["n_nan", "n_inf", "p_inf", "p_none", "R0_none", "R0_text",
        "kappa_overflow", "R0_tiny_overflow"])
def test_malformed_input_fails_report_naming_clause(n, p, overrides, clause, message):
    rep = run_verification(n, p, overrides)
    pi = rep.check("parameter_invariants")
    assert not rep.overall and not pi.passed
    assert pi.cause.startswith(f"{clause}: ") and message in pi.cause
    skip = f"skipped: parameter cascade failed ({pi.cause})"
    assert all(c.cause == skip and c.margin is None for c in rep.checks[1:])
    assert json.loads(report_to_json(rep))["params"] is None


EXTREMES = (0.0, -1.0, 1e-300, 1e-12, 1e150, 1e300, math.inf, -math.inf, math.nan)


def test_extreme_overrides_give_reports():
    for name in OVERRIDE_NAMES:
        for value in EXTREMES:
            rep = run_verification(3, 3, {name: value})
            assert tuple(c.name for c in rep.checks) == CHECK_NAMES, (name, value)
            json.loads(report_to_json(rep))


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


def test_boundary_crosschecks_read_far_half_at_mirror_point(report33):
    # t(s) loses relative digits past the apex, where sin(s / sin r0) is
    # taken near pi; read there, the worst errors were 2.85e-7 and 1.47e-10
    assert GAUSS_TOL - report33.check("gauss_crosscheck").margin <= 1e-7
    assert ANGLE_TOL - report33.check("angle_identity").margin <= 1e-10


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


@pytest.mark.parametrize("points", [100, 2_000, 10_000, 20_000])
def test_curvature_t_grid_equals_unique(points):
    # one configuration per distinct r0 of the sweep, and an r0 on a point of
    # the interior grid, which the boundary grid then repeats
    interior = np.linspace(RICCI_EPS, T_MAX, points)
    cases = {select_params(n, p).r0: (n, p, None) for n, p in SWEEP}
    shared = float(interior[np.searchsorted(interior, min(cases))])
    cases[shared] = (3, 3, {"r0": shared})
    for r0, (n, p, overrides) in cases.items():
        report = run_verification(n, p, overrides,
                                  grid=GridSpec(points=points, lo=0.0, hi=1.0))
        want = np.unique(np.concatenate([interior, np.linspace(0.0, r0, points)]))
        assert report.artifacts["t_grid"].tobytes() == want.tobytes()
    assert want.size == 2 * points - 1


_NO_NUMPY_MA = """
import sys
import numpy
if "numpy.ma" in sys.modules:
    print("numpy imports numpy.ma")
    sys.exit(0)
from ricci_forge import cli, run_verification
run_verification(3, 3)
out = sys.argv[1]
cli.run(["--dim", "3", "--punctures", "3", "--quiet", "--out", out + "/r.json",
         "--profile-csv", out + "/p.csv", "--curvature-csv", out + "/c.csv",
         "--boundary-csv", out + "/b.csv"])
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
"""


def test_certification_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma on first use in numpy 2.4: 12-21 ms and
    # 1.3 MB of a fresh process's first certification
    src = os.path.dirname(os.path.dirname(verify.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_MA, str(tmp_path)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    if proc.stdout.strip() == "numpy imports numpy.ma":
        pytest.skip("numpy 1.x imports numpy.ma with numpy itself")
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "b.csv").exists()


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
    verify._profile_margins.cache_clear()
    _threshold_scan.cache_clear()
    _slope_budgets.cache_clear()


def _csv_texts(report):
    return tuple(b"".join(cli._render(dump, report.artifacts)) for dump in cli.DUMPS)


@pytest.fixture
def empty_profile_cache():
    _clear_caches()
    yield
    _clear_caches()


def _bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


@pytest.mark.parametrize("n, p, overrides, points", [
    *((n, p, None, 100) for n, p in SWEEP),
    (3, 3, None, 20_000), (11, 5, None, 20_000),
    *((n, p, overrides, 1_000) for n, p, overrides in DRAWS),
])
def test_cascade_artifacts_equal_report_artifacts(empty_profile_cache, n, p,
                                                  overrides, points):
    report = run_verification(n, p, overrides,
                              grid=GridSpec(points=points, lo=0.0, hi=T_MAX))
    # built afresh, as in a process that has not certified this cascade
    _clear_caches()
    got = cascade_artifacts(n, p, overrides, points)
    assert tuple(got) == CASCADE_ARTIFACTS
    want = report.artifacts
    assert _bits(got["t_grid"]) == _bits(want["t_grid"])
    assert _bits(*got["profile"].jet(got["t_grid"])) == \
        _bits(*want["profile"].jet(want["t_grid"]))
    assert _bits(got["boundary"].samples) == _bits(want["boundary"].samples)


def test_cascade_artifacts_leave_out_only_a_failing_boundary(empty_profile_cache,
                                                             monkeypatch):
    def failing(*args):
        raise DomainError("injected boundary failure", clause="Lemma 2.3")

    monkeypatch.setattr(verify, "boundary_metric", failing)
    report = run_verification(3, 3)
    assert "boundary" not in report.artifacts
    _clear_caches()
    got = cascade_artifacts(3, 3)
    assert tuple(got) == ("profile", "t_grid")
    want = report.artifacts
    assert _bits(got["t_grid"]) == _bits(want["t_grid"])
    assert _bits(*got["profile"].jet(got["t_grid"])) == \
        _bits(*want["profile"].jet(want["t_grid"]))


def test_cascade_artifacts_of_rejected_cascade_or_bridge_are_empty(monkeypatch):
    assert cascade_artifacts(3, 3, {"mu": 1e-300}) == {}

    def failing_bridge(cascade):
        raise CertificationError("injected bridge failure", clause="Lemma 2.9 (*)")

    monkeypatch.setattr(verify, "build_bridge_theta", failing_bridge)
    assert cascade_artifacts(3, 3) == {}


def test_n_free_builds_agree_across_n():
    # (3, 3) and (17, 10) share the default cascade
    a, b = cascade_artifacts(3, 3), cascade_artifacts(17, 10)
    assert a["profile"].params == b["profile"].params
    assert _bits(a["t_grid"]) == _bits(b["t_grid"])
    assert _bits(*a["profile"].jet(a["t_grid"])) == _bits(*b["profile"].jet(b["t_grid"]))
    assert _bits(a["boundary"].samples) == _bits(b["boundary"].samples)


def test_cascade_artifacts_are_what_the_builds_make():
    run = verify._Run(3, 3, None, 200)
    for _, stage in STAGES:
        if stage.build is not None:
            made = {}
            stage.build(run, made)
            assert tuple(made) == stage.makes
            run.artifacts.update(made)
    assert tuple(run.artifacts) == CASCADE_ARTIFACTS == ("profile", "t_grid", "boundary")


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
    info = verify._profile_margins.cache_info()
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
    info = verify._profile_margins.cache_info()
    assert (info.misses, info.hits) == (3, 0)


def test_profile_stage_failure_is_not_cached(empty_profile_cache, monkeypatch):
    calls = []

    def failing_bridge(cascade):
        calls.append(cascade)
        raise CertificationError("injected bridge failure", clause="Lemma 2.9 (*)")

    monkeypatch.setattr(verify, "build_bridge_theta", failing_bridge)
    first = run_verification(3, 3)
    second = run_verification(3, 3)
    assert len(calls) == 2
    assert report_to_json(second) == report_to_json(first)
    assert not first.overall
    emitted = {*CHECK_NAMES[:CHECK_NAMES.index("c1_join_inner")], "r0_disjointness"}
    skip = "skipped: profile construction failed (Lemma 2.9 (*): injected bridge failure)"
    for c in first.checks:
        if c.name in emitted:
            assert c.cause is None and c.passed, c.name
        else:
            assert c.cause == skip, c.name
            assert c.margin is None and not c.passed

    monkeypatch.undo()
    assert run_verification(3, 3).overall


# ---------------------------------------------------------------------------
# The stage loop
# ---------------------------------------------------------------------------

LABELS = [label for label, _ in STAGES]


def _traced(report):
    return [label for label, _ in report.artifacts["trace"]]


def test_trace_lists_every_stage_once_in_order(report33):
    trace = report33.artifacts["trace"]
    assert _traced(report33) == LABELS and len(set(LABELS)) == len(LABELS)
    assert all(isinstance(s, float) and s >= 0.0 for _, s in trace)


def test_cascade_failure_trace_ends_at_cascade(report_cache):
    rep = report_cache(3, 1, {"zeta": 10.0 * (1.1 * 2.0 / math.sqrt(0.3)) ** 3})
    assert _traced(rep) == ["parameter cascade"]


def test_later_stage_error_fails_report(report33, monkeypatch):
    def failing_grid(profile, n, r0, t):
        raise DomainError("injected curvature failure")

    monkeypatch.setattr(verify, "curvature_grid", failing_grid)
    rep = run_verification(3, 3)
    assert not rep.overall and rep.params == report33.params
    assert _traced(rep) == LABELS[:LABELS.index("curvature") + 1]
    skip = "skipped: curvature failed (injected curvature failure)"
    upstream = CHECK_NAMES[:CHECK_NAMES.index("ricci_tt_positive")]
    for c in rep.checks:
        if c.name in upstream or c.name == "r0_disjointness":
            assert c == report33.check(c.name)
        else:
            assert c.cause == skip and c.margin is None and not c.passed, c.name
    assert "curvature" not in rep.artifacts and "profile" in rep.artifacts


def test_report_json_ignores_trace(report33):
    text = report_to_json(report33)
    assert "trace" not in text
    untraced = replace(report33, artifacts={
        key: value for key, value in report33.artifacts.items() if key != "trace"})
    assert report_to_json(untraced) == text


@pytest.fixture
def floor_table(empty_profile_cache, monkeypatch, profile33, params33):
    """validate_smooth stubbed by the default table with lemma_2_13_c at
    5e-13, inside the strict floor; returns the list of the stub's calls."""
    table = dict(validate_smooth(profile33, params33.mu))
    table["lemma_2_13_c"] = (5e-13, table["lemma_2_13_c"][1])
    calls = []

    def stub(profile, mu, points):
        calls.append(points)
        return table

    monkeypatch.setattr(verify, "validate_smooth", stub)
    return calls


def test_smooth_clause_within_strict_floor_fails_stage(floor_table):
    rep = run_verification(3, 3)
    chk = rep.check("lemma_2_13_c")
    assert not rep.overall and not chk.passed and chk.margin == 5e-13
    assert chk.cause == ("lemma_2_13_c: smoothing clauses fail; worst clause "
                         f"lemma_2_13_c with margin 5e-13 at t = {chk.at!r}")
    emitted = {*CHECK_NAMES[:CHECK_NAMES.index("ricci_tt_positive")], "r0_disjointness"}
    skip = f"skipped: profile construction failed ({chk.cause})"
    for c in rep.checks:
        if c.name not in emitted:
            assert c.cause == skip and c.margin is None and not c.passed, c.name
    assert "profile" not in rep.artifacts


def test_smoothing_failure_trace_ends_at_profile_construction(floor_table):
    rep = run_verification(3, 3)
    assert _traced(rep) == LABELS[:LABELS.index("profile construction") + 1]


def test_only_failing_checks_carry_a_cause(floor_table):
    rep = run_verification(3, 3)
    assert rep.check("lemma_2_13_c").cause
    for name in ("lemma_2_13_a", "lemma_2_13_b", "corollary_2_14_concavity",
                 "corollary_2_14_ratio", "lemma_2_15"):
        c = rep.check(name)
        assert c.passed and c.cause is None, name
    assert verify._result("lemma_2_10", 1.0, 0.5, "a cause").cause is None
    assert verify._result("lemma_2_10", -1.0, 0.5, "a cause").cause == "a cause"


def test_failing_smooth_table_is_cached(floor_table):
    first = run_verification(3, 3)
    second = run_verification(3, 3)
    assert len(floor_table) == 1
    assert report_to_json(second) == report_to_json(first)
    assert not first.overall


def test_empty_rho_interval_fails_with_its_margin(monkeypatch):
    measure = verify.boundary_metric

    def raised_lo(profile, params, points):
        return replace(measure(profile, params, points), rho_lo=0.6)

    monkeypatch.setattr(verify, "boundary_metric", raised_lo)
    rep = run_verification(3, 3)
    chk = rep.check("rho_interval_nonempty")
    bm = rep.artifacts["boundary"]
    assert rep.artifacts["rho"] == (0.6, 0.5) and bm.omega > 0.5
    assert chk.margin == 0.5 - 0.6 and chk.cause is None
    assert [c.name for c in rep.checks if not c.passed] == ["rho_interval_nonempty"]


def test_profile_cache_stays_within_bound(empty_profile_cache, monkeypatch,
                                          profile33, params33):
    # a stand-in smoothing check keeps each miss cheap; only the cache size
    # matters
    margins = validate_smooth(profile33, params33.mu)
    monkeypatch.setattr(verify, "validate_smooth", lambda profile, mu, points: margins)
    bound = verify._profile_margins.cache_info().maxsize
    for k in range(bound + 3):
        run_verification(3, 3, grid=GridSpec(points=200 + k, lo=0.0, hi=1.0))
        assert verify._profile_margins.cache_info().currsize == min(k + 1, bound)


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
