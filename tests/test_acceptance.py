"""Acceptance criteria, one test per criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` or in captured output) and asserts the criterion at its stated
tolerance. The full (n, p) sweep is built once per session.
"""

import functools
import math
import time

import numpy as np
import pytest

from ricci_forge import (
    intrinsic_sectional,
    principal_curvatures,
    ricci_components,
    run_verification,
)
from ricci_forge.verify import CHECK_TABLE, STRICT_FLOOR

NS = (3, 5, 7, 9, 11, 13)
PS = (1, 2, 5, 10)
RUNTIME_BUDGET = 60.0
STRICT_NAMES = tuple(name for name, _, kind in CHECK_TABLE if kind == "strict")


@pytest.fixture(scope="module")
def sweep():
    runs = {}
    for n in NS:
        for p in PS:
            start = time.perf_counter()
            report = run_verification(n, p)
            runs[(n, p)] = (report, time.perf_counter() - start)
    return runs


def _emit(num, ok, detail=""):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_full_certification(sweep):
    ok = True
    details = []
    for (n, p), (report, seconds) in sweep.items():
        strict_margins = [report.check(name).margin for name in STRICT_NAMES]
        good = (report.overall
                and all(m is not None and m > STRICT_FLOOR for m in strict_margins)
                and seconds < RUNTIME_BUDGET)
        ok &= good
        if not good:
            details.append(f"(n={n}, p={p}: overall={report.overall}, "
                           f"time={seconds:.1f}s)")
    worst_time = max(secs for _, secs in sweep.values())
    _emit(1, ok, f"- 24 configurations certified, slowest {worst_time:.1f}s "
                 + " ".join(details))


def test_criterion_2_ricci_positivity(sweep):
    worst = min(
        min(report.check(n).margin for n in
            ("ricci_tt_positive", "ricci_xx_positive", "ricci_ss_positive"))
        for report, _ in sweep.values()
    )
    _emit(2, worst > 0.0, f"- min Ricci margin over sweep {worst:.3g}")


def test_criterion_3_principal_curvature_bound(sweep):
    ok = True
    worst_strict = math.inf
    for (n, p), (report, _) in sweep.items():
        ok &= report.check("corollary_2_16_bound").margin >= 0.0
        prof = report.artifacts["profile"]
        r0 = report.params.r0
        ts = np.linspace(r0 / 2.0, r0, 2_000)
        _, pc_s = principal_curvatures(prof, r0, ts)
        strict = float(np.min(pc_s + 1.0 / math.tan(r0)))
        worst_strict = min(worst_strict, strict)
        ok &= strict > 0.0
    _emit(3, ok, f"- outer-half strict margin {worst_strict:.3g}")


def test_criterion_4_intrinsic_bounds(sweep):
    ok = True
    for (n, p), (report, _) in sweep.items():
        ok &= report.check("lemma_2_17_bound").margin > 0.0
        ok &= report.check("lemma_2_18_bound").margin > 0.0
        prof = report.artifacts["profile"]
        r0 = report.params.r0
        ts = np.linspace(0.0, r0, 2_000)
        _, ki_ss = intrinsic_sectional(prof, r0, ts)
        ok &= bool(np.min(ki_ss) >= 1.0 + 1.0 / math.tan(r0) ** 2 - 1e-9)
    _emit(4, ok, "- mixed and sphere-sphere sectional bounds with the "
                 "1 + cot^2(r0) floor")


def test_criterion_5_round_sphere_oracle(round_profile):
    # below t ~ 0.01 the generic 1 - R'^2 evaluation is cancellation-limited,
    # so the oracle grid starts there
    round_p = round_profile
    r0 = 0.06
    cot = 1.0 / math.tan(r0)
    ok = True
    for n in (3, 7, 13):
        ts = np.linspace(0.01, math.pi / 2, 5_000)
        comps = ricci_components(round_p, n, ts)
        ok &= all(np.max(np.abs(c - (n - 1))) < 1e-10 for c in comps)
    ts = np.concatenate([[0.0], np.linspace(0.01, r0, 5_000)])
    pc_c, pc_s = principal_curvatures(round_p, r0, ts)
    ok &= bool(np.max(np.abs(pc_c + cot)) < 1e-10)
    ok &= bool(np.max(np.abs(pc_s + cot)) < 1e-10)
    _, ki_ss = intrinsic_sectional(round_p, r0, ts)
    ok &= bool(np.max(np.abs(ki_ss - (1.0 + cot**2))) < 1e-10)
    _emit(5, ok, "- round profile reproduces n-1, -cot(r0), 1+cot^2(r0) "
                 "to 1e-10")


def test_criterion_6_gauss_crosscheck(sweep):
    worst = min(report.check("gauss_crosscheck").margin
                for report, _ in sweep.values())
    _emit(6, worst > 0.0,
          f"- closed forms vs finite differences, worst rel gap "
          f"{1e-4 - worst:.3g} (tolerance 1e-4)")


@functools.lru_cache(maxsize=None)
def _arc_length(r0, nodes=512):
    x, w = np.polynomial.legendre.leggauss(nodes)
    phi = 0.5 * math.pi * (x + 1.0)
    weights = 0.5 * math.pi * w

    def coords(ph):
        return (np.arcsin(math.sin(r0) * np.sin(ph)),
                np.arctan2(math.sin(r0) * np.cos(ph), math.cos(r0)))

    h = 1e-7
    tp, xp = coords(phi + h)
    tm, xm = coords(phi - h)
    t, _ = coords(phi)
    speed = np.sqrt(((tp - tm) / (2 * h)) ** 2
                    + np.cos(t) ** 2 * ((xp - xm) / (2 * h)) ** 2)
    return float(np.sum(weights * speed))


def test_criterion_7_pole_distance_and_waist(sweep):
    ok = True
    for (n, p), (report, _) in sweep.items():
        params = report.params
        bm = report.artifacts["boundary"]
        ok &= abs(_arc_length(params.r0) - math.pi * math.sin(params.r0)) < 1e-8
        ok &= bm.omega == math.cos(params.r0)
        closed = params.R0 / math.tan(params.r0) * math.sin(params.r0 + params.shift)
        ok &= abs(bm.tau - closed) < 1e-12
        ok &= abs(float(np.max(bm.samples[:, 1])) - bm.tau) < 1e-6
    _emit(7, ok, "- arc length, pole distance, and waist agree with the "
                 "closed forms")


def test_criterion_8_rho_arithmetic(sweep):
    ok = True
    for (n, p), (report, _) in sweep.items():
        tau = report.artifacts["boundary"].tau
        R0 = report.params.R0
        lo = tau ** ((n - 2) / (n - 1))
        ok &= lo <= math.sqrt(tau) < math.sqrt(R0) <= 1.0 / math.sqrt(10.0) < 0.5
        hi = min(report.artifacts["boundary"].omega, 0.5)
        ok &= lo < hi
        ok &= report.check("rho_interval_nonempty").passed
    _emit(8, ok, "- waist-power chain and non-empty interval for all 24 runs")


def test_criterion_9_profile_regularity(sweep):
    report, _ = sweep[(3, 1)]
    prof = report.artifacts["profile"]
    ok = max(prof.junction_gaps().values()) < 1e-9
    for name in ("lemma_2_13_a", "lemma_2_13_b", "lemma_2_13_c",
                 "corollary_2_14_concavity"):
        ok &= report.check(name).passed
    rng = np.random.default_rng(2024)
    ts = rng.uniform(2e-3, math.pi / 2 - 2e-4, 1_000)
    h1, h2 = 1e-6, 1e-4
    R, R1, R2 = prof.jet(ts)

    def val(t):
        return prof.jet(t)[0]

    fd1 = (val(ts + h1) - val(ts - h1)) / (2 * h1)
    rel1 = np.abs(fd1 - R1) / np.maximum(np.abs(R1), 1e-8)
    fd2 = (val(ts + h2) - 2 * R + val(ts - h2)) / h2**2
    rel2 = np.abs(fd2 - R2) / np.maximum(np.abs(R2), 1e-8)
    ok &= bool(np.max(rel1) < 1e-5 and np.max(rel2) < 1e-5)
    _emit(9, ok, f"- joins, smoothing clauses, concavity, and derivative "
                 f"consistency (fd rel {np.max(rel1):.2g}/{np.max(rel2):.2g})")


def test_criterion_10_negative_controls():
    kappa = 1.1 * 2.0 / math.sqrt(3.0 * 0.1)
    controls = [
        ({"zeta": 0.5 * kappa}, "2.1(c)"),
        ({"zeta": 10.0 * kappa**3}, "2.1(c)"),
        ({"r0": 0.2}, "2.8"),
        ({"mu": 1.0}, "2.13"),
    ]
    ok = True
    for overrides, clause in controls:
        report = run_verification(3, 1, overrides)
        named = any(clause in (c.cause or "") for c in report.checks)
        ok &= (not report.overall) and named
    _emit(10, ok, "- four invalid cascades rejected, each naming its clause")
