"""Pipeline orchestration: run every construction stage, certify every
clause, and assemble a machine-readable verification report.

Each check carries the clause label it certifies (anchor), the worst margin
found, and the location of that worst margin. Strict checks pass when the
margin exceeds an absolute floor of 1e-12; tolerance checks when it is
positive; non-strict checks when it is non-negative. Margins of the
quadratically-degenerate threshold inequalities (and of the slope bound of
Lemma 2.15) are reported per unit x^2, since their raw two-sided gaps
vanish like x^2 at the left end of the grid by construction.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from .boundary import boundary_metric, rho_interval, t_of_s
from .bumps import BumpFunction
from .curvature import curvature_grid, intrinsic_sectional
from .errors import CertificationError, RicciForgeError
from .grids import DEFAULT_POINTS, T_MAX, GridSpec, open_grid
from .paramgen import (
    LEMMAS,
    STRICT_FLOOR,
    ParamSet,
    lemma_margin,
    select_params,
    star_margin,
)
from .profile import ProfileC1, build_bridge_theta, validate_c1, validate_smooth

SCHEMA = "ricci-forge/1"
RICCI_EPS = 1e-6
GAUSS_TOL = 1e-4
ANGLE_TOL = 1e-8

STRICT, NONNEG, TOL = "strict", "nonneg", "tol"

# Canonical check set: fixed names, clause anchors, pass rules.
CHECK_TABLE = (
    ("parameter_invariants", "Definitions 2.1/2.7/2.8; Lemmas 2.11/2.12", NONNEG),
    *((lemma.check, lemma.anchor, STRICT) for lemma in LEMMAS.values()),
    ("gamma_first_derivative_bound", "Definition 2.7", STRICT),
    ("gamma_second_derivative_bound", "Definition 2.7", STRICT),
    ("star_inequality_at_psi", "Lemma 2.9 proof (*)", STRICT),
    ("c1_join_inner", "Lemma 2.9", TOL),
    ("c1_join_outer", "Lemma 2.9", TOL),
    ("lemma_2_9_iii", "Lemma 2.9(iii)", NONNEG),
    ("lemma_2_10", "Lemma 2.10", STRICT),
    ("lemma_2_13_a", "Lemma 2.13(a)", STRICT),
    ("lemma_2_13_b", "Lemma 2.13(b)", STRICT),
    ("lemma_2_13_c", "Lemma 2.13(c)", STRICT),
    ("corollary_2_14_concavity", "Corollary 2.14", STRICT),
    ("corollary_2_14_ratio", "Corollary 2.14", STRICT),
    ("lemma_2_15", "Lemma 2.15", STRICT),
    ("ricci_tt_positive", "Proposition 2.19", STRICT),
    ("ricci_xx_positive", "Proposition 2.19", STRICT),
    ("ricci_ss_positive", "Proposition 2.19", STRICT),
    ("corollary_2_16_bound", "Corollary 2.16", NONNEG),
    ("lemma_2_17_bound", "Lemma 2.17", STRICT),
    ("lemma_2_18_bound", "Lemma 2.18", STRICT),
    ("gauss_crosscheck", "Lemmas 2.17/2.18 via the Gauss equation", TOL),
    ("angle_identity", "boundary angle identity (spherical trigonometry)", TOL),
    ("tau_below_r0", "Proposition 2.19 proof; Lemma 2.3 at x = r0", STRICT),
    ("omega_exceeds_tau_power", "Propositions 2.19/2.20", STRICT),
    ("rho_interval_nonempty", "Corollary 2.22; Proposition 1.12 proof", STRICT),
    ("r0_disjointness", "Proposition 2.19 proof (disjoint balls)", STRICT),
)

CHECK_NAMES = tuple(name for name, _, _ in CHECK_TABLE)
_ANCHORS = {name: anchor for name, anchor, _ in CHECK_TABLE}
_KINDS = {name: kind for name, _, kind in CHECK_TABLE}


@dataclass(frozen=True)
class CheckResult:
    name: str
    anchor: str
    passed: bool
    margin: float | None
    at: float | None
    cause: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    params: ParamSet | None
    checks: tuple
    overall: bool
    artifacts: dict = field(default_factory=dict, repr=False, compare=False)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _passes(kind: str, margin: float) -> bool:
    if not math.isfinite(margin):
        return False
    if kind == STRICT:
        return margin > STRICT_FLOOR
    if kind == NONNEG:
        return margin >= 0.0
    return margin > 0.0


def _result(name: str, margin: float | None, at: float | None,
            cause: str | None = None) -> CheckResult:
    """The check's result; a passing check never carries a cause."""
    if margin is None or not math.isfinite(margin):
        return CheckResult(name, _ANCHORS[name], False, None, at, cause)
    passed = _passes(_KINDS[name], margin)
    return CheckResult(name, _ANCHORS[name], passed, float(margin), at,
                       None if passed else cause)


def _margin_results(margins, cause: str | None = None) -> dict:
    """Check results for the entries of a margin table that name a check;
    entries that are not checks (such as ``profile_le_sin``) are left out."""
    return {name: _result(name, *margins[name], cause)
            for name in margins if name in _ANCHORS}


def _refined_min(xs: np.ndarray, vals: np.ndarray, fn=None):
    """Grid minimum with one parabolic refinement of the argmin (pass/fail is
    decided on the refined value when it is lower)."""
    i = int(np.argmin(vals))
    best_v, best_x = float(vals[i]), float(xs[i])
    if fn is not None and 0 < i < xs.size - 1:
        x0, x1, x2 = xs[i - 1], xs[i], xs[i + 1]
        y0, y1, y2 = vals[i - 1], vals[i], vals[i + 1]
        denom = (y0 - 2.0 * y1 + y2)
        if denom > 0.0:
            xv = x1 + 0.5 * (x2 - x1) * (y0 - y2) / denom
            xv = min(max(xv, x0), x2)
            yv = float(fn(xv))
            if yv < best_v:
                best_v, best_x = yv, float(xv)
    return best_v, best_x


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------

def _param_slacks(p: ParamSet) -> float:
    caps = min(p.R0, math.pi / (2.0 * (1.0 + p.Lambda)), *p.c)
    slacks = [
        0.1 - p.R0,
        p.kappa - 2.0 / math.sqrt(3.0 * p.R0),
        p.zeta - p.kappa,
        3.0 * p.R0 * p.kappa**3 / 4.0 - p.zeta,
        p.Lambda - 1.0 / p.R0,
        caps - p.r0,
        math.pi / p.p - p.r0,
        p.psi,
        p.t_cut - p.psi,
        star_margin(p.R0, p.kappa, p.zeta, p.r0, p.psi),
        p.iota,
        p.psi - p.mu0,
        p.iota - p.mu0 * math.tan(p.r0),
        p.mu,
        p.mu0 - p.mu,
    ]
    return float(min(slacks))


def _near_half(s: np.ndarray, length: float) -> np.ndarray:
    """Arc lengths past ``length / 2`` at their mirror point ``length - s``.
    The latitude t(s) is symmetric about the apex, and on the far half
    ``t_of_s`` takes the sine near pi, where it loses relative digits."""
    return np.where(s > 0.5 * length, length - s, s)


def gauss_crosscheck(profile, params: ParamSet) -> CheckResult:
    """Compare the closed-form boundary sectional curvatures against finite
    differences of the unrescaled boundary warping B(s) = R(t(s)); the two
    routes are independent, so agreement validates the closed forms. Both
    are symmetric about the apex, so the far half is read at its mirror
    point."""
    r0 = params.r0
    length = math.pi * math.sin(r0)
    s = np.linspace(0.05 * length, 0.95 * length, 2_000)
    u = _near_half(s, length)
    h = 1e-4 * math.sin(r0)

    b0, bp, bm = (profile.jet(t_of_s(r0, v))[0] for v in (u, u + h, u - h))
    d1 = (bp - bm) / (2.0 * h)
    d2 = (bp - 2.0 * b0 + bm) / h**2

    ts = t_of_s(r0, u)
    ki_ys, ki_ss = intrinsic_sectional(profile, r0, ts)
    rel_ys = np.abs(ki_ys - (-d2 / b0)) / np.abs(ki_ys)
    rel_ss = np.abs(ki_ss - (1.0 - d1**2) / b0**2) / np.abs(ki_ss)
    worst = np.maximum(rel_ys, rel_ss)
    i = int(np.argmax(worst))
    return _result("gauss_crosscheck", GAUSS_TOL - float(worst[i]), float(s[i]))


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def _error_text(e: RicciForgeError) -> str:
    return f"{e.clause}: {e}" if e.clause else str(e)


@dataclass
class _Run:
    """One certification's state, read and extended by each stage in turn."""

    n: int
    p: int
    overrides: dict | None
    points: int
    params: ParamSet | None = None
    results: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)

    def emit(self, name, margin, at, cause=None):
        self.results[name] = _result(name, margin, at, cause)


class Stage(NamedTuple):
    """The halves of one ``STAGES`` row, each called as ``half(run, made)``.
    ``build`` selects the cascade or puts the artifacts named in ``makes``
    into the dict ``made``; they are the same for every n of one cascade.
    ``build_n`` adds the artifacts evaluated at n, and ``judge`` emits the
    row's checks from the artifacts and n."""

    judge: Callable
    build: Callable | None = None
    makes: tuple = ()
    build_n: Callable | None = None


def _select(run: _Run, made: dict):
    """A rejected cascade gives ``parameter_invariants`` its error text."""
    try:
        run.params = select_params(run.n, run.p, run.overrides)
    except RicciForgeError as e:
        run.emit("parameter_invariants", None, None, _error_text(e))
        raise


def _cascade(run: _Run, made: dict):
    params = run.params
    run.emit("parameter_invariants", _param_slacks(params), None)
    run.emit("star_inequality_at_psi",
             star_margin(params.R0, params.kappa, params.zeta, params.r0, params.psi),
             params.psi)
    run.emit("r0_disjointness", math.pi / params.p - params.r0, params.r0)


def _lemma_grids(run: _Run, made: dict):
    params = run.params
    consts = {"R0": params.R0, "kappa": params.kappa, "zeta": params.zeta}
    xs = open_grid(0.0, params.r0, run.points, open_lo=True)
    for lemma_id, lemma in LEMMAS.items():
        def fn(x, lemma_id=lemma_id, per_x2=lemma.per_x2):
            margin = lemma_margin(lemma_id, x, consts)
            return margin / np.asarray(x, dtype=float) ** 2 if per_x2 else margin
        run.emit(lemma.check, *_refined_min(xs, fn(xs), fn))


def _taper(run: _Run, made: dict):
    (g1, at1), (g2, at2) = BumpFunction(run.params.Lambda).derivative_sups()
    run.emit("gamma_first_derivative_bound", run.params.R0 - g1, at1)
    run.emit("gamma_second_derivative_bound", run.params.R0 - g2, at2)


def _profile(cascade: ParamSet) -> ProfileC1:
    """The C1 profile of one cascade, whose ``n`` and ``p`` are None."""
    return ProfileC1(params=cascade, bridge=build_bridge_theta(cascade))


def _build_profile(run: _Run, made: dict):
    made["profile"] = _profile(replace(run.params, n=None, p=None))


@lru_cache(maxsize=8)
def _profile_margins(cascade: ParamSet, points: int):
    """``(c1_margins, smooth_margins)`` of the profile of ``cascade``, built
    afresh. Every (n, p) of one cascade shares an entry, so the tables are
    read-only. They are measured, not judged, so tables whose clauses fail
    are kept; an error raised building them is not."""
    profile = _profile(cascade)
    return (MappingProxyType(validate_c1(profile, points)),
            MappingProxyType(validate_smooth(profile, cascade.mu, points=points)))


def _profile_construction(run: _Run, made: dict):
    """The C1 and smoothing clauses; a smoothing clause at or below its
    floor fails the stage, and every smoothing check names the worst one."""
    c1_margins, smooth_margins = _profile_margins(made["profile"].params, run.points)
    run.results.update(_margin_results(c1_margins))
    # profile_le_sin, the one entry that is not a check, needs >= 0
    failed = [name for name, (m, _) in smooth_margins.items()
              if not _passes(_KINDS.get(name, NONNEG), m)]
    if failed:
        worst = min(failed, key=lambda name: smooth_margins[name][0])
        m, at = smooth_margins[worst]
        error = CertificationError(f"smoothing clauses fail; worst clause {worst} "
                                   f"with margin {m!r} at t = {at!r}", clause=worst)
        run.results.update(_margin_results(smooth_margins, _error_text(error)))
        raise error
    run.results.update(_margin_results(smooth_margins))


def _union_grid(run: _Run, made: dict):
    """The curvature grid [RICCI_EPS, pi/2] joined with [0, r0], sorted and
    deduplicated by hand (np.unique imports numpy.ma in numpy 2.4)."""
    t = np.sort(np.concatenate([
        np.linspace(RICCI_EPS, T_MAX, run.points),
        np.linspace(0.0, run.params.r0, run.points),
    ]))
    made["t_grid"] = t[np.concatenate([[True], t[1:] != t[:-1]])]


def _build_curvature(run: _Run, made: dict):
    made["curvature"] = curvature_grid(run.artifacts["profile"], run.params.n,
                                       run.params.r0, made["t_grid"])


def _curvature(run: _Run, made: dict):
    r0 = run.params.r0
    t_curv, curv = made["t_grid"], made["curvature"]
    for name, col in (("ricci_tt_positive", curv.ric_tt),
                      ("ricci_xx_positive", curv.ric_xx),
                      ("ricci_ss_positive", curv.ric_ss)):
        run.emit(name, *_refined_min(t_curv, col))

    # the boundary grid t <= r0 is a prefix of the sorted union grid
    mb = slice(int(np.searchsorted(t_curv, r0 + 1e-15, side="right")))
    tb = t_curv[mb]
    cot_r0 = 1.0 / math.tan(r0)
    pc_worst = np.minimum(curv.pc_circle[mb], curv.pc_sphere[mb]) + cot_r0
    run.emit("corollary_2_16_bound", *_refined_min(tb, pc_worst))
    for name, col in (("lemma_2_17_bound", curv.ki_ys),
                      ("lemma_2_18_bound", curv.ki_ss)):
        run.emit(name, *_refined_min(tb, col[mb] - cot_r0**2))


def _gauss(run: _Run, made: dict):
    run.results["gauss_crosscheck"] = gauss_crosscheck(run.artifacts["profile"], run.params)


def _angle(run: _Run, made: dict):
    r0 = run.params.r0
    length = math.pi * math.sin(r0)
    h = 1e-6 * length
    s = np.linspace(2.0 * h, length - 2.0 * h, min(run.points, 2_000))
    u = _near_half(s, length)
    dt_ds = (t_of_s(r0, u + h) - t_of_s(r0, u - h)) / (2.0 * h)
    ts = t_of_s(r0, u)
    err = np.abs(dt_ds**2 + (np.tan(ts) / math.tan(r0)) ** 2 - 1.0)
    i = int(np.argmax(err))
    run.emit("angle_identity", ANGLE_TOL - float(err[i]), float(s[i]))


def _build_boundary(run: _Run, made: dict):
    made["boundary"] = boundary_metric(run.artifacts["profile"], run.params, run.points)


def _boundary(run: _Run, made: dict):
    bm = made["boundary"]
    lo, hi = rho_interval(bm, run.params.n)
    run.emit("tau_below_r0", run.params.R0 - bm.tau, None)
    run.emit("omega_exceeds_tau_power", bm.omega - lo, None)
    run.emit("rho_interval_nonempty", min(hi - lo, 0.5 - lo), None)


# The stages in run order. A stage's label names its trace entry and, when
# the stage raises, the cause of every check left unemitted.
STAGES = (
    ("parameter cascade", Stage(_cascade, _select)),
    ("lemma grids", Stage(_lemma_grids)),
    ("taper", Stage(_taper)),
    ("profile construction", Stage(_profile_construction, _build_profile, ("profile",))),
    ("curvature", Stage(_curvature, _union_grid, ("t_grid",), _build_curvature)),
    ("gauss cross-check", Stage(_gauss)),
    ("angle identity", Stage(_angle)),
    ("boundary", Stage(_boundary, _build_boundary, ("boundary",))),
)

# What the stages' builds make, in run order: the artifacts that depend
# only on the cascade and the grid, never on a check.
CASCADE_ARTIFACTS = tuple(name for _, stage in STAGES for name in stage.makes)


def cascade_artifacts(n: int, p: int, overrides=None,
                      points: int = DEFAULT_POINTS) -> dict:
    """The ``CASCADE_ARTIFACTS`` of ``run_verification(n, p, overrides)`` on
    a grid of ``points``, by every ``STAGES`` row's ``build`` in order and
    no ``build_n`` or judge, so each array is bitwise the report's. A
    ``RicciForgeError`` ends the builds: a rejected cascade or bridge gives
    ``{}``, a boundary sample that raises leaves out ``"boundary"`` only."""
    run = _Run(n, p, overrides, points)
    try:
        for build in filter(None, (stage.build for _, stage in STAGES)):
            build(run, run.artifacts)
    except RicciForgeError:
        pass
    return run.artifacts


def run_verification(n: int, p: int, overrides=None,
                     grid: GridSpec | None = None) -> VerificationReport:
    """Run the full construction for (n, p) and certify every clause: each
    ``STAGES`` row runs its ``build``, ``build_n`` and ``judge`` in turn, and
    its artifacts join the report's once its judge returns. A
    ``RicciForgeError`` in any half ends the run, and every check not yet
    emitted is reported skipped with the row's label and the error's clause
    as its cause. ``artifacts["trace"]`` lists ``(label, seconds)`` for each
    row that ran, the failing one included. Only ``grid.points`` is read."""
    run = _Run(n, p, overrides, grid.points if grid is not None else DEFAULT_POINTS)
    trace = run.artifacts["trace"] = []
    failed = None
    for label, stage in STAGES:
        made = {}
        start = time.perf_counter()
        try:
            for half in filter(None, (stage.build, stage.build_n, stage.judge)):
                half(run, made)
        except RicciForgeError as e:
            failed = f"{label} failed ({_error_text(e)})"
            break
        finally:
            trace.append((label, time.perf_counter() - start))
        run.artifacts.update(made)
    return _assemble(run, failed)


def _assemble(run: _Run, failed: str | None = None) -> VerificationReport:
    """The report in CHECK_TABLE order. After a failed stage (``failed``
    names it and its cause) every check not yet emitted is reported skipped;
    otherwise a check never emitted is an internal error."""
    results = run.results
    if failed is not None:
        for name in CHECK_NAMES:
            results.setdefault(name, _result(name, None, None, f"skipped: {failed}"))
    missing = [nm for nm in CHECK_NAMES if nm not in results]
    if missing:
        raise RuntimeError(f"internal error: checks never emitted: {missing}")
    checks = tuple(results[nm] for nm in CHECK_NAMES)
    overall = all(c.passed for c in checks)
    return VerificationReport(params=run.params, checks=checks, overall=overall,
                              artifacts=run.artifacts)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _json_num(x):
    if x is None or not math.isfinite(x):
        return None
    return float(x)


# a check's keys in the report: CheckResult's fields, in their order
_CHECK_KEYS = tuple(f.name for f in fields(CheckResult))


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "schema": SCHEMA,
        "params": report.params.as_dict() if report.params is not None else None,
        "checks": [{**{key: getattr(c, key) for key in _CHECK_KEYS},
                    "margin": _json_num(c.margin), "at": _json_num(c.at)}
                   for c in report.checks],
        "overall": "pass" if report.overall else "fail",
    }


def report_to_json(report: VerificationReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"
