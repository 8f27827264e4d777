"""Closed-form curvature quantities of the metric
dt^2 + cos^2(t) ds_1^2 + R^2(t) ds_{n-2}^2 and of the boundary sphere left
by removing a geodesic ball of radius r0 centred on the t = 0 circle.

All evaluators take any object exposing ``value``/``d1``/``d2`` and a
``zero_limits`` property with the t -> 0+ limits of (-R''/R, (1-R'^2)/R^2);
the pole t = 0 is handled through those limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bumps import _as_array, _wrap
from .errors import DomainError

T_MAX = math.pi / 2
POLE_EPS = 1e-12


def _prep(t, lo, hi, what):
    a, scalar = _as_array(t)
    if np.any(a < lo - 1e-12) or np.any(a > hi + 1e-9):
        raise DomainError(f"{what}: argument outside [{lo}, {hi}]")
    return a, scalar


def ricci_components(profile, n: int, t):
    """Diagonal Ricci values on the unit vectors along t, the distinguished
    circle, and the collapsed sphere factor; off-diagonal entries vanish."""
    t, scalar = _prep(t, 0.0, T_MAX, "ricci_components")
    lim2, lim3 = profile.zero_limits
    pole = t <= POLE_EPS
    reg = ~pole
    ric_tt = np.empty_like(t)
    ric_xx = np.empty_like(t)
    ric_ss = np.empty_like(t)
    if np.any(reg):
        tr = t[reg]
        R = profile.value(tr)
        R1 = profile.d1(tr)
        R2 = profile.d2(tr)
        neg_ratio = -R2 / R
        slope_tan = (R1 / R) * np.tan(tr)
        ric_tt[reg] = 1.0 + (n - 2) * neg_ratio
        ric_xx[reg] = 1.0 + (n - 2) * slope_tan
        ric_ss[reg] = neg_ratio + slope_tan + (n - 3) * (1.0 - R1**2) / R**2
    if np.any(pole):
        ric_tt[pole] = 1.0 + (n - 2) * lim2
        ric_xx[pole] = float(n - 1)
        ric_ss[pole] = lim2 + 1.0 + (n - 3) * lim3
    return tuple(_wrap(a, scalar) for a in (ric_tt, ric_xx, ric_ss))


def principal_curvatures(profile, r0: float, t):
    """The two principal curvature families of the boundary sphere with
    respect to the inward normal."""
    t, scalar = _prep(t, 0.0, r0, "principal_curvatures")
    cot_r0 = 1.0 / math.tan(r0)
    pc_circle = np.full_like(t, -cot_r0)
    pc_sphere = np.empty_like(t)
    pole = t <= POLE_EPS
    reg = ~pole
    if np.any(reg):
        tr = t[reg]
        ratio = profile.d1(tr) / profile.value(tr)
        pc_sphere[reg] = -ratio * cot_r0 * np.tan(tr)
    pc_sphere[pole] = -cot_r0
    return _wrap(pc_circle, scalar), _wrap(pc_sphere, scalar)


def intrinsic_sectional(profile, r0: float, t):
    """Sectional curvatures of the induced boundary metric: mixed plane
    (meridian wedge sphere direction) and sphere-sphere plane."""
    t, scalar = _prep(t, 0.0, r0, "intrinsic_sectional")
    cot2 = 1.0 / math.tan(r0) ** 2
    lim2, lim3 = profile.zero_limits
    ki_ys = np.empty_like(t)
    ki_ss = np.empty_like(t)
    pole = t <= POLE_EPS
    reg = ~pole
    if np.any(reg):
        tr = t[reg]
        R = profile.value(tr)
        R1 = profile.d1(tr)
        R2 = profile.d2(tr)
        tan = np.tan(tr)
        c = cot2 * tan**2
        ki_ys[reg] = -(R2 / R) * (1.0 - c) + (R1 / R) * cot2 * tan * (1.0 + tan**2)
        ki_ss[reg] = (1.0 - R1**2 * (1.0 - c)) / R**2
    ki_ys[pole] = lim2 + cot2
    ki_ss[pole] = lim3 + cot2
    return _wrap(ki_ys, scalar), _wrap(ki_ss, scalar)


@dataclass(frozen=True)
class CurvatureGridResult:
    t: np.ndarray
    ric_tt: np.ndarray
    ric_xx: np.ndarray
    ric_ss: np.ndarray
    pc_circle: np.ndarray
    pc_sphere: np.ndarray
    ki_ys: np.ndarray
    ki_ss: np.ndarray


def curvature_grid(profile, n: int, r0: float, grid) -> CurvatureGridResult:
    """Evaluate every curvature quantity on an explicit array of t values;
    boundary quantities are filled for t <= r0 only."""
    ts = np.atleast_1d(np.asarray(grid, dtype=float))
    ric_tt, ric_xx, ric_ss = ricci_components(profile, n, ts)
    nanf = np.full_like(ts, np.nan)
    pc_circle, pc_sphere, ki_ys, ki_ss = nanf.copy(), nanf.copy(), nanf.copy(), nanf.copy()
    mb = ts <= r0 + 1e-15
    if np.any(mb):
        tb = np.clip(ts[mb], 0.0, r0)
        pc_circle[mb], pc_sphere[mb] = principal_curvatures(profile, r0, tb)
        ki_ys[mb], ki_ss[mb] = intrinsic_sectional(profile, r0, tb)
    return CurvatureGridResult(
        t=ts, ric_tt=ric_tt, ric_xx=ric_xx, ric_ss=ric_ss,
        pc_circle=pc_circle, pc_sphere=pc_sphere, ki_ys=ki_ys, ki_ss=ki_ss,
    )
