"""Boundary of a removed geodesic ball as a rotationally symmetric metric
ds^2 + B^2(s) ds_{n-2}^2, after rescaling the ambient metric by cot^2(r0).

The boundary curve in the (t, x) hemisphere is the geodesic circle of
spherical radius r0 centred on the t = 0 circle; its latitude as a function
of unrescaled arc length has the closed form arcsin(sin r0 * sin(s/sin r0)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grids import DEFAULT_POINTS
from .paramgen import ParamSet

def t_of_s(r0: float, s):
    """Latitude of the boundary curve at unrescaled arc length s in
    [0, pi*sin(r0)]."""
    sr = math.sin(r0)
    a = np.asarray(s, dtype=float)
    scalar = a.ndim == 0
    if np.any(a < -1e-12) or np.any(a > math.pi * sr + 1e-12):
        raise DomainError(f"s outside [0, pi*sin(r0)]: {s!r}")
    a = np.clip(a, 0.0, math.pi * sr)
    out = np.arcsin(sr * np.sin(a / sr))
    return float(out) if scalar else out


@dataclass(frozen=True)
class BoundaryMetric:
    """Sampled rescaled boundary metric with its pole distance and waist
    parameters and the lower endpoint of the admissible rho interval."""

    r0: float
    n: int
    omega: float
    tau: float
    samples: np.ndarray  # columns: s, B, B', B'' (rescaled arc length)
    rho_lo: float

    def rho_default(self) -> float:
        """Midpoint of the admissible interval, for reporting."""
        return 0.5 * sum(rho_interval(self))


def warp_jet(profile, r0: float, s):
    """``(B, B', B'')`` of the rescaled boundary warping B = cot(r0) R(t) at
    rescaled arc length s in [0, L], L = pi cos r0, from one profile jet. In
    u = s tan r0, with sigma = u / sin r0, t = arcsin(sin r0 sin sigma) has
    t' = cos sigma / cos t and t'' = sin sigma (sin r0 cos^2 sigma - cos^2 t
    / sin r0) / cos^3 t, so B' = R' t' and B'' = tan r0 (R'' t'^2 + R' t'').
    The far half is read at its mirror point L - s, with B' negated."""
    sr, tan_r0 = math.sin(r0), math.tan(r0)
    length = math.pi * math.cos(r0)
    s = np.asarray(s, dtype=float)
    far = s > 0.5 * length
    u = np.where(far, length - s, s) * tan_r0
    t = t_of_s(r0, u)
    sigma = u / sr
    cos_s, cos_t = np.cos(sigma), np.cos(t)
    t1 = cos_s / cos_t
    t2 = np.sin(sigma) * (sr * cos_s**2 - cos_t**2 / sr) / cos_t**3
    R, R1, R2 = profile.jet(t)
    B1 = R1 * t1
    return ((1.0 / tan_r0) * R, np.where(far, -B1, B1),
            tan_r0 * (R2 * t1**2 + R1 * t2))


def boundary_metric(profile, params: ParamSet,
                    points: int = DEFAULT_POINTS) -> BoundaryMetric:
    """Sample the rescaled boundary warping at ``points`` arc-length values
    over its full pole-to-pole range and fill the closed-form waist, pole
    distance, and lower rho endpoint."""
    r0, n = params.r0, params.n
    omega = math.cos(r0)
    s = np.linspace(0.0, math.pi * omega, points)
    tau = (1.0 / math.tan(r0)) * float(profile.jet(r0)[0])
    rho_lo = tau ** ((n - 2) / (n - 1))
    return BoundaryMetric(
        r0=r0, n=n, omega=omega, tau=tau,
        samples=np.column_stack([s, *warp_jet(profile, r0, s)]),
        rho_lo=rho_lo,
    )


def rho_interval(bm: BoundaryMetric):
    """Admissible interval for the gluing radius parameter: the lower end is
    the waist power tau^((n-2)/(n-1)), the upper end min(omega, 1/2). The
    report judges its non-emptiness (``rho_interval_nonempty``), the
    arithmetic the final assembly rests on."""
    if bm.n < 3:
        raise DomainError(f"n = {bm.n!r} must be >= 3")
    return bm.rho_lo, min(bm.omega, 0.5)
