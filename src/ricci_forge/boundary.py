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

from .errors import CertificationError, DomainError
from .paramgen import ParamSet

FD_STEP_FACTOR = 1e-5


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
        return 0.5 * (self.rho_lo + min(self.omega, 0.5))


def _rescaled_warp(profile, r0):
    cot_r0 = 1.0 / math.tan(r0)
    tan_r0 = math.tan(r0)
    s_max = math.pi * math.sin(r0)

    def B(s):
        unrescaled = np.clip(np.asarray(s, dtype=float) * tan_r0, 0.0, s_max)
        return cot_r0 * profile.jet(t_of_s(r0, unrescaled))[0]

    return B


def boundary_metric(profile, params: ParamSet, points: int = 10_000) -> BoundaryMetric:
    """Sample the rescaled boundary warping at ``points`` arc-length values
    over its full pole-to-pole range and fill the closed-form waist, pole
    distance, and lower rho endpoint."""
    r0, n = params.r0, params.n
    omega = math.cos(r0)
    length = math.pi * omega
    B = _rescaled_warp(profile, r0)
    s = np.linspace(0.0, length, points)
    h = FD_STEP_FACTOR * omega

    vals = B(s)
    d1 = np.empty_like(s)
    d2 = np.empty_like(s)
    inner = slice(1, -1)
    vp, vm = B(s[inner] + h), B(s[inner] - h)
    d1[inner] = (vp - vm) / (2.0 * h)
    d2[inner] = (vp - 2.0 * vals[inner] + vm) / h**2
    # The near pole by the chain rule on the profile's jet at t = 0: in the
    # unrescaled arc length t has slope 1 and curvature 0 there, so B' = R'(0)
    # and B'' = tan(r0) R''(0).
    _, r1, r2 = profile.jet(0.0)
    d1[0], d2[0] = r1, math.tan(r0) * r2
    # The boundary is symmetric about its apex, so the far pole is the near
    # one mirrored; a stencil there would read sin(pi) != 0 in floats.
    vals[-1], d1[-1], d2[-1] = vals[0], -d1[0], d2[0]

    tau = (1.0 / math.tan(r0)) * float(profile.jet(r0)[0])
    rho_lo = tau ** ((n - 2) / (n - 1))
    return BoundaryMetric(
        r0=r0, n=n, omega=omega, tau=tau,
        samples=np.column_stack([s, vals, d1, d2]),
        rho_lo=rho_lo,
    )


def rho_interval(bm: BoundaryMetric):
    """Admissible interval for the gluing radius parameter: the lower end is
    the waist power tau^((n-2)/(n-1)), the upper end min(omega, 1/2); its
    non-emptiness is the arithmetic the final assembly rests on."""
    if bm.n < 3:
        raise DomainError(f"n = {bm.n!r} must be >= 3")
    lo = bm.rho_lo
    hi = min(bm.omega, 0.5)
    if not lo < hi:
        raise CertificationError(
            f"rho interval empty: ({lo!r}, {hi!r}); contradicts the "
            "Proposition 1.12 arithmetic for valid parameters",
            check="Proposition 1.12 (rho interval)",
        )
    return lo, hi
