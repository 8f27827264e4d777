"""Smooth cut-off machinery: a C-infinity unit step and the slow decay
function used to taper the outer warping piece."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError


def _as_array(x):
    a = np.asarray(x, dtype=float)
    return a, a.ndim == 0


def _wrap(a, scalar):
    return float(a) if scalar else a


# ---------------------------------------------------------------------------
# C-infinity unit step S: S(u) = 1 for u <= 0, S(u) = 0 for u >= 1, monotone.
# Built from h(u) = exp(-1/u); all derivatives vanish at both ends.
# ---------------------------------------------------------------------------

def _exp_pair(u):
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        e1 = np.exp(-1.0 / u)
        e2 = np.exp(-1.0 / (1.0 - u))
    return e1, e2


def step_jet(u):
    """``(S, S', S'')`` at u, from one evaluation of the exponential pair."""
    u, scalar = _as_array(u)
    s0 = np.where(u <= 0.0, 1.0, 0.0)
    s1 = np.zeros_like(u)
    s2 = np.zeros_like(u)
    m = (u > 0.0) & (u < 1.0)
    if np.any(m):
        # below u = 1e-3 exp(-1/u) underflows to 0 and the jet is its limit
        # from the right, (1, -0, -0), which the quotients below also give at
        # 1e-3; unclamped, they divide by powers of u that underflow or
        # overflow below u of about 1e-77
        uu = np.maximum(u[m], 1e-3)
        e1, e2 = _exp_pair(uu)
        p = e1 / uu**2
        q = -e2 / (1.0 - uu) ** 2
        pp = e1 * (1.0 / uu**4 - 2.0 / uu**3)
        qq = e2 * (1.0 / (1.0 - uu) ** 4 - 2.0 / (1.0 - uu) ** 3)
        den = e1 + e2
        dden = p + q
        num = q * e1 - e2 * p
        dnum = qq * e1 - e2 * pp
        s0[m] = e2 / den
        s1[m] = num / den**2
        s2[m] = dnum / den**2 - 2.0 * num * dden / den**3
    return tuple(_wrap(a, scalar) for a in (s0, s1, s2))


@lru_cache(maxsize=None)
def step_derivative_sups():
    """Suprema of |S'| and |S''| on [0, 1], each with the u where it is
    attained: ``((s1, u1), (s2, u2))``. The first maximum of each on a grid
    of spacing 1e-5, found from every 100th point and then every point
    within one coarse cell of a coarse local maximum (|S''| has twin peaks),
    brackets its peak, and 2,001 points across the bracket (spacing 1e-8)
    locate it. The peaks are interior, since every derivative of S vanishes
    at 0 and 1."""
    g = np.linspace(0.0, 1.0, 100_001)
    coarse = step_jet(g[::100])
    sups = []
    for k in (1, 2):
        a = np.abs(coarse[k])
        near = np.zeros(g.size, dtype=bool)
        for c in 1 + np.flatnonzero((a[1:-1] >= a[:-2]) & (a[1:-1] >= a[2:])):
            near[100 * (c - 1):100 * (c + 1) + 1] = True
        idx = np.flatnonzero(near)
        i = int(idx[np.argmax(np.abs(step_jet(g[idx])[k]))])
        fine = np.linspace(g[i - 1], g[i + 1], 2_001)
        vals = np.abs(step_jet(fine)[k])
        j = int(np.argmax(vals))
        sups.append((float(vals[j]), float(fine[j])))
    return tuple(sups)


# ---------------------------------------------------------------------------
# Tapering function: value 1 for x <= 0, 0 for x >= Lambda, with first and
# second derivative suprema strictly below the squashing factor.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BumpFunction:
    """Monotone C-infinity taper gamma with gamma(x)=1 for x<=0 and
    gamma(x)=0 for x>=Lambda."""

    Lambda: float

    def jet(self, x):
        """``(gamma, gamma', gamma'')`` at x: the unit step's jet at
        x/Lambda scaled by 1/Lambda^k."""
        x, scalar = _as_array(x)
        s0, s1, s2 = step_jet(x / self.Lambda)
        return tuple(_wrap(a, scalar) for a in
                     (s0, s1 / self.Lambda, s2 / self.Lambda**2))

    def derivative_sups(self):
        """``((sup|gamma'|, x1), (sup|gamma''|, x2))`` with the x attaining
        each: gamma(x) = S(x/Lambda) scales the unit step's by 1/Lambda^k."""
        (s1, u1), (s2, u2) = step_derivative_sups()
        lam = self.Lambda
        return (s1 / lam, lam * u1), (s2 / lam**2, lam * u2)


def build_gamma(R0: float, Lambda: float | None = None) -> BumpFunction:
    """Construct the taper for a given squashing factor.

    The support length defaults to the smallest value (with 10% headroom)
    that keeps both derivative suprema below R0; an explicit ``Lambda`` is
    validated against the same bounds.
    """
    if not 0.0 < R0 <= 0.1:
        raise ConfigurationError(
            f"R0 = {R0!r} outside (0, 1/10] (Definition 2.1(a))",
            clause="Definition 2.1(a)",
        )
    (s1, _), (s2, _) = step_derivative_sups()
    if Lambda is None:
        Lambda = max(1.0 / R0 + 1.0, 1.1 * s1 / R0, 1.1 * math.sqrt(s2 / R0))
    if not Lambda > 1.0 / R0:
        raise ConfigurationError(
            f"Lambda = {Lambda!r} must exceed 1/R0 = {1.0 / R0!r} (Definition 2.7)",
            clause="Definition 2.7",
        )
    # the taper's second derivative divides by Lambda**2
    if not math.isfinite(Lambda * Lambda):
        raise ConfigurationError(
            f"Lambda = {Lambda!r} must be finite with a finite square "
            "(Definition 2.7)",
            clause="Definition 2.7",
        )
    gamma = BumpFunction(float(Lambda))
    (g1, _), (g2, _) = gamma.derivative_sups()
    if not (g1 < R0 and g2 < R0):
        raise ConfigurationError(
            f"taper derivative bounds violated: sup|gamma'| = {g1!r}, "
            f"sup|gamma''| = {g2!r}, limit R0 = {R0!r} (Definition 2.7)",
            clause="Definition 2.7",
        )
    return gamma
