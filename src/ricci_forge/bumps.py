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


def step_value(u):
    u, scalar = _as_array(u)
    out = np.where(u <= 0.0, 1.0, 0.0)
    m = (u > 0.0) & (u < 1.0)
    if np.any(m):
        e1, e2 = _exp_pair(u[m])
        out[m] = e2 / (e1 + e2)
    return _wrap(out, scalar)


def step_d1(u):
    u, scalar = _as_array(u)
    out = np.zeros_like(u)
    m = (u > 0.0) & (u < 1.0)
    if np.any(m):
        uu = u[m]
        e1, e2 = _exp_pair(uu)
        p = e1 / uu**2
        q = -e2 / (1.0 - uu) ** 2
        den = e1 + e2
        out[m] = (q * e1 - e2 * p) / den**2
    return _wrap(out, scalar)


def step_d2(u):
    u, scalar = _as_array(u)
    out = np.zeros_like(u)
    m = (u > 0.0) & (u < 1.0)
    if np.any(m):
        uu = u[m]
        e1, e2 = _exp_pair(uu)
        p = e1 / uu**2
        q = -e2 / (1.0 - uu) ** 2
        pp = e1 * (1.0 / uu**4 - 2.0 / uu**3)
        qq = e2 * (1.0 / (1.0 - uu) ** 4 - 2.0 / (1.0 - uu) ** 3)
        den = e1 + e2
        dden = p + q
        num = q * e1 - e2 * p
        dnum = qq * e1 - e2 * pp
        out[m] = dnum / den**2 - 2.0 * num * dden / den**3
    return _wrap(out, scalar)


def _abs_peak(deriv):
    """(max |deriv|, argmax) on [0, 1]: a grid of spacing 1e-5 brackets the
    peak and 2,001 points across the bracket (spacing 1e-8) locate it. The
    peak is interior, since every derivative of S vanishes at 0 and 1."""
    g = np.linspace(0.0, 1.0, 100_001)
    i = int(np.argmax(np.abs(deriv(g))))
    g = np.linspace(g[i - 1], g[i + 1], 2_001)
    vals = np.abs(deriv(g))
    i = int(np.argmax(vals))
    return float(vals[i]), float(g[i])


@lru_cache(maxsize=None)
def step_derivative_sups():
    """Suprema of |S'| and |S''| on [0, 1], each with the u where it is
    attained: ``((s1, u1), (s2, u2))``."""
    return _abs_peak(step_d1), _abs_peak(step_d2)


# ---------------------------------------------------------------------------
# Tapering function: value 1 for x <= 0, 0 for x >= Lambda, with first and
# second derivative suprema strictly below the squashing factor.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BumpFunction:
    """Monotone C-infinity taper gamma with gamma(x)=1 for x<=0 and
    gamma(x)=0 for x>=Lambda."""

    Lambda: float

    def value(self, x):
        x, scalar = _as_array(x)
        return _wrap(step_value(x / self.Lambda), scalar)

    def d1(self, x):
        x, scalar = _as_array(x)
        return _wrap(step_d1(x / self.Lambda) / self.Lambda, scalar)

    def d2(self, x):
        x, scalar = _as_array(x)
        return _wrap(step_d2(x / self.Lambda) / self.Lambda**2, scalar)

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
