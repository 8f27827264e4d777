"""Warping profile construction.

Three stages: a concave power-law bridge joining the small-sphere piece
(r0/2)sin(2t/r0) to the squashed piece R0*sin(t + shift*gamma(t/r0 - 1));
the C1 profile assembled from the three pieces; and a smoothed profile
obtained by kernel-mollifying the first derivative inside two narrow
windows next to the junctions, with a-posteriori verification and
automatic shrinking of the kernel width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bumps import BumpFunction, _as_array, _wrap, build_gamma, bump01_d1, bump01_value
from .errors import CertificationError, ConfigurationError, DomainError
from .grids import open_grid
from .paramgen import ParamSet, star_margin, theta_boundary_values

__all__ = [
    "BridgeTheta", "ProfileC1", "SmoothProfile",
    "build_gamma", "build_bridge_theta", "smooth_profile",
    "validate_c1", "validate_smooth",
]

T_MAX = math.pi / 2
DOMAIN_PAD = 1e-3  # finite-difference probes may step slightly past pi/2
JOIN_TOL = 1e-9


def _check_domain(t):
    if np.any(t < -1e-12) or np.any(t > T_MAX + DOMAIN_PAD):
        raise DomainError(f"t outside [0, pi/2]: {t!r}")


# ---------------------------------------------------------------------------
# Concave bridge
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BridgeTheta:
    """Concave correction theta on [psi, b] with theta(psi) = theta'(psi) = 0
    and prescribed negative value/slope at b.

    theta'(t) = dtheta_b * u^q with u = (t - psi)/(b - psi); the exponent is
    pinned by the boundary data and is positive exactly when a concave
    bridge exists.
    """

    psi: float
    b: float
    theta_b: float
    dtheta_b: float
    q: float

    def _u(self, t):
        return np.clip((np.asarray(t, dtype=float) - self.psi) / (self.b - self.psi),
                       0.0, None)

    def value(self, t):
        t, scalar = _as_array(t)
        u = self._u(t)
        out = (self.dtheta_b * (self.b - self.psi) / (self.q + 1.0)) * u ** (self.q + 1.0)
        return _wrap(out, scalar)

    def d1(self, t):
        t, scalar = _as_array(t)
        out = self.dtheta_b * self._u(t) ** self.q
        return _wrap(out, scalar)

    def d2(self, t):
        t, scalar = _as_array(t)
        u = self._u(t)
        with np.errstate(divide="ignore", over="ignore"):
            out = (self.dtheta_b * self.q / (self.b - self.psi)) * u ** (self.q - 1.0)
        return _wrap(out, scalar)


def build_bridge_theta(params: ParamSet) -> BridgeTheta:
    """Bridge with boundary data pinned by the cascade; fails when the
    chord-slope inequality does not hold at psi."""
    theta_b, dtheta_b = theta_boundary_values(
        params.R0, params.kappa, params.zeta, params.r0
    )
    b = params.t_cut
    q = dtheta_b * (b - params.psi) / theta_b - 1.0
    if not q > 0.0:
        raise CertificationError(
            f"bridge exponent q = {q!r} not positive; chord-slope margin "
            f"{star_margin(params.R0, params.kappa, params.zeta, params.r0, params.psi)!r}",
            check="Lemma 2.9 (*)",
        )
    return BridgeTheta(psi=params.psi, b=b, theta_b=theta_b,
                       dtheta_b=dtheta_b, q=q)


# ---------------------------------------------------------------------------
# C1 profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileC1:
    """Piecewise profile on [0, pi/2]: small-sphere piece up to psi, bridged
    sine on (psi, b), tapered squashed sine from b on."""

    params: ParamSet
    bump: BumpFunction
    bridge: BridgeTheta

    # piece evaluators -----------------------------------------------------

    def inner_eval(self, t, order: int = 0):
        r0 = self.params.r0
        t = np.asarray(t, dtype=float)
        if order == 0:
            return (r0 / 2.0) * np.sin(2.0 * t / r0)
        if order == 1:
            return np.cos(2.0 * t / r0)
        return -(2.0 / r0) * np.sin(2.0 * t / r0)

    def bridge_eval(self, t, order: int = 0):
        base = self.inner_eval(t, order)
        th = (self.bridge.value, self.bridge.d1, self.bridge.d2)[order]
        return base + th(t)

    def outer_eval(self, t, order: int = 0):
        p = self.params
        t = np.asarray(t, dtype=float)
        x = t / p.r0 - 1.0
        a = t + p.shift * self.bump.value(x)
        if order == 0:
            return p.R0 * np.sin(a)
        a1 = 1.0 + (p.shift / p.r0) * self.bump.d1(x)
        if order == 1:
            return p.R0 * np.cos(a) * a1
        a2 = (p.shift / p.r0**2) * self.bump.d2(x)
        return -p.R0 * np.sin(a) * a1**2 + p.R0 * np.cos(a) * a2

    def _eval(self, t, order: int):
        t, scalar = _as_array(t)
        _check_domain(t)
        out = np.empty_like(t)
        psi, b = self.params.psi, self.params.t_cut
        m_in = t <= psi
        m_br = (t > psi) & (t < b)
        m_out = t >= b
        if np.any(m_in):
            out[m_in] = self.inner_eval(t[m_in], order)
        if np.any(m_br):
            out[m_br] = self.bridge_eval(t[m_br], order)
        if np.any(m_out):
            out[m_out] = self.outer_eval(t[m_out], order)
        return _wrap(out, scalar)

    def value(self, t):
        return self._eval(t, 0)

    def d1(self, t):
        return self._eval(t, 1)

    def d2(self, t):
        return self._eval(t, 2)

    @property
    def zero_limits(self):
        """Limits at t -> 0+ of (-R''/R, (1 - R'^2)/R^2)."""
        lim = 4.0 / self.params.r0**2
        return lim, lim

    def junction_gaps(self):
        """Value and slope mismatches of adjacent pieces at both junctions."""
        psi, b = self.params.psi, self.params.t_cut
        return {
            ("psi", 0): abs(float(self.inner_eval(psi, 0) - self.bridge_eval(psi, 0))),
            ("psi", 1): abs(float(self.inner_eval(psi, 1) - self.bridge_eval(psi, 1))),
            ("cut", 0): abs(float(self.bridge_eval(b, 0) - self.outer_eval(b, 0))),
            ("cut", 1): abs(float(self.bridge_eval(b, 1) - self.outer_eval(b, 1))),
        }


def validate_c1(profile: ProfileC1, points: int = 10_000) -> dict:
    """Margins for the C1-profile clauses; every entry is (margin, at)."""
    p = profile.params
    psi, b = p.psi, p.t_cut
    gaps = profile.junction_gaps()
    margins = {
        "c1_join_inner": (JOIN_TOL - max(gaps[("psi", 0)], gaps[("psi", 1)]), psi),
        "c1_join_outer": (JOIN_TOL - max(gaps[("cut", 0)], gaps[("cut", 1)]), b),
    }

    ts = open_grid(psi, b, points, open_lo=True, open_hi=True)
    ratio = -profile.bridge_eval(ts, 2) / profile.bridge_eval(ts, 0)
    vals = ratio - 4.0 / p.r0**2
    i = int(np.argmin(vals))
    margins["lemma_2_9_iii"] = (float(vals[i]), float(ts[i]))

    ts = open_grid(b, T_MAX, points, open_lo=True)
    vals = -profile.outer_eval(ts, 2)
    i = int(np.argmin(vals))
    margins["lemma_2_10"] = (float(vals[i]), float(ts[i]))

    ts = open_grid(0.0, T_MAX, points, open_lo=True)
    vals = profile.value(ts)
    i = int(np.argmin(vals))
    margins["positivity"] = (float(vals[i]), float(ts[i]))
    return margins


# ---------------------------------------------------------------------------
# Smoothing windows
# ---------------------------------------------------------------------------

_KERNEL_NODES = 24
_COMP_NODES = 96
_PARTIAL_NODES = 12
# Mollifier mismatches below this are double-precision rounding noise, not
# signal; they are treated as zero so the steep blending weight (slope of
# order 1/mu) cannot amplify them into spurious second-derivative error.
_NOISE_FLOOR = 1e-12


@lru_cache(maxsize=None)
def _gl(n):
    return np.polynomial.legendre.leggauss(n)


def _gl_on(lo, hi, n):
    x, w = _gl(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), w * half


class _Window:
    """One smoothing window: a blending bump supported on (lo, hi) applied to
    the mollified first derivative, plus a compensator that restores the
    integral so the profile is untouched past the window."""

    def __init__(self, base: ProfileC1, lo: float, hi: float, width: float):
        self.base = base
        self.lo = float(lo)
        self.hi = float(hi)
        self.width = float(width)
        kx, kw = _gl(_KERNEL_NODES)
        kv = np.exp(-1.0 / (1.0 - kx**2))
        kw = kw * kv
        self._knodes = kx
        self._kweights = kw / kw.sum()
        qx, qw = _gl_on(self.lo, self.hi, _COMP_NODES)
        self._chi_mass = float(np.sum(qw * self._chi(qx)))
        self._comp = float(np.sum(qw * self._raw_delta(qx))) / self._chi_mass

    def _chi(self, t):
        return bump01_value((np.asarray(t, float) - self.lo) / (self.hi - self.lo))

    def _chi_d1(self, t):
        span = self.hi - self.lo
        return bump01_d1((np.asarray(t, float) - self.lo) / span) / span

    def _mollified(self, t, order: int):
        t = np.asarray(t, dtype=float)
        probe = t[:, None] - self.width * self._knodes[None, :]
        vals = self.base._eval(probe.ravel(), order).reshape(probe.shape)
        return vals @ self._kweights

    def _mismatch(self, t, order: int):
        t = np.asarray(t, dtype=float)
        d = self._mollified(t, order) - self.base._eval(t, order)
        d[np.abs(d) <= _NOISE_FLOOR] = 0.0
        return d

    def _raw_delta(self, t):
        t = np.asarray(t, dtype=float)
        return self._chi(t) * self._mismatch(t, 1)

    def delta_d1(self, t):
        """Correction added to the first derivative inside the window."""
        t = np.asarray(t, dtype=float)
        return self._raw_delta(t) - self._comp * self._chi(t)

    def delta_d2(self, t):
        t = np.asarray(t, dtype=float)
        return (self._chi_d1(t) * self._mismatch(t, 1)
                + self._chi(t) * self._mismatch(t, 2)
                - self._comp * self._chi_d1(t))

    def delta_value(self, t):
        """Running integral of the correction from the window start."""
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        m = (t > self.lo) & (t < self.hi)
        if not np.any(m):
            return out
        tm = t[m]
        gx, gw = _gl(_PARTIAL_NODES)
        half = 0.5 * (tm - self.lo)
        nodes = self.lo + half[:, None] * (gx[None, :] + 1.0)
        weights = half[:, None] * gw[None, :]
        vals = self.delta_d1(nodes.ravel()).reshape(nodes.shape)
        out[m] = np.sum(weights * vals, axis=1)
        return out


@dataclass(frozen=True)
class SmoothProfile:
    """C1 profile with kernel-smoothed junction windows.

    Outside the two windows the evaluators agree with the underlying C1
    profile exactly; the accepted kernel width is the first one for which
    every smoothing clause verifies on its grid.
    """

    base: ProfileC1
    mu: float
    windows: tuple
    smoothing_report: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def params(self) -> ParamSet:
        return self.base.params

    def _with_corrections(self, t, order: int):
        t, scalar = _as_array(t)
        out = np.array(self.base._eval(t, order), dtype=float, copy=True)
        if out.ndim == 0:
            out = out[None]
            t = t[None]
            squeeze = True
        else:
            squeeze = False
        fns = {0: "delta_value", 1: "delta_d1", 2: "delta_d2"}
        for win in self.windows:
            m = (t > win.lo) & (t < win.hi)
            if np.any(m):
                out[m] += getattr(win, fns[order])(t[m])
        if squeeze:
            out = out[0]
        return _wrap(out, scalar)

    def value(self, t):
        return self._with_corrections(t, 0)

    def d1(self, t):
        return self._with_corrections(t, 1)

    def d2(self, t):
        return self._with_corrections(t, 2)

    @property
    def zero_limits(self):
        return self.base.zero_limits


def _window_grid(lo, hi, points=1_000):
    return open_grid(lo, hi, points, open_lo=True, open_hi=True)


def _min_at(ts, vals):
    i = int(np.argmin(vals))
    return float(vals[i]), float(ts[i])


def _mask_out(ts, spans):
    keep = np.ones(ts.shape, dtype=bool)
    for lo, hi in spans:
        keep &= ~((ts > lo) & (ts < hi))
    return ts[keep]


def _global_margins(base: ProfileC1, mu: float, points: int, spans) -> dict:
    """Smoothing-clause margins on grids outside the correction windows.

    Window interiors are excluded here and scrutinised separately, so these
    margins do not depend on the kernel width at all.
    """
    p = base.params
    b, r0 = p.t_cut, p.r0
    margins = {}

    # the junction t = r0^2/kappa itself belongs to the outer piece; the
    # concavity clause below constrains the profile approaching it from the
    # left, so the grid stays strictly below it
    ts = _mask_out(open_grid(0.0, b, points, open_lo=True, open_hi=True), spans)
    ratio = -base.d2(ts) / base.value(ts)
    margins["lemma_2_13_a"] = _min_at(ts, ratio - 2.0 / r0**2)

    ts = _mask_out(open_grid(0.0, T_MAX, points, open_lo=True), spans)
    margins["corollary_2_14_concavity"] = _min_at(ts, -base.d2(ts))

    ts = _mask_out(np.linspace(b, r0, points), spans)
    ratio = -base.d2(ts) / base.value(ts)
    margins["corollary_2_14_ratio"] = _min_at(ts, ratio - (1.0 - mu))

    # Inside the windows the slope bound follows from the drift clause plus
    # the base profile's own margin; its direct gap there scales like t^2
    # and sits below double resolution, so windows are not scrutinised here.
    ts = _mask_out(open_grid(0.0, r0, points, open_lo=True), spans)
    margins["lemma_2_15"] = _min_at(
        ts, 1.0 - (base.d1(ts) / base.value(ts)) * np.tan(ts))

    ts = _mask_out(np.linspace(0.0, r0, points), spans)
    margins["profile_le_sin"] = _min_at(ts, np.sin(ts) - base.value(ts))
    return margins


def _window_margins(sp: SmoothProfile, window_points: int = 1_000) -> dict:
    """Smoothing-clause margins on grids inside the correction windows."""
    p = sp.params
    mu = sp.mu
    b, r0 = p.t_cut, p.r0
    gA = _window_grid(p.psi - mu, p.psi, window_points)
    gB = _window_grid(b, b + mu, window_points)
    margins = {}

    ratio = -sp.d2(gA) / sp.value(gA)
    margins["lemma_2_13_a"] = _min_at(gA, ratio - 2.0 / r0**2)

    ts = np.concatenate([np.linspace(b, b + mu, 1_001), gB])
    ratio = -sp.d2(ts) / sp.value(ts)
    margins["lemma_2_13_b"] = _min_at(ts, ratio - (1.0 - mu))

    ts = np.concatenate([gA, gB])
    drift = np.abs(sp.d1(ts) / sp.value(ts) - sp.base.d1(ts) / sp.base.value(ts))
    i = int(np.argmax(drift))
    margins["lemma_2_13_c"] = (mu - float(drift[i]), float(ts[i]))

    margins["corollary_2_14_concavity"] = _min_at(ts, -sp.d2(ts))

    ratio = -sp.d2(gB) / sp.value(gB)
    margins["corollary_2_14_ratio"] = _min_at(gB, ratio - (1.0 - mu))
    return margins


def _merge_margins(global_m: dict, window_m: dict) -> dict:
    merged = dict(global_m)
    for name, pair in window_m.items():
        merged[name] = min(merged.get(name, pair), pair, key=lambda mp: mp[0])
    return merged


def validate_smooth(sp: SmoothProfile, points: int = 10_000,
                    window_points: int = 1_000) -> dict:
    """Margins for the smoothing clauses; every entry is (margin, at)."""
    spans = tuple((w.lo, w.hi) for w in sp.windows)
    return _merge_margins(_global_margins(sp.base, sp.mu, points, spans),
                          _window_margins(sp, window_points))


_NONNEG_SMOOTH = frozenset({"profile_le_sin"})


def _margins_pass(margins: dict) -> bool:
    return all(
        (m >= 0.0 if name in _NONNEG_SMOOTH else m > 0.0)
        for name, (m, _) in margins.items()
    )


def smooth_profile(base: ProfileC1, mu: float, points: int = 10_000,
                   max_retries: int = 40) -> SmoothProfile:
    """Smooth the junction windows by mollifying the first derivative,
    halving the kernel width until every clause verifies."""
    p = base.params
    if not 0.0 < mu < p.mu0:
        raise ConfigurationError(
            f"mu = {mu!r} outside (0, mu0) with mu0 = {p.mu0!r} "
            "(Lemma 2.13 requires mu in (0, mu0))",
            clause="Lemma 2.13 (mu in (0, mu0))",
        )
    spans = ((p.psi - mu, p.psi), (p.t_cut, p.t_cut + mu))
    global_m = _global_margins(base, mu, points, spans)
    width = mu / 4.0
    margins = global_m
    for attempt in range(max_retries + 1):
        windows = tuple(_Window(base, lo, hi, width) for lo, hi in spans)
        sp = SmoothProfile(base=base, mu=mu, windows=windows)
        margins = _merge_margins(global_m, _window_margins(sp))
        if _margins_pass(margins):
            report = {"kernel_width": width, "attempts": attempt + 1}
            report.update(margins)
            return SmoothProfile(base=base, mu=mu, windows=windows,
                                 smoothing_report=report)
        width *= 0.5
    worst = min(margins, key=lambda k: margins[k][0])
    raise CertificationError(
        f"smoothing failed after {max_retries} width halvings; worst clause "
        f"{worst} with margin {margins[worst][0]!r} at t = {margins[worst][1]!r}",
        check=worst, margins=margins,
    )
