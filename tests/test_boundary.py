import math
from dataclasses import fields

import mpmath
import numpy as np
import pytest

from ricci_forge import (
    BoundaryMetric,
    DomainError,
    boundary_metric,
    rho_interval,
    t_of_s,
)
from ricci_forge.boundary import warp_jet


def _arc_length_oracle(r0, nodes=512):
    """Length of the boundary curve in the (t, x) hemisphere, integrating
    sqrt(t'^2 + cos^2(t) x'^2) along the embedded circle parametrisation
    with finite-difference derivatives."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    phi = 0.5 * math.pi * (x + 1.0)
    weights = 0.5 * math.pi * w

    def coords(ph):
        t = np.arcsin(math.sin(r0) * np.sin(ph))
        lon = np.arctan2(math.sin(r0) * np.cos(ph), math.cos(r0))
        return t, lon

    h = 1e-7
    tp, xp = coords(phi + h)
    tm, xm = coords(phi - h)
    dt = (tp - tm) / (2 * h)
    dx = (xp - xm) / (2 * h)
    t, _ = coords(phi)
    speed = np.sqrt(dt**2 + np.cos(t) ** 2 * dx**2)
    return float(np.sum(weights * speed))


def test_t_of_s_endpoints_and_apex(params33):
    r0 = params33.r0
    length = math.pi * math.sin(r0)
    assert t_of_s(r0, 0.0) == 0.0
    assert t_of_s(r0, length) == pytest.approx(0.0, abs=1e-12)
    assert t_of_s(r0, length / 2.0) == pytest.approx(r0, rel=1e-12)


def test_t_of_s_domain(params33):
    r0 = params33.r0
    with pytest.raises(DomainError):
        t_of_s(r0, -0.01)
    with pytest.raises(DomainError):
        t_of_s(r0, math.pi * math.sin(r0) + 0.01)


def test_unrescaled_pole_distance_oracle(params33):
    r0 = params33.r0
    assert _arc_length_oracle(r0) == pytest.approx(math.pi * math.sin(r0), abs=1e-8)


@pytest.fixture(scope="module")
def bm33(profile33, params33):
    return boundary_metric(profile33, params33, 10_000)


def test_waist_closed_form(params33, bm33):
    p = params33
    expected = p.R0 / math.tan(p.r0) * math.sin(p.r0 + p.shift)
    assert bm33.tau == pytest.approx(expected, rel=1e-14)
    assert bm33.tau < p.R0
    assert bm33.omega == math.cos(p.r0)
    assert bm33.omega < 1.0


def test_waist_matches_sampled_maximum(params33, bm33):
    s, B = bm33.samples[:, 0], bm33.samples[:, 1]
    i = int(np.argmax(B))
    assert abs(float(B[i]) - bm33.tau) < 1e-6
    # attained at the apex of the arc
    assert s[i] == pytest.approx(0.5 * math.pi * math.cos(params33.r0), abs=1e-3)


def test_smooth_closure_at_poles(bm33):
    s, B, d1, d2 = (bm33.samples[:, j] for j in range(4))
    # the chain rule on the profile's jet at t = 0: exactly (0, 1, 0), with
    # B'' a +0.0 that the CSV prints as 0
    assert (B[0], d1[0], d2[0]) == (0.0, 1.0, 0.0)
    assert math.copysign(1.0, d2[0]) == 1.0
    # the boundary is symmetric about its apex: the far pole is the near
    # pole mirrored, exactly
    assert (B[-1], d1[-1], d2[-1]) == (B[0], -d1[0], d2[0])


class _JetCounter:
    def __init__(self, profile):
        self.profile, self.calls, self.points = profile, 0, 0

    def jet(self, t):
        self.calls += 1
        self.points += np.size(t)
        return self.profile.jet(t)


def test_boundary_metric_reads_one_jet_per_sample(profile33, params33):
    # one jet for the samples and one at r0 for the waist tau
    counter = _JetCounter(profile33)
    bm = boundary_metric(counter, params33, 1_000)
    assert (counter.calls, counter.points) == (2, 1_001)
    assert bm.samples.tobytes() == boundary_metric(profile33, params33, 1_000).samples.tobytes()


def _mp_piece_warps(params, bridge):
    """B(s) = cot(r0) R(t(s)) in extended precision for each piece's formula
    of R; on the boundary t <= r0, where the taper of the outer piece is 1."""
    mp = mpmath.mp
    r0, psi, b = mp.mpf(params.r0), mp.mpf(params.psi), mp.mpf(params.t_cut)
    dth, q = mp.mpf(bridge.dtheta_b), mp.mpf(bridge.q)

    def inner(t):
        return r0 / 2 * mp.sin(2 * t / r0)

    def bridged(t):
        return inner(t) + dth * (b - psi) / (q + 1) * ((t - psi) / (b - psi)) ** (q + 1)

    def outer(t):
        return mp.mpf(params.R0) * mp.sin(t + mp.mpf(params.shift))

    def warp(piece):
        return lambda s: mp.cot(r0) * piece(mp.asin(mp.sin(r0) * mp.sin(s / mp.cos(r0))))

    return {"inner": warp(inner), "bridge": warp(bridged), "outer": warp(outer)}


def test_chain_rule_matches_extended_precision_piece_formulas(params33, bridge33,
                                                              profile33):
    p = params33
    fracs = np.linspace(0.05, 0.95, 7)
    ts = {"inner": p.psi * fracs,
          "bridge": p.psi + (p.t_cut - p.psi) * fracs,
          "outer": p.t_cut + (0.95 * p.r0 - p.t_cut) * fracs}
    length = math.pi * math.cos(p.r0)
    warps = _mp_piece_warps(p, bridge33)
    checked = 0
    with mpmath.workdps(50):
        for piece, t in ts.items():
            s_near = math.cos(p.r0) * np.arcsin(np.sin(t) / math.sin(p.r0))
            # the far half is read from the far pole
            for s, sign in ((s_near, 1.0), (length - s_near[::3], -1.0)):
                _, d1, d2 = warp_jet(profile33, p.r0, s)
                for si, got1, got2 in zip(s, d1, d2):
                    at = mpmath.mpf(float(length - si) if sign < 0 else float(si))
                    want1 = sign * float(mpmath.diff(warps[piece], at, 1))
                    want2 = float(mpmath.diff(warps[piece], at, 2))
                    assert got1 == pytest.approx(want1, rel=1e-10), (piece, si)
                    assert got2 == pytest.approx(want2, rel=1e-10), (piece, si)
                    checked += 1
    assert checked >= 20


def _central_differences(profile, r0, s):
    """The former route to B' and B'': central differences of B with step
    1e-5 cos(r0), three profile jets per sample."""
    tan_r0 = math.tan(r0)
    h = 1e-5 * math.cos(r0)

    def B(x):
        u = np.clip(x * tan_r0, 0.0, math.pi * math.sin(r0))
        return profile.jet(t_of_s(r0, u))[0] / tan_r0

    vp, v, vm = B(s + h), B(s), B(s - h)
    return (vp - vm) / (2.0 * h), (vp - 2.0 * v + vm) / h**2


def test_chain_rule_matches_central_differences(params33, profile33, bm33):
    p = params33
    s, d1, d2 = (bm33.samples[1:-1, j] for j in (0, 2, 3))
    length = math.pi * math.cos(p.r0)
    far = s > 0.5 * length
    # read at the mirror point on the far half, as the samples are: there
    # the stencil's B, through sin(sigma) near pi, loses up to 5.7e-4 of B''
    near_s = np.where(far, length - s, s)
    fd1, fd2 = _central_differences(profile33, p.r0, near_s)
    fd1 = np.where(far, -fd1, fd1)
    # next to the image of psi, theta'' ~ u^(q - 1) gives the stencil a
    # truncation error of 1.4e-4 in B''; next to that of b it straddles the
    # jump in R''
    images = [math.cos(p.r0) * math.asin(math.sin(t) / math.sin(p.r0))
              for t in (p.psi, p.t_cut)]
    clear = np.min(np.abs(near_s[:, None] - np.array(images)), axis=1) > 5e-4
    assert np.count_nonzero(~clear) <= 8
    for got, want in ((d1, fd1), (d2, fd2)):
        assert np.allclose(got[clear], want[clear], rtol=1e-4, atol=0.0)


def test_rescaled_boundary_sectional_above_one(bm33):
    s, B, d1, d2 = (bm33.samples[:, j] for j in range(4))
    length = s[-1]
    interior = (s > 0.05 * length) & (s < 0.95 * length)
    k_rad = -d2[interior] / B[interior]
    k_tan = (1.0 - d1[interior] ** 2) / B[interior] ** 2
    assert np.min(k_rad) > 1.0
    assert np.min(k_tan) > 1.0


def test_rho_interval_values(params33, bm33):
    lo, hi = rho_interval(bm33, params33.n)
    assert lo == math.sqrt(bm33.tau)  # exponent 1/2 at n = 3
    assert hi == 0.5  # omega = cos(r0) > 1/2 for this radius
    assert lo < hi


def test_rho_chain_links(params33, bm33):
    tau, R0 = bm33.tau, params33.R0
    for n in (3, 5, 7, 9, 11, 13):
        lo = tau ** ((n - 2) / (n - 1))
        assert lo <= math.sqrt(tau) < math.sqrt(R0) <= 1.0 / math.sqrt(10.0) < 0.5
    # the lower endpoint is non-increasing in the dimension
    los = [tau ** ((n - 2) / (n - 1)) for n in range(3, 14)]
    assert all(a >= b for a, b in zip(los, los[1:]))


def test_rho_interval_empty_is_returned():
    # rho_interval measures; the report judges emptiness (rho_interval_nonempty)
    fake = BoundaryMetric(r0=0.06, omega=0.5, tau=0.9, samples=np.zeros((4, 4)))
    assert rho_interval(fake, 3) == (math.sqrt(0.9), 0.5)


def test_boundary_metric_rho_fields(params33, bm33):
    # the boundary metric holds no n; rho_interval reads it
    assert [f.name for f in fields(bm33)] == ["r0", "omega", "tau", "samples"]
    n = params33.n
    assert rho_interval(bm33, n)[0] == bm33.tau ** ((n - 2) / (n - 1))


def test_rho_interval_reads_n(bm33):
    for n in range(3, 14):
        lo, hi = rho_interval(bm33, n)
        assert lo.hex() == (bm33.tau ** ((n - 2) / (n - 1))).hex(), n
        assert hi == min(bm33.omega, 0.5)
    with pytest.raises(DomainError) as err:
        rho_interval(bm33, 2)
    assert err.value.clause == "Proposition 1.12 (n >= 3)"
