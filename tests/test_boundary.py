import math

import numpy as np
import pytest

from ricci_forge import (
    BoundaryMetric,
    DomainError,
    boundary_metric,
    rho_interval,
    t_of_s,
)


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


def test_rescaled_boundary_sectional_above_one(bm33):
    s, B, d1, d2 = (bm33.samples[:, j] for j in range(4))
    length = s[-1]
    interior = (s > 0.05 * length) & (s < 0.95 * length)
    k_rad = -d2[interior] / B[interior]
    k_tan = (1.0 - d1[interior] ** 2) / B[interior] ** 2
    assert np.min(k_rad) > 1.0
    assert np.min(k_tan) > 1.0


def test_rho_interval_values(params33, bm33):
    lo, hi = rho_interval(bm33)
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
    fake = BoundaryMetric(r0=0.06, n=3, omega=0.5, tau=0.9,
                          samples=np.zeros((4, 4)), rho_lo=0.9486)
    assert rho_interval(fake) == (0.9486, 0.5)
    assert fake.rho_default() == 0.5 * (0.9486 + 0.5)


def test_boundary_metric_rho_fields(params33, bm33):
    n = params33.n
    assert bm33.rho_lo == bm33.tau ** ((n - 2) / (n - 1))
