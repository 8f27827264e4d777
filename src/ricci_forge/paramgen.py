"""Selection and validation of the constant cascade that drives the
punctured-sphere construction.

The constants are chosen in the order R0, kappa, zeta, Lambda, r0, psi,
iota, mu0, mu; each choice is certified against the clause that constrains
it. The report and the exceptions carry the clause labels (for example
"Definition 2.1(c)" or "Lemma 2.12(iv)") so a failure always names the rule
it violated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .bumps import build_gamma
from .errors import CertificationError, ConfigurationError, DomainError
from .grids import open_grid

X_MAX = math.pi / 4
SCAN_POINTS = 10_000
BISECT_RTOL = 1e-8
SAFETY = 0.9

# psi is the largest dyadic fraction of r0^2/kappa keeping at least this
# share of the maximal chord-slope margin (the psi -> 0 limit).
PSI_RELATIVE_MARGIN = 1e-3
PSI_MAX_HALVINGS = 60

# A strict check passes when its margin exceeds this floor. The cascade
# rejects mu at or below it: Lemma 2.13(c) is certified at margin exactly mu.
STRICT_FLOOR = 1e-12


class LemmaId(str, Enum):
    L2_2 = "L2_2"
    L2_3 = "L2_3"
    L2_4 = "L2_4"
    L2_5 = "L2_5"
    L2_6i = "L2_6i"
    L2_6ii = "L2_6ii"
    L2_6iii = "L2_6iii"


# The two sides (lhs, rhs) of each threshold inequality, oriented so it
# asserts lhs < rhs; the parameters after x name the constants it reads.
def _sides_2_2(x, kappa, zeta):
    return (np.tan(x**2 / kappa + x**4 / zeta) / np.tan(x**2 / kappa),
            1.0 + np.tan(x) ** 2)


def _sides_2_3(x, zeta):
    return np.sin(x + x**4 / zeta) / np.tan(x), np.ones_like(x)


def _sides_2_4(x, kappa):
    return x**2 / 2.0 + np.tan(x**2 / kappa) ** 2, np.tan(x) ** 2


def _sides_2_5(x, R0, kappa, zeta):
    return ((R0 / zeta) / (1.0 - x**3 * R0 / zeta) ** 2,
            np.tan(x**2 / kappa + x**4 / zeta) / x**2)


def _sides_2_6i(x, R0, kappa, zeta):
    return R0 * np.sin(x**2 / kappa + x**4 / zeta), (x / 2.0) * np.sin(2.0 * x / kappa)


def _sides_2_6ii(x, R0, kappa, zeta):
    return R0 * np.cos(x**2 / kappa + x**4 / zeta), np.cos(2.0 * x / kappa)


def _sides_2_6iii(x, R0, kappa, zeta):
    return (((x / 2.0) * np.sin(2.0 * x / kappa)
             - R0 * np.sin(x**2 / kappa + x**4 / zeta)) / (x**2 / kappa),
            np.cos(2.0 * x / kappa) - R0 * np.cos(x**2 / kappa + x**4 / zeta))


class ThresholdLemma(NamedTuple):
    """One threshold inequality of the cascade: its clause, the constant
    ``c<c>`` its scan threshold bounds (the three parts of Lemma 2.6 share
    c5), its report check and its ``sides`` formula. With ``per_x2`` the two
    sides merge like x^2 at the origin, so a raw minimum over a grid reaching
    down to x ~ 0 would only measure grid granularity: the check's grid
    margin is reported per unit x^2."""

    anchor: str
    c: int
    per_x2: bool
    check: str
    sides: Callable

    @property
    def needs(self) -> tuple:
        """The constants the formula reads, in its parameter order."""
        code = self.sides.__code__
        return code.co_varnames[1:code.co_argcount]


LEMMAS = {
    LemmaId.L2_2: ThresholdLemma("Lemma 2.2", 1, True, "lemma_2_2_grid", _sides_2_2),
    LemmaId.L2_3: ThresholdLemma("Lemma 2.3", 2, True, "lemma_2_3_grid", _sides_2_3),
    LemmaId.L2_4: ThresholdLemma("Lemma 2.4", 3, True, "lemma_2_4_grid", _sides_2_4),
    LemmaId.L2_5: ThresholdLemma("Lemma 2.5", 4, False, "lemma_2_5_grid", _sides_2_5),
    LemmaId.L2_6i: ThresholdLemma("Lemma 2.6(i)", 5, True, "lemma_2_6i_grid",
                                  _sides_2_6i),
    LemmaId.L2_6ii: ThresholdLemma("Lemma 2.6(ii)", 5, False, "lemma_2_6ii_grid",
                                   _sides_2_6ii),
    LemmaId.L2_6iii: ThresholdLemma("Lemma 2.6(iii)", 5, True, "lemma_2_6iii_grid",
                                    _sides_2_6iii),
}


def _const(consts: Mapping, name: str, clause: str) -> float:
    value = consts.get(name)
    if value is None:
        raise ConfigurationError(f"{clause} needs constant {name!r}", clause=clause)
    return float(value)


def lemma_bound_eval(lemma_id: LemmaId, x, consts):
    """Both sides of a threshold inequality, oriented so it asserts lhs < rhs.

    ``x`` may be a scalar or an array with entries in (0, pi/4].
    """
    lemma = LEMMAS[LemmaId(lemma_id)]
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    if np.any(xa <= 0.0) or np.any(xa > X_MAX + 1e-15):
        raise DomainError(f"x must lie in (0, pi/4], got {x!r}", clause=lemma.anchor)
    values = {name: _const(consts, name, lemma.anchor) for name in lemma.needs}
    kappa, zeta = values.get("kappa"), values.get("zeta")
    if kappa is not None and np.any(xa**2 / kappa + xa**4 / (zeta or math.inf) >= math.pi / 2):
        raise DomainError("tan argument reaches pi/2; constants out of range",
                          clause=lemma.anchor)
    lhs, rhs = lemma.sides(xa, **values)
    if scalar:
        return float(lhs), float(rhs)
    return lhs, rhs


def lemma_margin(lemma_id: LemmaId, x, consts):
    """rhs - lhs of the oriented inequality (positive where it holds)."""
    lhs, rhs = lemma_bound_eval(lemma_id, x, consts)
    return rhs - lhs


def _bisect(fn, lo: float, hi: float, rtol: float = BISECT_RTOL) -> float:
    flo = fn(lo)
    fhi = fn(hi)
    if flo <= 0.0:
        return lo
    if fhi > 0.0:
        return hi
    while hi - lo > rtol * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def threshold_scan(lemma_id: LemmaId, consts) -> float:
    """Largest x below which a threshold inequality holds on a dense grid of
    (0, pi/4], refined by bisection at the first violation and discounted by
    a 0.9 safety factor. Returns 0.9 * pi/4 when no violation is found."""
    lemma_id = LemmaId(lemma_id)
    lemma = LEMMAS[lemma_id]
    values = tuple(_const(consts, name, lemma.anchor) for name in lemma.needs)
    return _threshold_scan(lemma_id, values)


# Keyed on the constants the inequality reads: every (n, p) of one cascade
# scans the same seven inequalities. Errors are not cached.
@lru_cache(maxsize=64)
def _threshold_scan(lemma_id: LemmaId, values: tuple) -> float:
    lemma = LEMMAS[lemma_id]
    consts = dict(zip(lemma.needs, values))
    xs = open_grid(0.0, X_MAX, SCAN_POINTS, open_lo=True)
    margins = lemma_margin(lemma_id, xs, consts)
    bad = np.nonzero(margins <= 0.0)[0]
    if bad.size == 0:
        return SAFETY * X_MAX
    first = int(bad[0])
    if first == 0:
        raise CertificationError(
            f"{lemma.anchor} fails arbitrarily close to 0 "
            f"(margin {float(margins[0])!r} at x = {float(xs[0])!r})",
            clause=lemma.anchor,
        )
    root = _bisect(lambda v: float(lemma_margin(lemma_id, v, consts)),
                   float(xs[first - 1]), float(xs[first]))
    return SAFETY * root


# Every (n, p) of one cascade has the same (iota, mu0): keep only the two
# floats. Errors are not cached.
@lru_cache(maxsize=64)
def _slope_budgets(r0: float, zeta: float, kappa: float,
                   psi: float) -> tuple[float, float]:
    """``(iota, mu0)``: the safety-discounted minimum of
    1 - tan(t)/tan(t + r0^4/zeta) (Lemma 2.11) and the smoothing budget, the
    least of psi, iota/tan(r0) and the Lemma 2.12(iii)/(iv) bounds, both over
    the scan grid of [r0^2/kappa, r0]; each minimum must be positive."""
    ts = np.linspace(r0**2 / kappa, r0, SCAN_POINTS)
    tan_t, tan_shifted = np.tan(ts), np.tan(ts + r0**4 / zeta)
    m = float(np.min(1.0 - tan_t / tan_shifted))
    if m <= 0.0:
        raise CertificationError(
            f"slope-ratio margin non-positive (min {m!r}); contradicts Lemma 2.11",
            clause="Lemma 2.11",
        )
    iota = SAFETY * m

    cot = 1.0 / tan_t
    cot_shifted = 1.0 / tan_shifted
    cot_r0_sq = 1.0 / math.tan(r0) ** 2
    bound_iii = float(np.min((cot - cot_shifted) / (1.0 + cot)))
    if bound_iii <= 0.0:
        raise CertificationError(
            f"Lemma 2.12(iii) bound non-positive (min {bound_iii!r})",
            clause="Lemma 2.12(iii)",
        )
    numer_iv = cot_shifted * (1.0 + cot_r0_sq) * tan_t - cot_r0_sq
    bound_iv = float(np.min(numer_iv / (math.tan(r0) * (1.0 + cot_r0_sq))))
    if bound_iv <= 0.0:
        raise CertificationError(
            f"Lemma 2.12(iv) bound non-positive (min {bound_iv!r})",
            clause="Lemma 2.12(iv)",
        )
    return iota, SAFETY * min(psi, iota / math.tan(r0), bound_iii, bound_iv)


def theta_boundary_values(R0: float, kappa: float, zeta: float, r0: float):
    """Value and slope the concave bridge must reach at t = r0^2/kappa.

    Both are negative for an admissible cascade.
    """
    b = r0**2 / kappa
    shift = r0**4 / zeta
    angle = 2.0 * b / r0
    theta_b = R0 * math.sin(b + shift) - (r0 / 2.0) * math.sin(angle)
    dtheta_b = R0 * math.cos(b + shift) - math.cos(angle)
    return theta_b, dtheta_b


def star_margin(R0: float, kappa: float, zeta: float, r0: float, psi: float) -> float:
    """Margin of the chord-slope inequality at the inner junction candidate:

        -theta'(b) > -theta(b) / (b - psi),   b = r0^2/kappa.

    Positive iff a concave bridge with the required boundary data exists.
    """
    b = r0**2 / kappa
    theta_b, dtheta_b = theta_boundary_values(R0, kappa, zeta, r0)
    return (-dtheta_b) - (-theta_b) / (b - psi)


@dataclass(frozen=True)
class ParamSet:
    """The validated constant cascade."""

    n: int
    p: int
    R0: float
    kappa: float
    zeta: float
    Lambda: float
    r0: float
    c: tuple[float, float, float, float, float]
    psi: float
    iota: float
    mu0: float
    mu: float

    @property
    def t_cut(self) -> float:
        """Junction between the bridge and the outer warping piece."""
        return self.r0**2 / self.kappa

    @property
    def shift(self) -> float:
        """Phase shift fed to the outer warping piece through the taper."""
        return self.r0**4 / self.zeta

    def as_dict(self) -> dict:
        """The fields in their order, with ``c`` expanded in place to
        c1..c5."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "c":
                out.update((f"c{i}", ci) for i, ci in enumerate(value, 1))
            else:
                out[f.name] = value
        return out


OVERRIDE_NAMES = ("R0", "kappa", "zeta", "Lambda", "r0", "mu")


def _reject(message, clause):
    raise ConfigurationError(f"{message} ({clause})", clause=clause)


def select_params(n: int, p: int,
                  overrides: Mapping[str, float] | None = None) -> ParamSet:
    """Select and validate the full constant cascade for dimension ``n`` and
    ``p`` removed discs. ``overrides`` may pin R0, kappa, zeta, Lambda, r0
    or mu; a pinned value violating its clause is rejected by name."""
    for name, value, floor in (("n", n, 3), ("p", p, 1)):
        try:
            valid = int(value) == value and value >= floor
        except (TypeError, ValueError, OverflowError):  # None, "abc", nan, inf
            valid = False
        if not valid:
            _reject(f"{name} = {value!r} must be an integer >= {floor}",
                    f"Proposition 1.12 ({name} >= {floor})")
    n, p = int(n), int(p)
    ov = dict(overrides or {})
    unknown = sorted(set(ov) - set(OVERRIDE_NAMES))
    if unknown:
        raise ConfigurationError(
            f"unknown override(s) {unknown}; valid names: {list(OVERRIDE_NAMES)}",
            clause="overrides",
        )
    for name, value in ov.items():
        try:
            ov[name] = float(value)
        except (TypeError, ValueError, OverflowError):
            _reject(f"override {name!r} needs a numeric value, got {value!r}",
                    "overrides")

    R0 = ov.get("R0", 0.1)
    if not 0.0 < R0 <= 0.1:
        _reject(f"R0 = {R0!r} outside (0, 1/10]", "Definition 2.1(a)")

    kappa_floor = 2.0 / math.sqrt(3.0 * R0)
    kappa = ov.get("kappa", 1.1 * kappa_floor)
    if not kappa > kappa_floor:
        _reject(f"kappa = {kappa!r} must exceed 2/sqrt(3*R0) = {kappa_floor!r}",
                "Definition 2.1(b)")

    try:
        zeta_hi = 3.0 * R0 * kappa**3 / 4.0
    except OverflowError:  # a float power past the range raises, not inf
        _reject(f"zeta's upper bound 3*R0*kappa^3/4 overflows at kappa = {kappa!r}",
                "Definition 2.1(c)")
    zeta = ov.get("zeta", 0.5 * (kappa + zeta_hi))
    if not (kappa < zeta < zeta_hi):
        _reject(f"zeta = {zeta!r} outside ({kappa!r}, {zeta_hi!r})",
                "Definition 2.1(c)")

    gamma = build_gamma(R0, ov.get("Lambda"))
    Lambda = gamma.Lambda

    consts = {"R0": R0, "kappa": kappa, "zeta": zeta}
    c = [math.inf] * 5
    for lemma_id, lemma in LEMMAS.items():
        c[lemma.c - 1] = min(c[lemma.c - 1], threshold_scan(lemma_id, consts))
    c = tuple(c)

    r0_cap = min(R0, math.pi / (2.0 * (1.0 + Lambda)), *c)
    r0_default = SAFETY * min(r0_cap, math.pi / p)
    r0 = ov.get("r0", r0_default)
    if not 0.0 < r0 < r0_cap:
        _reject(
            f"r0 = {r0!r} must lie in (0, {r0_cap!r}) = "
            "(0, min(R0, pi/(2(1+Lambda)), c1..c5))",
            "Definition 2.8",
        )
    if not r0 < math.pi / p:
        _reject(f"r0 = {r0!r} must be < pi/p = {math.pi / p!r} so the {p} "
                "removed balls stay disjoint", "disjointness r0 < pi/p")

    b = r0**2 / kappa
    if not b > 0.0:
        _reject(f"r0 = {r0!r} leaves no room for the bridge: r0^2/kappa = "
                f"{b!r} is not positive", "Definition 2.8")
    margin0 = star_margin(R0, kappa, zeta, r0, 0.0)
    if margin0 <= 0.0:
        raise CertificationError(
            f"chord-slope inequality fails even as psi -> 0 (margin {margin0!r})",
            clause="Lemma 2.6(iii) at x = r0",
        )
    psi = None
    for k in range(1, PSI_MAX_HALVINGS + 1):
        candidate = b * 2.0**-k
        m = star_margin(R0, kappa, zeta, r0, candidate)
        if m > 0.0 and m >= PSI_RELATIVE_MARGIN * margin0:
            psi = candidate
            break
    if psi is None:
        raise CertificationError(
            f"no dyadic fraction of r0^2/kappa satisfies the chord-slope "
            f"inequality with relative margin {PSI_RELATIVE_MARGIN}",
            clause="Lemma 2.9 (psi selection)",
        )

    iota, mu0 = _slope_budgets(r0, zeta, kappa, psi)
    mu = ov.get("mu", mu0 / 2.0)
    if not 0.0 < mu < mu0:
        _reject(f"mu = {mu!r} outside (0, mu0) with mu0 = {mu0!r}; "
                "mu < mu0 is what keeps mu*tan(r0) below iota",
                "Lemma 2.13 (mu in (0, mu0))")
    if not mu > STRICT_FLOOR:
        _reject(f"mu = {mu!r} must exceed the strict-check floor "
                f"{STRICT_FLOOR!r}: the drift clause keeps a margin of exactly mu",
                "Lemma 2.13(c)")

    return ParamSet(n=n, p=p, R0=R0, kappa=kappa, zeta=zeta, Lambda=Lambda,
                    r0=r0, c=c, psi=psi, iota=iota, mu0=mu0, mu=mu)
