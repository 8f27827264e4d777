"""Uniform evaluation grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class GridSpec:
    """A uniform grid of ``points`` samples on [lo, hi]. ``run_verification``
    reads only ``points``; each check lays out its own range."""

    points: int
    lo: float
    hi: float

    def __post_init__(self):
        if self.points < 2:
            raise ConfigurationError("GridSpec.points must be >= 2", clause="GridSpec")
        if not self.lo < self.hi:
            raise ConfigurationError("GridSpec requires lo < hi", clause="GridSpec")


def open_grid(lo: float, hi: float, points: int, *, open_lo: bool = True,
              open_hi: bool = False) -> np.ndarray:
    """``points`` uniform samples of (lo, hi], [lo, hi) or (lo, hi)."""
    n = points + int(open_lo) + int(open_hi)
    g = np.linspace(lo, hi, n)
    if open_lo:
        g = g[1:]
    if open_hi:
        g = g[:-1]
    return g
