import math

import numpy as np
import pytest

from ricci_forge import (
    ProfileC1,
    build_bridge_theta,
    build_gamma,
    run_verification,
    select_params,
)


class RoundSphereProfile:
    """The unit round sphere profile sin(t): every curvature quantity has a
    known constant value, so it serves as an oracle for the evaluators."""

    def value(self, t):
        return np.sin(np.asarray(t, dtype=float)) if np.ndim(t) else math.sin(t)

    def d1(self, t):
        return np.cos(np.asarray(t, dtype=float)) if np.ndim(t) else math.cos(t)

    def d2(self, t):
        return -np.sin(np.asarray(t, dtype=float)) if np.ndim(t) else -math.sin(t)

    @property
    def zero_limits(self):
        return 1.0, 1.0


@pytest.fixture(scope="session")
def round_profile():
    return RoundSphereProfile()


@pytest.fixture(scope="session")
def params33():
    return select_params(3, 3)


@pytest.fixture(scope="session")
def gamma33(params33):
    return build_gamma(params33.R0, params33.Lambda)


@pytest.fixture(scope="session")
def bridge33(params33):
    return build_bridge_theta(params33)


@pytest.fixture(scope="session")
def profile33(params33, bridge33):
    return ProfileC1(params=params33, bridge=bridge33)


@pytest.fixture(scope="session")
def report_cache():
    """Memoised run_verification so expensive reports are computed once."""
    cache = {}

    def get(n, p, overrides=None):
        key = (n, p, tuple(sorted((overrides or {}).items())))
        if key not in cache:
            cache[key] = run_verification(n, p, overrides)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def report33(report_cache):
    return report_cache(3, 3)
