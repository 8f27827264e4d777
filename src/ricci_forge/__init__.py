"""Numerical certification of a Ricci-positive squashed metric on a
punctured sphere: constant cascade, warping profile, curvature bounds,
boundary geometry, and a machine-readable verification report."""

from .boundary import BoundaryMetric, boundary_metric, rho_interval, t_of_s
from .bumps import BumpFunction, build_gamma
from .curvature import (
    CurvatureGridResult,
    curvature_grid,
    intrinsic_sectional,
    principal_curvatures,
    ricci_components,
)
from .errors import (
    CertificationError,
    ConfigurationError,
    DomainError,
    RicciForgeError,
)
from .grids import GridSpec
from .paramgen import (
    LemmaId,
    ParamSet,
    lemma_bound_eval,
    select_params,
    threshold_scan,
)
from .profile import (
    BridgeTheta,
    ProfileC1,
    build_bridge_theta,
)
from .verify import (
    CHECK_NAMES,
    CheckResult,
    VerificationReport,
    gauss_crosscheck,
    report_to_dict,
    report_to_json,
    run_verification,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryMetric", "boundary_metric", "rho_interval", "t_of_s",
    "BumpFunction", "build_gamma",
    "CurvatureGridResult", "curvature_grid",
    "intrinsic_sectional", "principal_curvatures", "ricci_components",
    "CertificationError", "ConfigurationError", "DomainError", "RicciForgeError",
    "GridSpec",
    "LemmaId", "ParamSet", "lemma_bound_eval", "select_params",
    "threshold_scan",
    "BridgeTheta", "ProfileC1", "build_bridge_theta",
    "CHECK_NAMES", "CheckResult", "VerificationReport", "gauss_crosscheck",
    "report_to_dict", "report_to_json", "run_verification",
    "__version__",
]
