"""Upper bounds for spherical, functional, and metric codes.

Gegenbauer machinery, a self-contained LP solver, the Delsarte linear
programming bound with certificate verification, Pfender-style bounds
(structural, per-code, and finite-set variants), and a catalog of
classical code constructions to check everything against.
"""

from .codes import (
    FunctionalCode,
    LpSpace,
    MetricCode,
    PointedMetricSpace,
    SphericalCode,
    embed_as_metric_code,
    euclidean_to_functional,
    evaluation_matrix,
    generate,
    norming_functional,
    random_functional_code,
    verify,
)
from .dgs_bound import DGSCertificate, bound_table, lp_bound, verify_certificate
from .errors import (
    CodeBoundsError,
    LPFailureError,
    NoCertificateError,
    TheoremViolationError,
)
from .gegenbauer import (
    GegenbauerBasis,
    GegenbauerPoly,
    expand_in_basis,
    gegenbauer_eval,
    weighted_inner_product,
)
from .linprog import LinearProgram, LPSolution, solve_lp
from .pfender import (
    PfenderCertificate,
    PhiSpec,
    double_sum,
    functional_pfender_check,
    pfender_bound,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CodeBoundsError",
    "NoCertificateError",
    "LPFailureError",
    "TheoremViolationError",
    "GegenbauerBasis",
    "GegenbauerPoly",
    "gegenbauer_eval",
    "weighted_inner_product",
    "expand_in_basis",
    "LinearProgram",
    "LPSolution",
    "solve_lp",
    "DGSCertificate",
    "lp_bound",
    "verify_certificate",
    "bound_table",
    "PhiSpec",
    "PfenderCertificate",
    "pfender_bound",
    "double_sum",
    "functional_pfender_check",
    "LpSpace",
    "SphericalCode",
    "FunctionalCode",
    "PointedMetricSpace",
    "MetricCode",
    "verify",
    "evaluation_matrix",
    "norming_functional",
    "euclidean_to_functional",
    "embed_as_metric_code",
    "generate",
    "random_functional_code",
]
