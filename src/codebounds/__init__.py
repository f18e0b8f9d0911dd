"""Upper bounds for spherical, functional, and metric codes.

Gegenbauer machinery, a self-contained LP solver, the Delsarte linear
programming bound with certificate verification, Pfender-style bounds
(structural, per-code, and finite-set variants), and a catalog of
classical code constructions to check everything against. numpy is the
only runtime dependency; scipy is used by the test suite alone, as an
independent oracle for the quadrature and the LP solver.

Every public name is importable from the package itself, and each is
resolved on first access (PEP 562), so ``import codebounds`` loads none
of the modules and a command-line run loads only those its command uses.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it provides, in the order of __all__
_HOMES = {
    "errors": (
        "CodeBoundsError",
        "NoCertificateError",
        "LPFailureError",
        "TheoremViolationError",
    ),
    "gegenbauer": (
        "GegenbauerPoly",
        "gegenbauer_eval",
        "weighted_inner_product",
        "expand_in_basis",
    ),
    "linprog": ("LinearProgram", "LPSolution", "solve_lp"),
    "dgs_bound": ("lp_bound", "verify_certificate", "bound_table"),
    "pfender": (
        "PhiSpec",
        "PfenderCertificate",
        "pfender_bound",
        "double_sum",
        "functional_pfender_check",
    ),
    "codes": (
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
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
