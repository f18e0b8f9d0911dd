import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    # function-scoped: a test's draws never depend on which tests ran first
    return np.random.default_rng(20240803)


@pytest.fixture(scope="session", autouse=True)
def every_certificate_is_proven():
    """Every certificate that ``dgs_bound._certified`` returns in the
    session, proven <= 0 on [-1, cos_theta] in exact arithmetic at the
    session's end by ``codebounds.exact``, split where the certificate's
    phi may peak (the scan that its verification kept). A refuted or
    undecided certificate fails the session, named by its dimension,
    cos_theta and degree. Mutants that tests build by hand never pass
    through ``_certified``, so the mutant tests keep their meaning."""
    from codebounds import dgs_bound
    from codebounds.exact import UndecidedError, prove_nonpositive

    real, made = dgs_bound._certified, {}

    def recorded(*args):
        found = real(*args)
        cert = found[0]
        if cert is not None:
            # keyed by the certificate itself, whatever _certified's arguments
            poly = cert.poly
            key = (poly.dim, cert.cos_theta, poly.coeffs.tobytes())
            made[key] = poly.coeffs.tolist(), cert.phi._candidates
        return found

    dgs_bound._certified = recorded
    yield
    dgs_bound._certified = real

    failures = []
    for (d, cos_theta, _), (coeffs, splits) in made.items():
        name = f"(d, cos_theta, degree) = ({d}, {cos_theta!r}, {len(coeffs) - 1})"
        try:
            found = prove_nonpositive(d, coeffs, -1.0, cos_theta, splits)
        except UndecidedError as exc:
            failures.append(f"{name}: {exc}")
            continue
        if found is not None:
            failures.append(f"{name}: P(t) = {float(found.value)!r} > 0 at "
                            f"t = {float(found.t)!r}")
    if failures:
        pytest.fail(f"{len(failures)} of {len(made)} certificates not proven "
                    "exactly:\n" + "\n".join(failures), pytrace=False)
