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
    session's end by ``codebounds.exact.unproven``. A refuted or undecided
    certificate fails the session, named by its dimension, cos_theta and
    degree. Mutants that tests build by hand never pass through
    ``_certified``, so the mutant tests keep their meaning."""
    from codebounds import dgs_bound
    from codebounds.exact import unproven

    real, made = dgs_bound._certified, {}

    def recorded(*args):
        found = real(*args)
        cert = found[0]
        if cert is not None:
            # keyed by the certificate itself, whatever _certified's arguments
            phi = cert.phi
            made[phi.dim, cert.cos_theta, cert.c, phi.coeffs.tobytes()] = cert
        return found

    dgs_bound._certified = recorded
    yield
    dgs_bound._certified = real

    failures = []
    for (d, cos_theta, _, _), cert in made.items():
        why = unproven(cert)
        if why is not None:
            degree = len(cert.phi.coeffs) - 1
            failures.append(f"(d, cos_theta, degree) = ({d}, {cos_theta!r}, {degree}): {why}")
    if failures:
        pytest.fail(f"{len(failures)} of {len(made)} certificates not proven "
                    "exactly:\n" + "\n".join(failures), pytrace=False)
