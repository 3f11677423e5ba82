import pytest
from hypothesis import HealthCheck, settings

from fanopencils.autos import automorphism_group
from fanopencils.coxeter import build_coxeter
from fanopencils.digraph import build_d, enumerate_4cycles
from fanopencils.voltage import z7_action

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def d():
    return build_d()


@pytest.fixture(scope="session")
def cycles(d):
    return enumerate_4cycles(d)


@pytest.fixture(scope="session")
def group(d):
    return automorphism_group(d)


@pytest.fixture(scope="session")
def action(d):
    return z7_action(d)


@pytest.fixture(scope="session")
def cox():
    return build_coxeter()


@pytest.fixture(scope="session")
def cox_group(cox):
    return automorphism_group(cox)
