import sys

import pytest

from twistedmaps.gfield import make_field
from twistedmaps.oracle import enumerate_orbits, orbit_records


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "_RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="-")
    for line in results:
        terminalreporter.line(line)


@pytest.fixture(scope="session")
def F9():
    return make_field(3, 2)


@pytest.fixture(scope="session")
def F25():
    return make_field(5, 2)


@pytest.fixture(scope="session")
def F49():
    return make_field(7, 2)


@pytest.fixture(scope="session")
def F81():
    return make_field(3, 4)


# full orbit partitions, shared because several tests slice the same data

@pytest.fixture(scope="session")
def orbits3():
    return enumerate_orbits(3)


@pytest.fixture(scope="session")
def orbits5():
    return enumerate_orbits(5)


@pytest.fixture(scope="session")
def orbits7():
    return enumerate_orbits(7)


@pytest.fixture(scope="session")
def orbits9():
    return enumerate_orbits(9)


@pytest.fixture(scope="session")
def records9(orbits9):
    return orbit_records(9, orbits9)
