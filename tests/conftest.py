import pytest
from hypothesis import settings

from qclique.graph import builtin_graph

# Every run draws the same examples; wide circuits have no per-example deadline.
settings.register_profile("qclique", derandomize=True, deadline=None)
settings.load_profile("qclique")


@pytest.fixture(scope="session")
def g4():
    return builtin_graph("g4")


@pytest.fixture(scope="session")
def g6():
    return builtin_graph("g6")


@pytest.fixture(scope="session")
def star4():
    return builtin_graph("star4")
