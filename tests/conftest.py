import pytest

from coalesce.chains import build_generator
from coalesce.graphs import complete_graph, cycle_graph, path_graph, torus_graph


@pytest.fixture(scope="session")
def k2_chain():
    return build_generator(path_graph(2))


@pytest.fixture(scope="session")
def cycle4_chain():
    return build_generator(cycle_graph(4))


@pytest.fixture(scope="session")
def complete4_chain():
    return build_generator(complete_graph(4))


@pytest.fixture(scope="session")
def torus33_chain():
    return build_generator(torus_graph(3, 3))


@pytest.fixture(scope="session")
def lollipop():
    """K4 with a three-edge tail: seven vertices, degrees 3, 3, 3, 4, 2, 2, 1."""
    from coalesce.graphs import Graph

    return Graph.from_edges(
        7, [(a, b) for a in range(4) for b in range(a + 1, 4)] + [(3, 4), (4, 5), (5, 6)]
    )
