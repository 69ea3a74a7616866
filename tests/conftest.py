import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from signedflow.core import SignedGraph
from signedflow.corpus import enumerate_signed_graphs, signed_petersen


@pytest.fixture(scope="session")
def fresh():
    """A graph -> an equal object with nothing cached: no recorded search
    answer, so a test that pins node counts or caps searches for real,
    whatever ran on the session objects before it."""
    return lambda g: SignedGraph(g.num_vertices, g.edges)


@pytest.fixture(scope="session")
def petersen():
    return signed_petersen()


@pytest.fixture(scope="session")
def corpus_3_4():
    return list(enumerate_signed_graphs(3, 4))


@pytest.fixture(scope="session")
def corpus_4_6():
    # the oracle-equivalence corpus; ~1.6k switching classes
    return list(enumerate_signed_graphs(4, 6))


@pytest.fixture(scope="session")
def corpus_full():
    # every class up to 5 vertices / 8 edges (35,330); built once per
    # session, ~0.25 s on 2 cores
    return list(enumerate_signed_graphs(5, 8))
