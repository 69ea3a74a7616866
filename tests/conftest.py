import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from signedflow.corpus import enumerate_signed_graphs, signed_petersen


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
    # every class up to 5 vertices / 8 edges; built once, ~6 s
    return list(enumerate_signed_graphs(5, 8))
