import os

import pytest

from planeblocks import fixtures, search

EXTENDED = os.environ.get("PLANEBLOCKS_EXTENDED") == "1"


@pytest.fixture(scope="session")
def fixture_graphs():
    return {name: fixtures.load_fixture(name) for name in fixtures.FIXTURE_NAMES}


@pytest.fixture(scope="session")
def corpus7():
    """All connected planar isomorphism classes, n = 1..7, as adjacency masks."""
    out = {}
    for n in range(1, 8):
        cs = search.ConstraintSet(n=n)
        out[n] = [adj for _, adj in search.enumerate_graphs(cs)]
    return out


@pytest.fixture(scope="session")
def corpus9():
    """All connected planar isomorphism classes, n = 1..9.

    This is the expensive shared oracle (about 37 s with Python 3.11, most of
    it canonical labelling and the canonical-deletion test on n = 9); tests
    that only need small graphs should use corpus7 instead.
    """
    out = {}
    for n in range(1, 10):
        cs = search.ConstraintSet(n=n)
        out[n] = [adj for _, adj in search.enumerate_graphs(cs)]
    return out
