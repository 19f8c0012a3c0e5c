import os

import pytest

from planeblocks import fixtures, search

EXTENDED = os.environ.get("PLANEBLOCKS_EXTENDED") == "1"


@pytest.fixture(scope="session")
def fixture_graphs():
    return {name: fixtures.load_fixture(name) for name in fixtures.FIXTURE_NAMES}


@pytest.fixture(scope="session")
def corpus7():
    """All connected planar isomorphism classes, n = 1..7, as (adjacency
    masks, rotation system) pairs."""
    return {n: list(search.enumerate_graphs(search.ConstraintSet(n=n))) for n in range(1, 8)}


@pytest.fixture(scope="session")
def corpus9():
    """All connected planar isomorphism classes, n = 1..9, as (adjacency
    masks, rotation system) pairs.

    This is the expensive shared oracle (about 40 s with Python 3.11, most of
    it canonical labelling and the canonical-deletion test on n = 9); tests
    that only need small graphs should use corpus7 instead.
    """
    return {n: list(search.enumerate_graphs(search.ConstraintSet(n=n))) for n in range(1, 10)}
