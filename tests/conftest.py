import os
from fractions import Fraction

import pytest

from planeblocks import fixtures, search

EXTENDED = os.environ.get("PLANEBLOCKS_EXTENDED") == "1"


def shares(led, c):
    """(v, e, f, k, e23) of one ledger entry, with v, f and k as Fractions."""
    F = Fraction
    return F(c.vnum, led.vden), c.e, F(c.fnum, led.fden), F(c.knum, led.vden), c.e23


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

    This is the expensive shared oracle (about 25 s with Python 3.11 on a
    shared 2-core host, most of it canonical labelling and the
    canonical-deletion test on n = 9); tests that only need small graphs
    should use corpus7 instead.
    """
    return {n: list(search.enumerate_graphs(search.ConstraintSet(n=n))) for n in range(1, 10)}
