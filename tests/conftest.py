import os
from fractions import Fraction

import pytest

from planeblocks import fixtures, graphio, search

EXTENDED = os.environ.get("PLANEBLOCKS_EXTENDED") == "1"


def shares(led, bid):
    """(v, e, f, k, e23) of block ``bid``'s ledger row, with v, f and k as
    Fractions."""
    F = Fraction
    e = len(led.decomposition.blocks[bid].eids)
    return (
        F(led.vnum[bid], led.den), e, F(led.fnum[bid], led.den),
        F(led.knum[bid], led.den), led.e23[bid],
    )


def block_values(v):
    """(block, L(B)) pairs of a verdict, with L(B) as a Fraction."""
    blocks = v.ledger.decomposition.blocks
    return [(b, Fraction(num, v.ledger.den)) for b, num in zip(blocks, v.values)]


def plain(rep):
    """``rep`` with every `graphio.Rows` in it turned into a list of dicts."""
    return {key: list(x) if isinstance(x, graphio.Rows) else x for key, x in rep.items()}


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
