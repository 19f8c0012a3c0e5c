import os
from fractions import Fraction

import pytest

from planeblocks import fixtures, graphio, search
from planeblocks.plane import PlaneGraph

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


def k4_necklace(m):
    """A ring 0..m-1 with a K4 on each ring edge (i, i+1): apex m + 2i and
    centre m + 2i + 1.  n = 3m, e = 6m, embedded by ``search.planar_embed``."""
    edges = []
    for i in range(m):
        u, v, w, c = i, (i + 1) % m, m + 2 * i, m + 2 * i + 1
        edges += [(min(u, v), max(u, v)), (u, w), (v, w), (u, c), (v, c), (w, c)]
    return search.planar_embed(3 * m, edges)


def hang_k4s(g, k, rng):
    """``g`` with k K4s hung on random edges, embedded by
    ``search.planar_embed``: each takes an edge uv of the graph built so far,
    an apex w adjacent to u and v, and a centre c adjacent to u, v and w."""
    n, edges = g.n, list(g.edge_list)
    for _ in range(k):
        u, v = rng.choice(edges)
        w, c = n, n + 1
        edges += [(u, w), (v, w), (u, c), (v, c), (w, c)]
        n += 2
    return search.planar_embed(n, edges)


def hexagonal_prism():
    """The hexagonal prism: 3-regular and bipartite, with two 6-faces, but it
    has a C8 (0-1-2-3, down to 9, back along 8-7-6), so it fails BI_C8C10."""
    rotations = [
        [1, 6, 5], [2, 7, 0], [3, 8, 1], [4, 9, 2], [5, 10, 3], [0, 11, 4],
        [0, 7, 11], [1, 8, 6], [2, 9, 7], [3, 10, 8], [4, 11, 9], [5, 6, 10],
    ]
    return PlaneGraph(rotations, (0, 1))


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
