import itertools
import random

import pytest

from planeblocks import canon
from planeblocks.errors import BadLength
from planeblocks.structure import (
    Hypotheses,
    articulation_vertices,
    contains_cycle_of_length,
    is_bipartite,
    is_connected,
    is_two_connected,
    structural_stats,
)


def adj_of(g):
    return g.rotations


def subsets_cycle_oracle(adj, length):
    """Slow reference: check every vertex subset of the right size for a
    spanning cycle."""
    n = len(adj)
    for subset in itertools.combinations(range(n), length):
        first, rest = subset[0], subset[1:]
        for perm in itertools.permutations(rest):
            order = (first, *perm)
            if all(
                order[(i + 1) % length] in adj[order[i]] for i in range(length)
            ):
                return True
    return False


def test_cycle_detection_matches_oracle_exhaustively(corpus7):
    for n in range(3, 7):
        for adj in corpus7[n]:
            nbrs = canon.neighbor_lists(adj)
            for length in range(3, n + 1):
                assert contains_cycle_of_length(nbrs, length) == \
                    subsets_cycle_oracle(nbrs, length), (adj, length)


def test_cycle_detection_matches_oracle_sampled(corpus7):
    rng = random.Random(42)
    sample = rng.sample(corpus7[7], 120)
    for adj in sample:
        nbrs = canon.neighbor_lists(adj)
        for length in range(3, 8):
            assert contains_cycle_of_length(nbrs, length) == \
                subsets_cycle_oracle(nbrs, length)


@pytest.mark.parametrize("length", [0, 1, 2])
def test_cycle_length_below_three_rejected(length):
    with pytest.raises(BadLength):
        contains_cycle_of_length([[1], [0]], length)


@pytest.mark.parametrize("length", [-4, 0, 1, 2])
def test_forbidden_cycle_below_three_rejected(length):
    with pytest.raises(BadLength):
        Hypotheses(forbidden_cycles=(5, length))


def test_fixture_cycles(fixture_graphs):
    assert contains_cycle_of_length(adj_of(fixture_graphs["c8"]), 8)
    # every cycle in K2,3 alternates sides, so only C4 occurs
    k23 = adj_of(fixture_graphs["k23"])
    assert contains_cycle_of_length(k23, 4)
    assert not contains_cycle_of_length(k23, 5)
    # bipartite, so no odd cycle
    assert not contains_cycle_of_length(adj_of(fixture_graphs["cube"]), 5)


def test_structural_stats_c8(fixture_graphs):
    s = structural_stats(adj_of(fixture_graphs["c8"]))
    assert (s.min_degree, s.k, s.e23) == (2, 8, 0)
    assert s.bipartite and s.deg2_neighbor_ok and s.two_connected


def test_structural_stats_k23(fixture_graphs):
    s = structural_stats(adj_of(fixture_graphs["k23"]))
    assert (s.min_degree, s.k, s.e23) == (2, 3, 6)
    assert s.bipartite


def test_structural_stats_k4(fixture_graphs):
    s = structural_stats(adj_of(fixture_graphs["k4"]))
    assert s.min_degree == 3 and s.k == 0 and s.two_connected
    assert not s.bipartite


def test_degree_sum_identity(corpus7):
    for adj in corpus7[6]:
        nbrs = canon.neighbor_lists(adj)
        s = structural_stats(nbrs)
        degrees = [len(nb) for nb in nbrs]
        assert sum(degrees) == 2 * s.e and len(degrees) == s.n
        assert s.k == degrees.count(2) and s.min_degree == min(degrees)


def test_bipartite_coloring_is_proper():
    adj = [[1, 3], [0, 2], [1, 3], [2, 0]]
    flag, coloring = is_bipartite(adj)
    assert flag
    assert all(coloring[u] != coloring[v] for u in range(4) for v in adj[u])
    assert is_bipartite([[1, 2], [0, 2], [0, 1]]) == (False, None)


def test_articulation_vertices_on_path_and_cycle():
    path = [[1], [0, 2], [1, 3], [2]]
    assert articulation_vertices(path) == {1, 2}
    cycle = [[1, 3], [0, 2], [1, 3], [2, 0]]
    assert articulation_vertices(cycle) == set()


def test_two_connected_edge_cases():
    assert not is_two_connected([[1], [0]])  # n < 3
    assert is_two_connected([[1, 2], [0, 2], [0, 1]])
    # bowtie: two triangles glued at vertex 2
    bowtie = [[1, 2], [0, 2], [0, 1, 3, 4], [2, 4], [2, 3]]
    assert is_connected(bowtie)
    assert not is_two_connected(bowtie)
    assert articulation_vertices(bowtie) == {2}
