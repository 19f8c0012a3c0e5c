import itertools
import random
import time

import networkx as nx
import pytest

from planeblocks import canon, structure
from planeblocks.errors import BadLength
from planeblocks.structure import (
    Hypotheses,
    biconnected_components,
    contains_cycle_of_length,
    is_bipartite,
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
        for adj, _ in corpus7[n]:
            nbrs = canon.neighbor_lists(adj)
            for length in range(3, n + 1):
                assert contains_cycle_of_length(nbrs, length) == \
                    subsets_cycle_oracle(nbrs, length), (adj, length)


def test_cycle_detection_matches_oracle_sampled(corpus7):
    rng = random.Random(42)
    sample = rng.sample(corpus7[7], 120)
    for adj, _ in sample:
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
    for adj, _ in corpus7[6]:
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
    # a C4 and then a K3: the odd component is found after the even one
    assert is_bipartite(adj + [[5, 6], [4, 6], [4, 5]]) == (False, None)


def components(adj):
    return sorted(sorted(c) for c in biconnected_components(adj))


def test_biconnected_components_on_path_and_cycle():
    path = [[1], [0, 2], [1, 3], [2]]
    assert components(path) == [[0, 1], [1, 2], [2, 3]]
    cycle = [[1, 3], [0, 2], [1, 3], [2, 0]]
    assert components(cycle) == [[0, 1, 2, 3]]
    assert components([[], [2], [1]]) == [[1, 2]]  # an isolated vertex is in none


def test_biconnected_components_match_networkx():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(1, 14)
        graph = nx.gnp_random_graph(n, rng.random() * 0.5, seed=rng.randrange(10**6))
        adj = [list(graph[v]) for v in range(n)]
        for nbrs in adj:
            rng.shuffle(nbrs)
        assert components(adj) == sorted(
            sorted(c) for c in nx.biconnected_components(graph)
        ), adj
        assert is_two_connected(adj) == (n >= 3 and nx.is_biconnected(graph))
        comp, parity = structure.components(adj)
        assert comp == [min(nx.node_connected_component(graph, v)) for v in range(n)], adj
        assert all(parity[u] != parity[v] for u, v in graph.edges) == nx.is_bipartite(graph)


def test_two_connected_edge_cases():
    assert not is_two_connected([[1], [0]])  # n < 3
    assert is_two_connected([[1, 2], [0, 2], [0, 1]])
    # bowtie: two triangles glued at vertex 2
    bowtie = [[1, 2], [0, 2], [0, 1, 3, 4], [2, 4], [2, 3]]
    assert not any(structure.components(bowtie)[0])  # connected
    assert not is_two_connected(bowtie)
    assert components(bowtie) == [[0, 1, 2], [2, 3, 4]]


def hub_chain(hubs, m):
    """Hubs 0..hubs-1; each consecutive pair joined by m paths of length 2."""
    adj = [[] for _ in range(hubs)]
    for h in range(hubs - 1):
        for _ in range(m):
            x = len(adj)
            adj.append([h, h + 1])
            adj[h].append(x)
            adj[h + 1].append(x)
    return adj


def test_cycle_search_stays_inside_biconnected_components():
    # bipartite, and every cycle lies in one K2,40, so only 4-cycles exist;
    # a search over the whole graph takes time growing like m^4 here
    adj = hub_chain(5, 40)
    start = time.perf_counter()
    assert not contains_cycle_of_length(adj, 8)
    assert time.perf_counter() - start < 1.0
    assert [contains_cycle_of_length(adj, n) for n in (4, 6, 8, 10)] == \
        [True, False, False, False]
    # a search that steps through the hubs into the next K2,m takes about
    # 5 s here, against about 0.03 s for one kept inside each component
    start = time.perf_counter()
    assert not contains_cycle_of_length(hub_chain(5, 160), 8)
    assert time.perf_counter() - start < 1.0


def test_cycle_across_a_bridge_is_not_found():
    # two triangles joined by the bridge 2-3: no 4-, 5- or 6-cycle
    adj = [[1, 2], [0, 2], [0, 1, 3], [2, 4, 5], [3, 5], [3, 4]]
    assert [contains_cycle_of_length(adj, n) for n in (3, 4, 5, 6)] == \
        [True, False, False, False]


@pytest.mark.parametrize(
    "kwargs", [dict(min_degree=-3), dict(exact_min_degree=-1)]
)
def test_negative_min_degree_rejected(kwargs):
    with pytest.raises(ValueError, match="must be >= 0"):
        Hypotheses(**kwargs)


def plain_cycle_search(adj, length):
    """Reference: backtracking over the whole graph with no pruning."""
    def search(root, last, depth, visited):
        for w in adj[last]:
            if w == root and depth == length:
                return True
            if w > root and depth < length and w not in visited:
                if search(root, w, depth + 1, visited | {w}):
                    return True
        return False

    return any(search(root, root, 1, {root}) for root in range(len(adj)))


def random_adjacency(rng, n, p):
    adj = [[] for _ in range(n)]
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            adj[u].append(v)
            adj[v].append(u)
    return adj


def glued_blocks(rng):
    """Random dense pieces, each glued to the graph so far at one shared cut
    vertex or joined to it by a bridge, with vertex numbers shuffled so that
    components interleave in vertex order."""
    adj = []
    for _ in range(rng.randint(2, 4)):
        piece = random_adjacency(rng, rng.randint(3, 7), rng.choice([0.5, 0.7, 0.9]))
        start = len(adj)
        glue = start > 0 and rng.random() < 0.5
        ids = [rng.randrange(start)] if glue else []  # the piece's vertex numbers
        ids += range(start, start + len(piece) - glue)
        adj += [[] for _ in range(len(piece) - glue)]
        for u, nbrs in enumerate(piece):
            adj[ids[u]] += [ids[w] for w in nbrs]
        if start and not glue:
            u, v = rng.randrange(start), rng.choice(ids)
            adj[u].append(v)
            adj[v].append(u)
    order = list(range(len(adj)))
    rng.shuffle(order)
    relabelled = [[] for _ in adj]
    for u, nbrs in enumerate(adj):
        relabelled[order[u]] = [order[w] for w in nbrs]
    return relabelled


def test_pruned_cycle_search_matches_plain_search():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(3, 13)
        adj = random_adjacency(rng, n, rng.choice([0.15, 0.25, 0.4]))
        for length in range(3, n + 1):
            want = plain_cycle_search(adj, length)
            assert contains_cycle_of_length(adj, length) == want, (adj, length)
    # graphs that are not 2-connected: the search marks each component and
    # must neither cross a cut vertex nor miss a cycle through one
    for _ in range(300):
        adj = glued_blocks(rng)
        assert not is_two_connected(adj)
        # no cycle is longer than a piece, which has at most 7 vertices
        for length in range(3, min(len(adj), 9) + 1):
            want = plain_cycle_search(adj, length)
            assert contains_cycle_of_length(adj, length) == want, (adj, length)


def test_odd_length_on_bipartite_input_is_not_searched(fixture_graphs, monkeypatch):
    def searched(adj, length):
        raise AssertionError(f"searched for a C{length}")

    monkeypatch.setattr(structure, "contains_cycle_of_length", searched)
    adjs = [adj_of(fixture_graphs[name]) for name in ("c8", "cube", "k23", "q7", "theta6")]
    for adj in [*adjs, hub_chain(5, 40)]:
        hyp = Hypotheses(forbidden_cycles=tuple(range(3, len(adj) + 1, 2)))
        stats = structural_stats(adj)
        assert stats.bipartite
        assert hyp.holds(adj, stats)
        assert all(c.ok and not c.detail for c in hyp.checks(adj, stats))
