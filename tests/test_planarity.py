import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import planeblocks
from planeblocks import canon
from planeblocks.planarity import lr_rotations
from planeblocks.structure import components


def networkx_rotations(n, edges):
    """Counterclockwise rotations of networkx's planar embedding of the
    graph, or None if it is not planar: the oracle lr_rotations ports."""
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(sorted(edges))
    ok, emb = nx.check_planarity(graph)
    if not ok:
        return None
    return tuple(tuple(reversed(list(emb.neighbors_cw_order(v)))) for v in range(n))


def assert_same(n, edges):
    want = networkx_rotations(n, edges)
    assert lr_rotations(n, edges) == want, (n, sorted(edges))
    return want


def test_every_class_up_to_7_vertices(corpus7):
    total = 0
    for n, classes in corpus7.items():
        for adj, _ in classes:
            assert assert_same(n, canon.edges_from_masks(adj)) is not None
            total += 1
    assert total == 1 + 1 + 2 + 6 + 20 + 99 + 646


def test_random_graphs():
    rng = random.Random(20090)
    seen = {"planar": 0, "not planar": 0, "disconnected": 0, "isolated vertex": 0}
    for _ in range(3000):
        n = rng.randint(2, 12)
        p = rng.random()
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        rng.shuffle(edges)  # lr_rotations sorts, as the oracle does
        planar = assert_same(n, edges) is not None
        seen["planar" if planar else "not planar"] += 1
        nbrs = canon.neighbor_lists(canon.masks_from_edges(n, edges))
        seen["disconnected"] += any(components(nbrs)[0])
        seen["isolated vertex"] += any(not nb for nb in nbrs)
    assert min(seen.values()) >= 300, seen


def subdivide(n, edges, rng, times):
    """The graph with `times` random edges each split by a new vertex."""
    edges = list(edges)
    for _ in range(times):
        u, v = edges.pop(rng.randrange(len(edges)))
        edges += [(u, n), (v, n)]
        n += 1
    return n, sorted(edges)


K5 = list(itertools.combinations(range(5), 2))
K33 = [(u, v) for u in range(3) for v in range(3, 6)]


@pytest.mark.parametrize("n, edges", [(5, K5), (6, K33)], ids=["K5", "K3,3"])
def test_kuratowski_graphs_and_subdivisions(n, edges):
    assert assert_same(n, edges) is None
    for e in edges:  # one edge short of each is planar
        assert assert_same(n, [f for f in edges if f != e]) is not None
    rng = random.Random(n)
    for times in range(1, 25):
        assert assert_same(*subdivide(n, edges, rng, times)) is None


def thinned_stacked_triangulation(n, keep, rng):
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges |= {(a, v), (b, v), (c, v)}
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    return [e for e in sorted(edges) if rng.random() < keep]


def test_large_graphs_need_no_recursion():
    # far deeper than the default recursion limit of 1,000 frames
    path = [(i, i + 1) for i in range(4999)]
    assert assert_same(5000, path) is not None
    edges = thinned_stacked_triangulation(3000, 0.8, random.Random(3000))
    assert assert_same(3000, edges) is not None


def test_importing_the_package_leaves_networkx_out():
    src = str(Path(planeblocks.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys\n"
        "import planeblocks\n"
        "from planeblocks import search\n"
        "assert 'networkx' not in sys.modules, 'import planeblocks loaded networkx'\n"
        "import networkx\n"
        "assert search.nx is networkx\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
