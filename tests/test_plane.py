import itertools
import random

import pytest

from planeblocks import search
from planeblocks.errors import (
    AsymmetricAdjacency,
    Disconnected,
    GenusNonZero,
    NonSimple,
    UnknownDart,
)
from planeblocks.plane import PlaneGraph


def test_c4_faces(fixture_graphs):
    g = fixture_graphs["c4"]
    assert (g.n, g.e, g.f) == (4, 4, 2)
    assert sorted(f.length for f in g.faces) == [4, 4]
    assert g.n - g.e + g.f == 2


def test_single_edge_one_face():
    g = PlaneGraph([[1], [0]], (0, 1))
    assert g.f == 1
    assert g.faces[0].length == 2  # the bridge is walked from both sides


def test_path_face_length_counts_bridges_twice():
    # P4: one face, each of the 3 bridges contributes 2 to its length
    g = PlaneGraph([[1], [0, 2], [1, 3], [2]], (0, 1))
    assert g.f == 1
    assert g.faces[0].length == 6


def test_face_lengths_sum_to_twice_edges():
    for seed in range(30):
        g = search.random_plane_graph(random.Random(seed).randint(4, 12), seed)
        assert sum(f.length for f in g.faces) == 2 * g.e


def test_face_tracing_deterministic(fixture_graphs):
    g = fixture_graphs["cube"]
    again = PlaneGraph(g.rotations, g.outer_dart)
    assert [f.darts for f in g.faces] == [f.darts for f in again.faces]


def test_exactly_one_outer_face(fixture_graphs):
    for g in fixture_graphs.values():
        assert len([f for f in g.faces if g.outer_dart in f.darts]) == 1


def test_default_outer_face_is_the_first_longest(fixture_graphs, corpus7):
    rotation_systems = [g.rotations for g in fixture_graphs.values()]
    rotation_systems += [rot for n in range(2, 8) for _, rot in corpus7[n]]
    for rotations in rotation_systems:
        g = PlaneGraph(rotations)
        longest = max(f.length for f in g.faces)
        first = next(f for f in g.faces if f.length == longest)
        assert next(f for f in g.faces if g.outer_dart in f.darts) is first
        assert g.outer_dart == min(first.darts)
        again = PlaneGraph(g.rotations, g.outer_dart)
        assert again.faces == g.faces
        assert again.outer_dart == g.outer_dart


def test_loop_rejected():
    with pytest.raises(NonSimple):
        PlaneGraph([[0, 1], [0]], (0, 1))


def test_parallel_edge_rejected():
    with pytest.raises(NonSimple):
        PlaneGraph([[1, 1], [0, 0]], (0, 1))


def test_asymmetric_adjacency_rejected():
    with pytest.raises(AsymmetricAdjacency):
        PlaneGraph([[1, 2], [0], [0, 1]], (0, 1))
    with pytest.raises(AsymmetricAdjacency):
        PlaneGraph([[5], [0]], (0, 1))


def test_disconnected_rejected():
    with pytest.raises(Disconnected):
        PlaneGraph([[1], [0], [3], [2]], (0, 1))


def test_unknown_outer_dart_rejected():
    with pytest.raises(UnknownDart):
        PlaneGraph([[1], [0]], (0, 5))
    with pytest.raises(UnknownDart):  # no edge, so no dart to default to
        PlaneGraph([[]])


def test_every_k5_rotation_system_has_nonzero_genus():
    """K5 is not planar, so no rotation system of it can trace to v-e+f=2."""
    neighbor_sets = [[v for v in range(5) if v != u] for u in range(5)]
    # fix the first neighbor per vertex; cyclic rotations are equivalent
    options = []
    for u in range(5):
        first, rest = neighbor_sets[u][0], neighbor_sets[u][1:]
        options.append([[first, *perm] for perm in itertools.permutations(rest)])
    count = 0
    for rotations in itertools.product(*options):
        count += 1
        with pytest.raises(GenusNonZero):
            PlaneGraph(rotations, (0, 1))
    assert count == 6**5


def test_repr_mentions_counts(fixture_graphs):
    assert "n=8" in repr(fixture_graphs["cube"])
