import dataclasses
import hashlib
import itertools

import pytest

from planeblocks import canon, planarity, search
from planeblocks.errors import CeilingExceeded
from planeblocks.fixtures import load_fixture
from planeblocks.plane import PlaneGraph
from planeblocks.structure import components, is_bipartite, structural_stats

from conftest import RetriesExhausted, random_plane_graph


def brute_classes(n):
    """Isomorphism classes of connected planar graphs on n labeled vertices,
    taken by quotienting all 2^C(n,2) edge subsets."""
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    seen = {}
    for bits in range(1 << len(pool)):
        edges = [pool[i] for i in range(len(pool)) if (bits >> i) & 1]
        adj = canon.masks_from_edges(n, edges)
        if any(components(canon.neighbor_lists(adj))[0]):
            continue
        if not search.is_planar(n, edges):
            continue
        seen.setdefault(canon.canonical_form(adj), len(edges))
    return seen


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_matches_labeled_quotient(n):
    expected = brute_classes(n)
    got = {}
    for adj, _ in search.enumerate_graphs(search.ConstraintSet(n=n)):
        code = canon.canonical_form(adj)
        assert code not in got, "class emitted twice"
        got[code] = canon.edge_count(adj)
    assert got == expected


def emits(adj, cs):
    nbrs = canon.neighbor_lists(adj)
    return not any(components(nbrs)[0]) and cs.stats_hold(structural_stats(nbrs))


def edge_by_edge(cs):
    """Reference enumerator: every child of every kept class, deduplicated by
    canonical form, level by level (the generator enumerate_graphs replaced)."""
    n = cs.n
    empty = tuple([0] * n)
    if n == 1:
        if emits(empty, cs):
            yield empty
        return
    level = {canon.canonical_form(empty): empty}
    for _ in range(search._planar_cap(n, cs)):
        next_level = {}
        rejected = set()
        for code in sorted(level):
            adj = level[code]
            for u in range(n):
                for v in range(u + 1, n):
                    if (adj[u] >> v) & 1 or not search._new_edge_ok(adj, u, v, cs):
                        continue
                    child = list(adj)
                    child[u] |= 1 << v
                    child[v] |= 1 << u
                    child = tuple(child)
                    if cs.bipartite and not is_bipartite(canon.neighbor_lists(child))[0]:
                        continue
                    ccode = canon.canonical_form(child)
                    if ccode in next_level or ccode in rejected:
                        continue
                    if search.is_planar(n, canon.edges_from_masks(child)):
                        next_level[ccode] = canon.decode(n, ccode)
                    else:
                        rejected.add(ccode)
        level = next_level
        for code in sorted(level):
            if emits(level[code], cs):
                yield level[code]


# every constraint set the tests, the CLI cases and the bench enumerate, at n <= 8
PARITY_SETS = (
    [dict(n=n) for n in range(1, 9)]
    + [dict(n=n, forbidden_cycles=(3,)) for n in (5, 6)]
    + [dict(n=5, **{field: value}) for field, value in [
        ("bipartite", True), ("min_degree", 2), ("exact_min_degree", 2),
        ("two_connected", True), ("deg2_neighbor_ok", True)]]
    + [
        dict(n=5, forbidden_cycles=(3,), min_degree=2),
        dict(n=6, bipartite=True),
        dict(n=6, bipartite=True, forbidden_cycles=(6,)),
        dict(n=6, forbidden_cycles=(4,), min_degree=2, two_connected=True),
        dict(n=6, exact_min_degree=2, deg2_neighbor_ok=True),
        dict(n=8, forbidden_cycles=(4,), two_connected=True),
        dict(n=8, bipartite=True, forbidden_cycles=(6,)),
        dict(n=8, forbidden_cycles=(5,), min_degree=3, two_connected=True),
    ]
    + [dict(n=n, bipartite=True, forbidden_cycles=(6,), min_degree=3) for n in range(1, 9)]
    + [dict(n=n, bipartite=True, forbidden_cycles=(6,), min_degree=2, deg2_neighbor_ok=True)
       for n in (6, 7, 8)]
    + [dict(n=n, bipartite=True, forbidden_cycles=(8, 10), min_degree=3) for n in range(1, 9)]
)


def set_id(kwargs):
    return ",".join(f"{k}={v}" for k, v in kwargs.items()).replace(" ", "")


@pytest.mark.parametrize("kwargs", PARITY_SETS, ids=set_id)
def test_enumeration_matches_edge_by_edge_reference(kwargs):
    cs = search.ConstraintSet(**kwargs)
    assert [adj for adj, _ in search.enumerate_graphs(cs)] == list(edge_by_edge(cs))


# SHA-256 of repr of the yielded (adj, rotations) list, and the SearchStats
# fields (candidates, expanded, children, emitted), of the bench's three
# enumerations: a change to the search that moves a class, a rotation system
# or a counter breaks this.
STREAM_PINS = [
    (dict(n=7), "428f0dae6956dfe6d694a8e80489cdf067186a193845b7d3d2870a8905042740",
     (876, 821, 5687, 646)),
    (dict(n=8, forbidden_cycles=(4,), two_connected=True),
     "5070c16b6952a3d68b69ff3c22dad38606dc6fcda66d4d8d4da37084eb8a44be", (350, 350, 3566, 19)),
    (dict(n=8, bipartite=True, forbidden_cycles=(6,)),
     "ac52180bf23ee6674f703493f6400e2b46d3bc79a418c126d6bcc2e82a677e2a", (186, 186, 1769, 87)),
]


@pytest.mark.parametrize("kwargs,sha,counts", STREAM_PINS, ids=[set_id(k) for k, _, _ in STREAM_PINS])
def test_search_stream_and_stats_are_pinned(kwargs, sha, counts):
    stats = search.SearchStats()
    stream = list(search.enumerate_graphs(search.ConstraintSet(**kwargs), stats=stats))
    assert hashlib.sha256(repr(stream).encode()).hexdigest() == sha
    assert dataclasses.astuple(stats) == counts


def reference_degree_ties(child, new):
    """The degree tier of the canonical-deletion test as a scan of the child:
    None if an edge has a larger sorted degree pair than new, else the edges
    whose pair equals new's."""
    nbrs = canon.neighbor_lists(child)
    deg = [len(nb) for nb in nbrs]
    u, v = new
    key = (deg[u], deg[v]) if deg[u] < deg[v] else (deg[v], deg[u])
    ties = []
    for x, nb in enumerate(nbrs):
        dx = deg[x]
        if dx < key[0]:
            continue
        for y in nb:
            if y < x:
                continue
            dy = deg[y]
            k = (dx, dy) if dx < dy else (dy, dx)
            if k > key:
                return None
            if k == key:
                ties.append((x, y))
    return ties


# two triangles, and an edge and an isolated vertex beside a 4-cycle
DISCONNECTED_PARENTS = [
    canon.masks_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    canon.masks_from_edges(7, [(0, 1), (2, 3), (3, 4), (4, 5), (2, 5)]),
]


def test_degree_tier_from_the_parent_matches_a_scan_of_the_child(corpus7):
    # every non-edge, so every orbit representative the search tries, of
    # every class on 2 to 7 vertices, and two disconnected parents
    parents = [pair for n in range(2, 8) for pair in corpus7[n]] + [
        (adj, tuple(map(tuple, canon.neighbor_lists(adj)))) for adj in DISCONNECTED_PARENTS
    ]
    accepted = rejected = 0
    for adj, rotations in parents:
        parent = search._Parent(adj, rotations)
        for u, v in search._non_edge_orbits(adj, []):
            child = list(adj)
            child[u] |= 1 << v
            child[v] |= 1 << u
            want = reference_degree_ties(tuple(child), (u, v))
            got = parent.ties(u, v)
            if want is None:
                assert got is None, (adj, u, v)
                rejected += 1
            else:
                assert sorted(got) == sorted(want), (adj, u, v)
                accepted += 1
    assert (accepted, rejected) == (1723, 6008)  # 7,706 + 9 + 16 non-edges


def brute_non_edge_orbits(adj, group):
    """The lexicographically first non-edge of each orbit under ``group``,
    a list of every permutation in the group, in lexicographic order."""
    reps = {min(tuple(sorted((g[u], g[v]))) for g in group)
            for u, v in itertools.combinations(range(len(adj)), 2) if not (adj[u] >> v) & 1}
    return sorted(reps)


def test_non_edge_orbits_match_a_brute_force_orbit_partition(corpus7):
    # every class on at most 6 vertices, and the disconnected parents, under
    # their labelling's generators and under no generator
    graphs = [adj for n in range(1, 7) for adj, _ in corpus7[n]] + DISCONNECTED_PARENTS
    counts = [0, 0]
    for adj in graphs:
        n = len(adj)
        nbrs = canon.neighbor_lists(adj)
        autos = [p for p in itertools.permutations(range(n))
                 if all(adj[p[u]] == sum(1 << p[w] for w in nbrs[u]) for u in range(n))]
        for i, (gens, group) in enumerate([(canon.canonical_labelling(adj)[2], autos),
                                           ([], [tuple(range(n))])]):
            reps = search._non_edge_orbits(adj, gens)
            assert reps == brute_non_edge_orbits(adj, group), (adj, gens)
            counts[i] += len(reps)
    assert counts == [440, 805]  # orbits under the automorphisms, and non-edges


def test_yielded_rotations_embed_their_class(corpus7):
    assert corpus7[1] == [((0,), ((),))]
    classes = [pair for n in range(2, 8) for pair in corpus7[n]]
    for kwargs in (dict(n=8, bipartite=True, forbidden_cycles=(6,)),
                   dict(n=8, forbidden_cycles=(4,), two_connected=True)):
        classes += search.enumerate_graphs(search.ConstraintSet(**kwargs))
    for adj, rotations in classes:
        # construction checks simplicity, connectivity and v - e + f = 2
        g = PlaneGraph(rotations, (0, rotations[0][0]))
        assert g.edges == set(canon.edges_from_masks(adj)), adj


def class_count(n, **kwargs):
    return sum(1 for _ in search.enumerate_graphs(search.ConstraintSet(n=n), **kwargs))


def test_class_counts_small():
    # connected planar simple graphs per vertex count
    assert [class_count(n) for n in range(1, 8)] == [1, 1, 2, 6, 20, 99, 646]


def genus_zero(n, edges, rotations):
    """Whether the rotation system lists exactly these edges and every
    component, an isolated vertex with its one face included, has
    v - e + f = 2."""
    assert sorted((u, v) for u in range(n) for v in rotations[u] if u < v) == sorted(edges)
    assert all(len(set(rot)) == len(rot) for rot in rotations)
    darts = {(u, v) for u in range(n) for v in rotations[u]}
    faces = sum(1 for v in range(n) if not rotations[v])
    while darts:
        start = d = darts.pop()
        while True:
            u, v = d
            rot = rotations[v]
            d = (v, rot[(rot.index(u) + 1) % len(rot)])
            if d == start:
                break
            darts.remove(d)
        faces += 1
    root = list(range(n))
    for u, v in edges:
        while root[u] != u:
            u = root[u]
        while root[v] != v:
            v = root[v]
        root[u] = v
    components = sum(1 for v in range(n) if root[v] == v)
    return n - len(edges) + faces == 2 * components


def check_children(adj, rotations):
    """Decide every child adj + uv from the embedding and check each decision
    against is_planar, and on a bipartite parent the child's bipartiteness
    against is_bipartite; returns the planarity decisions."""
    n = len(adj)
    parent = search._Parent(adj, rotations)
    bipartite = is_bipartite(canon.neighbor_lists(adj))[0]
    decisions = []
    for u in range(n):
        for v in range(u + 1, n):
            if (adj[u] >> v) & 1:
                continue
            edges = canon.edges_from_masks(adj) + [(u, v)]
            if bipartite:
                child = canon.masks_from_edges(n, edges)
                want = is_bipartite(canon.neighbor_lists(child))[0]
                assert parent.keeps_bipartite(u, v) == want, (adj, u, v)
            child = parent.child(u, v)
            assert (child is not None) == search.is_planar(n, edges), (adj, u, v)
            if child is not None:
                assert genus_zero(n, edges, child), (adj, u, v)
                if not any(components(child)[0]):
                    assert PlaneGraph(child, (u, v)).e == len(edges)
            decisions.append(child is not None)
    return decisions


def test_children_decided_from_the_parent_embedding(corpus7):
    decided = 0
    for n in range(2, 8):
        for adj, _ in corpus7[n]:
            g = search.planar_embed(n, canon.edges_from_masks(adj))
            decided += len(check_children(adj, g.rotations))
    assert decided == 7706  # the non-edges of all 774 classes on 2 to 7 vertices
    # disconnected parents, as the search keeps them
    for adj in DISCONNECTED_PARENTS:
        rotations = tuple(tuple(nb) for nb in canon.neighbor_lists(adj))
        assert all(check_children(adj, rotations))


def counting_lr_rotations(monkeypatch):
    calls = []
    real = planarity.lr_rotations
    monkeypatch.setattr(planarity, "lr_rotations", lambda *a: calls.append(1) or real(*a))
    return calls


def test_cube_plus_an_antipodal_chord_is_not_planar():
    cube = load_fixture("cube")
    adj = canon.masks_from_edges(cube.n, cube.edges)
    # the vertex no face of the cube shares with vertex 0 is its antipode
    (far,) = [v for v in range(cube.n) if v != 0 and not any(
        {0, v} <= {x for x, _ in f.darts} for f in cube.faces)]
    parent = search._Parent(adj, cube.rotations)
    assert parent.child(0, far) is None
    assert not search.is_planar(cube.n, sorted(cube.edges) + [(0, far)])


def test_lr_rotations_decides_when_the_embedding_cannot(monkeypatch):
    # K_{2,4} with hubs 0, 1 and rim 2, 3, 4, 5 in that order around both
    # hubs: 2 and 4 share no face
    adj = canon.masks_from_edges(6, [(h, r) for h in (0, 1) for r in (2, 3, 4, 5)])
    rotations = ((2, 3, 4, 5), (5, 4, 3, 2), (0, 1), (0, 1), (0, 1), (0, 1))
    parent = search._Parent(adj, rotations)
    calls = counting_lr_rotations(monkeypatch)
    for u, v in [(0, 1), (2, 3), (2, 5)]:
        assert parent.child(u, v) is not None
    assert calls == []
    assert parent.child(2, 4) is not None
    assert len(calls) == 1
    assert all(check_children(adj, rotations))


def test_emission_computes_stats_only_when_a_constraint_reads_them(monkeypatch):
    calls = []
    real = search.structural_stats
    monkeypatch.setattr(search, "structural_stats", lambda adj: calls.append(1) or real(adj))
    assert sum(1 for _ in search.enumerate_graphs(search.ConstraintSet(n=6))) == 99
    assert sum(1 for _ in search.enumerate_graphs(
        search.ConstraintSet(n=6, forbidden_cycles=(3,)))) == 18
    assert calls == []
    for field, value in [("bipartite", True), ("min_degree", 2), ("exact_min_degree", 2),
                         ("two_connected", True), ("deg2_neighbor_ok", True)]:
        cs = search.ConstraintSet(n=5, **{field: value})
        assert cs.needs_stats, field
        calls.clear()
        list(search.enumerate_graphs(cs))
        assert calls, field


def test_enumeration_is_deterministic():
    cs = search.ConstraintSet(n=6, bipartite=True)
    first = list(search.enumerate_graphs(cs))
    second = list(search.enumerate_graphs(cs))
    assert first == second
    edge_counts = [canon.edge_count(adj) for adj, _ in first]
    assert edge_counts == sorted(edge_counts)
    # strictly ascending: the final sort holds, and no class comes twice
    keys = [(canon.edge_count(adj), canon.canonical_form(adj)) for adj, _ in first]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_constrained_enumeration_filters():
    cs = search.ConstraintSet(n=6, forbidden_cycles=(4,), min_degree=2,
                              two_connected=True)
    for adj, _ in search.enumerate_graphs(cs):
        nbrs = canon.neighbor_lists(adj)
        s = structural_stats(nbrs)
        assert s.min_degree >= 2 and s.two_connected
        from planeblocks.structure import contains_cycle_of_length

        assert not contains_cycle_of_length(nbrs, 4)


def test_k5_and_k33_not_planar():
    k5 = list(itertools.combinations(range(5), 2))
    assert not search.is_planar(5, k5)
    k33 = [(u, v) for u in range(3) for v in range(3, 6)]
    assert not search.is_planar(6, k33)
    assert search.planar_embed(5, k5) is None
    # trees are planar
    assert search.is_planar(6, [(i, i + 1) for i in range(5)])


def test_planar_embed_properties():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
    g = search.planar_embed(4, edges)
    assert (g.n, g.e) == (4, 5)
    outer = next(f for f in g.faces if g.outer_dart in f.darts)
    assert outer.length == max(f.length for f in g.faces)
    again = search.planar_embed(4, list(reversed(edges)))
    assert g.rotations == again.rotations
    assert g.outer_dart == again.outer_dart


def test_extremal_search_k4_is_extremal():
    res = search.extremal_search(search.ConstraintSet(n=4))
    assert res.max_edges == 6
    (w,) = res.witnesses
    assert (w.n, w.e) == (4, 6)


def test_extremal_search_triangle_free():
    res = search.extremal_search(search.ConstraintSet(n=5, forbidden_cycles=(3,)))
    assert res.max_edges == 6  # K_{2,3}
    for w in res.witnesses:
        assert w.e == 6


def test_extremal_witnesses_keep_the_yielded_embeddings(monkeypatch):
    calls = []
    real = search.planar_embed
    monkeypatch.setattr(search, "planar_embed", lambda *a: calls.append(1) or real(*a))
    for kwargs in (dict(n=6), dict(n=7, forbidden_cycles=(3,)), dict(n=7, bipartite=True)):
        cs = search.ConstraintSet(**kwargs)
        res = search.extremal_search(cs)
        classes = [(adj, rot) for adj, rot in search.enumerate_graphs(cs)
                   if canon.edge_count(adj) == res.max_edges][:search.WITNESS_CAP]
        assert len(res.witnesses) == len(classes) > 0
        for w, (adj, rot) in zip(res.witnesses, classes):
            assert w.edges == set(canon.edges_from_masks(adj))
            assert w.rotations == rot
    assert calls == []


def test_extremal_stats_populated():
    res = search.extremal_search(search.ConstraintSet(n=4))
    assert res.stats.emitted >= 6
    assert res.stats.candidates >= res.stats.expanded


def test_random_plane_graph_deterministic():
    a = random_plane_graph(9, 123)
    b = random_plane_graph(9, 123)
    assert a.rotations == b.rotations and a.outer_dart == b.outer_dart
    c = random_plane_graph(9, 124)
    assert (a.rotations, a.outer_dart) != (c.rotations, c.outer_dart)


def test_random_plane_graph_respects_constraints():
    cs = search.ConstraintSet(n=8, min_degree=2, two_connected=True)
    for seed in range(5):
        g = random_plane_graph(8, 60 + seed, cs=cs)
        s = structural_stats(g.rotations)
        assert s.min_degree >= 2 and s.two_connected


def test_random_plane_graph_retries_exhausted():
    # no bipartite graph on 3 vertices has min degree 2
    cs = search.ConstraintSet(n=3, bipartite=True, min_degree=2)
    with pytest.raises(RetriesExhausted):
        random_plane_graph(3, 1, cs=cs)


@pytest.mark.parametrize("n", [0, -3])
def test_enumeration_rejects_n_below_one(n):
    with pytest.raises(ValueError, match="n >= 1"):
        next(search.enumerate_graphs(search.ConstraintSet(n=n)))


def test_default_ceiling_guard():
    with pytest.raises(CeilingExceeded):
        next(search.enumerate_graphs(search.ConstraintSet(n=12)))


def test_ceiling_argument():
    with pytest.raises(CeilingExceeded):
        next(search.enumerate_graphs(search.ConstraintSet(n=5), ceiling=4))
    assert class_count(4, ceiling=4) == 6  # a graph at the ceiling is enumerated
