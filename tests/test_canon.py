import hashlib
import itertools
import random

import networkx as nx
from hypothesis import given, settings, strategies as st

from planeblocks import canon


def brute_isomorphic(a, b):
    n = len(a)
    if len(b) != n:
        return False
    for p in itertools.permutations(range(n)):
        if all(
            ((a[u] >> v) & 1) == ((b[p[u]] >> p[v]) & 1)
            for u in range(n)
            for v in range(u + 1, n)
        ):
            return True
    return False


def random_masks(rng, n, m):
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return canon.masks_from_edges(n, rng.sample(pool, m))


def relabel(adj, perm):
    n = len(adj)
    out = [0] * n
    for u in range(n):
        for v in range(n):
            if (adj[u] >> v) & 1:
                out[perm[u]] |= 1 << perm[v]
    return tuple(out)


def test_codes_equal_iff_isomorphic():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 6)
        m = rng.randint(0, n * (n - 1) // 2)
        a = random_masks(rng, n, m)
        b = random_masks(rng, n, m)
        assert (canon.canonical_form(a) == canon.canonical_form(b)) == \
            brute_isomorphic(a, b)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_code_invariant_under_relabeling(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(pool)))
    perm = data.draw(st.permutations(range(n)))
    adj = canon.masks_from_edges(n, edges)
    assert canon.canonical_form(adj) == canon.canonical_form(relabel(adj, list(perm)))


def test_decode_round_trip():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(2, 9)
        m = rng.randint(0, n * (n - 1) // 2)
        adj = random_masks(rng, n, m)
        code = canon.canonical_form(adj)
        rebuilt = canon.decode(n, code)
        assert canon.canonical_form(rebuilt) == code
        assert canon.edge_count(rebuilt) == canon.edge_count(adj)


def test_edges_masks_round_trip():
    edges = [(0, 2), (1, 3), (2, 3)]
    adj = canon.masks_from_edges(4, edges)
    assert canon.edges_from_masks(adj) == sorted(edges)
    assert canon.neighbor_lists(adj)[2] == [0, 3]


def test_trivial_sizes():
    assert canon.canonical_form((0,)) == 0
    assert canon.canonical_form(()) == 0


# SHA-256 of the sorted "n code" lines of every connected planar class with
# n <= 7 (775 classes): a change to canonical_form that moves any code of a
# small graph breaks this.
SMALL_CLASS_CODES_SHA256 = (
    "4553324d01422b562601241e0b2f7723dd2d33eddec7165bb87ec274d5300f26"
)


def test_codes_of_small_classes_are_pinned(corpus7):
    pairs = sorted(
        (n, canon.canonical_form(adj)) for n, graphs in corpus7.items() for adj, _ in graphs
    )
    assert len(pairs) == 775
    text = "".join(f"{n} {code}\n" for n, code in pairs)
    assert hashlib.sha256(text.encode()).hexdigest() == SMALL_CLASS_CODES_SHA256


def to_nx(adj):
    g = nx.Graph()
    g.add_nodes_from(range(len(adj)))
    g.add_edges_from(canon.edges_from_masks(adj))
    return g


def test_large_graphs_agree_with_networkx():
    # past 16 vertices refinement needs more colours, and per-colour
    # neighbour counts, than 16 four-bit fields hold
    rng = random.Random(17)
    cases = []
    for n in range(17, 41):
        star = canon.masks_from_edges(n, [(0, v) for v in range(1, n)])
        cycle = canon.masks_from_edges(n, [(v, (v + 1) % n) for v in range(n)])
        a = random_masks(rng, n, rng.randint(n - 1, 2 * n))
        swapped = to_nx(a)
        nx.double_edge_swap(swapped, nswap=1, max_tries=1000, seed=rng.randrange(1 << 30))
        b = canon.masks_from_edges(n, swapped.edges())  # same degree sequence
        perm = list(range(n))
        rng.shuffle(perm)
        cases += [
            (star, relabel(star, perm)),
            (cycle, relabel(cycle, perm)),
            (a, relabel(a, perm)),
            (a, b),
        ]
        # nothing refines two disjoint cycles: only orbit pruning keeps the
        # search tree small
        half = n // 2
        two_cycles = canon.masks_from_edges(
            n,
            [(v, (v + 1) % half) for v in range(half)]
            + [(half + v, half + (v + 1) % (n - half)) for v in range(n - half)],
        )
        cases.append((cycle, two_cycles))
    for x, y in cases:
        assert (canon.canonical_form(x) == canon.canonical_form(y)) == nx.is_isomorphic(
            to_nx(x), to_nx(y)
        )


def non_edge_orbits(adj, perms):
    """The orbits of the non-edges under the group the automorphisms perms
    generate."""
    n = len(adj)
    root = {(u, v): (u, v) for u in range(n) for v in range(u + 1, n) if not (adj[u] >> v) & 1}

    def find(p):
        while root[p] != p:
            p = root[p]
        return p

    for g in perms:
        for u, v in root:
            a, b = find((u, v)), find(tuple(sorted((g[u], g[v]))))
            if a != b:
                root[max(a, b)] = min(a, b)
    orbits = {}
    for p in root:
        orbits.setdefault(find(p), set()).add(p)
    return {frozenset(o) for o in orbits.values()}


def test_labelling_generates_the_automorphism_group():
    # every graph on 2..6 vertices, connected or not, from networkx's atlas
    rng = random.Random(6)
    for atlas_graph in nx.graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        if not 2 <= n <= 6:
            continue
        base = canon.masks_from_edges(n, atlas_graph.edges())
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            adj = relabel(base, perm)
            code, order, gens = canon.canonical_labelling(adj)
            assert code == canon.canonical_form(base)
            # position i of decode(code) is vertex order[i]
            assert relabel(adj, [order.index(v) for v in range(n)]) == canon.decode(n, code)
            for g in gens:
                assert relabel(adj, g) == adj
            autos = [p for p in itertools.permutations(range(n)) if relabel(adj, p) == adj]
            assert non_edge_orbits(adj, gens) == non_edge_orbits(adj, autos)


# SHA-256 of repr of the (code, order, gens) labellings of 2,000 seeded random
# graphs on 2 to 10 vertices: a change to canonical_labelling that moves a
# code, a canonical order or a generator list breaks this.
LABELLINGS_SHA256 = "259b52644e6143615e117a5a2e903f027b3bf7684f0b5461cf71731191c9ea7e"


def test_labellings_of_random_graphs_are_pinned():
    rng = random.Random(13)
    labellings = []
    for _ in range(2000):
        n = rng.randint(2, 10)
        adj = random_masks(rng, n, rng.randint(0, n * (n - 1) // 2))
        labellings.append(canon.canonical_labelling(adj))
    assert hashlib.sha256(repr(labellings).encode()).hexdigest() == LABELLINGS_SHA256


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_refine_given_the_color_count_equals_refine(data):
    n = data.draw(st.integers(min_value=2, max_value=12))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    nbrs = canon.neighbor_lists(canon.masks_from_edges(n, data.draw(st.sets(st.sampled_from(pool)))))
    colors = data.draw(st.lists(st.integers(min_value=0, max_value=n), min_size=n, max_size=n))
    assert canon.refine(nbrs, colors, len(set(colors))) == canon.refine(nbrs, colors)
