"""Canonical forms for small graphs.

Graphs are adjacency bitmask tuples: ``adj[v]`` has bit ``w`` set iff vw is an
edge.  The canonical form is the minimum upper-triangle bit encoding over all
labelings reachable by color refinement plus individualization backtracking;
two graphs are isomorphic iff their (n, code) pairs match.  One search gives
the code, the labelling that attains it and generators of the automorphism
group, whose orbits prune the search tree.  Any n works; the tree is small
for the desk-scale n of the exhaustive search and for the blocks of a
decomposition.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Masks = tuple[int, ...]


def masks_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Masks:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def edges_from_masks(adj: Masks) -> list[tuple[int, int]]:
    n = len(adj)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if (adj[u] >> v) & 1]


_BITS: dict[int, tuple[int, ...]] = {}


def _bits_of(m: int) -> tuple[int, ...]:
    """Bit indices of a small mask, cached (masks repeat heavily in search)."""
    try:
        return _BITS[m]
    except KeyError:
        out = []
        mm = m
        while mm:
            b = mm & -mm
            out.append(b.bit_length() - 1)
            mm ^= b
        t = tuple(out)
        _BITS[m] = t
        return t


def neighbor_lists(adj: Masks) -> list[list[int]]:
    return [list(_bits_of(m)) for m in adj]


def edge_count(adj: Masks) -> int:
    return sum(bin(m).count("1") for m in adj) // 2


_WEIGHTS: dict[int, tuple[list[int], int]] = {}


def _weights(n: int) -> tuple[list[int], int]:
    """Per-color weights and the own-color shift of refinement signatures.

    Colors and per-color neighbor counts of an n-vertex graph are below n, so
    fields of max(4, bits(n - 1)) bits keep every signature exact.  For
    n <= 14 these are 16 four-bit fields below an own-color shift of 56.
    """
    if n not in _WEIGHTS:
        bits = max(4, (n - 1).bit_length())
        _WEIGHTS[n] = [1 << (i * bits) for i in range(max(16, n))], max(56, n * bits)
    return _WEIGHTS[n]


def refine(
    nbrs: Sequence[Sequence[int]], colors: list[int], ncolors: int = -1
) -> tuple[list[int], int]:
    """Color refinement to a stable partition.

    Signatures pack (own color, neighbor-color multiset) into one int.
    Returns rank-normalized colors (0..k-1, ordered by signature) and k.
    Relabelling the graph and its colors relabels the result, so colors
    computed from degrees are isomorphism invariants of the vertices.
    """
    w, shift = _weights(len(nbrs))
    while True:
        sigs = [
            (colors[v] << shift) + sum([w[colors[u]] for u in nb])
            for v, nb in enumerate(nbrs)
        ]
        order: dict[int, int] = {}
        for s in sorted(set(sigs)):
            order[s] = len(order)
        k = len(order)
        colors = [order[s] for s in sigs]
        if k == ncolors:
            return colors, k
        ncolors = k


def decode(n: int, code: int) -> Masks:
    """Inverse of the canonical encoding: rebuild adjacency masks."""
    adj = [0] * n
    bits = n * (n - 1) // 2
    pos = bits - 1
    for i in range(n):
        for j in range(i + 1, n):
            if (code >> pos) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            pos -= 1
    return tuple(adj)


Perm = tuple[int, ...]
Labelling = tuple[int, Perm, list[Perm]]


def _orbit_roots(n: int, gens: Iterable[Perm]) -> list[int]:
    """The smallest vertex of each vertex's orbit under the group of gens."""
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for g in gens:
        for x in range(n):
            a, b = find(x), find(g[x])
            if a != b:
                root[max(a, b)] = min(a, b)
    return [find(x) for x in range(n)]


def canonical_labelling(adj: Masks) -> Labelling:
    """Canonical code, canonical vertex order and automorphism generators.

    The code is the minimum encoding over the leaves of the
    individualization-refinement search tree.  ``order[i]`` is the vertex at
    position i of the leaf that attains it, so relabelling adj by position
    gives ``decode(n, code)``.  Each generator ``g`` is an automorphism
    (``g[v]`` is the image of v), taken from a leaf whose code equals the best
    one found so far or from two cell vertices whose transposition is an
    automorphism.  A child of a tree node is skipped when it lies in the orbit
    of an explored sibling under the generators that fix the node's path, so
    the skipped subtree is an image of an explored one and holds the same
    codes.  Every automorphism maps the best leaf to an equal-coded leaf that
    was either explored, and so compared with the best leaf, or skipped as an
    image of one; so the generators generate the whole automorphism group.
    """
    n = len(adj)
    if n <= 1:
        return 0, tuple(range(n)), []
    nbrs = [_bits_of(m) for m in adj]
    gens: list[Perm] = []
    best: int | None = None
    best_order: list[int] = []
    verts = range(n)

    def search(colors: list[int], nc: int, path: list[int]) -> None:
        nonlocal best, best_order
        order = sorted(verts, key=colors.__getitem__)
        split = -1
        for i in range(n - 1):
            if colors[order[i]] == colors[order[i + 1]]:
                split = i
                break
        if split < 0:
            code = 0
            for i in range(n):
                ai = adj[order[i]]
                for j in range(i + 1, n):
                    code = code + code + ((ai >> order[j]) & 1)
            if best is None or code < best:
                best, best_order = code, order
            elif code == best:
                g = [0] * n
                for a, b in zip(best_order, order):
                    g[a] = b
                gens.append(tuple(g))
            return
        c = colors[order[split]]
        cell = [v for v in order[split:] if colors[v] == c]
        explored: list[int] = []
        known = -1
        roots: list[int] = []
        for v in cell:
            if explored:
                if known != len(gens):
                    known = len(gens)
                    roots = _orbit_roots(
                        n, (g for g in gens if all(g[x] == x for x in path))
                    )
                if any(roots[v] == roots[w] for w in explored):
                    continue
                twin = next(
                    (w for w in explored if adj[w] & ~(1 << v) == adj[v] & ~(1 << w)),
                    -1,
                )
                if twin >= 0:
                    g = list(verts)
                    g[v], g[twin] = twin, v
                    gens.append(tuple(g))
                    continue
            explored.append(v)
            branched = list(colors)
            branched[v] = nc
            search(*refine(nbrs, branched), path + [v])

    search(*refine(nbrs, [len(nb) for nb in nbrs]), [])
    assert best is not None
    return best, tuple(best_order), gens


def canonical_form(adj: Masks) -> int:
    """The canonical code: equal for two graphs on n vertices iff isomorphic."""
    return canonical_labelling(adj)[0]

