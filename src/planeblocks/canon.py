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

from typing import Iterable, Optional, Sequence

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


Refinement = tuple[list[int], int]  # rank-normalized colors and their count


def refine(
    nbrs: Sequence[Sequence[int]], colors: list[int], ncolors: int = -1
) -> Refinement:
    """Color refinement to a stable partition.

    Signatures pack (own color, neighbor-color multiset) into one int.
    Returns rank-normalized colors (0..k-1, ordered by signature) and k.
    Relabelling the graph and its colors relabels the result, so colors
    computed from degrees are isomorphism invariants of the vertices.  A
    caller that knows the number of distinct colors passes it as ncolors,
    which saves the second pass when the first splits nothing.
    """
    w, shift = _weights(len(nbrs))
    while True:
        weight = [w[c] for c in colors]
        sigs = [
            (c << shift) + sum(map(weight.__getitem__, nb))
            for c, nb in zip(colors, nbrs)
        ]
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
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


def degree_refinement(nbrs: Sequence[Sequence[int]]) -> Refinement:
    """The stable refinement of the degree partition, where every search
    tree of canonical_labelling starts."""
    deg = [len(nb) for nb in nbrs]
    return refine(nbrs, deg, len(set(deg)))


def _find(root: list[int], x: int) -> int:
    """The union-find root of x, halving the path to it."""
    while root[x] != x:
        root[x] = root[root[x]]
        x = root[x]
    return x


def canonical_labelling(
    adj: Masks, refined: Optional[Refinement] = None
) -> Labelling:
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
    A caller that has already computed ``degree_refinement`` of the graph
    passes it as ``refined``, the root of the tree.
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
        if nc == n:
            # a leaf: colors are distinct and rank-normalized, so vertex x
            # is at position colors[x]; row i holds the pairs (i, j > i) as
            # the low n - 1 - i bits of the sum of bit[y] over its neighbors
            order = [0] * n
            for x, c in enumerate(colors):
                order[c] = x
            bit = [1 << (n - 1 - c) for c in colors]
            code = 0
            for i, x in enumerate(order):
                width = n - 1 - i
                row = sum(map(bit.__getitem__, nbrs[x])) & ((1 << width) - 1)
                code = (code << width) | row
            if best is None or code < best:
                best, best_order = code, order
            elif code == best:
                g = [0] * n
                for a, b in zip(best_order, order):
                    g[a] = b
                gens.append(tuple(g))
            return
        # branch on the first cell, in color order, with more than one vertex
        ranked = sorted(colors)
        c = next(a for a, b in zip(ranked, ranked[1:]) if a == b)
        cell = [v for v in verts if colors[v] == c]
        explored: list[int] = []
        # the orbits of the generators that fix the path, as a union-find
        # that takes in each generator once
        root = list(verts)
        folded = 0
        for v in cell:
            if explored:
                for g in gens[folded:]:
                    if all(g[x] == x for x in path):
                        for x, y in enumerate(g):
                            if x != y:
                                a, b = _find(root, x), _find(root, y)
                                if a != b:
                                    root[max(a, b)] = min(a, b)
                folded = len(gens)
                rv = _find(root, v)
                if any(_find(root, w) == rv for w in explored):
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
            # v's cell had other vertices, so branched has nc + 1 colors
            search(*refine(nbrs, branched, nc + 1), path + [v])

    search(*(refined or degree_refinement(nbrs)), [])
    assert best is not None
    return best, tuple(best_order), gens


def canonical_form(adj: Masks) -> int:
    """The canonical code: equal for two graphs on n vertices iff isomorphic."""
    return canonical_labelling(adj)[0]

