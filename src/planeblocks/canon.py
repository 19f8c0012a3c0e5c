"""Canonical forms for small graphs.

Graphs are adjacency bitmask tuples: ``adj[v]`` has bit ``w`` set iff vw is an
edge.  The canonical form is the minimum upper-triangle bit encoding over all
labelings reachable by color refinement plus individualization backtracking;
two graphs are isomorphic iff their (n, code) pairs match.  Any n works; the
search tree is small for the desk-scale n of the exhaustive search and for
the blocks of a decomposition.
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


def _refine(
    nbrs: Sequence[Sequence[int]], colors: list[int], ncolors: int = -1
) -> tuple[list[int], int]:
    """Color refinement to a stable partition.

    Signatures pack (own color, neighbor-color multiset) into one int.
    Returns rank-normalized colors (0..k-1, ordered by signature) and k.
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


def _encode(adj: Masks, perm: Sequence[int]) -> int:
    """Upper-triangle adjacency bits of the relabeled graph, row-major."""
    n = len(adj)
    code = 0
    for i in range(n):
        ai = adj[perm[i]]
        for j in range(i + 1, n):
            code = (code << 1) | ((ai >> perm[j]) & 1)
    return code


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


def canonical_form(adj: Masks) -> int:
    """Minimum encoding over the individualization-refinement search tree."""
    n = len(adj)
    if n <= 1:
        return 0
    nbrs = [_bits_of(m) for m in adj]
    colors, nc = _refine(nbrs, [len(nb) for nb in nbrs])
    best: int | None = None
    verts = range(n)

    def search(colors: list[int], nc: int) -> None:
        nonlocal best
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
                best = code
            return
        c = colors[order[split]]
        cell = [v for v in order[split:] if colors[v] == c]
        # Skip vertices interchangeable with an earlier cell member: the
        # transposition is an automorphism, so both branches encode equally.
        reps: list[int] = []
        for v in cell:
            dup = any(
                adj[w] & ~(1 << v) == adj[v] & ~(1 << w) for w in reps
            )
            if not dup:
                reps.append(v)
        for v in reps:
            branched = list(colors)
            branched[v] = nc
            search(*_refine(nbrs, branched))

    search(colors, nc)
    assert best is not None
    return best


def canonical_key(adj: Masks) -> tuple[int, int]:
    return (len(adj), canonical_form(adj))


def are_isomorphic(adj_a: Masks, adj_b: Masks) -> bool:
    if len(adj_a) != len(adj_b) or edge_count(adj_a) != edge_count(adj_b):
        return False
    return canonical_form(adj_a) == canonical_form(adj_b)
