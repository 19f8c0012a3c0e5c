"""Block decompositions of plane graphs.

A triangular block is the closure of an edge under "shares a 3-face whose
walk is a 3-cycle"; a quadrangular block uses 4-faces that are 4-cycles.  The
graph lives on the sphere, so every face counts alike and the result depends
on the rotation system only.  Edges in no such face are trivial K2 blocks.
The closure is computed as connected components of the hypergraph whose
hyperedges are the block faces, which is equivalent to the seed-and-absorb
loop and independent of the seed edge.  It runs on edge ids (the index of
an edge in ``PlaneGraph.edge_list``): ``face_eids[f]`` joins f's edges,
``BlockDecomposition.edge_block`` is indexed by edge id,
``BlockDecomposition.face_block`` by face id, and blocks and pseudofaces
list their edges as ids.

Exterior pseudofaces: the boundary of a non-interior face, rewritten while it
contains exactly two consecutive exterior edges of one K4 block (the pair is
replaced by the block's third exterior edge).  Both modes have them, but only
a triangular decomposition can hold a K4 block, so in quadrangular mode every
face is its own pseudoface.  A rewrite keeps the block id of every boundary
entry next to it, so no pair through the new edge reduces and every other
pair is judged as on the original walk: one left-to-right pass over each
walk finds all rewrites.  A same-K4 pair that cannot be rewritten (a third
edge of its block next to it) stays to the end and makes the face
degenerate.  Only a face with a rewrite or that flag gets a `Pseudoface`;
every other non-interior face is its own pseudoface, its walk in
``face_eids``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Literal

from . import canon
from .plane import Edge, PlaneGraph

Mode = Literal["triangular", "quadrangular"]


class BlockKind(enum.Enum):
    # members are singletons, so identity hashing agrees with equality (in C)
    __hash__ = object.__hash__

    K2 = "K2"
    K3 = "K3"
    THETA4 = "Theta4"
    K4 = "K4"
    C4 = "C4"
    K23 = "K2,3"
    THETA6 = "Theta6"
    Q7 = "Q7"
    OTHER = "Other"


# reference graphs for classification, as (n, edge list)
_CATALOG: dict[BlockKind, tuple[int, list[Edge]]] = {
    BlockKind.K2: (2, [(0, 1)]),
    BlockKind.K3: (3, [(0, 1), (0, 2), (1, 2)]),
    BlockKind.THETA4: (4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
    BlockKind.K4: (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    BlockKind.C4: (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    BlockKind.K23: (5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
    BlockKind.THETA6: (
        6,
        [(0, 2), (2, 3), (3, 1), (0, 1), (0, 4), (4, 5), (5, 1)],
    ),
    # three quadrilaterals around a corner (a cube with one vertex removed)
    BlockKind.Q7: (
        7,
        [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 2), (3, 6), (6, 5)],
    ),
}

TRIANGULAR_KINDS = (BlockKind.K2, BlockKind.K3, BlockKind.THETA4, BlockKind.K4)
QUADRANGULAR_KINDS = (
    BlockKind.K2,
    BlockKind.C4,
    BlockKind.K23,
    BlockKind.THETA6,
    BlockKind.Q7,
)

# (n, e, canonical code) -> kind over the whole catalog.  One table serves
# both modes: a triangular block of two or more edges holds a triangle, so it
# is none of the bipartite kinds, and a quadrangular block is a union of
# 4-cycle faces, which K3, Theta4 and K4 are not
_CATALOG_KEYS: dict[tuple[int, int, int], BlockKind] = {
    (n, len(edges), canon.canonical_form(canon.masks_from_edges(n, edges))): kind
    for kind, (n, edges) in _CATALOG.items()
}

# (n, e) of every catalog graph; a block of another size is Other
_CATALOG_SIZES = frozenset((n, e) for n, e, _ in _CATALOG_KEYS)


@dataclass(slots=True)
class Block:
    id: int
    eids: tuple[int, ...]  # edge ids, ascending
    vertices: frozenset[int]
    kind: BlockKind
    interior_faces: tuple[int, ...]  # face ids absorbed by the closure
    exterior_eids: tuple[int, ...]  # ids of edges bordering a non-interior face
    junction_vertices: frozenset[int]


@dataclass
class BlockDecomposition:
    mode: Mode
    graph: PlaneGraph
    kinds: list[BlockKind]  # the blocks as columns indexed by block id
    eids: list[list[int]]  # block id -> its edge ids, ascending
    vertices: list[tuple[int, ...]]  # block id -> its vertices, ascending
    interior_counts: list[int]  # block id -> faces its closure absorbed
    junction_counts: list[int]  # block id -> its vertices that lie in other blocks too
    exterior: bytearray  # edge id -> 1 if the edge borders a face no block absorbed
    edge_block: list[int]  # edge id -> block id
    vertex_block_count: list[int]  # vertex -> number of blocks containing it
    face_block: list[int]  # face id -> the block that absorbed the face, or -1

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        """The blocks as `Block` objects, built from the columns on first read."""
        interior: list[list[int]] = [[] for _ in self.kinds]
        for fid, bid in enumerate(self.face_block):
            if bid >= 0:
                interior[bid].append(fid)
        counts, ext = self.vertex_block_count, self.exterior
        return tuple([
            Block(bid, tuple(ids), frozenset(vs), kind, tuple(interior[bid]),
                  tuple([i for i in ids if ext[i]]), frozenset([v for v in vs if counts[v] >= 2]))
            for bid, (kind, ids, vs) in enumerate(zip(self.kinds, self.eids, self.vertices))
        ])


def decompose(g: PlaneGraph, mode: Mode) -> BlockDecomposition:
    """Partition E(G) into triangular or quadrangular blocks."""
    m = 3 if mode == "triangular" else 4
    edges = g.edge_list
    # a union puts every root under the smallest, so parent[x] <= x and a
    # block's root is its smallest edge id
    parent = list(range(g.e))
    exterior = bytearray(g.e)
    face_block = [-1] * g.f  # an edge of each block face until block ids are known
    for fid, eids in enumerate(g.face_eids):
        # a closed 3- or 4-walk with distinct edges is a cycle; no block absorbs another face
        if len(eids) != m or len(set(eids)) != m:
            for i in eids:
                exterior[i] = 1
            continue
        face_block[fid] = eids[0]
        roots = [canon.find(parent, x) for x in eids]
        r = min(roots)
        for x in roots:
            parent[x] = r

    # edge ids in order, so block ids follow each block's smallest edge, and
    # an edge's parent, a smaller id of its block, is placed before it
    edge_block = [0] * g.e
    block_eids: list[list[int]] = []
    for i, p in enumerate(parent):
        if p == i:
            edge_block[i] = len(block_eids)
            block_eids.append([i])
        else:
            bid = edge_block[i] = edge_block[p]
            block_eids[bid].append(i)

    interior_counts = [0] * len(block_eids)
    for fid, i in enumerate(face_block):
        if i >= 0:
            bid = face_block[fid] = edge_block[i]
            interior_counts[bid] += 1

    # a one-edge block's vertices are its edge, (u, v) with u < v
    block_vertices = [
        edges[ids[0]] if len(ids) == 1
        else tuple(sorted(set(chain.from_iterable(map(edges.__getitem__, ids)))))
        for ids in block_eids
    ]
    counts = [0] * g.n
    for v in chain.from_iterable(block_vertices):
        counts[v] += 1
    junction = bytes([c >= 2 for c in counts])
    # a one-edge block lies in no m-cycle face
    kinds = [BlockKind.K2 if len(ids) == 1 else _classify(vs, [edges[i] for i in ids])
             for ids, vs in zip(block_eids, block_vertices)]
    junctions = [sum(map(junction.__getitem__, vs)) for vs in block_vertices]
    return BlockDecomposition(mode, g, kinds, block_eids, block_vertices, interior_counts,
                              junctions, exterior, edge_block, counts, face_block)


# relabelled masks -> kind, for blocks of a catalog (n, e); at most one entry
# per labelled graph on 7 or fewer vertices
_KIND_MEMO: dict[canon.Masks, BlockKind] = {}


def _classify(vertices: tuple[int, ...], edges: list[Edge]) -> BlockKind:
    """Isomorphism test against the block catalog for a block of two or more
    edges, given its vertices ascending (``decompose`` makes one edge K2 itself).

    A block of a catalog size is looked up by its vertex-order relabelling,
    and canonical_form runs once per new relabelled graph.
    """
    e = len(edges)
    n = len(vertices)
    if (n, e) not in _CATALOG_SIZES:
        return BlockKind.OTHER
    relabel = {v: i for i, v in enumerate(vertices)}
    masks = canon.masks_from_edges(n, [(relabel[u], relabel[v]) for u, v in edges])
    kind = _KIND_MEMO.get(masks)
    if kind is None:
        code = canon.canonical_form(masks)
        kind = _KIND_MEMO[masks] = _CATALOG_KEYS.get((n, e, code), BlockKind.OTHER)
    return kind


# -- exterior pseudofaces ----------------------------------------------------

@dataclass(frozen=True)
class Reduction:
    block_id: int
    pair: tuple[int, int]  # edge ids
    replacement: int  # edge id


@dataclass(frozen=True)
class Pseudoface:
    face_id: int
    eids: tuple[int, ...]  # reduced cyclic edge sequence, as edge ids
    reductions: tuple[Reduction, ...] = ()
    # two consecutive edges of `eids` are exterior edges of one K4 block
    degenerate: bool = False


def refine_pseudofaces(d: BlockDecomposition) -> dict[int, Pseudoface]:
    """Pseudofaces of the non-interior faces of G that the K4 rule rewrites
    or flags degenerate, by face id; every other non-interior face is its own
    pseudoface, its walk ``d.graph.face_eids[fid]``.  The map is empty when
    d has no K4 block, as in every quadrangular decomposition: a face of a
    plane graph that is a 4-cycle of a K4 would leave the K4's other two
    edges to cross outside it.

    One pass over each boundary walk judges its pairs left to right against
    the walk's own K4 block ids, which no rewrite changes.  A same-K4 pair
    with a neighbour in its block is not rewritten and flags the face
    degenerate for good.  The n <= 3 rule needs no test of its own: on a
    simple graph a reduced walk of three edges holding two outer-triangle
    edges u-x, x-v of a K4 closes with the edge uv, the triangle's third
    edge, which is a neighbour in the pair's block.  After a rewrite of the
    first pair, walk[-1] lies outside that pair's block, so the pair that
    wraps around the end is not same-K4 and is skipped.
    """
    if BlockKind.K4 not in d.kinds:
        return {}
    # k4_of[i]: the K4 block of which edge i is an exterior edge
    k4_of: dict[int, int] = {}
    for bid, kind in enumerate(d.kinds):
        if kind is BlockKind.K4:
            for i in d.eids[bid]:
                if d.exterior[i]:
                    k4_of[i] = bid
    out: dict[int, Pseudoface] = {}
    for fid, (owner, walk) in enumerate(zip(d.face_block, d.graph.face_eids)):
        if owner >= 0 or k4_of.keys().isdisjoint(walk):
            continue
        bids = [k4_of.get(i, -1) for i in walk]
        n = len(walk)
        seq: list[int] = []
        reductions: list[Reduction] = []
        degenerate = False
        j = 0
        while j < n:
            bid, k = bids[j], (j + 1) % n
            if bid >= 0 and bids[k] == bid:
                if bids[j - 1] == bid or bids[(j + 2) % n] == bid:
                    degenerate = True
                else:
                    e1, e2 = walk[j], walk[k]
                    (third,) = [x for x in d.eids[bid] if x in k4_of and x != e1 and x != e2]
                    reductions.append(Reduction(block_id=bid, pair=(e1, e2), replacement=third))
                    if k:
                        seq.append(third)
                    else:  # the pair wraps around: third takes walk[0]'s place
                        seq[0] = third
                    j += 2
                    continue
            seq.append(walk[j])
            j += 1
        if reductions or degenerate:
            out[fid] = Pseudoface(fid, tuple(seq), tuple(reductions), degenerate)
    return out
