"""Combinatorial plane graphs: rotation systems, dart algebra, face tracing.

A plane graph is given by a counterclockwise rotation system (cyclic neighbor
order around each vertex).  It lives on the sphere, where no face is special;
``outer_dart`` only records which face a drawing puts outside (by default the
longest face), for the file format.  Faces are traced with the rule:
the successor of dart (u, v) is (v, w) where w follows u in the rotation at
v, so the traced face lies to the left of each dart.  Construction validates
simplicity, adjacency symmetry, connectivity and the Euler characteristic
v - e + f = 2.

Darts are integers (see `dart_tables`).  An edge's id is its index in
``PlaneGraph.edge_list``, the edges (u, v) with u < v in sorted order, and
``PlaneGraph.face_eids`` gives each face's walk as edge ids, so the block
decomposition and the ledger index lists by edge id, not dicts by edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import Iterable, Optional, Sequence

from .errors import AsymmetricAdjacency, Disconnected, GenusNonZero, NonSimple, UnknownDart
from .structure import components

Dart = tuple[int, int]
Edge = tuple[int, int]


@dataclass(frozen=True, slots=True)
class Face:
    """One face of a plane graph: a cyclic walk of darts.

    The walk starts at the face's smallest dart.  A bridge edge appears twice
    (once per dart), so its length counts toward the face twice.  ``eids``
    is the walk's edge sequence as edge ids (repeats for bridges).
    """

    id: int
    darts: tuple[Dart, ...]
    eids: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.darts)


class PlaneGraph:
    """Immutable plane graph.  Do not mutate rotations after construction.

    ``outer_dart`` names a dart of the face a drawing puts outside; only the
    file format reads it.  By default it is the first (smallest) dart of the
    longest traced face, ties going to the smallest dart, so it depends on
    the rotation system alone.

    ``face_eids[f]`` is face f's walk as edge ids (see `trace_faces`);
    ``faces`` and ``edges`` are built on first read.
    """

    def __init__(
        self, rotations: Sequence[Sequence[int]], outer_dart: Optional[Dart] = None
    ):
        self.n = len(rotations)
        self.rotations: tuple[tuple[int, ...], ...] = tuple(map(tuple, rotations))
        pos, head, nxt = dart_tables(self.rotations)
        if self.n == 0:
            raise Disconnected("empty graph")
        if any(components(self.rotations)[0]):
            raise Disconnected(f"graph on {self.n} vertices is not connected")
        # the darts (u, v) with u < v, in sorted order; eid[d]: dart d's edge id
        edge_list = [(u, v) for u, at in enumerate(pos) for v in at if u < v]
        eid = [0] * len(head)
        for i, (u, v) in enumerate(edge_list):
            eid[pos[u][v]] = eid[pos[v][u]] = i
        self.edge_list: list[Edge] = edge_list
        self.e = len(edge_list)
        starts, face_eids = trace_faces(nxt, eid)
        if outer_dart is None:
            if not starts:
                raise UnknownDart("a graph with no edge has no outer dart")
            # faces come in order of their smallest dart; max keeps the first longest
            d = starts[max(range(len(starts)), key=lambda f: len(face_eids[f]))]
            a, b = edge_list[eid[d]]
            outer_dart = (a, b) if b == head[d] else (b, a)
        u, v = outer_dart = (int(outer_dart[0]), int(outer_dart[1]))
        if not (0 <= u < self.n and v in pos[u]):
            raise UnknownDart(f"outer dart {u}->{v} is not a dart of the graph")
        self.outer_dart: Dart = outer_dart
        self.face_eids: list[list[int]] = face_eids
        self.f = len(face_eids)
        if self.n - self.e + self.f != 2:
            raise GenusNonZero(f"v - e + f = {self.n} - {self.e} + {self.f} != 2")

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        """The faces as `Face` objects, traced again from the rotations."""
        _, head, nxt = dart_tables(self.rotations)
        faces = []
        for fid, (heads, eids) in enumerate(zip(trace_faces(nxt, head)[1], self.face_eids)):
            faces.append(Face(fid, tuple(zip(heads[-1:] + heads[:-1], heads)), tuple(eids)))
        return tuple(faces)

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self.edge_list)

    def __repr__(self) -> str:
        return (
            f"PlaneGraph(n={self.n}, e={self.e}, f={self.f}, "
            f"outer={self.outer_dart[0]}->{self.outer_dart[1]})"
        )


def dart_tables(
    rotations: Sequence[Sequence[int]],
) -> tuple[list[dict[int, int]], list[int], list[int]]:
    """Integer darts of a rotation system, which must be simple and
    symmetric (NonSimple or AsymmetricAdjacency otherwise).

    Each vertex's darts are numbered in order of their heads, vertex by
    vertex, so dart ids ascend in the sorted dart order.  Returns
    (pos, head, nxt): pos[u][v] is the id of dart (u, v), head[d] the head
    of dart d, and nxt[d] the dart after d on its face, where (v, w) follows
    (u, v) when w follows u in the rotation at v.
    """
    n = len(rotations)
    pos: list[dict[int, int]] = []
    head: list[int] = []
    for u, rot in enumerate(rotations):
        heads = sorted(rot)
        at = dict(zip(heads, count(len(head))))
        if u in at:
            raise NonSimple(f"loop at vertex {u}")
        if len(at) != len(heads):
            raise NonSimple(f"parallel edge in rotation of vertex {u}")
        if heads and not (0 <= heads[0] and heads[-1] < n):
            bad = heads[0] if heads[0] < 0 else heads[-1]
            raise AsymmetricAdjacency(f"vertex {u} lists unknown neighbor {bad}")
        pos.append(at)
        head += heads
    nxt = [0] * len(head)
    try:
        for v, rot in enumerate(rotations):
            at = pos[v]
            u = rot[-1] if rot else v
            for w in rot:  # w follows u at v
                nxt[pos[u][v]] = at[w]
                u = w
    except KeyError:
        raise AsymmetricAdjacency(f"{v} lists {u} but {u} does not list {v}") from None
    return pos, head, nxt


def trace_faces(nxt: Sequence[int], label: Sequence[int]) -> tuple[list[int], list[list[int]]]:
    """The faces, given each dart's successor ``nxt`` (see `dart_tables`), as
    (starts, walks): walks[f] gives ``label[d]`` (an edge id or a head, say)
    for each dart d of face f.  Faces come in order of their smallest dart,
    starts[f], and each walk starts at it, so face ids are stable."""
    walked = bytearray(len(nxt))
    starts = []
    walks = []
    for d in range(len(nxt)):
        if not walked[d]:
            starts.append(d)
            walk = []
            x = d
            while not walked[x]:  # until the walk is back at d
                walk.append(label[x])
                walked[x] = 1
                x = nxt[x]
            walks.append(walk)
    return starts, walks


def insert_chord(rotations: list, walk: Sequence[int], u: int, v: int) -> None:
    """Draw edge uv inside a face, given the face's walk as its vertices in
    order, splitting the face in two: at each end x, the other end goes into
    x's rotation right after x's predecessor on the walk (at x's first visit).
    The two rotations are replaced in ``rotations`` by tuples."""
    for x, y in ((u, v), (v, u)):
        rot = rotations[x]
        i = rot.index(walk[walk.index(x) - 1]) + 1
        rotations[x] = (*rot[:i], y, *rot[i:])


def rotations_from_edges(n: int, edges: Iterable[Edge]) -> list[list[int]]:
    """Adjacency lists (sorted, not an embedding) from an edge list."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(a) for a in adj]
