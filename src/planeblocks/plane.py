"""Combinatorial plane graphs: rotation systems, dart algebra, face tracing.

A plane graph is given by a counterclockwise rotation system (cyclic neighbor
order around each vertex).  It lives on the sphere, where no face is special;
``outer_dart`` only records which face a drawing puts outside (by default the
longest face), for the file format.  Faces are traced with the rule:
the successor of dart (u, v) is (v, w) where w follows u in the rotation at
v, so the traced face lies to the left of each dart.  Construction validates
simplicity, adjacency symmetry, connectivity and the Euler characteristic
v - e + f = 2.

An edge's id is its index in ``PlaneGraph.edge_list``, the edges (u, v) with
u < v in sorted order; ``Face.eids`` gives a face's walk as edge ids, so the
block decomposition and the ledger index lists by edge id, not dicts by edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import (
    AsymmetricAdjacency,
    Disconnected,
    GenusNonZero,
    NonSimple,
    UnknownDart,
)
from .structure import is_connected

Dart = tuple[int, int]
Edge = tuple[int, int]


def edge_of(u: int, v: int) -> Edge:
    """Undirected edge key (min, max)."""
    return (u, v) if u < v else (v, u)


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
    """

    def __init__(
        self, rotations: Sequence[Sequence[int]], outer_dart: Optional[Dart] = None
    ):
        self.n = len(rotations)
        self.rotations: tuple[tuple[int, ...], ...] = tuple(
            tuple(r) for r in rotations
        )
        self._validate_simple()
        # sorted: vertices in order, and each one's neighbours sorted
        edge_list = [(u, v) for u, r in enumerate(self.rotations) for v in sorted(r) if u < v]
        self.edge_list: list[Edge] = edge_list
        self.edges: frozenset[Edge] = frozenset(edge_list)
        self.e = len(edge_list)
        self._validate_connected()
        walks = trace_faces(self.rotations)
        if outer_dart is None:
            if not walks:
                raise UnknownDart("a graph with no edge has no outer dart")
            # walks start at their smallest dart and come in that order, and
            # max keeps the first maximum
            outer_dart = max(walks, key=len)[0]
        u, v = outer_dart = (int(outer_dart[0]), int(outer_dart[1]))
        if not (0 <= u < self.n and v in self.rotations[u]):
            raise UnknownDart(f"outer dart {u}->{v} is not a dart of the graph")
        self.outer_dart: Dart = outer_dart
        # eid[u][v] = eid[v][u] = the id of edge uv
        eid: list[dict[int, int]] = [{} for _ in range(self.n)]
        for i, (u, v) in enumerate(edge_list):
            eid[u][v] = eid[v][u] = i
        faces = []
        for fid, walk in enumerate(walks):
            faces.append(Face(fid, tuple(walk), tuple([eid[u][v] for u, v in walk])))
        self.faces: tuple[Face, ...] = tuple(faces)
        self.f = len(self.faces)
        if self.n - self.e + self.f != 2:
            raise GenusNonZero(f"v - e + f = {self.n} - {self.e} + {self.f} != 2")

    # -- construction helpers ------------------------------------------------

    def _validate_simple(self) -> None:
        neighbor_sets = [set(rot) for rot in self.rotations]
        for u, rot in enumerate(self.rotations):
            if u in neighbor_sets[u]:
                raise NonSimple(f"loop at vertex {u}")
            if len(neighbor_sets[u]) != len(rot):
                raise NonSimple(f"parallel edge in rotation of vertex {u}")
            for v in rot:
                if not 0 <= v < self.n:
                    raise AsymmetricAdjacency(f"vertex {u} lists unknown neighbor {v}")
        for u, nbrs in enumerate(neighbor_sets):
            for v in nbrs:
                if u not in neighbor_sets[v]:
                    raise AsymmetricAdjacency(f"{u} lists {v} but {v} does not list {u}")

    def _validate_connected(self) -> None:
        if self.n == 0:
            raise Disconnected("empty graph")
        if not is_connected(self.rotations):
            raise Disconnected(f"graph on {self.n} vertices is not connected")

    def __repr__(self) -> str:
        return (
            f"PlaneGraph(n={self.n}, e={self.e}, f={self.f}, "
            f"outer={self.outer_dart[0]}->{self.outer_dart[1]})"
        )


def trace_faces(rotations: Sequence[Sequence[int]]) -> list[list[Dart]]:
    """The faces of a rotation system as dart walks: (v, w) follows (u, v)
    when w follows u at v.  Walks come in order of their smallest dart and
    each starts at it, so a face's index is stable for a fixed rotation system.
    """
    # succ[v][u] = the neighbor following u in the rotation at v
    succ = [dict(zip(rot, rot[1:] + rot[:1])) for rot in rotations]
    walked: list[set[int]] = [set() for _ in rotations]  # v in walked[u]: dart (u, v)
    faces = []
    # darts in sorted order: by tail, then by head
    for u, rot in enumerate(rotations):
        for v in sorted(rot):
            if v in walked[u]:
                continue
            walk = []
            a, b = u, v
            while True:
                walk.append((a, b))
                walked[a].add(b)
                a, b = b, succ[b][a]
                if b == v and a == u:
                    break
            faces.append(walk)
    return faces


def rotations_from_edges(n: int, edges: Iterable[Edge]) -> list[list[int]]:
    """Adjacency lists (sorted, not an embedding) from an edge list."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(a) for a in adj]
