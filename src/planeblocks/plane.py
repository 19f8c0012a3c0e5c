"""Combinatorial plane graphs: rotation systems, dart algebra, face tracing.

A plane graph is given by a counterclockwise rotation system (cyclic neighbor
order around each vertex).  It lives on the sphere, where no face is special;
``outer_dart`` only records which face a drawing puts outside (by default the
longest face), for the file format.  Faces are traced with the rule:
the successor of dart (u, v) is (v, w) where w follows u in the rotation at
v, so the traced face lies to the left of each dart.  Construction validates
simplicity, adjacency symmetry, connectivity and the Euler characteristic
v - e + f = 2.
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


@dataclass(frozen=True)
class Face:
    """One face of a plane graph: a cyclic walk of darts.

    The walk starts at the face's smallest dart.  A bridge edge appears twice
    (once per dart), so its length counts toward the face twice.  ``edges``
    is the edge sequence of the walk (repeats for bridges).
    """

    id: int
    darts: tuple[Dart, ...]
    edges: tuple[Edge, ...]

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
        self.edges: frozenset[Edge] = frozenset(
            edge_of(u, v) for u in range(self.n) for v in self.rotations[u]
        )
        self.e = len(self.edges)
        self._validate_connected()
        walks = trace_faces(self.rotations)
        # dart -> id of the face on its left; read-only
        self.dart_face: dict[Dart, int] = {
            d: fid for fid, walk in enumerate(walks) for d in walk
        }
        if outer_dart is None:
            if not walks:
                raise UnknownDart("a graph with no edge has no outer dart")
            # walks start at their smallest dart and come in that order, and
            # max keeps the first maximum
            outer_dart = max(walks, key=len)[0]
        outer_dart = (int(outer_dart[0]), int(outer_dart[1]))
        if outer_dart not in self.dart_face:
            raise UnknownDart(
                f"outer dart {outer_dart[0]}->{outer_dart[1]} is not a dart of the graph"
            )
        self.outer_dart: Dart = outer_dart
        self.faces: tuple[Face, ...] = tuple(
            Face(id=fid, darts=tuple(walk), edges=tuple(edge_of(u, v) for u, v in walk))
            for fid, walk in enumerate(walks)
        )
        self.f = len(self.faces)
        if self.n - self.e + self.f != 2:
            raise GenusNonZero(
                f"v - e + f = {self.n} - {self.e} + {self.f} != 2"
            )

    # -- construction helpers ------------------------------------------------

    def _validate_simple(self) -> None:
        for u, rot in enumerate(self.rotations):
            if u in rot:
                raise NonSimple(f"loop at vertex {u}")
            if len(set(rot)) != len(rot):
                raise NonSimple(f"parallel edge in rotation of vertex {u}")
            for v in rot:
                if not 0 <= v < self.n:
                    raise AsymmetricAdjacency(
                        f"vertex {u} lists unknown neighbor {v}"
                    )
        neighbor_sets = [set(rot) for rot in self.rotations]
        for u, nbrs in enumerate(neighbor_sets):
            for v in nbrs:
                if u not in neighbor_sets[v]:
                    raise AsymmetricAdjacency(
                        f"{u} lists {v} but {v} does not list {u}"
                    )

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
    # nxt[(v, u)] = the neighbor following u in the rotation at v; the keys
    # are exactly the darts
    nxt: dict[Dart, int] = {}
    for v, rot in enumerate(rotations):
        deg = len(rot)
        for i, u in enumerate(rot):
            nxt[(v, u)] = rot[(i + 1) % deg]
    faces = []
    visited: set[Dart] = set()
    for start in sorted(nxt):
        if start in visited:
            continue
        walk = []
        d = start
        while True:
            walk.append(d)
            visited.add(d)
            u, v = d
            d = (v, nxt[(v, u)])
            if d == start:
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
