"""Combinatorial plane graphs: rotation systems, dart algebra, face tracing.

A plane graph is given by a counterclockwise rotation system (cyclic neighbor
order around each vertex) plus one dart whose traced face is the unbounded
face.  Faces are traced with the rule: the successor of dart (u, v) is (v, w)
where w follows u in the rotation at v, so the traced face lies to the left of
each dart.  Construction validates simplicity, adjacency symmetry,
connectivity and the Euler characteristic v - e + f = 2.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    is_outer: bool
    edges: tuple[Edge, ...]

    @property
    def length(self) -> int:
        return len(self.darts)


class PlaneGraph:
    """Immutable plane graph.  Do not mutate rotations after construction."""

    def __init__(self, rotations: Sequence[Sequence[int]], outer_dart: Dart):
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
        outer_dart = (int(outer_dart[0]), int(outer_dart[1]))
        u, v = outer_dart
        if not (0 <= u < self.n and v in set(self.rotations[u])):
            raise UnknownDart(f"outer dart {u}->{v} is not a dart of the graph")
        self.outer_dart: Dart = outer_dart
        self.faces: tuple[Face, ...] = self._trace_faces()
        self.f = len(self.faces)
        if self.n - self.e + self.f != 2:
            raise GenusNonZero(
                f"v - e + f = {self.n} - {self.e} + {self.f} != 2"
            )
        # dart -> id of the face on its left; read-only
        self.dart_face: dict[Dart, int] = {
            d: face.id for face in self.faces for d in face.darts
        }

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

    def _trace_faces(self) -> tuple[Face, ...]:
        return tuple(
            Face(
                id=fid,
                darts=tuple(walk),
                is_outer=self.outer_dart in walk,
                edges=tuple(edge_of(u, v) for u, v in walk),
            )
            for fid, walk in enumerate(trace_faces(self.rotations))
        )

    # -- queries -------------------------------------------------------------

    @property
    def outer_face(self) -> Face:
        return self.faces[self.dart_face[self.outer_dart]]

    def face_of_dart(self, d: Dart) -> Face:
        if d not in self.dart_face:
            raise UnknownDart(f"{d[0]}->{d[1]} is not a dart of the graph")
        return self.faces[self.dart_face[d]]

    def with_outer(self, outer_dart: Dart) -> "PlaneGraph":
        """Same embedding with a different declared outer face.

        The rotations are already validated and face tracing does not depend
        on the outer dart, so only the faces' ``is_outer`` flags change.
        """
        h = copy.copy(self)
        h.outer_dart = (int(outer_dart[0]), int(outer_dart[1]))
        outer_id = self.face_of_dart(h.outer_dart).id  # UnknownDart if absent
        h.faces = tuple(
            Face(f.id, f.darts, f.id == outer_id, f.edges) for f in self.faces
        )
        return h

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PlaneGraph)
            and self.rotations == other.rotations
            and self.outer_dart == other.outer_dart
        )

    def __hash__(self) -> int:
        return hash((self.rotations, self.outer_dart))

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
