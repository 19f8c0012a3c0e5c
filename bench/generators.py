"""Seeded input generators owned by the benchmark.

Every generator is a pure function of its arguments and an explicit
``random.Random``: the same seed gives the same inputs.  None of them calls
into ``planeblocks``; the program under test receives only the edge lists or
graph-file text built here.

Rotation systems follow the package's face-tracing rule: the successor of dart
(u, v) is (v, w), where w follows u in the rotation at v.
"""

from __future__ import annotations

import random

Edge = tuple[int, int]


def edges_of(rot: list[list[int]]) -> list[Edge]:
    """Edges (u, v) with u < v, sorted."""
    return sorted((u, v) for u in range(len(rot)) for v in rot[u] if u < v)


def _spanning_tree(n: int, edges: list[Edge], rng: random.Random) -> set[Edge]:
    """Edges of a random spanning tree (Kruskal over a shuffled order)."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    order = list(edges)
    rng.shuffle(order)
    tree = set()
    for u, v in order:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.add((u, v))
    return tree


def stacked_triangulation(n: int, rng: random.Random) -> list[list[int]]:
    """Rotation system of a random stacked triangulation on n >= 3 vertices.

    Each new vertex goes into a uniformly chosen bounded face a->b->c (in
    tracing order) and is joined to its three corners.
    """
    if n < 3:
        raise ValueError("a stacked triangulation needs n >= 3")
    rot: list[list[int]] = [[1, 2], [2, 0], [0, 1]]
    faces: list[tuple[int, int, int]] = [(0, 1, 2)]
    for v in range(3, n):
        i = rng.randrange(len(faces))
        a, b, c = faces[i]
        # v goes after c at a, after a at b and after b at c, which splits
        # a->b->c into a->b->v, b->c->v and c->a->v
        for x, before in ((a, c), (b, a), (c, b)):
            r = rot[x]
            r.insert(r.index(before) + 1, v)
        rot.append([a, c, b])
        faces[i] = (a, b, v)
        faces += [(b, c, v), (c, a, v)]
    return rot


def thin(rot: list[list[int]], keep: float, rng: random.Random) -> list[list[int]]:
    """Delete each edge outside a random spanning tree with probability
    1 - keep.  The result stays connected, so it is still a plane embedding."""
    n = len(rot)
    edges = edges_of(rot)
    tree = _spanning_tree(n, edges, rng)
    dropped = {e for e in edges if e not in tree and rng.random() >= keep}
    return [
        [v for v in rot[u] if (min(u, v), max(u, v)) not in dropped]
        for u in range(n)
    ]


def brick_wall(width: int, height: int) -> list[list[int]]:
    """Rotation system of a hexagonal lattice drawn as a brick wall.

    Vertex (x, y) is x + width * y.  Horizontal edges join (x, y)-(x+1, y);
    a vertical edge joins (x, y)-(x, y+1) when x + y is even.  Bounded faces
    are hexagons, the graph is bipartite and it has no cycle of length 8.
    Neighbours are listed by angle: right, up, left, down.
    """
    rot: list[list[int]] = []
    for y in range(height):
        for x in range(width):
            r = []
            if x + 1 < width:
                r.append(x + 1 + width * y)
            if y + 1 < height and (x + y) % 2 == 0:
                r.append(x + width * (y + 1))
            if x > 0:
                r.append(x - 1 + width * y)
            if y > 0 and (x + y - 1) % 2 == 0:
                r.append(x + width * (y - 1))
            rot.append(r)
    return rot


def relabel(rot: list[list[int]], rng: random.Random) -> list[list[int]]:
    """The same embedding under a random vertex relabelling."""
    n = len(rot)
    perm = list(range(n))
    rng.shuffle(perm)
    out: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        out[perm[u]] = [perm[v] for v in rot[u]]
    return out


def graph_text(rot: list[list[int]]) -> str:
    """Graph-file text; the outer face is the one left of 0 -> rot[0][0]."""
    lines = ["planegraph 1", f"n {len(rot)}"]
    lines += [f"{u}: " + " ".join(map(str, r)) for u, r in enumerate(rot)]
    lines.append(f"outer: 0->{rot[0][0]}")
    return "\n".join(lines) + "\n"


def small_planar_edges(rng: random.Random) -> tuple[int, list[Edge]]:
    """A connected planar graph on 6 to 14 vertices as (n, sorted edge list).

    A subgraph of a stacked triangulation that keeps a spanning tree, with a
    uniformly drawn share of the other edges kept.
    """
    n = rng.randint(6, 14)
    rot = thin(stacked_triangulation(n, rng), rng.random(), rng)
    return n, edges_of(rot)
