"""Structural predicates used as theorem hypotheses.

All functions work on the abstract graph only (adjacency lists); the embedding
never influences cycle containment, degrees, bipartiteness or 2-connectivity.
A PlaneGraph's ``rotations`` attribute is a valid adjacency-list argument.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields
from typing import Iterator, Optional, Sequence

from .errors import BadLength

Adjacency = Sequence[Sequence[int]]


@dataclass(frozen=True)
class StructuralStats:
    """Degree statistics and connectivity/bipartiteness flags of a graph."""

    n: int
    e: int
    min_degree: int
    k: int  # number of degree-2 vertices
    e23: int  # edges joining a degree-2 and a degree-3 vertex
    bipartite: bool
    two_connected: bool
    deg2_neighbor_ok: bool  # every degree-2 vertex has a neighbor of degree <= 3


def contains_cycle_of_length(adj: Adjacency, length: int) -> bool:
    """True iff the graph has a (not necessarily induced) cycle on exactly
    ``length`` vertices.

    Every cycle lies in one biconnected component, so each component with at
    least ``length`` vertices is searched on its own, in place: its vertices
    are marked, and no step leaves the marked ones.  Within one, an exact
    backtracking path search roots each cycle at its smallest vertex and
    never visits vertices below the root, nor one whose distance back to the
    root exceeds the edges left.  The component pass is paid even where a
    whole-graph search would close a cycle at once: without it the search
    steps through each cut vertex into the next block, which costs many
    times more on graphs glued from many small blocks.

    Worst case: from each root at most length * D**(length - 1) simple paths
    are extended, D the graph's largest degree, each scanning D neighbours;
    a component of c vertices costs O(c * length * D**length).
    """
    if length < 3:
        raise BadLength(f"cycle length must be >= 3, got {length}")
    n = len(adj)
    if length > n:
        return False
    far = length + 1
    # dist[w]: BFS distance from the current root to w over the marked
    # vertices above it, up to length // 2; far for every other vertex, the
    # root too, so a path comes back to the root only to close the cycle
    dist = [far] * n
    visited = bytearray(n)  # the current path, cleared on the way back
    marked = bytearray(n)  # the current component's vertices

    def search(root: int, last: int, depth: int) -> bool:
        left = length - depth  # edges left to close the cycle after a step
        for w in adj[last]:
            if w == root and left == 0:
                return True
            if dist[w] <= left and not visited[w]:
                visited[w] = 1
                if search(root, w, depth + 1):
                    return True
                visited[w] = 0
        return False

    for comp in biconnected_components(adj):
        if len(comp) < length:
            continue
        for v in comp:
            marked[v] = 1
        for root in comp:
            # no vertex of a cycle is farther than length // 2 from its root
            ball, frontier = [], [root]
            for r in range(1, length // 2 + 1):
                reached = []
                for u in frontier:
                    for w in adj[u]:
                        if w > root and dist[w] == far and marked[w]:
                            dist[w] = r
                            reached.append(w)
                ball += reached
                frontier = reached
            found = search(root, root, 1)
            for w in ball:
                dist[w] = far
            if found:
                return True
        for v in comp:
            marked[v] = 0
    return False


def is_bipartite(adj: Adjacency) -> tuple[bool, Optional[tuple[int, ...]]]:
    """BFS 2-coloring; returns (flag, coloring or None)."""
    n = len(adj)
    color = [-1] * n
    for s in range(n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return False, None
    return True, tuple(color)


def components(adj: Adjacency) -> tuple[list[int], list[int]]:
    """(comp, parity) from one traversal: comp[v] is the smallest vertex of
    v's component, so the graph is connected iff no comp[v] is nonzero, and
    parity[v] is v's side in a 2-coloring of a spanning forest, which is a
    proper 2-coloring exactly when the graph is bipartite."""
    n = len(adj)
    comp = [-1] * n
    parity = [0] * n
    for x in range(n):
        if comp[x] < 0:
            comp[x] = x
            todo = [x]
            while todo:
                w = todo.pop()
                for y in adj[w]:
                    if comp[y] < 0:
                        comp[y] = x
                        parity[y] = parity[w] ^ 1
                        todo.append(y)
    return comp, parity


def biconnected_components(adj: Adjacency) -> Iterator[list[int]]:
    """Vertex lists of the blocks (maximal 2-connected subgraphs and
    bridges), each yielded as soon as it is complete; an isolated vertex is
    in none.

    Iterative lowpoint DFS: when a child's subtree cannot reach above its
    parent, the vertices discovered since the child, with the parent, form
    one component.
    """
    n = len(adj)
    disc = [-1] * n
    low = [0] * n
    timer = 0
    for s in range(n):
        if disc[s] != -1:
            continue
        disc[s] = low[s] = timer
        timer += 1
        found = [s]  # discovered vertices not yet assigned to a component
        stack = [(s, -1, iter(adj[s]))]
        while stack:
            u, parent, nbrs = stack[-1]
            for v in nbrs:
                if disc[v] == -1:
                    disc[v] = low[v] = timer
                    timer += 1
                    found.append(v)
                    stack.append((v, u, iter(adj[v])))
                    break
                if v != parent and disc[v] < low[u]:
                    low[u] = disc[v]
            else:
                stack.pop()
                if parent == -1:
                    continue
                if low[u] < low[parent]:
                    low[parent] = low[u]
                if low[u] >= disc[parent]:
                    # found is in discovery order and u was found first
                    at = bisect_left(found, disc[u], key=disc.__getitem__)
                    yield [parent, *found[at:]]
                    del found[at:]


def is_two_connected(adj: Adjacency) -> bool:
    """Connected, at least 3 vertices, and no articulation vertex."""
    n = len(adj)
    if n < 3:
        return False
    # a component holding every vertex is the only one
    first = next(biconnected_components(adj), [])
    return len(first) == n


# degree class: 1 for degree 2, 2 for degree 3, else 0, so an edge joins
# degrees 2 and 3 exactly when its ends' classes sum to 3
_DEGREE_CLASS = {2: 1, 3: 2}


def degree_classes(adj: Adjacency) -> list[int]:
    return [_DEGREE_CLASS.get(len(a), 0) for a in adj]


def structural_stats(adj: Adjacency) -> StructuralStats:
    n = len(adj)
    degrees = [len(a) for a in adj]
    e = sum(degrees) // 2
    dclass = degree_classes(adj)
    # each (2,3)-edge has exactly one degree-2 end
    e23 = sum([1 for u in range(n) if dclass[u] == 1 for v in adj[u] if dclass[v] == 2])
    bip, _ = is_bipartite(adj)
    deg2_ok = all(
        any(degrees[w] <= 3 for w in adj[u])
        for u in range(n)
        if degrees[u] == 2
    )
    return StructuralStats(
        n=n,
        e=e,
        min_degree=min(degrees) if degrees else 0,
        k=degrees.count(2),
        e23=e23,
        bipartite=bip,
        two_connected=is_two_connected(adj),
        deg2_neighbor_ok=deg2_ok,
    )


# -- hypothesis sets ---------------------------------------------------------

@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Hypotheses:
    """A set of hypothesis predicates; a field at its default imposes nothing.

    Each predicate, with its Check name and detail text, is written once
    here.  The evaluators take the graph's StructuralStats from the caller
    and never compute them.
    """

    forbidden_cycles: tuple[int, ...] = ()
    bipartite: bool = False
    min_degree: int = 0  # require delta >= this (0: no requirement)
    exact_min_degree: Optional[int] = None  # require delta == this
    two_connected: bool = False
    deg2_neighbor_ok: bool = False  # every degree-2 vertex has a neighbor of degree <= 3

    def __post_init__(self) -> None:
        shortest = min(self.forbidden_cycles, default=3)
        if shortest < 3:
            raise BadLength(f"cycle length must be >= 3, got {shortest}")
        for name in ("min_degree", "exact_min_degree"):
            degree = getattr(self, name)
            if degree is not None and degree < 0:
                raise ValueError(
                    f"{name.replace('_', ' ')} must be >= 0, got {degree}"
                )

    def checks(self, adj: Adjacency, stats: StructuralStats) -> tuple[Check, ...]:
        """Every predicate's Check, in report order (forbidden cycles first)."""
        return (*self._cycle_checks(adj, stats), *self._stats_checks(stats))

    def holds(self, adj: Adjacency, stats: StructuralStats) -> bool:
        """True iff every predicate holds; stops at the first failure and
        runs cycle search only after every check on the stats passed."""
        return self.stats_hold(stats) and all(
            c.ok for c in self._cycle_checks(adj, stats)
        )

    def stats_hold(self, stats: StructuralStats) -> bool:
        """Every predicate decided by the stats alone (all but cycles)."""
        return all(c.ok for c in self._stats_checks(stats))

    @property
    def needs_stats(self) -> bool:
        """True iff some predicate decided by the stats is set (off its default)."""
        return any(
            getattr(self, f.name) != f.default
            for f in fields(Hypotheses)
            if f.name != "forbidden_cycles"
        )

    def _cycle_checks(self, adj: Adjacency, stats: StructuralStats) -> Iterator[Check]:
        for length in self.forbidden_cycles:
            if length % 2 and stats.bipartite:
                has = False  # a bipartite graph has no odd cycle
            else:
                has = contains_cycle_of_length(adj, length)
            yield Check(
                name=f"C{length}-free",
                ok=not has,
                detail=f"contains a C{length}" if has else "",
            )

    def _stats_checks(self, stats: StructuralStats) -> Iterator[Check]:
        if self.bipartite:
            yield Check(
                name="bipartite",
                ok=stats.bipartite,
                detail="" if stats.bipartite else "contains an odd cycle",
            )
        d = stats.min_degree
        if self.min_degree:
            ok = d >= self.min_degree
            yield Check(
                name=f"min degree >= {self.min_degree}",
                ok=ok,
                detail="" if ok else f"delta = {d}",
            )
        if self.exact_min_degree is not None:
            detail = ""
            if d < self.exact_min_degree:
                detail = (
                    f"delta = {d}; degree-1 vertices fall under the source's "
                    "induction reduction, which is out of scope here"
                )
            elif d > self.exact_min_degree:
                detail = f"delta = {d}"
            yield Check(
                name=f"min degree == {self.exact_min_degree}",
                ok=d == self.exact_min_degree,
                detail=detail,
            )
        if self.two_connected:
            yield Check(
                name="2-connected",
                ok=stats.two_connected,
                detail="" if stats.two_connected else "has a cut vertex or n < 3",
            )
        if self.deg2_neighbor_ok:
            ok = stats.deg2_neighbor_ok
            yield Check(
                name="every degree-2 vertex has a neighbor of degree <= 3",
                ok=ok,
                detail="" if ok else "a degree-2 vertex has only high-degree neighbors",
            )
