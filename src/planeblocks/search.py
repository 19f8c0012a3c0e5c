"""Exhaustive small-graph generation, planarity embedding, extremal search.

The enumeration yields exactly one representative per isomorphism class of
connected simple planar graphs on n vertices satisfying a constraint set.  It
walks the tree of canonical deletion (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998) depth first from the empty graph, with
one explicit stack.  Each node is a class's canonical representative, with
its canonical code, generators of its automorphism group and a planar
rotation system of it.  A parent gets one child per orbit of its non-edges
under those generators: one breadth-first search over the generators from
each orbit's first non-edge marks the orbit in a flat table of vertex pairs
(``_mark_orbit``).  A child is kept only if its new edge lies in the orbit of
its canonical edge, the edge whose deletion defines its parent; see
``_canonical_deletion``.  Each parent is tabled once (``_Parent``), and
each child meets the filters in this order:

1. bipartiteness, decided from the parent's components and 2-coloring: the
   new edge must join two components or two vertices of different colors;
2. the degree tier of that test, decided from the parent's degrees, before
   the child's masks exist;
3. the forbidden cycles, as paths of the parent between the new edge's ends;
4. the color tier of the test, one color refinement of the child;
5. the labelling tier of the test, one canonical labelling of the child,
   whose generators mark the canonical edge's orbit by the same search;
6. planarity.

The planarity of a child is read from the parent's embedding, as in
generation by embedding (Brinkmann and McKay, "Fast generation of planar
graphs", MATCH 58, 2007).  If the new edge joins two components, or its ends
share a face of the parent, the child is planar and its embedding is the
parent's with the edge added there (``plane.insert_chord``).  Every other
child gets the full Left-Right planarity test (``planarity.lr_rotations``),
whose embedding is kept.  Each planar child gets one canonical labelling, the
one the labelling tier computed if it ran, started from the color tier's
refinement if that ran.  So every class is produced from exactly one parent
class, and most children need no labelling.  A parent's generators must
generate its whole automorphism group: a missing one would split an orbit of
non-edges and yield a class twice.  The test needs the child's whole group
too.  The generators from ``canon.canonical_labelling`` generate it.
Constraints that are not deletion-closed (minimum degree, 2-connectivity,
the degree-2 neighbor rule) are filtered at emission, the empty graph
included.  The emitted classes are sorted by (edge count, canonical code)
once the walk ends, so memory is bounded by them and the stack, not by the
largest edge level.

A child's node relabels it through its canonical order: its masks, which are
``canon.decode`` of its code, its rotation system and its generators.  Each
class is yielded with that rotation system, so callers, the extremal
search's witnesses included, need no second embedding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional, Sequence

from . import canon, planarity
from .errors import CeilingExceeded, RetriesExhausted
from .planarity import Rotations
from .plane import (
    Edge, PlaneGraph, dart_tables, insert_chord, rotations_from_edges, trace_faces,
)
from .structure import Hypotheses, components, structural_stats

DEFAULT_CEILING = 10
WITNESS_CAP = 100  # most witnesses one extremal search keeps


def __getattr__(name: str):
    # the benchmark's tracer reads networkx as ``search.nx``; importing it
    # only then keeps it out of every other run
    if name == "nx":
        import networkx

        return networkx
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class ConstraintSet(Hypotheses):
    """A vertex count and the hypotheses the enumerated graphs satisfy."""

    n: int = field(kw_only=True)


@dataclass
class SearchStats:
    candidates: int = 0  # children passing canonical deletion; each tested for planarity
    expanded: int = 0  # planar children: the tree's nodes below the empty graph
    children: int = 0  # edge-augmented children generated, one per non-edge orbit
    emitted: int = 0  # connected graphs passing all constraints


@dataclass
class SearchResult:
    n: int
    max_edges: int
    witnesses: list[PlaneGraph]
    stats: SearchStats = field(default_factory=SearchStats)


# -- planarity ---------------------------------------------------------------

def planar_embed(n: int, edges: Sequence[Edge]) -> Optional[PlaneGraph]:
    """A genus-zero embedding of the graph with its longest face outer, or
    None if it is not planar."""
    if n < 2 or not edges:
        raise ValueError("planar_embed needs at least one edge")
    rotations = planarity.lr_rotations(n, edges)
    return None if rotations is None else PlaneGraph(rotations)


def is_planar(n: int, edges: Sequence[Edge]) -> bool:
    return planarity.lr_rotations(n, edges) is not None


# -- enumeration -------------------------------------------------------------

def _has_path_of_length(
    adj: canon.Masks, u: int, v: int, length: int
) -> bool:
    """Simple u-v path with exactly `length` >= 2 edges, not using edge uv."""

    def walk(last: int, depth: int, visited: int) -> bool:
        m = adj[last] & ~visited
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            if w == v:
                if depth == length:
                    return True
            elif depth < length:
                if walk(w, depth + 1, visited | (1 << w)):
                    return True
        return False

    # v stays outside the visited mask: it is only valid as the endpoint
    return walk(u, 1, 1 << u)


def _new_edge_ok(adj: canon.Masks, u: int, v: int, cs: ConstraintSet) -> bool:
    """Deletion-closed checks for the child graph adj + uv (adj excludes uv)."""
    for length in cs.forbidden_cycles:
        if _has_path_of_length(adj, u, v, length - 1):
            return False
    return True


def _planar_cap(n: int, cs: ConstraintSet) -> int:
    if n < 3:
        return max(n - 1, 0)
    if cs.bipartite or 3 in cs.forbidden_cycles:
        return 2 * n - 4 if n >= 4 else n
    return 3 * n - 6


def _mark_orbit(seen: bytearray, n: int, u: int, v: int, gens: list[canon.Perm]) -> None:
    """Set ``seen[x * n + y]`` for every pair x < y in the orbit of the pair
    u < v under the group generated by gens."""
    seen[u * n + v] = 1
    todo = [(u, v)]
    while todo:
        x, y = todo.pop()
        for g in gens:
            a, b = g[x], g[y]
            if a > b:
                a, b = b, a
            if not seen[a * n + b]:
                seen[a * n + b] = 1
                todo.append((a, b))


def _non_edge_orbits(adj: canon.Masks, gens: list[canon.Perm]) -> list[Edge]:
    """One non-edge per orbit of the group generated by gens, the first in
    lexicographic order."""
    n = len(adj)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if not (adj[u] >> v) & 1]
    if not gens:
        return pairs
    seen = bytearray(n * n)
    reps = []
    for u, v in pairs:
        if not seen[u * n + v]:
            reps.append((u, v))
            _mark_orbit(seen, n, u, v, gens)
    return reps


def _positions(order: canon.Perm) -> list[int]:
    """The inverse of a canonical order: the position of each vertex."""
    pos = [0] * len(order)
    for i, x in enumerate(order):
        pos[x] = i
    return pos


class _Parent:
    """One parent graph adj with a planar rotation system, tabled once so
    that each child adj + uv is filtered by lookups.

    - Each vertex's component and 2-color parity, from one traversal.  A
      child of a bipartite parent is bipartite iff its new edge joins two
      components or two vertices of different parity (``keeps_bipartite``).
    - The degree tier of the canonical-deletion test (``ties``).  A child's
      canonical edge has the largest sorted degree pair.  Adding uv raises
      the degrees of u and v by one and no other, so a parent edge that
      meets neither keeps its pair, and one that meets u or v gets a larger
      pair.  The parent's edges are grouped by pair once, and each child
      looks only at the largest pair, the edges at u and v and the group of
      uv's pair.  The tier is invariant under the parent's automorphisms, so
      it is the same for every non-edge in an orbit.
    - Planarity (``child``).  A child whose new edge joins two components,
      or whose new edge's ends share a face, is planar, and its embedding is
      the parent's with the edge added; every other child goes to the
      Left-Right test.  The faces and vertex face masks are computed on
      first use.
    """

    def __init__(self, adj: canon.Masks, rotations: Rotations):
        self.adj = adj
        self.rotations = rotations
        self.deg = deg = [len(rot) for rot in rotations]
        self.comp, self.parity = components(rotations)
        by_pair: dict[tuple[int, int], list[Edge]] = {}
        for x, rot in enumerate(rotations):
            dx = deg[x]
            for y in rot:
                if x < y:
                    dy = deg[y]
                    key = (dx, dy) if dx < dy else (dy, dx)
                    by_pair.setdefault(key, []).append((x, y))
        self.by_pair = by_pair
        self.top = max(by_pair, default=(0, 0))

    def keeps_bipartite(self, u: int, v: int) -> bool:
        """Whether adj + uv is bipartite, adj being bipartite."""
        return self.comp[u] != self.comp[v] or self.parity[u] != self.parity[v]

    def ties(self, u: int, v: int) -> Optional[list[Edge]]:
        """None if an edge of adj + uv has a larger sorted degree pair than
        uv; else the child's edges whose pair equals uv's, uv included."""
        deg = self.deg
        du, dv = deg[u] + 1, deg[v] + 1
        key = (du, dv) if du < dv else (dv, du)
        if self.top > key:
            return None
        ties = [(u, v)]
        for x, dx in ((u, du), (v, dv)):
            for y in self.rotations[x]:
                dy = deg[y]
                k = (dx, dy) if dx < dy else (dy, dx)
                if k > key:
                    return None
                if k == key:
                    ties.append((x, y) if x < y else (y, x))
        # an edge at u or v with uv's pair in adj has a larger one in the
        # child, so the loop above has returned; these edges meet neither
        return ties + self.by_pair.get(key, [])

    @cached_property
    def faces(self) -> list[list[int]]:
        """Each face's walk as its darts' heads; a dart's tail is the head before it."""
        _, head, nxt = dart_tables(self.rotations)
        return trace_faces(nxt, head)[1]

    @cached_property
    def face_masks(self) -> list[int]:
        """Bit f of entry v is set iff vertex v lies on face f."""
        masks = [0] * len(self.adj)
        for f, walk in enumerate(self.faces):
            for v in walk:
                masks[v] |= 1 << f
        return masks

    def child(self, u: int, v: int) -> Optional[Rotations]:
        """A planar rotation system of adj + uv, or None if it is not planar."""
        out = list(self.rotations)
        if self.comp[u] != self.comp[v]:
            out[u] += (v,)
            out[v] += (u,)
            return tuple(out)
        common = self.face_masks[u] & self.face_masks[v]
        if common:
            insert_chord(out, self.faces[(common & -common).bit_length() - 1], u, v)
            return tuple(out)
        adj = self.adj
        return planarity.lr_rotations(len(adj), canon.edges_from_masks(adj) + [(u, v)])


def _canonical_deletion(
    child: canon.Masks, new: Edge, ties: list[Edge]
) -> tuple[bool, Optional[canon.Refinement], Optional[canon.Labelling]]:
    """Whether the new edge lies in the orbit of the child's canonical edge.

    The canonical edge has the largest sorted degree pair; ties, the edges
    that ``_Parent.ties`` found to share the new edge's pair, go to the
    largest sorted pair of refined colors, then to the smallest sorted pair
    of canonical positions.  Every tier is invariant under isomorphism, so
    each class is accepted from exactly one parent class and one non-edge
    orbit of it.  Also returns the child's ``canon.degree_refinement`` and
    labelling, each when a tier had to compute it.
    """
    if len(ties) == 1:
        return True, None, None
    refined = canon.degree_refinement(canon.neighbor_lists(child))
    colors = refined[0]
    u, v = new
    key = tuple(sorted((colors[u], colors[v])))
    keyed = [(tuple(sorted((colors[x], colors[y]))), (x, y)) for x, y in ties]
    if max(keyed)[0] > key:
        return False, None, None
    ties = [e for k, e in keyed if k == key]
    if len(ties) == 1:
        return True, refined, None
    labelling = canon.canonical_labelling(child, refined)
    _, order, gens = labelling
    pos = _positions(order)
    best = min(ties, key=lambda e: sorted((pos[e[0]], pos[e[1]])))
    n = len(child)
    seen = bytearray(n * n)
    _mark_orbit(seen, n, *best, gens)
    return bool(seen[u * n + v]), refined, labelling


def _representative(
    order: canon.Perm, rotations: Rotations, gens: list[canon.Perm]
) -> tuple[canon.Masks, list[canon.Perm], Rotations]:
    """A class's tree node: its canonical representative, whose vertex i is
    order[i], and the generators and rotation system relabelled onto it.
    The representative's masks are ``canon.decode(n, code)``."""
    pos = _positions(order)
    rot = tuple([tuple(map(pos.__getitem__, rotations[x])) for x in order])
    masks = tuple([sum([1 << w for w in r]) for r in rot])
    return masks, [tuple([pos[g[x]] for x in order]) for g in gens], rot


def enumerate_graphs(
    cs: ConstraintSet,
    ceiling: Optional[int] = None,
    stats: Optional[SearchStats] = None,
) -> Iterator[tuple[canon.Masks, Rotations]]:
    """One representative per isomorphism class of connected simple planar
    graphs on cs.n vertices satisfying cs, in ascending (edge count,
    canonical code) order, each with a planar rotation system of it."""
    n = cs.n
    if n < 1:
        raise ValueError(f"search needs n >= 1, got {n}")
    limit = ceiling if ceiling is not None else DEFAULT_CEILING
    if n > limit:
        raise CeilingExceeded(f"n={n} above ceiling {limit}")
    if stats is None:
        stats = SearchStats()
    needs_stats = cs.needs_stats
    cap = _planar_cap(n, cs)
    code, order, gens = canon.canonical_labelling(tuple([0] * n))
    stack = [(0, code, *_representative(order, ((),) * n, gens))]
    emitted = []
    while stack:
        e, code, adj, gens, rotations = stack.pop()
        parent = _Parent(adj, rotations)
        # connectivity (every vertex in vertex 0's component) and the
        # constraints that do not survive deleting edges; the others were
        # decided on every child
        if not any(parent.comp) and (
            not needs_stats or cs.stats_hold(structural_stats(rotations))
        ):
            emitted.append((e, code, adj, rotations))
        if e == cap:
            continue
        orbits = _non_edge_orbits(adj, gens)
        stats.children += len(orbits)
        for u, v in orbits:
            if cs.bipartite and not parent.keeps_bipartite(u, v):
                continue
            ties = parent.ties(u, v)
            if ties is None or not _new_edge_ok(adj, u, v, cs):
                continue
            child = list(adj)
            child[u] |= 1 << v
            child[v] |= 1 << u
            child_t = tuple(child)
            accepted, refined, labelling = _canonical_deletion(child_t, (u, v), ties)
            if not accepted:
                continue
            stats.candidates += 1
            child_rot = parent.child(u, v)
            if child_rot is None:
                continue
            code, order, cgens = labelling or canon.canonical_labelling(child_t, refined)
            stats.expanded += 1
            stack.append((e + 1, code, *_representative(order, child_rot, cgens)))
    # each class is emitted once, so the sort never compares past (e, code)
    emitted.sort()
    for _, _, adj, rotations in emitted:
        stats.emitted += 1
        yield adj, rotations


# -- extremal search ---------------------------------------------------------

def extremal_search(
    cs: ConstraintSet, ceiling: Optional[int] = None
) -> SearchResult:
    """Maximum edge count over the enumerated graphs, with all witnesses.

    No bound-based pruning is applied: the search is the independent oracle
    against which derived bounds are checked, so it must not assume them.
    """
    stats = SearchStats()
    best = -1
    witnesses: list[Rotations] = []
    for adj, rotations in enumerate_graphs(cs, ceiling=ceiling, stats=stats):
        e = canon.edge_count(adj)
        if e > best:
            best = e
            witnesses = [rotations]
        elif e == best and len(witnesses) < WITNESS_CAP:
            witnesses.append(rotations)
    # the single vertex has no edge, so no outer face
    embedded = [PlaneGraph(rot) for rot in witnesses if len(rot) > 1]
    return SearchResult(
        n=cs.n, max_edges=best, witnesses=embedded, stats=stats
    )


# -- random plane graphs -----------------------------------------------------

def random_plane_graph(
    n: int,
    seed: int,
    cs: Optional[ConstraintSet] = None,
) -> PlaneGraph:
    """Deterministic random plane graph: a random stacked triangulation with
    random edge deletions, retried up to 200 times until the optional
    constraints hold."""
    if n < 3:
        raise ValueError("random_plane_graph needs n >= 3")
    rng = random.Random(seed)
    retries = 200
    for _ in range(retries):
        edges = _random_connected_planar_edges(n, rng)
        if cs is not None:
            adj = rotations_from_edges(n, edges)
            if not cs.holds(adj, structural_stats(adj)):
                continue
        g = planar_embed(n, edges)
        assert g is not None
        return g
    raise RetriesExhausted(
        f"no constraint-satisfying graph on {n} vertices in {retries} tries"
    )


def _random_connected_planar_edges(n: int, rng: random.Random) -> list[Edge]:
    # stacked triangulation: insert each vertex into a random bounded face
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2)]
    for v in range(3, n):
        i = rng.randrange(len(faces))
        a, b, c = faces.pop(i)
        edges |= {tuple(sorted((v, a))), tuple(sorted((v, b))), tuple(sorted((v, c)))}
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    target = rng.randint(n - 1, len(edges))
    order = sorted(edges)
    rng.shuffle(order)
    keep = set(order)
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, w in order:
        adj[u].add(w)
        adj[w].add(u)
    # delete each edge in turn unless it is a bridge of what is left
    for u, w in order:
        if len(keep) <= target:
            break
        adj[u].remove(w)
        adj[w].remove(u)
        if _still_joined(adj, u, w):
            keep.remove((u, w))
        else:
            adj[u].add(w)
            adj[w].add(u)
    return sorted(keep)


def _still_joined(adj: Sequence[set[int]], u: int, w: int) -> bool:
    """True iff u and w are connected in adj.

    Searches from u and from w in turn: stops when the two searches meet, or
    when one side runs out, having explored the whole component of its root.
    """
    seen = ({u}, {w})
    todo = ([u], [w])
    side = 0
    while todo[side]:
        x = todo[side].pop()
        for y in adj[x]:
            if y in seen[1 - side]:
                return True
            if y not in seen[side]:
                seen[side].add(y)
                todo[side].append(y)
        side = 1 - side
    return False
