"""The Left-Right planarity test with its planar embedding.

``lr_rotations`` is networkx 3.6.1's iterative ``LRPlanarity`` (U. Brandes,
"The Left-Right Planarity Test", 2009) together with the ``PlanarEmbedding``
steps it drives, ported onto integer edge ids and flat lists.  For every
simple graph it returns the rotation system ``networkx.check_planarity``
embeds, vertex for vertex and in the same cyclic position: networkx lists a
vertex's neighbours clockwise from the one it keeps as leftmost, and this
module lists them counterclockwise, ending at that neighbour.  So the
traversal orders (sorted adjacency, DFS roots in vertex order, stable sorts by
nesting depth) and the leftmost-neighbour bookkeeping follow networkx step by
step.

Edge x is the x-th edge of the sorted edge list.  The DFS orients it from
``tail[x]`` to ``head[x]``; its darts are 2x, at the tail, and 2x + 1, at the
head.  A conflict pair is a list ``[left low, left high, right low, right
high]`` of edge ids, with None for an interval end that is not set, as in
networkx.  Where networkx writes ``ref[None]``, which nothing reads, the port
skips the write.

Ported from NetworkX (https://networkx.org), Copyright (c) 2004-2025,
NetworkX Developers, distributed under the 3-clause BSD license:

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions are
    met: (1) Redistributions of source code must retain the above copyright
    notice, this list of conditions and the following disclaimer.  (2)
    Redistributions in binary form must reproduce the above copyright notice,
    this list of conditions and the following disclaimer in the
    documentation and/or other materials provided with the distribution.
    (3) Neither the name of the NetworkX Developers nor the names of its
    contributors may be used to endorse or promote products derived from
    this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS
    IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO,
    THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A PARTICULAR
    PURPOSE ARE DISCLAIMED.  IN NO EVENT SHALL THE COPYRIGHT OWNER OR
    CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL,
    EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO,
    PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR
    PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY THEORY OF
    LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING
    NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE OF THIS
    SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

from typing import Optional, Sequence

Rotations = tuple[tuple[int, ...], ...]  # neighbor order around each vertex


def lr_rotations(n: int, edges: Sequence[tuple[int, int]]) -> Optional[Rotations]:
    """Counterclockwise rotations of a planar embedding of the graph on
    vertices 0..n-1 with the given distinct edges (u, v), u < v, or None if
    it is not planar.  Iterative throughout, so any size is safe."""
    m = len(edges)
    if n > 2 and m > 3 * n - 6:
        return None
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (w, x), w ascending
    for x, (u, v) in enumerate(sorted(edges)):
        nbrs[u].append((v, x))
        nbrs[v].append((u, x))

    # -- orientation: DFS heights, lowpoints and nesting depths
    tail, head = [-1] * m, [0] * m
    lowpt, lowpt2, nesting = [0] * m, [0] * m, [0] * m
    height = [-1] * n
    parent: list[Optional[int]] = [None] * n  # the tree edge into each vertex
    out: list[list[int]] = [[] for _ in range(n)]  # edges in orientation order
    roots = []
    ind = [0] * n

    def finish(x: int) -> None:
        t = tail[x]
        nesting[x] = 2 * lowpt[x] + (lowpt2[x] < height[t])
        e = parent[t]
        if e is not None:
            lx, le = lowpt[x], lowpt[e]
            if lx < le:
                lowpt2[e] = min(le, lowpt2[x])
                lowpt[e] = lx
            elif lx > le:
                lowpt2[e] = min(lowpt2[e], lx)
            else:
                lowpt2[e] = min(lowpt2[e], lowpt2[x])

    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack[-1]
            hv, adj, i = height[v], nbrs[v], ind[v]
            while i < len(adj):
                w, x = adj[i]
                i += 1
                if tail[x] >= 0:
                    continue
                tail[x], head[x] = v, w
                out[v].append(x)
                lowpt[x] = lowpt2[x] = hv
                if height[w] < 0:  # tree edge
                    parent[w] = x
                    height[w] = hv + 1
                    ind[v] = i
                    stack.append(w)
                    break
                lowpt[x] = height[w]  # back edge
                finish(x)
            else:
                stack.pop()
                if parent[v] is not None:
                    finish(parent[v])

    # -- testing: the LR partition, by conflict pairs
    ordered = [sorted(o, key=nesting.__getitem__) for o in out]
    ref: list[Optional[int]] = [None] * m
    side = [1] * m
    lowpt_edge: list[Optional[int]] = [None] * m
    bottom: list[Optional[list]] = [None] * m
    S: list[list] = []

    def conflicting(low: Optional[int], high: Optional[int], b: int) -> bool:
        return (low is not None or high is not None) and lowpt[high] > lowpt[b]

    def add_constraints(ei: int, e: int) -> bool:
        pl = ph = ql = qh = None  # P.left, P.right as (low, high)
        while True:  # merge return edges of ei into P.right
            al, ah, bl, bh = S.pop()
            if al is not None or ah is not None:
                al, ah, bl, bh = bl, bh, al, ah
            if al is not None or ah is not None:
                return False
            if lowpt[bl] > lowpt[e]:
                if ql is None and qh is None:  # topmost interval
                    qh = bh
                else:
                    ref[ql] = bh
                ql = bl
            else:  # align
                ref[bl] = lowpt_edge[e]
            if (S[-1] if S else None) is bottom[ei]:
                break
        # merge conflicting return edges of e_1, ..., e_{i-1} into P.left
        while conflicting(S[-1][0], S[-1][1], ei) or conflicting(S[-1][2], S[-1][3], ei):
            al, ah, bl, bh = S.pop()
            if conflicting(bl, bh, ei):
                al, ah, bl, bh = bl, bh, al, ah
            if conflicting(bl, bh, ei):
                return False
            if ql is not None:  # merge interval below lowpt(ei) into P.right
                ref[ql] = bh
            if bl is not None:
                ql = bl
            if pl is None and ph is None:
                ph = ah
            elif pl is not None:
                ref[pl] = ah
            pl = al
        if not (pl is None and ph is None and ql is None and qh is None):
            S.append([pl, ph, ql, qh])
        return True

    def remove_back_edges(e: int) -> None:
        u = tail[e]
        hu = height[u]
        # drop entire conflict pairs whose lowest return edge ends at u
        while S:
            al, ah, bl, bh = S[-1]
            if al is None and ah is None:
                lowest = lowpt[bl]
            elif bl is None and bh is None:
                lowest = lowpt[al]
            else:
                lowest = min(lowpt[al], lowpt[bl])
            if lowest != hu:
                break
            if S.pop()[0] is not None:
                side[al] = -1
        if S:  # trim the one more pair to consider
            p = S[-1]
            while p[1] is not None and head[p[1]] == u:
                p[1] = ref[p[1]]
            if p[1] is None and p[0] is not None:  # just emptied
                ref[p[0]] = p[2]
                side[p[0]] = -1
                p[0] = None
            while p[3] is not None and head[p[3]] == u:
                p[3] = ref[p[3]]
            if p[3] is None and p[2] is not None:
                ref[p[2]] = p[0]
                side[p[2]] = -1
                p[2] = None
        if lowpt[e] < hu:  # e's side is that of a highest return edge
            hl, hr = S[-1][1], S[-1][3]
            ref[e] = hl if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]) else hr

    def integrate(x: int, v: int) -> bool:
        """Add the constraints of edge x, out of v, on v's parent edge."""
        if lowpt[x] < height[v]:
            if x == ordered[v][0]:
                lowpt_edge[parent[v]] = lowpt_edge[x]
            elif not add_constraints(x, parent[v]):
                return False
        return True

    ind = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack[-1]
            adj, i = ordered[v], ind[v]
            while i < len(adj):
                x = adj[i]
                i += 1
                bottom[x] = S[-1] if S else None
                w = head[x]
                if parent[w] == x:  # tree edge
                    ind[v] = i
                    stack.append(w)
                    break
                lowpt_edge[x] = x
                S.append([None, None, x, x])
                if not integrate(x, v):
                    return None
            else:
                stack.pop()
                e = parent[v]
                if e is not None:
                    remove_back_edges(e)
                    if not integrate(e, tail[e]):
                        return None

    # -- embedding: resolve sides, then place the darts
    for x in range(m):
        chain, y = [], x
        while ref[y] is not None:
            chain.append(y)
            ref[y], y = None, ref[y]
        s = side[y]
        for y in reversed(chain):
            s = side[y] = side[y] * s
    ordered = [sorted(o, key=lambda x: side[x] * nesting[x]) for o in out]
    cw, ccw = [0] * (2 * m), [0] * (2 * m)
    leftmost = [-1] * n  # the dart networkx keeps last
    for v, o in enumerate(ordered):
        if o:  # clockwise in this order, the first leftmost
            darts = [2 * x for x in o]
            for i, d in enumerate(darts):
                cw[darts[i - 1]] = d
                ccw[d] = darts[i - 1]
            leftmost[v] = darts[0]
    left_ref, right_ref = [0] * n, [0] * n
    ind = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack[-1]
            adj, i = ordered[v], ind[v]
            while i < len(adj):
                x = adj[i]
                i += 1
                w = head[x]
                d = 2 * x + 1  # the dart at w
                if parent[w] == x:  # tree edge: d becomes w's leftmost
                    lm = leftmost[w]
                    if lm < 0:
                        cw[d] = ccw[d] = d
                    else:
                        c = ccw[lm]
                        cw[c], ccw[d], cw[d], ccw[lm] = d, c, lm, d
                    leftmost[w] = d
                    left_ref[v] = right_ref[v] = 2 * x
                    ind[v] = i
                    stack.append(w)
                    break
                if side[x] == 1:  # clockwise after right_ref[w]
                    a = right_ref[w]
                    c = cw[a]
                    cw[a], ccw[d], cw[d], ccw[c] = d, a, c, d
                else:  # counterclockwise before left_ref[w]
                    a = left_ref[w]
                    c = ccw[a]
                    ccw[a], cw[d], ccw[d], cw[c] = d, a, c, d
                    if leftmost[w] == a:
                        leftmost[w] = d
                    left_ref[w] = d
            else:
                stack.pop()

    ends = [0] * (2 * m)  # the vertex each dart points to
    ends[0::2], ends[1::2] = head, tail
    rotations = []
    for lm in leftmost:
        rot = []
        d = lm
        while d >= 0:
            d = ccw[d]
            rot.append(ends[d])
            if d == lm:
                break
        rotations.append(tuple(rot))
    return tuple(rotations)
