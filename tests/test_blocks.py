import random
import time
from fractions import Fraction as F

import pytest

from planeblocks import blocks, canon, graphio, ledger, search, theorems
from planeblocks.blocks import BlockKind, decompose, refine_pseudofaces
from planeblocks.plane import PlaneGraph

from conftest import hang_k4s, k4_necklace, random_plane_graph


def worklist_decompose(g, mode, edge_order):
    """Literal seed-and-absorb reference: start from each unassigned edge and
    repeatedly add all edges of 3-faces (4-faces) that are 3-cycles (4-cycles)
    and share an edge with the current block.  Every face counts, the one a
    drawing puts outside included."""
    m = 3 if mode == "triangular" else 4
    faces = []
    for face in g.faces:
        if face.length != m or len({u for u, _ in face.darts}) != m:
            continue
        faces.append(frozenset([g.edge_list[i] for i in face.eids]))
    unassigned = list(edge_order)
    partition = []
    while unassigned:
        block = {unassigned[0]}
        changed = True
        while changed:
            changed = False
            for fe in faces:
                if fe & block and not fe <= block:
                    block |= fe
                    changed = True
        partition.append(frozenset(block))
        unassigned = [e for e in unassigned if e not in block]
    return set(partition)


def partition_of(d):
    return {frozenset([d.graph.edge_list[i] for i in b.eids]) for b in d.blocks}


def k4_exterior(d):
    """exterior edge -> id of its K4 block, keyed by edge tuple."""
    edges = d.graph.edge_list
    return {
        edges[i]: b.id for b in d.blocks if b.kind == BlockKind.K4 for i in b.exterior_eids
    }


def reduce_by_tuples(d, face, pick):
    """Tuple reference for a pseudoface: rewrite the face's edge walk while a
    non-degenerate pair of consecutive exterior edges of one K4 block is left,
    ``pick`` choosing which of the pairs (as positions) goes next.  Returns the
    final walk and the (block id, pair, replacement) of each rewrite."""
    edges = d.graph.edge_list
    k4_ext = k4_exterior(d)
    seq = [edges[i] for i in face.eids]
    reductions = []
    while True:
        n = len(seq)
        options = []
        for i in range(n):
            e1, e2 = seq[i], seq[(i + 1) % n]
            bid = k4_ext.get(e1)
            if bid is None or k4_ext.get(e2) != bid or e1 == e2:
                continue
            if n <= 3 or k4_ext.get(seq[(i - 1) % n]) == bid \
                    or k4_ext.get(seq[(i + 2) % n]) == bid:
                continue
            options.append((i, bid))
        if not options:
            return seq, reductions
        i, bid = pick(options)
        exterior = {edges[x] for x in d.blocks[bid].exterior_eids}
        pair = (seq[i], seq[(i + 1) % n])
        (third,) = exterior - set(pair)
        reductions.append((bid, pair, third))
        if i + 1 < n:
            seq[i:i + 2] = [third]
        else:
            seq = [third] + seq[1:-1]


def left_to_right_reference(d):
    """`reduce_by_tuples` taking pairs left to right on every face no block
    absorbs, as {face id: (walk, rewrites, degenerate)}, degenerate meaning
    that a same-K4 pair is left (see `k4_pair_left`)."""
    k4_of = k4_exterior(d)
    out = {}
    for face in d.graph.faces:
        if d.face_block[face.id] < 0:
            seq, reductions = reduce_by_tuples(d, face, lambda options: options[0])
            out[face.id] = (seq, reductions, k4_pair_left(k4_of, seq))
    return out


def matches_left_to_right_reference(d):
    """Assert that ``refine_pseudofaces(d)`` holds exactly the faces whose
    `left_to_right_reference` has a rewrite or is degenerate, each with the
    reference's walk, rewrites and flag, so that every face missing from the
    map is one the reference leaves unchanged and not degenerate; return the
    reference."""
    edges = d.graph.edge_list
    ref = left_to_right_reference(d)
    pf = refine_pseudofaces(d)
    assert list(pf) == [fid for fid, (_, reductions, degenerate) in ref.items()
                        if reductions or degenerate]
    for fid, p in pf.items():
        seq, reductions, degenerate = ref[fid]
        assert p.face_id == fid and [edges[i] for i in p.eids] == seq, p
        assert [
            (r.block_id, tuple([edges[i] for i in r.pair]), edges[r.replacement])
            for r in p.reductions
        ] == reductions, p
        assert p.degenerate == degenerate, p
    return ref


@pytest.mark.parametrize("mode", ["triangular", "quadrangular"])
def test_decompose_matches_worklist_oracle(mode, fixture_graphs):
    rng = random.Random(mode)
    graphs = list(fixture_graphs.values())
    for seed in range(40):
        graphs.append(random_plane_graph(rng.randint(4, 11), 7000 + seed))
    for g in graphs:
        expected = None
        for trial in range(4):
            order = sorted(g.edges)
            if trial:
                rng.shuffle(order)
            got = worklist_decompose(g, mode, order)
            if expected is None:
                expected = got
            assert got == expected  # seed-order independence of the oracle
        assert partition_of(decompose(g, mode)) == expected


def test_verify_and_reports_build_no_block(fixture_graphs, monkeypatch):
    """Verify, the ledger and every report read the decomposition's columns:
    with `Block` made to raise they all run, and the `Block` views built
    afterwards from the same columns match the worklist oracle."""

    def no_block(*args):
        raise AssertionError("a Block was built")

    decompositions = []
    with monkeypatch.context() as m:
        m.setattr(blocks, "Block", no_block)
        for g in fixture_graphs.values():
            reports = []
            for p in theorems.PROFILES.values():
                verdict = theorems.verify(g, p, force=True)
                reports.append(graphio.verdict_report(g, verdict))
                decompositions.append(verdict.ledger.decomposition)
            for mode in ("triangular", "quadrangular"):
                led = ledger.build_ledger(g, mode)
                d = decompose(g, mode)
                reports += [graphio.ledger_report(g, led), graphio.decomposition_report(g, d)]
                decompositions += [led.decomposition, d]
            for rep in reports:
                for fmt in ("json", "text"):
                    graphio.write_report(rep, fmt)
    for d in decompositions:
        assert partition_of(d) == worklist_decompose(d.graph, d.mode, sorted(d.graph.edges))


def test_c5_verify_builds_a_pseudoface_only_where_the_k4_rule_acts(fixture_graphs, monkeypatch):
    """A C5 verify builds one `Pseudoface` per face that the left-to-right
    reference rewrites or leaves degenerate, and none for any other face."""
    rng = random.Random(29)
    graphs = list(fixture_graphs.values())
    for seed in range(40):
        base = random_plane_graph(rng.randint(3, 12), 2900 + seed)
        graphs.append(hang_k4s(base, rng.randint(2, 6), rng))
    built = []
    real = blocks.Pseudoface
    monkeypatch.setattr(blocks, "Pseudoface",
                        lambda fid, *args: built.append(fid) or real(fid, *args))
    total = 0
    for g in graphs:
        built.clear()
        verdict = theorems.verify(g, theorems.PROFILES["C5"], force=True)
        ref = left_to_right_reference(verdict.ledger.decomposition)
        assert built == [fid for fid, (_, reductions, degenerate) in ref.items()
                         if reductions or degenerate]
        assert built == list(verdict.ledger.pseudofaces)
        total += len(built)
    assert total >= 40, total


def test_fixture_decompositions(fixture_graphs):
    d = decompose(fixture_graphs["theta4"], "triangular")
    assert [b.kind for b in d.blocks] == [BlockKind.THETA4]
    assert len(d.blocks[0].interior_faces) == 2

    d = decompose(fixture_graphs["cube"], "triangular")
    assert len(d.blocks) == 12
    assert all(b.kind == BlockKind.K2 and len(b.eids) == 1 for b in d.blocks)

    d = decompose(fixture_graphs["q7"], "quadrangular")
    assert [b.kind for b in d.blocks] == [BlockKind.Q7]
    assert len(d.blocks[0].interior_faces) == 3

    d = decompose(fixture_graphs["k4"], "triangular")
    assert [b.kind for b in d.blocks] == [BlockKind.K4]
    assert len(d.blocks[0].interior_faces) == 4  # the outer triangle too


@pytest.mark.parametrize(
    "name,mode,kind",
    [
        ("k4", "triangular", BlockKind.K4),
        ("theta4", "triangular", BlockKind.THETA4),
        ("c4", "quadrangular", BlockKind.C4),
        ("k23", "quadrangular", BlockKind.K23),
        ("theta6", "quadrangular", BlockKind.THETA6),
        ("q7", "quadrangular", BlockKind.Q7),
    ],
)
def test_standalone_catalog_members_classify(name, mode, kind, fixture_graphs):
    d = decompose(fixture_graphs[name], mode)
    assert [b.kind for b in d.blocks] == [kind]


def test_triangle_block_in_triangular_mode():
    g = search.planar_embed(3, [(0, 1), (1, 2), (0, 2)])
    d = decompose(g, "triangular")
    assert [b.kind for b in d.blocks] == [BlockKind.K3]
    # in quadrangular mode the same graph is three trivial blocks
    dq = decompose(g, "quadrangular")
    assert [b.kind for b in dq.blocks] == [BlockKind.K2] * 3


def test_walk_that_repeats_its_edges_makes_no_block():
    # P3's one face walks 0-1-2-1-0: four darts but two edges, so it is no
    # m-cycle in either mode and each edge is a K2 block of its own
    g = PlaneGraph([[1], [0, 2], [1]])
    for mode in ("triangular", "quadrangular"):
        d = decompose(g, mode)
        assert d.kinds == [BlockKind.K2, BlockKind.K2], mode
        assert d.face_block == [-1], mode


def test_edge_partition_and_counts(fixture_graphs):
    rng = random.Random(3)
    graphs = list(fixture_graphs.values())
    for seed in range(30):
        graphs.append(random_plane_graph(rng.randint(4, 12), 300 + seed))
    for g in graphs:
        for mode in ("triangular", "quadrangular"):
            d = decompose(g, mode)
            assert sum(len(b.eids) for b in d.blocks) == g.e
            assert len(d.edge_block) == g.e
            for i, bid in enumerate(d.edge_block):
                assert i in d.blocks[bid].eids
            assert len(d.vertex_block_count) == g.n
            for v, count in enumerate(d.vertex_block_count):
                assert count == sum(1 for b in d.blocks if v in b.vertices)
            for b in d.blocks:
                assert b.junction_vertices == {
                    v for v in b.vertices if d.vertex_block_count[v] >= 2
                }


def k4_with_tail():
    # K4 (outer triangle 0-1-2, center 3) plus a path 0-4-5-6-2 outside it
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
             (0, 4), (4, 5), (5, 6), (2, 6)]
    g = search.planar_embed(7, edges)
    assert g is not None
    return g


def test_pseudoface_pair_reduction():
    g = k4_with_tail()
    d = decompose(g, "triangular")
    kinds = sorted(b.kind.value for b in d.blocks)
    assert kinds.count("K4") == 1
    pf = refine_pseudofaces(d)
    reduced = [p for p in pf.values() if p.reductions]
    assert len(reduced) == 1
    p = reduced[0]
    face = next(f for f in g.faces if f.id == p.face_id)
    assert len(p.eids) == face.length - 1
    assert not p.degenerate
    (red,) = p.reductions
    k4 = next(b for b in d.blocks if b.kind == BlockKind.K4)
    assert red.block_id == k4.id
    assert red.replacement in k4.exterior_eids
    assert d.edge_block[red.replacement] == k4.id
    # faces without a K4 pair are their own pseudofaces, missing from the map
    assert list(pf) == [p.face_id]


def test_pseudoface_reduction_order_independent():
    """Applying reducible pairs in random order gives the same final cycle."""
    g = k4_with_tail()
    d = decompose(g, "triangular")
    pf = refine_pseudofaces(d)
    for face in g.faces:
        if d.face_block[face.id] >= 0:
            continue
        # a face missing from the map is its own pseudoface
        want = sorted([g.edge_list[i] for i in (pf[face.id] if face.id in pf else face).eids])
        for seed in range(6):
            seq, _ = reduce_by_tuples(d, face, random.Random(seed).choice)
            assert sorted(seq) == want


def k4_pair_left(k4_of, edges):
    """Whether two consecutive edges of the cyclic sequence ``edges`` are
    exterior edges of one K4 block (``k4_of`` as from `k4_exterior`)."""
    m = len(edges)
    return any(
        edges[i] in k4_of and k4_of.get(edges[(i + 1) % m]) == k4_of[edges[i]]
        for i in range(m)
    )


def test_degenerate_iff_a_k4_pair_is_left():
    """A pseudoface is degenerate iff two consecutive edges of its reduced
    boundary are exterior edges of one K4 block; a non-interior face missing
    from the map has no such pair on its walk."""
    rng = random.Random(21)
    seen = set()
    for seed in range(1000):
        g = random_plane_graph(rng.randint(4, 14), 5000 + seed)
        d = decompose(g, "triangular")
        k4_of = k4_exterior(d)
        pf = refine_pseudofaces(d)
        for fid, walk in enumerate(g.face_eids):
            if d.face_block[fid] >= 0:
                continue
            p = pf.get(fid)
            pair = k4_pair_left(k4_of, [g.edge_list[i] for i in (p.eids if p else walk)])
            assert (p is not None and p.degenerate) == pair, (seed, fid)
            seen.add((pair, p is not None and bool(p.reductions)))
    assert {(True, False), (False, True), (False, False)} <= seen


def test_one_pass_pseudofaces_match_the_tuple_reference():
    """On graphs with K4s hung on random edges, and a random relabelling of
    each, every pseudoface is the tuple reference's walk and rewrites, pairs
    taken left to right, and is degenerate iff a same-K4 pair is left; every
    other non-interior face is missing from the map."""
    rng = random.Random(27)
    rewrites = wraps = degenerate = 0
    for seed in range(300):
        base = random_plane_graph(rng.randint(3, 12), seed)
        g = hang_k4s(base, rng.randint(4, 8), rng)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = search.planar_embed(g.n, [(perm[u], perm[v]) for u, v in g.edge_list])
        for x in (g, h):
            edges = x.edge_list
            ref = matches_left_to_right_reference(decompose(x, "triangular"))
            for fid, (_, reductions, flag) in ref.items():
                walk = x.face_eids[fid]
                rewrites += len(reductions)
                wraps += sum([pair == (edges[walk[-1]], edges[walk[0]]) for _, pair, _ in reductions])
                degenerate += flag
    assert rewrites >= 500 and wraps >= 50 and degenerate >= 40, (rewrites, wraps, degenerate)


def test_k4_necklace_pseudofaces_take_linear_time():
    """One rewrite per K4 of the m = 8,000 necklace, in one pass: well under
    the 3 s a rescan from the face start after each rewrite takes."""
    d = decompose(k4_necklace(8000), "triangular")
    start = time.perf_counter()
    pf = refine_pseudofaces(d)
    elapsed = time.perf_counter() - start
    assert sum(len(p.reductions) for p in pf.values()) == 8000
    assert not any(p.degenerate for p in pf.values())
    assert elapsed < 0.5, elapsed


def test_quadrangular_decompositions_have_no_pseudofaces(fixture_graphs):
    # a 4-cycle face of a K4 would leave the other two edges to cross, so no
    # quadrangular block is a K4 and the K4 rule rewrites no face
    for name, g in fixture_graphs.items():
        d = decompose(g, "quadrangular")
        assert BlockKind.K4 not in d.kinds, name
        assert refine_pseudofaces(d) == {}, name


def test_standalone_c4_has_no_junctions(fixture_graphs):
    d = decompose(fixture_graphs["c4"], "quadrangular")
    assert d.blocks[0].junction_vertices == frozenset()


def test_c4_with_pendants():
    # C4 plus a pendant edge at each corner (pendants drawn outside),
    # giving 4 junction vertices on the C4
    rotations = [[1, 4, 3], [2, 5, 0], [3, 6, 1], [0, 7, 2]] + [[i] for i in range(4)]
    g = PlaneGraph(rotations, (4, 0))
    outer = next(f for f in g.faces if g.outer_dart in f.darts)
    assert outer.length == 12
    d = decompose(g, "quadrangular")
    c4 = next(b for b in d.blocks if b.kind == BlockKind.C4)
    assert c4.junction_vertices == frozenset(range(4))
    assert c4.exterior_eids == c4.eids
    denom, shares = ledger.slot_table(d, refine_pseudofaces(d))
    # the outer face, of length 12, is the only one no block absorbs: each
    # C4 edge appears on it once, each pendant edge twice
    assert shares[c4.id] * 12 == 4 * denom
    assert all(shares[b.id] * 12 == 2 * denom for b in d.blocks if b.kind == BlockKind.K2)


def test_slot_completeness_random():
    rng = random.Random(9)
    in_map = 0
    for seed in range(40):
        g = random_plane_graph(rng.randint(4, 12), 900 + seed)
        # hung K4s give faces that the K4 rule rewrites
        for x in (g, hang_k4s(g, 3, random.Random(seed))):
            for mode in ("triangular", "quadrangular"):
                d = decompose(x, mode)
                pf = refine_pseudofaces(d)
                assert mode == "triangular" or pf == {}, seed
                denom, shares = ledger.slot_table(d, pf)
                # each face no block absorbs gives 1/L to each of the L entries
                # of its (pseudo)face boundary, so each such face adds 1 in all
                want = [F(0)] * len(d.eids)
                for fid, eids in enumerate(x.face_eids):
                    if d.face_block[fid] >= 0:
                        continue
                    boundary = pf[fid].eids if fid in pf else eids
                    for i in boundary:
                        want[d.edge_block[i]] += F(1, len(boundary))
                assert [F(s, denom) for s in shares] == want, (seed, mode)
                outside = d.face_block.count(-1)
                assert sum(shares) == outside * denom, (seed, mode)
                in_map += len(pf or ())
    assert in_map >= 20, in_map


def test_interior_faces_partition_block_faces(fixture_graphs):
    for g in fixture_graphs.values():
        for mode in ("triangular", "quadrangular"):
            m = 3 if mode == "triangular" else 4
            d = decompose(g, mode)
            cycles = {
                f.id
                for f in g.faces
                if f.length == m and len({u for u, _ in f.darts}) == m
            }
            assert len(d.face_block) == g.f
            assert {fid for fid, bid in enumerate(d.face_block) if bid >= 0} == cycles
            for fid in cycles:
                face, bid = g.faces[fid], d.face_block[fid]
                block_edges = {g.edge_list[i] for i in d.blocks[bid].eids}
                assert all((min(u, v), max(u, v)) in block_edges for u, v in face.darts)


def test_edge_ids_run_from_faces_to_blocks(fixture_graphs, corpus7):
    """An edge id is the edge's index in ``g.edge_list``; faces, blocks and
    pseudofaces give their edges as ids and decompositions map ids to
    blocks."""
    graphs = list(fixture_graphs.values())
    graphs += [PlaneGraph(rot) for n, classes in corpus7.items() if n >= 2 for _, rot in classes]
    graphs += [random_plane_graph(n, seed) for n in (30, 120) for seed in range(3)]
    edge_ids_checked = pairs_reduced = 0
    for g in graphs:
        assert g.edge_list == sorted(g.edges)
        for face in g.faces:
            walk = [(min(u, v), max(u, v)) for u, v in face.darts]
            assert [g.edge_list[i] for i in face.eids] == walk
        for mode in ("triangular", "quadrangular"):
            d = decompose(g, mode)
            # each block's ids are those edge_block maps to it, ascending
            members = [[] for _ in d.blocks]
            for i, bid in enumerate(d.edge_block):
                members[bid].append(i)
            assert [list(b.eids) for b in d.blocks] == members
            border = {i for f in g.faces if d.face_block[f.id] < 0 for i in f.eids}
            for b in d.blocks:
                assert all(x < y for x, y in zip(b.eids, b.eids[1:]))
                assert b.exterior_eids == tuple([i for i in b.eids if i in border])
                if len(b.eids) == 1:
                    assert b.kind == BlockKind.K2
                    assert b.exterior_eids == b.eids
                    assert b.interior_faces == ()
            edge_ids_checked += g.e
        ref = matches_left_to_right_reference(decompose(g, "triangular"))
        pairs_reduced += sum([len(reductions) for _, reductions, _ in ref.values()])
    assert edge_ids_checked and pairs_reduced


def test_memoized_kinds_match_a_direct_catalog_lookup(corpus7):
    modes = (
        ("triangular", blocks.TRIANGULAR_KINDS),
        ("quadrangular", blocks.QUADRANGULAR_KINDS),
    )
    for n, graphs in corpus7.items():
        if n < 2:
            continue
        for adj, _ in graphs:
            g = search.planar_embed(n, canon.edges_from_masks(adj))
            for mode, kinds in modes:
                for b in decompose(g, mode).blocks:
                    relabel = {v: i for i, v in enumerate(sorted(b.vertices))}
                    masks = canon.masks_from_edges(
                        len(b.vertices),
                        [(relabel[u], relabel[v]) for u, v in (g.edge_list[i] for i in b.eids)],
                    )
                    key = (len(b.vertices), len(b.eids), canon.canonical_form(masks))
                    assert b.kind == blocks._CATALOG_KEYS.get(key, BlockKind.OTHER)
                    # one table serves both modes: no block takes a kind of
                    # the other mode's catalog
                    assert b.kind in kinds or b.kind == BlockKind.OTHER


def test_classification_skips_canonical_form_when_it_can(monkeypatch, fixture_graphs):
    calls = []
    real = canon.canonical_form
    monkeypatch.setattr(canon, "canonical_form", lambda adj: calls.append(1) or real(adj))
    d = decompose(fixture_graphs["cube"], "triangular")
    assert [b.kind for b in d.blocks] == [BlockKind.K2] * 12
    assert calls == []  # single edges are K2 outright
    decompose(fixture_graphs["q7"], "quadrangular")
    calls.clear()
    d = decompose(fixture_graphs["q7"], "quadrangular")
    assert [b.kind for b in d.blocks] == [BlockKind.Q7]
    assert calls == []  # a relabelled block seen before is not canonized again
