import random
from fractions import Fraction

import pytest

from planeblocks import ledger, search
from planeblocks.blocks import BlockKind, decompose
from planeblocks.errors import ConservationViolation
from planeblocks.ledger import build_ledger
from planeblocks.plane import PlaneGraph

from conftest import shares


def F(a, b=1):
    return Fraction(a, b)


def entry_by_kind(led, kind):
    """The id of the first block of this kind."""
    for b in led.decomposition.blocks:
        if b.kind == kind:
            return b.id
    raise AssertionError(f"no {kind} entry")


def test_cube_triangular_ledger(fixture_graphs):
    led = build_ledger(fixture_graphs["cube"], "triangular")
    assert len(led.vnum) == 12
    # every vertex sits in 3 trivial blocks, every edge borders two 4-faces
    for bid in range(12):
        assert shares(led, bid)[:3] == (F(2, 3), 1, F(1, 2))
    assert led.totals == (F(8), 12, F(6), F(0), 0)


@pytest.mark.parametrize(
    "name,v,e,f,k,e23",
    [
        ("c4", 4, 4, 2, 4, 0),
        ("k23", 5, 6, 3, 3, 6),
        ("theta6", 6, 7, 3, 4, 4),
        ("q7", 7, 9, 4, 3, 6),
    ],
)
def test_standalone_quadrangular_ledgers(name, v, e, f, k, e23, fixture_graphs):
    led = build_ledger(fixture_graphs[name], "quadrangular")
    assert len(led.vnum) == 1
    assert led.pseudofaces == {}
    assert shares(led, 0) == (F(v), e, F(f), F(k), e23)
    assert led.totals == (F(v), e, F(f), F(k), e23)


def test_standalone_k4_degenerate_pseudoface_still_conserves(fixture_graphs):
    led = build_ledger(fixture_graphs["k4"], "triangular")
    assert len(led.vnum) == 1
    # all four triangles are interior faces, so no pseudoface is left
    assert shares(led, 0)[:3] == (F(4), 6, F(4))
    assert led.pseudofaces == {}


def two_triangles_with_bridge():
    rotations = [
        [1, 2],
        [2, 0],
        [0, 1, 3],
        [2, 4, 5],
        [5, 3],
        [3, 4],
    ]
    return PlaneGraph(rotations, (2, 3))


def test_bridge_gets_two_slot_entries():
    g = two_triangles_with_bridge()
    assert g.f == 3
    led = build_ledger(g, "triangular")
    kinds = sorted(b.kind.value for b in led.decomposition.blocks)
    assert kinds == ["K2", "K3", "K3"]
    bridge = entry_by_kind(led, BlockKind.K2)
    # the outer walk has length 8 and crosses the bridge twice
    assert shares(led, bridge)[:3] == (F(1), 1, F(2, 8))
    for bid in range(len(led.vnum)):
        if bid != bridge:
            assert shares(led, bid)[:3] == (F(5, 2), 3, F(11, 8))
    assert led.totals[:3] == (F(6), 7, F(3))


def test_conservation_on_random_graphs():
    rng = random.Random(17)
    for seed in range(80):
        g = search.random_plane_graph(rng.randint(3, 13), 4400 + seed)
        for mode in ("triangular", "quadrangular"):
            led = build_ledger(g, mode)  # raises on any identity mismatch
            tv, te, tf, tk, te23 = led.totals
            assert (tv, te, tf) == (F(g.n), g.e, F(g.f))
            if mode == "quadrangular":
                assert tk == sum(1 for rot in g.rotations if len(rot) == 2)


def test_triangular_entries_carry_no_aux_terms(fixture_graphs):
    led = build_ledger(fixture_graphs["theta4"], "triangular")
    assert all(shares(led, bid)[3:] == (0, 0) for bid in range(len(led.vnum)))
    assert led.knum is not led.e23


def c4_with_pendant():
    # degrees: 0 has 3, 1-3 have 2, 4 has 1; the C4 block holds 0-3 and
    # the pendant edge 0-4 is a K2 block, so 1-3 and 4 sit in one block each
    return PlaneGraph([[1, 4, 3], [2, 0], [3, 1], [0, 2], [0]], (4, 0))


def test_aux_degrees_taken_in_whole_graph():
    # C4 with one pendant: inside the C4 block every degree is 2, but vertex
    # 0 has degree 3 in G, so k(C4) = 3 and the two edges at vertex 0 are
    # (2,3)-edges
    led = build_ledger(c4_with_pendant(), "quadrangular")
    c4 = entry_by_kind(led, BlockKind.C4)
    assert shares(led, c4)[3:] == (F(3), 2)
    pend = entry_by_kind(led, BlockKind.K2)
    assert led.e23[pend] == 0  # degrees 1 and 3


def test_entries_carry_int_numerators_that_conserve(fixture_graphs, corpus7):
    graphs = [*fixture_graphs.values()]
    graphs += [PlaneGraph(rot) for n in range(2, 8) for _, rot in corpus7[n]]
    for g in graphs:
        deg2 = sum(1 for rot in g.rotations if len(rot) == 2)
        for mode in ("triangular", "quadrangular"):
            led = build_ledger(g, mode)
            nblocks = len(led.decomposition.blocks)
            for column in (led.vnum, led.fnum, led.knum, led.e23):
                assert len(column) == nblocks
                assert all(type(x) is int for x in column)
            k = deg2 if mode == "quadrangular" else 0
            assert sum(led.vnum) == g.n * led.den
            assert sum(led.fnum) == g.f * led.den
            assert sum(led.knum) == k * led.den


@pytest.mark.parametrize("mode", ["triangular", "quadrangular"])
def test_tampered_slot_share_raises(mode, fixture_graphs, monkeypatch):
    # a fixture with a face that is not interior in this mode: the cube's
    # 4-faces in triangular mode, theta6's 6-face in quadrangular mode
    name = "cube" if mode == "triangular" else "theta6"
    real = ledger.slot_table

    def tampered(d, pf):
        denom, shares = real(d, pf)
        bid = next(b for b, num in enumerate(shares) if num)  # a block with a face share
        shares[bid] += 1
        return denom, shares

    monkeypatch.setattr(ledger, "slot_table", tampered)
    with pytest.raises(ConservationViolation, match="face total"):
        build_ledger(fixture_graphs[name], mode)


def tamper_blocks(monkeypatch, edit):
    """Make build_ledger see decompositions whose block columns ``edit``
    altered; ``edit(g, d)`` gets the graph and the decomposition."""
    real = ledger.decompose

    def tampered(g, mode):
        d = real(g, mode)
        edit(g, d)
        return d

    monkeypatch.setattr(ledger, "decompose", tampered)


def test_tampered_vertex_set_raises(fixture_graphs, monkeypatch):
    def edit(g, d):
        (outside, *_) = set(range(g.n)) - set(d.vertices[0])
        d.vertices[0] = tuple(sorted({*d.vertices[0], outside}))

    tamper_blocks(monkeypatch, edit)
    with pytest.raises(ConservationViolation, match="vertex total"):
        build_ledger(fixture_graphs["cube"], "triangular")


def test_tampered_edge_set_raises(fixture_graphs, monkeypatch):
    def edit(g, d):
        d.eids[0] = d.eids[0] + d.eids[1]

    tamper_blocks(monkeypatch, edit)
    with pytest.raises(ConservationViolation, match="edge total"):
        build_ledger(fixture_graphs["cube"], "triangular")


def test_tampered_degree_2_vertex_raises(monkeypatch):
    # trade degree-2 vertex 1 for vertex 4 (degree 1): both sit in one
    # block, so v(B) keeps its value and only k(B) moves
    def edit(g, d):
        c4 = d.kinds.index(BlockKind.C4)
        d.vertices[c4] = tuple(sorted(set(d.vertices[c4]) - {1} | {4}))

    tamper_blocks(monkeypatch, edit)
    with pytest.raises(ConservationViolation, match="degree-2 total"):
        build_ledger(c4_with_pendant(), "quadrangular")


def test_tampered_23_edge_raises(monkeypatch):
    # the pendant block swaps its edge 0-4 for the (2,3)-edge 0-1: the edge
    # count stays, the (2,3)-edge count grows by one
    def edit(g, d):
        pend = d.kinds.index(BlockKind.K2)
        d.eids[pend] = [g.edge_list.index((0, 1))]

    tamper_blocks(monkeypatch, edit)
    with pytest.raises(ConservationViolation, match=r"\(2,3\)-edge total"):
        build_ledger(c4_with_pendant(), "quadrangular")
