import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from planeblocks import graphio, ledger, plane, search, structure, theorems
from planeblocks.blocks import BlockKind
from planeblocks.errors import (
    ConservationViolation,
    DegenerateProfile,
    UnexpectedBlock,
    UnknownProfile,
)
from planeblocks.plane import PlaneGraph
from planeblocks.theorems import (
    PROFILES,
    check_hypotheses,
    derive_global_bound,
    evaluate_row,
    get_profile,
    saturate_six_faces,
    verify,
    verify_per_block,
)

from conftest import block_values, hexagonal_prism, shares


def F(a, b=1):
    return Fraction(a, b)


@pytest.mark.parametrize(
    "pid,a,b_k,b_e23,c",
    [
        ("C5", F(12, 5), 0, 0, F(-33, 5)),
        ("BI_C6", F(3, 2), F(1, 2), F(1, 4), F(-4)),
        ("BI_C8", F(5, 3), 0, 0, F(-10, 3)),
        ("BI_C8C10", F(18, 11), 0, 0, F(-84, 11)),
        ("TRI_C6", F(9, 5), 0, 0, F(-4)),
        ("TRI_C8", F(81, 44), 0, 0, F(-105, 22)),
    ],
)
def test_derived_bound_coefficients(pid, a, b_k, b_e23, c):
    f = derive_global_bound(PROFILES[pid])
    assert (f.a, f.b_k, f.b_e23, f.c) == (a, b_k, b_e23, c)
    assert f.integer_floor == (pid == "TRI_C6")


def test_bound_formula_rendering():
    assert str(derive_global_bound(PROFILES["C5"])) == "e <= 12/5*n - 33/5"
    assert str(derive_global_bound(PROFILES["BI_C6"])) == \
        "e <= 3/2*n + 1/2*k + 1/4*e23 - 4"
    assert str(derive_global_bound(PROFILES["TRI_C6"])) == \
        "e <= floor(9/5*n - 4)"


def test_integer_floor_evaluation():
    f = derive_global_bound(PROFILES["TRI_C6"])
    assert f.evaluate(13) == 19  # floor(117/5 - 4) = floor(19.4)
    assert f.evaluate(10) == 14  # exact: 18 - 4


@pytest.mark.parametrize(
    "pid,n_of,e_of,k_of,e23_of",
    [
        # known tight families: bound(n, k, e23) equals the edge count exactly
        ("BI_C6", lambda t: 28 * t + 2, lambda t: 48 * t,
         lambda t: 8 * t, lambda t: 8 * t + 4),
        ("BI_C8", lambda t: 270 * t + 110, lambda t: 450 * t + 180,
         lambda t: 0, lambda t: 0),
        ("BI_C8C10", lambda t: 66 * t + 155, lambda t: 108 * t + 246,
         lambda t: 0, lambda t: 0),
        ("TRI_C6", lambda t: 10 * t + 8, lambda t: 18 * t + 10,
         lambda t: 0, lambda t: 0),
    ],
)
def test_tight_family_arithmetic(pid, n_of, e_of, k_of, e23_of):
    f = derive_global_bound(PROFILES[pid])
    for t in range(1, 30):
        assert f.evaluate(n_of(t), k=k_of(t), e23=e23_of(t)) == e_of(t), t


def test_cube_under_c5_profile(fixture_graphs):
    v = verify(fixture_graphs["cube"], PROFILES["C5"])
    assert v.hypotheses.ok
    assert v.ok and not v.violations
    assert all(b.kind == BlockKind.K2 and value == F(-1, 2)
               for b, value in block_values(v))
    assert v.total == F(-6)
    assert v.bound.bound == F(63, 5)
    assert v.bound.ok and not v.bound.asserted  # n = 8 is below the floor


def test_k4_whole_graph_below_floor_is_a_warning(fixture_graphs):
    v = verify(fixture_graphs["k4"], PROFILES["C5"])
    assert v.hypotheses.ok
    assert not v.violations
    assert any("spans the whole graph" in w for w in v.warnings)
    assert not v.bound.ok and not v.bound.asserted
    assert v.ok  # unasserted bound failure does not flip the verdict


def test_c8_under_bipartite_c6_profile(fixture_graphs):
    v = verify(fixture_graphs["c8"], PROFILES["BI_C6"])
    assert v.hypotheses.ok and v.ok
    assert all(value == F(-2) for _, value in block_values(v))
    assert v.total == F(-16)
    assert v.bound.asserted and v.bound.slack == 4


def test_c4_under_bipartite_c6_profile(fixture_graphs):
    v = verify(fixture_graphs["c4"], PROFILES["BI_C6"])
    assert v.ok
    ((b, value),) = block_values(v)
    assert b.kind == BlockKind.C4 and value == 0
    assert v.bound.tight and not v.bound.asserted  # n = 4 < 6


def test_verify_checks_hypotheses_and_computes_stats_once(
    fixture_graphs, monkeypatch
):
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(theorems, "check_hypotheses",
                        counted("hypotheses", theorems.check_hypotheses))
    stats_fn = structure.structural_stats
    for module in (structure, theorems, graphio, search):
        monkeypatch.setattr(module, "structural_stats", counted("stats", stats_fn))
    g = fixture_graphs["cube"]
    for pid, p in PROFILES.items():
        counts.clear()
        graphio.verdict_report(g, verify(g, p, force=True))
        assert (counts["hypotheses"], counts["stats"]) == (1, 1), pid


def test_mindeg3_warning_for_bipartite_c6_profile(fixture_graphs):
    rep = check_hypotheses(fixture_graphs["cube"], PROFILES["BI_C6"])
    assert not rep.ok
    assert any("min degree" in w for w in rep.warnings)


def test_forced_run_tolerates_out_of_catalog_blocks(fixture_graphs):
    v = verify(fixture_graphs["cube"], PROFILES["BI_C8"], force=True)
    assert not v.hypotheses.ok and v.forced
    assert v.ledger is not None
    assert any("outside the BI_C8 catalog" in w for w in v.warnings)
    assert not v.ok


def test_unforced_run_stops_at_failed_hypotheses(fixture_graphs):
    v = verify(fixture_graphs["cube"], PROFILES["BI_C8"])
    assert not v.ok and v.ledger is None and v.bound is None


def test_out_of_catalog_on_satisfying_graph_is_internal(fixture_graphs):
    shrunk = dataclasses.replace(PROFILES["C5"], catalog=(BlockKind.K3,))
    with pytest.raises(UnexpectedBlock):
        g = fixture_graphs["cube"]
        verify_per_block(g, shrunk, check_hypotheses(g, shrunk))


def test_tampered_block_value_raises(fixture_graphs, monkeypatch):
    # one block's v(B) moves by 1/den after the ledger checked its totals
    real = theorems.build_ledger

    def tampered(g, mode):
        led = real(g, mode)
        led.vnum[0] += 1
        return led

    monkeypatch.setattr(theorems, "build_ledger", tampered)
    g, p = fixture_graphs["cube"], PROFILES["C5"]
    with pytest.raises(ConservationViolation, match="sum of block values"):
        verify_per_block(g, p, check_hypotheses(g, p))


def test_unknown_profile():
    with pytest.raises(UnknownProfile):
        get_profile("C7")


def test_degenerate_profile_row():
    p = dataclasses.replace(PROFILES["C5"], coefficients=(1, -5, 5, 0, 0))
    with pytest.raises(DegenerateProfile):
        derive_global_bound(p)


def test_saturation_splits_hexagon(fixture_graphs):
    # both faces of C6 are 6-cycles, so each takes one chord
    g, chords = saturate_six_faces(fixture_graphs["c6"])
    assert len(chords) == 2
    assert (g.n, g.e) == (6, 8)
    assert sorted(f.length for f in g.faces) == [4, 4, 4, 4]
    for u, v in chords:
        assert v == u + 3  # a long chord, keeping the graph bipartite
    assert g.outer_dart == fixture_graphs["c6"].outer_dart
    again, more = saturate_six_faces(g)
    assert more == () and again is g


def test_saturation_reads_no_face(fixture_graphs, monkeypatch):
    """Saturation takes each 6-face's vertex cycle from ``face_eids``: with
    `Face` made to raise, C6 takes the same chords, and the prism's two
    hexagons are chorded as before, until the closing assert finds the C8
    that the prism had all along."""
    c6 = fixture_graphs["c6"]
    graphs = [PlaneGraph(c6.rotations, c6.outer_dart), hexagonal_prism()]  # no cached faces
    calls = []
    real = theorems.insert_chord

    def recorded(rotations, cycle, u, v):
        calls.append((list(cycle), u, v))
        real(rotations, cycle, u, v)

    def no_face(*args):
        raise AssertionError("a Face was built")

    monkeypatch.setattr(theorems, "insert_chord", recorded)
    monkeypatch.setattr(plane, "Face", no_face)
    assert saturate_six_faces(graphs[0])[1] == ((0, 3), (2, 5))
    assert calls == [([0, 1, 2, 3, 4, 5], 0, 3), ([0, 5, 4, 3, 2, 1], 5, 2)]
    calls.clear()
    with pytest.raises(AssertionError, match="saturation chord broke"):
        saturate_six_faces(graphs[1])
    assert calls == [([0, 1, 2, 3, 4, 5], 0, 3), ([6, 11, 10, 9, 8, 7], 6, 9)]


def saturate_chord_at_a_time(g):
    """Reference saturation: chord the first 6-face whose walk is a 6-cycle,
    rebuild the graph, assert the hypotheses, and repeat until none is left.
    Returns (graph, chords)."""
    breakable = dataclasses.replace(PROFILES["BI_C8C10"].hypotheses, min_degree=0)
    chords = []
    while True:
        target = None
        for face in g.faces:
            cycle = [u for u, _ in face.darts]
            if len(cycle) == 6 and len(set(cycle)) == 6:
                target = cycle
                break
        if target is None:
            return g, tuple(chords)
        for shift in range(3):
            v0, v3 = target[shift], target[shift + 3]
            if v3 not in g.rotations[v0]:
                break
        else:
            raise AssertionError(f"6-face {target} has all opposite pairs joined")
        walk = target[shift:] + target[:shift]
        rotations = [list(r) for r in g.rotations]
        rotations[v0].insert(rotations[v0].index(walk[-1]) + 1, v3)
        rotations[v3].insert(rotations[v3].index(walk[2]) + 1, v0)
        g = PlaneGraph(rotations, g.outer_dart)
        chords.append((min(v0, v3), max(v0, v3)))
        assert breakable.holds(g.rotations, structure.structural_stats(g.rotations))


def test_one_pass_saturation_matches_chord_at_a_time(corpus9):
    """On every bipartite class with n <= 9, in its search embedding, the
    one-pass saturation adds the same chords in the same order, builds the
    same rotations and outer dart, and raises exactly where the reference
    does (a chord that closes a C8)."""

    def outcome(fn, g):
        try:
            return fn(g)
        except AssertionError:
            return None

    finished = chorded = several = raised = 0
    for n in range(2, 10):  # n = 1 has no edge, so no plane graph
        for _, rot in corpus9[n]:
            if not structure.is_bipartite(rot)[0]:
                continue
            g = PlaneGraph(rot)
            want = outcome(saturate_chord_at_a_time, g)
            got = outcome(saturate_six_faces, g)
            if want is None:
                assert got is None, rot
                raised += 1
                continue
            assert got is not None, rot
            assert got[1] == want[1], rot
            assert got[0].rotations == want[0].rotations, rot
            assert got[0].outer_dart == want[0].outer_dart, rot
            if not want[1]:
                assert got[0] is g
            finished += 1
            chorded += len(want[1]) > 0
            several += len(want[1]) > 1
    assert (finished, chorded, several, raised) == (712, 139, 10, 95)


def test_saturation_builds_and_checks_once(fixture_graphs, monkeypatch):
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(PlaneGraph, "__init__", counted("plane", PlaneGraph.__init__))
    monkeypatch.setattr(
        theorems, "structural_stats", counted("stats", structure.structural_stats)
    )
    monkeypatch.setattr(
        structure,
        "contains_cycle_of_length",
        counted("cycles", structure.contains_cycle_of_length),
    )
    assert len(saturate_six_faces(fixture_graphs["c6"])[1]) == 2
    # one graph, one stats, one search per forbidden length (C8 and C10)
    assert counts == {"plane": 1, "stats": 1, "cycles": 2}


def test_profile_catalogs():
    assert PROFILES["C5"].catalog == theorems.TRIANGULAR_KINDS
    assert PROFILES["BI_C6"].catalog == (
        BlockKind.K2, BlockKind.C4, BlockKind.K23
    )
    assert PROFILES["TRI_C6"].catalog == (BlockKind.K2, BlockKind.C4)
    for pid in ("BI_C8", "BI_C8C10", "TRI_C8"):
        assert PROFILES[pid].catalog == theorems.QUADRANGULAR_KINDS


@pytest.mark.parametrize("pid", sorted(PROFILES))
def test_integer_rows_match_fraction_rows(pid, fixture_graphs):
    """Each L(B), the total and the violations equal those of evaluate_row."""
    p = PROFILES[pid]
    rng = random.Random(7)
    graphs = [*fixture_graphs.values()]
    graphs += [
        search.random_plane_graph(rng.randint(3, 30), 4100 + i) for i in range(50)
    ]
    for g in graphs:
        v = verify_per_block(g, p, check_hypotheses(g, p))
        want = [
            evaluate_row(p.coefficients, *shares(v.ledger, b.id))
            for b in v.ledger.decomposition.blocks
        ]
        assert [value for _, value in block_values(v)] == want
        assert all(type(num) is int for num in v.values)
        assert type(v.total) is Fraction and v.total == sum(want, F(0))
        below_floor = p.floor_n is not None and g.n < p.floor_n
        assert v.violations == tuple(
            b.id
            for b, value in block_values(v)
            if value > 0 and not (below_floor and len(b.eids) == g.e)
        )


def test_verdicts_do_not_depend_on_the_outer_face(fixture_graphs, corpus7):
    """On the sphere no face is special: whichever face the outer dart picks,
    the blocks, the ledgers and every profile's verdict stay the same.  The
    verdicts are forced, so blocks are evaluated on every graph; the
    hypotheses read the rotation system only."""

    def outcome(g):
        ledgers = [ledger.build_ledger(g, mode) for mode in ("triangular", "quadrangular")]
        verdicts = [verify(g, p, force=True) for p in PROFILES.values()]
        return (
            [{b.eids for b in led.decomposition.blocks} for led in ledgers],
            [(led.den, led.vnum, led.fnum, led.knum, led.e23) for led in ledgers],
            [(v.ok, v.violations, v.total) for v in verdicts],
        )

    rotation_systems = [g.rotations for g in fixture_graphs.values()]
    rotation_systems += [rot for n in range(2, 8) for _, rot in corpus7[n]]
    moved = []
    for rotations in rotation_systems:
        g = PlaneGraph(rotations)
        want = outcome(g)
        for face in g.faces:
            if outcome(PlaneGraph(rotations, face.darts[0])) != want:
                moved.append((rotations, face.darts[0]))
    assert not moved, f"{len(moved)} outer-face choices change the outcome: {moved[:3]}"
