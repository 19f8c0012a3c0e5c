"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its criterion; the expensive
shared corpus (all connected planar classes up to n = 9) is built once per
session.  Set PLANEBLOCKS_EXTENDED=1 to run the larger gates:

- criterion 5 at n <= 11 (n <= 9 otherwise);
- criterion 6's BI_C6 classes at n <= 14 (n <= 12 otherwise) and its C5
  classes at n = 11 as well as n = 10;
- criterion 7 at n <= 10 (n <= 9 otherwise).
"""

import dataclasses
import hashlib
import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from planeblocks import canon, graphio, ledger, search, theorems
from planeblocks.cli import main as cli_main
from planeblocks.fixtures import FIXTURE_NAMES, fixture_text
from planeblocks.plane import PlaneGraph
from planeblocks.structure import contains_cycle_of_length, structural_stats
from planeblocks.theorems import PROFILES, derive_global_bound

from conftest import EXTENDED, block_values, k4_necklace, shares

WITNESS_DIR = Path(__file__).parent / "witnesses"


@pytest.fixture
def criterion(capsys):
    def _report(num: int, desc: str, ok: bool):
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
        assert ok, f"criterion {num}: {desc}"

    return _report


def test_criterion_1_bound_formulas(criterion):
    F = Fraction
    published = {
        "C5": (F(12, 5), F(0), F(0), F(-33, 5), False),
        "BI_C6": (F(3, 2), F(1, 2), F(1, 4), F(-4), False),
        "BI_C8": (F(5, 3), F(0), F(0), F(-10, 3), False),
        "BI_C8C10": (F(18, 11), F(0), F(0), F(-84, 11), False),
        "TRI_C6": (F(9, 5), F(0), F(0), F(-4), True),
        "TRI_C8": (F(81, 44), F(0), F(0), F(-105, 22), False),
    }
    ok = True
    for pid, want in published.items():
        f = derive_global_bound(PROFILES[pid])
        ok &= (f.a, f.b_k, f.b_e23, f.c, f.integer_floor) == want
    criterion(1, "all six derived bound formulas match exactly", ok)


def test_criterion_2_conservation(criterion, corpus9):
    # the corpus is every connected planar class: OEIS A003094
    assert [len(corpus9[n]) for n in range(1, 10)] == [1, 1, 2, 6, 20, 99, 646, 5974, 71885]
    # the n = 9 representatives and their order are pinned, not just counted
    digest = hashlib.sha256(repr([(9, adj) for adj, _ in corpus9[9]]).encode()).hexdigest()
    assert digest == "4344ace7e7eb8857d32389b1a1fffc6f952af8f0ee3cf136e320c661b03b4dd7"
    rng = random.Random(2024)
    random_graphs = (search.random_plane_graph(rng.randint(3, 14), seed) for seed in range(500))
    enumerated = (PlaneGraph(rot) for n in range(2, 10) for _, rot in corpus9[n])
    graphs = checked = 0
    for g in itertools.chain(random_graphs, enumerated):
        assert g.n - g.e + g.f == 2
        for mode in ("triangular", "quadrangular"):
            ledger.build_ledger(g, mode)  # raises on any identity failure
            checked += 1
        graphs += 1
    criterion(
        2,
        f"conservation identities hold on {checked} ledgers "
        f"({graphs} graphs, both modes)",
        True,
    )


def test_criterion_3_per_block_soundness(criterion, corpus9):
    # every class on 2 to 9 vertices, then every witness file: several
    # profiles have empty domains at n <= 9 (e.g. every bipartite planar
    # graph with min degree 3 and n <= 9 contains a C8), and C5's floor is 11
    witnesses = (graphio.parse_graph(f.read_text()) for f in sorted(WITNESS_DIR.glob("*.graph")))
    cases = itertools.chain(
        (rot for n in range(2, 10) for _, rot in corpus9[n]), (g.rotations for g in witnesses)
    )
    verified = {pid: 0 for pid in PROFILES}
    floored = {pid: 0 for pid in PROFILES}  # those at or above the profile's floor
    bad = []
    for rot in cases:
        g = None
        s = structural_stats(rot)
        for pid, p in PROFILES.items():
            if not p.hypotheses.holds(rot, s):
                continue
            if g is None:
                g = PlaneGraph(rot)
            v = theorems.verify_per_block(g, p, theorems.check_hypotheses(g, p))
            assert v.hypotheses.ok
            if v.violations:
                bad.append((pid, rot, v.violations))
            verified[pid] += 1
            floored[pid] += g.n >= (p.floor_n or 0)
    counts = ", ".join(
        f"{pid}={verified[pid]} ({floored[pid]} at n >= floor)" for pid in sorted(PROFILES)
    )
    criterion(
        3,
        f"no block with L(B) > 0 on hypothesis-satisfying graphs ({counts})",
        not bad and all(floored.values()),
    )


def test_criterion_4_cube_ledger(criterion, fixture_graphs):
    F = Fraction
    v = theorems.verify(fixture_graphs["cube"], PROFILES["C5"])
    ok = (
        len(v.ledger.vnum) == 12
        and all(shares(v.ledger, bid)[:3] == (F(2, 3), 1, F(1, 2)) for bid in range(12))
        and all(value == F(-1, 2) for _, value in block_values(v))
        and v.total == F(-6)
        and v.total == 9 * 8 - 23 * 12 + 33 * 6
    )
    criterion(4, "cube ledger: 12 x (2/3, 1, 1/2), L(B) = -1/2, total -6", ok)


def test_criterion_5_no_small_bipartite_c6free_mindeg3(criterion):
    top = 11 if EXTENDED else 9
    found = []
    for n in range(1, top + 1):
        cs = search.ConstraintSet(
            n=n, bipartite=True, forbidden_cycles=(6,), min_degree=3
        )
        found.extend(search.enumerate_graphs(cs, ceiling=top))
    criterion(
        5,
        f"no bipartite C6-free planar graph with min degree >= 3 for n <= {top}",
        not found,
    )


def test_criterion_6_desk_scale_bounds(criterion):
    failures = 0
    checked_c5 = 0
    for n in (8, 9):
        cs = search.ConstraintSet(
            n=n, forbidden_cycles=(5,), min_degree=3, two_connected=True
        )
        for adj, _ in search.enumerate_graphs(cs):
            e = canon.edge_count(adj)
            if 5 * e > 12 * n - 33:
                failures += 1
            checked_c5 += 1
    # every class meeting the BI_C6 hypotheses (min degree exactly 2: the
    # pointwise formula does not cover degree-1 vertices, which the source
    # handles by induction) passes the profile's hypotheses, blocks and bound
    top = 14 if EXTENDED else 12
    bi_counts = []
    for n in range(6, top + 1):
        cs = search.ConstraintSet(
            n=n, bipartite=True, forbidden_cycles=(6,), exact_min_degree=2,
            deg2_neighbor_ok=True
        )
        bi_classes = list(search.enumerate_graphs(cs, ceiling=top))
        bi_counts.append(len(bi_classes))
        for _, rot in bi_classes:
            failures += not theorems.verify(PlaneGraph(rot), PROFILES["BI_C6"]).ok
    # exhaustively one vertex short of the C5 floor, and at n = 11 under
    # EXTENDED: every class meets the hypotheses, the per-block inequalities
    # hold on each, and the bound floor((12n - 33)/5) is reached
    # n: (classes, max e, (candidates, expanded, children, emitted))
    c5_pins = {
        10: (4, 17, (16523, 15805, 307892, 4)),
        11: (10, 19, (83907, 78851, 2084601, 10)),
    }
    c5_seen = {}
    for n in (10, 11) if EXTENDED else (10,):
        cs = search.ConstraintSet(
            n=n, forbidden_cycles=(5,), min_degree=3, two_connected=True
        )
        stats = search.SearchStats()
        classes = list(search.enumerate_graphs(cs, ceiling=n, stats=stats))
        max_e = max(canon.edge_count(adj) for adj, _ in classes)
        for _, rot in classes:
            v = theorems.verify(PlaneGraph(rot), PROFILES["C5"])
            failures += not v.hypotheses.ok or bool(v.violations)
        c5_seen[n] = (len(classes), max_e, dataclasses.astuple(stats))
    c5_text = "; ".join(
        f"C5 at n = {n}: {k} classes, max e {e} <= floor((12*{n} - 33)/5) = "
        f"{(12 * n - 33) // 5}, search stats {st}"
        for n, (k, e, st) in c5_seen.items()
    )
    criterion(
        6,
        f"bounds hold on {checked_c5} C5-profile enumerated graphs; {c5_text}; "
        f"no L(B) > 0; BI_C6 verified on {bi_counts} classes for n = 6..{top}",
        failures == 0 and checked_c5 > 0
        and all(c5_seen[n] == c5_pins[n] for n in c5_seen)
        and bi_counts == [0, 1, 4, 7, 14, 25, 82, 196, 548][:top - 5],
    )


def test_c5_bound_on_k4_necklaces_above_the_floor():
    """A ring of m >= 6 K4s (n = 3m >= 18, e = 6m) meets the C5 hypotheses,
    and its bound holds with slack (12n - 33)/5 - e = (6m - 33)/5; each K4
    rewrites one pair of a pseudoface.  At m = 4 and 5 the ring closes a C5."""
    for m in range(6, 12):
        g = k4_necklace(m)
        v = theorems.verify(g, PROFILES["C5"])
        assert v.ok and v.bound.asserted, m
        assert v.bound.slack == Fraction(6 * m - 33, 5), m
        assert sum(len(p.reductions) for p in v.ledger.pseudofaces.values()) == m
    for m in (4, 5):
        v = theorems.verify(k4_necklace(m), PROFILES["C5"])
        assert [c.name for c in v.hypotheses.checks if not c.ok] == ["C5-free"], m


def test_criterion_7_saturation(criterion):
    top = 10 if EXTENDED else 9
    p = PROFILES["BI_C8C10"]
    instances = 0
    bad = []
    for n in range(1, top + 1):
        cs = search.ConstraintSet(
            n=n, bipartite=True, forbidden_cycles=(8, 10), min_degree=3
        )
        for adj, rot in search.enumerate_graphs(cs, ceiling=top):
            g = PlaneGraph(rot)
            if not theorems.check_hypotheses(g, p).ok:
                continue
            instances += 1
            h, _ = theorems.saturate_six_faces(g)
            six_cycles = [
                f for f in h.faces
                if f.length == 6 and len({u for u, _ in f.darts}) == 6
            ]
            s = structural_stats(h.rotations)
            if six_cycles or not s.bipartite:
                bad.append(adj)
            for length in (8, 10):
                if length <= h.n and contains_cycle_of_length(h.rotations, length):
                    bad.append(adj)
            if theorems.saturate_six_faces(h)[1]:
                bad.append(adj)
    criterion(
        7,
        f"saturation sound on all {instances} BI_C8C10 instances with n <= {top}"
        + (" (vacuously: none exist at this size)" if instances == 0 else ""),
        not bad,
    )


FAMILIES = (
    # profile id, n(t), e(t), k(t), e23(t)
    ("BI_C6", lambda t: 28 * t + 2, lambda t: 48 * t,
     lambda t: 8 * t, lambda t: 8 * t + 4),
    ("BI_C8", lambda t: 270 * t + 110, lambda t: 450 * t + 180,
     lambda t: 0, lambda t: 0),
    ("BI_C8C10", lambda t: 66 * t + 155, lambda t: 108 * t + 246,
     lambda t: 0, lambda t: 0),
    ("TRI_C6", lambda t: 10 * t + 8, lambda t: 18 * t + 10,
     lambda t: 0, lambda t: 0),
)


def _matching_profile(g):
    s = structural_stats(g.rotations)
    for pid, n_of, e_of, k_of, e23_of in FAMILIES:
        for t in range(1, 200):
            if n_of(t) > g.n:
                break
            if (n_of(t), e_of(t), k_of(t), e23_of(t)) == (g.n, g.e, s.k, s.e23):
                return pid
    return None


def _named_profile(text):
    """The profile a witness file names in a '# profile: ID' comment, if any."""
    found = re.search(r"^#\s*profile:\s*(\S+)", text, re.MULTILINE)
    return found.group(1) if found else None


def test_criterion_8_witness_certification(criterion):
    files = sorted(WITNESS_DIR.glob("*.graph"))
    certified = 0
    bad = []
    for f in files:
        text = f.read_text()
        g = graphio.parse_graph(text)
        # a file outside every family names its profile
        pid = _named_profile(text) or _matching_profile(g)
        # a tight file counts only if it meets the profile's hypotheses and
        # no block has L(B) > 0
        v = theorems.verify(g, PROFILES[pid]) if pid else None
        if v is not None and v.ok and v.bound.slack == 0:
            certified += 1
        else:
            bad.append(f.name)
    criterion(
        8,
        f"{certified} extremal witness file(s) certified tight"
        + (f"; not certified: {', '.join(bad)}" if bad else ""),
        certified >= 3 and not bad,
    )


def test_criterion_9_cli_contract(criterion, tmp_path, capsys):
    corpus = tmp_path / "graphs"
    corpus.mkdir()
    for name in FIXTURE_NAMES:
        (corpus / f"{name}.graph").write_text(fixture_text(name))

    ok = True
    for name in FIXTURE_NAMES:
        gpath = str(corpus / f"{name}.graph")
        for mode in ("triangular", "quadrangular"):
            for cmd in ("decompose", "ledger"):
                argv = [cmd, gpath, "--mode", mode, "--format", "json"]
                ok &= cli_main(argv) == 0
                first = capsys.readouterr().out
                ok &= cli_main(argv) == 0
                ok &= capsys.readouterr().out == first  # byte-stable
                json.loads(first)
        code = cli_main(["verify", gpath, "--theorem", "C5", "--format", "json"])
        rep = json.loads(capsys.readouterr().out)
        ok &= code == (0 if rep["ok"] else 1)
    # documented exit codes: input errors are 2
    ok &= cli_main(["ledger", str(corpus / "missing.graph"),
                    "--mode", "triangular"]) == 2
    ok &= cli_main(["verify", str(corpus / "c4.graph"),
                    "--theorem", "nope"]) == 2
    capsys.readouterr()
    # a failed hypothesis is a negative verdict, exit code 1
    ok &= cli_main(["verify", str(corpus / "cube.graph"),
                    "--theorem", "BI_C8"]) == 1
    capsys.readouterr()
    criterion(
        9,
        "CLI round-trips the fixture corpus with byte-stable JSON and "
        "documented exit codes",
        ok,
    )
