"""The benchmark's workloads: seeded inputs, one op, and an independent check.

An op is one unit of work, timed on its own.  Each workload's inputs are a
list cycled in whole rounds, so every input is timed equally often.  The
program receives only the edge lists or graph-file text the generators build;
the checks recompute what they compare against from those same inputs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

import jsonschema

from planeblocks import graphio, ledger, search, theorems

import generators as gen

SCHEMA = Path(graphio.__file__).parent / "schemas" / "report-v1.json"


def degree_stats(n: int, edges: list[tuple[int, int]]) -> tuple[int, int]:
    """(k, e23): degree-2 vertices and edges joining degrees 2 and 3."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg.count(2), sum(1 for u, v in edges if {deg[u], deg[v]} == {2, 3})


# -- small-corpus ---------------------------------------------------------------

@dataclass(frozen=True)
class SmallGraph:
    n: int
    edges: tuple[tuple[int, int], ...]
    k: int
    e23: int


class SmallCorpus:
    """Embed one small planar graph and build its ledger in both modes."""

    name = "small-corpus"
    POOL = 400

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.inputs: list[SmallGraph] = []
        for _ in range(self.POOL):
            n, edges = gen.small_planar_edges(rng)
            self.inputs.append(SmallGraph(n, tuple(edges), *degree_stats(n, edges)))
        self.warm_inputs = self.inputs[:20]

    def op(self, x: SmallGraph) -> Any:
        g = search.planar_embed(x.n, x.edges)
        return g, ledger.build_ledger(g, "triangular"), ledger.build_ledger(g, "quadrangular")

    def check(self, x: SmallGraph, out: Any) -> None:
        g, tri, quad = out
        if g is None or g.n != x.n or g.edges != frozenset(x.edges):
            raise AssertionError(f"planar_embed changed the graph {x}")
        e = len(x.edges)
        f = 2 - x.n + e
        want = {"triangular": (x.n, e, f, 0, 0), "quadrangular": (x.n, e, f, x.k, x.e23)}
        for led in (tri, quad):
            if tuple(led.totals) != want[led.mode]:
                raise AssertionError(f"{led.mode} totals {led.totals} != {want[led.mode]}")


# -- large-verify -------------------------------------------------------------

# the README's derived bounds, written out independently of theorems
README_BOUNDS = {
    "C5": lambda n: Fraction(12, 5) * n - Fraction(33, 5),
    "BI_C8": lambda n: Fraction(5, 3) * n - Fraction(10, 3),
    "TRI_C6": lambda n: Fraction(math.floor(Fraction(9, 5) * n - 4)),
}


@dataclass
class LargeGraph:
    label: str
    profile: str
    text: str
    n: int
    e: int
    k: int
    e23: int
    checked: bytes | None = None  # the report once it has passed the full check


def _large(label: str, profile: str, rot: list[list[int]]) -> LargeGraph:
    edges = gen.edges_of(rot)
    return LargeGraph(label, profile, gen.graph_text(rot), len(rot), len(edges), *degree_stats(len(rot), edges))


class LargeVerify:
    """Parse, forced verify, verdict report and JSON, on a few large graphs."""

    name = "large-verify"

    def __init__(self, seed: int):
        rng = random.Random(seed)

        def tri(n: int, keep: float) -> list[list[int]]:
            return gen.relabel(gen.thin(gen.stacked_triangulation(n, rng), keep, rng), rng)

        # The median op is tri1500's, whose cost sits well apart from the
        # inputs below and above it, so op_ms_p50 does not flip between them.
        self.inputs = [
            _large("tri1000", "C5", tri(1000, 0.7)),
            _large("tri3000", "C5", tri(3000, 0.7)),
            _large("tri2000", "TRI_C6", tri(2000, 0.5)),
            _large("tri1500", "TRI_C6", tri(1500, 0.3)),
            _large("hex27x26", "BI_C8", gen.relabel(gen.brick_wall(27, 26), rng)),
        ]
        self.warm_inputs = self.inputs[:1]
        self.validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))

    def op(self, x: LargeGraph) -> bytes:
        g = graphio.parse_graph(x.text)
        verdict = theorems.verify(g, theorems.PROFILES[x.profile], force=True)
        return graphio.write_report(graphio.verdict_report(g, verdict), "json")

    def check(self, x: LargeGraph, out: bytes) -> None:
        # reports are byte-stable, so after one full check a byte compare suffices
        if x.checked is not None:
            if out != x.checked:
                raise AssertionError(f"{x.label}: report differs from the checked one")
            return
        rep = json.loads(out)
        self.validator.validate(rep)
        got = tuple(rep["graph"][key] for key in ("n", "e", "k", "e23"))
        if got != (x.n, x.e, x.k, x.e23):
            raise AssertionError(f"{x.label}: graph summary {got} != {(x.n, x.e, x.k, x.e23)}")
        slack = README_BOUNDS[x.profile](x.n) - x.e
        if Fraction(rep["bound"]["slack"]) != slack:
            raise AssertionError(f"{x.label}: slack {rep['bound']['slack']} != {slack}")
        x.checked = out


# -- enumerate ----------------------------------------------------------------

@dataclass(frozen=True)
class Enumeration:
    label: str
    constraints: search.ConstraintSet
    classes: int  # expected class count


class Enumerate:
    """Run search.enumerate_graphs over one constraint set to the end.

    The search is exhaustive, so the inputs do not depend on the seed.
    """

    name = "enumerate"
    # The sets cost about 1 : 0.5 : 0.25, so the median op is the middle set's
    # and stays clear of its neighbours when the machine's speed drifts.
    SETS = (
        # n = 7 with no constraints: 646 classes (OEIS A003094)
        Enumeration("n7", search.ConstraintSet(n=7), 646),
        # the two constrained counts are pinned from the program's own output
        Enumeration(
            "n8-c4free-2connected", search.ConstraintSet(n=8, forbidden_cycles=(4,), two_connected=True), 19
        ),
        Enumeration("n8-bipartite-c6free", search.ConstraintSet(n=8, bipartite=True, forbidden_cycles=(6,)), 87),
    )

    def __init__(self, seed: int):
        self.inputs = list(self.SETS)
        self.warm_inputs = self.inputs[2:]

    def op(self, x: Enumeration) -> tuple[int, search.SearchStats]:
        stats = search.SearchStats()
        count = sum(1 for _ in search.enumerate_graphs(x.constraints, stats=stats))
        return count, stats

    def check(self, x: Enumeration, out: tuple[int, search.SearchStats]) -> None:
        count, stats = out
        if count != x.classes or stats.emitted != x.classes:
            raise AssertionError(f"{x.label}: {count} classes, want {x.classes}")


WORKLOADS = {w.name: w for w in (SmallCorpus, LargeVerify, Enumerate)}
