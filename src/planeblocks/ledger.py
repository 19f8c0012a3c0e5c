"""Exact-rational contribution accounting for block decompositions.

Every quantity is a `fractions.Fraction`; the five conservation identities
(vertex, edge, face, degree-2, and (2,3)-edge totals) are asserted exactly on
every ledger build, so any slot-accounting bug surfaces immediately as a
ConservationViolation rather than a slightly-off bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .blocks import Block, BlockDecomposition, Mode, Pseudoface, decompose, refine_pseudofaces
from .errors import ConservationViolation, MissingPseudoface, WrongMode
from .plane import Edge, PlaneGraph

PseudofaceMap = dict[int, Pseudoface]


@dataclass(frozen=True)
class BlockContribution:
    block_id: int
    v: Fraction
    e: int
    f: Fraction
    k: Fraction
    e23: int


@dataclass
class ContributionLedger:
    mode: Mode
    decomposition: BlockDecomposition
    pseudofaces: Optional[PseudofaceMap]
    entries: tuple[BlockContribution, ...]
    totals: tuple[Fraction, int, Fraction, Fraction, int]  # (v, e, f, k, e23)


def vertex_contribution(b: Block, d: BlockDecomposition) -> Fraction:
    """Sum over the block's vertices of 1 / (number of blocks containing it)."""
    total = Fraction(0)
    for v in b.vertices:
        total += Fraction(1, d.vertex_block_count[v])
    return total


def slot_table(
    d: BlockDecomposition, pf: Optional[PseudofaceMap] = None
) -> dict[int, dict[int, Fraction]]:
    """face id -> (block id -> slot share) for all non-interior faces."""
    if d.mode == "triangular" and pf is None:
        raise MissingPseudoface(
            "triangular face contributions need the pseudoface map"
        )
    g = d.graph
    out: dict[int, dict[int, Fraction]] = {}
    for face in g.faces:
        if face.id in d.interior_face_block:
            continue
        if pf is not None:
            entries: tuple[Edge, ...] = pf[face.id].edges
        else:
            entries = face.edges()
        unit = Fraction(1, len(entries))
        shares: dict[int, Fraction] = {}
        for e in entries:
            bid = d.edge_to_block[e]
            shares[bid] = shares.get(bid, Fraction(0)) + unit
        out[face.id] = shares
    return out


def aux_contributions(
    b: Block, g: PlaneGraph, d: BlockDecomposition
) -> tuple[Fraction, int]:
    """(k(B), e23(B)): degree-2 share and count of {2,3}-degree edges.

    Degrees are taken in G, not within the block.
    """
    if d.mode != "quadrangular":
        raise WrongMode("k(B) and e23(B) are defined for quadrangular blocks")
    k = Fraction(0)
    for v in b.vertices:
        if g.degree(v) == 2:
            k += Fraction(1, d.vertex_block_count[v])
    e23 = sum(
        1 for u, v in b.edges if {g.degree(u), g.degree(v)} == {2, 3}
    )
    return k, e23


def build_ledger(g: PlaneGraph, mode: Mode) -> ContributionLedger:
    """Decompose, compute all contributions, and assert conservation."""
    d = decompose(g, mode)
    pf = refine_pseudofaces(d) if mode == "triangular" else None
    shares = slot_table(d, pf)
    per_block_face: dict[int, Fraction] = {}
    for face_shares in shares.values():
        for bid, val in face_shares.items():
            per_block_face[bid] = per_block_face.get(bid, Fraction(0)) + val

    entries = []
    for b in d.blocks:
        f = Fraction(len(b.interior_faces)) + per_block_face.get(
            b.id, Fraction(0)
        )
        if mode == "quadrangular":
            k, e23 = aux_contributions(b, g, d)
        else:
            k, e23 = Fraction(0), 0
        entries.append(
            BlockContribution(
                block_id=b.id,
                v=vertex_contribution(b, d),
                e=len(b.edges),
                f=f,
                k=k,
                e23=e23,
            )
        )

    tv = sum((c.v for c in entries), Fraction(0))
    te = sum(c.e for c in entries)
    tf = sum((c.f for c in entries), Fraction(0))
    tk = sum((c.k for c in entries), Fraction(0))
    te23 = sum(c.e23 for c in entries)

    _check(tv, Fraction(g.n), "vertex", g)
    _check(Fraction(te), Fraction(g.e), "edge", g)
    _check(tf, Fraction(g.f), "face", g)
    if mode == "quadrangular":
        deg2 = sum(1 for v in range(g.n) if g.degree(v) == 2)
        e23_g = sum(
            1
            for u, v in g.edges
            if {g.degree(u), g.degree(v)} == {2, 3}
        )
        _check(tk, Fraction(deg2), "degree-2", g)
        _check(Fraction(te23), Fraction(e23_g), "(2,3)-edge", g)

    return ContributionLedger(
        mode=mode,
        decomposition=d,
        pseudofaces=pf,
        entries=tuple(entries),
        totals=(tv, te, tf, tk, te23),
    )


def _check(got: Fraction, want: Fraction, label: str, g: PlaneGraph) -> None:
    if got != want:
        raise ConservationViolation(
            f"{label} total {got} != graph total {want} on {g!r}"
        )
