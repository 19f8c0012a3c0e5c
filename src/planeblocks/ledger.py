"""Exact-rational contribution accounting for block decompositions.

Shares are summed as integer numerators over one common denominator per
ledger: vertex and degree-2 shares over the lcm of the vertices' block
counts, face shares over the lcm of the (pseudo)face lengths.  Each block's
v, f and k then become one `fractions.Fraction` apiece.  The five
conservation identities (vertex, edge, face, degree-2, and (2,3)-edge
totals) are asserted exactly, as rationals, on every ledger build, so any
slot-accounting bug surfaces immediately as a ConservationViolation rather
than a slightly-off bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .blocks import BlockDecomposition, Mode, Pseudoface, decompose, refine_pseudofaces
from .errors import ConservationViolation, MissingPseudoface
from .plane import PlaneGraph
from .structure import count_23_edges, degree_classes

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
    vden: int  # every v and k is a multiple of 1/vden
    fden: int  # every f is a multiple of 1/fden


def slot_table(
    d: BlockDecomposition, pf: Optional[PseudofaceMap] = None
) -> tuple[int, dict[int, dict[int, int]]]:
    """Slot shares of all non-interior faces, over one common denominator.

    Returns (D, face id -> (block id -> numerator)): a face whose (pseudo)face
    boundary has L entries gives each entry the share 1/L = (D/L)/D, and D is
    the lcm of those lengths.
    """
    if d.mode == "triangular" and pf is None:
        raise MissingPseudoface(
            "triangular face contributions need the pseudoface map"
        )
    boundaries = {
        face.id: (pf[face.id] if pf is not None else face).edges
        for face in d.graph.faces
        if face.id not in d.interior_face_block
    }
    denom = lcm(*{len(entries) for entries in boundaries.values()})
    edge_to_block = d.edge_to_block
    out: dict[int, dict[int, int]] = {}
    for fid, entries in boundaries.items():
        unit = denom // len(entries)
        shares: dict[int, int] = {}
        for e in entries:
            bid = edge_to_block[e]
            shares[bid] = shares.get(bid, 0) + unit
        out[fid] = shares
    return denom, out


def build_ledger(g: PlaneGraph, mode: Mode) -> ContributionLedger:
    """Decompose, compute all contributions, and assert conservation."""
    d = decompose(g, mode)
    pf = refine_pseudofaces(d) if mode == "triangular" else None
    fden, faces = slot_table(d, pf)
    fnum = [len(b.interior_faces) * fden for b in d.blocks]
    for shares in faces.values():
        for bid, num in shares.items():
            fnum[bid] += num

    # 1 / (blocks containing v) = vshare[v] / vden
    counts = d.vertex_block_count
    vden = lcm(*counts.values())
    vshare = {v: vden // c for v, c in counts.items()}
    quad = mode == "quadrangular"
    dclass = degree_classes(g.rotations)  # degrees in G, not within a block
    zero = Fraction(0)

    entries = []
    vtotal = ktotal = 0
    for b in d.blocks:
        vnum = sum([vshare[v] for v in b.vertices])
        vtotal += vnum
        if quad:
            knum = sum([vshare[v] for v in b.vertices if dclass[v] == 1])
            ktotal += knum
            k = Fraction(knum, vden)
            e23 = count_23_edges(dclass, b.edges)
        else:
            k, e23 = zero, 0
        entries.append(
            BlockContribution(
                block_id=b.id,
                v=Fraction(vnum, vden),
                e=len(b.edges),
                f=Fraction(fnum[b.id], fden),
                k=k,
                e23=e23,
            )
        )

    tv = Fraction(vtotal, vden)
    te = sum(c.e for c in entries)
    tf = Fraction(sum(fnum), fden)
    tk = Fraction(ktotal, vden)
    te23 = sum(c.e23 for c in entries)

    _check(tv, Fraction(g.n), "vertex", g)
    _check(Fraction(te), Fraction(g.e), "edge", g)
    _check(tf, Fraction(g.f), "face", g)
    if quad:
        deg2 = dclass.count(1)
        e23_g = count_23_edges(dclass, g.edges)
        _check(tk, Fraction(deg2), "degree-2", g)
        _check(Fraction(te23), Fraction(e23_g), "(2,3)-edge", g)

    return ContributionLedger(
        mode=mode,
        decomposition=d,
        pseudofaces=pf,
        entries=tuple(entries),
        totals=(tv, te, tf, tk, te23),
        vden=vden,
        fden=fden,
    )


def _check(got: Fraction, want: Fraction, label: str, g: PlaneGraph) -> None:
    if got != want:
        raise ConservationViolation(
            f"{label} total {got} != graph total {want} on {g!r}"
        )
