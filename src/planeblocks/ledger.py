"""Exact-rational contribution accounting for block decompositions.

Shares are kept as integer numerators over one common denominator per
ledger (``den``), the lcm of the vertices' block counts and the
(pseudo)face lengths; no `fractions.Fraction` is built per block.  The five
conservation identities (vertex, edge, face, degree-2, and (2,3)-edge
totals) are asserted exactly, on the numerators, on every ledger build, so
any slot-accounting bug surfaces immediately as a ConservationViolation
rather than a slightly-off bound.  Faces are read as edge-id walks and one
owner column (``face_eids``, ``face_block``); the pseudoface map holds only
the faces the K4 rule rewrites or flags degenerate, so it is empty in
quadrangular mode, and both modes take the same path through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .blocks import BlockDecomposition, Mode, Pseudoface, decompose, refine_pseudofaces
from .errors import ConservationViolation
from .plane import PlaneGraph
from .structure import degree_classes


@dataclass
class ContributionLedger:
    """One row per block, as columns indexed by block id: v(B) = vnum[B]/den,
    f(B) = fnum[B]/den, k(B) = knum[B]/den and e23(B) = e23[B]; e(B) is
    the length of the block's edge-id column, ``len(decomposition.eids[B])``."""

    mode: Mode
    decomposition: BlockDecomposition
    pseudofaces: dict[int, Pseudoface]  # rewritten or degenerate faces only
    vnum: list[int]
    fnum: list[int]
    knum: list[int]
    e23: list[int]
    totals: tuple[int, int, int, int, int]  # (v, e, f, k, e23), conserved
    den: int  # every v, f and k is a multiple of 1/den


def slot_table(d: BlockDecomposition, pf: dict[int, Pseudoface]) -> tuple[int, list[int]]:
    """Each block's share of the non-interior faces, over one common
    denominator.

    Returns (D, shares): a face whose (pseudo)face boundary has L entries
    gives each entry's block the share 1/L = (D/L)/D, D is the lcm of those
    lengths, and shares[bid] is the numerator of block bid's summed shares.
    The faces are those ``d.face_block`` maps to -1; each one's boundary is
    its pseudoface where ``pf``, the map from `refine_pseudofaces`, has one,
    else its walk in ``face_eids``.
    """
    face_block = d.face_block
    boundaries = [
        pf[fid].eids if fid in pf else eids
        for fid, eids in enumerate(d.graph.face_eids)
        if face_block[fid] < 0
    ]
    edge_block = d.edge_block
    denom = lcm(*{len(eids) for eids in boundaries})
    shares = [0] * len(d.eids)
    for eids in boundaries:
        unit = denom // len(eids)
        for i in eids:
            shares[edge_block[i]] += unit
    return denom, shares


def build_ledger(g: PlaneGraph, mode: Mode) -> ContributionLedger:
    """Decompose, compute all contributions, and assert conservation."""
    d = decompose(g, mode)
    pf = refine_pseudofaces(d)
    slot_den, shares = slot_table(d, pf)
    counts = d.vertex_block_count
    den = lcm(slot_den, *counts)
    scale = den // slot_den
    fnum = [c * den + s * scale for c, s in zip(d.interior_counts, shares)]

    # 1 / (blocks containing v) = vshare[v] / den
    vshare = [den // c for c in counts]
    vnum = [sum(map(vshare.__getitem__, vs)) for vs in d.vertices]
    quad = mode == "quadrangular"
    if quad:
        dclass = degree_classes(g.rotations)  # degrees in G, not within a block
        # is23[i]: edge i joins a degree-2 and a degree-3 vertex
        is23 = bytes([dclass[u] + dclass[v] == 3 for u, v in g.edge_list])
        knum = [sum([vshare[v] for v in vs if dclass[v] == 1]) for vs in d.vertices]
        e23 = [sum(map(is23.__getitem__, ids)) for ids in d.eids]
    else:
        knum = [0] * len(d.eids)
        e23 = [0] * len(d.eids)

    # numerators over den (v, f, k) or 1 (e, e23)
    _check(sum(vnum), den, g.n, "vertex", g)
    _check(sum(map(len, d.eids)), 1, g.e, "edge", g)
    _check(sum(fnum), den, g.f, "face", g)
    deg2 = e23_g = 0
    if quad:
        deg2 = dclass.count(1)
        e23_g = sum(is23)
        _check(sum(knum), den, deg2, "degree-2", g)
        _check(sum(e23), 1, e23_g, "(2,3)-edge", g)

    return ContributionLedger(
        mode=mode,
        decomposition=d,
        pseudofaces=pf,
        vnum=vnum,
        fnum=fnum,
        knum=knum,
        e23=e23,
        totals=(g.n, g.e, g.f, deg2, e23_g),
        den=den,
    )


def _check(num: int, den: int, want: int, label: str, g: PlaneGraph) -> None:
    if num != want * den:
        raise ConservationViolation(
            f"{label} total {Fraction(num, den)} != graph total {want} on {g!r}"
        )
