"""Verification profiles: per-block inequalities and global edge bounds.

Each profile bundles a decomposition mode, a hypothesis set, a block
catalog, and a coefficient row (a, b, c, dk, de23) for the linear form

    L(B) = a*v(B) + b*e(B) + c*f(B) + dk*k(B) + de23*e23(B).

Summing L(B) <= 0 over all blocks and substituting Euler's formula
f = 2 - n + e turns the row into a global bound e <= A*n + Bk*k + Be23*e23 + C.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .blocks import QUADRANGULAR_KINDS, TRIANGULAR_KINDS, BlockKind, Mode
from .errors import ConservationViolation, DegenerateProfile, UnexpectedBlock, UnknownProfile
from .ledger import ContributionLedger, build_ledger
from .plane import Edge, PlaneGraph, insert_chord
# contains_cycle_of_length is not called here; it stays importable from this
# module, where bench/tracer.py looks it up
from .structure import (  # noqa: F401
    Check, Hypotheses, StructuralStats, contains_cycle_of_length, structural_stats,
)

Coefficients = tuple[int, int, int, int, int]  # weights of (v, e, f, k, e23)


@dataclass(frozen=True)
class TheoremProfile:
    id: str
    mode: Mode
    coefficients: Coefficients
    catalog: tuple[BlockKind, ...]
    hypotheses: Hypotheses
    floor_n: Optional[int] = None  # bound asserted by the source for n >= floor
    integer_floor: bool = False  # round the bound down to an integer
    saturate: bool = False  # pre-saturate 6-faces before decomposing


PROFILES: dict[str, TheoremProfile] = {
    p.id: p
    for p in (
        TheoremProfile(
            id="C5",
            mode="triangular",
            coefficients=(9, -23, 33, 0, 0),
            catalog=TRIANGULAR_KINDS,
            hypotheses=Hypotheses(
                forbidden_cycles=(5,), min_degree=3, two_connected=True
            ),
            floor_n=11,
        ),
        TheoremProfile(
            id="BI_C6",
            mode="quadrangular",
            coefficients=(2, -4, 8, -2, -1),
            catalog=(BlockKind.K2, BlockKind.C4, BlockKind.K23),
            hypotheses=Hypotheses(
                forbidden_cycles=(6,),
                bipartite=True,
                exact_min_degree=2,
                deg2_neighbor_ok=True,
            ),
            floor_n=6,
        ),
        TheoremProfile(
            id="BI_C8",
            mode="quadrangular",
            coefficients=(0, -2, 5, 0, 0),
            catalog=QUADRANGULAR_KINDS,
            hypotheses=Hypotheses(
                forbidden_cycles=(8,), bipartite=True, min_degree=3
            ),
        ),
        TheoremProfile(
            id="BI_C8C10",
            mode="quadrangular",
            coefficients=(24, -31, 42, 0, 0),
            catalog=QUADRANGULAR_KINDS,
            hypotheses=Hypotheses(
                forbidden_cycles=(8, 10), bipartite=True, min_degree=3
            ),
            saturate=True,
        ),
        TheoremProfile(
            id="TRI_C6",
            mode="quadrangular",
            coefficients=(1, -5, 10, 0, 0),
            catalog=(BlockKind.K2, BlockKind.C4),
            hypotheses=Hypotheses(forbidden_cycles=(3, 6), min_degree=3),
            integer_floor=True,
        ),
        TheoremProfile(
            id="TRI_C8",
            mode="quadrangular",
            coefficients=(24, -61, 105, 0, 0),
            catalog=QUADRANGULAR_KINDS,
            hypotheses=Hypotheses(forbidden_cycles=(3, 8), min_degree=3),
        ),
    )
}


def get_profile(profile_id: str) -> TheoremProfile:
    try:
        return PROFILES[profile_id]
    except KeyError:
        raise UnknownProfile(
            f"unknown profile {profile_id!r}; choose from {sorted(PROFILES)}"
        ) from None


# -- hypothesis checks -------------------------------------------------------

@dataclass(frozen=True)
class HypothesisReport:
    checks: tuple[Check, ...]
    warnings: tuple[str, ...]
    stats: StructuralStats

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def check_hypotheses(g: PlaneGraph, p: TheoremProfile) -> HypothesisReport:
    """Evaluate every hypothesis predicate of the profile; never raises.

    This is the one place a verify computes the graph's structural stats;
    the report carries them to every later step.
    """
    stats = structural_stats(g.rotations)
    warnings: list[str] = []
    exact = p.hypotheses.exact_min_degree
    if exact is not None and stats.min_degree > exact:
        warnings.append(
            "no planar bipartite C6-free graph with min degree >= 3 "
            "exists, so this input cannot satisfy the other hypotheses"
        )
    if p.floor_n is not None and g.n < p.floor_n:
        warnings.append(
            f"n = {g.n} is below the theorem floor n >= {p.floor_n}; "
            "the global bound is not asserted at this size"
        )
    return HypothesisReport(
        checks=p.hypotheses.checks(g.rotations, stats),
        warnings=tuple(warnings),
        stats=stats,
    )


# -- per-block verification --------------------------------------------------

@dataclass(frozen=True)
class BoundCheck:
    formula: "BoundFormula"
    bound: Fraction
    edges: int
    slack: Fraction
    ok: bool
    asserted: bool = True  # False below the theorem's n floor

    @property
    def tight(self) -> bool:
        return self.slack == 0

    @property
    def passes(self) -> bool:
        """The bound counts only where asserted: it passes when it holds
        or when the source does not assert it at this n."""
        return self.ok or not self.asserted


@dataclass(frozen=True)
class Verdict:
    profile_id: str
    hypotheses: HypothesisReport
    forced: bool = False
    ledger: Optional[ContributionLedger] = None
    values: tuple[int, ...] = ()  # L(B) numerators over ledger.den, by block id
    violations: tuple[int, ...] = ()  # ids of the blocks with L(B) > 0
    total: Optional[Fraction] = None
    warnings: tuple[str, ...] = ()
    chords_added: tuple[tuple[int, int], ...] = ()
    bound: Optional[BoundCheck] = None

    @property
    def ok(self) -> bool:
        """Hypotheses hold, no block has L(B) > 0 and the bound passes;
        forcing a run never makes it pass."""
        return (
            self.hypotheses.ok and not self.violations
            and (self.bound is None or self.bound.passes)
        )


def evaluate_row(coeffs: Coefficients, v, e, f, k, e23):
    """L for the given quantities: an int for ints, a Fraction for Fractions."""
    a, b, c, dk, de23 = coeffs
    return a * v + b * e + c * f + dk * k + de23 * e23


def verify_per_block(
    g: PlaneGraph, p: TheoremProfile, hyp: HypothesisReport
) -> Verdict:
    """Evaluate L(B) for every block; list violations (L(B) > 0).

    ``hyp`` is g's report from check_hypotheses.  With failing hypotheses,
    blocks outside the profile catalog are tolerated.  On a
    hypothesis-satisfying graph an out-of-catalog block is an internal error
    (the source proves the catalogs exhaustive) and raises UnexpectedBlock.
    """
    warnings = list(hyp.warnings)
    work, chords = saturate_six_faces(g) if p.saturate and hyp.ok else (g, ())
    if chords:
        warnings.append(f"added {len(chords)} chord(s) to saturate 6-faces")

    led = build_ledger(work, p.mode)
    den = led.den
    d = led.decomposition
    for bid, kind in enumerate(d.kinds):
        if kind not in p.catalog:
            if hyp.ok:
                raise UnexpectedBlock(
                    f"block {bid} of kind {kind.value} outside the "
                    f"{p.id} catalog on a hypothesis-satisfying graph"
                )
            warnings.append(
                f"block {bid} has kind {kind.value}, outside the "
                f"{p.id} catalog (hypotheses not satisfied)"
            )
    # den * L(B), with every quantity as a numerator over den
    values = [
        evaluate_row(p.coefficients, vnum, len(ids) * den, fnum, knum, e23 * den)
        for ids, vnum, fnum, knum, e23 in zip(d.eids, led.vnum, led.fnum, led.knum, led.e23)
    ]
    violations = [bid for bid, num in enumerate(values) if num > 0]
    # one block holds every edge: below the floor its L(B) > 0 is no violation
    if violations and len(values) == 1 and p.floor_n is not None and work.n < p.floor_n:
        warnings.append(
            f"block 0 spans the whole graph below the "
            f"theorem floor (n = {work.n} < {p.floor_n}); "
            f"L(B) = {Fraction(values[0], den)} not counted as a violation"
        )
        violations = []

    # the ledger asserted its totals against the graph's own quantities, so
    # a sum of block values that disagrees with them is a bug in this sum
    total = sum(values)
    expect = evaluate_row(p.coefficients, *led.totals)
    if total != expect * den:
        raise ConservationViolation(
            f"sum of block values {Fraction(total, den)} != graph total {expect}"
        )

    return Verdict(
        profile_id=p.id,
        hypotheses=hyp,
        ledger=led,
        values=tuple(values),
        violations=tuple(violations),
        total=Fraction(total, den),
        warnings=tuple(warnings),
        chords_added=chords,
    )


# -- global bound ------------------------------------------------------------

@dataclass(frozen=True)
class BoundFormula:
    """e <= a*n + b_k*k + b_e23*e23 + c (optionally floored to an integer)."""

    a: Fraction
    b_k: Fraction
    b_e23: Fraction
    c: Fraction
    integer_floor: bool = False

    def evaluate(self, n: int, k: int = 0, e23: int = 0) -> Fraction:
        value = self.a * n + self.b_k * k + self.b_e23 * e23 + self.c
        if self.integer_floor:
            value = Fraction(value.numerator // value.denominator)
        return value

    def __str__(self) -> str:
        def term(coef: Fraction, sym: str) -> str:
            if coef == 0:
                return ""
            sign = " + " if coef > 0 else " - "
            mag = abs(coef)
            body = sym if mag == 1 else f"{mag}*{sym}"
            return sign + body

        parts = f"{self.a}*n"
        parts += term(self.b_k, "k") + term(self.b_e23, "e23")
        if self.c != 0:
            parts += f" - {-self.c}" if self.c < 0 else f" + {self.c}"
        if self.integer_floor:
            return f"e <= floor({parts})"
        return f"e <= {parts}"


def derive_global_bound(p: TheoremProfile) -> BoundFormula:
    """Substitute f = 2 - n + e into the coefficient row and solve for e.

    a*n + b*e + c*(2 - n + e) + dk*k + de23*e23 <= 0 rearranges to
    e <= ((c - a)*n - 2c - dk*k - de23*e23) / (b + c), valid when b + c > 0.
    """
    a, b, c, dk, de23 = p.coefficients
    denom = b + c
    if denom <= 0:
        raise DegenerateProfile(
            f"profile {p.id}: b + c = {denom} does not allow solving for e"
        )
    return BoundFormula(
        a=Fraction(c - a, denom),
        b_k=Fraction(-dk, denom),
        b_e23=Fraction(-de23, denom),
        c=Fraction(-2 * c, denom),
        integer_floor=p.integer_floor,
    )


def check_bound(
    g: PlaneGraph, p: TheoremProfile, stats: StructuralStats
) -> BoundCheck:
    """Compare e_G against the profile's derived bound, exactly.

    Reads only k and e23 from ``stats``, g's structural stats.
    """
    formula = derive_global_bound(p)
    bound = formula.evaluate(g.n, k=stats.k, e23=stats.e23)
    slack = bound - g.e
    return BoundCheck(
        formula=formula,
        bound=bound,
        edges=g.e,
        slack=slack,
        ok=slack >= 0,
        asserted=p.floor_n is None or g.n >= p.floor_n,
    )


def verify(g: PlaneGraph, p: TheoremProfile, force: bool = False) -> Verdict:
    """Hypotheses, per-block inequalities and the global bound in one verdict.

    With failing hypotheses the blocks and the bound are evaluated only when
    forced, and the verdict is negative either way.
    """
    hyp = check_hypotheses(g, p)
    if not (hyp.ok or force):
        return Verdict(profile_id=p.id, hypotheses=hyp)
    verdict = verify_per_block(g, p, hyp)
    return replace(verdict, forced=force, bound=check_bound(g, p, hyp.stats))


# -- hexagon saturation ------------------------------------------------------

def saturate_six_faces(g: PlaneGraph) -> tuple[PlaneGraph, tuple[Edge, ...]]:
    """Chord every face of g whose walk is a 6-cycle, in one pass; returns
    the saturated graph and its chords (u, v), u < v, in the order added.

    Faces are taken in g's face order, each as its edge-id walk in
    ``g.face_eids``: a walk of six distinct edges gives the vertex cycle
    whose i-th vertex, the tail of the walk's dart i, is the one end edge i
    shares with edge i - 1, counted from the face's smallest dart.  Each
    chord joins the first pair of opposite vertices not already joined, and
    splits the face into two 4-faces; that choice keeps the graph bipartite.
    A chord changes only the walk of its own face, so the other 6-faces of g
    stay faces and one PlaneGraph is built at the end (g itself when no face
    takes a chord).

    g must satisfy the BI_C8C10 hypotheses: bipartite, C8-free, C10-free
    with min degree >= 3; the caller checks them.  The source proves the
    chords cannot break them; as they survive deleting edges, they are
    asserted once, on the result, and a failure there is an implementation
    bug.
    """
    edges = g.edge_list
    rotations = list(g.rotations)  # gains each chord in turn
    chords: list[Edge] = []
    for walk in g.face_eids:
        if len(walk) != 6 or len(set(walk)) != 6:
            continue
        ends = [edges[i] for i in walk]
        cycle = [a if a in prev else b for prev, (a, b) in zip(ends[-1:] + ends[:-1], ends)]
        if len(set(cycle)) != 6:
            continue
        for shift in range(3):
            v0, v3 = cycle[shift], cycle[shift + 3]
            if v3 not in rotations[v0]:
                break
        else:
            raise AssertionError(f"6-face {cycle} has all three opposite pairs already joined")
        insert_chord(rotations, cycle, v0, v3)
        chords.append((min(v0, v3), max(v0, v3)))
    if not chords:
        return g, ()
    g = PlaneGraph(rotations, g.outer_dart)
    # chords only raise degrees, so min degree is the one that cannot break
    breakable = replace(PROFILES["BI_C8C10"].hypotheses, min_degree=0)
    assert breakable.holds(
        g.rotations, structural_stats(g.rotations)
    ), "a saturation chord broke a BI_C8C10 hypothesis"
    return g, tuple(chords)
