"""Graph file parsing/serialization and verification reports.

File format (one graph per file, `#` starts a comment):

    planegraph 1
    n 4
    0: 1 3
    1: 2 0
    2: 3 1
    3: 0 2
    outer: 0->1

Vertex lines list counterclockwise neighbors; the outer line names a dart
of the face a drawing puts outside, and no result depends on it.  Reports
serialize to stable JSON (sorted keys, no timing data) or a human-readable
text table; rationals are rendered as canonical "p/q" strings, never floats.
A report's ``blocks`` and ``block_values`` are `Rows`: read-only sequences
over the decomposition, the ledger columns and the L(B) numerators, which
`write_report` writes as JSON straight from those columns.  Indexing or
iterating them builds plain dicts; ``list(rows)``, or
``json.loads(write_report(report))`` for a whole report, gives plain lists.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Any, Optional

from .blocks import BlockDecomposition, BlockKind
from .errors import GraphSyntaxError, MissingOuterDart
from .ledger import ContributionLedger
from .plane import PlaneGraph
from .search import SearchResult
from .structure import StructuralStats, structural_stats
from .theorems import Verdict

FORMAT_HEADER = "planegraph"
FORMAT_VERSION = 1
REPORT_SCHEMA = "planeblocks-report-v1"
Columns = tuple[tuple[str, Sequence[int]], ...]  # (key, column indexed by block id) pairs


def format_fraction(num: int | Fraction, den: int = 1) -> str:
    """num / den (den > 0) in lowest terms, as "p/q", or "p" when whole."""
    if type(num) is not int:
        num, den = num.numerator, num.denominator * den
    g = gcd(num, den)
    if g == den:
        return str(num // den)
    return f"{num // g}/{den // g}"


# -- graph files -------------------------------------------------------------

def integer(text: str) -> int:
    """``text`` as an int if it is ASCII digits with an optional leading
    "-", else ValueError; int() would also take "+3", "1_0", spaces and
    non-ASCII digits."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def integers(text: str) -> list[int]:
    """``[integer(t) for t in text.split()]`` with one check for all of
    ``text``: on ASCII tokens with no "+" or "_", int() takes just that rule."""
    if not text.isascii():
        text = " ".join(text.split())  # Unicode whitespace separates too
    if not text.isascii() or "+" in text or "_" in text:
        raise ValueError(f"invalid integers {text!r}")
    return list(map(int, text.split()))


def parse_graph(text: str) -> PlaneGraph:
    """Parse a graph file; raises GraphSyntaxError with a 1-based line number."""
    header_seen = False
    n: Optional[int] = None
    n_lineno = 0
    rotations: dict[int, list[int]] = {}
    outer: Optional[tuple[int, int]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            parts = line.split()
            if parts[0] != FORMAT_HEADER:
                raise GraphSyntaxError(
                    lineno, f"expected '{FORMAT_HEADER} <version>' header"
                )
            if len(parts) != 2 or parts[1] != str(FORMAT_VERSION):
                raise GraphSyntaxError(
                    lineno, f"unsupported format version {parts[1:]}"
                )
            header_seen = True
            continue
        if line.startswith("n "):
            if n is not None:
                raise GraphSyntaxError(
                    lineno, f"second 'n' line (first on line {n_lineno})"
                )
            n_lineno = lineno
            parts = line.split()
            if len(parts) != 2:
                raise GraphSyntaxError(lineno, "'n' line must be 'n <count>'")
            try:
                n = integer(parts[1])
            except ValueError:
                raise GraphSyntaxError(lineno, "bad vertex count") from None
            continue
        if line.startswith("outer:"):
            if outer is not None:
                raise GraphSyntaxError(lineno, "second 'outer:' line")
            rest = line[len("outer:"):].strip()
            if "->" not in rest:
                raise GraphSyntaxError(lineno, "outer line must be 'outer: u->v'")
            a, _, b = rest.partition("->")
            try:
                outer = (integer(a.strip()), integer(b.strip()))
            except ValueError:
                raise GraphSyntaxError(lineno, "outer dart endpoints must be integers") from None
            continue
        if ":" in line:
            head, _, tail = line.partition(":")
            try:
                vid = integer(head.strip())
                nbrs = integers(tail)
            except ValueError:
                raise GraphSyntaxError(lineno, f"bad vertex line {line!r}") from None
            if vid in rotations:
                raise GraphSyntaxError(lineno, f"vertex {vid} listed twice")
            rotations[vid] = nbrs
            continue
        raise GraphSyntaxError(lineno, f"unrecognized line {line!r}")
    if not header_seen:
        raise GraphSyntaxError(1, "missing header")
    if n is None:
        raise GraphSyntaxError(1, "missing 'n <count>' line")
    if len(rotations) != n:
        raise GraphSyntaxError(
            n_lineno, f"n {n} declared but {len(rotations)} vertex lines given"
        )
    # n distinct ids, so all of them in 0..n-1 means exactly 0..n-1
    outside = [v for v in rotations if not 0 <= v < n]
    if outside:
        raise GraphSyntaxError(
            n_lineno, f"vertex id {min(outside)} outside 0..{n - 1}"
        )
    if outer is None:
        raise MissingOuterDart("no 'outer: u->v' line")
    u, v = outer
    if not (0 <= u < n) or v not in rotations[u]:
        raise MissingOuterDart(f"outer dart {u}->{v} is not an edge of the graph")
    return PlaneGraph([rotations[i] for i in range(n)], outer)


def serialize_graph(g: PlaneGraph, comment: Optional[str] = None) -> str:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    lines.append(f"{FORMAT_HEADER} {FORMAT_VERSION}")
    lines.append(f"n {g.n}")
    for v in range(g.n):
        lines.append(f"{v}: " + " ".join(str(w) for w in g.rotations[v]))
    lines.append(f"outer: {g.outer_dart[0]}->{g.outer_dart[1]}")
    return "\n".join(lines) + "\n"


# -- reports -----------------------------------------------------------------

def graph_summary(g: PlaneGraph, stats: StructuralStats) -> dict[str, Any]:
    """The report's graph block; ``stats`` are g's structural stats."""
    return {
        "n": g.n,
        "e": g.e,
        "f": g.f,
        "min_degree": stats.min_degree,
        "bipartite": stats.bipartite,
        "two_connected": stats.two_connected,
        "k": stats.k,
        "e23": stats.e23,
    }


class Rows(Sequence):
    """A report's rows, one per block of ``d``, read-only: each block's
    ``id`` and ``kind``; with ``shape`` its ``edges`` (``[u, v]`` pairs,
    ascending), ``junctions`` and ``interior_faces`` counts; an int per
    ``ints`` column, and a numerator over ``den``, as "p/q", per ``shares``
    column.  Indexing and iteration build plain dicts; `write_report`
    writes the rows straight from the columns."""

    __slots__ = ("decomposition", "shape", "ints", "shares", "den")

    def __init__(self, d: BlockDecomposition, shape: bool, ints: Columns = (),
                 shares: Columns = (), den: int = 1):
        if shape:
            ints = (("junctions", d.junction_counts), ("interior_faces", d.interior_counts), *ints)
        self.decomposition, self.shape, self.den = d, shape, den
        self.ints, self.shares = ints, shares

    def __len__(self) -> int:
        return len(self.decomposition.kinds)

    def __getitem__(self, i: int) -> dict[str, Any]:
        d = self.decomposition
        i = range(len(self))[i]  # a block id; IndexError past either end
        row: dict[str, Any] = {"id": i, "kind": d.kinds[i].value}
        if self.shape:
            row["edges"] = [list(d.graph.edge_list[j]) for j in d.eids[i]]
        row.update((key, col[i]) for key, col in self.ints)
        row.update((key, format_fraction(col[i], self.den)) for key, col in self.shares)
        return row

    def __eq__(self, other: object) -> bool:
        return list(self) == (list(other) if isinstance(other, Rows) else other)

    def _json(self, inner: str) -> str:
        """The items of the rows' list as `write_report` writes them at indent
        ``inner``: one template filled from the columns, each value formatted once."""
        d = self.decomposition
        field = inner + "  "
        # shares repeat across blocks, so each distinct numerator is formatted once
        text = {num: f'"{format_fraction(num, self.den)}"'
                for num in set().union(*(col for _, col in self.shares))}
        columns: dict[str, Sequence[Any]] = {
            "id": range(len(self)), "kind": list(map(_KIND_JSON.__getitem__, d.kinds))}
        if self.shape:
            edge = field + "  "
            pair = "[" + edge + "  %d," + edge + "  %d" + edge + "]"
            # every edge lies in one block, so each pair is written once
            pairs = list(map(pair.__mod__, d.graph.edge_list))
            columns["edges"] = ["[" + edge + ("," + edge).join(map(pairs.__getitem__, ids))
                                + field + "]" for ids in d.eids]
        columns.update(self.ints)
        columns.update((key, list(map(text.__getitem__, col))) for key, col in self.shares)
        keys = sorted(columns)
        template = "{" + field + ("," + field).join(f'"{key}": %s' for key in keys) + inner + "}"
        return ("," + inner).join(map(template.__mod__, zip(*map(columns.__getitem__, keys))))


_KIND_JSON = {kind: encode_basestring_ascii(kind.value) for kind in BlockKind}


def _ledger_rows(led: ContributionLedger) -> Rows:
    d = led.decomposition
    return Rows(d, True, (("e", list(map(len, d.eids))), ("e23", led.e23)),
                (("v", led.vnum), ("f", led.fnum), ("k", led.knum)), led.den)


def decomposition_report(g: PlaneGraph, d: BlockDecomposition) -> dict[str, Any]:
    return {
        "schema": REPORT_SCHEMA,
        "kind": "decomposition",
        "graph": graph_summary(g, structural_stats(g.rotations)),
        "mode": d.mode,
        "blocks": Rows(d, True),
    }


def ledger_report(g: PlaneGraph, led: ContributionLedger) -> dict[str, Any]:
    tv, te, tf, tk, te23 = led.totals
    return {
        "schema": REPORT_SCHEMA,
        "kind": "ledger",
        "graph": graph_summary(g, structural_stats(g.rotations)),
        "mode": led.mode,
        "blocks": _ledger_rows(led),
        "totals": {
            "v": format_fraction(tv),
            "e": te,
            "f": format_fraction(tf),
            "k": format_fraction(tk),
            "e23": te23,
        },
    }


def verdict_report(g: PlaneGraph, verdict: Verdict) -> dict[str, Any]:
    rep: dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "kind": "verdict",
        "graph": graph_summary(g, verdict.hypotheses.stats),
        "profile": verdict.profile_id,
        "forced": verdict.forced,
        "hypotheses": {
            "ok": verdict.hypotheses.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail}
                for c in verdict.hypotheses.checks
            ],
            "warnings": list(verdict.hypotheses.warnings),
        },
        "ok": verdict.ok,
    }
    led = verdict.ledger
    if led is not None:
        rep["mode"] = led.mode
        rep["blocks"] = _ledger_rows(led)
        rep["block_values"] = Rows(
            led.decomposition, False, (), (("value", verdict.values),), led.den
        )
        rep["violations"] = list(verdict.violations)
        rep["total"] = format_fraction(verdict.total)
        rep["warnings"] = list(verdict.warnings)
        rep["chords_added"] = [list(c) for c in verdict.chords_added]
    if verdict.bound is not None:
        b = verdict.bound
        rep["bound"] = {
            "formula": str(b.formula),
            "value": format_fraction(b.bound),
            "edges": b.edges,
            "slack": format_fraction(b.slack),
            "ok": b.ok,
            "asserted": b.asserted,
            "tight": b.tight,
        }
    return rep


def search_report(result: SearchResult) -> dict[str, Any]:
    return {
        "schema": REPORT_SCHEMA,
        "kind": "search",
        "search": {
            "n": result.n,
            "max_edges": result.max_edges,
            "witnesses": [serialize_graph(w) for w in result.witnesses],
            "stats": asdict(result.stats),
        },
    }


def write_report(report: dict[str, Any], fmt: str = "json") -> bytes:
    """Serialize a report; JSON output is byte-stable for identical reports."""
    if fmt == "json":
        out: list[str] = []
        _json_parts(report, "\n", out)
        return "".join(out + ["\n"]).encode()
    if fmt == "text":
        return _render_text(report).encode()
    raise ValueError(f"unknown report format {fmt!r}")


def _json_parts(value: Any, newline: str, out: list[str]) -> None:
    """Append ``json.dumps(value, sort_keys=True, indent=2, ensure_ascii=True)``
    to ``out`` in pieces, with ``newline`` starting every line break and `Rows`
    written as lists; one join of ``out`` copies each piece once.

    Covers only what a report holds: dicts with str keys, lists, tuples,
    `Rows`, str, int, bool and None; anything else raises TypeError.
    """
    inner = newline + "  "
    sep = "," + inner
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or isinstance(value, bool):
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif not isinstance(value, (dict, list, tuple, Rows)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        out.append("{" + inner)
        for key, x in sorted(value.items()):
            out += (encode_basestring_ascii(key), ": ")
            _json_parts(x, inner, out)
            out.append(sep)
        out[-1] = newline + "}"  # in place of the last item's separator
    elif isinstance(value, Rows) or set(map(type, value)) == {int}:
        rows = value._json(inner) if isinstance(value, Rows) else sep.join(map(int.__repr__, value))
        out += ("[" + inner, rows, newline + "]")
    else:
        out.append("[" + inner)
        for x in value:
            _json_parts(x, inner, out)
            out.append(sep)
        out[-1] = newline + "]"


def _render_text(rep: dict[str, Any]) -> str:
    lines = []
    if "graph" in rep:
        g = rep["graph"]
        lines.append(
            f"graph: n={g['n']} e={g['e']} f={g['f']} min_degree={g['min_degree']} "
            f"bipartite={g['bipartite']} two_connected={g['two_connected']} "
            f"k={g['k']} e23={g['e23']}"
        )
    if rep.get("kind") == "search":
        s = rep["search"]
        lines.append(f"search: n={s['n']} max_edges={s['max_edges']}")
        st = s.get("stats", {})
        if st:
            lines.append(
                f"stats: children={st['children']} candidates={st['candidates']} "
                f"expanded={st['expanded']} emitted={st['emitted']}"
            )
        lines.append(f"witnesses: {len(s['witnesses'])}")
    if "mode" in rep:
        lines.append(f"mode: {rep['mode']}")
    if rep.get("kind") == "decomposition":
        lines.append(f"{'id':>3} {'kind':<7} {'edges':>5} {'junctions':>9} {'interior':>8}")
        for b in rep["blocks"]:
            lines.append(
                f"{b['id']:>3} {b['kind']:<7} {len(b['edges']):>5} "
                f"{b['junctions']:>9} {b['interior_faces']:>8}"
            )
    if rep.get("kind") == "ledger":
        lines.append(f"{'id':>3} {'kind':<7} {'v':>8} {'e':>4} {'f':>8} {'k':>6} {'e23':>4}")
        for b in rep["blocks"]:
            lines.append(
                f"{b['id']:>3} {b['kind']:<7} {b['v']:>8} {b['e']:>4} "
                f"{b['f']:>8} {b['k']:>6} {b['e23']:>4}"
            )
        t = rep["totals"]
        lines.append(
            f"totals: v={t['v']} e={t['e']} f={t['f']} k={t['k']} e23={t['e23']}"
        )
    if "profile" in rep:
        lines.append(f"profile: {rep['profile']}" + (" (forced)" if rep.get("forced") else ""))
        hyp = rep["hypotheses"]
        lines.append(f"hypotheses: {'ok' if hyp['ok'] else 'FAILED'}")
        for c in hyp["checks"]:
            mark = "ok " if c["ok"] else "FAIL"
            detail = f" ({c['detail']})" if c["detail"] else ""
            lines.append(f"  [{mark}] {c['name']}{detail}")
        for w in hyp["warnings"]:
            lines.append(f"  warning: {w}")
        if "block_values" in rep:
            for bv in rep["block_values"]:
                lines.append(f"  block {bv['id']:>3} {bv['kind']:<7} L(B) = {bv['value']}")
            lines.append(f"  total: {rep['total']}")
            if rep["violations"]:
                lines.append(f"  VIOLATIONS: blocks {rep['violations']}")
            for w in rep.get("warnings", []):
                if w not in hyp["warnings"]:
                    lines.append(f"  warning: {w}")
        if "bound" in rep:
            b = rep["bound"]
            status = "ok" if b["ok"] else "FAIL"
            extra = "" if b["asserted"] else " (not asserted at this n)"
            lines.append(
                f"bound: {b['formula']}; value {b['value']}, edges {b['edges']}, "
                f"slack {b['slack']} [{status}]{extra}"
            )
            if b["tight"]:
                lines.append("bound is tight (slack 0)")
        lines.append(f"verdict: {'ok' if rep['ok'] else 'FAIL'}")
    return "\n".join(lines) + "\n"
