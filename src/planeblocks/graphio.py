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
"""

from __future__ import annotations

from dataclasses import asdict
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Any, Optional

from .blocks import Block, BlockDecomposition, BlockKind
from .errors import GraphSyntaxError, MissingOuterDart
from .ledger import ContributionLedger
from .plane import Edge, PlaneGraph
from .search import SearchResult
from .structure import StructuralStats, structural_stats
from .theorems import Verdict

FORMAT_HEADER = "planegraph"
FORMAT_VERSION = 1
REPORT_SCHEMA = "planeblocks-report-v1"


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
                nbrs = [integer(tok) for tok in tail.split()]
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


_KIND_TEXT = {kind: kind.value for kind in BlockKind}


def _edge_rows(b: Block, edge_list: list[Edge]) -> list[list[int]]:
    """A block's edges as report rows; ``edge_list`` is its graph's."""
    # ids ascend as the edges do, so the rows come out sorted
    return list(map(list, map(edge_list.__getitem__, b.eids)))


def _ledger_blocks(led: ContributionLedger) -> list[dict[str, Any]]:
    edge_list = led.decomposition.graph.edge_list
    # shares repeat across blocks, so each distinct numerator is formatted once
    text = {num: format_fraction(num, led.den) for num in {*led.vnum, *led.fnum, *led.knum}}
    return [  # one entry per block, in block order
        {"id": b.id, "kind": _KIND_TEXT[b.kind], "edges": _edge_rows(b, edge_list),
         "junctions": len(b.junction_vertices), "interior_faces": len(b.interior_faces),
         "v": text[v], "e": len(b.eids), "f": text[f], "k": text[k], "e23": e23}
        for b, v, f, k, e23 in zip(
            led.decomposition.blocks, led.vnum, led.fnum, led.knum, led.e23
        )
    ]


def decomposition_report(g: PlaneGraph, d: BlockDecomposition) -> dict[str, Any]:
    return {
        "schema": REPORT_SCHEMA,
        "kind": "decomposition",
        "graph": graph_summary(g, structural_stats(g.rotations)),
        "mode": d.mode,
        "blocks": [
            {"id": b.id, "kind": _KIND_TEXT[b.kind], "edges": _edge_rows(b, d.graph.edge_list),
             "junctions": len(b.junction_vertices), "interior_faces": len(b.interior_faces)}
            for b in d.blocks
        ],
    }


def ledger_report(g: PlaneGraph, led: ContributionLedger) -> dict[str, Any]:
    tv, te, tf, tk, te23 = led.totals
    return {
        "schema": REPORT_SCHEMA,
        "kind": "ledger",
        "graph": graph_summary(g, structural_stats(g.rotations)),
        "mode": led.mode,
        "blocks": _ledger_blocks(led),
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
        rep["blocks"] = _ledger_blocks(led)
        text = {num: format_fraction(num, led.den) for num in set(verdict.values)}
        rep["block_values"] = [
            {"id": b.id, "kind": _KIND_TEXT[b.kind], "value": text[num]}
            for b, num in zip(led.decomposition.blocks, verdict.values)
        ]
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
        return (_json_text(report) + "\n").encode()
    if fmt == "text":
        return _render_text(report).encode()
    raise ValueError(f"unknown report format {fmt!r}")


def _json_text(value: Any, newline: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2, ensure_ascii=True)``,
    with ``newline`` starting every line break.

    Covers only what a report holds: dicts with str keys, lists, tuples,
    str, int, bool and None; anything else raises TypeError.  A dict, and a
    list of dicts with one key set (a report's rows, the bulk of a large
    report), are written column by column (see `_rows`).
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        kinds = set(map(type, value))
        if kinds == {int}:
            items = map(int.__repr__, value)
        elif kinds == {dict} and value[0] and all(
            map(value[0].keys().__eq__, map(dict.keys, value))
        ):
            items = _rows(value, inner)
        else:
            items = [_json_text(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        return _rows([value], newline)[0] if value else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _rows(rows: list[dict[str, Any]], newline: str) -> list[str]:
    """Dicts with one key set, each written through one template whose line
    breaks start with ``newline``: int columns fill it with %d, and every
    other column is encoded first, in one pass per column.  A key that is
    no str raises TypeError."""
    deeper = newline + "  "
    fields = []
    columns = []
    for key in sorted(rows[0]):
        column = [row[key] for row in rows]
        kinds = set(map(type, column))
        field = "%d"
        if kinds == {str}:
            field, column = "%s", list(map(encode_basestring_ascii, column))
        elif kinds != {int}:
            field = "%s"
            column = _pair_lists(column, deeper) or [_json_text(x, deeper) for x in column]
        fields.append(encode_basestring_ascii(key).replace("%", "%%") + ": " + field)
        columns.append(column)
    template = "{" + deeper + ("," + deeper).join(fields) + newline + "}"
    return list(map(template.__mod__, zip(*columns)))


def _pair_lists(column: list[Any], newline: str) -> Optional[list[str]]:
    """The texts of a column of nonempty lists of int pairs (a block's
    edges, say) whose line breaks start with ``newline``, or None when some
    value is not one: each list fills a template of its length."""
    if not (set(map(type, column)) <= {list, tuple} and all(column)):
        return None
    pairs = list(chain.from_iterable(column))
    if not (set(map(type, pairs)) <= {list, tuple} and set(map(len, pairs)) == {2}
            and set(map(type, chain.from_iterable(pairs))) == {int}):
        return None
    inner = newline + "  "
    pair = "[" + inner + "  %d," + inner + "  %d" + inner + "]"
    templates: dict[int, str] = {}
    texts = []
    for x in column:
        template = templates.get(len(x))
        if template is None:
            template = templates[len(x)] = (
                "[" + inner + ("," + inner).join([pair] * len(x)) + newline + "]"
            )
        texts.append(template % tuple(chain.from_iterable(x)))
    return texts


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
