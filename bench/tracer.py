"""Spans and counters taken from outside the program.

``installed(tracer)`` replaces each traced function at the name its caller
looks it up by (``planeblocks.ledger.decompose`` is what ``build_ledger``
calls, ``planeblocks.search.nx.check_planarity`` what ``planar_embed`` and
``is_planar`` call) and puts the originals back on exit.  Nothing under
``src/`` knows about it, and an untraced run never installs a wrapper.

Each span records its name, start, end and parent.  Spans are kept in memory,
grouped by op, up to ``SPAN_CAP``; past the cap only the per-(name, parent)
aggregates of calls, inclusive time and self time keep growing.  Self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import Counter
from typing import Any, Callable, Iterator

import networkx

from planeblocks import blocks, canon, graphio, ledger, plane, search, structure, theorems

Observer = Callable[[Counter, tuple, dict, Any], None]
SPAN_CAP = 50_000  # spans kept in memory; an enumerate op makes about 6,000

# catalog names as metric-name suffixes ("K2,3" has a character names may not)
KIND_SUFFIX = {kind.value: kind.value.replace(",", "_") for kind in blocks.BlockKind}


def _count_blocks(counters: Counter, args: tuple, kwargs: dict, d: Any) -> None:
    counters["blocks.count"] += len(d.blocks)
    for b in d.blocks:
        counters["blocks.kind." + KIND_SUFFIX[b.kind.value]] += 1


def _count_reductions(counters: Counter, args: tuple, kwargs: dict, pf: Any) -> None:
    counters["blocks.pseudoface_reductions"] += sum(len(p.reductions) for p in pf.values())


def _count_faces(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counters["plane.faces"] += args[0].f  # args[0] is the new PlaneGraph


def _count_search(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    stats = kwargs.get("stats")
    if stats is not None:
        for field in ("children", "candidates", "expanded", "emitted"):
            counters["search." + field] += getattr(stats, field)


# span name, the (owner, attribute) pairs callers look it up by, observer
TARGETS: tuple[tuple[str, tuple[tuple[Any, str], ...], Observer | None], ...] = (
    ("graphio.parse_graph", ((graphio, "parse_graph"),), None),
    ("graphio.verdict_report", ((graphio, "verdict_report"),), None),
    ("graphio.write_report", ((graphio, "write_report"),), None),
    ("plane.PlaneGraph", ((plane.PlaneGraph, "__init__"),), _count_faces),
    ("search.planar_embed", ((search, "planar_embed"),), None),
    ("search.is_planar", ((search, "is_planar"),), None),
    ("search.enumerate_graphs", ((search, "enumerate_graphs"),), _count_search),
    ("networkx.check_planarity", ((networkx, "check_planarity"),), None),
    ("canon.canonical_form", ((canon, "canonical_form"),), None),
    ("blocks.decompose", ((ledger, "decompose"),), _count_blocks),
    ("blocks.refine_pseudofaces", ((ledger, "refine_pseudofaces"),), _count_reductions),
    ("ledger.slot_table", ((ledger, "slot_table"),), None),
    ("ledger.build_ledger", ((ledger, "build_ledger"), (theorems, "build_ledger")), None),
    ("theorems.verify", ((theorems, "verify"),), None),
    ("theorems.verify_per_block", ((theorems, "verify_per_block"),), None),
    ("theorems.check_bound", ((theorems, "check_bound"),), None),
    ("theorems.check_hypotheses", ((theorems, "check_hypotheses"),), None),
    (
        "structure.structural_stats",
        ((theorems, "structural_stats"), (graphio, "structural_stats"), (search, "structural_stats")),
        None,
    ),
    (
        "structure.contains_cycle_of_length",
        ((theorems, "contains_cycle_of_length"), (structure, "contains_cycle_of_length")),
        None,
    ),
)
assert search.nx is networkx


class Tracer:
    """Span stack, kept spans, per-(name, parent) aggregates and counters."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock  # ns
        self.origin = clock()
        self.stack: list[list] = []  # open spans: [name, start_ns, child_ns, kept index]
        self.ops: list[list[list]] = []  # per op: [name, start_ns, end_ns, parent index]
        self.kept = 0
        self.dropped = 0
        self.agg: dict[tuple[str, str], list[int]] = {}  # -> [calls, total_ns, self_ns]
        self.counters: Counter = Counter()

    def _enter(self, name: str) -> None:
        t = self.clock()
        parent = self.stack[-1][3] if self.stack else -1
        idx = -1
        if self.kept < SPAN_CAP:
            spans = self.ops[-1]
            idx = len(spans)
            spans.append([name, t - self.origin, None, parent])
            self.kept += 1
        else:
            self.dropped += 1
        self.stack.append([name, t, 0, idx])

    def _exit(self) -> None:
        t = self.clock()
        name, start, child, idx = self.stack.pop()
        dur = t - start
        if idx >= 0:
            self.ops[-1][idx][2] = t - self.origin
        if self.stack:
            self.stack[-1][2] += dur
        key = (name, self.stack[-1][0] if self.stack else "")
        a = self.agg.get(key)
        if a is None:
            a = self.agg[key] = [0, 0, 0]
        a[0] += 1
        a[1] += dur
        a[2] += dur - child

    @contextlib.contextmanager
    def op(self) -> Iterator[None]:
        """Root span of one op; spans opened inside it are grouped under it."""
        self.ops.append([])
        self._enter("op")
        try:
            yield
        finally:
            self._exit()

    def wrap(self, name: str, fn: Callable, observe: Observer | None) -> Callable:
        if inspect.isgeneratorfunction(fn):
            # the span stays open while the caller drains the generator
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self._enter(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._exit()
                if observe is not None:
                    observe(self.counters, args, kwargs, None)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return wrapper

    # -- reading the trace ----------------------------------------------------

    def total(self, name: str, parent: str | None = None, field: int = 1) -> int:
        """Sum of one aggregate field (0 calls, 1 inclusive ns, 2 self ns)."""
        return sum(
            a[field]
            for (n, p), a in self.agg.items()
            if n == name and (parent is None or p == parent)
        )

    def dump(self, path, meta: dict[str, Any]) -> None:
        """Write kept spans (grouped by op), aggregates and counters as JSON."""
        doc = {
            **meta,
            "time_unit": "ns since trace start",
            "span_fields": ["name", "start", "end", "parent"],
            "spans_kept": self.kept,
            "spans_dropped": self.dropped,
            "ops": [{"op": i, "spans": spans} for i, spans in enumerate(self.ops) if spans],
            "aggregates": [
                {"name": n, "parent": p, "calls": a[0], "total_ns": a[1], "self_ns": a[2]}
                for (n, p), a in sorted(self.agg.items())
            ],
            "counters": dict(sorted(self.counters.items())),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every target for the duration of the block, then restore."""
    saved = []
    try:
        for name, sites, observe in TARGETS:
            for owner, attr in sites:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(name, original, observe))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# per-layer metric name -> unit; every value is per traced op
LAYER_UNITS: dict[str, str] = {
    "graphio.parse_graph.ms": "ms/op",
    "graphio.report.ms": "ms/op",
    "plane.PlaneGraph.ms": "ms/op",
    "plane.faces": "count/op",
    "search.planar_embed.ms": "ms/op",
    "search.planar_embed.calls": "count/op",
    "networkx.check_planarity.ms": "ms/op",
    "networkx.check_planarity.calls": "count/op",
    "search.is_planar.ms": "ms/op",
    "search.is_planar.calls": "count/op",
    "search.children": "count/op",
    "search.candidates": "count/op",
    "search.expanded": "count/op",
    "search.emitted": "count/op",
    "search.candidate_ratio": "ratio",
    "search.planar_kept_ratio": "ratio",
    "canon.canonical_form.from_blocks.ms": "ms/op",
    "canon.canonical_form.from_blocks.calls": "count/op",
    "canon.canonical_form.from_search.ms": "ms/op",
    "canon.canonical_form.from_search.calls": "count/op",
    "blocks.decompose.self_ms": "ms/op",
    "blocks.refine_pseudofaces.ms": "ms/op",
    "blocks.count": "count/op",
    **{"blocks.kind." + s: "count/op" for s in KIND_SUFFIX.values()},
    "blocks.pseudoface_reductions": "count/op",
    "ledger.slot_table.ms": "ms/op",
    "ledger.build_ledger.self_ms": "ms/op",
    "theorems.check_hypotheses.calls": "count/op",
    "structure.structural_stats.calls": "count/op",
    "structure.structural_stats.ms": "ms/op",
    "structure.contains_cycle_of_length.ms": "ms/op",
    "structure.contains_cycle_of_length.calls": "count/op",
    "trace.overhead": "ms/op",
}


def layer_metrics(tracer: Tracer, ops: int, overhead_ms: float, speed: float = 1.0) -> dict[str, float]:
    """Every LAYER_UNITS metric, per traced op; a ratio is 0 when its base is.

    Span times are multiplied by `speed`, the run's host-speed factor, so they
    read at the same reference speed as the end-to-end metrics.
    """
    ms = lambda name, parent=None, field=1: tracer.total(name, parent, field) * speed / 1e6 / ops
    calls = lambda name, parent=None: tracer.total(name, parent, 0) / ops
    count = lambda key: tracer.counters[key] / ops
    ratio = lambda num, den: tracer.counters[num] / tracer.counters[den] if tracer.counters[den] else 0.0
    values = {
        "graphio.parse_graph.ms": ms("graphio.parse_graph"),
        "graphio.report.ms": ms("graphio.verdict_report") + ms("graphio.write_report"),
        "plane.PlaneGraph.ms": ms("plane.PlaneGraph"),
        "plane.faces": count("plane.faces"),
        "search.planar_embed.ms": ms("search.planar_embed"),
        "search.planar_embed.calls": calls("search.planar_embed"),
        "networkx.check_planarity.ms": ms("networkx.check_planarity"),
        "networkx.check_planarity.calls": calls("networkx.check_planarity"),
        "search.is_planar.ms": ms("search.is_planar"),
        "search.is_planar.calls": calls("search.is_planar"),
        "search.children": count("search.children"),
        "search.candidates": count("search.candidates"),
        "search.expanded": count("search.expanded"),
        "search.emitted": count("search.emitted"),
        "search.candidate_ratio": ratio("search.candidates", "search.children"),
        "search.planar_kept_ratio": ratio("search.expanded", "search.candidates"),
        "canon.canonical_form.from_blocks.ms": ms("canon.canonical_form", "blocks.decompose"),
        "canon.canonical_form.from_blocks.calls": calls("canon.canonical_form", "blocks.decompose"),
        "canon.canonical_form.from_search.ms": ms("canon.canonical_form", "search.enumerate_graphs"),
        "canon.canonical_form.from_search.calls": calls("canon.canonical_form", "search.enumerate_graphs"),
        "blocks.decompose.self_ms": ms("blocks.decompose", field=2),
        "blocks.refine_pseudofaces.ms": ms("blocks.refine_pseudofaces"),
        "blocks.count": count("blocks.count"),
        **{"blocks.kind." + s: count("blocks.kind." + s) for s in KIND_SUFFIX.values()},
        "blocks.pseudoface_reductions": count("blocks.pseudoface_reductions"),
        "ledger.slot_table.ms": ms("ledger.slot_table"),
        "ledger.build_ledger.self_ms": ms("ledger.build_ledger", field=2),
        "theorems.check_hypotheses.calls": calls("theorems.check_hypotheses"),
        "structure.structural_stats.calls": calls("structure.structural_stats"),
        "structure.structural_stats.ms": ms("structure.structural_stats"),
        "structure.contains_cycle_of_length.ms": ms("structure.contains_cycle_of_length"),
        "structure.contains_cycle_of_length.calls": calls("structure.contains_cycle_of_length"),
        "trace.overhead": overhead_ms,
    }
    assert values.keys() == LAYER_UNITS.keys()
    return values
