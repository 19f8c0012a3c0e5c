"""The benchmark's tracer wraps functions at the names their callers look
them up by (``bench/tracer.py`` ``TARGETS``).  A rename or removal under
``src/`` must not leave one of those names dangling, which would break
traced bench runs while every other test passes."""

import importlib
import sys
from pathlib import Path

import pytest

from planeblocks import fixtures, graphio, theorems

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    sites = [site for _, owners, _ in tracer.TARGETS for site in owners]
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in sites
        if not callable(getattr(owner, attr, None))
    ]
    assert sites and missing == []


# every span one parse, forced verify and report pass through; triangular
# mode adds blocks.refine_pseudofaces
VERIFY_SPANS = (
    "graphio.parse_graph",
    "plane.PlaneGraph",
    "theorems.verify",
    "theorems.check_hypotheses",
    "structure.structural_stats",
    "structure.contains_cycle_of_length",
    "theorems.verify_per_block",
    "ledger.build_ledger",
    "blocks.decompose",
    "ledger.slot_table",
    "theorems.check_bound",
    "graphio.verdict_report",
    "graphio.write_report",
)


@pytest.mark.parametrize(
    "fixture, profile, spans",
    [
        ("k4", "C5", (*VERIFY_SPANS, "blocks.refine_pseudofaces")),
        ("cube", "BI_C8", VERIFY_SPANS),
    ],
)
def test_every_verify_span_records_a_call(monkeypatch, fixture, profile, spans):
    # a refactor that routes the verify path around a traced name would
    # silently turn that layer's per-op metric into 0
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    t = tracer.Tracer()
    with tracer.installed(t), t.op():
        g = graphio.parse_graph(fixtures.fixture_text(fixture))
        verdict = theorems.verify(g, theorems.PROFILES[profile], force=True)
        graphio.write_report(graphio.verdict_report(g, verdict), "json")
    silent = [name for name in spans if t.total(name, field=0) == 0]
    assert silent == []
