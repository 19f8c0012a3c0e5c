"""The benchmark's tracer wraps functions at the names their callers look
them up by (``bench/tracer.py`` ``TARGETS``).  A rename or removal under
``src/`` must not leave one of those names dangling, which would break
traced bench runs while every other test passes."""

import importlib
import sys
from pathlib import Path

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
