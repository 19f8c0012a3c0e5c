"""Byte-identity gate for the CLI reports and the random plane graphs.

Every case runs in process and is compared, as the SHA-256 of its stdout
bytes plus its exit code, against ``golden_reports.json``.  A refactor that
keeps behaviour leaves every entry unchanged.  After a deliberate output
change, rewrite the data file with ``PYTHONPATH=src python
tests/test_golden_reports.py``, which first prints the id of every entry
whose digest or exit code moved, and say in the change log why it moved.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from planeblocks import graphio, ledger, search, theorems
from planeblocks.cli import main as cli_main
from planeblocks.fixtures import FIXTURE_NAMES, fixture_text
from planeblocks.theorems import PROFILES

DATA = Path(__file__).with_name("golden_reports.json")

SEARCH_CONSTRAINTS = (
    "trianglefree",
    "bipartite,c6free",
    "c4free,mindeg=2,2connected",
    "exactmindeg=2,deg2rule",
)

# SHA-256 over the reports of large_report_bytes()
LARGE_REPORTS_SHA256 = "b241d78725b94acee7f883dac3493606b21720bf6b51b7e01c3b67a60272863b"

RANDOM_CONSTRAINTS = {
    "mindeg2_2conn": dict(min_degree=2, two_connected=True),
    "c3free": dict(forbidden_cycles=(3,)),
    "exactmindeg2_deg2": dict(exact_min_degree=2, deg2_neighbor_ok=True),
    "bipartite": dict(bipartite=True),
}


def cli_cases(corpus: Path):
    """(case id, argv) for every CLI command the gate pins."""
    for name in FIXTURE_NAMES:
        path = str(corpus / f"{name}.graph")
        for cmd in ("decompose", "ledger"):
            for mode in ("triangular", "quadrangular"):
                for fmt in ("json", "text"):
                    yield (f"{cmd}/{name}/{mode}/{fmt}",
                           [cmd, path, "--mode", mode, "--format", fmt])
        for pid in sorted(PROFILES):
            for force in (False, True):
                for fmt in ("json", "text"):
                    argv = ["verify", path, "--theorem", pid, "--format", fmt]
                    if force:
                        argv.append("--force")
                    yield (f"verify/{name}/{pid}/{'force' if force else 'plain'}/{fmt}",
                           argv)
            yield f"bound/{name}/{pid}", ["bound", "--theorem", pid, path]
    for spec in SEARCH_CONSTRAINTS:
        yield (f"search/6/{spec}",
               ["search", "--n", "6", "--constraints", spec, "--format", "json"])


def run_cli(argv) -> tuple[int, bytes]:
    """Exit code and exact stdout bytes of one in-process CLI call."""
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
        out.flush()
    return code, raw.getvalue()


def random_cases():
    """(case id, n, seed, constraint kwargs or None) for random_plane_graph."""
    for n in (3, 14, 200):
        for seed in range(5):
            yield f"random/{n}/{seed}", n, seed, None
    for label, kwargs in RANDOM_CONSTRAINTS.items():
        for seed in range(5):
            yield f"random/10/{seed}/{label}", 10, seed, kwargs


def random_text(n, seed, kwargs) -> bytes:
    cs = None if kwargs is None else search.ConstraintSet(n=n, **kwargs)
    return graphio.serialize_graph(search.random_plane_graph(n, seed, cs)).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_corpus(directory: Path) -> Path:
    for name in FIXTURE_NAMES:
        (directory / f"{name}.graph").write_text(fixture_text(name))
    return directory


def capture_all(corpus: Path) -> dict:
    cases = {}
    for case, argv in cli_cases(corpus):
        code, out = run_cli(argv)
        cases[case] = {"exit": code, "sha256": digest(out)}
    for case, n, seed, kwargs in random_cases():
        cases[case] = {"sha256": digest(random_text(n, seed, kwargs))}
    return cases


def large_report_bytes():
    """Reports on random plane graphs far above the golden corpus's n <= 10:
    for n in (50, 200, 600) and seeds 0-3, each graph read back from its
    file, every profile's forced verdict as JSON and as text, then the
    triangular and the quadrangular ledger as JSON."""
    for n in (50, 200, 600):
        for seed in range(4):
            g = graphio.parse_graph(random_text(n, seed, None).decode())
            for profile in PROFILES.values():
                rep = graphio.verdict_report(g, theorems.verify(g, profile, force=True))
                yield graphio.write_report(rep, "json")
                yield graphio.write_report(rep, "text")
            for mode in ("triangular", "quadrangular"):
                rep = graphio.ledger_report(g, ledger.build_ledger(g, mode))
                yield graphio.write_report(rep, "json")


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return write_corpus(tmp_path_factory.mktemp("golden"))


def test_golden_covers_every_case(golden, corpus):
    ids = [case for case, _ in cli_cases(corpus)]
    ids += [case for case, *_ in random_cases()]
    assert sorted(ids) == sorted(golden)


def test_cli_reports_match_golden(golden, corpus):
    moved = []
    for case, argv in cli_cases(corpus):
        code, out = run_cli(argv)
        if {"exit": code, "sha256": digest(out)} != golden[case]:
            moved.append(case)
    assert not moved, f"{len(moved)} report(s) changed: {moved[:10]}"


def test_random_plane_graphs_match_golden(golden):
    moved = [
        case
        for case, n, seed, kwargs in random_cases()
        if digest(random_text(n, seed, kwargs)) != golden[case]["sha256"]
    ]
    assert not moved, f"{len(moved)} random graph(s) changed: {moved}"


def test_large_random_reports_match_pinned_digest():
    h = hashlib.sha256()
    for data in large_report_bytes():
        h.update(data)
    assert h.hexdigest() == LARGE_REPORTS_SHA256


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = capture_all(write_corpus(Path(tmp)))
    old = json.loads(DATA.read_text()) if DATA.exists() else {}
    moved = sorted(case for case in data.keys() | old.keys()
                   if data.get(case) != old.get(case))
    for case in moved:
        was, now = old.get(case, {}).get("exit"), data.get(case, {}).get("exit")
        print(case if was == now else f"{case} (exit {was} -> {now})")
    DATA.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {DATA}, {len(moved)} moved", file=sys.stderr)
