"""Tests of the benchmark itself: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()  # puts this checkout's src/ first on sys.path

import generators as gen  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from speed import Gauge  # noqa: E402
from planeblocks import blocks, ledger, search, structure  # noqa: E402
from planeblocks.fixtures import load_fixture  # noqa: E402
from planeblocks.plane import PlaneGraph  # noqa: E402

ROOT = run.BENCH.parent


def plane(rot: list[list[int]]) -> PlaneGraph:
    g = PlaneGraph(rot, (0, rot[0][0]))
    assert g.n - g.e + g.f == 2
    return g


@pytest.mark.parametrize("seed", range(5))
def test_generators_give_plane_graphs(seed):
    rng = random.Random(seed)
    tri = gen.stacked_triangulation(60, rng)
    g = plane(tri)
    assert g.e == 3 * 60 - 6 and all(f.length == 3 for f in g.faces)
    thinned = plane(gen.relabel(gen.thin(tri, 0.5, rng), rng))
    assert 59 <= thinned.e < g.e
    hexagons = plane(gen.relabel(gen.brick_wall(9, 8), rng))
    assert structure.is_bipartite(hexagons.rotations)[0]
    assert not structure.contains_cycle_of_length(hexagons.rotations, 8)
    n, edges = gen.small_planar_edges(rng)
    assert 6 <= n <= 14 and search.planar_embed(n, edges) is not None


@pytest.mark.parametrize("cls", workloads.WORKLOADS.values())
def test_inputs_depend_only_on_the_seed(cls):
    assert cls(3).inputs == cls(3).inputs
    if cls is not workloads.Enumerate:
        assert cls(3).inputs != cls(4).inputs


def test_cube_counters_triangular():
    cube = load_fixture("cube")
    tracer = tracing.Tracer()
    with tracing.installed(tracer), tracer.op():
        ledger.build_ledger(cube, "triangular")
    assert ledger.decompose is blocks.decompose  # wrappers are gone again
    assert tracer.counters["blocks.kind.K2"] == 12
    assert tracer.counters["blocks.count"] == 12
    assert tracer.counters["blocks.pseudoface_reductions"] == 0
    names = [span[0] for span in tracer.ops[0]]
    assert names[:2] == ["op", "ledger.build_ledger"] and "blocks.decompose" in names


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_one_untraced_and_one_traced_round_pass_their_checks(name):
    w = workloads.WORKLOADS[name](1)
    tracer = tracing.Tracer()
    gauge = Gauge()
    with gauge.running():
        latencies, rounds, raw_ns, attempted, failed = run.measure(w, 0, gauge, tracer)
    assert failed == 0 and attempted == 2 * len(w.inputs)
    assert len(latencies) == len(w.inputs) and tracer.counters


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_result_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-corpus", "--seconds", "0.2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.E2E_UNITS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-corpus", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
