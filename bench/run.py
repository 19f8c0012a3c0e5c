#!/usr/bin/env python3
"""The planeblocks benchmark.

    python3 bench/run.py --workload small-corpus --seed 1 --seconds 34 --trace 0
    python3 bench/run.py --seed 1 --seconds 34     # every workload, one process each

One workload runs in one process with no extra threads, as a closed loop with
one client: each op starts when the previous one and its check are done.
Setup is timed as the median import time of the program in fresh
interpreters plus the median time to generate the seeded inputs and run the
warm-up ops; each part is repeated SETUP_REPEATS times.  The timed phase cycles
the inputs in whole rounds until ``--seconds`` of wall time have passed.  Every
output is checked outside the op's timer; an op that raises or fails its check
counts as failed.

Every timing is rescaled to reference speed (see ``speed.py``): the host's
speed drifts by up to a factor of two, so a fixed reference unit is timed
every 10 ms throughout, and each timed piece of work is multiplied by
REF_UNIT_NS over the median reference time near it.  The unscaled throughput
is printed too.

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1``
rounds alternate between untraced and traced, the per-layer metrics come from
the traced rounds, ``trace.overhead`` is the difference in op time between the
two, and the spans go to ``bench/out/trace-<workload>-seed<seed>.json``.

The last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Gauge

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOAD_NAMES = ("small-corpus", "large-verify", "enumerate")
SETUP_REPEATS = 5
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import planeblocks; print(time.perf_counter() - t)"
)


def import_program():
    """Import planeblocks from this checkout's src/; returns the workloads module."""
    sys.path.insert(0, str(SRC))
    try:
        import planeblocks
        import workloads
    except ImportError as exc:
        sys.exit(f"cannot import planeblocks from {SRC}: {exc}")
    if not Path(planeblocks.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"planeblocks was imported from {planeblocks.__file__}, not {SRC}")
    return workloads


def import_seconds(gauge: Gauge) -> float:
    """Median time to import planeblocks in SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = gauge.clock()
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True, text=True, check=True
        )
        times.append((start, gauge.clock(), float(probe.stdout) * 1e9))
    return statistics.median(gauge.at_reference(*t) for t in times) / 1e9


def setup(cls, seed: int, gauge: Gauge):
    """Build the workload SETUP_REPEATS times; returns it and the median time."""
    times = []
    w = None
    for _ in range(SETUP_REPEATS):
        start = gauge.clock()
        fresh = cls(seed)
        for x in fresh.warm_inputs:
            fresh.op(x)
        end = gauge.clock()
        times.append((start, end, end - start))
        if w is not None and fresh.inputs != w.inputs:
            sys.exit(f"{cls.name}: seed {seed} gave different inputs on a second build")
        w = fresh
    return w, statistics.median(gauge.at_reference(*t) for t in times) / 1e9


def measure(w, seconds: float, gauge: Gauge, tracer=None):
    """Run whole rounds until `seconds` of wall time have passed.

    Returns untraced op latencies, round times keyed by traced (both in ns at
    reference speed), the unscaled op time (ns), and attempted and failed
    counts.
    """
    if tracer is not None:
        from tracer import installed
    timed: list[tuple[int, bool, int, int]] = []  # round, traced, start, end
    attempted = failed = 0
    r = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or r < (2 if tracer else 1):
        traced = tracer is not None and r % 2 == 1
        with installed(tracer) if traced else contextlib.nullcontext():
            for x in w.inputs:
                error = None
                start = gauge.clock()
                try:
                    with tracer.op() if traced else contextlib.nullcontext():
                        out = w.op(x)
                except Exception as exc:  # a raising op is a failed op
                    error = exc
                timed.append((r, traced, start, gauge.clock()))
                if error is None:
                    try:
                        w.check(x, out)
                    except Exception as exc:  # so is one whose output is wrong
                        error = exc
                attempted += 1
                if error is not None:
                    failed += 1
                    if failed == 1:
                        print(f"first failure on {x!r:.200}: {error!r}", file=sys.stderr)
        r += 1
    latencies: list[float] = []
    rounds: dict[bool, list[float]] = {False: [], True: []}
    round_ns = [0.0] * r
    for i, traced, start, end in timed:
        dt = gauge.at_reference(start, end, end - start)
        round_ns[i] += dt
        if not traced:
            latencies.append(dt)
    for i in range(r):
        rounds[tracer is not None and i % 2 == 1].append(round_ns[i])
    raw_ns = sum(end - start for _, _, start, end in timed)
    return latencies, rounds, raw_ns, attempted, failed


def tail(sorted_ns: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    n = len(sorted_ns)
    if n <= 10:
        return sorted_ns[-1], 100.0
    return sorted_ns[n - 11], 100.0 * (n - 10) / n


def run_workload(args) -> int:
    workloads = import_program()
    gauge = Gauge()
    cls = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(gauge.clock)
    with gauge.running():
        import_s = import_seconds(gauge)
        w, setup_s = setup(cls, args.seed, gauge)
        latencies, rounds, raw_ns, attempted, failed = measure(w, args.seconds, gauge, tracer)
    busy_s = sum(map(sum, rounds.values())) / 1e9
    per_round = len(w.inputs)
    seed_note = " (the inputs do not depend on the seed)" if cls is workloads.Enumerate else ""
    print(
        f"# {args.workload} seed {args.seed}{seed_note}: closed loop, one client; "
        f"{attempted} ops in {sum(map(len, rounds.values()))} rounds of {per_round}, "
        f"{busy_s:.2f} s of op time at reference speed, {raw_ns / 1e9:.2f} s unscaled"
    )
    if tracer is None:
        latencies.sort()
        tail_ns, pct = tail(latencies)
        metrics = {
            "setup_s": import_s + setup_s,
            "ops_per_s": (attempted - failed) / busy_s,
            "op_ms_p50": statistics.median(latencies) / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = E2E_UNITS
        notes = {
            "setup_s": f"medians of {SETUP_REPEATS}: import {import_s:.4f} s + input build and warm-up",
            "op_ms_p50": f"{len(latencies)} samples",
        }
    else:
        traced_ops = len(rounds[True]) * per_round
        overhead_ms = (
            statistics.mean(rounds[True]) - statistics.mean(rounds[False])
        ) / per_round / 1e6
        metrics = tracing.layer_metrics(tracer, traced_ops, overhead_ms, gauge.factor())
        units = tracing.LAYER_UNITS
        c = tracer.counters
        notes = {
            "search.candidate_ratio": f"base: {c['search.children']} children",
            "search.planar_kept_ratio": f"base: {c['search.candidates']} candidates",
            "trace.overhead": f"over {traced_ops} traced and {len(latencies)} untraced ops",
        }
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed, "traced_ops": traced_ops})
        notes["trace.overhead"] += f"; spans in {path.relative_to(BENCH.parent)}"
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    print(f"fail_ratio = {failed / attempted:.6g} fraction  ({failed} of {attempted} ops failed)")
    # printed, not bounded: these move with the host's speed
    print(f"host_speed = {gauge.factor():.4g}  (REF_UNIT_NS over the median reference time)")
    print(f"unscaled_ops_per_s = {attempted / (raw_ns / 1e9):.6g} op/s")
    if tracer is None:  # printed, not bounded: see "Deliberate choices" in NOTES.md
        print(f"op_ms_tail = {tail_ns / 1e6:.6g} ms  (p{pct:.2f} of {len(latencies)} samples)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory is per workload."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"seed": args.seed, "seconds": args.seconds, "trace": args.trace, "workloads": results}))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=34.0, help="wall time of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
