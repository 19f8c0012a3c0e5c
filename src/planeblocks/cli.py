"""Command-line interface.

Exit codes: 0 = success / verified; 1 = negative verdict (failed hypotheses,
failed bound, violations); 2 = input error (bad file, bad arguments, an
output path that cannot be written); 3 = internal error (conservation or
catalog assertions, or any unexpected exception).
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Iterator, Optional, Sequence

from . import fixtures as fixtures_mod
from . import graphio, ledger, search, theorems
from .blocks import decompose
from .errors import (
    ConservationViolation,
    HypothesisViolated,
    PlaneBlocksError,
    UnexpectedBlock,
)
from .plane import PlaneGraph
from .structure import structural_stats

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class _CliError(Exception):
    pass


def _read_graph(path: str) -> PlaneGraph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    return graphio.parse_graph(text)


@contextmanager
def _writing(path: str) -> Iterator[None]:
    """A write to ``path`` that fails is an input error, as a failed read is."""
    try:
        yield
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}") from exc


def _check_out(out: Optional[str]) -> None:
    """Fail before any work when ``out`` cannot become a file: its parent
    must be an existing directory and ``out`` must not be one."""
    if out:
        with _writing(out):
            if not Path(out).parent.is_dir():
                raise FileNotFoundError(f"no directory {Path(out).parent}")
            if Path(out).is_dir():
                raise IsADirectoryError("it is a directory")


def _emit(report: dict, fmt: str, out: Optional[str]) -> None:
    data = graphio.write_report(report, fmt)
    if out:
        with _writing(out):
            Path(out).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)


def _parse_constraints(n: int, spec: Optional[str]) -> search.ConstraintSet:
    kwargs: dict = {"n": n}
    forbidden: set[int] = set()

    def number(text: str) -> int:
        try:
            return graphio.integer(text)
        except ValueError:
            raise _CliError(f"bad constraint token {token!r}") from None

    for token in (spec or "").split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token.startswith("c") and token.endswith("free"):
            forbidden.add(number(token[1:-4]))
        elif token == "bipartite":
            kwargs["bipartite"] = True
        elif token == "trianglefree":
            forbidden.add(3)
        elif token.startswith("mindeg="):
            kwargs["min_degree"] = number(token[7:])
        elif token.startswith("exactmindeg="):
            kwargs["exact_min_degree"] = number(token[12:])
        elif token in ("2connected", "biconnected"):
            kwargs["two_connected"] = True
        elif token == "deg2rule":
            kwargs["deg2_neighbor_ok"] = True
        else:
            raise _CliError(
                f"unknown constraint {token!r}; use cNfree, bipartite, "
                "trianglefree, mindeg=K, exactmindeg=K, 2connected, deg2rule"
            )
    kwargs["forbidden_cycles"] = tuple(sorted(forbidden))
    return search.ConstraintSet(**kwargs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="planeblocks",
        description="block decompositions and edge-bound verification "
        "for plane graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("decompose", help="show the block decomposition")
    p.add_argument("graph")
    p.add_argument("--mode", choices=("triangular", "quadrangular"), required=True)
    add_common(p)

    p = sub.add_parser("ledger", help="show the contribution ledger")
    p.add_argument("graph")
    p.add_argument("--mode", choices=("triangular", "quadrangular"), required=True)
    add_common(p)

    p = sub.add_parser("verify", help="run a theorem profile end to end")
    p.add_argument("graph")
    p.add_argument("--theorem", required=True)
    p.add_argument(
        "--force",
        action="store_true",
        help="evaluate blocks and bound even if hypotheses fail "
        "(the verdict is still negative, exit 1)",
    )
    add_common(p)

    p = sub.add_parser("bound", help="print and evaluate a profile's bound")
    p.add_argument("--theorem", required=True)
    p.add_argument("graph", nargs="?", help="evaluate at this graph's parameters")
    p.add_argument("--n", type=graphio.integer, help="evaluate at this vertex count")
    p.add_argument("--k", type=graphio.integer, help="degree-2 vertex count (with --n)")
    p.add_argument("--e23", type=graphio.integer, help="(2,3)-degree edge count (with --n)")

    p = sub.add_parser("saturate", help="add chords until no 6-face remains")
    p.add_argument("graph")
    p.add_argument("--out", help="write the saturated graph here (default stdout)")

    p = sub.add_parser("search", help="exhaustive extremal search")
    p.add_argument("--n", type=graphio.integer, required=True)
    p.add_argument("--constraints", help="comma list, e.g. 'c5free,mindeg=3,2connected'")
    p.add_argument("--theorem", help="search under this profile's hypotheses")
    p.add_argument("--ceiling", type=graphio.integer, help="override the enumeration ceiling")
    p.add_argument("--witness-dir", help="dump witness graphs into this directory")
    add_common(p)

    p = sub.add_parser("fixtures", help="write the bundled fixture corpus")
    p.add_argument("--out", required=True, help="target directory")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (_CliError, PlaneBlocksError, ValueError) as exc:
        if isinstance(exc, (ConservationViolation, UnexpectedBlock)):
            print(f"internal error: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        if isinstance(exc, HypothesisViolated):
            print(f"hypotheses not satisfied: {exc}", file=sys.stderr)
            return EXIT_NEGATIVE
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # anything else is a bug, never a verdict: report it on one line
        detail = " ".join(str(exc).split())
        if not isinstance(exc, AssertionError):
            detail = f"{type(exc).__name__}: {detail}"
        print(f"internal error: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


def _dispatch(args: argparse.Namespace) -> int:
    if args.command != "fixtures":  # whose --out is a directory
        _check_out(getattr(args, "out", None))

    if args.command == "decompose":
        g = _read_graph(args.graph)
        d = decompose(g, args.mode)
        _emit(graphio.decomposition_report(g, d), args.format, args.out)
        return EXIT_OK

    if args.command == "ledger":
        g = _read_graph(args.graph)
        led = ledger.build_ledger(g, args.mode)
        _emit(graphio.ledger_report(g, led), args.format, args.out)
        return EXIT_OK

    if args.command == "verify":
        g = _read_graph(args.graph)
        profile = theorems.get_profile(args.theorem)
        verdict = theorems.verify(g, profile, force=args.force)
        _emit(graphio.verdict_report(g, verdict), args.format, args.out)
        return EXIT_OK if verdict.ok else EXIT_NEGATIVE

    if args.command == "bound":
        given = [f"--{a}" for a in ("n", "k", "e23") if getattr(args, a) is not None]
        if given and args.graph:
            raise _CliError(f"{' and '.join(given)} cannot be given with a graph")
        if given and args.n is None:
            raise _CliError(f"{' and '.join(given)} needs --n")
        for a, least in (("n", 1), ("k", 0), ("e23", 0)):
            value = getattr(args, a)
            if value is not None and value < least:
                raise _CliError(f"--{a} must be >= {least}, got {value}")
        profile = theorems.get_profile(args.theorem)
        formula = theorems.derive_global_bound(profile)
        print(f"{profile.id}: {formula}")
        if args.graph:
            g = _read_graph(args.graph)
            stats = structural_stats(g.rotations)
            check = theorems.check_bound(g, profile, stats)
            frac = graphio.format_fraction
            extra = "" if check.asserted else " (not asserted at this n)"
            print(
                f"n={g.n} k={stats.k} e23={stats.e23}: "
                f"bound {frac(check.bound)}, edges {check.edges}, "
                f"slack {frac(check.slack)}{extra}"
            )
            return EXIT_OK if check.passes else EXIT_NEGATIVE
        if args.n is not None:
            k, e23 = args.k or 0, args.e23 or 0
            value = formula.evaluate(args.n, k=k, e23=e23)
            print(f"n={args.n} k={k} e23={e23}: bound {graphio.format_fraction(value)}")
        return EXIT_OK

    if args.command == "saturate":
        g = _read_graph(args.graph)
        hyp = theorems.check_hypotheses(g, theorems.PROFILES["BI_C8C10"])
        if not hyp.ok:
            problems = "; ".join([f"{c.name} ({c.detail})" for c in hyp.checks if not c.ok])
            raise HypothesisViolated("saturation requires a bipartite C8/C10-free graph "
                                     f"with min degree >= 3: {problems}")
        saturated, chords = theorems.saturate_six_faces(g)
        added = ", ".join(f"{u}-{v}" for u, v in chords) or "none"
        text = graphio.serialize_graph(saturated, comment=f"saturated; chords added: {added}")
        if args.out:
            with _writing(args.out):
                Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK

    if args.command == "search":
        if args.theorem is None:
            cs = _parse_constraints(args.n, args.constraints)
        elif args.constraints is not None:
            raise _CliError("--theorem and --constraints cannot both be given")
        else:
            hypotheses = theorems.get_profile(args.theorem).hypotheses
            cs = search.ConstraintSet(n=args.n, **asdict(hypotheses))
        if args.witness_dir:
            with _writing(args.witness_dir):
                Path(args.witness_dir).mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        result = search.extremal_search(cs, ceiling=args.ceiling)
        elapsed = time.perf_counter() - start
        if args.witness_dir:
            directory = Path(args.witness_dir)
            with _writing(args.witness_dir):
                for i, w in enumerate(result.witnesses):
                    (directory / f"witness_{i:03d}.graph").write_text(
                        graphio.serialize_graph(w)
                    )
        _emit(graphio.search_report(result), args.format, args.out)
        print(f"elapsed: {elapsed:.2f}s", file=sys.stderr)
        return EXIT_OK

    if args.command == "fixtures":
        with _writing(args.out):
            written = fixtures_mod.write_all(args.out)
        for path in written:
            print(path)
        return EXIT_OK

    raise _CliError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
