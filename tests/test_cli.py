import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import planeblocks
from planeblocks import graphio
from planeblocks.cli import main
from planeblocks.fixtures import FIXTURE_NAMES, fixture_text
from planeblocks.theorems import PROFILES, verify

from conftest import hexagonal_prism


@pytest.fixture
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("graphs")
    for name in FIXTURE_NAMES:
        (d / f"{name}.graph").write_text(fixture_text(name))
    return d


def path(fixture_dir, name):
    return str(fixture_dir / f"{name}.graph")


def test_decompose_text(fixture_dir, capsys):
    assert main(["decompose", path(fixture_dir, "theta4"),
                 "--mode", "triangular"]) == 0
    out = capsys.readouterr().out
    assert "Theta4" in out and "mode: triangular" in out


def test_ledger_json(fixture_dir, capsys):
    assert main(["ledger", path(fixture_dir, "cube"), "--mode", "triangular",
                 "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["kind"] == "ledger"
    assert rep["totals"] == {"v": "8", "e": 12, "f": "6", "k": "0", "e23": 0}


def test_verify_positive_and_negative(fixture_dir, capsys):
    assert main(["verify", path(fixture_dir, "cube"), "--theorem", "C5"]) == 0
    assert "verdict: ok" in capsys.readouterr().out
    # the cube contains a C8, so BI_C8 returns the negative exit code
    assert main(["verify", path(fixture_dir, "cube"), "--theorem", "BI_C8"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert main(["verify", path(fixture_dir, "cube"), "--theorem", "BI_C8",
                 "--force"]) == 1
    capsys.readouterr()
    # forcing evaluates the blocks and the bound, never passes the verdict:
    # c6 is no TRI_C6 graph (it has a C6 and min degree 2)
    assert main(["verify", path(fixture_dir, "c6"), "--theorem", "TRI_C6",
                 "--force", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False
    for name in FIXTURE_NAMES:
        g = graphio.parse_graph(fixture_text(name))
        for pid, p in PROFILES.items():
            v = verify(g, p, force=True)
            assert v.hypotheses.ok or not v.ok, (name, pid)


def test_verify_unknown_profile_is_input_error(fixture_dir, capsys):
    assert main(["verify", path(fixture_dir, "cube"), "--theorem", "C7"]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_is_input_error(capsys):
    assert main(["ledger", "/no/such/file.graph", "--mode", "triangular"]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,line",
    [
        ("planegraph 1\nn 2\nhello\n", 3),
        (fixture_text("c4").replace("n 4", "n \u0664"), 3),
        (fixture_text("c4").replace("0: 3 1", "0: 3 +1"), 4),
    ],
)
def test_bad_graph_file_is_input_error(text, line, tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text(text)
    assert main(["decompose", str(bad), "--mode", "triangular"]) == 2
    assert f"line {line}:" in capsys.readouterr().err


def test_unexpected_exception_is_internal_error(fixture_dir, capsys, monkeypatch):
    from planeblocks import theorems

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(theorems, "verify", boom)
    assert main(["verify", path(fixture_dir, "cube"), "--theorem", "C5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "boom" in err
    assert err.count("\n") == 1


def test_bound_formula_and_evaluation(fixture_dir, capsys):
    assert main(["bound", "--theorem", "TRI_C6", "--n", "13"]) == 0
    out = capsys.readouterr().out
    assert "e <= floor(9/5*n - 4)" in out
    assert "bound 19" in out
    assert main(["bound", "--theorem", "BI_C6",
                 path(fixture_dir, "c8")]) == 0
    assert "slack 4" in capsys.readouterr().out
    assert main(["bound", "--theorem", "BI_C6", "--n", "10", "--k", "0"]) == 0
    assert "n=10 k=0 e23=0: bound 11" in capsys.readouterr().out


def test_bound_with_a_graph_shows_e23_and_the_floor(fixture_dir, capsys):
    # the BI_C6 bound reads e23, so the line shows it, as the --n line does
    assert main(["bound", "--theorem", "BI_C6", path(fixture_dir, "theta6")]) == 0
    assert "n=6 k=4 e23=4: bound 8, edges 7, slack 1\n" in capsys.readouterr().out
    # below the profile's n floor a negative slack is shown but not asserted,
    # as verify reports it
    assert main(["bound", "--theorem", "C5", path(fixture_dir, "k4")]) == 0
    out = capsys.readouterr().out
    assert "n=4 k=0 e23=0: bound 3, edges 6, slack -3 (not asserted at this n)\n" in out
    assert main(["verify", path(fixture_dir, "k4"), "--theorem", "C5"]) == 0
    assert "(not asserted at this n)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "extra, message",
    [
        (["GRAPH", "--n", "8"], "--n cannot be given with a graph"),
        (["GRAPH", "--k", "0"], "--k cannot be given with a graph"),
        (["GRAPH", "--n", "8", "--e23", "2"], "--n and --e23 cannot be given"),
        (["--k", "2"], "--k needs --n"),
        (["--e23", "0"], "--e23 needs --n"),
        (["--n", "0"], "--n must be >= 1, got 0"),
        (["--n", "-3"], "--n must be >= 1, got -3"),
        (["--n", "8", "--k", "-1"], "--k must be >= 0, got -1"),
        (["--n", "8", "--e23", "-2"], "--e23 must be >= 0, got -2"),
    ],
)
def test_bound_rejects_ignored_or_invalid_flags(extra, message, fixture_dir, capsys):
    argv = [path(fixture_dir, "c8") if a == "GRAPH" else a for a in extra]
    assert main(["bound", "--theorem", "BI_C6", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and captured.err.count("\n") == 1


def test_saturate_hypothesis_failure_is_negative(fixture_dir, capsys):
    # C6 violates the saturation hypotheses (degree 2): negative verdict
    assert main(["saturate", path(fixture_dir, "c6")]) == 1
    assert "hypotheses not satisfied" in capsys.readouterr().err


def test_saturate_rejects_the_hexagonal_prism(tmp_path, capsys):
    # 3-regular and bipartite, but it has a C8
    graph = tmp_path / "prism.graph"
    graph.write_text(graphio.serialize_graph(hexagonal_prism()))
    assert main(["saturate", str(graph)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("hypotheses not satisfied: saturation requires a bipartite")
    assert "C8-free (contains a C8)" in err and err.count("\n") == 1


def test_saturate_writes_parseable_output(fixture_dir, tmp_path, monkeypatch):
    # every graph small enough for a unit test violates some saturation
    # hypothesis, so the CLI's check is stubbed and C6 takes its two chords
    from planeblocks import theorems

    passed = theorems.HypothesisReport(checks=(), warnings=(), stats=None)
    monkeypatch.setattr(theorems, "check_hypotheses", lambda g, p: passed)
    out = tmp_path / "saturated.graph"
    assert main(["saturate", path(fixture_dir, "c6"), "--out", str(out)]) == 0
    text = out.read_text()
    assert "chords added: 0-3, 2-5" in text
    g = graphio.parse_graph(text)
    assert (g.n, g.e) == (6, 8)


def test_search_with_witnesses(tmp_path, capsys):
    wdir = tmp_path / "witnesses"
    assert main(["search", "--n", "4", "--format", "json",
                 "--witness-dir", str(wdir)]) == 0
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert rep["search"]["max_edges"] == 6
    assert "elapsed" in captured.err
    files = sorted(wdir.iterdir())
    assert len(files) == len(rep["search"]["witnesses"]) == 1
    g = graphio.parse_graph(files[0].read_text())
    assert (g.n, g.e) == (4, 6)


def test_search_constraint_parsing(capsys):
    assert main(["search", "--n", "5", "--constraints",
                 "trianglefree,mindeg=2", "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["search"]["max_edges"] == 6
    assert main(["search", "--n", "5", "--constraints", "banana"]) == 2
    assert "unknown constraint" in capsys.readouterr().err
    # no graph meets the constraints: no witness, and still exit 0
    assert main(["search", "--n", "3", "--constraints", "mindeg=5", "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["search"]["max_edges"], rep["search"]["witnesses"]) == (-1, [])


def test_search_under_a_profile_is_the_search_under_its_hypotheses(capsys):
    argv = ["search", "--n", "8", "--format", "json"]
    assert main(argv + ["--theorem", "C5"]) == 0
    by_profile = capsys.readouterr().out
    assert main(argv + ["--constraints", "c5free,mindeg=3,2connected"]) == 0
    assert capsys.readouterr().out == by_profile
    assert main(argv + ["--theorem", "C5", "--constraints", "c5free"]) == 2
    assert "cannot both be given" in capsys.readouterr().err
    assert main(argv + ["--theorem", "C7"]) == 2
    assert "unknown profile 'C7'" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["c2free", "c1free", "c-4free"])
def test_search_rejects_cycle_length_below_three(token, capsys):
    assert main(["search", "--n", "5", "--constraints", token]) == 2
    assert "cycle length must be >= 3" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["exactmindeg=-1", "mindeg=-3"])
def test_search_rejects_negative_min_degree(token, capsys):
    assert main(["search", "--n", "5", "--constraints", token]) == 2
    assert "must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "token",
    ["mindeg=x", "exactmindeg=x", "mindeg=", "exactmindeg=1.5",
     # int() would take these
     "mindeg=1_0", "exactmindeg=+1", "mindeg= 2", "c+4free", "c\u0664free"],
)
def test_search_rejects_a_non_integer_degree(token, capsys):
    assert main(["search", "--n", "3", "--constraints", token]) == 2
    assert capsys.readouterr().err == f"error: bad constraint token {token!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--theorem", "C5", "--n", "\u0663\u0660"],
        ["bound", "--theorem", "C5", "--n", "+30"],
        ["bound", "--theorem", "C5", "--n", "30", "--k", "1_0"],
        ["bound", "--theorem", "C5", "--n", "30", "--e23", " 3"],
        ["search", "--n", "\u0664"],
        ["search", "--n", "3", "--ceiling", "+3"],
    ],
)
def test_integer_options_take_ascii_digits(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid integer value" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-2"])
def test_search_rejects_n_below_one(n, capsys):
    assert main(["search", "--n", n]) == 2
    assert "n >= 1" in capsys.readouterr().err


def test_search_ceiling(capsys):
    assert main(["search", "--n", "12"]) == 2
    assert "ceiling" in capsys.readouterr().err
    assert main(["search", "--n", "3", "--ceiling", "3"]) == 0
    capsys.readouterr()


def test_json_output_byte_stable(fixture_dir, capsys):
    argv = ["verify", path(fixture_dir, "cube"), "--theorem", "C5",
            "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    json.loads(first)


def test_out_flag_writes_identical_bytes(fixture_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["ledger", path(fixture_dir, "q7"), "--mode", "quadrangular",
            "--format", "json"]
    assert main(argv + ["--out", str(out)]) == 0
    assert main(argv) == 0
    assert out.read_bytes().decode() == capsys.readouterr().out


def test_fixtures_command(tmp_path, capsys):
    assert main(["fixtures", "--out", str(tmp_path / "corpus")]) == 0
    listed = capsys.readouterr().out.strip().splitlines()
    assert len(listed) == len(FIXTURE_NAMES)
    for line in listed:
        graphio.parse_graph(open(line).read())


def test_python_m_planeblocks_runs_the_cli(fixture_dir, capsys):
    argv = ["verify", "--theorem", "C5", path(fixture_dir, "cube")]
    src = str(Path(planeblocks.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "planeblocks", *argv],
        capture_output=True, env=env, check=False,
    )
    code = main(argv)
    assert (proc.returncode, proc.stdout.decode()) == (code, capsys.readouterr().out)


def test_verdict_ignores_the_outer_line(tmp_path, capsys):
    # a C5-profile class on 8 vertices (edges 01 06 07 12 16 24 25 34 35 37
    # 45 67) drawn with the triangle 0-1-6 outside
    path = tmp_path / "c5_triangle_outer.graph"
    path.write_text(
        "planegraph 1\nn 8\n0: 7 6 1\n1: 6 2 0\n2: 5 4 1\n3: 5 7 4\n"
        "4: 5 3 2\n5: 4 2 3\n6: 1 0 7\n7: 6 0 3\nouter: 0->1\n"
    )
    g = graphio.parse_graph(path.read_text())
    assert next(f for f in g.faces if g.outer_dart in f.darts).length == 3
    assert main(["verify", str(path), "--theorem", "C5", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["violations"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{graph}", "--theorem", "C5", "--out", "{tmp}/missing/report.json"],
        ["verify", "{graph}", "--theorem", "C5", "--out", "{tmp}/file/report.json"],
        ["verify", "{graph}", "--theorem", "C5", "--out", "{tmp}/dir"],
        ["decompose", "{graph}", "--mode", "quadrangular", "--out", "{tmp}/missing/d.json"],
        ["ledger", "{graph}", "--mode", "triangular", "--out", "{tmp}/dir"],
        ["saturate", "{graph}", "--out", "{tmp}/missing/saturated.graph"],
        ["saturate", "{graph}", "--out", "{tmp}/file/saturated.graph"],
        ["search", "--n", "9", "--witness-dir", "{tmp}/file"],
        ["search", "--n", "9", "--witness-dir", "{tmp}/file/sub"],
        ["search", "--n", "9", "--format", "json", "--out", "{tmp}/missing/search.json"],
        ["search", "--n", "9", "--out", "{tmp}/dir"],
        ["fixtures", "--out", "{tmp}/file"],
    ],
)
def test_unwritable_output_is_input_error(argv, fixture_dir, tmp_path, capsys, monkeypatch):
    """Every command that writes a file rejects the path before doing any work."""
    from planeblocks import cli, ledger, search, theorems

    def boom(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    for owner, name in [(search, "extremal_search"), (theorems, "verify"), (cli, "decompose"),
                        (ledger, "build_ledger"), (theorems, "check_hypotheses"),
                        (theorems, "saturate_six_faces")]:
        monkeypatch.setattr(owner, name, boom)
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    graph = path(fixture_dir, "cube")
    assert main([a.format(graph=graph, tmp=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write ") and captured.err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def _mutated(text, edits):
    """``text`` with each (op, line, token, value) edit applied in turn: the
    line deleted, duplicated, or one of its tokens replaced by ``value``."""
    lines = text.splitlines()
    for op, at, token, value in edits:
        if not lines:
            break
        i = at % len(lines)
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split() or [""]
            tokens[token % len(tokens)] = value
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


FUZZ_COMMANDS = (
    *(["verify", "--theorem", pid, "--format", "json"] for pid in PROFILES),
    ["verify", "--theorem", "BI_C6", "--force", "--format", "json"],
    *(["decompose", "--mode", m, "--format", "json"] for m in ("triangular", "quadrangular")),
    *(["ledger", "--mode", m, "--format", "json"] for m in ("triangular", "quadrangular")),
    ["ledger", "--mode", "quadrangular", "--format", "text"],
    ["bound", "--theorem", "BI_C6"],
    ["saturate"],
)

_edit = st.tuples(
    st.sampled_from(["delete", "duplicate", "token"]),
    st.integers(0, 20),
    st.integers(0, 9),
    st.one_of(
        st.integers(-2, 10).map(str),
        st.sampled_from(["x", "1.5", "0->1", "3->0", "->", ":", "n", "outer:", "#", "planegraph"]),
    ),
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    name=st.sampled_from(FIXTURE_NAMES),
    edits=st.lists(_edit, min_size=1, max_size=4),
    command=st.sampled_from(FUZZ_COMMANDS),
)
def test_mutated_graph_files_end_in_a_documented_exit(
    name, edits, command, tmp_path_factory, capsys
):
    """Malformed or altered graph files end in exit 0, 1 or 2, never in an
    internal error, and every JSON report still fits the schema."""
    graph = tmp_path_factory.getbasetemp() / "fuzz.graph"
    graph.write_text(_mutated(fixture_text(name), edits))
    argv = [command[0], str(graph), *command[1:]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2), (argv, captured.err)
    assert not captured.err.startswith("internal error")
    if "json" in command and code != 2:
        schema = json.loads(
            (resources.files("planeblocks") / "schemas" / "report-v1.json").read_text()
        )
        jsonschema.validate(json.loads(captured.out), schema)


SEARCH_TOKENS = ("c3free", "c4free", "c5free", "c6free", "trianglefree", "bipartite",
                 "mindeg=2", "mindeg=3", "exactmindeg=2", "2connected", "biconnected",
                 "deg2rule")
MALFORMED_TOKENS = ("c", "cxfree", "c2free", "mindeg=", "mindeg=-1", "exactmindeg=x", "")


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    n=st.integers(1, 6),
    ceiling=st.one_of(st.none(), st.integers(-1, 8)),
    tokens=st.one_of(st.none(), st.lists(st.one_of(
        st.sampled_from(SEARCH_TOKENS + MALFORMED_TOKENS),
        st.sampled_from(SEARCH_TOKENS).map(str.upper),
    ), max_size=4)),
    fmt=st.sampled_from(["json", "text"]),
)
def test_fuzzed_search_arguments_end_in_a_documented_exit(n, ceiling, tokens, fmt, capsys):
    """``search`` has no negative verdict: any arguments end in exit 0 or 2,
    never in an internal error, and every JSON report fits the schema."""
    argv = ["search", "--n", str(n), "--format", fmt]
    if ceiling is not None:
        argv += ["--ceiling", str(ceiling)]
    if tokens is not None:
        argv += ["--constraints", ",".join(tokens)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 2), (argv, captured.err)
    assert not any(line.startswith("internal error") for line in captured.err.splitlines())
    if fmt == "json" and code == 0:
        schema = json.loads(
            (resources.files("planeblocks") / "schemas" / "report-v1.json").read_text()
        )
        jsonschema.validate(json.loads(captured.out), schema)
