import json
import random
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from planeblocks import graphio, ledger, search, theorems
from planeblocks.blocks import decompose
from planeblocks.errors import GraphSyntaxError, MissingOuterDart
from planeblocks.fixtures import FIXTURE_NAMES, fixture_text

from conftest import plain


def load_schema():
    text = (
        resources.files("planeblocks") / "schemas" / "report-v1.json"
    ).read_text()
    return json.loads(text)


def test_fixture_round_trips(fixture_graphs):
    for name in FIXTURE_NAMES:
        g = fixture_graphs[name]
        text = graphio.serialize_graph(g)
        h = graphio.parse_graph(text)
        assert h.rotations == g.rotations
        assert h.outer_dart == g.outer_dart
        # original files parse too, comments and all
        graphio.parse_graph(fixture_text(name))


def test_random_round_trips():
    rng = random.Random(5)
    for seed in range(25):
        g = search.random_plane_graph(rng.randint(3, 12), 2200 + seed)
        h = graphio.parse_graph(graphio.serialize_graph(g, comment="test\ngraph"))
        assert h.rotations == g.rotations and h.outer_dart == g.outer_dart


C4_FILE = "planegraph 1\nn 4\n0: 1 3\n1: 2 0\n2: 3 1\n3: 0 2\nouter: 0->1\n"


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("nonsense 1\n", 1),
        ("planegraph 2\n", 1),
        ("planegraph 1\nn x\n", 2),
        # trailing tokens on the n line are not ignored
        ("planegraph 1\nn 2 7\n0: 1\n1: 0\nouter: 0->1\n", 2),
        ("planegraph 1\nn 2\n0: 1\n0: 1\n", 4),
        ("planegraph 1\nn 2\n0: 1\n1: 0\nouter: zero->1\n", 5),
        ("planegraph 1\nn 2\nhello\n", 3),
        # a second header line is rejected where it appears
        ("planegraph 1\nn 2\nn 2\n0: 1\n1: 0\nouter: 0->1\n", 3),
        ("planegraph 1\nn 2\n0: 1\n1: 0\nouter: 0->1\nouter: 1->0\n", 6),
        # vertex lines that disagree with n are reported at the n line
        ("planegraph 1\n# c\nn 3\n0: 1\n1: 0\nouter: 0->1\n", 3),
        ("planegraph 1\nn 2\n0: 5\n5: 0\nouter: 0->5\n", 2),
        # numbers are ASCII digits, with no sign but a leading "-"
        (C4_FILE.replace("n 4", "n \u0664"), 2),  # ARABIC-INDIC DIGIT FOUR
        (C4_FILE.replace("n 4", "n +4"), 2),
        (C4_FILE.replace("0: 1 3", "0: 1 +3"), 3),
        (C4_FILE.replace("0: 1 3", "+0: 1 3"), 3),
        (C4_FILE.replace("0: 1 3", "0: 1 \u0663"), 3),
        (C4_FILE.replace("3: 0 2", "3: 0 0_2"), 6),
        (C4_FILE.replace("outer: 0->1", "outer: +0->1"), 7),
        (C4_FILE.replace("outer: 0->1", "outer: 0->\u0661"), 7),
    ],
)
def test_syntax_errors_carry_line_numbers(text, lineno):
    with pytest.raises(GraphSyntaxError) as exc:
        graphio.parse_graph(text)
    assert exc.value.line == lineno


def test_integers_keep_their_surrounding_spaces():
    text = C4_FILE.replace("0: 1 3", "0 :  1 3").replace("0->1", " 0 -> 1")
    g = graphio.parse_graph(text)
    assert tuple(g.rotations[0]) == (1, 3) and g.outer_dart == (0, 1)


@pytest.mark.parametrize("text", ["0", "007", "-12", "4" * 40])
def test_integer_takes_ascii_digits_and_a_leading_minus(text):
    assert graphio.integer(text) == int(text)


@pytest.mark.parametrize(
    "text", ["", "-", "+3", "--3", "1_0", " 1", "1 ", "1.0", "\u0663", "\uff11", "\u00b2"]
)
def test_integer_rejects_what_int_would_stretch_to(text):
    with pytest.raises(ValueError):
        graphio.integer(text)


def per_token(text):
    """The rule `graphio.integers` checks in one pass: `integer` on each
    token; None where it raises."""
    try:
        return [graphio.integer(tok) for tok in text.split()]
    except ValueError:
        return None


# digits, signs, "_" and whitespace, ASCII or not (tab, the file separator
# that str.split() takes as space, no-break and em space), non-ASCII digits
# and a few other characters
line_chars = st.sampled_from("0123456789-+_ \t\x1c\xa0\u2003\u0663\u00b2\uff11.a")


@settings(max_examples=500, deadline=None)
@given(st.text(line_chars, max_size=12))
@example("1\t2\u20033\xa04 -0 007")
@example("1 --3")
@example("1 - 3")
@example("3-4")
@example("1_0")
@example("+3")
@example("1\u0663")
@example("")
def test_integers_match_the_per_token_rule(text):
    try:
        got = graphio.integers(text)
    except ValueError:
        got = None
    assert got == per_token(text)


def test_missing_or_bad_outer_dart():
    with pytest.raises(MissingOuterDart):
        graphio.parse_graph("planegraph 1\nn 2\n0: 1\n1: 0\n")
    with pytest.raises(MissingOuterDart):
        graphio.parse_graph("planegraph 1\nn 2\n0: 1\n1: 0\nouter: 0->5\n")


def test_vertex_id_gap_rejected():
    with pytest.raises(GraphSyntaxError):
        graphio.parse_graph("planegraph 1\nn 3\n0: 1\n1: 0\nouter: 0->1\n")


def test_huge_declared_n_fails_with_a_short_message():
    text = "planegraph 1\nn 3000000\n0: 1 2 3\n1: 0\n2: 0\n3: 0\nouter: 0->1\n"
    with pytest.raises(GraphSyntaxError) as exc:
        graphio.parse_graph(text)
    assert exc.value.line == 2
    assert len(str(exc.value)) < 200


def test_format_fraction():
    assert graphio.format_fraction(Fraction(3)) == "3"
    assert graphio.format_fraction(Fraction(-11, 8)) == "-11/8"
    assert graphio.format_fraction(-22, 16) == "-11/8"
    assert graphio.format_fraction(Fraction(1, 2), 3) == "1/6"


@settings(max_examples=300, deadline=None)
@given(st.integers(-(10**6), 10**6), st.integers(1, 10**6))
@example(0, 1)
@example(0, 12)
@example(-6, 4)
@example(-8, 4)
@example(10**6, 1)
@example(-(10**6), 999983)
def test_format_fraction_matches_fraction_rendering(num, den):
    want = str(Fraction(num, den))
    assert graphio.format_fraction(num, den) == want
    assert graphio.format_fraction(Fraction(num, den)) == want


def make_reports(fixture_graphs):
    g = fixture_graphs["cube"]
    led = ledger.build_ledger(g, "triangular")
    verdict = theorems.verify(g, theorems.PROFILES["C5"])
    return {
        "decomposition": graphio.decomposition_report(
            g, decompose(g, "quadrangular")
        ),
        "ledger": graphio.ledger_report(g, led),
        "verdict": graphio.verdict_report(g, verdict),
    }


def test_reports_validate_against_schema(fixture_graphs):
    schema = load_schema()
    for rep in make_reports(fixture_graphs).values():
        jsonschema.validate(plain(rep), schema)
        # a json round trip must preserve the report exactly
        assert json.loads(graphio.write_report(rep)) == rep


def test_failed_verdict_report_validates(fixture_graphs):
    schema = load_schema()
    v = theorems.verify(fixture_graphs["cube"], theorems.PROFILES["BI_C8"],
                        force=True)
    rep = graphio.verdict_report(fixture_graphs["cube"], v)
    jsonschema.validate(plain(rep), schema)
    assert rep["ok"] is False


def test_json_output_is_byte_stable(fixture_graphs):
    for rep in make_reports(fixture_graphs).values():
        assert graphio.write_report(rep) == graphio.write_report(dict(rep))


def test_text_rendering_mentions_the_essentials(fixture_graphs):
    reps = make_reports(fixture_graphs)
    text = graphio.write_report(reps["verdict"], fmt="text").decode()
    assert "profile: C5" in text
    assert "e <= 12/5*n - 33/5" in text
    assert "verdict: ok" in text
    ledger_text = graphio.write_report(reps["ledger"], fmt="text").decode()
    assert "totals: v=8 e=12 f=6" in ledger_text
    with pytest.raises(ValueError):
        graphio.write_report(reps["ledger"], fmt="yaml")


def json_dumps_bytes(value):
    text = json.dumps(value, sort_keys=True, indent=2, ensure_ascii=True)
    return (text + "\n").encode()


# keys and strings lean on what needs escaping: quotes, backslashes, control
# characters and non-ASCII, astral code points included; sizes stay small,
# since drawing large values costs far more than encoding them
texts = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001F600 ab') | st.characters(),
    max_size=8,
)
ints = st.integers() | st.integers(min_value=-(10**60), max_value=10**60)
pairs = st.lists(
    st.tuples(ints, ints) | st.lists(ints, min_size=2, max_size=2), max_size=6
)
json_values = st.recursive(
    st.none() | st.booleans() | ints | texts | st.lists(ints, max_size=6) | pairs,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(texts, children, max_size=5),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(json_values)
@example({})
@example([])
@example(())
@example({"": [], "a": {}, "b": ()})
@example([[1, 2], [3, True], (4, 5)])
@example([[1, 2], [3, 4, 5]])
@example([1, True, None, -(10**100)])
@example({"edges": [[0, 1], [1, 2]], "ids": [3, 1, 2], "n": 10**100})
def test_writer_matches_json_dumps(value):
    assert graphio.write_report(value) == json_dumps_bytes(value)


# lists of dicts with one key set, as a report's rows, and the same lists
# with one other value put in; row values are flat, as a report's are
row_values = st.none() | st.booleans() | ints | texts | st.lists(ints, max_size=4) | pairs
row_lists = st.lists(texts, min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: st.lists(
        st.fixed_dictionaries({key: row_values for key in keys}),
        min_size=1,
        max_size=4,
    )
)


@settings(max_examples=100, deadline=None)
@given(row_lists, json_values | st.dictionaries(texts, ints, max_size=3), st.integers(0, 4))
@example([{"b": 1, "a": "x"}, {"a": "y", "b": [[1, 2]]}], {"a": 1}, 1)
@example([{}, {}], {}, 0)
@example([{"a": 1}], [], 0)
# a column of nonempty int-pair lists (a block's edges), then the same column
# with an empty list or a bool in a pair
@example([{"e": [[0, 1]], "id": 0}, {"e": [(2, 3), [4, 5]], "id": 1}], {"e": [], "id": 2}, 1)
@example([{"e": [[0, 1], [0, 2]]}], {"e": [[1, True]]}, 0)
def test_writer_matches_json_dumps_on_rows(rows, other, at):
    assert graphio.write_report(rows) == json_dumps_bytes(rows)
    mixed = rows[:at] + [other] + rows[at:]
    assert graphio.write_report(mixed) == json_dumps_bytes(mixed)


@pytest.mark.parametrize(
    "value",
    [
        1.5,
        {"a": 0.0},
        [[1, 2], [3, 4.0]],
        {1, 2},
        {"a": frozenset()},
        {1: 2},
        [{"a": 1}, {"a": 0.5}],
        [{1: 2}, {1: 3}],
    ],
)
def test_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        graphio.write_report(value)


def test_reports_match_json_dumps(fixture_graphs):
    for rep in make_reports(fixture_graphs).values():
        assert graphio.write_report(rep) == json_dumps_bytes(plain(rep))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 60), seed=st.integers(0, 10**6))
def test_rows_write_as_their_plain_dicts(n, seed):
    """Every report kind, each profile forced and both ledger modes, writes
    the bytes json.dumps writes for the report with its rows as lists."""
    g = search.random_plane_graph(n, seed)
    reps = [graphio.verdict_report(g, theorems.verify(g, p, force=True))
            for p in theorems.PROFILES.values()]
    for mode in ("triangular", "quadrangular"):
        reps.append(graphio.ledger_report(g, ledger.build_ledger(g, mode)))
        reps.append(graphio.decomposition_report(g, decompose(g, mode)))
    for rep in reps:
        out = graphio.write_report(rep)
        assert out == json_dumps_bytes(plain(rep))
        assert json.loads(out) == rep


def test_rows_never_dump_as_an_empty_list(fixture_graphs):
    """json.dumps, with the C encoder or the Python one, refuses rows rather
    than writing them as []; with default=list it writes every row."""
    for rep in make_reports(fixture_graphs).values():
        assert len(rep["blocks"]) > 0
        with pytest.raises(TypeError):
            json.dumps(rep)
        with pytest.raises(TypeError):
            json.dumps(rep, indent=2)
        assert json.loads(json.dumps(rep, default=list)) == json.loads(graphio.write_report(rep))
