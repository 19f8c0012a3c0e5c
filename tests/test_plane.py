import itertools
import json
import random
from importlib import resources

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from planeblocks import canon, graphio, search
from planeblocks.cli import main
from planeblocks.errors import (
    AsymmetricAdjacency,
    Disconnected,
    GenusNonZero,
    NonSimple,
    UnknownDart,
)
from planeblocks.plane import PlaneGraph
from planeblocks.theorems import PROFILES


def test_c4_faces(fixture_graphs):
    g = fixture_graphs["c4"]
    assert (g.n, g.e, g.f) == (4, 4, 2)
    assert sorted(f.length for f in g.faces) == [4, 4]
    assert g.n - g.e + g.f == 2


def test_single_edge_one_face():
    g = PlaneGraph([[1], [0]], (0, 1))
    assert g.f == 1
    assert g.faces[0].length == 2  # the bridge is walked from both sides


def test_path_face_length_counts_bridges_twice():
    # P4: one face, each of the 3 bridges contributes 2 to its length
    g = PlaneGraph([[1], [0, 2], [1, 3], [2]], (0, 1))
    assert g.f == 1
    assert g.faces[0].length == 6


def test_face_lengths_sum_to_twice_edges():
    for seed in range(30):
        g = search.random_plane_graph(random.Random(seed).randint(4, 12), seed)
        assert sum(f.length for f in g.faces) == 2 * g.e


def test_face_tracing_deterministic(fixture_graphs):
    g = fixture_graphs["cube"]
    again = PlaneGraph(g.rotations, g.outer_dart)
    assert [f.darts for f in g.faces] == [f.darts for f in again.faces]


def test_exactly_one_outer_face(fixture_graphs):
    for g in fixture_graphs.values():
        assert len([f for f in g.faces if g.outer_dart in f.darts]) == 1


def test_default_outer_face_is_the_first_longest(fixture_graphs, corpus7):
    rotation_systems = [g.rotations for g in fixture_graphs.values()]
    rotation_systems += [rot for n in range(2, 8) for _, rot in corpus7[n]]
    for rotations in rotation_systems:
        g = PlaneGraph(rotations)
        longest = max(f.length for f in g.faces)
        first = next(f for f in g.faces if f.length == longest)
        assert next(f for f in g.faces if g.outer_dart in f.darts) is first
        assert g.outer_dart == min(first.darts)
        again = PlaneGraph(g.rotations, g.outer_dart)
        assert again.faces == g.faces
        assert again.outer_dart == g.outer_dart


def test_loop_rejected():
    with pytest.raises(NonSimple):
        PlaneGraph([[0, 1], [0]], (0, 1))


def test_parallel_edge_rejected():
    with pytest.raises(NonSimple):
        PlaneGraph([[1, 1], [0, 0]], (0, 1))


def test_asymmetric_adjacency_rejected():
    with pytest.raises(AsymmetricAdjacency):
        PlaneGraph([[1, 2], [0], [0, 1]], (0, 1))
    with pytest.raises(AsymmetricAdjacency):
        PlaneGraph([[5], [0]], (0, 1))


def test_disconnected_rejected():
    with pytest.raises(Disconnected):
        PlaneGraph([[1], [0], [3], [2]], (0, 1))


def test_unknown_outer_dart_rejected():
    with pytest.raises(UnknownDart):
        PlaneGraph([[1], [0]], (0, 5))
    with pytest.raises(UnknownDart):  # no edge, so no dart to default to
        PlaneGraph([[]])


def test_every_k5_rotation_system_has_nonzero_genus():
    """K5 is not planar, so no rotation system of it can trace to v-e+f=2."""
    neighbor_sets = [[v for v in range(5) if v != u] for u in range(5)]
    # fix the first neighbor per vertex; cyclic rotations are equivalent
    options = []
    for u in range(5):
        first, rest = neighbor_sets[u][0], neighbor_sets[u][1:]
        options.append([[first, *perm] for perm in itertools.permutations(rest)])
    count = 0
    for rotations in itertools.product(*options):
        count += 1
        with pytest.raises(GenusNonZero):
            PlaneGraph(rotations, (0, 1))
    assert count == 6**5


def test_repr_mentions_counts(fixture_graphs):
    assert "n=8" in repr(fixture_graphs["cube"])


# -- integer darts against the tuple-dart tracer ------------------------------

def tuple_dart_faces(rotations):
    """The tuple-dart face tracer that the integer dart tables replaced, kept
    as an oracle: walks in smallest-dart order, each starting at it."""
    succ = [dict(zip(rot, rot[1:] + rot[:1])) for rot in rotations]
    walked = [set() for _ in rotations]
    faces = []
    for u, rot in enumerate(rotations):
        for v in sorted(rot):
            if v in walked[u]:
                continue
            walk = []
            a, b = u, v
            while True:
                walk.append((a, b))
                walked[a].add(b)
                a, b = b, succ[b][a]
                if (a, b) == (u, v):
                    break
            faces.append(walk)
    return faces


def with_pendants(rotations, rng, count):
    """rotations plus `count` new vertices, each hung by a bridge from an
    earlier vertex at a random place in its rotation, so some pendants
    grow into paths."""
    rot = [list(r) for r in rotations]
    for _ in range(count):
        u = rng.randrange(len(rot))
        rot[u].insert(rng.randint(0, len(rot[u])), len(rot))
        rot.append([u])
    return rot


def oracle_cases(fixture_graphs, corpus7):
    cases = [g.rotations for g in fixture_graphs.values()]
    cases += [rot for n in range(2, 8) for _, rot in corpus7[n]]
    for seed in range(40):
        rng = random.Random(seed)
        g = search.random_plane_graph(rng.randint(3, 12), seed)
        cases.append(with_pendants(g.rotations, rng, rng.randint(0, 6)))
    return cases


def test_dart_tables_match_the_tuple_dart_tracer(fixture_graphs, corpus7):
    for rotations in oracle_cases(fixture_graphs, corpus7):
        walks = tuple_dart_faces(rotations)
        g = PlaneGraph(rotations)
        eid = {edge: i for i, edge in enumerate(g.edge_list)}
        keys = {(min(u, v), max(u, v)) for u, r in enumerate(rotations) for v in r}
        assert g.edge_list == sorted(keys)
        assert g.face_eids == [[eid[(min(u, v), max(u, v))] for u, v in w] for w in walks]
        assert g.outer_dart == max(walks, key=len)[0]
        assert [f.id for f in g.faces] == list(range(len(walks)))
        assert [f.darts for f in g.faces] == [tuple(w) for w in walks]
        assert [f.eids for f in g.faces] == [tuple(ids) for ids in g.face_eids]
        # the search reads the same walks as the heads of their darts
        adj = canon.masks_from_edges(g.n, g.edge_list)
        parent = search._Parent(adj, g.rotations)
        assert parent.faces == [[v for _, v in w] for w in walks]


def test_faces_and_edges_are_built_on_first_read(fixture_graphs):
    g = PlaneGraph(fixture_graphs["cube"].rotations)
    assert "faces" not in vars(g) and "edges" not in vars(g)
    assert g.faces is g.faces and g.edges == frozenset(g.edge_list)


# -- malformed rotation systems ------------------------------------------------

FAULTS = {
    "loop": NonSimple,
    "repeated neighbour": NonSimple,
    "out-of-range id": AsymmetricAdjacency,
    "asymmetric entry": AsymmetricAdjacency,
    "disconnected": Disconnected,
    "non-planar rotation": GenusNonZero,
    "empty": UnknownDart,
}


def with_fault(rotations, fault, rng):
    """A copy of a valid rotation system with one fault of the given kind."""
    rot = [list(r) for r in rotations]
    n = len(rot)
    u = rng.randrange(n)
    if fault == "loop":
        rot[u].insert(rng.randint(0, len(rot[u])), u)
    elif fault == "repeated neighbour":
        rot[u].insert(rng.randint(0, len(rot[u])), rng.choice(rot[u]))
    elif fault == "out-of-range id":
        rot[u].insert(rng.randint(0, len(rot[u])), rng.choice([-1, -n, n, n + 3]))
    elif fault == "asymmetric entry":
        rot[rng.choice(rot[u])].remove(u)
    elif fault == "disconnected":
        rot += [[w + n for w in r] for r in rotations]
    elif fault == "non-planar rotation":
        # K5 or K3,3 under any rotation, hung from u by a bridge
        if rng.random() < 0.5:
            extra = [[w for w in range(5) if w != x] for x in range(5)]
        else:
            extra = [[3, 4, 5]] * 3 + [[0, 1, 2]] * 3
        for r in extra:
            r = [w + n for w in r]
            rng.shuffle(r)
            rot.append(r)
        rot[u].append(n)
        rot[n].append(u)
    else:
        rot = [[]]
    return rot


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(3, 9),
    seed=st.integers(0, 10**6),
    fault=st.sampled_from(sorted(FAULTS)),
)
def test_faulty_rotation_systems_end_in_their_documented_error(
    n, seed, fault, tmp_path_factory, capsys
):
    rng = random.Random(seed)
    rotations = search.random_plane_graph(n, seed).rotations
    rot = with_fault(rotations, fault, rng)
    with pytest.raises(FAULTS[fault]):
        PlaneGraph(rot)
    # the same rotation system as a file: the CLI exits 2, with no traceback
    graph = tmp_path_factory.getbasetemp() / "faulty.graph"
    graph.write_text(rotation_file(rot))
    code = main(["verify", str(graph), "--theorem", "C5"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:"), (fault, rot, err)


def rotation_file(rot):
    """A graph file for any rotation system, its outer dart the first one
    at vertex 0 (or 0->1 when vertex 0 has none)."""
    u, v = (0, rot[0][0]) if rot[0] else (0, 1)
    text = f"planegraph 1\nn {len(rot)}\n"
    text += "".join(f"{x}: {' '.join(map(str, r))}\n" for x, r in enumerate(rot))
    return text + f"outer: {u}->{v}\n"


CLI_COMMANDS = (
    *(["verify", "--theorem", pid, *force, "--format", "json"]
      for pid in PROFILES for force in ([], ["--force"])),
    *([cmd, "--mode", m, "--format", "json"]
      for cmd in ("decompose", "ledger") for m in ("triangular", "quadrangular")),
    *(["bound", "--theorem", pid] for pid in PROFILES),
    ["saturate"],
)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(3, 12),
    seed=st.integers(0, 10**6),
    constraints=st.sampled_from([{}, {"bipartite": True}, {"forbidden_cycles": (3,)}]),
    fault=st.one_of(st.none(), st.sampled_from(sorted(FAULTS))),
)
def test_random_rotation_systems_through_the_cli(
    n, seed, constraints, fault, tmp_path_factory, capsys
):
    """Every command on a random rotation system, valid or with one fault,
    ends in exit 0 or 1 (2 for a faulty one), never in an internal error,
    and every JSON report fits the schema."""
    g = search.random_plane_graph(n, seed, search.ConstraintSet(n=n, **constraints))
    if fault is None:
        text = graphio.serialize_graph(g)
    else:
        text = rotation_file(with_fault(g.rotations, fault, random.Random(seed)))
    graph = tmp_path_factory.getbasetemp() / "random.graph"
    graph.write_text(text)
    schema = json.loads(
        (resources.files("planeblocks") / "schemas" / "report-v1.json").read_text()
    )
    for command in CLI_COMMANDS:
        argv = [command[0], str(graph), *command[1:]]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in ((0, 1) if fault is None else (2,)), (argv, text, err)
        assert not any(line.startswith("internal error") for line in err.splitlines())
        if "json" in command and code != 2:
            jsonschema.validate(json.loads(out), schema)
