"""The document-to-operators set-up path: edge tables against a reference construction,
read by the loop and by the array pass, the first bad entry's error, one set of arrays and
one operator for identical species, one graph build per ``classify``, names that cannot be
dict keys, and a set-up whose count of Python calls does not grow with the graph."""

import itertools
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dense_weights,
    naive_subgraph_laplacian,
    naive_whole_laplacian,
    random_connected_graph,
    random_connected_interior,
    read_in_arrays,
    reference_edge_arrays,
    stored,
)
from graphlv import (
    BoundaryCondition,
    CompetitionParams,
    Problem,
    build_graph,
    classify_bistable_basin,
    field_array,
    neumann_project,
)
from graphlv import config, dynamics
from graphlv.cli import main
from graphlv.config import problem_from_document
from graphlv.dynamics import FieldPair, reduced_operators
from graphlv.errors import (
    AsymmetricWeight,
    ConfigInvalid,
    InputError,
    MismatchedTopology,
    SelfLoop,
)

ARRAYS = ("src", "dst", "w1", "w2", "mu1", "mu2")
WEIGHT = st.floats(0.1, 10.0)
# vertex names of several hashable types; 1 and 1.0 are one name, so unique drops one
NAMES = st.one_of(st.integers(-99, 99), st.floats(-1e3, 1e3, allow_nan=False),
                  st.text(max_size=3), st.tuples(st.integers(0, 2), st.text(max_size=2)))
READERS = pytest.mark.parametrize("array", [False, True], ids=["loop", "array-pass"])


@st.composite
def edge_lists(draw):
    """(vertices, [(i, j, w1, w2), ...]) over a connected graph of at most 30 vertices: a
    chain plus up to 170 repeated pairs, shuffled, each entry in either orientation; w1 ==
    w2 on pairs that are not split."""
    n = draw(st.integers(2, 30))
    vertices = draw(st.lists(NAMES, min_size=n, max_size=n, unique=True))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    listed = [(i - 1, i) for i in range(1, n)] + draw(st.lists(st.sampled_from(pairs),
                                                               max_size=170))
    listed = draw(st.permutations(listed))
    w1 = {p: draw(WEIGHT) for p in sorted(set(listed))}
    w2 = {p: draw(WEIGHT) if draw(st.booleans()) else w1[p] for p in w1}
    entries = []
    for p in listed:
        i, j = p[::-1] if draw(st.booleans()) else p
        entries.append((vertices[i], vertices[j], w1[p], w2[p]))
    return vertices, entries


def _measure(draw, vertices):
    return draw(st.one_of(st.none(), st.fixed_dictionaries({v: WEIGHT for v in vertices})))


def _assert_reference_arrays(graph, want):
    for name, expected in zip(ARRAYS, want):
        got = getattr(graph, name)
        assert got.dtype == expected.dtype, name
        np.testing.assert_array_equal(got, expected, err_msg=name)


def _table(rows, form):
    """rows as a weight table of one form; a generator can be read once."""
    if form == "mapping":
        return {(a, b): w for a, b, w in rows}
    if form == "generator":
        return (tuple(r) for r in rows)
    return [list(r) for r in rows] if form == "lists" else rows


@READERS
@settings(max_examples=150, deadline=None)
@given(drawn=edge_lists(), data=st.data())
def test_build_graph_arrays_match_the_reference_construction(array, drawn, data):
    vertices, entries = drawn
    split = data.draw(st.booleans())
    tables, references = [None, None], [None, None]
    for s, k in enumerate((2, 3) if split else (2,)):
        order = data.draw(st.permutations(range(len(entries))))
        rows = [(entries[m][0], entries[m][1], entries[m][k]) for m in order]
        form = data.draw(st.sampled_from(["tuples", "lists", "mapping", "generator"]))
        tables[s] = _table(rows, form)
        references[s] = tables[s] if form == "mapping" else rows
    measure1, measure2 = _measure(data.draw, vertices), _measure(data.draw, vertices)
    with read_in_arrays(array):
        graph = build_graph(vertices, *tables, measure1=measure1, measure2=measure2)
    _assert_reference_arrays(graph, reference_edge_arrays(vertices, *references,
                                                          measure1, measure2))


@READERS
@settings(max_examples=100, deadline=None)
@given(drawn=edge_lists(), measures=st.booleans())
def test_document_arrays_match_the_reference_construction(array, drawn, measures):
    # [a, b, w] where both species share the weight, [a, b, w1, w2] where they do not
    vertices, entries = drawn
    edges = [[a, b, x1] if x1 == x2 else [a, b, x1, x2] for a, b, x1, x2 in entries]
    graph_doc = {"vertices": list(vertices), "edges": edges}
    mu = None
    if measures:
        mu = {v: 1.0 + k for k, v in enumerate(vertices)}
        graph_doc["measures"] = {"1": mu, "2": mu}
    doc = {"graph": graph_doc, "params": {k: 1.0 for k in ("a1", "b1", "c1", "a2", "b2", "c2")}}
    with read_in_arrays(array):
        graph = problem_from_document(doc).graph
    want = reference_edge_arrays(vertices, [e[:3] for e in entries],
                                 [(a, b, x2) for a, b, _, x2 in entries], mu, mu)
    _assert_reference_arrays(graph, want)


@READERS
def test_graph_arrays_are_read_only_and_shared_by_identical_species(array):
    names = [f"v{i}" for i in range(80)]
    path = [(a, b, 1.0 + k % 3) for k, (a, b) in enumerate(zip(names, names[1:]))]
    with read_in_arrays(array):
        shared = build_graph(names, path)
        split = build_graph(names, path, [(a, b, 2.0 * w) for a, b, w in path],
                            measure1={v: 1.0 for v in names})
    assert shared.w2 is shared.w1 and shared.mu2 is shared.mu1
    assert split.w2 is not split.w1 and split.mu2 is not split.mu1
    for graph in (shared, split):
        for name in ARRAYS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(graph, name)[0] = 1.0


VERTICES = ["a", "b", "c", "d"]
GOOD = [("a", "b", 1.0), ("b", "c", 2.0), ("c", "a", 0.5), ("b", "a", 1.0), ("c", "d", 1.5)]
BAD = [
    (("b", "b", 1.0), SelfLoop, "{}: self-loop at 'b'"),
    (("a", "q", 1.0), InputError, "{}: edge ('a', 'q') uses an unknown vertex"),
    ((["a"], "b", 1.0), InputError, "{}: edge (['a'], 'b') uses an unknown vertex"),
    (("a", "b", "heavy"), InputError, "{}: edge ('a', 'b') weight must be a number, got 'heavy'"),
    (("a", "b", None), InputError, "{}: edge ('a', 'b') weight must be a number, got None"),
    (("a", "d", 0.0), InputError, "{}: edge ('a', 'd') needs a positive finite weight, got 0.0"),
    (("a", "d", -2.0), InputError, "{}: edge ('a', 'd') needs a positive finite weight, got -2.0"),
    (("a", "d", math.inf), InputError,
     "{}: edge ('a', 'd') needs a positive finite weight, got inf"),
    (("a", "d", math.nan), InputError,
     "{}: edge ('a', 'd') needs a positive finite weight, got nan"),
    (("b", "a", 2.0), AsymmetricWeight, "{}: edge ('b', 'a') given twice with different weights"),
]


def _after_good(k, copies=1):
    """GOOD, bad entry k, GOOD again and every other bad entry, with ``copies`` of GOOD on
    each side of entry k: 13 copies put it inside a table above the array pass's crossover."""
    return (GOOD * copies + [BAD[k][0]] + GOOD * copies
            + [entry for m, (entry, _, _) in enumerate(BAD) if m != k])


@READERS
@pytest.mark.parametrize("copies", [1, 13])
@pytest.mark.parametrize("k", range(len(BAD)), ids=[cls.__name__ + str(k)
                                                    for k, (_, cls, _) in enumerate(BAD)])
@pytest.mark.parametrize("species", [1, 2])
def test_first_bad_entry_is_named(k, species, copies, array):
    _, cls, message = BAD[k]
    table = _after_good(k, copies)
    tables = [GOOD * copies, table] if species == 2 else [table, None]
    with read_in_arrays(array), pytest.raises(InputError) as info:
        build_graph(VERTICES, *tables)
    assert type(info.value) is cls
    assert str(info.value) == message.format(f"weights{species}")


@READERS
@pytest.mark.parametrize("copies", [1, 13])
@pytest.mark.parametrize("k", range(len(BAD)))
def test_first_bad_document_edge_is_named(k, copies, array):
    doc = {"graph": {"vertices": VERTICES, "edges": [list(e) for e in _after_good(k, copies)]},
           "params": {key: 1.0 for key in ("a1", "b1", "c1", "a2", "b2", "c2")}}
    with read_in_arrays(array), pytest.raises(ConfigInvalid) as info:
        problem_from_document(doc)
    assert str(info.value) == BAD[k][2].format("weights1")
    assert type(info.value.__cause__) is BAD[k][1]


@READERS
@pytest.mark.parametrize("bad, message", [
    (("q", 1.0), "unknown vertex 'q'"),
    (("v50", "heavy"), "field value at 'v50' must be a number, got 'heavy'"),
    (("v50", 10**400), f"field value at 'v50' must be a number, got {10**400!r}"),
], ids=["unknown-name", "not-a-number", "huge-integer"])
def test_first_bad_vertex_value_is_named(bad, message, array):
    # a 150-entry map with the bad entry at place 50, then an unknown name and a non-number
    names = [f"v{i}" for i in range(150)]
    values = {v: 1.0 + i % 7 for i, v in enumerate(names)}
    del values["v50"]
    items = list(values.items())
    values = dict(items[:50] + [bad] + items[50:] + [("zz", 1.0), ("v149", None)])
    graph = build_graph(names, zip(names, names[1:], itertools.repeat(1.0)))
    doc = {"graph": {"vertices": names, "edges": [[a, b, 1.0] for a, b in zip(names, names[1:])]},
           "params": {key: 1.0 for key in ("a1", "b1", "c1", "a2", "b2", "c2")},
           "initial": {"u": 1.0, "v": values}}
    with read_in_arrays(array):
        with pytest.raises(InputError) as info:
            field_array(graph, values)
        assert type(info.value) is InputError and str(info.value) == message
        with pytest.raises(ConfigInvalid, match=f"^{message}$"):
            config.config_from_document(doc)


def test_mismatched_split_topology_is_named():
    with pytest.raises(MismatchedTopology,
                       match=r"^weights1 and weights2 induce different edge sets$"):
        build_graph(VERTICES, GOOD, GOOD[:-1] + [("b", "d", 1.5)])


PARAMS = CompetitionParams(a1=1.0, b1=1.0, c1=0.5, a2=1.0, b2=0.5, c2=1.0)


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _naive_reduced(graph, species, bc, part, u):
    """The Laplacian of the full field that ``bc`` implies from ``u`` on the active set."""
    if bc is BoundaryCondition.NO_BOUNDARY:
        return naive_whole_laplacian(graph, species, u)
    field = u.copy()
    w = dense_weights(graph, species)
    ii = part.interior_idx
    for x in part.boundary_idx:
        field[x] = (0.0 if bc is BoundaryCondition.DIRICHLET
                    else sum(w[x, y] * u[y] for y in ii) / sum(w[x, y] for y in ii))
    return naive_subgraph_laplacian(graph, species, part, field)


@pytest.mark.parametrize("differ", [None, "weights", "measures"])
@pytest.mark.parametrize("bc", list(BoundaryCondition))
@pytest.mark.parametrize("csr", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_identical_species_share_one_operator(seed, csr, bc, differ, monkeypatch):
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng, max_vertices=12, split_weights=differ == "weights")
    if differ == "measures":
        graph = build_graph(graph.vertices, zip(np.take(graph.vertices, graph.src),
                                                np.take(graph.vertices, graph.dst), graph.w1),
                            measure2=graph.mu1 * rng.uniform(0.5, 2.0, graph.n))
    part = None if bc is BoundaryCondition.NO_BOUNDARY else random_connected_interior(rng, graph)
    problem = Problem(graph, PARAMS, bc=bc, partition=part)
    blocks = _counting(monkeypatch, dynamics, "_blocks")
    projections = _counting(monkeypatch, dynamics, "_projection_matrix")
    with stored(csr):
        ops = reduced_operators(problem)
    shared = differ is None
    assert len(blocks) == (1 if shared else 2)
    assert len(projections) == (0 if bc is not BoundaryCondition.NEUMANN else 1 if shared else 2)
    u = rng.normal(size=graph.n)
    values = u[problem.active_idx]
    for species, red in ((1, ops.red1), (2, ops.red2)):
        assert hasattr(red, "toarray") == csr
        np.testing.assert_allclose(red @ values, _naive_reduced(graph, species, bc, part, u),
                                   rtol=0, atol=1e-12)


def _reflecting_doc(initial):
    # the path x1 - x2 - x3 - x4 - x5 with the reflecting boundary {x1, x5}
    names = ["x1", "x2", "x3", "x4", "x5"]
    return {
        "graph": {"vertices": names,
                  "edges": [[a, b, 1.0 + k] for k, (a, b) in enumerate(zip(names, names[1:]))],
                  "interior": ["x2", "x3", "x4"]},
        "bc": "neumann",
        "params": {"a1": 2.0, "b1": 1.0, "c1": 3.0, "a2": 1.0, "b2": 1.0, "c2": 1.0},
        "initial": initial,
    }


@pytest.mark.parametrize("initial", [
    # boundary values left out, or given and overwritten by the projection
    {"u": {"x2": 1.5, "x3": 1.8, "x4": 1.2}, "v": {"x2": 0.1, "x3": 0.2, "x4": 0.3}},
    {"u": {"x1": 0.0, "x2": 1.5, "x3": 1.8, "x4": 1.2, "x5": 9.0},
     "v": {"x1": 5.0, "x2": 0.1, "x3": 0.2, "x4": 0.3, "x5": 0.0}},
    {"u": 1.0, "v": 1.0},
])
def test_bistable_classify_builds_the_graph_once(initial, tmp_path, monkeypatch, capsys):
    doc = _reflecting_doc(initial)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    builds = _counting(monkeypatch, config, "build_graph")
    assert main(["classify", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert len(builds) == 1
    # the regime the initial data give once neumann_project has set the boundary values
    problem = problem_from_document(doc)
    cfg = config.config_from_document(doc)
    full = dynamics._coerce_initial(problem, (cfg.initial_u, cfg.initial_v))
    state = neumann_project(problem, FieldPair(*full))
    idx = problem.closure_idx
    regime = classify_bistable_basin(problem.params, (state.u[idx], state.v[idx]))
    assert f"regime: {regime.kind.value}\n" in capsys.readouterr().out


def test_bistable_classify_still_checks_the_run_budgets(tmp_path):
    doc = _reflecting_doc({"u": 1.0, "v": 1.0})
    doc["t_end"] = -1.0
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("key, value", [
    ("vertices", [["x1"], "x2", "x3", "x4", "x5"]),
    ("edges", [[["x1"], "x2", 1.0], ["x2", "x3", 1.0], ["x3", "x4", 1.0], ["x4", "x5", 1.0]]),
    ("interior", [["x1"]]),
    ("interior", [1, "q"]),
    ("edges", [["x1", "x2", 10**400], ["x2", "x3", 1.0], ["x3", "x4", 1.0], ["x4", "x5", 1.0]]),
    ("measures", {"1": {"x1": 10**400, "x2": 1, "x3": 1, "x4": 1, "x5": 1}}),
], ids=["unhashable-vertex", "unhashable-edge-end", "unhashable-interior",
        "mixed-type-interior", "huge-integer-weight", "huge-integer-measure"])
@pytest.mark.parametrize("command", ["classify", "simulate", "eigen"])
def test_unusable_names_and_numbers_are_config_errors(key, value, command, tmp_path, capsys):
    doc = _reflecting_doc({"u": 1.0, "v": 1.0})
    doc["graph"][key] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ConfigInvalid: ")


def _lattice_document(side):
    """A side x side four-neighbour lattice, reflecting off its outer ring, with vertex-map
    initial data."""
    name = [[f"r{r}c{c}" for c in range(side)] for r in range(side)]
    vertices = [v for row in name for v in row]
    edges = [[name[r][c], name[rr][cc], 1.0 + (r + 2 * c) % 5 / 4]
             for r in range(side) for c in range(side)
             for rr, cc in ((r, c + 1), (r + 1, c)) if rr < side and cc < side]
    interior = [name[r][c] for r in range(1, side - 1) for c in range(1, side - 1)]
    return {"graph": {"vertices": vertices, "edges": edges, "interior": interior},
            "bc": "neumann",
            "params": {"a1": 2.0, "b1": 1.0, "c1": 1.0, "a2": 3.0, "b2": 1.0, "c2": 2.0},
            "initial": {"u": {v: 1.0 + k % 3 for k, v in enumerate(vertices)},
                        "v": {v: 0.5 + k % 4 for k, v in enumerate(vertices)}}}


def _python_calls(fn) -> int:
    """The Python and C function calls that running fn makes, as sys.setprofile sees them."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_setup_makes_a_fixed_number_of_python_calls():
    # four times the edges (1520 -> 6240) must not bring more calls: no call per entry
    counts = []
    for side in (20, 40):
        doc = _lattice_document(side)
        with stored(True):
            def setup():
                reduced_operators(config.config_from_document(doc).problem)
            setup()    # late imports and caches out of the way
            counts.append(_python_calls(setup))
    assert abs(counts[1] - counts[0]) <= 0.1 * counts[0], counts
