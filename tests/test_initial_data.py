"""Every entry point reads and checks initial data through one reader, and so alike."""

import json
from collections.abc import Mapping

import numpy as np
import pytest

from graphlv import (
    BoundaryCondition,
    CompetitionParams,
    FieldPair,
    Problem,
    analytic_envelopes,
    classify_bistable_basin,
    constant_pair,
    dynamics,
    field_array,
    graphs,
    integrate,
    monotone_solve,
    verify_coupled_pair,
)
from graphlv.cli import main
from graphlv.config import config_from_document
from graphlv.errors import ConfigInvalid, InputError, MissingVertexValue, NegativeInitial
from graphlv.fixtures import reflecting_example

SET_I = CompetitionParams(a1=1.0, b1=2.0, c1=2.0, a2=1.0, b2=1.0, c2=1.0)
SET_II = CompetitionParams(a1=2.0, b1=1.0, c1=1.0, a2=1.0, b2=1.0, c2=2.0)
PAIR = constant_pair((2.0, 3.0), (0.0, 0.0), t_end=0.1)
GRID = np.array([0.0, 0.05, 0.1])
INTERIOR = {"x1": 1.0, "x2": 1.0, "x3": 1.0}

ENTRY_POINTS = {
    "integrate": lambda problem, initial: integrate(problem, initial, t_end=0.1).final,
    "monotone_solve": lambda problem, initial: monotone_solve(problem, PAIR, initial,
                                                              GRID).final,
    "verify_coupled_pair": lambda problem, initial: verify_coupled_pair(problem, PAIR, GRID,
                                                                        initial=initial),
}


# per condition, the data 1.0 as a vertex map and as a full array: the whole graph has no
# boundary, an absorbing boundary is zero, and a reflecting one is replaced by projections
EVERY_FORM = {
    BoundaryCondition.NEUMANN: (INTERIOR, np.ones(5)),
    BoundaryCondition.DIRICHLET: (INTERIOR, np.array([1.0, 1.0, 1.0, 0.0, 0.0])),
    BoundaryCondition.NO_BOUNDARY: ({**INTERIOR, "x4": 1.0, "x5": 1.0}, np.ones(5)),
}


def reflecting_problem(bc, params=SET_I):
    graph, part = reflecting_example()
    return Problem(graph, params, bc=bc,
                   partition=None if bc is BoundaryCondition.NO_BOUNDARY else part)


def reflecting_document(bc, u, v):
    doc = {
        "graph": {"vertices": ["x1", "x2", "x3", "x4", "x5"],
                  "edges": [["x4", "x1", 1.0], ["x1", "x2", 1.0], ["x1", "x3", 1.0],
                            ["x2", "x3", 1.0], ["x3", "x5", 1.0]]},
        "bc": bc.value,
        "params": {"a1": 1.0, "b1": 2.0, "c1": 2.0, "a2": 1.0, "b2": 1.0, "c2": 1.0},
        "initial": {"u": u, "v": v},
    }
    if bc is not BoundaryCondition.NO_BOUNDARY:
        doc["graph"]["interior"] = ["x1", "x2", "x3"]
    return doc


def outcome(result):
    """A comparable form of an entry point's result."""
    if isinstance(result, FieldPair):
        return np.stack([result.u, result.v]).tolist()
    return result.passed, sorted(result.slacks.items())


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_library_entry_points_accept_every_form(entry):
    """Under every condition a scalar, a vertex map, a full array and a FieldPair of the
    same data give the same result: a scalar is that constant on the active vertices, so
    under the absorbing condition it is the interior map with a zero boundary."""
    for bc, (vertex_map, full) in EVERY_FORM.items():
        problem = reflecting_problem(bc)
        forms = [(1.0, 1.0), (vertex_map, vertex_map), (full, full),
                 FieldPair(u=full, v=full), (vertex_map, 1.0)]
        results = [outcome(ENTRY_POINTS[entry](problem, initial)) for initial in forms]
        assert all(result == results[0] for result in results), bc
        if entry == "verify_coupled_pair":
            assert results[0][0]


@pytest.mark.parametrize("as_map", [False, True], ids=["number", "vertex-object"])
def test_config_accepts_both_json_forms(as_map):
    """The config reads a number and a vertex object as the library reads them, under
    every condition, and keeps full-order arrays."""
    for bc, (vertex_map, full) in EVERY_FORM.items():
        cfg = config_from_document(reflecting_document(bc, vertex_map if as_map else 1.0,
                                                       1.0))
        if bc is not BoundaryCondition.NEUMANN:
            assert cfg.initial_u.tolist() == full.tolist()
        problem = reflecting_problem(bc)
        assert (outcome(ENTRY_POINTS["integrate"](cfg.problem, (cfg.initial_u, cfg.initial_v)))
                == outcome(ENTRY_POINTS["integrate"](problem, (1.0, 1.0))))


def test_simulate_reads_the_vertex_maps_once(tmp_path, monkeypatch):
    """The config reads the document's two vertex maps; the solver then gets arrays."""
    mappings = []

    def counting(graph, data, *args, **kwargs):
        mappings.append(isinstance(data, Mapping))
        return field_array(graph, data, *args, **kwargs)

    monkeypatch.setattr(graphs, "field_array", counting)
    monkeypatch.setattr(dynamics, "field_array", counting)
    path = tmp_path / "doc.json"
    doc = reflecting_document(BoundaryCondition.NEUMANN, INTERIOR, INTERIOR)
    path.write_text(json.dumps({**doc, "t_end": 0.5}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert sum(mappings) == 2


BAD_INITIAL = {
    # name: (bc, u, error); v is valid throughout
    "missing-active": (BoundaryCondition.NEUMANN, {"x1": 1.0, "x3": 1.0}, MissingVertexValue),
    "negative-interior": (BoundaryCondition.NEUMANN, {**INTERIOR, "x2": -0.1}, NegativeInitial),
    "negative-boundary": (BoundaryCondition.NEUMANN, {**INTERIOR, "x4": -0.1}, NegativeInitial),
    "negative-scalar": (BoundaryCondition.NEUMANN, -0.1, NegativeInitial),
    "inf": (BoundaryCondition.NEUMANN, float("inf"), InputError),
    "inf-boundary": (BoundaryCondition.NEUMANN, {**INTERIOR, "x5": float("inf")}, InputError),
    "dirichlet-boundary": (BoundaryCondition.DIRICHLET, {**INTERIOR, "x4": 0.5}, InputError),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS) + ["config_from_document"])
@pytest.mark.parametrize("case", sorted(BAD_INITIAL))
def test_every_entry_point_rejects_alike(entry, case):
    """The library raises one error class per fault; the config wraps it in ConfigInvalid."""
    bc, u, error = BAD_INITIAL[case]
    if entry == "config_from_document":
        with pytest.raises(ConfigInvalid) as info:
            config_from_document(reflecting_document(bc, u, INTERIOR))
        assert type(info.value.__cause__) is error
        return
    with pytest.raises(error) as info:
        ENTRY_POINTS[entry](reflecting_problem(bc), (u, INTERIOR))
    assert info.type is error


def test_initial_must_be_a_pair():
    problem = reflecting_problem(BoundaryCondition.NEUMANN)
    for initial in ((1.0, 1.0, 1.0), 1.0):
        with pytest.raises(InputError, match=r"\(u, v\) pair"):
            integrate(problem, initial, t_end=0.1)


@pytest.mark.parametrize("n_states", [2, 5])
def test_pair_solvers_take_one_initial_state(n_states):
    """A batch of initial states is an InputError, also when its width equals n."""
    problem = reflecting_problem(BoundaryCondition.NEUMANN)
    batch = (np.ones((5, n_states)), np.ones((5, n_states)))
    for entry in ("monotone_solve", "verify_coupled_pair"):
        with pytest.raises(InputError, match="one state"):
            ENTRY_POINTS[entry](problem, batch)


def test_monotone_solve_reads_vertex_maps_like_arrays():
    problem = reflecting_problem(BoundaryCondition.NEUMANN)
    u_map, v_map = {"x1": 0.3, "x2": 0.2, "x3": 0.1}, {"x1": 0.4, "x2": 0.6, "x3": 0.5}
    u_arr, v_arr = np.array([0.3, 0.2, 0.1, 0.0, 0.0]), np.array([0.4, 0.6, 0.5, 0.0, 0.0])
    by_map = monotone_solve(problem, PAIR, (u_map, v_map), GRID, substep=0.01)
    by_arr = monotone_solve(problem, PAIR, (u_arr, v_arr), GRID, substep=0.01)
    assert by_map.metadata["iterations"] == by_arr.metadata["iterations"]
    for a, b in zip(by_map.states, by_arr.states):
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


def test_cli_ignores_negative_data_off_the_closure(tmp_path):
    """On the path a-b-c-d with interior {a} the closure is {a, b}: u0(c) = -1 runs exactly
    as u0(c) = 0."""
    written = []
    for c_value in (-1.0, 0.0):
        doc = {
            "graph": {"vertices": ["a", "b", "c", "d"],
                      "edges": [["a", "b", 1.0], ["b", "c", 1.0], ["c", "d", 1.0]],
                      "interior": ["a"]},
            "bc": "neumann",
            "params": {"a1": 1.0, "b1": 2.0, "c1": 2.0, "a2": 1.0, "b2": 1.0, "c2": 1.0},
            "initial": {"u": {"a": 0.7, "b": 0.2, "c": c_value, "d": 0.0}, "v": 0.4},
            "t_end": 2.0,
        }
        path = tmp_path / f"path{c_value}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / f"out{c_value}"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        written.append((out / "trajectory.csv").read_bytes())
    assert written[0] == written[1]


def test_first_window_rectangle_comes_from_the_projected_state():
    """The stepper starts from projected boundary values, so a given boundary value that
    the projection overwrites changes neither the rectangle nor the steps."""
    problem = reflecting_problem(BoundaryCondition.NEUMANN, SET_II)
    runs = []
    for boundary in (1e4, 1.0):
        u0 = np.array([1.0, 1.0, 1.0, boundary, boundary])
        runs.append(integrate(problem, (u0, np.ones(5)), t_end=1.0))
    keys = ("dt", "m_u", "m_v", "n_steps", "n_rhs")
    assert [runs[0].metadata[k] for k in keys] == [runs[1].metadata[k] for k in keys]
    assert runs[0].metadata["m_u"] == 2.0
    assert np.array_equal(runs[0].final.u, runs[1].final.u)


@pytest.mark.parametrize("state", [(np.full(3, np.nan), np.ones(3)),
                                   (np.ones(3), np.array([]))], ids=["all-nan", "empty"])
def test_state_without_values_is_an_input_error(state):
    set_iii = CompetitionParams(a1=2.0, b1=1.0, c1=1.0, a2=3.0, b2=1.0, c2=2.0)
    with pytest.raises(InputError, match="at least one value"):
        analytic_envelopes(3, set_iii, state_at_t0=state)
    bistable = CompetitionParams(a1=2.0, b1=1.0, c1=3.0, a2=1.0, b2=1.0, c2=1.0)
    with pytest.raises(InputError, match="at least one value"):
        classify_bistable_basin(bistable, state)


@pytest.mark.parametrize("grid", [np.array([]), np.zeros((2, 2)), np.array([0.0, np.nan])],
                         ids=["empty", "2-d", "nan"])
def test_pair_grids_must_be_nonempty_finite_and_1d(grid):
    problem = reflecting_problem(BoundaryCondition.NEUMANN)
    with pytest.raises(InputError, match="grid"):
        verify_coupled_pair(problem, PAIR, grid)
    with pytest.raises(InputError, match="t_grid"):
        monotone_solve(problem, PAIR, (1.0, 1.0), grid)

