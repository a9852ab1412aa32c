"""Built-in example problems and their known long-time limits.

Two small graphs exercise both boundary regimes: a five-vertex graph
whose two pendant vertices form a reflecting boundary, and a triangle
with no boundary at all. Each is paired with four parameter sets, one
per classification branch (v wins, u wins, coexistence, bistability
with both basins), giving ten named cases with known constant limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (_COUNTED_SPAN, BoundaryCondition, CompetitionParams, FieldPair, Problem,
                       _coerce_initial, _windows)
from .errors import UnknownExample
from .graphs import (DomainPartition, WeightedGraph, _positive, boundary_of, build_graph,
                     field_array)


def reflecting_example() -> tuple[WeightedGraph, DomainPartition]:
    """Five vertices, interior {x1, x2, x3}, pendant boundary {x4, x5}."""
    graph = build_graph(
        vertices=("x1", "x2", "x3", "x4", "x5"),
        weights1=[("x4", "x1", 1.0), ("x1", "x2", 1.0), ("x1", "x3", 1.0),
                  ("x2", "x3", 1.0), ("x3", "x5", 1.0)],
    )
    return graph, boundary_of(graph, ("x1", "x2", "x3"))


def triangle_example() -> WeightedGraph:
    """Unit-weight triangle; every vertex has degree (and measure) 2."""
    return build_graph(
        vertices=("x1", "x2", "x3"),
        weights1=[("x1", "x2", 1.0), ("x2", "x3", 1.0), ("x1", "x3", 1.0)],
    )


_PARAM_SETS = {
    "i": dict(a1=1.0, b1=2.0, c1=2.0, a2=1.0, b2=1.0, c2=1.0),
    "ii": dict(a1=2.0, b1=1.0, c1=1.0, a2=1.0, b2=1.0, c2=2.0),
    "iii": dict(a1=2.0, b1=1.0, c1=1.0, a2=3.0, b2=1.0, c2=2.0),
    "iv": dict(a1=2.0, b1=1.0, c1=3.0, a2=1.0, b2=1.0, c2=1.0),
}

_DEFAULT_U0 = {"x1": 7.0, "x2": 6.0, "x3": 5.0}
_DEFAULT_V0 = {"x1": 4.0, "x2": 3.0, "x3": 2.0}

_CASE_TABLE = {
    "i": (_PARAM_SETS["i"], _DEFAULT_U0, _DEFAULT_V0, (0.0, 1.0)),
    "ii": (_PARAM_SETS["ii"], _DEFAULT_U0, _DEFAULT_V0, (2.0, 0.0)),
    "iii": (_PARAM_SETS["iii"], _DEFAULT_U0, _DEFAULT_V0, (1.0, 1.0)),
    "iv-a": (_PARAM_SETS["iv"],
             {"x1": 0.6, "x2": 1.1, "x3": 1.8},
             {"x1": 0.1, "x2": 0.3, "x3": 0.45},
             (2.0, 0.0)),
    "iv-b": (_PARAM_SETS["iv"],
             {"x1": 0.1, "x2": 0.3, "x3": 0.4},
             {"x1": 0.6, "x2": 0.78, "x3": 0.9},
             (0.0, 1.0)),
}


@dataclass(frozen=True, eq=False)
class ReproduceCase:
    case_id: str
    description: str
    problem: Problem
    initial_u: dict
    initial_v: dict
    expected: tuple[float, float]


@dataclass(frozen=True, eq=False)
class ReproduceResult:
    case_id: str
    passed: bool
    t_reached: float
    error: float
    tol: float
    expected: tuple[float, float]
    final: FieldPair


_DESCRIPTIONS = {
    "i": "weak competitor u is excluded, limit (0, a2/c2)",
    "ii": "u excludes v, limit (a1/b1, 0)",
    "iii": "coexistence at the interior equilibrium",
    "iv-a": "bistable, initial data in the u basin",
    "iv-b": "bistable, initial data in the v basin",
}


def reproduce_ids() -> list[str]:
    return [f"{prefix}-{suffix}" for prefix in ("neumann", "graph")
            for suffix in ("i", "ii", "iii", "iv-a", "iv-b")]


def _parse_id(case_id: str) -> tuple[str, str]:
    """The (prefix, suffix) of a known case id: its fixture graph and its row of
    ``_CASE_TABLE``."""
    prefix, _, suffix = case_id.partition("-")
    if prefix not in ("neumann", "graph") or suffix not in _CASE_TABLE:
        raise UnknownExample(
            f"unknown case {case_id!r}; choose one of {', '.join(reproduce_ids())}")
    return prefix, suffix


def _fixture_problem(prefix: str, params: CompetitionParams) -> Problem:
    """The fixture graph of an id prefix, with its boundary condition, under ``params``."""
    if prefix == "neumann":
        graph, partition = reflecting_example()
        return Problem(graph=graph, params=params, bc=BoundaryCondition.NEUMANN,
                       partition=partition)
    return Problem(graph=triangle_example(), params=params)


def get_case(case_id: str) -> ReproduceCase:
    prefix, suffix = _parse_id(case_id)
    params, u0, v0, expected = _CASE_TABLE[suffix]
    return ReproduceCase(
        case_id=case_id,
        description=f"{prefix} domain: {_DESCRIPTIONS[suffix]}",
        problem=_fixture_problem(prefix, CompetitionParams(**params)),
        initial_u=dict(u0),
        initial_v=dict(v0),
        expected=expected,
    )


def run_reproduce(case_id: str, tol: float = 1e-3, t_max: float = 1000.0,
                  dt: float | None = None) -> ReproduceResult:
    """Integrate a named case until it sits within tol of its known limit.

    The run proceeds in windows of 10 and stops early once the sup-norm
    distance to the expected constant limit, over the closure, drops
    below tol. Reaching t_max without converging is reported, not
    raised. The case runs as a batch of one: ``reproduce all`` runs all
    ten cases together, as one batch in two column blocks, one per
    fixture graph, each column with its own params and initial data,
    and drops each column after the window that ends within tol, so
    every case stops at the same window either way.
    """
    return _run_cases([case_id], tol=tol, t_max=t_max, dt=dt)[0]


def _run_cases(case_ids, tol: float = 1e-3, t_max: float = 1000.0,
               dt: float | None = None) -> list[ReproduceResult]:
    """``run_reproduce`` of each case, in order, as one batch.

    The cases of one fixture graph form a block: one column per case, its params and its
    initial data given as (n, P) arrays. The blocks step together as one ``_windows`` batch
    (both fixture graphs have 3 active vertices). After each window the columns within tol
    of their limits are dropped, so each case stops at the same window as alone; the batch
    shares one step, so errors differ from the solo runs at the level of the step control.
    """
    case_ids = list(case_ids)
    ids = [_parse_id(case_id) for case_id in case_ids]
    tol = _positive(tol, "tol")
    rows = [_CASE_TABLE[suffix] for _, suffix in ids]      # (params, u0, v0, expected)
    expected = np.array([row[3] for row in rows]).T
    blocks = {}         # the indices of each fixture graph's cases, by id prefix
    for j, (prefix, _) in enumerate(ids):
        blocks.setdefault(prefix, []).append(j)
    problems, initials = [], []
    for prefix, members in blocks.items():
        points = [rows[j][0] for j in members]
        problem = _fixture_problem(prefix, CompetitionParams(**{
            name: np.array([point[name] for point in points]) for name in points[0]}))
        problems.append(problem)
        initials.append(_coerce_initial(problem, tuple(
            np.column_stack([field_array(problem.graph, rows[j][side]) for j in members])
            for side in (1, 2))))
    live = [np.array(members) for members in blocks.values()]     # each block's cases, by column
    results = [None] * len(ids)
    # each window is counted whole against the step budget before it starts; ``settled``
    # returns the mask the loop body has just computed for that window
    for t_done, trajs in _windows(tuple(problems), tuple(initials), _COUNTED_SPAN, t_max,
                                  dt=dt, max_samples=2, settled=lambda finals: done):
        masks = []
        for traj, idx in zip(trajs, live):
            final = traj.final
            errs = np.maximum(np.max(np.abs(final.u - expected[0, idx]), axis=0),
                              np.max(np.abs(final.v - expected[1, idx]), axis=0))
            for k, (j, error) in enumerate(zip(idx, errs.tolist())):
                results[j] = ReproduceResult(
                    case_id=case_ids[j],
                    passed=error <= tol,
                    t_reached=t_done,
                    error=error,
                    tol=tol,
                    expected=rows[j][3],
                    final=FieldPair(u=final.u[:, k], v=final.v[:, k]),
                )
            masks.append(errs <= tol)
        live = [idx[~mask] for idx, mask in zip(live, masks)]
        done = np.concatenate(masks)
    return results
