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
                       _windows)
from .errors import UnknownExample
from .graphs import DomainPartition, WeightedGraph, _positive, boundary_of, build_graph


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


def get_case(case_id: str) -> ReproduceCase:
    try:
        prefix, suffix = case_id.split("-", 1)
        params, u0, v0, expected = _CASE_TABLE[suffix]
        if prefix == "neumann":
            graph, partition = reflecting_example()
            problem = Problem(graph=graph, params=_make_params(params),
                              bc=BoundaryCondition.NEUMANN, partition=partition)
        elif prefix == "graph":
            problem = Problem(graph=triangle_example(), params=_make_params(params))
        else:
            raise KeyError(prefix)
    except (KeyError, ValueError):
        raise UnknownExample(
            f"unknown case {case_id!r}; choose one of {', '.join(reproduce_ids())}"
        ) from None
    return ReproduceCase(
        case_id=case_id,
        description=f"{prefix} domain: {_DESCRIPTIONS[suffix]}",
        problem=problem,
        initial_u=dict(u0),
        initial_v=dict(v0),
        expected=expected,
    )


def _make_params(values: dict) -> CompetitionParams:
    return CompetitionParams(d1=1.0, d2=1.0, **values)


def run_reproduce(case_id: str, tol: float = 1e-3, t_max: float = 1000.0,
                  dt: float | None = None) -> ReproduceResult:
    """Integrate a named case until it sits within tol of its known limit.

    The run proceeds in windows of 10 and stops early once the sup-norm
    distance to the expected constant limit, over the closure, drops
    below tol. Reaching t_max without converging is reported, not
    raised.
    """
    case = get_case(case_id)
    tol = _positive(tol, "tol")
    expected_u, expected_v = case.expected
    # each window is counted whole against the step budget before it starts
    for t_done, traj in _windows(case.problem, (case.initial_u, case.initial_v), _COUNTED_SPAN,
                                 t_max, dt=dt, max_samples=2):
        final = traj.final
        error = max(float(np.max(np.abs(final.u - expected_u))),
                    float(np.max(np.abs(final.v - expected_v))))
        if error <= tol:
            break
    return ReproduceResult(
        case_id=case_id,
        passed=error <= tol,
        t_reached=t_done,
        error=error,
        tol=tol,
        expected=case.expected,
        final=final,
    )
