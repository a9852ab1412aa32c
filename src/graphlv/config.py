"""Run configuration: a single JSON document describing one problem.

Schema (all physical quantities are unitless reals):

    {
      "graph": {
        "vertices": ["x1", "x2", ...],
        "edges": [["x1", "x2", w], ...]            // or [a, b, w1, w2]
        "measures": {"1": {"x1": 3.0, ...},        // optional; default is
                     "2": {...}},                  // the weighted degree
        "interior": ["x1", ...]                    // required unless bc "none"
      },
      "bc": "none" | "neumann" | "dirichlet",
      "params": {"a1": .., "b1": .., "c1": .., "a2": .., "b2": .., "c2": ..,
                 "d1": .., "d2": ..},              // d's default to 1
      "initial": {"u": 1.0 | {"x1": 7.0, ...},     // scalars apply to the
                  "v": ...},                       // active region
      "t_end": 10.0,                               // optional, flag overrides
      "dt": 0.001,                                 // optional, default CFL
      "sweep": {                                   // sweep subcommand only
        "grid": {"a1": [0.5, 1.0, 1.5],            // explicit values, or
                 "a2": {"start": 0.5, "stop": 2.5, "count": 11}},
        "t_end": 200.0, "tol": 1e-2, "max_points": 2000
      }
    }

Vector and matrix coordinates everywhere follow the order of the
"vertices" list. Each side of "initial" is a number or an object of
vertex values, read once by the reader every solver uses
(``dynamics._coerce_initial``): a number is that constant on the active
vertices, so zero on an absorbing boundary, and values outside the
closure are ignored. ``RunConfig`` keeps the result as full-order float
arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import BoundaryCondition, CompetitionParams, Problem, _coerce_initial
from .errors import ConfigInvalid, GridTooLarge, InputError
from .graphs import boundary_of, build_graph

_BC_NAMES = {bc.value: bc for bc in BoundaryCondition}
_PARAM_KEYS = ("a1", "b1", "c1", "a2", "b2", "c2", "d1", "d2")


@dataclass(frozen=True, eq=False)
class RunConfig:
    problem: Problem
    initial_u: np.ndarray
    initial_v: np.ndarray
    t_end: float
    dt: float | None


def load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigInvalid("config must be a JSON object")
    return doc


def problem_from_document(doc: dict) -> Problem:
    graph_doc = _require(doc, "graph", dict)
    vertices = _require(graph_doc, "vertices", list)
    edges = _require(graph_doc, "edges", list)
    lists = all(issubclass(kind, list) for kind in set(map(type, edges)))
    sizes = set(map(len, edges)) if lists else {0}
    if not sizes <= {3, 4}:
        entry = next(e for e in edges if not isinstance(e, list) or len(e) not in (3, 4))
        raise ConfigInvalid(f"edge entries are [a, b, w] or [a, b, w1, w2], got {entry!r}")
    weights1, weights2 = edges, None
    if 4 in sizes:    # [a, b, w] gives both species w
        weights1 = [entry[:3] for entry in edges]
        weights2 = [(entry[0], entry[1], entry[-1]) for entry in edges]
    measures = graph_doc.get("measures") or {}
    if not isinstance(measures, dict) or not set(measures) <= {"1", "2"}:
        raise ConfigInvalid('"measures" must be an object with keys "1" and/or "2"')
    try:
        graph = build_graph(
            vertices,
            weights1,
            weights2,
            measure1=measures.get("1"),
            measure2=measures.get("2"),
        )
    except InputError as exc:
        raise ConfigInvalid(str(exc)) from exc

    bc_name = doc.get("bc", "none")
    bc = _BC_NAMES.get(bc_name)
    if bc is None:
        raise ConfigInvalid(f'"bc" must be one of {sorted(_BC_NAMES)}, got {bc_name!r}')

    interior = graph_doc.get("interior")
    partition = None
    if bc is BoundaryCondition.NO_BOUNDARY:
        if interior is not None:
            raise ConfigInvalid('bc "none" takes no "interior" list')
    else:
        if interior is None:
            raise ConfigInvalid(f'bc {bc_name!r} needs graph.interior')
        try:
            partition = boundary_of(graph, interior)
        except InputError as exc:
            raise ConfigInvalid(str(exc)) from exc

    params_doc = _require(doc, "params", dict)
    unknown = set(params_doc) - set(_PARAM_KEYS)
    if unknown:
        raise ConfigInvalid(f"unknown params: {sorted(unknown)}")
    values = {k: _number(v, f"params.{k}") for k, v in params_doc.items()}
    for key in ("a1", "b1", "c1", "a2", "b2", "c2"):
        if key not in values:
            raise ConfigInvalid(f'params.{key} is required')
    try:
        params = CompetitionParams(**values)
    except InputError as exc:
        raise ConfigInvalid(str(exc)) from exc

    try:
        return Problem(graph=graph, params=params, bc=bc, partition=partition)
    except InputError as exc:
        raise ConfigInvalid(str(exc)) from exc


def config_from_document(doc: dict, t_end: float | None = None,
                         dt: float | None = None) -> RunConfig:
    """Validate the document and apply command-line overrides."""
    return _run_config(problem_from_document(doc), doc, t_end, dt)


def _run_config(problem: Problem, doc: dict, t_end=None, dt=None) -> RunConfig:
    """The rest of ``config_from_document`` for the problem already built from ``doc``:
    its initial data, read and checked against ``problem``, and the run's budgets."""
    initial_doc = _require(doc, "initial", dict)
    if set(initial_doc) != {"u", "v"}:
        raise ConfigInvalid('"initial" must have exactly the keys "u" and "v"')
    for name, side in initial_doc.items():
        if isinstance(side, bool) or not isinstance(side, (int, float, dict)):
            raise ConfigInvalid(f"initial.{name} must be a number or an object of vertex "
                                f"values, got {side!r}")
    try:
        initial_u, initial_v = _coerce_initial(problem, (initial_doc["u"], initial_doc["v"]))
    except InputError as exc:
        raise ConfigInvalid(str(exc)) from exc

    t_end = _number(doc.get("t_end", 10.0) if t_end is None else t_end, "t_end")
    if not np.isfinite(t_end) or t_end <= 0.0:
        raise ConfigInvalid(f"t_end must be positive and finite, got {t_end}")
    if dt is None and "dt" in doc and doc["dt"] is not None:
        dt = _number(doc["dt"], "dt")
    if dt is not None and (not np.isfinite(dt) or dt <= 0.0):
        raise ConfigInvalid(f"dt must be positive and finite, got {dt}")

    return RunConfig(problem=problem, initial_u=initial_u, initial_v=initial_v,
                     t_end=t_end, dt=dt)


def sweep_spec_from_document(doc: dict) -> dict:
    """Extract and normalize the sweep section: grid axes and budgets. A grid or an axis
    count above ``max_points`` raises GridTooLarge, the count before its axis is built."""
    sweep = _require(doc, "sweep", dict)
    grid_doc = _require(sweep, "grid", dict)
    if not grid_doc:
        raise ConfigInvalid("sweep.grid must name at least one parameter")
    unknown = set(grid_doc) - set(_PARAM_KEYS)
    if unknown:
        raise ConfigInvalid(f"sweep.grid names unknown params: {sorted(unknown)}")
    max_points = _number(sweep.get("max_points", 2000), "sweep.max_points", int)
    axes: dict[str, list[float]] = {}
    for key in sorted(grid_doc):
        spec = grid_doc[key]
        if isinstance(spec, dict):
            extra = set(spec) - {"start", "stop", "count"}
            if extra or not {"start", "stop", "count"} <= set(spec):
                raise ConfigInvalid(
                    f"sweep.grid.{key} object form needs exactly start/stop/count"
                )
            count = _number(spec["count"], f"sweep.grid.{key}.count", int)
            if count < 1:
                raise ConfigInvalid(f"sweep.grid.{key}.count must be >= 1")
            if count > max_points:
                raise GridTooLarge(f"sweep.grid.{key}.count is {count}, cap is {max_points}")
            values = np.linspace(_number(spec["start"], f"sweep.grid.{key}.start"),
                                 _number(spec["stop"], f"sweep.grid.{key}.stop"), count)
            axes[key] = [float(v) for v in values]
        elif isinstance(spec, list) and spec:
            axes[key] = [_number(v, f"sweep.grid.{key} value") for v in spec]
        else:
            raise ConfigInvalid(f"sweep.grid.{key} must be a value list or start/stop/count")
        if any(not np.isfinite(v) or v <= 0.0 for v in axes[key]):
            raise ConfigInvalid(f"sweep.grid.{key} values must be positive and finite")
    points = math.prod(len(values) for values in axes.values())
    if points > max_points:
        raise GridTooLarge(f"grid has {points} points, cap is {max_points} "
                           "(raise sweep.max_points to allow this)")
    return {
        "axes": axes,
        "t_end": _number(sweep.get("t_end", 200.0), "sweep.t_end"),
        "tol": _number(sweep.get("tol", 1e-2), "sweep.tol"),
        "max_points": max_points,
    }


def _require(doc: dict, key: str, kind):
    if key not in doc:
        raise ConfigInvalid(f'config is missing "{key}"')
    value = doc[key]
    if not isinstance(value, kind):
        raise ConfigInvalid(f'"{key}" must be a {kind.__name__}')
    return value


def _number(value, what: str, kind=float):
    """``value`` as a float, or as an int when ``kind`` is int; a JSON boolean or string is
    no number, and an integer has no fractional part."""
    if isinstance(value, (bool, str)):
        raise ConfigInvalid(f"{what} must be a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigInvalid(f"{what} must be an integer, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigInvalid(f"{what} must be a number, got {value!r}") from None
