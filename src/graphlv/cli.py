"""Command-line front end: simulate, classify, eigen, steady, reproduce, sweep.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 reproduction mismatch. All CSV output uses 17 significant digits so
values round-trip losslessly, and contains nothing nondeterministic:
identical configs give byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import sys
import time

import numpy as np

from .classify import (
    _shared_solves,
    classify_bistable_basin,
    classify_dirichlet,
    classify_neumann,
    eigenpairs_for,
    predicted_limit,
)
from .config import (
    _run_config,
    config_from_document,
    load_document,
    problem_from_document,
    sweep_spec_from_document,
)
from .dynamics import BoundaryCondition, FieldPair, Trajectory, integrate, neumann_project
from .errors import (
    ConfigInvalid,
    GraphLVError,
    InputError,
    NoPositiveState,
    NumericalError,
    RequiresSteadySolve,
)
from .fixtures import _run_cases, reproduce_ids
from .graphs import _positive
from .monotone import coexistence_bounds, logistic_steady_state


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _write_rows(path: str, header: str, row: str, rows) -> None:
    """A CSV file: the header line, then ``row % cells`` for each tuple of ``rows``; a
    ``%.17g`` field writes a float as ``_fmt`` does."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(row % cells for cells in rows)


def _write_trajectory(path: str, vertices, traj: Trajectory) -> None:
    header = ",".join(["t"] + [f"u@{v}" for v in vertices] + [f"v@{v}" for v in vertices])
    row = ",".join(["%.17g"] * (1 + 2 * len(vertices))) + "\n"
    _write_rows(path, header, row, (tuple(np.concatenate(([t], state.u, state.v)).tolist())
                                    for t, state in zip(traj.times, traj.states)))


def _write_report(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True, default=float) + "\n")


def _cmd_simulate(args) -> int:
    cfg = config_from_document(load_document(args.config), t_end=args.t_end, dt=args.dt)
    started = time.perf_counter()
    traj = integrate(cfg.problem, (cfg.initial_u, cfg.initial_v), cfg.t_end, dt=cfg.dt)
    elapsed = time.perf_counter() - started
    out = _ensure_dir(args.out)
    traj_path = os.path.join(out, "trajectory.csv")
    report_path = os.path.join(out, "report.json")
    vertices = cfg.problem.graph.vertices
    _write_trajectory(traj_path, vertices, traj)
    final = traj.final
    _write_report(report_path, {
        "t_end": cfg.t_end,
        "final": {
            "u": {v: float(final.u[i]) for i, v in enumerate(vertices)},
            "v": {v: float(final.v[i]) for i, v in enumerate(vertices)},
        },
        "rectangle": {"m_u": traj.metadata["m_u"], "m_v": traj.metadata["m_v"]},
        "steps": {k: traj.metadata[k] for k in
                  ("dt", "dt_final", "n_steps", "n_clamped", "n_halvings", "n_rejected",
                   "n_rhs")},
        "boundary": cfg.problem.bc.value,
        "elapsed_seconds": elapsed,
        "files": {"trajectory": traj_path},
    })
    print(f"wrote {traj_path} ({traj.times.size} samples) and {report_path}")
    return 0


def _basin_initial(cfg) -> tuple[np.ndarray, np.ndarray]:
    """The closure values of the initial data, the reflecting boundary's projected."""
    problem, state = cfg.problem, FieldPair(u=cfg.initial_u, v=cfg.initial_v)
    if problem.bc is BoundaryCondition.NEUMANN:
        state = neumann_project(problem, state)
    idx = problem.closure_idx
    return state.u[idx], state.v[idx]


def _classify_problem(params, eigs, basin):
    """Regime of params; ``basin()``, if given, yields initial data for a bistable regime."""
    if eigs is not None:
        return classify_dirichlet(params, *eigs)
    regime = classify_neumann(params)
    if regime.kind.value == "bistable" and basin is not None:
        regime = classify_bistable_basin(params, basin())
    return regime


def _cmd_classify(args) -> int:
    doc = load_document(args.config)
    problem = problem_from_document(doc)
    eigs = eigenpairs_for(problem) if problem.bc is BoundaryCondition.DIRICHLET else None
    basin = None
    if "initial" in doc:
        basin = lambda: _basin_initial(_run_config(problem, doc))
    regime = _classify_problem(problem.params, eigs, basin)
    print(f"regime: {regime.kind.value}")
    for cert in regime.certificates:
        state = "yes" if cert.satisfied else "no"
        print(f"certificate {cert.name}: margin={cert.margin:.6g} satisfied={state}")
    if regime.predicted is None:
        print("predicted limit: none (initial-data dependent or unresolved)")
        return 0
    if regime.predicted.kind == "constant":
        print(f"predicted limit: constant u={_fmt(regime.predicted.u)} "
              f"v={_fmt(regime.predicted.v)}")
        return 0
    try:
        limit = predicted_limit(regime, problem)
    except RequiresSteadySolve:
        print("predicted limit: coexistence bounds; run the steady subcommand with --bounds")
        return 0
    out = _ensure_dir(args.out)
    path = os.path.join(out, "predicted_limit.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("vertex,u,v\n")
        for i, v in enumerate(problem.graph.vertices):
            fh.write(f"{v},{_fmt(limit.u[i])},{_fmt(limit.v[i])}\n")
    print(f"predicted limit: steady profile written to {path}")
    return 0


def _cmd_eigen(args) -> int:
    problem = problem_from_document(load_document(args.config))
    if problem.partition is None:
        raise ConfigInvalid("eigen needs a partitioned problem (bc neumann or dirichlet)")
    eig1, eig2 = eigenpairs_for(problem)
    lines = [f"# lambda0_1 = {_fmt(eig1.lambda0)}",
             f"# lambda0_2 = {_fmt(eig2.lambda0)}",
             "vertex,phi1,phi2"]
    lines += ["%s,%.17g,%.17g" % cells for cells in zip(problem.partition.interior,
                                                         eig1.phi.tolist(), eig2.phi.tolist())]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        out = _ensure_dir(args.out)
        path = os.path.join(out, "eigen.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"# written to {path}")
    return 0


def _cmd_steady(args) -> int:
    doc = load_document(args.config)
    problem = problem_from_document(doc)
    if problem.bc is not BoundaryCondition.DIRICHLET:
        raise ConfigInvalid("steady states are defined for the absorbing boundary; "
                            'set bc to "dirichlet"')
    p = problem.params
    tol = 1e-10 if args.tol is None else _positive(args.tol, "--tol")
    out = _ensure_dir(args.out)
    interior = problem.partition.interior
    if args.bounds:
        if tol < 1e-10:    # absolute residuals: finer ones drown in roundoff at large scales
            raise InputError(f"steady --bounds needs --tol of at least 1e-10, got {tol:g}")
        bounds = coexistence_bounds(problem, tol=tol)
        path = os.path.join(out, "coexistence_bounds.csv")
        _write_rows(path, "vertex,s_lo,s_hi,r_lo,r_hi", "%s,%.17g,%.17g,%.17g,%.17g\n",
                    zip(interior, *(np.asarray(x).tolist() for x in (
                        bounds.s_lower, bounds.s_upper, bounds.r_lower, bounds.r_upper))))
        spread = max(float(np.max(bounds.s_upper - bounds.s_lower)),
                     float(np.max(bounds.r_upper - bounds.r_lower)))
        unique = "unique (bounds collapse)" if bounds.unique else "bounds only"
        print(f"wrote {path}; {unique}, spread {spread:.3e}, "
              f"epsilon={bounds.epsilon:.6g}, delta={bounds.delta:.6g}")
        return 0
    columns, zero = [], np.zeros(len(interior))
    shared = _shared_solves(problem)[1]
    for species, (d, a, e) in enumerate(((p.d1, p.a1, p.b1), (p.d2, p.a2, p.c2)), start=1):
        if not (columns and shared):    # a shared species 2 keeps species 1's column
            try:
                column = logistic_steady_state(problem.graph, problem.partition, species,
                                               d=d, a=a, e=e, tol=tol).values
            except NoPositiveState:
                column = zero
        if column is zero:
            print(f"# species {species} is subcritical; its steady state is 0",
                  file=sys.stderr)
        columns.append(column)
    path = os.path.join(out, "steady.csv")
    _write_rows(path, "vertex,s1,s2", "%s,%.17g,%.17g\n",
                zip(interior, *(np.asarray(column).tolist() for column in columns)))
    print(f"wrote {path}")
    return 0


def _cmd_reproduce(args) -> int:
    ids = reproduce_ids() if args.id == "all" else [args.id]
    tol = args.tol if args.tol is not None else 1e-3
    t_max = args.t_end if args.t_end is not None else 1000.0
    failures = 0
    for result in _run_cases(ids, tol=tol, t_max=t_max, dt=args.dt):
        expected = f"({_fmt(result.expected[0])}, {_fmt(result.expected[1])})"
        if result.passed:
            print(f"{result.case_id}: PASS sup-error {result.error:.3e} <= {tol:g} "
                  f"at t={result.t_reached:g}, limit {expected}")
        else:
            failures += 1
            print(f"{result.case_id}: FAIL sup-error {result.error:.3e} > {tol:g} "
                  f"at t={result.t_reached:g}, limit {expected}")
    return 4 if failures else 0


def _cmd_sweep(args) -> int:
    doc = load_document(args.config)
    spec = sweep_spec_from_document(doc)
    axes = spec["axes"]
    names = tuple(sorted(axes))
    points = list(itertools.product(*(axes[name] for name in names)))
    t_end = args.t_end if args.t_end is not None else spec["t_end"]
    agree_tol = (_positive(spec["tol"], "sweep.tol") if args.tol is None
                 else _positive(args.tol, "--tol"))
    cfg = config_from_document(doc, t_end=t_end)
    problem = cfg.problem
    eigs = eigenpairs_for(problem) if problem.bc is BoundaryCondition.DIRICHLET else None
    basin = _basin_initial(cfg)
    batch = dataclasses.replace(problem.params, **dict(zip(names, np.array(points).T)))
    final = integrate(dataclasses.replace(problem, params=batch),
                      (cfg.initial_u, cfg.initial_v), cfg.t_end, max_samples=2).final
    idx = problem.closure_idx
    rows = []
    for j, values in enumerate(points):
        row = dict(zip(names, values))
        regime = _classify_problem(dataclasses.replace(problem.params, **row), eigs, lambda: basin)
        margin = min(abs(c.margin) for c in regime.certificates)
        u, v = final.u[idx, j], final.v[idx, j]
        row.update(kind=regime.kind.value, margin=margin, u_min=float(u.min()),
                   u_max=float(u.max()), v_min=float(v.min()), v_max=float(v.max()))
        if regime.predicted is not None and regime.predicted.kind == "constant":
            pred_u, pred_v = regime.predicted.u, regime.predicted.v
            sup_err = max(float(np.max(np.abs(u - pred_u))), float(np.max(np.abs(v - pred_v))))
            row.update(pred_u=pred_u, pred_v=pred_v, sup_err=sup_err)
            if margin > 0.05:
                row["agree"] = "yes" if sup_err <= agree_tol else "no"
            else:
                row["agree"] = "exempt"
        else:
            row.update(pred_u=float("nan"), pred_v=float("nan"), sup_err=float("nan"),
                       agree="exempt")
        rows.append(row)
    out = _ensure_dir(args.out)
    path = os.path.join(out, "sweep.csv")
    columns = list(names) + ["kind", "margin", "pred_u", "pred_v",
                             "u_min", "u_max", "v_min", "v_max", "sup_err", "agree"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = [row[c] if isinstance(row[c], str) else _fmt(row[c]) for c in columns]
            fh.write(",".join(cells) + "\n")
    agree = sum(r["agree"] == "yes" for r in rows)
    exempt = sum(r["agree"] == "exempt" for r in rows)
    mismatch = sum(r["agree"] == "no" for r in rows)
    print(f"wrote {path}: {len(rows)} points, {agree} agree, "
          f"{exempt} exempt, {mismatch} mismatch")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphlv",
        description="Two-species competition dynamics on finite weighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, overrides, config=True, out=None):
        cmd = sub.add_parser(name, help=help_text)
        if config:
            cmd.add_argument("--config", required=True, help="JSON problem description")
        if out is not None:
            cmd.add_argument("--out", default=out, help="output directory")
        if "t_end" in overrides:
            cmd.add_argument("--t-end", type=float, default=None, dest="t_end",
                             help="override the time horizon")
        if "dt" in overrides:
            cmd.add_argument("--dt", type=float, default=None,
                             help="override the time step (default: stability bound)")
        if "tol" in overrides:
            cmd.add_argument("--tol", type=float, default=None, help="override the tolerance")
        return cmd

    add("simulate", "integrate a configured problem and emit trajectory.csv",
        ("t_end", "dt"), out="out")
    add("classify", "print the predicted long-time regime with its margins", (), out="out")
    eigen = add("eigen", "print the smallest absorbing-boundary eigenpairs as CSV", ())
    eigen.add_argument("--out", default=None, help="also write eigen.csv here")
    steady = add("steady", "solve steady states under the absorbing boundary", ("tol",),
                 out="out")
    steady.add_argument("--bounds", action="store_true",
                        help="emit coexistence bounds instead of logistic states")
    reproduce = add("reproduce", "run a built-in example against its known limit",
                    ("t_end", "dt", "tol"), config=False)
    reproduce.add_argument("id", help='one of the built-in case ids, or "all"')
    add("sweep", "classify and simulate over a parameter grid", ("t_end", "tol"), out="out")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads its arguments with, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "simulate": _cmd_simulate,
        "classify": _cmd_classify,
        "eigen": _cmd_eigen,
        "steady": _cmd_steady,
        "reproduce": _cmd_reproduce,
        "sweep": _cmd_sweep,
    }[args.command]
    try:
        return handler(args)
    except NumericalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except GraphLVError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
