"""Seeded inputs, user-facing operations and output checks per workload.

`generate` runs in the benchmark's parent process and needs only numpy:
it turns a workload name and a seed into JSON documents. Everything
else runs in the measured child process, which imports graphlv. Each
workload is a list of operations; an operation's `run` is the timed,
user-facing call and its `check` runs afterwards, outside the timed
region, and returns an error string or None.

The seed changes edge weights and initial data but never the amount of
work: initial data stay below the kinetic carrying capacities, so the
invariant rectangle, and with it the stable step, does not depend on
the seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("ensemble-tiny", "lattice-neumann-simulate", "lattice-dirichlet-steady")

# Regime-sweep document of scripts/regime_sweep.py. With b = (2, 1) and
# c = (1, 2) the axis values {0.5, 1, 2} put rows on both decision lines
# a1/a2 = 2 and 1/2, and in the u-wins, v-wins and coexistence regimes.
SWEEP_PARAMS = {"a1": 1.0, "b1": 2.0, "c1": 1.0, "a2": 1.0, "b2": 1.0, "c2": 2.0}
SWEEP_AXES = {"a1": [0.5, 1.0, 2.0], "a2": [0.5, 1.0, 2.0]}
SWEEP_T_END = 200.0
REPRODUCE_CASES = 10

PARAM_SET_III = {"a1": 2.0, "b1": 1.0, "c1": 1.0, "a2": 3.0, "b2": 1.0, "c2": 2.0}
BOUNDS_PARAMS = {"a1": 2.0, "b1": 1.0, "c1": 0.05, "a2": 2.0, "b2": 0.05, "c2": 1.0,
                 "d1": 0.1, "d2": 0.1}

# Sizes per scale; "smoke" is the reduced size the smoke test runs.
SCALES = {
    "full": {"sweep_a2": SWEEP_AXES["a2"], "neumann_side": 40, "neumann_t_end": 3.0,
             "dirichlet_side": 30},
    "smoke": {"sweep_a2": [1.0], "neumann_side": 8, "neumann_t_end": 0.5,
              "dirichlet_side": 8},
}

MONOTONE_GRID = [0.0, 0.005, 0.01]
MONOTONE_SUBSTEP = 5e-4
REFERENCE_DT = 1e-4


# ---------------------------------------------------------------------------
# input generation (parent process)
# ---------------------------------------------------------------------------

def _lattice(side: int, rng: np.random.Generator, weights: tuple[float, float]) -> dict:
    """side x side four-neighbour lattice; the interior is everything off the outer ring."""
    name = [[f"r{r}c{c}" for c in range(side)] for r in range(side)]
    edges = []
    for r in range(side):
        for c in range(side):
            for rr, cc in ((r, c + 1), (r + 1, c)):
                if rr < side and cc < side:
                    edges.append([name[r][c], name[rr][cc], float(rng.uniform(*weights))])
    interior = [name[r][c] for r in range(1, side - 1) for c in range(1, side - 1)]
    return {"vertices": [v for row in name for v in row], "edges": edges, "interior": interior}


def _initial(vertices, rng, high: float, zero=()) -> dict:
    """Positive values in [0.1 high, high) with one vertex pinned at high.

    Pinning the maximum keeps max(u0) fixed across seeds; with `high` at
    or below the carrying capacity the invariant rectangle is seed-free.
    """
    values = rng.uniform(0.1 * high, high, len(vertices))
    values[rng.integers(len(vertices))] = high
    out = {v: float(x) for v, x in zip(vertices, values)}
    out.update({v: 0.0 for v in zero})
    return out


def generate(workload: str, seed: int, scale: str = "full") -> dict[str, dict]:
    """The workload's JSON documents, a pure function of (workload, seed, scale)."""
    size = SCALES[scale]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "ensemble-tiny":
        triangle = ["x1", "x2", "x3"]
        return {"sweep": {
            "graph": {"vertices": triangle,
                      "edges": [["x1", "x2", 1.0], ["x2", "x3", 1.0], ["x1", "x3", 1.0]]},
            "bc": "none",
            "params": dict(SWEEP_PARAMS),
            "initial": {"u": _initial(triangle, rng, 1.0), "v": _initial(triangle, rng, 1.0)},
            "sweep": {"grid": {"a1": SWEEP_AXES["a1"], "a2": size["sweep_a2"]},
                      "t_end": SWEEP_T_END, "tol": 1e-2, "max_points": 200},
        }}
    if workload == "lattice-neumann-simulate":
        graph = _lattice(size["neumann_side"], rng, (0.5, 1.5))
        p = PARAM_SET_III
        return {"simulate": {
            "graph": graph, "bc": "neumann", "params": dict(p),
            "initial": {"u": _initial(graph["vertices"], rng, p["a1"] / p["b1"]),
                        "v": _initial(graph["vertices"], rng, p["a2"] / p["c2"])},
            "t_end": size["neumann_t_end"],
        }}
    if workload == "lattice-dirichlet-steady":
        graph = _lattice(size["dirichlet_side"], rng, (0.8, 1.2))
        p = BOUNDS_PARAMS
        boundary = sorted(set(graph["vertices"]) - set(graph["interior"]))
        return {"steady": {
            "graph": graph, "bc": "dirichlet", "params": dict(p),
            "initial": {"u": _initial(graph["interior"], rng, p["a1"] / p["b1"], boundary),
                        "v": _initial(graph["interior"], rng, p["a2"] / p["c2"], boundary)},
        }}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# operations and checks (measured child process)
# ---------------------------------------------------------------------------

@dataclass
class Context:
    """What one run's operations share: inputs, a fault switch and caches."""

    docs: dict[str, dict]
    doc_paths: dict[str, str]
    fault: bool
    cache: dict           # per run: oracles and references, computed once
    shared: dict          # per repetition: values one operation hands the next


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    out: str | None = None    # directory whose CSV files the call wrote


def _cli(argv) -> tuple[int, str]:
    """graphlv.cli.main with stdout captured; looked up per call so tracing sees it."""
    import graphlv.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = graphlv.cli.main(list(argv))
        except SystemExit as exc:       # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def _csv_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def setup_documents(workload: str, docs: dict[str, dict]) -> list[dict]:
    """The distinct documents a workload turns into solver-ready problems."""
    if workload != "ensemble-tiny":
        return list(docs.values())
    base = docs["sweep"]
    grid = base["sweep"]["grid"]
    points = []
    for a1 in grid["a1"]:
        for a2 in grid["a2"]:
            point = {k: v for k, v in base.items() if k != "sweep"}
            point["params"] = {**base["params"], "a1": a1, "a2": a2}
            points.append(point)
    return [base] + points


def setup(docs: list[dict]) -> None:
    """Parse each document and assemble its reduced diffusion operators."""
    import graphlv.config
    import graphlv.dynamics

    for doc in docs:
        graphlv.dynamics.reduced_operators(graphlv.config.problem_from_document(doc))


def operations(workload: str, ctx: Context, rep_dir: str) -> list[Op]:
    build = {"ensemble-tiny": _ensemble_ops,
             "lattice-neumann-simulate": _neumann_ops,
             "lattice-dirichlet-steady": _dirichlet_ops}[workload]
    return build(ctx, rep_dir)


def _ensemble_ops(ctx: Context, rep_dir: str) -> list[Op]:
    from graphlv.classify import classify_neumann
    from graphlv.dynamics import CompetitionParams

    def check_reproduce(result):
        code, text = result
        if code != 0:
            return f"reproduce all exited {code}"
        passed = len(re.findall(r"^\S+: PASS ", text, re.M))
        want = REPRODUCE_CASES + (1 if ctx.fault else 0)
        return None if passed == want else f"{passed} PASS lines, expected {want}"

    out = os.path.join(rep_dir, "sweep")
    doc = ctx.docs["sweep"]

    def check_sweep(result):
        code, _ = result
        if code != 0:
            return f"sweep exited {code}"
        rows = _csv_rows(os.path.join(out, "sweep.csv"))
        grid = doc["sweep"]["grid"]
        if len(rows) != len(grid["a1"]) * len(grid["a2"]):
            return f"sweep.csv has {len(rows)} rows"
        for row in rows:
            if row["agree"] == "no":
                return f"agree=no at a1={row['a1']} a2={row['a2']}"
            params = {**doc["params"], "a1": float(row["a1"]), "a2": float(row["a2"])}
            kind = classify_neumann(CompetitionParams(**params)).kind.value
            if row["kind"] != kind:
                return f"kind {row['kind']} at a1={row['a1']} a2={row['a2']}, expected {kind}"
        return None

    return [
        Op("reproduce-all", lambda: _cli(["reproduce", "all"]), check_reproduce),
        Op("sweep", lambda: _cli(["sweep", "--config", ctx.doc_paths["sweep"], "--out", out]),
           check_sweep, out),
    ]


def _neumann_ops(ctx: Context, rep_dir: str) -> list[Op]:
    from graphlv.config import config_from_document
    from graphlv.dynamics import invariant_rectangle
    from graphlv.graphs import field_array

    out = os.path.join(rep_dir, "simulate")
    doc = ctx.docs["simulate"]

    def check_simulate(result):
        code, _ = result
        if code != 0:
            return f"simulate exited {code}"
        if "rectangle" not in ctx.cache:
            cfg = config_from_document(doc)
            closure = cfg.problem.closure_idx
            u0 = field_array(cfg.problem.graph, cfg.initial_u)[closure]
            v0 = field_array(cfg.problem.graph, cfg.initial_v)[closure]
            ctx.cache["rectangle"] = invariant_rectangle(cfg.problem.params, u0, v0)
        m_u, m_v = (0.0, 0.0) if ctx.fault else ctx.cache["rectangle"]
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            final = json.load(fh)["final"]
        u = np.array(list(final["u"].values()))
        v = np.array(list(final["v"].values()))
        if min(u.min(), v.min()) < 0.0:
            return "final state is negative"
        if u.max() > m_u + 1e-9 or v.max() > m_v + 1e-9:
            return f"final state leaves [0, {m_u:.6g}] x [0, {m_v:.6g}]"
        with open(os.path.join(out, "trajectory.csv"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        first = ctx.cache.setdefault("trajectory_sha256", digest)
        return None if digest == first else "trajectory.csv differs between repetitions"

    return [Op("simulate",
               lambda: _cli(["simulate", "--config", ctx.doc_paths["simulate"], "--out", out]),
               check_simulate, out)]


def _dirichlet_ops(ctx: Context, rep_dir: str) -> list[Op]:
    import scipy.linalg

    import graphlv.config
    import graphlv.dynamics
    import graphlv.graphs
    import graphlv.monotone
    from graphlv.config import problem_from_document
    from graphlv.dynamics import integrate
    from graphlv.graphs import dirichlet_blocks

    doc = ctx.docs["steady"]
    path = ctx.doc_paths["steady"]
    p = doc["params"]
    out = {name: os.path.join(rep_dir, name) for name in ("eigen", "steady", "bounds")}
    grid = np.array(MONOTONE_GRID)

    def problem():
        if "problem" not in ctx.cache:
            ctx.cache["problem"] = problem_from_document(doc)
        return ctx.cache["problem"]

    def blocks(species):
        prob = problem()
        return dirichlet_blocks(prob.graph, species, prob.partition)[0]

    def check_eigen(result):
        code, _ = result
        if code != 0:
            return f"eigen exited {code}"
        if "lambda0" not in ctx.cache:
            # dense oracle, as acceptance criterion 2 computes it
            want = []
            for species in (1, 2):
                prob = problem()
                root = np.sqrt(prob.graph.measure(species)[prob.partition.interior_idx])
                sym = root[:, None] * (-blocks(species)) / root[None, :]
                want.append(float(scipy.linalg.eigvalsh(sym, subset_by_index=[0, 0])[0]))
            ctx.cache["lambda0"] = want
        with open(os.path.join(out["eigen"], "eigen.csv"), encoding="utf-8") as fh:
            got = [float(line.split("=")[1]) for line in fh if line.startswith("# lambda0_")]
        for species, (g, w) in enumerate(zip(got, ctx.cache["lambda0"]), start=1):
            w += 1e-6 if ctx.fault else 0.0
            if abs(g - w) > 1e-10:
                return f"lambda0_{species} = {g!r}, dense oracle {w!r}"
        return None if len(got) == 2 else f"eigen.csv has {len(got)} eigenvalues"

    def check_steady(result):
        code, _ = result
        if code != 0:
            return f"steady exited {code}"
        rows = _csv_rows(os.path.join(out["steady"], "steady.csv"))
        order = {v: k for k, v in enumerate(problem().partition.interior)}
        if sorted(order[r["vertex"]] for r in rows) != list(range(len(order))):
            return "steady.csv does not cover the interior"
        rows.sort(key=lambda r: order[r["vertex"]])
        for species, (d, a, e) in ((1, (p["d1"], p["a1"], p["b1"])),
                                   (2, (p["d2"], p["a2"], p["c2"]))):
            s = np.array([float(r[f"s{species}"]) for r in rows])
            residual = float(np.max(np.abs(d * (blocks(species) @ s) + s * (a - e * s))))
            if residual > 1e-10:
                return f"steady residual {residual:.3e} for species {species} above 1e-10"
        return None

    def check_bounds(result):
        code, text = result
        if code != 0:
            return f"steady --bounds exited {code}"
        if "unique (bounds collapse)" not in text:
            return "bounds not flagged unique"
        # the CLI marches to tol 1e-10; a collapsed pair may cross by roundoff
        for row in _csv_rows(os.path.join(out["bounds"], "coexistence_bounds.csv")):
            if (float(row["s_lo"]) > float(row["s_hi"]) + 1e-9
                    or float(row["r_lo"]) > float(row["r_hi"]) + 1e-9):
                return f"bounds out of order at {row['vertex']}"
        return None

    def solve():
        # module attributes, not names bound here, so that tracing sees the calls
        cfg = graphlv.config.config_from_document(doc)
        prob = cfg.problem
        u0 = graphlv.graphs.field_array(prob.graph, cfg.initial_u)
        v0 = graphlv.graphs.field_array(prob.graph, cfg.initial_v)
        closure = prob.closure_idx
        rectangle = graphlv.dynamics.invariant_rectangle(prob.params, u0[closure], v0[closure])
        pair = graphlv.monotone.constant_pair(rectangle, (0.0, 0.0),
                                              t0=float(grid[0]), t_end=float(grid[-1]))
        ctx.shared.update(problem=prob, pair=pair, initial=(u0, v0))
        return graphlv.monotone.monotone_solve(prob, pair, (u0, v0), grid,
                                               substep=MONOTONE_SUBSTEP)

    def check_solve(sol):
        slack = sol.metadata["min_sandwich_slack"]
        if slack < -1e-12:
            return f"sandwich slack {slack:.3e} below -1e-12"
        if "reference" not in ctx.cache:
            # fixed-step integrator reference, as acceptance criterion 4 uses
            ctx.cache["reference"] = integrate(ctx.shared["problem"], ctx.shared["initial"],
                                               t_end=float(grid[-1] - grid[0]), dt=REFERENCE_DT,
                                               forced_times=tuple(grid[1:-1] - grid[0]))
        ref = ctx.cache["reference"]
        for t, state in zip(sol.times, sol.states):
            j = int(np.argmin(np.abs(ref.times - (t - grid[0]))))
            diff = max(float(np.max(np.abs(state.u - ref.states[j].u))),
                       float(np.max(np.abs(state.v - ref.states[j].v))))
            if abs(ref.times[j] - (t - grid[0])) > 1e-9 or diff > 1e-6:
                return f"monotone solution differs from the integrator by {diff:.3e} at t={t}"
        return None

    def verify():
        return graphlv.monotone.verify_coupled_pair(ctx.shared["problem"], ctx.shared["pair"],
                                                    grid, initial=ctx.shared["initial"])

    def check_verify(report):
        return None if report.passed else "pair fails %s with slack %.3e" % report.worst()

    return [
        Op("eigen", lambda: _cli(["eigen", "--config", path, "--out", out["eigen"]]),
           check_eigen, out["eigen"]),
        Op("steady", lambda: _cli(["steady", "--config", path, "--out", out["steady"]]),
           check_steady, out["steady"]),
        Op("steady-bounds",
           lambda: _cli(["steady", "--bounds", "--config", path, "--out", out["bounds"]]),
           check_bounds, out["bounds"]),
        Op("monotone-solve", solve, check_solve),
        Op("verify-pair", verify, check_verify),
    ]
