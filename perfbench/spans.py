"""Spans around the calls into each graphlv module, and the layer metrics.

The traced run replaces each public function listed in LAYERS, wherever
a graphlv module binds it (``graphlv.cli.integrate`` and
``graphlv.monotone.integrate`` are the same function bound twice), by a
wrapper that records a span: name, start, end and the span that was open
when it was called. The program's source is not edited.

Spans are kept in memory. A forked pool worker of the sweep inherits the
wrappers and the open span stack, so its spans name the parent process's
``cli.main`` span as parent; the worker appends each finished top-level
span to a file in ``spill_dir``, which the measured process reads once
the repetition ends.

A span's self time is its duration minus the part of it that its child
spans cover, counting the union of the children's intervals once, so
two pool workers running at the same time under one ``cli.main`` are not
subtracted twice.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import sys
import time

LAYERS = {
    "config": ("load_document", "problem_from_document", "config_from_document",
               "sweep_spec_from_document"),
    "graphs": ("build_graph", "boundary_of", "dirichlet_blocks", "whole_laplacian"),
    "dynamics": ("integrate", "reduced_operators", "stable_dt"),
    "spectral": ("smallest_dirichlet_eigenpair",),
    "classify": ("classify_neumann", "classify_dirichlet", "classify_bistable_basin",
                 "eigenpairs_for", "predicted_limit"),
    "monotone": ("logistic_steady_state", "coexistence_bounds", "monotone_solve",
                 "verify_coupled_pair"),
    "fixtures": ("run_reproduce",),
    "cli": ("main",),
}

MIB = 2.0 ** 20


def _array_bytes(x) -> int:
    """Storage of a dense array or of a scipy.sparse matrix's index and value arrays."""
    if x is None:
        return 0
    parts = [getattr(x, name, None) for name in ("data", "indices", "indptr")]
    if all(hasattr(part, "nbytes") for part in parts):
        return sum(part.nbytes for part in parts)
    return int(x.nbytes)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _attributes(name: str, args, kwargs, result) -> dict:
    """Counts read from the records the call already returns."""
    if name == "dynamics.integrate":
        meta = result.metadata
        return {"steps": meta["n_steps"], "halvings": meta["n_halvings"],
                "clamped": meta["n_clamped"], "t_span": float(_arg(args, kwargs, 2, "t_end"))}
    if name == "dynamics.reduced_operators":
        return {"matvec_bytes": _array_bytes(result.red1) + _array_bytes(result.red2),
                "storage_bytes": sum(_array_bytes(getattr(result, f)) for f in
                                     ("red1", "red2", "proj1", "proj2"))}
    if name == "spectral.smallest_dirichlet_eigenpair":
        return {"residual": float(result.residual)}
    if name == "monotone.logistic_steady_state":
        return {"iterations": int(result.iterations)}
    if name == "monotone.coexistence_bounds":
        return {"march_time": float(sum(result.info["march_times"]))}
    if name == "monotone.monotone_solve":
        return {"iterations": int(result.metadata["iterations"]),
                "n_fine": int(result.metadata["n_fine"])}
    if name == "fixtures.run_reproduce":
        return {"t_reached": float(result.t_reached)}
    return {}


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.count = 0
        self.active = False

    def call(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        if os.getpid() != self.pid:     # first span in a forked worker
            self.pid = os.getpid()
            self.spans = []
        self.count += 1
        span_id = f"{self.pid}:{self.count}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        start = time.perf_counter()
        error = None
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            span = {"id": span_id, "parent": parent, "name": name, "pid": self.pid,
                    "start": start, "end": end}
            if error is None:
                span.update(_attributes(name, args, kwargs, result))
            else:
                span["error"] = error
            self.spans.append(span)
            if parent is not None and not parent.startswith(f"{self.pid}:"):
                self._spill()
        return result

    def _spill(self) -> None:
        path = os.path.join(self.spill_dir, f"{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> list[dict]:
        """This process's spans plus those pool workers spilled, then reset."""
        spans = self.spans
        for path in sorted(glob.glob(os.path.join(self.spill_dir, "*.jsonl"))):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh)
            os.unlink(path)
        self.spans = []
        return spans


def _wrap(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs)
    return wrapper


def install(recorder: Recorder) -> list[tuple]:
    """Bind a wrapper in place of each listed function in every graphlv module."""
    wrappers = {}
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"graphlv.{layer}")
        for fname in names:
            fn = getattr(module, fname)
            wrappers[id(fn)] = (fn, _wrap(recorder, f"{layer}.{fname}", fn))
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "graphlv" and not modname.startswith("graphlv."):
            continue
        for attr, value in list(vars(module).items()):
            if callable(value) and id(value) in wrappers and wrappers[id(value)][0] is value:
                setattr(module, attr, wrappers[id(value)][1])
                patched.append((module, attr, value))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for module, attr, original in patched:
        setattr(module, attr, original)


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    children: dict[str, list] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = _union_length((max(c["start"], start), min(c["end"], end))
                                for c in children.get(span["id"], ())
                                if c["end"] > start and c["start"] < end)
        out[span["id"]] = (end - start) - covered
    return out


def layer_metrics(spans: list[dict], main_pid: int) -> dict[str, float]:
    """Per-layer counts and self times of one traced repetition."""
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def count(*names):
        return len(named(*names))

    def self_s(*names):
        return sum(own[s["id"]] for s in named(*names))

    def total(key, *names):
        return sum(s.get(key, 0) for s in named(*names))

    def layer(prefix):
        return [n for n in by_name if n.startswith(prefix + ".")]

    ops_of = {s["parent"]: s for s in named("dynamics.reduced_operators")}
    integrations = named("dynamics.integrate")
    steps = total("steps", "dynamics.integrate")
    halvings = total("halvings", "dynamics.integrate")
    attempts = steps + halvings
    matvec_bytes = sum(4 * (s["steps"] + s["halvings"]) * ops_of[s["id"]]["matvec_bytes"]
                       for s in integrations if "steps" in s and s["id"] in ops_of)
    operator_bytes = max((s.get("storage_bytes", 0) for s in named("dynamics.reduced_operators")),
                         default=0)
    integrate_s = self_s("dynamics.integrate")
    t_span = total("t_span", "dynamics.integrate")
    solve_iters = total("iterations", "monotone.monotone_solve")
    solve_s = self_s("monotone.monotone_solve")
    return {
        "config.parse_calls": count("config.problem_from_document"),
        "config.parse_s": self_s(*layer("config")),
        "graphs.build_calls": count("graphs.build_graph"),
        "graphs.build_s": self_s("graphs.build_graph", "graphs.boundary_of"),
        "graphs.blocks_calls": count("graphs.dirichlet_blocks", "graphs.whole_laplacian"),
        "graphs.blocks_s": self_s("graphs.dirichlet_blocks", "graphs.whole_laplacian"),
        "graphs.matvec_bytes_computed": matvec_bytes,
        "graphs.operator_mib_computed": operator_bytes / MIB,
        "dynamics.integrate_calls": len(integrations),
        "dynamics.integrate_s": integrate_s,
        "dynamics.steps": steps,
        "dynamics.halvings": halvings,
        "dynamics.clamped": total("clamped", "dynamics.integrate"),
        "dynamics.accept_ratio": steps / attempts if attempts else 0.0,
        "dynamics.steps_per_time": steps / t_span if t_span else 0.0,
        "dynamics.rhs_evals": 4 * attempts,
        "dynamics.step_us": 1e6 * integrate_s / attempts if attempts else 0.0,
        "dynamics.operators_calls": count("dynamics.reduced_operators"),
        "dynamics.operators_s": self_s("dynamics.reduced_operators"),
        "dynamics.stable_dt_s": self_s("dynamics.stable_dt"),
        "spectral.eigen_calls": count("spectral.smallest_dirichlet_eigenpair"),
        "spectral.eigen_s": self_s("spectral.smallest_dirichlet_eigenpair"),
        "spectral.eigen_residual_max": max(
            (s.get("residual", 0.0) for s in named("spectral.smallest_dirichlet_eigenpair")),
            default=0.0),
        "classify.calls": count(*layer("classify")),
        "classify.s": self_s(*layer("classify")),
        "monotone.logistic_calls": count("monotone.logistic_steady_state"),
        "monotone.logistic_s": self_s("monotone.logistic_steady_state"),
        "monotone.logistic_iters": total("iterations", "monotone.logistic_steady_state"),
        "monotone.bounds_s": self_s("monotone.coexistence_bounds"),
        "monotone.march_time": total("march_time", "monotone.coexistence_bounds"),
        "monotone.solve_s": solve_s,
        "monotone.solve_iters": solve_iters,
        "monotone.solve_s_per_iter": solve_s / solve_iters if solve_iters else 0.0,
        "monotone.n_fine": total("n_fine", "monotone.monotone_solve"),
        "monotone.verify_pair_s": self_s("monotone.verify_coupled_pair"),
        "fixtures.reproduce_s": self_s("fixtures.run_reproduce"),
        "fixtures.t_reached_sum": total("t_reached", "fixtures.run_reproduce"),
        "cli.self_s": self_s("cli.main"),
        "trace.spans": len(spans),
        "trace.worker_spans": sum(s["pid"] != main_pid for s in spans),
    }
