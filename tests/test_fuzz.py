"""Randomized CLI runs: every input ends in a documented exit code, in bounded time.

Documents are drawn over the keys of the README config schema on at
most six vertices, with finite horizons of at most 20 and sweep grids
of at most nine points; the time step is either at least 1e-3 or
invalid, so a valid run takes at most 2e4 fixed steps before any
halving. ``reproduce`` overrides include nan, inf and negative values.
``steady``, ``steady --bounds`` and ``classify`` also run on parameters of
magnitude 1e-310 (subnormal), 1e-200, 1e200 and 1e300. Absorbing-boundary
documents, half of them lattices of 150 to 400 vertices (stored as CSR once
the interior has 144 vertices), run through ``eigen``, ``steady``, ``steady
--bounds`` and ``classify``, each solving every eigenpair at most once per
weight structure.
"""

import datetime
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import counted_eigen_solves
from graphlv.cli import main
from graphlv.fixtures import reproduce_ids

EXIT_CODES = {0, 2, 3, 4}
DEADLINE = datetime.timedelta(seconds=10)
VERTICES = [f"x{i}" for i in range(6)]
PARAMS = ("a1", "b1", "c1", "a2", "b2", "c2", "d1", "d2")
INVALID = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0])
MOSTLY_NOT = st.sampled_from([False, False, False, True])

positive = st.floats(0.1, 3.0)
extreme = st.one_of(positive, st.sampled_from([1e-310, 1e-200, 1e200, 1e300]))
time_step = st.one_of(st.floats(1e-3, 1.0), st.floats(-1.0, 0.0),
                      st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def documents(draw, values=positive, conditions=("none", "neumann", "dirichlet")):
    """A config document whose parameters are drawn from ``values`` and whose boundary
    condition is one of ``conditions``."""
    n = draw(st.integers(1, 6))
    names = draw(st.permutations(VERTICES[:n]))
    # mostly a spanning chain plus extra edges; sometimes a disconnected graph
    chain = [[a, b] for a, b in zip(names, names[1:])]
    if draw(MOSTLY_NOT):
        chain = []
    pairs = [[a, b] for i, a in enumerate(names) for b in names[i + 1:] if [a, b] not in chain]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=4, unique_by=tuple)) if pairs else []
    edges = [pair + draw(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=2))
             for pair in chain + extra]
    graph = {"vertices": sorted(names), "edges": edges}
    if draw(st.booleans()):
        graph["measures"] = {s: {v: draw(st.floats(0.5, 5.0)) for v in names}
                             for s in ("1", "2")}
    bc = draw(st.sampled_from(conditions))
    if (bc != "none") != draw(MOSTLY_NOT):
        size = n if draw(MOSTLY_NOT) else max(n - 1, 1)
        graph["interior"] = draw(st.lists(st.sampled_from(names), unique=True, min_size=1,
                                          max_size=size))
    field = st.one_of(st.floats(0.0, 3.0),
                      st.dictionaries(st.sampled_from(names), st.floats(0.0, 3.0)))
    axes = draw(st.lists(st.sampled_from(PARAMS), min_size=1, max_size=2, unique=True))
    grid = st.one_of(st.lists(positive, min_size=1, max_size=9 // 3 ** (len(axes) - 1)),
                     st.fixed_dictionaries({"start": positive, "stop": positive,
                                            "count": st.integers(1, 3)}))
    return {
        "graph": graph,
        "bc": bc,
        "params": {k: draw(values) for k in PARAMS if k[0] != "d" or draw(st.booleans())},
        "initial": {"u": draw(field), "v": draw(field)},
        "t_end": draw(st.floats(-5.0, 0.0) if draw(MOSTLY_NOT) else st.floats(1e-3, 20.0)),
        "dt": draw(time_step if draw(st.booleans()) else st.none()),
        "tol": draw(INVALID if draw(MOSTLY_NOT) else st.floats(1e-12, 1.0)),
        "sweep": {"grid": {k: draw(grid) for k in axes}, "t_end": draw(st.floats(1e-3, 20.0)),
                  "tol": draw(st.floats(1e-6, 1.0)), "max_points": 9},
    }


@st.composite
def absorbing_documents(draw):
    """An absorbing-boundary document and whether both species have one weight structure:
    a small document of ``documents``, or a rows x cols lattice of 150 to 400 vertices
    absorbing on its outer ring (stored as CSR once the interior has 144 vertices), with
    weights drawn from a seed and, half the time, a weight table of species 2's own."""
    if draw(st.booleans()):
        doc = draw(documents(conditions=("dirichlet",)))
        graph = doc["graph"]
        return doc, "measures" not in graph and all(len(e) == 3 for e in graph["edges"])
    rows = draw(st.integers(10, 20))
    cols = draw(st.integers(max(10, -(-150 // rows)), min(20, 400 // rows)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shared = draw(st.booleans())
    name = [[f"r{r}c{c}" for c in range(cols)] for r in range(rows)]
    pairs = [(name[r][c], name[r][c + 1]) for r in range(rows) for c in range(cols - 1)]
    pairs += [(name[r][c], name[r + 1][c]) for r in range(rows - 1) for c in range(cols)]
    weights = rng.uniform(0.5, 1.5, (len(pairs), 1 if shared else 2)).tolist()
    graph = {"vertices": sum(name, []), "edges": [[*p, *w] for p, w in zip(pairs, weights)],
             "interior": [name[r][c] for r in range(1, rows - 1) for c in range(1, cols - 1)]}
    params = {k: draw(positive) for k in PARAMS}
    return {"graph": graph, "bc": "dirichlet", "params": params}, shared


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:    # argparse rejects the command line
        return exc.code


@settings(max_examples=100, deadline=DEADLINE)
@given(doc=documents(),
       command=st.sampled_from(["simulate", "classify", "eigen", "steady", "steady --bounds",
                                "sweep"]))
def test_config_documents_end_in_a_documented_exit_code(doc, command):
    assert _document_exit_code(doc, command) in EXIT_CODES


@settings(max_examples=100, deadline=DEADLINE)
@given(doc=documents(extreme), command=st.sampled_from(["steady", "steady --bounds", "classify"]))
def test_extreme_parameters_end_in_a_documented_exit_code(doc, command):
    with np.errstate(all="ignore"):    # overflow is expected; the exit code reports it
        assert _document_exit_code(doc, command) in EXIT_CODES


@settings(max_examples=100, deadline=DEADLINE)
@given(drawn=absorbing_documents(),
       command=st.sampled_from(["eigen", "steady", "steady --bounds", "classify"]))
def test_absorbing_documents_solve_each_eigenpair_once(drawn, command):
    doc, shared = drawn
    with pytest.MonkeyPatch.context() as mp:
        calls = counted_eigen_solves(mp)
        assert _document_exit_code(doc, command) in {0, 2, 3}
    assert calls in ([], [1], [1, 2]) and not (shared and 2 in calls)


def _document_exit_code(doc, command) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return _exit_code([*command.split(), "--config", path,
                           "--out", os.path.join(tmp, "out")])


@settings(max_examples=50, deadline=DEADLINE)
@given(case=st.sampled_from(reproduce_ids()),
       t_end=st.one_of(st.floats(1e-3, 20.0), st.floats(-20.0, 0.0), INVALID),
       tol=st.one_of(st.none(), st.floats(1e-12, 1.0), INVALID),
       dt=st.one_of(st.none(), time_step))
def test_reproduce_overrides_end_in_a_documented_exit_code(case, t_end, tol, dt):
    argv = ["reproduce", case, f"--t-end={t_end!r}"]
    argv += [f"--{name}={value!r}" for name, value in (("tol", tol), ("dt", dt))
             if value is not None]
    assert _exit_code(argv) in EXIT_CODES
