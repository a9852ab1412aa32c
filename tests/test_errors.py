"""Malformed library inputs raise InputError, not a bare Python exception."""

import numpy as np
import pytest

from graphlv import (
    CompetitionParams,
    Problem,
    build_graph,
    classify_bistable_basin,
    constant_pair,
    field_array,
    monotone_solve,
    verify_coupled_pair,
)
from graphlv.errors import InputError
from graphlv.fixtures import triangle_example

SET_I = CompetitionParams(a1=1.0, b1=2.0, c1=2.0, a2=1.0, b2=1.0, c2=1.0)
SET_IV = CompetitionParams(a1=2.0, b1=1.0, c1=3.0, a2=1.0, b2=1.0, c2=1.0)
PAIR = constant_pair((2.0, 3.0), (0.0, 0.0), t_end=1.0)
INSIDE = (np.ones(3), np.ones(3))
GRID = np.array([0.0, 0.5, 1.0])


def _problem():
    return Problem(triangle_example(), SET_I)


CASES = {
    "field-mapping-text": lambda: field_array(triangle_example(), {"x1": "abc"}),
    "field-scalar-text": lambda: field_array(triangle_example(), "abc"),
    "field-list-text": lambda: field_array(triangle_example(), ["a", "b", "c"]),
    "edge-pair-without-weight": lambda: build_graph(["a", "b"], [("a", "b")]),
    "edge-not-a-triple": lambda: build_graph(["a", "b"], [1.0]),
    "basin-all-nan": lambda: classify_bistable_basin(SET_IV, (np.full(3, np.nan),
                                                             np.full(3, np.nan))),
    "solve-zero-substep": lambda: monotone_solve(_problem(), PAIR, INSIDE, GRID, substep=0.0),
    "solve-nan-substep": lambda: monotone_solve(_problem(), PAIR, INSIDE, GRID,
                                                substep=np.nan),
    "solve-text-substep": lambda: monotone_solve(_problem(), PAIR, INSIDE, GRID, substep="x"),
    "solve-nan-shift": lambda: monotone_solve(_problem(), PAIR, INSIDE, GRID, m_const=np.nan),
    "solve-inf-shift": lambda: monotone_solve(_problem(), PAIR, INSIDE, GRID, m_const=np.inf),
    "solve-text-shift": lambda: monotone_solve(_problem(), PAIR, INSIDE, GRID, m_const="x"),
    "solve-fractional-iterations": lambda: monotone_solve(_problem(), PAIR, INSIDE, GRID,
                                                          max_iters=2.5),
    "solve-zero-iterations": lambda: monotone_solve(_problem(), PAIR, INSIDE, GRID,
                                                    max_iters=0),
    "solve-negative-iterations": lambda: monotone_solve(_problem(), PAIR, INSIDE, GRID,
                                                        max_iters=-3),
    "solve-nan-tol": lambda: monotone_solve(_problem(), PAIR, INSIDE, GRID, tol=np.nan),
    "solve-negative-tol": lambda: monotone_solve(_problem(), PAIR, INSIDE, GRID, tol=-1.0),
    "verify-text-grid": lambda: verify_coupled_pair(_problem(), PAIR, ["a"]),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_malformed_input_is_an_input_error(call):
    with pytest.raises(InputError):
        call()
