"""Bundled example graphs and the long-time reproduction harness."""

import numpy as np
import pytest

from graphlv import BoundaryCondition, RegimeKind, classify_bistable_basin, classify_neumann
from graphlv import dynamics
from graphlv.errors import InputError, StepSizeUnstable, UnknownExample
from graphlv.fixtures import get_case, reproduce_ids, run_reproduce

ALL_IDS = [
    "neumann-i", "neumann-ii", "neumann-iii", "neumann-iv-a", "neumann-iv-b",
    "graph-i", "graph-ii", "graph-iii", "graph-iv-a", "graph-iv-b",
]


def test_id_listing_is_stable():
    assert reproduce_ids() == ALL_IDS


def test_unknown_id_lists_choices():
    with pytest.raises(UnknownExample, match="neumann-i"):
        get_case("not-a-case")


def test_case_shapes():
    for case_id in ALL_IDS:
        case = get_case(case_id)
        assert case.case_id == case_id
        assert case.description
        if case_id.startswith("neumann"):
            assert case.problem.bc is BoundaryCondition.NEUMANN
            assert case.problem.partition.interior == ("x1", "x2", "x3")
        else:
            assert case.problem.bc is BoundaryCondition.NO_BOUNDARY
            assert case.problem.graph.n == 3
        assert set(case.initial_u) == {"x1", "x2", "x3"}


def test_expected_limits_match_classification():
    for case_id in ALL_IDS:
        case = get_case(case_id)
        params = case.problem.params
        regime = classify_neumann(params)
        if regime.kind is RegimeKind.BISTABLE:
            u0 = np.array([case.initial_u[x] for x in ("x1", "x2", "x3")])
            v0 = np.array([case.initial_v[x] for x in ("x1", "x2", "x3")])
            regime = classify_bistable_basin(params, (u0, v0))
        assert regime.predicted is not None, case_id
        assert (regime.predicted.u, regime.predicted.v) == case.expected


@pytest.mark.parametrize("case_id", ["neumann-i", "graph-iii", "neumann-iv-b"])
def test_reproduce_reaches_the_limit(case_id):
    result = run_reproduce(case_id, tol=1e-3, t_max=100.0)
    assert result.passed
    assert result.error <= 1e-3
    assert result.t_reached <= 100.0
    expected_u, expected_v = result.expected
    assert np.all(np.abs(result.final.u - expected_u) <= 1e-3)
    assert np.all(np.abs(result.final.v - expected_v) <= 1e-3)


def test_reproduce_fails_honestly_when_cut_short():
    result = run_reproduce("neumann-i", tol=1e-6, t_max=1.0)
    assert not result.passed
    assert result.error > 1e-6


def test_reproduce_builds_the_operators_once(monkeypatch):
    calls = []
    build = dynamics.reduced_operators
    monkeypatch.setattr(dynamics, "reduced_operators",
                        lambda problem: calls.append(problem) or build(problem))
    result = run_reproduce("neumann-i", tol=1e-8, t_max=100.0)
    assert result.passed and result.t_reached > 10.0
    assert len(calls) == 1


def test_reproduce_step_budget_spans_windows(monkeypatch):
    # each 10-unit window fits the budget on its own; the run as a whole does not
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 2000)
    with pytest.raises(StepSizeUnstable):
        run_reproduce("neumann-i", tol=1e-20, t_max=1000.0)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_reproduce_tolerance_validated(tol):
    with pytest.raises(InputError):
        run_reproduce("neumann-i", tol=tol)
