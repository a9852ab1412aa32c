"""Bundled example graphs and the long-time reproduction harness."""

import math
import time

import numpy as np
import pytest
from conftest import capped_rk4_windows

from graphlv import BoundaryCondition, RegimeKind, classify_bistable_basin, classify_neumann
from graphlv import dynamics, fixtures
from graphlv.cli import main
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
    # each 10-unit window fits the budget on its own; the run as a whole does not. A window
    # needs its steps and, before it starts, room for 10 / dt steps of the stability cap.
    case = get_case("neumann-i")
    initial = dynamics._coerce_initial(case.problem, (case.initial_u, case.initial_v))
    spent = need_alone = need_run = 0
    for _, (traj,) in dynamics._windows((case.problem,), (initial,), 10.0, 1000.0,
                                        max_samples=2):
        need = max(traj.metadata["n_steps"], math.ceil(10.0 / traj.metadata["dt"]))
        need_alone = max(need_alone, need)
        need_run = max(need_run, spent + need)
        spent += traj.metadata["n_steps"]
    assert need_run > need_alone
    monkeypatch.setattr(dynamics, "_MAX_STEPS", need_alone)
    with pytest.raises(StepSizeUnstable):
        run_reproduce("neumann-i", tol=1e-20, t_max=1000.0)


def test_reproduce_wall_time_budget(monkeypatch):
    # the step budget alone would take many minutes to spend on this run; cut to a few
    # seconds' worth, so that a missing clock check fails here instead of hanging
    monkeypatch.setattr(dynamics, "_MAX_SECONDS", 0.2)
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 20_000)
    started = time.perf_counter()
    with pytest.raises(StepSizeUnstable, match="wall-time budget"):
        run_reproduce("neumann-i", tol=1e-20, t_max=1e9)
    assert time.perf_counter() - started < 5.0


def test_reproduce_all_spends_a_third_of_the_rk4_work(monkeypatch):
    # against fixed RK4 steps of each window's stability cap, in the same windows
    def capped(problems, initials, window, t_max, dt, max_samples, settled):
        (problem,), (initial,) = problems, initials     # one case: one block of one column
        for t_done, traj in capped_rk4_windows(problem, initial, window, t_max,
                                               max_samples=max_samples):
            yield t_done, (traj,)
            if t_done < t_max and settled((traj.final,)).all():
                return

    def spent(windows):
        counts = []

        def counted(*args, **kwargs):
            for t_done, trajs in windows(*args, **kwargs):
                counts.append(trajs[0].metadata["n_rhs"])
                yield t_done, trajs

        monkeypatch.setattr(fixtures, "_windows", counted)
        reached = [run_reproduce(case_id).t_reached for case_id in ALL_IDS]
        return sum(counts), reached

    adaptive, reached = spent(dynamics._windows)
    fixed, fixed_reached = spent(capped)
    assert reached == fixed_reached
    assert 3 * adaptive <= fixed


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_reproduce_tolerance_validated(tol):
    with pytest.raises(InputError):
        run_reproduce("neumann-i", tol=tol)


def test_batch_matches_solo_runs():
    # a batch shares one step across its columns, so errors move at the step control's level
    for batched, case_id in zip(fixtures._run_cases(ALL_IDS), ALL_IDS):
        solo = run_reproduce(case_id)
        assert batched.case_id == case_id
        assert batched.passed and batched.t_reached == solo.t_reached
        assert abs(batched.error - solo.error) <= 1e-9
        assert np.abs(batched.final.u - solo.final.u).max() <= 1e-9
        assert np.abs(batched.final.v - solo.final.v).max() <= 1e-9


def test_reproduce_all_runs_one_batch(monkeypatch, capsys):
    # both fixture graphs have 3 active vertices, so all ten cases step together: one
    # _windows run, one block of five columns per graph, each graph's operators built once
    builds, runs, counts = [], [], []
    build, windows = dynamics.reduced_operators, dynamics._windows

    def counted(problems, *args, **kwargs):
        runs.append([problem.params.a1.size for problem in problems])
        for t_done, trajs in windows(problems, *args, **kwargs):
            counts.append(trajs[0].metadata["n_rhs"])
            yield t_done, trajs

    monkeypatch.setattr(dynamics, "reduced_operators",
                        lambda problem: builds.append(problem) or build(problem))
    monkeypatch.setattr(fixtures, "_windows", counted)
    assert main(["reproduce", "all"]) == 0
    assert capsys.readouterr().out.count(": PASS ") == len(ALL_IDS)
    assert runs == [[5, 5]]
    assert [problem.params.a1.size for problem in builds] == [5, 5]
    assert sum(counts) <= 1000


def test_settled_columns_are_not_stepped(monkeypatch):
    # neumann-i settles after the first window and neumann-iii after the second: the second
    # window evaluates the right-hand side on one column only
    widths, ends = [], []
    kinetics, windows = dynamics._kinetics, fixtures._windows

    def counted(y, a, b, c):
        widths.append(np.shape(y)[2])       # y is the (2, n_act, columns) pair
        return kinetics(y, a, b, c)

    def recorded(*args, **kwargs):
        for t_done, trajs in windows(*args, **kwargs):
            ends.append((len(widths), trajs[0]))
            yield t_done, trajs

    monkeypatch.setattr(dynamics, "_kinetics", counted)
    monkeypatch.setattr(fixtures, "_windows", recorded)
    results = fixtures._run_cases(["neumann-i", "neumann-iii"])
    assert [r.t_reached for r in results] == [10.0, 20.0]
    (first_end, first), (second_end, second) = ends
    assert first_end == first.metadata["n_rhs"] and set(widths[:first_end]) == {2}
    assert second_end - first_end == second.metadata["n_rhs"]
    assert set(widths[first_end:]) == {1}
    assert second.final.u.shape == (5, 1)
