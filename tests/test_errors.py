"""Malformed library inputs raise InputError, not a bare Python exception."""

import numpy as np
import pytest

from graphlv import (
    BoundaryCondition,
    CompetitionParams,
    LinearCoupledSystem,
    OrderedPair,
    Problem,
    TimeField,
    Trajectory,
    analytic_envelopes,
    build_graph,
    classify_bistable_basin,
    coexistence_bounds,
    constant_pair,
    dynamics,
    field_array,
    integrate,
    invariant_rectangle,
    logistic_steady_state,
    maximum_principle_check,
    monotone,
    monotone_solve,
    pair_from_trajectory,
    reaction,
    sample_times,
    smallest_dirichlet_eigenpair,
    stable_dt,
    verify_coupled_pair,
)
from graphlv.errors import InputError
from graphlv.fixtures import reflecting_example, triangle_example

SET_I = CompetitionParams(a1=1.0, b1=2.0, c1=2.0, a2=1.0, b2=1.0, c2=1.0)
SET_IV = CompetitionParams(a1=2.0, b1=1.0, c1=3.0, a2=1.0, b2=1.0, c2=1.0)
PAIR = constant_pair((2.0, 3.0), (0.0, 0.0), t_end=1.0)
INSIDE = (np.ones(3), np.ones(3))
GRID = np.array([0.0, 0.5, 1.0])
STATE = (np.full(3, 0.3), np.full(3, 0.3))
BOUNDS = CompetitionParams(a1=2.0, b1=1.0, c1=0.05, a2=2.0, b2=0.05, c2=1.0, d1=0.1, d2=0.1)


def _problem():
    return Problem(triangle_example(), SET_I)


def _eigen(**kwargs):
    graph, part = reflecting_example()
    return smallest_dirichlet_eigenpair(graph, 1, part, **kwargs)


def _steady(**overrides):
    """Species 1 of BOUNDS on the reflecting fixture under its absorbing partition."""
    graph, part = reflecting_example()
    return logistic_steady_state(graph, part, 1, **{"d": 0.1, "a": 2.0, "e": 1.0, **overrides})


def _bounds(**kwargs):
    graph, part = reflecting_example()
    return coexistence_bounds(Problem(graph, BOUNDS, bc=BoundaryCondition.DIRICHLET,
                                      partition=part), **kwargs)


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
    "solve-zero-shift": lambda: monotone_solve(_problem(), PAIR, INSIDE, GRID, m_const=0.0),
    "solve-negative-shift": lambda: monotone_solve(_problem(), PAIR, INSIDE, GRID,
                                                   m_const=-2.0),
    "solve-fractional-iterations": lambda: monotone_solve(_problem(), PAIR, INSIDE, GRID,
                                                          max_iters=2.5),
    "solve-zero-iterations": lambda: monotone_solve(_problem(), PAIR, INSIDE, GRID,
                                                    max_iters=0),
    "solve-negative-iterations": lambda: monotone_solve(_problem(), PAIR, INSIDE, GRID,
                                                        max_iters=-3),
    "solve-nan-tol": lambda: monotone_solve(_problem(), PAIR, INSIDE, GRID, tol=np.nan),
    "solve-negative-tol": lambda: monotone_solve(_problem(), PAIR, INSIDE, GRID, tol=-1.0),
    "verify-text-grid": lambda: verify_coupled_pair(_problem(), PAIR, ["a"]),
    "eigen-nan-tol": lambda: _eigen(tol=np.nan),
    "eigen-zero-tol": lambda: _eigen(tol=0.0),
    "steady-nan-tol": lambda: _steady(tol=np.nan),
    "steady-negative-tol": lambda: _steady(tol=-1.0),
    "steady-zero-tol": lambda: _steady(tol=0.0),
    "steady-fractional-iterations": lambda: _steady(max_iters=2.5),
    "steady-nan-diffusion": lambda: _steady(d=np.nan),
    "steady-zero-self-limitation": lambda: _steady(e=0.0),
    "steady-nan-growth": lambda: _steady(a=np.nan),
    "bounds-nan-tol": lambda: _bounds(tol=np.nan),
    "bounds-negative-tol": lambda: _bounds(tol=-1.0),
    "bounds-nan-epsilon": lambda: _bounds(epsilon=np.nan),
    "bounds-nan-delta": lambda: _bounds(delta=np.nan),
    "bounds-nan-horizon": lambda: _bounds(t_max=np.nan),
    "bounds-zero-horizon": lambda: _bounds(t_max=0.0),
    "bounds-negative-horizon": lambda: _bounds(t_max=-1.0),
    "envelopes-nan-epsilon": lambda: analytic_envelopes(1, SET_I, epsilon=np.nan,
                                                        state_at_t0=(np.full(3, 0.3),
                                                                     np.full(3, 0.3))),
    "pair-plain-function": lambda: verify_coupled_pair(_problem(), OrderedPair(
        u_upper=lambda t: 2.0, v_upper=PAIR.v_upper, u_lower=PAIR.u_lower,
        v_lower=PAIR.v_lower, t0=0.0, t_end=1.0), GRID),
    "time-field-without-value": lambda: TimeField(value=None),
    "constant-pair-one-corner": lambda: constant_pair((2.0,), (0.0, 0.0)),
    "constant-pair-text-corner": lambda: constant_pair(("x", 1.0), (0.0, 0.0)),
    "solve-text-t0": lambda: monotone_solve(_problem(), constant_pair((2.0, 3.0), (0.0, 0.0),
                                                                      t0="x"), INSIDE, GRID),
    "envelopes-text-t0": lambda: analytic_envelopes(1, SET_I, t0="x", state_at_t0=STATE),
    "envelopes-text-t-end": lambda: analytic_envelopes(1, SET_I, t_end="x",
                                                       state_at_t0=STATE),
    "envelopes-backward-horizon": lambda: verify_coupled_pair(_problem(), analytic_envelopes(
        1, SET_I, t0=3.0, t_end=1.0, state_at_t0=STATE), GRID + 3.0),
    "trajectory-pair-empty": lambda: pair_from_trajectory(Trajectory(times=np.array([]),
                                                                     states=[])),
    "reaction-text": lambda: reaction(SET_I, "x", 1.0),
    "reaction-mismatched-shapes": lambda: reaction(SET_I, np.ones(3), np.ones(4)),
    "rectangle-empty": lambda: invariant_rectangle(SET_I, [], 1.0),
    "rectangle-text": lambda: invariant_rectangle(SET_I, "x", 1.0),
    "step-text-bound": lambda: stable_dt(_problem(), "x", 1.0),
    "step-negative-bound": lambda: stable_dt(_problem(), -100.0, 1.0),
    "step-nan-bound": lambda: stable_dt(_problem(), np.nan, 1.0),
    "problem-text-graph": lambda: Problem("graph", SET_I),
    "problem-mapping-params": lambda: Problem(triangle_example(), {"a1": 1}),
    "problem-no-params": lambda: Problem(triangle_example(), None),
    "problem-text-bc": lambda: Problem(reflecting_example()[0], SET_I, bc="neumann",
                                       partition=reflecting_example()[1]),
    "problem-no-bc": lambda: Problem(triangle_example(), SET_I, bc=None),
    "problem-integer-bc": lambda: Problem(triangle_example(), SET_I, bc=3),
    "problem-text-partition": lambda: Problem(reflecting_example()[0], SET_I,
                                              bc=BoundaryCondition.NEUMANN, partition="x1"),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_malformed_input_is_an_input_error(call):
    with pytest.raises(InputError):
        call()


SCHEDULES = {
    "negative-samples": {"max_samples": -3},
    "zero-samples": {"max_samples": 0},
    "bool-samples": {"max_samples": True},
    "fractional-samples": {"max_samples": 2.5},
    "text-samples": {"max_samples": "x"},
    "text-forced-time": {"forced_times": ["a"]},
    "scalar-forced-time": {"forced_times": 5},
    "nan-forced-time": {"forced_times": [0.5, np.nan]},
    "nested-forced-times": {"forced_times": [[0.5]]},
}


@pytest.mark.parametrize("kwargs", SCHEDULES.values(), ids=SCHEDULES.keys())
def test_bad_sample_schedule_is_refused_before_stepping(kwargs, monkeypatch):
    """A bad max_samples or forced_times is an InputError from ``integrate`` before any
    right-hand side is evaluated, and from ``sample_times``."""
    def unreachable(*args):
        raise AssertionError("stepped before checking the sample schedule")

    monkeypatch.setattr(dynamics, "_kinetics", unreachable)
    with pytest.raises(InputError, match="max_samples|forced_times"):
        integrate(_problem(), INSIDE, 1.0, **kwargs)
    forced = kwargs.get("forced_times", ())
    with pytest.raises(InputError, match="max_samples|forced_times"):
        sample_times(1.0, 0.01, max_samples=kwargs.get("max_samples", 250), forced=forced)


def test_forced_times_past_the_end_are_allowed():
    """A windowed run hands one forced schedule to every window, so times beyond t_end
    (or before 0) are ignored, not refused."""
    traj = integrate(_problem(), INSIDE, 1.0, max_samples=np.int64(3),
                     forced_times=np.array([-1.0, 0.5, 7.0]))
    assert 0.5 in traj.times and traj.times[-1] == 1.0 and 7.0 not in traj.times


@pytest.mark.parametrize("t_max", [np.nan, 0.0, -1.0])
def test_bad_bounds_horizon_is_named_before_any_solve(t_max, monkeypatch):
    """A bad t_max is refused under its own name before the eigen and logistic solves."""
    def unreachable(*args, **kwargs):
        raise AssertionError("solved before checking t_max")

    monkeypatch.setattr(monotone, "smallest_dirichlet_eigenpair", unreachable)
    with pytest.raises(InputError, match="t_max must be positive and finite"):
        _bounds(t_max=t_max)


@pytest.mark.parametrize("name", ["epsilon", "delta"])
def test_nan_bound_constant_is_named(name):
    """A NaN epsilon or delta is reported as such, not as a field with missing values."""
    with pytest.raises(InputError, match=f"{name} must be positive and finite"):
        _bounds(**{name: np.nan})


def _pair_with(value=None, derivative=None):
    """PAIR with its upper u field replaced: ``value(t)`` and ``derivative(t)``."""
    field = TimeField(value=value or (lambda t: 2.0), derivative=derivative)
    return OrderedPair(u_upper=field, v_upper=PAIR.v_upper, u_lower=PAIR.u_lower,
                       v_lower=PAIR.v_lower, t0=PAIR.t0, t_end=PAIR.t_end)


def _max_principle(fields=None, times=GRID, **kwargs):
    system = LinearCoupledSystem(graph=triangle_example(), d=(1.0,), species=(1,),
                                 coupling=np.zeros((1, 1)),
                                 bc=(BoundaryCondition.NO_BOUNDARY,))
    if fields is None:
        fields = np.full((1, np.size(times), 3), -1.0)
    return maximum_principle_check(system, fields, times, **kwargs)


NAN_FIELDS = np.full((1, 3, 3), -1.0)
NAN_FIELDS[0, 1, 2] = np.nan
CHECKER_CASES = {
    "verify-nan-field": lambda: verify_coupled_pair(_problem(), _pair_with(
        lambda t: np.full(3, np.nan)), GRID),
    "verify-nan-scalar-field": lambda: verify_coupled_pair(_problem(), _pair_with(
        lambda t: np.nan), GRID),
    "verify-nan-derivative": lambda: verify_coupled_pair(_problem(), _pair_with(
        derivative=lambda t: np.nan), GRID),
    "verify-short-field": lambda: verify_coupled_pair(_problem(), _pair_with(
        lambda t: np.full(2, 2.0)), GRID),
    "verify-text-field": lambda: verify_coupled_pair(_problem(), _pair_with(
        lambda t: "abc"), GRID),
    "verify-2d-field": lambda: verify_coupled_pair(_problem(), _pair_with(
        lambda t: np.full((3, 2), 2.0)), GRID),
    "solve-short-field": lambda: monotone_solve(_problem(), _pair_with(
        lambda t: np.full(2, 2.0)), INSIDE, GRID),
    "solve-inf-field": lambda: monotone_solve(_problem(), _pair_with(
        lambda t: np.full(3, np.inf)), INSIDE, GRID),
    "max-principle-nan-time": lambda: _max_principle(times=np.array([0.0, np.nan, 1.0])),
    "max-principle-one-time": lambda: _max_principle(times=np.array([0.0])),
    "max-principle-2d-times": lambda: _max_principle(np.full((1, 2, 3), -1.0),
                                                     np.zeros((1, 2))),
    "max-principle-repeated-times": lambda: _max_principle(times=np.array([0.0, 0.5, 0.5])),
    "max-principle-nan-fields": lambda: _max_principle(NAN_FIELDS),
    "max-principle-nan-rates": lambda: _max_principle(dfields_dt=NAN_FIELDS),
    "max-principle-text-fields": lambda: _max_principle(np.full((1, 3, 3), "x")),
    "max-principle-2d-fields": lambda: _max_principle(np.full((1, 3), -1.0)),
    "system-nan-diffusion": lambda: LinearCoupledSystem(
        graph=triangle_example(), d=(np.nan,), species=(1,), coupling=np.zeros((1, 1)),
        bc=(BoundaryCondition.NO_BOUNDARY,)),
    "system-nan-coupling": lambda: LinearCoupledSystem(
        graph=triangle_example(), d=(1.0,), species=(1,), coupling=np.full((1, 1), np.nan),
        bc=(BoundaryCondition.NO_BOUNDARY,)),
    "verify-text-tolerance": lambda: verify_coupled_pair(_problem(), PAIR, GRID, slack_tol="x"),
    "verify-negative-tolerance": lambda: verify_coupled_pair(_problem(), PAIR, GRID,
                                                             slack_tol=-1e-9),
    "max-principle-text-tolerance": lambda: _max_principle(hyp_tol="x"),
    "max-principle-nan-tolerance": lambda: _max_principle(conclusion_tol=np.nan),
    "system-no-components": lambda: LinearCoupledSystem(
        graph=triangle_example(), d=(), species=(), coupling=np.zeros((0, 0)), bc=()),
    "system-text-boundary": lambda: LinearCoupledSystem(
        graph=triangle_example(), d=(1.0,), species=(1,), coupling=np.zeros((1, 1)),
        bc=("none",)),
    "system-scalar-diffusion": lambda: LinearCoupledSystem(
        graph=triangle_example(), d=1.0, species=(1,), coupling=np.zeros((1, 1)),
        bc=(BoundaryCondition.NO_BOUNDARY,)),
}


def test_zero_tolerances_are_allowed():
    """A tolerance of 0 asks for the inequalities to hold exactly, and is accepted."""
    assert verify_coupled_pair(_problem(), PAIR, GRID, slack_tol=0.0).passed
    assert _max_principle(hyp_tol=0.0, conclusion_tol=0.0).satisfied


@pytest.mark.parametrize("call", CHECKER_CASES.values(), ids=CHECKER_CASES.keys())
def test_checkers_refuse_non_finite_or_malformed_input(call):
    """The pair checkers and the maximum principle check answer with InputError, where
    they used to pass NaN fields, a NaN time, a NaN diffusion or coupling, or escape as a
    bare exception."""
    with pytest.raises(InputError):
        call()
