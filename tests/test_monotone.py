"""Comparison machinery: max principle, pairs, steady states, monotone sweeps."""

import dataclasses
import math
import time

import numpy as np
import pytest
import scipy.linalg
from conftest import (
    random_connected_graph,
    random_connected_interior,
    reference_coexistence_bounds,
    reference_monotone_solve,
    reference_step,
    reference_tf_derivative,
    reference_verify_coupled_pair,
    stored,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphlv import (
    BoundaryCondition,
    CompetitionParams,
    FieldPair,
    LinearCoupledSystem,
    OrderedPair,
    Problem,
    TimeField,
    Trajectory,
    analytic_envelopes,
    boundary_of,
    build_graph,
    coexistence_bounds,
    constant_pair,
    dirichlet_blocks,
    integrate,
    invariant_rectangle,
    logistic_steady_state,
    maximum_principle_check,
    monotone_solve,
    pair_from_trajectory,
    verify_coupled_pair,
    whole_laplacian,
)
from graphlv import classify, dynamics, graphs, monotone
from graphlv.dynamics import reduced_operators
from graphlv.errors import (
    ConditionK1Violated,
    DeltaTooLarge,
    EpsilonTooLarge,
    HypothesisNotMet,
    InputError,
    NoAdmissibleSigma,
    NoConvergence,
    NoPositiveState,
    PairInvalid,
    RegimeMismatch,
)

SET_I = CompetitionParams(a1=1.0, b1=2.0, c1=2.0, a2=1.0, b2=1.0, c2=1.0)
SET_II = CompetitionParams(a1=2.0, b1=1.0, c1=1.0, a2=1.0, b2=1.0, c2=2.0)
SET_III = CompetitionParams(a1=2.0, b1=1.0, c1=1.0, a2=3.0, b2=1.0, c2=2.0)

BOUNDS_PARAMS = CompetitionParams(
    a1=2.0, b1=1.0, c1=0.05, a2=2.0, b2=0.05, c2=1.0, d1=0.1, d2=0.1
)


def absorbing_lattice(side):
    """A side x side unit-weight lattice absorbing on its outer ring under BOUNDS_PARAMS,
    with initial data 1 on the interior."""
    names = [f"r{r}c{c}" for r in range(side) for c in range(side)]
    edges = [(f"r{r}c{c}", f"r{r}c{c + 1}", 1.0) for r in range(side) for c in range(side - 1)]
    edges += [(f"r{r}c{c}", f"r{r + 1}c{c}", 1.0) for r in range(side - 1) for c in range(side)]
    graph = build_graph(names, edges)
    interior = [f"r{r}c{c}" for r in range(1, side - 1) for c in range(1, side - 1)]
    prob = Problem(graph, BOUNDS_PARAMS, bc=BoundaryCondition.DIRICHLET,
                   partition=boundary_of(graph, interior))
    u0 = np.zeros(graph.n)
    u0[prob.active_idx] = 1.0
    return prob, u0


def counted_solves(monkeypatch):
    """Wrap ``monotone._factor`` so that every solve through a factorization it makes is
    counted; returns the list the counts go to, one entry per solve call."""
    factor, calls = monotone._factor, []

    def counting(mat):
        solve = factor(mat)

        def counted(b):
            calls.append(np.shape(b))
            return solve(b)
        return counted

    monkeypatch.setattr(monotone, "_factor", counting)
    return calls


def exact_linear_fields(system, u0_stack, times):
    """Oracle: stack the components and exponentiate the full generator."""
    g = system.graph
    n = g.n
    m = system.m
    if system.partition is None:
        blocks = [
            [np.zeros((n, n)) for _ in range(m)] for _ in range(m)
        ]
        for k in range(m):
            blocks[k][k] = system.d[k] * whole_laplacian(g, system.species[k])
            for l in range(m):
                blocks[k][l] = blocks[k][l] - np.diag(system.coupling[k, l])
        gen = np.block(blocks)
        y0 = np.concatenate(u0_stack)
        fields = np.empty((m, len(times), n))
        dfields = np.empty_like(fields)
        for j, t in enumerate(times):
            y = scipy.linalg.expm(gen * t) @ y0
            dy = gen @ y
            for k in range(m):
                fields[k, j] = y[k * n:(k + 1) * n]
                dfields[k, j] = dy[k * n:(k + 1) * n]
        return fields, dfields
    raise NotImplementedError


class TestMaxPrinciple:
    def test_exact_whole_graph_solutions(self, triangle):
        rng = np.random.default_rng(31)
        for _ in range(5):
            coupling = np.array([
                [rng.uniform(-1.0, 1.0), -rng.uniform(0.0, 1.0)],
                [-rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0)],
            ])
            system = LinearCoupledSystem(
                graph=triangle, d=(0.7, 1.3), species=(1, 2),
                coupling=coupling,
                bc=(BoundaryCondition.NO_BOUNDARY,) * 2,
            )
            u0 = [-rng.uniform(0.1, 2.0, 3), -rng.uniform(0.1, 2.0, 3)]
            times = np.linspace(0.0, 2.0, 9)
            fields, dfields = exact_linear_fields(system, u0, times)
            report = maximum_principle_check(system, fields, times, dfields_dt=dfields)
            assert report.satisfied
            assert report.max_value <= 1e-9
            assert report.hypothesis_residual <= 1e-10

    def test_positive_initial_rejected(self, triangle):
        system = LinearCoupledSystem(
            graph=triangle, d=(1.0,), species=(1,),
            coupling=np.zeros((1, 1)),
            bc=(BoundaryCondition.NO_BOUNDARY,),
        )
        fields = np.full((1, 3, 3), 0.5)
        with pytest.raises(HypothesisNotMet, match="initial"):
            maximum_principle_check(system, fields, np.array([0.0, 0.5, 1.0]))

    def test_times_must_increase(self, triangle):
        # the initial data are checked at the first sample, so it must be the earliest: the
        # positive state at t = 0 is the second sample here and was not checked
        system = LinearCoupledSystem(
            graph=triangle, d=(1.0,), species=(1,),
            coupling=np.zeros((1, 1)),
            bc=(BoundaryCondition.NO_BOUNDARY,),
        )
        fields = np.array([[[-1.0] * 3, [0.5] * 3]])
        with pytest.raises(InputError, match="strictly increasing"):
            maximum_principle_check(system, fields, np.array([1.0, 0.0]),
                                    dfields_dt=np.zeros_like(fields))
        with pytest.raises(InputError, match="strictly increasing"):
            maximum_principle_check(system, fields, np.array([1.0, 1.0]),
                                    dfields_dt=np.zeros_like(fields))
        with pytest.raises(HypothesisNotMet, match="initial"):
            maximum_principle_check(system, fields[:, ::-1], np.array([0.0, 1.0]),
                                    dfields_dt=np.zeros_like(fields))
        report = maximum_principle_check(system, fields[:, :1], np.array([2.0]),
                                         dfields_dt=np.zeros((1, 1, 3)))
        assert report.satisfied and report.worst_time == 2.0

    def test_positive_off_diagonal_coupling_rejected(self, triangle):
        system = LinearCoupledSystem(
            graph=triangle, d=(1.0, 1.0), species=(1, 2),
            coupling=np.array([[0.0, 0.5], [0.0, 0.0]]),
            bc=(BoundaryCondition.NO_BOUNDARY,) * 2,
        )
        fields = np.zeros((2, 3, 3))
        with pytest.raises(HypothesisNotMet, match="coupling"):
            maximum_principle_check(system, fields, np.array([0.0, 0.5, 1.0]))

    def test_parabolic_violation_rejected(self, triangle):
        system = LinearCoupledSystem(
            graph=triangle, d=(1.0,), species=(1,),
            coupling=np.zeros((1, 1)),
            bc=(BoundaryCondition.NO_BOUNDARY,),
        )
        times = np.array([0.0, 0.5, 1.0])
        # spatially flat and increasing: du/dt = 1 > 0 while Lap u = 0
        fields = (times[None, :, None] - 1.0) * np.ones((1, 1, 3))
        with pytest.raises(HypothesisNotMet, match="parabolic"):
            maximum_principle_check(system, fields, times)

    def test_dirichlet_boundary_violation_rejected(self, reflecting):
        graph, part = reflecting
        system = LinearCoupledSystem(
            graph=graph, d=(1.0,), species=(1,),
            coupling=np.zeros((1, 1)),
            bc=(BoundaryCondition.DIRICHLET,),
            partition=part,
        )
        fields = np.zeros((1, 2, 5))
        fields[0, :, part.boundary_idx[0]] = 0.5  # nonzero on the boundary
        fields[0, 0] = np.minimum(fields[0, 0], 0.0)  # keep initial data legal
        fields[0, 0, part.boundary_idx[0]] = 0.0
        with pytest.raises(HypothesisNotMet, match="boundary"):
            maximum_principle_check(system, fields, np.array([0.0, 1.0]))

    def test_neumann_exact_solution(self, reflecting):
        graph, part = reflecting
        prob = Problem(graph, SET_I, bc=BoundaryCondition.NEUMANN, partition=part)
        ops = reduced_operators(prob)
        coupling = np.array([[0.3, -0.2], [-0.1, -0.4]])
        system = LinearCoupledSystem(
            graph=graph, d=(1.0, 2.0), species=(1, 2),
            coupling=coupling,
            bc=(BoundaryCondition.NEUMANN,) * 2,
            partition=part,
        )
        n_i = part.interior_idx.size
        gen = np.block([
            [1.0 * ops.red1 - coupling[0, 0] * np.eye(n_i), -coupling[0, 1] * np.eye(n_i)],
            [-coupling[1, 0] * np.eye(n_i), 2.0 * ops.red2 - coupling[1, 1] * np.eye(n_i)],
        ])
        rng = np.random.default_rng(7)
        y0 = -rng.uniform(0.1, 1.0, 2 * n_i)
        times = np.linspace(0.0, 1.5, 7)
        fields = np.zeros((2, len(times), 5))
        dfields = np.zeros_like(fields)
        for j, t in enumerate(times):
            y = scipy.linalg.expm(gen * t) @ y0
            dy = gen @ y
            for k, proj in ((0, ops.proj1), (1, ops.proj2)):
                interior = y[k * n_i:(k + 1) * n_i]
                dint = dy[k * n_i:(k + 1) * n_i]
                fields[k, j, part.interior_idx] = interior
                fields[k, j, part.boundary_idx] = proj @ interior
                dfields[k, j, part.interior_idx] = dint
                dfields[k, j, part.boundary_idx] = proj @ dint
        report = maximum_principle_check(system, fields, times, dfields_dt=dfields)
        assert report.satisfied and report.max_value <= 1e-9

    def test_neumann_boundary_violation_rejected(self, reflecting):
        graph, part = reflecting
        system = LinearCoupledSystem(
            graph=graph, d=(1.0,), species=(1,),
            coupling=np.zeros((1, 1)),
            bc=(BoundaryCondition.NEUMANN,),
            partition=part,
        )
        fields = np.zeros((1, 2, 5))
        fields[0, :, part.interior_idx] = -1.0  # boundary stays at 0: outward excess
        with pytest.raises(HypothesisNotMet, match="boundary operator"):
            maximum_principle_check(system, fields, np.array([0.0, 1.0]))

    def test_shape_validation(self, triangle):
        system = LinearCoupledSystem(
            graph=triangle, d=(1.0,), species=(1,),
            coupling=np.zeros((1, 1)),
            bc=(BoundaryCondition.NO_BOUNDARY,),
        )
        with pytest.raises(InputError):
            maximum_principle_check(system, np.zeros((1, 2, 4)), np.array([0.0, 1.0]))
        with pytest.raises(InputError):
            maximum_principle_check(system, np.zeros((1, 3, 3)), np.array([0.0, 1.0]))

    def test_mixed_boundary_exact_solution(self, reflecting):
        """A reflecting component coupled to an absorbing one: the exact solution of the
        linear system meets every hypothesis to rounding, and lifting the absorbing
        component's boundary to 0.5 after t = 0 breaks its boundary operator alone."""
        graph, part = reflecting
        neumann = reduced_operators(Problem(graph, SET_I, bc=BoundaryCondition.NEUMANN,
                                            partition=part))
        dirichlet = reduced_operators(Problem(graph, SET_I, bc=BoundaryCondition.DIRICHLET,
                                              partition=part))
        coupling = np.array([[0.3, -0.2], [-0.1, -0.4]])
        system = LinearCoupledSystem(
            graph=graph, d=(1.0, 2.0), species=(1, 2), coupling=coupling,
            bc=(BoundaryCondition.NEUMANN, BoundaryCondition.DIRICHLET), partition=part,
        )
        n_i = part.interior_idx.size
        gen = np.block([
            [1.0 * neumann.red1 - coupling[0, 0] * np.eye(n_i), -coupling[0, 1] * np.eye(n_i)],
            [-coupling[1, 0] * np.eye(n_i), 2.0 * dirichlet.red2 - coupling[1, 1] * np.eye(n_i)],
        ])
        y0 = -np.random.default_rng(11).uniform(0.1, 1.0, 2 * n_i)
        times = np.linspace(0.0, 1.5, 7)
        fields = np.zeros((2, len(times), graph.n))
        dfields = np.zeros_like(fields)
        for j, t in enumerate(times):
            y = scipy.linalg.expm(gen * t) @ y0
            for k, (w, dw) in enumerate(zip(np.split(y, 2), np.split(gen @ y, 2))):
                fields[k, j, part.interior_idx], dfields[k, j, part.interior_idx] = w, dw
            # the reflecting boundary follows the interior; the absorbing one stays 0
            fields[0, j, part.boundary_idx] = neumann.proj1 @ fields[0, j, part.interior_idx]
            dfields[0, j, part.boundary_idx] = neumann.proj1 @ dfields[0, j, part.interior_idx]
        report = maximum_principle_check(system, fields, times, dfields_dt=dfields)
        assert report.satisfied and report.max_value <= 1e-9
        assert report.hypothesis_residual <= 1e-12
        fields[1, 1:, part.boundary_idx] = 0.5
        with pytest.raises(HypothesisNotMet, match="component 1: boundary"):
            maximum_principle_check(system, fields, times, dfields_dt=dfields)

    def test_system_domain_consistency(self, reflecting):
        graph, part = reflecting
        with pytest.raises(InputError, match="mixing"):
            LinearCoupledSystem(
                graph=graph, d=(1.0, 1.0), species=(1, 2),
                coupling=np.zeros((2, 2)),
                bc=(BoundaryCondition.NEUMANN, BoundaryCondition.NO_BOUNDARY),
                partition=part,
            )
        with pytest.raises(InputError, match="partition"):
            LinearCoupledSystem(
                graph=graph, d=(1.0,), species=(1,),
                coupling=np.zeros((1, 1)),
                bc=(BoundaryCondition.DIRICHLET,),
            )


class TestVerifyPair:
    def test_rectangle_constants_pass(self, triangle):
        prob = Problem(triangle, SET_I)
        pair = constant_pair((2.0, 3.0), (0.0, 0.0), t_end=5.0)
        report = verify_coupled_pair(prob, pair, np.linspace(0.0, 5.0, 11))
        assert report.passed
        assert report.slacks["order_u"] == 2.0

    def test_rectangle_constants_pass_dirichlet(self, reflecting):
        graph, part = reflecting
        prob = Problem(graph, SET_I, bc=BoundaryCondition.DIRICHLET, partition=part)
        pair = constant_pair((2.0, 3.0), (0.0, 0.0), t_end=5.0)
        report = verify_coupled_pair(prob, pair, np.linspace(0.0, 5.0, 11))
        assert report.passed
        assert report.slacks["boundary_lower_u"] == 0.0

    def test_too_small_upper_fails(self, triangle):
        prob = Problem(triangle, SET_I)
        # upper below the carrying capacity a1/b1 cannot absorb the growth
        pair = constant_pair((0.1, 0.1), (0.0, 0.0), t_end=5.0)
        report = verify_coupled_pair(prob, pair, np.linspace(0.0, 5.0, 11))
        assert not report.passed
        name, slack = report.worst()
        assert name in ("upper_u_pde", "upper_v_pde") and slack < 0.0

    def test_initial_bracketing(self, triangle):
        prob = Problem(triangle, SET_I)
        pair = constant_pair((2.0, 3.0), (0.0, 0.0), t_end=5.0)
        inside = (np.full(3, 1.0), np.full(3, 1.0))
        outside = (np.full(3, 5.0), np.full(3, 1.0))
        assert verify_coupled_pair(prob, pair, [0.0, 5.0], initial=inside).passed
        report = verify_coupled_pair(prob, pair, [0.0, 5.0], initial=outside)
        assert not report.passed and report.slacks["initial_u"] == -3.0

    def test_trajectory_pair_reproduces_samples(self, triangle):
        prob = Problem(triangle, SET_III)
        traj = integrate(prob, (np.full(3, 1.05), np.full(3, 0.95)), t_end=1.0)
        pair = pair_from_trajectory(traj)
        assert pair.t0 == 0.0 and pair.t_end == 1.0
        j = len(traj.times) // 2
        t_mid = float(traj.times[j])
        assert np.allclose(pair.u_upper.value(t_mid), traj.states[j].u)
        report = verify_coupled_pair(prob, pair, traj.times, slack_tol=0.05)
        assert report.passed  # a true solution is a (degenerate) pair

    @pytest.mark.parametrize("bc", [BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN])
    def test_shared_species_build_each_operator_once(self, reflecting, bc, monkeypatch):
        """One weight structure: the four rows' closure Laplacian is gathered once, and on a
        reflecting boundary so is their normal derivative. With w2 a distinct copy of w1
        both are built per species, and the slacks are the same bit for bit."""
        graph, part = reflecting
        calls = {"blocks": 0, "weights": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(graphs, "_blocks", counted("blocks", graphs._blocks))
        monkeypatch.setattr(graphs, "_weight_block", counted("weights", graphs._weight_block))
        pair = constant_pair((2.0, 3.0), (0.0, 0.0), t_end=5.0)
        reports = []
        for split, blocks in ((False, 1), (True, 2)):
            g = dataclasses.replace(graph, w2=graph.w1.copy()) if split else graph
            calls.update(blocks=0, weights=0)
            reports.append(verify_coupled_pair(Problem(g, SET_I, bc=bc, partition=part), pair,
                                               np.linspace(0.0, 5.0, 11)))
            per_species = 2 if bc is BoundaryCondition.NEUMANN else 1
            assert calls == {"blocks": blocks, "weights": blocks * per_species}
        assert reports[0].slacks == reports[1].slacks


class TestEnvelopes:
    @pytest.mark.parametrize(
        "regime,params,limit",
        [(1, SET_I, (0.0, 1.0)), (2, SET_II, (2.0, 0.0)), (3, SET_III, (1.0, 1.0))],
    )
    def test_verify_after_transient(self, triangle, regime, params, limit):
        prob = Problem(triangle, params)
        traj = integrate(prob, (np.full(3, 0.9), np.full(3, 0.8)), t_end=3.0)
        state = traj.final
        pair = analytic_envelopes(regime, params, t0=3.0, state_at_t0=state, t_end=6.0)
        assert pair.info["limit"] == limit
        report = verify_coupled_pair(prob, pair, np.linspace(3.0, 6.0, 31),
                                     initial=(state.u, state.v))
        assert report.passed, report.worst()

    def test_envelopes_close_onto_limit(self):
        pair = analytic_envelopes(
            3, SET_III, t0=0.0, state_at_t0=(np.full(3, 0.9), np.full(3, 0.8))
        )
        late = 40.0 / pair.info["q"]  # all decay rates are at least q
        for tf, target in ((pair.u_upper, 1.0), (pair.u_lower, 1.0),
                           (pair.v_upper, 1.0), (pair.v_lower, 1.0)):
            assert tf.value(late) == pytest.approx(target, abs=1e-9)

    def test_neumann_domain(self, reflecting):
        graph, part = reflecting
        prob = Problem(graph, SET_I, bc=BoundaryCondition.NEUMANN, partition=part)
        traj = integrate(prob, ({"x1": 0.9, "x2": 0.8, "x3": 0.7},
                                {"x1": 0.6, "x2": 0.5, "x3": 0.4}), t_end=3.0)
        state = traj.final
        pair = analytic_envelopes(1, SET_I, t0=3.0, state_at_t0=state, t_end=5.0)
        report = verify_coupled_pair(prob, pair, np.linspace(3.0, 5.0, 21))
        assert report.passed, report.worst()

    def test_regime_mismatch(self):
        with pytest.raises(RegimeMismatch):
            analytic_envelopes(1, SET_II, state_at_t0=(np.ones(3), np.ones(3)))
        with pytest.raises(RegimeMismatch):
            analytic_envelopes(3, SET_I, state_at_t0=(np.ones(3), np.ones(3)))

    def test_epsilon_validation(self):
        state = (np.full(3, 0.2), np.full(3, 0.8))
        with pytest.raises(EpsilonTooLarge):
            analytic_envelopes(1, SET_I, epsilon=100.0, state_at_t0=state)
        with pytest.raises(InputError):
            analytic_envelopes(1, SET_I, epsilon=-0.5, state_at_t0=state)

    def test_state_above_upper_rejected(self):
        with pytest.raises(InputError):
            analytic_envelopes(1, SET_I, state_at_t0=(np.full(3, 10.0), np.ones(3)))

    def test_zero_state_has_no_sigma(self):
        with pytest.raises(NoAdmissibleSigma):
            analytic_envelopes(1, SET_I, state_at_t0=(np.zeros(3), np.full(3, 0.5)))

    def test_unknown_regime(self):
        with pytest.raises(InputError):
            analytic_envelopes(4, SET_I, state_at_t0=(np.ones(3), np.ones(3)))


class TestLogisticSteadyState:
    def test_single_vertex_closed_form(self):
        g = build_graph(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.0)])
        part = boundary_of(g, ["b"])
        st = logistic_steady_state(g, part, 1, d=0.5, a=2.0, e=1.5, tol=1e-12)
        assert st.values[0] == pytest.approx((2.0 - 0.5 * 1.0) / 1.5, abs=1e-12)
        assert st.residual <= 1e-12

    def test_profile_solves_the_equation(self, reflecting):
        graph, part = reflecting
        st = logistic_steady_state(graph, part, 1, d=1.0, a=1.0, e=1.0)
        l_ii, _ = dirichlet_blocks(graph, 1, part)
        res = 1.0 * (l_ii @ st.values) + st.values * (1.0 - st.values)
        assert np.linalg.norm(res, ord=np.inf) <= 1e-10
        assert st.residual <= 1e-10
        assert np.all(st.values > 0.0)
        # symmetric fixture: ends agree, middle is largest
        assert st.values[0] == pytest.approx(st.values[2], abs=1e-12)
        assert st.values[1] > st.values[0]

    def test_matches_generic_root_finder(self, reflecting):
        import scipy.optimize

        graph, part = reflecting
        st = logistic_steady_state(graph, part, 2, d=0.7, a=1.3, e=2.0, tol=1e-12)
        l_ii, _ = dirichlet_blocks(graph, 2, part)

        def resid(s):
            return 0.7 * (l_ii @ s) + s * (1.3 - 2.0 * s)

        sol = scipy.optimize.root(resid, np.full(3, 0.5))
        assert sol.success
        assert st.residual <= 1e-12
        assert np.allclose(st.values, sol.x, atol=1e-8)

    def test_subcritical_has_no_positive_state(self, reflecting):
        graph, part = reflecting
        lam = (5.0 - np.sqrt(13.0)) / 6.0
        with pytest.raises(NoPositiveState):
            logistic_steady_state(graph, part, 1, d=1.0, a=0.9 * lam, e=1.0)

    def test_grows_with_a(self, reflecting):
        graph, part = reflecting
        lo = logistic_steady_state(graph, part, 1, d=1.0, a=1.0, e=1.0)
        hi = logistic_steady_state(graph, part, 1, d=1.0, a=1.5, e=1.0)
        assert np.all(hi.values > lo.values)
        assert max(lo.residual, hi.residual) <= 1e-10

    def test_unreachable_tolerance_stalls(self, reflecting):
        # at capacity 2000 the residual of the converged iterate floors near 2.7e-10, so
        # 1e-10 is out of reach; the solve ends when its iterates stop moving
        graph, part = reflecting
        started = time.perf_counter()
        with pytest.raises(NoConvergence, match="stalled"):
            logistic_steady_state(graph, part, 1, d=1.0, a=2000.0, e=1.0, tol=1e-10)
        assert time.perf_counter() - started < 1.0
        assert logistic_steady_state(graph, part, 1, d=1.0, a=2000.0, e=1.0,
                                     tol=1e-8).residual <= 1e-8

    @pytest.mark.parametrize("a, e", [(2.0, 1e-310), (1e200, 1.0), (1e300, 1.0)],
                             ids=["e=1e-310", "a=1e200", "a=1e300"])
    def test_non_finite_iterate_ends_at_once(self, a, e, monkeypatch):
        """On a 30 x 30 absorbing lattice, the benchmark's size, an upper start a/e beyond
        floating point is a non-finite shift, which ends the solve before any factorization,
        and one whose first step overflows ends it after one solve; a NaN iterate passes
        every order check, so neither may run the iteration budget out."""
        prob, _ = absorbing_lattice(30)
        calls = counted_solves(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NoConvergence, match="non-finite .* at iteration 1"):
            logistic_steady_state(prob.graph, prob.partition, 1, d=0.1, a=a, e=e)
        assert len(calls) == (0 if e < 1.0 else 1)


class TestCoexistenceBounds:
    def test_reference_fixture_collapses(self, reflecting):
        graph, part = reflecting
        prob = Problem(graph, BOUNDS_PARAMS, bc=BoundaryCondition.DIRICHLET,
                       partition=part)
        bounds = coexistence_bounds(prob, tol=1e-8)
        assert bounds.unique
        assert np.all(bounds.s_lower > 0.0) and np.all(bounds.r_lower > 0.0)
        assert np.all(bounds.s_lower <= bounds.s_upper + 1e-12)
        assert np.all(bounds.r_lower <= bounds.r_upper + 1e-12)
        assert np.max(bounds.s_upper - bounds.s_lower) <= 1e-7
        assert max(bounds.residuals.values()) <= 1e-8
        lam = bounds.eig1.lambda0
        want_k1 = 2.0 - lam * 0.1 - 0.05 * 2.0
        assert bounds.info["k1_margins"][0] == pytest.approx(want_k1, abs=1e-12)
        # the collapsed bounds solve the coupled steady system
        p = BOUNDS_PARAMS
        l_ii, _ = dirichlet_blocks(graph, 1, part)
        u, v = bounds.s_upper, bounds.r_upper
        res_u = p.d1 * (l_ii @ u) + u * (p.a1 - p.b1 * u - p.c1 * v)
        assert np.linalg.norm(res_u, ord=np.inf) <= 1e-7

    def test_operators_built_at_most_three_times(self, reflecting, monkeypatch):
        graph, part = reflecting
        prob = Problem(graph, BOUNDS_PARAMS, bc=BoundaryCondition.DIRICHLET,
                       partition=part)
        calls = []
        build = dynamics.reduced_operators

        def counted(problem):
            calls.append(problem)
            return build(problem)

        monkeypatch.setattr(dynamics, "reduced_operators", counted)
        monkeypatch.setattr(monotone, "reduced_operators", counted)
        bounds = coexistence_bounds(prob, tol=1e-8)
        assert min(bounds.info["march_times"]) > 1.0
        assert len(calls) <= 3

    def test_two_eigen_solves(self, reflecting, monkeypatch):
        # species 2 has its own weights, so each species needs its own eigenpair
        graph, part = reflecting
        graph = dataclasses.replace(graph, w2=1.5 * graph.w2)
        prob = Problem(graph, BOUNDS_PARAMS, bc=BoundaryCondition.DIRICHLET,
                       partition=part)
        calls = []
        solve = classify.smallest_dirichlet_eigenpair

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(classify, "smallest_dirichlet_eigenpair", counted)
        bounds = coexistence_bounds(prob, tol=1e-8)
        assert len(calls) == 2
        p = BOUNDS_PARAMS
        s1 = logistic_steady_state(graph, part, 1, d=p.d1, a=p.a1, e=p.b1, tol=1e-10)
        assert bounds.info["s1_iterations"] == s1.iterations
        assert s1.lambda0 == bounds.eig1.lambda0

    def test_needs_absorbing_boundary(self, reflecting):
        graph, part = reflecting
        prob = Problem(graph, BOUNDS_PARAMS, bc=BoundaryCondition.NEUMANN,
                       partition=part)
        with pytest.raises(InputError):
            coexistence_bounds(prob)

    def test_large_cross_competition_rejected(self, reflecting):
        graph, part = reflecting
        p = CompetitionParams(a1=2.0, b1=1.0, c1=1.0, a2=2.0, b2=1.0, c2=1.0,
                              d1=0.1, d2=0.1)
        prob = Problem(graph, p, bc=BoundaryCondition.DIRICHLET, partition=part)
        with pytest.raises(ConditionK1Violated):
            coexistence_bounds(prob)

    def test_epsilon_and_delta_validation(self, reflecting):
        graph, part = reflecting
        prob = Problem(graph, BOUNDS_PARAMS, bc=BoundaryCondition.DIRICHLET,
                       partition=part)
        with pytest.raises(EpsilonTooLarge):
            coexistence_bounds(prob, epsilon=100.0)
        with pytest.raises(DeltaTooLarge):
            coexistence_bounds(prob, delta=1e6)
        with pytest.raises(InputError):
            coexistence_bounds(prob, epsilon=-1.0)

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "split"])
    def test_info_records_the_iteration(self, shared):
        prob = _bounds_problem(np.random.default_rng(7), shared)
        bounds = coexistence_bounds(prob, tol=1e-9)
        info = bounds.info
        times, gaps = info["march_times"], info["march_gaps"]
        assert len(times) == 2 and all(isinstance(t, int) and 1 <= t <= info["march_iterations"]
                                       for t in times)
        assert info["march_iterations"] == len(gaps) >= 1
        assert np.all(np.diff(gaps) <= 0.0)
        assert gaps[-1] == max(float(np.max(bounds.s_upper - bounds.s_lower)),
                               float(np.max(bounds.r_upper - bounds.r_lower)))

    @pytest.mark.parametrize("csr", [False, True], ids=["dense", "csr"])
    def test_symmetric_species_are_solved_once(self, csr, monkeypatch):
        """One weight table with d1 = d2, a1 = a2 and b1 = c2, as on the benchmark's
        absorbing lattice: one eigen solve, one logistic solve and one block build for the
        iteration, and every reused result is bit for bit the species-2 solve it stands
        for."""
        prob, _ = absorbing_lattice(8)
        graph, part, p = prob.graph, prob.partition, prob.params
        calls = {"eigen": 0, "logistic": 0, "blocks": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(classify, "smallest_dirichlet_eigenpair",
                            counted("eigen", classify.smallest_dirichlet_eigenpair))
        monkeypatch.setattr(monotone, "_logistic_steady_state",
                            counted("logistic", monotone._logistic_steady_state))
        monkeypatch.setattr(monotone, "_blocks", counted("blocks", monotone._blocks))
        with stored(csr):
            bounds = coexistence_bounds(prob, tol=1e-8)
            assert calls == {"eigen": 1, "logistic": 1, "blocks": 2}
            eig = [monotone.smallest_dirichlet_eigenpair(graph, s, part) for s in (1, 2)]
            steady = [logistic_steady_state(graph, part, s, d, a, e, tol=1e-10)
                      for s, d, a, e in ((1, p.d1, p.a1, p.b1), (2, p.d2, p.a2, p.c2))]
            blocks = [graphs._blocks(graph, s, part)[0] for s in (1, 2)]
        assert bounds.eig2.lambda0 == eig[1].lambda0 == eig[0].lambda0
        assert bounds.eig2.phi.tobytes() == eig[1].phi.tobytes() == eig[0].phi.tobytes()
        assert steady[0].values.tobytes() == steady[1].values.tobytes()
        assert bounds.info["s2_iterations"] == steady[1].iterations
        assert abs(blocks[0] - blocks[1]).max() == 0.0
        assert bounds.unique

    def test_unreachable_tolerance_stalls(self, reflecting):
        # at capacity 200 the absolute residual floors near 1.1e-11: 1e-12 is out of reach
        graph, part = reflecting
        params = dataclasses.replace(BOUNDS_PARAMS, a1=200.0, a2=200.0)
        prob = Problem(graph, params, bc=BoundaryCondition.DIRICHLET, partition=part)
        started = time.perf_counter()
        with pytest.raises(NoConvergence, match="stalled"):
            coexistence_bounds(prob, tol=1e-12)
        assert time.perf_counter() - started < 1.0
        assert max(coexistence_bounds(prob, tol=1e-10).residuals.values()) <= 1e-10

    def test_crossed_pairs_are_rejected(self, reflecting, monkeypatch):
        """A solve that lifts the lower pair's u above the upper pair's, a move in the lower
        u's own direction, ends the iteration at once: no lower bound may pass its upper
        one. Species 2 diffuses faster, so that each species has its own factorization, and
        the logistic states are solved beforehand, so that species 1's is the first."""
        graph, part = reflecting
        params = dataclasses.replace(BOUNDS_PARAMS, d2=0.2)
        prob = Problem(graph, params, bc=BoundaryCondition.DIRICHLET, partition=part)
        states = {s: logistic_steady_state(graph, part, s, d, a, e, tol=1e-10)
                  for s, d, a, e in ((1, params.d1, params.a1, params.b1),
                                     (2, params.d2, params.a2, params.c2))}
        monkeypatch.setattr(monotone, "_logistic_steady_state",
                            lambda graph, part, species, *args, **kwargs: states[species])
        factor, made = monotone._factor, []

        def lifting(mat):
            solve = factor(mat)
            made.append(mat)
            if len(made) > 1:
                return solve

            def lifted(b):
                x = solve(b)
                x[:, 1] = x[:, 0] + 1.0
                return x
            return lifted

        monkeypatch.setattr(monotone, "_factor", lifting)
        with pytest.raises(NoConvergence, match="crossed at iteration 1 "):
            coexistence_bounds(prob, tol=1e-8)

    def test_solve_count(self, monkeypatch):
        """On a 30 x 30 absorbing lattice (SuperLU), a call makes one solve per logistic
        iteration, both sequences at once, and one per species and ordered iteration."""
        prob, _ = absorbing_lattice(30)
        calls = counted_solves(monkeypatch)
        bounds = coexistence_bounds(prob)
        info = bounds.info
        assert len(calls) == info["s1_iterations"] + 2 * info["march_iterations"]
        assert set(calls) == {(28 * 28, 2)}

    def test_tight_starts_on_the_benchmark_lattice(self, monkeypatch):
        """On a 30 x 30 absorbing lattice both ordered iterations start from the tightest
        sector the theory gives: the logistic solve settles in at most 10 iterations, and
        the march in at most 16 on one factorization (the other is the logistic solve's,
        which both species share). From the paper's starts they take 18 and 39 on 4."""
        prob, _ = absorbing_lattice(30)
        factor, made = monotone._factor, []
        monkeypatch.setattr(monotone, "_factor", lambda mat: made.append(mat) or factor(mat))
        bounds = coexistence_bounds(prob)
        assert bounds.info["s1_iterations"] <= 10
        assert bounds.info["march_iterations"] <= 16
        assert len(made) == 2
        assert bounds.unique

    @pytest.mark.parametrize("seed", [213, 251])
    def test_collapsed_bounds_close_their_gap(self, seed):
        """Once the collapse condition holds on the lower bounds, the march also waits for
        its gap to close: these shared draws stopped on residuals alone with gaps of
        8.4e-9 and 9.7e-9 at tol 1e-9, and seed 213 above the 10 tol check from the tighter
        starts."""
        prob = _bounds_problem(np.random.default_rng(seed), True)
        bounds = coexistence_bounds(prob, tol=1e-9)
        assert bounds.unique
        assert bounds.info["march_gaps"][-1] <= 1e-9

    def test_iteration_budget(self, reflecting, monkeypatch):
        """The march has one budget, the logistic solves' count of iterations: lowered below
        the iteration at which the march settles, it ends the march and is named."""
        graph, part = reflecting
        prob = Problem(graph, BOUNDS_PARAMS, bc=BoundaryCondition.DIRICHLET,
                       partition=part)
        settled = coexistence_bounds(prob, tol=1e-8).info["march_iterations"]
        assert settled >= 2
        monkeypatch.setattr(monotone, "_MAX_ITERS", settled - 1)
        with pytest.raises(NoConvergence, match=f"did not settle in {settled - 1} iterations"):
            coexistence_bounds(prob, tol=1e-8)


def _bounds_problem(rng, shared):
    """A seeded absorbing problem on at most 12 vertices that meets the bounds' hypotheses.

    ``shared`` draws one weight table and unit measures (the bounds may collapse);
    otherwise weights and measures are split. The interior has at least two vertices,
    which ARPACK needs when the storage is forced to CSR. The diffusions are drawn
    below the cross-competition margins, so both K1 margins are positive.
    """
    graph = random_connected_graph(rng, max_vertices=12, split_weights=not shared,
                                   random_measure=not shared)
    while graph.n < 3:
        graph = random_connected_graph(rng, max_vertices=12, split_weights=not shared,
                                       random_measure=not shared)
    part = random_connected_interior(rng, graph)
    while part.interior_idx.size < 2:
        part = random_connected_interior(rng, graph)
    lam1, lam2 = (monotone.smallest_dirichlet_eigenpair(graph, s, part).lambda0 for s in (1, 2))
    a1, a2, b1, c2 = rng.uniform(0.5, 3.0, 4)
    c1 = rng.uniform(0.01, 0.5) * c2 * a1 / a2     # (c1/c2) a2 below a1
    b2 = rng.uniform(0.01, 0.5) * b1 * a2 / a1     # (b2/b1) a1 below a2
    d1 = rng.uniform(0.1, 0.8) * (a1 - (c1 / c2) * a2) / lam1
    d2 = rng.uniform(0.1, 0.8) * (a2 - (b2 / b1) * a1) / lam2
    params = CompetitionParams(a1=a1, b1=b1, c1=c1, a2=a2, b2=b2, c2=c2, d1=d1, d2=d2)
    return Problem(graph, params, bc=BoundaryCondition.DIRICHLET, partition=part)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shared=st.booleans())
def test_coexistence_bounds_match_rk4_marches(seed, shared):
    """The implicit monotone iteration, under both storages, against two explicit RK4
    marches at the stability cap: the same bounds to 1e-7 at tol 1e-9 and the same unique
    flag. Both stop at residuals of 1e-9, so they differ by the steady problem's
    sensitivity to them: at most 1.2e-8 over 500 problems drawn as here (seeds 0-249,
    shared and split)."""
    prob = _bounds_problem(np.random.default_rng(seed), shared)
    for csr in (False, True):
        with stored(csr):
            bounds = coexistence_bounds(prob, tol=1e-9)
        if not csr:
            *want, unique = reference_coexistence_bounds(prob, bounds.epsilon, bounds.delta,
                                                         tol=1e-9)
        assert bounds.unique == unique
        for got, ref in zip((bounds.s_lower, bounds.s_upper, bounds.r_lower, bounds.r_upper),
                            want):
            assert np.max(np.abs(got - ref)) <= 1e-7


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shared=st.booleans(), csr=st.booleans())
def test_ordered_starts_are_ordered_upper_and_lower_solutions(seed, shared, csr):
    """Every start block of the two ordered iterations in ``coexistence_bounds`` is ordered,
    each upper column above its lower one, and is a sector: d L w + f(w) <= 0 on an upper
    column and >= 0 on a lower one, with f paired as the iteration pairs it, at every
    interior vertex. An upper column that is the logistic state meets its inequality up to
    that state's residual (1e-10 here). Each logistic solve's constant floor
    c = (a - d max beta)/e, beta = -(L_II 1), is a lower solution by itself when positive."""
    prob = _bounds_problem(np.random.default_rng(seed), shared)
    steady, runs = monotone._ordered_steady, []

    def recording(ops, coeffs, kinetics, y, rise, *args, **kwargs):
        runs.append((ops, coeffs, kinetics, y, rise))
        return steady(ops, coeffs, kinetics, y, rise, *args, **kwargs)

    with stored(csr), pytest.MonkeyPatch.context() as mp:
        mp.setattr(monotone, "_ordered_steady", recording)
        coexistence_bounds(prob, tol=1e-9)
    assert [len(ops) for ops, *_ in runs] in ([1, 2], [1, 1, 2])
    for ops, coeffs, kinetics, y, rise in runs:
        assert np.all(-(rise * y).sum(axis=1) >= 0.0)
        f = kinetics(y)
        for k, (d, lap) in enumerate(ops):
            sign = -rise[k] if len(ops) == 2 else -rise
            defect = sign * (d * (lap @ y[k].T).T + f[k])    # <= 0 on an upper column
            assert defect.max() <= 1e-10
        if len(ops) == 1:
            (d, lap), (a, e, _) = ops[0], coeffs[0]
            floor = (a - d * np.max(-(lap @ np.ones(lap.shape[0])))) / e
            if floor > 0.0:
                w = np.full(lap.shape[0], floor)
                assert np.min(d * (lap @ w) + w * (a - e * w)) >= -1e-12 * a * floor


def recorded_solves(mp):
    """Wrap ``monotone._factor`` on the monkeypatch ``mp`` so that the result of every solve
    through a factorization it makes is kept; returns the list they go to, in call order."""
    factor, results = monotone._factor, []

    def recording(mat):
        solve = factor(mat)
        return lambda b: results.append(solve(b)) or results[-1]

    mp.setattr(monotone, "_factor", recording)
    return results


def _same_prefix(first, second):
    """Whether two lists of solve results agree bit for bit over the shorter one's length."""
    return all(np.array_equal(x, y) for x, y in zip(first, second))


_RATES = ("a1", "b1", "c1", "a2", "b2", "c2", "d1", "d2")


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shared=st.booleans(), j=st.integers(-6, 6),
       log_margin=st.floats(-2.0, 0.0))
def test_logistic_iteration_is_rate_free(seed, shared, j, log_margin):
    """Rate-scale oracle: (a, d, e) -> 2^j (a, d, e) leaves the logistic equation and every
    iterate of its ordered iteration unchanged bit for bit (the shift, the starts and the
    refactor rule all scale with the rates; 2^j is exact in floating point), here on small
    absorbing graphs at relative margins a / (lambda0 d) - 1 in [0.01, 1]. Only the stop
    rule reads the scale: its residual test is absolute, and the residual scales by 2^j.
    So the solve that stops later takes at most twice the other's iterations (1.46 times
    at worst over 1800 draws weighted to |j| = 6 and margin 0.01), and its state lies in the
    ordered bracket at which the other stopped, up to the order checks' slack per extra
    iteration. The states differ by up to 11 tol near the threshold (margin 0.014, j = 2),
    which is the residual test's doing and not the iteration's."""
    rng = np.random.default_rng(seed)
    prob = _bounds_problem(rng, shared)
    graph, part = prob.graph, prob.partition
    lam = monotone.smallest_dirichlet_eigenpair(graph, 1, part).lambda0
    d, e = rng.uniform(0.1, 3.0, 2)
    a = lam * d * (1.0 + 10.0 ** log_margin)
    runs = []
    for scale in (1.0, 2.0 ** j):
        with pytest.MonkeyPatch.context() as mp:
            results = recorded_solves(mp)
            state = logistic_steady_state(graph, part, 1, scale * d, scale * a, scale * e,
                                          tol=1e-8)
        assert len(results) == state.iterations
        runs.append((state, results))
    assert _same_prefix(runs[0][1], runs[1][1])
    (first, results), (later, _) = sorted(runs, key=lambda run: run[0].iterations)
    assert later.iterations <= 2 * first.iterations
    upper, lower = results[-1].T
    slack = monotone._ORDER_SLACK * (later.iterations - first.iterations + 1)
    assert np.all(lower - slack <= later.values) and np.all(later.values <= upper + slack)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shared=st.booleans(), j=st.integers(-6, 6))
def test_coexistence_march_is_rate_free(seed, shared, j):
    """Rate-scale oracle of the march: all eight rates times 2^j, from the same logistic
    states (which are rate-free; the logistic solves have their own oracle above), give
    the same march iterates bit for bit. The march that stops later takes at most twice
    the other's iterations (1.27 times at worst over 950 draws), and its bounds are nested
    in the other's up to the order checks' slack per extra iteration; they differ by up to
    1.15 tol, through the absolute residual test."""
    prob = _bounds_problem(np.random.default_rng(seed), shared)
    scaled = dataclasses.replace(prob, params=dataclasses.replace(
        prob.params, **{k: 2.0 ** j * getattr(prob.params, k) for k in _RATES}))
    steady, states = monotone._logistic_steady_state, {}

    def solved_once(graph, part, species, *args, **kwargs):
        if species not in states:
            states[species] = steady(graph, part, species, *args, **kwargs)
        return states[species]

    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monotone, "_logistic_steady_state", solved_once)
        coexistence_bounds(prob, tol=1e-8)    # the logistic states, solved unscaled
        for problem in (prob, scaled):
            with pytest.MonkeyPatch.context() as inner:
                results = recorded_solves(inner)
                runs.append((coexistence_bounds(problem, tol=1e-8), results))
    assert _same_prefix(runs[0][1], runs[1][1])
    first, later = sorted((b for b, _ in runs), key=lambda b: b.info["march_iterations"])
    extra = later.info["march_iterations"] - first.info["march_iterations"]
    assert extra <= first.info["march_iterations"]
    slack = monotone._ORDER_SLACK * extra
    for lo, hi in (("s_lower", "s_upper"), ("r_lower", "r_upper")):
        assert np.all(getattr(first, lo) - slack <= getattr(later, lo))
        assert np.all(getattr(later, hi) <= getattr(first, hi) + slack)


class TestNearThreshold:
    """The survival threshold a = lambda0 d on a 30 x 30 absorbing lattice like the
    benchmark's, where lambda0 = 5.9e-3, with d = e = 1: the ordered iterations' shifts
    follow the rates down to 0, so they contract at the kinetics' own pace."""

    @pytest.fixture(scope="class")
    def lattice(self):
        prob, _ = absorbing_lattice(30)
        lam = monotone.smallest_dirichlet_eigenpair(prob.graph, 1, prob.partition).lambda0
        return prob, lam

    def test_logistic_one_percent_above_converges(self, lattice):
        # a shift floored at 1 ran the budget of 10 000 iterations out here
        prob, lam = lattice
        state = logistic_steady_state(prob.graph, prob.partition, 1, 1.0, 1.01 * lam, 1.0)
        assert state.residual <= 1e-10

    def test_logistic_at_twice_the_threshold_is_fast(self, lattice):
        # a shift floored at 1 took 2389 iterations here
        prob, lam = lattice
        state = logistic_steady_state(prob.graph, prob.partition, 1, 1.0, 2.0 * lam, 1.0)
        assert state.iterations <= 50

    def test_coexistence_with_both_shifts_at_zero(self, lattice, monkeypatch):
        """Both species 10% above the threshold with weak competition: the march's shifts
        both fall to 0, which no solve divides by; it settles or raises NoConvergence."""
        prob, lam = lattice
        a = 1.1 * lam
        params = CompetitionParams(a1=a, b1=1.0, c1=0.05, a2=a, b2=0.05, c2=1.0,
                                   d1=1.0, d2=1.0)
        shift, march = monotone._shift, []

        def recording(a, own, cross, own_max, other_max):
            value = shift(a, own, cross, own_max, other_max)
            if cross:    # the logistic solves have no cross term
                march.append(value)
            return value

        monkeypatch.setattr(monotone, "_shift", recording)
        try:
            bounds = coexistence_bounds(dataclasses.replace(prob, params=params))
        except NoConvergence:
            bounds = None
        assert march[-2:] == [0.0, 0.0]
        if bounds is not None:
            assert max(bounds.residuals.values()) <= 1e-8


class TestMonotoneSolve:
    def test_matches_integrator(self, triangle):
        prob = Problem(triangle, SET_I)
        warm = integrate(prob, (np.full(3, 0.9), np.full(3, 0.8)), t_end=3.0)
        state = warm.final
        pair = analytic_envelopes(1, SET_I, t0=3.0, state_at_t0=state, t_end=3.2)
        t_grid = np.array([3.0, 3.1, 3.2])
        sol = monotone_solve(prob, pair, (state.u, state.v), t_grid, substep=1e-3)
        assert sol.metadata["min_sandwich_slack"] >= -1e-12
        assert sol.metadata["gap"] < 1e-8
        gaps = sol.metadata["gaps"]
        assert len(gaps) == sol.metadata["iterations"]
        assert gaps[-1] == sol.metadata["gap"]
        ref = integrate(prob, (state.u, state.v), t_end=0.2, dt=1e-4,
                        forced_times=(0.1,))
        for t, state_m in zip(sol.times, sol.states):
            j = int(np.argmin(np.abs(ref.times - (t - 3.0))))
            assert abs(ref.times[j] - (t - 3.0)) < 1e-9
            assert np.max(np.abs(state_m.u - ref.states[j].u)) <= 1e-6
            assert np.max(np.abs(state_m.v - ref.states[j].v)) <= 1e-6

    def test_small_shift_breaks_the_squeeze(self, triangle):
        prob = Problem(triangle, SET_I)
        warm = integrate(prob, (np.full(3, 0.9), np.full(3, 0.8)), t_end=3.0)
        state = warm.final
        pair = analytic_envelopes(1, SET_I, t0=3.0, state_at_t0=state, t_end=3.2)
        with pytest.raises(NoConvergence, match="shift"):
            monotone_solve(prob, pair, (state.u, state.v),
                           np.array([3.0, 3.1, 3.2]), m_const=1e-3, substep=1e-3)

    def test_invalid_pair_rejected(self, triangle):
        prob = Problem(triangle, SET_I)
        pair = constant_pair((2.0, 3.0), (0.0, 0.0), t_end=1.0)
        above = (np.full(3, 5.0), np.full(3, 1.0))
        with pytest.raises(PairInvalid):
            monotone_solve(prob, pair, above, np.array([0.0, 0.5, 1.0]))

    def test_grid_validation(self, triangle):
        prob = Problem(triangle, SET_I)
        pair = constant_pair((2.0, 3.0), (0.0, 0.0), t_end=1.0)
        inside = (np.ones(3), np.ones(3))
        with pytest.raises(InputError):
            monotone_solve(prob, pair, inside, np.array([0.5, 1.0]))
        with pytest.raises(InputError):
            monotone_solve(prob, pair, inside, np.array([0.0]))

    def test_tiny_substep_is_refused_up_front(self, reflecting):
        graph, part = reflecting
        prob = Problem(graph, SET_I, bc=BoundaryCondition.NEUMANN, partition=part)
        pair = constant_pair((2.0, 3.0), (0.0, 0.0), t0=2.0, t_end=2.2)
        start = time.perf_counter()
        with pytest.raises(InputError, match="fine points"):
            monotone_solve(prob, pair, (np.ones(5), np.ones(5)), np.array([2.0, 2.1, 2.2]),
                           substep=1e-9)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("csr", [False, True], ids=["dense", "csr"])
    def test_never_factors_a_matrix(self, csr, monkeypatch):
        """The forcing integrals come from the uniformization powers, so a solve makes no
        factorization under either storage."""
        prob, u0 = absorbing_lattice(20)
        pair = constant_pair(invariant_rectangle(BOUNDS_PARAMS, u0, u0), (0.0, 0.0),
                             t_end=0.01)

        def unreachable(mat):
            raise AssertionError("monotone_solve factored a matrix")

        monkeypatch.setattr(monotone, "_factor", unreachable)
        with stored(csr):
            sol = monotone_solve(prob, pair, (u0, u0), np.array([0.0, 0.005, 0.01]),
                                 substep=5e-4)
        assert sol.metadata["gap"] < 1e-8

    def test_pair_failing_between_grid_points_is_named(self, triangle):
        """A pair checked only at t_grid may fail its inequalities in between; the sandwich
        error then names that cause as well as the shift, which is taken over the fine
        points too, where the bump reaches 12: M = 2 b1 12 + c1 2 - a1 = 24."""
        params = CompetitionParams(a1=1.0, b1=1.0, c1=0.5, a2=1.0, b2=0.5, c2=1.0)
        prob = Problem(triangle, params)
        bump = TimeField(value=lambda t: 2.0 + 10.0 * math.sin(math.pi * t) ** 2,
                         derivative=lambda t: 10.0 * math.pi * math.sin(2.0 * math.pi * t))
        two, zero = (TimeField(value=lambda t, c=c: c, derivative=lambda t: 0.0)
                     for c in (2.0, 0.0))
        pair = OrderedPair(u_upper=bump, v_upper=two, u_lower=zero, v_lower=zero,
                           t0=0.0, t_end=1.0)
        initial = (np.ones(3), np.ones(3))
        assert verify_coupled_pair(prob, pair, np.array([0.0, 1.0]), initial=initial).passed
        fine = verify_coupled_pair(prob, pair, np.linspace(0.0, 1.0, 101), initial=initial)
        assert fine.worst()[0] == "upper_u_pde" and fine.worst()[1] < -13.0
        with pytest.raises(NoConvergence, match="shift M=24 .* between the t_grid points"):
            monotone_solve(prob, pair, initial, np.array([0.0, 1.0]), substep=0.01)

    def test_default_shift_covers_the_fine_points(self, triangle):
        """An upper u that is 10 at both grid points and 20 between them, a valid pair
        throughout: the default M is the slope bound at 20, not at 10 (which gave 41)."""
        rate = math.pi / 0.2
        bump = TimeField(value=lambda t: 10.0 + 10.0 * math.sin(rate * t) ** 2,
                         derivative=lambda t: 10.0 * rate * math.sin(2.0 * rate * t))
        one, zero = (TimeField(value=lambda t, c=c: c, derivative=lambda t: 0.0)
                     for c in (1.0, 0.0))
        pair = OrderedPair(u_upper=bump, v_upper=one, u_lower=zero, v_lower=zero,
                           t0=0.0, t_end=0.2)
        prob, initial = Problem(triangle, SET_I), (np.full(3, 0.5), np.full(3, 0.5))
        assert verify_coupled_pair(prob, pair, np.linspace(0.0, 0.2, 41),
                                   initial=initial).passed
        sol = monotone_solve(prob, pair, initial, np.array([0.0, 0.2]), substep=0.05)
        assert sol.metadata["m_const"] == 2 * SET_I.b1 * 20.0 + SET_I.c1 - SET_I.a1 == 81.0
        assert sol.metadata["gap"] < 1e-8

    def test_default_shift_ignores_values_off_the_closure(self):
        """On the path a-b-c-d-e with interior {a, b}, d and e are off the closure, so an
        upper field of 1 on the closure gives M = 4 and the same solve whatever it is
        there; taking 1e3 from them made M = 4999 and the sweeps ran out of
        iterations."""
        graph = build_graph(list("abcde"), [("a", "b", 1.0), ("b", "c", 1.0),
                                            ("c", "d", 1.0), ("d", "e", 1.0)])
        params = CompetitionParams(a1=1.0, b1=2.0, c1=1.0, a2=1.0, b2=1.0, c2=2.0)
        prob = Problem(graph, params, bc=BoundaryCondition.DIRICHLET,
                       partition=boundary_of(graph, ["a", "b"]))
        zero = TimeField(value=lambda t: 0.0, derivative=lambda t: 0.0)
        grid, sols = np.array([0.0, 0.05, 0.1]), []
        for far in (1e3, 0.0):
            upper = TimeField(value=lambda t, far=far: np.array([1.0, 1.0, 1.0, far, far]),
                              derivative=lambda t: 0.0)
            pair = OrderedPair(u_upper=upper, v_upper=upper, u_lower=zero, v_lower=zero,
                               t0=0.0, t_end=0.1)
            assert verify_coupled_pair(prob, pair, grid, initial=(0.0, 0.0)).passed
            sols.append(monotone_solve(prob, pair, (0.0, 0.0), grid, substep=0.005))
        for sol in sols:
            assert sol.metadata["m_const"] == 4.0
            assert sol.metadata["iterations"] == 9
        for far_state, near_state in zip(sols[0].states, sols[1].states):
            assert np.array_equal(far_state.u, near_state.u)
            assert np.array_equal(far_state.v, near_state.v)

    def test_non_finite_iterate_fails_fast(self, triangle):
        """A pair of height 1e200 overflows the first sweep's forcing to NaN, which passes
        the sandwich check (NaN compares false), so the solve stops there instead of
        running every sweep and reporting a NaN gap."""
        pair = constant_pair((1e200, 1e200), (0.0, 0.0), t_end=0.2)
        start = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NoConvergence, match="sweep 1 gave a non-finite iterate"):
            monotone_solve(Problem(triangle, SET_I), pair, (0.5, 0.5),
                           np.array([0.0, 0.1, 0.2]), substep=0.01)
        assert time.perf_counter() - start < 1.0

    def test_tiny_step_ends(self, triangle):
        """A step of 1e-170 makes the forcing series' relative tail 1e-16 (q h)^2 underflow
        to 0; the series still stops, once its next weight underflows too."""
        pair = constant_pair((2.0, 2.0), (0.0, 0.0), t_end=1e-170)
        sol = monotone_solve(Problem(triangle, SET_I), pair, (0.5, 0.5), np.array([0.0, 1e-170]))
        assert np.array_equal(sol.final.u, np.full(3, 0.5))

    def test_one_vertex_graph(self):
        """One vertex has L = 0, so the propagators' uniformization rate max(-L_ii) is 0 and
        any positive rate gives P = I; the sweeps close on the steady state (0.5, 0.5) of
        the all-ones kinetics, with no NaN from the zero rate."""
        graph = build_graph(["x"], [], measure1={"x": 1}, measure2={"x": 1})
        params = CompetitionParams(a1=1.0, b1=1.0, c1=1.0, a2=1.0, b2=1.0, c2=1.0)
        sol = monotone_solve(Problem(graph, params), constant_pair((2.0, 2.0), (0.0, 0.0)),
                             (0.5, 0.5), np.array([0.0, 0.5, 1.0]), substep=0.01)
        assert sol.metadata["gap"] < 1e-8
        for state in sol.states:
            assert np.max(np.abs(np.concatenate([state.u, state.v]) - 0.5)) <= 1e-8

    def test_lattice_above_the_old_dense_cap(self):
        """1444 active vertices, above the 1024 that dense propagators allowed, stay CSR
        and solve within criterion 4's 1e-6 of the integrator."""
        prob, u0 = absorbing_lattice(40)
        assert prob.active_idx.size == 1444
        assert graphs._stores_csr(prob.graph, prob.partition)
        grid = np.array([0.0, 0.005, 0.01])
        pair = constant_pair(invariant_rectangle(BOUNDS_PARAMS, u0, u0), (0.0, 0.0),
                             t_end=float(grid[-1]))
        sol = monotone_solve(prob, pair, (u0, u0), grid, substep=5e-4)
        assert sol.metadata["min_sandwich_slack"] >= -1e-12
        ref = integrate(prob, (u0, u0), t_end=0.01, dt=1e-4, forced_times=(0.005,))
        for t, state in zip(sol.times, sol.states):
            j = int(np.argmin(np.abs(ref.times - t)))
            assert abs(ref.times[j] - t) < 1e-9
            assert np.max(np.abs(state.u - ref.states[j].u)) <= 1e-6
            assert np.max(np.abs(state.v - ref.states[j].v)) <= 1e-6


def test_pair_from_trajectory_refuses_unordered_times():
    # times (0, 2, 1) interpolated as given read 0.75 at t = 1.5, where the samples in time
    # order read 1.5
    states = [FieldPair(u=np.full(3, x), v=np.full(3, x)) for x in (0.0, 1.0, 2.0)]
    for times in ([0.0, 2.0, 1.0], [0.0, 1.0, 1.0], [0.0, np.nan, 2.0]):
        with pytest.raises(InputError, match="strictly increasing"):
            pair_from_trajectory(Trajectory(times=np.array(times), states=states))
    ordered = pair_from_trajectory(Trajectory(times=np.array([0.0, 1.0, 2.0]),
                                              states=[states[0], states[2], states[1]]))
    assert np.array_equal(ordered.u_upper.value(1.5), np.full(3, 1.5))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_samples=st.integers(1, 12), n=st.integers(1, 30),
       scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e300]))
def test_pair_from_trajectory_interpolates_like_np_interp(seed, n_samples, n, scale):
    """All vertices at once against one np.interp per vertex: exact at the sample times,
    held at the end samples outside [t0, t_end], and within 1e-15 of the larger bracketing
    sample in between."""
    rng = np.random.default_rng(seed)
    times = float(rng.uniform(-5.0, 5.0)) + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(1e-3, 2.0, n_samples - 1))])
    u, v = scale * rng.uniform(-1.0, 1.0, (2, n_samples, n))
    traj = Trajectory(times=times, states=[FieldPair(u=a, v=b) for a, b in zip(u, v)])
    pair = pair_from_trajectory(traj)
    span = times[-1] - times[0] + 1.0
    before, after = span * rng.uniform(1e-9, 2.0, 2)
    outside = [times[0] - before, times[-1] + after, -np.inf, np.inf]
    inside = rng.uniform(times[0], times[-1], 8) if n_samples > 1 else []
    for field, samples in ((pair.u_upper, u), (pair.v_lower, v)):
        for t in [*times, *outside, *inside]:
            got = field.value(t)
            want = np.array([np.interp(t, times, samples[:, j]) for j in range(n)])
            if t in times or not times[0] <= t <= times[-1]:
                assert np.array_equal(got, want)
            else:
                j = int(np.searchsorted(times, t)) - 1
                bound = np.maximum(np.abs(samples[j]), np.abs(samples[j + 1]))
                assert np.all(np.abs(got - want) <= 1e-15 * bound)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bc=st.sampled_from(list(BoundaryCondition)),
       substep=st.one_of(st.none(), st.floats(0.002, 0.02)), shared=st.booleans(),
       csr=st.booleans())
def test_monotone_solve_matches_dense_forcing_reference(seed, bc, substep, shared, csr):
    """Batched forcing integrals against dense expm and p0/p1 matrices applied step by step.

    ``shared`` draws one weight table, unit measures and d1 = d2, so both
    species have one operator; otherwise weights and measures are split.
    ``csr`` stores the solver's operators as CSR, or dense.
    """
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng, max_vertices=12, split_weights=not shared,
                                   random_measure=not shared)
    part = None if bc is BoundaryCondition.NO_BOUNDARY else random_connected_interior(rng, graph)
    a1, b1, c1, a2, b2, c2 = rng.uniform(0.5, 2.0, 6)
    d1, d2 = rng.uniform(0.1, 2.0, 2)
    params = CompetitionParams(a1=a1, b1=b1, c1=c1, a2=a2, b2=b2, c2=c2,
                               d1=d1, d2=d1 if shared else d2)
    prob = Problem(graph, params, bc=bc, partition=part)
    closure = prob.closure_idx
    u0, v0 = np.zeros(graph.n), np.zeros(graph.n)
    u0[closure], v0[closure] = rng.uniform(0.0, 2.0, (2, closure.size))
    if bc is BoundaryCondition.DIRICHLET:
        u0[part.boundary_idx] = v0[part.boundary_idx] = 0.0
    t0 = float(rng.uniform(0.0, 2.0))
    t_grid = t0 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.02, 0.05,
                                                             int(rng.integers(1, 4))))])
    pair = constant_pair(invariant_rectangle(params, u0[closure], v0[closure]), (0.0, 0.0),
                         t0=t0, t_end=float(t_grid[-1]))

    with stored(csr):
        sol = monotone_solve(prob, pair, (u0, v0), t_grid, substep=substep)
    ref_u, ref_v, ref_iterations = reference_monotone_solve(prob, pair, (u0, v0), t_grid,
                                                            substep=substep)
    assert sol.metadata["iterations"] == ref_iterations
    act = prob.active_idx
    for state, want_u, want_v in zip(sol.states, ref_u, ref_v):
        assert np.max(np.abs(state.u[act] - want_u)) <= 1e-12 * np.max(np.abs(want_u))
        assert np.max(np.abs(state.v[act] - want_v)) <= 1e-12 * np.max(np.abs(want_v))


def _draw_shift(rng):
    """A shift in [0.01, 1] or, half the time, one log-uniform in [1, 1e7]."""
    return rng.uniform(0.01, 1.0) if rng.random() < 0.5 else 10.0 ** rng.uniform(0.0, 7.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bc=st.sampled_from(list(BoundaryCondition)))
def test_uniformized_propagator_against_expm(seed, bc):
    """Under both storages the propagator keeps nonnegative blocks nonnegative and agrees
    with a dense expm to 1e-13 of the block's largest entry (it is an inf-norm
    contraction), on a short step and on one with q h > 50 that is split into substeps,
    for shifts up to 1e7, where e^(-shift h) underflows."""
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng, max_vertices=12, split_weights=True,
                                   random_measure=True)
    part = None if bc is BoundaryCondition.NO_BOUNDARY else random_connected_interior(rng, graph)
    prob = Problem(graph, SET_I, bc=bc, partition=part)
    d, shift = rng.uniform(0.1, 3.0), _draw_shift(rng)
    x = rng.uniform(0.0, 2.0, (prob.active_idx.size, 3))
    x[rng.random(x.shape) < 0.3] = 0.0
    for csr in (True, False):
        with stored(csr):
            diff = d * reduced_operators(prob).red1
        assert isinstance(diff, np.ndarray) != csr
        dense = diff.toarray() if csr else diff
        q = max(float(-dense.diagonal().min()), 0.0) or 1.0    # the propagator's rate
        long_step = rng.uniform(1.02, 3.0) * monotone._MAX_POISSON_MEAN / q
        assert q * long_step > monotone._MAX_POISSON_MEAN
        for h in (rng.uniform(1e-4, 0.05), long_step):
            got = monotone._propagator(diff, shift, h)[0](x)
            assert np.all(got >= 0.0)
            want = scipy.linalg.expm((dense - shift * np.eye(len(dense))) * h) @ x
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(x)


@pytest.mark.parametrize("csr", [False, True], ids=["dense", "csr"])
def test_propagator_cost_does_not_grow_with_the_shift(csr, monkeypatch):
    """P = I + d L / q, the series' lengths and the substeps come from d L and the step
    alone, the shift entering as a scalar factor of the weights, so one step makes as many
    products with P at shift 1e6 as at shift 1."""
    prob, _ = absorbing_lattice(8)
    with stored(csr):
        diff = 0.1 * reduced_operators(prob).red1
    x = np.ones((prob.active_idx.size, 2))
    products = []

    class Counting:
        def __init__(self, mat):
            self.mat = mat

        def __matmul__(self, other):
            products[-1] += 1
            return self.mat @ other

    add_identity = monotone._add_identity
    monkeypatch.setattr(monotone, "_add_identity", lambda mat, c: Counting(add_identity(mat, c)))
    for shift in (1.0, 1e6):
        products.append(0)
        propagate, force = monotone._propagator(diff, shift, 0.5)
        propagate(x)
        force(x, x)
    assert products[0] == products[1] > 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bc=st.sampled_from(list(BoundaryCondition)))
# q h = 2.2e-4: an absolute 1e-16 tail cut the forcing series at K = 3, 2.8e-13 from exact
@example(seed=536870911, bc=BoundaryCondition.NEUMANN)
def test_uniformized_forcing_against_dense_reference(seed, bc):
    """Under both storages the forcing Phi1 g + Phi2 gdot agrees with reference_step's
    p0 g + p1 gdot to 1e-13 of the inputs' scale, max|g| + max|gdot| on a short step and
    h max|g| + h^2 max|gdot| (the forcing's own bound) on one with q h > 50, for shifts up
    to 1e7; both weight families are nonnegative, so nonnegative inputs give a nonnegative
    forcing."""
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng, max_vertices=12, split_weights=True,
                                   random_measure=True)
    part = None if bc is BoundaryCondition.NO_BOUNDARY else random_connected_interior(rng, graph)
    prob = Problem(graph, SET_I, bc=bc, partition=part)
    d, shift = rng.uniform(0.1, 3.0), _draw_shift(rng)
    g = rng.uniform(0.0, 2.0, (prob.active_idx.size, 3))
    gdot = rng.uniform(-2.0, 2.0, g.shape)
    g[rng.random(g.shape) < 0.3] = 0.0
    for csr in (True, False):
        with stored(csr):
            diff = d * reduced_operators(prob).red1
        dense = diff.toarray() if csr else diff
        q = max(float(-dense.diagonal().min()), 0.0) or 1.0    # the propagator's rate
        long_step = rng.uniform(1.02, 3.0) * monotone._MAX_POISSON_MEAN / q
        for h in (rng.uniform(1e-4, 0.05), long_step):
            count = len(monotone._poisson_weights(q * h)) - 1
            assert all(w >= 0.0 for family in monotone._forcing_weights(count, q, shift, h)
                       for w in family)
            force = monotone._propagator(diff, shift, h)[1]
            _, p0, p1 = reference_step(dense - shift * np.eye(len(dense)), h)
            scale = max(1.0, h) * (np.max(np.abs(g)) + max(1.0, h) * np.max(np.abs(gdot)))
            assert np.max(np.abs(force(g, gdot) - (p0 @ g + p1 @ gdot))) <= 1e-13 * scale
            assert np.all(force(g, np.abs(gdot)) >= 0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_logistic_steady_state_under_both_storages(seed):
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng, max_vertices=40, split_weights=True,
                                   random_measure=True)
    while graph.n < 3:
        graph = random_connected_graph(rng, max_vertices=40, split_weights=True,
                                       random_measure=True)
    part = random_connected_interior(rng, graph)
    while part.interior_idx.size < 2:    # ARPACK, forced onto CSR, needs k = 1 below n
        part = random_connected_interior(rng, graph)
    species, d, e = int(rng.integers(1, 3)), rng.uniform(0.05, 1.0), rng.uniform(0.5, 2.0)
    lam = monotone.smallest_dirichlet_eigenpair(graph, species, part).lambda0
    a = lam * d + rng.uniform(0.1, 2.0)
    states = []
    for csr in (True, False):
        with stored(csr):
            assert graphs._stores_csr(graph, part) == csr
            states.append(logistic_steady_state(graph, part, species, d, a, e))
    sparse, dense = states
    assert sparse.iterations == dense.iterations
    assert max(sparse.residual, dense.residual) <= 1e-10
    assert np.max(np.abs(sparse.values - dense.values)) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       t0=st.floats(-100.0, 100.0), span=st.floats(1e-2, 200.0),
       kind=st.sampled_from(["vector", "scalar", "mixed", "derivative"]))
def test_tf_rates_match_the_per_time_reader(seed, n, t0, span, kind):
    """The grid-wide rates are bit for bit the per-time derivative of the reference, with
    grid points within 1e-6 of both ends, and the field is never evaluated outside
    [t0, t_end]."""
    rng = np.random.default_rng(seed)
    t_end = t0 + span
    a, b, c = rng.uniform(-2.0, 2.0, (3, n))
    called = []

    def value(t):
        called.append(t)
        if kind == "scalar" or (kind == "mixed" and t < t0 + span / 2):
            return float(a[0] * math.sin(b[0] * t) + c[0] * t * t)
        return a * np.sin(b * t) + c * t * t

    field = TimeField(value=value, derivative=(lambda t: b * np.cos(a * t))
                      if kind == "derivative" else None)
    near = rng.uniform(0.0, 1e-6, 4) * max(1.0, abs(t0), abs(t_end))
    grid = np.concatenate([[t0, t_end], t0 + near[:2], t_end - near[2:],
                           rng.uniform(t0, t_end, 6)])
    grid = np.clip(grid, t0, t_end)
    idx = np.flatnonzero(rng.random(n) < 0.7)
    got = monotone._tf_rates(field, grid, n, idx, t0, t_end)
    assert all(t0 <= t <= t_end for t in called)
    want = np.stack([reference_tf_derivative(field, t, n, t0, t_end)[idx]
                     for t in grid.tolist()])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _random_pair(rng, kind, n, t0, t_end):
    """An ordered pair on n vertices: constants, or per-vertex exponentials
    base + amp exp(-rate (t - t0)) with their exact derivatives or none."""
    lo, hi = np.sort(rng.uniform(0.0, 3.0, (2, 2)), axis=0)
    if kind == "constant":
        return constant_pair(tuple(hi), tuple(lo), t0=t0, t_end=t_end)

    def field(base):
        amp, rate = rng.uniform(-1.0, 1.0, n), rng.uniform(0.1, 2.0, n)
        return TimeField(value=lambda t: base + amp * np.exp(-rate * (t - t0)),
                         derivative=(lambda t: -rate * amp * np.exp(-rate * (t - t0)))
                         if kind == "exponential" else None)

    u_hi, v_hi, u_lo, v_lo = (field(rng.uniform(c, c + 0.5, n))
                              for c in (hi[0], hi[1], lo[0], lo[1]))
    return OrderedPair(u_upper=u_hi, v_upper=v_hi, u_lower=u_lo, v_lower=v_lo,
                       t0=t0, t_end=t_end)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bc=st.sampled_from(list(BoundaryCondition)),
       csr=st.booleans(), kind=st.sampled_from(["constant", "exponential", "differenced"]),
       with_initial=st.booleans())
def test_verify_coupled_pair_matches_the_reference(seed, bc, csr, kind, with_initial):
    """The four-row check gives the per-name reference's slacks bit for bit, in the same
    order, under every boundary condition and both storages, for constant pairs and for
    exponential pairs with and without derivatives, with and without initial data."""
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng, max_vertices=8, split_weights=rng.random() < 0.5,
                                   random_measure=rng.random() < 0.5)
    part = None if bc is BoundaryCondition.NO_BOUNDARY else random_connected_interior(rng, graph)
    a1, b1, c1, a2, b2, c2, d1, d2 = rng.uniform(0.2, 2.0, 8)
    prob = Problem(graph, CompetitionParams(a1=a1, b1=b1, c1=c1, a2=a2, b2=b2, c2=c2,
                                            d1=d1, d2=d2), bc=bc, partition=part)
    t0 = float(rng.uniform(-1.0, 1.0))
    grid = t0 + np.sort(rng.uniform(0.0, 2.0, int(rng.integers(1, 6))))
    pair = _random_pair(rng, kind, graph.n, t0, float(grid[-1]))
    initial = None
    if with_initial:
        initial = rng.uniform(0.0, 3.0, (2, graph.n))
        if bc is BoundaryCondition.DIRICHLET:
            initial[:, part.boundary_idx] = 0.0
    with stored(csr):
        got = verify_coupled_pair(prob, pair, grid, initial=initial)
        want, passed = reference_verify_coupled_pair(prob, pair, grid, initial=initial)
    assert [(name, s.hex()) for name, s in got.slacks.items()] == [
        (name, s.hex()) for name, s in want.items()]
    assert got.passed == passed
