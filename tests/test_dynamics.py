"""Problem construction, invariant rectangle, and the explicit integrator."""

import dataclasses

import numpy as np
import pytest
from conftest import dense_weights, random_connected_graph, random_connected_interior, stored
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlv import (
    BoundaryCondition,
    CompetitionParams,
    DomainMode,
    FieldPair,
    Problem,
    WeightedGraph,
    integrate,
    invariant_rectangle,
    laplacian_apply,
    neumann_project,
    normal_derivative,
    reaction,
    sample_times,
    stable_dt,
)
from graphlv import dynamics, graphs
from graphlv.dynamics import _windows, reduced_operators
from graphlv.errors import (
    InputError,
    IsolatedBoundaryVertex,
    MissingVertexValue,
    NegativeInitial,
    StepSizeUnstable,
)
from graphlv.fixtures import reflecting_example, triangle_example
from graphlv.graphs import DomainPartition, boundary_of, build_graph

PARAMS_I = CompetitionParams(a1=1.0, b1=2.0, c1=2.0, a2=1.0, b2=1.0, c2=1.0)


class TestParams:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_positive_finite_required(self, bad):
        with pytest.raises(InputError):
            CompetitionParams(a1=bad, b1=1.0, c1=1.0, a2=1.0, b2=1.0, c2=1.0)

    @pytest.mark.parametrize("fields", [
        {"a1": np.array([1.0, 2.0]), "c2": np.array([1.0, 2.0, 3.0])},
        {"a1": np.ones((2, 2))},
        {"a1": np.array([])},
        {"a1": np.array([1, 2])},
        {"a1": np.array([1.0, np.nan])},
        {"a1": np.array([1.0, np.inf])},
        {"a1": np.array([1.0, 0.0])},
        {"d2": np.array([1.0, -1.0])},
    ], ids=["lengths", "2d", "empty", "int", "nan", "inf", "zero", "negative"])
    def test_batch_fields_validated(self, fields):
        with pytest.raises(InputError):
            dataclasses.replace(PARAMS_I, **fields)

    def test_diffusion_defaults_to_one(self):
        assert PARAMS_I.d1 == 1.0 and PARAMS_I.d2 == 1.0

    def test_reaction_broadcasts(self):
        f1, f2 = reaction(PARAMS_I, np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert np.allclose(f1, [0.0, 1.0 * (1.0 - 2.0 - 1.0)])
        assert np.allclose(f2, [0.5 * (1.0 - 0.5), 0.5 * (1.0 - 1.0 - 0.5)])


class TestProblem:
    def test_whole_graph_rejects_partition(self, reflecting):
        graph, part = reflecting
        with pytest.raises(InputError):
            Problem(graph, PARAMS_I, partition=part)

    def test_partitioned_bc_requires_partition(self, triangle):
        for bc in (BoundaryCondition.NEUMANN, BoundaryCondition.DIRICHLET):
            with pytest.raises(InputError):
                Problem(triangle, PARAMS_I, bc=bc)

    def test_active_set(self, reflecting):
        graph, part = reflecting
        prob = Problem(graph, PARAMS_I, bc=BoundaryCondition.DIRICHLET, partition=part)
        assert np.array_equal(prob.active_idx, part.interior_idx)
        whole = Problem(graph, PARAMS_I)
        assert np.array_equal(whole.active_idx, np.arange(5))


class TestRectangle:
    def test_bounds_cover_carrying_capacity_and_initial(self):
        m_u, m_v = invariant_rectangle(PARAMS_I, np.array([7.0]), np.array([0.2]))
        assert m_u == 7.0  # initial exceeds a1/b1
        assert m_v == 1.0  # a2/c2 exceeds initial

    @settings(max_examples=30, deadline=None)
    @given(
        u0=st.floats(0.0, 10.0),
        v0=st.floats(0.0, 10.0),
    )
    def test_trajectory_stays_inside(self, u0, v0):
        g = build_graph(["x1", "x2", "x3"],
                        [("x1", "x2", 1.0), ("x2", "x3", 1.0), ("x1", "x3", 1.0)])
        prob = Problem(g, PARAMS_I)
        traj = integrate(prob, (np.full(3, u0), np.full(3, v0)), t_end=2.0)
        m_u, m_v = invariant_rectangle(PARAMS_I, np.full(3, u0), np.full(3, v0))
        for state in traj.states:
            assert np.all(state.u >= 0.0) and np.all(state.v >= 0.0)
            assert np.all(state.u <= m_u + 1e-9) and np.all(state.v <= m_v + 1e-9)


class TestInitialData:
    def test_negative_rejected(self, triangle):
        prob = Problem(triangle, PARAMS_I)
        with pytest.raises(NegativeInitial):
            integrate(prob, (np.array([1.0, -0.1, 1.0]), np.ones(3)), t_end=1.0)

    def test_dirichlet_boundary_must_vanish(self, reflecting):
        graph, part = reflecting
        prob = Problem(graph, PARAMS_I, bc=BoundaryCondition.DIRICHLET, partition=part)
        with pytest.raises(InputError):
            integrate(prob, (np.ones(5), np.ones(5)), t_end=1.0)

    def test_mapping_initial_fills_inactive_with_zero(self, reflecting):
        graph, part = reflecting
        prob = Problem(graph, PARAMS_I, bc=BoundaryCondition.DIRICHLET, partition=part)
        traj = integrate(
            prob,
            ({"x1": 1.0, "x2": 1.0, "x3": 1.0}, {"x1": 0.5, "x2": 0.5, "x3": 0.5}),
            t_end=0.1,
        )
        assert np.all(traj.states[0].u[part.boundary_idx] == 0.0)

    @pytest.mark.parametrize("bc", [BoundaryCondition.NEUMANN, BoundaryCondition.DIRICHLET])
    def test_vertices_outside_the_closure_take_no_part(self, bc):
        # path a-b-c-d with interior {a}: the closure {a, b} leaves c and d out
        graph = build_graph(("a", "b", "c", "d"),
                            [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)])
        prob = Problem(graph, PARAMS_I, bc=bc, partition=boundary_of(graph, ("a",)))
        b0 = 0.0 if bc is BoundaryCondition.DIRICHLET else 1.0
        near = integrate(prob, ({"a": 1.0, "b": b0, "c": 0.0, "d": 0.0},
                                {"a": 0.5, "b": b0, "c": 0.0, "d": 0.0}), t_end=1.0)
        # values there are ignored, negative or infinite ones too
        for c, d in ((9.0, 9.0), (-1.0, np.inf)):
            far = integrate(prob, ({"a": 1.0, "b": b0, "c": c, "d": d},
                                   {"a": 0.5, "b": b0, "c": c, "d": d}), t_end=1.0)
            assert far.metadata == near.metadata
            for s_far, s_near in zip(far.states, near.states):
                assert np.array_equal(s_far.u, s_near.u) and np.array_equal(s_far.v, s_near.v)
                assert np.all(s_far.u[2:] == 0.0) and np.all(s_far.v[2:] == 0.0)

    def test_scalar_t_end_validated(self, triangle):
        prob = Problem(triangle, PARAMS_I)
        with pytest.raises(InputError):
            integrate(prob, (np.ones(3), np.ones(3)), t_end=0.0)
        with pytest.raises(InputError):
            integrate(prob, (np.ones(3), np.ones(3)), t_end=1.0, dt=-0.5)


class TestNeumann:
    def test_projection_zeroes_normal_derivative(self, reflecting):
        graph, part = reflecting
        prob = Problem(graph, PARAMS_I, bc=BoundaryCondition.NEUMANN, partition=part)
        rng = np.random.default_rng(5)
        state = neumann_project(prob, FieldPair(u=rng.uniform(0.1, 2.0, 5),
                                                v=rng.uniform(0.1, 2.0, 5)))
        for at in part.boundary:
            assert abs(normal_derivative(graph, 1, part, state.u, at)) <= 1e-14
            assert abs(normal_derivative(graph, 2, part, state.v, at)) <= 1e-14

    def test_flow_preserves_reflecting_boundary(self, reflecting):
        graph, part = reflecting
        prob = Problem(graph, PARAMS_I, bc=BoundaryCondition.NEUMANN, partition=part)
        traj = integrate(prob, ({"x1": 7.0, "x2": 6.0, "x3": 5.0},
                                {"x1": 4.0, "x2": 3.0, "x3": 2.0}), t_end=1.0)
        for state in traj.states:
            for at in part.boundary:
                assert abs(normal_derivative(graph, 1, part, state.u, at)) <= 1e-13
                assert abs(normal_derivative(graph, 2, part, state.v, at)) <= 1e-13

    def test_projection_requires_reflecting_bc(self, triangle):
        prob = Problem(triangle, PARAMS_I)
        with pytest.raises(InputError):
            neumann_project(prob, FieldPair(u=np.ones(3), v=np.ones(3)))

    def test_projection_needs_one_value_per_vertex(self, reflecting):
        graph, part = reflecting
        prob = Problem(graph, PARAMS_I, bc=BoundaryCondition.NEUMANN, partition=part)
        for u, v in ((np.ones(3), np.ones(3)), (np.ones(5), np.ones((5, 2)))):
            with pytest.raises(InputError, match="one value per vertex"):
                neumann_project(prob, FieldPair(u=u, v=v))
        state = neumann_project(prob, FieldPair(u=np.ones((5, 2)), v=np.ones((5, 2))))
        assert state.u.shape == state.v.shape == (5, 2)

    def test_isolated_boundary_vertex_rejected(self):
        g = build_graph(
            ["a", "b", "c", "d"],
            [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)],
        )
        # hand-built partition: vertex d touches no interior vertex
        part = DomainPartition(
            interior=("a", "b"),
            boundary=("c", "d"),
            interior_idx=np.array([0, 1]),
            boundary_idx=np.array([2, 3]),
        )
        prob = Problem(g, PARAMS_I, bc=BoundaryCondition.NEUMANN, partition=part)
        with pytest.raises(IsolatedBoundaryVertex):
            reduced_operators(prob)


class TestSampling:
    @settings(max_examples=40, deadline=None)
    @given(
        t_end=st.floats(0.5, 500.0),
        dt=st.floats(1e-4, 0.1),
        forced=st.lists(st.floats(0.01, 400.0), max_size=3),
    )
    def test_schedule_shape(self, t_end, dt, forced):
        times = sample_times(t_end, dt, forced=forced)
        assert times[0] == 0.0 and times[-1] == t_end
        assert np.all(np.diff(times) > 0.0)
        for f in forced:
            if 0.0 < f <= t_end:
                assert f in times

    def test_max_samples_respected(self):
        times = sample_times(1000.0, 1e-6, max_samples=40)
        assert len(times) <= 42

    @pytest.mark.parametrize("t_end, dt", [(1.0, 0.0), (1.0, -0.1), (1.0, np.nan),
                                           (1.0, np.inf), (0.0, 0.1), (-1.0, 0.1),
                                           (np.inf, 0.1), (np.nan, 0.1)])
    def test_invalid_horizon_or_step_rejected(self, t_end, dt):
        with pytest.raises(InputError):
            sample_times(t_end, dt)


class TestIntegrate:
    def test_deterministic(self, triangle):
        prob = Problem(triangle, PARAMS_I)
        runs = [
            integrate(prob, (np.array([7.0, 6.0, 5.0]), np.array([4.0, 3.0, 2.0])),
                      t_end=3.0)
            for _ in range(2)
        ]
        for s0, s1 in zip(runs[0].states, runs[1].states):
            assert s0.u.tobytes() == s1.u.tobytes()
            assert s0.v.tobytes() == s1.v.tobytes()

    def test_stable_dt_shrinks_with_state_bound(self, triangle):
        prob = Problem(triangle, PARAMS_I)
        assert stable_dt(prob, 10.0, 10.0) < stable_dt(prob, 1.0, 1.0)

    def test_known_exclusion_limit(self, reflecting):
        # dominant second species drives the first one out
        graph, part = reflecting
        prob = Problem(graph, PARAMS_I, bc=BoundaryCondition.NEUMANN, partition=part)
        traj = integrate(prob, ({"x1": 7.0, "x2": 6.0, "x3": 5.0},
                                {"x1": 4.0, "x2": 3.0, "x3": 2.0}), t_end=20.0)
        assert np.all(np.abs(traj.final.u) < 1e-2)
        assert np.all(np.abs(traj.final.v - 1.0) < 1e-2)

    def test_oversized_step_raises(self, triangle):
        prob = Problem(triangle, PARAMS_I)
        with pytest.raises(StepSizeUnstable):
            integrate(prob, (np.full(3, 7.0), np.full(3, 4.0)), t_end=2.0, dt=1e9)

    def test_metadata_records_step_accounting(self, triangle):
        prob = Problem(triangle, PARAMS_I)
        traj = integrate(prob, (np.ones(3), np.ones(3)), t_end=1.0)
        md = traj.metadata
        assert md["n_steps"] > 0 and md["dt"] > 0.0
        assert md["bc"] == "none"
        assert traj.final is traj.states[-1]
        # FSAL: one first stage, then six evaluations per attempted step
        assert md["n_halvings"] == md["n_clamped"] == 0
        assert md["n_rhs"] == 1 + 6 * (md["n_steps"] + md["n_rejected"])
        fixed = integrate(prob, (np.ones(3), np.ones(3)), t_end=1.0, dt=0.01).metadata
        assert fixed["n_rhs"] == 4 * fixed["n_steps"] and fixed["n_rejected"] == 0

    @pytest.mark.parametrize("bc", list(BoundaryCondition),
                             ids=[bc.value for bc in BoundaryCondition])
    def test_diffusion_rate_matches_gathered_degrees(self, bc):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            graph = random_connected_graph(rng, max_vertices=12, split_weights=True,
                                           random_measure=True)
            part = None
            if bc is not BoundaryCondition.NO_BOUNDARY:
                part = random_connected_interior(rng, graph)
            prob = Problem(graph, dataclasses.replace(PARAMS_I, d1=0.3, d2=1.7), bc=bc,
                           partition=part)
            act, closure = prob.active_idx, prob.closure_idx
            want = max(d * float((dense_weights(graph, s)[np.ix_(act, closure)].sum(axis=1)
                                  / graph.measure(s)[act]).max())
                       for s, d in ((1, 0.3), (2, 1.7)))
            assert dynamics._diffusion_rate(prob) == pytest.approx(want, rel=1e-15, abs=0.0)


def _dirichlet_case():
    rng = np.random.default_rng(11)
    graph = random_connected_graph(rng, split_weights=True, random_measure=True)
    part = random_connected_interior(rng, graph)
    initial = np.zeros((2, graph.n))
    initial[:, part.interior_idx] = rng.uniform(0.1, 1.0, (2, part.interior_idx.size))
    return Problem(graph, PARAMS_I, bc=BoundaryCondition.DIRICHLET, partition=part), initial


REFLECTING = reflecting_example()
BATCH_CASES = {
    "triangle": (Problem(triangle_example(), PARAMS_I),
                 (np.array([0.7, 0.6, 0.5]), np.array([0.4, 0.3, 0.2]))),
    "neumann": (Problem(REFLECTING[0], PARAMS_I, bc=BoundaryCondition.NEUMANN,
                        partition=REFLECTING[1]),
                ({"x1": 0.7, "x2": 0.6, "x3": 0.5}, {"x1": 0.4, "x2": 0.3, "x3": 0.2})),
    "dirichlet": _dirichlet_case(),
}


class TestBatch:
    A1 = np.array([0.5, 1.0, 2.0, 3.0])
    C2 = np.array([0.5, 1.0, 1.0, 2.0])
    D1 = np.array([0.1, 1.0, 0.5, 2.0])

    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_columns_match_scalar_runs(self, case):
        problem, initial = BATCH_CASES[case]
        batch = dataclasses.replace(problem.params, a1=self.A1, c2=self.C2, d1=self.D1)
        traj = integrate(dataclasses.replace(problem, params=batch), initial,
                         t_end=1.0, dt=1e-3, max_samples=6)
        assert traj.final.u.shape == (problem.graph.n, self.A1.size)
        for j in range(self.A1.size):
            point = dataclasses.replace(problem.params, a1=self.A1[j], c2=self.C2[j],
                                        d1=self.D1[j])
            single = integrate(dataclasses.replace(problem, params=point), initial,
                               t_end=1.0, dt=1e-3, max_samples=6)
            assert np.array_equal(single.times, traj.times)
            for s_single, s_batch in zip(single.states, traj.states):
                assert np.max(np.abs(s_batch.u[:, j] - s_single.u)) <= 1e-12
                assert np.max(np.abs(s_batch.v[:, j] - s_single.v)) <= 1e-12

    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_initial_columns_match_scalar_runs(self, case):
        """(n, P) initial data next to a parameter batch: column j starts from its own
        state with its own params."""
        problem, initial = BATCH_CASES[case]
        u0, v0 = dynamics._coerce_initial(problem, initial)
        scales = np.array([0.5, 1.0, 2.5])
        batch = dataclasses.replace(problem.params, a1=self.A1[:3], d1=self.D1[:3])
        traj = integrate(dataclasses.replace(problem, params=batch),
                         (np.multiply.outer(u0, scales), np.multiply.outer(v0, scales)),
                         t_end=1.0, dt=1e-3, max_samples=6)
        assert traj.final.u.shape == (problem.graph.n, scales.size)
        for j, scale in enumerate(scales):
            point = dataclasses.replace(problem.params, a1=self.A1[j], d1=self.D1[j])
            single = integrate(dataclasses.replace(problem, params=point),
                               (scale * u0, scale * v0), t_end=1.0, dt=1e-3, max_samples=6)
            for s_single, s_batch in zip(single.states, traj.states):
                assert np.max(np.abs(s_batch.u[:, j] - s_single.u)) <= 1e-12
                assert np.max(np.abs(s_batch.v[:, j] - s_single.v)) <= 1e-12

    def test_initial_columns_must_match_the_params(self, triangle):
        batch = dataclasses.replace(PARAMS_I, a1=self.A1)
        with pytest.raises(InputError, match="3 initial states for 4 parameter sets"):
            integrate(Problem(triangle, batch), (np.ones((3, 3)), np.ones((3, 3))), t_end=1.0)

    def test_initial_data_need_a_column(self):
        problem = BATCH_CASES["neumann"][0]
        with pytest.raises(InputError, match="need a column"):
            integrate(problem, (np.ones((5, 0)), np.ones((5, 0))), t_end=1.0)

    def test_rectangle_per_column(self):
        data = np.array([[7.0, 0.1, 2.0], [0.5, 0.3, 3.0], [1.0, 0.2, 0.4]])
        batch = dataclasses.replace(PARAMS_I, a1=self.A1[:3])
        points = [dataclasses.replace(PARAMS_I, a1=a1) for a1 in self.A1[:3]]
        for params, singles in ((PARAMS_I, [PARAMS_I] * 3), (batch, points)):
            m_u, m_v = invariant_rectangle(params, data, data[::-1])
            assert [(m_u[j], m_v[j]) for j in range(3)] == [
                invariant_rectangle(single, data[:, j], data[::-1, j])
                for j, single in enumerate(singles)]

    def test_coerce_initial_per_column(self):
        problem = BATCH_CASES["neumann"][0]
        u_cols = np.array([[0.7, 0.1], [0.6, 0.2], [0.5, 0.3], [np.nan, 0.0], [0.0, 9.0]])
        v_cols = u_cols[:, ::-1].copy()
        u, v = dynamics._coerce_initial(problem, (u_cols, v_cols))
        assert u.shape == v.shape == (5, 2)
        for j in range(2):
            want = dynamics._coerce_initial(problem, (u_cols[:, j], v_cols[:, j]))
            assert np.array_equal(u[:, j], want[0]) and np.array_equal(v[:, j], want[1])

    @pytest.mark.parametrize("column", [0, 1])
    def test_each_initial_check_rejects_a_bad_column(self, column):
        graph, part = REFLECTING
        neumann = Problem(graph, PARAMS_I, bc=BoundaryCondition.NEUMANN, partition=part)
        dirichlet = Problem(graph, PARAMS_I, bc=BoundaryCondition.DIRICHLET, partition=part)
        good = np.zeros((5, 2))
        good[part.interior_idx] = 0.5
        assert dynamics._coerce_initial(dirichlet, (good, good))[0].shape == (5, 2)
        for problem, (vertex, value), error, message in [
                (neumann, (part.interior_idx[1], np.nan), MissingVertexValue, "no value"),
                (neumann, (part.interior_idx[2], -0.1), NegativeInitial, "nonnegative"),
                (neumann, (part.boundary_idx[0], -0.1), NegativeInitial, "nonnegative"),
                (dirichlet, (part.boundary_idx[1], 0.2), InputError, "vanish")]:
            bad = good.copy()
            bad[vertex, column] = value
            with pytest.raises(error, match=message):
                dynamics._coerce_initial(problem, (bad, good))
            with pytest.raises(error, match=message):
                dynamics._coerce_initial(problem, (good, bad))
        with pytest.raises(InputError, match="differ in shape"):
            dynamics._coerce_initial(neumann, (good, good[:, :1]))

    def test_stable_dt_is_the_smallest_in_the_batch(self, triangle):
        batch = dataclasses.replace(PARAMS_I, a1=self.A1)
        prob = Problem(triangle, batch)
        m_u, m_v = invariant_rectangle(batch, np.ones(3), np.ones(3))
        singles = [stable_dt(Problem(triangle, dataclasses.replace(PARAMS_I, a1=a1)),
                             *invariant_rectangle(dataclasses.replace(PARAMS_I, a1=a1),
                                                  np.ones(3), np.ones(3)))
                   for a1 in self.A1]
        assert stable_dt(prob, m_u, m_v) == min(singles)


class TestStepBudget:
    @pytest.mark.parametrize("u0", [1e308, 1e8])
    def test_huge_initial_data_fails_before_stepping(self, triangle, u0):
        prob = Problem(triangle, PARAMS_I)
        with pytest.raises(StepSizeUnstable):
            integrate(prob, (np.full(3, u0), np.ones(3)), t_end=1.0)

    def test_explicit_step_over_budget(self, triangle):
        prob = Problem(triangle, PARAMS_I)
        with pytest.raises(StepSizeUnstable):
            integrate(prob, (np.ones(3), np.ones(3)), t_end=100.0, dt=1e-6)

    def test_adaptive_run_not_refused_for_its_horizon(self, triangle, monkeypatch):
        # the whole span is 200 / cap = 4200 steps of the stability cap, but only its first 10
        # time units (210 cap steps) are counted up front, and DP5(4) needs about 170 steps
        prob = Problem(triangle, PARAMS_I)
        initial = (np.full(3, 0.7), np.full(3, 0.4))
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 1000)
        traj = integrate(prob, initial, t_end=200.0)
        assert traj.times[-1] == 200.0
        assert 200.0 / traj.metadata["dt"] > 1000 > traj.metadata["n_steps"]
        with pytest.raises(StepSizeUnstable):      # fixed steps of the cap still are
            integrate(prob, initial, t_end=200.0, dt=traj.metadata["dt"])


class TestWindows:
    """``_windows`` against public ``integrate`` calls chained from each last final state."""

    FORCED = (0.25, 0.5, 0.75)

    def _check_chained(self, case, dt, kept=None):
        """Run ``_windows`` over 3.5 in windows of 1.0 and compare each window with an
        ``integrate`` call over its span from the last reference's final state, bit for bit,
        metadata included. ``kept`` lists the columns of ``TestBatch``'s parameter batch
        that each window steps: ``settled`` drops the others after each window, so they
        must leave the state, the params and every per-window array."""
        problem, initial = BATCH_CASES[case]
        state = dynamics._coerce_initial(problem, initial)
        batch, masks = {}, None
        if kept is not None:
            batch = {"a1": TestBatch.A1, "c2": TestBatch.C2, "d1": TestBatch.D1}
            masks = iter([np.isin(before, after, invert=True)
                          for before, after in zip(kept, kept[1:])])
        else:       # scalar params: one column of data, whose axis integrate keeps
            state = state[..., np.newaxis]
        windows = list(_windows(
            (dataclasses.replace(problem, params=dataclasses.replace(problem.params, **batch)),),
            (state,), 1.0, 3.5, dt=dt, max_samples=6, forced_times=self.FORCED,
            settled=masks and (lambda finals: next(masks))))
        assert len(windows) == 4
        t_done = 0.0
        for k, (got_t, (got,)) in enumerate(windows):
            params = problem.params
            if kept is not None:
                params = dataclasses.replace(params, **{name: val[kept[k]]
                                                        for name, val in batch.items()})
                if k:
                    cols = np.flatnonzero(np.isin(kept[k - 1], kept[k]))
                    state = (state.u[:, cols], state.v[:, cols])
            span = min(1.0, 3.5 - t_done)
            ref = integrate(dataclasses.replace(problem, params=params), state, span, dt=dt,
                            max_samples=6, forced_times=self.FORCED)
            state, t_done = ref.final, t_done + span
            assert got_t == t_done
            assert np.array_equal(got.times, ref.times)
            assert got.metadata.keys() == ref.metadata.keys()
            for key, val in got.metadata.items():
                assert np.asarray(val).tobytes() == np.asarray(ref.metadata[key]).tobytes()
            assert len(got.states) == len(ref.states)
            for s_got, s_ref in zip(got.states, ref.states):
                assert s_got.u.shape == s_ref.u.shape
                assert s_got.u.tobytes() == s_ref.u.tobytes()
                assert s_got.v.tobytes() == s_ref.v.tobytes()

    @pytest.mark.parametrize("dt", [None, 1e-3])
    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_matches_chained_integrate(self, case, dt):
        self._check_chained(case, dt)

    @pytest.mark.parametrize("dt", [None, 1e-3])
    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_dropped_columns_restart_like_a_fresh_run(self, case, dt):
        self._check_chained(case, dt, kept=[[0, 1, 2, 3], [0, 2], [2], [2]])

    @pytest.mark.parametrize("t_max", [0.0, -5.0, np.nan, np.inf])
    def test_horizon_validated(self, triangle, t_max):
        with pytest.raises(InputError):
            prob = Problem(triangle, PARAMS_I)
            next(_windows((prob,), (dynamics._coerce_initial(prob, (1.0, 1.0)),), 1.0, t_max))

    def test_problems_come_as_tuples(self, triangle):
        prob = Problem(triangle, PARAMS_I)
        initial = dynamics._coerce_initial(prob, (1.0, 1.0))
        for problems, initials in [(prob, (initial,)), ((prob,), initial), ((), ()),
                                   ((prob, prob), (initial,))]:
            with pytest.raises(InputError, match="tuple"):
                next(_windows(problems, initials, 1.0, 1.0))

    def test_step_budget_spans_windows(self, triangle, monkeypatch):
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 250)
        prob = Problem(triangle, PARAMS_I)
        initial = (np.ones(3), np.ones(3))
        assert integrate(prob, initial, 1.0, dt=0.01).metadata["n_steps"] <= 250
        with pytest.raises(StepSizeUnstable):
            for _ in _windows((prob,), (dynamics._coerce_initial(prob, initial),), 1.0, 10.0,
                              dt=0.01):
                pass


def _three_active(rng, bc, columns):
    """A problem on vertices p, q, r (plus one or two boundary vertices under ``bc``) with
    random weights, one table or one per species, and random coefficients, and its initial
    data: scalar params when ``columns`` is 0, else a1 batched over that many columns."""
    names, edges = ["p", "q", "r"], [("p", "q"), ("q", "r")]
    if rng.random() < 0.5:
        edges.append(("p", "r"))
    if bc is not BoundaryCondition.NO_BOUNDARY:
        for extra in ("s", "t")[:int(rng.integers(1, 3))]:
            names.append(extra)
            edges.append((extra, names[int(rng.integers(0, 3))]))

    def table():
        return [(x, y, float(rng.uniform(0.2, 3.0))) for x, y in edges]

    graph = build_graph(tuple(names), table(), table() if rng.random() < 0.5 else None)
    part = None if bc is BoundaryCondition.NO_BOUNDARY else boundary_of(graph, ("p", "q", "r"))
    coefs = {name: float(rng.uniform(0.5, 3.0)) for name in vars(PARAMS_I)}
    if columns:
        coefs["a1"] = rng.uniform(0.5, 3.0, columns)
    u0, v0 = rng.uniform(0.0, 2.0, (2, graph.n))
    if bc is BoundaryCondition.DIRICHLET:
        u0[part.boundary_idx] = v0[part.boundary_idx] = 0.0
    return Problem(graph, CompetitionParams(**coefs), bc=bc, partition=part), (u0, v0)


class TestBlocks:
    """``_windows`` over a tuple of problems, one column block each, against each problem
    run alone."""

    @staticmethod
    def _verdicts(final):
        """Per column: 1 once u, 2 once v has fallen below 0.05 everywhere, else 0."""
        u, v = np.atleast_1d(final.u.max(axis=0)), np.atleast_1d(final.v.max(axis=0))
        return np.where(np.minimum(u, v) < 0.05, np.where(u < v, 1, 2), 0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), bcs=st.permutations(list(BoundaryCondition)),
           count=st.integers(2, 3), dt=st.sampled_from([None, 0.01]), csr=st.booleans())
    def test_blocks_match_solo_runs(self, seed, bcs, count, dt, csr):
        # each block takes its own product: stacked, per species, or CSR per species
        rng = np.random.default_rng(seed)
        cases = [_three_active(rng, bc, int(rng.integers(0, 3))) for bc in bcs[:count]]
        run = dict(window=1.0, t_max=3.0, dt=dt, max_samples=3, forced_times=(0.5,))
        solo_verdicts = [[] for _ in cases]

        def recorded(k):
            def settled(finals):
                solo_verdicts[k].append(self._verdicts(*finals))
                return solo_verdicts[k][-1] > 0
            return settled

        block_verdicts = []

        def settled(finals):
            block_verdicts.append([self._verdicts(final) for final in finals])
            return np.concatenate(block_verdicts[-1]) > 0

        with stored(csr):
            initials = [dynamics._coerce_initial(prob, initial) for prob, initial in cases]
            solos = [list(_windows((prob,), (initial,), settled=recorded(k), **run))
                     for k, ((prob, _), initial) in enumerate(zip(cases, initials))]
            blocked = list(_windows(tuple(prob for prob, _ in cases), tuple(initials),
                                    settled=settled, **run))
        assert len(blocked) == max(map(len, solos))
        # fixed steps differ only at roundoff; adaptive ones by the solo run's own step
        # control (rtol 1e-8 on states of order 1), since the batch takes the largest error
        # over all blocks: 7.1e-9 at most over 3000 draws
        tol = 1e-9 if dt else 2e-8
        for k, (solo, (prob, _)) in enumerate(zip(solos, cases)):
            for w, (t_done, trajs) in enumerate(blocked):
                got = trajs[k]
                if w >= len(solo):          # every column of this block has settled
                    assert got.final.u.shape == (prob.graph.n, 0)
                    continue
                want_t, (want,) = solo[w]
                assert t_done == want_t
                assert np.array_equal(got.times, want.times)
                assert got.metadata["bc"] == prob.bc.value
                for key in ("m_u", "m_v"):      # the block's own rectangle
                    assert np.allclose(got.metadata[key], want.metadata[key], rtol=0, atol=tol)
                for s_got, s_want in zip(got.states, want.states):
                    assert s_got.u.size == s_want.u.size
                    assert np.abs(s_got.u.reshape(s_want.u.shape) - s_want.u).max() <= tol
                    assert np.abs(s_got.v.reshape(s_want.v.shape) - s_want.v).max() <= tol
                if w < len(solo_verdicts[k]):   # the same columns settle, the same way
                    assert np.array_equal(block_verdicts[w][k], solo_verdicts[k][w])

    def test_blocks_share_the_active_size(self, triangle, reflecting):
        graph, part = reflecting
        path = build_graph(("a", "b", "c", "d"),
                           [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)])
        problems = (Problem(graph, PARAMS_I, bc=BoundaryCondition.NEUMANN, partition=part),
                    Problem(triangle, PARAMS_I))
        problems += (Problem(path, PARAMS_I),)
        initials = tuple(dynamics._coerce_initial(prob, (0.5, 0.5)) for prob in problems)
        assert len(next(_windows(problems[:2], initials[:2], 1.0, 1.0))[1]) == 2
        with pytest.raises(InputError, match="active size"):
            next(_windows(problems, initials, 1.0, 1.0))


class TestAdaptive:
    """DP5(4) steps against fine fixed RK4 steps and against the scalar run of each point."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), bc=st.sampled_from(list(BoundaryCondition)),
           points=st.integers(1, 3), t_end=st.floats(0.05, 1.0))
    def test_matches_rk4_and_scalar_runs(self, seed, bc, points, t_end):
        rng = np.random.default_rng(seed)
        graph = random_connected_graph(rng, max_vertices=12, split_weights=True,
                                       random_measure=True)
        part = None
        if bc is not BoundaryCondition.NO_BOUNDARY:
            part = random_connected_interior(rng, graph)
        fields = {name: rng.uniform(0.5, 2.0, points) for name in ("a1", "b1", "c1", "a2", "b2",
                                                                    "c2")}
        fields.update(d1=rng.uniform(0.1, 1.0, points), d2=rng.uniform(0.1, 1.0, points))
        problem = Problem(graph, CompetitionParams(**fields), bc=bc, partition=part)
        u0, v0 = rng.uniform(0.0, 2.0, (2, graph.n))
        if bc is BoundaryCondition.DIRICHLET:
            u0[part.boundary_idx] = v0[part.boundary_idx] = 0.0
        # weights <= 3, measures >= 0.5 and at most 12 vertices keep the stability cap above
        # 4e-3, so RK4 at 1e-3 is well inside its stability region
        adaptive = integrate(problem, (u0, v0), t_end, max_samples=2).final
        fixed = integrate(problem, (u0, v0), t_end, dt=1e-3, max_samples=2).final
        assert np.max(np.abs(adaptive.u - fixed.u)) <= 1e-7
        assert np.max(np.abs(adaptive.v - fixed.v)) <= 1e-7
        for j in range(points):
            point = CompetitionParams(**{name: float(val[j]) for name, val in fields.items()})
            single = integrate(dataclasses.replace(problem, params=point), (u0, v0), t_end,
                               max_samples=2).final
            assert np.max(np.abs(adaptive.u[:, j] - single.u)) <= 1e-7
            assert np.max(np.abs(adaptive.v[:, j] - single.v)) <= 1e-7


def _lattice_problem(side, bc, params=PARAMS_I, seed=12, split_weights=True):
    """Seeded side x side four-neighbour lattice; the interior is everything off the ring."""
    rng = np.random.default_rng(seed)
    names = [f"r{r}c{c}" for r in range(side) for c in range(side)]
    pairs = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    pairs += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    edges1 = [(names[i], names[j], float(rng.uniform(0.5, 1.5))) for i, j in pairs]
    edges2 = ([(a, b, float(rng.uniform(0.5, 1.5))) for a, b, _ in edges1]
              if split_weights else None)
    measure = rng.uniform(1.0, 4.0, side * side) if split_weights else None
    graph = build_graph(names, edges1, edges2, measure1=measure)
    if bc is BoundaryCondition.NO_BOUNDARY:
        return Problem(graph, params)
    interior = [f"r{r}c{c}" for r in range(1, side - 1) for c in range(1, side - 1)]
    return Problem(graph, params, bc=bc, partition=boundary_of(graph, interior))


def _stored(monkeypatch, fn, csr: bool):
    """fn() with the operator storage forced to CSR or to dense."""
    monkeypatch.setattr(graphs, "_CSR_MIN_ENTRIES", 0 if csr else np.inf)
    monkeypatch.setattr(graphs, "_CSR_MAX_FILL", 1.0)
    return fn()


def _is_csr(mat) -> bool:
    return hasattr(mat, "toarray")


class TestOperatorStorage:
    """CSR-stored operators give the dense results up to roundoff."""

    BCS = list(BoundaryCondition)

    @pytest.mark.parametrize("bc", BCS, ids=[bc.value for bc in BCS])
    def test_reduced_operators_agree(self, bc, monkeypatch):
        prob = _lattice_problem(12, bc)
        sparse = _stored(monkeypatch, lambda: reduced_operators(prob), csr=True)
        dense = _stored(monkeypatch, lambda: reduced_operators(prob), csr=False)
        for name in ("red1", "red2", "proj1", "proj2"):
            got, want = getattr(sparse, name), getattr(dense, name)
            if want is None:
                assert got is None
                continue
            assert _is_csr(got) and not _is_csr(want)
            assert np.max(np.abs(got.toarray() - want)) <= 1e-15 * np.max(np.abs(want))

    @staticmethod
    def _windows_both(bc, monkeypatch, dt):
        """Two 0.5-unit windows of a lattice run under CSR and under dense storage."""
        prob = _lattice_problem(12, bc)
        rng = np.random.default_rng(3)
        u0, v0 = rng.uniform(0.1, 1.0, prob.graph.n), rng.uniform(0.1, 1.0, prob.graph.n)
        if bc is BoundaryCondition.DIRICHLET:
            u0[prob.partition.boundary_idx] = v0[prob.partition.boundary_idx] = 0.0

        def run():
            return list(_windows((prob,), (dynamics._coerce_initial(prob, (u0, v0)),), 0.5,
                                 1.0, dt=dt, max_samples=8))

        sparse = _stored(monkeypatch, run, csr=True)
        dense = _stored(monkeypatch, run, csr=False)
        assert len(sparse) == len(dense) == 2
        for (t_s, (traj_s,)), (t_d, (traj_d,)) in zip(sparse, dense):
            assert t_s == t_d
            for s, d in zip(traj_s.states, traj_d.states):
                assert np.max(np.abs(s.u - d.u)) <= 1e-12
                assert np.max(np.abs(s.v - d.v)) <= 1e-12
        return [(a.metadata, b.metadata) for (_, (a,)), (_, (b,)) in zip(sparse, dense)]

    @pytest.mark.parametrize("bc", BCS, ids=[bc.value for bc in BCS])
    def test_windows_agree(self, bc, monkeypatch):
        # adaptive steps: counters agree exactly, the state-derived rectangle and step to
        # roundoff; the error estimate is a cancelling sum of size rtol * |y|, so its
        # roundoff is about eps / rtol = 2e-8 relative, and the proposed next step inherits
        # a fifth of it (dt ~ err**-0.2); 5e-12 is measured here
        for got, want in self._windows_both(bc, monkeypatch, dt=None):
            assert got.keys() == want.keys()
            for key, value in want.items():
                if isinstance(value, (int, str)):
                    assert got[key] == value, key
                else:
                    rel = 1e-8 if key == "dt_final" else 1e-12
                    assert got[key] == pytest.approx(value, rel=rel, abs=0.0), key

    @pytest.mark.parametrize("dt", [None, 0.01], ids=["dp5", "rk4"])
    @pytest.mark.parametrize("split, csr", [(False, False), (True, False), (False, True)],
                             ids=["dense-shared", "dense-two", "csr"])
    @pytest.mark.parametrize("bc", BCS, ids=[bc.value for bc in BCS])
    def test_lone_state_is_column_zero(self, bc, split, csr, dt, monkeypatch):
        """1-D initial data under scalar params give (n,) states and scalar bounds, (n, 1)
        data (n, 1) states and (1,) bounds, and the first run is column 0 of the second bit
        for bit, counts included."""
        prob = _lattice_problem(8, bc, split_weights=split)
        rng = np.random.default_rng(5)
        u0, v0 = rng.uniform(0.1, 1.0, (2, prob.graph.n))
        if bc is BoundaryCondition.DIRICHLET:
            u0[prob.partition.boundary_idx] = v0[prob.partition.boundary_idx] = 0.0

        def run():
            ops = reduced_operators(prob)
            assert _is_csr(ops.red1) == csr and (ops.red1 is ops.red2) == (not split)
            return [integrate(prob, initial, 0.5, dt=dt, max_samples=8)
                    for initial in ((u0, v0), (u0[:, None], v0[:, None]))]

        lone, column = _stored(monkeypatch, run, csr)
        assert np.array_equal(lone.times, column.times)
        for s_lone, s_column in zip(lone.states, column.states):
            assert s_lone.u.shape == (prob.graph.n,) and s_column.u.shape == (prob.graph.n, 1)
            assert s_lone.u.tobytes() == s_column.u[:, 0].tobytes()
            assert s_lone.v.tobytes() == s_column.v[:, 0].tobytes()
        assert lone.metadata.keys() == column.metadata.keys()
        for key, val in column.metadata.items():
            if key in ("m_u", "m_v"):
                assert np.shape(lone.metadata[key]) == () and np.shape(val) == (1,)
            assert np.asarray(lone.metadata[key]).tobytes() == np.asarray(val).tobytes()

    @pytest.mark.parametrize("bc", BCS, ids=[bc.value for bc in BCS])
    def test_fixed_step_windows_agree(self, bc, monkeypatch):
        for got, want in self._windows_both(bc, monkeypatch, dt=0.01):
            assert got == want

    def test_neumann_project_agrees(self, monkeypatch):
        prob = _lattice_problem(12, BoundaryCondition.NEUMANN)
        rng = np.random.default_rng(4)
        state = FieldPair(u=rng.uniform(0.1, 1.0, prob.graph.n),
                          v=rng.uniform(0.1, 1.0, prob.graph.n))
        sparse = _stored(monkeypatch, lambda: neumann_project(prob, state), csr=True)
        dense = _stored(monkeypatch, lambda: neumann_project(prob, state), csr=False)
        assert np.max(np.abs(sparse.u - dense.u)) <= 1e-15
        assert np.max(np.abs(sparse.v - dense.v)) <= 1e-15

    def test_coexistence_bounds_agree(self, monkeypatch):
        from graphlv import coexistence_bounds

        params = CompetitionParams(a1=2.0, b1=1.0, c1=0.05, a2=2.0, b2=0.05, c2=1.0,
                                   d1=0.1, d2=0.1)
        prob = _lattice_problem(6, BoundaryCondition.DIRICHLET, params, split_weights=False)
        assert _stored(monkeypatch, lambda: _is_csr(reduced_operators(prob).red1), csr=True)
        sparse = _stored(monkeypatch, lambda: coexistence_bounds(prob), csr=True)
        dense = _stored(monkeypatch, lambda: coexistence_bounds(prob), csr=False)
        for name in ("s_lower", "s_upper", "r_lower", "r_upper"):
            assert np.max(np.abs(getattr(sparse, name) - getattr(dense, name))) <= 1e-12
        assert sparse.unique == dense.unique

    def test_rule_picks_csr_for_large_lattices_only(self):
        from graphlv.fixtures import get_case, reproduce_ids

        big = reduced_operators(_lattice_problem(40, BoundaryCondition.NEUMANN,
                                                 split_weights=False))
        assert all(_is_csr(m) for m in (big.red1, big.red2, big.proj1, big.proj2))
        small = [Problem(triangle_example(), PARAMS_I)]
        small += [get_case(case_id).problem for case_id in reproduce_ids()]
        for prob in small:
            ops = reduced_operators(prob)
            assert not any(_is_csr(m) for m in (ops.red1, ops.red2, ops.proj1, ops.proj2))

    @pytest.mark.parametrize("made", ["constructor", "replace"])
    def test_graph_made_without_build_graph(self, made):
        # the operators read only the graph's fields, however the graph was made
        prob = _lattice_problem(40, BoundaryCondition.NEUMANN)
        g, part = prob.graph, prob.partition
        other = (WeightedGraph(g.vertices, g.src, g.dst, g.w1, g.w2, g.mu1, g.mu2)
                 if made == "constructor"
                 else dataclasses.replace(g, mu1=g.mu1.copy()))
        want = reduced_operators(prob)
        got = reduced_operators(dataclasses.replace(prob, graph=other))
        for name in ("red1", "red2", "proj1", "proj2"):
            assert _is_csr(getattr(got, name))
            assert abs(getattr(got, name) - getattr(want, name)).max() <= 1e-15
        u = np.random.default_rng(3).uniform(size=g.n)
        for species in (1, 2):
            for mode in DomainMode:
                np.testing.assert_allclose(
                    laplacian_apply(other, species, u, mode, part),
                    laplacian_apply(g, species, u, mode, part), rtol=0, atol=1e-14)

    def test_rule_keeps_dense_graphs_dense(self):
        n = 160
        names = [f"v{i}" for i in range(n)]
        complete = build_graph(names, [(names[i], names[j], 1.0)
                                       for i in range(n) for j in range(i + 1, n)])
        assert not _is_csr(reduced_operators(Problem(complete, PARAMS_I)).red1)


def _oracle_case(kind, seed):
    """A seeded problem and initial data for the stepper oracle; ``batch`` draws three
    parameter sets whose diffusions are arrays too."""
    rng = np.random.default_rng([seed, len(kind)])
    if kind == "lattice":
        prob = _lattice_problem(12, BoundaryCondition.NEUMANN, seed=seed)
    elif kind == "dirichlet":
        graph = random_connected_graph(rng, split_weights=True, random_measure=True)
        prob = Problem(graph, PARAMS_I, bc=BoundaryCondition.DIRICHLET,
                       partition=random_connected_interior(rng, graph))
    elif kind == "reflecting":
        prob = Problem(REFLECTING[0], PARAMS_I, bc=BoundaryCondition.NEUMANN,
                       partition=REFLECTING[1])
    else:
        prob = Problem(triangle_example(), PARAMS_I)
    size = (3,) if kind == "batch" else ()
    draw = {name: rng.uniform(0.5, 3.0, size) for name in ("a1", "b1", "c1", "a2", "b2", "c2")}
    draw.update(d1=rng.uniform(0.05, 2.0, size), d2=rng.uniform(0.05, 2.0, size))
    params = CompetitionParams(**{k: v if size else float(v) for k, v in draw.items()})
    initial = rng.uniform(0.0, 2.0, (2, prob.graph.n))
    if prob.bc is BoundaryCondition.DIRICHLET:
        initial[:, prob.partition.boundary_idx] = 0.0
    return dataclasses.replace(prob, params=params), initial


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["triangle", "batch", "reflecting", "dirichlet", "lattice"])
def test_stepper_matches_per_stage_sums(kind, seed):
    """The tableau-product stepper against the per-stage generator sums it replaced:
    equal step, rejection, halving and clamp counts, DP5 states to 1e-12 of the largest
    value, and RK4 states at a step coarse enough to be halved bit for bit. The 12 x 12
    lattice runs on CSR. DP5 runs stop at t = 10: later, where a species dies out, the
    step chatters at DP5's stability limit and any change of rounding moves the counts
    (states stay within the tolerance)."""
    from conftest import reference_integrate, stored

    prob, initial = _oracle_case(kind, seed)
    act = prob.active_idx
    with stored(kind == "lattice"):
        assert _is_csr(reduced_operators(prob).red1) == (kind == "lattice")
        for dt, t_end in ((None, 10.0), (0.25, 30.0)):
            t_end = min(t_end, 2.0) if kind == "lattice" else t_end
            traj = integrate(prob, initial, t_end, dt=dt, max_samples=40)
            want, counts = reference_integrate(prob, initial, t_end, dt=dt, max_samples=40)
            assert {key: traj.metadata[key] for key in counts} == counts
            got = np.stack([np.concatenate([s.u[act], s.v[act]]) for s in traj.states])
            if dt is None:
                np.testing.assert_allclose(got, want, rtol=0.0,
                                           atol=1e-12 * float(np.max(np.abs(want))))
            else:
                assert got.tobytes() == want.tobytes()


def _per_species(p, u, v):
    """The kinetics as two lines, one per species."""
    return u * (p.a1 - p.b1 * u - p.c1 * v), v * (p.a2 - p.b2 * u - p.c2 * v)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), columns=st.integers(1, 5),
       state_2d=st.booleans(), batched=st.booleans())
def test_kinetics_kernel_matches_the_per_species_formula(seed, n, columns, state_2d, batched):
    """``reaction`` and the stacked kernel, given the coefficient stacks or the stepper's
    contiguous coefficient arrays of the state's shape, equal the per-species formula bit
    for bit: 1-D states (one value per column) and (n, P) states, under scalar parameters
    or (P,) batches (any of the coefficients an array), and again after some columns are
    dropped and the coefficients rebuilt."""
    rng = np.random.default_rng(seed)
    arrays = rng.random(8) < 0.5 if batched else np.zeros(8, dtype=bool)
    arrays[rng.integers(8)] |= batched
    params = CompetitionParams(**{
        name: rng.uniform(0.1, 3.0, columns) if array else float(rng.uniform(0.1, 3.0))
        for name, array in zip(vars(PARAMS_I), arrays)})
    u, v = rng.uniform(0.0, 4.0, (2, n, columns) if state_2d else (2, columns))
    keep = rng.random(columns) < 0.5
    keep[rng.integers(columns)] = True
    dropped = CompetitionParams(**{name: val[keep] if isinstance(val, np.ndarray) else val
                                   for name, val in vars(params).items()})
    for p, (u_p, v_p) in ((params, (u, v)), (dropped, (u[..., keep], v[..., keep]))):
        want = np.stack(_per_species(p, u_p, v_p))
        assert np.stack(reaction(p, u_p, v_p)).tobytes() == want.tobytes()
        pair = np.stack([u_p, v_p])
        stack = dynamics._species_stack(p, pair.ndim)
        for coefs in (stack, np.broadcast_to(stack, (4,) + pair.shape).copy()):
            got = dynamics._kinetics(pair, *coefs[:3])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
