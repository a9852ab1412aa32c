"""End-to-end acceptance checks, one per release criterion.

Each test prints a single ACCEPTANCE <n> PASS line (run with -s to see
them); a failing criterion fails its test with the offending numbers.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from conftest import random_connected_graph, random_connected_interior
from graphlv import (
    BoundaryCondition,
    CompetitionParams,
    FieldPair,
    LinearCoupledSystem,
    Problem,
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
    neumann_project,
    normal_derivative,
    smallest_dirichlet_eigenpair,
    verify_coupled_pair,
    whole_laplacian,
)
from graphlv.dynamics import _coerce_initial, _materialize, reduced_operators
from graphlv.fixtures import get_case, reflecting_example, reproduce_ids, run_reproduce

SET_I = CompetitionParams(a1=1.0, b1=2.0, c1=2.0, a2=1.0, b2=1.0, c2=1.0)
SET_II = CompetitionParams(a1=2.0, b1=1.0, c1=1.0, a2=1.0, b2=1.0, c2=2.0)
SET_III = CompetitionParams(a1=2.0, b1=1.0, c1=1.0, a2=3.0, b2=1.0, c2=2.0)
BOUNDS_PARAMS = CompetitionParams(
    a1=2.0, b1=1.0, c1=0.05, a2=2.0, b2=0.05, c2=1.0, d1=0.1, d2=0.1
)


def test_criterion_1_reproduction():
    started = time.perf_counter()
    worst = 0.0
    slowest = 0.0
    for case_id in reproduce_ids():
        result = run_reproduce(case_id, tol=1e-3, t_max=1000.0)
        assert result.passed, f"{case_id}: error {result.error:.3e} at t={result.t_reached}"
        worst = max(worst, result.error)
        slowest = max(slowest, result.t_reached)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"reproduction took {elapsed:.1f}s, budget is 30s"
    print(f"ACCEPTANCE 1 PASS: 10/10 fixtures within 1e-3 "
          f"(worst error {worst:.2e}, latest t={slowest:g}, {elapsed:.1f}s total)")


def test_criterion_2_eigen_oracle():
    graph, part = reflecting_example()
    pair = smallest_dirichlet_eigenpair(graph, 1, part)
    closed_form = (5.0 - np.sqrt(13.0)) / 6.0
    err_closed = abs(pair.lambda0 - closed_form)
    assert err_closed <= 1e-10

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        g = random_connected_graph(rng, split_weights=True, random_measure=True)
        pt = random_connected_interior(rng, g, max_interior=6)
        for species in (1, 2):
            got = smallest_dirichlet_eigenpair(g, species, pt, tol=1e-12).lambda0
            l_ii, _ = dirichlet_blocks(g, species, pt)
            mu = g.measure(species)[pt.interior_idx]
            root = np.sqrt(mu)
            sym = root[:, None] * (-l_ii) / root[None, :]
            want = float(scipy.linalg.eigvalsh(sym)[0])
            worst = max(worst, abs(got - want))
    assert worst <= 1e-10
    print(f"ACCEPTANCE 2 PASS: closed form to {err_closed:.2e}, "
          f"50 random graphs vs dense to {worst:.2e}")


def _random_linear_system(rng):
    """A linear coupled system with nonpositive off-diagonal coupling,
    its exact solution fields, and their exact time derivatives."""
    g = random_connected_graph(rng, max_vertices=7, split_weights=True,
                               random_measure=True)
    m = int(rng.integers(1, 4))
    mode = rng.choice(["whole", "neumann", "dirichlet", "mixed"])
    if mode == "whole":
        part = None
        bc = (BoundaryCondition.NO_BOUNDARY,) * m
    else:
        part = random_connected_interior(rng, g)
        if mode == "mixed" and m > 1:
            bc = tuple(rng.choice([BoundaryCondition.NEUMANN, BoundaryCondition.DIRICHLET])
                       for _ in range(m))
        else:
            bc = ((BoundaryCondition.NEUMANN if mode == "neumann"
                   else BoundaryCondition.DIRICHLET),) * m
    d = tuple(float(rng.uniform(0.2, 2.0)) for _ in range(m))
    species = tuple(int(rng.integers(1, 3)) for _ in range(m))

    coupling = rng.uniform(-1.0, 1.0, (m, m, g.n))
    off = ~np.eye(m, dtype=bool)
    coupling[off] = -np.abs(coupling[off])
    if rng.random() < 0.5:
        coupling = coupling[:, :, :1] * np.ones((1, 1, g.n))  # constant table

    system = LinearCoupledSystem(graph=g, d=d, species=species,
                                 coupling=coupling, bc=bc, partition=part)

    if part is None:
        idx = np.arange(g.n)
        red = [d[k] * whole_laplacian(g, species[k]) for k in range(m)]
        projs = [None] * m
    else:
        idx = part.interior_idx
        red, projs = [], []
        for k in range(m):
            prob = Problem(g, SET_I, bc=BoundaryCondition.NEUMANN, partition=part) \
                if bc[k] is BoundaryCondition.NEUMANN else None
            l_ii, l_ib = dirichlet_blocks(g, species[k], part)
            if bc[k] is BoundaryCondition.NEUMANN:
                ops = reduced_operators(prob)
                proj = ops.proj1 if species[k] == 1 else ops.proj2
                red.append(d[k] * (l_ii + l_ib @ proj))
                projs.append(proj)
            else:
                red.append(d[k] * l_ii)
                projs.append(None)
    n_i = idx.size
    blocks = [[None] * m for _ in range(m)]
    for k in range(m):
        for l in range(m):
            block = -np.diag(system.coupling[k, l, idx])
            if k == l:
                block = block + red[k]
            blocks[k][l] = block
    gen = np.block(blocks)

    y0 = -rng.uniform(0.05, 1.0, m * n_i)
    times = np.linspace(0.0, 1.5, 6)
    fields = np.zeros((m, times.size, g.n))
    dfields = np.zeros_like(fields)
    for j, t in enumerate(times):
        y = scipy.linalg.expm(gen * t) @ y0
        dy = gen @ y
        for k in range(m):
            yk = y[k * n_i:(k + 1) * n_i]
            dyk = dy[k * n_i:(k + 1) * n_i]
            fields[k, j, idx] = yk
            dfields[k, j, idx] = dyk
            if part is not None and projs[k] is not None:
                fields[k, j, part.boundary_idx] = projs[k] @ yk
                dfields[k, j, part.boundary_idx] = projs[k] @ dyk
    return system, fields, times, dfields


def test_criterion_3_maximum_principle_suite():
    rng = np.random.default_rng(33)
    worst = -np.inf
    for _ in range(100):
        system, fields, times, dfields = _random_linear_system(rng)
        report = maximum_principle_check(system, fields, times, dfields_dt=dfields)
        assert report.satisfied, (
            f"max principle violated: {report.max_value:.3e} at component "
            f"{report.worst_component}, t={report.worst_time}, vertex {report.worst_vertex}"
        )
        assert report.max_value <= 1e-9
        worst = max(worst, report.max_value)
    print(f"ACCEPTANCE 3 PASS: 100/100 linear systems nonpositive "
          f"(largest value {worst:.2e})")


def test_criterion_4_comparison_and_monotone():
    rng = np.random.default_rng(44)
    pair_count = 0
    worst_order = np.inf

    # 60 constant rectangle pairs on random graphs and parameters
    for _ in range(60):
        g = random_connected_graph(rng)
        params = CompetitionParams(*(float(rng.uniform(0.2, 3.0)) for _ in range(6)))
        mode = rng.choice(["whole", "neumann", "dirichlet"])
        if mode == "whole":
            prob = Problem(g, params)
        else:
            part = random_connected_interior(rng, g)
            bc = (BoundaryCondition.NEUMANN if mode == "neumann"
                  else BoundaryCondition.DIRICHLET)
            prob = Problem(g, params, bc=bc, partition=part)
        upper = ((params.a1 / params.b1) * (1.0 + rng.uniform(0.0, 2.0)),
                 (params.a2 / params.c2) * (1.0 + rng.uniform(0.0, 2.0)))
        pair = constant_pair(upper, (0.0, 0.0), t_end=2.0)
        report = verify_coupled_pair(prob, pair, np.linspace(0.0, 2.0, 5))
        assert report.passed, (mode, report.worst())
        worst_order = min(worst_order, report.slacks["order_u"], report.slacks["order_v"])
        pair_count += 1

    # 30 exponential envelope pairs across the three resolved regimes
    triangle = build_graph(
        ["x1", "x2", "x3"],
        [("x1", "x2", 1.0), ("x2", "x3", 1.0), ("x1", "x3", 1.0)],
    )
    for regime, params in ((1, SET_I), (2, SET_II), (3, SET_III)):
        prob = Problem(triangle, params)
        for _ in range(10):
            u0 = rng.uniform(0.2, 1.8, 3)
            v0 = rng.uniform(0.2, 1.8, 3)
            warm = integrate(prob, (u0, v0), t_end=3.0)
            pair = analytic_envelopes(regime, params, t0=3.0,
                                      state_at_t0=warm.final, t_end=5.0)
            report = verify_coupled_pair(prob, pair, np.linspace(3.0, 5.0, 9),
                                         initial=(warm.final.u, warm.final.v))
            assert report.passed, (regime, report.worst())
            worst_order = min(worst_order, report.slacks["order_u"],
                              report.slacks["order_v"])
            pair_count += 1

    # 10 fixture rectangle pairs, which also feed the monotone solver below
    worst_sandwich = np.inf
    worst_diff = 0.0
    for case_id in reproduce_ids():
        case = get_case(case_id)
        prob = case.problem
        warm = integrate(prob, (case.initial_u, case.initial_v), t_end=2.0)
        m_u, m_v = warm.metadata["m_u"], warm.metadata["m_v"]
        pair = constant_pair((m_u, m_v), (0.0, 0.0), t0=2.0, t_end=2.2)
        initial = (warm.final.u, warm.final.v)
        report = verify_coupled_pair(prob, pair, np.array([2.0, 2.1, 2.2]),
                                     initial=initial)
        assert report.passed, (case_id, report.worst())
        pair_count += 1

        sol = monotone_solve(prob, pair, initial, np.array([2.0, 2.1, 2.2]),
                             substep=5e-4)
        worst_sandwich = min(worst_sandwich, sol.metadata["min_sandwich_slack"])
        assert sol.metadata["min_sandwich_slack"] >= -1e-12, case_id

        ref = integrate(prob, initial, t_end=0.2, dt=1e-4, forced_times=(0.1,))
        for t, state in zip(sol.times, sol.states):
            j = int(np.argmin(np.abs(ref.times - (t - 2.0))))
            assert abs(float(ref.times[j]) - (t - 2.0)) < 1e-9
            diff = max(float(np.max(np.abs(state.u - ref.states[j].u))),
                       float(np.max(np.abs(state.v - ref.states[j].v))))
            worst_diff = max(worst_diff, diff)
            assert diff <= 1e-6, (case_id, t, diff)

    assert pair_count == 100
    print(f"ACCEPTANCE 4 PASS: 100/100 pairs ordered (min order slack "
          f"{worst_order:.2e}); sandwich slack >= {worst_sandwich:.2e}; "
          f"monotone vs integrator <= {worst_diff:.2e}")


def test_criterion_5_structural_invariants():
    rng = np.random.default_rng(55)

    worst_div = 0.0
    worst_const = 0.0
    for _ in range(25):
        g = random_connected_graph(rng, split_weights=True, random_measure=True)
        u = rng.normal(size=g.n) * 5.0
        for species in (1, 2):
            lap = whole_laplacian(g, species)
            mu = g.measure(species)
            worst_div = max(worst_div, abs(float(mu @ (lap @ u))))
            worst_const = max(worst_const, float(np.max(np.abs(lap @ np.ones(g.n)))))
    assert worst_div <= 1e-12
    assert worst_const <= 1e-12

    worst_rect = 0.0
    for case_id in reproduce_ids():
        case = get_case(case_id)
        traj = integrate(case.problem, (case.initial_u, case.initial_v), t_end=20.0)
        u0, v0 = _coerce_initial(case.problem, (case.initial_u, case.initial_v))
        closure = case.problem.closure_idx
        m_u, m_v = invariant_rectangle(case.problem.params, u0[closure], v0[closure])
        for state in traj.states:
            assert np.all(state.u >= 0.0) and np.all(state.v >= 0.0), case_id
            over = max(float(np.max(state.u[closure])) - m_u,
                       float(np.max(state.v[closure])) - m_v)
            worst_rect = max(worst_rect, over)
            assert over <= 1e-12, case_id

    graph, part = reflecting_example()
    prob = Problem(graph, SET_I, bc=BoundaryCondition.NEUMANN, partition=part)
    worst_normal = 0.0
    for _ in range(20):
        state = FieldPair(u=rng.uniform(0.0, 5.0, graph.n),
                          v=rng.uniform(0.0, 5.0, graph.n))
        projected = neumann_project(prob, state)
        for at in part.boundary:
            worst_normal = max(
                worst_normal,
                abs(normal_derivative(graph, 1, part, projected.u, at)),
                abs(normal_derivative(graph, 2, part, projected.v, at)),
            )
    assert worst_normal <= 1e-14
    print(f"ACCEPTANCE 5 PASS: divergence <= {worst_div:.2e}, constant kernel "
          f"<= {worst_const:.2e}, rectangle excess <= {worst_rect:.2e}, "
          f"post-projection normal <= {worst_normal:.2e}")


def test_criterion_6_dirichlet_regime():
    rng = np.random.default_rng(66)

    # single interior vertex: the steady state is (a - lambda0 d) / e exactly
    worst_closed = 0.0
    for _ in range(10):
        w1, w2 = rng.uniform(0.3, 3.0, 2)
        mu_b = rng.uniform(0.5, 2.0)
        g = build_graph(["a", "b", "c"], [("a", "b", w1), ("b", "c", w2)],
                        measure1={"a": 1.0, "b": mu_b, "c": 1.0})
        part = boundary_of(g, ["b"])
        lam = (w1 + w2) / mu_b
        d = rng.uniform(0.2, 1.0)
        e = rng.uniform(0.5, 2.0)
        a = lam * d + rng.uniform(0.5, 2.0)
        st = logistic_steady_state(g, part, 1, d=d, a=a, e=e, tol=1e-12)
        worst_closed = max(worst_closed, abs(st.values[0] - (a - lam * d) / e))
    assert worst_closed <= 1e-12

    # subcritical growth decays below 1e-4 by T = 1000
    graph, part = reflecting_example()
    lam = (5.0 - np.sqrt(13.0)) / 6.0
    sub = CompetitionParams(a1=0.9 * lam, b1=1.0, c1=1.0,
                            a2=0.8 * lam, b2=1.0, c2=1.0)
    prob = Problem(graph, sub, bc=BoundaryCondition.DIRICHLET, partition=part)
    u0 = np.zeros(5)
    v0 = np.zeros(5)
    u0[part.interior_idx] = rng.uniform(0.5, 1.5, 3)
    v0[part.interior_idx] = rng.uniform(0.5, 1.5, 3)
    traj = integrate(prob, (u0, v0), t_end=1000.0)
    sup_final = max(float(np.max(traj.final.u)), float(np.max(traj.final.v)))
    assert sup_final <= 1e-4

    # symmetric coexistence fixture: every positive start ends inside the bounds
    prob = Problem(graph, BOUNDS_PARAMS, bc=BoundaryCondition.DIRICHLET,
                   partition=part)
    bounds = coexistence_bounds(prob, tol=1e-8)
    assert bounds.unique
    worst_violation = -np.inf
    for _ in range(20):
        u0 = np.zeros(5)
        v0 = np.zeros(5)
        u0[part.interior_idx] = rng.uniform(0.05, 3.0, 3)
        v0[part.interior_idx] = rng.uniform(0.05, 3.0, 3)
        traj = integrate(prob, (u0, v0), t_end=30.0)
        u_t = traj.final.u[part.interior_idx]
        v_t = traj.final.v[part.interior_idx]
        violation = max(
            float(np.max(bounds.s_lower - u_t)), float(np.max(u_t - bounds.s_upper)),
            float(np.max(bounds.r_lower - v_t)), float(np.max(v_t - bounds.r_upper)),
        )
        worst_violation = max(worst_violation, violation)
        assert violation <= 1e-6
    print(f"ACCEPTANCE 6 PASS: closed form to {worst_closed:.2e}, subcritical "
          f"sup {sup_final:.2e} at T=1000, sandwich excess <= {worst_violation:.2e} "
          f"over 20 starts")


def _euler_reference(fixtures, t_end, dt):
    """Forward Euler on all fixtures at once: their active states are stacked into one
    vector, each species' reduced operators into one block-diagonal matrix, and each
    coefficient is repeated over its fixture's active vertices."""
    ops = [reduced_operators(problem) for problem, _ in fixtures]
    starts = [_coerce_initial(problem, initial) for problem, initial in fixtures]
    acts = [problem.active_idx for problem, _ in fixtures]
    u = np.concatenate([u_full[act] for (u_full, _), act in zip(starts, acts)])
    v = np.concatenate([v_full[act] for (_, v_full), act in zip(starts, acts)])
    sizes = [act.size for act in acts]
    a1, b1, c1, a2, b2, c2, d1, d2 = (
        np.repeat([getattr(problem.params, name) for problem, _ in fixtures], sizes)
        for name in ("a1", "b1", "c1", "a2", "b2", "c2", "d1", "d2"))
    red1 = scipy.linalg.block_diag(*(op.red1 for op in ops))
    red2 = scipy.linalg.block_diag(*(op.red2 for op in ops))
    for _ in range(int(round(t_end / dt))):
        du = d1 * (red1 @ u) + u * (a1 - b1 * u - c1 * v)
        dv = d2 * (red2 @ v) + v * (a2 - b2 * u - c2 * v)
        u = u + dt * du
        v = v + dt * dv
    cuts = np.cumsum(sizes)[:-1]
    return [_materialize(problem, np.stack([uk, vk]), op) for (problem, _), op, uk, vk
            in zip(fixtures, ops, np.split(u, cuts), np.split(v, cuts))]


def test_criterion_7_integrator_oracle():
    graph, part = reflecting_example()
    triangle = build_graph(
        ["x1", "x2", "x3"],
        [("x1", "x2", 1.0), ("x2", "x3", 1.0), ("x1", "x3", 1.0)],
    )
    perturb = np.array([0.03, -0.02, 0.04])
    bounds_mid = None
    fixtures = []
    fixtures.append((Problem(triangle, SET_III),
                     (1.0 + perturb, 1.0 - perturb)))
    fixtures.append((Problem(triangle, SET_I),
                     (0.05 + 0.02 * np.abs(perturb), 1.0 + perturb)))
    fixtures.append((Problem(graph, SET_III, bc=BoundaryCondition.NEUMANN,
                             partition=part),
                     ({"x1": 1.03, "x2": 0.98, "x3": 1.04},
                      {"x1": 0.97, "x2": 1.02, "x3": 0.96})))
    dir_prob = Problem(graph, BOUNDS_PARAMS, bc=BoundaryCondition.DIRICHLET,
                       partition=part)
    bounds_mid = 0.5 * (coexistence_bounds(dir_prob, tol=1e-8).s_lower
                        + coexistence_bounds(dir_prob, tol=1e-8).s_upper)
    u0 = np.zeros(5)
    v0 = np.zeros(5)
    u0[part.interior_idx] = bounds_mid * (1.0 + 0.02 * perturb)
    v0[part.interior_idx] = bounds_mid * (1.0 - 0.02 * perturb)
    fixtures.append((dir_prob, (u0, v0)))
    decay = CompetitionParams(a1=0.5, b1=1.0, c1=1.0, a2=0.5, b2=1.0, c2=1.0,
                              d1=1.0, d2=1.0)
    u0d = np.zeros(5)
    v0d = np.zeros(5)
    u0d[part.interior_idx] = 0.1
    v0d[part.interior_idx] = 0.12
    fixtures.append((Problem(graph, decay, bc=BoundaryCondition.DIRICHLET,
                             partition=part), (u0d, v0d)))

    dt = 5e-4
    worst = 0.0
    references = _euler_reference(fixtures, t_end=1.0, dt=dt / 100.0)
    for (problem, initial), euler in zip(fixtures, references):
        assert problem.graph.n <= 5
        rk = integrate(problem, initial, t_end=1.0, dt=dt)
        diff = max(float(np.max(np.abs(rk.final.u - euler.u))),
                   float(np.max(np.abs(rk.final.v - euler.v))))
        worst = max(worst, diff)
        assert diff <= 1e-6, (problem.bc, diff)
    print(f"ACCEPTANCE 7 PASS: RK4 vs 100x-finer Euler within {worst:.2e} "
          f"on {len(fixtures)} fixtures")
