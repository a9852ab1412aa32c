"""Shared fixtures: small example graphs and naive reference operators.

The reference implementations here are deliberately written as double
loops over vertex names, straight from the defining sums, so they share
no code path with the vectorized operators they check.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
import scipy.linalg

from graphlv import (
    BoundaryCondition,
    boundary_of,
    build_graph,
    graphs,
    logistic_steady_state,
    smallest_dirichlet_eigenpair,
)
from graphlv import dynamics, monotone
from graphlv.dynamics import _windows, reaction, reduced_operators
from graphlv.fixtures import reflecting_example, triangle_example


@pytest.fixture
def reflecting():
    return reflecting_example()


@pytest.fixture
def triangle():
    return triangle_example()


# ---------------------------------------------------------------------------
# naive reference operators (defining sums, no vectorization)
# ---------------------------------------------------------------------------

def dense_weights(graph, species):
    """The n x n weight matrix of one species, scattered from the graph's edge list."""
    w = np.zeros((graph.n, graph.n))
    w[graph.src, graph.dst] = graph.weights(species)
    return w


def naive_whole_laplacian(graph, species, field):
    w = dense_weights(graph, species)
    mu = graph.measure(species)
    out = np.zeros(graph.n)
    for x in range(graph.n):
        acc = 0.0
        for y in range(graph.n):
            acc += (field[y] - field[x]) * w[y, x]
        out[x] = acc / mu[x]
    return out


def naive_subgraph_laplacian(graph, species, partition, field):
    """Interior values of the subgraph operator; sums range over the closure."""
    w = dense_weights(graph, species)
    mu = graph.measure(species)
    closure = list(partition.interior_idx) + list(partition.boundary_idx)
    out = np.zeros(len(partition.interior_idx))
    for k, x in enumerate(partition.interior_idx):
        acc = 0.0
        for y in closure:
            acc += (field[y] - field[x]) * w[y, x]
        out[k] = acc / mu[x]
    return out


def naive_normal_derivative(graph, species, partition, field, x):
    w = dense_weights(graph, species)
    mu = graph.measure(species)
    acc = 0.0
    for y in partition.interior_idx:
        acc += (field[x] - field[y]) * w[x, y]
    return acc / mu[x]


# ---------------------------------------------------------------------------
# random problem generators (seeded, deterministic)
# ---------------------------------------------------------------------------

def random_connected_graph(rng, max_vertices=8, split_weights=False,
                           random_measure=False):
    """Random spanning tree plus extra edges; optionally two weight tables."""
    return build_graph(*random_graph_tables(rng, max_vertices, split_weights, random_measure))


def random_graph_tables(rng, max_vertices=8, split_weights=False, random_measure=False):
    """The ``build_graph`` arguments behind ``random_connected_graph``: (names, weights1,
    weights2, measure1, measure2), with each edge listed once as (a, b, w)."""
    n = int(rng.integers(2, max_vertices + 1))
    names = tuple(f"v{i}" for i in range(n))
    edges = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.add((j, i))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        i, j = sorted(rng.integers(0, n, size=2).tolist())
        if i != j:
            edges.add((i, j))

    def table():
        return [(names[i], names[j], float(rng.uniform(0.2, 3.0))) for i, j in sorted(edges)]

    weights1 = table()
    weights2 = table() if split_weights else None
    measure1 = measure2 = None
    if random_measure:
        measure1 = {v: float(rng.uniform(0.5, 2.0)) for v in names}
        measure2 = {v: float(rng.uniform(0.5, 2.0)) for v in names}
    return names, weights1, weights2, measure1, measure2


def random_connected_interior(rng, graph, max_interior=None):
    """A partition whose interior induces a connected subgraph.

    Grows the interior from a random seed vertex along existing edges,
    so the induced subgraph is connected by construction.
    """
    adj = dense_weights(graph, 1) > 0.0
    cap = graph.n - 1 if max_interior is None else min(max_interior, graph.n - 1)
    size = int(rng.integers(1, cap + 1))
    start = int(rng.integers(0, graph.n))
    chosen = [start]
    frontier = set(np.flatnonzero(adj[start]).tolist()) - set(chosen)
    while len(chosen) < size and frontier:
        nxt = int(rng.choice(sorted(frontier)))
        chosen.append(nxt)
        frontier |= set(np.flatnonzero(adj[nxt]).tolist())
        frontier -= set(chosen)
    # a connected graph with a strict subset interior always has a boundary
    interior = [graph.vertices[i] for i in chosen]
    return boundary_of(graph, interior)


def reference_edge_arrays(vertices, weights1, weights2=None, measure1=None, measure2=None):
    """(src, dst, w1, w2, mu1, mu2) of ``build_graph`` on valid input, by a dict keyed on
    vertex positions that holds each edge under both orders in order of first appearance,
    turned back into arrays pair by pair; a measure of None is the weighted degree."""
    index = {v: i for i, v in enumerate(vertices)}

    def table(weights):
        items = (weights.items() if isinstance(weights, dict)
                 else [((a, b), val) for a, b, val in weights])
        out = {}
        for (a, b), val in items:
            i, j = index[a], index[b]
            if out.get((i, j), val) != val:
                raise ValueError(f"edge ({a!r}, {b!r}) given twice with different weights")
            out[i, j] = out[j, i] = float(val)
        return out

    table1 = table(weights1)
    table2 = table1 if weights2 is None else table(weights2)
    assert table2.keys() == table1.keys()
    src, dst = np.array(list(zip(*table1)), dtype=np.intp).reshape(2, -1)
    w1 = np.array([table1[e] for e in table1])
    w2 = np.array([table2[e] for e in table1])
    mus = [np.bincount(src, weights=w, minlength=len(vertices)) if measure is None
           else np.array([float(measure[v]) for v in vertices])
           for measure, w in ((measure1, w1), (measure2, w2))]
    return src, dst, w1, w2, *mus


@contextlib.contextmanager
def stored(csr: bool):
    """A context in which the storage rule picks CSR (or dense) for every block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_CSR_MIN_ENTRIES", 0 if csr else np.inf)
        mp.setattr(graphs, "_CSR_MAX_FILL", 1.0)
        yield


@contextlib.contextmanager
def read_in_arrays(array: bool):
    """A context in which the entry-count rule sends every edge table and vertex map to
    the array pass (or none of them)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_ARRAY_MIN_ENTRIES", 0 if array else np.inf)
        yield


# ---------------------------------------------------------------------------
# reference time-field derivative (one time at a time)
# ---------------------------------------------------------------------------

def reference_tf_derivative(tf, t, n, t0, t_end):
    """The derivative of a TimeField at one time t, as a full n-vector: its own derivative,
    or second-order differences with step h = 1e-6 max(1, |t|), forward where t - h < t0,
    backward where t + h > t_end, central elsewhere."""
    def val(s):
        out = tf.value(s)
        return np.full(n, float(out)) if np.isscalar(out) else np.asarray(out, dtype=float)

    if tf.derivative is not None:
        out = tf.derivative(t)
        return np.full(n, float(out)) if np.isscalar(out) else np.asarray(out, dtype=float)
    h = 1e-6 * max(1.0, abs(t))
    if t - h < t0:
        return (-3.0 * val(t) + 4.0 * val(t + h) - val(t + 2 * h)) / (2 * h)
    if t + h > t_end:
        return (3.0 * val(t) - 4.0 * val(t - h) + val(t - 2 * h)) / (2 * h)
    return (val(t + h) - val(t - h)) / (2 * h)


# ---------------------------------------------------------------------------
# reference pair check (one dict entry per inequality family)
# ---------------------------------------------------------------------------

def reference_verify_coupled_pair(problem, pair, grid, initial=None, slack_tol=1e-9):
    """``verify_coupled_pair`` as it was written before the four-row layout: each field
    sampled and paired by name, each family's Laplacian, normal derivative and sign looked
    up by name. Returns (slacks, passed) with the slacks in the report's order."""
    p = problem.params
    graph, part, act = problem.graph, problem.partition, problem.active_idx
    grid = monotone._time_grid(grid, "grid")
    if initial is not None:
        u0, v0 = dynamics._coerce_initial(problem, initial)[:, act]
    every = np.arange(graph.n)
    fields = {"upper_u": pair.u_upper, "upper_v": pair.v_upper,
              "lower_u": pair.u_lower, "lower_v": pair.v_lower}
    values = {name: monotone._tf_samples(tf.value, grid, graph.n, every)
              for name, tf in fields.items()}
    rates = {name: monotone._tf_rates(tf, grid, graph.n, act, pair.t0, pair.t_end)
             for name, tf in fields.items()}
    on_act = {name: x[:, act] for name, x in values.items()}
    kinetics = dict(zip(("upper_u", "lower_v"),
                        reaction(p, on_act["upper_u"], on_act["lower_v"])))
    kinetics.update(zip(("lower_u", "upper_v"),
                        reaction(p, on_act["lower_u"], on_act["upper_v"])))
    species_of = {"upper_u": 1, "upper_v": 2, "lower_u": 1, "lower_v": 2}
    d_of = {"upper_u": p.d1, "upper_v": p.d2, "lower_u": p.d1, "lower_v": p.d2}
    sign = {name: 1.0 if name.startswith("upper") else -1.0 for name in fields}
    lap = {species: graphs._closure_laplacian(graph, species, part) for species in (1, 2)}
    boundary = {}
    if problem.bc is BoundaryCondition.NEUMANN:
        normal = {species: graphs._boundary_normal(graph, species, part) for species in (1, 2)}
        boundary = {name: normal[species_of[name]](values[name]) for name in fields}
    elif part is not None:
        boundary = {name: values[name][:, part.boundary_idx] for name in fields}

    slacks = {f"{name}_pde": float((sign[name] * (
        rates[name] - d_of[name] * lap[species_of[name]](values[name]) - kinetics[name])).min())
        for name in fields}
    slacks["order_u"] = float((on_act["upper_u"] - on_act["lower_u"]).min())
    slacks["order_v"] = float((on_act["upper_v"] - on_act["lower_v"]).min())
    slacks.update({f"boundary_{name}": float((sign[name] * bval).min())
                   for name, bval in boundary.items()})

    if initial is not None:
        t0 = monotone._time_grid([pair.t0], "the pair's t0")
        at_t0 = {name: monotone._tf_samples(tf.value, t0, graph.n, act)[0]
                 for name, tf in fields.items()}
        slacks["initial_u"] = float(min((at_t0["upper_u"] - u0).min(),
                                        (u0 - at_t0["lower_u"]).min()))
        slacks["initial_v"] = float(min((at_t0["upper_v"] - v0).min(),
                                        (v0 - at_t0["lower_v"]).min()))
    return slacks, all(s >= -slack_tol for s in slacks.values())


# ---------------------------------------------------------------------------
# reference monotone sweeps (dense forcing matrices, one step at a time)
# ---------------------------------------------------------------------------

def reference_step(a_mat, h):
    """Dense E = expm(A h), p0 = A^-1 (E - I) and p1 = A^-1 (p0 - h I) for one step h.

    They are read off one block-triangular exponential (Van Loan, IEEE Trans. Automat.
    Control 23, 1978): expm([[A h, I, 0], [0, 0, I], [0, 0, 0]]) has E, p0 / h and p1 / h^2
    as its first block row. Solving with A instead loses digits to cancellation when A is
    nearly singular (a small shift on a reflecting or whole graph); the identity blocks
    are left unscaled by h (a similarity of expm([[A, I, 0], [0, 0, I], [0, 0, 0]] h)),
    since at h ~ 500 scaled ones lose about 1e-13 of the forcing's scale.
    """
    n = a_mat.shape[0]
    block = np.zeros((3 * n, 3 * n))
    block[:n, :n] = a_mat * h
    block[:n, n:2 * n] = block[n:2 * n, 2 * n:] = np.eye(n)
    top = scipy.linalg.expm(block)[:n]
    return top[:, :n], top[:, n:2 * n] * h, top[:, 2 * n:] * (h * h)


def reference_sweep(a_mat, grid_h, g_samples, y0):
    """y' = A y + g(t), g linear on each fine step, by dense forcing matrices.

    Per step length h, ``reference_step``'s E, p0 and p1; then
    y <- E y + p0 g_i + p1 gdot_i step by step.
    """
    cache = {}
    y = y0
    out = [y]
    for i, h in enumerate(grid_h):
        key = round(float(h), 15)
        if key not in cache:
            cache[key] = reference_step(a_mat, h)
        e_mat, p0, p1 = cache[key]
        gdot = (g_samples[i + 1] - g_samples[i]) / h
        y = e_mat @ y + p0 @ g_samples[i] + p1 @ gdot
        out.append(y)
    return np.stack(out)


def reference_monotone_solve(problem, pair, initial, t_grid, substep=None, tol=1e-8,
                             max_iters=500):
    """Monotone Picard sweeps over reference_sweep, with the default shift M.

    Returns the active values of (u, v) at ``t_grid`` and the iteration count.
    """
    p = problem.params
    ops = reduced_operators(problem)
    act = problem.active_idx
    n = problem.graph.n
    fine = [float(t_grid[0])]
    grid_index = [0]
    for t_a, t_b in zip(t_grid, t_grid[1:]):
        span = float(t_b - t_a)
        k = 1 if substep is None else max(1, int(np.ceil(span / substep)))
        for j in range(1, k + 1):
            fine.append(float(t_a) + span * j / k)
        grid_index.append(len(fine) - 1)
    grid_h = np.diff(fine)

    def values(field, times):
        return np.stack([np.broadcast_to(np.asarray(field.value(t), dtype=float), (n,))
                         for t in times])

    m_u = float(values(pair.u_upper, t_grid).max())
    m_v = float(values(pair.v_upper, t_grid).max())
    # each species' kinetics slope bound -df/dw over the pair, at least 1
    m_const = max(2 * p.b1 * m_u + p.c1 * m_v - p.a1, 2 * p.c2 * m_v + p.b2 * m_u - p.a2, 1.0)

    def shifted(d, red):
        dense = red.toarray() if hasattr(red, "toarray") else np.asarray(red)
        return d * dense - m_const * np.eye(act.size)

    a1_mat, a2_mat = shifted(p.d1, ops.red1), shifted(p.d2, ops.red2)
    u0 = np.asarray(initial[0], dtype=float)[act]
    v0 = np.asarray(initial[1], dtype=float)[act]
    hi_u, hi_v = values(pair.u_upper, fine)[:, act], values(pair.v_upper, fine)[:, act]
    lo_u, lo_v = values(pair.u_lower, fine)[:, act], values(pair.v_lower, fine)[:, act]
    for iterations in range(1, max_iters + 1):
        # upper u pairs with lower v, and lower u with upper v
        g_u = np.stack([hi_u * (p.a1 - p.b1 * hi_u - p.c1 * lo_v) + m_const * hi_u,
                        lo_u * (p.a1 - p.b1 * lo_u - p.c1 * hi_v) + m_const * lo_u], axis=-1)
        g_v = np.stack([hi_v * (p.a2 - p.b2 * lo_u - p.c2 * hi_v) + m_const * hi_v,
                        lo_v * (p.a2 - p.b2 * hi_u - p.c2 * lo_v) + m_const * lo_v], axis=-1)
        out_u = reference_sweep(a1_mat, grid_h, g_u, np.stack([u0, u0], axis=-1))
        out_v = reference_sweep(a2_mat, grid_h, g_v, np.stack([v0, v0], axis=-1))
        hi_u, lo_u = out_u[..., 0], out_u[..., 1]
        hi_v, lo_v = out_v[..., 0], out_v[..., 1]
        if max(float(np.max(hi_u - lo_u)), float(np.max(hi_v - lo_v))) < tol:
            break
    mid_u, mid_v = 0.5 * (hi_u + lo_u), 0.5 * (hi_v + lo_v)
    return mid_u[grid_index], mid_v[grid_index], iterations


# ---------------------------------------------------------------------------
# reference coexistence bounds (two explicit RK4 marches to the steady states)
# ---------------------------------------------------------------------------

def reference_coexistence_bounds(problem, epsilon, delta, tol=1e-8, t_max=2000.0):
    """Ordered time marches from ((1+eps) s1, delta phi2) and (delta phi1, (1+eps) s2).

    Each march takes fixed RK4 steps of the stability cap in windows of one time unit,
    sampled at quarters, checks that u and v move monotonically (the upper march lowers u
    and raises v, the lower one mirrors it) and stops once the samples of a window move
    by less than tol and both steady residuals are at most tol. Returns the active values
    (s_lower, s_upper, r_lower, r_upper) and the unique flag.
    """
    p = problem.params
    graph, part = problem.graph, problem.partition
    act = problem.active_idx
    ops = reduced_operators(problem)
    eig = [smallest_dirichlet_eigenpair(graph, species, part) for species in (1, 2)]
    s1 = logistic_steady_state(graph, part, 1, p.d1, p.a1, p.b1, tol=min(tol, 1e-10)).values
    s2 = logistic_steady_state(graph, part, 2, p.d2, p.a2, p.c2, tol=min(tol, 1e-10)).values

    def full(x):
        out = np.zeros(graph.n)
        out[act] = x
        return out

    def march(u0, v0, direction_u, direction_v):
        for _, traj in _windows(problem, (full(u0), full(v0)), 1.0, t_max, max_samples=6,
                                forced_times=(0.25, 0.5, 0.75), adaptive=False):
            steps = list(zip(traj.states, traj.states[1:]))
            for prev, cur in steps:
                if (np.any((cur.u - prev.u)[act] * direction_u < -1e-12)
                        or np.any((cur.v - prev.v)[act] * direction_v < -1e-12)):
                    raise AssertionError("reference march lost monotonicity")
            diffs = max(float(np.max(np.abs((cur.u - prev.u)[act]))
                              + np.max(np.abs((cur.v - prev.v)[act]))) for prev, cur in steps)
            u, v = traj.final.u[act], traj.final.v[act]
            f1, f2 = reaction(p, u, v)
            res_u = float(np.max(np.abs(p.d1 * (ops.red1 @ u) + f1)))
            res_v = float(np.max(np.abs(p.d2 * (ops.red2 @ v) + f2)))
            if diffs < tol and res_u <= tol and res_v <= tol:
                return u, v
        raise AssertionError("reference march did not settle")

    s_upper, r_lower = march((1.0 + epsilon) * s1, delta * eig[1].phi, -1, +1)
    s_lower, r_upper = march(delta * eig[0].phi, (1.0 + epsilon) * s2, +1, -1)
    g1 = p.a1 - eig[0].lambda0 * p.d1
    g2 = p.a2 - eig[1].lambda0 * p.d2
    same_weights = (np.array_equal(graph.w1, graph.w2)
                    and np.array_equal(graph.mu1, graph.mu2))
    unique = bool(same_weights and np.all(2.0 * p.b1 * s_lower > g1)
                  and np.all(2.0 * p.c2 * r_lower > g2))
    return s_lower, s_upper, r_lower, r_upper, unique


# ---------------------------------------------------------------------------
# reference stepper (one generator sum per stage, as the tableau is written)
# ---------------------------------------------------------------------------

_REF_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_REF_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_REF_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _combine(coefs, ks):
    """sum(c * k) over the nonzero coefficients."""
    return sum(c * k for c, k in zip(coefs, ks) if c)


def reference_integrate(problem, initial, t_end, dt=None, max_samples=250):
    """One ``integrate`` run, each DP5(4) stage formed by a Python sum over the stages.

    The same controller, rectangle rejection, clamp and counters as ``dynamics._windows``
    over one window, without its step and wall-time budgets. Returns the sampled active
    states as one (samples, 2 n_act, ...) array, and the counters.
    """
    p = problem.params
    ops = reduced_operators(problem)
    u0, v0 = dynamics._coerce_initial(problem, initial)
    red1, red2, d1, d2 = ops.red1, ops.red2, p.d1, p.d2
    act = problem.active_idx
    y = np.multiply.outer(np.concatenate([u0[act], v0[act]]),
                          np.ones(np.broadcast(*vars(p).values()).shape))
    n_act = act.size

    def rhs(state):
        u, v = state[:n_act], state[n_act:]
        f1, f2 = reaction(p, u, v)
        return np.concatenate([d1 * (red1 @ u) + f1, d2 * (red2 @ v) + f2])

    dp5 = dt is None
    start = dynamics._materialize(problem, np.stack([y[:n_act], y[n_act:]]), ops)
    m_u, m_v = dynamics.invariant_rectangle(p, start.u[problem.closure_idx],
                                            start.v[problem.closure_idx])
    rate = dynamics._diffusion_rate(problem, ops)
    step = dynamics._step_cap(p, rate, m_u, m_v) if dp5 else dt
    targets = dynamics.sample_times(t_end, step, max_samples=max_samples)
    states = [y]
    counts = dict(n_steps=0, n_clamped=0, n_halvings=0, n_rejected=0, n_rhs=0)
    k1 = None
    dt_cur = step
    t = 0.0
    for target in targets[1:]:
        while t < target - 1e-12 * max(1.0, target):
            if k1 is None:
                k1 = rhs(y)
                counts["n_rhs"] += 1
            grow = dynamics._GROW_MAX
            while True:
                h = min(dt_cur, target - t)
                if dp5:
                    ks = [k1]
                    for row in _REF_DP_A:
                        ks.append(rhs(y + h * _combine(row, ks)))
                    y_new = y + h * _combine(_REF_DP_B, ks)
                    counts["n_rhs"] += len(_REF_DP_A)
                else:
                    k2 = rhs(y + 0.5 * h * k1)
                    k3 = rhs(y + 0.5 * h * k2)
                    k4 = rhs(y + h * k3)
                    y_new = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                    counts["n_rhs"] += 3
                out_u = np.any(y_new[:n_act].max(axis=0) > m_u + dynamics._RECT_SLACK)
                out_v = np.any(y_new[n_act:].max(axis=0) > m_v + dynamics._RECT_SLACK)
                if float(y_new.min()) <= -dynamics._CLAMP or out_u or out_v:
                    dt_cur = (h if dp5 else dt_cur) * 0.5
                    counts["n_halvings"] += 1
                elif not dp5:
                    break
                else:
                    ks.append(rhs(y_new))
                    counts["n_rhs"] += 1
                    scale = dynamics._ATOL + dynamics._RTOL * np.maximum(np.abs(y), np.abs(y_new))
                    ratio = h * _combine(_REF_DP_E, ks) / scale
                    err = float(np.max(np.sqrt(np.mean(ratio * ratio, axis=0))))
                    factor = dynamics._SAFETY * err ** -0.2 if err > 0.0 else dynamics._GROW_MAX
                    if err <= 1.0:
                        proposal = h * min(grow, factor)
                        dt_cur = max(dt_cur, proposal) if h < dt_cur else proposal
                        break
                    dt_cur = h * (max(dynamics._GROW_MIN, factor) if err > 1.0
                                  else dynamics._GROW_MIN)
                    counts["n_rejected"] += 1
                grow = 1.0
                if dt_cur < step * 2.0**-20:
                    raise AssertionError("reference step collapsed")
            undershoot = y_new < 0.0
            if undershoot.any():
                counts["n_clamped"] += int(undershoot.sum())
                y_new[undershoot] = 0.0
                k1 = None
            else:
                k1 = ks[-1] if dp5 else None
            y = y_new
            t += h
            counts["n_steps"] += 1
        t = float(target)
        states.append(y)
    return np.stack(states), counts
