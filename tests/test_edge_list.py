"""The graph's edge list, connectivity checks and vertex boundaries against networkx."""

import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph_tables
from graphlv import BoundaryCondition, CompetitionParams, Problem, boundary_of, build_graph
from graphlv.dynamics import reduced_operators
from graphlv.errors import NotConnected

SEEDS = st.integers(0, 2**32 - 1)


def _drawn(seed):
    """A split-weight ``random_connected_graph`` draw of at most 40 vertices, its input
    tables and the same graph in networkx, one edge attribute per species."""
    rng = np.random.default_rng(seed)
    names, weights1, weights2, _, _ = random_graph_tables(rng, max_vertices=40,
                                                          split_weights=True)
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(names)
    for (a, b, x1), (_, _, x2) in zip(weights1, weights2):
        nx_graph.add_edge(a, b, w1=x1, w2=x2)
    return rng, build_graph(names, weights1, weights2), weights1, weights2, nx_graph


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS)
def test_each_input_edge_is_listed_once_in_each_direction(seed):
    _, g, weights1, weights2, _ = _drawn(seed)
    listed = [(g.vertices[i], g.vertices[j], x1, x2)
              for i, j, x1, x2 in zip(g.src.tolist(), g.dst.tolist(), g.w1, g.w2)]
    want = []
    for (a, b, x1), (_, _, x2) in zip(weights1, weights2):
        want += [(a, b, x1, x2), (b, a, x1, x2)]
    assert listed == want


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS)
def test_default_measure_is_the_weighted_degree(seed):
    _, g, _, _, nx_graph = _drawn(seed)
    for species, mu in ((1, g.mu1), (2, g.mu2)):
        degree = nx_graph.degree(weight=f"w{species}")
        np.testing.assert_allclose(mu, [degree[v] for v in g.vertices], rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS)
def test_not_connected_exactly_when_networkx_says_so(seed):
    # any edge set, so possibly disconnected; unit measures keep isolated vertices legal
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    names = [f"v{i}" for i in range(n)]
    pairs = {tuple(sorted(p)) for p in rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
             .tolist() if p[0] != p[1]}
    edges = [(names[i], names[j], float(rng.uniform(0.2, 3.0))) for i, j in sorted(pairs)]
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(names)
    nx_graph.add_weighted_edges_from(edges)
    if nx.is_connected(nx_graph):
        build_graph(names, edges, measure1=np.ones(n), measure2=np.ones(n))
    else:
        with pytest.raises(NotConnected):
            build_graph(names, edges, measure1=np.ones(n), measure2=np.ones(n))


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS)
def test_boundary_is_the_networkx_node_boundary(seed):
    rng, g, _, _, nx_graph = _drawn(seed)
    size = int(rng.integers(1, g.n))
    interior = set(rng.choice(g.vertices, size=size, replace=False).tolist())
    if not nx.is_connected(nx_graph.subgraph(interior)):
        with pytest.raises(NotConnected):
            boundary_of(g, interior)
        return
    part = boundary_of(g, interior)
    assert part.interior == tuple(v for v in g.vertices if v in interior)
    assert part.boundary == tuple(v for v in g.vertices
                                  if v in nx.node_boundary(nx_graph, interior))


def test_lattice_set_up_allocates_no_dense_matrix():
    # 60 x 60 lattice, reflecting boundary off the ring: one dense n x n float matrix
    # would be 3600**2 * 8 B = 99 MiB; the edge list and the CSR operators take about 2 MiB
    import scipy.sparse  # noqa: F401  (its import is not part of the set-up)

    side = 60
    names = [f"r{r}c{c}" for r in range(side) for c in range(side)]
    edges = [(names[r * side + c], names[r * side + c + 1], 1.0)
             for r in range(side) for c in range(side - 1)]
    edges += [(names[r * side + c], names[(r + 1) * side + c], 1.0)
              for r in range(side - 1) for c in range(side)]
    interior = [f"r{r}c{c}" for r in range(1, side - 1) for c in range(1, side - 1)]
    params = CompetitionParams(a1=1.0, b1=1.0, c1=0.5, a2=1.0, b2=0.5, c2=1.0)
    tracemalloc.start()
    try:
        graph = build_graph(names, edges)
        problem = Problem(graph, params, bc=BoundaryCondition.NEUMANN,
                          partition=boundary_of(graph, interior))
        ops = reduced_operators(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hasattr(ops.red1, "toarray")
    assert peak < 16 * 2**20, f"set-up peaked at {peak / 2**20:.1f} MiB"
