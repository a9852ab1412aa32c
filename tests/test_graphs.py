"""Graph construction, partitions, and discrete Laplacians against naive sums."""

import contextlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dense_weights,
    naive_normal_derivative,
    naive_subgraph_laplacian,
    naive_whole_laplacian,
    random_connected_graph,
    random_connected_interior,
)
from graphlv import (
    BoundaryCondition,
    CompetitionParams,
    DomainMode,
    Problem,
    boundary_of,
    build_graph,
    dirichlet_blocks,
    field_array,
    laplacian_apply,
    normal_derivative,
    whole_laplacian,
)
from graphlv.errors import (
    AsymmetricWeight,
    InputError,
    InteriorNotSubset,
    MismatchedTopology,
    MissingVertexValue,
    NonpositiveMeasure,
    NotBoundaryVertex,
    NotConnected,
    SelfLoop,
)
from graphlv import graphs
from graphlv.dynamics import reduced_operators
from graphlv.graphs import _blocks, _boundary_normal


class TestBuildGraph:
    def test_default_measure_is_weighted_degree(self):
        g = build_graph(["a", "b", "c"], [("a", "b", 2.0), ("b", "c", 0.5)])
        assert np.allclose(g.mu1, [2.0, 2.5, 0.5])
        assert np.allclose(g.mu2, g.mu1)

    def test_vertex_order_is_insertion_order(self):
        g = build_graph(["z", "a", "m"], [("z", "a", 1.0), ("a", "m", 1.0)])
        assert g.vertices == ("z", "a", "m")
        assert g.index("m") == 2

    def test_second_species_defaults_to_first(self):
        g = build_graph(["a", "b"], [("a", "b", 3.0)])
        assert np.array_equal(g.w1, g.w2)

    def test_split_weights_same_topology(self):
        g = build_graph(["a", "b"], [("a", "b", 3.0)], [("a", "b", 1.5)])
        assert dense_weights(g, 1)[0, 1] == 3.0
        assert dense_weights(g, 2)[0, 1] == 1.5

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            build_graph(["a", "b"], [("a", "a", 1.0), ("a", "b", 1.0)])

    def test_conflicting_duplicate_edge_rejected(self):
        with pytest.raises(AsymmetricWeight):
            build_graph(["a", "b"], [("a", "b", 1.0), ("b", "a", 2.0)])

    def test_differing_edge_sets_rejected(self):
        with pytest.raises(MismatchedTopology):
            build_graph(
                ["a", "b", "c"],
                [("a", "b", 1.0), ("b", "c", 1.0)],
                [("a", "b", 1.0), ("a", "c", 1.0)],
            )

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnected, match=r"unreachable from 'a': \['c', 'd'\]"):
            build_graph(["a", "b", "c", "d"], [("a", "b", 1.0), ("c", "d", 1.0)])

    def test_long_path_is_checked_in_linear_time(self):
        # a sweep from the first vertex needs one round per vertex of a path; hooking labels
        # with pointer jumping needs a few rounds whatever the diameter and the vertex order
        n = 10_000
        order = np.random.default_rng(5).permutation(n)
        names = [f"p{i}" for i in range(n)]
        edges = [(names[a], names[b], 1.0) for a, b in zip(order, order[1:])]
        started = time.perf_counter()
        graph = build_graph(names, edges)
        part = boundary_of(graph, [names[i] for i in order[1:-1]])
        assert time.perf_counter() - started < 0.25
        assert set(part.boundary) == {names[order[0]], names[order[-1]]}
        with pytest.raises(NotConnected, match="unreachable"):
            build_graph(names, edges[:n // 2] + edges[n // 2 + 1:])

    def test_nonpositive_measure_rejected(self):
        with pytest.raises(NonpositiveMeasure):
            build_graph(["a", "b"], [("a", "b", 1.0)], measure1={"a": 0.0, "b": 1.0})

    def test_unknown_edge_vertex_rejected(self):
        with pytest.raises(InputError):
            build_graph(["a", "b"], [("a", "q", 1.0)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InputError):
            build_graph(["a", "b"], [("a", "b", -1.0)])

    def test_repeated_edge_recorded_once(self):
        g = build_graph(["a", "b", "c"], [("a", "b", 1.0), ("b", "a", 1.0), ("b", "c", 2.0)])
        assert list(zip(g.src.tolist(), g.dst.tolist())) == [(0, 1), (1, 0), (1, 2), (2, 1)]
        assert g.w1.tolist() == [1.0, 1.0, 2.0, 2.0]


class TestBoundaryOf:
    def test_reflecting_example_partition(self, reflecting):
        graph, part = reflecting
        assert part.interior == ("x1", "x2", "x3")
        assert part.boundary == ("x4", "x5")

    def test_interior_must_be_strict_subset(self, triangle):
        with pytest.raises(InteriorNotSubset):
            boundary_of(triangle, ("x1", "x2", "x3"))
        with pytest.raises(InteriorNotSubset):
            boundary_of(triangle, ())
        with pytest.raises(InteriorNotSubset):
            boundary_of(triangle, ("nope",))

    def test_boundary_excludes_nonadjacent(self):
        g = build_graph(
            ["a", "b", "c", "d"],
            [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)],
        )
        part = boundary_of(g, ["a"])
        assert part.boundary == ("b",)

    def test_disconnected_interior_rejected(self):
        g = build_graph(
            ["x1", "x2", "x3", "x4"],
            [("x1", "x2", 1.0), ("x2", "x3", 1.0), ("x3", "x4", 1.0)],
        )
        with pytest.raises(NotConnected):
            boundary_of(g, ["x1", "x3", "x4"])


class TestFieldArray:
    def test_mapping_fills_missing_with_nan(self, triangle):
        out = field_array(triangle, {"x1": 2.0})
        assert out[0] == 2.0
        assert np.isnan(out[1]) and np.isnan(out[2])

    def test_required_positions_enforced(self, triangle):
        with pytest.raises(MissingVertexValue):
            field_array(triangle, {"x1": 2.0}, required_idx=np.array([0, 1]))

    def test_scalar_broadcasts(self, triangle):
        assert np.allclose(field_array(triangle, 1.5), 1.5)

    def test_wrong_length_rejected(self, triangle):
        with pytest.raises(InputError):
            field_array(triangle, np.ones(4))


class TestLaplacians:
    def test_triangle_frozen_value(self, triangle):
        lap = whole_laplacian(triangle, 1)
        assert np.allclose(lap @ np.array([1.0, 0.0, 0.0]), [-1.0, 0.5, 0.5])

    def test_reflecting_subgraph_frozen_value(self, reflecting):
        graph, part = reflecting
        l_ii, l_ib = dirichlet_blocks(graph, 1, part)
        # indicator of the interior, zero on the boundary
        val = l_ii @ np.ones(3) + l_ib @ np.zeros(2)
        assert np.allclose(val, [-1.0 / 3.0, 0.0, -1.0 / 3.0])

    def test_matches_naive_whole(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_connected_graph(rng, split_weights=True, random_measure=True)
            u = rng.normal(size=g.n)
            for species in (1, 2):
                lap = whole_laplacian(g, species)
                assert np.allclose(lap @ u, naive_whole_laplacian(g, species, u),
                                   atol=1e-12)

    def test_matches_naive_subgraph(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            g = random_connected_graph(rng, split_weights=True)
            part = random_connected_interior(rng, g)
            u = rng.normal(size=g.n)
            for species in (1, 2):
                l_ii, l_ib = dirichlet_blocks(g, species, part)
                got = l_ii @ u[part.interior_idx] + l_ib @ u[part.boundary_idx]
                assert np.allclose(got, naive_subgraph_laplacian(g, species, part, u),
                                   atol=1e-12)

    def test_laplacian_apply_dispatch(self, reflecting):
        graph, part = reflecting
        u = np.arange(5, dtype=float)
        whole = laplacian_apply(graph, 1, u)
        assert np.allclose(whole, whole_laplacian(graph, 1) @ u)
        sub = laplacian_apply(graph, 1, u, mode=DomainMode.SUBGRAPH, partition=part)
        assert np.allclose(sub, naive_subgraph_laplacian(graph, 1, part, u))

    def test_laplacian_apply_refuses_a_partition_on_the_whole_graph(self, reflecting):
        # a partition given under whole-graph mode was dropped, returning 5 whole-graph values
        graph, part = reflecting
        with pytest.raises(InputError, match="whole-graph mode takes no partition"):
            laplacian_apply(graph, 1, np.ones(5), partition=part)
        with pytest.raises(InputError, match="subgraph mode needs a partition"):
            laplacian_apply(graph, 1, np.ones(5), mode=DomainMode.SUBGRAPH)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_divergence_identity(self, seed):
        # sum_x mu(x) (Lap u)(x) = 0: every edge term appears twice with
        # opposite signs once weighted by the measure
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, random_measure=True)
        u = rng.normal(size=g.n) * rng.uniform(0.1, 10.0)
        for species in (1, 2):
            mu = g.measure(species)
            total = float(mu @ (whole_laplacian(g, species) @ u))
            assert abs(total) <= 1e-12 * max(1.0, float(np.abs(u).max()))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), value=st.floats(-5.0, 5.0))
    def test_constant_kernel(self, seed, value):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, split_weights=True)
        c = np.full(g.n, value)
        assert np.allclose(whole_laplacian(g, 1) @ c, 0.0, atol=1e-13)
        if g.n >= 3:
            part = random_connected_interior(rng, g)
            l_ii, l_ib = dirichlet_blocks(g, 2, part)
            sub = l_ii @ c[part.interior_idx] + l_ib @ c[part.boundary_idx]
            assert np.allclose(sub, 0.0, atol=1e-13)


@contextlib.contextmanager
def _forced(csr: bool):
    """A context in which the storage rule picks CSR (or dense) at every size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_CSR_MIN_ENTRIES", 0 if csr else np.inf)
        mp.setattr(graphs, "_CSR_MAX_FILL", 1.0)
        yield


class TestBlockBuilder:
    """The one block builder in both storages against the defining sums."""

    PARAMS = CompetitionParams(a1=1.0, b1=1.0, c1=0.5, a2=1.0, b2=0.5, c2=1.0)

    @staticmethod
    def _drawn(seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, max_vertices=40, split_weights=True,
                                   random_measure=True)
        return rng, g, random_connected_interior(rng, g)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), csr=st.booleans())
    def test_blocks_match_naive(self, seed, csr):
        rng, g, part = self._drawn(seed)
        u = rng.normal(size=g.n)
        ii, bb = part.interior_idx, part.boundary_idx
        for species in (1, 2):
            lap, none = _blocks(g, species, csr=csr)
            assert none is None and hasattr(lap, "toarray") == csr
            np.testing.assert_allclose(lap @ u, naive_whole_laplacian(g, species, u),
                                       rtol=0, atol=1e-12)
            l_ii, l_ib = _blocks(g, species, part, csr=csr)
            np.testing.assert_allclose(l_ii @ u[ii] + l_ib @ u[bb],
                                       naive_subgraph_laplacian(g, species, part, u),
                                       rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), csr=st.booleans())
    def test_reduced_operators_match_naive(self, seed, csr):
        # each boundary condition's reduced operator, applied to interior values, is the
        # naive Laplacian of the full field that condition implies
        rng, g, part = self._drawn(seed)
        u = rng.normal(size=g.n)
        ii, bb = part.interior_idx, part.boundary_idx
        with _forced(csr):
            for bc in BoundaryCondition:
                if bc is BoundaryCondition.NO_BOUNDARY:
                    ops = reduced_operators(Problem(g, self.PARAMS))
                    pairs = [(ops.red1, naive_whole_laplacian(g, 1, u)),
                             (ops.red2, naive_whole_laplacian(g, 2, u))]
                    values = u
                else:
                    ops = reduced_operators(Problem(g, self.PARAMS, bc=bc, partition=part))
                    pairs = []
                    for species, red in ((1, ops.red1), (2, ops.red2)):
                        field = u.copy()
                        w = dense_weights(g, species)
                        for x in bb:
                            field[x] = (0.0 if bc is BoundaryCondition.DIRICHLET
                                        else sum(w[x, y] * u[y] for y in ii)
                                        / sum(w[x, y] for y in ii))
                        pairs.append((red, naive_subgraph_laplacian(g, species, part, field)))
                    values = u[ii]
                for red, want in pairs:
                    assert hasattr(red, "toarray") == csr
                    np.testing.assert_allclose(red @ values, want, rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), csr=st.booleans())
    def test_boundary_normal_matches_naive(self, seed, csr):
        rng, g, part = self._drawn(seed)
        fields = rng.normal(size=(2, g.n))
        with _forced(csr):
            for species in (1, 2):
                got = _boundary_normal(g, species, part)(fields)
                for row, field in zip(got, fields):
                    want = [naive_normal_derivative(g, species, part, field, x)
                            for x in part.boundary_idx]
                    np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)

    def test_public_blocks_stay_dense_when_the_rule_picks_csr(self, reflecting):
        graph, part = reflecting
        with _forced(True):
            assert hasattr(_blocks(graph, 1, part)[0], "toarray")
            assert isinstance(whole_laplacian(graph, 1), np.ndarray)
            assert all(isinstance(m, np.ndarray) for m in dirichlet_blocks(graph, 1, part))


class TestNormalDerivative:
    def test_matches_naive(self, reflecting):
        graph, part = reflecting
        rng = np.random.default_rng(3)
        u = rng.normal(size=5)
        for at in ("x4", "x5"):
            got = normal_derivative(graph, 1, part, u, at)
            want = naive_normal_derivative(graph, 1, part, u, graph.index(at))
            assert got == pytest.approx(want, abs=1e-14)

        cases = [(graph, part)]
        for seed in range(8):
            seeded = np.random.default_rng(seed)
            g = random_connected_graph(seeded, split_weights=True, random_measure=True)
            cases.append((g, random_connected_interior(seeded, g)))
        for g, p in cases:
            fields = rng.normal(size=(3, g.n))
            for species in (1, 2):
                got = _boundary_normal(g, species, p)(fields)
                assert got.shape == (3, p.boundary_idx.size)
                for row, field in zip(got, fields):
                    want = [naive_normal_derivative(g, species, p, field, x)
                            for x in p.boundary_idx]
                    np.testing.assert_allclose(row, want, rtol=0, atol=1e-14)

    def test_interior_vertex_rejected(self, reflecting):
        graph, part = reflecting
        with pytest.raises(NotBoundaryVertex):
            normal_derivative(graph, 1, part, np.zeros(5), "x1")
