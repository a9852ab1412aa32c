"""The Dirichlet eigen solve under both operator storages: LAPACK on dense blocks, ARPACK
shift-invert on CSR ones."""

import json

import numpy as np
import scipy.linalg
from conftest import random_connected_graph, random_connected_interior, stored
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlv import dirichlet_blocks, graphs, smallest_dirichlet_eigenpair
from graphlv.cli import main
from graphlv.config import problem_from_document


def lattice_doc(side, seed=5):
    """Seeded side x side four-neighbour lattice with split weights and measures, absorbing
    on its outer ring."""
    rng = np.random.default_rng(seed)
    names = [f"r{r}c{c}" for r in range(side) for c in range(side)]
    pairs = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    pairs += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    edges = [[names[i], names[j], *rng.uniform(0.5, 1.5, 2).tolist()] for i, j in pairs]
    return {
        "graph": {
            "vertices": names, "edges": edges,
            "measures": {k: dict(zip(names, rng.uniform(1.0, 4.0, side * side).tolist()))
                         for k in ("1", "2")},
            "interior": [f"r{r}c{c}" for r in range(1, side - 1) for c in range(1, side - 1)],
        },
        "bc": "dirichlet",
        "params": {"a1": 2.0, "b1": 1.0, "c1": 0.05, "a2": 2.0, "b2": 0.05, "c2": 1.0},
        "initial": {"u": 0.5, "v": 0.5},
    }


class TestCsrDeterminism:
    """ARPACK starts from a fixed vector, so repeated solves in one process agree bit for bit
    (its default start vector is random and changes from call to call)."""

    SIDE = 16    # a 14 x 14 interior: the storage rule keeps it CSR

    def test_repeated_solves_are_bit_identical(self):
        problem = problem_from_document(lattice_doc(self.SIDE))
        graph, part = problem.graph, problem.partition
        assert graphs._stores_csr(graph, part)
        for species in (1, 2):
            first = smallest_dirichlet_eigenpair(graph, species, part)
            second = smallest_dirichlet_eigenpair(graph, species, part)
            assert first.lambda0 == second.lambda0
            assert np.array_equal(first.phi, second.phi)

    def test_eigen_csv_is_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "lattice.json"
        cfg.write_text(json.dumps(lattice_doc(self.SIDE)))
        texts = []
        for run in ("a", "b"):
            assert main(["eigen", "--config", str(cfg), "--out", str(tmp_path / run)]) == 0
            texts.append((tmp_path / run / "eigen.csv").read_bytes())
        assert texts[0] == texts[1]


def dense_oracle(graph, species, partition):
    l_ii, _ = dirichlet_blocks(graph, species, partition)
    root = np.sqrt(graph.measure(species)[partition.interior_idx])
    return float(scipy.linalg.eigvalsh(root[:, None] * (-l_ii) / root[None, :])[0])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_both_storages_agree_with_a_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng, max_vertices=40, split_weights=True, random_measure=True)
    while graph.n < 4:
        graph = random_connected_graph(rng, max_vertices=40, split_weights=True,
                                       random_measure=True)
    part = random_connected_interior(rng, graph)
    while part.interior_idx.size < 3:
        part = random_connected_interior(rng, graph)
    for species in (1, 2):
        want = dense_oracle(graph, species, part)
        pairs = []
        for csr in (True, False):
            with stored(csr):
                assert graphs._stores_csr(graph, part) == csr
                pair = smallest_dirichlet_eigenpair(graph, species, part, tol=1e-12)
            assert pair.residual <= 1e-12 * max(1.0, pair.lambda0)
            assert np.all(pair.phi > 0.0) and pair.phi.max() == 1.0
            pairs.append(pair)
        sparse, dense = pairs
        assert abs(sparse.lambda0 - dense.lambda0) <= 1e-10
        assert abs(sparse.lambda0 - want) <= 1e-10
        assert abs(dense.lambda0 - want) <= 1e-10
