"""Finite weighted graphs, vertex-subset partitions, and discrete Laplacians.

A graph carries two independent edge-weight tables and two vertex
measures, one per species, over a single shared edge set. All vector
quantities downstream are indexed by the vertex insertion order fixed
here, so this module is the coordinate system for the whole package.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricWeight,
    EmptyBoundary,
    InputError,
    InteriorNotSubset,
    MismatchedTopology,
    MissingVertexValue,
    NonpositiveMeasure,
    NotBoundaryVertex,
    NotConnected,
    SelfLoop,
)

Vertex = str


class DomainMode(enum.Enum):
    WHOLE_GRAPH = "whole-graph"
    SUBGRAPH = "subgraph"


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Vertex-ordered graph with per-species weights and measures.

    Weight matrices are dense symmetric with zero diagonal; both induce
    the same edge set. Measures are strictly positive.
    """

    vertices: tuple[Vertex, ...]
    w1: np.ndarray
    w2: np.ndarray
    mu1: np.ndarray
    mu2: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(self.vertices)})

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, name: Vertex) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InputError(f"unknown vertex {name!r}") from None

    def weights(self, species: int) -> np.ndarray:
        return self.w1 if _check_species(species) == 1 else self.w2

    def measure(self, species: int) -> np.ndarray:
        return self.mu1 if _check_species(species) == 1 else self.mu2

    @property
    def adjacency(self) -> np.ndarray:
        return self.w1 > 0.0


@dataclass(frozen=True, eq=False)
class DomainPartition:
    """Interior subset with its vertex boundary, both in graph order."""

    interior: tuple[Vertex, ...]
    boundary: tuple[Vertex, ...]
    interior_idx: np.ndarray
    boundary_idx: np.ndarray

    @property
    def closure(self) -> tuple[Vertex, ...]:
        return self.interior + self.boundary

    @property
    def closure_idx(self) -> np.ndarray:
        return np.concatenate([self.interior_idx, self.boundary_idx])


def _check_species(species: int) -> int:
    if species not in (1, 2):
        raise InputError(f"species must be 1 or 2, got {species!r}")
    return species


def _as_float(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InputError(f"{what} must be a number, got {value!r}") from None


def _weight_matrix(vertices, index, table, label: str) -> np.ndarray:
    n = len(vertices)
    w = np.zeros((n, n))
    if isinstance(table, Mapping):
        items = [(a, b, val) for (a, b), val in table.items()]
    else:
        items = [(a, b, val) for a, b, val in table]
    for a, b, val in items:
        if a == b:
            raise SelfLoop(f"{label}: self-loop at {a!r}")
        if a not in index or b not in index:
            raise InputError(f"{label}: edge ({a!r}, {b!r}) uses an unknown vertex")
        val = _as_float(val, f"{label}: edge ({a!r}, {b!r}) weight")
        if not np.isfinite(val) or val <= 0.0:
            raise InputError(f"{label}: edge ({a!r}, {b!r}) needs a positive finite weight, got {val}")
        i, j = index[a], index[b]
        for x, y in ((i, j), (j, i)):
            if w[x, y] != 0.0 and w[x, y] != val:
                raise AsymmetricWeight(
                    f"{label}: edge ({a!r}, {b!r}) given twice with different weights"
                )
        w[i, j] = w[j, i] = val
    return w


def _measure_vector(vertices, index, measure, weights: np.ndarray, label: str) -> np.ndarray:
    if measure is None:
        mu = weights.sum(axis=1)
    elif isinstance(measure, Mapping):
        missing = [v for v in vertices if v not in measure]
        if missing:
            raise MissingVertexValue(f"{label}: no measure for {missing}")
        mu = np.array([_as_float(measure[v], f"{label}: measure of {v!r}") for v in vertices])
    else:
        try:
            mu = np.asarray(measure, dtype=float)
        except (TypeError, ValueError):
            raise InputError(f"{label}: measure values must be numbers") from None
        if mu.shape != (len(vertices),):
            raise InputError(f"{label}: measure must have one value per vertex")
    if not np.all(np.isfinite(mu)) or np.any(mu <= 0.0):
        raise NonpositiveMeasure(f"{label}: vertex measures must be positive and finite")
    return mu


def build_graph(
    vertices: Iterable[Vertex],
    weights1,
    weights2=None,
    measure1=None,
    measure2=None,
) -> WeightedGraph:
    """Build and validate a two-species weighted graph.

    Weight tables are mappings ``{(a, b): w}`` or iterables of
    ``(a, b, w)``; ``weights2=None`` copies ``weights1``. A measure of
    None defaults to the weighted vertex degree of that species.
    """
    vertices = tuple(vertices)
    if len(vertices) == 0:
        raise InputError("graph needs at least one vertex")
    if len(set(vertices)) != len(vertices):
        raise InputError("duplicate vertex names")
    index = {v: i for i, v in enumerate(vertices)}
    w1 = _weight_matrix(vertices, index, weights1, "weights1")
    w2 = w1.copy() if weights2 is None else _weight_matrix(vertices, index, weights2, "weights2")
    if not np.array_equal(w1 > 0, w2 > 0):
        raise MismatchedTopology("weights1 and weights2 induce different edge sets")
    mu1 = _measure_vector(vertices, index, measure1, w1, "measure1")
    mu2 = _measure_vector(vertices, index, measure2, w2, "measure2")
    _require_connected(vertices, w1 > 0)
    return WeightedGraph(vertices, w1, w2, mu1, mu2)


def _require_connected(vertices, adj: np.ndarray) -> None:
    seen = np.zeros(len(vertices), dtype=bool)
    frontier = seen.copy()
    frontier[0] = True
    while frontier.any():
        seen |= frontier
        frontier = adj[frontier].any(axis=0) & ~seen
    if not seen.all():
        missing = [vertices[i] for i in np.flatnonzero(~seen)]
        raise NotConnected(f"graph is not connected; unreachable from {vertices[0]!r}: {missing}")


def boundary_of(graph: WeightedGraph, interior: Iterable[Vertex]) -> DomainPartition:
    """Partition the graph into ``interior`` and its vertex boundary.

    The boundary is every vertex outside the interior adjacent to it.
    Interior must be a nonempty strict subset of the vertex set that
    induces a connected subgraph.
    """
    wanted = set(interior)
    unknown = wanted - set(graph.vertices)
    if unknown:
        raise InteriorNotSubset(f"interior contains unknown vertices: {sorted(unknown)}")
    if not wanted:
        raise InteriorNotSubset("interior is empty")
    if len(wanted) == graph.n:
        raise InteriorNotSubset("interior must be a strict subset of the vertex set")
    interior_idx = np.array([i for i, v in enumerate(graph.vertices) if v in wanted], dtype=int)
    adj = graph.adjacency
    try:
        _require_connected([graph.vertices[i] for i in interior_idx],
                           adj[interior_idx][:, interior_idx])
    except NotConnected as exc:
        raise NotConnected(f"interior does not induce a connected subgraph: {exc}") from None
    touched = adj[interior_idx].any(axis=0)
    boundary_mask = touched.copy()
    boundary_mask[interior_idx] = False
    boundary_idx = np.flatnonzero(boundary_mask)
    if boundary_idx.size == 0:
        raise EmptyBoundary("interior has no adjacent exterior vertex")
    return DomainPartition(
        interior=tuple(graph.vertices[i] for i in interior_idx),
        boundary=tuple(graph.vertices[i] for i in boundary_idx),
        interior_idx=interior_idx,
        boundary_idx=boundary_idx,
    )


def field_array(graph: WeightedGraph, data, required_idx=None) -> np.ndarray:
    """Coerce per-vertex data (array, mapping, or scalar) to a full vector.

    Entries absent from a mapping become NaN; if ``required_idx`` is
    given, NaN at any required position raises MissingVertexValue.
    """
    if isinstance(data, Mapping):
        out = np.full(graph.n, np.nan)
        for name, val in data.items():
            out[graph.index(name)] = float(val)
    elif np.isscalar(data):
        out = np.full(graph.n, float(data))
    else:
        out = np.asarray(data, dtype=float)
        if out.shape != (graph.n,):
            raise InputError(f"field must have {graph.n} entries, got shape {out.shape}")
        out = out.copy()
    if required_idx is not None:
        bad = np.flatnonzero(np.isnan(out[np.asarray(required_idx, dtype=int)]))
        if bad.size:
            req = np.asarray(required_idx, dtype=int)
            names = [graph.vertices[req[i]] for i in bad]
            raise MissingVertexValue(f"field has no value at {names}")
    return out


def whole_laplacian(graph: WeightedGraph, species: int) -> np.ndarray:
    """Dense matrix L with (L u)(x) = sum_y (u(y) - u(x)) w_yx / mu(x)."""
    w = graph.weights(species)
    mu = graph.measure(species)
    lap = w / mu[:, None]
    np.fill_diagonal(lap, -w.sum(axis=1) / mu)
    return lap


def dirichlet_blocks(
    graph: WeightedGraph, species: int, partition: DomainPartition
) -> tuple[np.ndarray, np.ndarray]:
    """Interior rows of the subgraph Laplacian, split by column support.

    Returns (L_II, L_IB) so that the subgraph Laplacian of a field u at
    the interior is L_II @ u[interior] + L_IB @ u[boundary]; sums range
    over the closure only.
    """
    w = graph.weights(species)
    mu = graph.measure(species)
    ii, bb = partition.interior_idx, partition.boundary_idx
    closure_deg = w[np.ix_(ii, np.concatenate([ii, bb]))].sum(axis=1)
    l_ii = w[np.ix_(ii, ii)] / mu[ii, None]
    np.fill_diagonal(l_ii, np.diag(l_ii) - closure_deg / mu[ii])
    l_ib = w[np.ix_(ii, bb)] / mu[ii, None]
    return l_ii, l_ib


def _csr_block(w: np.ndarray, edges, rows: np.ndarray, cols: np.ndarray):
    """CSR copy of w[np.ix_(rows, cols)] built from ``edges``, the (row, col) positions of
    the nonzeros of w, with no dense block in between."""
    import scipy.sparse as sp    # here only: dense-stored runs never pay its memory

    src, dst = edges
    at_row = np.full(w.shape[0], -1)
    at_row[rows] = np.arange(rows.size)
    at_col = np.full(w.shape[0], -1)
    at_col[cols] = np.arange(cols.size)
    keep = (at_row[src] >= 0) & (at_col[dst] >= 0)
    src, dst = src[keep], dst[keep]
    return sp.csr_array((w[src, dst], (at_row[src], at_col[dst])), shape=(rows.size, cols.size))


def _divide_rows(mat, scale: np.ndarray):
    """mat / scale[:, None] for a dense or CSR matrix, dividing (not multiplying) the entries."""
    if isinstance(mat, np.ndarray):
        return mat / scale[:, None]
    mat.data /= np.repeat(scale, np.diff(mat.indptr))
    return mat


def _csr_blocks(graph: WeightedGraph, species: int, partition: DomainPartition | None, edges):
    """``dirichlet_blocks`` as CSR, or ``(whole_laplacian, None)`` with no partition, built
    from ``edges``, the nonzero positions of the weights."""
    import scipy.sparse as sp

    w, mu = graph.weights(species), graph.measure(species)
    ii = np.arange(graph.n) if partition is None else partition.interior_idx
    bb = ii[:0] if partition is None else partition.boundary_idx
    w_ii, w_ib = _csr_block(w, edges, ii, ii), _csr_block(w, edges, ii, bb)
    closure_deg = w_ii.sum(axis=1) + w_ib.sum(axis=1)
    l_ii = _divide_rows((w_ii - sp.diags_array(closure_deg)).tocsr(), mu[ii])
    return l_ii, None if partition is None else _divide_rows(w_ib, mu[ii])


def _closure_laplacian(graph: WeightedGraph, species: int,
                       partition: DomainPartition | None = None):
    """The Laplacian at the active rows, as a map on full-order fields.

    The returned function takes fields of shape (..., n) in graph vertex
    order. With no partition it is the whole-graph operator at every
    vertex; with one it gives the subgraph operator at the interior
    vertices, reading the field on the closure only.
    """
    if partition is None:
        lap = whole_laplacian(graph, species)
        return lambda u: u @ lap.T
    l_ii, l_ib = dirichlet_blocks(graph, species, partition)
    ii, bb = partition.interior_idx, partition.boundary_idx
    return lambda u: u[..., ii] @ l_ii.T + u[..., bb] @ l_ib.T


def _boundary_normal(graph: WeightedGraph, species: int, partition: DomainPartition):
    """The outward normal derivative at every boundary vertex, as a map.

    The returned function takes fields of shape (..., n) in graph vertex
    order and gives sum over interior y of (u(x) - u(y)) w_xy / mu(x) at
    each boundary vertex x, in partition order.
    """
    ii, bb = partition.interior_idx, partition.boundary_idx
    w_bi = graph.weights(species)[np.ix_(bb, ii)]
    rowsum = w_bi.sum(axis=1)
    mu_b = graph.measure(species)[bb]
    return lambda u: (u[..., bb] * rowsum - u[..., ii] @ w_bi.T) / mu_b


def laplacian_apply(
    graph: WeightedGraph,
    species: int,
    field,
    mode: DomainMode = DomainMode.WHOLE_GRAPH,
    partition: DomainPartition | None = None,
) -> np.ndarray:
    """Apply the whole-graph or subgraph Laplacian to a field.

    Whole-graph mode returns one value per vertex; subgraph mode returns
    values at the interior vertices (in graph order) and reads the field
    on the closure only.
    """
    if mode is DomainMode.WHOLE_GRAPH:
        u = field_array(graph, field, required_idx=np.arange(graph.n))
        return _closure_laplacian(graph, species)(u)
    if partition is None:
        raise InputError("subgraph mode needs a partition")
    u = field_array(graph, field, required_idx=partition.closure_idx)
    return _closure_laplacian(graph, species, partition)(u)


def normal_derivative(
    graph: WeightedGraph,
    species: int,
    partition: DomainPartition,
    field,
    at: Vertex,
) -> float:
    """Outward normal derivative at a boundary vertex.

    Computes sum over interior neighbours y of (u(x) - u(y)) w_xy / mu(x).
    """
    x = graph.index(at)
    boundary = partition.boundary_idx.tolist()
    if x not in boundary:
        raise NotBoundaryVertex(f"{at!r} is not a boundary vertex of the partition")
    needed = np.concatenate([partition.interior_idx, [x]])
    u = field_array(graph, field, required_idx=needed)
    return float(_boundary_normal(graph, species, partition)(u)[boundary.index(x)])
