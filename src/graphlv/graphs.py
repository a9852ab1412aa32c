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
    IsolatedBoundaryVertex,
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
        object.__setattr__(self, "_edges", None)    # build_graph records them

    def _edge_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """The (row, col) positions of the edges, both directions: as ``build_graph``
        recorded them, or, for a graph made any other way, from one scan of w1."""
        if self._edges is None:
            object.__setattr__(self, "_edges", np.nonzero(self.w1))
        return self._edges

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


def _positive(value, what: str) -> float:
    """``value`` as a float, which must be positive and finite."""
    value = _as_float(value, what)
    if not (np.isfinite(value) and value > 0.0):
        raise InputError(f"{what} must be positive and finite, got {value}")
    return value


def _as_floats(values, what: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{what} must be numbers, got {values!r}") from None


def _weight_matrix(vertices, index, table, label: str):
    """The dense weight matrix of ``table`` and the (row, col) positions it fills."""
    n = len(vertices)
    w = np.zeros((n, n))
    try:
        if isinstance(table, Mapping):
            items = [(a, b, val) for (a, b), val in table.items()]
        else:
            items = [(a, b, val) for a, b, val in table]
    except (TypeError, ValueError):
        raise InputError(f"{label}: edges must be (a, b, weight) triples") from None
    src, dst = [], []
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
        if w[i, j] == 0.0:        # a repeated edge is recorded once
            src += (i, j)
            dst += (j, i)
        w[i, j] = w[j, i] = val
    return w, (np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp))


def _measure_vector(vertices, index, measure, weights: np.ndarray, label: str) -> np.ndarray:
    if measure is None:
        mu = weights.sum(axis=1)
    elif isinstance(measure, Mapping):
        missing = [v for v in vertices if v not in measure]
        if missing:
            raise MissingVertexValue(f"{label}: no measure for {missing}")
        mu = np.array([_as_float(measure[v], f"{label}: measure of {v!r}") for v in vertices])
    else:
        mu = _as_floats(measure, f"{label}: measure values")
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
    w1, edges = _weight_matrix(vertices, index, weights1, "weights1")
    w2 = w1.copy()
    if weights2 is not None:
        w2 = _weight_matrix(vertices, index, weights2, "weights2")[0]
        if not np.array_equal(w1 > 0, w2 > 0):
            raise MismatchedTopology("weights1 and weights2 induce different edge sets")
    mu1 = _measure_vector(vertices, index, measure1, w1, "measure1")
    mu2 = _measure_vector(vertices, index, measure2, w2, "measure2")
    _require_connected(vertices, w1 > 0)
    graph = WeightedGraph(vertices, w1, w2, mu1, mu2)
    object.__setattr__(graph, "_edges", edges)
    return graph


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
            out[graph.index(name)] = _as_float(val, f"field value at {name!r}")
    elif np.isscalar(data):
        out = np.full(graph.n, _as_float(data, "field value"))
    else:
        out = _as_floats(data, "field values")
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


# Operator storage. One CSR matvec costs about 4 us at any size below 400 vertices, while a
# dense one is cheaper up to about 144 active vertices and grows as n_act**2 beyond; with more
# than one nonzero in eight entries, dense wins at any size (1 BLAS thread, lattices, paths
# and random graphs). CSR at every size would slow the set-up of tiny problems about tenfold.
_CSR_MIN_ENTRIES = 144 * 144
_CSR_MAX_FILL = 1 / 8


def _stores_csr(graph: WeightedGraph, partition: DomainPartition | None) -> bool:
    """Whether operators on the active rows (the interior, or all) are stored as CSR: when
    their block has at least _CSR_MIN_ENTRIES entries, at most _CSR_MAX_FILL of them nonzero."""
    n_act = graph.n if partition is None else partition.interior_idx.size
    if n_act * n_act < _CSR_MIN_ENTRIES:
        return False
    src, dst = graph._edge_positions()
    active = np.zeros(graph.n, dtype=bool)
    active[slice(None) if partition is None else partition.interior_idx] = True
    nnz = n_act + np.count_nonzero(active[src] & active[dst])
    return nnz <= _CSR_MAX_FILL * n_act * n_act


def _weight_block(graph: WeightedGraph, species: int, rows, cols, csr: bool):
    """w[np.ix_(rows, cols)] of one species, dense or as CSR built from the recorded edges
    with no dense block in between; rows = cols = None is the whole matrix."""
    w = graph.weights(species)
    if not csr:
        return w if rows is None else w[np.ix_(rows, cols)]
    import scipy.sparse as sp    # imported late: dense-stored runs never pay its memory

    if rows is None:
        rows = cols = np.arange(graph.n)
    src, dst = graph._edge_positions()
    at_row, at_col = np.full(graph.n, -1), np.full(graph.n, -1)
    at_row[rows], at_col[cols] = np.arange(rows.size), np.arange(cols.size)
    keep = (at_row[src] >= 0) & (at_col[dst] >= 0)
    src, dst = src[keep], dst[keep]
    return sp.csr_array((w[src, dst], (at_row[src], at_col[dst])), shape=(rows.size, cols.size))


def _divide_rows(mat, scale: np.ndarray):
    """mat / scale[:, None] for a dense or CSR matrix, dividing (not multiplying) the entries."""
    if isinstance(mat, np.ndarray):
        return mat / scale[:, None]
    mat.data /= np.repeat(scale, np.diff(mat.indptr))
    return mat


def _blocks(graph: WeightedGraph, species: int, partition: DomainPartition | None = None,
            csr: bool | None = None):
    """(L_II, L_IB) as in ``dirichlet_blocks``, or (``whole_laplacian``, None) with no
    partition; CSR or dense as ``csr`` says, or as the storage rule picks when it is None."""
    if csr is None:
        csr = _stores_csr(graph, partition)
    rows, cols = (None, None) if partition is None else (partition.interior_idx,
                                                         partition.closure_idx)
    w = _weight_block(graph, species, rows, cols, csr)
    mu = graph.measure(species) if rows is None else graph.measure(species)[rows]
    diagonal = -w.sum(axis=1) / mu    # minus the closure degree over the measure
    lap = _divide_rows(w, mu)
    if csr:
        import scipy.sparse as sp
        k = diagonal.size
        lap = lap + sp.csr_array((diagonal, np.arange(k), np.arange(k + 1)), shape=lap.shape)
    else:
        np.fill_diagonal(lap, diagonal)
    if partition is None:
        return lap, None
    return lap[:, :rows.size], lap[:, rows.size:]


def whole_laplacian(graph: WeightedGraph, species: int) -> np.ndarray:
    """Dense matrix L with (L u)(x) = sum_y (u(y) - u(x)) w_yx / mu(x)."""
    return _blocks(graph, species, csr=False)[0]


def dirichlet_blocks(
    graph: WeightedGraph, species: int, partition: DomainPartition
) -> tuple[np.ndarray, np.ndarray]:
    """Interior rows of the subgraph Laplacian, split by column support.

    Returns dense (L_II, L_IB) so that the subgraph Laplacian of a field
    u at the interior is L_II @ u[interior] + L_IB @ u[boundary]; sums
    range over the closure only.
    """
    return _blocks(graph, species, partition, csr=False)


def _closure_laplacian(graph: WeightedGraph, species: int,
                       partition: DomainPartition | None = None):
    """The Laplacian at the active rows, as a map on full-order fields.

    The returned function takes fields of shape (n,) or (T, n) in graph
    vertex order. With no partition it is the whole-graph operator at
    every vertex; with one it gives the subgraph operator at the interior
    vertices, reading the field on the closure only.
    """
    l_ii, l_ib = _blocks(graph, species, partition)
    if partition is None:
        return lambda u: u @ l_ii.T
    ii, bb = partition.interior_idx, partition.boundary_idx
    return lambda u: u[..., ii] @ l_ii.T + u[..., bb] @ l_ib.T


def _boundary_normal(graph: WeightedGraph, species: int, partition: DomainPartition):
    """The outward normal derivative at every boundary vertex, as a map.

    The returned function takes fields of shape (n,) or (T, n) in graph
    vertex order and gives sum over interior y of (u(x) - u(y)) w_xy /
    mu(x) at each boundary vertex x, in partition order.
    """
    ii, bb = partition.interior_idx, partition.boundary_idx
    w_bi = _weight_block(graph, species, bb, ii, _stores_csr(graph, partition))
    rowsum = w_bi.sum(axis=1)
    mu_b = graph.measure(species)[bb]
    return lambda u: (u[..., bb] * rowsum - u[..., ii] @ w_bi.T) / mu_b


def _projection_matrix(graph: WeightedGraph, species: int, partition: DomainPartition):
    """Boundary-to-interior weights scaled to unit row sums: the reflecting condition's
    boundary values as a map of the interior ones."""
    w_bi = _weight_block(graph, species, partition.boundary_idx, partition.interior_idx,
                         _stores_csr(graph, partition))
    sums = w_bi.sum(axis=1)
    dead = np.flatnonzero(sums == 0.0)
    if dead.size:
        names = [partition.boundary[i] for i in dead]
        raise IsolatedBoundaryVertex(f"boundary vertices with no interior neighbour: {names}")
    return _divide_rows(w_bi, sums)


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
