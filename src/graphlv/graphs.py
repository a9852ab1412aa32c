"""Finite weighted graphs, vertex-subset partitions, and discrete Laplacians.

A graph is stored as its edge list, one weight vector and one vertex
measure per species over a single shared edge set; no n x n matrix is
kept. All vector quantities downstream are indexed by the vertex
insertion order fixed here, so this module is the coordinate system
for the whole package.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections.abc import Hashable, Iterable, Mapping, Sized
from dataclasses import dataclass
from functools import cached_property

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
    """Vertex-ordered graph stored as its edge list, with per-species weights and measures.

    Edge k runs from vertex ``src[k]`` to vertex ``dst[k]`` (positions in ``vertices``);
    each undirected edge is listed once in each direction, in order of first appearance.
    ``w1[k]`` and ``w2[k]`` are its positive weights for the two species. Measures are
    strictly positive, one per vertex. ``build_graph`` makes the arrays read-only, and gives
    species 2 species 1's arrays where their weights and measures are equal. Identical
    species are told by identity (``w2 is w1`` and ``mu2 is mu1``), so a graph made directly
    should pass the same array objects for them: equal but distinct arrays give the same
    results, with every species-2 operator built and solved a second time.
    """

    vertices: tuple[Vertex, ...]
    src: np.ndarray
    dst: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    mu1: np.ndarray
    mu2: np.ndarray

    @cached_property
    def _index(self) -> dict[Vertex, int]:
        """Position of each vertex name; ``build_graph`` hands over the one it built."""
        return {v: i for i, v in enumerate(self.vertices)}

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, name: Vertex) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):
            raise InputError(f"unknown vertex {name!r}") from None

    def weights(self, species: int) -> np.ndarray:
        return self.w1 if _check_species(species) == 1 else self.w2

    def measure(self, species: int) -> np.ndarray:
        return self.mu1 if _check_species(species) == 1 else self.mu2


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


def _same_species(graph: WeightedGraph) -> bool:
    """Whether both species have one weight structure, which ``build_graph`` stores as one
    set of arrays: the same weights and the same measures."""
    return graph.w2 is graph.w1 and graph.mu2 is graph.mu1


def _as_float(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{what} must be a number, got {value!r}") from None


def _positive(value, what: str) -> float:
    """``value`` as a float, which must be positive and finite."""
    value = _as_float(value, what)
    if not (np.isfinite(value) and value > 0.0):
        raise InputError(f"{what} must be positive and finite, got {value}")
    return value


def _nonnegative(value, what: str) -> float:
    """``value`` as a float, which must be finite and at least 0."""
    value = _as_float(value, what)
    if not (np.isfinite(value) and value >= 0.0):
        raise InputError(f"{what} must be finite and at least 0, got {value}")
    return value


def _positive_int(value, what: str) -> int:
    """``value``, which must be a positive integer (not a bool or a float)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise InputError(f"{what} must be a positive integer, got {value!r}")
    return value


def _as_floats(values, what: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{what} must be numbers, got {values!r}") from None


def _weight_table(index, table, label: str) -> dict[tuple[int, int], float]:
    """``table`` validated as ``{(i, j): w}`` over vertex positions, each edge under both
    orders, in order of first appearance."""
    try:
        if isinstance(table, Mapping):
            items = [(a, b, val) for (a, b), val in table.items()]
        else:
            items = [(a, b, val) for a, b, val in table]
    except (TypeError, ValueError):
        raise InputError(f"{label}: edges must be (a, b, weight) triples") from None
    out = {}
    for a, b, val in items:
        if a == b:
            raise SelfLoop(f"{label}: self-loop at {a!r}")
        try:
            i, j = index[a], index[b]
        except (KeyError, TypeError):    # an unhashable name is no vertex either
            raise InputError(f"{label}: edge ({a!r}, {b!r}) uses an unknown vertex") from None
        try:
            val = float(val)
        except (TypeError, ValueError, OverflowError):
            raise InputError(f"{label}: edge ({a!r}, {b!r}) weight must be a number, "
                             f"got {val!r}") from None
        if not 0.0 < val < math.inf:    # NaN fails too
            raise InputError(f"{label}: edge ({a!r}, {b!r}) needs a positive finite weight, got {val}")
        if out.setdefault((i, j), val) != val:
            raise AsymmetricWeight(f"{label}: edge ({a!r}, {b!r}) given twice with different weights")
        out[j, i] = val    # a repeated edge keeps its first place
    return out


# Edge tables and initial-data maps of at least this many entries are read in one array
# pass: numpy over whole columns, with no Python call per entry. Below it the edge pass's
# fixed cost of about 35 numpy calls is more than the loop's 1.2 us per entry: edge tables
# cross over between 96 and 128 entries (JSON-read names, in-process, 2 cores). Vertex maps,
# whose pass is two calls, cross at about 10 entries and lose at most 30 us below this.
_ARRAY_MIN_ENTRIES = 128


def _table_columns(table):
    """The columns (a, b, w) of a sized table of ``(a, b, w)`` rows, sliced from one flat
    list; None unless every row is a triple."""
    try:
        if set(map(len, table)) != {3}:
            return None
        flat = list(itertools.chain.from_iterable(table))
    except TypeError:
        return None
    if len(flat) != 3 * len(table):    # a row whose length is not its count
        return None
    return flat[0::3], flat[1::3], flat[2::3]


def _array_pass(index, m: int, a, b, w):
    """(src, dst, w) of the m edges (a[k], b[k]) with weights w[k] as ``_weight_table`` reads
    them, by numpy over whole columns; or None where the pass does not take them, and the
    loop reads the table and names its first bad entry. The pass takes known ends, no
    self-loop, positive finite weights, and one weight on every repeated pair."""
    try:
        ends = np.fromiter(map(index.__getitem__, itertools.chain(a, b)), np.intp, 2 * m)
        w = np.fromiter(map(float, w), float, m)
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    i, j = ends[:m], ends[m:]
    if not np.all((i != j) & (0.0 < w) & (w < math.inf)):
        return None
    pair = np.minimum(i, j) * len(index) + np.maximum(i, j)
    order = np.argsort(pair, kind="stable")
    pair, w_sorted = pair[order], w[order]
    again = pair[1:] == pair[:-1]    # a pair listed before, in either orientation
    if np.any(again & (w_sorted[1:] != w_sorted[:-1])):
        return None
    first = np.sort(order[np.concatenate(([True], ~again))])
    ends = np.stack((i[first], j[first]))
    # each edge in both orders, the first as it first appears
    return ends.T.ravel(), ends[::-1].T.ravel(), np.repeat(w[first], 2)


def _edge_arrays(index, table, label: str):
    """(src, dst, w) of one weight table: each edge under both orders, in order of first
    appearance. A table of at least _ARRAY_MIN_ENTRIES rows goes through the array pass;
    any other table (a mapping, a smaller or unsized one, or one the pass does not take)
    through ``_weight_table``."""
    if (isinstance(table, Sized) and not isinstance(table, Mapping)
            and len(table) >= _ARRAY_MIN_ENTRIES):
        columns = _table_columns(table)
        read = None if columns is None else _array_pass(index, len(table), *columns)
        if read is not None:
            return read
    table = _weight_table(index, table, label)
    ends = np.fromiter(itertools.chain.from_iterable(table), np.intp, 2 * len(table))
    return ends[0::2].copy(), ends[1::2].copy(), np.fromiter(table.values(), float, len(table))


def _matched(n: int, src, dst, src2, dst2, w2) -> np.ndarray:
    """The weights w2 of the edges (src2, dst2) in the order of the edges (src, dst), which
    must be the same edge set."""
    key, key2 = src * n + dst, src2 * n + dst2
    at, at2 = np.argsort(key), np.argsort(key2)
    if not np.array_equal(key[at], key2[at2]):
        raise MismatchedTopology("weights1 and weights2 induce different edge sets")
    out = np.empty_like(w2)
    out[at] = w2[at2]
    return out


def _measure_vector(vertices, measure, degree: np.ndarray, label: str) -> np.ndarray:
    """``measure`` as one positive value per vertex; None is the weighted ``degree``."""
    if measure is None:
        mu = degree
    elif isinstance(measure, Mapping):
        missing = [v for v in vertices if v not in measure]
        if missing:
            raise MissingVertexValue(f"{label}: no measure for {missing}")
        mu = np.array([_as_float(measure[v], f"{label}: measure of {v!r}") for v in vertices])
    else:
        mu = _as_floats(measure, f"{label}: measure values").copy()    # made read-only
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
    None defaults to the weighted vertex degree of that species. The
    graph's arrays are read-only, and species with the same weights and
    measures share them.
    """
    vertices = tuple(vertices)
    n = len(vertices)
    if n == 0:
        raise InputError("graph needs at least one vertex")
    try:
        index = dict(zip(vertices, range(n)))
    except TypeError:
        bad = [v for v in vertices if not isinstance(v, Hashable)]
        raise InputError(f"vertex names must be hashable, got {bad}") from None
    if len(index) != n:
        raise InputError("duplicate vertex names")
    src, dst, w1 = _edge_arrays(index, weights1, "weights1")
    w2 = w1
    if weights2 is not None:
        w2 = _matched(n, src, dst, *_edge_arrays(index, weights2, "weights2"))
        if np.array_equal(w1, w2):
            w2 = w1
    mu1 = _measure_vector(vertices, measure1, np.bincount(src, w1, n), "measure1")
    if w2 is w1 and measure1 is None and measure2 is None:
        mu2 = mu1
    else:
        mu2 = _measure_vector(vertices, measure2, np.bincount(src, w2, n), "measure2")
        if w2 is w1 and np.array_equal(mu1, mu2):
            mu2 = mu1
    _require_connected(vertices, src, dst)
    for array in (src, dst, w1, w2, mu1, mu2):
        array.flags.writeable = False
    graph = WeightedGraph(vertices, src, dst, w1, w2, mu1, mu2)
    graph.__dict__["_index"] = index    # fills the cached property
    return graph


def _require_connected(vertices, src: np.ndarray, dst: np.ndarray) -> None:
    """Raise NotConnected unless the edges src[k] -> dst[k] reach every vertex from the first.

    The edges come in both orders. Labels form a forest in which every vertex points at
    one of no larger index: each round hooks every root to the smallest root across its
    edges (O(|E|)), then jumps pointers until every vertex points at its root (O(n) per
    jump, log of the depth jumps). Once no edge joins two trees the roots are the
    components, and vertex 0 roots its own, so the vertices it reaches are label 0.
    """
    label = np.arange(len(vertices))
    while True:
        np.minimum.at(label, label[src], label[dst])
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        if np.array_equal(label[src], label[dst]):
            break
    if label.any():
        missing = [vertices[i] for i in np.flatnonzero(label)]
        raise NotConnected(f"graph is not connected; unreachable from {vertices[0]!r}: {missing}")


def boundary_of(graph: WeightedGraph, interior: Iterable[Vertex]) -> DomainPartition:
    """Partition the graph into ``interior`` and its vertex boundary.

    The boundary is every vertex outside the interior adjacent to it.
    Interior must be a nonempty strict subset of the vertex set that
    induces a connected subgraph.
    """
    interior = tuple(interior)
    try:
        wanted = set(interior)
    except TypeError:    # an unhashable name is no vertex
        bad = [v for v in interior if not isinstance(v, Hashable)]
        raise InteriorNotSubset(f"interior contains unknown vertices: {bad}") from None
    at = np.fromiter(map(graph._index.get, wanted, itertools.repeat(-1)), np.intp, len(wanted))
    if np.any(at < 0):
        unknown = wanted.difference(graph._index)
        try:
            unknown = sorted(unknown)
        except TypeError:    # names of several types
            unknown = sorted(unknown, key=repr)
        raise InteriorNotSubset(f"interior contains unknown vertices: {unknown}")
    if not wanted:
        raise InteriorNotSubset("interior is empty")
    if len(wanted) == graph.n:
        raise InteriorNotSubset("interior must be a strict subset of the vertex set")
    inside = np.zeros(graph.n, dtype=bool)
    inside[at] = True
    interior_idx = np.flatnonzero(inside)
    names = tuple(map(graph.vertices.__getitem__, interior_idx.tolist()))
    at = np.full(graph.n, -1)
    at[interior_idx] = np.arange(interior_idx.size)
    from_inside = at[graph.src] >= 0
    induced = from_inside & (at[graph.dst] >= 0)
    try:
        _require_connected(names, at[graph.src[induced]], at[graph.dst[induced]])
    except NotConnected as exc:
        raise NotConnected(f"interior does not induce a connected subgraph: {exc}") from None
    boundary_mask = np.zeros(graph.n, dtype=bool)
    boundary_mask[graph.dst[from_inside]] = True
    boundary_mask[interior_idx] = False
    boundary_idx = np.flatnonzero(boundary_mask)
    if boundary_idx.size == 0:
        raise EmptyBoundary("interior has no adjacent exterior vertex")
    return DomainPartition(
        interior=names,
        boundary=tuple(map(graph.vertices.__getitem__, boundary_idx.tolist())),
        interior_idx=interior_idx,
        boundary_idx=boundary_idx,
    )


def field_array(graph: WeightedGraph, data, required_idx=None) -> np.ndarray:
    """Coerce per-vertex data (array, mapping, or scalar) to a full vector.

    Entries absent from a mapping become NaN; if ``required_idx`` is
    given, NaN at any required position raises MissingVertexValue.
    """
    if isinstance(data, Mapping):
        out = _map_values(graph, data)
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


def _map_values(graph: WeightedGraph, data: Mapping) -> np.ndarray:
    """A map of vertex values as a full vector, NaN where it has none: one array pass at
    _ARRAY_MIN_ENTRIES entries or more, else (or where the pass fails) a loop that names the
    first bad entry."""
    out = np.full(graph.n, np.nan)
    if len(data) >= _ARRAY_MIN_ENTRIES:
        try:
            at = np.fromiter(map(graph._index.__getitem__, data), np.intp, len(data))
            out[at] = np.fromiter(map(float, data.values()), float, len(data))
            return out
        except (KeyError, TypeError, ValueError, OverflowError):
            pass
    for name, val in data.items():
        out[graph.index(name)] = _as_float(val, f"field value at {name!r}")
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
    active = np.zeros(graph.n, dtype=bool)
    active[slice(None) if partition is None else partition.interior_idx] = True
    nnz = n_act + np.count_nonzero(active[graph.src] & active[graph.dst])
    return nnz <= _CSR_MAX_FILL * n_act * n_act


def _weight_block(graph: WeightedGraph, species: int, rows, cols, csr: bool):
    """w[np.ix_(rows, cols)] of one species, gathered from the edge list and stored dense
    or as CSR; rows = cols = None is the whole matrix."""
    src, dst, w = graph.src, graph.dst, graph.weights(species)
    shape = (graph.n, graph.n) if rows is None else (rows.size, cols.size)
    if rows is not None:
        at_row, at_col = np.full(graph.n, -1), np.full(graph.n, -1)
        at_row[rows], at_col[cols] = np.arange(rows.size), np.arange(cols.size)
        keep = (at_row[src] >= 0) & (at_col[dst] >= 0)
        src, dst, w = at_row[src[keep]], at_col[dst[keep]], w[keep]
    if csr:
        import scipy.sparse as sp    # imported late: dense-stored runs never pay its memory
        return sp.csr_array((w, (src, dst)), shape=shape)
    out = np.zeros(shape)
    out[src, dst] = w
    return out


def _sparse_lu(mat):
    """The SuperLU factorization of a sparse square mat, under the one rule of every sparse
    factorization here: the operators are structurally symmetric and diagonally dominant,
    or symmetric positive definite, so a minimum-degree order on A^T + A with diagonal
    pivots preferred fills least."""
    from scipy.sparse.linalg import splu    # imported late: dense-stored runs never load it
    return splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})


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

    Whole-graph mode takes no partition and returns one value per vertex;
    subgraph mode needs one, returns values at the interior vertices (in
    graph order) and reads the field on the closure only.
    """
    if mode is DomainMode.WHOLE_GRAPH:
        if partition is not None:
            raise InputError("whole-graph mode takes no partition")
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
