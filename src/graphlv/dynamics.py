"""Time integration of the two-species competition system on a graph.

The evolving state is the pair (u, v) on the active vertex set: the
whole graph, or the interior of a partition when a boundary condition
is in force. Dirichlet pins the boundary at zero; the reflecting
(zero normal derivative) condition is enforced algebraically, boundary
values being the weighted average of interior neighbours, and that
substitution is baked into the reduced diffusion operator so every
integrator stage sees a consistent boundary.
"""

from __future__ import annotations

import enum
import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InputError,
    MissingVertexValue,
    NegativeInitial,
    StepSizeUnstable,
)
from .graphs import (
    DomainPartition,
    WeightedGraph,
    _as_floats,
    _blocks,
    _positive,
    _positive_int,
    _projection_matrix,
    _same_species,
    field_array,
)

_CLAMP = 1e-12
_RECT_SLACK = 1e-9
_MAX_STEPS = 10**7
_MAX_SECONDS = 300.0
_CLOCK_EVERY = 256        # steps between wall-clock reads
# Adaptive steps outgrow the stability cap as the state settles, so before each window an
# adaptive run counts the cap's steps over at most this many time units (huge initial data
# still fail there). It is also the ``reproduce`` window, which is so counted whole.
_COUNTED_SPAN = 10.0

# Dormand & Prince (1980) 5(4) pair as one tableau: row i < 7 holds stage i's coefficients
# on the stages before it; row 6, the fifth-order weights, is also the last stage's row, so
# that stage is the next step's first (FSAL); row 7 holds the fifth-minus-fourth-order
# weights of the error estimate.
_DP = np.array([
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0),
    (44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0),
    (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40),
])
# error-per-step controller (Hairer, Norsett & Wanner, Solving ODEs I, II.4)
_RTOL = 1e-8
_ATOL = 1e-10
_SAFETY = 0.9
_GROW_MIN = 0.2
_GROW_MAX = 10.0


@dataclass(frozen=True)
class CompetitionParams:
    """Growth, self-limitation, competition, and diffusion coefficients; fields
    may be 1-D float arrays of one length P, a batch of P parameter sets."""

    a1: float
    b1: float
    c1: float
    a2: float
    b2: float
    c2: float
    d1: float = 1.0
    d2: float = 1.0

    def __post_init__(self) -> None:
        lengths = set()
        for name in ("a1", "b1", "c1", "a2", "b2", "c2", "d1", "d2"):
            val = getattr(self, name)
            if isinstance(val, (int, float)) and math.isfinite(val) and val > 0:
                continue
            if not (isinstance(val, np.ndarray) and val.ndim == 1 and val.dtype.kind == "f"
                    and val.size and np.all(np.isfinite(val) & (val > 0))):
                raise InputError(f"parameter {name} must be positive and finite, got {val!r}")
            lengths.add(val.size)
        if len(lengths) > 1:
            raise InputError(f"array parameters must share one length, got {sorted(lengths)}")


class BoundaryCondition(enum.Enum):
    NO_BOUNDARY = "none"
    NEUMANN = "neumann"
    DIRICHLET = "dirichlet"


@dataclass(frozen=True, eq=False)
class Problem:
    """A competition system bound to a graph and boundary condition."""

    graph: WeightedGraph
    params: CompetitionParams
    bc: BoundaryCondition = BoundaryCondition.NO_BOUNDARY
    partition: DomainPartition | None = None

    def __post_init__(self) -> None:
        for name, kind in (("graph", WeightedGraph), ("params", CompetitionParams),
                           ("bc", BoundaryCondition)):
            if not isinstance(getattr(self, name), kind):
                raise InputError(f"{name} must be a {kind.__name__}, got "
                                 f"{getattr(self, name)!r}")
        if not (self.partition is None or isinstance(self.partition, DomainPartition)):
            raise InputError(f"partition must be a DomainPartition or None, got "
                             f"{self.partition!r}")
        if self.bc is BoundaryCondition.NO_BOUNDARY:
            if self.partition is not None:
                raise InputError("whole-graph problems take no partition")
        elif self.partition is None:
            raise InputError(f"{self.bc.value} boundary condition needs a partition")

    @property
    def active_idx(self) -> np.ndarray:
        if self.partition is None:
            return np.arange(self.graph.n)
        return self.partition.interior_idx

    @property
    def closure_idx(self) -> np.ndarray:
        if self.partition is None:
            return np.arange(self.graph.n)
        return self.partition.closure_idx


@dataclass(frozen=True, eq=False)
class FieldPair:
    """Per-vertex values for both species, in graph vertex order."""

    u: np.ndarray
    v: np.ndarray


@dataclass(eq=False)
class Trajectory:
    times: np.ndarray
    states: list[FieldPair]
    metadata: dict = field(default_factory=dict)

    @property
    def final(self) -> FieldPair:
        return self.states[-1]


def _kinetics(y, a, b, c):
    """Both species' reaction terms at once: ``y`` is (u, v) stacked on a leading axis of
    2 and ``a``, ``b``, ``c`` are (a1, a2), (b1, b2), (c1, c2) stacked likewise, so row 0
    is u (a1 - b1 u - c1 v) and row 1 is v (a2 - b2 u - c2 v)."""
    return y * (a - b * y[0] - c * y[1])


def _species_stack(p: CompetitionParams, ndim: int) -> np.ndarray:
    """The coefficient pairs (a1, a2), (b1, b2), (c1, c2) and (d1, d2) as one array of four
    rows, each a pair stacked on a leading axis of 2 and shaped to broadcast against a
    stacked state of ``ndim`` axes, a batch's parameters last: ``a, b, c, d = ...``."""
    pairs = (p.a1, p.a2, p.b1, p.b2, p.c1, p.c2, p.d1, p.d2)
    batch = np.broadcast(*pairs).shape
    stack = np.empty((len(pairs),) + batch)
    for i, x in enumerate(pairs):
        stack[i] = x
    return stack.reshape((4, 2) + (1,) * (ndim - 1 - len(batch)) + batch)


def reaction(params: CompetitionParams, u, v):
    """Logistic-competition reaction terms (f1, f2); u, v and a batch of parameters must
    broadcast together."""
    u, v = _as_floats(u, "u"), _as_floats(v, "v")
    batch = np.broadcast(*vars(params).values()).shape
    try:
        shape = np.broadcast_shapes(u.shape, v.shape)
        ndim = 1 + len(np.broadcast_shapes(shape, batch))
    except ValueError:
        raise InputError(f"u, v and the parameter batch must broadcast together, got shapes "
                         f"{u.shape}, {v.shape} and {batch}") from None
    y = np.empty((2,) + (1,) * (ndim - 1 - len(shape)) + shape)
    y[0], y[1] = u, v
    f = _kinetics(y, *_species_stack(params, ndim)[:3])
    return f[0], f[1]


def invariant_rectangle(params: CompetitionParams, u0, v0) -> tuple[float, float]:
    """Componentwise bounds [0, M_u] x [0, M_v] preserved by the flow, per parameter set.

    Initial data of shape (n, P), one column per state of a batch, give per-column bounds
    from the column maxima; 1-D data give one bound from their maximum.
    """
    u0, v0 = _as_floats(u0, "u0"), _as_floats(v0, "v0")
    if u0.size == 0 or v0.size == 0:
        raise InputError("an invariant rectangle needs at least one value of each species")
    m_u = np.maximum(params.a1 / params.b1, np.max(np.atleast_1d(u0), axis=0))
    m_v = np.maximum(np.max(np.atleast_1d(v0), axis=0), params.a2 / params.c2)
    return m_u, m_v


@dataclass(frozen=True, eq=False)
class _Operators:
    """Reduced diffusion matrices, dense or CSR, the largest closure degree over measure
    of each species at the active vertices, and the reflecting boundary's projections."""

    red1: np.ndarray
    red2: np.ndarray
    degrees: tuple[float, float]
    proj1: np.ndarray | None = None
    proj2: np.ndarray | None = None


def reduced_operators(problem: Problem) -> _Operators:
    """Diffusion restricted to the active set, boundary handling included.

    The matrices are stored as ``graphs._stores_csr`` picks: CSR on large sparse graphs.
    """
    graph, part = problem.graph, problem.partition
    same = _same_species(graph)    # then both species share every matrix
    l1, l1_ib = _blocks(graph, 1, part)
    l2, l2_ib = (l1, l1_ib) if same else _blocks(graph, 2, part)
    degrees = (float(-l1.diagonal().min()), float(-l2.diagonal().min()))
    if problem.bc is not BoundaryCondition.NEUMANN:
        return _Operators(red1=l1, red2=l2, degrees=degrees)
    p1 = _projection_matrix(graph, 1, part)
    red1 = l1 + l1_ib @ p1
    if same:
        p2, red2 = p1, red1
    else:
        p2 = _projection_matrix(graph, 2, part)
        red2 = l2 + l2_ib @ p2
    return _Operators(red1=red1, red2=red2, degrees=degrees, proj1=p1, proj2=p2)


def neumann_project(problem: Problem, state: FieldPair) -> FieldPair:
    """Replace boundary values by the interior weighted average per species; u and v are
    arrays of one shape, (n,) or (n, P), or InputError is raised."""
    if problem.bc is not BoundaryCondition.NEUMANN:
        raise InputError("projection only applies to the reflecting boundary condition")
    u, v = np.asarray(state.u, dtype=float), np.asarray(state.v, dtype=float)
    if u.shape != v.shape or u.shape[:1] != (problem.graph.n,):
        raise InputError(f"a state needs one value per vertex and species, got shapes {u.shape} "
                         f"and {v.shape} on {problem.graph.n} vertices")
    full = np.stack([u, v])
    return _materialize(problem, full[:, problem.active_idx], base=full)


def _diffusion_rate(problem: Problem, ops: _Operators | None = None):
    """Largest d * (closure degree / measure) over the active vertices and both species."""
    deg1, deg2 = (reduced_operators(problem) if ops is None else ops).degrees
    return np.maximum(problem.params.d1 * deg1, problem.params.d2 * deg2)


def _step_cap(p: CompetitionParams, diff, m_u, m_v) -> float:
    with np.errstate(over="ignore"):     # huge data: lf = inf, step 0, rejected by integrate
        lf = p.a1 + 2 * p.b1 * m_u + p.c1 * m_v + p.a2 + p.b2 * m_u + 2 * p.c2 * m_v
    return float(np.min(0.5 / (diff + lf)))


def stable_dt(problem: Problem, m_u, m_v) -> float:
    """Step cap: 0.5 over (diffusion rate + reaction Lipschitz bound), smallest over a batch.
    The rectangle bounds m_u and m_v must be finite numbers of at least 0."""
    bounds = [_as_floats(m, what) for m, what in ((m_u, "m_u"), (m_v, "m_v"))]
    if not all(m.size and np.all(np.isfinite(m) & (m >= 0.0)) for m in bounds):
        raise InputError(f"m_u and m_v must be finite and at least 0, got {m_u!r} and {m_v!r}")
    return _step_cap(problem.params, _diffusion_rate(problem), *bounds)


def _pair_arrays(pair) -> tuple[np.ndarray, np.ndarray]:
    """Float arrays (u, v) from a FieldPair or a (u, v) tuple, with no graph."""
    u, v = (pair.u, pair.v) if isinstance(pair, FieldPair) else pair
    return np.atleast_1d(_as_floats(u, "u")), np.atleast_1d(_as_floats(v, "v"))


def _state_extrema(state) -> tuple[float, float, float, float]:
    """(min u, max u, min v, max v) of a graph-free state, NaN meaning no value."""
    u, v = (x[~np.isnan(x)] for x in _pair_arrays(state))
    if u.size == 0 or v.size == 0:
        raise InputError("a state needs at least one value per species")
    return float(u.min()), float(u.max()), float(v.min()), float(v.max())


def _coerce_initial(problem: Problem, initial) -> np.ndarray:
    """Full-order initial (u, v) as one (2, n[, P]) array, which unpacks as ``u, v``, from
    a FieldPair or a (u, v) pair, zero off the closure.

    Each side is a scalar, which is that constant on the active vertices (so zero on a
    Dirichlet boundary), anything else ``field_array`` accepts, or an (n, P) array with one
    column per state of a batch, P >= 1. Every column must give each active vertex a value, be
    finite and nonnegative on the closure and vanish on a Dirichlet boundary; other values
    are ignored.
    """
    if not isinstance(problem, Problem):
        raise InputError(f"initial data belong to a Problem, got {problem!r}")
    try:
        u, v = (initial.u, initial.v) if isinstance(initial, FieldPair) else initial
    except (TypeError, ValueError):
        raise InputError("initial data must be a FieldPair or a (u, v) pair") from None
    graph, act, closure = problem.graph, problem.active_idx, problem.closure_idx
    inactive = np.ones(graph.n, dtype=bool)
    inactive[act] = False

    def read(x):
        if isinstance(x, np.ndarray) and x.ndim == 2:
            if not x.shape[1]:
                raise InputError(f"(n, P) initial data need a column, got shape {x.shape}")
            return np.stack([field_array(graph, col) for col in x.T], axis=1)
        full = field_array(graph, x)
        if np.isscalar(x):    # no value off the active vertices, so zero on the closure
            full[inactive] = np.nan
        return full

    u, v = read(u), read(v)
    if u.shape != v.shape:
        raise InputError(f"u and v initial data differ in shape: {u.shape} and {v.shape}")
    given = np.stack([u, v])
    missing = act[np.isnan(given[:, act]).reshape(2, act.size, -1).any(axis=(0, 2))]
    if missing.size:
        raise MissingVertexValue("initial data are missing active vertices: no value at "
                                 f"{[graph.vertices[i] for i in missing]}")
    full = np.zeros(given.shape)
    full[:, closure] = np.where(np.isnan(given[:, closure]), 0.0, given[:, closure])
    if np.isinf(full).any():
        raise InputError("initial data must be finite on the closure")
    if (problem.bc is BoundaryCondition.DIRICHLET
            and np.any(full[:, problem.partition.boundary_idx] != 0.0)):
        raise InputError("Dirichlet initial data must vanish on the boundary")
    if np.any(full < 0.0):
        raise NegativeInitial("initial data must be nonnegative")
    return full


def _schedule_options(max_samples, forced) -> tuple[int, np.ndarray]:
    """``max_samples``, a positive integer, and the forced times as a 1-D float array of
    finite values; times outside (0, t_end] are allowed and land nowhere."""
    forced = _as_floats(forced, "forced_times")
    if forced.ndim != 1 or not np.isfinite(forced).all():
        raise InputError(f"forced_times must be a sequence of finite times, got {forced!r}")
    return _positive_int(max_samples, "max_samples"), forced


def sample_times(t_end: float, dt: float, max_samples: int = 250, forced=()) -> np.ndarray:
    """Geometric schedule, dense early; forced times in (0, t_end] and t_end always land."""
    t_end, dt = _positive(t_end, "t_end"), _positive(dt, "dt")
    max_samples, forced = _schedule_options(max_samples, forced)
    pts = {0.0, float(t_end)}
    pts.update(forced[(forced > 0.0) & (forced <= t_end)].tolist())
    t = 10.0 * dt
    while t < t_end and len(pts) < max_samples:
        pts.add(float(t))
        t *= 1.3
    return np.array(sorted(pts))


def _materialize(problem: Problem, y, ops: _Operators | None = None, base=None) -> FieldPair:
    """The one map from the active set back to vertex order: the pair ``y``, (2, n_act, ...),
    written over ``base`` (a full-order (2, n, ...) pair, zeros when None) on the active
    vertices, with a reflecting boundary set to each species' projection of the interior
    (``ops``' projections, built here when ``ops`` is None)."""
    full = np.zeros((2, problem.graph.n) + y.shape[2:]) if base is None else base
    full[:, problem.active_idx] = y
    if problem.bc is BoundaryCondition.NEUMANN:
        graph, part = problem.graph, problem.partition
        projs = ((_projection_matrix(graph, 1, part), _projection_matrix(graph, 2, part))
                 if ops is None else (ops.proj1, ops.proj2))
        for k, proj in enumerate(projs):
            full[k, part.boundary_idx] = proj @ y[k]
    return FieldPair(u=full[0], v=full[1])


def integrate(
    problem: Problem,
    initial,
    t_end: float,
    dt: float | None = None,
    max_samples: int = 250,
    forced_times=(),
) -> Trajectory:
    """Run up to t_end: adaptive Dormand-Prince 5(4) steps, or fixed-step RK4 given dt.

    The adaptive steps keep an error estimate within rtol 1e-8 and atol
    1e-10 of the state. Steps that push the state out of the invariant
    rectangle (or below -1e-12) are rejected and retried at half the
    step; under fixed steps the halved step holds for the rest of the
    run. Roundoff undershoots in (-1e-12, 0) are clamped to zero and
    counted in the metadata. A run that takes more than 10**7 steps, or
    that runs longer than 300 s, raises StepSizeUnstable; so does, up
    front, a fixed-step run that would need more than 10**7 steps, or an
    adaptive one whose stability cap needs more than 10**7 steps for its
    first 10 time units (huge initial data). Batched params, initial
    data of shape (n, P) with one column per initial state, or both,
    give each state a trailing axis of length P; the batch shares one
    step and sample schedule, and the invariant rectangle is taken per
    column. Each DP5 stage input, the new state and the error
    estimate are one product of a tableau row with the stored stages, so
    adaptive states differ from a term-by-term stage sum at roundoff;
    fixed RK4 states are bit-identical to it. Both species are evaluated
    at once (``_windows`` says how), with the same operations in the same
    order per entry as one species at a time. At most ``max_samples``
    times are sampled, plus the ``forced_times`` in (0, t_end], which
    always land (those outside it are ignored); max_samples must be a
    positive integer and forced_times a sequence of finite times, or
    InputError is raised before any step. A state with neither (n, P)
    data nor batched params runs as one column, whose axis is dropped.
    """
    full = _coerce_initial(problem, initial)
    (traj,) = next(_windows((problem,), (full,), t_end, t_end, dt, max_samples,
                            forced_times))[1]
    if full.ndim == 2 and not np.broadcast(*vars(problem.params).values()).shape:
        traj.states = [FieldPair(u=state.u[:, 0], v=state.v[:, 0]) for state in traj.states]
        traj.metadata.update(m_u=traj.metadata["m_u"][0], m_v=traj.metadata["m_v"][0])
    return traj


def _diffusion(ops: _Operators, width: int):
    """``bind(state, out)``: the call that writes ``red @ state`` per species of one
    block's columns, (2, n_act, width) views, into ``out``, its operands sliced once at
    binding. One stacked product when the species share a dense operator, else one per
    species, for CSR on each species' column vector when the block is one column wide
    (scipy would reshape an (n, 1) operand to it on every product)."""
    red1, red2 = ops.red1, ops.red2
    if isinstance(red1, np.ndarray) and red1 is red2:
        return lambda state, out: functools.partial(np.matmul, red1, state, out)
    vector = width == 1 and not isinstance(red1, np.ndarray)

    def bind(state, out):
        (s1, s2), (o1, o2) = (state[..., 0], out[..., 0]) if vector else (state, out)

        def diffuse():
            o1[...] = red1 @ s1
            o2[...] = red2 @ s2
        return diffuse
    return bind


@dataclass(eq=False)
class _Block:
    """One problem's columns of a ``_windows`` batch: its operators and ``_diffusion``
    binder, its params and diffusion rate restricted to its live columns, and ``cols``,
    its slice of the state's last axis."""

    problem: Problem
    ops: _Operators
    diffuse: object
    params: CompetitionParams
    rate: object
    cols: slice


def _windows(problems, initials, window: float, t_max: float, dt: float | None = None,
             max_samples: int = 250, forced_times=(), settled=None):
    """Yield (t_done, Trajectories) per window of min(window, t_max - t_done), each
    restarted from the last final state like a fresh integrate call: adaptive DP5(4) steps
    from the stability cap (the smallest over the blocks), or fixed RK4 steps given dt.
    The step and wall-time budgets and the operators span all windows.

    ``problems`` is a tuple of Problems and ``initials`` the tuple of their initial data as
    ``_coerce_initial`` returns them. They step as one batch whose columns come in blocks,
    one per problem, in order: (2, n, P) data give P columns, and (2, n) data one per
    parameter set of a batch, else one. Each block keeps its own graph, boundary
    condition, operators, projections, rectangle and stability rate, and its diffusion
    writes only its columns; the kinetics, the stage sums, the error norm, the rectangle
    test and the step are shared. The blocks must share the active size, or InputError is
    raised. Each window yields a tuple of Trajectories, one per block with its own
    ``m_u``, ``m_v`` and ``bc`` and the batch's counts, every state with its column axis.

    Given ``settled``, a callable from the tuple of a window's final FieldPairs to one
    boolean mask over the columns in block order, each window that is not the last ends
    with that call: the settled columns leave the state, the params and the rectangle, so
    later windows neither step nor yield them (a block with none left yields zero
    columns), and the run stops once every column has settled.

    The state y is the (u, v) pair on the active set, one (2, n_act, columns) array, and
    the right-hand side evaluates both species together: ``_kinetics`` on y with the
    coefficients as contiguous arrays of y's shape, plus d times each block's diffusion,
    written straight into its slope.

    Each window owns its work arrays, and builds them again after a column drop: the four
    coefficient arrays, of y's shape; the slopes of the seven stages, rows of one
    (7, 2, n_act, columns) array written in place by the right-hand side; the tableau times
    h, one (8, 7) array filled per attempt; a stage input, a tableau product, a scratch
    array and two state buffers, y and the next state, swapped on acceptance; and each
    block's diffusion bound to its columns of every (state, slope) pair the steps use, so
    nothing is sliced per attempt. The coefficients cost four states per window beside the
    stages' seven: under 0.1 MiB on graphs of a few thousand vertices and 0.6 MiB for one
    state on 10**4 vertices, but 74 MiB for a batch of 121 columns there.

    A DP5 stage input is the product of its tableau row with the earlier stages flattened,
    plus y, each written into its array; the fifth-order row gives the new state, in the
    spare buffer since y and |y| are kept, and the error row the estimate, scaled in the
    scratch array and reduced to one RMS norm per column, the largest of which is kept.
    The rectangle test is one maximum over the vertices against the caps stacked per
    species. |y| of an accepted step is reused by the next error estimate, and on
    acceptance the last stage is copied to the first (FSAL). RK4 forms its stage inputs
    term by term. Every state and count is bit-identical to a stepper that allocates these
    arrays per attempt.
    """
    t_max = _positive(t_max, "t_end")
    max_samples, forced_times = _schedule_options(max_samples, forced_times)
    if not (isinstance(problems, tuple) and isinstance(initials, tuple)
            and 0 < len(problems) == len(initials)):
        raise InputError(f"blocks need a tuple of Problems and a tuple of one initial state "
                         f"each, got {type(problems).__name__} and {type(initials).__name__}")
    if dt is not None:
        dt = _positive(dt, "dt")
    blocks, ys = [], []
    for prob, full in zip(problems, initials):
        part = full[:, prob.active_idx]
        batch = np.broadcast(*vars(prob.params).values()).shape
        if part.ndim == 2:
            part = np.multiply.outer(part, np.ones(batch or (1,)))
        elif batch not in ((), part.shape[2:]):
            raise InputError(f"{part.shape[2]} initial states for {batch[0]} parameter sets")
        ops = reduced_operators(prob)
        end = sum(y_k.shape[2] for y_k in ys)
        blocks.append(_Block(prob, ops, _diffusion(ops, part.shape[2]), prob.params,
                             _diffusion_rate(prob, ops) if dt is None else None,
                             slice(end, end + part.shape[2])))
        ys.append(part)
    if len({part.shape[1] for part in ys}) > 1:
        raise InputError(f"blocks must share the active size, got "
                         f"{[part.shape[1] for part in ys]} active vertices")
    y = np.concatenate(ys, axis=2)

    def views(state: np.ndarray, out: np.ndarray) -> list:
        """Each stepping block's diffusion bound to its columns of ``state`` and ``out``."""
        return [block.diffuse(state[..., block.cols], out[..., block.cols])
                for block in stepping]

    def rhs(state: np.ndarray, out: np.ndarray, held: list) -> None:
        # ``held`` is ``views(state, out)``, which the window holds for every pair it uses
        for diffuse in held:
            diffuse()
        out *= d
        out += _kinetics(state, a, b, c)

    dp5 = dt is None
    started = time.perf_counter()
    n_spent = 0
    t_done = 0.0
    while t_done < t_max:
        span = min(window, t_max - t_done)
        stepping = [block for block in blocks if block.cols.stop > block.cols.start]
        # the rectangle of the state each block starts from, boundary values materialized
        starts = [_materialize(block.problem, y[..., block.cols], block.ops)
                  for block in blocks]
        rects = [invariant_rectangle(block.params, start.u[block.problem.closure_idx],
                                     start.v[block.problem.closure_idx])
                 if block in stepping else (np.empty(0), np.empty(0))
                 for block, start in zip(blocks, starts)]
        m_u, m_v = (np.concatenate(m) for m in zip(*rects))
        # the window's arrays (see above), with views: each tableau row's slice with the
        # flattened stages it weighs, the product as a state, and the scratch as y with u
        # stacked over v, the rows the error norm reduces
        coefficients = np.empty((4,) + y.shape)
        for block in stepping:
            coefficients[..., block.cols] = _species_stack(block.params, y.ndim)
        a, b, c, d = coefficients
        caps = np.stack([m_u, m_v]) + _RECT_SLACK
        stages = np.empty((len(_DP) - 1,) + y.shape)
        flat = stages.reshape(len(stages), -1)
        coefs = np.empty(_DP.shape)
        y_in = np.empty(y.shape)
        held = [views(y_in, slope) for slope in stages]
        inputs = [(coefs[i, :i], flat[:i], stages[i], held[i]) for i in range(1, 6)]
        # y and the next state, swapped on acceptance, with their first and last stages
        slots = [(buf, views(buf, stages[0]), views(buf, stages[6]))
                 for buf in np.empty((2,) + y.shape)]
        slots[0][0][...] = y
        y = slots[0][0]
        fifth = coefs[6, :6], flat[:6]
        prod = np.empty(flat.shape[1])
        incr = prod.reshape(y.shape)
        scratch = np.empty(y.shape)
        rows = (y.shape[0] * y.shape[1],) + y.shape[2:]
        squares = scratch.reshape(rows)
        abs_y = np.abs(y)
        step = dt
        if dt is None:
            step = min(_step_cap(block.params, block.rate, *rect)
                       for block, rect in zip(blocks, rects) if block in stepping)
        horizon = min(span, _COUNTED_SPAN) if dp5 else span    # fixed steps: all counted
        if not (math.isfinite(step) and step > 0) or horizon / step > _MAX_STEPS - n_spent:
            raise StepSizeUnstable(f"step {step:.3e} up to t={t_done + horizon:.6g} exceeds the "
                                   f"budget of {_MAX_STEPS} steps")
        targets = sample_times(span, step, max_samples=max_samples, forced=forced_times)
        states = [[start] for start in starts]
        n_steps = 0
        n_clamped = 0
        n_halvings = 0
        n_rejected = 0
        n_rhs = 0
        fsal = False        # stages[0] holds the slope at y
        dt_cur = step
        t = 0.0
        for target in targets[1:]:
            while t < target - 1e-12 * max(1.0, target):
                if n_spent + n_steps >= _MAX_STEPS:
                    raise StepSizeUnstable(f"budget of {_MAX_STEPS} steps spent at "
                                           f"t={t_done + t:.6g}")
                if ((n_spent + n_steps) % _CLOCK_EVERY == 0
                        and time.perf_counter() - started > _MAX_SECONDS):
                    raise StepSizeUnstable(f"wall-time budget of {_MAX_SECONDS:g} s spent at "
                                           f"t={t_done + t:.6g}")
                if not fsal:
                    rhs(y, stages[0], slots[0][1])
                    n_rhs += 1
                grow = _GROW_MAX
                y_new, _, held_new = slots[1]       # the spare: y and abs_y stay as they are
                while True:
                    h = min(dt_cur, target - t)
                    if dp5:
                        np.multiply(_DP, h, out=coefs)
                        for row, earlier, slope, held_in in inputs:
                            np.matmul(row, earlier, out=prod)
                            rhs(np.add(y, incr, out=y_in), slope, held_in)
                        np.matmul(*fifth, out=prod)
                        np.add(y, incr, out=y_new)
                        n_rhs += 5
                    else:
                        k1, k2, k3, k4 = stages[:4]
                        rhs(np.add(y, 0.5 * h * k1, out=y_in), k2, held[1])
                        rhs(np.add(y, 0.5 * h * k2, out=y_in), k3, held[2])
                        rhs(np.add(y, h * k3, out=y_in), k4, held[3])
                        np.add(y, (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), out=y_new)
                        n_rhs += 3
                    low = y_new.min()
                    if low <= -_CLAMP or (y_new.max(axis=1) > caps).any():
                        # fixed steps keep the halved step; adaptive ones halve the attempt
                        dt_cur = (h if dp5 else dt_cur) * 0.5
                        n_halvings += 1
                        why = f"state left [0, {np.max(m_u):.6g}] x [0, {np.max(m_v):.6g}]"
                    elif not dp5:
                        break
                    else:
                        rhs(y_new, stages[6], held_new)
                        n_rhs += 1
                        abs_new = np.abs(y_new)
                        np.maximum(abs_y, abs_new, out=scratch)
                        scratch *= _RTOL
                        scratch += _ATOL
                        np.matmul(coefs[7], flat, out=prod)
                        np.divide(incr, scratch, out=scratch)
                        scratch *= scratch
                        # sqrt and the division are monotone: the root of the largest mean
                        # is the largest root
                        err = math.sqrt(float(squares.sum(axis=0).max()) / rows[0])
                        factor = _SAFETY * err ** -0.2 if err > 0.0 else _GROW_MAX
                        if err <= 1.0:
                            proposal = h * min(grow, factor)
                            # a step cut short to land on a sample says nothing against dt_cur
                            dt_cur = max(dt_cur, proposal) if h < dt_cur else proposal
                            break
                        # a nan estimate fails both tests and takes the smallest factor
                        dt_cur = h * (max(_GROW_MIN, factor) if err > 1.0 else _GROW_MIN)
                        n_rejected += 1
                        why = f"error estimate {err:.3e} times the tolerance"
                    grow = 1.0      # no growth right after a rejection
                    if dt_cur < step * 2.0**-20:
                        raise StepSizeUnstable(f"{why} at t={t_done + t:.6g} and the step fell "
                                               f"to dt={dt_cur:.3e}")
                clamped = low < 0.0
                if clamped:
                    undershoot = y_new < 0.0
                    n_clamped += int(undershoot.sum())
                    y_new[undershoot] = 0.0
                elif dp5:
                    stages[0] = stages[6]
                fsal = dp5 and not clamped
                if dp5:
                    abs_y = np.abs(y_new) if clamped else abs_new
                slots.reverse()
                y = y_new
                t += h
                n_steps += 1
            t = float(target)
            for block, block_states in zip(blocks, states):
                block_states.append(_materialize(block.problem, y[..., block.cols], block.ops))
        n_spent += n_steps
        t_done += span
        counts = {
            "dt": step,
            "dt_final": float(dt_cur),
            "n_steps": n_steps,
            "n_clamped": n_clamped,
            "n_halvings": n_halvings,
            "n_rejected": n_rejected,
            "n_rhs": n_rhs,
        }
        trajs = tuple(Trajectory(times=targets, states=block_states,
                                 metadata=dict(counts, m_u=m_u_k, m_v=m_v_k,
                                               bc=block.problem.bc.value))
                      for block, block_states, (m_u_k, m_v_k) in zip(blocks, states, rects))
        yield t_done, trajs
        if settled is not None and t_done < t_max:
            keep = ~np.asarray(settled(tuple(traj.final for traj in trajs)), dtype=bool)
            if not keep.any():
                return
            if not keep.all():
                y = y[..., keep]
                end = 0
                for block in blocks:
                    kept = keep[block.cols]
                    block.cols = slice(end, end + int(kept.sum()))
                    end = block.cols.stop
                    if kept.any():
                        block.params = CompetitionParams(**{
                            name: val[kept] if isinstance(val, np.ndarray) else val
                            for name, val in vars(block.params).items()})
                        block.rate = block.rate[kept] if np.ndim(block.rate) else block.rate
