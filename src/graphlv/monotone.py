"""Comparison principles, ordered upper/lower pairs, and monotone solvers.

The competition kinetics are mixed quasimonotone (each species' growth
is nonincreasing in the other), so upper/lower bounds come in coupled
pairs: the upper bound for u is paired with the lower bound for v and
vice versa. This module checks such pairs, constructs the closed-form
exponential envelopes for the three resolved parameter regimes, builds
steady profiles and coexistence bounds by one ordered monotone elliptic
iteration (of one species, and of the coupled pairs), and solves the
parabolic system by monotone Picard sweeps with uniformized exponential
propagators, which are entrywise nonnegative at every truncation of
their series. The sweeps' forcing integrals are nonnegative sums of the
same powers, so the parabolic solver makes no linear solve.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Sized
from dataclasses import dataclass, field

import numpy as np

from .classify import RegimeKind, _dirichlet_margins, classify_neumann, eigenpairs_for
from .dynamics import (
    BoundaryCondition,
    CompetitionParams,
    Problem,
    Trajectory,
    _coerce_initial,
    _kinetics,
    _materialize,
    _species_stack,
    _state_extrema,
    reaction,
    reduced_operators,
)
from .errors import (
    ConditionK1Violated,
    DeltaTooLarge,
    EpsilonTooLarge,
    HypothesisNotMet,
    InputError,
    NoAdmissibleSigma,
    NoConvergence,
    NoPositiveState,
    PairInvalid,
    RegimeMismatch,
)
from .graphs import (
    DomainPartition,
    WeightedGraph,
    _as_float,
    _as_floats,
    _blocks,
    _boundary_normal,
    _closure_laplacian,
    _nonnegative,
    _positive,
    _positive_int,
    _same_species,
    _sparse_lu,
)
from .spectral import EigenPair, smallest_dirichlet_eigenpair

_ORDER_SLACK = 1e-12
# uniformization: the propagator's series stops once its Poisson tail is below _POISSON_TAIL
# (the forcing's once it is below _POISSON_TAIL min(1, (q h)^2)), and a CSR
# step with q h above _MAX_POISSON_MEAN is split into equal substeps (e^-50 is far from
# underflow; the series then has about 110 terms)
_POISSON_TAIL = 1e-16
_MAX_POISSON_MEAN = 50.0
# fine points times active vertices: 8 MiB per (T, n_act) array; a solve holds about 40
_MONOTONE_MAX_FINE = 2**20
_STALL_ITERS = 100
_MAX_ITERS = 10_000    # the ordered steady iterations' one budget, which no rate scales


class _Stall:
    """The stall rule of the ordered steady iteration, which ends a tol roundoff cannot
    reach: true once the iterates moved by less than tol (``still``) for _STALL_ITERS
    iterations in a row with no new minimum of the worst residual, kept as ``least``."""

    def __init__(self) -> None:
        self.least, self.idle = np.inf, 0

    def __call__(self, worst: float, still: bool) -> bool:
        if worst < self.least:
            self.least, self.idle = worst, 0
        else:
            self.idle = self.idle + 1 if still else 0
        return self.idle >= _STALL_ITERS


# ---------------------------------------------------------------------------
# time-dependent fields and ordered pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TimeField:
    """A per-vertex field of time; scalar values broadcast over vertices."""

    value: Callable[[float], object]
    derivative: Callable[[float], object] | None = None

    def __post_init__(self) -> None:
        if not callable(self.value) or not (self.derivative is None
                                            or callable(self.derivative)):
            raise InputError("a time field's value and derivative must be callables")


@dataclass(frozen=True, eq=False)
class OrderedPair:
    """Coupled upper/lower candidate bounds over a time horizon t0 <= t_end."""

    u_upper: TimeField
    v_upper: TimeField
    u_lower: TimeField
    v_lower: TimeField
    t0: float
    t_end: float
    info: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not all(isinstance(tf, TimeField) for tf in _pair_fields(self)):
            raise InputError("an ordered pair's four fields must be TimeFields")
        t0, t_end = _as_float(self.t0, "t0"), _as_float(self.t_end, "t_end")
        if not (math.isfinite(t0) and math.isfinite(t_end) and t0 <= t_end):
            raise InputError(f"a pair needs finite t0 <= t_end, got {t0} and {t_end}")
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "t_end", t_end)


# an ordered pair as four rows, each (name, species, sign): upper u, lower u, upper v and
# lower v; an upper row's inequalities hold with sign +1, a lower row's with -1
_PAIR_ROWS = (("upper_u", 1, 1.0), ("lower_u", 1, -1.0), ("upper_v", 2, 1.0),
              ("lower_v", 2, -1.0))
_PAIR_SIGNS = np.array([sign for _, _, sign in _PAIR_ROWS])[:, None, None]


def _pair_fields(pair: OrderedPair) -> tuple[TimeField, ...]:
    """The pair's four TimeFields in ``_PAIR_ROWS`` order."""
    return pair.u_upper, pair.u_lower, pair.v_upper, pair.v_lower


def _paired_kinetics(p: CompetitionParams, rows: np.ndarray) -> np.ndarray:
    """The kinetics of each row of a (4, ...) block in ``_PAIR_ROWS`` order under the mixed
    quasimonotone pairing: upper u with lower v, and lower u with upper v."""
    f1, f2 = reaction(p, rows[:2], rows[:1:-1])
    return np.concatenate([f1, f2[::-1]])


def constant_pair(upper: tuple[float, float], lower: tuple[float, float],
                  t0: float = 0.0, t_end: float = 1.0) -> OrderedPair:
    """Pair of constants, e.g. the invariant rectangle corners (M_u, M_v)/(0, 0)."""
    corners = [_as_floats(c, what) for c, what in ((upper, "upper"), (lower, "lower"))]
    if any(c.shape != (2,) for c in corners):
        raise InputError(f"upper and lower must each be two numbers, got {upper!r} and "
                         f"{lower!r}")

    def const(c):
        return TimeField(value=lambda t, c=c: c, derivative=lambda t: 0.0)

    (u_hi, v_hi), (u_lo, v_lo) = (c.tolist() for c in corners)
    return OrderedPair(
        u_upper=const(u_hi), v_upper=const(v_hi), u_lower=const(u_lo), v_lower=const(v_lo),
        t0=t0, t_end=t_end, info={"kind": "constant"},
    )


def pair_from_trajectory(traj: Trajectory) -> OrderedPair:
    """Duplicate a sampled solution as both halves of a pair.

    Values interpolate linearly between samples, every vertex at once by
    np.interp's rule: exact at the sample times and held at the end
    samples outside them. The times must be strictly increasing.
    Derivatives are left None; exact-solution pairs should be built by the
    caller with analytic derivatives when slack at machine precision
    matters.
    """
    times = _as_floats(traj.times, "trajectory times")
    if times.ndim != 1 or times.size == 0 or times.size != len(traj.states):
        raise InputError("a trajectory needs one state per time and at least one of each")
    if not np.all(np.diff(times) > 0):
        raise InputError("trajectory times must be strictly increasing")
    u_samples = np.stack([s.u for s in traj.states])
    v_samples = np.stack([s.v for s in traj.states])

    def interp(samples):
        def value(t):
            j = int(np.searchsorted(times, t, side="right")) - 1    # times[j] <= t < times[j+1]
            if j < 0 or j >= times.size - 1:
                return samples[min(max(j, 0), times.size - 1)].copy()
            slope = (samples[j + 1] - samples[j]) / (times[j + 1] - times[j])
            return slope * (t - times[j]) + samples[j]
        return TimeField(value=value)

    return OrderedPair(
        u_upper=interp(u_samples), v_upper=interp(v_samples),
        u_lower=interp(u_samples), v_lower=interp(v_samples),
        t0=float(times[0]), t_end=float(times[-1]), info={"kind": "trajectory"},
    )


def _tf_samples(fn, times: np.ndarray, n: int, idx: np.ndarray) -> np.ndarray:
    """``fn``, a TimeField's value or derivative, at every time on the vertices ``idx``, as
    one (T, idx.size) array. Each result must be a finite number or n finite numbers."""
    values = [fn(t) for t in times.tolist()]
    scalars = all(isinstance(v, numbers.Real) for v in values)
    if scalars:
        out = np.array(values, dtype=float)[:, None]
    else:
        rows = [np.full(n, v) if isinstance(v, numbers.Real) else np.asarray(v) for v in values]
        bad = next((row for row in rows if row.shape != (n,) or row.dtype.kind not in "biuf"),
                   None)
        if bad is not None:
            raise InputError(f"a time field value must be a number or {n} numbers, got "
                             f"{bad.dtype} values of shape {bad.shape}")
        out = np.array(rows, dtype=float)
    if not np.all(np.isfinite(out)):
        raise InputError("time field values must be finite")
    return np.repeat(out, idx.size, axis=1) if scalars else out[:, idx]


def _tf_rates(tf: TimeField, times: np.ndarray, n: int, idx: np.ndarray,
              t0: float, t_end: float) -> np.ndarray:
    """The time derivative of ``tf`` as ``_tf_samples`` gives its value: its own derivative,
    or second-order differences with step h = 1e-6 max(1, |t|), one-sided where a central
    step would leave [t0, t_end]."""
    if tf.derivative is not None:
        return _tf_samples(tf.derivative, times, n, idx)
    h = 1e-6 * np.maximum(1.0, np.abs(times))
    forward = times - h < t0
    central = ~forward & ~(times + h > t_end)
    out = np.empty((times.size, idx.size))
    t, hc = times[central], h[central]
    out[central] = (_tf_samples(tf.value, t + hc, n, idx)
                    - _tf_samples(tf.value, t - hc, n, idx)) / (2 * hc)[:, None]
    # the backward stencil is the forward one with a negated step
    t, s = times[~central], np.where(forward, h, -h)[~central]
    f0, f1, f2 = (_tf_samples(tf.value, t + k * s, n, idx) for k in (0.0, 1.0, 2.0))
    out[~central] = (-3.0 * f0 + 4.0 * f1 - f2) / (2 * s)[:, None]
    return out


# ---------------------------------------------------------------------------
# linear coupled systems and the maximum principle check
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LinearCoupledSystem:
    """m linear parabolic components coupled through a nonpositive table.

    Component k evolves under its own diffusion coefficient, species
    weighting, and boundary condition; the coupling term is
    sum_l h[k, l, x] * u_l(x, t), constant in time. All components share
    one domain (whole graph, or one partition).
    """

    graph: WeightedGraph
    d: tuple[float, ...]
    species: tuple[int, ...]
    coupling: np.ndarray
    bc: tuple[BoundaryCondition, ...]
    partition: DomainPartition | None = None

    def __post_init__(self) -> None:
        d = _as_floats(self.d, "d")
        if d.ndim != 1 or d.size == 0:
            raise InputError(f"d must be a sequence of one number per component, and a "
                             f"system needs at least one, got {self.d!r}")
        m = d.size
        if not all(isinstance(x, Sized) and len(x) == m for x in (self.species, self.bc)):
            raise InputError("d, species, and bc must have one entry per component")
        if not all(isinstance(b, BoundaryCondition) for b in self.bc):
            raise InputError(f"bc entries must be BoundaryCondition members, got {self.bc!r}")
        if not np.all(np.isfinite(d)):
            raise InputError(f"d must be finite, got {self.d!r}")
        h = _as_floats(self.coupling, "coupling")
        if h.shape == (m, m):
            h = np.repeat(h[:, :, None], self.graph.n, axis=2)
        if h.shape != (m, m, self.graph.n):
            raise InputError(f"coupling must have shape ({m}, {m}) or ({m}, {m}, n)")
        if not np.all(np.isfinite(h)):
            raise InputError("coupling must be finite")
        object.__setattr__(self, "coupling", h)
        has_domain = any(b is not BoundaryCondition.NO_BOUNDARY for b in self.bc)
        if has_domain and any(b is BoundaryCondition.NO_BOUNDARY for b in self.bc):
            raise InputError("components must all share the domain: no mixing of "
                             "whole-graph and partitioned components")
        if has_domain and self.partition is None:
            raise InputError("partitioned components need a partition")
        if not has_domain and self.partition is not None:
            raise InputError("whole-graph systems take no partition")

    @property
    def m(self) -> int:
        return len(self.d)


def _defects(graph: WeightedGraph, part: DomainPartition | None, components, values, rates):
    """The operators of m weakly coupled components (Protter & Weinberger 1967, ch. 3), each
    given as (species, d, bc) with its (T, n) field ``values[k]`` in vertex order and its
    (T, n_act) rate ``rates[k]`` at the active vertices: rate - d Lap w there, as one
    (m, T, n_act) array, and each one's boundary operator, the trace on an absorbing
    boundary, the outward normal derivative on a reflecting one, None with no boundary.
    Species with one weight structure share each operator, built once."""
    components = [(1 if _same_species(graph) else s, d, bc) for s, d, bc in components]
    laps = {s: _closure_laplacian(graph, s, part) for s in {s for s, _, _ in components}}
    normals = {s: _boundary_normal(graph, s, part)
               for s in {s for s, _, bc in components if bc is BoundaryCondition.NEUMANN}}
    defects = np.array([rate - d * laps[s](w)
                        for w, rate, (s, d, _) in zip(values, rates, components)])
    boundary = [normals[s](w) if bc is BoundaryCondition.NEUMANN
                else None if part is None else w[:, part.boundary_idx]
                for w, (s, _, bc) in zip(values, components)]
    return defects, boundary


@dataclass(frozen=True, eq=False)
class MaxPrincipleReport:
    satisfied: bool
    max_value: float
    worst_component: int
    worst_time: float
    worst_vertex: str
    hypothesis_residual: float


def maximum_principle_check(
    system: LinearCoupledSystem,
    fields: np.ndarray,
    times: np.ndarray,
    dfields_dt: np.ndarray | None = None,
    hyp_tol: float = 1e-8,
    conclusion_tol: float = 1e-9,
) -> MaxPrincipleReport:
    """Check the nonpositivity conclusion after verifying its hypotheses.

    ``fields`` has shape (m, T, n) over the full vertex order; values outside each
    component's domain are ignored, but every value must be finite. Hypotheses (nonpositive
    off-diagonal coupling, then per component nonpositive initial data, the parabolic
    inequality at interior vertices and a nonpositive boundary operator, both from
    ``_defects``) are verified numerically on the grid and the first violation raises
    HypothesisNotMet. The times must be strictly increasing, so the initial data are the
    first sample; time derivatives come from ``dfields_dt`` when given, else second-order
    finite differences on the grid, which need at least two times. Tolerances must be
    finite and at least 0. This is a checker, not a prover: the verdict only covers the
    sampled grid.
    """
    fields = _as_floats(fields, "fields")
    times = _time_grid(times, "times")
    if np.any(np.diff(times) <= 0):
        raise InputError("times must be strictly increasing")
    hyp_tol = _nonnegative(hyp_tol, "hyp_tol")
    conclusion_tol = _nonnegative(conclusion_tol, "conclusion_tol")
    m = system.m
    if fields.ndim != 3 or fields.shape[0] != m or fields.shape[2] != system.graph.n:
        raise InputError(f"fields must have shape (m, T, n) = ({m}, ?, {system.graph.n})")
    if fields.shape[1] != times.size:
        raise InputError("fields and times disagree on the number of samples")
    if dfields_dt is None:
        if times.size < 2:
            raise InputError("differencing the fields needs at least two times")
        dfields_dt = np.gradient(fields, times, axis=1)
    else:
        dfields_dt = _as_floats(dfields_dt, "dfields_dt")
        if dfields_dt.shape != fields.shape:
            raise InputError(f"dfields_dt must have the shape of fields, {fields.shape}")
    if not (np.all(np.isfinite(fields)) and np.all(np.isfinite(dfields_dt))):
        raise InputError("fields and dfields_dt must be finite")

    h = system.coupling
    off = ~np.eye(m, dtype=bool)
    if np.any(h[off] > 0.0):
        raise HypothesisNotMet("off-diagonal coupling must be nonpositive")

    part = system.partition
    domain_idx = np.arange(system.graph.n) if part is None else part.closure_idx
    act = domain_idx if part is None else part.interior_idx
    components = list(zip(system.species, system.d, system.bc))
    defects, boundary = _defects(system.graph, part, components, fields, dfields_dt[:, :, act])
    resid = defects + np.einsum("klx,ltx->ktx", h[:, :, act], fields[:, :, act])

    hyp_worst = 0.0
    for k in range(m):
        init = float(fields[k, 0, domain_idx].max())
        if init > hyp_tol:
            raise HypothesisNotMet(f"component {k}: initial data exceeds 0 by {init:.3e}")
        worst = float(resid[k].max())
        if worst > hyp_tol:
            raise HypothesisNotMet(f"component {k}: parabolic inequality violated by {worst:.3e}")
        edge = -math.inf if boundary[k] is None else float(boundary[k].max())
        if edge > hyp_tol:
            raise HypothesisNotMet(f"component {k}: boundary operator exceeds 0 by {edge:.3e}")
        hyp_worst = max(hyp_worst, init, worst, edge)

    sub = fields[:, :, domain_idx]
    flat = int(np.argmax(sub))
    k_w, t_w, x_w = np.unravel_index(flat, sub.shape)
    max_value = float(sub[k_w, t_w, x_w])
    return MaxPrincipleReport(
        satisfied=max_value <= conclusion_tol,
        max_value=max_value,
        worst_component=int(k_w),
        worst_time=float(times[t_w]),
        worst_vertex=system.graph.vertices[domain_idx[x_w]],
        hypothesis_residual=hyp_worst,
    )


# ---------------------------------------------------------------------------
# coupled-pair verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PairReport:
    slacks: dict[str, float]
    passed: bool
    tol: float

    def worst(self) -> tuple[str, float]:
        name = min(self.slacks, key=self.slacks.get)
        return name, self.slacks[name]


def _time_grid(grid, what: str) -> np.ndarray:
    """``grid`` as floats, which must be a nonempty 1-D array of finite times."""
    grid = _as_floats(grid, what)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
        raise InputError(f"{what} must be a nonempty 1-D array of finite times")
    return grid


def verify_coupled_pair(
    problem: Problem,
    pair: OrderedPair,
    grid: np.ndarray,
    initial=None,
    slack_tol: float = 1e-9,
) -> PairReport:
    """Evaluate the coupled upper/lower inequalities on a time grid.

    Reports the worst signed slack of each inequality family (positive means satisfied with
    room); the pair passes when every slack is >= -slack_tol, finite and at least 0. The
    pair's four ``_PAIR_ROWS`` take their operators from ``_defects`` and their kinetics
    from ``_paired_kinetics``: the upper u inequality uses the lower v and vice versa,
    matching the mixed quasimonotone coupling. The grid must be a nonempty 1-D array of
    finite times; ``initial``, if given, is one state, read and checked as ``integrate``
    reads it.
    """
    p = problem.params
    graph, part, act = problem.graph, problem.partition, problem.active_idx
    grid = _time_grid(grid, "grid")
    slack_tol = _nonnegative(slack_tol, "slack_tol")
    if initial is not None:
        y0 = _coerce_initial(problem, initial)
        if y0.ndim != 2:
            raise InputError(f"initial data must be one state, got shape {y0.shape[1:]}")
    fields = _pair_fields(pair)
    # (4, T, n) values and (4, T, n_act) rates over the whole grid, in _PAIR_ROWS order
    values = np.array([_tf_samples(tf.value, grid, graph.n, np.arange(graph.n)) for tf in fields])
    rates = np.array([_tf_rates(tf, grid, graph.n, act, pair.t0, pair.t_end) for tf in fields])
    on_act = values[:, :, act]
    defects, boundary = _defects(graph, part, [(s, (p.d1, p.d2)[s - 1], problem.bc)
                                               for _, s, _ in _PAIR_ROWS], values, rates)
    pde = _PAIR_SIGNS * (defects - _paired_kinetics(p, on_act))
    listed = (0, 2, 1, 3)    # the report lists the upper rows first, then the lower ones
    slacks = {f"{_PAIR_ROWS[j][0]}_pde": float(pde[j].min()) for j in listed}
    slacks["order_u"], slacks["order_v"] = (float(x.min()) for x in on_act[::2] - on_act[1::2])
    if part is not None:
        slacks.update({f"boundary_{_PAIR_ROWS[j][0]}": float((_PAIR_SIGNS[j] * boundary[j]).min())
                       for j in listed})

    if initial is not None:
        t0 = _time_grid([pair.t0], "the pair's t0")
        at_t0 = np.array([_tf_samples(tf.value, t0, graph.n, act)[0] for tf in fields])
        for name, y, (hi, lo) in zip(("initial_u", "initial_v"), y0[:, act],
                                     at_t0.reshape(2, 2, -1)):
            slacks[name] = float(min((hi - y).min(), (y - lo).min()))

    passed = all(s >= -slack_tol for s in slacks.values())
    return PairReport(slacks=slacks, passed=passed, tol=slack_tol)


# ---------------------------------------------------------------------------
# closed-form exponential envelopes for the three resolved regimes
# ---------------------------------------------------------------------------

def analytic_envelopes(
    regime: int,
    params: CompetitionParams,
    epsilon: float | None = None,
    t0: float = 0.0,
    state_at_t0=None,
    t_end: float | None = None,
) -> OrderedPair:
    """Spatially constant exponential bounds funneling to the known limit.

    Regime 1 is competitive exclusion by v, regime 2 by u, regime 3 coexistence at the
    interior equilibrium, as ``classify_neumann`` must find it, with its predicted limit.
    ``state_at_t0`` must be a strictly positive state already inside the envelope at t0
    (pass the values on the problem's active region). Every free constant is set to the
    midpoint of its admissible range; the chosen values are recorded in the pair's info
    dict.
    """
    p = params
    if regime not in (1, 2, 3):
        raise InputError(f"regime must be 1, 2, or 3, got {regime!r}")
    want = (RegimeKind.V_WINS, RegimeKind.U_WINS, RegimeKind.COEXIST)[int(regime) - 1]
    found = classify_neumann(p)
    if found.kind is not want:
        raise RegimeMismatch(f"regime {regime} needs {want.value} parameters, "
                             f"got {found.kind.value}")
    limit = (found.predicted.u, found.predicted.v)
    t0 = _as_float(t0, "t0")
    if regime == 1:
        cap = min(p.c1 * p.a2 / p.c2 - p.a1, p.b1 * p.a2 / p.b2 - p.a1)
    elif regime == 2:
        cap = min(p.a1 * p.c2 / p.c1 - p.a2, p.a1 * p.b2 / p.b1 - p.a2)
    else:
        cap = min(p.c2 * p.a1 / p.c1 - p.a2, p.b1 * p.a2 / p.b2 - p.a1)

    eps = 0.5 * cap if epsilon is None else _positive(epsilon, "epsilon")
    if eps >= cap:
        raise EpsilonTooLarge(f"epsilon must be below {cap:.6g}, got {eps:.6g}")

    if state_at_t0 is None:
        raise InputError("state_at_t0 is required to anchor the envelopes")
    min_u, max_u, min_v, max_v = _state_extrema(state_at_t0)
    if max_u >= (p.a1 + eps) / p.b1 or max_v >= (p.a2 + eps) / p.c2:
        raise InputError(
            "state at t0 is not strictly below the upper envelope; integrate past "
            "the transient (or enlarge epsilon) before building envelopes"
        )

    info = {"regime": regime, "epsilon": eps, "epsilon_cap": cap}

    if regime == 1:
        sig_cap = min(p.a2 - (p.c2 / p.c1) * (p.a1 + eps),
                      p.a2 - (p.b2 / p.b1) * (p.a1 + eps),
                      p.b1 * min_u, p.c2 * min_v)
        if sig_cap <= 0.0:
            raise NoAdmissibleSigma(f"sigma cap is {sig_cap:.6g}; state touches zero "
                                    "or epsilon is too aggressive")
        sigma = 0.5 * sig_cap
        beta = 0.5 * min((p.c1 / p.c2) * sigma + eps,
                         sigma * (p.a2 - sigma - (p.b2 / p.b1) * (p.a1 + eps)) / (p.a2 - sigma),
                         p.a2)
        q = (p.c1 / p.c2) * (p.a2 + eps) + sigma - p.a1
        info.update(sigma=sigma, beta=beta, q=q, limit=limit)
        u_hi = _exp_field((p.a1 + eps) / p.b1, 0.0, beta, t0)
        u_lo = _exp_field(sigma / p.b1, 0.0, q, t0)
        v_hi = _exp_field(eps / p.c2, p.a2 / p.c2, beta, t0)
        v_lo = _exp_field(-(p.a2 - sigma) / p.c2, p.a2 / p.c2, beta, t0)
    elif regime == 2:
        sig_cap = min(p.a1 - (p.c1 / p.c2) * (p.a2 + eps),
                      p.a1 - (p.b1 / p.b2) * (p.a2 + eps),
                      p.c2 * min_v, p.b1 * min_u)
        if sig_cap <= 0.0:
            raise NoAdmissibleSigma(f"sigma cap is {sig_cap:.6g}; state touches zero "
                                    "or epsilon is too aggressive")
        sigma = 0.5 * sig_cap
        beta = 0.5 * min((p.b2 / p.b1) * sigma + eps,
                         sigma * (p.a1 - sigma - (p.c1 / p.c2) * (p.a2 + eps)) / (p.a1 - sigma))
        q = sigma + (p.b2 / p.b1) * (p.a1 + eps) - p.a2
        info.update(sigma=sigma, beta=beta, q=q, limit=limit)
        u_hi = _exp_field(eps / p.b1, p.a1 / p.b1, p.a1, t0)
        u_lo = _exp_field(-(p.a1 - sigma) / p.b1, p.a1 / p.b1, beta, t0)
        v_hi = _exp_field((p.a2 + eps) / p.c2, 0.0, beta, t0)
        v_lo = _exp_field(sigma / p.c2, 0.0, q, t0)
    else:
        xi, eta = limit
        sig_cap = min(p.b1 * xi, p.c2 * eta, p.c2 * min_v, p.b1 * min_u,
                      p.a2 - (p.b2 / p.b1) * (p.a1 + eps),
                      p.a1 - (p.c1 / p.c2) * (p.a2 + eps))
        if sig_cap <= 0.0:
            raise NoAdmissibleSigma(f"sigma cap is {sig_cap:.6g}; state touches zero "
                                    "or epsilon is too aggressive")
        sigma = 0.5 * sig_cap
        q1 = sigma * (p.a2 - sigma - (p.b2 / p.b1) * (p.a1 + eps)) / (p.c2 * eta - sigma)
        q2 = p.b1 * xi * ((p.c1 / p.c2) * sigma + eps) / (p.a1 + eps - p.b1 * xi)
        q3 = sigma * (p.a1 - sigma - (p.c1 / p.c2) * (p.a2 + eps)) / (p.b1 * xi - sigma)
        q4 = p.c2 * eta * ((p.b2 / p.b1) * sigma + eps) / (p.a2 + eps - p.c2 * eta)
        q = 0.5 * min(q1, q2, q3, q4)
        info.update(sigma=sigma, q=q, xi=xi, eta=eta, limit=limit)
        u_hi = _exp_field((p.a1 + eps - p.b1 * xi) / p.b1, xi, q, t0)
        u_lo = _exp_field(-(p.b1 * xi - sigma) / p.b1, xi, q, t0)
        v_hi = _exp_field((p.a2 + eps - p.c2 * eta) / p.c2, eta, q, t0)
        v_lo = _exp_field(-(p.c2 * eta - sigma) / p.c2, eta, q, t0)

    return OrderedPair(u_upper=u_hi, v_upper=v_hi, u_lower=u_lo, v_lower=v_lo,
                       t0=t0, t_end=t0 + 1.0 if t_end is None else t_end, info=info)


def _exp_field(amplitude: float, offset: float, rate: float, t0: float) -> TimeField:
    """offset + amplitude * exp(-rate * (t - t0)) with its exact derivative."""
    return TimeField(
        value=lambda t: offset + amplitude * math.exp(-rate * (t - t0)),
        derivative=lambda t: -rate * amplitude * math.exp(-rate * (t - t0)),
    )


# ---------------------------------------------------------------------------
# shifted operators, their solves and their exponentials, dense or CSR
# ---------------------------------------------------------------------------

def _add_identity(mat, c: float):
    """mat + c I in mat's storage: a dense mat gains c on its diagonal in place, a CSR one
    is added to a sparse identity and never densified."""
    if isinstance(mat, np.ndarray):
        mat[np.diag_indices_from(mat)] += c
        return mat
    import scipy.sparse as sp    # imported late: dense-stored runs never pay its memory
    return mat + c * sp.eye_array(mat.shape[0], format="csr")


def _factor(mat) -> Callable[[np.ndarray], np.ndarray]:
    """b -> mat^-1 b, factored once: ``graphs._sparse_lu`` for a CSR mat, LAPACK LU for a
    dense one (getrs called directly: ``lu_solve``'s checks cost several times the solve on
    a small block)."""
    if isinstance(mat, np.ndarray):
        import scipy.linalg    # imported late: a process that factors nothing never loads it

        lu, piv = scipy.linalg.lu_factor(mat)
        getrs = scipy.linalg.lapack.dgetrs
        return lambda b: getrs(lu, piv, b)[0]
    return _sparse_lu(mat).solve


def _shift(a: float, own: float, cross: float, own_max: float, other_max: float) -> float:
    """The three monotone iterations' shift M: at least 0 and the slope -df/dw of
    f = w (a - own w - cross z) over a pair whose upper fields peak at ``own_max`` (w) and
    ``other_max`` (z), so that f + M w is nondecreasing in w there (Pao 1992, ch. 8). No
    solve needs M > 0: the steady iterations run on an absorbing boundary's interior, where
    -d L_II is a nonsingular M-matrix, so M scales with the rates (a, d, e)."""
    return max(2.0 * own * own_max + cross * other_max - a, 0.0)


def _poisson_weights(lam: float, tail: float = _POISSON_TAIL) -> list[float]:
    """Poisson(lam) probabilities of 0, 1, ..., K, with K >= 1 the first count whose tail
    beyond it is below ``tail`` (bounded by a geometric series once K + 2 > lam)."""
    weights = [math.exp(-lam)]
    while True:
        k = len(weights)
        nxt = weights[-1] * lam / k
        if k > 1 and k + 1 > lam and nxt / (1.0 - lam / (k + 1)) <= tail:
            return weights
        weights.append(nxt)


def _forcing_weights(count: int, q: float, shift: float, tau: float):
    """The weights of P^k, k < count, in Phi1 and Phi2 of one step tau of y' = A y + g with
    A = q (P - I) - shift I: int_0^tau e^(-shift s) Pr[N_(q s) = k] (1 or tau - s) ds. For
    N ~ Poisson(r tau), r = q + shift and rho = q/r (N's jumps are P steps with probability
    rho), they are rho^k Pr[N > k]/r and rho^k sum_{j>k} Pr[N > j]/r^2, all >= 0. Once
    r tau > 2 count + 100, Pr[N <= count] < e^-50 (a Chernoff bound) and the tails are 1 and
    r tau - k - 1; otherwise they are summed from the far end of N's weights, so that a
    small mean loses no digits."""
    rate = q + shift
    lam, rho = rate * tau, q / rate
    if lam > 2 * count + 100:
        tails = [(1.0, lam - k - 1.0) for k in range(count)]
    else:
        tails, tail, total = [], 0.0, 0.0
        for w in (_poisson_weights(lam, _POISSON_TAIL * min(1.0, lam * lam))
                  + [0.0] * count)[:0:-1]:
            total += tail
            tail += w
            tails.append((tail, total))
        tails = tails[::-1][:count]
    return ([rho ** k * tail / rate for k, (tail, _) in enumerate(tails)],
            [rho ** k * (total / rate) / rate for k, (_, total) in enumerate(tails)])


def _propagator(diff, shift: float, h: float):
    """(propagate, force) for one step h of y' = A y + g(t), A = diff - shift I with diff
    Metzler (off-diagonal entries >= 0) and g linear on the step: propagate(x) = expm(A h) x
    and force(g, gdot) = Phi1 g + Phi2 gdot for g's value at the start of the step and its
    slope gdot, with Phi1 = int_0^h expm(A s) ds and Phi2 = int_0^h expm(A s) (h - s) ds.

    By uniformization of diff alone, with q = max(-diff_ii) and P = I + diff/q >= 0, all
    three are sums of the powers P^k with nonnegative weights, e^(-shift h) Pr[N = k] for
    N ~ Poisson(q h) and ``_forcing_weights``. So every truncation maps nonnegative data to
    nonnegative values, the forcing needs no solve, and P, the series' lengths and the
    substeps depend on diff and h alone: the shift enters only the scalar weights. A CSR
    diff is applied by Horner's rule, one sparse product per power, a step with
    q h > _MAX_POISSON_MEAN taken as equal substeps tau marched by
    y <- S y + Phi1(tau) (g + r tau gdot) + Phi2(tau) gdot, S = expm(A tau). A dense diff has
    its three series summed from shared powers into matrices over 2**s substeps of q h <= 1,
    joined by s doublings (cheaper than a long series): S(2 tau) = S^2,
    Phi1(2 tau) = (I + S) Phi1 and Phi2(2 tau) = S Phi2 + Phi2 + tau Phi1.
    """
    q = max(float(-diff.diagonal().min()), 0.0) or 1.0    # diff ~ 0 (one vertex): any rate
    dense = isinstance(diff, np.ndarray)
    if dense:
        reps = 2 ** max(0, math.ceil(math.log2(q * h)))
    else:
        reps = max(1, math.ceil(q * h / _MAX_POISSON_MEAN))
    tau = h / reps
    lam = q * tau
    decay = math.exp(-shift * tau)
    weights = [decay * w for w in _poisson_weights(lam)]
    # Phi1 ~ tau and Phi2 ~ tau^2 / 2 while a truncated tail costs them about K tail / q and
    # K tail / q^2, so their series stops on a tail relative to min(1, lam^2)
    count = len(_poisson_weights(lam, _POISSON_TAIL * min(1.0, lam * lam))) - 1
    phi1_w, phi2_w = _forcing_weights(count, q, shift, tau)
    p_mat = _add_identity(diff / q, 1.0)    # dividing makes the smallest diagonal exactly 0

    if dense:
        term = np.eye(diff.shape[0])
        e_mat, phi1, phi2 = weights[0] * term, phi1_w[0] * term, phi2_w[0] * term
        for k in range(1, max(len(weights), len(phi1_w))):
            term = p_mat @ term
            if k < len(weights):
                e_mat = e_mat + weights[k] * term
            if k < len(phi1_w):
                phi1 += phi1_w[k] * term
                phi2 += phi2_w[k] * term
        for _ in range(reps.bit_length() - 1):
            phi2 = e_mat @ phi2 + phi2 + tau * phi1
            phi1 = phi1 + e_mat @ phi1
            e_mat = e_mat @ e_mat
            tau *= 2.0
        return e_mat.__matmul__, lambda g, gdot: phi1 @ g + phi2 @ gdot

    def horner(*terms):
        """sum_k P^k sum_(c, x) c[k] x over terms (c, x) whose weight lists c have one
        length K, from the highest power down: K - 1 sparse products"""
        top = len(terms[0][0]) - 1
        out = sum(c[top] * x for c, x in terms)
        for k in range(top - 1, -1, -1):
            out = p_mat @ out
            for c, x in terms:
                out += c[k] * x
        return out

    def propagate(x):
        for _ in range(reps):
            x = horner((weights, x))
        return x

    def force(g, gdot):
        out = horner((phi1_w, g), (phi2_w, gdot))
        for r in range(1, reps):
            out = horner((weights, out)) + horner((phi1_w, g + (r * tau) * gdot),
                                                  (phi2_w, gdot))
        return out
    return propagate, force


# ---------------------------------------------------------------------------
# steady states by ordered monotone iteration: logistic state and coexistence bounds
# ---------------------------------------------------------------------------

def _boundary_weight(l_ii) -> np.ndarray:
    """beta = -(L_II 1), each interior vertex's weight to the boundary over its measure, with
    roundoff below 0 clipped: -d L_II c = d c beta for a constant c on the interior and 0 on
    the boundary, so c is a lower solution of the kinetics w (a - e w) where a - d beta >= e c
    at every vertex."""
    return np.maximum(-(l_ii @ np.ones(l_ii.shape[0])), 0.0)


def _ordered_steady(ops, coeffs, kinetics, y, rise, tol: float, max_iters: int,
                    closes: Callable[[np.ndarray], bool] | None = None):
    """The monotone iteration for steady upper and lower solutions of m species at once
    (Sattinger 1972; Pao 1992, ch. 8): the logistic steady state (m = 1) and
    ``coexistence_bounds`` (m = 2). Row y[k, j] of the (m, 2, n) block ``y`` is species k's
    column in ordered pair j; ``rise``, broadcast against it, is -1 where a column is an
    upper bound, which falls, and +1 where it is a lower bound, which rises. Each step is
    y_k <- (-d_k L_k + M_k)^-1 (M_k y_k + f_k(y)), with ``ops[k]`` = (d_k, L_k),
    f = ``kinetics(y)`` and M_k = ``_shift(*coeffs[k], max y_k, max y_other)`` (y_other is
    y_k, under no cross term, when m = 1) refactored once it halves; M_k may be 0, since
    -d_k L_k is a nonsingular M-matrix on an absorbing boundary's interior. A species with
    species 0's operator and shift shares its factorization. It stops once every column has
    moved by less than tol (summed over species) and its residuals are at most tol, and so
    has the largest gap if ``closes(y)`` holds (a condition, given or None, under which the
    bounds must meet; it stays true as the lower bounds rise); a non-finite shift or
    iterate, a move the wrong way or a crossing beyond _ORDER_SLACK, a ``_Stall`` on the
    largest residual, or ``max_iters`` iterations, the one budget, raise NoConvergence.
    Returns the block and the run record: ``iterations``, ``times`` (the iteration at which
    each column first met the stop rule), ``gaps`` (the largest upper minus lower bound
    after each iteration) and the final (m, 2) ``residuals``."""
    shifts, solves = [math.inf] * len(ops), [None] * len(ops)
    times, gaps, stall = [None, None], [], _Stall()
    f = kinetics(y)
    for it in range(1, max_iters + 1):
        peaks = y.max(axis=(1, 2)).tolist()
        for k, ((d, lap), (a, own, cross)) in enumerate(zip(ops, coeffs)):
            need = _shift(a, own, cross, peaks[k], peaks[k - 1])
            if not math.isfinite(need):
                raise NoConvergence(f"ordered iteration met a non-finite shift at iteration {it}")
            if need < 0.5 * shifts[k]:
                shifts[k] = need
                solves[k] = (solves[0] if k and lap is ops[0][1] and d == ops[0][0]
                             and need == shifts[0] else _factor(_add_identity(-d * lap, need)))
        new = np.stack([solves[k]((shifts[k] * y[k] + f[k]).T).T for k in range(len(ops))])
        step, spread = new - y, -(rise * new).sum(axis=1)    # spread: upper minus lower
        fault = ("gave a non-finite iterate" if not np.all(np.isfinite(new))
                 else "crossed" if spread.min() < -_ORDER_SLACK
                 else "moved the wrong way" if np.any(step * rise < -_ORDER_SLACK) else "")
        if fault:
            raise NoConvergence(f"ordered iteration {fault} at iteration {it} of {max_iters}")
        y = new
        gaps.append(float(spread.max()))
        f = kinetics(y)
        res = np.array([np.max(np.abs(d * (lap @ y[k].T).T + f[k]), axis=1)
                        for k, (d, lap) in enumerate(ops)])
        still = np.abs(step).max(axis=2).sum(axis=0) < tol
        settled = still & (res.max(axis=0) <= tol)
        if closes is not None and gaps[-1] > tol and closes(y):
            settled[:] = False
        for j in np.flatnonzero(settled):
            times[j] = times[j] or it
        if settled.all():
            return y, {"iterations": it, "times": tuple(times), "gaps": gaps, "residuals": res}
        if stall(float(res.max()), still.all()):
            raise NoConvergence(f"ordered iteration stalled at iteration {it}: residual "
                                f"{stall.least:.3e} above tol={tol:.1e}")
    raise NoConvergence(f"ordered iteration did not settle in {max_iters} iterations")


@dataclass(frozen=True, eq=False)
class SteadyState:
    values: np.ndarray
    residual: float
    iterations: int
    lambda0: float


def logistic_steady_state(
    graph: WeightedGraph,
    partition: DomainPartition,
    species: int,
    d: float,
    a: float,
    e: float,
    tol: float = 1e-10,
    max_iters: int = _MAX_ITERS,
) -> SteadyState:
    """Unique positive steady state of -d Lap s = s (a - e s), zero boundary.

    Exists iff a > lambda0 * d. It is the midpoint of the one-species ordered monotone
    iteration ``_ordered_steady`` from the upper start a/e and the lower start
    max(0.5 * (a - lambda0 d)/e * phi, (a - d max beta)/e), beta = -(L_II 1) the
    interior's weight to the boundary over the measure, with -d Lap + M stored as
    ``graphs._stores_csr`` picks; its residual is at most tol, or the solve raises
    NoConvergence. d, e and tol must be positive and finite, a finite, and max_iters a
    positive integer.
    """
    d, e, tol = _positive(d, "d"), _positive(e, "e"), _positive(tol, "tol")
    a, max_iters = _as_float(a, "a"), _positive_int(max_iters, "max_iters")
    if not math.isfinite(a):
        raise InputError(f"a must be finite, got {a}")
    return _logistic_steady_state(graph, partition, species, d, a, e,
                                  smallest_dirichlet_eigenpair(graph, species, partition),
                                  tol, max_iters)


def _logistic_steady_state(graph, partition, species, d, a, e, eig: EigenPair,
                           tol: float = 1e-10, max_iters: int = _MAX_ITERS) -> SteadyState:
    """``logistic_steady_state`` given the species' Dirichlet eigenpair. The lower start is
    the pointwise max of two lower solutions, again one on a graph Laplacian: the phi start
    and the constant c = (a - d max beta)/e of ``_boundary_weight`` (the phi start alone
    when c <= 0). The positive state is unique and the start positive, so the limit is the
    phi start's."""
    (margin,), _ = _dirichlet_margins((eig,), (d,), (a,))
    if margin <= 0.0:
        raise NoPositiveState(
            f"a - lambda0*d = {margin:.6g} <= 0: only the zero state is nonnegative"
        )
    l_ii, _ = _blocks(graph, species, partition)
    floor = (a - d * _boundary_weight(l_ii).max()) / e
    start = np.array([[np.full(l_ii.shape[0], a / e),
                       np.maximum((0.5 * margin / e) * eig.phi, floor)]])
    y, run = _ordered_steady([(d, l_ii)], [(a, e, 0.0)], lambda y: y * (a - e * y), start,
                             np.array([[-1.0], [1.0]]), tol, max_iters)
    # both columns' residuals are at most tol, and the kinetics' curvature adds e gap^2 / 4
    mid = 0.5 * (y[0, 0] + y[0, 1])
    residual = float(np.max(np.abs(d * (l_ii @ mid) + mid * (a - e * mid))))
    if residual > tol:
        raise NoConvergence(f"steady midpoint residual {residual:.3e} above tol={tol:.1e}")
    return SteadyState(values=mid, residual=residual, iterations=run["iterations"],
                       lambda0=eig.lambda0)


def _logistic_states(problem: Problem, eigs, tol: float):
    """Both species' logistic steady states on an absorbing problem's interior from its
    ``eigenpairs_for`` pairs ``eigs``, None for a subcritical species. Species 2 takes species
    1's state when both have one weight structure and (d2, a2, c2) = (d1, a1, b1)."""
    p, graph, part = problem.params, problem.graph, problem.partition
    (g1, g2), _ = _dirichlet_margins(eigs, (p.d1, p.d2), (p.a1, p.a2))
    s1 = _logistic_steady_state(graph, part, 1, p.d1, p.a1, p.b1, eigs[0], tol) if g1 > 0 else None
    if _same_species(graph) and (p.d1, p.a1, p.b1) == (p.d2, p.a2, p.c2):
        return s1, s1
    return s1, (_logistic_steady_state(graph, part, 2, p.d2, p.a2, p.c2, eigs[1], tol)
                if g2 > 0 else None)


# ---------------------------------------------------------------------------
# coexistence bounds under the absorbing boundary
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CoexistenceBounds:
    """Ordered steady bounds s_lower <= u <= s_upper, r_lower <= v <= r_upper."""

    s_lower: np.ndarray
    s_upper: np.ndarray
    r_lower: np.ndarray
    r_upper: np.ndarray
    residuals: dict[str, float]
    eig1: EigenPair
    eig2: EigenPair
    epsilon: float
    delta: float
    unique: bool
    info: dict


def coexistence_bounds(
    problem: Problem,
    epsilon: float | None = None,
    delta: float | None = None,
    tol: float = 1e-8,
) -> CoexistenceBounds:
    """Steady coexistence bounds from the coupled monotone upper/lower iteration.

    Requires the absorbing boundary, both species supercritical, and the
    cross-competition smallness condition. The bounds come from the two-species
    ``_ordered_steady`` on the tightest sector the theory gives: the upper pair starts at
    (s1, max(delta phi2, c_v)) and decreases in u while increasing in v, the lower pair
    starts at (max(delta phi1, c_u), s2) and mirrors it, and both stop at residuals of at
    most tol within the logistic solves' budget of 10 000 iterations (``info["march_times"]``
    gives each pair's settling iteration). s1 is an upper solution for u against any v >= 0,
    and every coexistence state and quasi-solution has u <= s1
    (likewise v <= s2), so the upper limits are those from the paper's (1+eps) s1 and
    (1+eps) s2. With beta_k = -(L_II 1) of species k, the constants
    c_u = min_x (a1 - d1 beta1 - c1 s2)/b1 and c_v = min_x (a2 - d2 beta2 - b2 s1)/c2 on
    the interior are lower solutions against v <= s2 and u <= s1; the kinetics are
    sublinear, so every positive state in the sector lies above them, and the lower limits
    are those from delta phi too. epsilon no longer moves the upper start; it and delta
    still set the K1 caps, EpsilonTooLarge and DeltaTooLarge, and are reported. Species with
    one weight structure share their eigenpair, and also their logistic steady state when
    (d, a, e) agree. When both weight structures coincide and the collapse condition
    2 b1 s_lower > a1 - lambda0_1 d1 (and its v counterpart) holds on the lower iterates,
    the iteration also waits for the bounds' largest gap to fall to tol; they must agree
    to 10*tol and the result is flagged unique.
    """
    if problem.bc is not BoundaryCondition.DIRICHLET:
        raise InputError("coexistence bounds need the absorbing boundary condition")
    tol = _positive(tol, "tol")
    p = problem.params
    graph, part = problem.graph, problem.partition
    eig1, eig2 = eigenpairs_for(problem)
    (g1, g2), (k1, k2) = _dirichlet_margins((eig1, eig2), (p.d1, p.d2), (p.a1, p.a2),
                                            (p.b1, p.c2), (p.c1, p.b2))
    if k1 <= 0.0 or k2 <= 0.0:
        raise ConditionK1Violated(
            f"need a1 - lambda0_1 d1 > (c1/c2) a2 and a2 - lambda0_2 d2 > (b2/b1) a1; "
            f"margins are {k1:.6g} and {k2:.6g}"
        )
    # K1 puts both species above threshold, so both states exist
    s1, s2 = _logistic_states(problem, (eig1, eig2), min(tol, 1e-10))

    eps_cap = min((p.b1 / (p.a1 * p.b2)) * g2 - 1.0, (p.c2 / (p.a2 * p.c1)) * g1 - 1.0)
    epsilon = 0.5 * eps_cap if epsilon is None else _positive(epsilon, "epsilon")
    if epsilon >= eps_cap:
        raise EpsilonTooLarge(f"epsilon must be below {eps_cap:.6g}, got {epsilon:.6g}")
    big_e = (g2 - (1.0 + epsilon) * (p.a1 / p.b1) * p.b2) / p.c2
    big_f = (g1 - (1.0 + epsilon) * (p.a2 / p.c2) * p.c1) / p.b1
    delta_cap = min(big_e, big_f)
    delta = 0.5 * delta_cap if delta is None else _positive(delta, "delta")
    if delta > delta_cap:
        raise DeltaTooLarge(f"delta must be at most {delta_cap:.6g}, got {delta:.6g}")

    same_weights = _same_species(graph)    # then both species share their blocks
    l1 = _blocks(graph, 1, part)[0]
    l2 = l1 if same_weights else _blocks(graph, 2, part)[0]
    # the constant lower solutions c_u and c_v against the other species' upper start
    floor_u = np.min(p.a1 - p.d1 * _boundary_weight(l1) - p.c1 * s2.values) / p.b1
    floor_v = np.min(p.a2 - p.d2 * _boundary_weight(l2) - p.b2 * s1.values) / p.c2
    # column 0 is the upper pair (upper u, lower v) and column 1 the lower pair
    start = np.array([[s1.values, np.maximum(delta * eig1.phi, floor_u)],
                      [np.maximum(delta * eig2.phi, floor_v), s2.values]])

    def collapsed(y):
        """the collapse condition on the lower bounds s_lower = y[0, 1] and r_lower = y[1, 0]"""
        return bool(np.all(2.0 * p.b1 * y[0, 1] > g1) and np.all(2.0 * p.c2 * y[1, 0] > g2))

    y, run = _ordered_steady(((p.d1, l1), (p.d2, l2)), ((p.a1, p.b1, p.c1), (p.a2, p.c2, p.b2)),
                             lambda y, abc=_species_stack(p, 3)[:3]: _kinetics(y, *abc), start,
                             np.array([[[-1.0], [1.0]], [[1.0], [-1.0]]]), tol, _MAX_ITERS,
                             closes=collapsed if same_weights else None)
    (s_upper, s_lower), (r_lower, r_upper) = y
    unique = bool(same_weights and collapsed(y))
    if unique:
        spread_u = float(np.max(np.abs(s_upper - s_lower)))
        spread_v = float(np.max(np.abs(r_upper - r_lower)))
        if max(spread_u, spread_v) > 10.0 * tol:
            raise NoConvergence(
                f"collapse condition holds but bounds differ by {max(spread_u, spread_v):.3e}"
            )

    return CoexistenceBounds(
        s_lower=s_lower, s_upper=s_upper, r_lower=r_lower, r_upper=r_upper,
        residuals=dict(zip(("upper_u", "lower_v", "lower_u", "upper_v"),
                           run["residuals"].T.ravel().tolist())),
        eig1=eig1, eig2=eig2, epsilon=float(epsilon), delta=float(delta), unique=unique,
        info={
            "k1_margins": (k1, k2), "epsilon_cap": eps_cap, "delta_cap": delta_cap,
            "march_times": run["times"], "march_iterations": run["iterations"],
            "march_gaps": run["gaps"],
            "s1_iterations": s1.iterations, "s2_iterations": s2.iterations,
        },
    )


# ---------------------------------------------------------------------------
# monotone parabolic solver
# ---------------------------------------------------------------------------

def _sweep(steps, grid_h, g_samples, y0):
    """March the linear sweep: y' = A y + g(t), g piecewise linear on the grid.

    ``steps`` lists ((propagate, force), indices) for each distinct fine step length, as
    ``_propagator`` gives them. ``g_samples`` has shape (k, T, n), k independent right-hand
    sides integrated at once from the k columns of ``y0``, and so has the result. Every
    step's forcing is known up front, so the integrals F_i = Phi1 g_i + Phi2 gdot_i are
    formed for all steps of one length together, from the uniformization powers with no
    linear solve; only y <- expm(A h) y + F_i runs step by step.
    """
    k, t_count, n = g_samples.shape
    gdot = np.diff(g_samples, axis=1) / grid_h[:, None]
    forcing = np.empty((t_count - 1, n, k))
    step_prop = [None] * (t_count - 1)
    for (propagate, force), idx in steps:
        # (n, k * steps) in C order, which the Horner sums stream over
        g, slope = (np.ascontiguousarray(np.take(x, idx, axis=1).reshape(-1, n).T)
                    for x in (g_samples, gdot))
        forcing[idx] = force(g, slope).reshape(n, k, idx.size).transpose(2, 0, 1)
        for i in idx:
            step_prop[i] = propagate
    out = np.empty_like(g_samples)
    y = y0
    out[:, 0] = y.T
    for i in range(t_count - 1):
        y = step_prop[i](y) + forcing[i]
        out[:, i + 1] = y.T
    return out


def monotone_solve(
    problem: Problem,
    pair: OrderedPair,
    initial,
    t_grid: np.ndarray,
    m_const: float | None = None,
    tol: float = 1e-8,
    substep: float | None = None,
    max_iters: int = 500,
) -> Trajectory:
    """Solve the competition system by monotone Picard sweeps.

    Starting from a verified coupled pair, each iteration solves four
    linear parabolic problems (upper u with lower v frozen, and the
    three mirrored ones) with exponential propagators on a fine uniform
    grid; the sweeps squeeze monotonically onto the solution. The shift M,
    positive and finite when given, defaults to the larger species'
    kinetics slope bound, which may be 0, over the upper fields' range on the closure at
    the ``t_grid`` points and on the active vertices at the fine points
    between them (a pair's values off the closure take no part); too
    small an M breaks the monotone squeeze and is reported as
    NoConvergence, and so is a non-finite iterate. Returns the common
    limit sampled at ``t_grid``, with iteration diagnostics (including the
    worst sandwich slack) in the metadata, with the gap after each
    iteration in ``gaps``. The propagator expm((d L - M I) h) is e^(-M h)
    times the uniformization series of d L, entrywise nonnegative at
    every truncation, and the forcing integrals are sums of the same
    powers with nonnegative Poisson-tail weights, formed for every fine
    step at once with no linear solve. Operators
    keep the storage ``graphs._stores_csr`` picks, so large
    sparse graphs form no n x n matrix. More than 2**20 fine points times
    active vertices raise InputError.
    """
    t_grid = _time_grid(t_grid, "t_grid")
    if substep is not None:
        substep = _positive(substep, "substep")
    if m_const is not None:
        m_const = _positive(m_const, "m_const")
    tol, max_iters = _positive(tol, "tol"), _positive_int(max_iters, "max_iters")
    if t_grid.size < 2 or np.any(np.diff(t_grid) <= 0):
        raise InputError("t_grid must be a finite increasing array with at least two times")
    if abs(float(t_grid[0]) - pair.t0) > 1e-12:
        raise InputError("t_grid must start at the pair's t0")
    act = problem.active_idx
    spans = np.diff(t_grid)
    counts = np.ones(spans.size) if substep is None else np.maximum(1.0, np.ceil(spans / substep))
    if (1.0 + counts.sum()) * act.size > _MONOTONE_MAX_FINE:
        raise InputError(f"{1.0 + counts.sum():.3g} fine points times {act.size} active vertices "
                         f"exceed the cap of {_MONOTONE_MAX_FINE}; use a coarser substep")
    counts = counts.astype(np.int64)

    report = verify_coupled_pair(problem, pair, t_grid, initial=initial)
    if not report.passed:
        name, slack = report.worst()
        raise PairInvalid(f"pair fails {name} with slack {slack:.3e}")

    p = problem.params
    ops = reduced_operators(problem)
    n = problem.graph.n

    fine = np.concatenate([t_grid[:1]] + [t_a + span * np.arange(1, k + 1) / k
                                          for t_a, span, k in zip(t_grid, spans, counts)])
    grid_index = np.concatenate([[0], np.cumsum(counts)])
    grid_h = np.diff(fine)

    y0 = np.repeat(_coerce_initial(problem, initial)[:, act].T, 2, axis=1)
    # the iterates as one (4, T, n_act) array on the fine grid: upper u, lower u, upper v
    # and lower v, so that u's sweep takes rows 0-1 and v's 2-3 (all four when shared)
    cols = np.array([_tf_samples(tf.value, fine, n, act) for tf in _pair_fields(pair)])

    if m_const is None:
        # the upper fields' range: the closure at t_grid, where the pair is verified, and
        # the fine points swept on; values off the closure take no part
        m_u, m_v = (max(float(_tf_samples(tf.value, t_grid, n, problem.closure_idx).max()),
                        float(cols[j].max()))
                    for tf, j in ((pair.u_upper, 0), (pair.v_upper, 2)))
        m_const = max(_shift(p.a1, p.b1, p.c1, m_u, m_v), _shift(p.a2, p.c2, p.b2, m_v, m_u))

    # fine steps of one length share a propagator
    by_length: dict[float, list[int]] = {}
    for i, h in enumerate(grid_h.tolist()):
        by_length.setdefault(round(h, 15), []).append(i)
    lengths = [(float(grid_h[idx[0]]), np.array(idx)) for idx in by_length.values()]

    # species with one operator (same weights and measures) and one diffusion coefficient
    # share one sweep
    shared = ops.red1 is ops.red2 and p.d1 == p.d2
    groups = ([(p.d1, ops.red1, slice(0, 4))] if shared
              else [(p.d1, ops.red1, slice(0, 2)), (p.d2, ops.red2, slice(2, 4))])
    sweeps = [([(_propagator(d * red, m_const, h), idx) for h, idx in lengths], rows)
              for d, red, rows in groups]

    min_slack, gap, gaps = np.inf, np.inf, []
    for iterations in range(1, max_iters + 1):
        g = _paired_kinetics(p, cols) + m_const * cols
        new = np.concatenate([_sweep(steps, grid_h, g[rows], y0[:, rows])
                              for steps, rows in sweeps])
        slack = float(np.min([((cols - new) * _PAIR_SIGNS).min(), (new[::2] - new[1::2]).min()]))
        if not math.isfinite(slack):    # a NaN would pass the sandwich check below
            raise NoConvergence(f"sweep {iterations} gave a non-finite iterate; the shift "
                                f"M={m_const:.6g} or the pair is beyond floating point")
        min_slack = min(min_slack, slack)
        if slack < -_ORDER_SLACK:
            raise NoConvergence(f"monotone sandwich violated by {slack:.3e} at iteration "
                                f"{iterations}; the shift M={m_const:.6g} may be below the "
                                f"kinetics' slope bound, or the pair may fail its inequalities "
                                f"between the t_grid points, where it is not verified")
        cols = new
        gap = float(np.max(cols[::2] - cols[1::2]))
        gaps.append(gap)
        if gap < tol:
            break
    else:
        raise NoConvergence(f"sweeps did not close the gap below {tol:.1e} "
                            f"in {max_iters} iterations (gap {gap:.3e})")

    # the midpoint pair at each t_grid point, (2, n_act) blocks on a leading axis
    mid = (0.5 * (cols[::2, grid_index] + cols[1::2, grid_index])).transpose(1, 0, 2)
    return Trajectory(times=t_grid.copy(), states=[_materialize(problem, y, ops) for y in mid],
                      metadata={"iterations": iterations, "gap": gap, "gaps": gaps,
                                "m_const": m_const, "min_sandwich_slack": min_slack,
                                "n_fine": int(fine.size)})
