"""Long-time regime classification from parameter inequalities.

The reflecting-boundary and whole-graph systems share one classification
(the ratio a1/a2 against b1/b2 and c1/c2); the Dirichlet system is
classified against the spectral thresholds lambda0_i * d_i and, when
both species are supercritical, a smallness condition on the cross
competition. Every branch reports its signed margins so callers can
judge how decisive the classification is.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .dynamics import BoundaryCondition, CompetitionParams, Problem, _materialize, _state_extrema
from .errors import DegenerateTriangle, InputError, RequiresSteadySolve
from .graphs import _same_species
from .spectral import EigenPair, smallest_dirichlet_eigenpair


class RegimeKind(enum.Enum):
    U_WINS = "u-wins"
    V_WINS = "v-wins"
    COEXIST = "coexist"
    BISTABLE = "bistable"
    BOTH_EXTINCT = "both-extinct"
    SEMITRIVIAL_U = "semitrivial-u"
    SEMITRIVIAL_V = "semitrivial-v"
    COEXIST_BOUNDS = "coexist-bounds"
    UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class CoexistencePoint:
    xi: float
    eta: float
    determinant: float


@dataclass(frozen=True)
class Certificate:
    """One inequality underlying a classification, with its signed margin."""

    name: str
    margin: float
    satisfied: bool


@dataclass(frozen=True, eq=False)
class PredictedLimit:
    """Constant limits carry both values; profile limits carry the zero side."""

    kind: str
    u: float | None = None
    v: float | None = None


@dataclass(frozen=True, eq=False)
class Regime:
    kind: RegimeKind
    certificates: tuple[Certificate, ...]
    predicted: PredictedLimit | None

    def margin(self, name: str) -> float:
        for cert in self.certificates:
            if cert.name == name:
                return cert.margin
        raise KeyError(name)


def coexistence_point(params: CompetitionParams) -> CoexistencePoint:
    """Interior equilibrium of the reaction kinetics, when it exists."""
    det = params.b1 * params.c2 - params.b2 * params.c1
    if det == 0.0:
        raise DegenerateTriangle("b1*c2 - b2*c1 = 0, no isolated interior equilibrium")
    xi = (params.a1 * params.c2 - params.a2 * params.c1) / det
    eta = (params.a2 * params.b1 - params.a1 * params.b2) / det
    return CoexistencePoint(xi=xi, eta=eta, determinant=det)


def classify_neumann(params: CompetitionParams) -> Regime:
    """Classify reflecting-boundary (and whole-graph) dynamics.

    Branches on a1/a2 against b1/b2 and c1/c2; any exact equality is
    Unresolved because the underlying inequalities are strict.
    """
    ra = params.a1 / params.a2
    rb = params.b1 / params.b2
    rc = params.c1 / params.c2
    certs = (
        Certificate("a1/a2 - b1/b2", ra - rb, ra != rb),
        Certificate("a1/a2 - c1/c2", ra - rc, ra != rc),
    )
    if ra == rb or ra == rc:
        return Regime(RegimeKind.UNRESOLVED, certs, None)
    if ra < rb and ra < rc:
        return Regime(
            RegimeKind.V_WINS, certs, PredictedLimit("constant", 0.0, params.a2 / params.c2)
        )
    if ra > rb and ra > rc:
        return Regime(
            RegimeKind.U_WINS, certs, PredictedLimit("constant", params.a1 / params.b1, 0.0)
        )
    if rc < ra < rb:
        point = coexistence_point(params)
        return Regime(RegimeKind.COEXIST, certs, PredictedLimit("constant", point.xi, point.eta))
    return Regime(RegimeKind.BISTABLE, certs, None)


def classify_bistable_basin(params: CompetitionParams, initial) -> Regime:
    """Resolve a bistable regime using the initial-data basin boxes.

    The u-wins box is xi < u0 < a1/b1 with 0 < v0 < eta everywhere; the
    v-wins box mirrors it. Initial data straddling either box stays
    Unresolved.
    """
    base = classify_neumann(params)
    if base.kind is not RegimeKind.BISTABLE:
        raise InputError(f"parameters are not bistable (got {base.kind.value})")
    point = coexistence_point(params)
    min_u, max_u, min_v, max_v = _state_extrema(initial)
    u_box = (
        Certificate("min u0 - xi", float(min_u - point.xi), bool(min_u > point.xi)),
        Certificate("a1/b1 - max u0", float(params.a1 / params.b1 - max_u),
                    bool(max_u < params.a1 / params.b1)),
        Certificate("min v0", min_v, min_v > 0.0),
        Certificate("eta - max v0", float(point.eta - max_v), bool(max_v < point.eta)),
    )
    v_box = (
        Certificate("min u0", min_u, min_u > 0.0),
        Certificate("xi - max u0", float(point.xi - max_u), bool(max_u < point.xi)),
        Certificate("min v0 - eta", float(min_v - point.eta), bool(min_v > point.eta)),
        Certificate("a2/c2 - max v0", float(params.a2 / params.c2 - max_v),
                    bool(max_v < params.a2 / params.c2)),
    )
    if all(c.satisfied for c in u_box):
        return Regime(
            RegimeKind.U_WINS, base.certificates + u_box,
            PredictedLimit("constant", params.a1 / params.b1, 0.0),
        )
    if all(c.satisfied for c in v_box):
        return Regime(
            RegimeKind.V_WINS, base.certificates + v_box,
            PredictedLimit("constant", 0.0, params.a2 / params.c2),
        )
    return Regime(RegimeKind.UNRESOLVED, base.certificates + u_box + v_box, None)


def classify_dirichlet(
    params: CompetitionParams, eig1: EigenPair, eig2: EigenPair
) -> Regime:
    """Classify absorbing-boundary dynamics against spectral thresholds.

    Growth at or below the threshold (a_i <= lambda0_i * d_i) counts as
    subcritical and that species dies out. Both supercritical plus the
    cross-competition smallness condition yields coexistence bounds;
    both supercritical without it stays Unresolved.
    """
    g1 = params.a1 - eig1.lambda0 * params.d1
    g2 = params.a2 - eig2.lambda0 * params.d2
    certs = [
        Certificate("a1 - lambda0_1*d1", g1, g1 > 0.0),
        Certificate("a2 - lambda0_2*d2", g2, g2 > 0.0),
    ]
    if g1 <= 0.0 and g2 <= 0.0:
        return Regime(RegimeKind.BOTH_EXTINCT, tuple(certs), PredictedLimit("constant", 0.0, 0.0))
    if g1 > 0.0 and g2 <= 0.0:
        return Regime(RegimeKind.SEMITRIVIAL_U, tuple(certs), PredictedLimit("logistic-u", None, 0.0))
    if g1 <= 0.0 and g2 > 0.0:
        return Regime(RegimeKind.SEMITRIVIAL_V, tuple(certs), PredictedLimit("logistic-v", 0.0, None))
    k1 = g1 - (params.c1 / params.c2) * params.a2
    k2 = g2 - (params.b2 / params.b1) * params.a1
    certs += [
        Certificate("a1 - lambda0_1*d1 - (c1/c2)*a2", k1, k1 > 0.0),
        Certificate("a2 - lambda0_2*d2 - (b2/b1)*a1", k2, k2 > 0.0),
    ]
    if k1 > 0.0 and k2 > 0.0:
        return Regime(RegimeKind.COEXIST_BOUNDS, tuple(certs), PredictedLimit("bounds"))
    return Regime(RegimeKind.UNRESOLVED, tuple(certs), None)


def predicted_limit(regime: Regime, problem: Problem, bounds=None):
    """Materialize the regime's predicted limit on the problem's vertices.

    Constant limits are that constant on the active vertices with a
    reflecting boundary projected from them, as trajectory states are (so
    equal to it there up to rounding); semitrivial limits solve the scalar
    logistic steady state on the interior. Coexistence bounds must be
    passed in (they are a solve of their own); bistable and unresolved
    regimes have no single limit.
    """
    if regime.predicted is None:
        raise InputError(f"regime {regime.kind.value} does not predict a single limit")
    kind = regime.predicted.kind
    if kind == "constant":
        values = (regime.predicted.u, regime.predicted.v)
        return _materialize(problem, np.outer(values, np.ones(problem.active_idx.size)))
    if kind == "bounds":
        if bounds is None:
            raise RequiresSteadySolve("coexistence bounds were not supplied")
        return bounds
    if kind in ("logistic-u", "logistic-v"):
        if problem.bc is not BoundaryCondition.DIRICHLET or problem.partition is None:
            raise RequiresSteadySolve("semitrivial limits need an absorbing-boundary problem")
        from .monotone import logistic_steady_state

        p = problem.params
        if kind == "logistic-u":
            species, d, a, e = 1, p.d1, p.a1, p.b1
        else:
            species, d, a, e = 2, p.d2, p.a2, p.c2
        state = logistic_steady_state(problem.graph, problem.partition, species, d=d, a=a, e=e)
        pair = np.zeros((2, state.values.size))
        pair[species - 1] = state.values
        return _materialize(problem, pair)
    raise InputError(f"unknown predicted-limit kind {kind!r}")


def _shared_solves(problem: Problem) -> tuple[bool, bool]:
    """Whether species 2 may take species 1's Dirichlet eigenpair, which holds when both
    species have one weight structure, and also its logistic steady state, which needs
    (d2, a2, c2) = (d1, a1, b1) as well: the solves would repeat bit for bit."""
    p = problem.params
    eigen = _same_species(problem.graph)
    return eigen, eigen and (p.d1, p.a1, p.b1) == (p.d2, p.a2, p.c2)


def eigenpairs_for(problem: Problem) -> tuple[EigenPair, EigenPair]:
    """Both species' smallest Dirichlet eigenpairs for a partitioned problem, solved once
    when both species have one weight structure."""
    if problem.partition is None:
        raise InputError("eigenpairs need a partitioned problem")
    eig1 = smallest_dirichlet_eigenpair(problem.graph, 1, problem.partition)
    if _shared_solves(problem)[0]:
        return eig1, eig1
    return eig1, smallest_dirichlet_eigenpair(problem.graph, 2, problem.partition)
