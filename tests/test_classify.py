"""Regime classification for reflecting, whole-graph, and absorbing problems."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlv import (
    BoundaryCondition,
    CompetitionParams,
    EigenPair,
    Problem,
    RegimeKind,
    classify_bistable_basin,
    classify_dirichlet,
    classify_neumann,
    coexistence_point,
    eigenpairs_for,
    predicted_limit,
)
from graphlv.errors import DegenerateTriangle, InputError, NoPositiveState, RequiresSteadySolve

# the four reference parameter sets used throughout
SET_I = CompetitionParams(a1=1.0, b1=2.0, c1=2.0, a2=1.0, b2=1.0, c2=1.0)
SET_II = CompetitionParams(a1=2.0, b1=1.0, c1=1.0, a2=1.0, b2=1.0, c2=2.0)
SET_III = CompetitionParams(a1=2.0, b1=1.0, c1=1.0, a2=3.0, b2=1.0, c2=2.0)
SET_IV = CompetitionParams(a1=2.0, b1=1.0, c1=3.0, a2=1.0, b2=1.0, c2=1.0)

positive = st.floats(0.05, 20.0, allow_nan=False, allow_infinity=False)


class TestCoexistencePoint:
    def test_reference_values(self):
        pt = coexistence_point(SET_III)
        assert pt.xi == pytest.approx(1.0) and pt.eta == pytest.approx(1.0)
        pt = coexistence_point(SET_IV)
        assert pt.xi == pytest.approx(0.5) and pt.eta == pytest.approx(0.5)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateTriangle):
            coexistence_point(
                CompetitionParams(a1=1.0, b1=2.0, c1=1.0, a2=1.0, b2=4.0, c2=2.0)
            )


class TestNeumannRegimes:
    def test_reference_sets(self):
        r = classify_neumann(SET_I)
        assert r.kind is RegimeKind.V_WINS
        assert (r.predicted.u, r.predicted.v) == (0.0, 1.0)

        r = classify_neumann(SET_II)
        assert r.kind is RegimeKind.U_WINS
        assert (r.predicted.u, r.predicted.v) == (2.0, 0.0)

        r = classify_neumann(SET_III)
        assert r.kind is RegimeKind.COEXIST
        assert (r.predicted.u, r.predicted.v) == (1.0, 1.0)

        r = classify_neumann(SET_IV)
        assert r.kind is RegimeKind.BISTABLE
        assert r.predicted is None

    def test_equality_is_unresolved(self):
        r = classify_neumann(
            CompetitionParams(a1=2.0, b1=2.0, c1=3.0, a2=1.0, b2=1.0, c2=1.0)
        )
        assert r.kind is RegimeKind.UNRESOLVED

    def test_margin_accessor(self):
        r = classify_neumann(SET_I)
        assert r.margin("a1/a2 - b1/b2") == pytest.approx(1.0 - 2.0)
        with pytest.raises(KeyError):
            r.margin("no such certificate")

    @settings(max_examples=60, deadline=None)
    @given(a1=positive, b1=positive, c1=positive, a2=positive, b2=positive, c2=positive)
    def test_species_swap_symmetry(self, a1, b1, c1, a2, b2, c2):
        params = CompetitionParams(a1=a1, b1=b1, c1=c1, a2=a2, b2=b2, c2=c2)
        swapped = CompetitionParams(a1=a2, b1=c2, c1=b2, a2=a1, b2=c1, c2=b1)
        kind = classify_neumann(params).kind
        mirror = classify_neumann(swapped).kind
        table = {
            RegimeKind.U_WINS: RegimeKind.V_WINS,
            RegimeKind.V_WINS: RegimeKind.U_WINS,
            RegimeKind.COEXIST: RegimeKind.COEXIST,
            RegimeKind.BISTABLE: RegimeKind.BISTABLE,
            RegimeKind.UNRESOLVED: RegimeKind.UNRESOLVED,
        }
        assert mirror is table[kind]


class TestBistableBasins:
    def test_u_side_box(self):
        r = classify_bistable_basin(
            SET_IV, (np.array([0.6, 1.1, 1.8]), np.array([0.1, 0.3, 0.45]))
        )
        assert r.kind is RegimeKind.U_WINS
        assert (r.predicted.u, r.predicted.v) == (2.0, 0.0)

    def test_v_side_box(self):
        r = classify_bistable_basin(
            SET_IV, (np.array([0.1, 0.3, 0.4]), np.array([0.6, 0.78, 0.9]))
        )
        assert r.kind is RegimeKind.V_WINS
        assert (r.predicted.u, r.predicted.v) == (0.0, 1.0)

    def test_straddling_data_unresolved(self):
        # u0 crosses xi = 0.5, so neither box applies
        r = classify_bistable_basin(
            SET_IV, (np.array([0.4, 0.6]), np.array([0.1, 0.1]))
        )
        assert r.kind is RegimeKind.UNRESOLVED

    def test_rejects_non_bistable_parameters(self):
        with pytest.raises(InputError):
            classify_bistable_basin(SET_I, (np.ones(3), np.ones(3)))


def synthetic_pair(lam: float) -> EigenPair:
    return EigenPair(lambda0=lam, phi=np.ones(1), residual=0.0)


class TestDirichletRegimes:
    def test_both_extinct(self):
        p = CompetitionParams(a1=0.1, b1=1.0, c1=1.0, a2=0.1, b2=1.0, c2=1.0)
        r = classify_dirichlet(p, synthetic_pair(0.5), synthetic_pair(0.5))
        assert r.kind is RegimeKind.BOTH_EXTINCT
        assert (r.predicted.u, r.predicted.v) == (0.0, 0.0)

    def test_semitrivial_branches(self):
        p = CompetitionParams(a1=1.0, b1=1.0, c1=1.0, a2=0.1, b2=1.0, c2=1.0)
        r = classify_dirichlet(p, synthetic_pair(0.5), synthetic_pair(0.5))
        assert r.kind is RegimeKind.SEMITRIVIAL_U
        assert r.predicted.kind == "logistic-u" and r.predicted.v == 0.0

        p = CompetitionParams(a1=0.1, b1=1.0, c1=1.0, a2=1.0, b2=1.0, c2=1.0)
        r = classify_dirichlet(p, synthetic_pair(0.5), synthetic_pair(0.5))
        assert r.kind is RegimeKind.SEMITRIVIAL_V

    def test_coexistence_bounds_condition(self):
        p = CompetitionParams(
            a1=2.0, b1=1.0, c1=0.05, a2=2.0, b2=0.05, c2=1.0, d1=0.1, d2=0.1
        )
        lam = (5.0 - np.sqrt(13.0)) / 6.0
        r = classify_dirichlet(p, synthetic_pair(lam), synthetic_pair(lam))
        assert r.kind is RegimeKind.COEXIST_BOUNDS
        want = 2.0 - lam * 0.1 - 0.05 * 2.0
        assert r.margin("a1 - lambda0_1*d1 - (c1/c2)*a2") == pytest.approx(want)

    def test_supercritical_without_smallness_unresolved(self):
        p = CompetitionParams(a1=1.0, b1=1.0, c1=1.0, a2=1.0, b2=1.0, c2=1.0)
        r = classify_dirichlet(p, synthetic_pair(0.5), synthetic_pair(0.5))
        assert r.kind is RegimeKind.UNRESOLVED
        assert r.predicted is None

    def test_threshold_is_sharp(self):
        base = dict(b1=1.0, c1=1.0, b2=1.0, c2=1.0, a2=0.1)
        at = CompetitionParams(a1=0.5, **base)
        above = CompetitionParams(a1=0.5 + 1e-12, **base)
        r_at = classify_dirichlet(at, synthetic_pair(0.5), synthetic_pair(0.5))
        r_above = classify_dirichlet(above, synthetic_pair(0.5), synthetic_pair(0.5))
        assert r_at.kind is RegimeKind.BOTH_EXTINCT
        assert r_above.kind is RegimeKind.SEMITRIVIAL_U


class TestPredictedLimit:
    def test_constant_fills_closure(self, reflecting):
        graph, part = reflecting
        prob = Problem(graph, SET_I, bc=BoundaryCondition.NEUMANN, partition=part)
        state = predicted_limit(classify_neumann(SET_I), prob)
        assert np.allclose(state.u, 0.0)
        assert np.allclose(state.v, 1.0)

    def test_bistable_has_no_single_limit(self, triangle):
        prob = Problem(triangle, SET_IV)
        with pytest.raises(InputError):
            predicted_limit(classify_neumann(SET_IV), prob)

    def test_bounds_require_solve(self, reflecting):
        graph, part = reflecting
        p = CompetitionParams(
            a1=2.0, b1=1.0, c1=0.05, a2=2.0, b2=0.05, c2=1.0, d1=0.1, d2=0.1
        )
        prob = Problem(graph, p, bc=BoundaryCondition.DIRICHLET, partition=part)
        regime = classify_dirichlet(p, *eigenpairs_for(prob))
        with pytest.raises(RequiresSteadySolve):
            predicted_limit(regime, prob)

    def test_semitrivial_solves_logistic_profile(self, reflecting):
        graph, part = reflecting
        p = CompetitionParams(a1=1.0, b1=1.0, c1=1.0, a2=0.1, b2=1.0, c2=1.0)
        prob = Problem(graph, p, bc=BoundaryCondition.DIRICHLET, partition=part)
        regime = classify_dirichlet(p, *eigenpairs_for(prob))
        assert regime.kind is RegimeKind.SEMITRIVIAL_U
        state = predicted_limit(regime, prob)
        assert np.allclose(state.v, 0.0)
        assert np.all(state.u[part.interior_idx] > 0.0)
        assert np.all(state.u[part.boundary_idx] == 0.0)
        # profile solves -d*Lap u = u(a - b*u) on the interior
        from graphlv import dirichlet_blocks

        l_ii, _ = dirichlet_blocks(graph, 1, part)
        ui = state.u[part.interior_idx]
        res = -p.d1 * (l_ii @ ui) - ui * (p.a1 - p.b1 * ui)
        assert np.linalg.norm(res, ord=np.inf) <= 1e-8

    def test_semitrivial_species_must_persist_on_the_problem(self, reflecting):
        """A semitrivial regime read from other parameters may name a species that dies out
        on the problem passed: it has no logistic profile there, and the call says so."""
        graph, part = reflecting
        p = CompetitionParams(a1=1.0, b1=1.0, c1=1.0, a2=0.1, b2=1.0, c2=1.0)
        prob = Problem(graph, p, bc=BoundaryCondition.DIRICHLET, partition=part)
        regime = classify_dirichlet(p, *eigenpairs_for(prob))
        dying = dataclasses.replace(prob, params=dataclasses.replace(p, a1=0.1))
        with pytest.raises(NoPositiveState):
            predicted_limit(regime, dying)

    def test_semitrivial_needs_absorbing_problem(self, reflecting):
        graph, part = reflecting
        p = CompetitionParams(a1=1.0, b1=1.0, c1=1.0, a2=0.1, b2=1.0, c2=1.0)
        regime = classify_dirichlet(p, synthetic_pair(0.23), synthetic_pair(0.23))
        neumann = Problem(graph, p, bc=BoundaryCondition.NEUMANN, partition=part)
        with pytest.raises(RequiresSteadySolve):
            predicted_limit(regime, neumann)


def test_eigenpairs_need_partition(triangle):
    prob = Problem(triangle, SET_I)
    with pytest.raises(InputError):
        eigenpairs_for(prob)
