"""The public API, pinned: adding or removing a name is an edit of this list."""

import graphlv

PUBLIC_API = [
    "BoundaryCondition",
    "Certificate",
    "CoexistenceBounds",
    "CoexistencePoint",
    "CompetitionParams",
    "DomainMode",
    "DomainPartition",
    "EigenPair",
    "FieldPair",
    "GraphLVError",
    "InputError",
    "LinearCoupledSystem",
    "MaxPrincipleReport",
    "NumericalError",
    "OrderedPair",
    "PairReport",
    "PredictedLimit",
    "Problem",
    "Regime",
    "RegimeKind",
    "SteadyState",
    "TimeField",
    "Trajectory",
    "WeightedGraph",
    "analytic_envelopes",
    "boundary_of",
    "build_graph",
    "classify_bistable_basin",
    "classify_dirichlet",
    "classify_neumann",
    "coexistence_bounds",
    "coexistence_point",
    "constant_pair",
    "dirichlet_blocks",
    "eigenpairs_for",
    "field_array",
    "integrate",
    "invariant_rectangle",
    "laplacian_apply",
    "logistic_steady_state",
    "maximum_principle_check",
    "monotone_solve",
    "neumann_project",
    "normal_derivative",
    "pair_from_trajectory",
    "predicted_limit",
    "reaction",
    "sample_times",
    "smallest_dirichlet_eigenpair",
    "stable_dt",
    "verify_coupled_pair",
    "whole_laplacian",
]


def test_public_api_is_pinned():
    assert sorted(graphlv.__all__) == PUBLIC_API
    assert len(PUBLIC_API) == len(set(PUBLIC_API)) == 52
    missing = [name for name in PUBLIC_API if not hasattr(graphlv, name)]
    assert not missing, f"names in __all__ that graphlv does not define: {missing}"
