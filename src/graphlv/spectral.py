"""Smallest Dirichlet eigenvalue of the subgraph Laplacian.

The operator -Laplacian with zero boundary data is self-adjoint in the
mu-weighted inner product, so conjugating by diag(sqrt(mu)) gives a
symmetric positive definite matrix whose extreme eigenpair is safe to
chase with inverse power iteration. The returned eigenvector is the
positive principal one, normalized to max = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import EmptyBoundary, NoConvergence
from .graphs import DomainPartition, WeightedGraph, dirichlet_blocks


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Smallest eigenvalue with its positive eigenvector on the interior."""

    lambda0: float
    phi: np.ndarray
    residual: float


def smallest_dirichlet_eigenpair(
    graph: WeightedGraph,
    species: int,
    partition: DomainPartition,
    tol: float = 1e-10,
    max_iters: int = 10_000,
) -> EigenPair:
    """Solve -Lap_Omega phi = lambda0 phi with phi = 0 on the boundary.

    Inverse power iteration on the symmetrized interior matrix, then a
    shifted refinement pass: once the Rayleigh quotient has settled, the
    residual norm bounds the distance to the true eigenvalue, so a shift
    just below it keeps the matrix positive definite while making the
    contraction ratio tiny. The final eigenvalue is the mu-weighted
    Rayleigh quotient of the de-symmetrized vector and the residual is
    measured on the original (nonsymmetric) operator.
    """
    if len(partition.boundary) == 0:
        raise EmptyBoundary("Dirichlet eigenproblem needs a nonempty boundary")
    l_ii, _ = dirichlet_blocks(graph, species, partition)
    a = -l_ii
    mu = graph.measure(species)[partition.interior_idx]
    root = np.sqrt(mu)
    sym = a * root[:, None] / root[None, :]
    sym = 0.5 * (sym + sym.T)
    m = sym.shape[0]
    try:
        cho = scipy.linalg.cho_factor(sym)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"interior operator is not positive definite: {exc}") from exc

    gate = max(tol, 1e-13)
    x = np.full(m, 1.0 / np.sqrt(m))
    lam = np.inf
    res = np.inf
    iters_left = max_iters
    for _ in range(max_iters):
        iters_left -= 1
        y = scipy.linalg.cho_solve(cho, x)
        y /= np.linalg.norm(y)
        lam_new = float(y @ sym @ y)
        x = y
        res = float(np.linalg.norm(sym @ y - lam_new * y))
        settled = abs(lam_new - lam) < 1e-4 * max(1.0, abs(lam_new))
        lam = lam_new
        if res <= 0.1 * gate * max(1.0, lam):
            break
        if settled:
            break
    else:
        raise NoConvergence(f"inverse power iteration did not converge in {max_iters} iterations")

    while res > 0.1 * gate * max(1.0, lam) and iters_left > 0:
        # |lam - lambda0| <= res for symmetric matrices, so this shift
        # sits strictly below lambda0 and S - shift*I stays SPD.
        shift = lam - 2.0 * res - 1e-13 * max(1.0, lam)
        try:
            cho_shift = scipy.linalg.cho_factor(sym - shift * np.eye(m))
        except np.linalg.LinAlgError:
            shift = lam - 4.0 * res - 1e-10 * max(1.0, lam)
            cho_shift = scipy.linalg.cho_factor(sym - shift * np.eye(m))
        while iters_left > 0:
            iters_left -= 1
            y = scipy.linalg.cho_solve(cho_shift, x)
            y /= np.linalg.norm(y)
            lam = float(y @ sym @ y)
            x = y
            res_new = float(np.linalg.norm(sym @ y - lam * y))
            if res_new <= 0.1 * gate * max(1.0, lam) or res_new >= 0.5 * res:
                res = res_new
                break
            res = res_new
    if res > gate * max(1.0, lam):
        raise NoConvergence(f"eigen residual {res:.3e} above tolerance after refinement")

    phi = x / root
    if phi[np.argmax(np.abs(phi))] < 0:
        phi = -phi
    if not np.all(phi > 0):
        raise NoConvergence(
            "principal eigenvector must be strictly positive on a connected interior"
        )
    phi = phi / phi.max()
    lam = float((phi @ (mu * (a @ phi))) / (phi @ (mu * phi)))
    residual = float(np.max(np.abs(a @ phi - lam * phi)))
    if residual > max(tol, 1e-12) * max(1.0, lam):
        raise NoConvergence(f"eigen residual {residual:.3e} above tolerance")
    return EigenPair(lambda0=lam, phi=phi, residual=residual)
