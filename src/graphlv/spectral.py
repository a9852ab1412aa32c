"""Smallest Dirichlet eigenvalue of the subgraph Laplacian.

The operator -Laplacian with zero boundary data is self-adjoint in the
mu-weighted inner product, so conjugating by diag(sqrt(mu)) gives a
symmetric positive definite matrix. Its smallest eigenpair comes from one
library call on the interior block, stored as the graph storage rule
picks: LAPACK's MRRR ``eigh`` on a dense block, ARPACK shift-invert
``eigsh`` at sigma = 0 on a CSR one, whose inverse is the SuperLU
factorization of ``graphs._sparse_lu``. The returned eigenvector is the
positive principal one, normalized to max = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBoundary, NoConvergence
from .graphs import DomainPartition, WeightedGraph, _blocks, _positive, _sparse_lu


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
) -> EigenPair:
    """Solve -Lap_Omega phi = lambda0 phi with phi = 0 on the boundary.

    The symmetrized interior matrix goes to ``scipy.linalg.eigh`` for its
    lowest eigenpair when the block is dense, and to
    ``scipy.sparse.linalg.eigsh`` in shift-invert mode about 0, inverting
    by ``graphs._sparse_lu``, when it is CSR, started from sqrt(mu) (the
    symmetrized constant field) so that repeated solves are bit-identical. The final eigenvalue is the
    mu-weighted Rayleigh quotient of the de-symmetrized vector, and the
    residual, measured on the original (nonsymmetric) operator, must be
    within max(tol, 1e-12) * max(1, lambda0).
    """
    tol = _positive(tol, "tol")
    if len(partition.boundary) == 0:
        raise EmptyBoundary("Dirichlet eigenproblem needs a nonempty boundary")
    l_ii, _ = _blocks(graph, species, partition)
    a = -l_ii
    mu = graph.measure(species)[partition.interior_idx]
    root = np.sqrt(mu)
    sym = a * root[:, None] / root[None, :]
    sym = 0.5 * (sym + sym.T)
    try:
        if isinstance(sym, np.ndarray):
            import scipy.linalg    # late: a process that solves no eigenproblem never loads it

            lams, vecs = scipy.linalg.eigh(sym, subset_by_index=[0, 0])
        else:
            from scipy.sparse.linalg import LinearOperator, eigsh    # late: dense runs skip it

            inverse = LinearOperator(sym.shape, matvec=_sparse_lu(sym).solve, dtype=float)
            lams, vecs = eigsh(sym, k=1, sigma=0, which="LM", v0=root, OPinv=inverse)
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        raise NoConvergence(f"interior eigen solve failed: {exc}") from exc
    if not lams[0] > 0:
        raise NoConvergence(f"interior operator is not positive definite (lambda {lams[0]:.3e})")

    phi = vecs[:, 0] / root
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
