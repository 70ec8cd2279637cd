"""Dense oracles that only the tests need: the package works without them."""

import functools

import numpy as np

from torusfp.errors import ValidationError
from torusfp.sampler import box_probabilities
from torusfp.spectral import derivative_axis_matrix


def derivative_matrix(lattice, axis, order=1):
    """Dense n x n matrix of the axis derivative on the full (2N+1)^d space,
    the Kronecker product of the axis matrix with identities."""
    if not 0 <= axis < lattice.d:
        raise ValidationError(f"axis {axis} out of range for d={lattice.d}")
    mat = derivative_axis_matrix(lattice, order)
    n = lattice.points_per_axis
    return functools.reduce(np.kron, [mat if j == axis else np.eye(n) for j in range(lattice.d)])


def kronecker_symmetrized(lattice, u):
    """Dense L' = -sum_j B_j^T B_j from the n x n B_j = diag(u) D_j diag(1/u)
    of :func:`derivative_matrix`: the Kronecker reference of the package's
    line-by-line assembly, the same arithmetic at d = 1."""
    K = None
    for j in range(lattice.d):
        B = derivative_matrix(lattice, j)
        B *= u[:, None]
        B /= u[None, :]
        K = B.T @ B if K is None else np.add(K, B.T @ B, out=K)
    return np.negative(K, out=K)


def generator_matrix(op):
    """L = U L' U^{-1}, derived from the operator's dense L' on each call."""
    u = op.u_diag
    L = op.symmetrized / u
    L *= u[:, None]
    return L


def discrete_state_tv(psi, phi):
    """TV between the sampling densities of two states on the same lattice."""
    if psi.lattice != phi.lattice:
        raise ValidationError("states live on different lattices")
    return 0.5 * float(np.abs(box_probabilities(psi) - box_probabilities(phi)).sum())
