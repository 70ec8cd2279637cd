"""Dense oracles that only the tests need: the package works without them."""

import numpy as np

from torusfp.errors import ValidationError
from torusfp.sampler import box_probabilities


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
