import numpy as np
import pytest

import torusfp as tf
from torusfp.lattice import SpectralField, idft


def random_band_field(lattice, band, rng):
    """Real random field whose interpolant has max frequency <= band."""
    coeffs = np.zeros(lattice.shape, dtype=complex)
    grids = lattice.index_grids()
    mask = np.ones(lattice.shape, dtype=bool)
    for g in grids:
        mask &= np.abs(g) <= band
    vals = rng.standard_normal(lattice.shape) + 1j * rng.standard_normal(lattice.shape)
    coeffs[mask] = vals[mask]
    fld = idft(SpectralField(lattice, coeffs))
    return tf.GridField(lattice, fld.values.real.copy(), is_real=True)


def small_mlp(d=1, seed=42, l=1.0):
    rng = np.random.default_rng(seed)
    weights = [rng.uniform(-0.8, 0.8, (3, 2 * d)), rng.uniform(-0.8, 0.8, (1, 3))]
    biases = [rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.3, 0.3, 1)]
    return tf.PeriodicMlp(weights, biases, l=l, d=d)


def coupled_potential(z, c, l=1.0):
    """The cosine potential plus c z (1 - cos 2 pi (x_1 - x_2) / l) at d = 2:
    not a sum over axes, so the separable preconditioner built from W's
    mean over each axis is inexact, and it has no grid evaluator.  Its
    minimum stays 0, at the origin."""
    cosine = tf.cosine_potential(z, 2, l)

    def evaluator(pts):
        return cosine.evaluate(pts) + c * z * (1 - np.cos(2 * np.pi * (pts[..., 0] - pts[..., 1]) / l))

    return tf.EnergyPotential(evaluator=evaluator, l=l, d=2, diameter=cosine.diameter + 2 * c * z, name="coupled")


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
