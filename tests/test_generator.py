import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusfp as tf
from torusfp.errors import PreconditionError, SizeError
from torusfp.generator import (
    assembly_equivalence_report,
    expanded_generator_matrix,
    matrix_to_csv,
    spectrum_to_csv,
)
from torusfp.spectral import derivative_matrix

from conftest import small_mlp


def composed_generator(op):
    """Reference assembly L = sum_j D_j diag(e^{-W}) D_j diag(e^{W})."""
    w = op.W.flat
    L = np.zeros((op.size, op.size))
    for j in range(op.lattice.d):
        D = derivative_matrix(op.lattice, j)
        L += D @ (np.exp(-w)[:, None] * D) * np.exp(w)[None, :]
    return L


def test_zero_potential_is_spectral_laplacian():
    lat = tf.make_lattice(1, 4, 1.0)
    op = tf.build_generator(tf.zero_potential(1, 1.0), lat)
    lap = derivative_matrix(lat, 0, order=2)
    assert np.abs(op.matrix - lap).max() <= 1e-10 * np.abs(lap).max()


def test_three_point_laplacian_spectrum():
    # d=1, N=1, l=2pi: multipliers -k^2 for k in {0, +-1}
    lat = tf.make_lattice(1, 1, 2 * np.pi)
    op = tf.build_generator(tf.zero_potential(1, 2 * np.pi), lat)
    np.testing.assert_allclose(np.sort(op.eigenvalues), [-1.0, -1.0, 0.0], atol=1e-12)


def test_kernel_is_gibbs_direction():
    E = tf.cosine_potential(1.0, 1, 2 * np.pi)
    lat = tf.make_lattice(1, 12, 2 * np.pi)
    for halve in (True, False):
        op = tf.build_generator(E, lat, halve=halve)
        # L annihilates e^{-W}
        resid = op.matrix @ op.stationary
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(op.matrix, 2)
        # and the L' kernel is e^{-W/2}
        ref = np.exp(-op.W.flat / 2)
        ref /= np.linalg.norm(ref)
        assert abs(op.kernel_vector() @ ref) >= 1 - 1e-8


def test_symmetrization_and_spectrum_structure():
    for E, lat in [
        (tf.cosine_potential(2.0, 1, 1.0), tf.make_lattice(1, 16, 1.0)),
        (tf.cosine_potential(1.0, 2, 1.0), tf.make_lattice(2, 6, 1.0)),
        (tf.invcos_potential(4.0, 1.0), tf.make_lattice(1, 16, 1.0)),
    ]:
        op = tf.build_generator(E, lat)
        Lp = op.symmetrized
        assert np.linalg.norm(Lp - Lp.T) <= 1e-8 * np.linalg.norm(Lp)
        assert op.eigenvalues[0] == 0.0
        assert np.sum(op.eigenvalues == 0.0) == 1
        assert op.eigenvalues[1] < 0


@pytest.mark.parametrize("z, N, l", [(1.0, 200, 0.05), (8.0, 127, 0.01)])
def test_kernel_eigenvalue_is_exactly_zero(z, N, l):
    # large ||L'||: an absolute clip of the computed kernel eigenvalue misses it
    op = tf.build_generator(tf.cosine_potential(z, 1, l), tf.make_lattice(1, N, l))
    assert op.eigenvalues[0] == 0.0
    assert np.count_nonzero(op.eigenvalues == 0.0) == 1
    assert op.eigenvalues[1] < 0


@pytest.mark.parametrize("halve", [True, False])
@pytest.mark.parametrize(
    "E, N",
    [
        (tf.cosine_potential(2.0, 1, 1.0), 24),
        (tf.mlp_potential(small_mlp(d=2, seed=5)), 6),
        (tf.cosine_potential(1.0, 3, 1.0), 3),
    ],
)
def test_generator_matches_composed_reference(E, N, halve):
    op = tf.build_generator(E, tf.make_lattice(E.d, N, E.l), halve=halve)
    ref = composed_generator(op)
    assert np.linalg.norm(op.matrix - ref) <= 1e-12 * np.linalg.norm(ref)


_MAX_N = {1: 149, 2: 8, 3: 2}  # at most 299, 289 and 125 nodes


@st.composite
def generator_cases(draw):
    d = draw(st.integers(1, 3))
    N = draw(st.integers(1, _MAX_N[d]))
    l = draw(st.floats(0.05, 10.0))
    z = draw(st.floats(0.0, 8.0))
    return tf.cosine_potential(z, d, l), tf.make_lattice(d, N, l), draw(st.booleans())


@settings(max_examples=40, deadline=None)
@given(generator_cases())
def test_generator_structure_property(case):
    E, lat, halve = case
    op = tf.build_generator(E, lat, halve=halve)
    assert np.array_equal(op.symmetrized, op.symmetrized.T)
    ev = op.eigenvalues
    assert np.all(np.diff(ev) <= 0)
    assert ev[0] == 0.0 and np.count_nonzero(ev == 0.0) == 1
    L = op.matrix
    assert np.abs(L.sum(axis=0)).max() <= 1e-9 * np.linalg.norm(L, 2)
    ref = np.exp(-op.W.flat / 2)
    assert op.kernel_vector() @ ref >= (1 - 1e-8) * np.linalg.norm(ref)


def test_negative_semidefinite_quadratic_form(rng):
    E = tf.cosine_potential(1.5, 1, 1.0)
    lat = tf.make_lattice(1, 12, 1.0)
    op = tf.build_generator(E, lat)
    sym = op.symmetrized
    for _ in range(20):
        f = rng.standard_normal(op.size)
        assert f @ sym @ f <= 1e-9 * f @ f
    # equality only along e^{-W/2}
    ref = np.exp(-op.W.flat / 2)
    assert abs(ref @ sym @ ref) <= 1e-9 * ref @ ref


def test_left_kernel_is_ones():
    E = tf.cosine_potential(2.0, 1, 1.0)
    op = tf.build_generator(E, tf.make_lattice(1, 10, 1.0))
    row_sums = np.ones(op.size) @ op.matrix
    assert np.linalg.norm(row_sums) <= 1e-9 * np.linalg.norm(op.matrix, 2)


def test_assembly_equivalence_band_limited(rng):
    # composed route vs the product-rule expansion, on probes whose products
    # do not alias
    for E, N in [
        (tf.zero_potential(1, 1.0), 16),
        (tf.cosine_potential(1.0, 1, 1.0), 20),
        (tf.cosine_potential(2.0, 1, 1.0), 20),
    ]:
        op = tf.build_generator(E, tf.make_lattice(1, N, 1.0))
        rep = assembly_equivalence_report(op, n_vectors=20, band=5)
        assert rep.ok, rep.max_relative_mismatch


def test_expanded_route_needs_band_limited_probes(rng):
    # full-band probes alias the grid products: the identity visibly fails
    op = tf.build_generator(tf.cosine_potential(2.0, 1, 1.0), tf.make_lattice(1, 20, 1.0))
    B = expanded_generator_matrix(op)
    v = rng.standard_normal(op.size)
    diff = np.linalg.norm(op.matrix @ v - B @ v) / np.linalg.norm(op.matrix @ v)
    assert diff > 1e-6


def test_operator_norm_check():
    # W = 0: equality with the Laplacian multiplier bound
    lat = tf.make_lattice(1, 8, 1.0)
    op0 = tf.build_generator(tf.zero_potential(1, 1.0), lat)
    rep0 = tf.operator_norm_check(op0)
    expected = 4 * math.pi**2 * 64
    np.testing.assert_allclose(rep0.measured, expected, rtol=1e-10)
    assert rep0.ok

    rep1 = tf.operator_norm_check(tf.build_generator(tf.cosine_potential(1.0, 1, 1.0), lat))
    assert rep1.ok and rep1.measured < rep1.bound

    with pytest.raises(PreconditionError):
        tf.operator_norm_check(tf.build_generator(tf.zero_potential(1, 1.0), tf.make_lattice(1, 3, 1.0)))


def test_condition_number_check():
    lat = tf.make_lattice(1, 10, 1.0)
    rep0 = tf.condition_number_check(tf.build_generator(tf.zero_potential(1, 1.0), lat))
    assert rep0.kappa == pytest.approx(1.0, abs=1e-12)

    # Delta_W ~ 2 for the z=2 cosine evolved at E/2 (grid diameter falls a
    # hair short of the continuum value, so the bound sits just under e)
    op = tf.build_generator(tf.cosine_potential(2.0, 1, 1.0), lat)
    rep = tf.condition_number_check(op)
    assert rep.bound == pytest.approx(math.e, rel=0.01)
    assert rep.bound <= math.e
    assert rep.ok and rep.kappa == pytest.approx(rep.bound, rel=1e-9)

    mlp_op = tf.build_generator(tf.mlp_potential(small_mlp(seed=3)), lat)
    mrep = tf.condition_number_check(mlp_op)
    assert mrep.ok


def test_poincare_report():
    # W = 0 at l = 2 pi: gap 1 equals the floor
    lat = tf.make_lattice(1, 8, 2 * np.pi)
    rep0 = tf.poincare_report(tf.build_generator(tf.zero_potential(1, 2 * np.pi), lat))
    assert rep0.gap == pytest.approx(1.0, rel=1e-10)
    assert rep0.floor == pytest.approx(1.0, rel=1e-12)
    assert rep0.ok

    # cosine z=1 evolved at the full potential: Delta_W ~ 2, floor ~ e^{-2}
    # (the grid diameter is a hair under the continuum value)
    lat16 = tf.make_lattice(1, 16, 2 * np.pi)
    rep1 = tf.poincare_report(tf.build_generator(tf.cosine_potential(1.0, 1, 2 * np.pi), lat16, halve=False))
    assert rep1.floor == pytest.approx(math.exp(-2.0), rel=0.01)
    assert rep1.gap >= rep1.floor
    # and the pipeline (E/2) build has Delta_W ~ 1
    rep_half = tf.poincare_report(tf.build_generator(tf.cosine_potential(1.0, 1, 2 * np.pi), lat16))
    assert rep_half.floor == pytest.approx(math.exp(-1.0), rel=0.01)
    assert rep_half.gap >= rep_half.floor

    # metastability: the gap collapses once the barrier dominates.  (At small
    # z the gap first grows with the well stiffness; the monotone decay sets
    # in beyond z ~ 3 for the full potential.)
    gaps = []
    for z in (3.0, 4.0, 6.0):
        gaps.append(tf.build_generator(tf.cosine_potential(z, 1, 2 * np.pi), lat16, halve=False).spectral_gap)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.1 * tf.build_generator(tf.zero_potential(1, 2 * np.pi), lat16).spectral_gap


def test_dense_cap_enforced():
    E = tf.zero_potential(2, 1.0)
    with pytest.raises(SizeError):
        tf.build_generator(E, tf.make_lattice(2, 40, 1.0, cap=None))


def test_exports():
    op = tf.build_generator(tf.zero_potential(1, 1.0), tf.make_lattice(1, 2, 1.0))
    text = spectrum_to_csv(op)
    assert text.startswith("index,eigenvalue\n")
    assert len(text.strip().split("\n")) == op.size + 1
    mat = matrix_to_csv(op.matrix)
    assert len(mat.strip().split("\n")) == op.size
