import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusfp as tf
from torusfp.errors import PreconditionError, SizeError
from torusfp import generator
from torusfp.generator import FFT_AXIS_POINTS, NORM_RTOL, Operator, spectrum_to_csv
from torusfp.spectral import derivative_matrix, fourier_derivative, laplacian

from conftest import random_band_field, small_mlp


def composed_generator(op):
    """Reference assembly L = sum_j D_j diag(e^{-W}) D_j diag(e^{W})."""
    w = op.W.flat
    L = np.zeros((op.size, op.size))
    for j in range(op.lattice.d):
        D = derivative_matrix(op.lattice, j)
        L += D @ (np.exp(-w)[:, None] * D) * np.exp(w)[None, :]
    return L


def expanded_generator_matrix(op):
    """The generator re-derived through the product rule, avoiding derivatives
    of W itself:

        L f = (e^{2W} |grad~ e^{-W}|^2 - e^{W} lap~ e^{-W}) f
              - e^{W} grad~ e^{-W} . grad~ f  +  lap~ f.

    Agrees with the composed route up to spectral aliasing of e^{+-W}.
    """
    lat = op.lattice
    w = op.W.flat
    g_field = tf.GridField(lat, np.exp(-op.W.values), is_real=True)
    grads = [fourier_derivative(g_field, axis=j).flat for j in range(lat.d)]
    lap_g = laplacian(g_field).flat

    diag_term = np.exp(2 * w) * sum(gj**2 for gj in grads) - np.exp(w) * lap_g
    B = np.diag(diag_term)
    for j in range(lat.d):
        D = derivative_matrix(lat, j)
        B -= (np.exp(w) * grads[j])[:, None] * D
        B += D @ D
    return B


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


@pytest.mark.parametrize(
    "E, N, halve",
    [
        (tf.invcos_potential(4.0, 1.0), 63, True),
        (tf.cosine_potential(8.0, 1, 0.05), 127, False),
        (tf.cosine_potential(1.0, 1, 2 * np.pi), 1, True),
    ],
)
def test_dense_spectrum_matches_eigh_oracle(E, N, halve):
    # the d = 1 spectrum is a values-only eigvalsh: it must agree with the
    # eigenvalues of a full eigh of L', with the kernel pinned at 0
    op = tf.build_generator(E, tf.make_lattice(1, N, E.l), halve=halve)
    oracle = -np.linalg.eigh(-op.symmetrized)[0]
    ev = op.eigenvalues
    assert np.abs(ev - oracle).max() <= 1e-12 * np.abs(oracle).max()
    assert ev[0] == 0.0
    assert op.spectral_gap == -ev[1]
    values, _ = op.modes()
    assert np.abs(values - ev).max() <= 1e-12 * np.abs(oracle).max()


def test_dense_modes_decompose_the_stored_generator_without_a_copy(monkeypatch):
    # eigh of L' itself, not of a negated n x n copy; the modes come out
    # descending, orthonormal, with the kernel pinned
    E = tf.cosine_potential(2.0, 1, 1.0)
    lat = tf.make_lattice(1, 20, 1.0)
    op = tf.build_generator(E, lat)
    eigh = np.linalg.eigh
    seen = []

    def counted(a, *args, **kwargs):
        seen.append(a is op.symmetrized)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    values, vectors = op.modes()
    assert seen == [True]
    assert values[0] == 0.0 and np.all(np.diff(values) <= 0)
    np.testing.assert_allclose(values, op.eigenvalues, rtol=0, atol=1e-12 * abs(values[-1]))
    np.testing.assert_allclose(vectors[:, 0], op.kernel_vector(), rtol=0, atol=0)
    assert np.abs(vectors.T @ vectors - np.eye(lat.size)).max() <= 1e-12
    assert np.abs(vectors @ (values[:, None] * vectors.T) - op.symmetrized).max() <= 1e-12 * abs(values[-1])


def test_dense_propagation_decomposes_once(monkeypatch):
    E = tf.cosine_potential(2.0, 1, 1.0)
    lat = tf.make_lattice(1, 20, 1.0)
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    op = tf.build_generator(E, lat)
    assert calls == []  # the gap and the spectrum need no eigenvectors
    ones = tf.GridField(lat, np.ones(lat.shape), is_real=True)
    first = tf.evolve(op, ones, 0.1, snapshots=4)
    again = tf.evolve(op, ones, 0.1, snapshots=4)
    longer, _ = op.propagate(ones.flat, np.array([0.0, 0.5, 1.0]))
    assert calls == [lat.size]
    assert np.array_equal(first.states, again.states)
    assert np.abs(longer.sum(axis=1) - lat.size).max() <= 1e-12 * lat.size


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


def eigenvectors(op):
    """The eigenvectors of L', as columns in the order of op.eigenvalues: an
    eigh of the assembled L', computed here as a test oracle.  Neither
    backend stores them."""
    return np.linalg.eigh(-op.symmetrized)[1]


@settings(max_examples=40, deadline=None)
@given(generator_cases())
def test_generator_structure_property(case):
    E, lat, halve = case
    op = tf.build_generator(E, lat, halve=halve)
    assert op.health["backend"] == ("matrix-free" if lat.d >= 2 else "dense")
    sym = op.symmetrized
    assert np.array_equal(sym, sym.T)
    ev = op.eigenvalues
    assert np.all(np.diff(ev) <= 0)
    assert ev[0] == 0.0 and np.count_nonzero(ev == 0.0) == 1
    L = op.matrix
    assert np.abs(L.sum(axis=0)).max() <= 1e-9 * np.linalg.norm(L, 2)
    ref = np.exp(-op.W.flat / 2)
    assert op.kernel_vector() @ ref >= (1 - 1e-8) * np.linalg.norm(ref)
    # orthonormal eigenvectors: what makes kappa(U Q) = max(u) / min(u)
    Q = eigenvectors(op)
    assert np.abs(Q.T @ Q - np.eye(op.size)).max() <= 1e-12
    assert abs(Q[:, 0] @ ref) >= (1 - 1e-8) * np.linalg.norm(ref)


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
        L, B = op.matrix, expanded_generator_matrix(op)
        scale = np.linalg.norm(L, ord="fro")
        for _ in range(20):
            v = random_band_field(op.lattice, 5, rng).flat
            assert np.linalg.norm(L @ v - B @ v) <= 1e-8 * scale * np.linalg.norm(v)


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


@pytest.mark.parametrize(
    "E, N",
    [
        (tf.zero_potential(1, 1.0), 20),  # doubly degenerate top singular value
        (tf.cosine_potential(8.0, 1, 1.0), 30),
        (tf.cosine_potential(1.0, 2, 1.0), 6),
        (tf.cosine_potential(2.0, 3, 1.0), 4),
    ],
)
def test_operator_norm_matches_svd_oracle_without_svd(E, N, monkeypatch):
    op = tf.build_generator(E, tf.make_lattice(E.d, N, E.l))
    oracle = np.linalg.norm(op.matrix, 2)

    def forbidden(*args, **kwargs):
        raise AssertionError("the norm check must not use an SVD or the dense L")

    # numpy's norm reaches the SVD through its private module, so patch both
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(importlib.import_module("numpy.linalg._linalg"), "svd", forbidden, raising=False)
    monkeypatch.setattr(Operator, "matrix", property(forbidden))
    rep = tf.operator_norm_check(op)
    assert rep.measured == pytest.approx(oracle, rel=1e-10, abs=0)
    assert op.health["norm_lanczos_steps"] > 0
    assert op.health["norm_residual"] <= NORM_RTOL


@pytest.mark.parametrize(
    "d, N",
    [(1, 20), (1, FFT_AXIS_POINTS // 2 - 1), (1, FFT_AXIS_POINTS // 2), (1, 300), (2, 8), (3, 3)],
)
def test_apply_matches_the_assembled_generator(d, N, monkeypatch):
    # the axis derivative by FFT past FFT_AXIS_POINTS points, by the dense
    # circulant, built once per operator, below
    built = []
    circulant = generator.derivative_axis_matrix
    monkeypatch.setattr(generator, "derivative_axis_matrix", lambda lat: built.append(lat) or circulant(lat))
    op = tf.build_generator(tf.cosine_potential(2.0, d, 1.0), tf.make_lattice(d, N, 1.0))
    x = np.random.default_rng(N).standard_normal(op.size)
    ref = op.symmetrized @ x
    assert np.linalg.norm(op.apply(x) - ref) <= 1e-13 * np.linalg.norm(ref)
    B = np.array([b.reshape(-1) for b in op.scaled_derivatives(x)])
    assert abs(np.sum(B * B) + x @ ref) <= 1e-13 * abs(x @ ref)
    assert len(built) == (0 if 2 * N + 1 > FFT_AXIS_POINTS else 1)


def test_operator_norm_through_the_fft_axis_matches_the_dense_norm():
    op = tf.build_generator(tf.cosine_potential(2.0, 1, 1.0), tf.make_lattice(1, 300, 1.0))
    assert op.lattice.points_per_axis > FFT_AXIS_POINTS
    oracle = np.linalg.norm(op.matrix, 2)
    assert tf.operator_norm_check(op).measured == pytest.approx(oracle, rel=1e-10, abs=0)


def test_dense_arrays_are_assembled_on_first_access_and_kept(monkeypatch):
    assembled, solved = [], []
    assemble, eigvalsh = generator._dense_symmetrized, np.linalg.eigvalsh
    monkeypatch.setattr(generator, "_dense_symmetrized", lambda *a: assembled.append(1) or assemble(*a))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(1) or eigvalsh(a))
    plane = tf.build_generator(tf.cosine_potential(1.0, 2, 1.0), tf.make_lattice(2, 4, 1.0))
    assert assembled == [] and solved == []
    sym = plane.symmetrized
    assert plane.eigenvalues is plane.eigenvalues and plane.symmetrized is sym
    assert plane.matrix.shape == sym.shape
    assert assembled == [1] and solved == [1]
    # at d = 1 the gap is read off the spectrum: one assembly, one eigvalsh
    line = tf.build_generator(tf.cosine_potential(1.0, 1, 1.0), tf.make_lattice(1, 8, 1.0))
    assert len(assembled) == 2 and len(solved) == 2
    assert line.spectral_gap == -line.eigenvalues[1] and line.modes()[0] is line.modes()[0]
    assert len(assembled) == 2 and len(solved) == 2


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


@pytest.mark.parametrize(
    "E, N",
    [
        (tf.invcos_potential(4.0, 1.0), 40),
        (tf.cosine_potential(1.5, 2, 1.0), 6),
        (tf.mlp_potential(small_mlp(d=3, seed=7)), 2),
    ],
)
def test_condition_number_is_closed_form(E, N, monkeypatch):
    op = tf.build_generator(E, tf.make_lattice(E.d, N, E.l))
    # reference: singular values of the diagonalizing similarity V = U Q
    svals = np.linalg.svd(op.u_diag[:, None] * eigenvectors(op), compute_uv=False)
    reference = svals[0] / svals[-1]

    def no_svd(*args, **kwargs):
        raise AssertionError("condition_number_check must not factorize V")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    rep = tf.condition_number_check(op)
    assert rep.kappa == float(op.u_diag.max() / op.u_diag.min())
    assert abs(rep.kappa - reference) <= 1e-12 * reference
    assert rep.ok


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
